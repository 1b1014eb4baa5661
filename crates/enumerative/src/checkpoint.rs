//! Checkpoint files for the explicit enumeration engines.
//!
//! A run stopped by the governor (budget, deadline, memory cap,
//! Ctrl-C) can persist its exact search state — the visited set, the
//! unexpanded frontier, the visit tally and the violations found so
//! far — and a later invocation can resume from it. Because engines
//! stop only at expansion granularity (a claimed state is never
//! dropped half-expanded), the resumed run expands exactly the states
//! the uninterrupted run would have: `distinct`, `visits` and the
//! violation *set* are identical however many times the run is split.
//!
//! # File format (`ccv-checkpoint-v1`)
//!
//! Line-oriented text. The first line is a JSON header binding the
//! checkpoint to its protocol and options:
//!
//! ```text
//! {"schema":"ccv-checkpoint-v1","protocol":"Illinois","protocol_hash":"91f4…","n":3,"dedup":"exact","visits":120,"distinct":64,"frontier":7}
//! ```
//!
//! then one line per record, tag first: `F <hex>` for each frontier
//! state (worklist order preserved), `V <hex>` for each visited state,
//! and `E {json}` for each violation found before the stop. The hash
//! is [`FxHasher`] over the protocol's canonical DSL rendering, so a
//! checkpoint refuses to resume against a protocol whose behaviour
//! differs — not just one with a different name.
//!
//! The file ends with an integrity trailer `C <hash>` — the
//! [`FxHasher`] digest of every preceding byte — so a torn or
//! bit-flipped checkpoint can never parse successfully. Files are
//! published via [`ccv_observe::persist::write_atomic`] (write-temp +
//! fsync + atomic rename), and a file that fails validation on load
//! is quarantined aside as `<path>.corrupt` rather than re-read —
//! see [`Checkpoint::load_or_quarantine`]. The write path carries the
//! `checkpoint.write` fault-injection site.

use crate::explicit::{Dedup, EnumError, EnumOptions, EnumResult, ResumeSeed};
use crate::fxhash::FxHasher;
use crate::packed::PackedState;
use ccv_model::{dsl, ProtocolSpec};
use ccv_observe::{persist, FaultHandle, Json};
use std::hash::Hasher;
use std::io::{self, Write as _};
use std::path::Path;

/// Schema tag written to (and required of) every checkpoint header.
pub const CHECKPOINT_SCHEMA: &str = "ccv-checkpoint-v1";

/// Hex digest of the protocol's canonical DSL rendering. Rendering
/// before hashing makes the digest independent of how the spec was
/// built (library constructor, DSL file, mutation) and sensitive to
/// anything that changes behaviour.
pub fn protocol_hash(spec: &ProtocolSpec) -> String {
    let mut h = FxHasher::default();
    h.write(dsl::to_dsl(spec).as_bytes());
    format!("{:016x}", h.finish())
}

fn dedup_name(dedup: Dedup) -> &'static str {
    match dedup {
        Dedup::Exact => "exact",
        Dedup::Counting => "counting",
    }
}

fn dedup_of_name(name: &str) -> Option<Dedup> {
    match name {
        "exact" => Some(Dedup::Exact),
        "counting" => Some(Dedup::Counting),
        _ => None,
    }
}

/// A persisted (or persistable) enumeration search state.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Protocol name, for human-readable mismatch errors.
    pub protocol: String,
    /// [`protocol_hash`] of the protocol the run explored.
    pub protocol_hash: String,
    /// Number of caches.
    pub n: usize,
    /// Pruning discipline of the stopped run.
    pub dedup: Dedup,
    /// Successor visits performed before the stop.
    pub visits: usize,
    /// Every claimed state (includes the frontier).
    pub visited: Vec<PackedState>,
    /// Claimed-but-unexpanded states, in worklist order.
    pub frontier: Vec<PackedState>,
    /// Violations found before the stop.
    pub errors: Vec<EnumError>,
}

impl Checkpoint {
    /// Builds a checkpoint from an early-stopped run, or `None` when
    /// the run completed (nothing to resume) or captured no snapshot
    /// (run without [`EnumOptions::capture_snapshot`]).
    pub fn of_result(
        spec: &ProtocolSpec,
        opts: &EnumOptions,
        r: &EnumResult,
    ) -> Option<Checkpoint> {
        let snapshot = r.snapshot.as_ref().filter(|_| r.truncated)?;
        Some(Checkpoint {
            protocol: spec.name().to_string(),
            protocol_hash: protocol_hash(spec),
            n: opts.n,
            dedup: opts.dedup,
            visits: r.visits,
            visited: snapshot.visited.clone(),
            frontier: snapshot.frontier.clone(),
            errors: r.errors.clone(),
        })
    }

    /// Checks that the checkpoint was taken from `spec` under options
    /// compatible with `opts` — same protocol behaviour (hash), cache
    /// count and pruning discipline. Resuming under different options
    /// would silently change what the totals mean.
    pub fn validate(&self, spec: &ProtocolSpec, opts: &EnumOptions) -> Result<(), String> {
        let hash = protocol_hash(spec);
        if self.protocol_hash != hash {
            return Err(format!(
                "checkpoint was taken from protocol '{}' (hash {}), which differs from '{}' (hash {hash})",
                self.protocol,
                self.protocol_hash,
                spec.name()
            ));
        }
        if self.n != opts.n {
            return Err(format!(
                "checkpoint enumerated n={} caches, this run requests n={}",
                self.n, opts.n
            ));
        }
        if self.dedup != opts.dedup {
            return Err(format!(
                "checkpoint used {} dedup, this run requests {}",
                dedup_name(self.dedup),
                dedup_name(opts.dedup)
            ));
        }
        Ok(())
    }

    /// Converts the checkpoint into the seed the engines resume from.
    pub fn into_seed(self) -> ResumeSeed {
        ResumeSeed {
            visited: self.visited,
            frontier: self.frontier,
            visits: self.visits,
            errors: self.errors,
        }
    }

    fn header(&self) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::str(CHECKPOINT_SCHEMA)),
            ("protocol".to_string(), Json::str(&*self.protocol)),
            ("protocol_hash".to_string(), Json::str(&*self.protocol_hash)),
            ("n".to_string(), Json::int(self.n as u64)),
            ("dedup".to_string(), Json::str(dedup_name(self.dedup))),
            ("visits".to_string(), Json::int(self.visits as u64)),
            ("distinct".to_string(), Json::int(self.visited.len() as u64)),
            (
                "frontier".to_string(),
                Json::int(self.frontier.len() as u64),
            ),
        ])
    }

    /// Serialises the checkpoint to a writer, integrity trailer
    /// included.
    pub fn write_to(&self, out: &mut dyn io::Write) -> io::Result<()> {
        let mut buf: Vec<u8> = Vec::new();
        writeln!(buf, "{}", self.header().render_compact())?;
        for s in &self.frontier {
            writeln!(buf, "F {:x}", s.0)?;
        }
        for s in &self.visited {
            writeln!(buf, "V {:x}", s.0)?;
        }
        for e in &self.errors {
            let record = Json::Obj(vec![
                ("state".to_string(), Json::str(format!("{:x}", e.state.0))),
                (
                    "descriptions".to_string(),
                    Json::Arr(e.descriptions.iter().map(Json::str).collect()),
                ),
            ]);
            writeln!(buf, "E {}", record.render_compact())?;
        }
        let trailer = crate::fxhash::integrity_trailer(&buf);
        writeln!(buf, "{trailer}")?;
        out.write_all(&buf)
    }

    /// Parses a checkpoint from its textual form. The integrity
    /// trailer is verified first, so a torn or bit-flipped file is
    /// rejected before any of its content is believed.
    pub fn read_from(text: &str) -> Result<Checkpoint, String> {
        let body = crate::fxhash::verify_trailer(text)?;
        let mut lines = body.lines();
        let header_line = lines.next().ok_or("empty checkpoint file")?;
        let header =
            Json::parse(header_line).map_err(|e| format!("malformed checkpoint header: {e}"))?;
        let field = |key: &str| {
            header
                .get(key)
                .ok_or_else(|| format!("checkpoint header is missing '{key}'"))
        };
        let schema = field("schema")?.as_str().unwrap_or_default();
        if schema != CHECKPOINT_SCHEMA {
            return Err(format!(
                "unsupported checkpoint schema '{schema}' (expected '{CHECKPOINT_SCHEMA}')"
            ));
        }
        let protocol = field("protocol")?
            .as_str()
            .ok_or("'protocol' must be a string")?
            .to_string();
        let protocol_hash = field("protocol_hash")?
            .as_str()
            .ok_or("'protocol_hash' must be a string")?
            .to_string();
        let n = field("n")?.as_u64().ok_or("'n' must be an integer")? as usize;
        let dedup_str = field("dedup")?.as_str().ok_or("'dedup' must be a string")?;
        let dedup = dedup_of_name(dedup_str)
            .ok_or_else(|| format!("unknown dedup discipline '{dedup_str}'"))?;
        let visits = field("visits")?
            .as_u64()
            .ok_or("'visits' must be an integer")? as usize;
        let distinct = field("distinct")?
            .as_u64()
            .ok_or("'distinct' must be an integer")? as usize;
        let frontier_len = field("frontier")?
            .as_u64()
            .ok_or("'frontier' must be an integer")? as usize;

        let parse_state = |hex: &str, line_no: usize| {
            u128::from_str_radix(hex.trim(), 16)
                .map(PackedState)
                .map_err(|e| format!("line {line_no}: bad state '{hex}': {e}"))
        };
        let mut visited = Vec::with_capacity(distinct);
        let mut frontier = Vec::with_capacity(frontier_len);
        let mut errors = Vec::new();
        for (i, line) in lines.enumerate() {
            let line_no = i + 2;
            if line.trim().is_empty() {
                continue;
            }
            let (tag, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("line {line_no}: missing record tag"))?;
            match tag {
                "F" => frontier.push(parse_state(rest, line_no)?),
                "V" => visited.push(parse_state(rest, line_no)?),
                "E" => {
                    let record = Json::parse(rest)
                        .map_err(|e| format!("line {line_no}: bad error record: {e}"))?;
                    let state_hex = record
                        .get("state")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("line {line_no}: error record lacks 'state'"))?;
                    let descriptions = record
                        .get("descriptions")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| {
                            format!("line {line_no}: error record lacks 'descriptions'")
                        })?
                        .iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect();
                    errors.push(EnumError {
                        state: parse_state(state_hex, line_no)?,
                        descriptions,
                    });
                }
                other => return Err(format!("line {line_no}: unknown record tag '{other}'")),
            }
        }
        if visited.len() != distinct {
            return Err(format!(
                "checkpoint header promises {distinct} visited states, file carries {}",
                visited.len()
            ));
        }
        if frontier.len() != frontier_len {
            return Err(format!(
                "checkpoint header promises {frontier_len} frontier states, file carries {}",
                frontier.len()
            ));
        }
        Ok(Checkpoint {
            protocol,
            protocol_hash,
            n,
            dedup,
            visits,
            visited,
            frontier,
            errors,
        })
    }

    /// Writes the checkpoint to `path` atomically (write-temp +
    /// fsync + rename): a crash mid-save leaves the previous
    /// checkpoint intact, never a torn file under the live name.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.save_with(path, &FaultHandle::disabled())
    }

    /// [`Checkpoint::save`] with fault injection armed (site
    /// `checkpoint.write`, kinds `io`, `torn` and `panic`).
    pub fn save_with(&self, path: &Path, fault: &FaultHandle) -> io::Result<()> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)?;
        persist::write_atomic(path, &buf, fault, "checkpoint.write")
    }

    /// Reads a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Checkpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        Checkpoint::read_from(&text)
    }

    /// Reads a checkpoint from `path`; a file that fails validation
    /// (torn write, bit rot, wrong schema) is moved aside to
    /// `<path>.corrupt` so it is preserved for inspection but never
    /// silently re-read, and the error reports the quarantine.
    pub fn load_or_quarantine(path: &Path) -> Result<Checkpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        match Checkpoint::read_from(&text) {
            Ok(ckpt) => Ok(ckpt),
            Err(e) => {
                let note = match persist::quarantine(path) {
                    Ok(q) => format!("; quarantined to {}", q.display()),
                    Err(qe) => format!("; quarantine failed: {qe}"),
                };
                Err(format!(
                    "checkpoint {} failed validation: {e}{note}",
                    path.display()
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::enumerate;
    use ccv_model::protocols::{dragon, illinois};

    fn stopped_checkpoint() -> (ccv_model::ProtocolSpec, EnumOptions, Checkpoint) {
        let spec = illinois();
        let opts = EnumOptions::new(3)
            .exact()
            .max_states(10)
            .capture_snapshot(true);
        let r = enumerate(&spec, &opts);
        assert!(r.truncated);
        let ckpt = Checkpoint::of_result(&spec, &opts, &r).expect("snapshot captured");
        (spec, opts, ckpt)
    }

    #[test]
    fn roundtrips_through_text() {
        let (_, _, ckpt) = stopped_checkpoint();
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back = Checkpoint::read_from(&text).unwrap();
        assert_eq!(back.protocol, ckpt.protocol);
        assert_eq!(back.protocol_hash, ckpt.protocol_hash);
        assert_eq!(back.n, ckpt.n);
        assert_eq!(back.dedup, ckpt.dedup);
        assert_eq!(back.visits, ckpt.visits);
        assert_eq!(back.visited, ckpt.visited);
        assert_eq!(back.frontier, ckpt.frontier);
        assert_eq!(back.errors.len(), ckpt.errors.len());
    }

    #[test]
    fn completed_runs_yield_no_checkpoint() {
        let spec = illinois();
        let opts = EnumOptions::new(2).capture_snapshot(true);
        let r = enumerate(&spec, &opts);
        assert!(!r.truncated);
        assert!(Checkpoint::of_result(&spec, &opts, &r).is_none());
    }

    #[test]
    fn validate_accepts_the_originating_run() {
        let (spec, opts, ckpt) = stopped_checkpoint();
        assert!(ckpt.validate(&spec, &opts).is_ok());
    }

    #[test]
    fn validate_rejects_a_different_protocol() {
        let (_, opts, ckpt) = stopped_checkpoint();
        let err = ckpt.validate(&dragon(), &opts).unwrap_err();
        assert!(err.contains("hash"), "{err}");
    }

    #[test]
    fn validate_rejects_mismatched_options() {
        let (spec, opts, ckpt) = stopped_checkpoint();
        let wrong_n = EnumOptions::new(opts.n + 1).exact();
        assert!(ckpt.validate(&spec, &wrong_n).unwrap_err().contains("n="));
        let wrong_dedup = EnumOptions::new(opts.n);
        assert!(ckpt
            .validate(&spec, &wrong_dedup)
            .unwrap_err()
            .contains("dedup"));
    }

    #[test]
    fn corrupt_files_are_rejected_not_panicked_on() {
        let (_, _, ckpt) = stopped_checkpoint();
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();

        assert!(Checkpoint::read_from("").is_err());
        assert!(Checkpoint::read_from("not json").is_err());
        assert!(Checkpoint::read_from("{\"schema\":\"other\"}").is_err());
        // Truncated body: header promises more states than present.
        let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(Checkpoint::read_from(&truncated).is_err());
        // Garbage record tag.
        let garbled = format!("{}\nX deadbeef", text.lines().next().unwrap());
        assert!(Checkpoint::read_from(&garbled).is_err());
    }

    #[test]
    fn bit_flips_fail_the_integrity_trailer() {
        let (_, _, ckpt) = stopped_checkpoint();
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        // Flip one bit in a record byte: without the trailer this
        // could still parse as a (different) valid state.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        let text = String::from_utf8_lossy(&buf).into_owned();
        assert!(Checkpoint::read_from(&text).is_err());
    }

    #[test]
    fn torn_save_is_quarantined_on_load() {
        let (_, _, ckpt) = stopped_checkpoint();
        let path = std::env::temp_dir().join(format!("ccv-ckpt-torn-{}.ccvk", std::process::id()));
        let fault = FaultHandle::from_spec("checkpoint.write:torn").unwrap();
        ckpt.save_with(&path, &fault).unwrap();
        let err = Checkpoint::load_or_quarantine(&path).unwrap_err();
        assert!(err.contains("quarantined"), "{err}");
        assert!(!path.exists());
        let corrupt = path.with_extension("ccvk.corrupt");
        assert!(corrupt.exists());
        std::fs::remove_file(&corrupt).unwrap();
    }

    #[test]
    fn injected_io_error_fails_save_cleanly() {
        let (_, _, ckpt) = stopped_checkpoint();
        let path = std::env::temp_dir().join(format!("ccv-ckpt-io-{}.ccvk", std::process::id()));
        let fault = FaultHandle::from_spec("checkpoint.write:io").unwrap();
        let err = ckpt.save_with(&path, &fault).unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert!(!path.exists());
        // The fault window is exhausted: the retry succeeds and the
        // saved file round-trips.
        ckpt.save_with(&path, &fault).unwrap();
        let back = Checkpoint::load_or_quarantine(&path).unwrap();
        assert_eq!(back.visited, ckpt.visited);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hash_tracks_protocol_behaviour_not_name() {
        let a = protocol_hash(&illinois());
        let b = protocol_hash(&illinois());
        assert_eq!(a, b);
        assert_ne!(a, protocol_hash(&dragon()));
        assert_ne!(
            a,
            protocol_hash(&ccv_model::protocols::illinois_missing_invalidation())
        );
    }
}

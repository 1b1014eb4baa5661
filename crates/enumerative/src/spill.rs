//! Sharded spill-to-disk visited table for out-of-core enumeration.
//!
//! The in-RAM visited set is what makes explicit enumeration OOM past
//! n≈12: the table itself dwarfs the frontier. This module bounds the
//! resident footprint by splitting the set into [`FxHasher`]-addressed
//! shards and flushing any shard that outgrows its slice of the
//! configured budget to an immutable, sorted **segment file**. A run
//! with spilling enabled streams over arbitrarily large state spaces
//! with RAM roughly capped at the spill threshold (plus the frontier),
//! while membership stays exact — the reached set, visit counts and
//! violation sets are identical to an unconstrained in-RAM run.
//!
//! # Segment file format (`ccv-spill-segment-v1`)
//!
//! The same line-oriented text discipline as the
//! [`ccv-checkpoint-v1`](crate::checkpoint) format: a JSON header line
//!
//! ```text
//! {"schema":"ccv-spill-segment-v1","shard":3,"count":1024,"min":"0…0","max":"f…f"}
//! ```
//!
//! followed by `count` records `V <032x>\n` — one packed state each,
//! sorted ascending, **fixed width** (35 bytes) so record `i` lives at
//! a computable offset and a membership probe reads a single block —
//! and a final integrity trailer `C <hash>\n`: the [`FxHasher`] digest
//! of every preceding byte, so a torn or bit-flipped segment can never
//! pass [`read_segment`] validation. Segments are published with
//! [`persist::write_atomic`] (write-temp + fsync + rename), so a crash
//! mid-flush leaves no half-written segment under a live name.
//!
//! # Probing
//!
//! A lookup checks the shard's resident set first, then each of its
//! segments: a `min`/`max` range filter, then a binary search over
//! in-RAM *fence keys* (every [`FENCE_EVERY`]-th record) to locate the
//! one block that could hold the key, then one seek + block read +
//! scan. Segments are immutable once written, so no compaction or
//! write-back logic exists.
//!
//! # Failure discipline
//!
//! Spilling is an optimisation, not a correctness gate: any I/O error
//! flips the table into **degraded** mode — the failing operation
//! falls back to RAM-only behaviour (a failed flush keeps the shard
//! resident; a failed probe reports "absent", matching an empty
//! segment) and the first error is recorded for the caller to surface.
//! A degraded run may lose the memory bound or, after a failed probe,
//! re-expand a state, but it never silently drops reachable states.
//!
//! Both halves are fault-injectable: the `spill.flush` site covers
//! segment publication (`io`, `torn`, `panic` kinds) and the
//! `spill.probe` site covers membership reads (`io`, `slow`) — see
//! [`ccv_observe::fault`].

use crate::fxhash::{FxHashSet, FxHasher};
use crate::packed::PackedState;
use ccv_observe::{persist, FaultHandle, Json};
use std::hash::{Hash, Hasher};
use std::io::{self, Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Schema tag written to (and required of) every segment header.
pub const SPILL_SCHEMA: &str = "ccv-spill-segment-v1";

/// Number of hash shards (power of two, selected by the low bits of
/// the state's [`FxHasher`] digest).
pub const SHARDS: usize = 16;

/// One fence key is kept resident per this many segment records; a
/// probe reads at most this many records from disk.
pub const FENCE_EVERY: usize = 64;

/// Bytes per segment record: `"V "` + 32 hex digits + newline.
const REC_BYTES: usize = 35;

/// Default resident-byte budget when the caller sets none (256 MiB).
pub const DEFAULT_SPILL_THRESHOLD: u64 = 256 << 20;

/// Where and when to spill, carried inside
/// [`EnumOptions`](crate::explicit::EnumOptions).
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Directory receiving the segment files (created if absent).
    pub dir: PathBuf,
    /// Total resident-byte budget for the visited table; a shard
    /// whose resident set outgrows its `1/SHARDS` slice is flushed.
    pub threshold: u64,
}

impl SpillConfig {
    /// A spill configuration writing into `dir` under `threshold`
    /// resident bytes (`None` = [`DEFAULT_SPILL_THRESHOLD`]).
    pub fn new(dir: impl Into<PathBuf>, threshold: Option<u64>) -> SpillConfig {
        SpillConfig {
            dir: dir.into(),
            threshold: threshold.unwrap_or(DEFAULT_SPILL_THRESHOLD),
        }
    }
}

/// An immutable on-disk sorted run of one shard's states.
#[derive(Debug)]
struct Segment {
    file: std::fs::File,
    /// Byte offset of record 0 (just past the header line).
    data_start: u64,
    /// Number of records.
    count: usize,
    /// Smallest / largest state in the segment.
    min: u128,
    max: u128,
    /// Every `FENCE_EVERY`-th key (always including record 0).
    fences: Vec<u128>,
}

impl Segment {
    /// Whether `key` is in this segment: range filter, fence binary
    /// search, one block read.
    fn contains(&mut self, key: u128, block: &mut Vec<u8>) -> io::Result<bool> {
        if key < self.min || key > self.max {
            return Ok(false);
        }
        // Index of the last fence <= key; min <= key rules out "before
        // the first fence".
        let fence_idx = self.fences.partition_point(|&f| f <= key) - 1;
        let first = fence_idx * FENCE_EVERY;
        let records = FENCE_EVERY.min(self.count - first);
        block.resize(records * REC_BYTES, 0);
        self.file.seek(SeekFrom::Start(
            self.data_start + (first * REC_BYTES) as u64,
        ))?;
        self.file.read_exact(block)?;
        for rec in block.chunks_exact(REC_BYTES) {
            let hex = std::str::from_utf8(&rec[2..34])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let state = u128::from_str_radix(hex, 16)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if state == key {
                return Ok(true);
            }
            if state > key {
                break; // sorted: key cannot appear later
            }
        }
        Ok(false)
    }

    /// Reads every state back (snapshot capture).
    fn read_all(&mut self, out: &mut Vec<PackedState>) -> io::Result<()> {
        let mut text = String::new();
        self.file.seek(SeekFrom::Start(self.data_start))?;
        self.file.read_to_string(&mut text)?;
        let mut read = 0usize;
        for (i, line) in text.lines().take(self.count).enumerate() {
            let hex = line
                .strip_prefix("V ")
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("record {i}")))?;
            let state = u128::from_str_radix(hex, 16)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            out.push(PackedState(state));
            read += 1;
        }
        if read != self.count {
            // A torn segment must degrade the snapshot, not silently
            // shrink it.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("segment truncated: {read} of {} records", self.count),
            ));
        }
        Ok(())
    }
}

/// One hash shard: a resident set plus its flushed segments.
#[derive(Debug, Default)]
struct Shard {
    ram: FxHashSet<PackedState>,
    segments: Vec<Segment>,
}

/// The sharded, spillable visited table.
#[derive(Debug)]
pub struct SpillVisited {
    dir: PathBuf,
    /// Per-shard resident-byte budget (total threshold / SHARDS).
    shard_budget: u64,
    shards: Vec<Shard>,
    len: usize,
    segments_written: u64,
    spilled_bytes: u64,
    /// First I/O error, if any; set once and never cleared.
    error: Option<String>,
    /// Reused block buffer for probes.
    block: Vec<u8>,
    /// Fault injection (sites `spill.flush`, `spill.probe`).
    fault: FaultHandle,
}

/// Resident bytes of one shard's hash set (same accounting as the
/// in-RAM table: one control byte per slot besides the state).
fn ram_bytes(ram: &FxHashSet<PackedState>) -> u64 {
    (ram.capacity() * (std::mem::size_of::<PackedState>() + 1)) as u64
}

fn shard_of(key: PackedState) -> usize {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    (h.finish() as usize) & (SHARDS - 1)
}

impl SpillVisited {
    /// An empty table spilling into `config.dir`. Directory creation
    /// failures degrade the table (it stays correct, RAM-only) rather
    /// than failing the run; callers wanting early validation create
    /// the directory themselves first.
    pub fn new(config: &SpillConfig) -> SpillVisited {
        SpillVisited::with_fault(config, FaultHandle::disabled())
    }

    /// [`SpillVisited::new`] with fault injection armed (sites
    /// `spill.flush` and `spill.probe`).
    pub fn with_fault(config: &SpillConfig, fault: FaultHandle) -> SpillVisited {
        let mut table = SpillVisited {
            dir: config.dir.clone(),
            shard_budget: (config.threshold / SHARDS as u64).max(1),
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            len: 0,
            segments_written: 0,
            spilled_bytes: 0,
            error: None,
            block: Vec::new(),
            fault,
        };
        if let Err(e) = std::fs::create_dir_all(&config.dir) {
            table.degrade(format!("creating {}: {e}", config.dir.display()));
        }
        table
    }

    fn degrade(&mut self, message: String) {
        if self.error.is_none() {
            self.error = Some(message);
        }
    }

    /// The first I/O error the table hit, if any. A degraded table is
    /// still exact on everything it holds, but may have lost its
    /// memory bound (failed flush) or re-admitted a spilled state
    /// (failed probe).
    pub fn io_error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Number of distinct states admitted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no state was admitted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Segment files written so far.
    pub fn segments_written(&self) -> u64 {
        self.segments_written
    }

    /// Bytes living in segment files.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Resident (in-RAM) footprint — what a memory governor should
    /// poll, since it is what flushing keeps bounded.
    pub fn approx_ram_bytes(&self) -> u64 {
        self.shards.iter().map(|s| ram_bytes(&s.ram)).sum::<u64>()
            + self.block.capacity() as u64
            + (self.shards.len() * std::mem::size_of::<Shard>()) as u64
    }

    /// Full footprint including on-disk segments — what the
    /// `visited_bytes` gauge reports.
    pub fn total_bytes(&self) -> u64 {
        self.approx_ram_bytes() + self.spilled_bytes
    }

    /// True if `key` was already admitted.
    pub fn contains(&mut self, key: PackedState) -> bool {
        let si = shard_of(key);
        if self.shards[si].ram.contains(&key) {
            return true;
        }
        if !self.shards[si].segments.is_empty() {
            if let Err(e) = self.fault.io("spill.probe") {
                // Same conservative discipline as a real probe error.
                self.degrade(format!("probing spill segment: {e}"));
                return false;
            }
        }
        let mut found = false;
        let mut failure = None;
        for seg in &mut self.shards[si].segments {
            match seg.contains(key.0, &mut self.block) {
                Ok(true) => {
                    found = true;
                    break;
                }
                Ok(false) => {}
                Err(e) => {
                    // "Absent" is the conservative answer: the state
                    // is re-admitted and re-expanded, never dropped.
                    failure = Some(format!("probing spill segment: {e}"));
                    break;
                }
            }
        }
        if let Some(message) = failure {
            self.degrade(message);
        }
        found
    }

    /// Admits `key`; returns true if it was new. May flush the key's
    /// shard to a new segment file.
    pub fn insert(&mut self, key: PackedState) -> bool {
        if self.contains(key) {
            return false;
        }
        let si = shard_of(key);
        self.shards[si].ram.insert(key);
        self.len += 1;
        if ram_bytes(&self.shards[si].ram) > self.shard_budget {
            if let Err(e) = self.flush_shard(si) {
                // Keep the shard resident: correct, just not bounded.
                self.degrade(format!("flushing spill shard {si}: {e}"));
            }
        }
        true
    }

    /// Writes shard `si`'s resident set to a fresh sorted segment and
    /// clears it.
    fn flush_shard(&mut self, si: usize) -> io::Result<()> {
        if self.shards[si].ram.is_empty() {
            return Ok(());
        }
        let mut keys: Vec<u128> = self.shards[si].ram.iter().map(|s| s.0).collect();
        keys.sort_unstable();
        let path = self
            .dir
            .join(format!("shard{si:02}-seg{:04}.ccvs", self.segments_written));
        let header = Json::Obj(vec![
            ("schema".to_string(), Json::str(SPILL_SCHEMA)),
            ("shard".to_string(), Json::int(si as u64)),
            ("count".to_string(), Json::int(keys.len() as u64)),
            ("min".to_string(), Json::str(format!("{:032x}", keys[0]))),
            (
                "max".to_string(),
                Json::str(format!("{:032x}", keys[keys.len() - 1])),
            ),
        ]);
        let header_line = header.render_compact();
        let mut content: Vec<u8> =
            Vec::with_capacity(header_line.len() + 1 + keys.len() * REC_BYTES + 24);
        writeln!(content, "{header_line}")?;
        for k in &keys {
            writeln!(content, "V {k:032x}")?;
        }
        let trailer = crate::fxhash::integrity_trailer(&content);
        writeln!(content, "{trailer}")?;
        // Publish atomically: a crash (or injected fault) mid-flush
        // can fail or tear the file, but never leaves a half-written
        // segment without the reader being able to tell.
        persist::write_atomic(&path, &content, &self.fault, "spill.flush")?;
        let fences: Vec<u128> = keys.iter().step_by(FENCE_EVERY).copied().collect();
        let data_start = (header_line.len() + 1) as u64;
        let bytes = content.len() as u64;
        // Open read-only: probes must not hold a writable handle.
        let file = std::fs::File::open(&path)?;
        let shard = &mut self.shards[si];
        shard.segments.push(Segment {
            file,
            data_start,
            count: keys.len(),
            min: keys[0],
            max: keys[keys.len() - 1],
            fences,
        });
        shard.ram.clear();
        shard.ram.shrink_to_fit();
        self.segments_written += 1;
        self.spilled_bytes += bytes;
        Ok(())
    }

    /// Every admitted state, resident and spilled — snapshot capture
    /// for checkpointing. `None` if a segment could not be read back
    /// (the table degrades and the run proceeds without a snapshot).
    pub fn states(&mut self) -> Option<Vec<PackedState>> {
        let mut out = Vec::with_capacity(self.len);
        let mut failure = None;
        'shards: for shard in &mut self.shards {
            out.extend(shard.ram.iter().copied());
            for seg in &mut shard.segments {
                if let Err(e) = seg.read_all(&mut out) {
                    failure = Some(format!("reading back spill segment: {e}"));
                    break 'shards;
                }
            }
        }
        match failure {
            Some(message) => {
                self.degrade(message);
                None
            }
            None => Some(out),
        }
    }
}

/// Parses and validates a segment file — exposed for tooling and
/// tests; the engine itself only reads segments it just wrote.
pub fn read_segment(path: &Path) -> Result<Vec<PackedState>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let body = crate::fxhash::verify_trailer(&text)?;
    let mut lines = body.lines();
    let header_line = lines.next().ok_or("empty segment file")?;
    let header = Json::parse(header_line).map_err(|e| format!("malformed segment header: {e}"))?;
    let schema = header
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or_default();
    if schema != SPILL_SCHEMA {
        return Err(format!(
            "unsupported segment schema '{schema}' (expected '{SPILL_SCHEMA}')"
        ));
    }
    let count = header
        .get("count")
        .and_then(Json::as_u64)
        .ok_or("segment header lacks 'count'")? as usize;
    let mut states = Vec::with_capacity(count);
    for (i, line) in lines.enumerate() {
        let hex = line
            .strip_prefix("V ")
            .ok_or_else(|| format!("record {i}: missing 'V ' tag"))?;
        let state = u128::from_str_radix(hex, 16).map_err(|e| format!("record {i}: {e}"))?;
        states.push(PackedState(state));
    }
    if states.len() != count {
        return Err(format!(
            "segment header promises {count} records, file carries {}",
            states.len()
        ));
    }
    if !states.windows(2).all(|w| w[0] < w[1]) {
        return Err("segment records are not sorted strictly ascending".into());
    }
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccv-spill-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A deterministic pseudo-random state stream (splitmix-ish).
    fn states(count: usize) -> Vec<PackedState> {
        let mut x = 0x9e3779b97f4a7c15u64;
        (0..count)
            .map(|_| {
                x = x.wrapping_mul(0xbf58476d1ce4e5b9).wrapping_add(1);
                PackedState((x as u128) << 32 | (x >> 17) as u128)
            })
            .collect()
    }

    #[test]
    fn reachable_states_spread_evenly_over_the_shards() {
        let states =
            crate::explicit::reachable_states(&ccv_model::protocols::illinois(), 12, 1 << 20);
        crate::visited::tests::assert_balanced(&states, SHARDS, shard_of);
    }

    #[test]
    fn behaves_like_a_set_across_flushes() {
        let dir = tmp_dir("set");
        // ~64-byte budget per shard: constant flushing.
        let mut table = SpillVisited::new(&SpillConfig::new(&dir, Some(1024)));
        let mut reference = std::collections::HashSet::new();
        let all = states(4000);
        for (i, &s) in all.iter().enumerate() {
            assert_eq!(table.insert(s), reference.insert(s), "insert #{i}");
        }
        // Second pass: everything is a duplicate, much of it on disk.
        for &s in &all {
            assert!(!table.insert(s));
            assert!(table.contains(s));
        }
        assert!(!table.contains(PackedState(u128::MAX)));
        assert_eq!(table.len(), reference.len());
        assert!(table.segments_written() > 0, "tiny budget must spill");
        assert!(table.spilled_bytes() > 0);
        assert!(table.io_error().is_none(), "{:?}", table.io_error());
        // Resident footprint stays near the budget even though the
        // full set is ~30x larger.
        assert!(table.approx_ram_bytes() < 64 * 1024);
        assert!(table.total_bytes() > table.approx_ram_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn states_reads_back_everything() {
        let dir = tmp_dir("states");
        let mut table = SpillVisited::new(&SpillConfig::new(&dir, Some(512)));
        let all = states(1000);
        for &s in &all {
            table.insert(s);
        }
        let mut got = table.states().expect("segments must read back");
        let mut want: Vec<PackedState> = all.clone();
        got.sort_unstable();
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_files_validate_and_round_trip() {
        let dir = tmp_dir("roundtrip");
        let mut table = SpillVisited::new(&SpillConfig::new(&dir, Some(256)));
        for &s in &states(500) {
            table.insert(s);
        }
        assert!(table.segments_written() > 0);
        let mut from_disk = Vec::new();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let segment = read_segment(&path).unwrap_or_else(|e| panic!("{e}"));
            assert!(!segment.is_empty());
            from_disk.extend(segment);
        }
        // Disk plus RAM is exactly the admitted set.
        let resident = table.len() - from_disk.len();
        assert!(resident <= table.len());
        for s in from_disk {
            assert!(table.contains(s));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwritable_directory_degrades_not_panics() {
        let mut table = SpillVisited::new(&SpillConfig::new("/proc/nonexistent/spill", Some(1024)));
        // Table works as a RAM set despite the dead directory.
        for &s in &states(200) {
            table.insert(s);
        }
        assert_eq!(table.len(), 200);
        assert!(table.io_error().is_some());
        assert_eq!(table.segments_written(), 0);
    }

    #[test]
    fn corrupt_segments_are_rejected_by_the_reader() {
        let dir = tmp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ccvs");
        // A file body with a valid trailer still fails its own
        // validation rules; one without a trailer fails up front.
        let sealed = |body: &str| {
            format!(
                "{body}{}\n",
                crate::fxhash::integrity_trailer(body.as_bytes())
            )
        };
        std::fs::write(&path, "not json\nV 00\n").unwrap();
        assert!(read_segment(&path).is_err());
        std::fs::write(&path, sealed("not json\nV 00\n")).unwrap();
        assert!(read_segment(&path).is_err());
        std::fs::write(&path, sealed("{\"schema\":\"other\"}\n")).unwrap();
        assert!(read_segment(&path).is_err());
        std::fs::write(
            &path,
            sealed(&format!(
                "{{\"schema\":\"{SPILL_SCHEMA}\",\"count\":5}}\nV 1\n"
            )),
        )
        .unwrap();
        assert!(read_segment(&path).unwrap_err().contains("promises"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_segments_fail_the_integrity_trailer() {
        let dir = tmp_dir("torn");
        let mut table = SpillVisited::new(&SpillConfig::new(&dir, Some(256)));
        for &s in &states(500) {
            table.insert(s);
        }
        assert!(table.segments_written() > 0);
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let full = std::fs::read(&path).unwrap();
        // Tear the file at an arbitrary point: validation must fail.
        std::fs::write(&path, &full[..full.len() * 2 / 3]).unwrap();
        assert!(read_segment(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_flush_fault_degrades_not_fails() {
        let dir = tmp_dir("fault-flush");
        let fault = ccv_observe::FaultHandle::from_spec("spill.flush:io").unwrap();
        let mut table = SpillVisited::with_fault(&SpillConfig::new(&dir, Some(512)), fault);
        let all = states(1000);
        for &s in &all {
            table.insert(s);
        }
        // The first flush failed and the table degraded, but it still
        // behaves as an exact set.
        assert!(table.io_error().unwrap().contains("injected fault"));
        for &s in &all {
            assert!(table.contains(s));
        }
        assert_eq!(table.len(), {
            let mut v = all.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_probe_fault_readmits_but_stays_safe() {
        let dir = tmp_dir("fault-probe");
        let fault = ccv_observe::FaultHandle::from_spec("spill.probe:io").unwrap();
        let mut table = SpillVisited::with_fault(&SpillConfig::new(&dir, Some(256)), fault);
        let all = states(600);
        for &s in &all {
            table.insert(s);
        }
        assert!(table.segments_written() > 0);
        // One probe failed somewhere along the way: the table degraded
        // and conservatively re-admitted, never dropped, a state.
        assert!(table.io_error().unwrap().contains("injected fault"));
        assert!(
            table.len() >= {
                let mut v = all.clone();
                v.sort_unstable();
                v.dedup();
                v.len()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fence_blocks_cover_exact_boundaries() {
        // Counts straddling FENCE_EVERY multiples exercise the last
        // short block and the fence binary search edges.
        for count in [1, 63, 64, 65, 128, 129] {
            let dir = tmp_dir(&format!("fence{count}"));
            let mut table = SpillVisited::new(&SpillConfig::new(&dir, Some(16)));
            let all = states(count);
            for &s in &all {
                table.insert(s);
            }
            for &s in &all {
                assert!(table.contains(s), "count={count}");
            }
            assert!(table.io_error().is_none());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

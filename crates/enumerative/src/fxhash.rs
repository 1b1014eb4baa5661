//! A minimal Fx-style hasher for small integer keys.
//!
//! The enumerative engines hash millions of packed `u128` states; the
//! standard library's SipHash is needlessly slow for this (see the
//! perf-book guidance on alternative hashers). To stay within the
//! project's approved dependency set we implement the classic
//! multiply-rotate Fx hash in ~40 lines rather than pulling in
//! `rustc-hash`; the algorithm is the one used by the Rust compiler.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Firefox/rustc "Fx" hash: one rotate-xor-multiply per word.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashSet` keyed by the Fx hasher.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;
/// `HashMap` keyed by the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Digest guarding a persisted file body: the Fx hash of the bytes
/// plus the length (so truncation to a zero-padded prefix cannot
/// collide). The checkpoint format appends it as a final `C <016x>`
/// trailer line.
pub fn integrity_digest(body: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(body);
    h.write_u64(body.len() as u64);
    h.finish()
}

/// Renders the integrity trailer line (without the newline) for
/// `body` — every byte of the file before the trailer itself.
pub fn integrity_trailer(body: &[u8]) -> String {
    format!("C {:016x}", integrity_digest(body))
}

/// Verifies a file's `C <hash>` integrity trailer and returns the
/// guarded body (everything before the trailer line). Rejects files
/// with no trailer, content after the trailer, a malformed digest, or
/// a digest that does not match — a torn or bit-flipped file can
/// never validate.
pub fn verify_trailer(text: &str) -> Result<&str, String> {
    let pos = match text.rfind("\nC ") {
        Some(p) => p + 1,
        None => return Err("missing integrity trailer".to_string()),
    };
    let body = &text[..pos];
    let line = text[pos..].trim_end_matches('\n');
    if line.contains('\n') {
        return Err("content after the integrity trailer".to_string());
    }
    let hex = line.strip_prefix("C ").expect("located by prefix");
    let stated = u64::from_str_radix(hex.trim(), 16)
        .map_err(|e| format!("malformed integrity trailer: {e}"))?;
    if integrity_digest(body.as_bytes()) != stated {
        return Err("integrity trailer mismatch: file is torn or corrupt".to_string());
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let bh = BuildHasherDefault::<FxHasher>::default();
        bh.hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"state"), hash_of(&"state"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&0u128), hash_of(&(1u128 << 64)));
        assert_ne!(hash_of(&0u128), hash_of(&1u128));
    }

    #[test]
    fn set_and_map_work() {
        let mut s: FxHashSet<u128> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        m.insert(1, 2);
        assert_eq!(m.get(&1), Some(&2));
    }

    #[test]
    fn byte_stream_hashing_covers_partial_chunks() {
        // 9 bytes exercises the chunked `write` path.
        assert_ne!(hash_of(&[0u8; 9][..]), hash_of(&[1u8; 9][..]));
    }

    #[test]
    fn trailer_round_trips_and_rejects_tampering() {
        let body = "header\nV 1\nV 2\n";
        let file = format!("{body}{}\n", integrity_trailer(body.as_bytes()));
        assert_eq!(verify_trailer(&file).unwrap(), body);
        // Flip one body byte.
        let tampered = file.replacen("V 1", "V 3", 1);
        assert!(verify_trailer(&tampered).unwrap_err().contains("mismatch"));
        // Drop the trailer entirely.
        assert!(verify_trailer(body).unwrap_err().contains("missing"));
        // Content after the trailer.
        let appended = format!("{file}V 9\n");
        assert!(verify_trailer(&appended).is_err());
        // Truncate into the trailer digits.
        let truncated = &file[..file.len() - 4];
        assert!(verify_trailer(truncated).is_err());
    }

    #[test]
    fn digest_distinguishes_zero_padded_truncation() {
        assert_ne!(integrity_digest(b"ab"), integrity_digest(b"ab\0"));
    }
}

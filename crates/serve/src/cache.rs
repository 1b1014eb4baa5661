//! Sharded verdict cache: canonical request fingerprint → rendered
//! response body, with a source alias index in front of it.
//!
//! The key is the [`Request::semantic_key`] string — action, the
//! semantically relevant options and the protocol's canonical DSL
//! rendering — hashed with the same `FxHasher` the checkpoint format
//! uses for protocol fingerprints. Because the key is derived from the
//! *resolved* spec, a protocol submitted by name and the same protocol
//! submitted as DSL text hit the same entry.
//!
//! Building that key means resolving the protocol: looking up a name,
//! or tokenizing, parsing and lowering a DSL text, then printing the
//! spec back. The alias index spares a repeat that work. It maps a
//! [`Request::source_key`] — the admitted request as submitted — to the
//! semantic key its protocol resolved to, so [`VerdictCache::lookup_source`]
//! finds a repeated request's body from its text alone. An alias holds
//! a key, never a body: bodies stay owned by the entries, an alias
//! whose entry was evicted is a miss that falls through to resolving,
//! and the index is FIFO-bounded at the entries' capacity. Aliases are
//! memory-only: a library name may mean another protocol in another
//! build, so they are never persisted or reloaded.
//!
//! Entries store the compact-rendered response body verbatim, so a
//! cache hit replays byte-identical output. Each shard evicts FIFO at
//! capacity; hit/miss/insertion/eviction counters feed the server's
//! `/v1/metrics` endpoint. Both levels compare full keys, so a 64-bit
//! hash collision is a miss, never a wrong body.
//!
//! With [`VerdictCache::attach_dir`] the cache also persists: every
//! insertion writes one `ccv-cache-entry-v1` file (`<hash>.ccvc`,
//! written atomically and fsynced), and construction reloads the
//! directory, quarantining any entry whose integrity digest does not
//! match as `<file>.corrupt` instead of trusting it. A server restart
//! therefore replays warm verdicts byte-identically.
//!
//! [`Request::semantic_key`]: ccv_core::api::Request::semantic_key
//! [`Request::source_key`]: ccv_core::api::Request::source_key

use std::collections::VecDeque;
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ccv_enum::{FxHashMap, FxHasher};
use ccv_observe::{persist, FaultHandle, Json};

/// Schema tag of one persisted cache entry file.
pub const CACHE_ENTRY_SCHEMA: &str = "ccv-cache-entry-v1";

/// Extension of persisted cache entry files.
pub const CACHE_ENTRY_EXT: &str = "ccvc";

/// Hashes a semantic-key string to the cache's 64-bit key space.
pub fn key_hash(seed: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(seed.as_bytes());
    h.finish()
}

/// The integrity digest stored inside one entry file: covers the key,
/// a separator and the body, so any single-bit corruption of either
/// is detected at reload.
fn entry_digest(key: &str, body: &str) -> u64 {
    let mut buf = Vec::with_capacity(key.len() + 1 + body.len());
    buf.extend_from_slice(key.as_bytes());
    buf.push(b'\n');
    buf.extend_from_slice(body.as_bytes());
    ccv_enum::fxhash::integrity_digest(&buf)
}

/// Renders one persisted cache entry: a single JSON line carrying the
/// schema tag, the integrity digest, the full semantic key and the
/// response body verbatim.
fn encode_entry(key: &str, body: &str) -> String {
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str(CACHE_ENTRY_SCHEMA)),
        (
            "digest".into(),
            Json::str(format!("{:016x}", entry_digest(key, body))),
        ),
        ("key".into(), Json::str(key)),
        ("body".into(), Json::str(body)),
    ]);
    let mut text = doc.render_compact();
    text.push('\n');
    text
}

/// Parses and verifies one persisted cache entry. Any malformation —
/// bad JSON, wrong schema, missing field, digest mismatch — is an
/// error; the caller quarantines the file.
fn decode_entry(text: &str) -> Result<(String, String), String> {
    let mut doc = Json::parse(text).map_err(|e| format!("entry is not JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(CACHE_ENTRY_SCHEMA) => {}
        other => return Err(format!("bad entry schema {other:?}")),
    }
    let digest = take_str(&mut doc, "digest").ok_or("missing digest")?;
    let key = take_str(&mut doc, "key").ok_or("missing key")?;
    let body = take_str(&mut doc, "body").ok_or("missing body")?;
    let expect = format!("{:016x}", entry_digest(&key, &body));
    if digest != expect {
        return Err(format!("digest mismatch: {digest} != {expect}"));
    }
    Ok((key, body))
}

/// Moves the string field `name` out of the object `doc`, so a
/// multi-megabyte body is not copied on its way into the cache.
fn take_str(doc: &mut Json, name: &str) -> Option<String> {
    let Json::Obj(fields) = doc else { return None };
    match fields.iter_mut().find(|(k, _)| k == name)? {
        (_, Json::Str(s)) => Some(std::mem::take(s)),
        _ => None,
    }
}

/// A recorded source: its full source key, and the hash and full
/// semantic key of the entry it resolved to.
struct Alias {
    source: String,
    hash: u64,
    key: Arc<str>,
}

#[derive(Default)]
struct Shard {
    /// hash → (full key, stored body). The full key is kept so a
    /// 64-bit collision degrades to a miss, never to a wrong body.
    entries: FxHashMap<u64, (Arc<str>, Arc<String>)>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
    /// source-key hash → the semantic key it resolved to, sharing the
    /// entry's key string.
    aliases: FxHashMap<u64, Alias>,
    /// Alias insertion order for FIFO eviction.
    alias_order: VecDeque<u64>,
}

/// What reloading a persisted cache directory found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirReport {
    /// Entries restored into the in-memory cache.
    pub loaded: usize,
    /// Torn or tampered entry files renamed to `<file>.corrupt`.
    pub quarantined: usize,
}

/// A sharded, bounded map from request fingerprints to response
/// bodies.
pub struct VerdictCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    dir: Option<PathBuf>,
    fault: FaultHandle,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    persist_errors: AtomicU64,
}

impl VerdictCache {
    /// A cache of at most `capacity` entries spread over `shards`
    /// shards (both floored at 1).
    pub fn new(shards: usize, capacity: usize) -> VerdictCache {
        let shards = shards.max(1);
        let per_shard = (capacity.max(1)).div_ceil(shards);
        VerdictCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard,
            dir: None,
            fault: FaultHandle::disabled(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            persist_errors: AtomicU64::new(0),
        }
    }

    /// Backs the cache with `dir`: every future insertion is written
    /// as one atomic entry file, and any entries already in `dir` are
    /// reloaded now. Entries whose integrity digest does not verify
    /// are quarantined as `<file>.corrupt`, never trusted. `fault`
    /// names the handle whose `cache.write` site exercises the write
    /// path under injection.
    pub fn attach_dir(&mut self, dir: &Path, fault: FaultHandle) -> io::Result<DirReport> {
        std::fs::create_dir_all(dir)?;
        let mut report = DirReport::default();
        let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == CACHE_ENTRY_EXT))
            .collect();
        names.sort(); // deterministic load order
        for path in names {
            match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| decode_entry(&text))
            {
                Ok((key, body)) => {
                    self.store(&key, Arc::new(body));
                    report.loaded += 1;
                }
                Err(_) => {
                    // Torn, truncated or tampered: move it aside so it
                    // is never trusted and never re-read.
                    let _ = persist::quarantine(&path);
                    report.quarantined += 1;
                }
            }
        }
        self.dir = Some(dir.to_path_buf());
        self.fault = fault;
        Ok(report)
    }

    /// Entry-file writes that failed (disk trouble or injected
    /// faults); the entry stays served from memory.
    pub fn persist_errors(&self) -> u64 {
        self.persist_errors.load(Ordering::Relaxed)
    }

    fn entry_path(&self, hash: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{hash:016x}.{CACHE_ENTRY_EXT}")))
    }

    /// Locks the shard that holds `hash`.
    fn lock(&self, hash: u64) -> MutexGuard<'_, Shard> {
        let shard = &self.shards[(hash as usize) % self.shards.len()];
        shard.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The body stored under the full key `seed` and its `hash`.
    fn body(&self, hash: u64, seed: &str) -> Option<Arc<String>> {
        match self.lock(hash).entries.get(&hash) {
            Some((key, body)) if **key == *seed => Some(Arc::clone(body)),
            _ => None,
        }
    }

    /// Returns the stored body for `seed` (a shared reference, not a
    /// copy), counting a hit or a miss.
    pub fn lookup(&self, seed: &str) -> Option<Arc<String>> {
        let found = self.body(key_hash(seed), seed);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Returns the body of the entry `source` was last recorded to
    /// resolve to (see [`VerdictCache::alias`]), counting a hit when
    /// there is one. No alias, or an alias whose entry is gone, counts
    /// nothing: the caller resolves the protocol and counts the
    /// request through [`VerdictCache::lookup`].
    pub fn lookup_source(&self, source: &str) -> Option<Arc<String>> {
        let hash = key_hash(source);
        let (seed_hash, seed) = match self.lock(hash).aliases.get(&hash) {
            Some(a) if a.source == source => (a.hash, Arc::clone(&a.key)),
            _ => return None,
        };
        let found = self.body(seed_hash, &seed)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(found)
    }

    /// Records that the request with source key `source` resolved to
    /// the semantic key `seed`, so the next [`VerdictCache::lookup_source`]
    /// of it finds `seed`'s entry without resolving. Records nothing
    /// when `seed` holds no entry. The shard forgets its oldest alias
    /// past capacity; aliases are never persisted.
    pub fn alias(&self, source: String, seed: &str) {
        let seed_hash = key_hash(seed);
        let key = match self.lock(seed_hash).entries.get(&seed_hash) {
            Some((key, _)) if **key == *seed => Arc::clone(key),
            _ => return,
        };
        let hash = key_hash(&source);
        let alias = Alias {
            source,
            hash: seed_hash,
            key,
        };
        let mut shard = self.lock(hash);
        if shard.aliases.insert(hash, alias).is_none() {
            shard.alias_order.push_back(hash);
            if shard.alias_order.len() > self.per_shard {
                if let Some(oldest) = shard.alias_order.pop_front() {
                    shard.aliases.remove(&oldest);
                }
            }
        }
    }

    /// Stores `body` under `seed`, evicting the oldest entry of the
    /// shard when it is full. With a directory attached the entry is
    /// also written as one atomic, fsynced file; a failed write (disk
    /// trouble, injected fault) degrades to memory-only — it never
    /// fails the request that produced the body.
    pub fn insert(&self, seed: &str, body: Arc<String>) {
        let (hash, evicted) = self.store(seed, Arc::clone(&body));
        if let Some(path) = self.entry_path(hash) {
            let text = encode_entry(seed, &body);
            if persist::write_atomic(&path, text.as_bytes(), &self.fault, "cache.write").is_err() {
                self.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(old) = evicted.and_then(|h| self.entry_path(h)) {
            let _ = std::fs::remove_file(old);
        }
    }

    /// The in-memory half of [`VerdictCache::insert`]: returns the
    /// entry's hash and the hash of any entry FIFO-evicted to make
    /// room.
    fn store(&self, seed: &str, body: Arc<String>) -> (u64, Option<u64>) {
        let hash = key_hash(seed);
        let mut evicted = None;
        let mut shard = self.lock(hash);
        if shard
            .entries
            .insert(hash, (Arc::from(seed), body))
            .is_none()
        {
            shard.order.push_back(hash);
            if shard.order.len() > self.per_shard {
                if let Some(oldest) = shard.order.pop_front() {
                    shard.entries.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    evicted = Some(oldest);
                }
            }
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        (hash, evicted)
    }

    /// Entries currently stored across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).entries.len())
            .sum()
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found a live entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (or a collided key).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Bodies stored.
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Entries displaced by capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<String> {
        Arc::new(text.to_string())
    }

    /// The body stored under `seed`, as an owned string to compare.
    fn stored(cache: &VerdictCache, seed: &str) -> Option<String> {
        cache.lookup(seed).map(|b| b.to_string())
    }

    #[test]
    fn lookup_after_insert_returns_identical_body() {
        let cache = VerdictCache::new(4, 16);
        assert_eq!(cache.lookup("k1"), None);
        cache.insert("k1", body("{\"x\":1}"));
        assert_eq!(stored(&cache, "k1").as_deref(), Some("{\"x\":1}"));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.insertions(), 1);
    }

    #[test]
    fn capacity_evicts_fifo_per_shard() {
        // One shard, capacity 2: the third insert evicts the first.
        let cache = VerdictCache::new(1, 2);
        cache.insert("a", body("1"));
        cache.insert("b", body("2"));
        cache.insert("c", body("3"));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup("a"), None);
        assert_eq!(stored(&cache, "c").as_deref(), Some("3"));
    }

    #[test]
    fn attach_dir_persists_and_reloads_byte_identically() {
        let dir = std::env::temp_dir().join(format!("ccv-cache-reload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut cache = VerdictCache::new(2, 8);
            let r = cache.attach_dir(&dir, FaultHandle::disabled()).unwrap();
            assert_eq!(r, DirReport::default());
            cache.insert("verify|illinois", body("{\"verdict\":\"VERIFIED\"}"));
            cache.insert("verify|dragon", body("{\"verdict\":\"VERIFIED\",\"n\":2}"));
        }
        let mut fresh = VerdictCache::new(2, 8);
        let r = fresh.attach_dir(&dir, FaultHandle::disabled()).unwrap();
        assert_eq!((r.loaded, r.quarantined), (2, 0));
        assert_eq!(
            stored(&fresh, "verify|illinois").as_deref(),
            Some("{\"verdict\":\"VERIFIED\"}")
        );
        assert_eq!(
            stored(&fresh, "verify|dragon").as_deref(),
            Some("{\"verdict\":\"VERIFIED\",\"n\":2}")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_entry_files_are_quarantined_not_trusted() {
        let dir = std::env::temp_dir().join(format!("ccv-cache-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut cache = VerdictCache::new(1, 8);
            cache.attach_dir(&dir, FaultHandle::disabled()).unwrap();
            cache.insert("k", body("{\"verdict\":\"VERIFIED\"}"));
        }
        // Tear the entry file mid-body, then flip one body byte of a
        // second, full-length copy: both must be rejected.
        let path = dir.join(format!("{:016x}.{CACHE_ENTRY_EXT}", key_hash("k")));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let mut torn = VerdictCache::new(1, 8);
        let r = torn.attach_dir(&dir, FaultHandle::disabled()).unwrap();
        assert_eq!((r.loaded, r.quarantined), (0, 1));
        assert_eq!(torn.lookup("k"), None);
        assert!(path.with_extension("ccvc.corrupt").exists());

        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let mut tampered = VerdictCache::new(1, 8);
        let r = tampered.attach_dir(&dir, FaultHandle::disabled()).unwrap();
        assert_eq!(r.loaded, 0, "tampered entry must not load");
        assert_eq!(tampered.lookup("k"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_fault_degrades_to_memory_only() {
        let dir = std::env::temp_dir().join(format!("ccv-cache-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fault = FaultHandle::from_spec("cache.write:io").unwrap();
        let mut cache = VerdictCache::new(1, 8);
        cache.attach_dir(&dir, fault).unwrap();
        cache.insert("k", body("body"));
        assert_eq!(cache.persist_errors(), 1);
        // The entry is still served from memory...
        assert_eq!(stored(&cache, "k").as_deref(), Some("body"));
        // ...but was never written, so a reload starts empty.
        let mut fresh = VerdictCache::new(1, 8);
        let r = fresh.attach_dir(&dir, FaultHandle::disabled()).unwrap();
        assert_eq!(r.loaded, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_removes_the_entry_file() {
        let dir = std::env::temp_dir().join(format!("ccv-cache-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = VerdictCache::new(1, 2);
        cache.attach_dir(&dir, FaultHandle::disabled()).unwrap();
        cache.insert("a", body("1"));
        cache.insert("b", body("2"));
        cache.insert("c", body("3"));
        assert_eq!(cache.evictions(), 1);
        let count = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == CACHE_ENTRY_EXT))
            .count();
        assert_eq!(count, 2, "evicted entry file must be removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_alias_finds_its_entry_and_counts_one_hit() {
        let cache = VerdictCache::new(2, 4);
        // Nothing to alias yet: no entry, no alias, no count.
        cache.alias("name:a".into(), "k");
        assert_eq!(cache.lookup_source("name:a"), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.insert("k", body("1"));
        cache.alias("name:a".into(), "k");
        assert_eq!(
            cache.lookup_source("name:a").as_deref().map(|b| b.as_str()),
            Some("1")
        );
        assert_eq!(cache.lookup_source("name:b"), None);
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
    }

    #[test]
    fn aliases_are_bounded_and_dangle_to_a_miss() {
        // One shard, capacity 1: a second entry evicts the first, and
        // a second alias forgets the first.
        let cache = VerdictCache::new(1, 1);
        cache.insert("k1", body("1"));
        cache.alias("s1".into(), "k1");
        cache.insert("k2", body("2"));
        assert_eq!(cache.lookup_source("s1"), None, "its entry was evicted");
        cache.alias("s2".into(), "k2");
        assert_eq!(stored(&cache, "k2").as_deref(), Some("2"));
        assert_eq!(
            cache.lookup_source("s2").as_deref().map(|b| b.as_str()),
            Some("2")
        );
        // Re-inserting k1 does not revive s1: its alias was dropped.
        cache.insert("k1", body("1"));
        assert_eq!(cache.lookup_source("s1"), None);
        assert_eq!(cache.lookup_source("s2"), None);
    }

    #[test]
    fn reinsert_updates_in_place_without_growing() {
        let cache = VerdictCache::new(1, 4);
        cache.insert("a", body("old"));
        cache.insert("a", body("new"));
        assert_eq!(cache.len(), 1);
        assert_eq!(stored(&cache, "a").as_deref(), Some("new"));
        assert_eq!(cache.evictions(), 0);
    }
}

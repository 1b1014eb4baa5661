//! Corruption fuzz over the persisted checkpoint files: they are
//! truncated at every byte boundary and bit-flipped at every byte, and
//! the loader must hold one contract throughout —
//! a damaged file is cleanly rejected (or quarantined), never panicked
//! on, and never silently accepted as something other than what was
//! written. The only mutation a loader may accept is the identity.

use ccv_enum::{enumerate, Checkpoint, EnumOptions};
use ccv_model::protocols::illinois;

/// A small, real checkpoint: an early-stopped Illinois enumeration
/// with its resume snapshot captured.
fn small_checkpoint() -> Checkpoint {
    let spec = illinois();
    let opts = EnumOptions::new(3)
        .exact()
        .max_states(10)
        .capture_snapshot(true);
    let r = enumerate(&spec, &opts);
    assert!(r.truncated, "budget must stop the run early");
    Checkpoint::of_result(&spec, &opts, &r).expect("snapshot captured")
}

/// `true` when the parsed checkpoint is byte-for-byte the one written.
fn same_checkpoint(a: &Checkpoint, b: &Checkpoint) -> bool {
    a.protocol == b.protocol
        && a.protocol_hash == b.protocol_hash
        && a.n == b.n
        && a.visits == b.visits
        && a.visited == b.visited
        && a.frontier == b.frontier
}

#[test]
fn checkpoint_loader_rejects_every_truncation() {
    let ckpt = small_checkpoint();
    let mut buf = Vec::new();
    ckpt.write_to(&mut buf).unwrap();
    for cut in 0..=buf.len() {
        let text = String::from_utf8_lossy(&buf[..cut]);
        match Checkpoint::read_from(&text) {
            Err(_) => {}
            Ok(back) => assert!(
                same_checkpoint(&back, &ckpt),
                "truncation at {cut}/{} parsed as a different checkpoint",
                buf.len()
            ),
        }
    }
}

#[test]
fn checkpoint_loader_rejects_every_bit_flip() {
    let ckpt = small_checkpoint();
    let mut buf = Vec::new();
    ckpt.write_to(&mut buf).unwrap();
    for pos in 0..buf.len() {
        for mask in [0x01u8, 0x80] {
            let mut bad = buf.clone();
            bad[pos] ^= mask;
            let text = String::from_utf8_lossy(&bad);
            match Checkpoint::read_from(&text) {
                Err(_) => {}
                Ok(back) => assert!(
                    same_checkpoint(&back, &ckpt),
                    "bit flip {mask:#04x} at byte {pos} was silently accepted"
                ),
            }
        }
    }
}

/// The quarantine path on real files: a sample of damaged on-disk
/// checkpoints must each load as a clean error and leave a `.corrupt`
/// sibling rather than the trusted original.
#[test]
fn damaged_checkpoint_files_are_quarantined() {
    let ckpt = small_checkpoint();
    let mut buf = Vec::new();
    ckpt.write_to(&mut buf).unwrap();
    let dir = std::env::temp_dir().join(format!("ccv-fuzz-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let step = (buf.len() / 8).max(1);
    for (i, pos) in (0..buf.len()).step_by(step).enumerate() {
        let mut bad = buf.clone();
        bad[pos] ^= 0x04;
        let path = dir.join(format!("damaged-{i}.ccvk"));
        std::fs::write(&path, &bad).unwrap();
        match Checkpoint::load_or_quarantine(&path) {
            Ok(back) => assert!(same_checkpoint(&back, &ckpt), "flip at {pos} accepted"),
            Err(e) => {
                assert!(e.contains("quarantined"), "flip at {pos}: {e}");
                assert!(!path.exists(), "flip at {pos}: original left in place");
                assert!(
                    path.with_extension("ccvk.corrupt").exists(),
                    "flip at {pos}: no quarantine file"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

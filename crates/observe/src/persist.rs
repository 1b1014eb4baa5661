//! Crash-safe file publication: write-temp + fsync + atomic rename.
//!
//! Every artefact ccv persists (checkpoints, verdict cache entries,
//! `--metrics-out` / `--essential-out` files) goes through
//! [`write_atomic`], so a reader never observes a half-written file
//! under the final name: a crash — even `kill -9` — leaves either the
//! previous complete file or the new complete file, plus possibly an
//! abandoned temp file that readers ignore.
//!
//! Torn content can still reach the final name through the
//! [`FaultKind::TornWrite`] fault
//! (which deliberately truncates the temp before publishing, to prove
//! readers validate) or through pre-existing files from older tools —
//! which is why every reader validates and [`quarantine`]s rather
//! than trusts.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::fault::{injected_io_error, FaultHandle, FaultKind};

/// Distinguishes concurrent writers' temp files within one process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Publishes `bytes` at `path` atomically: writes a sibling temp
/// file, fsyncs it, renames it over `path`, then best-effort fsyncs
/// the directory. On any error the temp file is removed and `path`
/// is left as it was.
///
/// `fault` probes `site` first: an injected `io` fault fails the
/// write up front; an injected `torn` fault truncates the content to
/// half before publishing (exercising reader-side validation); an
/// injected `panic` fault panics.
pub fn write_atomic(path: &Path, bytes: &[u8], fault: &FaultHandle, site: &str) -> io::Result<()> {
    let mut bytes = bytes;
    match fault.fire(site) {
        Some(FaultKind::IoError) => return Err(injected_io_error(site)),
        Some(FaultKind::Panic) => panic!("injected fault: panic at {site}"),
        Some(FaultKind::TornWrite) => bytes = &bytes[..bytes.len() / 2],
        _ => {}
    }
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp-{}-{}",
        name.to_string_lossy(),
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let publish = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)
    })();
    if let Err(e) = publish {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Persist the rename itself. Directory fsync is refused by some
    // filesystems; the rename is still atomic there, so this is
    // best-effort rather than load-bearing.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Moves a file that failed validation aside to `<path>.corrupt`, so
/// it is preserved for inspection but never re-read as live data.
/// Returns the quarantine path.
pub fn quarantine(path: &Path) -> io::Result<PathBuf> {
    let mut name = path.as_os_str().to_os_string();
    name.push(".corrupt");
    let target = PathBuf::from(name);
    fs::rename(path, &target)?;
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ccv-persist-{tag}-{}", std::process::id()))
    }

    #[test]
    fn publishes_complete_content_and_no_temp_survives() {
        let path = tmp_path("ok");
        write_atomic(&path, b"hello\n", &FaultHandle::disabled(), "t").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello\n");
        // Overwrite is atomic too.
        write_atomic(&path, b"world\n", &FaultHandle::disabled(), "t").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"world\n");
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        for entry in fs::read_dir(dir).unwrap() {
            let n = entry.unwrap().file_name().to_string_lossy().to_string();
            assert!(!n.contains(&format!(".{stem}.tmp-")), "leftover temp {n}");
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_io_error_leaves_previous_file_intact() {
        let path = tmp_path("ioerr");
        write_atomic(&path, b"v1", &FaultHandle::disabled(), "cache.write").unwrap();
        let fault = FaultHandle::from_spec("cache.write:io").unwrap();
        let err = write_atomic(&path, b"v2", &fault, "cache.write").unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(fs::read(&path).unwrap(), b"v1");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_write_publishes_truncated_content() {
        let path = tmp_path("torn");
        let fault = FaultHandle::from_spec("cache.write:torn").unwrap();
        write_atomic(&path, b"0123456789", &fault, "cache.write").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"01234");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn quarantine_renames_with_corrupt_suffix() {
        let path = tmp_path("quar");
        fs::write(&path, b"junk").unwrap();
        let q = quarantine(&path).unwrap();
        assert!(q.to_string_lossy().ends_with(".corrupt"));
        assert!(!path.exists());
        assert_eq!(fs::read(&q).unwrap(), b"junk");
        fs::remove_file(&q).unwrap();
    }

    #[test]
    fn write_into_missing_directory_errors_cleanly() {
        let path = Path::new("/proc/nonexistent/deep/file");
        assert!(write_atomic(path, b"x", &FaultHandle::disabled(), "t").is_err());
    }
}

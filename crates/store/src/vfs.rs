//! The IO seam: a tiny virtual filesystem over exactly the operations
//! the log needs, with a real `std::fs` implementation and an in-memory
//! fault-injecting one for crash tests.
//!
//! [`VFile::append`] is deliberately allowed to **short-write** (return
//! fewer bytes than offered), mirroring POSIX `write(2)`; callers that
//! need all-or-nothing must loop. [`MemVfs`] exploits that contract to
//! inject short writes, out-of-space errors, failed syncs, and
//! crash-at-byte-N torn tails — the whole point of the harness is that
//! the durable log above it must survive any of those at any byte.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// An append-only file handle.
pub trait VFile: Send {
    /// Appends bytes at the end of the file, returning how many were
    /// accepted (possibly fewer than offered, possibly zero only on
    /// error).
    fn append(&mut self, data: &[u8]) -> io::Result<usize>;

    /// Forces accepted bytes to durable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem operations the persister uses.
pub trait Vfs: Send + Sync {
    /// Opens (creating if absent) `name` for appending.
    fn open_append(&self, name: &str) -> io::Result<Box<dyn VFile>>;

    /// Reads the whole contents of `name`. Missing files are an
    /// [`io::ErrorKind::NotFound`] error.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Truncates `name` to `len` bytes.
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;

    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// Removes `name`. Missing files are **not** an error.
    fn remove(&self, name: &str) -> io::Result<()>;
}

// ---------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------

/// [`Vfs`] over a root directory on the real filesystem.
#[derive(Debug, Clone)]
pub struct StdVfs {
    root: PathBuf,
}

impl StdVfs {
    /// A vfs rooted at `root`, creating the directory if needed.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(StdVfs { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

struct StdFile {
    file: std::fs::File,
}

impl VFile for StdFile {
    fn append(&mut self, data: &[u8]) -> io::Result<usize> {
        io::Write::write(&mut self.file, data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

impl Vfs for StdVfs {
    fn open_append(&self, name: &str) -> io::Result<Box<dyn VFile>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        Ok(Box::new(StdFile { file }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))?;
        file.set_len(len)?;
        file.sync_all()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.path(from), self.path(to))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// In-memory fault injection
// ---------------------------------------------------------------------

/// What the in-memory filesystem should do to its caller.
///
/// All limits are measured in bytes **appended through the vfs as a
/// whole**, so a plan describes one deterministic failure script
/// regardless of how writes are batched into calls.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Cap each `append` call to at most this many bytes (forces the
    /// caller's write-all loop to iterate).
    pub short_write_limit: Option<usize>,
    /// After this many bytes have been accepted in total, further
    /// appends fail like `ENOSPC` (partial acceptance up to the budget
    /// first, as a real `write(2)` may).
    pub fail_after_bytes: Option<u64>,
    /// Every `sync` call fails.
    pub fail_sync: bool,
    /// Bytes accepted beyond this total are silently **lost** — the
    /// writer is told they were written, but they never become durable.
    /// This is the crash-at-byte-N model: everything after the crash
    /// point existed only in the page cache.
    pub crash_at_byte: Option<u64>,
}

#[derive(Debug, Default)]
struct MemState {
    files: HashMap<String, Vec<u8>>,
    plan: FaultPlan,
    /// Total bytes accepted across all appends (durable or lost).
    accepted: u64,
}

/// In-memory [`Vfs`] with scripted fault injection.
#[derive(Debug, Clone, Default)]
pub struct MemVfs {
    state: Arc<Mutex<MemState>>,
}

impl MemVfs {
    /// A fault-free in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// An in-memory filesystem following `plan`.
    pub fn with_plan(plan: FaultPlan) -> Self {
        let vfs = Self::default();
        vfs.set_plan(plan);
        vfs
    }

    /// Replaces the active fault plan.
    pub fn set_plan(&self, plan: FaultPlan) {
        self.state.lock().expect("mem vfs lock").plan = plan;
    }

    /// A copy of `name`'s current **durable** contents (empty if the
    /// file does not exist).
    pub fn contents(&self, name: &str) -> Vec<u8> {
        self.state
            .lock()
            .expect("mem vfs lock")
            .files
            .get(name)
            .cloned()
            .unwrap_or_default()
    }
}

struct MemFile {
    state: Arc<Mutex<MemState>>,
    name: String,
}

impl VFile for MemFile {
    fn append(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut state = self.state.lock().expect("mem vfs lock");
        if data.is_empty() {
            return Ok(0);
        }
        let mut take = data.len();
        if let Some(limit) = state.plan.short_write_limit {
            take = take.min(limit.max(1));
        }
        if let Some(budget) = state.plan.fail_after_bytes {
            let left = budget.saturating_sub(state.accepted);
            if left == 0 {
                return Err(io::Error::other("injected fault: no space left on device"));
            }
            take = take.min(left as usize);
        }
        // Durable portion: accepted bytes at or below the crash point.
        let durable = match state.plan.crash_at_byte {
            Some(crash) => {
                let room = crash.saturating_sub(state.accepted);
                take.min(room as usize)
            }
            None => take,
        };
        state.accepted += take as u64;
        let bytes = data[..durable].to_vec();
        state
            .files
            .entry(self.name.clone())
            .or_default()
            .extend_from_slice(&bytes);
        Ok(take)
    }

    fn sync(&mut self) -> io::Result<()> {
        let state = self.state.lock().expect("mem vfs lock");
        if state.plan.fail_sync {
            return Err(io::Error::other("injected fault: fsync failed"));
        }
        Ok(())
    }
}

impl Vfs for MemVfs {
    fn open_append(&self, name: &str) -> io::Result<Box<dyn VFile>> {
        let mut state = self.state.lock().expect("mem vfs lock");
        state.files.entry(name.to_string()).or_default();
        Ok(Box::new(MemFile {
            state: Arc::clone(&self.state),
            name: name.to_string(),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.state
            .lock()
            .expect("mem vfs lock")
            .files
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}")))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut state = self.state.lock().expect("mem vfs lock");
        match state.files.get_mut(name) {
            Some(data) => {
                data.truncate(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {name}"),
            )),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut state = self.state.lock().expect("mem vfs lock");
        match state.files.remove(from) {
            Some(data) => {
                state.files.insert(to.to_string(), data);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {from}"),
            )),
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.state.lock().expect("mem vfs lock").files.remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_vfs_roundtrip() {
        let dir = std::env::temp_dir().join(format!("nanoxbar-store-test-{}", std::process::id()));
        let vfs = StdVfs::new(&dir).expect("create root");
        let mut f = vfs.open_append("a.log").expect("open");
        assert_eq!(f.append(b"hello").expect("write"), 5);
        f.sync().expect("sync");
        assert_eq!(vfs.read("a.log").expect("read"), b"hello");
        vfs.truncate("a.log", 2).expect("truncate");
        assert_eq!(vfs.read("a.log").expect("read"), b"he");
        vfs.rename("a.log", "b.log").expect("rename");
        assert!(vfs.read("a.log").is_err());
        vfs.remove("b.log").expect("remove");
        vfs.remove("b.log").expect("remove is idempotent");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_writes_cap_each_call() {
        let vfs = MemVfs::with_plan(FaultPlan {
            short_write_limit: Some(3),
            ..FaultPlan::default()
        });
        let mut f = vfs.open_append("x").expect("open");
        assert_eq!(f.append(b"0123456789").expect("append"), 3);
        assert_eq!(vfs.contents("x"), b"012");
    }

    #[test]
    fn enospc_after_budget() {
        let vfs = MemVfs::with_plan(FaultPlan {
            fail_after_bytes: Some(4),
            ..FaultPlan::default()
        });
        let mut f = vfs.open_append("x").expect("open");
        assert_eq!(f.append(b"abcdef").expect("partial"), 4);
        assert!(f.append(b"gh").is_err());
        assert_eq!(vfs.contents("x"), b"abcd");
    }

    #[test]
    fn crash_at_byte_drops_later_bytes_silently() {
        let vfs = MemVfs::with_plan(FaultPlan {
            crash_at_byte: Some(5),
            ..FaultPlan::default()
        });
        let mut f = vfs.open_append("x").expect("open");
        assert_eq!(f.append(b"0123456789").expect("append"), 10);
        // The writer was told all ten bytes landed; only five are durable.
        assert_eq!(vfs.contents("x"), b"01234");
    }

    #[test]
    fn failed_sync_reports() {
        let vfs = MemVfs::with_plan(FaultPlan {
            fail_sync: true,
            ..FaultPlan::default()
        });
        let mut f = vfs.open_append("x").expect("open");
        assert!(f.sync().is_err());
    }
}

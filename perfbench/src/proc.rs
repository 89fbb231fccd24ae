//! Child processes: building the shipped binary, spawning it, timing
//! its set-up and wall clock, and reading its peak resident set.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Builds `confanon` from the checkout at `root` and returns its path.
/// Honours `CARGO_TARGET_DIR` exactly as the nested `cargo` does.
pub fn build_confanon(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "confanon",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --bin confanon failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("confanon");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// How a measured child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `-signal` when killed by a signal.
    pub code: i32,
    /// Spawn to exit.
    pub wall: Duration,
    /// Peak resident set (`ru_maxrss`), in KiB.
    pub maxrss_kib: u64,
    /// User plus system CPU time. Unlike the wall, it excludes time
    /// the hypervisor stole from the VM, so the report shows both.
    pub cpu_s: f64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `pid`, returning its raw wait status, peak RSS in KiB and
/// CPU seconds.
fn reap(pid: i32) -> (i32, u64, f64) {
    loop {
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: `wait4` only writes through the two pointers, which
        // point at live, properly sized and aligned locals (`Rusage`
        // mirrors the Linux `struct rusage`: two timevals, 14 longs).
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            let secs = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
            let cpu = secs(usage.utime) + secs(usage.stime);
            return (status, u64::try_from(usage.maxrss).unwrap_or(0), cpu);
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return (-1, 0, 0.0);
        }
    }
}

/// A running child under measurement. A reaper thread blocks in
/// `wait4` so the exit instant and `ru_maxrss` are exact; dropping an
/// unfinished `Measured` kills the child and waits for it.
pub struct Measured {
    child: Child,
    pub started: Instant,
    pub started_wall: SystemTime,
    exited: Arc<AtomicBool>,
    done: mpsc::Receiver<()>,
    reaper: Option<JoinHandle<(Instant, i32, u64, f64)>>,
}

impl Measured {
    pub fn spawn(bin: &Path, args: &[&str], cwd: &Path, log: &Path) -> Result<Measured, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let started_wall = SystemTime::now();
        let started = Instant::now();
        let child = Command::new(bin)
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
        let exited = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&exited);
        let (tx, done) = mpsc::channel();
        let reaper = std::thread::spawn(move || {
            let (status, rss, cpu) = reap(pid);
            let at = Instant::now();
            flag.store(true, Ordering::SeqCst);
            let _ = tx.send(());
            (at, status, rss, cpu)
        });
        Ok(Measured {
            child,
            started,
            started_wall,
            exited,
            done,
            reaper: Some(reaper),
        })
    }

    /// Polls `ready` every half millisecond and returns the time from
    /// spawn until it first held. Fails if the child exits first or
    /// `limit` passes.
    pub fn wait_ready(
        &self,
        ready: impl Fn() -> bool,
        limit: Duration,
    ) -> Result<Duration, String> {
        loop {
            if ready() {
                return Ok(self.started.elapsed());
            }
            if self.exited.load(Ordering::SeqCst) {
                // It may have become ready just before it exited.
                return if ready() {
                    Ok(self.started.elapsed())
                } else {
                    Err("the child exited before it was ready".to_string())
                };
            }
            if self.started.elapsed() > limit {
                return Err(format!("the child was not ready after {limit:?}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Waits for the child to exit (at most `limit`, then kills it).
    /// Blocks on the reaper instead of polling, so the wait costs the
    /// measured child no CPU.
    pub fn finish(mut self, limit: Duration) -> Result<Exit, String> {
        let left = limit.saturating_sub(self.started.elapsed());
        if self.done.recv_timeout(left).is_err() {
            return Err(format!("the child ran longer than {limit:?}; killed"));
        }
        let reaper = self.reaper.take().ok_or("reaper already joined")?;
        let (at, status, rss, cpu) = reaper.join().map_err(|_| "reaper thread panicked")?;
        let code = if status & 0x7f == 0 {
            (status >> 8) & 0xff
        } else {
            -(status & 0x7f)
        };
        Ok(Exit {
            code,
            wall: at.duration_since(self.started),
            maxrss_kib: rss,
            cpu_s: cpu,
        })
    }
}

impl Drop for Measured {
    fn drop(&mut self) {
        if let Some(reaper) = self.reaper.take() {
            if !self.exited.load(Ordering::SeqCst) {
                let _ = self.child.kill();
            }
            let _ = reaper.join();
        }
    }
}

/// Recursively copies `src` to `dst` (which must not exist), durably:
/// set-up must leave no dirty pages for a measured run's fsyncs to
/// flush.
pub fn copy_tree(src: &Path, dst: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dst).map_err(|e| format!("{}: {e}", dst.display()))?;
    let entries = std::fs::read_dir(src).map_err(|e| format!("{}: {e}", src.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if from.is_dir() {
            copy_tree(&from, &to)?;
        } else {
            copy_file(&from, &to)?;
        }
    }
    sync_path(dst)
}

/// Copies one file over `to` and syncs it.
pub fn copy_file(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::copy(from, to).map_err(|e| format!("{}: {e}", from.display()))?;
    sync_path(to)
}

/// Writes `bytes` to `path` and syncs it.
pub fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    sync_path(path)
}

/// `fsync` of a file or directory.
pub fn sync_path(path: &Path) -> Result<(), String> {
    std::fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("sync {}: {e}", path.display()))
}

/// Removes `dir` if it exists.
pub fn clear(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("{}: {e}", dir.display())),
    }
}

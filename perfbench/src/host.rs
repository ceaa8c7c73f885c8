//! The host and code record printed next to every result, so drift between hosts,
//! toolchains and commits stays visible.

use std::fs;
use std::path::Path;
use std::process::Command;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `git rev-parse HEAD`, or a fingerprint of the sources when there is no git
    /// repository.
    pub rev: String,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// FNV-1a over the paths and bytes of every file under `crates/` plus `Cargo.lock`,
/// in sorted path order: identifies the measured code when the checkout is no git
/// repository.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.lock").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash = Fnv::default();
    for file in files {
        hash.bytes(file.to_string_lossy().as_bytes());
        hash.bytes(&fs::read(&file).unwrap_or_default());
    }
    format!("src-{:016x}", hash.0)
}

impl Host {
    /// Probes the current host.
    pub fn probe() -> Host {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            rev: command_line("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(source_fingerprint),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// 64-bit FNV-1a, also used for coloring fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a little-endian `u64` into the hash.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

//! What the host is and what this process cost: recorded in every output
//! so two result files can be told apart before they are compared.

use crate::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Cores this process may use; every thread-dependent number is reported
/// beside it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// nproc, CPU model, rustc version and git SHA (`unknown` outside a git
/// checkout, as in the driver's).
pub fn describe() -> Value {
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::str(cpu_model())),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        (
            "git_sha",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A private directory for this process's Unix sockets, removed on drop —
/// so also when a run fails by panicking or returning early.
///
/// It lives under `out` (inside the checkout) unless that would push a
/// socket path past the 108-byte `sun_path` limit, in which case it falls
/// back to the system temp dir. The caller points `TMPDIR` at it, because
/// `sbc_net::local_mesh` binds its sockets under `std::env::temp_dir()`.
pub struct SocketDir {
    dir: PathBuf,
    out: PathBuf,
}

/// Longest socket file name used: `sbc-net-<pid>-<counter>.sock`.
const SOCKET_NAME_MAX: usize = 40;

impl SocketDir {
    pub fn create(out: &Path) -> std::io::Result<SocketDir> {
        let name = format!("s{}", std::process::id());
        let inside = std::path::absolute(out)?.join(&name);
        let dir = if inside.as_os_str().len() + 1 + SOCKET_NAME_MAX < 108 {
            inside
        } else {
            std::env::temp_dir().join(format!("sbc-perf-{name}"))
        };
        std::fs::create_dir_all(&dir)?;
        Ok(SocketDir {
            dir,
            out: out.to_path_buf(),
        })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The output directory this was created for (a child process given the
    /// same one makes its own socket directory beside this one).
    pub fn out(&self) -> &Path {
        &self.out
    }

    /// A socket path for the served front.
    pub fn socket(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for SocketDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_description_has_every_field() {
        let d = describe();
        for key in ["nproc", "cpu_model", "rustc", "git_sha"] {
            assert!(d.get(key).is_some(), "{key} missing");
        }
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn socket_dir_is_removed_on_drop_with_its_contents() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
        let dir = SocketDir::create(&out).unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(dir.socket("left-behind.sock"), b"").unwrap();
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists());
    }
}

//! The program under test as the benchmark sees it: the `setlearn` binary,
//! run as child processes. Tenants are trained through the CLI, the server
//! is `setlearn serve --root`, and its cost is read from `/proc/<pid>`.

use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Handle on the `setlearn` binary.
#[derive(Debug, Clone)]
pub struct Cli {
    bin: PathBuf,
}

impl Cli {
    /// `SETLEARN_BIN` (set by `run.sh`), else the root workspace's release
    /// binary under `CARGO_TARGET_DIR` or `target/`.
    pub fn locate() -> Result<Cli, String> {
        let bin = match std::env::var_os("SETLEARN_BIN") {
            Some(path) => PathBuf::from(path),
            None => PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
                .join("release/setlearn"),
        };
        if !bin.is_file() {
            return Err(format!(
                "{} not found; run benchmark/run.sh, which builds it",
                bin.display()
            ));
        }
        Ok(Cli { bin })
    }

    /// Runs one CLI command to completion; a non-zero exit is an error
    /// carrying its stderr.
    pub fn run(&self, args: &[&str]) -> Result<String, String> {
        let out = Command::new(&self.bin)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", self.bin.display()))?;
        if !out.status.success() {
            return Err(format!(
                "setlearn {} failed ({}): {}",
                args.join(" "),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    }
}

/// What `/proc/<pid>` says about the server at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// utime + stime of the whole process, exited threads included.
    pub cpu_us: f64,
    /// Peak resident set (`VmHWM`).
    pub hwm_kb: f64,
    pub rss_kb: f64,
    pub threads: f64,
}

/// A running `setlearn serve --root` child. Dropping it kills and reaps the
/// process, so no run leaves one behind, whatever path it exits by.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts the multi-tenant server over `root` on an ephemeral loopback
    /// port and waits for the address file. `extra` are further serve flags.
    pub fn start(
        cli: &Cli,
        root: &Path,
        scratch: &Path,
        extra: &[String],
    ) -> Result<Server, String> {
        let addr_file = scratch.join("addr.txt");
        let _ = fs::remove_file(&addr_file);
        let log = fs::File::create(scratch.join("serve.log")).map_err(|e| e.to_string())?;
        let err = log.try_clone().map_err(|e| e.to_string())?;
        let child = Command::new(&cli.bin)
            .args(["serve", "--root"])
            .arg(root)
            .args(["--listen", "127.0.0.1:0", "--threads", "2", "--addr-file"])
            .arg(&addr_file)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start server: {e}"))?;
        let mut server = Server {
            child,
            addr: "127.0.0.1:0".parse().expect("literal"),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(text) = fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    server.addr = addr;
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                let log = fs::read_to_string(scratch.join("serve.log")).unwrap_or_default();
                return Err(format!("server exited at start ({status}): {}", log.trim()));
            }
            if Instant::now() > deadline {
                return Err("server did not publish its address within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn proc_sample(&self) -> Result<ProcSample, String> {
        let pid = self.child.id();
        let stat = fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
        // Fields after the parenthesised command name, which may hold spaces.
        let rest = stat.rsplit_once(')').ok_or("malformed /proc stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or("malformed /proc stat".to_string())
        };
        let cpu_us = (ticks(11)? + ticks(12)?) * 1e6 / clock_ticks_per_second();
        let status =
            fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
        let field = |key: &str| -> f64 {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0)
        };
        Ok(ProcSample {
            cpu_us,
            hwm_kb: field("VmHWM:"),
            rss_kb: field("VmRSS:"),
            threads: field("Threads:"),
        })
    }

    /// SIGKILL and reap (what dropping does, said aloud): the crash the WAL
    /// must survive, and also how every run ends — the server holds no state
    /// the benchmark wants flushed.
    pub fn kill(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `getconf CLK_TCK`, asked once; 100 is the Linux value when it cannot be.
fn clock_ticks_per_second() -> f64 {
    use std::sync::OnceLock;
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8_lossy(&o.stdout).trim().parse().ok())
            .filter(|t: &f64| *t > 0.0)
            .unwrap_or(100.0)
    })
}

/// Copies a tenant directory (flat files plus an optional `wal/`).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for entry in fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target)
                .map_err(|e| format!("copy to {}: {e}", target.display()))?;
        }
    }
    Ok(())
}

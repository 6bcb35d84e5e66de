//! The `serve` process under test: building it, spawning it on a loopback
//! port, control requests (`ping`, `stats`, `metrics`, `shutdown`) and its
//! peak resident memory.

use cvcp_core::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Builds the repository's `serve` binary (release profile, into the same
/// target directory as this benchmark) and returns its path.
pub fn build_serve() -> Result<PathBuf, String> {
    let root = repo_root();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the build directory")?;
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .env("CARGO_TARGET_DIR", target)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "-p",
            "cvcp-experiments",
            "--bin",
            "serve",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building serve failed: {status}"));
    }
    let serve = exe.with_file_name("serve");
    if serve.is_file() {
        Ok(serve)
    } else {
        Err(format!("serve binary not found at {}", serve.display()))
    }
}

/// A running `serve` process.  Dropping it shuts the process down and
/// waits for it.
pub struct Server {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    /// The bound loopback address.
    pub addr: String,
    /// Seconds from spawn to the first `pong`.
    pub setup_s: f64,
}

impl Server {
    /// Spawns `serve` on an ephemeral loopback port with only the given
    /// `CVCP_*` settings (every inherited `CVCP_*` variable is removed), and
    /// waits for its first `pong`.
    pub fn spawn(serve: &Path, env: &[(&str, String)]) -> Result<Server, String> {
        let start = Instant::now();
        let mut cmd = Command::new(serve);
        for (key, _) in std::env::vars() {
            if key.starts_with("CVCP_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("CVCP_ADDR", "127.0.0.1:0");
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child: Some(child),
            stdout: None,
            addr: String::new(),
            setup_s: 0.0,
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading serve output: {e}"))?;
            if n == 0 {
                return Err("serve exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                server.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                break;
            }
        }
        server.stdout = Some(stdout);
        let pong = server.control("ping")?;
        if pong.get("type").and_then(Json::as_str) != Some("pong") {
            return Err(format!("unexpected ping answer {}", pong.compact()));
        }
        server.setup_s = start.elapsed().as_secs_f64();
        Ok(server)
    }

    /// Sends a one-shot (v1) control request and returns the parsed answer.
    pub fn control(&self, kind: &str) -> Result<Json, String> {
        let mut stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        writeln!(stream, "{{\"type\":\"{kind}\"}}").map_err(|e| format!("send {kind}: {e}"))?;
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .map_err(|e| format!("read {kind}: {e}"))?;
        Json::parse(line.trim()).map_err(|e| format!("bad {kind} answer: {e}"))
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident memory of the process so far, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(&format!("/proc/{}/status", self.pid()))
    }

    /// Shuts the server down gracefully (killing it if it does not exit
    /// within ten seconds) and waits for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let asked = self.control("shutdown").is_ok();
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked && Instant::now() < deadline {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        let exited = matches!(child.try_wait(), Ok(Some(_)));
        if !exited {
            child.kill().ok();
        }
        child
            .wait()
            .map_err(|e| format!("waiting for serve: {e}"))?;
        if let Some(mut out) = self.stdout.take() {
            let mut rest = String::new();
            while out.read_line(&mut rest).map_or(0, |n| n) > 0 {}
        }
        if exited {
            Ok(())
        } else {
            Err("serve did not shut down and was killed".into())
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB (0 when unreadable).
pub fn peak_rss_mib(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

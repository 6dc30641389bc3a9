//! The server under test: the real `crowdtz-serve` binary as a child
//! process, spoken to over loopback.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use crowdtz_serve::{ClientResponse, HttpClient};

use crate::inputs::ENGINE_THREADS;

/// Accept-pool size passed as `--workers`: one per generator connection.
pub const SERVER_WORKERS: usize = 2;

/// A response slower than this counts as a failed request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// How to start the server.
#[derive(Debug, Clone)]
pub struct ServerCmd {
    /// Path of the `crowdtz-serve` executable.
    pub bin: PathBuf,
}

/// A running server process. Dropping it SIGKILLs and reaps the child,
/// so no exit path of the benchmark leaves a server behind.
#[derive(Debug)]
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The bound loopback address.
    pub addr: SocketAddr,
}

impl ServerCmd {
    /// Spawns the server on an ephemeral loopback port and waits for the
    /// `listening on` line it flushes before its first accept.
    pub fn spawn(&self, durable_root: Option<&Path>) -> io::Result<Server> {
        let mut cmd = Command::new(&self.bin);
        cmd.arg("127.0.0.1:0")
            .arg("--workers")
            .arg(SERVER_WORKERS.to_string())
            .env("CROWDTZ_THREADS", ENGINE_THREADS.to_string())
            .env("CROWDTZ_LOG", "off")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(root) = durable_root {
            cmd.arg("--durable-root").arg(root);
        }
        let mut child = cmd.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("crowdtz-serve listening on http://")
                .and_then(|a| a.parse().ok())
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "server did not announce its address: {line:?}"
            )));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }
}

impl Server {
    /// Highest resident set size so far (`VmHWM`), in bytes.
    pub fn peak_rss_bytes(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    }

    /// CPU time the process has used so far, all threads (exited ones
    /// included), in seconds: `utime + stime` from `/proc/<pid>/stat`.
    /// The kernel accounts hypervisor steal apart from both, so this cost
    /// moves far less than wall time when a shared host takes CPU away;
    /// it still rises when the host's load slows the CPU itself.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are the 12th and 13th of them, in USER_HZ (100 on Linux) ticks.
        let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
        let ticks: u64 =
            fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        Some(ticks as f64 / 100.0)
    }

    /// SIGKILLs the process and waits until it has exited.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One generator connection. Any transport error drops the socket; the
/// next request opens a new one. Nothing is retried.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    client: Option<HttpClient>,
}

impl Conn {
    /// A connection to `addr`, opened lazily on the first request.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, client: None }
    }

    /// Sends one request's bytes and reads its response.
    pub fn exchange(&mut self, wire: &[u8]) -> io::Result<ClientResponse> {
        if self.client.is_none() {
            let client = HttpClient::connect(self.addr)?;
            client.set_timeout(Some(REQUEST_TIMEOUT))?;
            self.client = Some(client);
        }
        let client = self.client.as_mut().expect("connected above");
        let result = client
            .send_raw(wire)
            .and_then(|()| client.read_response(false));
        if result.is_err() {
            self.client = None;
        }
        result
    }
}

/// Whether a request succeeded: a response arrived and its status is 2xx.
/// Transport errors and timeouts surface as `Err` and count as failures.
pub fn succeeded(result: &io::Result<ClientResponse>) -> bool {
    matches!(result, Ok(r) if (200..300).contains(&r.status))
}

/// Total size of the files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

//! The end-to-end side: the release `cpsdfad` as a child process, driven
//! by closed-loop clients over its stdin/stdout.

use cpsdfa_service::proto::Response;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One answered request: its client-observed round trip and the response.
#[derive(Debug, Clone)]
pub struct Reply {
    pub rtt_ns: u64,
    pub response: Response,
}

/// What a closed loop over one round observed.
#[derive(Debug)]
pub struct LoopOutcome {
    /// Indexed like the round's stream.
    pub replies: Vec<Reply>,
    /// From the first send to the last reply.
    pub wall: Duration,
}

/// Sends `lines` as closed-loop clients: client `c` sends its requests
/// (those with `clients[i] == c`) in order, each only after its previous
/// reply arrived, so at most one request per client is in flight. Request
/// `i` must carry id `i`. One thread serves every client: replies are
/// read in arrival order and each one releases its client's next send.
pub fn closed_loop(
    input: &mut impl Write,
    output: &mut impl BufRead,
    lines: &[String],
    clients: &[usize],
) -> io::Result<LoopOutcome> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut queues: Vec<std::collections::VecDeque<usize>> = Vec::new();
    for (i, &c) in clients.iter().enumerate() {
        if queues.len() <= c {
            queues.resize_with(c + 1, Default::default);
        }
        queues[c].push_back(i);
    }
    let mut sent_at: Vec<Option<Instant>> = vec![None; lines.len()];
    let mut replies: Vec<Option<Reply>> = vec![None; lines.len()];
    let start = Instant::now();
    let send = |i: usize, input: &mut dyn Write, sent_at: &mut [Option<Instant>]| {
        sent_at[i] = Some(Instant::now());
        input.write_all(lines[i].as_bytes())?;
        input.write_all(b"\n")?;
        input.flush()
    };
    let mut in_flight = 0;
    for queue in &mut queues {
        if let Some(i) = queue.pop_front() {
            send(i, input, &mut sent_at)?;
            in_flight += 1;
        }
    }
    let mut line = String::new();
    while in_flight > 0 {
        line.clear();
        if output.read_line(&mut line)? == 0 {
            return Err(bad(format!(
                "daemon closed its output with {in_flight} requests in flight"
            )));
        }
        let arrived = Instant::now();
        let response = Response::parse(line.trim()).map_err(|e| bad(format!("{e}: {line}")))?;
        let i = response.id as usize;
        let sent = sent_at
            .get(i)
            .copied()
            .flatten()
            .filter(|_| replies[i].is_none())
            .ok_or_else(|| bad(format!("reply to a request not in flight: {line}")))?;
        replies[i] = Some(Reply {
            rtt_ns: (arrived - sent).as_nanos() as u64,
            response,
        });
        in_flight -= 1;
        if let Some(next) = queues[clients[i]].pop_front() {
            send(next, input, &mut sent_at)?;
            in_flight += 1;
        }
    }
    Ok(LoopOutcome {
        replies: replies
            .into_iter()
            .map(|r| r.expect("every request was sent and answered"))
            .collect(),
        wall: start.elapsed(),
    })
}

/// A running `cpsdfad`. Dropping it kills and reaps the process;
/// [`Daemon::shutdown`] stops it cleanly.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// From spawn to the first `health` reply (includes persist-dir
    /// recovery).
    pub setup: Duration,
}

impl Daemon {
    /// Spawns `bin` as the benchmark configures it: two workers, the given
    /// persist dir, every hit and warm answer certified, tracing off.
    pub fn spawn(bin: &Path, persist_dir: &Path) -> io::Result<Daemon> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--workers")
            .arg("2")
            .arg("--persist-dir")
            .arg(persist_dir)
            .arg("--certify")
            .arg("1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdin,
            stdout,
            setup: Duration::ZERO,
        };
        let health = daemon.command("health")?;
        daemon.setup = start.elapsed();
        if !health.contains("\"status\": \"health\"") {
            return Err(io::Error::other(format!("bad health reply: {health}")));
        }
        Ok(daemon)
    }

    /// The request and reply pipes, for [`closed_loop`].
    pub fn pipes(&mut self) -> (&mut ChildStdin, &mut BufReader<ChildStdout>) {
        (
            self.stdin.as_mut().expect("stdin is open until shutdown"),
            &mut self.stdout,
        )
    }

    /// Sends a control command and returns its one-line reply.
    fn command(&mut self, cmd: &str) -> io::Result<String> {
        let (input, output) = self.pipes();
        writeln!(input, "{{\"cmd\": \"{cmd}\"}}")?;
        input.flush()?;
        let mut line = String::new();
        if output.read_line(&mut line)? == 0 {
            return Err(io::Error::other(format!(
                "daemon exited before answering {cmd}"
            )));
        }
        Ok(line)
    }

    /// The daemon's peak resident set (`VmHWM`) in KiB. Read while it is
    /// alive: the `/proc` entry is gone once it exits.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends `shutdown`, closes stdin and waits for a clean exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut stdin = self.stdin.take().expect("stdin is open until shutdown");
        writeln!(stdin, "{{\"cmd\": \"shutdown\"}}")?;
        drop(stdin);
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("cpsdfad exited with {status}")))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

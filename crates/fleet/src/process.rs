//! Cross-process client harness: spawn real OS processes that speak the
//! [`crate::wire`] frame protocol back to a coordinator socket.
//!
//! Two halves live here so the coordinator-side tests and the client
//! binary share one implementation:
//!
//! - [`client_main`] — the body of a process client: connect to the
//!   coordinator, send one Data frame, wait for the matching Ack. A thin
//!   `socket_client` binary in `bofl-control` wraps it.
//! - [`ProcessClientHarness`] — the coordinator-side babysitter: spawns
//!   client processes via `std::process::Command`, waits for them, and
//!   kills stragglers on drop so a failing test never leaks children.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::wire::{encode_frame, Frame, FrameReader, WireMsg};

/// What one process client sends: a single update identified by
/// `(round, client, copy)` with its virtual send timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientSpec {
    /// Client id the update claims to come from.
    pub client_id: usize,
    /// Federation round the update belongs to.
    pub round: usize,
    /// Virtual send time in simulated seconds.
    pub t_send_s: f64,
}

/// Run the client side of the socket protocol: connect to `addr`, send
/// one Data frame for `spec`, and block until the coordinator acks it
/// (or `ack_timeout` elapses).
///
/// # Errors
///
/// Any connect, write, decode, or timeout failure comes back as a typed
/// [`std::io::Error`]; the caller (the `socket_client` bin) turns it into
/// a nonzero exit status.
pub fn client_main(addr: &str, spec: ClientSpec, ack_timeout: Duration) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let msg = WireMsg {
        round: spec.round as u32,
        client: spec.client_id as u32,
        copy: 0,
        t_send_s: spec.t_send_s,
    };
    stream.write_all(&encode_frame(&Frame::Data(msg)))?;
    stream.flush()?;
    let deadline = Instant::now() + ack_timeout;
    let mut reader = FrameReader::new();
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!(
                    "no ack for client {} within {ack_timeout:?}",
                    spec.client_id
                ),
            ));
        }
        stream.set_read_timeout(Some(remaining.min(Duration::from_millis(100))))?;
        match reader.poll(&mut stream) {
            Ok(Some(Frame::Ack(ack))) if ack.round == msg.round && ack.client == msg.client => {
                return Ok(());
            }
            Ok(Some(_)) | Ok(None) => {}
            Err(e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("client {} wire error: {e}", spec.client_id),
                ));
            }
        }
    }
}

/// Parse the `socket_client` command line (`--addr A --client N --round R
/// --t-send F [--ack-timeout-ms M]`) into the pieces [`client_main`]
/// needs. Shared with the binary so tests can pin the contract.
///
/// # Errors
///
/// Returns a human-readable description of the first malformed or
/// missing argument.
pub fn parse_client_args(args: &[String]) -> Result<(String, ClientSpec, Duration), String> {
    let mut addr = None;
    let mut client_id = None;
    let mut round = None;
    let mut t_send_s = None;
    let mut ack_timeout = Duration::from_secs(10);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} is missing its value"))?;
        match flag.as_str() {
            "--addr" => addr = Some(value.clone()),
            "--client" => {
                client_id = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("--client: {e}"))?,
                )
            }
            "--round" => {
                round = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("--round: {e}"))?,
                )
            }
            "--t-send" => {
                t_send_s = Some(value.parse::<f64>().map_err(|e| format!("--t-send: {e}"))?)
            }
            "--ack-timeout-ms" => {
                ack_timeout = Duration::from_millis(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--ack-timeout-ms: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let spec = ClientSpec {
        client_id: client_id.ok_or("--client is required")?,
        round: round.ok_or("--round is required")?,
        t_send_s: t_send_s.ok_or("--t-send is required")?,
    };
    Ok((addr.ok_or("--addr is required")?, spec, ack_timeout))
}

/// Coordinator-side process supervisor for integration tests and demos:
/// spawns one OS process per client and reaps them.
#[derive(Debug)]
pub struct ProcessClientHarness {
    exe: PathBuf,
    addr: String,
    children: Vec<(usize, Child)>,
}

impl ProcessClientHarness {
    /// A harness that spawns `exe` (the `socket_client` binary) pointed
    /// at the coordinator listening on `addr`.
    pub fn new(exe: impl Into<PathBuf>, addr: impl Into<String>) -> Self {
        ProcessClientHarness {
            exe: exe.into(),
            addr: addr.into(),
            children: Vec::new(),
        }
    }

    /// Spawn one client process for `spec`. Stdout/stderr are inherited
    /// so a failing client's message lands in the test log.
    ///
    /// # Errors
    ///
    /// Propagates the spawn failure.
    pub fn spawn(&mut self, spec: ClientSpec) -> std::io::Result<()> {
        let child = Command::new(&self.exe)
            .arg("--addr")
            .arg(&self.addr)
            .arg("--client")
            .arg(spec.client_id.to_string())
            .arg("--round")
            .arg(spec.round.to_string())
            .arg("--t-send")
            .arg(format!("{:.17e}", spec.t_send_s))
            .stdin(Stdio::null())
            .spawn()?;
        self.children.push((spec.client_id, child));
        Ok(())
    }

    /// Wait for every spawned client; returns `(client_id, success)`
    /// pairs in spawn order.
    ///
    /// # Errors
    ///
    /// Propagates the first wait failure.
    pub fn wait_all(&mut self) -> std::io::Result<Vec<(usize, bool)>> {
        let mut out = Vec::with_capacity(self.children.len());
        for (id, mut child) in self.children.drain(..) {
            let status = child.wait()?;
            out.push((id, status.success()));
        }
        Ok(out)
    }

    /// Kill every still-running client (best effort).
    pub(crate) fn kill_all(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for ProcessClientHarness {
    fn drop(&mut self) {
        self.kill_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn args_round_trip() {
        let (addr, spec, timeout) = parse_client_args(&s(&[
            "--addr",
            "127.0.0.1:9001",
            "--client",
            "7",
            "--round",
            "3",
            "--t-send",
            "12.5",
            "--ack-timeout-ms",
            "250",
        ]))
        .unwrap();
        assert_eq!(addr, "127.0.0.1:9001");
        assert_eq!(
            spec,
            ClientSpec {
                client_id: 7,
                round: 3,
                t_send_s: 12.5
            }
        );
        assert_eq!(timeout, Duration::from_millis(250));
    }

    #[test]
    fn missing_and_unknown_flags_are_named() {
        let err =
            parse_client_args(&s(&["--addr", "x", "--client", "1", "--round", "0"])).unwrap_err();
        assert!(err.contains("--t-send"), "got: {err}");
        let err = parse_client_args(&s(&["--frobnicate", "1"])).unwrap_err();
        assert!(err.contains("--frobnicate"), "got: {err}");
    }

    #[test]
    fn t_send_survives_the_command_line_exactly() {
        // The harness formats t_send with enough digits that the value the
        // child parses is bit-identical — virtual timestamps must not
        // drift through the exec boundary.
        let t = 123.456_789_012_345_67_f64;
        let formatted = format!("{t:.17e}");
        let parsed: f64 = formatted.parse().unwrap();
        assert_eq!(parsed.to_bits(), t.to_bits());
    }
}

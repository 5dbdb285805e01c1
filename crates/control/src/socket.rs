//! [`SocketTransport`]: the [`Transport`] contract carried over real
//! localhost TCP.
//!
//! Where [`crate::transport::VirtualTransport`] hands each delivery back
//! at its send time, this carrier pushes it through actual sockets using
//! the length-prefixed, checksummed frame codec in [`bofl_fleet::wire`]
//! (the envelope the write-ahead log's records use too). Each `carry`
//! call binds an ephemeral coordinator listener on `127.0.0.1`, shards
//! the round's envelopes round-robin across client lanes, and runs every
//! lane through one function, [`run_lane`]: in a thread of this process,
//! or, in [`SocketTransport::spawned`] mode, in one `socket_client` OS
//! process per envelope. A lane speaks the Data/Ack protocol:
//!
//! - it writes one `Data` frame per envelope and waits for the
//!   coordinator's matching `Ack` within [`SocketTransport::with_ack_timeout`];
//! - a missing ack, write error, or EOF tears the connection down and the
//!   lane retries, at most 4 attempts per message, after a seeded
//!   exponential backoff: a `RetryPolicy` whose nominal sleep before
//!   attempt `a ≥ 2` is `0.01 · 2^(a−2)` s, jittered ±20% by a draw
//!   seeded from `stream_seed(seed, round, client, salt)`, never the
//!   wall clock;
//! - before reusing a pooled connection a lane probes it with a
//!   `Ping`/`Pong` heartbeat, which is what detects the half-open
//!   connections a silently dropped peer leaves behind (a process lane
//!   carries one envelope, so it never reuses a connection);
//! - the coordinator deduplicates on `(round, client, copy)` and re-acks
//!   duplicates, so a retry after a lost ack stays exactly-once.
//!
//! Virtual timestamps travel *inside* the frames (`t_send_s`), and every
//! delivery arrives at its virtual send time — real TCP timing never
//! leaks into the output. After the canonical
//! [`crate::transport::sort_deliveries`] pass, a zero-fault socket run is
//! therefore byte-identical to [`crate::transport::VirtualTransport`] at
//! any lane count, and even a run with injected accept faults
//! ([`SocketTransport::with_accept_faults`]) converges to the same
//! journal once the retries land. A message whose retries are exhausted
//! is simply absent from the output; the engine surfaces it through the
//! existing `transport_loss` / liveness machinery.

use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bofl_fl::network::RetryPolicy;
use bofl_fleet::fault::stream_seed;
use bofl_fleet::wire::{encode_frame, Frame, FrameReader, WireMsg};

use crate::transport::{sort_deliveries, Carried, Delivery, Envelope, Transport, WireStats};

/// Reconnect schedule of every lane: 4 attempts per message, 10 ms
/// before the second, doubling, ±20% seeded jitter (so no sleep exceeds
/// 48 ms).
const RECONNECT: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    base_backoff_s: 0.01,
    backoff_multiplier: 2.0,
    jitter: 0.2,
};
/// Seed of the lanes' reconnect-jitter and heartbeat-nonce streams.
const LANE_SEED: u64 = 0xB0F1;
/// Stream salt for reconnect backoff jitter.
const RECONNECT_SALT: u64 = 0x50CE_7B0F_F000_0001;
/// Stream salt for heartbeat nonces.
const HEARTBEAT_SALT: u64 = 0x50CE_7B0F_F000_0002;

/// The backoff slept *before* `attempt` of one message (attempts count
/// from 1; the first attempt never waits). A pure function of `(round,
/// client, attempt)`, so the schedule is reproducible and independent of
/// thread scheduling.
fn reconnect_backoff_s(round: usize, client: usize, attempt: u32) -> f64 {
    if attempt <= 1 {
        return 0.0;
    }
    let seed = stream_seed(LANE_SEED, round, client, RECONNECT_SALT);
    RECONNECT.backoff_s(attempt - 1, seed)
}

/// How client lanes are realized.
#[derive(Debug, Clone)]
enum SocketMode {
    /// Lanes are threads in this process (fast, the default).
    InProcess,
    /// One spawned OS process per envelope, running the `socket_client`
    /// binary at this path; each runs [`run_lane`] for its envelope.
    Spawn(PathBuf),
}

/// A [`Transport`] that carries each round's updates over real localhost
/// TCP sockets. See the module docs for the protocol and determinism
/// argument.
#[derive(Debug, Clone)]
pub struct SocketTransport {
    lanes: usize,
    mode: SocketMode,
    ack_timeout: Duration,
    accept_faults: u32,
    label: String,
}

impl SocketTransport {
    /// A socket transport whose client lanes are `lanes` threads in this
    /// process.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn in_process(lanes: usize) -> Self {
        assert!(lanes > 0, "a socket transport needs at least one lane");
        SocketTransport {
            lanes,
            mode: SocketMode::InProcess,
            ack_timeout: Duration::from_secs(2),
            accept_faults: 0,
            label: format!("socket({lanes} lanes)"),
        }
    }

    /// A socket transport that spawns one `socket_client` OS process per
    /// envelope (`exe` is the binary's path — in tests,
    /// `env!("CARGO_BIN_EXE_socket_client")`).
    pub fn spawned(exe: impl Into<PathBuf>) -> Self {
        SocketTransport {
            lanes: 1,
            mode: SocketMode::Spawn(exe.into()),
            ack_timeout: Duration::from_secs(2),
            accept_faults: 0,
            label: "socket(spawn)".to_string(),
        }
    }

    /// How long a lane (a thread or a spawned process) waits for the
    /// coordinator's ack before tearing the connection down and retrying.
    pub fn with_ack_timeout(mut self, timeout: Duration) -> Self {
        self.ack_timeout = timeout;
        self
    }

    /// Fault-injection knob: the coordinator drops the first `n` accepted
    /// connections per `carry` call, forcing the affected lanes through
    /// the reconnect path. Used by the acceptance tests to prove the
    /// journal is invariant under real reconnects.
    pub fn with_accept_faults(mut self, n: u32) -> Self {
        self.accept_faults = n;
        self
    }
}

/// One pooled client-side connection.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

fn connect(addr: SocketAddr) -> Option<Conn> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    Some(Conn {
        stream,
        reader: FrameReader::new(),
    })
}

/// Write `frame`, then wait until a reply matches `want`, the timeout
/// passes, or the connection errors. Non-matching frames are discarded
/// (stale acks from a previous retry, say).
fn exchange(
    conn: &mut Conn,
    frame: Frame,
    timeout: Duration,
    want: impl Fn(&Frame) -> bool,
) -> bool {
    if conn.stream.write_all(&encode_frame(&frame)).is_err() {
        return false;
    }
    let deadline = Instant::now() + timeout;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return false;
        }
        if conn
            .stream
            .set_read_timeout(Some(remaining.min(Duration::from_millis(50))))
            .is_err()
        {
            return false;
        }
        match conn.reader.poll(&mut conn.stream) {
            Ok(Some(frame)) if want(&frame) => return true,
            Ok(Some(_)) | Ok(None) => {}
            Err(_) => return false,
        }
    }
}

/// The body of every client lane, a thread of this process or a
/// `socket_client` process: deliver each envelope of `shard` in order
/// over one pooled connection, reconnecting under the seeded backoff.
/// Returns how many envelopes were acked.
pub fn run_lane(addr: SocketAddr, shard: &[Envelope], ack_timeout: Duration) -> usize {
    let mut conn: Option<Conn> = None;
    let mut acked = 0usize;
    for env in shard {
        let msg = WireMsg {
            round: env.round as u32,
            client: env.client_id as u32,
            copy: 0,
            t_send_s: env.t_send_s,
        };
        for attempt in 1..=RECONNECT.max_attempts {
            let backoff = reconnect_backoff_s(env.round, env.client_id, attempt);
            if backoff > 0.0 {
                thread::sleep(Duration::from_secs_f64(backoff));
            }
            let pooled = conn.is_some();
            if conn.is_none() {
                conn = connect(addr);
            }
            let Some(c) = conn.as_mut() else { continue };
            // Probe a pooled connection: a dead or half-open peer fails
            // to echo the nonce, and the lane reconnects instead of
            // writing into a black hole.
            let nonce = stream_seed(LANE_SEED, env.round, env.client_id, HEARTBEAT_SALT);
            if pooled
                && !exchange(c, Frame::Ping(nonce), ack_timeout, |f| {
                    *f == Frame::Pong(nonce)
                })
            {
                conn = None;
                continue;
            }
            let acks = |f: &Frame| {
                matches!(f, Frame::Ack(a)
                    if (a.round, a.client, a.copy) == (msg.round, msg.client, msg.copy))
            };
            if exchange(c, Frame::Data(msg), ack_timeout, acks) {
                acked += 1;
                break;
            }
            conn = None;
        }
    }
    acked
}

/// Parse the `socket_client` command line (`--addr A --client N --round R
/// --t-send F [--ack-timeout-ms M]`) into the coordinator's address, the
/// one envelope to deliver and the ack timeout (10 s by default).
///
/// # Errors
///
/// Returns a human-readable description of the first malformed or
/// missing argument.
pub fn parse_client_args(args: &[String]) -> Result<(SocketAddr, Envelope, Duration), String> {
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
            "--addr" => addr = Some(value),
            "--client" => client_id = Some(value.parse().map_err(|e| format!("--client: {e}"))?),
            "--round" => round = Some(value.parse().map_err(|e| format!("--round: {e}"))?),
            "--t-send" => t_send_s = Some(value.parse().map_err(|e| format!("--t-send: {e}"))?),
            "--ack-timeout-ms" => {
                let ms = value
                    .parse()
                    .map_err(|e| format!("--ack-timeout-ms: {e}"))?;
                ack_timeout = Duration::from_millis(ms);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let envelope = Envelope {
        client_id: client_id.ok_or("--client is required")?,
        round: round.ok_or("--round is required")?,
        t_send_s: t_send_s.ok_or("--t-send is required")?,
    };
    let addr = addr.ok_or("--addr is required")?;
    let addr = addr.parse().map_err(|e| format!("--addr: {e}"))?;
    Ok((addr, envelope, ack_timeout))
}

/// Start one `socket_client` process (`exe`) for `env`, pointed at
/// `addr`. The virtual send time is formatted with enough digits to
/// survive the exec boundary bit for bit.
fn spawn_client(
    exe: &Path,
    addr: SocketAddr,
    env: &Envelope,
    ack_timeout: Duration,
) -> std::io::Result<Child> {
    Command::new(exe)
        .arg("--addr")
        .arg(addr.to_string())
        .arg("--client")
        .arg(env.client_id.to_string())
        .arg("--round")
        .arg(env.round.to_string())
        .arg("--t-send")
        .arg(format!("{:.17e}", env.t_send_s))
        .arg("--ack-timeout-ms")
        .arg(ack_timeout.as_millis().to_string())
        .stdin(Stdio::null())
        .spawn()
}

/// Coordinator side of one accepted connection: decode frames, hand fresh
/// Data deliveries to the collector, ack everything (re-acking duplicates
/// keeps retries exactly-once), echo Pings.
fn serve_connection(
    mut stream: TcpStream,
    tx: mpsc::Sender<Delivery>,
    done: &AtomicBool,
    seen: &Mutex<HashSet<(u32, u32, u32)>>,
) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    if stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .is_err()
    {
        return;
    }
    let mut reader = FrameReader::new();
    while !done.load(Ordering::SeqCst) {
        match reader.poll(&mut stream) {
            Ok(Some(Frame::Data(msg))) => {
                let fresh = seen
                    .lock()
                    .expect("dedup set poisoned")
                    .insert((msg.round, msg.client, msg.copy));
                if fresh {
                    // Arrival is the *virtual* send time carried in the
                    // frame — real TCP latency must not leak.
                    let _ = tx.send(Delivery {
                        client_id: msg.client as usize,
                        t_send_s: msg.t_send_s,
                        t_arrive_s: msg.t_send_s,
                        copy: msg.copy,
                    });
                }
                if stream.write_all(&encode_frame(&Frame::Ack(msg))).is_err() {
                    return;
                }
            }
            Ok(Some(Frame::Ping(nonce))) => {
                if stream
                    .write_all(&encode_frame(&Frame::Pong(nonce)))
                    .is_err()
                {
                    return;
                }
            }
            Ok(Some(_)) => {}
            Ok(None) => {}
            Err(_) => return,
        }
    }
}

impl Transport for SocketTransport {
    fn label(&self) -> &str {
        &self.label
    }

    fn carry(&mut self, _round: usize, _t0_s: f64, messages: &[Envelope]) -> Carried {
        if messages.is_empty() {
            return Carried::default();
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind coordinator listener");
        let addr = listener.local_addr().expect("listener address");

        let (tx, rx) = mpsc::channel::<Delivery>();
        let done = AtomicBool::new(false);
        let drops_left = AtomicU32::new(self.accept_faults);
        let seen: Mutex<HashSet<(u32, u32, u32)>> = Mutex::new(HashSet::new());
        let ack_timeout = self.ack_timeout;
        let mode = self.mode.clone();
        let lanes = self.lanes.min(messages.len()).max(1);

        thread::scope(|s| {
            let done_ref = &done;
            let seen_ref = &seen;
            let drops_ref = &drops_left;
            let accept_tx = tx.clone();
            // Accept loop: blocks in `accept` and spawns one handler per
            // connection on the same scope, so everything joins before
            // carry returns. Once `done` is set, one wake-up connect
            // unblocks it; that connection is never served.
            s.spawn(move || {
                for stream in listener.incoming() {
                    if done_ref.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    // Fault injection: drop the first N accepted
                    // connections cold, forcing reconnects.
                    if drops_ref
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok()
                    {
                        drop(stream);
                        continue;
                    }
                    let tx = accept_tx.clone();
                    s.spawn(move || serve_connection(stream, tx, done_ref, seen_ref));
                }
            });

            match &mode {
                SocketMode::InProcess => {
                    let handles: Vec<_> = (0..lanes)
                        .map(|lane| {
                            let shard: Vec<Envelope> =
                                messages.iter().skip(lane).step_by(lanes).copied().collect();
                            s.spawn(move || run_lane(addr, &shard, ack_timeout))
                        })
                        .collect();
                    for h in handles {
                        let _ = h.join();
                    }
                }
                SocketMode::Spawn(exe) => {
                    // A process that fails to start delivers nothing: its
                    // envelope counts as dropped, like a lane whose
                    // retries ran out.
                    let children: Vec<Child> = messages
                        .iter()
                        .filter_map(|env| spawn_client(exe, addr, env, ack_timeout).ok())
                        .collect();
                    for mut child in children {
                        let _ = child.wait();
                    }
                }
            }
            done.store(true, Ordering::SeqCst);
            // Wake the blocked accept so it sees `done`. If the connect
            // fails, the accept loop has already exited on an error.
            let _ = TcpStream::connect(addr);
        });
        drop(tx);

        let mut deliveries: Vec<Delivery> = rx.into_iter().collect();
        sort_deliveries(&mut deliveries);
        // Dedup guarantees at most one delivery per envelope, so the
        // shortfall is exactly the messages whose retries were exhausted.
        let stats = WireStats {
            sent: messages.len(),
            dropped: messages.len().saturating_sub(deliveries.len()),
            ..WireStats::default()
        };
        Carried { deliveries, stats }
    }

    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::VirtualTransport;

    fn envelopes(n: usize, round: usize) -> Vec<Envelope> {
        (0..n)
            .map(|i| Envelope {
                round,
                client_id: i,
                // Deliberately not in send order, to exercise the sort.
                t_send_s: 10.0 + ((n - i) as f64) * 0.25,
            })
            .collect()
    }

    #[test]
    fn zero_fault_socket_matches_virtual_at_any_lane_count() {
        let msgs = envelopes(9, 2);
        let want = VirtualTransport.carry(2, 0.0, &msgs);
        for lanes in [1, 2, 4, 8] {
            let got = SocketTransport::in_process(lanes).carry(2, 0.0, &msgs);
            assert_eq!(got, want, "lanes={lanes}");
        }
    }

    #[test]
    fn accept_faults_force_reconnects_but_not_divergence() {
        let msgs = envelopes(6, 1);
        let want = VirtualTransport.carry(1, 0.0, &msgs);
        let got = SocketTransport::in_process(3)
            .with_accept_faults(4)
            .with_ack_timeout(Duration::from_millis(300))
            .carry(1, 0.0, &msgs);
        assert_eq!(got, want, "reconnects must not change the delivered set");
    }

    #[test]
    fn exhausted_retries_surface_as_drops_not_hangs() {
        let msgs = envelopes(3, 0);
        // More accept faults than total attempts: nothing ever connects.
        let got = SocketTransport::in_process(2)
            .with_ack_timeout(Duration::from_millis(100))
            .with_accept_faults(u32::MAX)
            .carry(0, 0.0, &msgs);
        assert!(got.deliveries.is_empty());
        assert_eq!(got.stats.sent, 3);
        assert_eq!(got.stats.dropped, 3);
    }

    #[test]
    fn backoff_is_seeded_and_monotone_in_nominal_terms() {
        assert_eq!(
            reconnect_backoff_s(3, 7, 1),
            0.0,
            "first attempt never waits"
        );
        let a2 = reconnect_backoff_s(3, 7, 2);
        let b2 = reconnect_backoff_s(3, 7, 2);
        assert_eq!(
            a2, b2,
            "same (round, client, attempt) draws the same jitter"
        );
        // Nominal 0.01 · 2^(attempt − 2) s, jittered by at most ±20%.
        for attempt in 2..=4 {
            let nominal = 0.01 * 2f64.powi(attempt as i32 - 2);
            let got = reconnect_backoff_s(3, 7, attempt);
            assert!(
                (got - nominal).abs() <= 0.2 * nominal + 1e-15,
                "{attempt}: {got}"
            );
        }
        // Jitter is bounded, so attempt 4's sleep dominates attempt 2's.
        assert!(reconnect_backoff_s(3, 7, 4) > a2);
        assert_ne!(
            reconnect_backoff_s(3, 7, 2),
            reconnect_backoff_s(3, 8, 2),
            "different clients draw different jitter"
        );
    }

    #[test]
    fn empty_round_is_a_no_op() {
        let got = SocketTransport::in_process(4).carry(0, 0.0, &[]);
        assert_eq!(got, Carried::default());
    }

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn args_round_trip() {
        let (addr, envelope, timeout) = parse_client_args(&s(&[
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
        assert_eq!(addr, "127.0.0.1:9001".parse().unwrap());
        assert_eq!(
            envelope,
            Envelope {
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
        // The spawner formats t_send with enough digits that the value the
        // child parses is bit-identical — virtual timestamps must not
        // drift through the exec boundary.
        let t = 123.456_789_012_345_67_f64;
        let formatted = format!("{t:.17e}");
        let parsed: f64 = formatted.parse().unwrap();
        assert_eq!(parsed.to_bits(), t.to_bits());
    }

    #[test]
    fn labels_name_the_mode() {
        assert_eq!(SocketTransport::in_process(4).label(), "socket(4 lanes)");
        assert_eq!(
            SocketTransport::spawned("/bin/true").label(),
            "socket(spawn)"
        );
    }
}

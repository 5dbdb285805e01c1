//! [`SocketTransport`]: the [`Transport`] contract carried over real
//! localhost TCP.
//!
//! Where [`crate::transport::VirtualTransport`] hands each delivery back
//! at its send time, this carrier pushes it through actual sockets using
//! the length-prefixed, checksummed frame codec in [`bofl_fleet::wire`].
//! Each `carry` call binds an ephemeral coordinator listener on
//! `127.0.0.1`, shards the round's envelopes round-robin across client
//! lanes (threads, or spawned `socket_client` OS processes in
//! [`SocketTransport::spawned`] mode), and every lane speaks the Data/Ack
//! protocol:
//!
//! - a lane writes one `Data` frame per envelope and waits for the
//!   coordinator's matching `Ack` within [`SocketTransport::with_ack_timeout`];
//! - a missing ack, write error, or EOF tears the connection down and the
//!   lane retries under a bounded, *seeded* `ReconnectPolicy` —
//!   exponential backoff whose jitter is drawn from
//!   `stream_seed(seed, round, client, salt + attempt)`, never the wall
//!   clock, so two runs retry on the same schedule;
//! - before reusing a pooled connection a lane can probe it with a
//!   `Ping`/`Pong` heartbeat (on by default), which is what detects the
//!   half-open connections a silently dropped peer leaves behind;
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
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bofl_fleet::fault::stream_seed;
use bofl_fleet::process::{ClientSpec, ProcessClientHarness};
use bofl_fleet::wire::{encode_frame, Frame, FrameReader, WireMsg};

use crate::transport::{sort_deliveries, Carried, Delivery, Envelope, Transport, WireStats};

/// Stream salt for reconnect backoff jitter (attempt index is added on
/// top, so every attempt draws from its own stream).
const RECONNECT_SALT: u64 = 0x50CE_7B0F_F000_0001;
/// Stream salt for heartbeat nonces.
const HEARTBEAT_SALT: u64 = 0x50CE_7B0F_F000_0002;

/// Hard cap on any single backoff sleep, so exhausting retries in a test
/// stays fast regardless of the policy's curve.
const MAX_BACKOFF_SLEEP: Duration = Duration::from_millis(250);

/// Bounded, seeded exponential backoff for reconnect attempts.
///
/// `backoff_s` is a pure function of `(seed, round, client, attempt)` —
/// the schedule is reproducible and independent of thread scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ReconnectPolicy {
    /// Total send attempts per message (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt, in seconds.
    pub base_s: f64,
    /// Multiplier applied per further attempt.
    pub factor: f64,
    /// Jitter fraction in `[0, 1)`: each sleep is scaled by a seeded
    /// draw from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter streams.
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 4,
            base_s: 0.01,
            factor: 2.0,
            jitter: 0.2,
            seed: 0xB0F1,
        }
    }
}

impl ReconnectPolicy {
    /// The backoff slept *before* `attempt` (attempts count from 1; the
    /// first attempt never waits).
    pub(crate) fn backoff_s(&self, round: usize, client: usize, attempt: u32) -> f64 {
        if attempt <= 1 {
            return 0.0;
        }
        let nominal = self.base_s * self.factor.powi(attempt as i32 - 2);
        let mut rng = StdRng::seed_from_u64(stream_seed(
            self.seed,
            round,
            client,
            RECONNECT_SALT + attempt as u64,
        ));
        let scale = 1.0 + self.jitter * (2.0 * rng.gen::<f64>() - 1.0);
        nominal * scale
    }
}

/// How client lanes are realized.
#[derive(Debug, Clone)]
enum SocketMode {
    /// Lanes are threads in this process (fast, the default).
    InProcess,
    /// One spawned OS process per envelope, running the `socket_client`
    /// binary at this path.
    Spawn(PathBuf),
}

/// A [`Transport`] that carries each round's updates over real localhost
/// TCP sockets. See the module docs for the protocol and determinism
/// argument.
#[derive(Debug, Clone)]
pub struct SocketTransport {
    lanes: usize,
    mode: SocketMode,
    reconnect: ReconnectPolicy,
    ack_timeout: Duration,
    heartbeat: bool,
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
            reconnect: ReconnectPolicy::default(),
            ack_timeout: Duration::from_secs(2),
            heartbeat: true,
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
            reconnect: ReconnectPolicy::default(),
            ack_timeout: Duration::from_secs(2),
            heartbeat: false,
            accept_faults: 0,
            label: "socket(spawn)".to_string(),
        }
    }

    /// How long a lane waits for the coordinator's ack before tearing the
    /// connection down and retrying.
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

/// Wait until `want(frame)` matches, the deadline passes, or the
/// connection errors. Non-matching frames are discarded (stale acks from
/// a previous retry, say).
fn await_frame(conn: &mut Conn, timeout: Duration, want: impl Fn(&Frame) -> bool) -> bool {
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

/// Probe a pooled connection: a dead or half-open peer fails to echo the
/// nonce and the lane reconnects instead of writing into a black hole.
fn ping_pong(conn: &mut Conn, nonce: u64, timeout: Duration) -> bool {
    if conn
        .stream
        .write_all(&encode_frame(&Frame::Ping(nonce)))
        .is_err()
    {
        return false;
    }
    await_frame(
        conn,
        timeout,
        |f| matches!(f, Frame::Pong(n) if *n == nonce),
    )
}

/// Send one Data frame and wait for its matching Ack.
fn send_and_await_ack(conn: &mut Conn, msg: WireMsg, timeout: Duration) -> bool {
    if conn
        .stream
        .write_all(&encode_frame(&Frame::Data(msg)))
        .is_err()
    {
        return false;
    }
    await_frame(conn, timeout, |f| {
        matches!(f, Frame::Ack(a)
            if a.round == msg.round && a.client == msg.client && a.copy == msg.copy)
    })
}

/// The body of one in-process client lane: deliver every envelope in the
/// shard, reconnecting under the policy. Returns how many envelopes were
/// acked.
fn lane_main(
    addr: SocketAddr,
    shard: &[Envelope],
    reconnect: ReconnectPolicy,
    ack_timeout: Duration,
    heartbeat: bool,
) -> usize {
    let mut conn: Option<Conn> = None;
    let mut acked = 0usize;
    for env in shard {
        let msg = WireMsg {
            round: env.round as u32,
            client: env.client_id as u32,
            copy: 0,
            t_send_s: env.t_send_s,
        };
        for attempt in 1..=reconnect.max_attempts.max(1) {
            let backoff = reconnect.backoff_s(env.round, env.client_id, attempt);
            if backoff > 0.0 {
                thread::sleep(Duration::from_secs_f64(backoff).min(MAX_BACKOFF_SLEEP));
            }
            let pooled = conn.is_some();
            if conn.is_none() {
                conn = connect(addr);
            }
            let Some(c) = conn.as_mut() else { continue };
            if pooled && heartbeat {
                let nonce = stream_seed(reconnect.seed, env.round, env.client_id, HEARTBEAT_SALT);
                if !ping_pong(c, nonce, ack_timeout) {
                    conn = None;
                    continue;
                }
            }
            if send_and_await_ack(c, msg, ack_timeout) {
                acked += 1;
                break;
            }
            conn = None;
        }
    }
    acked
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
        let reconnect = self.reconnect;
        let ack_timeout = self.ack_timeout;
        let heartbeat = self.heartbeat;
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
                            s.spawn(move || {
                                lane_main(addr, &shard, reconnect, ack_timeout, heartbeat)
                            })
                        })
                        .collect();
                    for h in handles {
                        let _ = h.join();
                    }
                }
                SocketMode::Spawn(exe) => {
                    let mut harness = ProcessClientHarness::new(exe.clone(), addr.to_string());
                    for env in messages {
                        let _ = harness.spawn(ClientSpec {
                            client_id: env.client_id,
                            round: env.round,
                            t_send_s: env.t_send_s,
                        });
                    }
                    let _ = harness.wait_all();
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
        let mut transport = SocketTransport::in_process(2);
        transport.reconnect = ReconnectPolicy {
            max_attempts: 2,
            base_s: 0.001,
            ..ReconnectPolicy::default()
        };
        let got = transport
            .with_ack_timeout(Duration::from_millis(100))
            .with_accept_faults(u32::MAX)
            .carry(0, 0.0, &msgs);
        assert!(got.deliveries.is_empty());
        assert_eq!(got.stats.sent, 3);
        assert_eq!(got.stats.dropped, 3);
    }

    #[test]
    fn backoff_is_seeded_and_monotone_in_nominal_terms() {
        let p = ReconnectPolicy::default();
        assert_eq!(p.backoff_s(3, 7, 1), 0.0, "first attempt never waits");
        let a2 = p.backoff_s(3, 7, 2);
        let b2 = p.backoff_s(3, 7, 2);
        assert_eq!(
            a2, b2,
            "same (round, client, attempt) draws the same jitter"
        );
        assert!(a2 > 0.0);
        // Jitter is bounded, so attempt 4's sleep dominates attempt 2's.
        assert!(p.backoff_s(3, 7, 4) > a2);
        assert_ne!(
            p.backoff_s(3, 7, 2),
            p.backoff_s(3, 8, 2),
            "different clients draw different jitter"
        );
    }

    #[test]
    fn empty_round_is_a_no_op() {
        let got = SocketTransport::in_process(4).carry(0, 0.0, &[]);
        assert_eq!(got, Carried::default());
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

//! `socket_client` — one client lane of the socket transport, as a real
//! OS process.
//!
//! Runs `bofl_control::socket::run_lane`, the code every thread lane
//! runs, for one envelope: it connects to the coordinator, sends one Data
//! frame for `(round, client)` at the given virtual send time and waits
//! for the matching Ack, reconnecting under the lanes' seeded backoff
//! when the connection drops. Spawned by `SocketTransport::spawned` (one
//! process per envelope) and by the process-mode acceptance tests.
//!
//! ```text
//! socket_client --addr 127.0.0.1:9001 --client 7 --round 3 \
//!     --t-send 1.2345e1 [--ack-timeout-ms 2000]
//! ```
//!
//! Exit codes: 0 = acked, 1 = no ack after every attempt, 2 = bad usage.

use bofl_control::socket::{parse_client_args, run_lane};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, envelope, ack_timeout) = match parse_client_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("socket_client: {e}");
            eprintln!(
                "usage: socket_client --addr HOST:PORT --client N --round R \
                 --t-send SECONDS [--ack-timeout-ms MILLIS]"
            );
            std::process::exit(2);
        }
    };
    if run_lane(addr, &[envelope], ack_timeout) != 1 {
        eprintln!(
            "socket_client: no ack for client {} of round {} at {addr}",
            envelope.client_id, envelope.round
        );
        std::process::exit(1);
    }
}

//! Timing decorators over the program's public seams.
//!
//! Every probe wraps one trait object the program already lets a caller
//! plug in — `PaceController`, `JobExecutor`, `Transport`, `Compressor`,
//! `ClientSampler` — and forwards each call unchanged, so a traced run
//! makes the same decisions as an untraced one. Spans are summed into a
//! shared [`Probe`]; nothing is written until the run ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use bofl::task::{ControllerRoundStats, PaceController};
use bofl::{JobExecutor, Phase, RoundSpec};
use bofl_control::{Carried, Envelope, Transport};
use bofl_device::{ConfigSpace, DvfsConfig, JobCost};
use bofl_fleet::compress::{CompressedUpdate, Compressor};
use bofl_fleet::sampler::{ClientSampler, ClientStat};

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One summed span: busy nanoseconds and the number of calls.
#[derive(Debug, Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    fn add(&self, ns: u64, calls: u64) {
        // Relaxed: plain statistics, read only after the worker threads
        // that update them have been joined.
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(calls, Ordering::Relaxed);
    }

    /// Busy time, milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Calls (or items) recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Per-layer totals of one episode.
#[derive(Debug, Default)]
pub struct Probe {
    /// BoFL self time in Pareto-construction rounds (the MBO update).
    pub mobo: Span,
    /// Controller self time in exploitation rounds (BoFL's phase-3 ILP
    /// plan).
    pub ilp: Span,
    /// BoFL self time in phase-1 (safe random exploration) rounds.
    pub explore: Span,
    /// `JobExecutor::run_job`: device model, plus the SGD step in the
    /// federated workloads.
    pub jobs: Span,
    /// `Transport::carry`; calls counts envelopes carried.
    pub carry: Span,
    /// `ClientSampler::sample`.
    pub sample: Span,
    /// `Compressor::compress`.
    pub compress: Span,
    /// Client busy time per worker thread in the current round.
    busy: Mutex<HashMap<ThreadId, u64>>,
}

impl Probe {
    /// A fresh, shared probe.
    pub fn shared() -> Arc<Probe> {
        Arc::new(Probe::default())
    }

    fn record_round(&self, phase: Option<Phase>, total_ns: u64, job_ns: u64, jobs: u64) {
        let own = total_ns.saturating_sub(job_ns);
        match phase {
            Some(Phase::ParetoConstruction) => self.mobo.add(own, 1),
            Some(Phase::Exploitation) => self.ilp.add(own, 1),
            Some(Phase::RandomExploration) => self.explore.add(own, 1),
            // Phase-less baselines (Performant) plan nothing.
            None => {}
        }
        self.jobs.add(job_ns, jobs);
        *self
            .busy
            .lock()
            .expect("busy map poisoned")
            .entry(std::thread::current().id())
            .or_default() += total_ns;
    }

    /// Ends a round: returns `(Σ client busy, largest per-thread busy)`
    /// in milliseconds and clears the per-thread tallies.
    pub fn take_round_busy(&self) -> (f64, f64) {
        let mut busy = self.busy.lock().expect("busy map poisoned");
        let sum = busy.values().sum::<u64>() as f64 / 1e6;
        let max = busy.values().copied().max().unwrap_or(0) as f64 / 1e6;
        busy.clear();
        (sum, max)
    }
}

/// Each controller round's `(phase, wall ms)`, in order.
pub type RoundLog = Arc<Mutex<Vec<(Option<Phase>, f64)>>>;

/// A `PaceController` decorator. It times each `run_round` call into
/// `rounds`, when given; traced (`probe: Some`) it also wraps the
/// executor, so the controller's self time and the job time are told
/// apart.
pub struct TimedController {
    inner: Box<dyn PaceController>,
    probe: Option<Arc<Probe>>,
    rounds: Option<RoundLog>,
}

impl TimedController {
    /// Wraps `inner`; each round's `(phase, wall ms)` lands in `rounds`.
    pub fn new(
        inner: Box<dyn PaceController>,
        probe: Option<Arc<Probe>>,
        rounds: Option<RoundLog>,
    ) -> Self {
        TimedController {
            inner,
            probe,
            rounds,
        }
    }
}

impl PaceController for TimedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run_round(&mut self, spec: &RoundSpec, exec: &mut dyn JobExecutor) -> ControllerRoundStats {
        let start = Instant::now();
        let stats = match &self.probe {
            None => self.inner.run_round(spec, exec),
            Some(probe) => {
                let mut timed = TimedExecutor {
                    inner: exec,
                    ns: 0,
                    jobs: 0,
                };
                let stats = self.inner.run_round(spec, &mut timed);
                probe.record_round(stats.phase, ns_since(start), timed.ns, timed.jobs);
                stats
            }
        };
        if let Some(rounds) = &self.rounds {
            let ms = start.elapsed().as_secs_f64() * 1e3;
            rounds
                .lock()
                .expect("round log poisoned")
                .push((stats.phase, ms));
        }
        stats
    }
}

/// A `JobExecutor` decorator summing the time spent in `run_job`.
struct TimedExecutor<'a> {
    inner: &'a mut dyn JobExecutor,
    ns: u64,
    jobs: u64,
}

impl JobExecutor for TimedExecutor<'_> {
    fn config_space(&self) -> &ConfigSpace {
        self.inner.config_space()
    }

    fn run_job(&mut self, x: DvfsConfig) -> JobCost {
        let start = Instant::now();
        let cost = self.inner.run_job(x);
        self.ns += ns_since(start);
        self.jobs += 1;
        cost
    }

    fn elapsed_s(&self) -> f64 {
        self.inner.elapsed_s()
    }
}

/// A `Transport` decorator timing `carry`.
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    probe: Arc<Probe>,
}

impl TimedTransport {
    /// Wraps `inner`.
    pub fn new(inner: impl Transport + 'static, probe: Arc<Probe>) -> Self {
        TimedTransport {
            inner: Box::new(inner),
            probe,
        }
    }
}

impl Transport for TimedTransport {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn carry(&mut self, round: usize, t0_s: f64, messages: &[Envelope]) -> Carried {
        let start = Instant::now();
        let carried = self.inner.carry(round, t0_s, messages);
        self.probe.carry.add(ns_since(start), messages.len() as u64);
        carried
    }

    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(TimedTransport {
            inner: self.inner.clone_box(),
            probe: Arc::clone(&self.probe),
        })
    }
}

/// A `Compressor` decorator timing `compress`.
#[derive(Debug)]
pub struct TimedCompressor {
    inner: Box<dyn Compressor>,
    probe: Arc<Probe>,
}

impl TimedCompressor {
    /// Wraps `inner`.
    pub fn new(inner: impl Compressor + 'static, probe: Arc<Probe>) -> Self {
        TimedCompressor {
            inner: Box::new(inner),
            probe,
        }
    }
}

impl Compressor for TimedCompressor {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn compress(
        &self,
        update: &[f64],
        seed: u64,
        residual: Option<&mut Vec<f64>>,
        out: &mut CompressedUpdate,
    ) {
        let start = Instant::now();
        self.inner.compress(update, seed, residual, out);
        self.probe.compress.add(ns_since(start), 1);
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(TimedCompressor {
            inner: self.inner.clone_box(),
            probe: Arc::clone(&self.probe),
        })
    }
}

/// A `ClientSampler` decorator. Each `sample` call opens a round of the
/// scale simulation, so its start times are the round boundaries; traced,
/// it also times the call itself.
pub struct MarkingSampler {
    inner: Box<dyn ClientSampler>,
    probe: Option<Arc<Probe>>,
    marks: Arc<Mutex<Vec<Instant>>>,
}

impl MarkingSampler {
    /// Wraps `inner`; round start instants land in `marks`.
    pub fn new(
        inner: impl ClientSampler + 'static,
        probe: Option<Arc<Probe>>,
        marks: Arc<Mutex<Vec<Instant>>>,
    ) -> Self {
        MarkingSampler {
            inner: Box::new(inner),
            probe,
            marks,
        }
    }
}

impl ClientSampler for MarkingSampler {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn sample(
        &self,
        fleet: &[ClientStat],
        cohort: usize,
        round: usize,
        seed: u64,
        out: &mut Vec<u32>,
    ) {
        let start = Instant::now();
        self.marks.lock().expect("round marks poisoned").push(start);
        self.inner.sample(fleet, cohort, round, seed, out);
        if let Some(probe) = &self.probe {
            probe.sample.add(ns_since(start), 1);
        }
    }

    fn clone_box(&self) -> Box<dyn ClientSampler> {
        Box::new(MarkingSampler {
            inner: self.inner.clone_box(),
            probe: self.probe.clone(),
            marks: Arc::clone(&self.marks),
        })
    }
}

//! The live run: set-up, then the scripted phases driven from one
//! pacer/publisher thread against the real engine, with one consumer
//! thread draining the delivery tap.

use crate::host;
use crate::inputs::Inputs;
use crate::plan::{PhaseKind, Scheme, HI_RATE, HI_WINDOW, LO_RATE, LO_WINDOW};
use crate::trace::{Clock, SpanLog, ROOT};
use crate::tracker::{TapResult, Tracker};
use move_core::{Dissemination, IlScheme, MoveScheme, RsScheme};
use move_runtime::{Engine, NodeMetrics, RuntimeConfig, RuntimeReport};
use move_types::{Document, NodeId};
use move_workload::ChurnOp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `in_flight` spans written per traced segment.
const IN_FLIGHT_SPANS: u64 = 2_000;

/// Where the scheme-building part of a set-up spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// Construct + register every filter, seconds.
    pub register_s: f64,
    /// MOVE `observe_corpus`, ms (0 for the other schemes).
    pub observe_ms: f64,
    /// MOVE `allocate`, ms (0 for the other schemes).
    pub allocate_ms: f64,
}

/// Builds the workload's scheme the way a deployment would before serving:
/// register every filter; MOVE also learns from the corpus sample and
/// allocates proactively.
pub fn build_scheme(inputs: &Inputs) -> (Box<dyn Dissemination + Send>, BuildTimes) {
    let mut times = BuildTimes::default();
    let start = Instant::now();
    let config = inputs.system.clone();
    let mut register = |scheme: &mut dyn Dissemination| {
        for f in &inputs.filters {
            scheme.register(f).expect("registration within capacity");
        }
        times.register_s = start.elapsed().as_secs_f64();
    };
    const VALID: &str = "paper_system is a valid configuration";
    let scheme: Box<dyn Dissemination + Send> = match inputs.spec.scheme {
        Scheme::Move => {
            let mut m = MoveScheme::new(config).expect(VALID);
            register(&mut m);
            let t = Instant::now();
            m.observe_corpus(&inputs.sample);
            times.observe_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            m.allocate()
                .expect("allocation fits the configured capacity");
            times.allocate_ms = t.elapsed().as_secs_f64() * 1e3;
            Box::new(m)
        }
        Scheme::Il => {
            let mut s = IlScheme::new(config).expect(VALID);
            register(&mut s);
            Box::new(s)
        }
        Scheme::Rs => {
            let mut s = RsScheme::new(config).expect(VALID);
            register(&mut s);
            Box::new(s)
        }
    };
    (scheme, times)
}

/// Posting bytes over every node index, and aggregation-layer bytes.
pub fn storage_bytes(scheme: &dyn Dissemination) -> (u64, u64) {
    let posting: usize = (0..scheme.cluster().len())
        .map(|n| scheme.node_index(NodeId(n as u32)).estimated_bytes())
        .sum();
    (posting as u64, scheme.aggregation_bytes())
}

/// What the pacer logged for each item it sent.
#[derive(Debug, Default)]
pub struct PaceLog {
    /// When each item was due, ns since the clock's epoch.
    pub intended_ns: Vec<u64>,
    /// How late the pacer sent it.
    pub lag_ns: Vec<u64>,
}

/// Open-loop pacer: item `k` is due at `k / rate` seconds after the first.
/// The pacer sleeps to each due time (it shares the cores with the system
/// under test, so it never spins), never slows down for a slow sink, and
/// logs the *intended* send time — latency taken from it includes the
/// wait a stall imposes on the items queued behind it.
pub fn pace<T>(items: Vec<T>, rate: f64, clock: &Clock, mut send: impl FnMut(usize, T)) -> PaceLog {
    let n = items.len();
    let mut log = PaceLog {
        intended_ns: Vec::with_capacity(n),
        lag_ns: Vec::with_capacity(n),
    };
    let first = clock.now_ns();
    for (k, item) in items.into_iter().enumerate() {
        let due = first + (k as f64 * 1e9 / rate) as u64;
        let mut now = clock.now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
            now = clock.now_ns();
        }
        log.intended_ns.push(due);
        log.lag_ns.push(now.saturating_sub(due));
        send(k, item);
    }
    log
}

/// One saturated segment.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Whether spans were recorded while publishing.
    pub traced: bool,
    /// Documents published.
    pub docs: u64,
    /// Publish of the first document to the return of the final barrier.
    pub start_ns: u64,
    /// End of the final barrier.
    pub end_ns: u64,
    /// Worker mailbox messages handled during the segment.
    pub messages: u64,
    /// Process CPU time spent during the segment, µs.
    pub cpu_us: f64,
}

impl Segment {
    /// Documents per second, barrier included.
    pub fn rate(&self) -> f64 {
        self.docs as f64 * 1e9 / (self.end_ns - self.start_ns) as f64
    }
}

/// One open-loop latency phase.
#[derive(Debug, Default)]
pub struct Paced {
    /// Stream index of the phase's first document.
    pub start_idx: u64,
    /// The pacer's log.
    pub log: PaceLog,
    /// Time spent inside each `Engine::publish` call, ns.
    pub call_ns: Vec<u64>,
    /// Worker mailbox messages handled during the phase.
    pub messages: u64,
    /// Process CPU time spent during the phase, µs.
    pub cpu_us: f64,
    /// Mean documents in flight over the phase's second quarter.
    pub in_flight_mid: f64,
    /// Mean documents in flight over the phase's last quarter.
    pub in_flight_end: f64,
}

/// Everything the live run measured.
#[derive(Debug)]
pub struct LiveResult {
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// `Engine::start` plus first `flush()` of each set-up, ms.
    pub engine_start_ms: Vec<f64>,
    /// Scheme-building breakdown of the last set-up.
    pub build: BuildTimes,
    /// Posting bytes over all node indexes after set-up.
    pub posting_bytes: u64,
    /// Aggregation-layer bytes after set-up.
    pub aggregation_bytes: u64,
    /// Resident memory of the load generator before the first set-up, MB.
    pub own_rss_mb: f64,
    /// Saturated segments in order.
    pub segments: Vec<Segment>,
    /// Low-load latency phase.
    pub lo: Paced,
    /// High-load latency phase.
    pub hi: Paced,
    /// `(operations, wall ns)` of each control segment.
    pub control: Vec<(u64, u64)>,
    /// Idle `Engine::stats()` barrier times, µs.
    pub stats_barrier_us: Vec<f64>,
    /// Calibration-kernel times between phases, ms.
    pub cal_ms: Vec<f64>,
    /// The engine's shutdown report.
    pub report: RuntimeReport,
    /// The tap consumer's books.
    pub tap: TapResult,
    /// Intended (paced) or actual (traced saturated) send time per
    /// document, ns; 0 where not recorded.
    pub sent_ns: Vec<u64>,
    /// Whether the tap caught up after every phase within the time-out.
    pub tap_caught_up: bool,
    /// Peak resident memory at shutdown, MB.
    pub peak_rss_mb: f64,
}

struct Driver<'a> {
    engine: &'a Engine,
    inputs: &'a Inputs,
    clock: Clock,
    completed: Arc<AtomicU64>,
    /// Published documents the oracle expects deliveries for.
    awaited: u64,
    sent_ns: Vec<u64>,
    messages_seen: u64,
    caught_up: bool,
}

impl Driver<'_> {
    fn apply(&self, ops: &[ChurnOp]) {
        for op in ops {
            match op {
                ChurnOp::Register(f) => self.engine.register(f.clone()),
                ChurnOp::Unregister(id) => self.engine.unregister(*id),
            }
        }
    }

    /// Books one published document and runs the churn tick due after it.
    fn after_publish(&mut self, idx: u64) {
        if self.inputs.expect.count[idx as usize] > 0 {
            self.awaited += 1;
        }
        self.apply(self.inputs.ops_after(idx));
    }

    fn in_flight(&self) -> u64 {
        self.awaited
            .saturating_sub(self.completed.load(Ordering::Acquire))
    }

    /// The barrier that ends a phase; returns the mailbox messages the
    /// workers handled since the previous barrier.
    fn barrier(&mut self) -> u64 {
        let stats: Vec<NodeMetrics> = self.engine.stats();
        let total: u64 = stats.iter().map(|n| n.messages_processed).sum();
        // The barrier's own StatsReport is one message per worker.
        let delta = (total - self.messages_seen).saturating_sub(stats.len() as u64);
        self.messages_seen = total;
        delta
    }

    /// Untimed: waits until the consumer has processed everything the
    /// barrier guaranteed was sent to the tap.
    fn drain_tap(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.completed.load(Ordering::Acquire) < self.awaited {
            if Instant::now() > deadline {
                self.caught_up = false;
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn closed_loop(&mut self, docs: Vec<Document>, first_idx: u64, spans: Option<&mut SpanLog>) {
        match spans {
            Some(spans) => {
                for (k, doc) in docs.into_iter().enumerate() {
                    let idx = first_idx + k as u64;
                    let start = self.clock.now_ns();
                    self.engine.publish(doc);
                    let end = self.clock.now_ns();
                    self.sent_ns[idx as usize] = start;
                    spans.push("loadgen.publish_call", start, end, ROOT, idx);
                    self.after_publish(idx);
                }
            }
            None => {
                for (k, doc) in docs.into_iter().enumerate() {
                    self.engine.publish(doc);
                    self.after_publish(first_idx + k as u64);
                }
            }
        }
    }

    fn paced(&mut self, docs: Vec<Document>, first_idx: u64, rate: f64) -> Paced {
        let n = docs.len();
        let cpu0 = host::cpu_us();
        let clock = self.clock;
        let mut call_ns = Vec::with_capacity(n);
        let mut in_flight = Vec::with_capacity(n);
        let log = pace(docs, rate, &clock, |k, doc| {
            let start = clock.now_ns();
            self.engine.publish(doc);
            call_ns.push(clock.now_ns() - start);
            self.after_publish(first_idx + k as u64);
            in_flight.push(self.in_flight());
        });
        let messages = self.barrier();
        let cpu_us = host::cpu_us() - cpu0;
        self.drain_tap();
        for (k, &due) in log.intended_ns.iter().enumerate() {
            self.sent_ns[first_idx as usize + k] = due;
        }
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64;
        Paced {
            start_idx: first_idx,
            in_flight_mid: mean(&in_flight[n / 4..n / 2]),
            in_flight_end: mean(&in_flight[n - n / 4..]),
            log,
            call_ns,
            messages,
            cpu_us,
        }
    }
}

/// Runs the whole script against a fresh engine. `spans` is the span log
/// of a traced run (`None` for the measured run).
///
/// # Errors
///
/// Returns the engine's error text when it cannot start or aborts.
pub fn run(inputs: &Inputs, mut spans: Option<&mut SpanLog>) -> Result<LiveResult, String> {
    let own_rss_mb = host::rss_mb();
    let setups = if spans.is_some() {
        1
    } else {
        inputs.spec.setups
    };
    let mut setup_s = Vec::with_capacity(setups);
    let mut engine_start_ms = Vec::with_capacity(setups);
    let mut last = None;
    for i in 0..setups {
        let start = Instant::now();
        let (scheme, build) = build_scheme(inputs);
        let built = start.elapsed();
        // Reading the byte counts is the benchmark's work, not set-up.
        let bytes = storage_bytes(scheme.as_ref());
        let start = Instant::now();
        let engine = Engine::start(scheme, RuntimeConfig::default()).map_err(|e| e.to_string())?;
        engine.flush();
        let started = start.elapsed();
        setup_s.push((built + started).as_secs_f64());
        engine_start_ms.push(started.as_secs_f64() * 1e3);
        if i + 1 < setups {
            engine.shutdown().map_err(|e| e.to_string())?;
        } else {
            last = Some((engine, build, bytes));
        }
    }
    let (engine, build, (posting_bytes, aggregation_bytes)) =
        last.expect("at least one set-up ran");

    let clock = Clock::start();
    let completed = Arc::new(AtomicU64::new(0));
    let tap = {
        let rx = engine.deliveries();
        let mut tracker = Tracker::new(Arc::clone(&inputs.expect), Arc::clone(&completed));
        std::thread::Builder::new()
            .name("bench-tap".into())
            .spawn(move || {
                for d in rx.iter() {
                    tracker.on_delivery(d.doc.0, &d.matched, clock.now_ns());
                }
                tracker.finish()
            })
            .map_err(|e| format!("spawn tap consumer: {e}"))?
    };

    let mut driver = Driver {
        engine: &engine,
        inputs,
        clock,
        completed,
        awaited: 0,
        sent_ns: vec![0; inputs.expect.count.len()],
        messages_seen: 0,
        caught_up: true,
    };
    driver.barrier();
    let mut segments = Vec::new();
    let mut lo = Paced::default();
    let mut hi = Paced::default();
    let mut cal_ms = Vec::new();
    for phase in &inputs.plan.phases {
        let docs = inputs.phase_docs(phase);
        cal_ms.push(host::calibrate_ms());
        match phase.kind {
            PhaseKind::WarmUp | PhaseKind::Filler => {
                driver.closed_loop(docs, phase.start, None);
                driver.barrier();
                driver.drain_tap();
            }
            PhaseKind::Saturated { traced } => {
                let cpu0 = host::cpu_us();
                let start_ns = clock.now_ns();
                let log = if traced { spans.as_deref_mut() } else { None };
                let traced = log.is_some();
                driver.closed_loop(docs, phase.start, log);
                let messages = driver.barrier();
                let end_ns = clock.now_ns();
                segments.push(Segment {
                    traced,
                    docs: phase.docs,
                    start_ns,
                    end_ns,
                    messages,
                    cpu_us: host::cpu_us() - cpu0,
                });
                driver.drain_tap();
            }
            PhaseKind::PacedLo => lo = driver.paced(docs, phase.start, LO_RATE),
            PhaseKind::PacedHi => hi = driver.paced(docs, phase.start, HI_RATE),
        }
    }

    let mut control = Vec::with_capacity(inputs.control.len());
    for seg in &inputs.control {
        cal_ms.push(host::calibrate_ms());
        let start = clock.now_ns();
        driver.apply(&seg.ops);
        driver.barrier();
        control.push((seg.ops.len() as u64, clock.now_ns() - start));
        for probe in &seg.probes {
            let idx = probe.id().0;
            driver.engine.publish(probe.clone());
            driver.after_publish(idx);
        }
        driver.barrier();
        driver.drain_tap();
    }

    let mut stats_barrier_us = Vec::with_capacity(5);
    for i in 0..5u64 {
        let start = clock.now_ns();
        driver.barrier();
        let end = clock.now_ns();
        stats_barrier_us.push((end - start) as f64 / 1e3);
        if let Some(spans) = spans.as_deref_mut() {
            spans.push("runtime.stats_barrier", start, end, ROOT, i);
        }
    }

    let Driver {
        sent_ns, caught_up, ..
    } = driver;
    let report = engine.shutdown().map_err(|e| e.to_string())?;
    let tap = tap
        .join()
        .map_err(|_| "tap consumer panicked".to_string())?;
    let peak_rss_mb = host::peak_rss_mb();

    if let Some(spans) = spans {
        for (seg, phase) in segments
            .iter()
            .zip(inputs.plan.of(|k| matches!(k, PhaseKind::Saturated { .. })))
        {
            if !seg.traced {
                continue;
            }
            for idx in phase.start..phase.start + phase.docs.min(IN_FLIGHT_SPANS) {
                let (sent, done) = (sent_ns[idx as usize], tap.done_ns[idx as usize]);
                if sent != 0 && done >= sent {
                    spans.push("runtime.in_flight", sent, done, ROOT, idx);
                }
            }
        }
    }

    Ok(LiveResult {
        setup_s,
        engine_start_ms,
        build,
        posting_bytes,
        aggregation_bytes,
        own_rss_mb,
        segments,
        lo,
        hi,
        control,
        stats_barrier_us,
        cal_ms,
        report,
        tap,
        sent_ns,
        tap_caught_up: caught_up,
        peak_rss_mb,
    })
}

impl LiveResult {
    /// Latency samples (completing arrival − intended send, ns) of a paced
    /// phase, one vector per window of `window` documents; documents the
    /// oracle expects nothing for have no sample.
    pub fn latency_windows(&self, phase: &Paced, window: u64, inputs: &Inputs) -> Vec<Vec<u64>> {
        let docs = phase.log.intended_ns.len() as u64;
        let mut windows: Vec<Vec<u64>> = (0..docs.div_ceil(window.max(1)))
            .map(|_| Vec::with_capacity(window as usize))
            .collect();
        for k in 0..docs {
            let idx = (phase.start_idx + k) as usize;
            let (due, done) = (self.sent_ns[idx], self.tap.done_ns[idx]);
            if inputs.expect.count[idx] > 0 && done != 0 {
                windows[(k / window) as usize].push(done.saturating_sub(due));
            }
        }
        windows
    }

    /// Windows of the low-load phase.
    pub fn lo_windows(&self, inputs: &Inputs) -> Vec<Vec<u64>> {
        self.latency_windows(&self.lo, LO_WINDOW, inputs)
    }

    /// Windows of the high-load phase.
    pub fn hi_windows(&self, inputs: &Inputs) -> Vec<Vec<u64>> {
        self.latency_windows(&self.hi, HI_WINDOW, inputs)
    }

    /// Longest gap between consecutive tap arrivals inside each saturated
    /// segment, ms.
    pub fn segment_stalls_ms(&self) -> Vec<f64> {
        self.segments
            .iter()
            .map(|s| {
                self.tap
                    .gaps
                    .iter()
                    .filter(|(at, len)| *at >= s.start_ns && at + len <= s.end_ns)
                    .map(|(_, len)| *len)
                    .max()
                    .unwrap_or(0) as f64
                    / 1e6
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_times_from_the_intended_send_and_reports_its_lag() {
        // 2 000 items/s; the sink stalls 20 ms on item 5. A sink that
        // completes at once has zero latency measured from the *actual*
        // send, but the items queued behind the stall were due long
        // before they were sent: coordinated omission must stay visible.
        let clock = Clock::start();
        let mut completed_ns = Vec::new();
        let log = pace((0..40).collect::<Vec<u32>>(), 2_000.0, &clock, |k, _| {
            if k == 5 {
                std::thread::sleep(Duration::from_millis(20));
            }
            completed_ns.push(clock.now_ns());
        });
        assert_eq!(log.intended_ns.len(), 40);
        // The schedule never slowed down: due times stay 0.5 ms apart.
        for w in log.intended_ns.windows(2) {
            assert_eq!(w[1] - w[0], 500_000);
        }
        let latency: Vec<u64> = completed_ns
            .iter()
            .zip(&log.intended_ns)
            .map(|(done, due)| done - due)
            .collect();
        assert!(latency[5] >= 20_000_000, "the stalled item itself");
        assert!(
            latency[6] >= 15_000_000 && latency[10] >= 10_000_000,
            "items behind the stall carry the wait: {:?}",
            &latency[5..12]
        );
        assert!(
            log.lag_ns[6] >= 15_000_000,
            "and the pacer reports it as lag"
        );
        assert!(log.lag_ns.iter().any(|&l| l > 0));
        // Once the backlog is sent the pacer is on schedule again.
        assert!(*log.lag_ns.last().unwrap() < 5_000_000);
    }
}

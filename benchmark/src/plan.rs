//! The four workloads and the run plan.
//!
//! Every size below is a document or operation count from a fixed table,
//! scaled by `--seconds`, never taken from measured speed: two runs with
//! the same arguments publish the same documents in the same phases, so
//! their counts repeat exactly and their timings are comparable.
//!
//! `R` is the scheme configuration's `refresh_every_docs`. `MoveScheme`
//! re-allocates every `R` published documents and that refresh stalls the
//! live pipeline, so every timed phase starts on a multiple of `R`:
//! a saturated segment is a whole number of `R` (it pays exactly that
//! many refreshes, each triggered by a period's last document) and a
//! latency phase is shorter than `R` (no window contains a refresh).

/// Scale factor of the paper's deployment the benchmark runs at: 10 000
/// filters instead of 10⁶. Chosen so that one run (set-up three times,
/// warm-up, every phase) fits the driver's ~30 s per-run budget.
pub const SCALE: f64 = 0.01;
/// Cluster nodes (the paper's default, not scaled).
pub const NODES: usize = 20;
/// Open-loop rate of the low-load latency phase, documents per second:
/// inter-arrival 4 ms, above the engine's 2 ms flush interval, so every
/// document travels alone and the batching floor shows.
pub const LO_RATE: f64 = 250.0;
/// Open-loop rate of the high-load latency phase (about a fifth of the
/// slowest workload's saturated rate on the reference host).
pub const HI_RATE: f64 = 2_000.0;
/// Documents per latency window, low-load phase.
pub const LO_WINDOW: u64 = 125;
/// Documents per latency window, high-load phase (10 samples beyond p99).
pub const HI_WINDOW: u64 = 1_000;
/// Control segments of a measured or traced run. Fixed, not scaled by `--seconds`:
/// every registration grows the engine's journal and copied-on-write
/// shards (2–13 KB per operation), so a count that grew with the run
/// length would make `peak_rss_mb` grow with it.
pub const CTL_SEGMENTS: u64 = 4;
/// `--seconds` value the table below is written for.
pub const REFERENCE_SECONDS: u64 = 20;

/// Which dissemination scheme a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// MOVE with proactive allocation.
    Move,
    /// Distributed inverted list.
    Il,
    /// Rendezvous flooding.
    Rs,
}

/// Which document corpus a workload publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// TREC WT10G-like: short documents.
    Wt,
    /// TREC AP-like: term-rich documents.
    Ap,
}

/// Registration churn running beside the document stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    /// Live subscribers.
    pub subscribers: u64,
    /// Distinct predicates they share.
    pub pool: usize,
    /// One churn tick (`fraction` of the subscribers) runs per this many
    /// published documents …
    pub every_docs: u64,
    /// … in bursts, one after every this many documents (divides
    /// `every_docs`).
    pub burst_docs: u64,
    /// Share of the subscribers turned over per tick.
    pub fraction: f64,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Scheme under test.
    pub scheme: Scheme,
    /// Document corpus.
    pub corpus: Corpus,
    /// Registered filters at paper scale (multiplied by [`SCALE`]).
    pub paper_filters: u64,
    /// Distinct documents in the cycle every phase replays.
    pub cycle_docs: u64,
    /// Saturated segment length in units of `R`.
    pub seg_r: u64,
    /// Registration churn beside the stream, if any.
    pub churn: Option<Churn>,
    /// Set-ups per measured run (`setup_s` is their median): more where
    /// one set-up is short.
    pub setups: usize,
    /// Unregister + register pairs per control segment, sized so a
    /// segment takes about 0.35 s on the reference host.
    pub ctl_pairs: usize,
}

/// The benchmark's workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "move_wt",
        why: "MOVE, short WT documents (paper Fig. 8): many small per-node tasks, so grid routing, batching, mailboxes and the periodic refresh do the work",
        scheme: Scheme::Move,
        corpus: Corpus::Wt,
        paper_filters: 1_000_000,
        cycle_docs: 4_000,
        seg_r: 1,
        churn: None,
        setups: 5,
        ctl_pairs: 650,
    },
    WorkloadSpec {
        name: "rs_wt",
        why: "rendezvous flooding, same filters and documents: routing is trivial and every node runs the full SIFT match, so the index does the work; a routing, Bloom or refresh change must show nothing here",
        scheme: Scheme::Rs,
        corpus: Corpus::Wt,
        paper_filters: 1_000_000,
        cycle_docs: 4_000,
        seg_r: 2,
        churn: None,
        setups: 5,
        ctl_pairs: 1_000,
    },
    WorkloadSpec {
        name: "il_ap",
        why: "inverted list, term-rich AP documents: hundreds of Bloom probes and term-home look-ups per document and fan-out to almost every node; the index does little",
        scheme: Scheme::Il,
        corpus: Corpus::Ap,
        paper_filters: 1_000_000,
        cycle_docs: 1_000,
        seg_r: 1,
        churn: None,
        setups: 7,
        ctl_pairs: 1_000,
    },
    WorkloadSpec {
        name: "move_churn",
        why: "MOVE, 20x aliased subscribers re-registering beside the stream: writes next to reads on the same layers and fan-out expansion dominates delivery, so a read-path gain that taxes registration shows here",
        scheme: Scheme::Move,
        corpus: Corpus::Wt,
        paper_filters: 1_000_000,
        cycle_docs: 4_000,
        seg_r: 1,
        churn: Some(Churn {
            subscribers: 10_000,
            pool: 500,
            every_docs: 250,
            burst_docs: 25,
            fraction: 0.01,
        }),
        setups: 15,
        ctl_pairs: 1_000,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What kind of run the plan is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The measured run: end-to-end metrics.
    Full,
    /// The traced run: shorter live phases, half of the saturated
    /// segments with spans recorded, plus the per-layer replay.
    Traced,
    /// `--smoke`: every phase, minimum sizes; numbers are never compared.
    Smoke,
}

/// What a stretch of the document stream is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Untimed: fills caches, lets the batch controller settle, and ends
    /// on the first refresh.
    WarmUp,
    /// Timed closed loop, one segment; `traced` segments record spans.
    Saturated {
        /// Whether the publisher records per-document spans.
        traced: bool,
    },
    /// Timed open loop at [`LO_RATE`].
    PacedLo,
    /// Timed open loop at [`HI_RATE`].
    PacedHi,
    /// Untimed closed loop up to the next multiple of `R`.
    Filler,
}

impl PhaseKind {
    /// Whether the phase's timings are reported.
    pub fn timed(self) -> bool {
        !matches!(self, Self::WarmUp | Self::Filler)
    }
}

/// A contiguous stretch of the document stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// What it is for.
    pub kind: PhaseKind,
    /// Stream index of its first document.
    pub start: u64,
    /// Documents in it.
    pub docs: u64,
}

/// The whole run, in counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The refresh period the plan is aligned to.
    pub r: u64,
    /// Document phases in publication order, contiguous from index 0.
    pub phases: Vec<Phase>,
    /// Control segments after the stream.
    pub ctl_segments: usize,
    /// Latency windows of the low-load phase.
    pub lo_windows: u64,
    /// Latency windows of the high-load phase.
    pub hi_windows: u64,
}

fn scaled(reference: u64, seconds: u64, floor: u64) -> u64 {
    ((reference * seconds + REFERENCE_SECONDS / 2) / REFERENCE_SECONDS).max(floor)
}

impl Plan {
    /// Builds the plan for `spec` with refresh period `r`. `seconds`
    /// scales the number of saturated segments and latency windows —
    /// never a segment's or a window's size.
    pub fn new(spec: &WorkloadSpec, r: u64, seconds: u64, mode: Mode) -> Self {
        let (segments, lo_windows, hi_windows, ctl_segments) = match mode {
            Mode::Full => (
                scaled(10, seconds, 6),
                scaled(6, seconds, 6),
                scaled(9, seconds, 6),
                CTL_SEGMENTS,
            ),
            Mode::Traced => (6, 4, 4, CTL_SEGMENTS),
            Mode::Smoke => (2, 2, 2, 2),
        };
        // A latency phase stays shorter than R.
        let lo_windows = lo_windows.min((r - 1) / LO_WINDOW);
        let hi_windows = hi_windows.min((r - 1) / HI_WINDOW);

        let mut phases = Vec::new();
        let mut at = 0u64;
        let mut push = |kind: PhaseKind, docs: u64| {
            if docs > 0 {
                phases.push(Phase {
                    kind,
                    start: at,
                    docs,
                });
                at += docs;
            }
        };
        push(PhaseKind::WarmUp, r);
        for s in 0..segments {
            let traced = mode != Mode::Full && s % 2 == 1;
            push(PhaseKind::Saturated { traced }, spec.seg_r * r);
        }
        let lo_docs = lo_windows * LO_WINDOW;
        push(PhaseKind::PacedLo, lo_docs);
        push(PhaseKind::Filler, (r - lo_docs % r) % r);
        push(PhaseKind::PacedHi, hi_windows * HI_WINDOW);
        Self {
            r,
            phases,
            ctl_segments: ctl_segments as usize,
            lo_windows,
            hi_windows,
        }
    }

    /// Documents in the stream (control probes come after them).
    pub fn stream_docs(&self) -> u64 {
        self.phases.last().map_or(0, |p| p.start + p.docs)
    }

    /// Phases of one kind class, in order.
    pub fn of(&self, pick: impl Fn(PhaseKind) -> bool) -> impl Iterator<Item = &Phase> {
        self.phases.iter().filter(move |p| pick(p.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_timed_phase_is_refresh_aligned_for_every_workload_and_length() {
        for spec in &WORKLOADS {
            for r in [1_001, 2_500, 10_000] {
                for seconds in 1..=60 {
                    for mode in [Mode::Full, Mode::Traced, Mode::Smoke] {
                        let plan = Plan::new(spec, r, seconds, mode);
                        let mut at = 0;
                        for p in &plan.phases {
                            assert_eq!(p.start, at, "phases are contiguous");
                            at += p.docs;
                            if !p.kind.timed() {
                                continue;
                            }
                            assert_eq!(
                                p.start % r,
                                0,
                                "{} {mode:?} {seconds}s: {:?} starts off a refresh boundary",
                                spec.name,
                                p.kind
                            );
                            match p.kind {
                                PhaseKind::Saturated { .. } => {
                                    assert_eq!(p.docs % r, 0, "segments are whole periods");
                                }
                                _ => assert!(p.docs < r, "no refresh inside a latency phase"),
                            }
                        }
                        assert_eq!(plan.stream_docs(), at);
                        assert!(plan.of(|k| k == PhaseKind::PacedLo).count() == 1);
                        assert!(plan.of(|k| k == PhaseKind::PacedHi).count() == 1);
                    }
                }
            }
        }
    }

    #[test]
    fn seconds_scale_counts_not_sizes() {
        let spec = &WORKLOADS[0];
        let short = Plan::new(spec, 10_000, 20, Mode::Full);
        let long = Plan::new(spec, 10_000, 60, Mode::Full);
        let segs = |p: &Plan| {
            p.of(|k| matches!(k, PhaseKind::Saturated { .. }))
                .map(|p| p.docs)
                .collect::<Vec<_>>()
        };
        assert_eq!(segs(&short).len(), 10);
        assert_eq!(segs(&long).len(), 30);
        assert!(segs(&short)
            .iter()
            .chain(&segs(&long))
            .all(|&d| d == 10_000));
        assert_eq!(
            Plan::new(spec, 10_000, 1, Mode::Full).lo_windows,
            6,
            "floor"
        );
        // Traced runs alternate untraced and traced segments.
        let traced = Plan::new(spec, 10_000, 20, Mode::Traced);
        let flags: Vec<bool> = traced
            .phases
            .iter()
            .filter_map(|p| match p.kind {
                PhaseKind::Saturated { traced } => Some(traced),
                _ => None,
            })
            .collect();
        assert_eq!(flags, [false, true, false, true, false, true]);
    }
}

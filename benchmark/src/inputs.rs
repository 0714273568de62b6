//! Everything a run publishes or registers, generated from `--seed` before
//! anything is timed, together with what the oracle expects of it.
//!
//! The run is a script: the document stream (a fixed cycle of generated
//! documents replayed from its start in every phase, re-stamped with
//! unique `DocId`s), the churn ticks between documents, the control
//! segments and their probe documents. Because the script is fixed before
//! the engine starts, the expected delivery count of every document and
//! the expected delivered set of every checked document are fixed too.

use crate::plan::{Churn, Corpus, Mode, Phase, PhaseKind, Plan, WorkloadSpec, NODES, SCALE};
use crate::tracker::Expectations;
use move_bench::{paper_system, Scale};
use move_core::SystemConfig;
use move_index::{brute_force, InvertedIndex, MatchOutcome, MatchScratch};
use move_types::{DocId, Document, Filter, FilterId, MatchSemantics, TermId};
use move_workload::{
    ChurnOp, ChurnSpec, ChurnWorkload, DocumentGenerator, FilterGenerator, MsnSpec, RankCoupling,
    TrecSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Checked documents per saturated segment and per latency phase.
const CHECKED_PER_PHASE: u64 = 64;
/// Probe documents published after each control segment.
const PROBES_PER_SEGMENT: usize = 8;
/// Seed of everything that is a *law* of the workload rather than a draw
/// from it: which document terms are also popular filter terms, and the
/// churn workload's predicate pool. `--seed` draws the filters, documents
/// and operations from these laws; were it to redraw the laws too, two
/// seeds would be two different workloads (saturated rates 13 % apart on
/// `il_ap`) and no two runs could be compared.
const LAW_SEED: u64 = 0x4D4F_5645_2012;
/// Churn ticks applied to the fixed initial population before set-up, so
/// the registered population still depends on `--seed`.
const PRE_CHURN_TICKS: usize = 25;

/// One control segment: the operations, then the probe documents that
/// must show their effect.
#[derive(Debug)]
pub struct ControlSegment {
    /// Register / unregister calls, in order.
    pub ops: Vec<ChurnOp>,
    /// Probe documents (ids continue the stream's).
    pub probes: Vec<Document>,
}

/// The generated script of one run.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub spec: &'static WorkloadSpec,
    /// The deployment every scheme copy is built with.
    pub system: SystemConfig,
    /// Filters registered during set-up.
    pub filters: Vec<Filter>,
    /// Offline corpus sample MOVE's proactive allocation learns from.
    pub sample: Vec<Document>,
    /// Term occurrences of each cycle document.
    cycle: Vec<Vec<TermId>>,
    /// The phase plan (aligned to `system.refresh_every_docs`).
    pub plan: Plan,
    /// What the oracle expects, shared with the tap consumer.
    pub expect: Arc<Expectations>,
    /// Churn tick `t` runs in bursts between stream documents
    /// `t * every .. (t + 1) * every` (see [`Inputs::ops_after`]).
    ticks: Vec<Vec<ChurnOp>>,
    /// Control segments, after the stream.
    pub control: Vec<ControlSegment>,
    /// FNV-1a digest of everything above.
    pub digest: u64,
    /// Wall time of the generation, seconds.
    pub gen_s: f64,
    /// Mean distinct terms per cycle document.
    pub doc_terms_mean: f64,
    /// Mean expected deliveries per stream document.
    pub matches_per_doc_mean: f64,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn filter(&mut self, f: &Filter) {
        self.word(f.id().0);
        self.word(f.len() as u64);
        f.terms().iter().for_each(|t| self.word(u64::from(t.0)));
    }
    fn ops(&mut self, ops: &[ChurnOp]) {
        for op in ops {
            match op {
                ChurnOp::Register(f) => self.filter(f),
                ChurnOp::Unregister(id) => self.word(!id.0),
            }
        }
    }
}

fn occurrences(doc: &Document) -> Vec<TermId> {
    doc.term_counts()
        .flat_map(|(t, n)| std::iter::repeat_n(t, n as usize))
        .collect()
}

/// The live population the oracle matches against: every subscriber's
/// filter (for brute force) and, per distinct predicate, how many live
/// subscribers hold it (for the expected count of every document).
#[derive(Default)]
struct Population {
    live: BTreeMap<u64, Filter>,
    max_id: u64,
    /// Distinct term sets seen so far, numbered densely.
    preds: HashMap<Vec<TermId>, u32>,
    /// Live subscribers per predicate number.
    live_by_pred: Vec<u32>,
    /// Operations applied so far (keys the brute-force cache).
    version: u64,
}

impl Population {
    fn new(filters: &[Filter]) -> Self {
        let mut pop = Self::default();
        for f in filters {
            pop.apply(&ChurnOp::Register(f.clone()));
        }
        pop
    }

    /// The number of the predicate with these terms, new or known.
    fn intern(&mut self, terms: &[TermId]) -> usize {
        let next = self.preds.len() as u32;
        let p = *self.preds.entry(terms.to_vec()).or_insert(next);
        if p == next {
            self.live_by_pred.push(0);
        }
        p as usize
    }

    /// Applies one operation; returns the terms whose postings it touched.
    fn apply(&mut self, op: &ChurnOp) -> Vec<TermId> {
        self.version += 1;
        let (mut touched, old) = match op {
            ChurnOp::Register(f) => {
                self.max_id = self.max_id.max(f.id().0);
                let p = self.intern(f.terms());
                self.live_by_pred[p] += 1;
                (f.terms().to_vec(), self.live.insert(f.id().0, f.clone()))
            }
            ChurnOp::Unregister(id) => (Vec::new(), self.live.remove(&id.0)),
        };
        if let Some(old) = old {
            let p = self.intern(old.terms());
            self.live_by_pred[p] -= 1;
            touched.extend_from_slice(old.terms());
        }
        touched
    }

    fn matches(&self, doc: &Document) -> Vec<FilterId> {
        brute_force(self.live.values(), doc, MatchSemantics::Boolean)
    }
}

/// The churn operations due right after stream document `idx`: each tick's
/// operations are dealt evenly over the bursts of its interval, one burst
/// after every `burst_docs` documents. None without churn.
fn ops_after(ticks: &[Vec<ChurnOp>], churn: Option<Churn>, idx: u64) -> &[ChurnOp] {
    let Some(churn) = churn else {
        return &[];
    };
    let Some(ops) = ticks.get((idx / churn.every_docs) as usize) else {
        return &[];
    };
    if !(idx + 1).is_multiple_of(churn.burst_docs) {
        return &[];
    }
    let bursts = churn.every_docs / churn.burst_docs;
    let (j, n) = (idx % churn.every_docs / churn.burst_docs, ops.len() as u64);
    &ops[(j * n / bursts) as usize..((j + 1) * n / bursts) as usize]
}

/// What `--seed` draws: filters, MOVE's offline sample, the document
/// cycle — and the laws they were drawn from.
struct Draw {
    filters: Vec<Filter>,
    sample: Vec<Document>,
    docs: Vec<Document>,
    vocabulary: usize,
    filter_spec: MsnSpec,
}

/// Draws the corpus from `rng` under laws fixed by [`LAW_SEED`] (the same
/// calibrated generators `move_bench::Workload` uses).
fn draw(spec: &WorkloadSpec, scale: Scale, rng: &mut StdRng) -> Draw {
    let vocabulary = scale.vocab(MsnSpec::paper().vocabulary);
    let filter_spec = MsnSpec::scaled(vocabulary);
    let filters = FilterGenerator::new(&filter_spec).expect("MSN spec is calibratable");
    let base = match spec.corpus {
        Corpus::Ap => TrecSpec::ap(),
        Corpus::Wt => TrecSpec::wt(),
    };
    let doc_vocab = scale.vocab(base.vocabulary).min(vocabulary);
    let trec = base.scaled(doc_vocab);
    let coupling = RankCoupling::with_overlap(
        doc_vocab,
        vocabulary,
        trec.top_k.min(doc_vocab),
        trec.top_k_overlap,
        &mut StdRng::seed_from_u64(LAW_SEED),
    )
    .expect("coupling parameters are valid");
    let docs = DocumentGenerator::new(&trec, coupling).expect("TREC spec is calibratable");
    let n_sample = scale.count(1_000, 200);
    Draw {
        filters: filters.trace(scale.count(spec.paper_filters, 100), rng),
        sample: docs.corpus(n_sample, rng),
        docs: (0..spec.cycle_docs)
            .map(|i| docs.generate(n_sample + i, rng))
            .collect(),
        vocabulary,
        filter_spec,
    }
}

/// Index of the phase holding stream document `idx`, with its offset.
fn locate(plan: &Plan, idx: u64) -> Option<(&Phase, u64)> {
    let i = plan.phases.partition_point(|p| p.start + p.docs <= idx);
    plan.phases.get(i).map(|p| (p, idx - p.start))
}

/// Whether stream document `idx` is in the checked sample: evenly spaced
/// documents of every timed phase.
fn is_checked(plan: &Plan, idx: u64) -> bool {
    let Some((phase, offset)) = locate(plan, idx) else {
        return false;
    };
    phase.kind.timed() && offset % (phase.docs / CHECKED_PER_PHASE).max(1) == 0
}

impl Inputs {
    /// Generates the script for `spec` from `seed`.
    pub fn generate(spec: &'static WorkloadSpec, seed: u64, seconds: u64, mode: Mode) -> Self {
        let started = Instant::now();
        let scale = Scale::new(SCALE);
        let mut rng = StdRng::seed_from_u64(seed);
        let w = draw(spec, scale, &mut rng);
        let system = paper_system(scale, NODES, w.vocabulary);
        let plan = Plan::new(spec, system.refresh_every_docs, seconds, mode);
        let cycle_docs = &w.docs;
        let cycle: Vec<Vec<TermId>> = cycle_docs.iter().map(occurrences).collect();
        let stream = plan.stream_docs();
        let cycle_pos = |idx: u64| {
            let (_, offset) = locate(&plan, idx).expect("index inside the stream");
            (offset % cycle.len() as u64) as usize
        };

        let (filters, ticks): (Vec<Filter>, Vec<Vec<ChurnOp>>) = match spec.churn {
            Some(churn) => {
                let churn_spec = ChurnSpec {
                    subscribers: churn.subscribers,
                    predicate_pool: churn.pool,
                    pool_exponent: 1.0,
                    churn_fraction: churn.fraction,
                    filter_spec: w.filter_spec.clone(),
                };
                let mut model =
                    ChurnWorkload::new(&churn_spec, &mut StdRng::seed_from_u64(LAW_SEED))
                        .expect("churn spec is feasible");
                for _ in 0..PRE_CHURN_TICKS {
                    model.tick(&mut rng);
                }
                let filters = model.live().collect();
                let ticks = (0..stream / churn.every_docs)
                    .map(|_| model.tick(&mut rng))
                    .collect();
                (filters, ticks)
            }
            None => (w.filters, Vec::new()),
        };

        // Expected count of every stream document: the live subscribers
        // of every distinct predicate it matches. Which predicates a cycle
        // document matches is fixed (one single-thread SIFT index over the
        // distinct predicates of the whole script); who holds them changes
        // with the churn. The checked sample is brute force, which also
        // cross-checks the count.
        let mut pop = Population::new(&filters);
        for op in ticks.iter().flatten() {
            if let ChurnOp::Register(f) = op {
                pop.intern(f.terms());
            }
        }
        let mut pred_index = InvertedIndex::new(MatchSemantics::Boolean);
        for (terms, &p) in &pop.preds {
            pred_index.insert(Filter::new(u64::from(p), terms.iter().copied()));
        }
        let mut scratch = MatchScratch::new();
        let mut out = MatchOutcome::default();
        let preds_of_doc: Vec<Vec<u32>> = cycle_docs
            .iter()
            .map(|d| {
                out.clear();
                pred_index.match_document_into(d, &mut scratch, &mut out);
                out.matched.iter().map(|id| id.0 as u32).collect()
            })
            .collect();
        let mut count: Vec<u32> = Vec::with_capacity(stream as usize + 256);
        let mut sets: HashMap<u32, Arc<Vec<FilterId>>> = HashMap::new();
        let mut brute: HashMap<(usize, u64), Arc<Vec<FilterId>>> = HashMap::new();
        for idx in 0..stream {
            let pos = cycle_pos(idx);
            let expected: u32 = preds_of_doc[pos]
                .iter()
                .map(|&p| pop.live_by_pred[p as usize])
                .sum();
            count.push(expected);
            if is_checked(&plan, idx) {
                let set = brute
                    .entry((pos, pop.version))
                    .or_insert_with(|| Arc::new(pop.matches(&cycle_docs[pos])));
                assert_eq!(
                    set.len() as u32,
                    expected,
                    "count model disagrees with brute force"
                );
                sets.insert(idx as u32, Arc::clone(set));
            }
            for op in ops_after(&ticks, spec.churn, idx) {
                pop.apply(op);
            }
        }

        // Control: replace pairs — one live subscriber leaves, a fresh one
        // with a newly generated predicate joins — so the population stays
        // constant and every registration places a new canonical filter.
        // (Pool-drawn registrations, which mostly hit a live canonical,
        // run beside the stream of `move_churn`; as a timed phase their
        // rate is set by thread wake-ups and varies 2x between segments.)
        let gen = FilterGenerator::new(&w.filter_spec).expect("MSN spec is calibratable");
        let mut live_ids: Vec<u64> = pop.live.keys().copied().collect();
        let mut next_id = pop.max_id + 1;
        let mut control = Vec::with_capacity(plan.ctl_segments);
        for _ in 0..plan.ctl_segments {
            let mut ops = Vec::with_capacity(spec.ctl_pairs * 2);
            for _ in 0..spec.ctl_pairs {
                let k = rng.gen_range(0..live_ids.len());
                ops.push(ChurnOp::Unregister(FilterId(live_ids.swap_remove(k))));
                ops.push(ChurnOp::Register(gen.generate(next_id, &mut rng)));
                live_ids.push(next_id);
                next_id += 1;
            }
            // Apply to the population and derive the probes.
            let stride = (ops.len() / PROBES_PER_SEGMENT).max(1);
            let mut probe_terms: Vec<BTreeSet<TermId>> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                let touched = pop.apply(op);
                if i % stride <= 1 && i / stride < PROBES_PER_SEGMENT {
                    if i % stride == 0 {
                        probe_terms.push(BTreeSet::new());
                    }
                    if let Some(last) = probe_terms.last_mut() {
                        last.extend(touched);
                    }
                }
            }
            let probes = probe_terms
                .into_iter()
                .filter(|terms| !terms.is_empty())
                .map(|terms| {
                    let idx = count.len() as u64;
                    let probe = Document::from_distinct_terms(DocId(idx), terms);
                    let set = pop.matches(&probe);
                    count.push(set.len() as u32);
                    sets.insert(idx as u32, Arc::new(set));
                    probe
                })
                .collect();
            control.push(ControlSegment { ops, probes });
        }

        let mut h = Fnv::new();
        filters.iter().for_each(|f| h.filter(f));
        for d in w.sample.iter().chain(cycle_docs) {
            h.word(d.distinct_terms() as u64);
            d.term_counts()
                .for_each(|(t, n)| h.word(u64::from(t.0) << 32 | u64::from(n)));
        }
        ticks.iter().for_each(|t| h.ops(t));
        for seg in &control {
            h.ops(&seg.ops);
            seg.probes
                .iter()
                .for_each(|p| h.word(p.distinct_terms() as u64));
        }
        count.iter().for_each(|&c| h.word(u64::from(c)));

        let doc_terms_mean = cycle_docs
            .iter()
            .map(Document::distinct_terms)
            .sum::<usize>() as f64
            / cycle.len() as f64;
        let matches_per_doc_mean = count[..stream as usize]
            .iter()
            .map(|&c| f64::from(c))
            .sum::<f64>()
            / stream as f64;
        Self {
            spec,
            system,
            filters,
            sample: w.sample,
            cycle,
            plan,
            expect: Arc::new(Expectations {
                count,
                sets,
                id_width: pop.max_id + 1,
            }),
            ticks,
            control,
            digest: h.0,
            gen_s: started.elapsed().as_secs_f64(),
            doc_terms_mean,
            matches_per_doc_mean,
        }
    }

    /// The churn operations to apply right after publishing stream
    /// document `idx` (empty for workloads without churn).
    pub fn ops_after(&self, idx: u64) -> &[ChurnOp] {
        ops_after(&self.ticks, self.spec.churn, idx)
    }

    /// Documents in the cycle.
    pub fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    /// Cycle document `pos`, stamped with `id`.
    pub fn cycle_doc(&self, pos: usize, id: u64) -> Document {
        Document::from_occurrences(DocId(id), self.cycle[pos].iter().copied())
    }

    /// The documents of one phase, built ahead of its timing: the cycle
    /// from its start, ids equal to stream indices.
    pub fn phase_docs(&self, phase: &Phase) -> Vec<Document> {
        (0..phase.docs)
            .map(|k| self.cycle_doc((k % self.cycle.len() as u64) as usize, phase.start + k))
            .collect()
    }

    /// Timed documents plus control operations: the run's `attempted`.
    pub fn attempted(&self) -> u64 {
        let docs: u64 = self.plan.of(PhaseKind::timed).map(|p| p.docs).sum();
        docs + self.control.iter().map(|s| s.ops.len() as u64).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::WORKLOADS;

    #[test]
    fn same_seed_same_digest_and_other_seed_another() {
        for spec in &WORKLOADS {
            let a = Inputs::generate(spec, 11, 20, Mode::Smoke);
            let b = Inputs::generate(spec, 11, 20, Mode::Smoke);
            let c = Inputs::generate(spec, 12, 20, Mode::Smoke);
            assert_eq!(a.digest, b.digest, "{}", spec.name);
            assert_eq!(a.expect.count, b.expect.count);
            assert_ne!(a.digest, c.digest, "{}", spec.name);
        }
    }

    #[test]
    fn every_timed_phase_has_a_checked_sample_and_probes_see_their_ops() {
        for spec in &WORKLOADS {
            let inputs = Inputs::generate(spec, 5, 20, Mode::Smoke);
            for phase in inputs.plan.of(PhaseKind::timed) {
                let checked = (phase.start..phase.start + phase.docs)
                    .filter(|i| inputs.expect.sets.contains_key(&(*i as u32)))
                    .count() as u64;
                assert!(checked >= 50, "{} {:?}: {checked}", spec.name, phase.kind);
            }
            assert_eq!(inputs.control.len(), inputs.plan.ctl_segments);
            for seg in &inputs.control {
                assert!(!seg.probes.is_empty());
                // A probe carries the terms of a filter the segment
                // registered, so that filter must be in its expected set.
                let registered: BTreeSet<FilterId> = seg
                    .ops
                    .iter()
                    .filter_map(|op| match op {
                        ChurnOp::Register(f) => Some(f.id()),
                        ChurnOp::Unregister(_) => None,
                    })
                    .collect();
                let shown = seg.probes.iter().any(|p| {
                    inputs.expect.sets[&(p.id().0 as u32)]
                        .iter()
                        .any(|id| registered.contains(id))
                });
                assert!(shown, "{}: no probe shows a registration", spec.name);
            }
            assert!(inputs.matches_per_doc_mean > 1.0);
        }
    }
}

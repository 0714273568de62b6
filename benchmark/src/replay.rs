//! The traced run's per-layer replay: a fixed document sample pushed
//! through each layer's public functions on a second copy of the scheme,
//! one span per call, plus the small single-layer timings (index and
//! aggregator mutation, one channel round trip, the single-thread
//! simulator baseline) that no live phase can isolate.

use crate::inputs::Inputs;
use crate::live::{build_scheme, storage_bytes, BuildTimes};
use crate::stats::{median, percentile_sorted};
use crate::trace::{Clock, SpanLog, ROOT};
use crossbeam::channel::bounded;
use move_bloom::BloomFilter;
use move_core::MatchTask;
use move_index::{FilterAggregator, InvertedIndex, MatchOutcome, MatchScratch};
use move_types::{Document, MatchSemantics, NodeId, TermId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Documents replayed (the first ones of the cycle).
const SAMPLE_DOCS: usize = 2_000;
/// Trace ids of replayed documents start here, clear of stream indices.
const REPLAY_TRACE_BASE: u64 = 1 << 40;
/// Filters mutated by the index / aggregator timings.
const MUTATION_SAMPLE: usize = 1_000;

/// Per-layer numbers of the replay.
#[derive(Debug, Default)]
pub struct ReplayResult {
    /// Documents replayed.
    pub docs: u64,
    /// Scheme-building breakdown of the replay copy.
    pub build: BuildTimes,
    /// Bloom probes, positives, total ns.
    pub bloom: (u64, u64, u64),
    /// Term-home look-ups, total ns.
    pub ring: (u64, u64),
    /// `RoutingView::route`: steps, total ns.
    pub route: (u64, u64),
    /// `routing_view()` snapshot time, ms (median of 5).
    pub routing_view_ms: f64,
    /// Match kernel: lists retrieved, postings scanned, total ns.
    pub matching: (u64, u64, u64),
    /// `sort_dedup`: ids in, total ns.
    pub sort_dedup: (u64, u64),
    /// Fan-out expansion: canonical ids in, subscriber ids out, total ns.
    pub fanout: (u64, u64, u64),
    /// Per document: route + slowest node's match/dedup/expand, ns.
    pub critical_ns: Vec<u64>,
    /// Simulator `publish` per document, ns.
    pub sim_publish_ns: Vec<u64>,
    /// Max over mean of filter copies stored per node.
    pub storage_max_over_mean: f64,
    /// Max over mean of postings scanned per node by the simulator pass.
    pub match_load_max_over_mean: f64,
    /// `InvertedIndex::insert` / `remove`, µs per filter.
    pub index_insert_us: f64,
    /// See `index_insert_us`.
    pub index_remove_us: f64,
    /// `FilterAggregator::register` / `unregister`, µs per filter.
    pub aggregate_register_us: f64,
    /// See `aggregate_register_us`.
    pub aggregate_unregister_us: f64,
    /// One bounded-channel send → recv → reply between two threads, ns.
    pub roundtrip_ns: f64,
    /// Send + recv of one message on one thread, ns.
    pub send_recv_ns: f64,
    /// Posting and aggregation bytes of the replay copy.
    pub bytes: (u64, u64),
}

fn max_over_mean(values: &[u64]) -> f64 {
    let sum: u64 = values.iter().sum();
    if sum == 0 {
        return 0.0;
    }
    let max = values.iter().copied().max().unwrap_or(0);
    max as f64 * values.len() as f64 / sum as f64
}

/// Replays the sample; spans go to `spans` under one root per document.
pub fn run(inputs: &Inputs, clock: &Clock, spans: &mut SpanLog) -> ReplayResult {
    let mut r = ReplayResult::default();
    let (mut scheme, build) = build_scheme(inputs);
    r.build = build;
    r.bytes = storage_bytes(scheme.as_ref());
    r.storage_max_over_mean = max_over_mean(&scheme.storage_per_node());

    // The layers, as the benchmark can reach them from outside.
    let mut bloom = BloomFilter::new(inputs.system.expected_terms, inputs.system.bloom_fpr);
    for f in &inputs.filters {
        f.terms().iter().for_each(|t| bloom.insert(&t.0));
    }
    let nodes = scheme.cluster().len();
    let shards: Vec<_> = (0..nodes)
        .map(|n| scheme.shared_node_index(NodeId(n as u32)))
        .collect();
    let fanout = scheme.fanout_table();
    let mut view_ms = Vec::with_capacity(5);
    let mut view = scheme.routing_view(1);
    for epoch in 2..7 {
        let t = Instant::now();
        view = scheme.routing_view(epoch);
        view_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    r.routing_view_ms = median(&view_ms);

    let sample: Vec<Document> = (0..inputs.cycle_len().min(SAMPLE_DOCS))
        .map(|pos| inputs.cycle_doc(pos, REPLAY_TRACE_BASE + pos as u64))
        .collect();
    r.docs = sample.len() as u64;
    let mut rng = StdRng::seed_from_u64(0x7E57);
    let mut scratch = MatchScratch::new();
    let mut out = MatchOutcome::default();
    let mut expanded = Vec::new();
    let mut positives: Vec<TermId> = Vec::new();
    let mut node_ns = vec![0u64; nodes];
    {
        let ring = scheme.cluster().ring();
        for doc in &sample {
            let trace = doc.id().0;
            let doc_start = clock.now_ns();
            let root = spans.push("replay.doc", doc_start, doc_start, ROOT, trace);

            positives.clear();
            let t0 = clock.now_ns();
            for &t in doc.terms() {
                if bloom.contains(&t.0) {
                    positives.push(t);
                }
            }
            let t1 = clock.now_ns();
            spans.push("bloom.contains", t0, t1, root, trace);
            r.bloom.0 += doc.distinct_terms() as u64;
            r.bloom.1 += positives.len() as u64;
            r.bloom.2 += t1 - t0;

            let t0 = clock.now_ns();
            for &t in &positives {
                black_box(ring.home_of_term(t));
            }
            let t1 = clock.now_ns();
            spans.push("cluster.home_of_term", t0, t1, root, trace);
            r.ring.0 += positives.len() as u64;
            r.ring.1 += t1 - t0;

            let t0 = clock.now_ns();
            let steps = view.route(doc, &mut rng);
            let t1 = clock.now_ns();
            spans.push("core.route", t0, t1, root, trace);
            r.route.0 += steps.len() as u64;
            r.route.1 += t1 - t0;
            let route_ns = t1 - t0;

            node_ns.fill(0);
            for step in &steps {
                let shard = &shards[step.node.as_usize()];
                out.clear();
                let t0 = clock.now_ns();
                match &step.task {
                    MatchTask::Forward => continue,
                    MatchTask::Terms(terms) => shard.match_terms_into(doc, terms, &mut out),
                    MatchTask::FullIndex => shard.match_document_into(doc, &mut scratch, &mut out),
                }
                let t1 = clock.now_ns();
                spans.push("index.match", t0, t1, root, trace);
                r.matching.0 += out.lists_retrieved;
                r.matching.1 += out.postings_scanned;
                r.matching.2 += t1 - t0;
                let mut spent = t1 - t0;
                if !out.matched.is_empty() {
                    // Delivery finalize, as the worker does it.
                    let ids_in = out.matched.len() as u64;
                    let t0 = clock.now_ns();
                    scratch.sort_dedup(&mut out.matched);
                    let t1 = clock.now_ns();
                    expanded.clear();
                    fanout.expand_into(&out.matched, &mut expanded);
                    let t2 = clock.now_ns();
                    let expanded_in = expanded.len() as u64;
                    scratch.sort_dedup(&mut expanded);
                    let t3 = clock.now_ns();
                    spans.push("index.sort_dedup", t0, t1, root, trace);
                    spans.push("index.fanout_expand", t1, t2, root, trace);
                    spans.push("index.sort_dedup", t2, t3, root, trace);
                    r.sort_dedup.0 += ids_in + expanded_in;
                    r.sort_dedup.1 += (t1 - t0) + (t3 - t2);
                    r.fanout.0 += out.matched.len() as u64;
                    r.fanout.1 += expanded.len() as u64;
                    r.fanout.2 += t2 - t1;
                    spent += t3 - t0;
                    black_box(&expanded);
                }
                node_ns[step.node.as_usize()] += spent;
            }
            r.critical_ns
                .push(route_ns + node_ns.iter().copied().max().unwrap_or(0));
            spans.spans[root as usize].end_ns = clock.now_ns();
        }
    }

    // The single-thread baseline of the same job: the simulator's publish.
    scheme.cluster_mut().ledgers_mut().reset();
    for doc in &sample {
        let t = Instant::now();
        black_box(scheme.publish(0.0, doc).expect("sim publish cannot fail"));
        r.sim_publish_ns.push(t.elapsed().as_nanos() as u64);
    }
    let load: Vec<u64> = scheme
        .cluster()
        .ledgers()
        .all()
        .iter()
        .map(|l| l.postings_scanned)
        .collect();
    r.match_load_max_over_mean = max_over_mean(&load);
    drop(scheme);

    mutation_timings(inputs, &mut r);
    transport_timings(&mut r);
    r
}

fn mutation_timings(inputs: &Inputs, r: &mut ReplayResult) {
    let filters = &inputs.filters;
    let n = filters.len().max(1) as f64;
    let k = MUTATION_SAMPLE.min(filters.len());
    let per_us = |t: Instant, count: f64| t.elapsed().as_secs_f64() * 1e6 / count;

    let mut index = InvertedIndex::new(MatchSemantics::Boolean);
    let t = Instant::now();
    for f in filters {
        index.insert(f.clone());
    }
    r.index_insert_us = per_us(t, n);
    let t = Instant::now();
    for f in &filters[..k] {
        black_box(index.remove(f.id()));
    }
    r.index_remove_us = per_us(t, k.max(1) as f64);

    let mut aggregator = FilterAggregator::new();
    let t = Instant::now();
    for f in filters {
        black_box(aggregator.register(f));
    }
    r.aggregate_register_us = per_us(t, n);
    let t = Instant::now();
    for f in &filters[..k] {
        black_box(aggregator.unregister(f.id()));
    }
    r.aggregate_unregister_us = per_us(t, k.max(1) as f64);
}

fn transport_timings(r: &mut ReplayResult) {
    const SAME_THREAD: u32 = 200_000;
    const ROUND_TRIPS: u32 = 20_000;
    let (tx, rx) = bounded::<u64>(64);
    let t = Instant::now();
    for i in 0..SAME_THREAD {
        let _ = tx.send(u64::from(i));
        black_box(rx.recv().ok());
    }
    r.send_recv_ns = t.elapsed().as_nanos() as f64 / f64::from(SAME_THREAD);

    let (ping_tx, ping_rx) = bounded::<u64>(64);
    let (pong_tx, pong_rx) = bounded::<u64>(64);
    let echo = std::thread::spawn(move || {
        for v in ping_rx.iter() {
            if pong_tx.send(v).is_err() {
                break;
            }
        }
    });
    let mut trips: Vec<u64> = Vec::with_capacity(ROUND_TRIPS as usize);
    for i in 0..ROUND_TRIPS {
        let t = Instant::now();
        let _ = ping_tx.send(u64::from(i));
        black_box(pong_rx.recv().ok());
        trips.push(t.elapsed().as_nanos() as u64);
    }
    drop(ping_tx);
    let _ = echo.join();
    trips.sort_unstable();
    r.roundtrip_ns = percentile_sorted(&trips, 0.5) as f64;
}

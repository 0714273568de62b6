//! Journal-replay equivalence, property-tested: after **any** generated
//! crash/restart sequence, a worker rebuilt by the supervisor from its
//! registration journal (base snapshot + since-log) must answer exactly
//! like a worker that had registered the same filters fresh. The witness
//! is a set of probe documents published after every revival: for each
//! probe the report does not name lost, the delivered set must equal the
//! brute-force match over the full filter population — a replay that
//! dropped a registration under-delivers, a replay that duplicated or
//! resurrected one over-delivers, and either diverges from the oracle.

use move_core::{Dissemination, IlScheme, MoveScheme, RsScheme, SystemConfig};
use move_index::brute_force;
use move_integration_tests::{random_docs, random_filters};
use move_runtime::interleave::{run_schedule, InterleaveConfig, InterleaveReport, ScriptOp};
use move_runtime::OverflowPolicy;
use move_types::{DocId, Document, Filter, FilterId, MatchSemantics, NodeId, TermId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Interleaves live registrations among the publishes (every third slot),
/// so crashes race both document batches and registration journal writes.
fn interleaved_script(live: &[Filter], docs: &[Document]) -> Vec<ScriptOp> {
    let mut script = Vec::with_capacity(live.len() + docs.len());
    let mut live_iter = live.iter();
    for (i, d) in docs.iter().enumerate() {
        if i % 3 == 0 {
            if let Some(f) = live_iter.next() {
                script.push(ScriptOp::Register(f.clone()));
            }
        }
        script.push(ScriptOp::Publish(d.clone()));
    }
    for f in live_iter {
        script.push(ScriptOp::Register(f.clone()));
    }
    script
}

/// The fresh-registration oracle: each document's brute-force match set
/// over the filters registered before it in the script (faults change who
/// answers, never what the answer is).
fn expected_sets(pre: &[Filter], script: &[ScriptOp]) -> BTreeMap<DocId, BTreeSet<FilterId>> {
    let mut known: Vec<Filter> = pre.to_vec();
    let mut out = BTreeMap::new();
    for op in script {
        match op {
            ScriptOp::Register(f) => known.push(f.clone()),
            ScriptOp::Unregister(id) => known.retain(|f| f.id() != *id),
            ScriptOp::Publish(d) => {
                let want: BTreeSet<FilterId> = brute_force(&known, d, MatchSemantics::Boolean)
                    .into_iter()
                    .collect();
                out.insert(d.id(), want);
            }
            ScriptOp::Crash(_)
            | ScriptOp::Restart(_)
            | ScriptOp::Delay { .. }
            | ScriptOp::PinView { .. }
            | ScriptOp::Join
            | ScriptOp::CommitJoin
            | ScriptOp::CrashLane { .. }
            | ScriptOp::Drain => {}
        }
    }
    out
}

/// Probe documents with ids disjoint from the workload stream, published
/// after the last revival so their delivery sets witness the replayed
/// index state.
fn probe_docs(vocab: u32, seed: u64) -> Vec<Document> {
    random_docs(4, vocab, 8, seed ^ 0xBEEF)
        .into_iter()
        .enumerate()
        .map(|(i, d)| Document::from_distinct_terms(1_000 + i as u64, d.terms().iter().copied()))
        .collect()
}

/// The at-most-once judgement shared by both properties: zero false
/// deliveries, books balanced exactly (the sim crashes a worker and drops
/// its queue in one atomic step), and exactness for every document the
/// report does not name lost or shed.
fn judge(label: &str, expected: &BTreeMap<DocId, BTreeSet<FilterId>>, out: &InterleaveReport) {
    for (doc, got) in &out.delivered {
        let want = expected.get(doc).cloned().unwrap_or_default();
        assert!(
            got.is_subset(&want),
            "{label} doc {doc}: false delivery {got:?} vs {want:?}"
        );
    }
    let executed: u64 = out.report.nodes.iter().map(|n| n.doc_tasks).sum();
    let lost: u64 = out.report.nodes.iter().map(|n| n.tasks_lost).sum();
    assert_eq!(
        out.report.tasks_dispatched,
        executed + lost,
        "{label}: dispatched must execute or be counted lost"
    );
    for (doc, want) in expected {
        if out.lost_docs.contains(doc) || out.shed_docs.contains(doc) {
            continue; // the documented at-most-once allowance
        }
        let got = out.delivered.get(doc).cloned().unwrap_or_default();
        assert_eq!(
            &got, want,
            "{label} doc {doc}: replayed state diverged from fresh registration"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For every scheme and any seed-derived crash/restart weave, the
    /// post-replay index answers probe documents exactly like a fresh
    /// registration of the same filters.
    #[test]
    fn journal_replay_is_equivalent_to_fresh_registration(
        seed in 0u64..1_000_000,
        n_filters in 40u64..120,
        vocab in 20u32..80,
        n_faults in 1usize..4,
    ) {
        let cfg = SystemConfig::small_test();
        let filters = random_filters(n_filters, vocab, seed);
        let (pre, live) = filters.split_at(filters.len() / 2);
        let docs = random_docs(10, vocab + 10, 8, seed ^ 0xD0C);

        let mut scheme: Box<dyn Dissemination + Send> = match seed % 3 {
            0 => Box::new(MoveScheme::new(cfg.clone()).expect("valid config")),
            1 => Box::new(IlScheme::new(cfg.clone()).expect("valid config")),
            _ => Box::new(RsScheme::new(cfg).expect("valid config")),
        };
        for f in pre {
            scheme.register(f).expect("register");
        }
        let nodes = scheme.cluster().len() as u32;
        let name = scheme.name();

        let mut script = interleaved_script(live, &docs);
        let len = script.len();
        let mut victims = Vec::with_capacity(n_faults);
        for k in 0..n_faults {
            let v = NodeId(((seed >> (5 * k)) as u32).wrapping_add(k as u32) % nodes);
            let pos = ((seed >> (3 * k)) as usize + 7 * k) % len;
            // Inserting a fault op never reorders register/publish pairs,
            // so the fresh-registration oracle below still holds.
            script.insert(pos, ScriptOp::Crash(v));
            victims.push(v);
        }
        for &v in &victims {
            script.push(ScriptOp::Restart(v));
        }
        for p in probe_docs(vocab + 10, seed) {
            script.push(ScriptOp::Publish(p));
        }
        let expected = expected_sets(pre, &script);

        let icfg = InterleaveConfig {
            seed,
            mailbox_capacity: 1 + (seed as usize % 3),
            overflow: OverflowPolicy::Block,
            batch_size: 1 + (seed as usize % 2),
            ..InterleaveConfig::default()
        };
        let out = run_schedule(scheme, script, &icfg)
            .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
        prop_assert!(out.shed_docs.is_empty(), "{} must not shed under Block", name);
        judge(&format!("{name} seed {seed}"), &expected, &out);
    }

    /// The snapshot path: MOVE re-allocates mid-stream (the journal's base
    /// index is reset at each `AllocationUpdate`), then a worker crashes
    /// and is replayed from that *post-refresh* snapshot plus the since-log.
    /// Probes after the revival must still match fresh registration — a
    /// replay from a stale pre-refresh base would route and answer wrongly.
    #[test]
    fn snapshot_replay_survives_allocation_refresh(
        seed in 0u64..1_000_000,
        refresh_every in 4u64..10,
        crash_at in 6usize..18,
    ) {
        let mut cfg = SystemConfig::small_test();
        cfg.capacity_per_node = 150; // tight capacity forces real grids
        cfg.refresh_every_docs = refresh_every;
        let mut filters = random_filters(150, 50, seed);
        for (i, f) in filters.iter_mut().enumerate() {
            if i % 3 == 0 {
                *f = Filter::new(f.id(), f.terms().iter().copied().chain([TermId(0)]));
            }
        }
        let sample = random_docs(30, 60, 10, seed ^ 0x5A);
        let docs = random_docs(20, 60, 10, seed ^ 0xD0C);

        let mut scheme = MoveScheme::new(cfg).expect("valid config");
        for f in &filters {
            scheme.register(f).expect("register");
        }
        scheme.observe_corpus(&sample);
        scheme.allocate().expect("allocate");
        let nodes = scheme.cluster().len() as u32;
        let victim = NodeId(seed as u32 % nodes);

        let mut script: Vec<ScriptOp> =
            docs.iter().map(|d| ScriptOp::Publish(d.clone())).collect();
        script.insert(crash_at, ScriptOp::Crash(victim));
        script.push(ScriptOp::Restart(victim));
        for p in probe_docs(60, seed) {
            script.push(ScriptOp::Publish(p));
        }
        let expected = expected_sets(&filters, &script);

        let icfg = InterleaveConfig {
            seed,
            mailbox_capacity: 2,
            overflow: OverflowPolicy::Block,
            batch_size: 1 + (seed as usize % 2),
            ..InterleaveConfig::default()
        };
        let out = run_schedule(Box::new(scheme), script, &icfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        prop_assert!(
            out.report.allocation_updates > 0,
            "refresh-every-{} over {} docs must re-allocate",
            refresh_every,
            docs.len()
        );
        judge(&format!("move refresh seed {seed}"), &expected, &out);
    }
}

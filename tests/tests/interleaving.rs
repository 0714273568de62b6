//! Schedule-permutation sweep over the live engine's router/worker
//! protocol: for every scheme, policy and seed, one deterministic
//! interleaving of router commands and worker message handling is
//! explored end to end (registration racing publishes, shutdown racing a
//! half-drained cluster, allocation refreshes landing mid-stream, and
//! shed-vs-block decisions at full mailboxes). Across **180 seeded
//! fault-free schedules** the run must terminate (no deadlock, enforced
//! inside the harness), never panic, and never lose a non-shed document.
//!
//! A further **102 fault-injected schedules** crash workers mid-stream
//! (crash-during-publish, crash-during-drain, crash racing a registration)
//! under both supervision stances: with restarts the oracle is documented
//! at-most-once (sound deliveries; exact for every document that lost no
//! task to a crash drain; `dispatched == executed + lost` balances
//! exactly), and under replica failover — including the
//! failover-then-the-node-returns transition — deliveries stay sound and
//! documents published after the cluster heals are delivered exactly.
//!
//! The `drain_*` schedules place the router's work-conserving flush
//! ([`ScriptOp::Drain`]: the command queue ran dry, everything buffered
//! ships) between a publish and each transition it can race — allocation
//! refresh, join handover and commit, crash and restart, and a shed at a
//! full mailbox — with batches larger than one so tasks really are
//! buffered when it fires.

use move_core::{Dissemination, IlScheme, MoveScheme, RsScheme, SystemConfig};
use move_index::brute_force;
use move_integration_tests::support::oracle_sets;
use move_integration_tests::{random_docs, random_filters};
use move_runtime::interleave::{run_schedule, InterleaveConfig, InterleaveReport, ScriptOp};
use move_runtime::{OverflowPolicy, SupervisionPolicy};
use move_types::{DocId, Filter, FilterId, MatchSemantics, NodeId, TermId};
use std::collections::{BTreeMap, BTreeSet};

enum Kind {
    Move,
    Il,
    Rs,
}

fn build(kind: &Kind, cfg: &SystemConfig) -> Box<dyn Dissemination + Send> {
    match kind {
        Kind::Move => Box::new(MoveScheme::new(cfg.clone()).expect("valid config")),
        Kind::Il => Box::new(IlScheme::new(cfg.clone()).expect("valid config")),
        Kind::Rs => Box::new(RsScheme::new(cfg.clone()).expect("valid config")),
    }
}

/// Interleaves live registrations among the publishes: every third script
/// slot registers the next live filter, so documents race registrations
/// through the router's FIFO.
fn interleaved_script(live: &[Filter], docs: &[move_types::Document]) -> Vec<ScriptOp> {
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

/// The oracle: each published document must be delivered to exactly the
/// brute-force match set over the filters registered *before* it in the
/// script (plus the pre-registered ones) — the router channel is FIFO, so
/// registration order is part of the contract, whatever the schedule.
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
            // Faults change who answers, never what the answer is. (PinView
            // schedules use their own bracketing oracle — see the
            // `stale_snapshot_*` tests — so this exact-set oracle treats it
            // as a no-op and must not be combined with mid-pin registers.)
            // Joins likewise only move partitions between nodes: the
            // delivery set of every document is unchanged by a staged join,
            // its handover window, or its commit. A crashed match lane only
            // changes which lane executes the remaining units, and a drain
            // only changes when a buffered batch leaves the router.
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

/// The base fault-mode oracle: every delivery is sound (a subset of the
/// brute-force match set — **zero false deliveries**, the acceptance
/// criterion), and the books balance step-for-step: the sim crashes a
/// worker and drops its mailbox in one atomic scheduler step, so
/// `dispatched == executed + lost` holds with equality, not approximately.
fn assert_sound(
    label: &str,
    expected: &BTreeMap<DocId, BTreeSet<FilterId>>,
    out: &InterleaveReport,
) {
    for (doc, got) in &out.delivered {
        let want = expected.get(doc).cloned().unwrap_or_default();
        assert!(
            got.is_subset(&want),
            "{label}: false delivery for doc {doc}: {got:?} vs {want:?}"
        );
    }
    let executed: u64 = out.report.nodes.iter().map(|n| n.doc_tasks).sum();
    let lost_in_queues: u64 = out.report.nodes.iter().map(|n| n.tasks_lost).sum();
    assert_eq!(
        out.report.tasks_dispatched,
        executed + lost_in_queues,
        "{label}: dispatched tasks must execute or be counted lost"
    );
}

/// The restart-mode delivery oracle: [`assert_sound`] plus exactness for
/// every document that lost no task to a crash drain or a shed — under
/// restart supervision routing never changes, so the *only* permitted gap
/// is a task that died inside a crashed worker's queue (documented
/// at-most-once), and the report must name those documents.
fn assert_at_most_once(
    label: &str,
    expected: &BTreeMap<DocId, BTreeSet<FilterId>>,
    out: &InterleaveReport,
) {
    assert_sound(label, expected, out);
    for (doc, want) in expected {
        if out.shed_docs.contains(doc) || out.lost_docs.contains(doc) {
            continue; // the documented at-most-once allowance
        }
        let got = out.delivered.get(doc).cloned().unwrap_or_default();
        assert_eq!(&got, want, "{label}: unaffected doc {doc} incomplete");
    }
}

/// 90 schedules (3 schemes × 30 seeds) under the blocking policy: complete
/// delivery for every document, nothing shed, at varying (tiny) virtual
/// mailbox capacities.
#[test]
fn block_policy_delivers_exactly_under_all_schedules() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(120, 50, 0xA11);
    let docs = random_docs(20, 60, 10, 0xD0C);
    let (pre, live) = filters.split_at(filters.len() / 2);
    let script = interleaved_script(live, &docs);
    let expected = expected_sets(pre, &script);

    for kind in [Kind::Move, Kind::Il, Kind::Rs] {
        for seed in 0..30u64 {
            let mut scheme = build(&kind, &cfg);
            for f in pre {
                scheme.register(f).expect("register");
            }
            let name = scheme.name();
            let icfg = InterleaveConfig {
                match_lanes: 1,
                seed,
                mailbox_capacity: 1 + (seed as usize % 3),
                overflow: OverflowPolicy::Block,
                batch_size: 1 + (seed as usize % 2),
                ..InterleaveConfig::default()
            };
            let out = run_schedule(scheme, script.clone(), &icfg)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert!(out.shed_docs.is_empty(), "{name} shed under Block");
            assert_eq!(out.report.tasks_shed, 0, "{name} counted sheds under Block");
            assert_eq!(out.report.docs_published, docs.len() as u64);
            for d in &docs {
                let got = out.delivered.get(&d.id()).cloned().unwrap_or_default();
                let want = &expected[&d.id()];
                assert_eq!(
                    &got,
                    want,
                    "{name} seed {seed}: doc {} delivered wrongly",
                    d.id()
                );
            }
        }
    }
}

/// 60 schedules (3 schemes × 20 seeds) under the shedding policy at
/// capacity 1: every delivery is sound, documents with no shed batch are
/// complete, and the dispatched/executed books balance.
#[test]
fn shed_policy_is_sound_and_balances_the_books() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(120, 50, 0xA11);
    let docs = random_docs(20, 60, 10, 0xD0C);
    let (pre, live) = filters.split_at(filters.len() / 2);
    let script = interleaved_script(live, &docs);
    let expected = expected_sets(pre, &script);

    for kind in [Kind::Move, Kind::Il, Kind::Rs] {
        for seed in 100..120u64 {
            let mut scheme = build(&kind, &cfg);
            for f in pre {
                scheme.register(f).expect("register");
            }
            let name = scheme.name();
            let icfg = InterleaveConfig {
                match_lanes: 1,
                seed,
                mailbox_capacity: 1,
                overflow: OverflowPolicy::Shed,
                batch_size: 1,
                ..InterleaveConfig::default()
            };
            let out = run_schedule(scheme, script.clone(), &icfg)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            let executed: u64 = out.report.nodes.iter().map(|n| n.doc_tasks).sum();
            assert_eq!(
                out.report.tasks_dispatched, executed,
                "{name} seed {seed}: dispatched tasks must all execute"
            );
            for (doc, got) in &out.delivered {
                let want = &expected[doc];
                assert!(
                    got.is_subset(want),
                    "{name} seed {seed}: unsound delivery for doc {doc}"
                );
            }
            for d in &docs {
                if out.shed_docs.contains(&d.id()) {
                    continue; // partial delivery is the shed contract
                }
                let got = out.delivered.get(&d.id()).cloned().unwrap_or_default();
                assert_eq!(
                    &got,
                    &expected[&d.id()],
                    "{name} seed {seed}: non-shed doc {} incomplete",
                    d.id()
                );
            }
        }
    }
}

/// 30 seeded schedules of MOVE with a hot-term workload and a short
/// refresh period: allocation updates land between queued batches on
/// every schedule, and delivery stays exact throughout — the
/// allocation-update-during-drain race.
#[test]
fn move_allocation_refresh_races_are_benign() {
    let mut cfg = SystemConfig::small_test();
    cfg.capacity_per_node = 150; // force real grids
    cfg.refresh_every_docs = 5; // several refreshes inside the script
    let mut filters = random_filters(200, 50, 0xA110C);
    for (i, f) in filters.iter_mut().enumerate() {
        if i % 3 == 0 {
            *f = Filter::new(f.id(), f.terms().iter().copied().chain([TermId(0)]));
        }
    }
    let sample = random_docs(30, 60, 10, 0x5A);
    let docs = random_docs(25, 60, 10, 0xD0C);
    let script: Vec<ScriptOp> = docs.iter().map(|d| ScriptOp::Publish(d.clone())).collect();
    let expected = expected_sets(&filters, &script);

    for seed in 200..230u64 {
        let mut scheme = MoveScheme::new(cfg.clone()).expect("valid config");
        for f in &filters {
            scheme.register(f).expect("register");
        }
        scheme.observe_corpus(&sample);
        scheme.allocate().expect("allocate");
        let icfg = InterleaveConfig {
            match_lanes: 1,
            seed,
            mailbox_capacity: 2,
            overflow: OverflowPolicy::Block,
            batch_size: 1,
            ..InterleaveConfig::default()
        };
        let out = run_schedule(Box::new(scheme), script.clone(), &icfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            out.report.allocation_updates > 0,
            "seed {seed}: the refresh cycle never fired"
        );
        for d in &docs {
            let got = out.delivered.get(&d.id()).cloned().unwrap_or_default();
            assert_eq!(
                &got,
                &expected[&d.id()],
                "seed {seed}: doc {} lost deliveries across a refresh",
                d.id()
            );
        }
    }
}

/// 20 seeded schedules of the copy-on-write shard protocol's worst case:
/// live `RegisterFilter`s (which `Arc::make_mut` the worker's shard while
/// the supervisor journal still shares it) interleaved with
/// `AllocationUpdate`s (which replace the shard with a fresh `Arc`
/// snapshot) landing mid-drain between queued batches. Whatever the
/// interleaving, every document must be delivered to exactly the filters
/// registered before it in router order — shard sharing is never allowed
/// to make a worker serve a layout it was not shipped.
#[test]
fn registrations_race_arc_shard_refreshes_mid_drain() {
    let mut cfg = SystemConfig::small_test();
    cfg.capacity_per_node = 150; // force real grids
    cfg.refresh_every_docs = 4; // refreshes land between the registrations
    let filters = random_filters(160, 50, 0xA2C);
    let docs = random_docs(24, 60, 10, 0xD0C2);
    let (pre, live) = filters.split_at(filters.len() / 2);
    let script = interleaved_script(live, &docs);
    let expected = expected_sets(pre, &script);

    for seed in 700..720u64 {
        let mut scheme = MoveScheme::new(cfg.clone()).expect("valid config");
        for f in pre {
            scheme.register(f).expect("register");
        }
        scheme.observe_corpus(&docs);
        scheme.allocate().expect("allocate");
        let icfg = InterleaveConfig {
            match_lanes: 1,
            seed,
            mailbox_capacity: 2,
            overflow: OverflowPolicy::Block,
            batch_size: 1,
            ..InterleaveConfig::default()
        };
        let out = run_schedule(Box::new(scheme), script.clone(), &icfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            out.report.allocation_updates > 0,
            "seed {seed}: no refresh landed, the race was not exercised"
        );
        for d in &docs {
            let got = out.delivered.get(&d.id()).cloned().unwrap_or_default();
            assert_eq!(
                &got,
                &expected[&d.id()],
                "seed {seed}: doc {} wrong across register/refresh race",
                d.id()
            );
        }
    }
}

/// 36 fault schedules (3 schemes × 12 seeds) under restart supervision:
/// two seeded crashes land mid-publish-stream and late (crash-during-drain
/// at shutdown), plus a scheduling delay and a racing `Restart`. The
/// supervisor must restart the dead workers from their registration
/// journals, and delivery must be exactly at-most-once: sound everywhere,
/// exact for every document that lost no task, books balanced exactly.
#[test]
fn crash_with_restart_is_at_most_once() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(120, 50, 0xA11);
    let docs = random_docs(20, 60, 10, 0xD0C);
    let (pre, live) = filters.split_at(filters.len() / 2);
    let base_script = interleaved_script(live, &docs);
    let expected = expected_sets(pre, &base_script);

    for kind in [Kind::Move, Kind::Il, Kind::Rs] {
        let mut total_restarts = 0u64;
        for seed in 300..312u64 {
            let mut scheme = build(&kind, &cfg);
            for f in pre {
                scheme.register(f).expect("register");
            }
            let nodes = scheme.cluster().len() as u32;
            let name = scheme.name();
            let a = NodeId(seed as u32 % nodes);
            let b = NodeId((seed as u32 + 1) % nodes);
            let mut script = base_script.clone();
            let len = script.len();
            // Inserting fault ops shifts no register/publish past another,
            // so `expected` (computed on the fault-free script) still holds.
            script.insert(2 * len / 3, ScriptOp::Crash(b));
            script.insert(len / 3, ScriptOp::Delay { node: b, steps: 4 });
            script.insert(seed as usize % len, ScriptOp::Crash(a));
            script.push(ScriptOp::Restart(a));
            let icfg = InterleaveConfig {
                match_lanes: 1,
                seed,
                mailbox_capacity: 1 + (seed as usize % 3),
                overflow: OverflowPolicy::Block,
                batch_size: 1 + (seed as usize % 2),
                ..InterleaveConfig::default()
            };
            let out = run_schedule(scheme, script, &icfg)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert!(
                out.shed_docs.is_empty(),
                "{name} seed {seed}: Block must not shed"
            );
            assert_eq!(out.report.docs_published, docs.len() as u64);
            assert_at_most_once(&format!("{name} seed {seed}"), &expected, &out);
            total_restarts += out.report.restarts;
        }
        assert!(
            total_restarts > 0,
            "the 12-seed sweep never exercised a supervised restart"
        );
    }
}

/// 30 fault schedules of allocated MOVE (real replica grids) under the
/// failover policy: two crashes mid-stream, no restarts allowed. Stranded
/// documents must be re-routed through the scheme — which fails the hop
/// over to live replica rows — with zero false deliveries and balanced
/// books, and the sweep must actually exercise the failover path.
#[test]
fn failover_reroutes_documents_to_replicas() {
    let mut cfg = SystemConfig::small_test();
    cfg.capacity_per_node = 150; // force real grids (replica rows)
    let filters = random_filters(200, 50, 0xF41);
    let sample = random_docs(30, 60, 10, 0x5A);
    let docs = random_docs(25, 60, 10, 0xD0C);
    let base_script: Vec<ScriptOp> = docs.iter().map(|d| ScriptOp::Publish(d.clone())).collect();
    let expected = expected_sets(&filters, &base_script);

    let mut any_failover = false;
    for seed in 400..430u64 {
        let mut scheme = MoveScheme::new(cfg.clone()).expect("valid config");
        for f in &filters {
            scheme.register(f).expect("register");
        }
        scheme.observe_corpus(&sample);
        scheme.allocate().expect("allocate");
        let nodes = scheme.cluster().len() as u32;
        let a = NodeId(seed as u32 % nodes);
        let b = NodeId((seed as u32 + 3) % nodes);
        let mut script = base_script.clone();
        script.insert(15, ScriptOp::Crash(b));
        script.insert(1 + seed as usize % 10, ScriptOp::Crash(a));
        let icfg = InterleaveConfig {
            match_lanes: 1,
            seed,
            mailbox_capacity: 2,
            overflow: OverflowPolicy::Block,
            batch_size: 1 + (seed as usize % 2),
            lane_cost_target: 1,
            supervision: SupervisionPolicy::failover(),
        };
        let out = run_schedule(Box::new(scheme), script, &icfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_sound(&format!("move seed {seed}"), &expected, &out);
        assert_eq!(
            out.report.restarts, 0,
            "seed {seed}: the failover policy must never restart"
        );
        any_failover |= out.report.failovers > 0;
    }
    assert!(
        any_failover,
        "the 30-seed sweep never exercised the failover path"
    );
}

/// 40 schedules (2 schemes × 20 seeds) of a routing snapshot pinned across
/// in-flight publishes: `PinView` freezes the router's view for the next N
/// documents, a live registration lands mid-pin, and the schedule races
/// worker drains against the stale-epoch routing. The registered filter's
/// term is outside the pre-registered vocabulary, so the stale bloom prunes
/// it **deterministically**: every pinned document is delivered to exactly
/// the pre-registration match set (the new filter is installed on its
/// workers but unreachable), and the first post-expiry document onward is
/// delivered to exactly the full set — the bracketing oracle for
/// stale-snapshot routing, collapsed to equalities by construction.
#[test]
fn stale_snapshot_suppresses_unpublished_terms_until_refresh() {
    const PINNED: usize = 8;
    let cfg = SystemConfig::small_test();
    let pre = random_filters(120, 50, 0xA11);
    let fresh_term = TermId(1_000); // outside every pre-filter's vocabulary
    let fresh = Filter::new(FilterId(9_999), [fresh_term]);

    // Every document carries the fresh term, so the fresh filter matches
    // all of them — once the view catches up.
    let docs: Vec<move_types::Document> = random_docs(16, 50, 9, 0xD0C)
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            move_types::Document::from_distinct_terms(
                i as u64,
                d.terms().iter().copied().chain([fresh_term]),
            )
        })
        .collect();

    let mut script: Vec<ScriptOp> = vec![
        ScriptOp::PinView {
            docs: PINNED as u64,
        },
        ScriptOp::Register(fresh.clone()),
    ];
    script.extend(docs.iter().map(|d| ScriptOp::Publish(d.clone())));

    for kind in [Kind::Move, Kind::Il] {
        for seed in 600..620u64 {
            let mut scheme = build(&kind, &cfg);
            for f in &pre {
                scheme.register(f).expect("register");
            }
            let name = scheme.name();
            let icfg = InterleaveConfig {
                match_lanes: 1,
                seed,
                mailbox_capacity: 1 + (seed as usize % 3),
                overflow: OverflowPolicy::Block,
                batch_size: 1 + (seed as usize % 2),
                ..InterleaveConfig::default()
            };
            let out = run_schedule(scheme, script.clone(), &icfg)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert!(out.shed_docs.is_empty(), "{name} shed under Block");
            for (i, d) in docs.iter().enumerate() {
                let mut want: BTreeSet<FilterId> = brute_force(&pre, d, MatchSemantics::Boolean)
                    .into_iter()
                    .collect();
                if i >= PINNED {
                    // The pin expired with the PINNED-th publish; the
                    // refreshed bloom now admits the fresh term.
                    want.insert(fresh.id());
                }
                let got = out.delivered.get(&d.id()).cloned().unwrap_or_default();
                assert_eq!(
                    &got,
                    &want,
                    "{name} seed {seed}: doc {} (pinned={}) wrong under stale view",
                    d.id(),
                    i < PINNED
                );
            }
        }
    }
}

/// 20 schedules of the pin-vs-refresh race on allocated MOVE: the view is
/// pinned for far longer than the stream, but the allocation-refresh cycle
/// fires mid-pin — and a refresh **clears the pin early** (the control
/// plane never lets a re-allocated grid ship under a stale epoch). The
/// fresh filter is therefore suppressed exactly up to the first refresh
/// boundary and delivered exactly from the next document on.
#[test]
fn stale_snapshot_pin_is_cleared_by_an_allocation_refresh() {
    const REFRESH_EVERY: u64 = 6;
    let mut cfg = SystemConfig::small_test();
    cfg.capacity_per_node = 150; // force real grids
    cfg.refresh_every_docs = REFRESH_EVERY;
    let pre = random_filters(150, 50, 0xA11C);
    let fresh_term = TermId(1_000);
    let fresh = Filter::new(FilterId(9_999), [fresh_term]);
    let sample = random_docs(30, 60, 10, 0x5A);
    let docs: Vec<move_types::Document> = random_docs(18, 50, 9, 0xD0C3)
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            move_types::Document::from_distinct_terms(
                i as u64,
                d.terms().iter().copied().chain([fresh_term]),
            )
        })
        .collect();

    let mut script: Vec<ScriptOp> = vec![
        // Pinned past the end of the stream: only a refresh can unpin.
        ScriptOp::PinView { docs: 1_000 },
        ScriptOp::Register(fresh.clone()),
    ];
    script.extend(docs.iter().map(|d| ScriptOp::Publish(d.clone())));

    for seed in 650..670u64 {
        let mut scheme = MoveScheme::new(cfg.clone()).expect("valid config");
        for f in &pre {
            scheme.register(f).expect("register");
        }
        scheme.observe_corpus(&sample);
        scheme.allocate().expect("allocate");
        let icfg = InterleaveConfig {
            match_lanes: 1,
            seed,
            mailbox_capacity: 2,
            overflow: OverflowPolicy::Block,
            batch_size: 1 + (seed as usize % 2),
            ..InterleaveConfig::default()
        };
        let out = run_schedule(Box::new(scheme), script.clone(), &icfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            out.report.allocation_updates > 0,
            "seed {seed}: no refresh fired, the pin was never cleared"
        );
        for (i, d) in docs.iter().enumerate() {
            let mut want: BTreeSet<FilterId> = brute_force(&pre, d, MatchSemantics::Boolean)
                .into_iter()
                .collect();
            // The refresh lands inside publish #REFRESH_EVERY, after that
            // document was already routed under the stale view — so the
            // fresh filter reaches document REFRESH_EVERY+1 onward.
            if i as u64 >= REFRESH_EVERY {
                want.insert(fresh.id());
            }
            let got = out.delivered.get(&d.id()).cloned().unwrap_or_default();
            assert_eq!(
                &got,
                &want,
                "seed {seed}: doc {} wrong across the pin/refresh boundary",
                d.id()
            );
        }
    }
}

/// 48 schedules (3 schemes × 16 seeds) of a node join landing mid-drain:
/// the join is staged a third of the way into the stream (worker mailboxes
/// still holding pre-join batches), the handover window spans a third of
/// the publishes, and the commit lands with batches in flight again. The
/// delivery-set-equivalence property: whatever the schedule, every document
/// is delivered to exactly the brute-force set — identical to what the same
/// script produces with the join ops stripped, i.e. pre-join ≡
/// post-join+rebalance ≡ brute force.
#[test]
fn join_during_drain_preserves_exact_delivery() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(120, 50, 0xA11);
    let docs = random_docs(21, 60, 10, 0xD0C);
    let (pre, live) = filters.split_at(filters.len() / 2);
    let base_script = interleaved_script(live, &docs);
    let expected = expected_sets(pre, &base_script);

    for kind in [Kind::Move, Kind::Il, Kind::Rs] {
        let mut moved_any = false;
        for seed in 800..816u64 {
            let mut scheme = build(&kind, &cfg);
            for f in pre {
                scheme.register(f).expect("register");
            }
            let name = scheme.name();
            let mut script = base_script.clone();
            let len = script.len();
            // Inserting join ops shifts no register/publish past another,
            // so `expected` (computed on the join-free script) still holds.
            script.insert(2 * len / 3, ScriptOp::CommitJoin);
            script.insert(len / 3, ScriptOp::Join);
            let icfg = InterleaveConfig {
                match_lanes: 1,
                seed,
                mailbox_capacity: 1 + (seed as usize % 3),
                overflow: OverflowPolicy::Block,
                batch_size: 1 + (seed as usize % 2),
                ..InterleaveConfig::default()
            };
            let out = run_schedule(scheme, script, &icfg)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert!(out.shed_docs.is_empty(), "{name} shed under Block");
            assert!(out.lost_docs.is_empty(), "{name} lost docs with no crash");
            assert_eq!(
                out.report.joins, 1,
                "{name} seed {seed}: join not committed"
            );
            moved_any |= out.report.partitions_moved > 0;
            for d in &docs {
                let got = out.delivered.get(&d.id()).cloned().unwrap_or_default();
                assert_eq!(
                    &got,
                    &expected[&d.id()],
                    "{name} seed {seed}: doc {} wrong across the join",
                    d.id()
                );
            }
        }
        // RS streams nothing by design (flooded groups); the partition
        // schemes must actually re-home partitions onto the joiner.
        if !matches!(kind, Kind::Rs) {
            assert!(moved_any, "the sweep never moved a partition on a join");
        }
    }
}

/// 20 schedules of a join racing MOVE's allocation-refresh cycle: a short
/// refresh period fires re-allocations before, inside, and after the
/// handover window, so `AllocationUpdate`s (whole-shard replacement) and
/// the join's `InstallPartitions`/`RetirePartitions` land interleaved in
/// the same mailboxes. Delivery must stay exact on every schedule, and
/// both machineries must actually fire.
#[test]
fn join_races_an_allocation_refresh() {
    let mut cfg = SystemConfig::small_test();
    cfg.capacity_per_node = 150; // force real grids
    cfg.refresh_every_docs = 5; // several refreshes inside the script
    let filters = random_filters(200, 50, 0xA110C);
    let sample = random_docs(30, 60, 10, 0x5A);
    let docs = random_docs(24, 60, 10, 0xD0C);
    let base_script: Vec<ScriptOp> = docs.iter().map(|d| ScriptOp::Publish(d.clone())).collect();
    let expected = expected_sets(&filters, &base_script);

    for seed in 830..850u64 {
        let mut scheme = MoveScheme::new(cfg.clone()).expect("valid config");
        for f in &filters {
            scheme.register(f).expect("register");
        }
        scheme.observe_corpus(&sample);
        scheme.allocate().expect("allocate");
        let mut script = base_script.clone();
        let len = script.len();
        script.insert(2 * len / 3, ScriptOp::CommitJoin);
        script.insert(len / 3, ScriptOp::Join);
        let icfg = InterleaveConfig {
            match_lanes: 1,
            seed,
            mailbox_capacity: 2,
            overflow: OverflowPolicy::Block,
            batch_size: 1,
            ..InterleaveConfig::default()
        };
        let out = run_schedule(Box::new(scheme), script, &icfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            out.report.allocation_updates > 0,
            "seed {seed}: the refresh cycle never fired"
        );
        assert_eq!(out.report.joins, 1, "seed {seed}: join not committed");
        for d in &docs {
            let got = out.delivered.get(&d.id()).cloned().unwrap_or_default();
            assert_eq!(
                &got,
                &expected[&d.id()],
                "seed {seed}: doc {} wrong across the join/refresh race",
                d.id()
            );
        }
    }
}

/// 32 fault schedules (2 schemes × 16 seeds) of the joining node crashing
/// inside its handover window, under the failover policy (no restarts).
/// The commit must refuse to retire the old copies — there is no rollback,
/// the old homes simply keep serving — so deliveries stay sound and every
/// document that lost no queued task to the crash drain is delivered
/// exactly (the moved terms' matches come from their old homes via the
/// double-route).
#[test]
fn crash_of_joining_node_keeps_old_homes_serving() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(120, 50, 0xA11);
    let docs = random_docs(20, 60, 10, 0xD0C);
    let base_script: Vec<ScriptOp> = docs.iter().map(|d| ScriptOp::Publish(d.clone())).collect();
    let expected = expected_sets(&filters, &base_script);
    let joiner = NodeId(cfg.nodes as u32); // joins always append

    for kind in [Kind::Move, Kind::Il] {
        let mut any_crash_won = false;
        for seed in 860..876u64 {
            let mut scheme = build(&kind, &cfg);
            for f in &filters {
                scheme.register(f).expect("register");
            }
            let name = scheme.name();
            let mut script = base_script.clone();
            let len = script.len();
            script.insert(3 * len / 4, ScriptOp::CommitJoin);
            script.insert(len / 2, ScriptOp::Crash(joiner));
            script.insert(len / 4, ScriptOp::Join);
            let icfg = InterleaveConfig {
                match_lanes: 1,
                seed,
                mailbox_capacity: 2,
                overflow: OverflowPolicy::Block,
                batch_size: 1 + (seed as usize % 2),
                lane_cost_target: 1,
                supervision: SupervisionPolicy::failover(),
            };
            let out = run_schedule(scheme, script, &icfg)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert_at_most_once(&format!("{name} seed {seed}"), &expected, &out);
            // The dead joiner must have blocked the commit: no retirement,
            // no counted join.
            assert_eq!(
                out.report.joins, 0,
                "{name} seed {seed}: committed a join whose node died"
            );
            any_crash_won |= !out.lost_docs.is_empty() || out.report.failovers > 0;
        }
        assert!(
            any_crash_won,
            "{kind}: the sweep never actually killed the joiner mid-window",
            kind = match kind {
                Kind::Move => "move",
                Kind::Il => "il",
                Kind::Rs => "rs",
            }
        );
    }
}

/// 36 fault schedules (3 schemes × 12 seeds) of the failover-then-return
/// transition: a node is crashed mid-stream under the failover policy,
/// traffic routes around the corpse, then the node is restarted from its
/// journal and readmitted to the membership. On every schedule where the
/// revival actually fired (the crash won the race to the `Restart` op),
/// documents published after the cluster healed must be delivered exactly.
#[test]
fn failover_then_original_node_returns() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(120, 50, 0xA11);
    let docs = random_docs(20, 60, 10, 0xD0C);
    let expected = expected_sets(
        &filters,
        &docs
            .iter()
            .map(|d| ScriptOp::Publish(d.clone()))
            .collect::<Vec<_>>(),
    );

    for kind in [Kind::Move, Kind::Il, Kind::Rs] {
        let mut healed_seeds = 0u32;
        for seed in 500..512u64 {
            let mut scheme = build(&kind, &cfg);
            for f in &filters {
                scheme.register(f).expect("register");
            }
            let nodes = scheme.cluster().len() as u32;
            let name = scheme.name();
            let victim = NodeId(seed as u32 % nodes);
            let mut script: Vec<ScriptOp> = Vec::with_capacity(docs.len() + 2);
            for (i, d) in docs.iter().enumerate() {
                if i == 12 {
                    script.push(ScriptOp::Crash(victim));
                }
                if i == 16 {
                    script.push(ScriptOp::Restart(victim));
                }
                script.push(ScriptOp::Publish(d.clone()));
            }
            let icfg = InterleaveConfig {
                match_lanes: 1,
                seed,
                mailbox_capacity: 2,
                overflow: OverflowPolicy::Block,
                batch_size: 1,
                lane_cost_target: 1,
                supervision: SupervisionPolicy::failover(),
            };
            let out = run_schedule(scheme, script, &icfg)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert_sound(&format!("{name} seed {seed}"), &expected, &out);
            if out.report.restarts >= 1 {
                healed_seeds += 1;
                // The cluster is whole again: the tail must be exact.
                for d in &docs[16..] {
                    if out.lost_docs.contains(&d.id()) || out.shed_docs.contains(&d.id()) {
                        continue;
                    }
                    let got = out.delivered.get(&d.id()).cloned().unwrap_or_default();
                    assert_eq!(
                        &got,
                        &expected[&d.id()],
                        "{name} seed {seed}: post-revival doc {} incomplete",
                        d.id()
                    );
                }
            }
        }
        assert!(
            healed_seeds > 0,
            "the 12-seed sweep never completed a failover-then-return cycle"
        );
    }
}

/// Inserts a [`ScriptOp::Drain`] after every publish whose position
/// (counted over publishes) is congruent to `phase` modulo `every`, so a
/// seed sweep moves the drains across every gap between a publish and the
/// transition that follows it.
fn with_drains(script: Vec<ScriptOp>, every: usize, phase: usize) -> Vec<ScriptOp> {
    let mut out = Vec::with_capacity(script.len() * 2);
    let mut publishes = 0usize;
    for op in script {
        let published = matches!(op, ScriptOp::Publish(_));
        out.push(op);
        if published {
            if publishes % every == phase % every {
                out.push(ScriptOp::Drain);
            }
            publishes += 1;
        }
    }
    out
}

/// 24 schedules of drain × allocation refresh on allocated MOVE: with
/// three-task batches the router holds buffered tasks when a drain fires,
/// and the sweep lands drains directly before and directly after the
/// publishes that trigger a refresh. A drain may only move a batch
/// *earlier* in its mailbox, never past the `AllocationUpdate` that
/// follows it, so delivery stays exact and every dispatched task executes.
#[test]
fn drain_between_publish_and_allocation_refresh() {
    let mut cfg = SystemConfig::small_test();
    cfg.capacity_per_node = 150; // force real grids
    cfg.refresh_every_docs = 5; // several refreshes inside the script
    let filters = random_filters(200, 50, 0xA110C);
    let sample = random_docs(30, 60, 10, 0x5A);
    let docs = random_docs(25, 60, 10, 0xD0C);
    let base: Vec<ScriptOp> = docs.iter().map(|d| ScriptOp::Publish(d.clone())).collect();
    let expected = oracle_sets(&filters, &docs);

    for seed in 900..924u64 {
        let mut scheme = MoveScheme::new(cfg.clone()).expect("valid config");
        for f in &filters {
            scheme.register(f).expect("register");
        }
        scheme.observe_corpus(&sample);
        scheme.allocate().expect("allocate");
        let script = with_drains(base.clone(), 2 + seed as usize % 3, seed as usize);
        let icfg = InterleaveConfig {
            seed,
            mailbox_capacity: 2,
            batch_size: 3,
            ..InterleaveConfig::default()
        };
        let out = run_schedule(Box::new(scheme), script, &icfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(out.report.allocation_updates > 0, "seed {seed}: no refresh");
        assert!(
            out.report.flushes.drain > 0,
            "seed {seed}: no drain found anything buffered"
        );
        assert_at_most_once(&format!("move seed {seed}"), &expected, &out);
        assert!(out.lost_docs.is_empty() && out.shed_docs.is_empty());
    }
}

/// 36 schedules (3 schemes × 12 seeds) of drains inside a join's handover
/// window: one drain directly after the join is staged (buffered tasks
/// routed under the old layout meet the grown cluster), one directly
/// before the commit, and a seeded sprinkle in between. Exact delivery on
/// every schedule, and the join still commits.
#[test]
fn drain_inside_a_join_handover_window() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(120, 50, 0xA11);
    let docs = random_docs(21, 60, 10, 0xD0C);
    let (pre, live) = filters.split_at(filters.len() / 2);
    let base_script = interleaved_script(live, &docs);
    let expected = expected_sets(pre, &base_script);

    for kind in [Kind::Move, Kind::Il, Kind::Rs] {
        let mut drained = 0u64;
        for seed in 930..942u64 {
            let mut scheme = build(&kind, &cfg);
            for f in pre {
                scheme.register(f).expect("register");
            }
            let name = scheme.name();
            let mut script = base_script.clone();
            let len = script.len();
            // Highest index first, so the earlier positions stay valid.
            script.insert(2 * len / 3, ScriptOp::CommitJoin);
            script.insert(2 * len / 3, ScriptOp::Drain);
            script.insert(len / 3, ScriptOp::Drain);
            script.insert(len / 3, ScriptOp::Join);
            let script = with_drains(script, 4, seed as usize);
            let icfg = InterleaveConfig {
                seed,
                mailbox_capacity: 1 + (seed as usize % 3),
                batch_size: 3 + (seed as usize % 2),
                ..InterleaveConfig::default()
            };
            let out = run_schedule(scheme, script, &icfg)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert_eq!(
                out.report.joins, 1,
                "{name} seed {seed}: join not committed"
            );
            assert_at_most_once(&format!("{name} seed {seed}"), &expected, &out);
            assert!(out.lost_docs.is_empty() && out.shed_docs.is_empty());
            drained += out.report.flushes.drain;
        }
        assert!(drained > 0, "the sweep never drained a buffered batch");
    }
}

/// 72 fault schedules (3 schemes × 12 seeds × both supervision stances) of
/// a drain racing a crash: the victim is crashed mid-stream with tasks
/// still buffered for it in the router, and the next drain is the send
/// that discovers the corpse — so the drain flush itself drives the
/// supervised restart-and-resend, or the failover re-route whose tasks
/// land back in buffers the same sweep must also empty. A `Restart` later
/// returns the node. At-most-once under restarts, sound under failover,
/// books exact under both.
#[test]
fn drain_discovers_a_crash_and_survives_the_restart() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(120, 50, 0xA11);
    let docs = random_docs(24, 60, 10, 0xD0C);
    let expected = oracle_sets(&filters, &docs);

    for supervision in [SupervisionPolicy::default(), SupervisionPolicy::failover()] {
        for kind in [Kind::Move, Kind::Il, Kind::Rs] {
            let mut recovered = 0u64;
            for seed in 950..962u64 {
                let mut scheme = build(&kind, &cfg);
                for f in &filters {
                    scheme.register(f).expect("register");
                }
                let nodes = scheme.cluster().len() as u32;
                let name = scheme.name();
                let victim = NodeId(seed as u32 % nodes);
                let mut script = Vec::new();
                for (i, d) in docs.iter().enumerate() {
                    script.push(ScriptOp::Publish(d.clone()));
                    if i == 8 + seed as usize % 4 {
                        script.push(ScriptOp::Crash(victim));
                        script.push(ScriptOp::Drain);
                    }
                    if i == 17 {
                        script.push(ScriptOp::Restart(victim));
                        script.push(ScriptOp::Drain);
                    }
                }
                let script = with_drains(script, 3, seed as usize);
                let icfg = InterleaveConfig {
                    seed,
                    mailbox_capacity: 2,
                    batch_size: 3,
                    supervision: SupervisionPolicy {
                        backoff: std::time::Duration::ZERO,
                        ..supervision
                    },
                    ..InterleaveConfig::default()
                };
                let out = run_schedule(scheme, script, &icfg)
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                let label = format!("{name} seed {seed} restart={}", supervision.restart);
                if supervision.restart {
                    assert_at_most_once(&label, &expected, &out);
                } else {
                    assert_sound(&label, &expected, &out);
                }
                assert!(out.report.flushes.drain > 0, "{label}: nothing drained");
                recovered += out.report.restarts + out.report.failovers;
            }
            assert!(recovered > 0, "the sweep never hit the dead worker");
        }
    }
}

/// 36 schedules (3 schemes × 12 seeds) of drains under `Shed` at mailbox
/// capacity 1: a drain that finds the mailbox full sheds the whole
/// buffered batch, exactly like a limit flush would. Deliveries stay
/// sound, documents that lost no batch are complete, and the books
/// balance against the same script's `Block` twin, which routes the
/// identical tasks and sheds none: `routed = dispatched + shed`,
/// `dispatched = executed`.
#[test]
fn drain_at_a_full_mailbox_sheds_and_balances_the_books() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(120, 50, 0xA11);
    let docs = random_docs(24, 60, 10, 0xD0C);
    let base: Vec<ScriptOp> = docs.iter().map(|d| ScriptOp::Publish(d.clone())).collect();
    let expected = oracle_sets(&filters, &docs);

    for kind in [Kind::Move, Kind::Il, Kind::Rs] {
        let mut shed_total = 0u64;
        for seed in 970..982u64 {
            let script = with_drains(base.clone(), 2, seed as usize);
            let run = |overflow| {
                let mut scheme = build(&kind, &cfg);
                for f in &filters {
                    scheme.register(f).expect("register");
                }
                let icfg = InterleaveConfig {
                    seed,
                    mailbox_capacity: 1,
                    overflow,
                    batch_size: 3,
                    ..InterleaveConfig::default()
                };
                run_schedule(scheme, script.clone(), &icfg)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
            };
            let block = run(OverflowPolicy::Block);
            let shed = run(OverflowPolicy::Shed);
            let label = format!("{} seed {seed}", shed.report.scheme);
            assert_eq!(block.report.tasks_shed, 0, "{label}: Block shed");
            assert_eq!(
                shed.report.tasks_dispatched + shed.report.tasks_shed,
                block.report.tasks_dispatched,
                "{label}: every routed task is dispatched or counted shed"
            );
            // Sound, exact for every non-shed document, dispatched = executed.
            assert_at_most_once(&label, &expected, &shed);
            assert!(shed.report.flushes.drain > 0, "{label}: nothing drained");
            shed_total += shed.report.tasks_shed;
        }
        assert!(shed_total > 0, "the sweep never shed at a full mailbox");
    }
}

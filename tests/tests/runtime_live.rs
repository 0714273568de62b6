//! The live engine's core invariant: under real concurrency — OS-thread
//! workers, bounded mailboxes, batching, allocation refreshes — the union
//! of filters delivered by `move-runtime` equals the brute-force match set,
//! for every scheme. Plus the backpressure stress case: tiny blocking
//! mailboxes must neither deadlock nor lose deliveries.

use move_core::{Dissemination, IlScheme, MoveScheme, RsScheme, SystemConfig};
use move_index::brute_force;
use move_integration_tests::{random_docs, random_filters};
use move_runtime::{Engine, OverflowPolicy, RuntimeConfig, RuntimeReport};
use move_types::{Document, Filter, FilterId, MatchSemantics};
use std::collections::BTreeMap;
use std::time::Duration;

fn schemes(cfg: &SystemConfig) -> Vec<Box<dyn Dissemination + Send>> {
    vec![
        Box::new(MoveScheme::new(cfg.clone()).expect("valid config")),
        Box::new(IlScheme::new(cfg.clone()).expect("valid config")),
        Box::new(RsScheme::new(cfg.clone()).expect("valid config")),
    ]
}

/// Tiny mailboxes and batches so every publish crosses the backpressure
/// machinery instead of hiding in slack capacity.
fn tight_config() -> RuntimeConfig {
    RuntimeConfig {
        mailbox_capacity: 2,
        command_capacity: 4,
        overflow: OverflowPolicy::Block,
        batch_size: 3,
        flush_interval: Duration::from_millis(1),
        ..RuntimeConfig::default()
    }
}

/// A fault-free run must report a quiet supervisor: no worker was ever
/// restarted, no document failed over, nothing was lost. Asserted on the
/// drained-engine report `shutdown()` returns, so it covers the full run.
fn assert_fault_free(name: &str, report: &RuntimeReport) {
    assert_eq!(report.restarts, 0, "{name}: restart in a fault-free run");
    assert_eq!(report.retries, 0, "{name}: retry in a fault-free run");
    assert_eq!(report.failovers, 0, "{name}: failover in a fault-free run");
    assert_eq!(
        report.tasks_lost, 0,
        "{name}: lost tasks in a fault-free run"
    );
}

/// Runs `engine.shutdown()` under a watchdog so a drain that wedges shows
/// up as a bounded, descriptive panic instead of a CI-level timeout. The
/// limit is a *bound*, not a sleep — the happy path returns the moment the
/// drain completes.
fn shutdown_within(engine: Engine, limit: Duration) -> RuntimeReport {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(engine.shutdown());
    });
    match rx.recv_timeout(limit) {
        Ok(result) => result.expect("clean shutdown"),
        Err(_) => panic!("engine shutdown exceeded {limit:?}: deadlock suspected"),
    }
}

#[test]
fn runtime_union_equals_brute_force_for_all_schemes() {
    for seed in [3u64, 11, 42] {
        let cfg = SystemConfig::small_test();
        let filters = random_filters(250, 80, seed);
        let docs = random_docs(30, 100, 20, seed ^ 0xD0C);
        // Half the filters pre-registered (cloned into the worker shards at
        // start), half registered live through the engine.
        let (pre, live) = filters.split_at(filters.len() / 2);
        for mut scheme in schemes(&cfg) {
            for f in pre {
                scheme.register(f).expect("register");
            }
            let name = scheme.name();
            let engine = Engine::start(scheme, tight_config()).expect("engine starts");
            for f in live {
                engine.register(f.clone());
            }
            for d in &docs {
                let got = engine.publish_sync(d.clone());
                let want = brute_force(&filters, d, MatchSemantics::Boolean);
                assert_eq!(got, want, "{name} diverged on doc {} (seed {seed})", d.id());
            }
            let report = engine.shutdown().expect("clean shutdown");
            assert_eq!(report.scheme, name);
            assert_eq!(report.docs_published, docs.len() as u64);
            assert_eq!(report.tasks_shed, 0, "Block policy never sheds");
            assert_fault_free(name, &report);
        }
    }
}

#[test]
fn runtime_move_stays_complete_across_allocation_refreshes() {
    let mut cfg = SystemConfig::small_test();
    cfg.capacity_per_node = 150; // force real grids
    cfg.refresh_every_docs = 25; // several refresh cycles within the stream
    let seed = 7u64;
    let mut filters = random_filters(300, 60, seed);
    // Skew: every third filter contains term 0, giving the optimizer a hot
    // term worth replicating.
    for (i, f) in filters.iter_mut().enumerate() {
        if i % 3 == 0 {
            *f = Filter::new(
                f.id(),
                f.terms().iter().copied().chain([move_types::TermId(0)]),
            );
        }
    }
    let sample = random_docs(40, 70, 10, seed ^ 0x5A);
    let docs = random_docs(120, 70, 12, seed ^ 0xD0C);

    let mut scheme = MoveScheme::new(cfg).expect("valid config");
    for f in &filters {
        scheme.register(f).expect("register");
    }
    scheme.observe_corpus(&sample);
    scheme.allocate().expect("allocate");

    let engine = Engine::start(Box::new(scheme), tight_config()).expect("engine starts");
    for d in &docs {
        let got = engine.publish_sync(d.clone());
        let want = brute_force(&filters, d, MatchSemantics::Boolean);
        assert_eq!(got, want, "move diverged on doc {}", d.id());
    }
    let report = engine.shutdown().expect("clean shutdown");
    assert_fault_free("move", &report);
    assert!(
        report.allocation_updates > 0,
        "the stream must have re-shipped shards at least once \
         ({} docs, refresh every 25)",
        docs.len()
    );
}

/// The ISSUE's stress bar: ≥4 nodes, ≥10k documents, small bounded
/// mailboxes under the blocking policy — the run must terminate (no
/// deadlock) and deliver exactly the brute-force set for every document
/// (nothing lost, including work still queued when shutdown starts).
#[test]
fn stress_blocking_backpressure_loses_nothing() {
    let cfg = SystemConfig::small_test(); // 6 nodes over 2 racks
    let seed = 0xBEEF;
    let filters = random_filters(300, 50, seed);
    let docs = random_docs(10_000, 60, 8, seed ^ 0xD0C);

    for mut scheme in schemes(&cfg) {
        for f in &filters {
            scheme.register(f).expect("register");
        }
        let name = scheme.name();
        let engine = Engine::start(scheme, tight_config()).expect("engine starts");
        let deliveries = engine.deliveries();
        for d in &docs {
            engine.publish(d.clone());
        }
        // No flush: shutdown itself must drain every queued batch, within
        // a watchdog bound so a backpressure deadlock fails fast.
        let report = shutdown_within(engine, Duration::from_secs(120));
        assert_eq!(report.docs_published, docs.len() as u64);
        assert_eq!(report.tasks_shed, 0);
        assert_fault_free(name, &report);

        let mut by_doc: BTreeMap<_, Vec<FilterId>> = BTreeMap::new();
        for d in deliveries.try_iter() {
            by_doc.entry(d.doc).or_default().extend(d.matched);
        }
        for d in &docs {
            let want = brute_force(&filters, d, MatchSemantics::Boolean);
            let mut got = by_doc.remove(&d.id()).unwrap_or_default();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, want, "{name} lost deliveries for doc {}", d.id());
        }
        assert!(by_doc.is_empty(), "{name} delivered for unknown docs");
    }
}

/// Live control-plane churn (DESIGN.md §12): subscribers register,
/// re-register with different predicates (displacement), and unregister
/// while documents stream through the running engine. Predicates come from
/// a small shared pool, so most registrations alias a live canonical and
/// take the Subscribe-broadcast fast path; unregistering the last
/// subscriber of a canonical takes the full RemoveCanonical path. Every
/// publish must still deliver exactly the brute-force set over the live
/// subscriber population, and the report's churn counters must balance.
#[test]
fn live_churn_stays_exact_and_counts_balance() {
    let pool: Vec<Vec<move_types::TermId>> = (0..8)
        .map(|i| {
            (0..1 + i % 3)
                .map(|k| move_types::TermId(((i * 5 + k * 7) % 20) as u32))
                .collect()
        })
        .collect();
    for seed in [2u64, 19] {
        let cfg = {
            let mut c = SystemConfig::small_test();
            c.seed = seed;
            c
        };
        let docs = random_docs(60, 20, 6, seed ^ 0xD0C);
        for mut scheme in schemes(&cfg) {
            // A few static subscribers registered before start, cloned into
            // the worker shards (two share pool predicate 0 → aggregated).
            let mut model: BTreeMap<u64, Filter> = BTreeMap::new();
            for s in 0..4u64 {
                let f = Filter::new(s, pool[(s as usize) % 2].iter().copied());
                scheme.register(&f).expect("register");
                model.insert(s, f);
            }
            let name = scheme.name();
            let engine = Engine::start(scheme, tight_config()).expect("engine starts");
            let mut expected_regs = 0u64;
            let mut expected_unregs = 0u64;
            for (i, d) in docs.iter().enumerate() {
                // Deterministic churn weave: register (often aliasing),
                // displace, or unregister between publishes.
                let step = (seed as usize).wrapping_add(i * 7);
                match step % 4 {
                    0 | 1 => {
                        let s = (step % 12) as u64;
                        let f = Filter::new(s, pool[step % pool.len()].iter().copied());
                        engine.register(f.clone());
                        // Re-registering the identical predicate is a NoOp
                        // on the control plane and does not count.
                        if model.get(&s).map(Filter::terms) != Some(f.terms()) {
                            expected_regs += 1;
                        }
                        model.insert(s, f);
                    }
                    2 => {
                        let s = (step % 12) as u64;
                        engine.unregister(FilterId(s));
                        if model.remove(&s).is_some() {
                            expected_unregs += 1;
                        }
                    }
                    _ => {}
                }
                let got = engine.publish_sync(d.clone());
                let want = brute_force(model.values(), d, MatchSemantics::Boolean);
                assert_eq!(got, want, "{name} diverged on doc {} (seed {seed})", d.id());
            }
            let report = engine.shutdown().expect("clean shutdown");
            assert_fault_free(name, &report);
            assert_eq!(report.registrations, expected_regs, "{name} registrations");
            assert_eq!(
                report.unregistrations, expected_unregs,
                "{name} unregistrations"
            );
            assert!(
                report.canonical_hits > 0,
                "{name}: a shared pool of 8 predicates across 12 subscribers \
                 must alias at least once"
            );
            // Aggregation collapses the live population onto the pool.
            assert_eq!(report.canonical_filters as usize, {
                let distinct: std::collections::BTreeSet<&[move_types::TermId]> =
                    model.values().map(Filter::terms).collect();
                distinct.len()
            });
            assert!(report.aggregation_bytes > 0, "{name}: zero footprint");
        }
    }
}

/// Under `Shed`, overflow drops whole batches but the books still balance:
/// every routed task is either dispatched or counted shed, and whatever was
/// delivered is sound (a subset of the brute-force set per document).
#[test]
fn shed_policy_accounts_for_every_task_and_stays_sound() {
    let cfg = SystemConfig::small_test();
    let seed = 0x5EED;
    // Many filters per posting list make each task slow enough for the
    // router to outrun the tiny mailboxes.
    let filters = random_filters(4_000, 20, seed);
    let docs = random_docs(400, 25, 10, seed ^ 0xD0C);

    let config = RuntimeConfig {
        mailbox_capacity: 1,
        overflow: OverflowPolicy::Shed,
        batch_size: 1,
        ..RuntimeConfig::default()
    };
    let mut scheme: Box<dyn Dissemination + Send> =
        Box::new(RsScheme::new(cfg).expect("valid config"));
    for f in &filters {
        scheme.register(f).expect("register");
    }
    let engine = Engine::start(scheme, config).expect("engine starts");
    let deliveries = engine.deliveries();
    for d in &docs {
        engine.publish(d.clone());
    }
    let report = engine.shutdown().expect("clean shutdown");
    assert_fault_free("rs", &report);
    // RS floods each document to every member of one replica group:
    // 6 nodes over 3 groups = exactly 2 full-index tasks per document.
    assert_eq!(
        report.tasks_dispatched + report.tasks_shed,
        2 * docs.len() as u64,
        "dispatch accounting must cover every routed task"
    );

    let docs_by_id: BTreeMap<_, &Document> = docs.iter().map(|d| (d.id(), d)).collect();
    for delivery in deliveries.try_iter() {
        let doc = docs_by_id[&delivery.doc];
        let want = brute_force(&filters, doc, MatchSemantics::Boolean);
        for f in &delivery.matched {
            assert!(
                want.contains(f),
                "unsound delivery {f} for doc {}",
                doc.id()
            );
        }
    }
}

/// Busy periods still batch: a 5 000-document burst keeps the router's
/// command queue non-empty, so the drain rule stays out of the way, the
/// adaptive limit grows, and the workers handle far fewer mailbox messages
/// than document tasks — while a work-conserving dispatcher that flushed
/// per document would handle one message per task.
#[test]
fn a_saturating_burst_still_amortizes_messages_over_batches() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(300, 50, 0xB0057);
    let docs = random_docs(5_000, 60, 8, 0xB0057 ^ 0xD0C);
    let mut scheme = IlScheme::new(cfg).expect("valid config");
    for f in &filters {
        scheme.register(f).expect("register");
    }
    let engine = Engine::start(Box::new(scheme), RuntimeConfig::default()).expect("engine starts");
    for d in &docs {
        engine.publish(d.clone());
    }
    let report = shutdown_within(engine, Duration::from_secs(120));
    assert_fault_free("il", &report);
    let messages: u64 = report.nodes.iter().map(|n| n.messages_processed).sum();
    let tasks: u64 = report.nodes.iter().map(|n| n.doc_tasks).sum();
    assert_eq!(tasks, report.tasks_dispatched);
    assert!(
        messages * 10 < tasks,
        "{messages} mailbox messages for {tasks} tasks: the burst was not batched \
         (flushes {:?}, limit hwm {})",
        report.flushes,
        report.batch_limit_hwm
    );
    assert!(
        report.flushes.limit > 0,
        "a saturating burst must fill batches to the limit ({:?})",
        report.flushes
    );
}

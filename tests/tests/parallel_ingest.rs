//! The router-pool equivalence property: a pool of N publisher-facing
//! ingest threads routing against immutable snapshots must produce the
//! *same deliveries* as the serial router — per document, the identical
//! union of matched filters (which both must equal the brute-force oracle)
//! — and MOVE's sharded `q′ᵢ` statistics must merge to exactly the totals
//! the serial observer accumulates. Plus pool-mode accounting (per-thread
//! counters summing into the report totals) and fault tolerance (crash +
//! supervised restart under a 4-thread pool stays at-most-once).

use move_core::{Dissemination, IlScheme, MoveScheme, RsScheme, SystemConfig};
use move_index::brute_force;
use move_integration_tests::{random_docs, random_filters};
use move_runtime::{
    Engine, FaultPlan, FlushCounts, OverflowPolicy, RuntimeConfig, RuntimeReport, SupervisionPolicy,
};
use move_types::{DocId, Document, Filter, FilterId, MatchSemantics};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

type DeliverySets = BTreeMap<DocId, BTreeSet<FilterId>>;

fn schemes(cfg: &SystemConfig) -> Vec<Box<dyn Dissemination + Send>> {
    vec![
        Box::new(MoveScheme::new(cfg.clone()).expect("valid config")),
        Box::new(IlScheme::new(cfg.clone()).expect("valid config")),
        Box::new(RsScheme::new(cfg.clone()).expect("valid config")),
    ]
}

fn pool_config(publishers: usize) -> RuntimeConfig {
    RuntimeConfig {
        mailbox_capacity: 4,
        command_capacity: 8,
        overflow: OverflowPolicy::Block,
        batch_size: 2,
        flush_interval: Duration::from_millis(1),
        publishers,
        ..RuntimeConfig::default()
    }
}

/// Runs the full register-then-publish workload through one engine and
/// returns the report plus the per-document delivery unions, with shutdown
/// under a watchdog bound.
fn run_engine(
    scheme: Box<dyn Dissemination + Send>,
    config: RuntimeConfig,
    plan: FaultPlan,
    live: &[Filter],
    docs: &[Document],
) -> (RuntimeReport, DeliverySets) {
    let engine = Engine::start_with_faults(scheme, config, plan).expect("engine starts");
    let deliveries = engine.deliveries();
    for f in live {
        engine.register(f.clone());
    }
    for d in docs {
        engine.publish(d.clone());
    }
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(engine.shutdown());
    });
    let report = match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(result) => result.expect("clean shutdown"),
        Err(_) => panic!("pool engine shutdown exceeded 120s: deadlock suspected"),
    };
    let mut delivered = DeliverySets::new();
    for d in deliveries.try_iter() {
        delivered.entry(d.doc).or_default().extend(d.matched);
    }
    (report, delivered)
}

/// The equivalence property: for every scheme, a 4-thread ingest pool
/// delivers exactly the same per-document filter sets as the serial
/// router, and both equal the brute-force oracle. Registrations are issued
/// live through the engine before the stream, so the pool's synchronous
/// registration barrier is on the tested path.
#[test]
fn pool_delivers_the_same_sets_as_the_serial_router() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(250, 80, 0x9001);
    let docs = random_docs(120, 100, 12, 0x9001 ^ 0xD0C);
    let (pre, live) = filters.split_at(filters.len() / 2);

    for publishers in [1usize, 4] {
        for mut scheme in schemes(&cfg) {
            for f in pre {
                scheme.register(f).expect("register");
            }
            let name = scheme.name();
            let (report, delivered) = run_engine(
                scheme,
                pool_config(publishers),
                FaultPlan::none(),
                live,
                &docs,
            );
            assert_eq!(
                report.docs_published,
                docs.len() as u64,
                "{name} x{publishers}: completed"
            );
            assert_eq!(
                report.tasks_shed, 0,
                "{name} x{publishers}: Block never sheds"
            );
            assert_eq!(report.tasks_lost, 0, "{name} x{publishers}: fault-free");
            if publishers > 1 {
                assert_eq!(
                    report.ingest.len(),
                    publishers,
                    "{name}: one metrics entry per ingest thread"
                );
                let routed: u64 = report.ingest.iter().map(|m| m.docs_routed).sum();
                assert_eq!(routed, docs.len() as u64, "{name}: pool routed everything");
                // Fault-free, so the data plane lives entirely in ingest
                // hands: per-thread counters must sum *exactly* to the
                // report totals — nothing dispatched or shed off-ledger.
                let dispatched: u64 = report.ingest.iter().map(|m| m.tasks_dispatched).sum();
                let shed: u64 = report.ingest.iter().map(|m| m.tasks_shed).sum();
                assert_eq!(
                    dispatched, report.tasks_dispatched,
                    "{name}: per-thread dispatch must sum to the report total"
                );
                assert_eq!(
                    shed, report.tasks_shed,
                    "{name}: per-thread shed must sum to the report total"
                );
                let flushes = report
                    .ingest
                    .iter()
                    .fold(FlushCounts::default(), |sum, m| sum + m.flushes);
                assert_eq!(
                    flushes, report.flushes,
                    "{name}: per-thread flush counts must sum to the report total"
                );
            } else {
                assert!(report.ingest.is_empty(), "{name}: serial mode has no pool");
            }
            // Serial and pool both land on the brute-force oracle — hence
            // on each other: the delivery-set equivalence property.
            for d in &docs {
                let want: BTreeSet<FilterId> = brute_force(&filters, d, MatchSemantics::Boolean)
                    .into_iter()
                    .collect();
                let got = delivered.get(&d.id()).cloned().unwrap_or_default();
                assert_eq!(
                    got,
                    want,
                    "{name} x{publishers}: doc {} diverged from oracle",
                    d.id()
                );
            }
        }
    }
}

/// MOVE's sharded statistics: the per-thread `q′ᵢ` deltas the pool merges
/// at shutdown must equal — exactly, counter for counter — what the serial
/// router's inline observer accumulates over the identical stream.
#[test]
fn pool_sharded_stats_merge_to_the_serial_totals() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(200, 60, 0x57A7);
    let docs = random_docs(150, 80, 10, 0x57A7 ^ 0xD0C);
    let (pre, live) = filters.split_at(filters.len() / 2);

    let mut q_hits = Vec::new();
    for publishers in [1usize, 2, 4] {
        let mut scheme = MoveScheme::new(cfg.clone()).expect("valid config");
        for f in pre {
            scheme.register(f).expect("register");
        }
        let (report, _) = run_engine(
            Box::new(scheme),
            pool_config(publishers),
            FaultPlan::none(),
            live,
            &docs,
        );
        assert!(
            report.q_hits.iter().sum::<u64>() > 0,
            "x{publishers}: the statistics observer never fired"
        );
        if publishers > 1 {
            let routed: u64 = report.ingest.iter().map(|m| m.docs_routed).sum();
            assert_eq!(
                routed, report.docs_published,
                "x{publishers}: per-thread routing must sum to docs_published"
            );
            let dispatched: u64 = report.ingest.iter().map(|m| m.tasks_dispatched).sum();
            assert_eq!(
                dispatched, report.tasks_dispatched,
                "x{publishers}: per-thread dispatch must sum to the report total"
            );
        }
        q_hits.push((publishers, report.q_hits));
    }
    for pair in q_hits.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "merged q'_i diverged between {} and {} publishers",
            pair[0].0, pair[1].0
        );
    }
}

/// Pool mode under MOVE's allocation-refresh cycle: the control thread's
/// stop-the-world fence must keep delivery exact while grids are re-shipped
/// mid-stream with four ingest threads routing concurrently.
#[test]
fn pool_stays_exact_across_allocation_refreshes() {
    let mut cfg = SystemConfig::small_test();
    cfg.capacity_per_node = 150; // force real grids
    cfg.refresh_every_docs = 40; // several fenced refreshes in the stream
    let filters = random_filters(300, 60, 0xFE4CE);
    let sample = random_docs(40, 70, 10, 0x5A);
    let docs = random_docs(200, 70, 12, 0xFE4CE ^ 0xD0C);

    let mut scheme = MoveScheme::new(cfg).expect("valid config");
    for f in &filters {
        scheme.register(f).expect("register");
    }
    scheme.observe_corpus(&sample);
    scheme.allocate().expect("allocate");

    let (report, delivered) = run_engine(
        Box::new(scheme),
        pool_config(4),
        FaultPlan::none(),
        &[],
        &docs,
    );
    assert!(
        report.allocation_updates > 0,
        "the fenced refresh cycle never fired ({} docs, refresh every 40)",
        docs.len()
    );
    assert_eq!(report.tasks_lost, 0);
    for d in &docs {
        let want: BTreeSet<FilterId> = brute_force(&filters, d, MatchSemantics::Boolean)
            .into_iter()
            .collect();
        let got = delivered.get(&d.id()).cloned().unwrap_or_default();
        assert_eq!(got, want, "doc {} diverged across a fenced refresh", d.id());
    }
}

/// Shed accounting under the pool: per-thread shed/dispatch counters must
/// sum into the report totals so no routed task goes unaccounted, and
/// whatever was delivered stays sound.
#[test]
fn pool_shed_accounting_covers_every_task() {
    let cfg = SystemConfig::small_test();
    // Many filters per posting make tasks slow enough for four ingest
    // threads to outrun the tiny mailboxes.
    let filters = random_filters(4_000, 20, 0x5EED);
    let docs = random_docs(400, 25, 10, 0x5EED ^ 0xD0C);

    let config = RuntimeConfig {
        mailbox_capacity: 1,
        overflow: OverflowPolicy::Shed,
        batch_size: 1,
        publishers: 4,
        ..RuntimeConfig::default()
    };
    let mut scheme: Box<dyn Dissemination + Send> =
        Box::new(RsScheme::new(cfg).expect("valid config"));
    for f in &filters {
        scheme.register(f).expect("register");
    }
    let (report, delivered) = run_engine(scheme, config, FaultPlan::none(), &[], &docs);
    assert_eq!(report.docs_published, docs.len() as u64);
    // RS floods each document to every member of one replica group:
    // 6 nodes over 3 groups = exactly 2 full-index tasks per document.
    assert_eq!(
        report.tasks_dispatched + report.tasks_shed,
        2 * docs.len() as u64,
        "pool dispatch accounting must cover every routed task"
    );
    let from_threads: u64 = report
        .ingest
        .iter()
        .map(|m| m.tasks_dispatched + m.tasks_shed)
        .sum();
    assert_eq!(
        from_threads,
        2 * docs.len() as u64,
        "per-thread counters must carry the whole data plane"
    );
    let routed: u64 = report.ingest.iter().map(|m| m.docs_routed).sum();
    assert_eq!(
        routed,
        docs.len() as u64,
        "per-thread routing must sum to docs_published even while shedding"
    );
    for (doc, got) in &delivered {
        let d = docs.iter().find(|d| d.id() == *doc).expect("known doc");
        let want: BTreeSet<FilterId> = brute_force(&filters, d, MatchSemantics::Boolean)
            .into_iter()
            .collect();
        assert!(got.is_subset(&want), "unsound delivery for doc {doc}");
    }
}

/// A seeded 30% kill under the 4-thread pool with restart supervision:
/// ingest threads hand stranded batches to the control thread, which must
/// restart every victim from its journal — delivery stays at-most-once
/// (sound everywhere, exact for every document the report does not name
/// lost) exactly as in the serial engine's fault suite.
#[test]
fn pool_crash_restart_stays_at_most_once() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(250, 80, 0xFA17);
    let docs = random_docs(200, 100, 12, 0xFA17 ^ 0xD0C);
    let plan = FaultPlan::kill_fraction(cfg.nodes, 0.3, 60, 0x9C3);
    let victims = plan.crashed_nodes().len() as u64;
    assert!(victims > 0, "the plan must kill someone");

    let mut scheme = IlScheme::new(cfg).expect("valid config");
    for f in &filters {
        scheme.register(f).expect("register");
    }
    let (report, delivered) = run_engine(
        Box::new(scheme),
        RuntimeConfig {
            supervision: SupervisionPolicy::default(),
            ..pool_config(4)
        },
        plan,
        &[],
        &docs,
    );
    assert_eq!(report.docs_published, docs.len() as u64);
    assert!(
        report.restarts >= victims,
        "every victim must be restarted ({} restarts for {victims} victims)",
        report.restarts
    );
    assert_eq!(report.failovers, 0, "restart mode must not fail over");
    // Every document is still routed exactly once by exactly one ingest
    // thread, faults or not — the per-thread ledger covers the stream.
    let routed: u64 = report.ingest.iter().map(|m| m.docs_routed).sum();
    assert_eq!(
        routed,
        docs.len() as u64,
        "per-thread routing must sum to docs_published under faults"
    );

    // The report's settle barrier replaces any guess about discovery
    // latency: it names the published-count at which the last death was
    // discovered. It can only trip at-or-after the kill point, and every
    // lost document must sit at-or-before the barrier plus the bounded
    // in-flight window (pool threads' hands + victim mailboxes) — losses
    // are confined to the kill window, never the settled tail.
    let settled = report
        .deaths_settled_at
        .expect("a kill plan must discover deaths");
    assert!(
        settled >= 60,
        "deaths cannot settle before they are injected"
    );
    assert!(settled <= docs.len() as u64);
    let in_flight = 4 * (4 * 2 + 1) as u64 + 16; // publishers * (mailbox * batch + hand) + slack
    let lost: BTreeSet<DocId> = report.lost_docs.iter().copied().collect();
    for id in &lost {
        assert!(
            id.0 <= settled + in_flight,
            "doc {id} lost beyond the settle barrier ({settled}) + in-flight bound"
        );
    }
    for d in &docs {
        let want: BTreeSet<FilterId> = brute_force(&filters, d, MatchSemantics::Boolean)
            .into_iter()
            .collect();
        let got = delivered.get(&d.id()).cloned().unwrap_or_default();
        assert!(
            got.is_subset(&want),
            "false delivery for doc {} under faults",
            d.id()
        );
        if !lost.contains(&d.id()) {
            assert_eq!(
                got,
                want,
                "non-lost doc {} must be delivered exactly",
                d.id()
            );
        }
    }
}

/// Dispatch is work-conserving, not timer-driven: with the idle period set
/// to ten seconds, one document published into an idle engine must still
/// reach its full brute-force delivery set on the tap within one second —
/// the dispatcher ships what it buffered the moment its queue runs dry —
/// for the serial router and a four-thread pool alike, on every scheme.
#[test]
fn a_lone_document_is_delivered_without_waiting_for_the_idle_timer() {
    let cfg = SystemConfig::small_test();
    let filters = random_filters(250, 40, 0x1D1E);
    let doc = random_docs(1, 40, 12, 0x1D1E ^ 0xD0C).remove(0);
    let want: BTreeSet<FilterId> = brute_force(&filters, &doc, MatchSemantics::Boolean)
        .into_iter()
        .collect();
    assert!(!want.is_empty(), "the probe document must match something");

    for publishers in [1usize, 4] {
        for mut scheme in schemes(&cfg) {
            for f in &filters {
                scheme.register(f).expect("register");
            }
            let name = scheme.name();
            let config = RuntimeConfig {
                flush_interval: Duration::from_secs(10),
                publishers,
                ..RuntimeConfig::default()
            };
            let engine = Engine::start(scheme, config).expect("engine starts");
            let tap = engine.deliveries();
            let deadline = Instant::now() + Duration::from_secs(1);
            engine.publish(doc.clone());
            let mut got = BTreeSet::new();
            while got != want {
                let left = deadline.saturating_duration_since(Instant::now());
                match tap.recv_timeout(left) {
                    Ok(d) => got.extend(d.matched),
                    Err(_) => panic!(
                        "{name} x{publishers}: {} of {} deliveries after 1 s — \
                         the document waited for the idle timer",
                        got.len(),
                        want.len()
                    ),
                }
            }
            let report = engine.shutdown().expect("clean shutdown");
            assert!(
                report.flushes.drain > 0,
                "{name} x{publishers}: the drain rule must have shipped the document"
            );
            assert_eq!(
                report.flushes.limit, 0,
                "{name} x{publishers}: nothing filled"
            );
        }
    }
}

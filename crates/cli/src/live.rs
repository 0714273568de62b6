//! `live` mode: the same command language, executed by the concurrent
//! `move-runtime` engine instead of the virtual-time simulator. Matching
//! runs on one OS thread per node, and `stats` shows real wall-clock
//! latency percentiles and queue depths. A seeded [`FaultPlan`] (the
//! `--fault-plan` flag) crashes workers mid-session so supervised
//! restarts and replica failover can be watched interactively.

use crate::Command;
use move_core::{MoveScheme, SystemConfig};
use move_runtime::{Engine, FaultPlan, RuntimeConfig};
use move_text::TextPipeline;
use move_types::{Filter, TermDictionary, TermId};
use move_workload::{ChurnOp, ChurnSpec, ChurnWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Synthetic churn subscribers live far above any interactively registered
/// filter id, so `stats`/delivery output can tell them apart.
const CHURN_ID_BASE: u64 = 1 << 40;
/// Synthetic churn predicates use term ids far above anything the text
/// pipeline interns, so interactive documents never match the background
/// population — churn is control-plane load, not delivery noise.
const CHURN_TERM_BASE: u32 = 1 << 20;

/// Background registration churn riding an interactive live session: a
/// synthetic subscriber population that turns over through the engine's
/// control plane while the user publishes.
#[derive(Debug)]
struct ChurnState {
    workload: ChurnWorkload,
    rng: StdRng,
}

impl ChurnState {
    /// Remaps a synthetic filter into the reserved id/term ranges.
    fn remap(filter: &Filter) -> Filter {
        Filter::new(
            CHURN_ID_BASE + filter.id().0,
            filter.terms().iter().map(|t| TermId(CHURN_TERM_BASE + t.0)),
        )
    }

    /// Applies one churn tick through the engine's control plane.
    fn tick(&mut self, engine: &Engine) {
        for op in self.workload.tick(&mut self.rng) {
            match op {
                ChurnOp::Register(f) => engine.register(Self::remap(&f)),
                ChurnOp::Unregister(id) => {
                    engine.unregister(move_types::FilterId(CHURN_ID_BASE + id.0))
                }
            }
        }
    }
}

/// Parses a `--fault-plan` spec: `kill=<fraction>@<doc>[,seed=<seed>]`,
/// e.g. `kill=0.3@10,seed=42` — crash 30% of the `nodes` workers
/// (seed-chosen, staggered) starting at the 10th published document.
///
/// # Errors
///
/// Returns a usage message when the spec does not parse.
pub fn parse_fault_plan(spec: &str, nodes: usize) -> Result<FaultPlan, String> {
    let usage = || format!("bad fault plan `{spec}`; expected kill=<fraction>@<doc>[,seed=<seed>]");
    let mut kill: Option<(f64, u64)> = None;
    let mut seed = 0x9C0u64;
    for part in spec.split(',') {
        let (key, value) = part.split_once('=').ok_or_else(usage)?;
        match key {
            "kill" => {
                let (frac, at_doc) = value.split_once('@').ok_or_else(usage)?;
                let frac: f64 = frac.parse().map_err(|_| usage())?;
                if !(0.0..=1.0).contains(&frac) {
                    return Err(format!("kill fraction {frac} must be within 0..=1"));
                }
                kill = Some((frac, at_doc.parse().map_err(|_| usage())?));
            }
            "seed" => seed = value.parse().map_err(|_| usage())?,
            _ => return Err(usage()),
        }
    }
    let (fraction, at_doc) = kill.ok_or_else(usage)?;
    Ok(FaultPlan::kill_fraction(nodes, fraction, at_doc, seed))
}

/// Parses a `--churn` spec: `<rate>@<pool>`, e.g. `0.02@500` — boot a
/// synthetic population of 500 subscribers and turn over 2% of it through
/// the engine's control plane per published document.
///
/// # Errors
///
/// Returns a usage message when the spec does not parse or the rate is
/// outside `(0, 1]` / the pool is zero.
pub fn parse_churn_plan(spec: &str) -> Result<(f64, u64), String> {
    let usage = || format!("bad churn spec `{spec}`; expected <rate>@<pool>, e.g. 0.02@500");
    let (rate, pool) = spec.split_once('@').ok_or_else(usage)?;
    let rate: f64 = rate.parse().map_err(|_| usage())?;
    let pool: u64 = pool.parse().map_err(|_| usage())?;
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(format!("churn rate {rate} must be within (0, 1]"));
    }
    if pool == 0 {
        return Err("churn pool must be positive".into());
    }
    Ok((rate, pool))
}

/// An interactive session over a live [`Engine`].
///
/// Supports the structural subset of the shell: registration, publishing
/// and stats. Manual allocation stays simulator-only (the engine's control
/// plane refreshes allocations by itself); failures are injected by a
/// seeded [`FaultPlan`] rather than `fail` commands.
#[derive(Debug)]
pub struct LiveSession {
    engine: Option<Engine>,
    pipeline: TextPipeline,
    dict: TermDictionary,
    next_doc: u64,
    /// `--join <at-doc>`: once this many documents have been published, a
    /// new node joins the running cluster (live partition rebalancing) and
    /// the trigger clears.
    join_at: Option<u64>,
    /// `--churn <rate>@<pool>`: a synthetic subscriber population churning
    /// through the control plane, one tick per published document.
    churn: Option<ChurnState>,
    /// Set once [`Command::Quit`] has run.
    pub finished: bool,
}

impl LiveSession {
    /// Boots a MOVE scheme on a live engine with one worker per node.
    ///
    /// # Errors
    ///
    /// Returns a message when the cluster configuration is rejected.
    pub fn new(nodes: usize, racks: usize) -> Result<Self, String> {
        Self::with_fault_plan(nodes, racks, FaultPlan::none())
    }

    /// Boots the live engine with a seeded fault plan: workers crash on
    /// schedule and the supervisor restarts them from their registration
    /// journals mid-session.
    ///
    /// # Errors
    ///
    /// Returns a message when the cluster configuration is rejected.
    pub fn with_fault_plan(nodes: usize, racks: usize, plan: FaultPlan) -> Result<Self, String> {
        Self::with_options(nodes, racks, plan, 1)
    }

    /// Boots the live engine with a seeded fault plan *and* a router pool
    /// of `publishers` ingest threads (the `--publishers` flag): documents
    /// are routed concurrently against the engine's immutable routing
    /// snapshots, and the session report breaks routed/shed counts out per
    /// ingest thread.
    ///
    /// # Errors
    ///
    /// Returns a message when the cluster configuration is rejected.
    pub fn with_options(
        nodes: usize,
        racks: usize,
        plan: FaultPlan,
        publishers: usize,
    ) -> Result<Self, String> {
        Self::with_join(nodes, racks, plan, publishers, 1, None)
    }

    /// Boots the live engine with every option: the `--join` trigger
    /// (after `join_at` published documents, a new node joins the running
    /// cluster through the live rebalancer — layout staged, moved
    /// partitions streamed to the new worker, commit — and the session
    /// prints the migration outcome) and the `--match-lanes` knob (each
    /// worker fans its batches over a work-stealing pool of `match_lanes`
    /// match lanes; 1 keeps the serial inline matcher).
    ///
    /// # Errors
    ///
    /// Returns a message when the cluster configuration is rejected.
    pub fn with_join(
        nodes: usize,
        racks: usize,
        plan: FaultPlan,
        publishers: usize,
        match_lanes: usize,
        join_at: Option<u64>,
    ) -> Result<Self, String> {
        Self::with_churn(
            nodes,
            racks,
            plan,
            publishers,
            match_lanes,
            move_runtime::DEFAULT_LANE_COST_TARGET,
            join_at,
            None,
        )
    }

    /// Boots the live engine with every option plus the `--churn
    /// <rate>@<pool>` background load: a synthetic population of `pool`
    /// subscribers is bulk-registered through the control plane at boot,
    /// and each published document advances one churn tick turning over
    /// `rate` of the population (registrations, displacements and
    /// unregistrations riding the engine's aggregation layer; the session
    /// report shows the control-plane counters at quit). Synthetic
    /// subscribers use reserved id and term ranges, so they never match
    /// interactive documents. `lane_cost_target` is the `--lane-cost-target`
    /// knob: the posting-scan cost (ids scanned per unit of work) the lane
    /// planner packs into each stealable unit — smaller targets mean finer
    /// units and more steal opportunities, larger targets less scheduling
    /// overhead.
    ///
    /// # Errors
    ///
    /// Returns a message when the cluster configuration is rejected or
    /// the churn population cannot be generated.
    #[allow(clippy::too_many_arguments)]
    pub fn with_churn(
        nodes: usize,
        racks: usize,
        plan: FaultPlan,
        publishers: usize,
        match_lanes: usize,
        lane_cost_target: usize,
        join_at: Option<u64>,
        churn: Option<(f64, u64)>,
    ) -> Result<Self, String> {
        let config = SystemConfig {
            nodes,
            racks,
            capacity_per_node: 100_000,
            expected_terms: 100_000,
            ..SystemConfig::default()
        };
        let runtime = RuntimeConfig {
            publishers: publishers.max(1),
            match_lanes: match_lanes.max(1),
            lane_cost_target: lane_cost_target.max(1),
            ..RuntimeConfig::default()
        };
        let scheme = MoveScheme::new(config).map_err(|e| e.to_string())?;
        let engine = Engine::start_with_faults(Box::new(scheme), runtime, plan)
            .map_err(|e| e.to_string())?;
        let churn = match churn {
            None => None,
            Some((rate, pool)) => {
                let spec = ChurnSpec {
                    churn_fraction: rate,
                    ..ChurnSpec::scaled(pool)
                };
                let mut rng = StdRng::seed_from_u64(0xC0_D0);
                let workload = ChurnWorkload::new(&spec, &mut rng).map_err(|e| e.to_string())?;
                for f in workload.initial_filters() {
                    engine.register(ChurnState::remap(&f));
                }
                Some(ChurnState { workload, rng })
            }
        };
        Ok(Self {
            engine: Some(engine),
            pipeline: TextPipeline::default(),
            dict: TermDictionary::new(),
            next_doc: 0,
            join_at,
            churn,
            finished: false,
        })
    }

    /// Executes one command, returning the text to print.
    pub fn run(&mut self, cmd: Command) -> String {
        let Some(engine) = &self.engine else {
            return "engine already shut down".into();
        };
        match cmd {
            Command::Register(id, text) => {
                let filter = self.pipeline.filter(id, &text, &mut self.dict);
                if filter.is_empty() {
                    return "filter has no terms after preprocessing; not registered".into();
                }
                let terms = filter.len();
                engine.register(filter);
                format!("registered f{id} ({terms} terms)")
            }
            Command::Publish(text) => {
                let doc = self.pipeline.document(self.next_doc, &text, &mut self.dict);
                self.next_doc += 1;
                // Background churn rides the publish cadence: one tick of
                // population turnover through the control plane per
                // document, applied before the publish so the delivery
                // reflects the post-tick population.
                if let Some(churn) = self.churn.as_mut() {
                    churn.tick(engine);
                }
                let matched = engine.publish_sync(doc);
                let mut out = if matched.is_empty() {
                    String::from("no matching filters")
                } else {
                    let ids: Vec<String> = matched.iter().map(ToString::to_string).collect();
                    format!("delivered to {}", ids.join(", "))
                };
                // The --join trigger: grow the cluster once the stream has
                // passed the threshold. The shell publishes synchronously,
                // so the handover window is empty and the join commits
                // immediately — the interesting windowed path is driven by
                // `bench_rebalance`, not the interactive shell.
                if self.join_at.is_some_and(|at| self.next_doc >= at) {
                    self.join_at = None;
                    match engine.join_node(0) {
                        Ok(o) => out.push_str(&format!(
                            "\n{} joined the cluster: layout v{}, {} partitions moved",
                            o.node, o.layout_version, o.partitions_moved
                        )),
                        Err(e) => out.push_str(&format!("\nnode join failed: {e}")),
                    }
                }
                out
            }
            Command::Stats => {
                let nodes = engine.stats();
                let mut out = format!("{} live node workers\n", nodes.len());
                for m in &nodes {
                    out.push_str(&format!(
                        "  {:<4} {:>7} msgs  {:>7} tasks  {:>10} postings  hwm {:>3}  p99 {:.1}us\n",
                        m.node.to_string(),
                        m.messages_processed,
                        m.doc_tasks,
                        m.postings_scanned,
                        m.queue_depth_hwm,
                        m.latency.p99 as f64 / 1e3,
                    ));
                }
                out.pop();
                out
            }
            Command::Unregister(_) | Command::Allocate | Command::Fail(_) | Command::Recover(_) => {
                "not available in live mode (allocation is automatic; inject failures \
                 with --fault-plan kill=<fraction>@<doc>)"
                    .into()
            }
            Command::Help => "\
live-mode commands:
  register <id> <keywords…>   register a keyword filter
  publish <text…>             publish a document (waits for deliveries)
  stats                       per-worker counters and latency percentiles
  quit                        drain, shut the engine down, print the report"
                .into(),
            Command::Quit => {
                self.finished = true;
                let engine = self.engine.take().expect("engine running");
                match engine.shutdown() {
                    Ok(r) => {
                        let mut out = format!(
                            "engine drained: {} docs, {} tasks, p50 {:.1}us p99 {:.1}us; \
                             {} restarts, {} retries, {} failovers, {} joins, {} docs lost — bye",
                            r.docs_published,
                            r.tasks_dispatched,
                            r.latency.p50 as f64 / 1e3,
                            r.latency.p99 as f64 / 1e3,
                            r.restarts,
                            r.retries,
                            r.failovers,
                            r.joins,
                            r.lost_docs.len(),
                        );
                        out.push_str(&format!(
                            "\n  batches shipped: {} at the limit, {} on queue drain, \
                             {} at barriers (limit hwm {})",
                            r.flushes.limit, r.flushes.drain, r.flushes.barrier, r.batch_limit_hwm,
                        ));
                        for m in &r.ingest {
                            out.push_str(&format!(
                                "\n  ingest t{}: {} docs routed, {} tasks dispatched, {} shed; \
                                 batches {} limit / {} drain / {} barrier",
                                m.thread,
                                m.docs_routed,
                                m.tasks_dispatched,
                                m.tasks_shed,
                                m.flushes.limit,
                                m.flushes.drain,
                                m.flushes.barrier,
                            ));
                        }
                        if r.registrations + r.unregistrations > 0 {
                            out.push_str(&format!(
                                "\n  control plane: {} registrations ({} canonical hits), \
                                 {} unregistrations, {} canonicals live, {} fan-out bytes",
                                r.registrations,
                                r.canonical_hits,
                                r.unregistrations,
                                r.canonical_filters,
                                r.aggregation_bytes,
                            ));
                        }
                        out
                    }
                    Err(e) => format!("shutdown error: {e}"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_round_trip() {
        let mut s = LiveSession::new(6, 2).unwrap();
        assert!(s
            .run(Command::parse("register 1 rust news").unwrap())
            .contains("registered f1"));
        assert!(s
            .run(Command::parse("publish rust shipped a release").unwrap())
            .contains("f1"));
        assert!(s
            .run(Command::parse("publish nothing relevant here").unwrap())
            .contains("no matching"));
        let stats = s.run(Command::Stats);
        assert!(stats.contains("live node workers"), "{stats}");
        assert!(s
            .run(Command::parse("fail 3").unwrap())
            .contains("not available"));
        let bye = s.run(Command::Quit);
        assert!(bye.contains("engine drained"), "{bye}");
        assert!(bye.contains("batches shipped:"), "{bye}");
        assert!(s.finished);
    }

    #[test]
    fn pooled_session_reports_per_ingest_counters() {
        let mut s = LiveSession::with_options(6, 2, FaultPlan::none(), 3).unwrap();
        assert!(s
            .run(Command::parse("register 1 rust news").unwrap())
            .contains("registered f1"));
        for _ in 0..6 {
            let _ = s.run(Command::parse("publish rust shipped a release").unwrap());
        }
        let bye = s.run(Command::Quit);
        assert!(bye.contains("engine drained: 6 docs"), "{bye}");
        for thread in ["ingest t0:", "ingest t1:", "ingest t2:"] {
            assert!(bye.contains(thread), "{bye}");
        }
        assert!(!bye.contains("ingest t3:"), "{bye}");
    }

    #[test]
    fn join_trigger_grows_the_cluster_mid_session() {
        let mut s = LiveSession::with_join(6, 2, FaultPlan::none(), 1, 1, Some(2)).unwrap();
        assert!(s
            .run(Command::parse("register 1 rust news").unwrap())
            .contains("registered f1"));
        let first = s.run(Command::parse("publish rust shipped a release").unwrap());
        assert!(
            !first.contains("joined"),
            "{first}: joined before the trigger"
        );
        let second = s.run(Command::parse("publish rust again").unwrap());
        assert!(
            second.contains("n6 joined the cluster: layout v"),
            "{second}"
        );
        // The trigger fires once; matching still works on the grown cluster.
        let third = s.run(Command::parse("publish rust once more").unwrap());
        assert!(third.contains("delivered to f1"), "{third}");
        assert!(!third.contains("joined"), "{third}");
        let bye = s.run(Command::Quit);
        assert!(bye.contains("1 joins"), "{bye}");
    }

    #[test]
    fn fault_plan_specs_parse_or_explain() {
        let plan = parse_fault_plan("kill=0.3@10,seed=42", 20).unwrap();
        assert_eq!(plan.crashed_nodes().len(), 6, "30% of 20 workers");
        let plan = parse_fault_plan("kill=0.5@0", 6).unwrap();
        assert_eq!(plan.crashed_nodes().len(), 3, "default seed accepted");
        for bad in [
            "",
            "kill=0.3",
            "kill=ten@4",
            "kill=1.5@4",
            "pause=0.3@4",
            "seed=7",
        ] {
            let err = parse_fault_plan(bad, 6).unwrap_err();
            assert!(
                err.contains("fault plan") || err.contains("within 0..=1"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn churn_plan_specs_parse_or_explain() {
        assert_eq!(parse_churn_plan("0.02@500").unwrap(), (0.02, 500));
        assert_eq!(parse_churn_plan("1@8").unwrap(), (1.0, 8));
        for bad in [
            "",
            "0.02",
            "fast@500",
            "0.02@many",
            "0@500",
            "1.5@500",
            "0.02@0",
        ] {
            let err = parse_churn_plan(bad).unwrap_err();
            assert!(err.contains("churn"), "{bad}: {err}");
        }
    }

    #[test]
    fn churned_session_stays_exact_and_reports_control_counters() {
        let mut s = LiveSession::with_churn(
            6,
            2,
            FaultPlan::none(),
            1,
            1,
            move_runtime::DEFAULT_LANE_COST_TARGET,
            None,
            Some((0.1, 60)),
        )
        .unwrap();
        assert!(s
            .run(Command::parse("register 1 rust news").unwrap())
            .contains("registered f1"));
        // Interactive deliveries must be untouched by the background
        // population: churn subscribers live in reserved id/term ranges.
        for _ in 0..5 {
            let out = s.run(Command::parse("publish rust shipped a release").unwrap());
            assert_eq!(out, "delivered to f1", "{out}");
        }
        let out = s.run(Command::parse("publish nothing relevant here").unwrap());
        assert!(out.contains("no matching"), "{out}");
        let bye = s.run(Command::Quit);
        assert!(bye.contains("engine drained"), "{bye}");
        assert!(bye.contains("control plane:"), "{bye}");
        assert!(bye.contains("registrations"), "{bye}");
        assert!(bye.contains("canonicals live"), "{bye}");
        assert!(bye.contains("fan-out bytes"), "{bye}");
    }

    #[test]
    fn faulted_session_restarts_workers_and_reports_it() {
        let plan = parse_fault_plan("kill=0.34@1,seed=7", 6).unwrap();
        let victims = plan.crashed_nodes().len();
        assert!(victims >= 2);
        let mut s = LiveSession::with_fault_plan(6, 2, plan).unwrap();
        assert!(s
            .run(Command::parse("register 1 rust news").unwrap())
            .contains("registered f1"));
        // Enough publishes to trip every scheduled crash and let the
        // supervisor restart the victims from their journals.
        for _ in 0..8 {
            let _ = s.run(Command::parse("publish rust shipped a release").unwrap());
        }
        let bye = s.run(Command::Quit);
        assert!(bye.contains("engine drained"), "{bye}");
        for expect in ["restarts", "failovers", "docs lost"] {
            assert!(bye.contains(expect), "{bye}");
        }
    }
}

//! Deterministic schedule-permutation harness for the engine.
//!
//! The production engine runs the router and every node worker on separate
//! OS threads, so the interleaving of router sends and worker receives is
//! chosen by the OS scheduler — unrepeatable and untestable. This module
//! runs the **same** [`Router`](crate::engine) and
//! [`Worker`](crate::worker) code single-threaded, with an explicit,
//! seeded scheduler choosing at every step which component advances by one
//! message. Each seed is one reproducible interleaving; sweeping seeds
//! explores the schedule space (shutdown racing a publish, an allocation
//! refresh landing mid-drain, a crash landing mid-batch, a failover racing
//! the dead node's return) and checks the engine's ordering guarantees on
//! every one.
//!
//! Since PR 3 the script can also inject faults: [`ScriptOp::Crash`] kills
//! a worker through the same [`NodeMessage::Fault`](crate::NodeMessage)
//! path the threaded engine's [`FaultPlan`](crate::FaultPlan) uses,
//! [`ScriptOp::Restart`] brings a crashed node back through the
//! supervisor's journal replay, and [`ScriptOp::Delay`] holds a worker's
//! scheduling for a number of steps (the deterministic analog of
//! [`FaultAction::Slow`]).
//!
//! # Fidelity
//!
//! The harness reuses the router's decision logic verbatim via the
//! [`Transport`] seam, with two deliberate simplifications:
//!
//! * **Command atomicity.** One scripted operation (a publish or a
//!   registration) runs to completion before any worker is stepped. Real
//!   workers can interleave with the middle of a command, but since each
//!   mailbox is FIFO and workers share no state, any such interleaving
//!   produces the same per-mailbox message sequences as some command-atomic
//!   schedule — command atomicity loses no observable outcomes.
//! * **Virtual capacity.** Mailboxes are physically unbounded; the
//!   configured capacity is enforced by the *scheduler*, which refuses to
//!   advance the router under [`OverflowPolicy::Block`] while any live
//!   mailbox is at or over capacity (a real router would block inside the
//!   full mailbox's `send`). Because one command may enqueue a couple of
//!   messages per node, a mailbox can transiently overshoot the capacity
//!   by the fan-out of a single command — equivalent to a real mailbox a
//!   few slots larger, and irrelevant to the ordering properties checked
//!   here. Under [`OverflowPolicy::Shed`] the shed decision is made
//!   per-batch against the current queue length, exactly like the real
//!   `try_send`.
//!
//! One fault-mode divergence from the threaded engine is *tighter*, not
//! looser: a crash and the resulting mailbox disconnect happen in a single
//! scheduler step, so the threaded engine's send-vs-receiver-drop race
//! (a batch that arrives between the crash drain and the channel teardown)
//! does not exist here and the books balance exactly —
//! `dispatched == executed + lost` is asserted, not approximated.
//!
//! # Examples
//!
//! ```
//! use move_core::{IlScheme, SystemConfig};
//! use move_runtime::interleave::{run_schedule, InterleaveConfig, ScriptOp};
//! use move_types::{Document, Filter, TermId};
//!
//! let scheme = Box::new(IlScheme::new(SystemConfig::small_test()).unwrap());
//! let script = vec![
//!     ScriptOp::Register(Filter::new(1u64, [TermId(3)])),
//!     ScriptOp::Publish(Document::from_distinct_terms(1u64, [TermId(3)])),
//! ];
//! let out = run_schedule(scheme, script, &InterleaveConfig::default()).unwrap();
//! let matched = &out.delivered[&move_types::DocId(1)];
//! assert!(matched.contains(&move_types::FilterId(1)));
//! ```

use crossbeam::channel::{unbounded, Sender};
use move_core::Dissemination;
use move_index::{FanoutTable, InvertedIndex};
use move_types::{DocId, Document, Filter, FilterId, MoveError, NodeId, Result};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use crate::config::{OverflowPolicy, RuntimeConfig};
use crate::dispatch::FlushCause;
use crate::engine::{BatchOutcome, Command, Router, Transport};
use crate::fault::FaultAction;
use crate::message::{Delivery, NodeMessage};
use crate::metrics::RuntimeReport;
use crate::supervisor::SupervisionPolicy;
use crate::worker::{Worker, WorkerStep};

/// Tuning knobs of one harness run.
#[derive(Debug, Clone)]
pub struct InterleaveConfig {
    /// Seed of the scheduling RNG: same seed, same schedule, bit for bit.
    pub seed: u64,
    /// Virtual mailbox capacity (messages) enforced by the scheduler.
    pub mailbox_capacity: usize,
    /// Behaviour when a mailbox is at capacity.
    pub overflow: OverflowPolicy,
    /// Documents per node accumulated before a batch is sent (same knob as
    /// [`RuntimeConfig::batch_size`]). The harness always pins
    /// [`BatchPolicy::Fixed`](crate::BatchPolicy) — the adaptive
    /// controller's wall-clock feedback would make schedules
    /// nondeterministic.
    pub batch_size: usize,
    /// Match lanes per worker (same knob as
    /// [`RuntimeConfig::match_lanes`]). With more than one lane the
    /// workers' pool steps — pop, steal, merge, finalize — become
    /// schedulable actions of their own, so seeds explore steal orders and
    /// merge orders as well as message orders.
    pub match_lanes: usize,
    /// Per-unit scan-cost target of the lane planner (same knob as
    /// [`RuntimeConfig::lane_cost_target`]). The harness default is 1 —
    /// one unit per term group or task item — so the tiny workloads of
    /// interleaving schedules still produce several stealable units and
    /// the seeds keep exploring steal and merge orders.
    pub lane_cost_target: usize,
    /// What the router does when a send finds a crashed worker (same knob
    /// as [`RuntimeConfig::supervision`]). The default uses
    /// [`Duration::ZERO`] backoff — retries cost schedule steps, not
    /// wall-clock time.
    pub supervision: SupervisionPolicy,
}

impl Default for InterleaveConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            mailbox_capacity: 2,
            overflow: OverflowPolicy::Block,
            batch_size: 1,
            match_lanes: 1,
            lane_cost_target: 1,
            supervision: SupervisionPolicy {
                restart: true,
                max_retries: 3,
                backoff: Duration::ZERO,
            },
        }
    }
}

/// One operation of the publisher script, applied by the router in script
/// order (the router channel is FIFO; the schedule only varies *when* the
/// workers observe the consequences).
#[derive(Debug, Clone)]
pub enum ScriptOp {
    /// Register a filter through the control plane.
    Register(Filter),
    /// Unregister a subscriber through the control plane.
    Unregister(FilterId),
    /// Publish a document through the data plane.
    Publish(Document),
    /// The router's command queue ran dry: every buffered per-node batch
    /// ships now (the threaded router's work-conserving drain flush, see
    /// [`crate::RuntimeConfig::flush_interval`]). Only meaningful with
    /// [`InterleaveConfig::batch_size`] above 1 — at 1 nothing ever stays
    /// buffered.
    Drain,
    /// Enqueue a crash fault in the node's mailbox (FIFO behind queued
    /// work, so the death lands mid-drain). No-op on an already-dead node.
    Crash(NodeId),
    /// Restart a crashed node from its registration journal and readmit it
    /// to the membership — the "failed node returns" transition of the
    /// paper's §VI. No-op when the node is alive.
    Restart(NodeId),
    /// Suspend the node's scheduling for the next `steps` scheduler steps
    /// — the deterministic analog of [`FaultAction::Slow`].
    Delay {
        /// The worker to suspend.
        node: NodeId,
        /// How many scheduler steps it stays unschedulable.
        steps: u64,
    },
    /// Pin the router's routing snapshot for the next `docs` published
    /// documents: registrations landing meanwhile are placed on the workers
    /// but do **not** refresh the snapshot until the pin expires — the
    /// deterministic model of an ingest thread still routing on a stale
    /// [`RoutingView`](move_core::RoutingView) epoch while the control
    /// plane has already advanced. Allocation refreshes and membership
    /// changes clear the pin early (the real pool fences around those).
    PinView {
        /// How many more published documents route on the stale snapshot.
        docs: u64,
    },
    /// Stage a node join: spawn the joining worker, stream it the
    /// re-homed filter partitions, and publish the handover
    /// (double-routing) view — phase 1 of [`crate::rebalance`]. The
    /// script ops between this and the matching [`ScriptOp::CommitJoin`]
    /// run inside the handover window.
    Join,
    /// Commit the staged join: retire the moved partitions' old copies
    /// and publish the committed view. Refused (and swallowed) when no
    /// join is staged or the joining node crashed mid-window — the
    /// handover view keeps serving, exactly like the threaded engine.
    CommitJoin,
    /// Permanently deschedule one of a worker's match lanes mid-run — the
    /// deterministic model of a helper lane thread dying. The crashed
    /// lane's queued units stay stealable, so in-flight batches still
    /// complete exactly; lane 0 (the worker thread itself) is refused.
    /// No-op with [`InterleaveConfig::match_lanes`] of 1.
    CrashLane {
        /// The worker whose lane dies.
        node: NodeId,
        /// The lane index (`1..match_lanes`; 0 is refused).
        lane: usize,
    },
}

/// What one scheduled run produced.
#[derive(Debug, Clone)]
pub struct InterleaveReport {
    /// The engine's merged report, identical in shape to what
    /// [`Engine::shutdown`](crate::Engine::shutdown) returns.
    pub report: RuntimeReport,
    /// Union of matched filters per document across all nodes — the
    /// quantity the equivalence oracle predicts.
    pub delivered: BTreeMap<DocId, BTreeSet<FilterId>>,
    /// Documents that had at least one batch shed (only non-empty under
    /// [`OverflowPolicy::Shed`]). A shed doc may still appear in
    /// `delivered` with a subset of its matches: shedding is per
    /// node-batch, not per document.
    pub shed_docs: BTreeSet<DocId>,
    /// Documents that lost at least one task to a crash: destroyed in a
    /// dead worker's queue, or re-routed and finding no live replica. The
    /// at-most-once allowance of the fault-mode delivery oracle: a doc in
    /// here may be missing (some of) its matches; a doc outside `lost_docs
    /// ∪ shed_docs` must be delivered exactly.
    pub lost_docs: BTreeSet<DocId>,
    /// Scheduler steps taken (router commands + worker messages handled).
    pub steps: u64,
}

/// The shared worker table: the scheduler steps the workers, while the
/// transport's `restart` replaces dead entries — single-threaded, so a
/// `RefCell` arbitrates (borrows are scoped to one action each).
type WorkerTable = Rc<RefCell<Vec<Option<Worker>>>>;

/// The harness transport: physically unbounded mailboxes (capacity is the
/// scheduler's job, see the module docs) plus shed bookkeeping and the
/// restart hook.
struct SimTransport {
    // xtask:allow-unbounded — capacity is virtual, enforced by the
    // scheduler; a bounded channel would block the single harness thread.
    mailboxes: Vec<Sender<NodeMessage>>,
    workers: WorkerTable,
    delivery_tx: Sender<Delivery>,
    capacity: usize,
    overflow: OverflowPolicy,
    /// Match lanes per worker, applied to restarted and joined workers too.
    lanes: usize,
    /// Lane planner cost target, applied with `lanes`.
    cost_target: usize,
    shed_docs: BTreeSet<DocId>,
}

impl SimTransport {
    fn queue_len(&self, n: usize) -> usize {
        self.mailboxes[n].len()
    }

    /// Whether any mailbox is at or over the virtual capacity — the state
    /// in which a real router under [`OverflowPolicy::Block`] could be
    /// blocked inside a send. (A crashed worker's mailbox is empty — the
    /// crash drains it — so dead nodes never wedge this check.)
    fn at_capacity(&self) -> bool {
        self.mailboxes.iter().any(|m| m.len() >= self.capacity)
    }
}

impl Transport for SimTransport {
    fn nodes(&self) -> usize {
        self.mailboxes.len()
    }

    fn control(&mut self, n: usize, msg: NodeMessage) -> bool {
        self.mailboxes[n].send(msg).is_ok()
    }

    fn batch(&mut self, n: usize, msg: NodeMessage) -> BatchOutcome {
        if matches!(self.overflow, OverflowPolicy::Shed) && self.queue_len(n) >= self.capacity {
            if let NodeMessage::PublishDocument { batch } = &msg {
                for task in batch {
                    self.shed_docs.insert(task.doc.id());
                }
            }
            return BatchOutcome::Shed;
        }
        match self.mailboxes[n].send(msg) {
            Ok(()) => BatchOutcome::Delivered,
            Err(e) => crate::engine::reclaim(e.0),
        }
    }

    fn restart(&mut self, n: usize, index: Arc<InvertedIndex>, fanout: Arc<FanoutTable>) -> bool {
        // xtask:allow-unbounded — virtual capacity, same as the boot-time
        // mailboxes.
        let (tx, rx) = unbounded();
        let worker = Worker::with_lanes(
            NodeId(n as u32),
            index,
            fanout,
            rx,
            self.delivery_tx.clone(),
            self.lanes,
            self.cost_target,
            true,
        );
        self.workers.borrow_mut()[n] = Some(worker);
        self.mailboxes[n] = tx;
        true
    }

    fn join(&mut self, index: Arc<InvertedIndex>, fanout: Arc<FanoutTable>) -> bool {
        // xtask:allow-unbounded — virtual capacity, same as the boot-time
        // mailboxes.
        let (tx, rx) = unbounded();
        let n = self.mailboxes.len();
        let worker = Worker::with_lanes(
            NodeId(n as u32),
            index,
            fanout,
            rx,
            self.delivery_tx.clone(),
            self.lanes,
            self.cost_target,
            true,
        );
        self.workers.borrow_mut().push(Some(worker));
        self.mailboxes.push(tx);
        true
    }
}

/// The scheduler's choice set: advance the router by one command, one
/// worker by one mailbox message, or one match lane by one pool step
/// (pop / steal / execute / merge one unit).
#[derive(Debug, Clone, Copy)]
enum Action {
    Router,
    Worker(usize),
    /// `(node, lane)` — only offered while that node's pool has a batch in
    /// flight.
    Lane(usize, usize),
}

/// `xorshift64*` — deterministic, seedable, and good enough to pick
/// scheduling actions uniformly.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // The all-zero state is a fixed point of xorshift; remap it.
        Self(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Runs `script` against `scheme` under one seeded schedule, then performs
/// the engine's graceful shutdown (flush + drain) and returns everything
/// observable.
///
/// The run is fully deterministic given `(scheme state, script, config)` —
/// schemes with internal randomness (MOVE's row choice, RS's replica-group
/// choice) should be built from a seeded [`SystemConfig`]
/// (`move_core::SystemConfig`) for reproducibility.
///
/// # Errors
///
/// * Control-plane errors from the scheme (registration or allocation
///   failures) propagate as-is.
/// * A schedule in which no component can advance while work remains — a
///   genuine deadlock of the engine's message protocol — is reported as
///   [`MoveError::Internal`], as is exceeding the step budget (a livelock
///   guard; the budget is proportional to the script's maximum fan-out and
///   unreachable by any correct run).
pub fn run_schedule(
    scheme: Box<dyn Dissemination + Send>,
    script: Vec<ScriptOp>,
    config: &InterleaveConfig,
) -> Result<InterleaveReport> {
    let nodes = scheme.cluster().len();
    let lanes = config.match_lanes.max(1);
    let cost_target = config.lane_cost_target.max(1);
    // xtask:allow-unbounded — drained only after the run; bounding it
    // would deadlock the single harness thread.
    let (delivery_tx, delivery_rx) = unbounded();
    let fanout = scheme.fanout_table();
    let mut mailboxes = Vec::with_capacity(nodes);
    let mut table: Vec<Option<Worker>> = Vec::with_capacity(nodes);
    let mut bases = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let node = NodeId(i as u32);
        let index = scheme.shared_node_index(node);
        bases.push(Arc::clone(&index));
        // xtask:allow-unbounded — virtual capacity, see SimTransport.
        let (tx, rx) = unbounded();
        table.push(Some(Worker::with_lanes(
            node,
            index,
            Arc::clone(&fanout),
            rx,
            delivery_tx.clone(),
            lanes,
            cost_target,
            true,
        )));
        mailboxes.push(tx);
    }
    let workers: WorkerTable = Rc::new(RefCell::new(table));

    let transport = SimTransport {
        mailboxes,
        workers: Rc::clone(&workers),
        delivery_tx,
        capacity: config.mailbox_capacity.max(1),
        overflow: config.overflow,
        lanes,
        cost_target,
        shed_docs: BTreeSet::new(),
    };
    let runtime_config = RuntimeConfig {
        mailbox_capacity: config.mailbox_capacity.max(1),
        command_capacity: 1, // unused: the script stands in for the channel
        overflow: config.overflow,
        batch_size: config.batch_size.max(1),
        // The adaptive controller reads wall clocks; pin it off so the
        // schedule (and everything derived from it) is a pure function of
        // the seed.
        batch_policy: crate::config::BatchPolicy::Fixed,
        flush_interval: Duration::from_millis(1), // unused: `ScriptOp::Drain` stands in for the idle loop
        supervision: config.supervision,
        publishers: 1, // the harness drives the serial router directly
        match_lanes: lanes,
        lane_cost_target: cost_target,
    };
    let plan = crate::fault::FaultPlan::none();
    let mut router = Router::new(scheme, runtime_config, transport, plan, bases);

    let fault_ops = script
        .iter()
        .filter(|op| {
            matches!(
                op,
                ScriptOp::Crash(_)
                    | ScriptOp::Restart(_)
                    | ScriptOp::Delay { .. }
                    | ScriptOp::Join
                    | ScriptOp::CommitJoin
                    | ScriptOp::CrashLane { .. }
            )
        })
        .count() as u64;
    let join_ops = script
        .iter()
        .filter(|op| matches!(op, ScriptOp::Join))
        .count();
    let mut script: VecDeque<ScriptOp> = script.into();
    // Each script op enqueues at most ~2 messages per node (a batch plus an
    // allocation update), shutdown adds one per node, and every message is
    // handled in one step — so any correct run is far below this budget.
    // Fault ops multiply it: each restart replays the full since-journal,
    // and each delay parks a worker for a stretch of steps. Joins grow the
    // cluster, so the per-node fan-out is sized at the maximum node count.
    let max_nodes = (nodes + join_ops) as u64;
    // With match lanes, each batch message expands into several pool-unit
    // steps (cost-packed term groups or task items; at most one unit per
    // term occurrence), so the budget scales with the lane count too.
    let budget = ((script.len() as u64 + 2) * (2 * max_nodes + 4) * 4 + 1000)
        * (1 + fault_ops)
        * (1 + lanes as u64);
    let mut rng = Rng::new(config.seed);
    let mut shutdown_sent = false;
    let mut finals = Vec::with_capacity(nodes);
    let mut delays: Vec<u64> = vec![0; nodes];
    let mut steps: u64 = 0;
    let mut actions: Vec<Action> = Vec::with_capacity(nodes + 1);

    loop {
        if shutdown_sent && workers.borrow().iter().all(Option::is_none) {
            break; // graceful termination: every worker drained and stopped
        }
        // A staged join may have grown the cluster since last step.
        if delays.len() < router.transport.nodes() {
            delays.resize(router.transport.nodes(), 0);
        }
        actions.clear();
        // The router may advance unless a Block-policy send could be
        // blocked on a full mailbox right now.
        let router_blocked =
            matches!(config.overflow, OverflowPolicy::Block) && router.transport.at_capacity();
        if !shutdown_sent && !router_blocked {
            actions.push(Action::Router);
        }
        for (i, w) in workers.borrow().iter().enumerate() {
            let Some(w) = w else { continue };
            if delays[i] != 0 {
                continue;
            }
            if w.pool_busy() {
                // A batch is in flight: the worker completes it before its
                // next receive (the threaded driver blocks inside the pool
                // here), so the mailbox action is suppressed and the
                // individual lane steps become the schedulable actions.
                for lane in 0..w.lane_count() {
                    if !w.lane_crashed(lane) {
                        actions.push(Action::Lane(i, lane));
                    }
                }
            } else if router.transport.queue_len(i) > 0 {
                actions.push(Action::Worker(i));
            }
        }
        if actions.is_empty() {
            if delays.iter().any(|&d| d > 0) {
                // Every runnable component is parked behind a Delay: time
                // passes (one step), the delays tick down, and scheduling
                // resumes — a stall, not a deadlock.
                steps += 1;
                if steps > budget {
                    return Err(MoveError::Internal(format!(
                        "interleaving livelock: step budget {budget} exceeded (seed {seed})",
                        seed = config.seed
                    )));
                }
                for d in &mut delays {
                    *d = d.saturating_sub(1);
                }
                continue;
            }
            // Work remains but nothing can advance: the message protocol
            // deadlocked (e.g. a lost shutdown would strand a worker here).
            return Err(MoveError::Internal(format!(
                "interleaving deadlock at step {steps}: no enabled actions \
                 (seed {seed})",
                seed = config.seed
            )));
        }
        steps += 1;
        if steps > budget {
            return Err(MoveError::Internal(format!(
                "interleaving livelock: step budget {budget} exceeded (seed {seed})",
                seed = config.seed
            )));
        }
        for d in &mut delays {
            *d = d.saturating_sub(1);
        }
        match actions[rng.below(actions.len())] {
            Action::Router => match script.pop_front() {
                Some(ScriptOp::Register(f)) => {
                    router.handle_command(Command::Register(f))?;
                }
                Some(ScriptOp::Unregister(id)) => {
                    router.handle_command(Command::Unregister(id))?;
                }
                Some(ScriptOp::Publish(d)) => {
                    router.handle_command(Command::Publish(Box::new(d)))?;
                }
                Some(ScriptOp::Drain) => router.flush_all(FlushCause::Drain),
                Some(ScriptOp::Crash(n)) => {
                    router.fault(n.as_usize(), FaultAction::Crash);
                }
                Some(ScriptOp::Restart(n)) => {
                    let dead = workers.borrow()[n.as_usize()].is_none();
                    if dead {
                        // The transport always accepts restarts here, so
                        // revive cannot fail; the guard keeps a Restart on
                        // a live node from clobbering its counters.
                        let _ = router.revive(n.as_usize());
                    }
                }
                Some(ScriptOp::Delay { node, steps: s }) => {
                    let n = node.as_usize();
                    delays[n] = delays[n].max(s);
                }
                Some(ScriptOp::PinView { docs }) => {
                    router.pin_view(docs);
                }
                Some(ScriptOp::Join) => {
                    router.begin_join()?;
                }
                Some(ScriptOp::CommitJoin) => {
                    // Refused when the joiner crashed mid-window (old
                    // copies stay, the handover view keeps serving) or
                    // when no join is staged — both are legal schedules,
                    // so the refusal is swallowed, not propagated.
                    let _ = router.commit_join();
                }
                Some(ScriptOp::CrashLane { node, lane }) => {
                    // The pool refuses lane 0 and out-of-range lanes; a
                    // crash on an already-dead worker is a no-op too.
                    if let Some(w) = workers.borrow()[node.as_usize()].as_ref() {
                        w.crash_lane(lane);
                    }
                }
                None => {
                    router.shutdown_workers();
                    shutdown_sent = true;
                }
            },
            Action::Worker(i) => {
                let stepped = match workers.borrow_mut()[i].as_mut() {
                    Some(w) => w.try_step(),
                    None => WorkerStep::Empty,
                };
                if matches!(stepped, WorkerStep::Stopped) {
                    if let Some(w) = workers.borrow_mut()[i].take() {
                        finals.push(w.finish());
                    }
                }
            }
            Action::Lane(i, lane) => {
                if let Some(w) = workers.borrow_mut()[i].as_mut() {
                    // A step on a live lane of a busy pool always finds a
                    // unit (pop or steal) — the return value only matters
                    // for the threaded helper loop.
                    let _ = w.step_lane(lane);
                }
            }
        }
    }

    let shed_docs = std::mem::take(&mut router.transport.shed_docs);
    let report = router.into_report(finals);
    let lost_docs: BTreeSet<DocId> = report.lost_docs.iter().copied().collect();
    let mut delivered: BTreeMap<DocId, BTreeSet<FilterId>> = BTreeMap::new();
    for d in delivery_rx.try_iter() {
        delivered.entry(d.doc).or_default().extend(d.matched);
    }
    Ok(InterleaveReport {
        report,
        delivered,
        shed_docs,
        lost_docs,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use move_core::{IlScheme, SystemConfig};
    use move_types::TermId;

    fn small_scheme() -> Box<dyn Dissemination + Send> {
        Box::new(IlScheme::new(SystemConfig::small_test()).unwrap())
    }

    fn small_script() -> Vec<ScriptOp> {
        vec![
            ScriptOp::Register(Filter::new(1u64, [TermId(3), TermId(5)])),
            ScriptOp::Register(Filter::new(2u64, [TermId(4)])),
            ScriptOp::Publish(Document::from_distinct_terms(1u64, [TermId(3)])),
            ScriptOp::Publish(Document::from_distinct_terms(2u64, [TermId(4), TermId(5)])),
        ]
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = InterleaveConfig {
            seed: 42,
            ..InterleaveConfig::default()
        };
        let a = run_schedule(small_scheme(), small_script(), &cfg).unwrap();
        let b = run_schedule(small_scheme(), small_script(), &cfg).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn different_seeds_same_deliveries() {
        let mut outcomes = Vec::new();
        for seed in 0..16 {
            let cfg = InterleaveConfig {
                seed,
                ..InterleaveConfig::default()
            };
            let out = run_schedule(small_scheme(), small_script(), &cfg).unwrap();
            assert!(out.shed_docs.is_empty(), "Block policy must not shed");
            assert!(out.lost_docs.is_empty(), "no faults, nothing lost");
            outcomes.push(out.delivered);
        }
        for w in outcomes.windows(2) {
            assert_eq!(w[0], w[1], "delivery set must be schedule-independent");
        }
    }

    #[test]
    fn empty_script_shuts_down_cleanly() {
        let out = run_schedule(small_scheme(), Vec::new(), &InterleaveConfig::default()).unwrap();
        assert!(out.delivered.is_empty());
        assert_eq!(out.report.docs_published, 0);
    }

    #[test]
    fn shed_policy_accounts_for_every_task() {
        let cfg = InterleaveConfig {
            seed: 7,
            mailbox_capacity: 1,
            overflow: OverflowPolicy::Shed,
            batch_size: 1,
            ..InterleaveConfig::default()
        };
        let mut script = vec![ScriptOp::Register(Filter::new(1u64, [TermId(3)]))];
        for i in 0..50u64 {
            script.push(ScriptOp::Publish(Document::from_distinct_terms(
                i,
                [TermId(3)],
            )));
        }
        let out = run_schedule(small_scheme(), script, &cfg).unwrap();
        assert_eq!(out.report.docs_published, 50);
        let executed: u64 = out.report.nodes.iter().map(|n| n.doc_tasks).sum();
        assert_eq!(out.report.tasks_dispatched, executed);
    }

    #[test]
    fn lanes_deliver_the_serial_outcome_on_every_seed() {
        let serial = run_schedule(small_scheme(), small_script(), &InterleaveConfig::default())
            .unwrap()
            .delivered;
        for seed in 0..32u64 {
            let cfg = InterleaveConfig {
                seed,
                match_lanes: 3,
                batch_size: 2,
                ..InterleaveConfig::default()
            };
            let out = run_schedule(small_scheme(), small_script(), &cfg).unwrap();
            assert_eq!(
                out.delivered, serial,
                "seed {seed}: lanes changed deliveries"
            );
            assert!(out.lost_docs.is_empty());
        }
    }

    #[test]
    fn a_crashed_lane_never_loses_a_batch() {
        for seed in 0..32u64 {
            let cfg = InterleaveConfig {
                seed,
                match_lanes: 4,
                batch_size: 4,
                ..InterleaveConfig::default()
            };
            let mut script = vec![ScriptOp::Register(Filter::new(1u64, [TermId(3)]))];
            for i in 0..8u64 {
                script.push(ScriptOp::Publish(Document::from_distinct_terms(
                    i,
                    [TermId(3)],
                )));
                if i == 3 {
                    // Lands mid-stream: depending on the seed the lane dies
                    // before, during, or after a batch is in flight.
                    script.push(ScriptOp::CrashLane {
                        node: NodeId(0),
                        lane: 2,
                    });
                }
            }
            let out = run_schedule(small_scheme(), script, &cfg).unwrap();
            assert_eq!(out.report.docs_published, 8, "seed {seed}");
            assert_eq!(out.delivered.len(), 8, "seed {seed}: every doc must match");
            let executed: u64 = out.report.nodes.iter().map(|n| n.doc_tasks).sum();
            assert_eq!(out.report.tasks_dispatched, executed, "seed {seed}");
        }
    }

    #[test]
    fn crash_then_restart_recovers_registrations() {
        // Crash the worker hosting the filter, restart it, and publish:
        // the journal replay must restore the filter so the doc matches.
        let filter = Filter::new(1u64, [TermId(3)]);
        let home = small_scheme().registration_targets(&filter)[0].0;
        for seed in 0..24u64 {
            let cfg = InterleaveConfig {
                seed,
                ..InterleaveConfig::default()
            };
            let script = vec![
                ScriptOp::Register(filter.clone()),
                ScriptOp::Crash(home),
                ScriptOp::Restart(home),
                ScriptOp::Publish(Document::from_distinct_terms(1u64, [TermId(3)])),
            ];
            let out = run_schedule(small_scheme(), script, &cfg).unwrap();
            // At-most-once: if the schedule let the crash land after the
            // publish reached the mailbox (the Restart op no-ops on a
            // not-yet-dead worker), the doc dies in the drained queue and
            // must be reported lost; otherwise the journal replay must
            // restore the filter and the doc must match it exactly.
            let expected = BTreeSet::from([FilterId(1)]);
            match out.delivered.get(&DocId(1)) {
                Some(got) => assert_eq!(got, &expected, "seed {seed}: wrong match set"),
                None => assert!(
                    out.lost_docs.contains(&DocId(1)),
                    "seed {seed}: undelivered doc must be reported lost"
                ),
            }
            assert!(
                out.report.restarts >= 1 || out.lost_docs.contains(&DocId(1)),
                "seed {seed}: either the restart happened or the doc was lost"
            );
        }
    }
}

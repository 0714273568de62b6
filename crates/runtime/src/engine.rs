//! The engine façade, its router, and the transport seam between them.
//!
//! The router's decision logic — routing plans, batching, flush ordering,
//! the overflow policy, allocation-refresh fencing, and since PR 3 the
//! fault-injection and supervision machinery — lives in [`Router`], which
//! is generic over a [`Transport`]: the production engine plugs in
//! [`ThreadTransport`] (real worker threads behind bounded channels), while
//! the deterministic interleaving harness in [`crate::interleave`] plugs in
//! an in-process transport it can single-step. Both drivers therefore
//! exercise the *same* router code path, so schedules the harness proves
//! safe are schedules of the production router, not of a model of it.
//!
//! # Failure semantics
//!
//! A worker is **dead** exactly when its mailbox receiver is gone: sends
//! fail, which every send site observes. The router reacts per its
//! [`SupervisionPolicy`]:
//!
//! * **restart** — respawn the worker from its registration journal's base
//!   snapshot, replay the journaled registrations, and resend the batch
//!   (with bounded retries and backoff). Registrations are journaled
//!   before the send, so a send that discovers the death is itself covered
//!   by the replay.
//! * **failover** — declare the node dead in the scheme's membership and
//!   re-route the stranded documents; the scheme's own routing (the same
//!   `route` the simulator uses) then fails the hop over to the
//!   placement's replica rows. Re-routed documents may produce duplicate
//!   deliveries on nodes that already matched them — consumers union per
//!   document, so duplicates are benign, and false deliveries remain
//!   structurally impossible (workers only hold genuinely placed filters).
//!
//! Work already *queued* at a crashed worker dies with it (counted in
//! [`RuntimeReport::tasks_lost`]): delivery is at-most-once for documents
//! in flight at the moment of a crash, exactly-once otherwise.

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use move_core::{Dissemination, MatchTask, RegisterOp, RoutingView, UnregisterOp};
use move_index::{FanoutTable, InvertedIndex};
use move_stats::LatencyHistogram;
use move_types::{DocId, Document, Filter, FilterId, MoveError, NodeId, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::config::{OverflowPolicy, RuntimeConfig};
use crate::dispatch::{Dispatcher, FlushCause, Wake};
use crate::fault::{FaultEvent, FaultPlan};
use crate::ingest::{IngestCommand, IngestShared, IngestTable, IngestThread, Pool};
use crate::message::{Delivery, DocTask, NodeMessage};
use crate::metrics::{IngestMetrics, NodeMetrics, RuntimeReport};
use crate::supervisor::{JournalOp, Supervisor};
use crate::worker::{Worker, WorkerFinal};

/// The seed of the control thread's replica-choice RNG (ingest threads
/// derive their own from it; see [`IngestThread::new`]).
const VIEW_RNG_SEED: u64 = 0x1357_9BDF_2468_ACE0;

/// Publisher-facing commands on the bounded router channel. The bound is
/// the outermost backpressure stage: when the router stalls on a full
/// worker mailbox (Block policy), this channel fills and `publish` blocks.
/// In router-pool mode the same channel doubles as the ingest threads'
/// up-link to the control thread ([`Command::Gone`],
/// [`Command::IngestExited`]).
pub(crate) enum Command {
    Register(Filter),
    /// Pool-mode registration: acked only after the control thread has
    /// barriered the ingest plane and placed the filter, so a publisher's
    /// register→publish order is preserved end to end.
    RegisterSync(Filter, Sender<()>),
    Unregister(FilterId),
    /// Pool-mode unregistration, acked like [`Command::RegisterSync`].
    UnregisterSync(FilterId, Sender<()>),
    Publish(Box<Document>),
    Stats(Sender<Vec<NodeMetrics>>),
    /// An ingest thread found worker `node` dead (or already declared
    /// dead); the stranded batch comes to the control thread for
    /// supervised restart or failover.
    Gone {
        node: usize,
        batch: Vec<DocTask>,
    },
    /// An ingest thread exited; its final counters for the report.
    IngestExited {
        metrics: IngestMetrics,
    },
    /// Stage a node join, run the handover window, and commit the new
    /// layout — the live-rebalancing entry point (see [`crate::rebalance`]).
    Join {
        /// Documents the handover window stays open for (pool mode; the
        /// serial router commits immediately — nothing publishes
        /// concurrently with it).
        window_docs: u64,
        /// Where the migration outcome (or the staging error) goes.
        reply: Sender<Result<crate::rebalance::JoinOutcome>>,
    },
    Shutdown,
}

/// What happened to a document batch handed to the transport.
#[derive(Debug)]
pub(crate) enum BatchOutcome {
    /// The batch was enqueued on the worker's mailbox.
    Delivered,
    /// The mailbox was full under [`OverflowPolicy::Shed`]; the batch was
    /// dropped.
    Shed,
    /// The worker is gone (its mailbox disconnected); the undelivered
    /// tasks come back so the supervisor can resend or fail them over.
    Gone(Vec<DocTask>),
}

/// Recovers the tasks of a batch message a dead worker's mailbox returned.
pub(crate) fn reclaim(msg: NodeMessage) -> BatchOutcome {
    match msg {
        NodeMessage::PublishDocument { batch } => BatchOutcome::Gone(batch),
        // `Transport::batch` is only ever called with `PublishDocument`;
        // other returned messages carry no tasks to reclaim.
        NodeMessage::RegisterFilter { .. }
        | NodeMessage::UnregisterFilter { .. }
        | NodeMessage::Subscribe { .. }
        | NodeMessage::Unsubscribe { .. }
        | NodeMessage::AllocationUpdate { .. }
        | NodeMessage::InstallPartitions { .. }
        | NodeMessage::RetirePartitions { .. }
        | NodeMessage::StatsReport { .. }
        | NodeMessage::Fault { .. }
        | NodeMessage::Ping { .. }
        | NodeMessage::Shutdown => BatchOutcome::Gone(Vec::new()),
    }
}

/// Sends one batch message into a worker mailbox under the overflow
/// policy — the one send every threaded dispatcher (the router's
/// [`ThreadTransport`], each ingest thread) goes through.
pub(crate) fn send_batch(
    mailbox: &Sender<NodeMessage>,
    overflow: OverflowPolicy,
    msg: NodeMessage,
) -> BatchOutcome {
    match overflow {
        OverflowPolicy::Block => match mailbox.send(msg) {
            Ok(()) => BatchOutcome::Delivered,
            Err(e) => reclaim(e.0),
        },
        OverflowPolicy::Shed => match mailbox.try_send(msg) {
            Ok(()) => BatchOutcome::Delivered,
            Err(TrySendError::Full(_)) => BatchOutcome::Shed,
            Err(TrySendError::Disconnected(m)) => reclaim(m),
        },
    }
}

/// The router's outbound seam: how messages reach node workers.
///
/// Control messages (registration, allocation updates, stats requests,
/// shutdown, injected faults, heartbeats) must not be silently shed, so
/// [`Transport::control`] reports only delivered-or-dead; document batches
/// go through [`Transport::batch`], which applies the overflow policy.
/// [`Transport::restart`] is the supervision hook: replace a dead worker
/// with a fresh one booted from the given index shard.
pub(crate) trait Transport {
    /// Number of node workers reachable through this transport.
    fn nodes(&self) -> usize;

    /// Delivers a control message to node `n`, blocking if necessary.
    /// Returns `false` when the worker is dead (mailbox disconnected).
    fn control(&mut self, n: usize, msg: NodeMessage) -> bool;

    /// Delivers a document batch to node `n` under the overflow policy.
    fn batch(&mut self, n: usize, msg: NodeMessage) -> BatchOutcome;

    /// Replaces a dead worker `n` with a fresh one serving `index` and
    /// expanding deliveries through `fanout`. Returns `false` when this
    /// transport cannot restart workers (e.g. during engine teardown).
    fn restart(&mut self, n: usize, index: Arc<InvertedIndex>, fanout: Arc<FanoutTable>) -> bool;

    /// Admits a **new** worker at index `nodes()` serving `index` with
    /// fan-out table `fanout` — the transport half of a staged node join.
    /// Returns `false` when this transport cannot spawn workers (engine
    /// teardown).
    fn join(&mut self, index: Arc<InvertedIndex>, fanout: Arc<FanoutTable>) -> bool;
}

/// The production transport: one bounded crossbeam channel per worker
/// thread, plus everything needed to respawn one.
pub(crate) struct ThreadTransport {
    workers: Vec<Sender<NodeMessage>>,
    handles: Vec<JoinHandle<()>>,
    overflow: OverflowPolicy,
    mailbox_capacity: usize,
    /// Match lanes per worker (1 = inline matching; see [`crate::lanes`]).
    match_lanes: usize,
    /// Per-unit scan-cost target of the lane planner
    /// ([`RuntimeConfig::lane_cost_target`]).
    lane_cost_target: usize,
    delivery_tx: Sender<Delivery>,
    /// `None` once shutdown starts — restarts are refused and the finals
    /// channel can disconnect.
    final_tx: Option<Sender<WorkerFinal>>,
}

impl ThreadTransport {
    /// Spawns (or respawns) worker `n` serving `index`, expanding
    /// deliveries through `fanout`.
    fn spawn_worker(
        &mut self,
        n: usize,
        index: Arc<InvertedIndex>,
        fanout: Arc<FanoutTable>,
    ) -> Result<()> {
        let Some(final_tx) = self.final_tx.clone() else {
            return Err(MoveError::Runtime("engine is shutting down".into()));
        };
        let (tx, rx) = bounded(self.mailbox_capacity);
        let worker = Worker::with_lanes(
            NodeId(n as u32),
            index,
            fanout,
            rx,
            self.delivery_tx.clone(),
            self.match_lanes,
            self.lane_cost_target,
            false,
        );
        let handle = thread::Builder::new()
            .name(format!("move-node-{n}"))
            .spawn(move || {
                let _ = final_tx.send(worker.run());
            })
            .map_err(|e| MoveError::Runtime(format!("spawn worker thread {n}: {e}")))?;
        if n < self.workers.len() {
            self.workers[n] = tx;
        } else {
            self.workers.push(tx);
        }
        self.handles.push(handle);
        Ok(())
    }
}

impl Transport for ThreadTransport {
    fn nodes(&self) -> usize {
        self.workers.len()
    }

    fn control(&mut self, n: usize, msg: NodeMessage) -> bool {
        self.workers[n].send(msg).is_ok()
    }

    fn batch(&mut self, n: usize, msg: NodeMessage) -> BatchOutcome {
        send_batch(&self.workers[n], self.overflow, msg)
    }

    fn restart(&mut self, n: usize, index: Arc<InvertedIndex>, fanout: Arc<FanoutTable>) -> bool {
        self.spawn_worker(n, index, fanout).is_ok()
    }

    fn join(&mut self, index: Arc<InvertedIndex>, fanout: Arc<FanoutTable>) -> bool {
        let n = self.workers.len();
        self.spawn_worker(n, index, fanout).is_ok()
    }
}

/// A running live engine over one dissemination scheme.
///
/// See the crate docs for the architecture; see [`RuntimeConfig`] for the
/// tuning knobs. All methods take `&self` — the engine is driven from one
/// publisher thread but is internally thread-safe.
#[derive(Debug)]
pub struct Engine {
    commands: Sender<Command>,
    /// Ingest-thread command senders (empty in single-router mode).
    ingest: Vec<Sender<IngestCommand>>,
    /// Round-robin cursor over `ingest`.
    next_ingest: AtomicUsize,
    deliveries: Receiver<Delivery>,
    router: Option<JoinHandle<Result<RuntimeReport>>>,
}

impl Engine {
    /// Boots one worker thread per cluster node (shards cloned from the
    /// scheme's current state, so filters registered before `start` are
    /// served) plus the router thread owning `scheme`. No faults are
    /// injected; see [`Engine::start_with_faults`].
    ///
    /// # Errors
    ///
    /// Returns [`MoveError::Runtime`] if the OS refuses to spawn a thread;
    /// any workers already spawned observe their mailboxes disconnect and
    /// exit on their own.
    pub fn start(scheme: Box<dyn Dissemination + Send>, config: RuntimeConfig) -> Result<Self> {
        Self::start_with_faults(scheme, config, FaultPlan::none())
    }

    /// Like [`Engine::start`], but with a seeded [`FaultPlan`] the router
    /// injects as it publishes — the wall-clock counterpart of the
    /// simulator's `fail_fraction`. Recovery follows
    /// [`RuntimeConfig::supervision`].
    ///
    /// # Errors
    ///
    /// Returns [`MoveError::Runtime`] if the OS refuses to spawn a thread.
    pub fn start_with_faults(
        scheme: Box<dyn Dissemination + Send>,
        config: RuntimeConfig,
        plan: FaultPlan,
    ) -> Result<Self> {
        let nodes = scheme.cluster().len();
        // The delivery stream must outlive shutdown (consumers drain it
        // after the workers exit) and bounding it would deadlock workers
        // against consumers that only start reading after `shutdown()`.
        let (delivery_tx, delivery_rx) = unbounded(); // xtask:allow-unbounded
                                                      // Each worker *incarnation* sends exactly one final; restarts make
                                                      // the count dynamic, so the channel is unbounded — its true bound
                                                      // is initial workers + supervised restarts.
        let (final_tx, final_rx) = unbounded(); // xtask:allow-unbounded
        let mut transport = ThreadTransport {
            workers: Vec::with_capacity(nodes),
            handles: Vec::with_capacity(nodes),
            overflow: config.overflow,
            mailbox_capacity: config.mailbox_capacity,
            match_lanes: config.match_lanes.max(1),
            lane_cost_target: config.lane_cost_target.max(1),
            delivery_tx,
            final_tx: Some(final_tx),
        };
        // Filters registered before `start` may already be aggregated;
        // every worker boots from the scheme's current fan-out snapshot
        // (empty for non-aggregating schemes — identity expansion).
        let fanout = scheme.fanout_table();
        let mut bases = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let index = scheme.shared_node_index(NodeId(i as u32));
            bases.push(Arc::clone(&index));
            transport.spawn_worker(i, index, Arc::clone(&fanout))?;
        }

        let (cmd_tx, cmd_rx) = bounded(config.command_capacity);
        let publishers = config.publishers.max(1);
        let command_capacity = config.command_capacity;
        let router = Router::new(scheme, config, transport, plan, bases);
        // Router-pool mode: N publisher-facing ingest threads route
        // against the shared snapshot table; the router thread becomes the
        // control plane (registration, allocation refresh, supervision,
        // fault injection).
        let mut ingest_txs = Vec::new();
        let mut ingest_handles = Vec::new();
        if publishers > 1 {
            let shared = Arc::new(IngestShared::new(
                publishers,
                nodes,
                IngestTable {
                    view: router.view.clone(),
                    senders: router.transport.workers.clone(),
                    dead: router.dead.clone(),
                },
            ));
            for t in 0..publishers {
                let (tx, rx) = bounded(command_capacity);
                let thread_state = IngestThread::new(
                    t,
                    nodes,
                    Arc::clone(&shared),
                    cmd_tx.clone(),
                    &router.config,
                    VIEW_RNG_SEED,
                );
                let handle = thread::Builder::new()
                    .name(format!("move-ingest-{t}"))
                    .spawn(move || thread_state.run(&rx))
                    .map_err(|e| MoveError::Runtime(format!("spawn ingest thread {t}: {e}")))?;
                ingest_txs.push(tx);
                ingest_handles.push(handle);
            }
            let pool = Pool {
                shared,
                ingest: ingest_txs.clone(),
                handles: ingest_handles,
            };
            thread::Builder::new()
                .name("move-router".into())
                .spawn(move || router.run_pool(&cmd_rx, &final_rx, pool))
        } else {
            thread::Builder::new()
                .name("move-router".into())
                .spawn(move || router.run(&cmd_rx, &final_rx))
        }
        .map_err(|e| MoveError::Runtime(format!("spawn router thread: {e}")))
        .map(|handle| Self {
            commands: cmd_tx,
            ingest: ingest_txs,
            next_ingest: AtomicUsize::new(0),
            deliveries: delivery_rx,
            router: Some(handle),
        })
    }

    /// Registers a filter: the control plane places it, then the affected
    /// workers install serving copies (FIFO-ordered after any documents
    /// already queued for them). In router-pool mode the call is
    /// synchronous — it returns only after the control thread has fenced
    /// the ingest plane and placed the filter, so a subsequent `publish`
    /// is guaranteed to route against the registered filter.
    pub fn register(&self, filter: Filter) {
        if self.ingest.is_empty() {
            let _ = self.commands.send(Command::Register(filter));
            return;
        }
        let (tx, rx) = bounded(1);
        if self
            .commands
            .send(Command::RegisterSync(filter, tx))
            .is_ok()
        {
            let _ = rx.recv();
        }
    }

    /// Unregisters a subscriber: the control plane removes the
    /// subscription and — when it was the predicate's last — drops the
    /// canonical's serving copies from the affected workers. Synchronous
    /// in router-pool mode, like [`Engine::register`].
    pub fn unregister(&self, id: FilterId) {
        if self.ingest.is_empty() {
            let _ = self.commands.send(Command::Unregister(id));
            return;
        }
        let (tx, rx) = bounded(1);
        if self.commands.send(Command::UnregisterSync(id, tx)).is_ok() {
            let _ = rx.recv();
        }
    }

    /// Publishes a document into the pipeline. Blocks when the command
    /// channel is full — the backpressure the bounded mailboxes propagate
    /// up under [`OverflowPolicy::Block`]. In router-pool mode documents
    /// are round-robined over the ingest threads.
    pub fn publish(&self, doc: Document) {
        if self.ingest.is_empty() {
            let _ = self.commands.send(Command::Publish(Box::new(doc)));
            return;
        }
        let i = self.next_ingest.fetch_add(1, Ordering::Relaxed) % self.ingest.len();
        let _ = self.ingest[i].send(IngestCommand::Publish(Box::new(doc)));
    }

    /// Snapshot of every worker's metrics. This is also a **barrier**: the
    /// router first flushes all pending batches and each worker replies
    /// only after handling everything earlier in its mailbox, so on return
    /// all previously published documents have been fully matched.
    #[must_use]
    pub fn stats(&self) -> Vec<NodeMetrics> {
        let (tx, rx) = bounded(1);
        if self.commands.send(Command::Stats(tx)).is_err() {
            return Vec::new();
        }
        rx.recv().unwrap_or_default()
    }

    /// Blocks until all previously published documents are fully matched.
    pub fn flush(&self) {
        let _ = self.stats();
    }

    /// Adds a node to the running cluster without stopping the publishers:
    /// stages the next layout version, spawns the new worker with the
    /// re-homed filter partitions, keeps ingest flowing (double-routing
    /// affected documents to the partitions' old homes) for a handover
    /// window of `window_docs` more published documents, then commits the
    /// layout and retires the old copies. In serial mode (one publisher)
    /// nothing publishes concurrently, so the window is empty and the join
    /// commits immediately.
    ///
    /// # Errors
    ///
    /// Returns [`MoveError::Runtime`] when the engine is shutting down, and
    /// propagates the scheme's staging error (e.g. a scheme without
    /// elastic-join support).
    pub fn join_node(&self, window_docs: u64) -> Result<crate::rebalance::JoinOutcome> {
        let (tx, rx) = bounded(1);
        self.commands
            .send(Command::Join {
                window_docs,
                reply: tx,
            })
            .map_err(|_| MoveError::Runtime("engine is shutting down".into()))?;
        rx.recv()
            .map_err(|_| MoveError::Runtime("router exited during the join".into()))?
    }

    /// A handle to the delivery stream (cloneable; deliveries already
    /// consumed elsewhere are not replayed).
    #[must_use]
    pub fn deliveries(&self) -> Receiver<Delivery> {
        self.deliveries.clone()
    }

    /// Publishes one document and waits for its complete delivery set —
    /// the interactive (CLI) mode. Only meaningful when the caller is the
    /// sole publisher: the internal barrier drains the shared delivery
    /// stream, discarding other documents' deliveries.
    #[must_use]
    pub fn publish_sync(&self, doc: Document) -> Vec<FilterId> {
        let id = doc.id();
        self.publish(doc);
        self.flush();
        let mut matched: Vec<FilterId> = self
            .deliveries
            .try_iter()
            .filter(|d| d.doc == id)
            .flat_map(|d| d.matched)
            .collect();
        matched.sort_unstable();
        matched.dedup();
        matched
    }

    /// Graceful shutdown: drains every mailbox, stops all threads, and
    /// returns the merged report. Deliveries still queued in the delivery
    /// stream remain readable from handles obtained via
    /// [`Engine::deliveries`] before this call.
    ///
    /// # Errors
    ///
    /// Propagates a control-plane (allocation) error that aborted the
    /// router, and reports a panicked router or worker thread as
    /// [`MoveError::Runtime`]; worker state is torn down either way.
    pub fn shutdown(mut self) -> Result<RuntimeReport> {
        // In pool mode the control thread forwards the shutdown to the
        // ingest threads itself: it is the only writer of protocol messages
        // into their mailboxes, so a fence can never queue behind one.
        let _ = self.commands.send(Command::Shutdown);
        let Some(handle) = self.router.take() else {
            return Err(MoveError::Runtime("router already joined".into()));
        };
        handle
            .join()
            .map_err(|_| MoveError::Runtime("router thread panicked".into()))?
    }
}

/// The decision half of the engine: owns the scheme, accumulates per-node
/// batches, injects scheduled faults, supervises dead workers, and speaks
/// to workers only through its [`Transport`].
pub(crate) struct Router<T> {
    pub(crate) scheme: Box<dyn Dissemination + Send>,
    pub(crate) config: RuntimeConfig,
    pub(crate) transport: T,
    /// The immutable routing snapshot every document is routed against —
    /// the same object ingest threads hold in pool mode. Republished
    /// (epoch + 1) on registration, allocation refresh, and membership
    /// change; see [`Router::refresh_view`].
    pub(crate) view: RoutingView,
    /// Replica-row / replica-group choices for view-based routing. The
    /// stream differs from the scheme's own RNG, which is fine: replicas
    /// hold identical filter subsets, so delivery sets are unaffected.
    view_rng: StdRng,
    /// When nonzero, registration-driven view refreshes are deferred for
    /// this many more published documents — the interleaving harness's
    /// model of an ingest thread still routing on a stale snapshot.
    /// Allocation refreshes and membership changes clear the pin (they
    /// fence the real pool).
    pub(crate) pin_docs: u64,
    /// Final counters reported by exited ingest threads (pool mode).
    pub(crate) ingest_metrics: Vec<IngestMetrics>,
    /// Per-node batches under accumulation and the rules that flush them
    /// (see [`crate::dispatch`]); ingest threads each own an independent one.
    pub(crate) dispatch: Dispatcher,
    /// Scheduled fault events, sorted by trigger point.
    plan: Vec<FaultEvent>,
    /// Index of the next unfired fault event.
    next_fault: usize,
    /// The supervision state: per-node registration journals + counters.
    pub(crate) supervisor: Supervisor,
    /// Nodes declared dead under the failover policy (never routed to
    /// again until revived).
    pub(crate) dead: Vec<bool>,
    /// The staged-but-uncommitted node join, if one is in its handover
    /// window (see [`crate::rebalance`]).
    pub(crate) pending_join: Option<crate::rebalance::PendingJoin>,
    /// Live-rebalancing counters for the report.
    pub(crate) migration: crate::rebalance::MigrationCounters,
    /// Documents whose re-routed tasks found no live replica.
    pub(crate) lost_docs: BTreeSet<DocId>,
    /// `docs_published` at the most recent death discovery (see
    /// [`RuntimeReport::deaths_settled_at`]).
    deaths_settled_at: Option<u64>,
    /// Tasks dropped because failover found no live replica.
    tasks_failed: u64,
    pub(crate) docs_published: u64,
    pub(crate) tasks_dispatched: u64,
    pub(crate) tasks_shed: u64,
    pub(crate) allocation_updates: u64,
    /// Live registrations applied (post-start churn included).
    pub(crate) registrations: u64,
    /// Live unregistrations applied.
    pub(crate) unregistrations: u64,
    /// Registrations that hit an already-live canonical predicate.
    pub(crate) canonical_hits: u64,
}

impl<T: Transport> Router<T> {
    pub(crate) fn new(
        scheme: Box<dyn Dissemination + Send>,
        config: RuntimeConfig,
        transport: T,
        plan: FaultPlan,
        bases: Vec<Arc<InvertedIndex>>,
    ) -> Self {
        let nodes = transport.nodes();
        let view = scheme.routing_view(0);
        let dispatch = Dispatcher::new(nodes, &config);
        let supervisor = Supervisor::new(bases, scheme.fanout_table());
        Self {
            scheme,
            config,
            dispatch,
            transport,
            view,
            view_rng: StdRng::seed_from_u64(VIEW_RNG_SEED),
            pin_docs: 0,
            ingest_metrics: Vec::new(),
            plan: plan.events,
            next_fault: 0,
            supervisor,
            dead: vec![false; nodes],
            pending_join: None,
            migration: crate::rebalance::MigrationCounters::default(),
            lost_docs: BTreeSet::new(),
            deaths_settled_at: None,
            tasks_failed: 0,
            docs_published: 0,
            tasks_dispatched: 0,
            tasks_shed: 0,
            allocation_updates: 0,
            registrations: 0,
            unregistrations: 0,
            canonical_hits: 0,
        }
    }

    /// Applies one publisher command. Returns `Ok(false)` when the command
    /// asks the router to stop ([`Command::Shutdown`]).
    ///
    /// # Errors
    ///
    /// Propagates control-plane errors from the scheme (registration or
    /// allocation-refresh failures).
    pub(crate) fn handle_command(&mut self, cmd: Command) -> Result<bool> {
        match cmd {
            Command::Publish(doc) => self.publish(&Arc::new(*doc))?,
            Command::Register(filter) => self.register(&filter)?,
            Command::RegisterSync(filter, ack) => {
                self.register(&filter)?;
                let _ = ack.send(());
            }
            Command::Unregister(id) => self.unregister(id)?,
            Command::UnregisterSync(id, ack) => {
                self.unregister(id)?;
                let _ = ack.send(());
            }
            Command::Stats(reply) => self.stats(&reply),
            Command::Gone { node, batch } => self.handle_gone(node, batch),
            Command::IngestExited { metrics } => self.ingest_metrics.push(metrics),
            Command::Join { reply, .. } => {
                // Serial router: no publisher runs concurrently with this
                // command, so the handover window is empty — stage and
                // commit back to back. The window knob only matters in
                // pool mode (see `pool_join`).
                let outcome = self.begin_join().and_then(|()| self.commit_join());
                let _ = reply.send(outcome);
            }
            Command::Shutdown => return Ok(false),
        }
        Ok(true)
    }

    /// Re-freezes the routing snapshot from the scheme's current state
    /// under the next epoch. Every mutation of routing inputs —
    /// registration, allocation refresh, membership change — funnels
    /// through here; in pool mode the caller then republishes the ingest
    /// table so the pool picks the new epoch up. While a join is in its
    /// handover window, the re-frozen view keeps carrying the handover
    /// map — double-routing must survive any mid-window refresh until the
    /// old copies are retired at commit.
    pub(crate) fn refresh_view(&mut self) {
        let epoch = self.view.epoch + 1;
        let mut view = self.scheme.routing_view(epoch);
        if let Some(join) = &self.pending_join {
            view = view.with_handover(join.moved_map());
        }
        self.view = view;
    }

    /// Defers registration-driven view refreshes for the next `docs`
    /// published documents — the deterministic model of a snapshot-refresh
    /// race (an ingest thread keeps routing on the old epoch while the
    /// control plane has already advanced). Used by the interleaving
    /// harness's `PinView` script op.
    pub(crate) fn pin_view(&mut self, docs: u64) {
        self.pin_docs = docs;
    }

    /// Injects a fault into node `n`'s mailbox out of schedule — the
    /// interleaving harness's `Crash` script op. A send to an
    /// already-dead worker is ignored (nothing left to fault).
    pub(crate) fn fault(&mut self, n: usize, action: crate::fault::FaultAction) {
        let _ = self.transport.control(n, NodeMessage::Fault { action });
    }

    /// Restarts node `n` from its journal and welcomes it back into the
    /// membership — the failover-then-the-node-returns transition (the
    /// interleaving harness's `Restart` script op). Returns `false` when
    /// the transport refuses.
    pub(crate) fn revive(&mut self, n: usize) -> bool {
        if !self.supervisor.restart_and_replay(n, &mut self.transport) {
            return false;
        }
        self.dead[n] = false;
        self.scheme
            .cluster_mut()
            .membership_mut()
            .recover(NodeId(n as u32));
        self.pin_docs = 0;
        self.refresh_view();
        true
    }

    /// Flushes the remaining batches and sends every worker a
    /// [`NodeMessage::Shutdown`], FIFO-ordered behind all earlier work.
    /// Send failures are ignored: a dead worker is already shut down.
    pub(crate) fn shutdown_workers(&mut self) {
        self.flush_all(FlushCause::Barrier);
        for n in 0..self.transport.nodes() {
            let _ = self.transport.control(n, NodeMessage::Shutdown);
        }
    }

    /// Merges worker finals with the router's own counters into the final
    /// report. A node restarted mid-run contributed one final per
    /// incarnation; they are summed (histograms merged) into one
    /// [`NodeMetrics`] entry.
    pub(crate) fn into_report(self, results: Vec<WorkerFinal>) -> RuntimeReport {
        let node_count = self.transport.nodes();
        let mut merged = LatencyHistogram::new();
        let mut per_node: BTreeMap<usize, (NodeMetrics, LatencyHistogram)> = BTreeMap::new();
        let mut worker_lost = 0u64;
        let mut lost_docs: BTreeSet<DocId> = self.lost_docs;
        for f in results {
            merged.merge(&f.histogram);
            worker_lost += f.metrics.tasks_lost;
            lost_docs.extend(f.lost_docs.iter().copied());
            let i = f.metrics.node.as_usize().min(node_count.saturating_sub(1));
            match per_node.get_mut(&i) {
                None => {
                    per_node.insert(i, (f.metrics, f.histogram));
                }
                Some((m, h)) => {
                    m.messages_processed += f.metrics.messages_processed;
                    m.doc_tasks += f.metrics.doc_tasks;
                    m.postings_scanned += f.metrics.postings_scanned;
                    m.deliveries += f.metrics.deliveries;
                    m.queue_depth_hwm = m.queue_depth_hwm.max(f.metrics.queue_depth_hwm);
                    m.tasks_lost += f.metrics.tasks_lost;
                    m.steals += f.metrics.steals;
                    m.lane_units += f.metrics.lane_units;
                    h.merge(&f.histogram);
                }
            }
        }
        let nodes = per_node
            .into_values()
            .map(|(mut m, h)| {
                m.latency = h.summary();
                m
            })
            .collect();
        let mut ingest = self.ingest_metrics;
        ingest.sort_by_key(|m| m.thread);
        RuntimeReport {
            scheme: self.scheme.name().to_owned(),
            docs_published: self.docs_published,
            tasks_dispatched: self.tasks_dispatched
                + ingest.iter().map(|m| m.tasks_dispatched).sum::<u64>(),
            tasks_shed: self.tasks_shed + ingest.iter().map(|m| m.tasks_shed).sum::<u64>(),
            allocation_updates: self.allocation_updates,
            joins: self.migration.joins,
            partitions_moved: self.migration.partitions_moved,
            docs_double_routed: self.migration.docs_double_routed
                + ingest.iter().map(|m| m.docs_double_routed).sum::<u64>(),
            handover_docs: self.migration.handover_docs,
            handover_nanos: self.migration.handover_nanos,
            restarts: self.supervisor.restarts,
            retries: self.supervisor.retries,
            failovers: self.supervisor.failovers,
            tasks_lost: worker_lost + self.tasks_failed,
            lost_docs: lost_docs.into_iter().collect(),
            deaths_settled_at: self.deaths_settled_at,
            batch_limit_hwm: ingest
                .iter()
                .map(|m| m.batch_limit_hwm)
                .fold(self.dispatch.limit_hwm(), u64::max),
            flushes: ingest
                .iter()
                .fold(self.dispatch.flushes(), |sum, m| sum + m.flushes),
            registrations: self.registrations,
            unregistrations: self.unregistrations,
            canonical_hits: self.canonical_hits,
            canonical_filters: self.scheme.canonical_filters(),
            aggregation_bytes: self.scheme.aggregation_bytes(),
            ingest,
            q_hits: self.scheme.doc_hits_per_node(),
            nodes,
            latency: merged.summary(),
        }
    }

    fn serve(&mut self, commands: &Receiver<Command>) -> Result<()> {
        loop {
            match self.dispatch.recv(commands, self.config.flush_interval) {
                Wake::Command(cmd) => {
                    if !self.handle_command(cmd)? {
                        return Ok(());
                    }
                }
                Wake::Drained => self.flush_all(FlushCause::Drain),
                // Idle: probe the workers so a death with no pending
                // traffic still heals.
                Wake::Idle => self.heartbeat(),
                Wake::Closed => return Ok(()),
            }
        }
    }

    /// Sends every live worker a [`NodeMessage::Ping`]. A worker is only
    /// declared dead on a *failed send* (disconnected mailbox) — a slow
    /// reply means a deep queue, not a death, so replies are not awaited.
    fn heartbeat(&mut self) {
        let (tx, _rx) = bounded(self.transport.nodes().max(1));
        for n in 0..self.transport.nodes() {
            if self.dead[n] {
                continue;
            }
            if !self
                .transport
                .control(n, NodeMessage::Ping { reply: tx.clone() })
            {
                self.supervise_control_failure(n);
            }
        }
    }

    /// Fires every scheduled fault whose trigger point has been reached.
    /// Sends to already-dead workers are ignored — a fault cannot kill a
    /// node twice.
    fn inject_faults(&mut self) {
        while self.next_fault < self.plan.len()
            && self.plan[self.next_fault].at_doc <= self.docs_published
        {
            let ev = self.plan[self.next_fault];
            self.next_fault += 1;
            let _ = self
                .transport
                .control(ev.node.as_usize(), NodeMessage::Fault { action: ev.action });
        }
    }

    fn publish(&mut self, doc: &Arc<Document>) -> Result<()> {
        // Route against the immutable snapshot — the identical code path
        // the ingest pool runs, so the serial router *is* a pool of one.
        // During a handover window the view appends double-route steps to
        // the moved partitions' old homes (duplicates are benign).
        let (steps, doubled) = self.view.route_handover(doc, &mut self.view_rng);
        if doubled {
            self.migration.docs_double_routed += 1;
        }
        self.docs_published += 1;
        let dispatched = Instant::now();
        for step in steps {
            // The router itself plays the home node's forwarding hop: a
            // Forward step touches no posting list, so there is nothing to
            // ship to the worker.
            if matches!(step.task, MatchTask::Forward) {
                continue;
            }
            let n = step.node.as_usize();
            let task = DocTask {
                doc: Arc::clone(doc),
                task: step.task,
                dispatched,
            };
            if let Some(batch) = self.dispatch.push(n, task) {
                self.ship(n, batch);
            }
        }
        // The observe/allocate refresh cycle, split so the pool can batch
        // the observation half into sharded deltas.
        self.scheme.note_published(doc);
        self.apply_refresh()?;
        // A pinned (stale) view ages out with published documents; the
        // expiry refresh picks up any registrations deferred meanwhile.
        if self.pin_docs > 0 {
            self.pin_docs -= 1;
            if self.pin_docs == 0 {
                self.refresh_view();
            }
        }
        self.inject_faults();
        Ok(())
    }

    /// Runs the scheme's allocation refresh if it is due. A layout change
    /// must reach the workers *after* everything routed under the old
    /// layout (hence the flush) and before anything routed under the new
    /// one — mailbox FIFO order guarantees both once the update is sent
    /// here. Refreshes the routing snapshot afterwards either way it went.
    fn apply_refresh(&mut self) -> Result<()> {
        if self.scheme.refresh_allocation()? {
            self.flush_all(FlushCause::Barrier);
            self.allocation_updates += 1;
            for n in 0..self.transport.nodes() {
                // A structural share of the scheme's shard: the journal
                // snapshot and the worker's serving copy are the same
                // allocation, and the scheme copies-on-write at its next
                // mutation — zero deep clones on the refresh path.
                let index = self.scheme.shared_node_index(NodeId(n as u32));
                self.supervisor.record_snapshot(n, &index);
                if !self
                    .transport
                    .control(n, NodeMessage::AllocationUpdate { index })
                {
                    self.supervise_control_failure(n);
                }
            }
            self.pin_docs = 0;
            self.refresh_view();
        }
        Ok(())
    }

    fn register(&mut self, filter: &Filter) -> Result<()> {
        // The scheme applies the mutation to its own serving state and
        // describes what the workers must be told (DESIGN.md §12).
        let ops = self.scheme.register_op(filter)?;
        let mut layout_changed = false;
        if let Some(displaced) = ops.displaced {
            // The same subscriber id re-registering with a different
            // predicate: its old subscription leaves first.
            layout_changed |= self.ship_unregister_op(displaced);
        }
        match ops.op {
            RegisterOp::NoOp => {}
            RegisterOp::Subscribe {
                canonical,
                subscriber,
            } => {
                // Canonical hit: no posting entry moves anywhere and the
                // routing inputs are untouched, so the (comparatively
                // expensive) view refresh is skipped — the control-plane
                // aggregation win under registration churn.
                self.registrations += 1;
                self.canonical_hits += 1;
                self.broadcast_subscription(canonical, subscriber, true);
            }
            RegisterOp::NewCanonical {
                canonical,
                subscriber,
                targets,
            } => {
                self.registrations += 1;
                let id = canonical.id();
                for (node, terms) in targets {
                    let n = node.as_usize();
                    // Flush first so documents published before this
                    // registration are matched against the
                    // pre-registration shard.
                    self.flush_node(n, FlushCause::Barrier);
                    // Journal before sending: if the send finds the worker
                    // dead, the replay already covers this registration.
                    self.supervisor.record_op(
                        n,
                        JournalOp::Register {
                            filter: Arc::clone(&canonical),
                            terms: terms.clone(),
                        },
                    );
                    if !self.transport.control(
                        n,
                        NodeMessage::RegisterFilter {
                            filter: Arc::clone(&canonical),
                            terms,
                        },
                    ) {
                        self.supervise_control_failure(n);
                    }
                }
                // Subscribe *after* the serving copies: a document slotted
                // between the two on a target node expands the canonical
                // through the identity fallback — exactly the one live
                // subscriber it has.
                self.broadcast_subscription(id, subscriber, true);
                layout_changed = true;
            }
        }
        // A pinned view defers the refresh — the registration takes routing
        // effect only at pin expiry, like a snapshot still in flight.
        if layout_changed && self.pin_docs == 0 {
            self.refresh_view();
        }
        Ok(())
    }

    fn unregister(&mut self, id: FilterId) -> Result<()> {
        let op = self.scheme.unregister_op(id)?;
        if matches!(op, UnregisterOp::NotRegistered) {
            return Ok(());
        }
        self.unregistrations += 1;
        if self.ship_unregister_op(op) && self.pin_docs == 0 {
            self.refresh_view();
        }
        Ok(())
    }

    /// Ships one unregistration's worker messages; returns whether the
    /// posting layout changed (and the routing view therefore went stale).
    fn ship_unregister_op(&mut self, op: UnregisterOp) -> bool {
        match op {
            UnregisterOp::NotRegistered => false,
            UnregisterOp::Unsubscribe {
                canonical,
                subscriber,
            } => {
                self.broadcast_subscription(canonical, subscriber, false);
                false
            }
            UnregisterOp::RemoveCanonical {
                canonical,
                subscriber,
                targets,
            } => {
                // Postings first, fan-out entry second: a document slotted
                // between the two on a target node no longer matches the
                // canonical, so the (already drained, possibly dropped)
                // fan-out entry is never consulted for it — no spurious
                // identity-fallback delivery of a long-gone donor id.
                for (node, terms) in targets {
                    let n = node.as_usize();
                    self.flush_node(n, FlushCause::Barrier);
                    self.supervisor.record_op(
                        n,
                        JournalOp::Unregister {
                            id: canonical,
                            terms: terms.clone(),
                        },
                    );
                    if !self.transport.control(
                        n,
                        NodeMessage::UnregisterFilter {
                            id: canonical,
                            terms,
                        },
                    ) {
                        self.supervise_control_failure(n);
                    }
                }
                self.broadcast_subscription(canonical, subscriber, false);
                true
            }
        }
    }

    /// Broadcasts a fan-out mutation — `Subscribe` when `add`, else
    /// `Unsubscribe` — to every worker, journaled per node so a restart
    /// replays subscription refcounts exactly.
    fn broadcast_subscription(&mut self, canonical: FilterId, subscriber: FilterId, add: bool) {
        for n in 0..self.transport.nodes() {
            // Flush first: a document routed before this control op must
            // expand through the pre-op fan-out table.
            self.flush_node(n, FlushCause::Barrier);
            let (op, msg) = if add {
                (
                    JournalOp::Subscribe {
                        canonical,
                        subscriber,
                    },
                    NodeMessage::Subscribe {
                        canonical,
                        subscriber,
                    },
                )
            } else {
                (
                    JournalOp::Unsubscribe {
                        canonical,
                        subscriber,
                    },
                    NodeMessage::Unsubscribe {
                        canonical,
                        subscriber,
                    },
                )
            };
            self.supervisor.record_op(n, op);
            if !self.transport.control(n, msg) {
                self.supervise_control_failure(n);
            }
        }
    }

    fn stats(&mut self, reply: &Sender<Vec<NodeMetrics>>) {
        self.flush_all(FlushCause::Barrier);
        // One reply per worker, so this gather channel can never fill.
        let (tx, rx) = bounded(self.transport.nodes().max(1));
        for n in 0..self.transport.nodes() {
            // The snapshot doubles as a liveness probe: a failed send is
            // supervised exactly like a failed heartbeat ping, so under
            // the restart policy the revived worker still contributes a
            // (fresh-incarnation) snapshot. A worker that stays dead
            // simply contributes none — its sender clone drops unsent,
            // so the gather below still terminates.
            if !self
                .transport
                .control(n, NodeMessage::StatsReport { reply: tx.clone() })
            {
                self.supervise_control_failure(n);
                let _ = self
                    .transport
                    .control(n, NodeMessage::StatsReport { reply: tx.clone() });
            }
        }
        drop(tx);
        let mut all: Vec<NodeMetrics> = rx.iter().collect();
        all.sort_by_key(|m| m.node);
        let _ = reply.send(all);
    }

    /// A control send found worker `n` dead: restart-and-replay if the
    /// policy allows (the journal already covers the lost message),
    /// otherwise declare the node dead in the membership.
    pub(crate) fn supervise_control_failure(&mut self, n: usize) {
        self.deaths_settled_at = Some(self.docs_published);
        if self.config.supervision.restart
            && self.supervisor.restart_and_replay(n, &mut self.transport)
        {
            return;
        }
        self.mark_dead(n);
    }

    /// Declares node `n` dead both to the router (never routed to again)
    /// and to the scheme's membership, so `route` fails subsequent
    /// documents over to replica rows.
    fn mark_dead(&mut self, n: usize) {
        if !self.dead[n] {
            self.dead[n] = true;
            self.scheme
                .cluster_mut()
                .membership_mut()
                .crash(NodeId(n as u32));
            // Membership changes always refresh immediately — the real
            // pool fences around them, so no stale-view pin survives one.
            self.pin_docs = 0;
            self.refresh_view();
        }
    }

    /// A batch send found worker `n` dead. Under the restart policy the
    /// worker is respawned from its journal and the batch resent (bounded
    /// retries with backoff); otherwise — or once retries are exhausted —
    /// the stranded documents fail over to the replica set.
    pub(crate) fn handle_gone(&mut self, n: usize, mut batch: Vec<DocTask>) {
        // Every path into here found a dead mailbox, so this marks the
        // latest death discovery (last write wins — the report exposes the
        // point after which routing saw the fully settled dead set).
        self.deaths_settled_at = Some(self.docs_published);
        if self.config.supervision.restart {
            for attempt in 0..self.config.supervision.max_retries {
                if attempt > 0 && !self.config.supervision.backoff.is_zero() {
                    thread::sleep(self.config.supervision.backoff);
                }
                if !self.supervisor.restart_and_replay(n, &mut self.transport) {
                    break;
                }
                self.supervisor.retries += 1;
                let count = batch.len() as u64;
                match self
                    .transport
                    .batch(n, NodeMessage::PublishDocument { batch })
                {
                    BatchOutcome::Delivered => {
                        self.tasks_dispatched += count;
                        return;
                    }
                    BatchOutcome::Shed => {
                        self.tasks_shed += count;
                        return;
                    }
                    BatchOutcome::Gone(b) => batch = b,
                }
            }
        }
        self.failover(n, batch);
    }

    /// Replica failover: declare `n` dead and re-route each stranded
    /// document through the scheme, whose routing now avoids the corpse.
    /// Re-routing the whole document may duplicate deliveries already made
    /// by live nodes — benign, consumers union per document. A document
    /// with no live replica left is counted lost.
    fn failover(&mut self, n: usize, batch: Vec<DocTask>) {
        let discovery = !self.dead[n];
        self.mark_dead(n);
        if discovery {
            // One discovered death usually means a correlated kill wave:
            // sweep-probe the survivors so every corpse is found *now*,
            // not lazily on its next routed batch — re-routing below (and
            // all subsequent routing) then sees the full dead set.
            self.heartbeat();
        }
        self.supervisor.failovers += batch.len() as u64;
        // One re-route per distinct stranded document.
        let mut by_doc: BTreeMap<DocId, (DocTask, u64)> = BTreeMap::new();
        for task in batch {
            by_doc
                .entry(task.doc.id())
                .and_modify(|(_, c)| *c += 1)
                .or_insert((task, 1));
        }
        for (task, count) in by_doc.into_values() {
            // Re-route through the (just refreshed) routing view, not the
            // bare scheme: during a join's handover window the view carries
            // the double-route to the moved partitions' old homes, which is
            // exactly what keeps those partitions served when the corpse is
            // the joiner itself.
            let (steps, _) = self.view.route_handover(&task.doc, &mut self.view_rng);
            let mut placed = false;
            for step in steps {
                if matches!(step.task, MatchTask::Forward) {
                    continue;
                }
                let m = step.node.as_usize();
                if self.dead[m] {
                    continue; // schemes without liveness-aware routing
                }
                let rerouted = DocTask {
                    doc: Arc::clone(&task.doc),
                    task: step.task,
                    dispatched: task.dispatched,
                };
                placed = true;
                if let Some(batch) = self.dispatch.push(m, rerouted) {
                    self.ship(m, batch);
                }
            }
            if !placed {
                self.tasks_failed += count;
                self.lost_docs.insert(task.doc.id());
            }
        }
    }

    /// Ships node `n`'s accumulated batch, if any, under `cause`.
    fn flush_node(&mut self, n: usize, cause: FlushCause) {
        if let Some(batch) = self.dispatch.take(n, cause) {
            self.ship(n, batch);
        }
    }

    /// Sends one batch through the transport. Only document batches obey
    /// the overflow policy — control messages always go through (see
    /// [`Transport`]).
    fn ship(&mut self, n: usize, batch: Vec<DocTask>) {
        if self.dead[n] {
            // Known-dead node under failover: skip the doomed send.
            self.failover(n, batch);
            return;
        }
        let count = batch.len() as u64;
        match self
            .transport
            .batch(n, NodeMessage::PublishDocument { batch })
        {
            BatchOutcome::Delivered => self.tasks_dispatched += count,
            BatchOutcome::Shed => self.tasks_shed += count,
            BatchOutcome::Gone(b) => self.handle_gone(n, b),
        }
    }

    /// Flushes until no batch remains pending anywhere. Failover inside
    /// one flush may re-route tasks onto nodes this pass already visited,
    /// so the sweep repeats until it finds nothing — each re-route either
    /// lands on a live node or kills another corpse, so it terminates.
    pub(crate) fn flush_all(&mut self, cause: FlushCause) {
        while !self.dispatch.is_empty() {
            for n in 0..self.dispatch.nodes() {
                self.flush_node(n, cause);
            }
        }
    }
}

impl Router<ThreadTransport> {
    /// The router thread's main loop (threaded driver only).
    fn run(
        mut self,
        commands: &Receiver<Command>,
        finals: &Receiver<WorkerFinal>,
    ) -> Result<RuntimeReport> {
        // Serve until shutdown or a control-plane error; tear the workers
        // down in both cases, then surface the error.
        let served = self.serve(commands);
        self.teardown(served, finals)
    }

    /// Stops and joins every worker, then surfaces `served`'s error or
    /// merges the report.
    fn teardown(
        mut self,
        served: Result<()>,
        finals: &Receiver<WorkerFinal>,
    ) -> Result<RuntimeReport> {
        self.shutdown_workers();
        // Drop our finals sender so the drain below observes disconnect
        // once every worker incarnation has exited.
        self.transport.final_tx = None;
        let results: Vec<WorkerFinal> = finals.iter().collect();
        let mut worker_panic = false;
        for handle in std::mem::take(&mut self.transport.handles) {
            worker_panic |= handle.join().is_err();
        }
        served?;
        if worker_panic {
            return Err(MoveError::Runtime("worker thread panicked".into()));
        }
        Ok(self.into_report(results))
    }

    /// The control thread's main loop in router-pool mode: ingest threads
    /// own the publish hot path, this thread owns everything mutable —
    /// registration, allocation refresh, supervision, fault injection.
    fn run_pool(
        mut self,
        commands: &Receiver<Command>,
        finals: &Receiver<WorkerFinal>,
        mut pool: Pool,
    ) -> Result<RuntimeReport> {
        let served = self.serve_pool(commands, &pool);
        // A clean shutdown already forwarded this; after a control-plane
        // error nothing has, and a repeat finds the mailboxes closed.
        pool.stop_ingest();
        // Every ingest thread has sent its exit notice by now (or the
        // engine handle is gone); join them before tearing down workers so
        // no batch is in flight past this point.
        for handle in std::mem::take(&mut pool.handles) {
            let _ = handle.join();
        }
        self.absorb_shards(&pool.shared);
        self.docs_published = pool.shared.docs_published.load(Ordering::Relaxed);
        self.pool_settle_faults();
        self.teardown(served, finals)
    }

    /// Publishes the current routing table (view + worker senders +
    /// dead-set) to the ingest plane. Cheap: the view's bulky innards are
    /// `Arc`-shared, so this clones a few pointers per node.
    pub(crate) fn publish_table(&self, pool: &Pool) {
        pool.shared.publish_table(IngestTable {
            view: self.view.clone(),
            senders: self.transport.workers.clone(),
            dead: self.dead.clone(),
        });
    }

    /// Serves control commands until shutdown (all ingest threads exited)
    /// or a control-plane error.
    fn serve_pool(&mut self, commands: &Receiver<Command>, pool: &Pool) -> Result<()> {
        // Commands deferred while waiting for barrier/fence acks (see
        // `wait_for_acks`) are replayed from here first, preserving order.
        let mut backlog: VecDeque<Command> = VecDeque::new();
        let mut exited = 0usize;
        let mut shutting_down = false;
        loop {
            let cmd = match backlog.pop_front() {
                Some(cmd) => cmd,
                None => match self.dispatch.recv(commands, self.config.flush_interval) {
                    Wake::Command(cmd) => cmd,
                    Wake::Closed => return Ok(()),
                    // Failover re-routes (and raced publishes) buffer here.
                    Wake::Drained => {
                        self.flush_all(FlushCause::Drain);
                        continue;
                    }
                    Wake::Idle => {
                        // Once the ingest threads were told to stop, a tick
                        // could only fence threads that will never ack.
                        if !shutting_down {
                            self.pool_tick(commands, &mut backlog, pool)?;
                        }
                        continue;
                    }
                },
            };
            match cmd {
                // Publishes normally go straight to the ingest threads; one
                // arriving here (a raced engine handle) still routes fine.
                Command::Publish(doc) => self.publish(&Arc::new(*doc))?,
                Command::Register(filter) => {
                    self.pool_apply(|r| r.register(&filter), commands, &mut backlog, pool)?;
                }
                Command::RegisterSync(filter, ack) => {
                    self.pool_apply(|r| r.register(&filter), commands, &mut backlog, pool)?;
                    let _ = ack.send(());
                }
                Command::Unregister(id) => {
                    self.pool_apply(|r| r.unregister(id), commands, &mut backlog, pool)?;
                }
                Command::UnregisterSync(id, ack) => {
                    self.pool_apply(|r| r.unregister(id), commands, &mut backlog, pool)?;
                    let _ = ack.send(());
                }
                Command::Stats(reply) => {
                    // Barrier the ingest plane first so "previously
                    // published" includes documents still in ingest hands.
                    self.pool_barrier(commands, &mut backlog, pool);
                    self.docs_published = pool.shared.docs_published.load(Ordering::Relaxed);
                    self.absorb_shards(&pool.shared);
                    self.stats(&reply);
                }
                Command::Gone { node, batch } => {
                    // `deaths_settled_at` is stamped from this count.
                    self.docs_published = pool.shared.docs_published.load(Ordering::Relaxed);
                    self.handle_gone(node, batch);
                    // Restart or failover changed senders or the dead-set;
                    // tell the ingest plane before it strands more batches.
                    self.publish_table(pool);
                }
                Command::IngestExited { metrics } => {
                    self.ingest_metrics.push(metrics);
                    exited += 1;
                    if shutting_down && exited == pool.ingest.len() {
                        return Ok(());
                    }
                }
                Command::Join { window_docs, reply } => {
                    let outcome =
                        self.pool_join(window_docs, commands, &mut backlog, pool, &mut exited);
                    let _ = reply.send(outcome);
                }
                Command::Shutdown => {
                    // Settle before stopping the ingest plane: everything
                    // published is flushed to the mailboxes, then one tick
                    // runs a refresh that fell due since the last idle
                    // period (a fast run may never have had one) — the
                    // refresh twin of `pool_settle_faults`.
                    self.pool_barrier(commands, &mut backlog, pool);
                    self.pool_tick(commands, &mut backlog, pool)?;
                    pool.stop_ingest();
                    shutting_down = true;
                    if exited == pool.ingest.len() {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// The idle tick of the pool control plane (also the settle step of a
    /// shutdown): sync the published-count, fire due faults, drain the
    /// statistics shards, run a due allocation refresh under a fence, probe
    /// the workers, and republish the table.
    fn pool_tick(
        &mut self,
        commands: &Receiver<Command>,
        backlog: &mut VecDeque<Command>,
        pool: &Pool,
    ) -> Result<()> {
        self.docs_published = pool.shared.docs_published.load(Ordering::Relaxed);
        self.inject_faults();
        self.absorb_shards(&pool.shared);
        if self.scheme.refresh_due() {
            self.pool_fence_refresh(commands, backlog, pool)?;
        }
        self.heartbeat();
        // Republishing unconditionally is cheap (Arc clones) and heals any
        // sender replaced by a heartbeat-driven restart above.
        self.publish_table(pool);
        Ok(())
    }

    /// Drains every ingest thread's statistics shard into the scheme —
    /// the merge half of the sharded `q′ᵢ` accumulators.
    pub(crate) fn absorb_shards(&mut self, shared: &IngestShared) {
        for shard in &shared.shards {
            let mut guard = shard.lock();
            if guard.is_empty() {
                continue;
            }
            let delta = std::mem::take(&mut *guard);
            drop(guard);
            self.scheme.absorb_stats(&delta);
        }
    }

    /// Waits for `want` acks while keeping the shared command channel
    /// drained — an ingest thread blocked on a full command channel could
    /// otherwise never reach the barrier it must ack. Dead-worker batches
    /// are handled inline (they cannot wait); everything else is deferred
    /// to the backlog in arrival order.
    pub(crate) fn wait_for_acks(
        &mut self,
        acks: &Receiver<()>,
        want: usize,
        commands: &Receiver<Command>,
        backlog: &mut VecDeque<Command>,
    ) {
        let mut got = 0usize;
        while got < want {
            match acks.recv_timeout(Duration::from_millis(1)) {
                Ok(()) => got += 1,
                // All remaining ack senders dropped (ingest thread exited
                // mid-protocol during teardown): stop waiting.
                Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {
                    while let Ok(cmd) = commands.try_recv() {
                        if let Command::Gone { node, batch } = cmd {
                            self.handle_gone(node, batch);
                        } else {
                            backlog.push_back(cmd);
                        }
                    }
                }
            }
        }
    }

    /// Barriers the ingest plane: every thread flushes its pending batches
    /// to the worker mailboxes and acks. On return, everything published
    /// before the barrier is in mailbox FIFO order ahead of whatever the
    /// control thread sends next.
    pub(crate) fn pool_barrier(
        &mut self,
        commands: &Receiver<Command>,
        backlog: &mut VecDeque<Command>,
        pool: &Pool,
    ) {
        let (ack_tx, ack_rx) = bounded(pool.ingest.len().max(1));
        let mut sent = 0usize;
        for tx in &pool.ingest {
            if tx
                .send(IngestCommand::Barrier {
                    ack: ack_tx.clone(),
                })
                .is_ok()
            {
                sent += 1;
            }
        }
        drop(ack_tx);
        self.wait_for_acks(&ack_rx, sent, commands, backlog);
    }

    /// Pool-mode registration or unregistration: barrier first, so
    /// documents the publisher enqueued earlier hit the worker mailboxes
    /// ahead of `change` (matched against the pre-change shards, expanded
    /// through the pre-change fan-out table); then apply it and publish
    /// the refreshed table.
    fn pool_apply(
        &mut self,
        change: impl FnOnce(&mut Self) -> Result<()>,
        commands: &Receiver<Command>,
        backlog: &mut VecDeque<Command>,
        pool: &Pool,
    ) -> Result<()> {
        self.pool_barrier(commands, backlog, pool);
        change(self)?;
        self.publish_table(pool);
        Ok(())
    }

    /// Fires every still-due scheduled fault and supervises the fallout
    /// of every fault fired so far before worker teardown. The pool fires
    /// faults from the control loop's ticks, and a fast run can reach
    /// shutdown before a tick elapses — or right after one fired a fault
    /// its victim has not dequeued yet, so nothing has discovered the
    /// death — but the serial engine fires them synchronously per publish,
    /// so the pooled report must account for the same schedule. Runs after
    /// the ingest threads are joined: the published-document count is
    /// final and no batch is in flight.
    fn pool_settle_faults(&mut self) {
        let due: Vec<usize> = self
            .plan
            .iter()
            .take_while(|ev| ev.at_doc <= self.docs_published)
            .map(|ev| ev.node.as_usize())
            .collect();
        if due.is_empty() {
            return;
        }
        self.inject_faults();
        for n in due {
            if self.dead[n] {
                continue;
            }
            // The fault is a FIFO-ordered poison pill the worker
            // dequeues asynchronously. A ping queued behind it settles
            // the outcome: a reply means the action left the worker
            // alive (pause/slow), a dropped channel means it died.
            let (tx, rx) = bounded(1);
            if self.transport.control(n, NodeMessage::Ping { reply: tx }) {
                let _ = rx.recv_timeout(Duration::from_secs(5));
            }
        }
        // Probe the survivors: each failed send routes through the
        // supervisor (restart or failover) exactly as a mid-run
        // discovery would.
        self.heartbeat();
    }

    /// Runs a due allocation refresh under a stop-the-world fence: every
    /// ingest thread flushes and parks, the statistics shards are merged
    /// (so the allocator sees complete `q′ᵢ`), the refresh ships the new
    /// shards, the new table is published, and only then is the plane
    /// released — no document routed under the old layout can be
    /// dispatched after the [`NodeMessage::AllocationUpdate`].
    fn pool_fence_refresh(
        &mut self,
        commands: &Receiver<Command>,
        backlog: &mut VecDeque<Command>,
        pool: &Pool,
    ) -> Result<()> {
        let (ack_tx, ack_rx) = bounded(pool.ingest.len().max(1));
        let (rel_tx, rel_rx) = bounded(pool.ingest.len().max(1));
        let mut fenced = 0usize;
        for tx in &pool.ingest {
            if tx
                .send(IngestCommand::Fence {
                    ack: ack_tx.clone(),
                    release: rel_rx.clone(),
                })
                .is_ok()
            {
                fenced += 1;
            }
        }
        drop(ack_tx);
        self.wait_for_acks(&ack_rx, fenced, commands, backlog);
        self.absorb_shards(&pool.shared);
        self.apply_refresh()?;
        self.publish_table(pool);
        for _ in 0..fenced {
            let _ = rel_tx.send(());
        }
        Ok(())
    }
}

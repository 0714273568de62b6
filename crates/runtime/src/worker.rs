//! The per-node worker thread: a mailbox loop over [`NodeMessage`]s.
//!
//! The message-handling logic is factored into [`Worker::handle`] so two
//! drivers can share it verbatim: the OS-thread loop of [`Worker::run`]
//! (the production engine) and the single-stepped [`Worker::try_step`] the
//! deterministic interleaving harness uses to explore message orders.
//!
//! With [`RuntimeConfig::match_lanes`](crate::RuntimeConfig) > 1 the
//! worker fans each document batch out over a work-stealing
//! [`MatchPool`] instead of matching inline; the batch completes before
//! the next mailbox message is handled, so the mailbox's FIFO semantics
//! (allocation updates ordered behind batches, crashes landing mid-drain)
//! are unchanged. The threaded driver parks `match_lanes - 1` helper
//! threads on the pool; the harness single-steps lanes via
//! [`Worker::step_lane`].

use crossbeam::channel::{Receiver, Sender, TryRecvError};
use move_core::MatchTask;
use move_index::{FanoutTable, InvertedIndex, MatchOutcome, MatchScratch};
use move_stats::LatencyHistogram;
use move_types::{DocId, NodeId};
use std::sync::Arc;
use std::time::Duration;

use crate::fault::FaultAction;
use crate::lanes::{BatchTotals, LaneCtx, LaneStep, MatchPool};
use crate::message::{Delivery, DocTask, NodeMessage};
use crate::metrics::NodeMetrics;

/// What a worker hands back when it exits: its final counters plus the full
/// latency histogram (the per-request [`NodeMetrics`] snapshot only carries
/// the summary) so the router can merge an exact cluster-wide distribution,
/// and the documents whose queued tasks an injected crash destroyed (so
/// delivery oracles can scope their at-most-once allowance).
pub(crate) struct WorkerFinal {
    pub metrics: NodeMetrics,
    pub histogram: LatencyHistogram,
    pub lost_docs: Vec<DocId>,
}

/// Outcome of one harness-driven scheduling step; see [`Worker::try_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WorkerStep {
    /// One message was dequeued and handled.
    Handled,
    /// The mailbox was empty — a real worker thread would be parked here.
    Empty,
    /// A [`NodeMessage::Shutdown`] was handled; the worker must not be
    /// stepped again.
    Stopped,
}

pub(crate) struct Worker {
    node: NodeId,
    /// The serving shard. Shared with the router's journal snapshot;
    /// registrations copy-on-write via [`Arc::make_mut`].
    index: Arc<InvertedIndex>,
    /// Canonical→subscribers fan-out table (DESIGN.md §12), maintained by
    /// broadcast [`NodeMessage::Subscribe`]/[`NodeMessage::Unsubscribe`];
    /// matched canonical ids expand through it at delivery finalize.
    /// Copy-on-write like the index, so pool batch snapshots are stable.
    fanout: Arc<FanoutTable>,
    mailbox: Receiver<NodeMessage>,
    deliveries: Sender<Delivery>,
    messages_processed: u64,
    doc_tasks: u64,
    postings_scanned: u64,
    delivered: u64,
    queue_depth_hwm: u64,
    /// Queued document tasks destroyed by an injected crash.
    tasks_lost: u64,
    /// The documents those lost tasks belonged to.
    lost_docs: Vec<DocId>,
    /// Per-task delay injected by [`FaultAction::Slow`].
    slow: Option<Duration>,
    latency: LatencyHistogram,
    /// Reusable kernel buffers: steady-state matching allocates only when
    /// a delivery is actually produced.
    scratch: MatchScratch,
    outcome: MatchOutcome,
    /// The work-stealing match pool (`None` with one lane — inline match).
    pool: Option<Arc<MatchPool>>,
    /// Per-lane kernel buffers for harness-driven lane steps (the threaded
    /// helper threads own their own).
    lane_ctxs: Vec<LaneCtx>,
    /// `true` when an external scheduler steps the lanes
    /// ([`Worker::step_lane`]); the worker then *begins* pool batches in
    /// [`Worker::handle`] instead of driving them to completion.
    external_lanes: bool,
    /// Steals performed by this worker's lanes (absorbed batch totals).
    steals: u64,
    /// Chunked units executed by this worker's lanes.
    lane_units: u64,
}

impl Worker {
    /// A worker whose batches fan out over `lanes` match lanes (1 =
    /// inline matching, no pool at all), with units packed toward
    /// `lane_cost_target` posting entries each. With
    /// `external_lanes`, lane steps are driven by the caller (the
    /// interleaving harness) instead of helper threads.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_lanes(
        node: NodeId,
        index: Arc<InvertedIndex>,
        fanout: Arc<FanoutTable>,
        mailbox: Receiver<NodeMessage>,
        deliveries: Sender<Delivery>,
        lanes: usize,
        lane_cost_target: usize,
        external_lanes: bool,
    ) -> Self {
        let pool = (lanes > 1).then(|| {
            Arc::new(MatchPool::new(
                node,
                lanes,
                lane_cost_target,
                deliveries.clone(),
            ))
        });
        let lane_ctxs = if external_lanes && pool.is_some() {
            (0..lanes).map(|_| LaneCtx::default()).collect()
        } else {
            Vec::new()
        };
        Self {
            node,
            index,
            fanout,
            mailbox,
            deliveries,
            messages_processed: 0,
            doc_tasks: 0,
            postings_scanned: 0,
            delivered: 0,
            queue_depth_hwm: 0,
            tasks_lost: 0,
            lost_docs: Vec::new(),
            slow: None,
            latency: LatencyHistogram::new(),
            scratch: MatchScratch::new(),
            outcome: MatchOutcome::default(),
            pool,
            lane_ctxs,
            external_lanes,
            steals: 0,
            lane_units: 0,
        }
    }

    /// The mailbox loop. Returns the final counters; the mailbox is always
    /// fully drained first — [`NodeMessage::Shutdown`] is FIFO-ordered
    /// behind any queued work, and a disconnected channel is only reported
    /// once empty.
    pub(crate) fn run(mut self) -> WorkerFinal {
        // Helper lanes 1..n; the worker thread itself is lane 0. A refused
        // thread spawn degrades capacity, not correctness — lane 0 alone
        // completes every batch.
        let mut helpers = Vec::new();
        if let Some(pool) = &self.pool {
            for lane in 1..pool.lanes() {
                let p = Arc::clone(pool);
                let name = format!("move-node-{}-lane-{lane}", self.node);
                if let Ok(h) = std::thread::Builder::new()
                    .name(name)
                    .spawn(move || p.run_lane(lane))
                {
                    helpers.push(h);
                }
            }
        }
        loop {
            self.queue_depth_hwm = self.queue_depth_hwm.max(self.mailbox.len() as u64);
            let Ok(msg) = self.mailbox.recv() else {
                break; // router gone: treat as shutdown after the drain
            };
            if !self.handle(msg) {
                break;
            }
        }
        if let Some(pool) = &self.pool {
            pool.shutdown_lanes();
        }
        for h in helpers {
            let _ = h.join();
        }
        self.finish()
    }

    /// Dequeues and handles at most one message — the interleaving
    /// harness's scheduling quantum. Equivalent to one iteration of
    /// [`Worker::run`], minus the blocking wait. Must not be called while
    /// [`Worker::pool_busy`] — the threaded worker completes each batch
    /// before its next receive, and the harness scheduler mirrors that by
    /// stepping lanes instead.
    pub(crate) fn try_step(&mut self) -> WorkerStep {
        debug_assert!(
            !self.pool_busy(),
            "mailbox stepped while a batch is in flight"
        );
        self.queue_depth_hwm = self.queue_depth_hwm.max(self.mailbox.len() as u64);
        match self.mailbox.try_recv() {
            Ok(msg) => {
                if self.handle(msg) {
                    WorkerStep::Handled
                } else {
                    WorkerStep::Stopped
                }
            }
            Err(TryRecvError::Empty) => WorkerStep::Empty,
            Err(TryRecvError::Disconnected) => WorkerStep::Stopped,
        }
    }

    /// Whether the worker's pool has a batch in flight (always `false`
    /// without a pool, and outside harness mode — the threaded driver
    /// never returns control mid-batch).
    pub(crate) fn pool_busy(&self) -> bool {
        self.pool.as_ref().is_some_and(|p| p.busy())
    }

    /// Match lanes of this worker (1 = inline matching).
    pub(crate) fn lane_count(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.lanes())
    }

    /// Whether `lane` was crashed by the harness.
    pub(crate) fn lane_crashed(&self, lane: usize) -> bool {
        self.pool.as_ref().is_some_and(|p| p.lane_crashed(lane))
    }

    /// Harness fault injection: permanently deschedule one helper lane
    /// (lane 0, the worker thread itself, is refused by the pool).
    pub(crate) fn crash_lane(&self, lane: usize) {
        if let Some(pool) = &self.pool {
            pool.crash_lane(lane);
        }
    }

    /// One harness scheduling quantum of match lane `lane`: pop / steal /
    /// execute / merge one unit, absorbing the batch's counters into the
    /// worker when its last unit lands. Returns whether the lane worked.
    pub(crate) fn step_lane(&mut self, lane: usize) -> bool {
        let Some(pool) = self.pool.clone() else {
            return false;
        };
        let Some(ctx) = self.lane_ctxs.get_mut(lane) else {
            return false;
        };
        let worked = pool.step_lane(lane, ctx) == LaneStep::Worked;
        if !pool.busy() {
            let totals = pool.take_totals();
            self.absorb(totals);
        }
        worked
    }

    /// Applies one protocol message to the worker state. Returns `false`
    /// when the message asks the worker to stop ([`NodeMessage::Shutdown`]).
    fn handle(&mut self, msg: NodeMessage) -> bool {
        self.messages_processed += 1;
        match msg {
            NodeMessage::RegisterFilter { filter, terms } => {
                let index = Arc::make_mut(&mut self.index);
                match terms {
                    None => index.insert_shared(filter),
                    Some(terms) => {
                        for t in terms {
                            index.insert_shared_for_term(Arc::clone(&filter), t);
                        }
                    }
                }
            }
            NodeMessage::UnregisterFilter { id, terms } => {
                let index = Arc::make_mut(&mut self.index);
                match terms {
                    None => {
                        index.remove(id);
                    }
                    Some(terms) => {
                        for t in terms {
                            index.remove_term_posting(id, t);
                        }
                    }
                }
            }
            NodeMessage::Subscribe {
                canonical,
                subscriber,
            } => {
                Arc::make_mut(&mut self.fanout).subscribe(canonical, subscriber);
            }
            NodeMessage::Unsubscribe {
                canonical,
                subscriber,
            } => {
                Arc::make_mut(&mut self.fanout).unsubscribe(canonical, subscriber);
            }
            NodeMessage::PublishDocument { batch } => {
                // The pool path skips [`FaultAction::Slow`] workers: the
                // injected per-task delay models a degraded machine, which
                // parallel lanes would mask — matching stays inline there.
                if self.pool.is_some() && self.slow.is_none() {
                    self.pool_batch(batch);
                } else {
                    for task in batch {
                        self.execute(task);
                    }
                }
            }
            NodeMessage::AllocationUpdate { index } => {
                self.index = index;
            }
            // Both rebalancing messages swap the serving shard exactly like
            // an allocation update; the layout version is the control
            // plane's bookkeeping, not the worker's.
            NodeMessage::InstallPartitions { index, fanout, .. } => {
                self.index = index;
                // The joiner missed every pre-admission Subscribe
                // broadcast; the control plane's snapshot is its baseline.
                self.fanout = fanout;
            }
            NodeMessage::RetirePartitions { index, .. } => {
                self.index = index;
            }
            NodeMessage::StatsReport { reply } => {
                let _ = reply.send(self.snapshot());
            }
            NodeMessage::Fault { action } => match action {
                FaultAction::Crash => {
                    self.crash();
                    return false;
                }
                FaultAction::Pause(d) => std::thread::sleep(d),
                FaultAction::Slow(d) => self.slow = Some(d),
            },
            NodeMessage::Ping { reply } => {
                let _ = reply.send(self.node);
            }
            NodeMessage::Shutdown => return false,
        }
        true
    }

    /// Fans a batch out over the match pool. In the threaded driver the
    /// worker participates as lane 0 and blocks until the batch completes;
    /// in harness mode the batch is only *begun* — the scheduler steps the
    /// lanes via [`Worker::step_lane`].
    fn pool_batch(&mut self, batch: Vec<DocTask>) {
        // The sole caller guards on `self.pool.is_some()`; matching inline
        // is the correct degraded behaviour if that invariant ever breaks.
        let Some(pool) = self.pool.as_ref().map(Arc::clone) else {
            debug_assert!(false, "pool path requires a pool");
            for task in batch {
                self.execute(task);
            }
            return;
        };
        // Cost-model fast path (threaded driver only): a batch too small
        // to feed every lane a target-sized unit is matched inline — the
        // serial loop and the pool produce byte-identical deliveries and
        // books, so only the scheduling overhead differs. The harness
        // always pools; it explores schedules, not throughput.
        if !self.external_lanes && pool.should_inline(&self.index, &batch) {
            for task in batch {
                self.execute(task);
            }
            return;
        }
        pool.begin_batch(&self.index, &self.fanout, batch);
        if self.external_lanes {
            return;
        }
        let mut ctx = LaneCtx::default();
        std::mem::swap(&mut ctx.scratch, &mut self.scratch);
        loop {
            match pool.step_lane(0, &mut ctx) {
                LaneStep::Worked => {}
                LaneStep::Idle => {
                    pool.wait_done();
                    break;
                }
            }
        }
        std::mem::swap(&mut ctx.scratch, &mut self.scratch);
        let totals = pool.take_totals();
        self.absorb(totals);
    }

    /// Folds a completed batch's pool counters into the worker's own, so
    /// snapshots and finals look exactly like the inline path's.
    fn absorb(&mut self, totals: BatchTotals) {
        self.doc_tasks += totals.doc_tasks;
        self.postings_scanned += totals.postings_scanned;
        self.delivered += totals.delivered;
        self.steals += totals.steals;
        self.lane_units += totals.units;
        for nanos in totals.latencies {
            self.latency.record(nanos);
        }
    }

    /// An injected crash: whatever is still queued dies with the worker.
    /// The doomed document tasks are counted (and their doc ids recorded)
    /// so the report can balance `dispatched == executed + lost`; control
    /// messages in the queue are simply destroyed — the supervisor's
    /// journal replay is what restores registrations.
    fn crash(&mut self) {
        // The mailbox disconnects the instant the drain ends, not when the
        // thread has wound down: a batch that slips in after the drain
        // vanishes uncounted, so the window in which a send still succeeds
        // is kept to the drop itself.
        let (_, closed) = crossbeam::channel::bounded(1);
        let mailbox = std::mem::replace(&mut self.mailbox, closed);
        while let Ok(msg) = mailbox.try_recv() {
            if let NodeMessage::PublishDocument { batch } = msg {
                self.tasks_lost += batch.len() as u64;
                self.lost_docs.extend(batch.iter().map(|t| t.doc.id()));
            }
        }
    }

    /// Consumes the worker into its final counters and histogram.
    pub(crate) fn finish(self) -> WorkerFinal {
        let metrics = self.snapshot();
        WorkerFinal {
            metrics,
            histogram: self.latency,
            lost_docs: self.lost_docs,
        }
    }

    fn execute(&mut self, task: DocTask) {
        if let Some(d) = self.slow {
            std::thread::sleep(d);
        }
        let out = &mut self.outcome;
        out.clear();
        match &task.task {
            // Forward steps never reach a worker (the router is the
            // forwarding table), but stay executable for completeness.
            MatchTask::Forward => {}
            MatchTask::Terms(terms) => {
                for &t in terms {
                    self.index.match_term_into(&task.doc, t, out);
                }
            }
            MatchTask::FullIndex => {
                self.index
                    .match_document_into(&task.doc, &mut self.scratch, out);
            }
        }
        self.postings_scanned += out.postings_scanned;
        let nanos = u64::try_from(task.dispatched.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.latency.record(nanos);
        self.doc_tasks += 1;
        if !out.matched.is_empty() {
            self.scratch.sort_dedup(&mut out.matched);
            // Delivery finalize: expand matched canonical ids to their
            // subscribers (identity for ids without a fan-out entry).
            let mut matched = Vec::with_capacity(out.matched.len());
            self.fanout.expand_into(&out.matched, &mut matched);
            self.scratch.sort_dedup(&mut matched);
            self.delivered += matched.len() as u64;
            let _ = self.deliveries.send(Delivery {
                doc: task.doc.id(),
                node: self.node,
                matched,
            });
        }
    }

    fn snapshot(&self) -> NodeMetrics {
        NodeMetrics {
            node: self.node,
            messages_processed: self.messages_processed,
            doc_tasks: self.doc_tasks,
            postings_scanned: self.postings_scanned,
            deliveries: self.delivered,
            queue_depth_hwm: self.queue_depth_hwm,
            tasks_lost: self.tasks_lost,
            steals: self.steals,
            lane_units: self.lane_units,
            latency: self.latency.summary(),
        }
    }
}

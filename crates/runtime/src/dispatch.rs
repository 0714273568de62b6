//! The flush policy every dispatcher shares: *when* a per-node batch of
//! routed document tasks leaves for its worker's mailbox.
//!
//! A [`Dispatcher`] is owned by each dispatching thread — the serial
//! router, the pool's control thread, and every ingest thread. It holds
//! the per-node pending buffers and the [`BatchController`], and decides;
//! the owner keeps its own send / failover / dead-worker path and ships
//! whatever batch it is handed. Three rules ship a batch:
//!
//! * **limit** — a node's buffer reached the controller's limit
//!   ([`Dispatcher::push`] hands the batch back);
//! * **drain** — the owner's command queue ran dry with tasks still
//!   buffered ([`Dispatcher::recv`] returns [`Wake::Drained`] instead of
//!   blocking, and the owner flushes everything). Dispatch is therefore
//!   *work-conserving*: batches accumulate only while more commands are
//!   already waiting, so busy periods amortize messages exactly as the
//!   controller allows and a document routed into an idle engine reaches
//!   the workers at once — no timer is involved;
//! * **barrier** — an ordering point (a control message that must follow
//!   the node's earlier documents, a stats barrier, a fence, shutdown).
//!
//! Limit and barrier flushes feed the batch's residency to the controller;
//! a drain flush does not — its near-zero residency says nothing about
//! whether the limit is too high, and an idle document would otherwise
//! hand the controller one "grow" observation per node it touches.

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Duration;

use crate::config::{BatchController, RuntimeConfig};
use crate::message::DocTask;
use crate::metrics::FlushCounts;

/// Which rule shipped a batch (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushCause {
    /// The node's buffer reached the batch limit.
    Limit,
    /// The dispatcher's command queue ran dry.
    Drain,
    /// An ordering point forced the flush.
    Barrier,
}

/// What woke a dispatcher in [`Dispatcher::recv`].
pub(crate) enum Wake<C> {
    /// The next command.
    Command(C),
    /// The queue ran dry with tasks still buffered: flush everything with
    /// [`FlushCause::Drain`], then call `recv` again.
    Drained,
    /// Nothing buffered and nothing arrived for the idle period.
    Idle,
    /// Every sender is gone.
    Closed,
}

/// Per-node pending buffers plus the rules that empty them.
pub(crate) struct Dispatcher {
    pending: Vec<Vec<DocTask>>,
    /// Tasks buffered across all nodes.
    buffered: usize,
    batcher: BatchController,
    flushes: FlushCounts,
}

impl Dispatcher {
    pub(crate) fn new(nodes: usize, config: &RuntimeConfig) -> Self {
        Self {
            pending: vec![Vec::new(); nodes],
            buffered: 0,
            batcher: BatchController::new(config),
            flushes: FlushCounts::default(),
        }
    }

    /// Number of per-node buffers.
    pub(crate) fn nodes(&self) -> usize {
        self.pending.len()
    }

    /// Widens the buffer table after a node join (nodes never shrink; a
    /// dead node keeps its slot).
    pub(crate) fn grow_to(&mut self, nodes: usize) {
        if self.pending.len() < nodes {
            self.pending.resize_with(nodes, Vec::new);
        }
    }

    /// Whether no task is buffered anywhere.
    pub(crate) fn is_empty(&self) -> bool {
        self.buffered == 0
    }

    /// Buffers one task for node `n`; hands the node's batch back when
    /// that reaches the limit.
    pub(crate) fn push(&mut self, n: usize, task: DocTask) -> Option<Vec<DocTask>> {
        self.pending[n].push(task);
        self.buffered += 1;
        if self.pending[n].len() >= self.batcher.limit() {
            self.take(n, FlushCause::Limit)
        } else {
            None
        }
    }

    /// Takes node `n`'s buffered batch (task order preserved) for shipping
    /// under `cause`; `None` when nothing is buffered for it.
    pub(crate) fn take(&mut self, n: usize, cause: FlushCause) -> Option<Vec<DocTask>> {
        if self.pending[n].is_empty() {
            return None;
        }
        let batch = std::mem::take(&mut self.pending[n]);
        self.buffered -= batch.len();
        let count = match cause {
            FlushCause::Limit => &mut self.flushes.limit,
            FlushCause::Drain => &mut self.flushes.drain,
            FlushCause::Barrier => &mut self.flushes.barrier,
        };
        *count += 1;
        if cause != FlushCause::Drain {
            // The batch's residency is the age of its oldest task. A no-op
            // under `BatchPolicy::Fixed`.
            self.batcher.observe(batch[0].dispatched.elapsed());
        }
        Some(batch)
    }

    /// The work-conserving receive: the next already-queued command if
    /// there is one; otherwise [`Wake::Drained`] while tasks are buffered,
    /// and only with empty buffers a blocking wait of at most `idle`.
    pub(crate) fn recv<C>(&self, commands: &Receiver<C>, idle: Duration) -> Wake<C> {
        match commands.try_recv() {
            Ok(cmd) => Wake::Command(cmd),
            Err(TryRecvError::Disconnected) => Wake::Closed,
            Err(TryRecvError::Empty) if !self.is_empty() => Wake::Drained,
            Err(TryRecvError::Empty) => match commands.recv_timeout(idle) {
                Ok(cmd) => Wake::Command(cmd),
                Err(RecvTimeoutError::Timeout) => Wake::Idle,
                Err(RecvTimeoutError::Disconnected) => Wake::Closed,
            },
        }
    }

    /// Batches shipped so far, by cause.
    pub(crate) fn flushes(&self) -> FlushCounts {
        self.flushes
    }

    /// Highest limit the batch controller ever reached.
    pub(crate) fn limit_hwm(&self) -> u64 {
        self.batcher.hwm() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatchPolicy;
    use crossbeam::channel::bounded;
    use move_core::MatchTask;
    use move_types::{Document, TermId};
    use std::sync::Arc;
    use std::time::Instant;

    fn fixed(nodes: usize, limit: usize) -> Dispatcher {
        Dispatcher::new(
            nodes,
            &RuntimeConfig {
                batch_size: limit,
                batch_policy: BatchPolicy::Fixed,
                ..RuntimeConfig::default()
            },
        )
    }

    fn task(doc: u64) -> DocTask {
        DocTask {
            doc: Arc::new(Document::from_distinct_terms(doc, [TermId(1)])),
            task: MatchTask::Forward,
            dispatched: Instant::now(),
        }
    }

    fn ids(batch: &[DocTask]) -> Vec<u64> {
        batch.iter().map(|t| t.doc.id().0).collect()
    }

    /// Drives `d` like a dispatcher loop over a pre-filled queue, routing
    /// command `c` to node `c % nodes`; returns every shipped batch with
    /// the wake count at which it left.
    fn drive(d: &mut Dispatcher, commands: &Receiver<u64>) -> Vec<(usize, usize, Vec<u64>)> {
        let mut shipped = Vec::new();
        for wake in 0.. {
            match d.recv(commands, Duration::ZERO) {
                Wake::Command(c) => {
                    let n = c as usize % d.nodes();
                    if let Some(batch) = d.push(n, task(c)) {
                        shipped.push((wake, n, ids(&batch)));
                    }
                }
                Wake::Drained => {
                    for n in 0..d.nodes() {
                        if let Some(batch) = d.take(n, FlushCause::Drain) {
                            shipped.push((wake, n, ids(&batch)));
                        }
                    }
                }
                Wake::Idle | Wake::Closed => break,
            }
        }
        shipped
    }

    #[test]
    fn busy_queue_ships_only_full_batches_and_drain_ships_the_rest() {
        let mut d = fixed(3, 4);
        let (tx, rx) = bounded(64);
        // 20 commands round-robin over 3 nodes: node 0 and 1 get 7 tasks,
        // node 2 gets 6 — one full batch each while the queue is busy.
        for c in 0..20u64 {
            tx.send(c).unwrap();
        }
        let shipped = drive(&mut d, &rx);
        let (busy, drained): (Vec<_>, Vec<_>) = shipped.iter().partition(|(wake, ..)| *wake < 20);
        assert_eq!(
            busy.len(),
            3,
            "one limit flush per node while commands wait"
        );
        for (_, _, batch) in &busy {
            assert_eq!(batch.len(), 4, "nothing below the limit ships while busy");
        }
        // The 21st wake found the queue dry and shipped every remainder.
        assert_eq!(drained.len(), 3);
        assert!(drained.iter().all(|(wake, ..)| *wake == 20));
        assert!(d.is_empty());
        assert_eq!(
            d.flushes(),
            FlushCounts {
                limit: 3,
                drain: 3,
                barrier: 0
            }
        );
        // No batch above the limit, and per-node task order is routing order.
        for n in 0..3 {
            let order: Vec<u64> = shipped
                .iter()
                .filter(|(_, node, _)| *node == n)
                .flat_map(|(_, _, batch)| batch.clone())
                .collect();
            let want: Vec<u64> = (0..20).filter(|c| *c as usize % 3 == n).collect();
            assert_eq!(order, want, "node {n}: order must be preserved");
        }
        assert!(shipped.iter().all(|(_, _, batch)| batch.len() <= 4));
    }

    #[test]
    fn empty_buffers_block_for_the_idle_period_instead_of_draining() {
        let d = fixed(2, 4);
        let (tx, rx) = bounded::<u64>(1);
        assert!(matches!(d.recv(&rx, Duration::ZERO), Wake::Idle));
        drop(tx);
        assert!(matches!(d.recv(&rx, Duration::ZERO), Wake::Closed));
    }

    #[test]
    fn drain_flushes_do_not_feed_the_controller() {
        let mut d = Dispatcher::new(1, &RuntimeConfig::default());
        let start = d.batcher.limit();
        for c in 0..50 {
            assert!(d.push(0, task(c)).is_none());
            d.take(0, FlushCause::Drain);
        }
        assert_eq!(
            d.batcher.limit(),
            start,
            "idle documents must not grow the limit"
        );
        // A barrier flush of a fresh batch is a real (fast) observation.
        let _ = d.push(0, task(50));
        d.take(0, FlushCause::Barrier);
        assert!(d.batcher.limit() > start);
    }
}

//! The parallel ingest plane: publisher-facing router threads.
//!
//! With [`RuntimeConfig::publishers`](crate::RuntimeConfig) greater than
//! one, the engine boots a pool of *ingest threads*. Each one routes
//! documents against the current [`RoutingView`] snapshot — published by
//! the control thread as an epoch-stamped [`Arc`] inside an
//! [`IngestTable`] — and fans the resulting batches out to the worker
//! mailboxes directly, with no lock on the hot path beyond one uncontended
//! `Arc` clone of the table. The mutable residue of routing (MOVE's `q′ᵢ`
//! document-frequency counters) goes into a per-thread [`StatsDelta`]
//! shard that the control thread drains and merges at its leisure.
//!
//! Control traffic flows the other way on two channels:
//!
//! * each ingest thread has a bounded command mailbox of
//!   [`IngestCommand`]s (publishes round-robined by the engine, plus the
//!   control thread's barrier/fence/shutdown protocol);
//! * dead-worker batches and end-of-life counters travel to the control
//!   thread over the engine's command channel
//!   ([`Command::Gone`](crate::engine::Command) /
//!   [`Command::IngestExited`](crate::engine::Command)), so supervision,
//!   failover and fault injection remain exclusively the control thread's
//!   business — the PR 3 journal/replay/failover semantics are untouched.
//!
//! The barrier/fence protocol gives the control plane exact ordering:
//! a **barrier** makes a thread flush its pending batches and ack (used
//! before registrations and stats snapshots, so everything enqueued
//! earlier is in the worker mailboxes first); a **fence** additionally
//! parks the thread until released (used around allocation refreshes, so
//! no document routed under the old layout can be dispatched after the
//! [`AllocationUpdate`](crate::NodeMessage) ships).

use crossbeam::channel::{Receiver, Sender};
use move_core::{MatchTask, RoutingView, StatsDelta};
use move_types::Document;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::{OverflowPolicy, RuntimeConfig};
use crate::dispatch::{Dispatcher, FlushCause, Wake};
use crate::engine::{send_batch, BatchOutcome, Command};
use crate::message::{DocTask, NodeMessage};
use crate::metrics::IngestMetrics;

/// Everything an ingest thread reads per routed document, republished
/// wholesale by the control thread whenever any part changes (view epoch,
/// worker restart, membership change). Immutable once shared.
pub(crate) struct IngestTable {
    /// The routing snapshot (see [`RoutingView`]).
    pub(crate) view: RoutingView,
    /// Current mailbox sender per worker (replaced on restart).
    pub(crate) senders: Vec<Sender<NodeMessage>>,
    /// Nodes the control thread has declared dead under failover — the
    /// ingest thread hands their batches straight back instead of
    /// attempting a doomed send.
    pub(crate) dead: Vec<bool>,
}

/// State shared between the control thread and every ingest thread.
pub(crate) struct IngestShared {
    /// The current table; swapped atomically under a (briefly held) lock.
    pub(crate) table: Mutex<Arc<IngestTable>>,
    /// Documents routed across the pool — drives fault-plan triggers and
    /// the end-of-run report.
    pub(crate) docs_published: AtomicU64,
    /// One statistics shard per ingest thread; a thread only ever locks
    /// its own (uncontended except when the control thread drains it).
    pub(crate) shards: Vec<Mutex<StatsDelta>>,
}

impl IngestShared {
    /// Builds the shared state for `publishers` threads over `nodes`
    /// workers, seeded with the boot-time table.
    pub(crate) fn new(publishers: usize, nodes: usize, table: IngestTable) -> Self {
        Self {
            table: Mutex::new(Arc::new(table)),
            docs_published: AtomicU64::new(0),
            shards: (0..publishers)
                .map(|_| Mutex::new(StatsDelta::new(nodes)))
                .collect(),
        }
    }

    /// Publishes a new table; ingest threads pick it up on their next
    /// document.
    pub(crate) fn publish_table(&self, table: IngestTable) {
        *self.table.lock() = Arc::new(table);
    }
}

/// A command in an ingest thread's bounded mailbox.
pub(crate) enum IngestCommand {
    /// Route this document against the current table.
    Publish(Box<Document>),
    /// Flush all pending batches to the worker mailboxes, then ack.
    Barrier {
        /// Acked once the flush is complete.
        ack: Sender<()>,
    },
    /// Flush, ack, then park until the control thread releases the fence
    /// (one `()` per fenced thread on the shared release channel).
    Fence {
        /// Acked once the flush is complete and the thread is parked.
        ack: Sender<()>,
        /// Parks until a token (or disconnect) arrives.
        release: Receiver<()>,
    },
    /// Flush and exit; final counters travel to the control thread as
    /// [`Command::IngestExited`].
    Shutdown,
}

/// The handles the control thread keeps on a running ingest pool.
pub(crate) struct Pool {
    /// State shared with the ingest threads.
    pub(crate) shared: Arc<IngestShared>,
    /// Command senders, indexed by thread.
    pub(crate) ingest: Vec<Sender<IngestCommand>>,
    /// Join handles, collected after every thread's exit notice.
    pub(crate) handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Tells every ingest thread to flush and exit. Only the control
    /// thread calls this — it is the sole writer of protocol messages, so
    /// no barrier or fence can ever queue behind a shutdown and go unacked.
    pub(crate) fn stop_ingest(&self) {
        for tx in &self.ingest {
            let _ = tx.send(IngestCommand::Shutdown);
        }
    }
}

/// One publisher-facing ingest thread: routes against the shared table,
/// batches per node, and flushes under the engine's overflow policy.
pub(crate) struct IngestThread {
    thread: usize,
    shared: Arc<IngestShared>,
    control: Sender<Command>,
    overflow: OverflowPolicy,
    /// This thread's per-node batches and flush rules (see
    /// [`crate::dispatch`]) — independent per thread, so each batch
    /// controller adapts to its own node mix.
    dispatch: Dispatcher,
    flush_interval: Duration,
    /// This thread's replica-choice RNG. Replica rows and groups hold
    /// identical filter subsets, so per-thread streams do not change
    /// delivery sets — only which replica does the work.
    rng: StdRng,
    docs_routed: u64,
    tasks_dispatched: u64,
    tasks_shed: u64,
    docs_double_routed: u64,
}

impl IngestThread {
    /// Builds the thread state; `seed` decorrelates the pool's
    /// replica-choice streams.
    pub(crate) fn new(
        thread: usize,
        nodes: usize,
        shared: Arc<IngestShared>,
        control: Sender<Command>,
        config: &RuntimeConfig,
        seed: u64,
    ) -> Self {
        Self {
            thread,
            shared,
            control,
            overflow: config.overflow,
            dispatch: Dispatcher::new(nodes, config),
            flush_interval: config.flush_interval,
            rng: StdRng::seed_from_u64(seed ^ (thread as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            docs_routed: 0,
            tasks_dispatched: 0,
            tasks_shed: 0,
            docs_double_routed: 0,
        }
    }

    /// The thread's main loop: route publishes, ship everything buffered
    /// whenever the mailbox runs dry, obey the barrier/fence protocol, and
    /// report counters on exit.
    pub(crate) fn run(mut self, commands: &Receiver<IngestCommand>) {
        loop {
            let cmd = match self.dispatch.recv(commands, self.flush_interval) {
                Wake::Command(cmd) => cmd,
                Wake::Drained => {
                    self.flush_all(FlushCause::Drain);
                    continue;
                }
                Wake::Idle => continue,
                Wake::Closed => break,
            };
            match cmd {
                IngestCommand::Publish(doc) => self.publish(&Arc::new(*doc)),
                IngestCommand::Barrier { ack } => {
                    self.flush_all(FlushCause::Barrier);
                    let _ = ack.send(());
                }
                IngestCommand::Fence { ack, release } => {
                    self.flush_all(FlushCause::Barrier);
                    let _ = ack.send(());
                    // Parked until the control thread finishes the refresh;
                    // a disconnect (teardown) releases too.
                    let _ = release.recv();
                }
                IngestCommand::Shutdown => break,
            }
        }
        self.flush_all(FlushCause::Barrier);
        let _ = self.control.send(Command::IngestExited {
            metrics: IngestMetrics {
                thread: self.thread,
                docs_routed: self.docs_routed,
                tasks_dispatched: self.tasks_dispatched,
                tasks_shed: self.tasks_shed,
                docs_double_routed: self.docs_double_routed,
                batch_limit_hwm: self.dispatch.limit_hwm(),
                flushes: self.dispatch.flushes(),
            },
        });
    }

    /// Routes one document against the current table and accumulates its
    /// tasks into the per-node batches.
    fn publish(&mut self, doc: &Arc<Document>) {
        let table = Arc::clone(&self.shared.table.lock());
        self.dispatch.grow_to(table.senders.len());
        // During a join's handover window the view appends double-route
        // steps to the moved partitions' old homes — same code path as the
        // serial router.
        let (steps, doubled) = table.view.route_handover(doc, &mut self.rng);
        if doubled {
            self.docs_double_routed += 1;
        }
        self.shared.docs_published.fetch_add(1, Ordering::Relaxed);
        self.docs_routed += 1;
        {
            // Only this thread bumps this shard; the control thread drains
            // it between documents, so the lock is all but uncontended.
            let mut shard = self.shared.shards[self.thread].lock();
            table.view.observe(doc, &mut shard);
        }
        let dispatched = Instant::now();
        for step in steps {
            // As in the serial router, the Forward hop is the control
            // plane's own table lookup — nothing ships to a worker.
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
                self.ship(&table, n, batch);
            }
        }
    }

    /// Ships one batch for node `n` under the overflow policy. Batches for
    /// nodes the control thread declared dead — and batches whose send
    /// finds a disconnected mailbox — travel to the control thread as
    /// [`Command::Gone`] for supervised restart or failover.
    fn ship(&mut self, table: &IngestTable, n: usize, batch: Vec<DocTask>) {
        if table.dead[n] {
            let _ = self.control.send(Command::Gone { node: n, batch });
            return;
        }
        let count = batch.len() as u64;
        let msg = NodeMessage::PublishDocument { batch };
        match send_batch(&table.senders[n], self.overflow, msg) {
            BatchOutcome::Delivered => self.tasks_dispatched += count,
            BatchOutcome::Shed => self.tasks_shed += count,
            BatchOutcome::Gone(batch) => {
                let _ = self.control.send(Command::Gone { node: n, batch });
            }
        }
    }

    /// Flushes every pending batch against the *current* table (senders
    /// may have been replaced by a supervised restart since the batches
    /// accumulated).
    fn flush_all(&mut self, cause: FlushCause) {
        if self.dispatch.is_empty() {
            return;
        }
        let table = Arc::clone(&self.shared.table.lock());
        self.dispatch.grow_to(table.senders.len());
        for n in 0..self.dispatch.nodes() {
            if let Some(batch) = self.dispatch.take(n, cause) {
                self.ship(&table, n, batch);
            }
        }
    }
}

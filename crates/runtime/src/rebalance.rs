//! Live partition rebalancing: staged node joins under load.
//!
//! A join is a two-phase protocol driven by the control thread against the
//! same [`Transport`] seam every other router action uses, so the threaded
//! engine and the deterministic interleaving harness run identical code:
//!
//! 1. **Stage** ([`Router::begin_join`]) — the scheme stages and commits
//!    the next [`ClusterLayout`](move_cluster::ClusterLayout) version and
//!    synchronously copies every re-homed (term-partition → node)
//!    assignment onto the joiner, *without* removing the old homes' copies.
//!    The transport spawns the new worker with an empty shard, then the
//!    moved partitions stream to it as its first mailbox message
//!    ([`NodeMessage::InstallPartitions`]) — FIFO-ordered ahead of any
//!    document routed under the new view. The routing snapshot is
//!    republished carrying a **handover map**: documents touching a moved
//!    term are double-routed to the term's old home as well
//!    ([`move_core::RoutingView::route_handover`]), so in-flight batches
//!    and the freshly installed copies both deliver — duplicates are
//!    benign, consumers union per document.
//! 2. **Commit** ([`Router::commit_join`]) — after the handover window,
//!    the router flushes (pool mode: fences the ingest plane — *the fence
//!    gates the commit, not the copy*; ingest never stops for the copy
//!    itself), retires the old homes' duplicate copies
//!    ([`NodeMessage::RetirePartitions`]), and republishes the committed
//!    view with no handover map.
//!
//! Either view is sound at every instant of the window: the joiner serves
//! its partitions from the moment it is spawned, and the old homes keep
//! theirs until the commit fence has ordered every double-routed document
//! ahead of the retirement. A joiner that crashes mid-window needs no
//! rollback — the old copies were never removed, so the commit simply
//! refuses to retire them and the handover view keeps serving.

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
use move_core::JoinSummary;
use move_index::InvertedIndex;
use move_types::{MoveError, NodeId, Result, TermId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::dispatch::FlushCause;
use crate::engine::{Command, Router, ThreadTransport, Transport};
use crate::ingest::{IngestCommand, Pool};
use crate::message::NodeMessage;

/// What one committed node join did, as returned by
/// [`Engine::join_node`](crate::Engine::join_node).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinOutcome {
    /// The node that joined.
    pub node: NodeId,
    /// The layout version the join committed.
    pub layout_version: u64,
    /// Term-partitions the staged layout re-homed onto the joiner.
    pub partitions_moved: u64,
    /// Documents published inside the handover window (double-routing
    /// active).
    pub handover_docs: u64,
    /// Wall-clock length of the handover window, stage to commit,
    /// nanoseconds.
    pub handover_nanos: u64,
}

/// Migration counters the router accumulates across joins for the
/// [`RuntimeReport`](crate::RuntimeReport).
#[derive(Debug, Default)]
pub(crate) struct MigrationCounters {
    /// Node joins committed.
    pub joins: u64,
    /// Term-partitions moved across all joins.
    pub partitions_moved: u64,
    /// Documents double-routed to a moved partition's old home (serial
    /// router only; pool-mode double-routes are counted per ingest
    /// thread).
    pub docs_double_routed: u64,
    /// Documents published inside handover windows.
    pub handover_docs: u64,
    /// Total wall-clock nanoseconds spent inside handover windows.
    pub handover_nanos: u64,
}

/// A staged-but-uncommitted join: the scheme already serves the new
/// layout, the old homes still hold their copies, and the routing view
/// double-routes the moved terms.
pub(crate) struct PendingJoin {
    /// What the scheme staged (joiner, layout version, moved terms with
    /// their old homes).
    pub summary: JoinSummary,
    /// When the window opened.
    pub started: Instant,
    /// `docs_published` at the moment the window opened.
    pub docs_at_begin: u64,
}

impl PendingJoin {
    /// The handover map the routing view carries: moved term → old home.
    pub(crate) fn moved_map(&self) -> HashMap<TermId, NodeId> {
        self.summary.moved_terms.iter().copied().collect()
    }
}

impl<T: Transport> Router<T> {
    /// Phase 1 of a node join: stage the next layout version, spawn the
    /// joining worker, stream it the re-homed filter partitions, and
    /// publish the handover routing view. Publishing never stops — the
    /// caller keeps routing against the handover view until it commits.
    ///
    /// # Errors
    ///
    /// Propagates the scheme's staging error, and refuses to stage while
    /// another join is still in its handover window or when the transport
    /// cannot spawn workers (engine teardown).
    pub(crate) fn begin_join(&mut self) -> Result<()> {
        if self.pending_join.is_some() {
            return Err(MoveError::Runtime(
                "a node join is already in its handover window".into(),
            ));
        }
        // Everything routed under the old layout reaches the mailboxes
        // before the layout changes under it.
        self.flush_all(FlushCause::Barrier);
        let summary = self.scheme.join_node()?;
        let node = summary.node;
        let index = self.scheme.shared_node_index(node);
        // The worker boots empty; the moved partitions arrive as its first
        // mailbox message, FIFO-ordered ahead of any document routed under
        // the handover view published below.
        // The joiner missed every subscription broadcast sent so far, so
        // it is seeded with the scheme's current fan-out snapshot — first
        // with the worker's boot copy, then (same message as the shard)
        // with the one the install pins alongside the moved partitions.
        let fanout = self.scheme.fanout_table();
        let empty = Arc::new(InvertedIndex::new(index.semantics()));
        if !self.transport.join(empty, Arc::clone(&fanout)) {
            return Err(MoveError::Runtime(
                "transport refused to spawn the joining worker".into(),
            ));
        }
        let installed = self.transport.control(
            node.as_usize(),
            NodeMessage::InstallPartitions {
                index: Arc::clone(&index),
                fanout: Arc::clone(&fanout),
                layout_version: summary.layout_version,
            },
        );
        debug_assert!(installed, "a freshly spawned worker cannot be dead");
        let _ = installed;
        // The joiner's journal base is the installed shard plus the seeded
        // fan-out table: a crash of the joining node replays exactly what
        // the handover streamed to it.
        self.supervisor.admit(&index, &fanout);
        self.dispatch.grow_to(self.transport.nodes());
        self.dead.push(false);
        self.migration.partitions_moved += summary.partitions_moved;
        self.pending_join = Some(PendingJoin {
            summary,
            started: Instant::now(),
            docs_at_begin: self.docs_published,
        });
        // Publish the handover view: moved terms route to the joiner *and*
        // double-route to their old homes while the window is open.
        self.pin_docs = 0;
        self.refresh_view();
        Ok(())
    }

    /// Phase 2 of a node join: flush everything routed under the handover
    /// view, retire the moved partitions' old copies, and publish the
    /// committed view. Returns the migration outcome.
    ///
    /// # Errors
    ///
    /// Returns [`MoveError::Runtime`] when no join is staged, or when the
    /// joining node died inside its window — in that case nothing is
    /// retired (the old homes still hold every moved partition, so the
    /// handover view keeps serving; there is no rollback to perform).
    pub(crate) fn commit_join(&mut self) -> Result<JoinOutcome> {
        if self.pending_join.is_none() {
            return Err(MoveError::Runtime("no staged join to commit".into()));
        }
        // The fence gates the commit, not the copy: every document routed
        // under the handover view is in the mailboxes — ordered ahead of
        // the retirement below — before any old copy is dropped. Flushed
        // *before* the liveness check and with `pending_join` still in
        // place: worker deaths are discovered lazily on a failed send, so
        // this flush is what surfaces a joiner that died silently — and if
        // it does, the failover re-route inside it must still see the
        // handover view.
        self.flush_all(FlushCause::Barrier);
        let Some(join) = self.pending_join.take() else {
            return Err(MoveError::Runtime("no staged join to commit".into()));
        };
        let joiner = join.summary.node.as_usize();
        if self.dead.get(joiner).copied().unwrap_or(true) {
            self.pending_join = Some(join);
            return Err(MoveError::Runtime(
                "joining node died during the handover window; old copies retained".into(),
            ));
        }
        self.scheme.retire_join(&join.summary)?;
        let old_homes: BTreeSet<usize> = join
            .summary
            .moved_terms
            .iter()
            .map(|&(_, old)| old.as_usize())
            .collect();
        for n in old_homes {
            if self.dead[n] {
                continue;
            }
            let index = self.scheme.shared_node_index(NodeId(n as u32));
            self.supervisor.record_snapshot(n, &index);
            if !self.transport.control(
                n,
                NodeMessage::RetirePartitions {
                    index,
                    layout_version: join.summary.layout_version,
                },
            ) {
                self.supervise_control_failure(n);
            }
        }
        self.migration.joins += 1;
        let handover_docs = self.docs_published - join.docs_at_begin;
        let handover_nanos = u64::try_from(join.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.migration.handover_docs += handover_docs;
        self.migration.handover_nanos += handover_nanos;
        // Committed view: no handover map (pending_join is gone).
        self.pin_docs = 0;
        self.refresh_view();
        Ok(JoinOutcome {
            node: join.summary.node,
            layout_version: join.summary.layout_version,
            partitions_moved: join.summary.partitions_moved,
            handover_docs,
            handover_nanos,
        })
    }
}

impl Router<ThreadTransport> {
    /// The router-pool join protocol: barrier → stage → publish the
    /// handover table → keep ingest flowing for `window_docs` more
    /// documents → fence → commit → publish the committed table → release.
    /// The ingest plane only parks for the commit fence — never for the
    /// partition copy, so ingest cannot fully stall during the handover.
    pub(crate) fn pool_join(
        &mut self,
        window_docs: u64,
        commands: &Receiver<Command>,
        backlog: &mut VecDeque<Command>,
        pool: &Pool,
        exited: &mut usize,
    ) -> Result<JoinOutcome> {
        // Barrier first: documents already routed under the old layout
        // reach the worker mailboxes before the layout changes.
        self.pool_barrier(commands, backlog, pool);
        self.docs_published = pool.shared.docs_published.load(Ordering::Relaxed);
        self.begin_join()?;
        // The handover table: grown sender set plus the double-routing
        // view. Ingest threads pick it up on their next document.
        self.publish_table(pool);
        let start = pool.shared.docs_published.load(Ordering::Relaxed);
        while pool.shared.docs_published.load(Ordering::Relaxed) < start + window_docs {
            // Publishing continues on the ingest threads; this loop only
            // keeps the control channel drained (supervising dead-worker
            // batches inline, deferring everything else) until the window
            // fills or the engine tears down.
            match commands.recv_timeout(Duration::from_millis(1)) {
                Ok(Command::Gone { node, batch }) => {
                    self.handle_gone(node, batch);
                    self.publish_table(pool);
                }
                Ok(Command::IngestExited { metrics }) => {
                    self.ingest_metrics.push(metrics);
                    *exited += 1;
                    if *exited == pool.ingest.len() {
                        break; // every publisher exited: the window cannot fill
                    }
                }
                Ok(Command::Shutdown) => {
                    backlog.push_back(Command::Shutdown);
                    break;
                }
                Ok(cmd) => backlog.push_back(cmd),
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
        // The commit fence: park the ingest plane, merge its statistics
        // shards, retire the old copies, publish the committed table, and
        // only then release — no document routed under the handover view
        // can be dispatched after the retirement.
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
        self.docs_published = pool.shared.docs_published.load(Ordering::Relaxed);
        let outcome = self.commit_join();
        self.publish_table(pool);
        for _ in 0..fenced {
            let _ = rel_tx.send(());
        }
        outcome
    }
}

//! Observability: per-node counters and the end-of-run report.

use move_stats::LatencySummary;
use move_types::{DocId, NodeId};
use serde::{Deserialize, Serialize};

/// Counters of one node worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeMetrics {
    /// The worker's node id.
    pub node: NodeId,
    /// Mailbox messages handled (all [`crate::NodeMessage`] kinds).
    pub messages_processed: u64,
    /// Document match tasks executed.
    pub doc_tasks: u64,
    /// Posting entries scanned while matching.
    pub postings_scanned: u64,
    /// Filter deliveries emitted (matched filter ids, pre-union).
    pub deliveries: u64,
    /// Highest mailbox depth observed by the worker.
    pub queue_depth_hwm: u64,
    /// Queued document tasks destroyed by an injected crash (0 on a
    /// healthy node).
    pub tasks_lost: u64,
    /// Work-stealing steals performed by this node's match lanes (0 when
    /// [`crate::RuntimeConfig::match_lanes`] is 1).
    #[serde(default)]
    pub steals: u64,
    /// Chunked match units executed by this node's match lanes (0 when
    /// matching runs inline on the worker thread).
    #[serde(default)]
    pub lane_units: u64,
    /// Wall-clock latency from router dispatch to match completion,
    /// nanoseconds.
    pub latency: LatencySummary,
}

/// Batches shipped to worker mailboxes, counted by the rule that shipped
/// them — which of the dispatcher's three flush rules is doing the work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlushCounts {
    /// The node's batch reached the [`crate::BatchPolicy`] limit: commands
    /// kept arriving while it filled (a busy period).
    pub limit: u64,
    /// The dispatcher's command queue ran dry, so everything buffered was
    /// shipped rather than left waiting (partial load).
    pub drain: u64,
    /// An ordering point forced the flush: a control message that must
    /// follow the node's earlier documents, a stats barrier, a fence, or
    /// shutdown.
    pub barrier: u64,
}

impl std::ops::Add for FlushCounts {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            limit: self.limit + other.limit,
            drain: self.drain + other.drain,
            barrier: self.barrier + other.barrier,
        }
    }
}

/// Counters of one publisher-facing ingest thread (router-pool mode).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestMetrics {
    /// Ingest-thread index (`0..publishers`).
    pub thread: usize,
    /// Documents this thread routed.
    pub docs_routed: u64,
    /// Node match tasks this thread dispatched to worker mailboxes.
    pub tasks_dispatched: u64,
    /// Node match tasks this thread dropped under
    /// [`crate::OverflowPolicy::Shed`].
    pub tasks_shed: u64,
    /// Documents this thread double-routed to a moved partition's old home
    /// during a join's handover window.
    #[serde(default)]
    pub docs_double_routed: u64,
    /// Highest batch limit this thread's adaptive controller reached
    /// (equals the fixed batch size under
    /// [`crate::BatchPolicy::Fixed`]).
    #[serde(default)]
    pub batch_limit_hwm: u64,
    /// Batches this thread shipped, by flush rule.
    #[serde(default)]
    pub flushes: FlushCounts,
}

/// What [`crate::Engine::shutdown`] returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeReport {
    /// Scheme name ("move", "il", "rs").
    pub scheme: String,
    /// Documents routed by the engine.
    pub docs_published: u64,
    /// Node match tasks dispatched to workers.
    pub tasks_dispatched: u64,
    /// Node match tasks dropped under [`crate::OverflowPolicy::Shed`]
    /// (always 0 under `Block`).
    pub tasks_shed: u64,
    /// Allocation refreshes that re-shipped index shards to the workers.
    pub allocation_updates: u64,
    /// Node joins committed by the live rebalancer (see
    /// [`crate::rebalance`]).
    #[serde(default)]
    pub joins: u64,
    /// Term-partitions re-homed onto joining nodes across all joins.
    #[serde(default)]
    pub partitions_moved: u64,
    /// Documents double-routed to a moved partition's old home during
    /// handover windows (router + ingest threads combined).
    #[serde(default)]
    pub docs_double_routed: u64,
    /// Documents published inside handover windows.
    #[serde(default)]
    pub handover_docs: u64,
    /// Total wall-clock nanoseconds spent inside handover windows
    /// (stage → commit).
    #[serde(default)]
    pub handover_nanos: u64,
    /// Worker restarts the supervisor performed after detected deaths.
    pub restarts: u64,
    /// Batch sends retried across worker restarts.
    pub retries: u64,
    /// Document tasks re-routed to replica nodes after a failover.
    pub failovers: u64,
    /// Tasks lost to crashes: queued work destroyed with a dead worker
    /// plus failover tasks that found no live replica. Always 0 in a
    /// fault-free run.
    pub tasks_lost: u64,
    /// The documents those lost tasks belonged to (sorted, deduplicated) —
    /// the at-most-once allowance: a document outside this list was
    /// delivered completely, one inside it may be missing matches.
    pub lost_docs: Vec<DocId>,
    /// The published-document count at the moment the *last* worker death
    /// was discovered (`None` when nothing died). Deaths are discovered
    /// lazily — on the first failed send — so documents routed before this
    /// point may have been routed under the pre-crash placement; documents
    /// routed after it saw the fully settled dead set. The fault oracles
    /// use this to compare post-crash deliveries against the simulator
    /// without guessing at discovery latency.
    pub deaths_settled_at: Option<u64>,
    /// Per-ingest-thread routed/dispatched/shed counters (empty in the
    /// classic single-router mode), so backpressure accounting stays exact
    /// under the pool: the report's `tasks_dispatched`/`tasks_shed` totals
    /// include these.
    pub ingest: Vec<IngestMetrics>,
    /// The scheme's merged `q′ᵢ` document-frequency statistics per node at
    /// shutdown (empty for schemes without routing statistics) — lets the
    /// serial-vs-parallel equivalence suite assert the sharded accumulators
    /// merged to the same totals the serial observer would have produced.
    pub q_hits: Vec<u64>,
    /// Highest per-node batch limit any dispatcher's adaptive controller
    /// reached (the router's own, maxed with every ingest thread's).
    #[serde(default)]
    pub batch_limit_hwm: u64,
    /// Batches shipped by every dispatcher (the router's own plus every
    /// ingest thread's), by flush rule.
    #[serde(default)]
    pub flushes: FlushCounts,
    /// Live filter registrations applied through the engine's control
    /// plane after start (churn workloads; 0 for static filter sets).
    #[serde(default)]
    pub registrations: u64,
    /// Live filter unregistrations applied through the control plane.
    #[serde(default)]
    pub unregistrations: u64,
    /// Registrations that hit an already-live canonical predicate, so the
    /// control plane shipped only a `Subscribe` broadcast — no posting
    /// entries were written anywhere (the aggregation win; DESIGN.md §12).
    #[serde(default)]
    pub canonical_hits: u64,
    /// Distinct canonical predicates live at shutdown (equals the live
    /// filter count when aggregation is disabled).
    #[serde(default)]
    pub canonical_filters: u64,
    /// Control-plane aggregation bookkeeping bytes at shutdown: canonical
    /// maps plus compressed fan-out sets. 0 when aggregation is disabled.
    #[serde(default)]
    pub aggregation_bytes: u64,
    /// Per-node counters, indexed by node id (a node restarted mid-run
    /// reports the merged counters of all its incarnations).
    pub nodes: Vec<NodeMetrics>,
    /// Match latency merged across all workers, nanoseconds.
    pub latency: LatencySummary,
}

impl RuntimeReport {
    /// Total posting entries scanned across the cluster.
    #[must_use]
    pub fn postings_scanned(&self) -> u64 {
        self.nodes.iter().map(|n| n.postings_scanned).sum()
    }

    /// Total deliveries emitted across the cluster (pre-union).
    #[must_use]
    pub fn deliveries(&self) -> u64 {
        self.nodes.iter().map(|n| n.deliveries).sum()
    }

    /// Total work-stealing steals across the cluster's match lanes.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.nodes.iter().map(|n| n.steals).sum()
    }
}

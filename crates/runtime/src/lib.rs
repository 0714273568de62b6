//! The live execution engine: real OS threads, bounded mailboxes, and
//! wall-clock metrics for the MOVE dissemination schemes.
//!
//! The rest of the workspace evaluates the paper's schemes under a
//! *virtual-time* queueing simulation — perfectly reproducible, but every
//! cost is a model. This crate executes the very same routing decisions as
//! a real concurrent system:
//!
//! * every cluster node becomes an OS-thread **worker** owning its shard of
//!   the serving inverted index and a bounded [`crossbeam`] mailbox of
//!   typed [`NodeMessage`]s;
//! * a **router** thread owns the scheme (any [`move_core::Dissemination`])
//!   as its control plane: it calls the shared
//!   [`route`](move_core::Dissemination::route) method — the same one the
//!   simulator's `publish` executes — and dispatches the resulting
//!   [`move_core::RouteStep`]s to the workers as document batches;
//! * mailboxes are bounded, giving end-to-end **backpressure**: with
//!   [`OverflowPolicy::Block`] a slow worker stalls the router (and
//!   ultimately the publisher) without losing anything; with
//!   [`OverflowPolicy::Shed`] overload drops batches and counts them;
//! * each worker keeps wall-clock **match-latency** percentiles in a
//!   mergeable [`move_stats::LatencyHistogram`], plus message counts,
//!   postings-scanned counters, and its queue-depth high-watermark;
//! * [`Engine::shutdown`] drains every mailbox before the workers exit, so
//!   a graceful shutdown never loses queued deliveries.
//!
//! Because routing, matching, and maintenance all run through the exact
//! code paths of the simulated schemes, the delivery set produced by the
//! live engine equals the simulator's (and hence the brute-force oracle's)
//! — the property the integration tests pin down.
//!
//! # Examples
//!
//! ```
//! use move_core::{Dissemination, IlScheme, SystemConfig};
//! use move_runtime::{Engine, RuntimeConfig};
//! use move_types::{Document, Filter, TermId};
//!
//! let scheme = Box::new(IlScheme::new(SystemConfig::small_test()).unwrap());
//! let engine = Engine::start(scheme, RuntimeConfig::default()).unwrap();
//! engine.register(Filter::new(1u64, [TermId(3)]));
//! let matched = engine.publish_sync(Document::from_distinct_terms(1u64, [TermId(3)]));
//! assert_eq!(matched, vec![move_types::FilterId(1)]);
//! let report = engine.shutdown().unwrap();
//! assert_eq!(report.docs_published, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dispatch;
mod engine;
mod fault;
mod ingest;
/// Deterministic schedule-permutation harness over the same router/worker
/// code the threaded engine runs.
pub mod interleave;
mod lanes;
mod message;
mod metrics;
/// Live partition rebalancing: staged node joins committed under load.
pub mod rebalance;
mod supervisor;
mod worker;

pub use config::{BatchPolicy, OverflowPolicy, RuntimeConfig, DEFAULT_LANE_COST_TARGET};
pub use engine::Engine;
pub use fault::{FaultAction, FaultEvent, FaultPlan};
pub use message::{Delivery, DocTask, NodeMessage};
pub use metrics::{FlushCounts, IngestMetrics, NodeMetrics, RuntimeReport};
pub use rebalance::JoinOutcome;
pub use supervisor::SupervisionPolicy;

//! Engine tuning knobs.

use crate::supervisor::SupervisionPolicy;
use std::time::Duration;

/// What the router does when a worker's bounded mailbox is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Block the router until the worker drains — lossless backpressure
    /// that propagates to the publisher through the bounded command
    /// channel. The default; required for delivery-completeness guarantees.
    #[default]
    Block,
    /// Drop the batch and count it in
    /// [`RuntimeReport::tasks_shed`](crate::RuntimeReport::tasks_shed) —
    /// the load-shedding stance of a system that prefers freshness over
    /// completeness under overload.
    Shed,
}

/// How the dispatch planes (the serial router and every ingest thread)
/// size their per-node document batches.
///
/// Batching is the live engine's main per-message-overhead lever: every
/// batch is one channel send, one mailbox slot, and one worker wakeup, so
/// larger batches amortize that cost — at the price of tasks idling in the
/// dispatcher's pending buffer while more commands are being routed.
/// [`BatchPolicy::Adaptive`] (the default) trades the two off automatically
/// against a residency target instead of pinning a fixed
/// [`RuntimeConfig::batch_size`]. Either way the limit is only an upper
/// bound: a dispatcher whose queue runs dry flushes what it has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Always flush at exactly [`RuntimeConfig::batch_size`] tasks — the
    /// pre-adaptive behaviour. The interleaving harness pins this policy:
    /// the adaptive controller's wall-clock feedback would make schedules
    /// nondeterministic.
    Fixed,
    /// Latency-targeted AIMD controller: each flush observes the batch's
    /// *residency* (how long its oldest task waited in the pending
    /// buffer). Residency above `target` halves the batch limit;
    /// residency below `target / 2` grows it gently. The limit starts at
    /// [`RuntimeConfig::batch_size`] clamped into `[min, max]`.
    Adaptive {
        /// Batch-residency target. The controller keeps the time a task
        /// spends waiting to be dispatched near (but under) this.
        target: Duration,
        /// Batch-limit floor (at least 1).
        min: usize,
        /// Batch-limit ceiling.
        max: usize,
    },
}

impl BatchPolicy {
    /// The default adaptive controller: 1 ms residency target, batches
    /// between 1 and 512 tasks. Under throughput load the pending buffers
    /// fill in microseconds, so batches grow toward the ceiling and the
    /// per-message overhead (the dominant live-vs-sim gap on few cores)
    /// amortizes away. The limit only governs *busy* periods: whenever a
    /// dispatcher's command queue runs dry it ships everything it has
    /// buffered (see [`RuntimeConfig::flush_interval`]), so under partial
    /// load a task's residency is the time to route the commands queued
    /// ahead of it, whatever the limit is — and those drain flushes are
    /// not fed back, so idle traffic does not inflate the limit.
    #[must_use]
    pub fn adaptive_default() -> Self {
        Self::Adaptive {
            target: Duration::from_millis(1),
            min: 1,
            max: 512,
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self::adaptive_default()
    }
}

/// The per-dispatcher batch-size governor behind [`BatchPolicy`]. Each
/// dispatching thread (the serial router, each ingest thread) owns one —
/// no sharing, no locks.
#[derive(Debug, Clone)]
pub(crate) struct BatchController {
    limit: usize,
    min: usize,
    max: usize,
    target: Duration,
    hwm: usize,
}

impl BatchController {
    pub(crate) fn new(config: &RuntimeConfig) -> Self {
        let (min, max, target) = match config.batch_policy {
            BatchPolicy::Fixed => {
                let b = config.batch_size.max(1);
                (b, b, Duration::MAX)
            }
            BatchPolicy::Adaptive { target, min, max } => {
                let min = min.max(1);
                (min, max.max(min), target)
            }
        };
        let limit = config.batch_size.clamp(min, max);
        Self {
            limit,
            min,
            max,
            target,
            hwm: limit,
        }
    }

    /// The current flush threshold (tasks per node batch).
    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    /// Highest limit the controller ever reached (observability).
    pub(crate) fn hwm(&self) -> usize {
        self.hwm
    }

    /// Feeds back one flushed batch's residency — the age of its oldest
    /// task at flush time. AIMD: halve over target, grow gently under half
    /// the target, hold in between.
    pub(crate) fn observe(&mut self, residency: Duration) {
        if self.min == self.max {
            return; // Fixed policy
        }
        if residency > self.target {
            self.limit = (self.limit / 2).max(self.min);
        } else if residency < self.target / 2 {
            self.limit = (self.limit + 1 + self.limit / 8).min(self.max);
        }
        self.hwm = self.hwm.max(self.limit);
    }
}

/// Configuration of the live engine.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Capacity of each worker mailbox (messages). Small values exercise
    /// backpressure; large values decouple the router from slow workers.
    /// Under [`BatchPolicy::Adaptive`] this knob is no longer
    /// load-bearing: the controller grows batches (messages shrink in
    /// number, not in task count), so the default depth is ample.
    pub mailbox_capacity: usize,
    /// Capacity of the publisher→router command channel.
    pub command_capacity: usize,
    /// Behaviour when a worker mailbox is full.
    pub overflow: OverflowPolicy,
    /// Documents per node accumulated before a
    /// [`NodeMessage::PublishDocument`](crate::NodeMessage) batch is sent.
    /// Under [`BatchPolicy::Fixed`] this is exact; under
    /// [`BatchPolicy::Adaptive`] it is only the controller's starting
    /// point.
    pub batch_size: usize,
    /// How the dispatch planes size batches (see [`BatchPolicy`]).
    pub batch_policy: BatchPolicy,
    /// How long an *idle* dispatcher blocks on its command queue before it
    /// wakes to probe the workers (the serial router's heartbeat, the pool
    /// control thread's tick: due faults, a due allocation refresh, the
    /// liveness sweep). It is not a latency mechanism: dispatch is
    /// work-conserving — a dispatcher ships every buffered batch the
    /// moment its queue runs dry and only then blocks — so no task ever
    /// waits for this timer, and a value of ten seconds delivers a lone
    /// document as fast as the 2 ms default.
    pub flush_interval: Duration,
    /// What the router does when it detects a dead worker (restart +
    /// journal replay, or replica failover).
    pub supervision: SupervisionPolicy,
    /// Publisher-facing ingest threads. `1` (the default) keeps the
    /// classic single router thread; `> 1` boots a pool of that many
    /// ingest threads routing concurrently against an immutable
    /// [`RoutingView`](move_core::RoutingView) snapshot, with one control
    /// thread retaining registration, allocation refresh, supervision and
    /// fault injection.
    pub publishers: usize,
    /// Match lanes per node worker. `1` (the default) matches inline on
    /// the worker thread; `> 1` fans each document batch out over a
    /// work-stealing pool of that many lanes (the worker thread itself
    /// plus `match_lanes - 1` helper threads) with per-lane scratch
    /// buffers — see [`crate::lanes`]. Delivery sets and counters are
    /// identical either way; only the core count changes.
    pub match_lanes: usize,
    /// Per-unit scan-cost target of the lane planner, in posting entries:
    /// a batch is split into stealable units whose summed posting-list
    /// lengths approach this target (lowered automatically when the batch
    /// is too small to fill `4 × match_lanes` units at it). Smaller
    /// targets mean finer-grained stealing at more per-unit merge
    /// overhead. Ignored with one lane.
    pub lane_cost_target: usize,
}

/// Default [`RuntimeConfig::lane_cost_target`]: enough posting entries
/// per unit that the unit's scan dwarfs its lock round-trip, small enough
/// that realistic batches still split across lanes.
pub const DEFAULT_LANE_COST_TARGET: usize = 4096;

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            mailbox_capacity: 64,
            command_capacity: 256,
            overflow: OverflowPolicy::Block,
            batch_size: 8,
            batch_policy: BatchPolicy::default(),
            flush_interval: Duration::from_millis(2),
            supervision: SupervisionPolicy::default(),
            publishers: 1,
            match_lanes: 1,
            lane_cost_target: DEFAULT_LANE_COST_TARGET,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adaptive(start: usize) -> BatchController {
        BatchController::new(&RuntimeConfig {
            batch_size: start,
            batch_policy: BatchPolicy::Adaptive {
                target: Duration::from_millis(1),
                min: 1,
                max: 64,
            },
            ..RuntimeConfig::default()
        })
    }

    #[test]
    fn fixed_policy_never_moves() {
        let mut c = BatchController::new(&RuntimeConfig {
            batch_size: 8,
            batch_policy: BatchPolicy::Fixed,
            ..RuntimeConfig::default()
        });
        c.observe(Duration::from_secs(10));
        c.observe(Duration::ZERO);
        assert_eq!(c.limit(), 8);
        assert_eq!(c.hwm(), 8);
    }

    #[test]
    fn adaptive_grows_under_target_and_halves_over_it() {
        let mut c = adaptive(8);
        for _ in 0..100 {
            c.observe(Duration::ZERO);
        }
        assert_eq!(c.limit(), 64, "fast flushes must grow to the ceiling");
        c.observe(Duration::from_millis(5));
        assert_eq!(c.limit(), 32, "a slow flush halves");
        for _ in 0..100 {
            c.observe(Duration::from_secs(1));
        }
        assert_eq!(c.limit(), 1, "sustained overload reaches the floor");
        assert_eq!(c.hwm(), 64);
    }

    #[test]
    fn adaptive_holds_in_the_dead_band() {
        let mut c = adaptive(8);
        c.observe(Duration::from_micros(700)); // between target/2 and target
        assert_eq!(c.limit(), 8);
    }

    #[test]
    fn start_is_clamped_into_bounds() {
        let c = BatchController::new(&RuntimeConfig {
            batch_size: 100_000,
            batch_policy: BatchPolicy::Adaptive {
                target: Duration::from_millis(1),
                min: 2,
                max: 16,
            },
            ..RuntimeConfig::default()
        });
        assert_eq!(c.limit(), 16);
    }
}

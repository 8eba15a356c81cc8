//! Serving metrics, backed by the shared metric primitives of
//! `evprop-trace` ([`Counter`], [`LatencyHistogram`]): per-shard live
//! counters updated by dispatcher threads, snapshotted into plain
//! [`ShardStats`] / [`RuntimeStats`] structs on demand.
//!
//! Keeping the primitives in one crate means the scheduler's
//! `ThreadStats`, the timeline analyzer, and these serving stats all
//! count with the same implementation — the numbers cannot drift.

use crate::sessions::SessionTableStats;
use evprop_registry::RegistryStats;
use evprop_taskgraph::PlanCacheStats;
use std::time::Duration;

pub use evprop_trace::{quantile_of, Counter, LatencyHistogram};

/// Live counters of one shard, updated by its dispatcher thread.
#[derive(Debug, Default)]
pub(crate) struct ShardMetrics {
    pub served: Counter,
    pub errors: Counter,
    pub batches: Counter,
    pub busy_nanos: Counter,
    pub latency: LatencyHistogram,
    /// Queries shed at dequeue because their deadline had already
    /// expired (the propagation never started).
    pub shed: Counter,
    /// In-flight propagations stopped early by a fired deadline token.
    pub cancelled: Counter,
    /// Queries failed by a worker panic or thread death.
    pub panics: Counter,
}

impl ShardMetrics {
    pub fn snapshot(&self, shard: usize, arenas_allocated: u64, wall: Duration) -> ShardStats {
        let busy = Duration::from_nanos(self.busy_nanos.get());
        ShardStats {
            shard,
            served: self.served.get(),
            errors: self.errors.get(),
            batches: self.batches.get(),
            busy,
            idle: wall.saturating_sub(busy),
            mean_latency: self.latency.mean(),
            p50: self.latency.quantile(0.50),
            p95: self.latency.quantile(0.95),
            p99: self.latency.quantile(0.99),
            arenas_allocated,
        }
    }
}

/// A point-in-time view of one shard.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Queries answered (including per-query errors).
    pub served: u64,
    /// Queries answered with an error.
    pub errors: u64,
    /// Dispatch rounds (each covers a micro-batch of ≥ 1 queries).
    pub batches: u64,
    /// Time spent inside dispatch rounds.
    pub busy: Duration,
    /// Runtime lifetime minus busy time.
    pub idle: Duration,
    /// Mean enqueue-to-answer latency.
    pub mean_latency: Duration,
    /// Median enqueue-to-answer latency (approximate).
    pub p50: Duration,
    /// 95th-percentile latency (approximate).
    pub p95: Duration,
    /// 99th-percentile latency (approximate).
    pub p99: Duration,
    /// Cold-start arena allocations on this shard.
    pub arenas_allocated: u64,
}

/// Aggregate fault-tolerance counters across every shard. All four
/// stay zero on a healthy runtime serving deadline-free traffic, and
/// the stats protocol omits the whole object until one of them moves,
/// keeping pre-fault transcripts byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Queries shed at dequeue with an already-expired deadline: they
    /// consumed queue capacity but never a worker cycle.
    pub shed: u64,
    /// In-flight propagations stopped early at a task boundary by a
    /// fired deadline token.
    pub cancelled: u64,
    /// Queries failed by a worker panic or thread death.
    pub panics: u64,
    /// Dead pool worker threads reaped and respawned by supervision.
    pub restarts: u64,
}

impl FaultStats {
    /// Whether any counter has moved — the stats protocol gates the
    /// `"faults"` object on this.
    pub fn any(&self) -> bool {
        self.shed != 0 || self.cancelled != 0 || self.panics != 0 || self.restarts != 0
    }
}

/// A point-in-time view of the whole runtime.
#[derive(Clone, Debug)]
pub struct RuntimeStats {
    /// Per-shard views, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Total queries answered across shards.
    pub served: u64,
    /// Total queries answered with an error.
    pub errors: u64,
    /// Current admission-queue depth.
    pub queue_depth: usize,
    /// Deepest the admission queue has ever been.
    pub queue_high_water: usize,
    /// Mean enqueue-to-answer latency across shards.
    pub mean_latency: Duration,
    /// Aggregate median latency (approximate).
    pub p50: Duration,
    /// Aggregate 95th-percentile latency (approximate).
    pub p95: Duration,
    /// Aggregate 99th-percentile latency (approximate).
    pub p99: Duration,
    /// Time since the runtime started.
    pub uptime: Duration,
    /// Kernel-plan cache counters of the served model (hits and misses
    /// of the scheduler's δ-subrange lookups, plus distinct interned
    /// plans). `None` when the snapshot source has no plan cache to
    /// report; the stats protocol omits the field entirely in that
    /// case, so existing consumers see byte-identical output.
    pub plan_cache: Option<PlanCacheStats>,
    /// Incremental-session counters: open/opened/closed/expired totals
    /// plus the merged cached-vs-incremental-vs-full query breakdown.
    /// `None` until the first `session-open` reaches the runtime; the
    /// stats protocol omits the field entirely in that case, so the
    /// stateless golden transcript stays byte-identical.
    pub sessions: Option<SessionTableStats>,
    /// Model-registry counters (loads, evictions, swaps, resident and
    /// still-pinned unlinked bytes). `None` unless the runtime was
    /// booted in registry mode, so single-model servers keep their
    /// pre-registry stats lines byte-identical.
    pub registry: Option<RegistryStats>,
    /// Fault-tolerance counters (deadline sheds, in-flight
    /// cancellations, worker panics, supervised restarts). `None` until
    /// any of them moves, so fault-free transcripts stay byte-identical.
    pub faults: Option<FaultStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_metrics_snapshot_uses_shared_primitives() {
        let m = ShardMetrics::default();
        m.served.add(3);
        m.errors.incr();
        m.batches.incr();
        m.busy_nanos.add(1_500_000);
        for micros in [10u64, 20, 40] {
            m.latency.record(Duration::from_micros(micros));
        }
        let s = m.snapshot(1, 2, Duration::from_millis(10));
        assert_eq!(s.shard, 1);
        assert_eq!(s.served, 3);
        assert_eq!(s.errors, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.busy, Duration::from_nanos(1_500_000));
        assert_eq!(s.idle, Duration::from_millis(10) - s.busy);
        assert_eq!(s.arenas_allocated, 2);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn idle_saturates_when_busy_exceeds_wall() {
        let m = ShardMetrics::default();
        m.busy_nanos.add(5_000);
        let s = m.snapshot(0, 0, Duration::from_nanos(1_000));
        assert_eq!(s.idle, Duration::ZERO);
    }
}

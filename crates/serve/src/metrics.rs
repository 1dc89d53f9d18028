//! Per-request and per-shard serving metrics.
//!
//! Every simulated request leaves a [`RequestMetric`] splitting its
//! end-to-end latency into time-in-queue and time-in-service; the
//! simulator folds them into a [`ServeSummary`] with latency percentiles,
//! per-shard utilization and the fleet-wide queue-depth trajectory — the
//! quantities the degenerate `shards / latency` throughput model of the
//! old fleet study could not express.
//!
//! Two accounting regimes produce the same summary shape (see
//! [`MetricsMode`](crate::MetricsMode)): the default **streaming** mode
//! folds every request into a [`StreamingLatency`] — counters plus three
//! constant-space P² percentile trackers — so a sweep over millions of
//! virtual requests runs in O(1) memory; **exact** mode materializes the
//! per-request records and the full queue-depth trajectory for tests and
//! forensics.
//!
//! A front-end run ([`simulate_frontend`](crate::frontend::simulate_frontend))
//! folds its outcomes per priority class instead: [`FrontendSummary`]
//! carries one [`ClassStats`] per class, with latencies in the same
//! constant-space [`StreamingLatency`] accumulator.

use sparsenn_core::engine::Priority;
use sparsenn_obs::{AlertKind, BurnAlert};

/// The life of one simulated request, in virtual microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestMetric {
    /// Request id, monotone in arrival order.
    pub id: usize,
    /// Shard that served the request.
    pub shard: usize,
    /// Arrival (issue) time.
    pub arrival_us: f64,
    /// Service start time (`start - arrival` is the queueing delay).
    pub start_us: f64,
    /// Completion time.
    pub completion_us: f64,
}

impl RequestMetric {
    /// End-to-end latency: completion − arrival.
    pub fn latency_us(&self) -> f64 {
        self.completion_us - self.arrival_us
    }

    /// Time spent waiting (central or per-shard queue) before service.
    pub fn queue_us(&self) -> f64 {
        self.start_us - self.arrival_us
    }

    /// Time spent in service on the shard.
    pub fn service_us(&self) -> f64 {
        self.completion_us - self.start_us
    }
}

/// Latency distribution snapshot — re-exported from the unified
/// `sparsenn-obs` accounting (same five fields, same nearest-rank
/// [`LatencyStats::of`] this crate used to define locally).
pub use sparsenn_obs::LatencyStats;

/// The streaming accumulator behind the simulator's default metrics
/// mode — re-exported from `sparsenn-obs`, where the fleet's per-shard
/// books and the frontend's per-class stats now share it. Exact
/// count/mean/max plus constant-space P² p50/p95/p99.
pub use sparsenn_obs::LatencyStat as StreamingLatency;

/// One shard's share of the simulated work.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardUsage {
    /// Shard name (from its spec).
    pub name: String,
    /// Requests the shard served.
    pub served: usize,
    /// Total time the shard spent serving, µs.
    pub busy_us: f64,
    /// `busy_us / makespan` — the fraction of the simulated span the
    /// shard was working.
    pub utilization: f64,
}

/// Fleet-wide queue-depth statistics (requests waiting, not in service).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueueStats {
    /// Largest number of simultaneously waiting requests.
    pub max_depth: usize,
    /// Time-weighted mean waiting count over the makespan.
    pub mean_depth: f64,
    /// `(virtual time µs, waiting requests)` after every depth change —
    /// the queue-depth trajectory. Populated only in
    /// [`MetricsMode::Exact`](crate::MetricsMode::Exact); empty in the
    /// default streaming mode (`max_depth` and `mean_depth` are exact in
    /// both).
    pub trajectory: Vec<(f64, usize)>,
}

/// Everything a simulation run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeSummary {
    /// Dispatch policy that ran ([`Scheduler::name`]).
    ///
    /// [`Scheduler::name`]: sparsenn_core::engine::Scheduler::name
    pub scheduler: String,
    /// Workload description.
    pub workload: String,
    /// Requests completed (every issued request completes).
    pub requests: usize,
    /// Virtual time of the last completion, µs.
    pub makespan_us: f64,
    /// Achieved throughput: `requests / makespan`, requests per second.
    pub throughput_rps: f64,
    /// End-to-end latency distribution. In the default streaming mode
    /// the mean and max are exact and p50/p95/p99 are P² estimates; in
    /// [`MetricsMode::Exact`](crate::MetricsMode::Exact) every field is
    /// the exact nearest-rank statistic.
    pub latency: LatencyStats,
    /// Mean time-in-queue per request, µs.
    pub queue_us_mean: f64,
    /// Mean time-in-service per request, µs.
    pub service_us_mean: f64,
    /// Per-shard usage, one entry per shard in spec order.
    pub shards: Vec<ShardUsage>,
    /// Waiting-request depth over time.
    pub queue: QueueStats,
    /// Per-request records, in completion order. Populated only in
    /// [`MetricsMode::Exact`](crate::MetricsMode::Exact); empty in the
    /// default streaming mode, which holds memory at O(in-flight)
    /// however many requests the workload issues.
    pub per_request: Vec<RequestMetric>,
}

impl ServeSummary {
    /// Exports the summary into a [`MetricsRegistry`] under `serve.*`
    /// names: run-level counters and gauges, the end-to-end latency
    /// distribution, queue statistics and per-shard usage.
    ///
    /// [`MetricsRegistry`]: sparsenn_obs::MetricsRegistry
    pub fn export_metrics(&self, registry: &mut sparsenn_obs::MetricsRegistry) {
        registry.inc("serve.requests", self.requests as u64);
        registry.set_gauge("serve.makespan_us", self.makespan_us);
        registry.set_gauge("serve.throughput_rps", self.throughput_rps);
        registry.set_gauge("serve.queue_us_mean", self.queue_us_mean);
        registry.set_gauge("serve.service_us_mean", self.service_us_mean);
        registry.record_latency("serve.latency", &self.latency);
        registry.set_gauge("serve.queue.max_depth", self.queue.max_depth as f64);
        registry.set_gauge("serve.queue.mean_depth", self.queue.mean_depth);
        for (i, shard) in self.shards.iter().enumerate() {
            let p = format!("serve.shard{i}");
            registry.inc(&format!("{p}.served"), shard.served as u64);
            registry.set_gauge(&format!("{p}.busy_us"), shard.busy_us);
            registry.set_gauge(&format!("{p}.utilization"), shard.utilization);
        }
    }
}

/// One burn-rate alert edge, tagged with the priority class whose SLO
/// budget raised it (each class runs its own monitor).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassBurnAlert {
    /// The class whose attainment budget fired or cleared.
    pub class: Priority,
    /// The alert edge itself (time, kind, window burn rates).
    pub alert: BurnAlert,
}

/// Outcomes for one [`Priority`] class.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClassStats {
    /// Requests of this class the workload offered.
    pub offered: usize,
    /// Requests admitted at full fidelity.
    pub admitted: usize,
    /// Requests admitted degraded (served at the degraded service cost).
    pub degraded: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Requests that completed (full-fidelity or degraded).
    pub completed: usize,
    /// Requests lost to fail-stops with no retry budget left.
    pub failed: usize,
    /// Completed requests that met their class SLO.
    pub slo_met: usize,
    /// End-to-end latency over completed requests: exact mean/max,
    /// P²-estimated percentiles.
    pub latency: LatencyStats,
}

impl ClassStats {
    /// Fraction of offered requests that completed within SLO (0 when
    /// nothing was offered).
    pub fn slo_attainment(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.slo_met as f64 / self.offered as f64
        }
    }

    /// Fraction of offered requests shed at admission.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// Everything one front-end simulation measured.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontendSummary {
    /// Dispatch policy that ran.
    pub scheduler: String,
    /// Admission policy that ran.
    pub admission: String,
    /// Workload description.
    pub workload: String,
    /// Total requests the workload offered.
    pub requests: usize,
    /// Virtual time of the last resolution, µs.
    pub makespan_us: f64,
    /// Completions per second of virtual time (includes SLO misses).
    pub throughput_rps: f64,
    /// SLO-met completions per second of virtual time — the number the
    /// whole front end is tuned to maximize.
    pub goodput_rps: f64,
    /// Fraction of offered requests shed at admission (all classes).
    pub shed_rate: f64,
    /// Fraction of offered requests that completed within SLO (all
    /// classes).
    pub slo_attainment: f64,
    /// Per-class outcomes, indexed by [`Priority::index`] (High, Low).
    pub classes: [ClassStats; 2],
    /// Duplicate attempts dispatched by hedging timers.
    pub hedges_issued: usize,
    /// Completed requests whose winning attempt raced at least one hedge.
    pub hedge_wins: usize,
    /// Attempts cancelled because a sibling finished first.
    pub cancelled_attempts: usize,
    /// Cancelled attempts that were hedges — the losing duplicates
    /// (subset of [`cancelled_attempts`](Self::cancelled_attempts);
    /// the remainder are primaries a winning hedge displaced).
    pub hedges_cancelled: usize,
    /// Attempts re-dispatched after a fail-stop.
    pub retries: usize,
    /// Completed requests whose winning attempt was a fail-stop retry —
    /// completions the retry policy directly saved.
    pub retry_wins: usize,
    /// Fail-stop faults injected.
    pub failures_injected: usize,
    /// Slowdown faults injected.
    pub slowdowns_injected: usize,
    /// Autoscaler scale-out decisions taken.
    pub scale_outs: usize,
    /// Autoscaler scale-in decisions taken.
    pub scale_ins: usize,
    /// Degrade-tier batches flushed (0 unless degrade batching is on).
    pub degrade_batches: usize,
    /// Mean size of the flushed degrade batches (0 when none flushed).
    pub mean_degrade_batch: f64,
    /// Largest degrade batch flushed.
    pub max_degrade_batch: usize,
    /// Most shards simultaneously active at any point.
    pub peak_active_shards: usize,
    /// Shards active when the run ended.
    pub final_active_shards: usize,
    /// Burn-rate alert edges in virtual-time order (ties: High first).
    /// Empty unless the run configured a
    /// [`BurnConfig`](sparsenn_obs::BurnConfig) — the per-class
    /// monitors observe every terminal outcome (a shed or terminal
    /// failure is an SLO miss).
    pub burn_alerts: Vec<ClassBurnAlert>,
}

impl FrontendSummary {
    /// The stats for `class`.
    pub fn class(&self, class: Priority) -> &ClassStats {
        &self.classes[class.index()]
    }

    /// Exports the summary into a [`MetricsRegistry`] under `frontend.*`
    /// names: run-level gauges, control-plane counters, and per-class
    /// outcome counters and latency distributions.
    ///
    /// [`MetricsRegistry`]: sparsenn_obs::MetricsRegistry
    pub fn export_metrics(&self, registry: &mut sparsenn_obs::MetricsRegistry) {
        registry.inc("frontend.requests", self.requests as u64);
        registry.set_gauge("frontend.makespan_us", self.makespan_us);
        registry.set_gauge("frontend.throughput_rps", self.throughput_rps);
        registry.set_gauge("frontend.goodput_rps", self.goodput_rps);
        registry.set_gauge("frontend.shed_rate", self.shed_rate);
        registry.set_gauge("frontend.slo_attainment", self.slo_attainment);
        let counters = [
            ("hedges_issued", self.hedges_issued),
            ("hedge_wins", self.hedge_wins),
            ("cancelled_attempts", self.cancelled_attempts),
            ("hedges_cancelled", self.hedges_cancelled),
            ("retries", self.retries),
            ("retry_wins", self.retry_wins),
            ("failures_injected", self.failures_injected),
            ("slowdowns_injected", self.slowdowns_injected),
            ("scale_outs", self.scale_outs),
            ("scale_ins", self.scale_ins),
            ("degrade_batches", self.degrade_batches),
            ("peak_active_shards", self.peak_active_shards),
            ("final_active_shards", self.final_active_shards),
        ];
        for (name, value) in counters {
            registry.inc(&format!("frontend.{name}"), value as u64);
        }
        for (name, class) in [("high", &self.classes[0]), ("low", &self.classes[1])] {
            let p = format!("frontend.class.{name}");
            registry.inc(&format!("{p}.offered"), class.offered as u64);
            registry.inc(&format!("{p}.admitted"), class.admitted as u64);
            registry.inc(&format!("{p}.degraded"), class.degraded as u64);
            registry.inc(&format!("{p}.shed"), class.shed as u64);
            registry.inc(&format!("{p}.completed"), class.completed as u64);
            registry.inc(&format!("{p}.failed"), class.failed as u64);
            registry.inc(&format!("{p}.slo_met"), class.slo_met as u64);
            registry.record_latency(&format!("{p}.latency"), &class.latency);
        }
        let fired = |class: Priority| {
            self.burn_alerts
                .iter()
                .filter(|a| a.class == class && a.alert.kind == AlertKind::Fire)
                .count() as u64
        };
        registry.inc("frontend.burn.alerts", self.burn_alerts.len() as u64);
        registry.inc("frontend.class.high.burn_fired", fired(Priority::High));
        registry.inc("frontend.class.low.burn_fired", fired(Priority::Low));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_metric_decomposes_latency() {
        let r = RequestMetric {
            id: 0,
            shard: 1,
            arrival_us: 10.0,
            start_us: 14.0,
            completion_us: 19.0,
        };
        assert_eq!(r.queue_us(), 4.0);
        assert_eq!(r.service_us(), 5.0);
        assert_eq!(r.latency_us(), 9.0);
        assert!((r.queue_us() + r.service_us() - r.latency_us()).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = LatencyStats::of(&values);
        assert_eq!(s.p50_us, 50.0);
        assert_eq!(s.p95_us, 95.0);
        assert_eq!(s.p99_us, 99.0);
        assert_eq!(s.max_us, 100.0);
        assert!((s.mean_us - 50.5).abs() < 1e-12);
        // Small populations: p99 of 2 samples is the max.
        let s = LatencyStats::of(&[3.0, 1.0]);
        assert_eq!(s.p50_us, 1.0);
        assert_eq!(s.p99_us, 3.0);
    }

    #[test]
    fn empty_population_is_all_zero() {
        assert_eq!(LatencyStats::of(&[]), LatencyStats::default());
    }

    #[test]
    fn class_rates_guard_division_by_zero() {
        let empty = ClassStats::default();
        assert_eq!(empty.slo_attainment(), 0.0);
        assert_eq!(empty.shed_rate(), 0.0);
        let some = ClassStats {
            offered: 10,
            shed: 2,
            slo_met: 6,
            ..ClassStats::default()
        };
        assert!((some.slo_attainment() - 0.6).abs() < 1e-12);
        assert!((some.shed_rate() - 0.2).abs() < 1e-12);
    }
}

//! The capacity model: one seeded Poisson stream replayed through the
//! three virtual-time simulators over a 4-shard fleet whose service
//! tables are the cycle-accurate machine's *modelled* times. Everything
//! here is deterministic, so every replay of a run must equal the first.

use crate::trace::Tracer;
use sparsenn::engine::{
    BatchPolicy, BoundedQueues, CycleAccurateBackend, InferenceBackend, LeastQueued,
};
use sparsenn::frontend::{
    simulate_frontend, AdmitAll, FaultPlan, FrontendConfig, FrontendSummary, HedgeConfig, SloPolicy,
};
use sparsenn::model::fixedpoint::UvMode;
use sparsenn::serve::{
    fleet_capacity_rps, simulate, simulate_batched, BatchShardSpec, BatchedSummary, MetricsMode,
    ServeSummary, ShardSpec, Workload,
};
use sparsenn::{SparseNnError, TrainedSystem};
use std::time::Instant;

const SHARDS: usize = 4;
/// Largest batch in the batched fleet's service table.
const MAX_BATCH: usize = 4;
/// Offered load as a share of the fleet's modelled capacity.
const LOAD: f64 = 0.7;

/// Per-sample modelled service times (UV on) of the first `n` test
/// images, from the pooled cycle-accurate session, and the batched
/// machine's modelled time for batches of 1..=`MAX_BATCH`.
pub fn tables(sys: &TrainedSystem, n: usize) -> Result<(Vec<f64>, Vec<f64>), SparseNnError> {
    let mut service = Vec::with_capacity(n);
    sys.session()
        .with_workers(crate::common::clients())
        .stream_batch(n, UvMode::On, |_, r| service.push(r.time_us()))?;
    let backend = CycleAccurateBackend::new(sys.machine().clone());
    let fixed = sys.fixed();
    let test = &sys.split().test;
    let inputs: Vec<_> = (0..MAX_BATCH.min(test.len()))
        .map(|i| fixed.quantize_input(test.image(i)))
        .collect();
    let mut batch = Vec::with_capacity(inputs.len());
    for b in 1..=inputs.len() {
        batch.push(
            backend
                .run_batch(fixed, &inputs[..b], UvMode::On)?
                .batch_time_us,
        );
    }
    Ok((service, batch))
}

pub struct Capacity {
    fleet: Vec<ShardSpec>,
    batch_fleet: Vec<BatchShardSpec>,
    policy: BatchPolicy,
    workload: Workload,
    default_cfg: FrontendConfig,
    faulted_cfg: FrontendConfig,
    gate: BoundedQueues,
    pub requests: usize,
}

/// Everything one replay produced.
#[derive(Clone, Debug, PartialEq)]
pub struct Replays {
    pub serve: ServeSummary,
    pub batched: BatchedSummary,
    pub default: FrontendSummary,
    pub faulted: FrontendSummary,
}

/// Host seconds each simulator took in one replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayTimes {
    pub serve: f64,
    pub batched: f64,
    pub default: f64,
    pub faulted: f64,
}

/// Runs `f` inside span `name`, adding its host seconds to `secs`.
pub fn timed<T>(
    t: &mut Tracer,
    name: &'static str,
    req: u64,
    secs: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    t.span(name, req, |_| {
        let start = Instant::now();
        let out = f();
        *secs += start.elapsed().as_secs_f64();
        out
    })
}

impl Capacity {
    pub fn new(service_us: Vec<f64>, batch_us: Vec<f64>, requests: usize, seed: u64) -> Self {
        let fleet: Vec<ShardSpec> = (0..SHARDS)
            .map(|i| ShardSpec::with_table(format!("machine{i}"), service_us.clone()))
            .collect();
        let mean = fleet[0].mean_service_us();
        let rate = LOAD * fleet_capacity_rps(&fleet);
        let workload = Workload::Poisson {
            rate_rps: rate,
            requests,
            seed,
        };
        let horizon_us = requests as f64 / rate * 1e6;
        let slo = SloPolicy {
            high_us: 20.0 * mean,
            low_us: 80.0 * mean,
        };
        let default_cfg = FrontendConfig::new(workload, slo);
        let faulted_cfg = FrontendConfig::new(workload, slo)
            .low_fraction(0.3)
            .hedge(HedgeConfig::hedged(4.0 * mean))
            .faults(FaultPlan::random(SHARDS, horizon_us, 1, 1, seed));
        Self {
            batch_fleet: (0..SHARDS)
                .map(|i| BatchShardSpec::with_table(format!("machine{i}"), batch_us.clone()))
                .collect(),
            fleet,
            policy: BatchPolicy::SizeOrDeadline {
                max: MAX_BATCH,
                deadline_us: 2.0 * mean,
            },
            workload,
            default_cfg,
            faulted_cfg,
            gate: BoundedQueues::new(16, 8).degrade_low_beyond(4),
            requests,
        }
    }

    /// One replay through `serve::simulate`, `serve::simulate_batched`
    /// and `simulate_frontend` (default config, then bounded admission
    /// with hedging and faults).
    pub fn replay(
        &self,
        t: &mut Tracer,
        req: u64,
        times: &mut ReplayTimes,
    ) -> Result<Replays, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let serve = timed(t, "serve.simulate", req, &mut times.serve, || {
            simulate(&self.fleet, &LeastQueued, &self.workload)
        })
        .map_err(|e| err(&e))?;
        let batched = timed(t, "serve.simulate_batched", req, &mut times.batched, || {
            simulate_batched(
                &self.batch_fleet,
                &LeastQueued,
                self.policy,
                &self.workload,
                MetricsMode::Streaming,
            )
        })
        .map_err(|e| err(&e))?;
        let default = timed(t, "frontend.default", req, &mut times.default, || {
            simulate_frontend(&self.fleet, &LeastQueued, &AdmitAll, &self.default_cfg)
        })
        .map_err(|e| err(&e))?;
        let faulted = timed(t, "frontend.faulted", req, &mut times.faulted, || {
            simulate_frontend(&self.fleet, &LeastQueued, &self.gate, &self.faulted_cfg)
        })
        .map_err(|e| err(&e))?;
        Ok(Replays {
            serve,
            batched,
            default,
            faulted,
        })
    }
}

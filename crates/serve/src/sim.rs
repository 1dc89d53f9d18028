//! The discrete-event fleet simulator: one event core for every
//! unbatched serving question.
//!
//! One global virtual timeline, N shards, a pluggable
//! [`Scheduler`](sparsenn_core::engine::Scheduler) — the same trait the
//! live [`Fleet`](sparsenn_core::engine::Fleet) dispatches with. Each
//! arriving request is classified ([`Priority`]), gated
//! ([`AdmissionGate`] — admit, degrade, or shed *before* touching a
//! shard), then dispatched as a service **attempt**. The scheduler sees a
//! [`ShardView`] snapshot per shard and places the attempt: on an idle
//! shard (service starts immediately), behind a busy shard (it joins that
//! shard's FIFO queue), or — returning `None` — in the central queue, to
//! be claimed by the first shard that frees up (exactly the live fleet's
//! blocked-caller semantics). A shard that frees up pulls its own queue
//! first, then the central queue.
//!
//! Attempts — not requests — are what shards run: a hedging timer may
//! race a duplicate attempt against a straggler (first finisher wins, the
//! loser is cancelled and its shard freed), and a fail-stop may kill an
//! attempt mid-service (retried on another shard when the
//! [`HedgeConfig`] allows). An optional [`Autoscaler`] grows and shrinks
//! the active fleet at epoch boundaries, paying a warm-up delay before a
//! new shard takes traffic.
//!
//! [`simulate`] and [`simulate_with`] run this core with every policy a
//! no-op — [`AdmitAll`], one priority class, no faults, hedging or
//! autoscaling — and fold a [`ServeSummary`];
//! [`simulate_frontend`](crate::frontend::simulate_frontend) runs it with
//! a full [`FrontendConfig`] and folds a [`FrontendSummary`].
//!
//! Ties on the timeline break by push order ([`EventQueue`]), the class
//! stream and fault plan are seeded, and no hash-ordered container is
//! iterated — a run is a pure function of its arguments, so any two
//! policy combinations can be compared knowing every microsecond of
//! difference is policy.

use crate::autoscale::{AutoscaleConfig, Autoscaler, ScaleDecision};
use crate::events::{EventQueue, FleetEvent};
use crate::faults::{Fault, FaultPlan};
use crate::hedge::HedgeConfig;
use crate::metrics::{
    ClassBurnAlert, ClassStats, FrontendSummary, LatencyStats, QueueStats, RequestMetric,
    ServeSummary, ShardUsage, StreamingLatency,
};
use crate::slo::SloPolicy;
use crate::workload::{OpenArrivals, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsenn_core::engine::{
    AdmissionDecision, AdmissionGate, AdmitAll, Priority, Scheduler, ShardView,
};
use sparsenn_obs::{
    track, AttrKey, BurnConfig, BurnRateMonitor, NullSink, Span, SpanKind, TraceSink,
};
use std::collections::VecDeque;

/// How a simulation accounts for its requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsMode {
    /// Constant-memory accounting (the [`simulate`] default): exact
    /// counts, means, maxima and queue-depth integrals, P²-estimated
    /// latency percentiles. `per_request` and `queue.trajectory` stay
    /// empty, so a sweep over millions of virtual requests holds memory
    /// at O(shards + in-flight).
    #[default]
    Streaming,
    /// Materialize every [`RequestMetric`] and the full queue-depth
    /// trajectory; all latency statistics are exact nearest-rank. Memory
    /// is O(total requests) — for tests and forensics.
    Exact,
}

/// One simulated shard: a name and its modelled per-request service times.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSpec {
    /// Shard name (e.g. the backend's `name()`).
    pub name: String,
    /// Modelled service times, microseconds. Request `i` costs
    /// `service_us[i % len]` on this shard — feed each backend's
    /// per-sample [`time_us`](sparsenn_core::engine::RunRecord::time_us)
    /// table for realistic variance, or a single mean.
    pub service_us: Vec<f64>,
}

impl ShardSpec {
    /// A shard with one constant service time.
    pub fn uniform(name: impl Into<String>, service_us: f64) -> Self {
        Self {
            name: name.into(),
            service_us: vec![service_us],
        }
    }

    /// A shard serving request `i` in `service_us[i % len]` µs.
    pub fn with_table(name: impl Into<String>, service_us: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            service_us,
        }
    }

    /// A shard whose service-time table is **measured wall-clock**, not a
    /// model: each input is run `reps` times through the backend (after
    /// one untimed warm-up pass, so one-time costs like the kernel
    /// backend's weight repack don't pollute the table) and the minimum
    /// per-input latency becomes that request's service time. Feed a
    /// [`KernelBackend`](sparsenn_core::engine::KernelBackend) to drive
    /// the virtual-time simulator with real CPU numbers.
    ///
    /// # Errors
    ///
    /// Whatever the backend's `run` returns for the first failing input
    /// ([`SparseNnError`](sparsenn_core::SparseNnError)).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn from_measured(
        name: impl Into<String>,
        backend: &dyn sparsenn_core::engine::InferenceBackend,
        net: &sparsenn_core::model::fixedpoint::FixedNetwork,
        inputs: &[Vec<sparsenn_core::numeric::Q6_10>],
        mode: sparsenn_core::model::fixedpoint::UvMode,
        reps: usize,
    ) -> Result<Self, sparsenn_core::SparseNnError> {
        assert!(!inputs.is_empty(), "need at least one input to measure");
        let reps = reps.max(1);
        backend.run(net, &inputs[0], mode)?; // warm-up (pack, caches)
        let mut service_us = Vec::with_capacity(inputs.len());
        for input in inputs {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t = std::time::Instant::now();
                backend.run(net, input, mode)?;
                best = best.min(t.elapsed().as_secs_f64() * 1e6);
            }
            service_us.push(best);
        }
        Ok(Self::with_table(name, service_us))
    }

    fn service_for(&self, request: usize) -> f64 {
        self.service_us[request % self.service_us.len()]
    }

    /// Mean modelled service time, µs.
    pub fn mean_service_us(&self) -> f64 {
        self.service_us.iter().sum::<f64>() / self.service_us.len() as f64
    }
}

/// Offered load that would keep every shard exactly busy: the fleet's
/// modelled capacity, requests per second.
pub fn fleet_capacity_rps(shards: &[ShardSpec]) -> f64 {
    shards
        .iter()
        .map(|s| {
            let mean = s.mean_service_us();
            if mean > 0.0 {
                1e6 / mean
            } else {
                0.0
            }
        })
        .sum()
}

/// Why a simulation could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The fleet has no shards.
    NoShards,
    /// A shard's service table is empty or contains a non-finite or
    /// negative time.
    BadServiceTable {
        /// Offending shard index.
        shard: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// The workload parameters are invalid.
    InvalidWorkload(String),
    /// The batching policy's parameters are invalid
    /// ([`BatchPolicy::validate`](sparsenn_core::engine::BatchPolicy::validate)).
    InvalidPolicy(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoShards => f.write_str("a simulated fleet needs at least one shard"),
            ServeError::BadServiceTable { shard, reason } => {
                write!(f, "shard {shard} service table: {reason}")
            }
            ServeError::InvalidWorkload(reason) => write!(f, "invalid workload: {reason}"),
            ServeError::InvalidPolicy(reason) => write!(f, "invalid batch policy: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Checks the fleet is non-empty and every service table is usable.
fn validate_fleet(shards: &[ShardSpec]) -> Result<(), ServeError> {
    if shards.is_empty() {
        return Err(ServeError::NoShards);
    }
    for (i, s) in shards.iter().enumerate() {
        if s.service_us.is_empty() {
            return Err(ServeError::BadServiceTable {
                shard: i,
                reason: "empty".into(),
            });
        }
        if let Some(bad) = s.service_us.iter().find(|v| !v.is_finite() || **v < 0.0) {
            return Err(ServeError::BadServiceTable {
                shard: i,
                reason: format!("service time {bad} is not finite and non-negative"),
            });
        }
    }
    Ok(())
}

/// Runs one simulation to completion in the default
/// [`MetricsMode::Streaming`] — constant memory however many requests
/// the workload issues.
///
/// Deterministic: the summary is a pure function of the arguments, and
/// the *timeline* (makespan, throughput, per-shard usage, queue depths)
/// is bit-identical across both metrics modes — the mode changes only
/// how latencies are summarized, never what the fleet does.
///
/// # Errors
///
/// [`ServeError`] when the fleet is empty, a service table is unusable,
/// or the workload parameters are invalid.
pub fn simulate(
    shards: &[ShardSpec],
    scheduler: &dyn Scheduler,
    workload: &Workload,
) -> Result<ServeSummary, ServeError> {
    simulate_with(shards, scheduler, workload, MetricsMode::Streaming)
}

/// [`simulate`] with an explicit [`MetricsMode`]. Use
/// [`MetricsMode::Exact`] when a test or post-mortem needs the
/// per-request records or the queue-depth trajectory.
///
/// This is the front-end core with every policy a no-op: [`AdmitAll`]
/// and the default [`FrontendConfig`] (one priority class, no faults,
/// hedging or autoscaling).
///
/// # Errors
///
/// [`ServeError`] when the fleet is empty, a service table is unusable,
/// or the workload parameters are invalid.
pub fn simulate_with(
    shards: &[ShardSpec],
    scheduler: &dyn Scheduler,
    workload: &Workload,
    mode: MetricsMode,
) -> Result<ServeSummary, ServeError> {
    validate_fleet(shards)?;
    workload.validate().map_err(ServeError::InvalidWorkload)?;
    // No deadline: nothing in a ServeSummary reads SLO attainment.
    let slo = SloPolicy {
        high_us: f64::MAX,
        low_us: f64::MAX,
    };
    let cfg = FrontendConfig::new(*workload, slo);
    Ok(run(shards, scheduler, &AdmitAll, &cfg, &NullSink, mode).into_serve_summary())
}

/// Everything one front-end run is configured by, minus the two policy
/// trait objects ([`Scheduler`], [`AdmissionGate`]) passed alongside.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontendConfig {
    /// Traffic shape (the identical seeded arrival stream [`simulate`]
    /// replays).
    pub workload: Workload,
    /// Probability an arriving request is [`Priority::Low`] (0..=1).
    pub low_fraction: f64,
    /// Seed of the class-assignment stream.
    pub class_seed: u64,
    /// Service-time multiplier for degraded requests (0 < f ≤ 1): the
    /// cheaper answer a [`Degrade`](AdmissionDecision::Degrade) buys.
    pub degrade_factor: f64,
    /// Per-class latency SLOs.
    pub slo: SloPolicy,
    /// Hedging and retry policy.
    pub hedge: HedgeConfig,
    /// Injected faults.
    pub faults: FaultPlan,
    /// Autoscaling policy (`None`: the active fleet is fixed).
    pub autoscale: Option<AutoscaleConfig>,
    /// Shards active at t = 0. `0` means: the autoscaler's `min_shards`
    /// when autoscaling, else the whole fleet. Inactive shards are the
    /// scale-out reserve.
    pub initial_active: usize,
    /// Degrade-tier batching (`None`: degraded requests dispatch
    /// immediately at [`degrade_factor`](Self::degrade_factor) cost).
    /// When set, degraded traffic is *held* in a central buffer and
    /// released as a batch — larger and slower for the degraded request,
    /// cheaper per sample for the fleet. See [`DegradeBatching`].
    pub degrade_batching: Option<DegradeBatching>,
    /// SLO burn-rate monitoring (`None`: off). When set, each priority
    /// class runs its own multi-window [`BurnRateMonitor`] over
    /// deadline attainment — every terminal outcome feeds it (sheds and
    /// terminal failures are misses) — and the run's alert edges land
    /// in [`FrontendSummary::burn_alerts`].
    pub burn: Option<BurnConfig>,
}

/// Routes the admission gate's degrade tier onto the batch-native
/// substrate: degraded requests buffer centrally and flush as one batch
/// when `max` have gathered or the oldest has waited `deadline_us`
/// (exactly a [`BatchPolicy::SizeOrDeadline`] hold window — the same
/// fill-or-deadline rule, applied to the degrade tier). Each member of a
/// flushed batch of `b` is served at `factor(b) = (1 + marginal_cost ×
/// (b − 1)) / b` of its full service time — the amortized per-sample
/// cost of a batch whose first sample pays full price and every further
/// sample `marginal_cost` of it (the batched machine's W-read
/// amortization shape).
///
/// [`BatchPolicy::SizeOrDeadline`]: sparsenn_core::engine::BatchPolicy::SizeOrDeadline
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradeBatching {
    /// Buffer size that triggers a flush (≥ 1).
    pub max: usize,
    /// Oldest-request wait, µs, that flushes a partial buffer (finite,
    /// ≥ 0).
    pub deadline_us: f64,
    /// Marginal per-sample cost of growing a batch, as a fraction of a
    /// full service (0 < m ≤ 1; the batched machine measures ~0.2–0.5
    /// depending on sparsity overlap).
    pub marginal_cost: f64,
}

impl DegradeBatching {
    /// A hold window of up to `max` requests or `deadline_us`, at the
    /// given marginal batch cost.
    pub fn new(max: usize, deadline_us: f64, marginal_cost: f64) -> Self {
        Self {
            max,
            deadline_us,
            marginal_cost,
        }
    }

    /// Amortized per-sample service factor of a batch of `b` (≤ 1,
    /// decreasing in `b`; exactly 1 for a batch of one).
    pub fn factor(&self, b: usize) -> f64 {
        let b = b.max(1) as f64;
        (1.0 + self.marginal_cost * (b - 1.0)) / b
    }

    /// Checks the parameters, returning a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.max == 0 {
            return Err("degrade batch size must be at least 1".into());
        }
        if !self.deadline_us.is_finite() || self.deadline_us < 0.0 {
            return Err(format!(
                "degrade batch deadline must be finite and non-negative, got {}",
                self.deadline_us
            ));
        }
        if !(self.marginal_cost.is_finite()
            && self.marginal_cost > 0.0
            && self.marginal_cost <= 1.0)
        {
            return Err(format!(
                "marginal batch cost must be in (0, 1], got {}",
                self.marginal_cost
            ));
        }
        Ok(())
    }
}

impl FrontendConfig {
    /// A high-priority-only, fault-free, unhedged, fixed-fleet baseline.
    pub fn new(workload: Workload, slo: SloPolicy) -> Self {
        Self {
            workload,
            low_fraction: 0.0,
            class_seed: 0xC1A55,
            degrade_factor: 0.5,
            slo,
            hedge: HedgeConfig::disabled(),
            faults: FaultPlan::none(),
            autoscale: None,
            initial_active: 0,
            degrade_batching: None,
            burn: None,
        }
    }

    /// Mixes in low-priority traffic at `fraction` of arrivals.
    pub fn low_fraction(mut self, fraction: f64) -> Self {
        self.low_fraction = fraction;
        self
    }

    /// Sets the hedging/retry policy.
    pub fn hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = hedge;
        self
    }

    /// Sets the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables autoscaling.
    pub fn autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Sets the number of shards active at t = 0.
    pub fn initial_active(mut self, shards: usize) -> Self {
        self.initial_active = shards;
        self
    }

    /// Routes the degrade tier through cross-request batching instead of
    /// the flat [`degrade_factor`](Self::degrade_factor) discount.
    pub fn degrade_batching(mut self, batching: DegradeBatching) -> Self {
        self.degrade_batching = Some(batching);
        self
    }

    /// Enables per-class SLO burn-rate monitoring.
    pub fn burn_monitor(mut self, burn: BurnConfig) -> Self {
        self.burn = Some(burn);
        self
    }

    /// Checks every parameter against a fleet of `shards` shards.
    fn validate(&self, shards: usize) -> Result<(), String> {
        self.workload.validate()?;
        self.hedge.validate()?;
        self.faults.validate(shards)?;
        self.slo.validate()?;
        if !(0.0..=1.0).contains(&self.low_fraction) {
            return Err(format!(
                "low-priority fraction must be in [0, 1], got {}",
                self.low_fraction
            ));
        }
        if !(self.degrade_factor.is_finite()
            && self.degrade_factor > 0.0
            && self.degrade_factor <= 1.0)
        {
            return Err(format!(
                "degrade factor must be in (0, 1], got {}",
                self.degrade_factor
            ));
        }
        if let Some(b) = &self.degrade_batching {
            b.validate()?;
        }
        if let Some(b) = &self.burn {
            b.validate()?;
        }
        if let Some(a) = &self.autoscale {
            a.validate()?;
            if a.max_shards > shards {
                return Err(format!(
                    "autoscaler max_shards {} exceeds the {shards}-shard fleet",
                    a.max_shards
                ));
            }
            let initial = self.initial_active_of(shards);
            if !(a.min_shards..=a.max_shards).contains(&initial) {
                return Err(format!(
                    "initial_active {initial} outside the autoscaler's [{}, {}] band",
                    a.min_shards, a.max_shards
                ));
            }
        }
        Ok(())
    }

    /// Shards active at t = 0 in a fleet of `shards`.
    fn initial_active_of(&self, shards: usize) -> usize {
        match (&self.autoscale, self.initial_active) {
            (_, n) if n > 0 => n.min(shards),
            (Some(a), _) => a.min_shards,
            (None, _) => shards,
        }
    }
}

/// Why a front-end simulation could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrontendError {
    /// The fleet has no shards.
    NoShards,
    /// A shard's service table is empty or contains a non-finite or
    /// negative time.
    BadServiceTable {
        /// Offending shard index.
        shard: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// A configuration parameter is invalid.
    BadConfig(String),
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::NoShards => f.write_str("a front-end fleet needs at least one shard"),
            FrontendError::BadServiceTable { shard, reason } => {
                write!(f, "shard {shard} service table: {reason}")
            }
            FrontendError::BadConfig(reason) => write!(f, "invalid front-end config: {reason}"),
        }
    }
}

impl std::error::Error for FrontendError {}

/// Runs one front-end simulation to completion.
///
/// Deterministic: the summary is a pure function of the arguments.
///
/// # Errors
///
/// [`FrontendError`] when the fleet is empty, a service table is
/// unusable, or any configuration parameter (workload, hedge policy,
/// fault plan, autoscaler, class mix) is invalid.
pub fn simulate_frontend(
    fleet: &[ShardSpec],
    scheduler: &dyn Scheduler,
    admission: &dyn AdmissionGate,
    cfg: &FrontendConfig,
) -> Result<FrontendSummary, FrontendError> {
    simulate_frontend_traced(fleet, scheduler, admission, cfg, &NullSink)
}

/// [`simulate_frontend`] with a trace sink: every request's life —
/// admission verdict, degrade-batch hold, per-attempt queue wait and
/// shard service, hedge/cancel/retry control events — is recorded as
/// [`Span`]s on the virtual clock, keyed by request id. With a disabled
/// sink (e.g. [`NullSink`]) no span is ever constructed and the run is
/// bit-identical to the untraced one; the summary is identical either
/// way.
///
/// # Errors
///
/// Exactly as [`simulate_frontend`].
pub fn simulate_frontend_traced(
    fleet: &[ShardSpec],
    scheduler: &dyn Scheduler,
    admission: &dyn AdmissionGate,
    cfg: &FrontendConfig,
    sink: &dyn TraceSink,
) -> Result<FrontendSummary, FrontendError> {
    validate_fleet(fleet).map_err(|e| match e {
        ServeError::BadServiceTable { shard, reason } => {
            FrontendError::BadServiceTable { shard, reason }
        }
        _ => FrontendError::NoShards,
    })?;
    cfg.validate(fleet.len())
        .map_err(FrontendError::BadConfig)?;
    let engine = run(
        fleet,
        scheduler,
        admission,
        cfg,
        sink,
        MetricsMode::Streaming,
    );
    Ok(engine.into_frontend_summary())
}

/// The trace-friendly class label.
fn class_name(class: Priority) -> &'static str {
    match class {
        Priority::High => "high",
        Priority::Low => "low",
    }
}

/// Why an attempt was dispatched: the admission-time primary, a hedge
/// duplicate racing a straggler, or a re-dispatch after a fail-stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AttemptOrigin {
    Primary,
    Hedge,
    Retry,
}

impl AttemptOrigin {
    fn name(self) -> &'static str {
        match self {
            AttemptOrigin::Primary => "primary",
            AttemptOrigin::Hedge => "hedge",
            AttemptOrigin::Retry => "retry",
        }
    }
}

/// One service attempt of one request. Requests may spawn several
/// (hedges, retries); the first attempt to finish resolves the request.
#[derive(Clone, Copy, Debug)]
struct Attempt {
    id: u64,
    request: usize,
    origin: AttemptOrigin,
    /// Virtual time the attempt was dispatched — the start of its queue
    /// wait (its `Queued` span runs from here to service start).
    issued_us: f64,
}

struct ShardState {
    /// Part of the serving set (false: scale-out reserve or scaled in).
    active: bool,
    /// Activated but still paying the warm-up cost.
    warming: bool,
    /// Fail-stopped.
    failed: bool,
    /// Service-time multiplier while a straggler window is open.
    slow_factor: f64,
    /// Attempts placed behind this shard, each with the service time it
    /// added to `queued_work_us`.
    queue: VecDeque<(Attempt, f64)>,
    /// Modelled service of everything in `queue`. Leaving the queue
    /// subtracts exactly what joining it added, so the backlog a
    /// scheduler sees never drifts with slowdown windows.
    queued_work_us: f64,
    current: Option<(Attempt, f64)>,
    busy_until: f64,
    served: usize,
    busy_us: f64,
}

impl ShardState {
    fn new(active: bool) -> Self {
        Self {
            active,
            warming: false,
            failed: false,
            slow_factor: 1.0,
            queue: VecDeque::new(),
            queued_work_us: 0.0,
            current: None,
            busy_until: 0.0,
            served: 0,
            busy_us: 0.0,
        }
    }

    fn healthy(&self) -> bool {
        self.active && !self.warming && !self.failed
    }

    fn idle(&self) -> bool {
        self.current.is_none() && self.queue.is_empty()
    }

    fn depth(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }

    fn backlog_us(&self, now_us: f64) -> f64 {
        let in_service = match self.current {
            Some(_) => (self.busy_until - now_us).max(0.0),
            None => 0.0,
        };
        in_service + self.queued_work_us
    }
}

struct RequestState {
    class: Priority,
    arrival_us: f64,
    degraded: bool,
    /// Service-time multiplier this request earned at admission: 1 for a
    /// full-fidelity answer, [`FrontendConfig::degrade_factor`] for a
    /// plain degrade, the amortized [`DegradeBatching::factor`] of its
    /// batch for a batched degrade (set at flush time).
    service_factor: f64,
    /// Held in the central degrade buffer, not yet dispatched.
    buffered: bool,
    /// Attempts currently in a queue or in service.
    live_attempts: u32,
    hedges_used: usize,
    hedged: bool,
    done: bool,
}

/// The running simulation. All mutation funnels through these methods so
/// the attempt/queue/waiting invariants live in one place.
struct Engine<'a> {
    specs: &'a [ShardSpec],
    scheduler: &'a dyn Scheduler,
    admission: &'a dyn AdmissionGate,
    cfg: &'a FrontendConfig,
    /// Trace destination; span construction is skipped entirely when
    /// the sink reports itself disabled (`tracing` caches that answer).
    sink: &'a dyn TraceSink,
    tracing: bool,
    mode: MetricsMode,
    events: EventQueue<FleetEvent>,
    arrivals: Option<OpenArrivals>,
    shards: Vec<ShardState>,
    /// Requests from the oldest unresolved one on: request `id` lives at
    /// `requests[id - first_request]`. Resolved requests leave from the
    /// front, so memory stays O(in-flight), not O(total requests).
    requests: VecDeque<RequestState>,
    first_request: usize,
    next_request: usize,
    /// The shard snapshot the admission gate and the scheduler read,
    /// rebuilt in place for every placement.
    views: Vec<ShardView>,
    central: VecDeque<Attempt>,
    /// Degraded requests held for the next batch flush (request ids, in
    /// arrival order — index 0 is the oldest, whose wait arms deadlines).
    degrade_buffer: Vec<usize>,
    /// Queued (not in-service) attempts per priority class — what the
    /// admission gate sees as `waiting_same_class`.
    waiting: [usize; 2],
    next_attempt: u64,
    resolved: usize,
    total_requests: usize,
    /// Closed-loop requests still to issue (completion/shed/fail driven).
    to_issue: usize,
    think_us: f64,
    class_rng: StdRng,
    scaler: Option<Autoscaler>,
    makespan_us: f64,
    // Accumulators.
    classes: [ClassStats; 2],
    latency: [StreamingLatency; 2],
    hedges_issued: usize,
    hedge_wins: usize,
    cancelled_attempts: usize,
    hedges_cancelled: usize,
    retries: usize,
    retry_wins: usize,
    scale_outs: usize,
    scale_ins: usize,
    peak_active: usize,
    last_epoch_busy_us: f64,
    degrade_batches: usize,
    degrade_batch_samples: usize,
    max_degrade_batch: usize,
    /// Per-class burn-rate monitors (indexed like `classes`), when
    /// configured. Fed at every terminal outcome.
    burn: [Option<BurnRateMonitor>; 2],
    // Queue and service time of the winning attempts, and the waiting
    // population over time (its integral and maximum; the trajectory and
    // the per-request records only in `MetricsMode::Exact`).
    queue_us_sum: f64,
    service_us_sum: f64,
    depth_area: f64,
    last_depth_t: f64,
    last_depth: usize,
    max_depth: usize,
    trajectory: Vec<(f64, usize)>,
    per_request: Vec<RequestMetric>,
}

/// Runs the core to completion over a validated fleet and configuration.
fn run<'a>(
    specs: &'a [ShardSpec],
    scheduler: &'a dyn Scheduler,
    admission: &'a dyn AdmissionGate,
    cfg: &'a FrontendConfig,
    sink: &'a dyn TraceSink,
    mode: MetricsMode,
) -> Engine<'a> {
    let mut engine = Engine::new(specs, scheduler, admission, cfg, sink, mode);
    while let Some((now, event)) = engine.events.pop() {
        // The run is over once every request resolves; events still on
        // the timeline (a recovery, a shard becoming warm, a stale
        // hedge timer) must not keep mutating the measured state.
        if engine.resolved >= engine.total_requests {
            break;
        }
        engine.on_event(now, event);
        engine.track_depth(now);
    }
    debug_assert_eq!(
        engine.resolved, engine.total_requests,
        "every request resolves"
    );
    engine
}

impl<'a> Engine<'a> {
    fn new(
        specs: &'a [ShardSpec],
        scheduler: &'a dyn Scheduler,
        admission: &'a dyn AdmissionGate,
        cfg: &'a FrontendConfig,
        sink: &'a dyn TraceSink,
        mode: MetricsMode,
    ) -> Self {
        let total_requests = cfg.workload.requests();
        let mut events: EventQueue<FleetEvent> = EventQueue::new();
        let mut arrivals = cfg.workload.open_arrivals();
        let (think_us, to_issue) = match cfg.workload {
            Workload::ClosedLoop {
                concurrency,
                requests,
                think_us,
            } => {
                // Every client issues its first request at t = 0; the
                // rest are resolution-driven.
                for _ in 0..concurrency.min(requests) {
                    events.push(0.0, FleetEvent::Arrival);
                }
                (think_us, requests - concurrency.min(requests))
            }
            _ => {
                // Open arrivals are pulled lazily, one ahead, so the
                // event queue stays O(in-flight).
                let stream = arrivals.as_mut().expect("open workload has a stream");
                if let Some(t) = stream.next() {
                    events.push(t, FleetEvent::Arrival);
                }
                (0.0, 0)
            }
        };
        // The fault timeline goes on the same queue as the traffic.
        for f in &cfg.faults.faults {
            match *f {
                Fault::FailStop {
                    shard,
                    at_us,
                    down_us,
                } => {
                    events.push(at_us, FleetEvent::Fail { shard });
                    events.push(at_us + down_us, FleetEvent::Recover { shard });
                }
                Fault::Slowdown {
                    shard,
                    at_us,
                    for_us,
                    factor,
                } => {
                    events.push(at_us, FleetEvent::SlowdownStart { shard, factor });
                    events.push(at_us + for_us, FleetEvent::SlowdownEnd { shard });
                }
            }
        }
        if let Some(a) = &cfg.autoscale {
            events.push(a.epoch_us, FleetEvent::ScaleTick);
        }
        let initial_active = cfg.initial_active_of(specs.len());
        let exact = mode == MetricsMode::Exact;
        Self {
            specs,
            scheduler,
            admission,
            cfg,
            sink,
            tracing: sink.enabled(),
            mode,
            events,
            arrivals,
            shards: (0..specs.len())
                .map(|i| ShardState::new(i < initial_active))
                .collect(),
            requests: VecDeque::new(),
            first_request: 0,
            next_request: 0,
            views: Vec::with_capacity(specs.len()),
            central: VecDeque::new(),
            degrade_buffer: Vec::new(),
            waiting: [0, 0],
            next_attempt: 0,
            resolved: 0,
            total_requests,
            to_issue,
            think_us,
            class_rng: StdRng::seed_from_u64(cfg.class_seed),
            scaler: cfg.autoscale.map(Autoscaler::new),
            makespan_us: 0.0,
            classes: [ClassStats::default(), ClassStats::default()],
            latency: [StreamingLatency::new(), StreamingLatency::new()],
            hedges_issued: 0,
            hedge_wins: 0,
            cancelled_attempts: 0,
            hedges_cancelled: 0,
            retries: 0,
            retry_wins: 0,
            scale_outs: 0,
            scale_ins: 0,
            peak_active: initial_active,
            last_epoch_busy_us: 0.0,
            degrade_batches: 0,
            degrade_batch_samples: 0,
            max_degrade_batch: 0,
            burn: [
                cfg.burn.map(BurnRateMonitor::new),
                cfg.burn.map(BurnRateMonitor::new),
            ],
            queue_us_sum: 0.0,
            service_us_sum: 0.0,
            depth_area: 0.0,
            last_depth_t: 0.0,
            last_depth: 0,
            max_depth: 0,
            trajectory: if exact { vec![(0.0, 0)] } else { Vec::new() },
            per_request: if exact {
                Vec::with_capacity(total_requests)
            } else {
                Vec::new()
            },
        }
    }

    fn on_event(&mut self, now: f64, event: FleetEvent) {
        match event {
            FleetEvent::Arrival => {
                if let Some(t) = self.arrivals.as_mut().and_then(OpenArrivals::next) {
                    self.events.push(t, FleetEvent::Arrival);
                }
                self.on_arrival(now);
            }
            FleetEvent::Completion { shard, attempt } => self.on_completion(shard, attempt, now),
            FleetEvent::Fail { shard } => self.on_fail(shard, now),
            FleetEvent::Recover { shard } => {
                self.shards[shard].failed = false;
                self.pull_next(shard, now);
            }
            FleetEvent::SlowdownStart { shard, factor } => {
                self.shards[shard].slow_factor = factor;
            }
            FleetEvent::SlowdownEnd { shard } => {
                self.shards[shard].slow_factor = 1.0;
            }
            FleetEvent::Hedge { request } => self.on_hedge(request, now),
            FleetEvent::BatchFlush => self.on_batch_flush(now),
            FleetEvent::ScaleTick => self.on_scale_tick(now),
            FleetEvent::ShardReady { shard } => {
                if self.shards[shard].warming {
                    self.shards[shard].warming = false;
                    self.peak_active = self.peak_active.max(self.serving_shards());
                    self.pull_next(shard, now);
                }
            }
        }
    }

    /// Folds the waiting population (central and per-shard queues) into
    /// the depth integral after every event.
    fn track_depth(&mut self, now: f64) {
        let depth = self.waiting[0] + self.waiting[1];
        if depth != self.last_depth {
            self.depth_area += self.last_depth as f64 * (now - self.last_depth_t);
            if self.mode == MetricsMode::Exact {
                self.trajectory.push((now, depth));
            }
            self.last_depth_t = now;
            self.last_depth = depth;
            self.max_depth = self.max_depth.max(depth);
        }
    }

    fn serving_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.active && !s.warming)
            .count()
    }

    fn request(&self, id: usize) -> &RequestState {
        &self.requests[id - self.first_request]
    }

    fn request_mut(&mut self, id: usize) -> &mut RequestState {
        &mut self.requests[id - self.first_request]
    }

    /// Whether request `id` has resolved (a resolved request may already
    /// have left the window).
    fn is_done(&self, id: usize) -> bool {
        id < self.first_request || self.request(id).done
    }

    /// A zero-duration control-plane marker (admit/degrade/shed,
    /// hedge/cancel/retry) on the front end's control lane.
    fn emit_marker(&self, kind: SpanKind, request: usize, now: f64) {
        if !self.tracing {
            return;
        }
        self.sink.record(
            Span::new(
                request as u64,
                kind,
                track::FRONTEND,
                track::CONTROL,
                now,
                now,
            )
            .attr(AttrKey::Class, class_name(self.request(request).class)),
        );
    }

    /// The request's end-to-end async span, emitted once at resolution
    /// (completion, terminal failure, or shed).
    fn emit_request_span(&self, request: usize, now: f64, outcome: &'static str) {
        if !self.tracing {
            return;
        }
        let r = self.request(request);
        self.sink.record(
            Span::new(
                request as u64,
                SpanKind::Request,
                track::FRONTEND,
                track::CONTROL,
                r.arrival_us,
                now,
            )
            .attr(AttrKey::Class, class_name(r.class))
            .attr(AttrKey::Outcome, outcome)
            .attr(AttrKey::Degraded, u64::from(r.degraded)),
        );
    }

    /// One attempt's time on a shard, on the fleet track's per-shard
    /// lane, emitted when the attempt leaves the shard (completed,
    /// cancelled by a winning sibling, or killed by a fail-stop).
    fn emit_attempt_span(
        &self,
        shard: usize,
        attempt: Attempt,
        start: f64,
        now: f64,
        outcome: &'static str,
    ) {
        if !self.tracing {
            return;
        }
        self.sink.record(
            Span::new(
                attempt.request as u64,
                SpanKind::Attempt,
                track::FLEET,
                shard as u32 + 1,
                start,
                now,
            )
            .attr(AttrKey::Attempt, attempt.id)
            .attr(AttrKey::Origin, attempt.origin.name())
            .attr(AttrKey::Outcome, outcome)
            .attr(AttrKey::Shard, shard as u64),
        );
    }

    /// Rebuilds the shard snapshot for placing `request` at `now`.
    fn refresh_views(&mut self, now: f64, request: usize) {
        self.views.clear();
        self.views.extend(
            self.shards
                .iter()
                .zip(self.specs)
                .map(|(s, spec)| ShardView {
                    healthy: s.healthy(),
                    idle: s.idle(),
                    depth: s.depth(),
                    backlog_us: s.backlog_us(now),
                    service_us: spec.service_for(request) * s.slow_factor,
                }),
        );
    }

    fn service_us(&self, shard: usize, request: usize) -> f64 {
        self.specs[shard].service_for(request)
            * self.shards[shard].slow_factor
            * self.request(request).service_factor
    }

    fn start_service(&mut self, shard: usize, attempt: Attempt, now: f64) {
        if self.tracing {
            // The attempt's queue wait: dispatch to service start.
            self.sink.record(
                Span::new(
                    attempt.request as u64,
                    SpanKind::Queued,
                    track::FRONTEND,
                    track::CONTROL,
                    attempt.issued_us,
                    now,
                )
                .attr(AttrKey::Attempt, attempt.id)
                .attr(AttrKey::Origin, attempt.origin.name())
                .attr(AttrKey::Shard, shard as u64),
            );
        }
        let service = self.service_us(shard, attempt.request);
        self.shards[shard].current = Some((attempt, now));
        self.shards[shard].busy_until = now + service;
        self.events.push(
            now + service,
            FleetEvent::Completion {
                shard,
                attempt: attempt.id,
            },
        );
    }

    /// Places a fresh attempt for `request` against a fresh snapshot.
    fn dispatch(&mut self, request: usize, now: f64, origin: AttemptOrigin) {
        self.refresh_views(now, request);
        self.place(request, now, origin);
    }

    /// Places a fresh attempt for `request` using `self.views`, which the
    /// caller refreshed for this request at `now`: the scheduler's pick
    /// if it is a healthy shard, else the central queue — drained by the
    /// next shard to free up or come back. Like the live fleet, a `None`
    /// pick waits only while a healthy shard is busy; with none busy,
    /// nothing would ever free up, so the attempt starts on the first
    /// healthy idle shard instead.
    fn place(&mut self, request: usize, now: f64, origin: AttemptOrigin) {
        let attempt = Attempt {
            id: self.next_attempt,
            request,
            origin,
            issued_us: now,
        };
        self.next_attempt += 1;
        self.request_mut(request).live_attempts += 1;
        let class = self.request(request).class;
        let pick = self
            .scheduler
            .pick(&self.views)
            .filter(|&i| i < self.shards.len() && self.shards[i].healthy());
        let target = pick.or_else(|| {
            let busy = self
                .shards
                .iter()
                .any(|s| s.healthy() && s.current.is_some());
            if busy {
                None
            } else {
                self.shards.iter().position(|s| s.healthy() && s.idle())
            }
        });
        match target {
            Some(i) if self.shards[i].idle() => self.start_service(i, attempt, now),
            Some(i) => {
                let work = self.service_us(i, request);
                self.shards[i].queued_work_us += work;
                self.shards[i].queue.push_back((attempt, work));
                self.waiting[class.index()] += 1;
            }
            None => {
                self.central.push_back(attempt);
                self.waiting[class.index()] += 1;
            }
        }
    }

    /// A shard freed up (completion, cancellation, recovery, warm-up
    /// done): pull its own queue first, then the central queue.
    fn pull_next(&mut self, shard: usize, now: f64) {
        let s = &mut self.shards[shard];
        if !s.healthy() || s.current.is_some() {
            return;
        }
        let next = match s.queue.pop_front() {
            Some((a, work)) => {
                s.queued_work_us -= work;
                Some(a)
            }
            None => self.central.pop_front(),
        };
        if let Some(a) = next {
            self.waiting[self.request(a.request).class.index()] -= 1;
            self.start_service(shard, a, now);
        }
    }

    /// The winner of `request` finished: cancel every sibling attempt —
    /// in-service ones free their shard immediately, queued ones are
    /// removed — and account the cancellations.
    fn cancel_siblings(&mut self, request: usize, now: f64) {
        if self.request(request).live_attempts == 0 {
            return;
        }
        let mut freed: Vec<usize> = Vec::new();
        for i in 0..self.shards.len() {
            if let Some((att, start)) = self.shards[i].current {
                if att.request == request {
                    self.shards[i].busy_us += now - start;
                    self.shards[i].current = None;
                    self.request_mut(request).live_attempts -= 1;
                    self.cancelled_attempts += 1;
                    if att.origin == AttemptOrigin::Hedge {
                        self.hedges_cancelled += 1;
                    }
                    self.emit_attempt_span(i, att, start, now, "cancelled");
                    self.emit_marker(SpanKind::Cancel, request, now);
                    freed.push(i);
                }
            }
        }
        if self.request(request).live_attempts > 0 {
            let class = self.request(request).class;
            let mut cancelled: Vec<Attempt> = Vec::new();
            for s in &mut self.shards {
                let work = &mut s.queued_work_us;
                s.queue.retain(|&(a, w)| {
                    if a.request == request {
                        *work -= w;
                        cancelled.push(a);
                        false
                    } else {
                        true
                    }
                });
            }
            self.central.retain(|a| {
                if a.request == request {
                    cancelled.push(*a);
                    false
                } else {
                    true
                }
            });
            self.request_mut(request).live_attempts -= cancelled.len() as u32;
            self.cancelled_attempts += cancelled.len();
            self.waiting[class.index()] -= cancelled.len();
            for att in cancelled {
                if att.origin == AttemptOrigin::Hedge {
                    self.hedges_cancelled += 1;
                }
                self.emit_marker(SpanKind::Cancel, request, now);
            }
        }
        debug_assert_eq!(self.request(request).live_attempts, 0);
        for i in freed {
            self.pull_next(i, now);
        }
    }

    /// A request left the system (completed, shed, or failed): track the
    /// makespan, keep a closed-loop client issuing, and drop resolved
    /// requests from the front of the window.
    fn resolve(&mut self, now: f64) {
        self.resolved += 1;
        self.makespan_us = self.makespan_us.max(now);
        if self.to_issue > 0 {
            self.to_issue -= 1;
            self.events.push(now + self.think_us, FleetEvent::Arrival);
        }
        while self.requests.front().is_some_and(|r| r.done) {
            self.requests.pop_front();
            self.first_request += 1;
        }
    }

    fn on_completion(&mut self, shard: usize, attempt_id: u64, now: f64) {
        // Lazy cancellation: the completion is real only if the shard is
        // still running that exact attempt (fail-stops and cancellations
        // clear `current`, leaving the scheduled event to pop dead).
        let (attempt, start) = match self.shards[shard].current {
            Some((a, s)) if a.id == attempt_id => (a, s),
            _ => return,
        };
        self.shards[shard].current = None;
        self.shards[shard].served += 1;
        self.shards[shard].busy_us += now - start;
        let request = attempt.request;
        debug_assert!(!self.request(request).done, "winner races are settled");
        let r = self.request_mut(request);
        r.done = true;
        r.live_attempts -= 1;
        if attempt.origin == AttemptOrigin::Retry {
            self.retry_wins += 1;
        }
        self.emit_attempt_span(shard, attempt, start, now, "completed");
        self.cancel_siblings(request, now);

        let (class, arrival_us, hedged) = {
            let r = self.request(request);
            (r.class, r.arrival_us, r.hedged)
        };
        let latency = now - arrival_us;
        self.queue_us_sum += start - arrival_us;
        self.service_us_sum += now - start;
        if self.mode == MetricsMode::Exact {
            self.per_request.push(RequestMetric {
                id: request,
                shard,
                arrival_us,
                start_us: start,
                completion_us: now,
            });
        }
        let stats = &mut self.classes[class.index()];
        stats.completed += 1;
        let met = latency <= self.cfg.slo.limit_us(class);
        if met {
            stats.slo_met += 1;
        }
        if let Some(m) = &mut self.burn[class.index()] {
            m.observe(now, met);
        }
        self.latency[class.index()].observe(latency);
        if let Some(scaler) = &mut self.scaler {
            scaler.observe_latency(latency);
        }
        if hedged {
            self.hedge_wins += 1;
        }
        self.emit_request_span(request, now, "completed");
        self.resolve(now);
        self.pull_next(shard, now);
    }

    fn on_fail(&mut self, shard: usize, now: f64) {
        self.shards[shard].failed = true;
        // Everything the shard held — in service and queued — is lost.
        let mut lost: Vec<Attempt> = Vec::new();
        if let Some((att, start)) = self.shards[shard].current.take() {
            self.shards[shard].busy_us += now - start;
            self.emit_attempt_span(shard, att, start, now, "failed");
            lost.push(att);
        }
        while let Some((att, _)) = self.shards[shard].queue.pop_front() {
            self.waiting[self.request(att.request).class.index()] -= 1;
            lost.push(att);
        }
        self.shards[shard].queued_work_us = 0.0;
        for att in lost {
            let request = att.request;
            if self.is_done(request) {
                continue;
            }
            self.request_mut(request).live_attempts -= 1;
            if self.cfg.hedge.retry_failed {
                self.retries += 1;
                self.emit_marker(SpanKind::Retry, request, now);
                self.dispatch(request, now, AttemptOrigin::Retry);
            } else if self.request(request).live_attempts == 0 {
                let class = self.request(request).class;
                self.request_mut(request).done = true;
                self.classes[class.index()].failed += 1;
                if let Some(m) = &mut self.burn[class.index()] {
                    m.observe(now, false);
                }
                self.emit_request_span(request, now, "failed");
                self.resolve(now);
            }
        }
    }

    fn on_scale_tick(&mut self, now: f64) {
        let epoch_us = match &self.cfg.autoscale {
            Some(a) => a.epoch_us,
            None => return,
        };
        // Busy time this epoch, including in-flight partial work.
        let total_busy: f64 = self
            .shards
            .iter()
            .map(|s| s.busy_us + s.current.map_or(0.0, |(_, start)| now - start))
            .sum();
        let epoch_busy = total_busy - self.last_epoch_busy_us;
        self.last_epoch_busy_us = total_busy;
        let active = self.serving_shards();
        let warming = self.shards.iter().filter(|s| s.warming).count();
        let utilization = if active > 0 {
            (epoch_busy / (active as f64 * epoch_us)).clamp(0.0, 1.0)
        } else {
            1.0 // nothing serving: maximal pressure
        };
        let scaler = self.scaler.as_mut().expect("autoscale config has a scaler");
        match scaler.decide(utilization, active, warming) {
            ScaleDecision::Out => {
                if let Some(i) = (0..self.shards.len()).find(|&i| !self.shards[i].active) {
                    self.shards[i].active = true;
                    self.shards[i].warming = true;
                    self.scale_outs += 1;
                    let warmup = self.cfg.autoscale.as_ref().expect("checked").warmup_us;
                    self.events
                        .push(now + warmup, FleetEvent::ShardReady { shard: i });
                }
            }
            ScaleDecision::In => {
                // Retire the highest-indexed idle healthy shard; if every
                // active shard holds work, hold instead.
                if let Some(i) = (0..self.shards.len())
                    .rev()
                    .find(|&i| self.shards[i].healthy() && self.shards[i].idle())
                {
                    self.shards[i].active = false;
                    self.scale_ins += 1;
                }
            }
            ScaleDecision::Hold => {}
        }
        self.peak_active = self.peak_active.max(self.serving_shards());
        if self.resolved < self.total_requests {
            self.events.push(now + epoch_us, FleetEvent::ScaleTick);
        }
    }

    fn on_arrival(&mut self, now: f64) {
        // The class stream is drawn only when a low class exists, so an
        // all-high run spends nothing on it.
        let class =
            if self.cfg.low_fraction > 0.0 && self.class_rng.gen::<f64>() < self.cfg.low_fraction {
                Priority::Low
            } else {
                Priority::High
            };
        let request = self.next_request;
        self.next_request += 1;
        self.requests.push_back(RequestState {
            class,
            arrival_us: now,
            degraded: false,
            service_factor: 1.0,
            buffered: false,
            live_attempts: 0,
            hedges_used: 0,
            hedged: false,
            done: false,
        });
        self.classes[class.index()].offered += 1;
        // One snapshot serves the gate and the primary placement: nothing
        // changes the fleet in between.
        self.refresh_views(now, request);
        match self
            .admission
            .decide(class, self.waiting[class.index()], &self.views)
        {
            AdmissionDecision::Admit => {
                self.classes[class.index()].admitted += 1;
                self.emit_marker(SpanKind::Admit, request, now);
            }
            AdmissionDecision::Degrade => {
                self.classes[class.index()].degraded += 1;
                self.request_mut(request).degraded = true;
                self.emit_marker(SpanKind::Degrade, request, now);
                if let Some(b) = self.cfg.degrade_batching {
                    // Hold in the central degrade buffer: the request
                    // dispatches when the batch fills or the oldest
                    // member's deadline fires, at the amortized batch
                    // cost. Hedge timers arm at flush, not here — a
                    // buffered request has no attempt to race against.
                    self.request_mut(request).buffered = true;
                    self.degrade_buffer.push(request);
                    if self.degrade_buffer.len() >= b.max {
                        self.flush_degrade_buffer(now);
                    } else {
                        self.events
                            .push(now + b.deadline_us, FleetEvent::BatchFlush);
                    }
                    return;
                }
                self.request_mut(request).service_factor = self.cfg.degrade_factor;
            }
            AdmissionDecision::Shed => {
                self.classes[class.index()].shed += 1;
                if let Some(m) = &mut self.burn[class.index()] {
                    m.observe(now, false);
                }
                self.request_mut(request).done = true;
                self.emit_marker(SpanKind::Shed, request, now);
                self.emit_request_span(request, now, "shed");
                self.resolve(now);
                return;
            }
        }
        self.place(request, now, AttemptOrigin::Primary);
        if self.cfg.hedge.hedging_enabled() {
            self.events
                .push(now + self.cfg.hedge.after_us, FleetEvent::Hedge { request });
        }
    }

    /// Releases the degrade buffer as one batch: every member gets the
    /// amortized per-sample service factor of the batch size it rode in,
    /// then dispatches (and arms its hedge timer) as usual.
    fn flush_degrade_buffer(&mut self, now: f64) {
        let batching = match self.cfg.degrade_batching {
            Some(b) => b,
            None => return,
        };
        if self.degrade_buffer.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.degrade_buffer);
        let factor = batching.factor(batch.len());
        self.degrade_batches += 1;
        self.degrade_batch_samples += batch.len();
        self.max_degrade_batch = self.max_degrade_batch.max(batch.len());
        let batch_size = batch.len() as u64;
        for request in batch {
            if self.tracing {
                // The hold window: admission to batch flush.
                self.sink.record(
                    Span::new(
                        request as u64,
                        SpanKind::DegradeBatch,
                        track::FRONTEND,
                        track::CONTROL,
                        self.request(request).arrival_us,
                        now,
                    )
                    .attr(AttrKey::BatchSize, batch_size),
                );
            }
            let r = self.request_mut(request);
            r.buffered = false;
            r.service_factor = factor;
            self.dispatch(request, now, AttemptOrigin::Primary);
            if self.cfg.hedge.hedging_enabled() {
                self.events
                    .push(now + self.cfg.hedge.after_us, FleetEvent::Hedge { request });
            }
        }
    }

    /// A degrade-batch deadline pops. A fill may have flushed the buffer
    /// early, leaving this deadline stale for a *younger* buffer: only
    /// fire when the current oldest member has genuinely waited out the
    /// deadline (ε absorbs float round-off at an exactly-on-time pop).
    fn on_batch_flush(&mut self, now: f64) {
        let batching = match self.cfg.degrade_batching {
            Some(b) => b,
            None => return,
        };
        let oldest = match self.degrade_buffer.first() {
            Some(&r) => self.request(r).arrival_us,
            None => return,
        };
        if now - oldest + 1e-9 >= batching.deadline_us {
            self.flush_degrade_buffer(now);
        }
    }

    fn on_hedge(&mut self, request: usize, now: f64) {
        if self.is_done(request) {
            return;
        }
        let max_hedges = self.cfg.hedge.max_hedges;
        let r = self.request_mut(request);
        if r.buffered || r.hedges_used >= max_hedges {
            return;
        }
        r.hedges_used += 1;
        r.hedged = true;
        let again = r.hedges_used < max_hedges;
        self.hedges_issued += 1;
        self.emit_marker(SpanKind::Hedge, request, now);
        self.dispatch(request, now, AttemptOrigin::Hedge);
        if again {
            self.events
                .push(now + self.cfg.hedge.after_us, FleetEvent::Hedge { request });
        }
    }

    fn into_frontend_summary(self) -> FrontendSummary {
        let final_active_shards = self.serving_shards();
        let mut classes = self.classes;
        for (c, lat) in classes.iter_mut().zip(&self.latency) {
            c.latency = lat.stats();
        }
        let offered: usize = classes.iter().map(|c| c.offered).sum();
        let completed: usize = classes.iter().map(|c| c.completed).sum();
        let slo_met: usize = classes.iter().map(|c| c.slo_met).sum();
        let shed: usize = classes.iter().map(|c| c.shed).sum();
        let makespan_s = self.makespan_us * 1e-6;
        let mut burn_alerts: Vec<ClassBurnAlert> = Vec::new();
        for (class, monitor) in [Priority::High, Priority::Low].into_iter().zip(&self.burn) {
            if let Some(m) = monitor {
                burn_alerts.extend(
                    m.alerts()
                        .iter()
                        .map(|&alert| ClassBurnAlert { class, alert }),
                );
            }
        }
        burn_alerts.sort_by(|x, y| {
            x.alert
                .at_us
                .total_cmp(&y.alert.at_us)
                .then(x.class.index().cmp(&y.class.index()))
        });
        let per_s = |n: usize| {
            if makespan_s > 0.0 {
                n as f64 / makespan_s
            } else {
                0.0
            }
        };
        let share = |n: usize| {
            if offered > 0 {
                n as f64 / offered as f64
            } else {
                0.0
            }
        };
        FrontendSummary {
            scheduler: self.scheduler.name().to_string(),
            admission: self.admission.name().to_string(),
            workload: self.cfg.workload.to_string(),
            requests: offered,
            makespan_us: self.makespan_us,
            throughput_rps: per_s(completed),
            goodput_rps: per_s(slo_met),
            shed_rate: share(shed),
            slo_attainment: share(slo_met),
            classes,
            hedges_issued: self.hedges_issued,
            hedge_wins: self.hedge_wins,
            cancelled_attempts: self.cancelled_attempts,
            hedges_cancelled: self.hedges_cancelled,
            retries: self.retries,
            retry_wins: self.retry_wins,
            failures_injected: self.cfg.faults.fail_stops(),
            slowdowns_injected: self.cfg.faults.slowdowns(),
            scale_outs: self.scale_outs,
            scale_ins: self.scale_ins,
            degrade_batches: self.degrade_batches,
            mean_degrade_batch: if self.degrade_batches > 0 {
                self.degrade_batch_samples as f64 / self.degrade_batches as f64
            } else {
                0.0
            },
            max_degrade_batch: self.max_degrade_batch,
            peak_active_shards: self.peak_active,
            final_active_shards,
            burn_alerts,
        }
    }

    /// The [`ServeSummary`] of a run with every request admitted at high
    /// priority (the [`simulate_with`] configuration).
    fn into_serve_summary(self) -> ServeSummary {
        let done = self.classes[Priority::High.index()].completed;
        let makespan_us = self.makespan_us;
        let depth_area =
            self.depth_area + self.last_depth as f64 * (makespan_us - self.last_depth_t).max(0.0);
        let latency = match self.mode {
            MetricsMode::Exact => {
                let latencies: Vec<f64> = self
                    .per_request
                    .iter()
                    .map(RequestMetric::latency_us)
                    .collect();
                LatencyStats::of(&latencies)
            }
            MetricsMode::Streaming => self.latency[Priority::High.index()].stats(),
        };
        let n = done.max(1) as f64;
        let per_makespan = |x: f64| {
            if makespan_us > 0.0 {
                x / makespan_us
            } else {
                0.0
            }
        };
        let shards = self
            .specs
            .iter()
            .zip(&self.shards)
            .map(|(spec, s)| ShardUsage {
                name: spec.name.clone(),
                served: s.served,
                busy_us: s.busy_us,
                utilization: per_makespan(s.busy_us),
            })
            .collect();
        ServeSummary {
            scheduler: self.scheduler.name().to_string(),
            workload: self.cfg.workload.to_string(),
            requests: done,
            makespan_us,
            throughput_rps: if makespan_us > 0.0 {
                done as f64 / (makespan_us * 1e-6)
            } else {
                0.0
            },
            latency,
            queue_us_mean: self.queue_us_sum / n,
            service_us_mean: self.service_us_sum / n,
            shards,
            queue: QueueStats {
                max_depth: self.max_depth,
                mean_depth: per_makespan(depth_area),
                trajectory: self.trajectory,
            },
            per_request: self.per_request,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_core::engine::{BoundedQueues, FastestCompletion, FirstIdle, LeastQueued};

    fn homogeneous(n: usize, service_us: f64) -> Vec<ShardSpec> {
        (0..n)
            .map(|i| ShardSpec::uniform(format!("machine-{i}"), service_us))
            .collect()
    }

    fn slo() -> SloPolicy {
        SloPolicy {
            high_us: 100.0,
            low_us: 400.0,
        }
    }

    /// A measured table is real wall-clock: positive, finite, one entry
    /// per input — and it drives the simulator like any modelled table.
    #[test]
    fn from_measured_builds_a_usable_table() {
        use sparsenn_core::engine::KernelBackend;
        use sparsenn_core::linalg::init::seeded_rng;
        use sparsenn_core::model::fixedpoint::{FixedNetwork, UvMode};
        use sparsenn_core::model::{Mlp, PredictedNetwork};
        let mut rng = seeded_rng(7);
        let mlp = Mlp::random(&[24, 32, 10], &mut rng);
        let net =
            FixedNetwork::from_float(&PredictedNetwork::with_random_predictors(mlp, 3, &mut rng));
        let inputs: Vec<_> = (0..3)
            .map(|s| {
                let x: Vec<f32> = (0..24)
                    .map(|i| if (i + s) % 2 == 0 { 0.0 } else { 0.5 })
                    .collect();
                net.quantize_input(&x)
            })
            .collect();
        let backend = KernelBackend::new();
        let spec =
            ShardSpec::from_measured("kernel", &backend, &net, &inputs, UvMode::On, 3).unwrap();
        assert_eq!(spec.service_us.len(), 3);
        assert!(spec.service_us.iter().all(|&t| t.is_finite() && t > 0.0));
        let workload = Workload::ClosedLoop {
            concurrency: 1,
            requests: 9,
            think_us: 0.0,
        };
        let s = simulate(std::slice::from_ref(&spec), &FirstIdle, &workload).unwrap();
        assert_eq!(s.requests, 9);
        assert!(s.latency.mean_us > 0.0);
    }

    /// The acceptance criterion: closed-loop with concurrency == shards on
    /// a homogeneous fleet has zero queueing — mean latency is exactly the
    /// backend's modelled per-sample service time.
    #[test]
    fn closed_loop_at_fleet_concurrency_has_no_queueing() {
        // Per-sample service table (as a real backend would produce) —
        // request count a multiple of the table, so means match exactly.
        let table = vec![10.0, 14.0, 12.0, 8.0];
        let shards: Vec<ShardSpec> = (0..4)
            .map(|i| ShardSpec::with_table(format!("m{i}"), table.clone()))
            .collect();
        let workload = Workload::ClosedLoop {
            concurrency: 4,
            requests: 64,
            think_us: 0.0,
        };
        for scheduler in [
            &FirstIdle as &dyn crate::Scheduler,
            &LeastQueued,
            &FastestCompletion,
        ] {
            let s = simulate(&shards, scheduler, &workload).unwrap();
            assert_eq!(s.requests, 64);
            assert_eq!(s.queue_us_mean, 0.0, "{}: no request waits", s.scheduler);
            assert_eq!(s.queue.max_depth, 0, "{}", s.scheduler);
            let modelled_mean = shards[0].mean_service_us();
            assert!(
                (s.latency.mean_us - modelled_mean).abs() < 1e-9,
                "{}: mean latency {} vs modelled per-sample time {}",
                s.scheduler,
                s.latency.mean_us,
                modelled_mean
            );
        }
    }

    #[test]
    fn single_shard_fifo_and_conservation() {
        let shards = vec![ShardSpec::uniform("only", 10.0)];
        let s = simulate_with(
            &shards,
            &FirstIdle,
            &Workload::Poisson {
                rate_rps: 200_000.0, // 2 requests per service time: overload
                requests: 200,
                seed: 1,
            },
            MetricsMode::Exact,
        )
        .unwrap();
        assert_eq!(s.requests, 200);
        assert_eq!(s.shards[0].served, 200);
        // Single server: completions come in request order (FIFO).
        let ids: Vec<usize> = s.per_request.iter().map(|r| r.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        // Overloaded: queueing dominates and the queue gets deep.
        assert!(s.queue_us_mean > s.service_us_mean);
        assert!(s.queue.max_depth > 10);
        // The busy time is exactly requests × service.
        assert!((s.shards[0].busy_us - 2000.0).abs() < 1e-9);
        assert!(s.shards[0].utilization <= 1.0 + 1e-12);
    }

    /// The other acceptance half: on a heterogeneous fleet (fast machine
    /// beside slow SIMD platforms) fastest-expected-completion beats
    /// first-idle on p95 latency.
    #[test]
    fn fastest_completion_beats_first_idle_on_hetero_p95() {
        let shards = vec![
            ShardSpec::uniform("machine", 10.0),
            ShardSpec::uniform("simd-slow", 100.0),
        ];
        // ~73% of fleet capacity (capacity = 110k rps).
        let workload = Workload::Poisson {
            rate_rps: 80_000.0,
            requests: 3000,
            seed: 42,
        };
        let first = simulate(&shards, &FirstIdle, &workload).unwrap();
        let fec = simulate(&shards, &FastestCompletion, &workload).unwrap();
        assert!(
            fec.latency.p95_us < first.latency.p95_us,
            "fec p95 {} must beat first-idle p95 {}",
            fec.latency.p95_us,
            first.latency.p95_us
        );
        assert!(fec.latency.mean_us < first.latency.mean_us);
        // Both served everything; the policies differ in placement only.
        assert_eq!(first.requests, 3000);
        assert_eq!(fec.requests, 3000);
    }

    #[test]
    fn bursty_load_builds_queues_that_drain() {
        let shards = homogeneous(2, 10.0); // 200k rps capacity
        let s = simulate_with(
            &shards,
            &LeastQueued,
            &Workload::Bursty {
                low_rps: 10_000.0,
                high_rps: 600_000.0, // 3× capacity during bursts
                period_us: 2_000.0,
                duty: 0.25,
                requests: 2000,
                seed: 5,
            },
            MetricsMode::Exact,
        )
        .unwrap();
        assert!(s.queue.max_depth >= 5, "bursts must pile a queue up");
        assert_eq!(
            s.queue.trajectory.last().map(|&(_, d)| d),
            Some(0),
            "the queue drains by the end"
        );
        // Mean arrival rate ≈ 0.25·600k + 0.75·10k = 157.5k < capacity,
        // so mean depth stays well below the burst peak.
        assert!(s.queue.mean_depth < s.queue.max_depth as f64);
    }

    #[test]
    fn closed_loop_throughput_saturates_at_fleet_capacity() {
        let shards = homogeneous(3, 10.0); // 300k rps capacity
        let s = simulate(
            &shards,
            &FirstIdle,
            &Workload::ClosedLoop {
                concurrency: 12, // 4 clients per shard: saturated
                requests: 600,
                think_us: 0.0,
            },
        )
        .unwrap();
        assert!((s.throughput_rps - fleet_capacity_rps(&shards)).abs() < 1000.0);
        for shard in &s.shards {
            assert!(shard.utilization > 0.99, "{shard:?}");
        }
        // Little's law sanity: N = X · R (12 clients, R in seconds).
        let n = s.throughput_rps * s.latency.mean_us * 1e-6;
        assert!((n - 12.0).abs() < 0.5, "Little's law: N ≈ {n}, want 12");
    }

    /// A policy that never places a request mirrors the live fleet's
    /// blocked-caller semantics: requests hold centrally while anything
    /// runs, and the all-idle fallback (shard 0, like the live fleet's
    /// lowest-index idle pick) keeps the system live — so every request
    /// funnels through shard 0 and still completes.
    #[test]
    fn none_picks_match_the_live_fleets_blocked_caller_semantics() {
        struct AlwaysWait;
        impl crate::Scheduler for AlwaysWait {
            fn name(&self) -> &str {
                "always-wait"
            }
            fn pick(&self, _: &[sparsenn_core::engine::ShardView]) -> Option<usize> {
                None
            }
        }
        let shards = homogeneous(3, 10.0);
        let s = simulate(
            &shards,
            &AlwaysWait,
            &Workload::Poisson {
                rate_rps: 50_000.0,
                requests: 120,
                seed: 2,
            },
        )
        .unwrap();
        assert_eq!(s.requests, 120, "progress despite a never-placing policy");
        assert_eq!(s.shards[0].served, 120, "only the fallback shard works");
        assert_eq!(s.shards[1].served + s.shards[2].served, 0);
    }

    /// The front end holds a `None` pick the same way: centrally while a
    /// healthy shard is busy, on the first healthy idle shard only when
    /// none is — so a never-placing policy funnels everything through
    /// shard 0, exactly as in `simulate` and the live fleet.
    #[test]
    fn front_end_none_picks_wait_while_a_shard_is_busy() {
        use sparsenn_obs::RingRecorder;
        struct AlwaysWait;
        impl crate::Scheduler for AlwaysWait {
            fn name(&self) -> &str {
                "always-wait"
            }
            fn pick(&self, _: &[ShardView]) -> Option<usize> {
                None
            }
        }
        let cfg = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: 50_000.0,
                requests: 120,
                seed: 2,
            },
            slo(),
        );
        let recorder = RingRecorder::new(1 << 12);
        let s = simulate_frontend_traced(
            &homogeneous(3, 10.0),
            &AlwaysWait,
            &AdmitAll,
            &cfg,
            &recorder,
        )
        .unwrap();
        assert_eq!(s.class(Priority::High).completed, 120);
        let attempts: Vec<u64> = recorder
            .spans()
            .iter()
            .filter(|span| span.kind == SpanKind::Attempt)
            .filter_map(|span| span.attr_u64(AttrKey::Shard))
            .collect();
        assert_eq!(attempts.len(), 120);
        assert!(
            attempts.iter().all(|&shard| shard == 0),
            "only shard 0 works"
        );
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        assert_eq!(
            simulate(
                &[],
                &FirstIdle,
                &Workload::ClosedLoop {
                    concurrency: 1,
                    requests: 1,
                    think_us: 0.0
                }
            )
            .unwrap_err(),
            ServeError::NoShards
        );
        let empty_table = vec![ShardSpec {
            name: "x".into(),
            service_us: vec![],
        }];
        assert!(matches!(
            simulate(
                &empty_table,
                &FirstIdle,
                &Workload::ClosedLoop {
                    concurrency: 1,
                    requests: 1,
                    think_us: 0.0
                }
            )
            .unwrap_err(),
            ServeError::BadServiceTable { shard: 0, .. }
        ));
        let nan_table = vec![ShardSpec::uniform("x", f64::NAN)];
        assert!(matches!(
            simulate(
                &nan_table,
                &FirstIdle,
                &Workload::ClosedLoop {
                    concurrency: 1,
                    requests: 1,
                    think_us: 0.0
                }
            )
            .unwrap_err(),
            ServeError::BadServiceTable { shard: 0, .. }
        ));
        assert!(matches!(
            simulate(
                &homogeneous(1, 10.0),
                &FirstIdle,
                &Workload::Poisson {
                    rate_rps: -5.0,
                    requests: 10,
                    seed: 0
                }
            )
            .unwrap_err(),
            ServeError::InvalidWorkload(_)
        ));
    }

    /// The two metrics modes drive the identical timeline: every field
    /// except the latency percentiles (and the deliberately-empty
    /// per-request / trajectory vectors) matches exactly, and the P²
    /// percentile estimates land near the exact nearest-rank values.
    #[test]
    fn streaming_mode_matches_exact_except_percentile_estimation() {
        let shards = vec![
            ShardSpec::with_table("a", vec![8.0, 12.0, 10.0]),
            ShardSpec::uniform("b", 40.0),
        ];
        let w = Workload::Poisson {
            rate_rps: 90_000.0,
            requests: 5000,
            seed: 17,
        };
        let exact = simulate_with(&shards, &LeastQueued, &w, MetricsMode::Exact).unwrap();
        let stream = simulate(&shards, &LeastQueued, &w).unwrap();
        assert_eq!(stream.requests, exact.requests);
        assert_eq!(stream.makespan_us, exact.makespan_us);
        assert_eq!(stream.throughput_rps, exact.throughput_rps);
        assert_eq!(stream.queue_us_mean, exact.queue_us_mean);
        assert_eq!(stream.service_us_mean, exact.service_us_mean);
        assert_eq!(stream.shards, exact.shards);
        assert_eq!(stream.queue.max_depth, exact.queue.max_depth);
        assert_eq!(stream.queue.mean_depth, exact.queue.mean_depth);
        // Mean and max latency are exact in both modes.
        assert!((stream.latency.mean_us - exact.latency.mean_us).abs() < 1e-9);
        assert_eq!(stream.latency.max_us, exact.latency.max_us);
        // Percentiles are P² estimates: close, not identical.
        for (est, truth) in [
            (stream.latency.p50_us, exact.latency.p50_us),
            (stream.latency.p95_us, exact.latency.p95_us),
            (stream.latency.p99_us, exact.latency.p99_us),
        ] {
            let tol = 0.25 * truth.max(1.0);
            assert!(
                (est - truth).abs() <= tol,
                "P² estimate {est} too far from exact {truth}"
            );
        }
        // Streaming holds no per-request state.
        assert!(stream.per_request.is_empty());
        assert!(stream.queue.trajectory.is_empty());
        assert_eq!(exact.per_request.len(), 5000);
    }

    #[test]
    fn capacity_model_sums_shard_rates() {
        let shards = vec![
            ShardSpec::uniform("a", 10.0),  // 100k rps
            ShardSpec::uniform("b", 100.0), // 10k rps
        ];
        assert!((fleet_capacity_rps(&shards) - 110_000.0).abs() < 1e-6);
    }

    #[test]
    fn healthy_fleet_completes_everything_within_slo() {
        let cfg = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: 100_000.0, // half of 2×100k capacity
                requests: 2000,
                seed: 3,
            },
            slo(),
        );
        let s = simulate_frontend(&homogeneous(2, 10.0), &LeastQueued, &AdmitAll, &cfg).unwrap();
        assert_eq!(s.requests, 2000);
        assert_eq!(s.class(Priority::High).completed, 2000);
        assert_eq!(s.shed_rate, 0.0);
        assert!(s.slo_attainment > 0.99, "attainment {}", s.slo_attainment);
        assert!(s.goodput_rps > 0.0);
        assert_eq!(s.hedges_issued, 0);
        assert_eq!(s.retries, 0);
        assert_eq!(s.final_active_shards, 2);
    }

    /// A run is a pure function of its arguments, with every policy a
    /// no-op and with all of them engaged at once.
    #[test]
    fn runs_are_deterministic() {
        let shards = vec![
            ShardSpec::with_table("a", vec![5.0, 9.0]),
            ShardSpec::uniform("b", 20.0),
        ];
        let w = Workload::Bursty {
            low_rps: 20_000.0,
            high_rps: 200_000.0,
            period_us: 500.0,
            duty: 0.3,
            requests: 800,
            seed: 9,
        };
        let a = simulate(&shards, &LeastQueued, &w).unwrap();
        let b = simulate(&shards, &LeastQueued, &w).unwrap();
        assert_eq!(a, b);

        let cfg = FrontendConfig::new(
            Workload::Bursty {
                low_rps: 30_000.0,
                high_rps: 400_000.0,
                period_us: 1_000.0,
                duty: 0.3,
                requests: 1500,
                seed: 8,
            },
            slo(),
        )
        .low_fraction(0.3)
        .hedge(HedgeConfig::hedged(60.0))
        .faults(FaultPlan::random(3, 20_000.0, 1, 1, 21))
        .degrade_batching(DegradeBatching::new(3, 120.0, 0.3));
        let run = || {
            simulate_frontend(
                &homogeneous(3, 10.0),
                &LeastQueued,
                &BoundedQueues::new(64, 16).degrade_low_beyond(4),
                &cfg,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn overload_with_bounded_queues_sheds_low_priority_first() {
        // 2 shards × 100k rps capacity; offered 2× that, 40 % low.
        let cfg = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: 400_000.0,
                requests: 4000,
                seed: 5,
            },
            slo(),
        )
        .low_fraction(0.4);
        let gate = BoundedQueues::new(8, 2).degrade_low_beyond(1);
        let s = simulate_frontend(&homogeneous(2, 10.0), &LeastQueued, &gate, &cfg).unwrap();
        let high = s.class(Priority::High);
        let low = s.class(Priority::Low);
        assert!(
            low.shed_rate() > high.shed_rate() + 0.1,
            "low sheds first: {low:?} vs {high:?}"
        );
        assert!(low.degraded > 0, "degrade tier engaged");
        assert!(
            high.latency.p99_us <= slo().high_us,
            "bounded queue bounds the high tail: {}",
            high.latency.p99_us
        );
        // Conservation per class.
        for c in &s.classes {
            assert_eq!(c.offered, c.completed + c.shed + c.failed);
        }
    }

    #[test]
    fn burn_monitor_fires_under_overload_and_stays_quiet_at_nominal_load() {
        let burn = BurnConfig::new(0.9, 2_000.0, 10_000.0);
        let run = |rate_rps: f64| {
            let cfg = FrontendConfig::new(
                Workload::Poisson {
                    rate_rps,
                    requests: 3000,
                    seed: 11,
                },
                slo(),
            )
            .low_fraction(0.4)
            .burn_monitor(burn);
            simulate_frontend(&homogeneous(2, 10.0), &LeastQueued, &AdmitAll, &cfg).unwrap()
        };
        // 2 shards × 100k rps capacity. Offered 2×: queues grow without
        // bound, both classes blow their SLOs, both monitors fire.
        let hot = run(400_000.0);
        let fires = |s: &FrontendSummary, class| {
            s.burn_alerts
                .iter()
                .filter(|a| a.class == class && a.alert.kind == sparsenn_obs::AlertKind::Fire)
                .count()
        };
        assert!(
            fires(&hot, Priority::High) + fires(&hot, Priority::Low) >= 1,
            "overload raises at least one alert: {:?}",
            hot.burn_alerts
        );
        let sorted = hot
            .burn_alerts
            .windows(2)
            .all(|w| w[0].alert.at_us <= w[1].alert.at_us);
        assert!(sorted, "alerts come back in time order");
        // Offered 0.25× capacity: everything meets SLO, zero alerts.
        let calm = run(50_000.0);
        assert!(
            calm.burn_alerts.is_empty(),
            "nominal load is quiet: {:?}",
            calm.burn_alerts
        );
        assert!(calm.slo_attainment > 0.99);
    }

    #[test]
    fn fail_stop_without_retries_loses_requests_with_retries_none() {
        let w = Workload::Poisson {
            rate_rps: 190_000.0, // 95 % of capacity: shards stay busy
            requests: 3000,
            seed: 7,
        };
        let plan = FaultPlan::new(vec![Fault::FailStop {
            shard: 0,
            at_us: 3_000.0,
            down_us: 8_000.0,
        }]);
        let no_retry = FrontendConfig::new(w, slo()).faults(plan.clone());
        let s =
            simulate_frontend(&homogeneous(2, 10.0), &LeastQueued, &AdmitAll, &no_retry).unwrap();
        assert!(
            s.class(Priority::High).failed > 0,
            "in-flight work dies with the shard"
        );
        assert_eq!(s.failures_injected, 1);

        let retry = FrontendConfig::new(w, slo())
            .faults(plan)
            .hedge(HedgeConfig::retries_only());
        let s = simulate_frontend(&homogeneous(2, 10.0), &LeastQueued, &AdmitAll, &retry).unwrap();
        assert_eq!(
            s.class(Priority::High).failed,
            0,
            "retries save every request"
        );
        assert!(s.retries > 0);
        assert_eq!(s.class(Priority::High).completed, 3000);
    }

    #[test]
    fn hedging_rescues_requests_stuck_behind_a_straggler() {
        // Shard 0 is 20× slow for a long window; hedges re-dispatch its
        // victims to the healthy shard.
        let w = Workload::Poisson {
            rate_rps: 60_000.0,
            requests: 2000,
            seed: 11,
        };
        let plan = FaultPlan::new(vec![Fault::Slowdown {
            shard: 0,
            at_us: 1_000.0,
            for_us: 15_000.0,
            factor: 20.0,
        }]);
        let unhedged = FrontendConfig::new(w, slo()).faults(plan.clone());
        let hedged = FrontendConfig::new(w, slo())
            .faults(plan)
            .hedge(HedgeConfig::hedged(40.0));
        let fleet = homogeneous(3, 10.0);
        let a = simulate_frontend(&fleet, &FirstIdle, &AdmitAll, &unhedged).unwrap();
        let b = simulate_frontend(&fleet, &FirstIdle, &AdmitAll, &hedged).unwrap();
        assert!(b.hedges_issued > 0);
        assert!(b.hedge_wins > 0);
        assert!(b.cancelled_attempts > 0, "losing attempts are cancelled");
        assert!(
            b.slo_attainment > a.slo_attainment,
            "hedged attainment {} must beat unhedged {}",
            b.slo_attainment,
            a.slo_attainment
        );
        assert!(
            b.class(Priority::High).latency.p99_us < a.class(Priority::High).latency.p99_us,
            "hedging cuts the tail: {} vs {}",
            b.class(Priority::High).latency.p99_us,
            a.class(Priority::High).latency.p99_us
        );
    }

    #[test]
    fn autoscaler_grows_under_load_after_warmup_and_shrinks_when_quiet() {
        // One active shard (100k rps) against 180k offered: must scale out.
        // The long quiet tail of the bursty workload then scales back in.
        let cfg = FrontendConfig::new(
            Workload::Bursty {
                low_rps: 5_000.0,
                high_rps: 250_000.0,
                period_us: 40_000.0,
                duty: 0.5,
                requests: 6000,
                seed: 13,
            },
            slo(),
        )
        .autoscale(AutoscaleConfig::new(1, 4, 1_000.0, 2_000.0));
        let s = simulate_frontend(&homogeneous(4, 10.0), &LeastQueued, &AdmitAll, &cfg).unwrap();
        assert!(s.scale_outs > 0, "overload must trigger growth");
        assert!(s.peak_active_shards > 1);
        assert!(s.scale_ins > 0, "quiet phase must trigger shrink");
        assert_eq!(
            s.class(Priority::High).completed,
            6000,
            "scaling never drops a request"
        );
    }

    #[test]
    fn closed_loop_clients_reissue_after_sheds() {
        // Concurrency 8 against 1 shard with a tiny low-priority budget:
        // sheds happen, yet every one of the fixed number of requests
        // resolves (shed clients issue their next request).
        let cfg = FrontendConfig::new(
            Workload::ClosedLoop {
                concurrency: 8,
                requests: 400,
                think_us: 0.0,
            },
            slo(),
        )
        .low_fraction(0.5);
        let gate = BoundedQueues::new(4, 0); // low always sheds
        let s = simulate_frontend(&homogeneous(1, 10.0), &FirstIdle, &gate, &cfg).unwrap();
        assert_eq!(s.requests, 400);
        let resolved: usize = s
            .classes
            .iter()
            .map(|c| c.completed + c.shed + c.failed)
            .sum();
        assert_eq!(resolved, 400);
        assert!(s.class(Priority::Low).shed > 0);
        assert_eq!(s.class(Priority::Low).completed, 0, "cap 0 sheds all low");
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let w = Workload::Poisson {
            rate_rps: 1000.0,
            requests: 10,
            seed: 0,
        };
        let base = FrontendConfig::new(w, slo());
        assert_eq!(
            simulate_frontend(&[], &FirstIdle, &AdmitAll, &base).unwrap_err(),
            FrontendError::NoShards
        );
        let bad_frac = base.clone().low_fraction(1.5);
        assert!(matches!(
            simulate_frontend(&homogeneous(1, 10.0), &FirstIdle, &AdmitAll, &bad_frac).unwrap_err(),
            FrontendError::BadConfig(_)
        ));
        let bad_fault = base.clone().faults(FaultPlan::new(vec![Fault::FailStop {
            shard: 9,
            at_us: 0.0,
            down_us: 1.0,
        }]));
        assert!(matches!(
            simulate_frontend(&homogeneous(1, 10.0), &FirstIdle, &AdmitAll, &bad_fault)
                .unwrap_err(),
            FrontendError::BadConfig(_)
        ));
        let bad_scale = base
            .clone()
            .autoscale(AutoscaleConfig::new(1, 8, 1000.0, 100.0));
        assert!(matches!(
            simulate_frontend(&homogeneous(2, 10.0), &FirstIdle, &AdmitAll, &bad_scale)
                .unwrap_err(),
            FrontendError::BadConfig(_)
        ));
        let mut bad_degrade = base.clone();
        bad_degrade.degrade_factor = 0.0;
        assert!(matches!(
            simulate_frontend(&homogeneous(1, 10.0), &FirstIdle, &AdmitAll, &bad_degrade)
                .unwrap_err(),
            FrontendError::BadConfig(_)
        ));
        for bad in [
            DegradeBatching::new(0, 100.0, 0.5),
            DegradeBatching::new(4, f64::NAN, 0.5),
            DegradeBatching::new(4, 100.0, 0.0),
            DegradeBatching::new(4, 100.0, 1.5),
        ] {
            let cfg = base.clone().degrade_batching(bad);
            assert!(
                matches!(
                    simulate_frontend(&homogeneous(1, 10.0), &FirstIdle, &AdmitAll, &cfg)
                        .unwrap_err(),
                    FrontendError::BadConfig(_)
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn degrade_batching_amortizes_low_priority_overload() {
        // 2 × 100k rps capacity, 300k offered, half low-priority; the
        // gate degrades every low request. Unbatched, each degraded
        // request costs 0.5×; batched, a full batch of 4 costs
        // (1 + 0.2 × 3) / 4 = 0.4× per member — and buffered requests
        // don't count as waiting, so the low queue sheds less.
        let w = Workload::Poisson {
            rate_rps: 300_000.0,
            requests: 3000,
            seed: 17,
        };
        let gate = BoundedQueues::new(64, 32).degrade_low_beyond(0);
        let base = FrontendConfig::new(w, slo()).low_fraction(0.5);
        let batched_cfg = base
            .clone()
            .degrade_batching(DegradeBatching::new(4, 200.0, 0.2));
        let fleet = homogeneous(2, 10.0);
        let plain = simulate_frontend(&fleet, &LeastQueued, &gate, &base).unwrap();
        let batched = simulate_frontend(&fleet, &LeastQueued, &gate, &batched_cfg).unwrap();

        assert_eq!(plain.degrade_batches, 0, "no batching unless configured");
        assert!(batched.degrade_batches > 0, "degrade tier must batch");
        assert!(
            batched.mean_degrade_batch > 1.5,
            "overload must gather real batches, got mean {}",
            batched.mean_degrade_batch
        );
        assert!(batched.max_degrade_batch <= 4, "fills cap the batch");
        // Every degraded request rides exactly one flushed batch.
        let flushed =
            (batched.mean_degrade_batch * batched.degrade_batches as f64).round() as usize;
        assert_eq!(flushed, batched.class(Priority::Low).degraded);
        // The amortized tier serves more of the low class than the flat
        // degrade discount does.
        assert!(
            batched.class(Priority::Low).completed >= plain.class(Priority::Low).completed,
            "batching must not lose low-class capacity: {} vs {}",
            batched.class(Priority::Low).completed,
            plain.class(Priority::Low).completed
        );
    }

    #[test]
    fn partial_degrade_batches_flush_at_the_deadline() {
        // Light load: low arrivals are ~170 µs apart, so an 8-slot
        // buffer with a 300 µs deadline almost never fills — partial
        // batches must still flush when the oldest member times out,
        // and the hold shows up as added low-class latency.
        let w = Workload::Poisson {
            rate_rps: 20_000.0,
            requests: 800,
            seed: 23,
        };
        let loose = SloPolicy {
            high_us: 100.0,
            low_us: 2_000.0,
        };
        let gate = BoundedQueues::new(64, 32).degrade_low_beyond(0);
        let base = FrontendConfig::new(w, loose).low_fraction(0.3);
        let batched_cfg = base
            .clone()
            .degrade_batching(DegradeBatching::new(8, 300.0, 0.25));
        let fleet = homogeneous(2, 10.0);
        let plain = simulate_frontend(&fleet, &LeastQueued, &gate, &base).unwrap();
        let batched = simulate_frontend(&fleet, &LeastQueued, &gate, &batched_cfg).unwrap();

        assert!(batched.degrade_batches > 0);
        assert!(
            batched.mean_degrade_batch < 8.0,
            "light load cannot keep filling the buffer, got mean {}",
            batched.mean_degrade_batch
        );
        // Nothing starves in the buffer: the whole low class completes.
        let low = batched.class(Priority::Low);
        assert_eq!(low.completed, low.offered, "deadline flushes everyone");
        // The hold window is the visible price of batching.
        assert!(
            low.latency.mean_us > plain.class(Priority::Low).latency.mean_us + 50.0,
            "holding for the batch must cost latency: {} vs {}",
            low.latency.mean_us,
            plain.class(Priority::Low).latency.mean_us
        );
        // ...but stays bounded by the deadline plus queueing/service.
        assert!(
            low.latency.max_us < 300.0 + 1_000.0,
            "no one waits past the flush deadline plus real work, got {}",
            low.latency.max_us
        );
    }

    #[test]
    fn hedge_cancellations_and_retry_wins_are_counted() {
        // Hedge at half the service time on a healthy fleet: the primary
        // is mid-service when the duplicate dispatches, finishes first,
        // and the losing hedge is cancelled.
        let hedged = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: 50_000.0,
                requests: 2000,
                seed: 11,
            },
            slo(),
        )
        .hedge(HedgeConfig::hedged(5.0));
        let s = simulate_frontend(&homogeneous(3, 10.0), &FirstIdle, &AdmitAll, &hedged).unwrap();
        assert!(s.hedges_cancelled > 0, "losing hedges must be counted");
        assert!(s.hedges_cancelled <= s.cancelled_attempts);
        assert!(s.hedges_cancelled <= s.hedges_issued);
        // Every issued hedge either wins (cancelling the primary) or is
        // itself cancelled, so each accounts for one cancellation.
        assert_eq!(s.cancelled_attempts, s.hedges_issued);
        assert_eq!(s.retry_wins, 0, "no fail-stops, no retries");

        // Retry-only fail-stop run: every lost request is saved by a
        // retry, and with no hedging the winning attempt of each saved
        // request *is* the retry.
        let retry = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: 190_000.0,
                requests: 3000,
                seed: 7,
            },
            slo(),
        )
        .faults(FaultPlan::new(vec![Fault::FailStop {
            shard: 0,
            at_us: 3_000.0,
            down_us: 8_000.0,
        }]))
        .hedge(HedgeConfig::retries_only());
        let s = simulate_frontend(&homogeneous(2, 10.0), &LeastQueued, &AdmitAll, &retry).unwrap();
        assert!(s.retry_wins > 0, "retried requests complete via the retry");
        assert!(s.retry_wins <= s.retries);
        assert_eq!(s.hedges_cancelled, 0, "no hedging in this run");
    }

    #[test]
    fn traced_run_matches_untraced_and_covers_every_request() {
        use sparsenn_obs::{check_nesting, chrome_trace, RingRecorder};

        // Hedging + a straggler + degrade/shed pressure: every span
        // kind the front end can emit shows up in one run.
        let cfg = FrontendConfig::new(
            Workload::Poisson {
                rate_rps: 230_000.0,
                requests: 2000,
                seed: 11,
            },
            slo(),
        )
        .low_fraction(0.4)
        .faults(FaultPlan::new(vec![Fault::Slowdown {
            shard: 0,
            at_us: 1_000.0,
            for_us: 10_000.0,
            factor: 20.0,
        }]))
        .hedge(HedgeConfig::hedged(60.0));
        let gate = BoundedQueues::new(12, 4).degrade_low_beyond(2);
        let fleet = homogeneous(2, 10.0);

        let plain = simulate_frontend(&fleet, &LeastQueued, &gate, &cfg).unwrap();
        let recorder = RingRecorder::new(1 << 16);
        let traced =
            simulate_frontend_traced(&fleet, &LeastQueued, &gate, &cfg, &recorder).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the simulation");

        let spans = recorder.spans();
        assert_eq!(recorder.dropped(), 0, "ring sized for the whole run");
        assert_eq!(check_nesting(&spans), None);

        // Every offered request resolves exactly once → exactly one
        // Request span per request, ids covering 0..requests.
        let mut request_ids: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Request)
            .map(|s| s.trace_id)
            .collect();
        request_ids.sort_unstable();
        let expect: Vec<u64> = (0..plain.requests as u64).collect();
        assert_eq!(request_ids, expect);

        // Admission verdicts partition the offered load.
        let count = |kind: SpanKind| spans.iter().filter(|s| s.kind == kind).count();
        let admitted: usize = plain.classes.iter().map(|c| c.admitted).sum();
        let degraded: usize = plain.classes.iter().map(|c| c.degraded).sum();
        let shed: usize = plain.classes.iter().map(|c| c.shed).sum();
        assert_eq!(count(SpanKind::Admit), admitted);
        assert_eq!(count(SpanKind::Degrade), degraded);
        assert_eq!(count(SpanKind::Shed), shed);
        assert!(shed > 0, "overload against bounded queues must shed");
        assert_eq!(count(SpanKind::Hedge), plain.hedges_issued);
        assert_eq!(count(SpanKind::Cancel), plain.cancelled_attempts);
        assert!(count(SpanKind::Queued) > 0);
        assert!(count(SpanKind::Attempt) > 0);

        // Same seed, fresh recorder: byte-identical export.
        let again = RingRecorder::new(1 << 16);
        simulate_frontend_traced(&fleet, &LeastQueued, &gate, &cfg, &again).unwrap();
        assert_eq!(chrome_trace(&spans), chrome_trace(&again.spans()));
    }
}

//! Sharded serving: one request queue, N simulated accelerators.
//!
//! The paper's north-star workload is heavy traffic — far more requests
//! than one simulated chip can absorb. A [`Fleet`] scales the serving
//! layer the way a datacenter does: it owns several independent
//! accelerator instances (*shards*, each any [`InferenceBackend`]) and
//! exposes them as a single backend. Every [`run`](InferenceBackend::run)
//! call asks the fleet's [`Scheduler`] which idle shard to check out
//! ([`FirstIdle`](super::FirstIdle) by default — the lowest-indexed idle
//! shard), executes on it, and returns it to the idle pool; when no shard
//! is usable the caller blocks until one frees up. The scheduler trait is
//! shared with the `sparsenn-serve` virtual-time simulator, so dispatch
//! policies validated against simulated latency curves serve live traffic
//! unchanged. Plugged into a [`Session`](super::Session), the session's
//! worker pool becomes the shared request queue and the fleet becomes the
//! dispatch layer.
//!
//! Because every substrate produces bit-exact outputs and deterministic
//! per-sample records, a fleet of *identical* shards preserves the
//! session's bit-identical-to-serial guarantee: whichever shard serves a
//! sample, its [`RunRecord`](super::RunRecord) is the same, and the session
//! folds records in sample order. (Heterogeneous fleets still classify
//! identically — outputs are bit-exact across substrates — but their
//! cycle/latency aggregates depend on which shard served which sample,
//! and batch *energy* is priced at shard 0's machine configuration and
//! technology node regardless of which shard did the work. Keep fleets
//! homogeneous when timing or power numbers matter.)

use crate::engine::admission::{AdmissionDecision, AdmissionGate, Priority};
use crate::engine::backends::{CycleAccurateBackend, InferenceBackend};
use crate::engine::batch::BatchPolicy;
use crate::engine::record::{BatchRunRecord, RunRecord};
use crate::engine::scheduler::{FirstIdle, Scheduler, ShardView};
use crate::error::SparseNnError;
use sparsenn_energy::TechNode;
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_numeric::Q6_10;
use sparsenn_obs::{LatencyStat, LatencyStats, MetricsRegistry, P2Quantile};
use sparsenn_sim::MachineConfig;
use std::sync::{Condvar, Mutex};

/// Serving statistics for one shard of a [`Fleet`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Samples this shard has served.
    pub samples: u64,
    /// Modelled accelerator-busy time, microseconds (the sum of the served
    /// records' [`time_us`](super::RunRecord::time_us); 0 for timing-free
    /// shards such as the golden model).
    pub busy_us: f64,
    /// The live service-time estimate schedulers see as
    /// [`ShardView::service_us`]: the plain observed mean by default, an
    /// EWMA when the fleet was built with [`Fleet::with_service_alpha`],
    /// or an online percentile under
    /// [`Fleet::with_service_percentile`]. 0 before the shard has served
    /// anything.
    pub service_estimate_us: f64,
    /// Batched dispatches this shard has executed
    /// ([`Fleet::run_batch_classified`]; single-sample runs do not
    /// count).
    pub batches: u64,
    /// Samples served inside those batched dispatches (also included in
    /// [`samples`](Self::samples)).
    pub batch_samples: u64,
    /// Largest batch this shard has executed (0 before the first one).
    pub max_batch: u64,
}

impl ShardStats {
    /// Mean size of the batched dispatches this shard executed (0 before
    /// the first one).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batch_samples as f64 / self.batches as f64
    }
}

/// Admission-control outcomes accumulated by a [`Fleet`] built with
/// [`Fleet::with_admission`], split by [`Priority`] class (index by
/// [`Priority::index`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests the gate admitted at full fidelity.
    pub admitted: [u64; 2],
    /// Requests the gate asked to degrade. The live fleet serves them at
    /// full fidelity (there is no cheaper live substrate to switch to
    /// mid-call) but records the intent so operators see the pressure.
    pub degraded: [u64; 2],
    /// Requests shed — each surfaced to its caller as
    /// [`SparseNnError::Overloaded`].
    pub shed: [u64; 2],
}

/// Book-keeping behind the fleet's dispatch lock: which shards are idle,
/// plus per-shard serving stats.
struct Dispatch {
    /// Indices of currently-idle shards.
    idle: Vec<usize>,
    stats: Vec<ShardStats>,
    /// Per-shard service-time books — the unified `sparsenn-obs`
    /// accumulator (count/mean/max plus P² percentiles). Feeds the live
    /// estimate in every mode and the full distribution snapshot in
    /// [`Fleet::shard_service_stats`]. Under
    /// [`Fleet::with_service_percentile`] it also carries the extra
    /// tracked quantile schedulers rank by.
    service: Vec<LatencyStat>,
    /// Callers currently blocked waiting for a shard, per priority class
    /// — the live fleet's "queue depth", which is what the admission gate
    /// bounds.
    waiting: [usize; 2],
    /// Admission outcomes (only advanced when a gate is installed).
    admission: AdmissionStats,
}

/// N independent simulated accelerators serving one request queue.
///
/// See the [module docs](self) for the dispatch and determinism story.
///
/// # Example
///
/// ```
/// use sparsenn_core::engine::{Fleet, InferenceBackend};
/// use sparsenn_core::datasets::DatasetKind;
/// use sparsenn_core::model::fixedpoint::UvMode;
/// use sparsenn_core::SystemBuilder;
///
/// let system = SystemBuilder::new(DatasetKind::Basic)
///     .dims(&[784, 24, 10])
///     .rank(4)
///     .train_samples(60)
///     .test_samples(20)
///     .epochs(1)
///     .build();
///
/// // Four cycle-accurate shards behind one queue; one worker per shard.
/// let fleet = Fleet::of_machines(4, *system.machine().config()).unwrap();
/// let session = system.session_with(Box::new(fleet)).with_workers(4);
/// let summary = session.simulate_batch(16, UvMode::On).unwrap();
/// assert_eq!(summary.samples, 16);
/// ```
pub struct Fleet {
    shards: Vec<Box<dyn InferenceBackend>>,
    dispatch: Mutex<Dispatch>,
    /// Signalled whenever a shard returns to the idle pool.
    freed: Condvar,
    scheduler: Box<dyn Scheduler>,
    /// Admission gate consulted before every run; `None` admits all.
    admission: Option<Box<dyn AdmissionGate>>,
    /// EWMA weight for the live service-time estimate; `None` keeps the
    /// plain observed mean (equivalent to a per-sample weight of `1/n`).
    service_alpha: Option<f64>,
    /// When set, the live estimate is this percentile of each shard's
    /// observed service times (P²) instead of a mean.
    service_percentile: Option<f64>,
    /// How [`run_batch_classified`](Self::run_batch_classified) chunks a
    /// batched call across dispatches.
    batch_policy: BatchPolicy,
    name: String,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("name", &self.name)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Builds a fleet over the given shards.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::EmptyFleet`] when `shards` is empty.
    pub fn new(shards: Vec<Box<dyn InferenceBackend>>) -> Result<Self, SparseNnError> {
        if shards.is_empty() {
            return Err(SparseNnError::EmptyFleet);
        }
        let n = shards.len();
        // Homogeneity means "same modelled silicon", not "same label": two
        // cycle-accurate shards with different clocks or technology nodes
        // share a name() but not timing or energy behaviour, so compare a
        // full configuration fingerprint.
        let fp = config_fingerprint(shards[0].as_ref());
        let homogeneous = shards.iter().all(|s| config_fingerprint(s.as_ref()) == fp);
        let name = if homogeneous {
            format!("fleet({}x {})", n, shards[0].name())
        } else {
            format!("fleet({n} shards)")
        };
        Ok(Self {
            shards,
            dispatch: Mutex::new(Dispatch {
                idle: (0..n).collect(),
                stats: vec![ShardStats::default(); n],
                service: vec![LatencyStat::new(); n],
                waiting: [0; 2],
                admission: AdmissionStats::default(),
            }),
            freed: Condvar::new(),
            scheduler: Box::new(FirstIdle),
            admission: None,
            service_alpha: None,
            service_percentile: None,
            batch_policy: BatchPolicy::Immediate,
            name,
        })
    }

    /// Switches the live service-time estimate from the plain observed
    /// mean to an exponentially-weighted moving average with weight
    /// `alpha` (clamped to `(0, 1]`): each served sample updates the
    /// estimate by `est += alpha × (sample − est)`. The default (no
    /// call) keeps the plain mean — exactly an EWMA whose weight decays
    /// as `1/n` — which converges on stationary workloads but lags when
    /// a shard's service distribution *shifts* (a new network, a
    /// noisy neighbour): a fixed alpha forgets old samples at a constant
    /// rate, so [`FastestCompletion`](super::FastestCompletion) re-ranks
    /// shards within `~1/alpha` samples of a shift instead of `~n`.
    ///
    /// Mutually exclusive with
    /// [`with_service_percentile`](Self::with_service_percentile) — the
    /// last builder call wins.
    pub fn with_service_alpha(mut self, alpha: f64) -> Self {
        self.service_alpha = Some(alpha.clamp(f64::MIN_POSITIVE, 1.0));
        self.service_percentile = None;
        let d = self.dispatch.get_mut().unwrap_or_else(|e| e.into_inner());
        d.service = vec![LatencyStat::new(); self.shards.len()];
        self
    }

    /// Switches the live service-time estimate to an **online
    /// percentile**: schedulers see each shard's `p`-quantile of
    /// observed service times (P² streaming estimator —
    /// [`P2Quantile`](crate::engine::P2Quantile), constant space, no
    /// samples retained) instead of a mean. `p` is clamped to
    /// `[0.01, 0.999]`; `0.95` makes
    /// [`FastestCompletion`](super::FastestCompletion) rank shards by
    /// tail latency, which is the number serving SLOs are written
    /// against — a shard whose *mean* looks fast but whose tail is
    /// heavy (occasional uv_on worst-case samples, a noisy neighbour)
    /// stops attracting traffic it will serve late. Mutually exclusive
    /// with [`with_service_alpha`](Self::with_service_alpha) — the last
    /// builder call wins. The closed ROADMAP "online percentile service
    /// estimate" item.
    pub fn with_service_percentile(mut self, p: f64) -> Self {
        self.service_percentile = Some(P2Quantile::new(p).quantile());
        self.service_alpha = None;
        let d = self.dispatch.get_mut().unwrap_or_else(|e| e.into_inner());
        d.service = vec![LatencyStat::with_quantile(p); self.shards.len()];
        self
    }

    /// The percentile the live service estimate tracks, when
    /// [`with_service_percentile`](Self::with_service_percentile) is
    /// active.
    pub fn service_percentile(&self) -> Option<f64> {
        self.service_percentile
    }

    /// Replaces the dispatch policy (default: [`FirstIdle`]). The same
    /// [`Scheduler`] implementations drive the `sparsenn-serve` simulator,
    /// so a policy can be tuned on simulated latency curves and then
    /// dropped in here. Because every shard produces bit-exact outputs,
    /// the policy never changes results — only which shard serves which
    /// request (i.e. [`shard_stats`](Self::shard_stats) and, for
    /// heterogeneous fleets, timing aggregates).
    pub fn with_scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The dispatch policy's name (`first-idle` unless replaced).
    pub fn scheduler_name(&self) -> &str {
        self.scheduler.name()
    }

    /// Installs an admission gate on the live serving path. Every
    /// [`run`](InferenceBackend::run) (class [`Priority::High`]) and
    /// [`run_classified`](Self::run_classified) call consults the gate
    /// *before* waiting for a shard; a [`AdmissionDecision::Shed`]
    /// surfaces as [`SparseNnError::Overloaded`] immediately — the
    /// blocked-caller pool is the live fleet's queue, and the gate is
    /// what keeps it bounded. The same [`AdmissionGate`] trait drives the
    /// `sparsenn_serve::frontend` virtual-time simulator, so a gate tuned
    /// against simulated overload sweeps drops in here unchanged.
    pub fn with_admission(mut self, gate: Box<dyn AdmissionGate>) -> Self {
        self.admission = Some(gate);
        self
    }

    /// The admission gate's name, when one is installed.
    pub fn admission_name(&self) -> Option<&str> {
        self.admission.as_deref().map(AdmissionGate::name)
    }

    /// Admission outcomes since construction (all zero when no gate is
    /// installed — ungated requests are not counted as admitted).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.dispatch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .admission
    }

    /// Runs one request with an explicit [`Priority`] class through the
    /// admission gate (when installed) and the fleet's scheduler.
    /// [`InferenceBackend::run`] is exactly
    /// `run_classified(…, Priority::High)`.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::Overloaded`] when the gate sheds the request;
    /// otherwise whatever the serving shard returns.
    pub fn run_classified(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
        class: Priority,
    ) -> Result<RunRecord, SparseNnError> {
        if let Some(gate) = &self.admission {
            let mut d = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
            let views = self.shard_views(&d);
            let decision = gate.decide(class, d.waiting[class.index()], &views);
            match decision {
                AdmissionDecision::Admit => d.admission.admitted[class.index()] += 1,
                // No cheaper live substrate exists to switch to mid-call:
                // serve at full fidelity, record the intent.
                AdmissionDecision::Degrade => d.admission.degraded[class.index()] += 1,
                AdmissionDecision::Shed => {
                    d.admission.shed[class.index()] += 1;
                    return Err(SparseNnError::Overloaded { priority: class });
                }
            }
        }
        let guard = ShardGuard {
            fleet: self,
            shard: self.acquire(class),
        };
        let record = self.shards[guard.shard].run(net, input, mode)?;
        self.note_served(guard.shard, &record);
        Ok(record)
    }

    /// Caps how many samples one shard dispatch carries when the fleet
    /// serves batches ([`run_batch_classified`](Self::run_batch_classified)):
    /// the policy's [`max_batch`](BatchPolicy::max_batch) becomes the
    /// chunk size. The default ([`BatchPolicy::Immediate`]) sends the
    /// whole batch to one shard; `SizeOrDeadline { max, .. }` splits it
    /// into `max`-sample chunks that spread over idle shards. The
    /// *deadline* half of the policy governs queue-time decisions and is
    /// exercised by the `sparsenn-serve` virtual-time simulator — the
    /// live fleet only ever sees batches that have already formed.
    pub fn with_batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.batch_policy = policy;
        self
    }

    /// The installed batching policy ([`BatchPolicy::Immediate`] unless
    /// replaced).
    pub fn batch_policy(&self) -> BatchPolicy {
        self.batch_policy
    }

    /// Runs a batch of requests with an explicit [`Priority`] class: the
    /// batch is split into chunks of at most
    /// [`BatchPolicy::max_batch`] samples, each chunk passes the
    /// admission gate (counting every sample it carries), checks out
    /// *one* shard, and executes there as a true batched dispatch
    /// ([`InferenceBackend::run_batch`]) — W rows are read once per
    /// chunk on batch-native substrates. Per-sample records are
    /// bit-identical to serial [`run`](InferenceBackend::run) calls.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::EmptyBatch`] for an empty input slice;
    /// [`SparseNnError::Overloaded`] when the gate sheds a chunk (any
    /// chunks already served are discarded — the caller sees the batch
    /// fail as a unit); otherwise whatever the serving shard returns.
    pub fn run_batch_classified(
        &self,
        net: &FixedNetwork,
        inputs: &[Vec<Q6_10>],
        mode: UvMode,
        class: Priority,
    ) -> Result<BatchRunRecord, SparseNnError> {
        if inputs.is_empty() {
            return Err(SparseNnError::EmptyBatch);
        }
        let chunk_size = self.batch_policy.max_batch().min(inputs.len()).max(1);
        let mut folded: Option<BatchRunRecord> = None;
        for chunk in inputs.chunks(chunk_size) {
            if let Some(gate) = &self.admission {
                let mut d = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
                let views = self.shard_views(&d);
                let decision = gate.decide(class, d.waiting[class.index()], &views);
                let n = chunk.len() as u64;
                match decision {
                    AdmissionDecision::Admit => d.admission.admitted[class.index()] += n,
                    AdmissionDecision::Degrade => d.admission.degraded[class.index()] += n,
                    AdmissionDecision::Shed => {
                        d.admission.shed[class.index()] += n;
                        return Err(SparseNnError::Overloaded { priority: class });
                    }
                }
            }
            let guard = ShardGuard {
                fleet: self,
                shard: self.acquire(class),
            };
            let record = self.shards[guard.shard].run_batch(net, chunk, mode)?;
            self.note_served_batch(guard.shard, &record);
            match &mut folded {
                Some(acc) => acc.merge(record),
                None => folded = Some(record),
            }
        }
        Ok(folded.expect("non-empty input produces at least one chunk"))
    }

    /// A homogeneous fleet of `n` cycle-accurate machines, each configured
    /// identically — the sharded-datacenter setup whose batch summaries are
    /// bit-identical to a single machine's.
    ///
    /// # Errors
    ///
    /// [`SparseNnError::EmptyFleet`] when `n == 0`.
    pub fn of_machines(n: usize, cfg: MachineConfig) -> Result<Self, SparseNnError> {
        Self::new(
            (0..n)
                .map(|_| {
                    Box::new(CycleAccurateBackend::with_config(cfg)) as Box<dyn InferenceBackend>
                })
                .collect(),
        )
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard serving statistics accumulated so far.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.dispatch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats
            .clone()
    }

    /// Per-shard service-time *distributions* (mean/p50/p95/p99/max from
    /// the unified `sparsenn-obs` book) — richer than the single live
    /// estimate in [`ShardStats::service_estimate_us`]. One entry per
    /// observation fold: per sample in mean/EWMA modes, per dispatch
    /// under [`with_service_percentile`](Self::with_service_percentile).
    pub fn shard_service_stats(&self) -> Vec<LatencyStats> {
        self.dispatch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .service
            .iter()
            .map(LatencyStat::stats)
            .collect()
    }

    /// Exports the fleet's books into a [`MetricsRegistry`] under
    /// `fleet.*` names: per-shard counters (`fleet.shard0.samples`, …),
    /// service-time gauges, and the admission ledger when a gate is
    /// installed.
    pub fn export_metrics(&self, registry: &mut MetricsRegistry) {
        let d = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        for (i, (s, svc)) in d.stats.iter().zip(&d.service).enumerate() {
            let p = format!("fleet.shard{i}");
            registry.inc(&format!("{p}.samples"), s.samples);
            registry.inc(&format!("{p}.batches"), s.batches);
            registry.inc(&format!("{p}.batch_samples"), s.batch_samples);
            registry.set_gauge(&format!("{p}.busy_us"), s.busy_us);
            registry.set_gauge(&format!("{p}.max_batch"), s.max_batch as f64);
            registry.set_gauge(&format!("{p}.service_estimate_us"), s.service_estimate_us);
            registry.record_latency(&format!("{p}.service"), &svc.stats());
        }
        let a = d.admission;
        for (class, idx) in [("high", 0), ("low", 1)] {
            registry.inc(
                &format!("fleet.admission.{class}.admitted"),
                a.admitted[idx],
            );
            registry.inc(
                &format!("fleet.admission.{class}.degraded"),
                a.degraded[idx],
            );
            registry.inc(&format!("fleet.admission.{class}.shed"), a.shed[idx]);
        }
    }

    /// Checks out the shard the scheduler picks, blocking until one is
    /// usable.
    ///
    /// The live fleet has no per-shard queues — blocked callers *are* the
    /// central queue — so only an idle shard can be checked out. A pick of
    /// a busy shard (e.g. [`FastestCompletion`](super::FastestCompletion)
    /// preferring a loaded fast machine over an idle slow one) makes the
    /// caller wait for the next release and ask again; once the preferred
    /// shard frees it is idle and the pick lands. If the policy declines
    /// every shard while *nothing* is running, the lowest-indexed idle
    /// shard is used instead — no release would ever arrive, so waiting
    /// would deadlock the caller.
    fn acquire(&self, class: Priority) -> usize {
        let mut d = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(i) = self.pick_idle(&d) {
            d.idle.retain(|&j| j != i);
            return i;
        }
        // Blocked callers are the live fleet's queue: count this one in
        // its class so the admission gate sees the true waiting depth.
        d.waiting[class.index()] += 1;
        loop {
            d = self.freed.wait(d).unwrap_or_else(|e| e.into_inner());
            if let Some(i) = self.pick_idle(&d) {
                d.idle.retain(|&j| j != i);
                d.waiting[class.index()] -= 1;
                return i;
            }
        }
    }

    /// Builds the scheduler-facing snapshot of every shard. Live shards
    /// never fail today, so they are always healthy; the `ShardView`
    /// health bit exists for the frontend simulator's fault timelines.
    fn shard_views(&self, d: &Dispatch) -> Vec<ShardView> {
        (0..self.shards.len())
            .map(|i| {
                let idle = d.idle.contains(&i);
                let s = &d.stats[i];
                // Best live estimate of this shard's service time: the
                // running estimate maintained by note_served — the plain
                // mean by default, an EWMA under with_service_alpha
                // (0 before the first run).
                let est_us = s.service_estimate_us;
                ShardView {
                    healthy: true,
                    idle,
                    depth: usize::from(!idle),
                    backlog_us: if idle { 0.0 } else { est_us },
                    service_us: est_us,
                }
            })
            .collect()
    }

    /// Asks the scheduler for a shard and validates the pick against the
    /// idle set. `None` means "wait and re-ask after the next release".
    fn pick_idle(&self, d: &Dispatch) -> Option<usize> {
        if d.idle.is_empty() {
            return None;
        }
        let views = self.shard_views(d);
        match self.scheduler.pick(&views) {
            Some(i) if views.get(i).is_some_and(|v| v.idle) => Some(i),
            // The pick is busy or invalid. Legitimate to wait while some
            // shard is running (its release re-triggers the pick); with
            // every shard idle nothing will ever be released, so fall
            // back to the first idle shard to guarantee progress.
            _ if d.idle.len() == self.shards.len() => d.idle.iter().min().copied(),
            _ => None,
        }
    }

    /// Returns a shard to the idle pool.
    fn release(&self, shard: usize) {
        let mut d = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        d.idle.push(shard);
        drop(d);
        // All waiters re-run the pick: a selective scheduler may have a
        // waiter declining this shard while another would take it, so a
        // single wake-up could stall behind the wrong waiter.
        self.freed.notify_all();
    }

    /// Credits a successfully served sample to a shard's statistics and
    /// folds its service time into the live estimate (plain mean, EWMA
    /// under [`with_service_alpha`](Self::with_service_alpha), or an
    /// online percentile under
    /// [`with_service_percentile`](Self::with_service_percentile)).
    fn note_served(&self, shard: usize, record: &RunRecord) {
        let mut guard = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        let d = &mut *guard;
        let x = record.time_us();
        d.service[shard].observe(x);
        let s = &mut d.stats[shard];
        s.samples += 1;
        s.busy_us += x;
        s.service_estimate_us = if self.service_percentile.is_some() {
            d.service[shard].quantile_estimate().unwrap_or(0.0)
        } else if let Some(alpha) = self.service_alpha {
            let alpha = if s.samples == 1 {
                1.0 // seed the estimate with the first observation
            } else {
                alpha
            };
            s.service_estimate_us + alpha * (x - s.service_estimate_us)
        } else {
            // Plain mean — the exact running mean the shared book keeps.
            d.service[shard].mean_us()
        };
    }

    /// Credits a batched dispatch to a shard's statistics. Each sample
    /// contributes the batch's *amortized* per-sample latency
    /// ([`BatchRunRecord::mean_time_us`]) to the service estimate — that
    /// is what the next request dispatched to this shard will observe —
    /// so under the plain-mean default the estimate stays the observed
    /// mean of per-sample service times, exactly as if `note_served` had
    /// seen each sample individually at the amortized latency.
    fn note_served_batch(&self, shard: usize, record: &BatchRunRecord) {
        let b = record.batch_size() as u64;
        if b == 0 {
            return;
        }
        let per_sample_us = record.mean_time_us();
        let mut guard = self.dispatch.lock().unwrap_or_else(|e| e.into_inner());
        let d = &mut *guard;
        if self.service_percentile.is_some() {
            // One dispatch = one observation of the amortized latency:
            // the tail the tracker models is over dispatches, which is
            // what a queued request actually waits behind.
            d.service[shard].observe(per_sample_us);
        } else {
            // Every sample in the dispatch observed the amortized
            // latency — the book's mean stays the observed per-sample
            // mean, exactly as if each sample were noted individually.
            d.service[shard].observe_weighted(per_sample_us, b);
        }
        let s = &mut d.stats[shard];
        let first = s.samples == 0;
        s.samples += b;
        s.busy_us += record.batch_time_us;
        s.service_estimate_us = if self.service_percentile.is_some() {
            d.service[shard].quantile_estimate().unwrap_or(0.0)
        } else if let Some(alpha) = self.service_alpha {
            let weight = if first {
                1.0 // seed the estimate with the first dispatch
            } else {
                alpha
            };
            s.service_estimate_us + weight * (per_sample_us - s.service_estimate_us)
        } else {
            d.service[shard].mean_us()
        };
        s.batches += 1;
        s.batch_samples += b;
        s.max_batch = s.max_batch.max(b);
    }
}

/// The identity a [`Fleet`] considers for homogeneity: substrate name,
/// technology node and (when present) the full machine configuration —
/// two shards agreeing on all three are interchangeable for timing and
/// energy, not just for outputs.
fn config_fingerprint(shard: &dyn InferenceBackend) -> String {
    format!(
        "{}|{}nm|{:?}",
        shard.name(),
        shard.tech_node().nm(),
        shard.machine_config()
    )
}

/// Returns the shard on drop, so neither an error return nor a panicking
/// shard backend can leak serving capacity (the session converts the panic
/// into [`SparseNnError::WorkerPanicked`], and the fleet stays whole).
struct ShardGuard<'a> {
    fleet: &'a Fleet,
    shard: usize,
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        self.fleet.release(self.shard);
    }
}

impl InferenceBackend for Fleet {
    fn name(&self) -> &str {
        &self.name
    }

    /// The first shard's machine configuration (for a homogeneous fleet,
    /// every shard's). In a *mixed* fleet the other shards' events are
    /// priced on this configuration too — see
    /// [`tech_node`](Self::tech_node) for the caveat.
    fn machine_config(&self) -> Option<&MachineConfig> {
        self.shards[0].machine_config()
    }

    /// The first shard's technology node. Batch summaries price the whole
    /// fleet's events at this node, which is only physically meaningful
    /// when every shard models the same silicon — for a fleet mixing
    /// nodes (say DNN-Engine at 28 nm beside the 65 nm machine), outputs
    /// and accuracy stay exact but the energy aggregate follows whichever
    /// shard is listed first. Keep fleets homogeneous
    /// ([`Fleet::of_machines`]) when the power numbers matter.
    fn tech_node(&self) -> TechNode {
        self.shards[0].tech_node()
    }

    fn run(
        &self,
        net: &FixedNetwork,
        input: &[Q6_10],
        mode: UvMode,
    ) -> Result<RunRecord, SparseNnError> {
        self.run_classified(net, input, mode, Priority::High)
    }

    /// Batches route through the fleet's chunking path
    /// ([`run_batch_classified`](Fleet::run_batch_classified) at
    /// [`Priority::High`]) instead of the serial default, so each chunk
    /// reaches a shard as one true batched dispatch.
    fn run_batch(
        &self,
        net: &FixedNetwork,
        inputs: &[Vec<Q6_10>],
        mode: UvMode,
    ) -> Result<BatchRunRecord, SparseNnError> {
        self.run_batch_classified(net, inputs, mode, Priority::High)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::backends::GoldenBackend;
    use sparsenn_linalg::init::seeded_rng;
    use sparsenn_model::{Mlp, PredictedNetwork};

    fn net_and_input() -> (FixedNetwork, Vec<Q6_10>) {
        let mut rng = seeded_rng(7);
        let mlp = Mlp::random(&[24, 48, 10], &mut rng);
        let net = PredictedNetwork::with_random_predictors(mlp, 3, &mut rng);
        let fixed = FixedNetwork::from_float(&net);
        let x: Vec<f32> = (0..24).map(|i| (i as f32 * 0.17).sin()).collect();
        let xq = fixed.quantize_input(&x);
        (fixed, xq)
    }

    #[test]
    fn empty_fleet_is_rejected() {
        assert_eq!(
            Fleet::new(Vec::new()).unwrap_err(),
            SparseNnError::EmptyFleet
        );
        assert_eq!(
            Fleet::of_machines(0, MachineConfig::default()).unwrap_err(),
            SparseNnError::EmptyFleet
        );
    }

    #[test]
    fn fleet_matches_a_single_machine_bit_for_bit() {
        let (net, x) = net_and_input();
        let single = CycleAccurateBackend::default();
        let fleet = Fleet::of_machines(3, MachineConfig::default()).unwrap();
        for mode in [UvMode::Off, UvMode::On] {
            let a = single.run(&net, &x, mode).unwrap();
            let b = fleet.run(&net, &x, mode).unwrap();
            assert_eq!(a.layers, b.layers, "{mode:?}");
        }
    }

    #[test]
    fn names_and_config_reflect_the_shards() {
        let fleet = Fleet::of_machines(2, MachineConfig::default()).unwrap();
        assert_eq!(fleet.name(), "fleet(2x cycle-accurate)");
        assert_eq!(fleet.shard_count(), 2);
        assert!(fleet.machine_config().is_some());
        assert_eq!(fleet.tech_node(), TechNode::n65());

        let mixed = Fleet::new(vec![
            Box::new(GoldenBackend::new()) as Box<dyn InferenceBackend>,
            Box::new(CycleAccurateBackend::default()),
        ])
        .unwrap();
        assert_eq!(mixed.name(), "fleet(2 shards)");
    }

    /// Regression: two machine shards sharing a name but not a clock (or
    /// any other config field) are *not* homogeneous — comparing `name()`
    /// alone used to misclassify them.
    #[test]
    fn same_name_different_config_is_not_homogeneous() {
        let slow = MachineConfig {
            clock_ns: 10.0,
            ..MachineConfig::default()
        };
        let mixed_clock = Fleet::new(vec![
            Box::new(CycleAccurateBackend::default()) as Box<dyn InferenceBackend>,
            Box::new(CycleAccurateBackend::with_config(slow)),
        ])
        .unwrap();
        assert_eq!(
            mixed_clock.name(),
            "fleet(2 shards)",
            "differing clocks must not be labelled homogeneous"
        );
        // Identical configs still collapse to the homogeneous label.
        let twins = Fleet::of_machines(2, slow).unwrap();
        assert_eq!(twins.name(), "fleet(2x cycle-accurate)");
    }

    #[test]
    fn scheduler_is_pluggable_and_default_is_first_idle() {
        let fleet = Fleet::of_machines(2, MachineConfig::default()).unwrap();
        assert_eq!(fleet.scheduler_name(), "first-idle");
        let fleet = fleet.with_scheduler(Box::new(crate::engine::FastestCompletion));
        assert_eq!(fleet.scheduler_name(), "fastest-completion");
    }

    /// With fastest-expected-completion, serial callers spread over the
    /// fleet by modelled speed: once shard 0 has a measured mean service
    /// time, the still-unmeasured (estimate 0) shard 1 looks faster, and
    /// once both are measured the genuinely faster shard wins.
    #[test]
    fn fastest_completion_routes_to_the_faster_shard() {
        let (net, x) = net_and_input();
        let slow = MachineConfig {
            clock_ns: 20.0,
            ..MachineConfig::default()
        };
        let fleet = Fleet::new(vec![
            Box::new(CycleAccurateBackend::with_config(slow)) as Box<dyn InferenceBackend>,
            Box::new(CycleAccurateBackend::default()),
        ])
        .unwrap()
        .with_scheduler(Box::new(crate::engine::FastestCompletion));
        for _ in 0..6 {
            fleet.run(&net, &x, UvMode::On).unwrap();
        }
        let stats = fleet.shard_stats();
        assert_eq!(stats.iter().map(|s| s.samples).sum::<u64>(), 6);
        // Warm-up probes each shard once; every later call lands on the
        // 2 ns shard, never again on the 20 ns one.
        assert_eq!(stats[0].samples, 1, "slow shard serves only its probe");
        assert_eq!(stats[1].samples, 5);
    }

    /// A record whose only layer models `us` microseconds of service.
    fn timed_record(us: f64) -> RunRecord {
        RunRecord {
            backend: "test".into(),
            layers: vec![crate::engine::LayerRecord {
                output: vec![Q6_10::ZERO],
                mask: None,
                cycles: 0,
                vu_cycles: 0,
                w_cycles: 0,
                time_us: us,
                events: sparsenn_sim::MachineEvents::default(),
            }],
        }
    }

    /// The ROADMAP follow-up: under a *shifted* service distribution the
    /// plain observed mean lags for as many samples as it has history,
    /// while a fixed-alpha EWMA re-converges at a constant rate — so
    /// FastestCompletion re-ranks shards promptly after the shift.
    #[test]
    fn ewma_tracks_a_shifted_service_distribution_where_the_mean_lags() {
        let mean_fleet = Fleet::of_machines(1, MachineConfig::default()).unwrap();
        let ewma_fleet = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_service_alpha(0.3);
        // 50 samples at 10 µs, then the distribution shifts to 100 µs.
        for fleet in [&mean_fleet, &ewma_fleet] {
            for _ in 0..50 {
                fleet.note_served(0, &timed_record(10.0));
            }
            for _ in 0..10 {
                fleet.note_served(0, &timed_record(100.0));
            }
        }
        let mean_est = mean_fleet.shard_stats()[0].service_estimate_us;
        let ewma_est = ewma_fleet.shard_stats()[0].service_estimate_us;
        // After 10 post-shift samples the EWMA is nearly converged…
        assert!(
            ewma_est > 90.0,
            "EWMA estimate {ewma_est:.1} should track the shift"
        );
        // …while the plain mean is still dominated by stale history.
        assert!(mean_est < 30.0, "plain mean {mean_est:.1} should lag");
        // And without a shift the default estimate equals the mean.
        assert!(
            (mean_fleet.shard_stats()[0].busy_us / 60.0 - mean_est).abs() < 1e-9,
            "default estimate is the plain observed mean"
        );
    }

    /// The ROADMAP open item: an online *percentile* estimate. A shard
    /// with a fast mean but a heavy tail must rank by its tail under
    /// `with_service_percentile` — the mean hides exactly the samples an
    /// SLO is written against.
    #[test]
    fn percentile_estimate_sees_the_tail_the_mean_hides() {
        let mean_fleet = Fleet::of_machines(1, MachineConfig::default()).unwrap();
        let p95_fleet = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_service_percentile(0.95);
        assert_eq!(p95_fleet.service_percentile(), Some(0.95));
        assert_eq!(mean_fleet.service_percentile(), None);
        // 19 of 20 samples at 10 µs, 1 at 500 µs (uv_on worst case).
        for fleet in [&mean_fleet, &p95_fleet] {
            for i in 0..200 {
                let us = if i % 20 == 19 { 500.0 } else { 10.0 };
                fleet.note_served(0, &timed_record(us));
            }
        }
        let mean_est = mean_fleet.shard_stats()[0].service_estimate_us;
        let p95_est = p95_fleet.shard_stats()[0].service_estimate_us;
        assert!(
            (mean_est - 34.5).abs() < 1.0,
            "mean ≈ 34.5 µs, got {mean_est}"
        );
        assert!(
            p95_est > 100.0,
            "p95 {p95_est} must reflect the 500 µs tail"
        );
        // Sample accounting is unchanged by the estimator choice.
        assert_eq!(p95_fleet.shard_stats()[0].samples, 200);
        assert!(
            (p95_fleet.shard_stats()[0].busy_us - mean_fleet.shard_stats()[0].busy_us).abs() < 1e-9
        );
    }

    /// The percentile estimate flows into `ShardView::service_us`, so
    /// FastestCompletion ranks by tail latency.
    #[test]
    fn percentile_estimate_drives_dispatch() {
        let (net, x) = net_and_input();
        let fleet = Fleet::of_machines(2, MachineConfig::default())
            .unwrap()
            .with_service_percentile(0.9)
            .with_scheduler(Box::new(crate::engine::FastestCompletion));
        for _ in 0..4 {
            fleet.run(&net, &x, UvMode::On).unwrap();
        }
        let stats = fleet.shard_stats();
        assert_eq!(stats.iter().map(|s| s.samples).sum::<u64>(), 4);
        // Identical shards: the estimates agree wherever both served.
        for s in &stats {
            if s.samples > 0 {
                assert!(s.service_estimate_us > 0.0);
            }
        }
    }

    /// The two estimator builders are mutually exclusive: the last call
    /// decides which estimator `note_served` feeds.
    #[test]
    fn estimator_builders_last_call_wins() {
        let alpha_last = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_service_percentile(0.95)
            .with_service_alpha(0.5);
        assert_eq!(alpha_last.service_percentile(), None);
        for us in [10.0, 10.0, 100.0] {
            alpha_last.note_served(0, &timed_record(us));
        }
        // EWMA(0.5): 10, 10, 55 — a percentile tracker would report a
        // marker height, never this interpolation.
        assert!((alpha_last.shard_stats()[0].service_estimate_us - 55.0).abs() < 1e-9);

        let pct_last = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_service_alpha(0.5)
            .with_service_percentile(0.5);
        assert_eq!(pct_last.service_percentile(), Some(0.5));
        for us in [30.0, 10.0, 20.0] {
            pct_last.note_served(0, &timed_record(us));
        }
        assert_eq!(
            pct_last.shard_stats()[0].service_estimate_us,
            20.0,
            "median of the warmup buffer, not an EWMA"
        );
    }

    #[test]
    fn first_sample_seeds_the_ewma_estimate() {
        let fleet = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_service_alpha(0.1);
        fleet.note_served(0, &timed_record(40.0));
        assert_eq!(fleet.shard_stats()[0].service_estimate_us, 40.0);
    }

    #[test]
    fn stats_account_for_every_served_sample() {
        let (net, x) = net_and_input();
        let fleet = Fleet::of_machines(2, MachineConfig::default()).unwrap();
        for _ in 0..5 {
            fleet.run(&net, &x, UvMode::On).unwrap();
        }
        let stats = fleet.shard_stats();
        assert_eq!(stats.iter().map(|s| s.samples).sum::<u64>(), 5);
        // Serial callers always find shard 0 idle first.
        assert_eq!(stats[0].samples, 5);
        assert!(stats[0].busy_us > 0.0);
        assert_eq!(stats[1], ShardStats::default());
    }

    /// Admission on the live path: a zero-budget gate sheds every call
    /// as a typed `Overloaded` error; an open gate admits and counts.
    #[test]
    fn admission_gate_sheds_on_the_live_path() {
        use crate::engine::admission::{AdmissionDecision, AdmissionGate, BoundedQueues, Priority};

        let (net, x) = net_and_input();
        // waiting(0) >= cap(0): every request sheds immediately.
        struct ShedEverything;
        impl AdmissionGate for ShedEverything {
            fn name(&self) -> &str {
                "shed-everything"
            }
            fn decide(&self, _: Priority, _: usize, _: &[ShardView]) -> AdmissionDecision {
                AdmissionDecision::Shed
            }
        }
        let fleet = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_admission(Box::new(ShedEverything));
        assert_eq!(fleet.admission_name(), Some("shed-everything"));
        assert_eq!(
            fleet.run(&net, &x, UvMode::On).unwrap_err(),
            SparseNnError::Overloaded {
                priority: Priority::High
            }
        );
        assert_eq!(
            fleet
                .run_classified(&net, &x, UvMode::On, Priority::Low)
                .unwrap_err(),
            SparseNnError::Overloaded {
                priority: Priority::Low
            }
        );
        let stats = fleet.admission_stats();
        assert_eq!(stats.shed, [1, 1]);
        assert_eq!(stats.admitted, [0, 0]);
        assert_eq!(fleet.shard_stats()[0].samples, 0, "nothing was served");

        // A generous bounded gate admits serial callers (nothing waits).
        let open = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_admission(Box::new(BoundedQueues::new(4, 4)));
        for _ in 0..3 {
            open.run(&net, &x, UvMode::On).unwrap();
        }
        let stats = open.admission_stats();
        assert_eq!(stats.admitted, [3, 0]);
        assert_eq!(stats.shed, [0, 0]);
        assert_eq!(open.shard_stats()[0].samples, 3);
    }

    /// Without a gate nothing is counted and `run` serves as before.
    #[test]
    fn ungated_fleet_reports_zero_admission_stats() {
        let (net, x) = net_and_input();
        let fleet = Fleet::of_machines(1, MachineConfig::default()).unwrap();
        assert_eq!(fleet.admission_name(), None);
        fleet.run(&net, &x, UvMode::On).unwrap();
        assert_eq!(fleet.admission_stats(), AdmissionStats::default());
    }

    fn batch_inputs(net: &FixedNetwork, b: usize) -> Vec<Vec<Q6_10>> {
        (0..b)
            .map(|s| {
                let x: Vec<f32> = (0..24)
                    .map(|i| {
                        if (i + s) % 3 == 0 {
                            0.0
                        } else {
                            ((i + s) as f32 * 0.17).sin()
                        }
                    })
                    .collect();
                net.quantize_input(&x)
            })
            .collect()
    }

    /// The fleet's batched path returns per-sample records bit-identical
    /// to serial runs and accounts for the dispatch in the batch stats.
    #[test]
    fn batched_fleet_runs_are_bit_identical_and_accounted() {
        let (net, _) = net_and_input();
        let inputs = batch_inputs(&net, 5);
        let fleet = Fleet::of_machines(2, MachineConfig::default()).unwrap();
        assert_eq!(fleet.batch_policy(), BatchPolicy::Immediate);
        let batch = fleet.run_batch(&net, &inputs, UvMode::On).unwrap();
        assert_eq!(batch.batch_size(), 5);
        let single = CycleAccurateBackend::default();
        for (x, rec) in inputs.iter().zip(&batch.records) {
            assert_eq!(rec, &single.run(&net, x, UvMode::On).unwrap());
        }
        assert!(batch.batch_time_us <= batch.serial_time_us() + 1e-9);
        // Immediate policy: the whole batch is one dispatch on shard 0.
        let stats = fleet.shard_stats();
        assert_eq!(stats[0].batches, 1);
        assert_eq!(stats[0].batch_samples, 5);
        assert_eq!(stats[0].max_batch, 5);
        assert!((stats[0].mean_batch() - 5.0).abs() < 1e-12);
        assert_eq!(stats[0].samples, 5);
        assert!((stats[0].busy_us - batch.batch_time_us).abs() < 1e-9);
        assert_eq!(stats[1], ShardStats::default());
        // The service estimate is the amortized per-sample latency.
        assert!((stats[0].service_estimate_us - batch.mean_time_us()).abs() < 1e-9);
    }

    /// A size-capped policy chunks the batch into dispatches of at most
    /// `max` samples.
    #[test]
    fn batch_policy_caps_the_dispatch_size() {
        let (net, _) = net_and_input();
        let inputs = batch_inputs(&net, 7);
        let fleet = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_batch_policy(BatchPolicy::SizeOrDeadline {
                max: 3,
                deadline_us: 100.0,
            });
        let batch = fleet.run_batch(&net, &inputs, UvMode::Off).unwrap();
        assert_eq!(batch.batch_size(), 7);
        let s = fleet.shard_stats()[0];
        assert_eq!(s.batches, 3, "7 samples in chunks of 3: 3+3+1");
        assert_eq!(s.batch_samples, 7);
        assert_eq!(s.max_batch, 3);
        assert!((s.mean_batch() - 7.0 / 3.0).abs() < 1e-12);
    }

    /// Single-sample runs leave the batch accounting untouched.
    #[test]
    fn single_runs_do_not_count_as_batches() {
        let (net, x) = net_and_input();
        let fleet = Fleet::of_machines(1, MachineConfig::default()).unwrap();
        fleet.run(&net, &x, UvMode::On).unwrap();
        let s = fleet.shard_stats()[0];
        assert_eq!(s.samples, 1);
        assert_eq!((s.batches, s.batch_samples, s.max_batch), (0, 0, 0));
        assert_eq!(s.mean_batch(), 0.0);
    }

    /// The batched path consults the admission gate per chunk, counting
    /// every sample the chunk carries.
    #[test]
    fn batched_admission_counts_samples() {
        let (net, _) = net_and_input();
        let inputs = batch_inputs(&net, 4);
        let fleet = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_admission(Box::new(crate::engine::admission::BoundedQueues::new(4, 4)));
        fleet.run_batch(&net, &inputs, UvMode::Off).unwrap();
        assert_eq!(fleet.admission_stats().admitted, [4, 0]);

        struct ShedEverything;
        impl AdmissionGate for ShedEverything {
            fn name(&self) -> &str {
                "shed-everything"
            }
            fn decide(&self, _: Priority, _: usize, _: &[ShardView]) -> AdmissionDecision {
                AdmissionDecision::Shed
            }
        }
        let gated = Fleet::of_machines(1, MachineConfig::default())
            .unwrap()
            .with_admission(Box::new(ShedEverything));
        assert_eq!(
            gated
                .run_batch_classified(&net, &inputs, UvMode::Off, Priority::Low)
                .unwrap_err(),
            SparseNnError::Overloaded {
                priority: Priority::Low
            }
        );
        assert_eq!(gated.admission_stats().shed, [0, 4]);
        assert_eq!(gated.shard_stats()[0].samples, 0);
    }

    #[test]
    fn empty_batch_through_the_fleet_is_a_typed_error() {
        let (net, _) = net_and_input();
        let fleet = Fleet::of_machines(1, MachineConfig::default()).unwrap();
        assert_eq!(
            fleet.run_batch(&net, &[], UvMode::On).unwrap_err(),
            SparseNnError::EmptyBatch
        );
    }

    /// Under the plain-mean default, interleaving batched and single
    /// dispatches keeps the estimate equal to the observed per-sample
    /// mean.
    #[test]
    fn batched_estimate_stays_the_observed_mean() {
        let fleet = Fleet::of_machines(1, MachineConfig::default()).unwrap();
        fleet.note_served(0, &timed_record(10.0));
        fleet.note_served(0, &timed_record(20.0));
        // A 2-sample dispatch at 15 µs total: 7.5 µs amortized each.
        let batch = BatchRunRecord {
            records: vec![timed_record(10.0), timed_record(5.0)],
            batch_time_us: 15.0,
            batch_events: sparsenn_sim::MachineEvents::default(),
            w_reads_serial: 0,
            w_reads_amortized: 0,
        };
        fleet.note_served_batch(0, &batch);
        let s = fleet.shard_stats()[0];
        assert_eq!(s.samples, 4);
        assert!((s.busy_us - 45.0).abs() < 1e-12);
        // Mean of the per-sample service times seen: (10+20+7.5+7.5)/4.
        assert!(
            (s.service_estimate_us - 45.0 / 4.0).abs() < 1e-9,
            "estimate {} must equal the observed per-sample mean",
            s.service_estimate_us
        );
        assert_eq!(s.batches, 1);
        assert_eq!(s.max_batch, 2);
    }

    #[test]
    fn failed_runs_do_not_count_as_served() {
        let (net, _) = net_and_input();
        let fleet = Fleet::of_machines(1, MachineConfig::default()).unwrap();
        let short = vec![Q6_10::ZERO; 3];
        assert!(fleet.run(&net, &short, UvMode::On).is_err());
        assert_eq!(fleet.shard_stats()[0], ShardStats::default());
        // And the shard went back to the pool: a good run still succeeds.
        let (net, x) = net_and_input();
        assert!(fleet.run(&net, &x, UvMode::On).is_ok());
        assert_eq!(fleet.shard_stats()[0].samples, 1);
    }
}

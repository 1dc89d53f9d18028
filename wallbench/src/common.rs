//! Pieces every workload shares: its network and training schedule, the
//! golden oracle, repeated set-up, the closed-loop client loop and the
//! workload-property report.

use crate::report::{line, Report};
use crate::stats::{median, percentile};
use crate::trace::{self, Span, Tracer};
use sparsenn::datasets::{DatasetKind, DatasetSpec};
use sparsenn::engine::RunRecord;
use sparsenn::model::fixedpoint::{FixedNetwork, GoldenLayer, UvMode};
use sparsenn::numeric::Q6_10;
use sparsenn::train::TrainConfig;
use sparsenn::{SystemBuilder, TrainedSystem};
use std::time::Instant;

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test scale: small networks and splits, same code paths.
    pub tiny: bool,
    /// Corrupt the workload's reference (golden outputs, weight digest or
    /// reference summary) so its checks must fail.
    pub corrupt: bool,
}

/// One workload's network, data and training schedule. Set-up trains it
/// through [`SystemBuilder`], the library's public entry point.
#[derive(Clone, Debug)]
pub struct Recipe {
    pub kind: DatasetKind,
    pub dims: Vec<usize>,
    pub rank: usize,
    pub train: usize,
    pub test: usize,
    pub epochs: usize,
    pub seed: u64,
}

impl Recipe {
    /// The paper's 3-layer 784-1000-10 network on Basic.
    pub fn basic3(args: &Args) -> Self {
        let (hidden, train, test) = if args.tiny {
            (64, 40, 32)
        } else {
            (1000, 300, 256)
        };
        Self::new(DatasetKind::Basic, vec![784, hidden, 10], train, test, args)
    }

    /// Table IV's 5-layer 784-1024×3-10 network on `kind`.
    pub fn deep5(kind: DatasetKind, train: usize, test: usize, args: &Args) -> Self {
        let (h, train, test) = if args.tiny {
            (64, 40, 32)
        } else {
            (1024, train, test)
        };
        Self::new(kind, vec![784, h, h, h, 10], train, test, args)
    }

    fn new(kind: DatasetKind, dims: Vec<usize>, train: usize, test: usize, args: &Args) -> Self {
        Self {
            kind,
            dims,
            rank: if args.tiny { 4 } else { 15 },
            train,
            test,
            epochs: 1,
            seed: args.seed,
        }
    }

    pub fn spec(&self) -> DatasetSpec {
        DatasetSpec {
            kind: self.kind,
            train: self.train,
            test: self.test,
            seed: self.seed,
        }
    }

    pub fn config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            seed: self.seed,
            ..TrainConfig::default()
        }
    }

    /// Dataset generation, training and quantization.
    pub fn build(&self) -> TrainedSystem {
        SystemBuilder::new(self.kind)
            .dims(&self.dims)
            .rank(self.rank)
            .train_samples(self.train)
            .test_samples(self.test)
            .train_config(self.config())
            .build()
    }
}

/// Runs `setup` `reps` times, keeping the last result (earlier ones are
/// dropped before the next starts, so peak memory is one set-up's), and
/// returns it with the median set-up time in seconds.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// Golden forward passes (UV on) of the first `n` test images.
pub fn golden_outputs(sys: &TrainedSystem, n: usize) -> Vec<Vec<GoldenLayer>> {
    let fixed = sys.fixed();
    let test = &sys.split().test;
    (0..n.min(test.len()))
        .map(|i| fixed.forward(&fixed.quantize_input(test.image(i)), UvMode::On))
        .collect()
}

/// Flips one bit of every sample's final output, so any comparison
/// against the golden set must fail.
pub fn corrupt_golden(golden: &mut [Vec<GoldenLayer>]) {
    for g in golden {
        let out = &mut g.last_mut().expect("at least one layer").output;
        out[0] = Q6_10::from_raw(out[0].raw() ^ 1);
    }
}

/// Does a served record equal the golden pass, every layer's outputs and
/// predictor mask, bit for bit?
pub fn matches_golden(rec: &RunRecord, golden: &[GoldenLayer]) -> bool {
    rec.layers.len() == golden.len()
        && rec
            .layers
            .iter()
            .zip(golden)
            .all(|(r, g)| r.output == g.output && r.mask == g.mask)
}

/// Digest of a quantized network's weights and predictor factors.
/// Quantized values are integers, so a sign-of-zero difference in the
/// float weights cannot reach it.
pub fn weight_digest(net: &FixedNetwork) -> u64 {
    let mut h = crate::stats::Fnv::default();
    let mut matrix = |m: &sparsenn::model::fixedpoint::FixedMatrix| {
        h.u64(m.rows() as u64);
        h.u64(m.cols() as u64);
        for i in 0..m.rows() {
            for v in m.row(i) {
                h.bytes(&v.raw().to_le_bytes());
            }
        }
    };
    for w in net.layers() {
        matrix(w);
    }
    for p in net.predictors() {
        matrix(&p.u);
        matrix(&p.v);
    }
    h.0
}

/// Error, %, of the quantized network (UV on) over the test split.
pub fn fixed_test_error_pct(sys: &TrainedSystem, net: &FixedNetwork) -> f64 {
    let test = &sys.split().test;
    let wrong = (0..test.len())
        .filter(|&i| {
            net.classify(&net.quantize_input(test.image(i)), UvMode::On) != test.label(i) as usize
        })
        .count();
    100.0 * wrong as f64 / test.len().max(1) as f64
}

/// What one closed-loop client saw.
#[derive(Default)]
pub struct ClientLog {
    /// Op latency, µs, for ops that completed inside the measured window.
    pub lat_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// Measured outcome of a closed loop.
pub struct LoopResult {
    pub lat_us: Vec<f64>,
    pub seconds: f64,
    pub clients: usize,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

impl LoopResult {
    /// Ops per second: completed ops over the measured interval with
    /// several clients; with one, ops over the time spent in them (its
    /// ops are too long for a count over the interval to resolve). Both
    /// are means, which move smoothly as the host's speed drifts where a
    /// median jumps between speed regimes.
    pub fn ops_per_s(&self) -> f64 {
        if self.clients == 1 {
            return 1e6 * self.lat_us.len() as f64 / self.lat_us.iter().sum::<f64>();
        }
        self.lat_us.len() as f64 / self.seconds
    }

    pub fn p50(&self) -> f64 {
        median(&self.lat_us)
    }

    pub fn p75(&self) -> f64 {
        percentile(&self.lat_us, 75.0)
    }

    pub fn p90(&self) -> f64 {
        percentile(&self.lat_us, 90.0)
    }

    pub fn p99(&self) -> f64 {
        percentile(&self.lat_us, 99.0)
    }
}

/// Drives `clients` closed-loop clients with no think time: each sends
/// op `k = 0, 1, …` as soon as the previous one returned, for `warmup_s`
/// unrecorded seconds and then `seconds` measured ones. `check` judges
/// each op's result outside the timed interval.
pub fn closed_loop<T>(
    clients: usize,
    warmup_s: f64,
    seconds: f64,
    traced: bool,
    op: impl Fn(usize, u64, &mut Tracer) -> T + Sync,
    check: impl Fn(&T) -> bool + Sync,
) -> LoopResult {
    let origin = Instant::now();
    let start = warmup_s;
    let end = warmup_s + seconds;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (op, check) = (&op, &check);
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut tracer = Tracer::new(origin, traced, c);
                    let mut k = 0u64;
                    loop {
                        let t0 = origin.elapsed().as_secs_f64();
                        if t0 >= end {
                            break;
                        }
                        let out = op(c, k, &mut tracer);
                        let t1 = origin.elapsed().as_secs_f64();
                        log.attempted += 1;
                        if !check(&out) {
                            log.failed += 1;
                        }
                        if t0 >= start && t1 < end {
                            log.lat_us.push((t1 - t0) * 1e6);
                        }
                        k += 1;
                    }
                    log.spans = tracer.into_spans();
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut r = LoopResult {
        lat_us: Vec::new(),
        seconds,
        clients,
        attempted: 0,
        failed: 0,
        spans: Vec::new(),
    };
    let mut buffers = Vec::new();
    for log in logs {
        r.lat_us.extend(log.lat_us);
        r.attempted += log.attempted;
        r.failed += log.failed;
        buffers.push(log.spans);
    }
    r.spans = trace::merge(buffers);
    r
}

/// Client threads: two, never more than the host's cores.
pub fn clients() -> usize {
    crate::host::nproc().clamp(1, 2)
}

/// Records the properties a gain may depend on, measured on the
/// workload's own network and inputs.
pub fn properties(sys: &TrainedSystem, golden: &[Vec<GoldenLayer>], ops: usize, threads: usize) {
    let fixed = sys.fixed();
    let test = &sys.split().test;
    let n = golden.len().min(test.len());
    let mut zeros = 0usize;
    let mut pixels = 0usize;
    for i in 0..n {
        let x = fixed.quantize_input(test.image(i));
        zeros += x.iter().filter(|v| v.is_zero()).count();
        pixels += x.len();
    }
    let (mut inactive, mut rows) = (0usize, 0usize);
    for g in &golden[..n] {
        for l in g {
            if let Some(m) = &l.mask {
                inactive += m.iter().filter(|&&on| !on).count();
                rows += m.len();
            }
        }
    }
    let mut words = 0usize;
    for w in fixed.layers() {
        words += w.rows() * w.cols();
    }
    for p in fixed.predictors() {
        words += p.u.rows() * p.u.cols() + p.v.rows() * p.v.cols();
    }
    let bytes = (words * 2) as f64;
    let l2 = crate::host::l2_bytes() as f64;
    line(
        "property",
        "input_zero_frac",
        zeros as f64 / pixels.max(1) as f64,
        "ratio",
    );
    line(
        "property",
        "predicted_inactive_row_frac",
        inactive as f64 / rows.max(1) as f64,
        "ratio",
    );
    line("property", "weight_bytes", bytes, "B");
    line("property", "l2_bytes", l2, "B");
    line("property", "weights_over_l2", bytes / l2, "ratio");
    line("property", "ops", ops as f64, "count");
    line("property", "threads", threads as f64, "count");
}

/// The traced run's attribution: each child span's share of the op, the
/// op's own residual (time no child span covers) and the tracing
/// overhead against the untraced loop. Returns `(residual µs per op,
/// overhead µs per op)`.
pub fn attribution(
    op: &str,
    spans: &[Span],
    untraced_p50_us: f64,
    report: &mut Report,
) -> (f64, f64) {
    let ops = trace::durations_us(spans, op);
    let traced_p50 = median(&ops);
    let total_us: f64 = ops.iter().sum();
    let st = trace::self_times(spans);
    let per_op = |ns: u64| ns as f64 / 1e3 / ops.len().max(1) as f64;
    for (name, (self_ns, count)) in &st {
        let share = 100.0 * (*self_ns as f64 / 1e3) / total_us.max(1e-9);
        println!(
            "selftime {name} = {:.3} us/op over {count} spans, {share:.2} % of {op}",
            per_op(*self_ns)
        );
    }
    let residual = st.get(op).map_or(0.0, |(ns, _)| per_op(*ns));
    let parts: f64 = st
        .iter()
        .filter(|(n, _)| **n != op)
        .map(|(_, (ns, _))| per_op(*ns))
        .sum();
    println!(
        "residual {op}: mean op {:.3} us = parts {parts:.3} us + unattributed {residual:.3} us ({:.2} %)",
        total_us / ops.len().max(1) as f64,
        100.0 * residual * ops.len() as f64 / total_us.max(1e-9)
    );
    let overhead = traced_p50 - untraced_p50_us;
    println!(
        "overhead tracing: traced op p50 {traced_p50:.3} us - untraced {untraced_p50_us:.3} us = {overhead:.3} us ({:.2} %)",
        100.0 * overhead / untraced_p50_us.max(1e-9)
    );
    report.check(!ops.is_empty(), "traced loop recorded op spans");
    (residual, overhead)
}

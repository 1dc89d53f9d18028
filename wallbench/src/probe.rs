//! The per-layer probe of a traced run: times calls into each layer's
//! public functions on the workload's own network and inputs, one caller
//! at a time unless a metric is about concurrency. Every layer is probed
//! on every workload, so each workload's traced run reports the full
//! per-layer set; `WORKLOADS.md` names the workload each metric is meant
//! to explain.

use crate::capacity::{self, Capacity, ReplayTimes};
use crate::common::{self, Recipe};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use sparsenn::engine::{BatchPolicy, Fleet, InferenceBackend, KernelBackend, Priority};
use sparsenn::kernel::{BlockIndex, KernelRun, SparseKernel, Strategy, DEFAULT_BLOCK};
use sparsenn::linalg::init::seeded_rng;
use sparsenn::model::fixedpoint::{FixedNetwork, GoldenLayer, UvMode};
use sparsenn::model::{Mlp, PredictedNetwork};
use sparsenn::numeric::Q6_10;
use sparsenn::train::end_to_end::{self, PredictorActivation};
use sparsenn::train::svd_baseline;
use sparsenn::TrainedSystem;
use std::time::Instant;

/// Network layers the layer-indexed metrics cover: every workload's
/// network has at least these two weight layers.
const LAYERS: usize = 2;

pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.op_residual_us", "us"),
    ("trace.overhead_us", "us"),
    ("datasets.generate_s", "s"),
    ("model.from_float_ms", "ms"),
    ("model.quantize_us", "us"),
    ("train.warmstart_s", "s"),
    ("train.gradients_us", "us"),
    ("train.step_us", "us"),
    ("train.update_us", "us"),
    ("train.l0.zero_input_frac", "ratio"),
    ("train.l1.zero_input_frac", "ratio"),
    ("kernel.run_us", "us"),
    ("kernel.dense_run_us", "us"),
    ("kernel.macs_per_ns", "1/ns"),
    ("kernel.l0.prescan_us", "us"),
    ("kernel.l1.prescan_us", "us"),
    ("kernel.l0.live_block_frac", "ratio"),
    ("kernel.l1.live_block_frac", "ratio"),
    ("kernel.l0.active_row_frac", "ratio"),
    ("kernel.l1.active_row_frac", "ratio"),
    ("kernel.l0.w_words", "count"),
    ("kernel.l1.w_words", "count"),
    ("kernel.l0.macs", "count"),
    ("kernel.l1.macs", "count"),
    ("kernel.batch_us_per_sample.B1", "us"),
    ("kernel.batch_us_per_sample.B8", "us"),
    ("kernel.w_amortization.B8", "ratio"),
    ("engine.backend_us", "us"),
    ("engine.backend_overhead", "ratio"),
    ("engine.session_us", "us"),
    ("engine.unattributed_us", "us"),
    ("engine.client_scaling", "ratio"),
    ("engine.wait_us", "us"),
    ("engine.fleet_batch_us_per_sample", "us"),
    ("engine.batch_overhead", "ratio"),
    ("engine.shard_skew", "ratio"),
    ("engine.mean_batch", "count"),
    ("sim.uv_on_ms", "ms"),
    ("sim.uv_off_ms", "ms"),
    ("sim.host_ns_per_cycle", "ns"),
    ("sim.pool_scaling", "ratio"),
    ("sim.l0.cycles.uv_on", "cycles"),
    ("sim.l0.cycles.uv_off", "cycles"),
    ("sim.l1.cycles.uv_on", "cycles"),
    ("sim.l1.cycles.uv_off", "cycles"),
    ("energy.l0.energy_uj.uv_on", "uJ"),
    ("energy.l0.energy_uj.uv_off", "uJ"),
    ("energy.l1.energy_uj.uv_on", "uJ"),
    ("energy.l1.energy_uj.uv_off", "uJ"),
    ("serve.simulate_ns_per_request", "ns"),
    ("serve.batched_ns_per_request", "ns"),
    ("frontend.default_ns_per_request", "ns"),
    ("frontend.faulted_ns_per_request", "ns"),
];

/// Runs `f` and returns its result with the elapsed microseconds.
fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

fn kernel_matches(run: &KernelRun, golden: &[GoldenLayer]) -> bool {
    run.layers.len() == golden.len()
        && run
            .layers
            .iter()
            .zip(golden)
            .all(|(r, g)| r.output == g.output && r.mask == g.mask)
}

pub fn run(sys: &TrainedSystem, recipe: &Recipe, golden: &[Vec<GoldenLayer>], report: &mut Report) {
    let n = golden.len().min(32);
    let fixed = sys.fixed();
    let xs: Vec<Vec<Q6_10>> = (0..n)
        .map(|i| fixed.quantize_input(sys.split().test.image(i)))
        .collect();
    setup_layers(sys, recipe, report);
    train_layers(sys, recipe, report);
    let quantize_us = quantize_layer(sys, n, report);
    let (run_us, b8_us) = kernel_layers(fixed, &xs, &golden[..n], report);
    engine_layers(sys, &xs, &golden[..n], (quantize_us, run_us, b8_us), report);
    sim_layers(sys, recipe, &xs, &golden[..n], report);
}

fn setup_layers(sys: &TrainedSystem, recipe: &Recipe, report: &mut Report) {
    let (split, us) = time_us(|| recipe.spec().generate());
    report.check(split == *sys.split(), "dataset regenerates identically");
    report.metric("datasets.generate_s", us / 1e6, "s");
    let (net, us) = time_us(|| FixedNetwork::from_float(sys.network()));
    report.check(net == *sys.fixed(), "quantization repeats exactly");
    report.metric("model.from_float_ms", us / 1e3, "ms");
}

fn train_layers(sys: &TrainedSystem, recipe: &Recipe, report: &mut Report) {
    let cfg = recipe.config();
    let mut rng = seeded_rng(cfg.seed);
    let mlp = Mlp::random(&recipe.dims, &mut rng);
    let mut init = PredictedNetwork::with_random_predictors(mlp, recipe.rank, &mut rng);
    let ((), us) = time_us(|| svd_baseline::refresh_predictors(&mut init, recipe.rank, cfg.seed));
    report.metric("train.warmstart_s", us / 1e6, "s");

    let train = &sys.split().train;
    let samples = train.len().min(8);
    let act = PredictorActivation::Indicator;
    let mut stepped = sys.network().clone();
    let (mut grad, mut step) = (Vec::new(), Vec::new());
    let mut zeros = [0usize; LAYERS];
    let mut widths = [0usize; LAYERS];
    for i in 0..samples {
        let (x, label) = (train.image(i), train.label(i) as usize);
        let (_, us) =
            time_us(|| end_to_end::compute_gradients(sys.network(), x, label, cfg.lambda, act));
        grad.push(us);
        let (_, us) =
            time_us(|| end_to_end::sgd_step(&mut stepped, x, label, cfg.lr, cfg.lambda, act));
        step.push(us);
        let fwd = sys.network().forward_predicted(x);
        for l in 0..LAYERS {
            zeros[l] += fwd.post[l].iter().filter(|&&v| v == 0.0).count();
            widths[l] += fwd.post[l].len();
        }
    }
    let (g, s) = (median(&grad), median(&step));
    report.metric("train.gradients_us", g, "us");
    report.metric("train.step_us", s, "us");
    // `compute_gradients` builds dense gradient matrices that `sgd_step`
    // never materializes, so this difference can read negative.
    report.metric("train.update_us", s - g, "us");
    for l in 0..LAYERS {
        let frac = zeros[l] as f64 / widths[l].max(1) as f64;
        report.metric(format!("train.l{l}.zero_input_frac"), frac, "ratio");
    }
}

/// Median µs of one `quantize_input` call (timed in groups of 50).
fn quantize_layer(sys: &TrainedSystem, n: usize, report: &mut Report) -> f64 {
    let (fixed, test) = (sys.fixed(), &sys.split().test);
    let per_call: Vec<f64> = (0..n)
        .map(|i| {
            let (_, us) = time_us(|| {
                for _ in 0..50 {
                    std::hint::black_box(fixed.quantize_input(std::hint::black_box(test.image(i))));
                }
            });
            us / 50.0
        })
        .collect();
    let us = median(&per_call);
    report.metric("model.quantize_us", us, "us");
    us
}

/// Kernel metrics; returns (`kernel.run_us`, `kernel.batch_us_per_sample.B8`).
fn kernel_layers(
    fixed: &FixedNetwork,
    xs: &[Vec<Q6_10>],
    golden: &[Vec<GoldenLayer>],
    report: &mut Report,
) -> (f64, f64) {
    let kernel = SparseKernel::pack(fixed, DEFAULT_BLOCK);
    let mut s = kernel.scratch();
    let _ = kernel.run(&xs[0], UvMode::On, Strategy::Prescan, &mut s);
    let mut medians = [0.0; 2];
    let mut macs = 0u64;
    let mut per_layer = [[0u64; 6]; LAYERS];
    for (m, strategy) in [Strategy::Prescan, Strategy::Dense].into_iter().enumerate() {
        let mut us = Vec::with_capacity(xs.len());
        for (x, g) in xs.iter().zip(golden) {
            let (run, t) = time_us(|| kernel.run(x, UvMode::On, strategy, &mut s));
            us.push(t);
            report.check(kernel_matches(&run, g), "kernel run equals golden");
            if strategy == Strategy::Prescan {
                macs += run.layers.iter().map(|l| l.stats.macs).sum::<u64>();
                for (acc, l) in per_layer.iter_mut().zip(&run.layers) {
                    let st = l.stats;
                    for (a, v) in acc.iter_mut().zip([
                        st.live_blocks,
                        st.total_blocks,
                        st.active_rows,
                        st.rows,
                        st.w_words,
                        st.macs,
                    ]) {
                        *a += v;
                    }
                }
            }
        }
        medians[m] = median(&us);
    }
    let n = xs.len() as f64;
    report.metric("kernel.run_us", medians[0], "us");
    report.metric("kernel.dense_run_us", medians[1], "us");
    report.metric(
        "kernel.macs_per_ns",
        macs as f64 / n / (medians[0] * 1e3),
        "1/ns",
    );
    for (l, acc) in per_layer.iter().enumerate() {
        report.metric(
            format!("kernel.l{l}.live_block_frac"),
            acc[0] as f64 / acc[1].max(1) as f64,
            "ratio",
        );
        report.metric(
            format!("kernel.l{l}.active_row_frac"),
            acc[2] as f64 / acc[3].max(1) as f64,
            "ratio",
        );
        report.metric(format!("kernel.l{l}.w_words"), acc[4] as f64 / n, "count");
        report.metric(format!("kernel.l{l}.macs"), acc[5] as f64 / n, "count");
        // Layer l's input: the image at l0, the golden layer l-1 output after.
        let mut idx = BlockIndex::new();
        let per_call: Vec<f64> = xs
            .iter()
            .zip(golden)
            .map(|(x, g)| {
                let input = if l == 0 { x } else { &g[l - 1].output };
                let (_, us) = time_us(|| {
                    for _ in 0..100 {
                        idx.prescan(std::hint::black_box(input), DEFAULT_BLOCK);
                    }
                });
                us / 100.0
            })
            .collect();
        report.metric(format!("kernel.l{l}.prescan_us"), median(&per_call), "us");
    }
    let mut b1 = Vec::new();
    for (x, g) in xs.iter().zip(golden) {
        let one = [x.clone()];
        let (batch, us) = time_us(|| kernel.run_batch(&one, UvMode::On, Strategy::Prescan, &mut s));
        report.check(
            kernel_matches(&batch.runs[0], g),
            "kernel batch of 1 equals golden",
        );
        b1.push(us);
    }
    let (mut b8, mut amort) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (chunk, gs) in xs.chunks(8).zip(golden.chunks(8)) {
            let (batch, us) =
                time_us(|| kernel.run_batch(chunk, UvMode::On, Strategy::Prescan, &mut s));
            report.check(
                batch.runs.iter().zip(gs).all(|(r, g)| kernel_matches(r, g)),
                "kernel batch equals golden",
            );
            b8.push(us / chunk.len() as f64);
            amort.push(batch.w_amortization());
        }
    }
    let b8_us = median(&b8);
    report.metric("kernel.batch_us_per_sample.B1", median(&b1), "us");
    report.metric("kernel.batch_us_per_sample.B8", b8_us, "us");
    report.metric("kernel.w_amortization.B8", median(&amort), "ratio");
    (medians[0], b8_us)
}

fn kernel_fleet() -> Fleet {
    let shards: Vec<Box<dyn InferenceBackend>> = (0..2)
        .map(|_| Box::new(KernelBackend::new()) as Box<dyn InferenceBackend>)
        .collect();
    Fleet::new(shards)
        .expect("two shards")
        .with_batch_policy(BatchPolicy::SizeOrDeadline {
            max: 8,
            deadline_us: 1000.0,
        })
}

fn engine_layers(
    sys: &TrainedSystem,
    xs: &[Vec<Q6_10>],
    golden: &[Vec<GoldenLayer>],
    (quantize_us, kernel_us, kernel_b8_us): (f64, f64, f64),
    report: &mut Report,
) {
    let fixed = sys.fixed();
    let backend = KernelBackend::new();
    let _ = backend.run(fixed, &xs[0], UvMode::On);
    let mut us = Vec::new();
    for (x, g) in xs.iter().zip(golden) {
        let (r, t) = time_us(|| backend.run(fixed, x, UvMode::On));
        report.check(
            r.is_ok_and(|r| common::matches_golden(&r, g)),
            "backend run equals golden",
        );
        us.push(t);
    }
    let backend_us = median(&us);
    let session = sys.kernel_session();
    let _ = session.run_sample(0, UvMode::On);
    us.clear();
    for (i, g) in golden.iter().enumerate() {
        let (r, t) = time_us(|| session.run_sample(i, UvMode::On));
        report.check(
            r.is_ok_and(|r| common::matches_golden(&r, g)),
            "session run equals golden",
        );
        us.push(t);
    }
    let session_us = median(&us);
    report.metric("engine.backend_us", backend_us, "us");
    report.metric("engine.backend_overhead", backend_us / kernel_us, "ratio");
    report.metric("engine.session_us", session_us, "us");
    report.metric(
        "engine.unattributed_us",
        session_us - quantize_us - backend_us,
        "us",
    );

    // Client scaling on one shared session, 1 client against 2.
    let n = golden.len();
    let mut at = Vec::new();
    for clients in [1, common::clients()] {
        let r = common::closed_loop(
            clients,
            0.1,
            0.6,
            false,
            |c, k, _: &mut Tracer| {
                let i = (c * n / clients + k as usize) % n;
                (i, session.run_sample(i, UvMode::On))
            },
            |(i, r)| {
                r.as_ref()
                    .is_ok_and(|r| common::matches_golden(r, &golden[*i]))
            },
        );
        report.ops(r.attempted, r.failed, "client-scaling runs");
        at.push((r.lat_us.len() as f64 / r.seconds, r.p50()));
    }
    report.metric("engine.client_scaling", at[1].0 / at[0].0, "ratio");
    report.metric("engine.wait_us", at[1].1 - at[0].1, "us");

    let fleet = kernel_fleet();
    let _ = fleet.run_batch_classified(fixed, &xs[..1], UvMode::On, Priority::High);
    us.clear();
    for _ in 0..2 {
        for (chunk, gs) in xs.chunks(8).zip(golden.chunks(8)) {
            let (r, t) =
                time_us(|| fleet.run_batch_classified(fixed, chunk, UvMode::On, Priority::High));
            let ok = r.is_ok_and(|b| {
                b.records
                    .iter()
                    .zip(gs)
                    .all(|(r, g)| common::matches_golden(r, g))
            });
            report.check(ok, "fleet batch equals golden");
            us.push(t / chunk.len() as f64);
        }
    }
    let fleet_us = median(&us);
    report.metric("engine.fleet_batch_us_per_sample", fleet_us, "us");
    report.metric("engine.batch_overhead", fleet_us / kernel_b8_us, "ratio");

    // Shard balance under two concurrent callers, on a fresh fleet.
    let fleet = kernel_fleet();
    std::thread::scope(|s| {
        for c in 0..common::clients() {
            let fleet = &fleet;
            s.spawn(move || {
                for chunk in xs.chunks(8).skip(c).step_by(2).cycle().take(4) {
                    let _ = fleet.run_batch_classified(fixed, chunk, UvMode::On, Priority::High);
                }
            });
        }
    });
    let stats = fleet.shard_stats();
    let samples: Vec<f64> = stats.iter().map(|s| s.samples as f64).collect();
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let max = samples.iter().copied().fold(0.0, f64::max);
    let batches: u64 = stats.iter().map(|s| s.batches).sum();
    let batch_samples: u64 = stats.iter().map(|s| s.batch_samples).sum();
    report.metric("engine.shard_skew", max / mean.max(1e-9), "ratio");
    report.metric(
        "engine.mean_batch",
        batch_samples as f64 / batches.max(1) as f64,
        "count",
    );
}

fn sim_layers(
    sys: &TrainedSystem,
    recipe: &Recipe,
    xs: &[Vec<Q6_10>],
    golden: &[Vec<GoldenLayer>],
    report: &mut Report,
) {
    let (fixed, machine) = (sys.fixed(), sys.machine());
    let samples = xs.len().min(2);
    let (mut wall_ns, mut cycles) = (0.0, 0u64);
    for mode in [UvMode::On, UvMode::Off] {
        let mut ms = Vec::new();
        for (x, g) in xs[..samples].iter().zip(golden) {
            let (run, us) = time_us(|| machine.try_run_network(fixed, x, mode));
            ms.push(us / 1e3);
            match run {
                Ok(run) if mode == UvMode::On => {
                    wall_ns += us * 1e3;
                    cycles += run.total_cycles();
                    let same = run
                        .layers
                        .iter()
                        .zip(g)
                        .all(|(r, g)| r.output == g.output && r.mask == g.mask);
                    report.check(same, "cycle-accurate run equals golden");
                }
                Ok(_) => {}
                Err(e) => report.check(false, &format!("cycle-accurate run: {e}")),
            }
        }
        let name = if mode == UvMode::On {
            "sim.uv_on_ms"
        } else {
            "sim.uv_off_ms"
        };
        report.metric(name, median(&ms), "ms");
    }
    report.metric(
        "sim.host_ns_per_cycle",
        wall_ns / cycles.max(1) as f64,
        "ns",
    );

    let pool_n = golden.len().min(4);
    let one = sys.session().with_workers(1);
    let many = sys.session().with_workers(common::clients());
    let _ = one.simulate_batch(1, UvMode::On);
    let (s1, t1) = time_us(|| one.simulate_batch(pool_n, UvMode::On));
    let (s2, t2) = time_us(|| many.simulate_batch(pool_n, UvMode::On));
    let off = many.simulate_batch(pool_n, UvMode::Off);
    report.metric("sim.pool_scaling", t1 / t2, "ratio");
    match (s1, s2, off) {
        (Ok(s1), Ok(on), Ok(off)) => {
            report.check(s1 == on, "pooled summary equals one worker's");
            for l in 0..LAYERS {
                report.metric(
                    format!("sim.l{l}.cycles.uv_on"),
                    on.layers[l].cycles,
                    "cycles",
                );
                report.metric(
                    format!("sim.l{l}.cycles.uv_off"),
                    off.layers[l].cycles,
                    "cycles",
                );
                report.metric(
                    format!("energy.l{l}.energy_uj.uv_on"),
                    on.layers[l].energy_uj,
                    "uJ",
                );
                report.metric(
                    format!("energy.l{l}.energy_uj.uv_off"),
                    off.layers[l].energy_uj,
                    "uJ",
                );
            }
        }
        _ => report.check(false, "pooled simulation"),
    }

    let requests = if golden.len() < 32 { 2_000 } else { 20_000 };
    let (service, batch) = match capacity::tables(sys, pool_n) {
        Ok(t) => t,
        Err(e) => return report.check(false, &format!("capacity tables: {e}")),
    };
    let model = Capacity::new(service, batch, requests, recipe.seed);
    let mut rt = ReplayTimes::default();
    let mut tracer = Tracer::new(Instant::now(), false, 0);
    report.check(
        model.replay(&mut tracer, 0, &mut rt).is_ok(),
        "capacity replay",
    );
    let per_req = |s: f64| s * 1e9 / requests as f64;
    report.metric("serve.simulate_ns_per_request", per_req(rt.serve), "ns");
    report.metric("serve.batched_ns_per_request", per_req(rt.batched), "ns");
    report.metric("frontend.default_ns_per_request", per_req(rt.default), "ns");
    report.metric("frontend.faulted_ns_per_request", per_req(rt.faulted), "ns");
}

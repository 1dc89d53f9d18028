//! The four workloads. Each sets itself up through `SystemBuilder`,
//! measures its own closed loop with tracing off and reports the
//! end-to-end metrics; with `--trace 1` it instead runs the loop half
//! untraced and half traced, attributes the traced op to its child spans,
//! and adds the per-layer probe on its own network.

use crate::capacity::{self, Capacity, ReplayTimes, Replays};
use crate::common::{self, Args, LoopResult, Recipe};
use crate::report::{line, Report};
use crate::stats::{median, Fnv, SplitMix};
use crate::trace::{self, Tracer};
use sparsenn::datasets::DatasetKind;
use sparsenn::engine::{BatchPolicy, Fleet, InferenceBackend, KernelBackend, Priority};
use sparsenn::model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn::train::end_to_end;
use sparsenn::SimulationSummary;
use std::sync::Mutex;

/// Set-ups per untraced run; the median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Unrecorded warm-up before each measured loop, seconds.
const WARMUP_S: f64 = 0.5;

/// Reports the shared end-to-end metrics of a measured loop.
fn end_to_end(report: &mut Report, setup_s: f64, r: &LoopResult) {
    report.ops(r.attempted, r.failed, "ops");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
    report.metric("ok_frac", report.ok_frac(), "ratio");
    report.metric("ops_per_s", r.ops_per_s(), "1/s");
    report.metric("op_p75_us", r.p75(), "us");
    report.metric("op_p90_us", r.p90(), "us");
    line("metric", "op_p50_us", r.p50(), "us");
    line("metric", "op_samples", r.lat_us.len() as f64, "count");
    line("metric", "failed_frac", 1.0 - report.ok_frac(), "ratio");
    line("metric", "setup_s", setup_s, "s");
    line("metric", "peak_rss_mb", crate::host::peak_rss_mb(), "MB");
}

/// Trace mode: the traced half's attribution and the per-layer probe.
fn traced(
    args: &Args,
    report: &mut Report,
    op: &str,
    untraced: &LoopResult,
    traced: &LoopResult,
    probe: impl FnOnce(&mut Report),
) {
    report.ops(untraced.attempted, untraced.failed, "untraced ops");
    report.ops(traced.attempted, traced.failed, "traced ops");
    let (residual, overhead) = common::attribution(op, &traced.spans, untraced.p50(), report);
    report.metric("trace.op_residual_us", residual, "us");
    report.metric("trace.overhead_us", overhead, "us");
    probe(report);
    let path = std::path::PathBuf::from(".wallbench")
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match trace::write_json(&traced.spans, &path) {
        Ok(()) => println!("spans {} written to {}", traced.spans.len(), path.display()),
        Err(e) => report.check(false, &format!("writing spans to {}: {e}", path.display())),
    }
}

/// `serve-sparse`: two closed-loop clients call `Session::run_sample`
/// (UV on), each on its own kernel session (a shared one makes the
/// clients phase-lock on the backend lock in one of two regimes per run;
/// the probe measures that contention); every record must equal the
/// golden pass bit for bit.
pub fn serve_sparse(args: &Args, report: &mut Report) {
    let recipe = Recipe::basic3(args);
    let setup = || {
        let sys = recipe.build();
        let mut golden = common::golden_outputs(&sys, usize::MAX);
        if args.corrupt {
            common::corrupt_golden(&mut golden);
        }
        let _ = sys.kernel_session().run_sample(0, UvMode::On);
        (sys, golden)
    };
    let ((sys, golden), setup_s) =
        common::repeated_setup(if args.trace { 1 } else { SETUP_REPS }, setup);
    let n = sys.split().test.len();
    let perm = SplitMix(args.seed ^ 0x5e55_10e5).permutation(n);
    let clients = common::clients();
    let pick = |c: usize, k: u64| perm[(c * n / clients + k as usize) % n];
    let check = |(i, r): &(
        usize,
        Result<sparsenn::engine::RunRecord, sparsenn::SparseNnError>,
    )| {
        r.as_ref()
            .is_ok_and(|rec| common::matches_golden(rec, &golden[*i]))
    };
    let sessions: Vec<_> = (0..clients).map(|_| sys.kernel_session()).collect();
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = common::closed_loop(
        clients,
        WARMUP_S,
        secs,
        false,
        |c, k, _| {
            let i = pick(c, k);
            (i, sessions[c].run_sample(i, UvMode::On))
        },
        check,
    );
    common::properties(&sys, &golden, plain.lat_us.len(), clients);
    if !args.trace {
        end_to_end(report, setup_s, &plain);
        line("metric", "req_throughput_rps", plain.ops_per_s(), "1/s");
        line("metric", "req_latency_p50_us", plain.p50(), "us");
        line("metric", "req_latency_p99_us", plain.p99(), "us");
        return;
    }
    // The session's path, decomposed so each layer gets its own span.
    let backends: Vec<_> = (0..clients).map(|_| KernelBackend::new()).collect();
    let (fixed, test) = (sys.fixed(), &sys.split().test);
    let spans = common::closed_loop(
        clients,
        WARMUP_S,
        secs,
        true,
        |c, k, t: &mut Tracer| {
            let i = pick(c, k);
            let r = t.span("request", i as u64, |t| {
                let x = t.span("model.quantize", i as u64, |_| {
                    fixed.quantize_input(test.image(i))
                });
                t.span("engine.backend", i as u64, |_| {
                    backends[c].run(fixed, &x, UvMode::On)
                })
            });
            (i, r)
        },
        check,
    );
    traced(args, report, "request", &plain, &spans, |report| {
        crate::probe::run(&sys, &recipe, &golden, report)
    });
}

/// Samples per `batch-dense` chunk.
const CHUNK: usize = 8;

/// `batch-dense`: two closed-loop clients, each with one 8-sample chunk
/// in flight through `Fleet::run_batch_classified` over two kernel
/// shards, on a network whose first layer sees no input zeros.
pub fn batch_dense(args: &Args, report: &mut Report) {
    let recipe = Recipe::deep5(DatasetKind::BgRand, 200, 128, args);
    let fleet = || {
        let shards: Vec<Box<dyn InferenceBackend>> = (0..2)
            .map(|_| Box::new(KernelBackend::new()) as Box<dyn InferenceBackend>)
            .collect();
        Fleet::new(shards)
            .expect("two shards")
            .with_batch_policy(BatchPolicy::SizeOrDeadline {
                max: CHUNK,
                deadline_us: 1000.0,
            })
    };
    let setup = || {
        let sys = recipe.build();
        let mut golden = common::golden_outputs(&sys, usize::MAX);
        if args.corrupt {
            common::corrupt_golden(&mut golden);
        }
        let f = fleet();
        let x = vec![sys.fixed().quantize_input(sys.split().test.image(0))];
        let _ = f.run_batch_classified(sys.fixed(), &x, UvMode::On, Priority::High);
        (sys, golden, f)
    };
    let ((sys, golden, fleet), setup_s) =
        common::repeated_setup(if args.trace { 1 } else { SETUP_REPS }, setup);
    let (fixed, test) = (sys.fixed(), &sys.split().test);
    let n = test.len();
    let perm = SplitMix(args.seed ^ 0xba7c_4de5).permutation(n);
    let clients = common::clients();
    let picks = |c: usize, k: u64| -> Vec<usize> {
        (0..CHUNK)
            .map(|j| perm[(c * n / clients + k as usize * CHUNK + j) % n])
            .collect()
    };
    type Chunk = (
        Vec<usize>,
        Result<sparsenn::engine::BatchRunRecord, sparsenn::SparseNnError>,
    );
    let check = |(idx, r): &Chunk| {
        r.as_ref().is_ok_and(|b| {
            b.records.len() == idx.len()
                && b.records
                    .iter()
                    .zip(idx)
                    .all(|(rec, &i)| common::matches_golden(rec, &golden[i]))
        })
    };
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = common::closed_loop(
        clients,
        WARMUP_S,
        secs,
        false,
        |c, k, _| {
            let idx = picks(c, k);
            let xs: Vec<_> = idx
                .iter()
                .map(|&i| fixed.quantize_input(test.image(i)))
                .collect();
            let r = fleet.run_batch_classified(fixed, &xs, UvMode::On, Priority::High);
            (idx, r)
        },
        check,
    );
    common::properties(&sys, &golden, plain.lat_us.len() * CHUNK, clients);
    if !args.trace {
        end_to_end(report, setup_s, &plain);
        line(
            "metric",
            "batch_samples_per_s",
            CHUNK as f64 * plain.ops_per_s(),
            "1/s",
        );
        line("metric", "batch_latency_p50_us", plain.p50(), "us");
        line("metric", "batch_latency_p99_us", plain.p99(), "us");
        return;
    }
    let spans = common::closed_loop(
        clients,
        WARMUP_S,
        secs,
        true,
        |c, k, t: &mut Tracer| {
            let idx = picks(c, k);
            let r = t.span("chunk", k, |t| {
                let xs: Vec<_> = t.span("model.quantize", k, |_| {
                    idx.iter()
                        .map(|&i| fixed.quantize_input(test.image(i)))
                        .collect()
                });
                t.span("engine.fleet_batch", k, |_| {
                    fleet.run_batch_classified(fixed, &xs, UvMode::On, Priority::High)
                })
            });
            (idx, r)
        },
        check,
    );
    traced(args, report, "chunk", &plain, &spans, |report| {
        crate::probe::run(&sys, &recipe, &golden, report)
    });
}

/// `train-basic`: repeated `end_to_end::train` (Algorithm 1) of the
/// 5-layer network on Basic, then `FixedNetwork::from_float`. Every
/// run's quantized weights must equal the set-up system's bit for bit.
pub fn train_basic(args: &Args, report: &mut Report) {
    let recipe = Recipe::deep5(DatasetKind::Basic, 96, 128, args);
    let setup = || {
        let sys = recipe.build();
        let digest = common::weight_digest(sys.fixed());
        (sys, digest)
    };
    let ((sys, mut expected), setup_s) =
        common::repeated_setup(if args.trace { 1 } else { SETUP_REPS }, setup);
    if args.corrupt {
        expected ^= 1;
    }
    let error_pct = common::fixed_test_error_pct(&sys, sys.fixed());
    let cfg = recipe.config();
    let check = |net: &FixedNetwork| common::weight_digest(net) == expected;
    let train = |t: &mut Tracer, k: u64| {
        let (net, _) = t.span("train.end_to_end", k, |_| {
            end_to_end::train(&recipe.dims, recipe.rank, sys.split(), &cfg)
        });
        t.span("model.from_float", k, |_| FixedNetwork::from_float(&net))
    };
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = common::closed_loop(1, WARMUP_S, secs, false, |_, k, t| train(t, k), check);
    let golden = common::golden_outputs(&sys, 16);
    common::properties(
        &sys,
        &golden,
        plain.lat_us.len() * recipe.train * recipe.epochs,
        1,
    );
    println!(
        "digest train.weights = {:#018x}",
        common::weight_digest(sys.fixed())
    );
    line("metric", "test_error_pct", error_pct, "%");
    if !args.trace {
        end_to_end(report, setup_s, &plain);
        let steps = (recipe.train * recipe.epochs) as f64;
        line(
            "metric",
            "train_steps_per_s",
            steps * plain.ops_per_s(),
            "1/s",
        );
        return;
    }
    let spans = common::closed_loop(
        1,
        WARMUP_S,
        secs,
        true,
        |_, k, t| t.span("train_run", k, |t| train(t, k)),
        check,
    );
    traced(args, report, "train_run", &plain, &spans, |report| {
        crate::probe::run(&sys, &recipe, &golden, report)
    });
}

/// Samples per mode in one capacity pass.
const PASS_SAMPLES: usize = 8;

/// `model-capacity`: cycle-accurate `simulate_batch` (worker pool) in
/// UV off and on, then one seeded Poisson stream replayed through the
/// serving simulators. The pooled summaries must equal the single-caller
/// ones and every replay must equal the first.
pub fn model_capacity(args: &Args, report: &mut Report) {
    let recipe = Recipe::deep5(DatasetKind::BgRand, 200, 128, args);
    let (table_n, requests) = if args.tiny { (2, 2_000) } else { (16, 100_000) };
    let setup = || {
        let sys = recipe.build();
        let tables = capacity::tables(&sys, table_n);
        (sys, tables)
    };
    let ((sys, tables), setup_s) =
        common::repeated_setup(if args.trace { 1 } else { SETUP_REPS }, setup);
    // The single-caller references the pooled runs must equal.
    let serial = sys.session();
    let off = serial.simulate_batch_serial(PASS_SAMPLES, UvMode::Off);
    let on = serial.simulate_batch_serial(PASS_SAMPLES, UvMode::On);
    let (Ok(ref_off), Ok(mut ref_on), Ok((service, batch))) = (off, on, tables) else {
        report.check(false, "capacity model set-up");
        return;
    };
    if args.corrupt {
        ref_on.layers[0].cycles += 1.0;
    }
    let model = Capacity::new(service, batch, requests, args.seed);
    let pool = sys.session().with_workers(common::clients());
    let first: Mutex<Option<Replays>> = Mutex::new(None);
    let times: Mutex<Vec<(f64, ReplayTimes)>> = Mutex::new(Vec::new());
    type Pass = (
        Option<(SimulationSummary, SimulationSummary, Replays)>,
        f64,
        ReplayTimes,
    );
    let pass = |t: &mut Tracer, k: u64| -> Pass {
        let (mut sim_s, mut rt) = (0.0, ReplayTimes::default());
        let off = capacity::timed(t, "sim.pool_uv_off", k, &mut sim_s, || {
            pool.simulate_batch(PASS_SAMPLES, UvMode::Off)
        });
        let on = capacity::timed(t, "sim.pool_uv_on", k, &mut sim_s, || {
            pool.simulate_batch(PASS_SAMPLES, UvMode::On)
        });
        let replays = model.replay(t, k, &mut rt);
        let out = match (off, on, replays) {
            (Ok(off), Ok(on), Ok(r)) => Some((off, on, r)),
            (off, on, r) => {
                eprintln!(
                    "capacity pass failed: {:?} {:?} {:?}",
                    off.err(),
                    on.err(),
                    r.err()
                );
                None
            }
        };
        (out, sim_s, rt)
    };
    let check = |(out, sim_s, rt): &Pass| {
        let Some((off, on, r)) = out else {
            return false;
        };
        times.lock().expect("times lock").push((*sim_s, *rt));
        let mut first = first.lock().expect("first-replay lock");
        let same = first.as_ref().is_none_or(|f| f == r);
        if first.is_none() {
            *first = Some(r.clone());
        }
        *off == ref_off && *on == ref_on && same
    };
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = common::closed_loop(1, WARMUP_S, secs, false, |_, k, t| pass(t, k), check);
    let golden = common::golden_outputs(&sys, 16);
    common::properties(&sys, &golden, plain.lat_us.len(), common::clients());
    let sum = |s: &SimulationSummary, f: fn(&sparsenn::LayerSummary) -> f64| {
        s.layers.iter().map(f).sum::<f64>()
    };
    let cyc = 100.0 * (1.0 - sum(&ref_on, |l| l.cycles) / sum(&ref_off, |l| l.cycles));
    let uj = 100.0 * (1.0 - sum(&ref_on, |l| l.energy_uj) / sum(&ref_off, |l| l.energy_uj));
    line("metric", "uv_cycle_reduction_pct (modelled)", cyc, "%");
    line("metric", "uv_energy_reduction_pct (modelled)", uj, "%");
    if let Some(r) = first.lock().expect("first-replay lock").as_ref() {
        let mut h = Fnv::default();
        h.bytes(format!("{ref_off:?}{ref_on:?}{r:?}").as_bytes());
        println!("digest capacity.summaries = {:#018x}", h.0);
    }
    if !args.trace {
        end_to_end(report, setup_s, &plain);
        let t = times.lock().expect("times lock");
        let rate = |work: f64, f: fn(&(f64, ReplayTimes)) -> f64| {
            work / median(&t.iter().map(f).collect::<Vec<_>>())
        };
        let req = model.requests as f64;
        line(
            "metric",
            "sim_samples_per_s",
            rate(2.0 * PASS_SAMPLES as f64, |x| x.0),
            "1/s",
        );
        line(
            "metric",
            "serve_sim_requests_per_s",
            rate(2.0 * req, |x| x.1.serve + x.1.batched),
            "1/s",
        );
        line(
            "metric",
            "frontend_sim_requests_per_s",
            rate(2.0 * req, |x| x.1.default + x.1.faulted),
            "1/s",
        );
        return;
    }
    let spans = common::closed_loop(
        1,
        WARMUP_S,
        secs,
        true,
        |_, k, t| t.span("pass", k, |t| pass(t, k)),
        check,
    );
    traced(args, report, "pass", &plain, &spans, |report| {
        crate::probe::run(&sys, &recipe, &golden, report)
    });
}

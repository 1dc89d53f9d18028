//! Soundness of the per-network memo behind `KernelBackend` and
//! `PartitionedMachine`: a backend serves whatever network it is handed,
//! however networks come and go.
//!
//! * Networks built, served and dropped in a loop reuse the same stack
//!   slot (and often the same heap blocks); every record must still equal
//!   the golden model's for the network actually passed.
//! * A separately built network with the same content, and a foreign
//!   same-shape network, produce records bit-identical to a fresh
//!   backend's.
//! * Two threads sharing one `KernelBackend` get golden results for their
//!   own samples.

use sparsenn::engine::{GoldenBackend, InferenceBackend, KernelBackend, PartitionedMachine};
use sparsenn::linalg::init::seeded_rng;
use sparsenn::model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn::model::{Mlp, PredictedNetwork};
use sparsenn::numeric::Q6_10;
use sparsenn::partition::InterChipConfig;
use sparsenn::sim::MachineConfig;
use std::sync::Barrier;

const DIMS: [usize; 3] = [24, 40, 10];

fn network(seed: u64) -> FixedNetwork {
    let mut rng = seeded_rng(seed);
    let mlp = Mlp::random(&DIMS, &mut rng);
    FixedNetwork::from_float(&PredictedNetwork::with_random_predictors(mlp, 3, &mut rng))
}

fn input(net: &FixedNetwork, seed: u64) -> Vec<Q6_10> {
    let x: Vec<f32> = (0..DIMS[0])
        .map(|i| {
            if (i as u64 * 7 + seed).is_multiple_of(3) {
                0.0
            } else {
                ((i as u64 + seed) as f32 * 0.41).sin()
            }
        })
        .collect();
    net.quantize_input(&x)
}

/// Outputs and masks of `backend` on `net` equal the golden model's.
fn matches_golden(backend: &dyn InferenceBackend, net: &FixedNetwork, x: &[Q6_10]) -> bool {
    let golden = GoldenBackend::new();
    [UvMode::Off, UvMode::On].into_iter().all(|mode| {
        let got = backend.run(net, x, mode).unwrap();
        let want = golden.run(net, x, mode).unwrap();
        got.layers.len() == want.layers.len()
            && got
                .layers
                .iter()
                .zip(&want.layers)
                .all(|(g, w)| g.output == w.output && g.mask == w.mask)
    })
}

fn partitioned(net: &FixedNetwork) -> PartitionedMachine {
    PartitionedMachine::new(net, MachineConfig::default(), 2, InterChipConfig::default())
        .expect("plannable")
}

#[test]
fn dropped_and_rebuilt_networks_are_never_served_stale() {
    let planned = network(1000);
    let kernel = KernelBackend::new();
    let pm = partitioned(&planned);
    for seed in 0..64 {
        let net = network(seed);
        let x = input(&net, seed);
        assert!(matches_golden(&kernel, &net, &x), "kernel, network {seed}");
        assert!(matches_golden(&pm, &net, &x), "partitioned, network {seed}");
    }
    // The planned network comes back after its cut was evicted.
    let x = input(&planned, 7);
    assert!(matches_golden(&pm, &planned, &x), "partitioned, planned");
}

#[test]
fn content_equal_and_foreign_networks_serve_bit_exact_records() {
    let net = network(5);
    let twin = network(5);
    let foreign = network(6);
    let x = input(&net, 3);
    let kernel = KernelBackend::new();
    let pm = partitioned(&net);
    for backend in [&kernel as &dyn InferenceBackend, &pm] {
        for mode in [UvMode::Off, UvMode::On] {
            let own = backend.run(&net, &x, mode).unwrap();
            assert_eq!(backend.run(&twin, &x, mode).unwrap(), own, "twin {mode:?}");
            let away = backend.run(&foreign, &x, mode).unwrap();
            assert_eq!(backend.run(&net, &x, mode).unwrap(), own, "back {mode:?}");
            let fresh: Box<dyn InferenceBackend> = if backend.name() == kernel.name() {
                Box::new(KernelBackend::new())
            } else {
                Box::new(partitioned(&foreign))
            };
            assert_eq!(
                away,
                fresh.run(&foreign, &x, mode).unwrap(),
                "foreign {mode:?}"
            );
        }
    }
}

#[test]
fn threads_sharing_one_kernel_backend_get_their_own_results() {
    let net = network(9);
    let kernel = KernelBackend::new();
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (kernel, net, start) = (&kernel, &net, &start);
            s.spawn(move || {
                start.wait();
                for k in 0..40 {
                    let x = input(net, t * 1000 + k);
                    assert!(matches_golden(kernel, net, &x), "thread {t}, sample {k}");
                }
            });
        }
    });
}

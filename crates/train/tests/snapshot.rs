//! Snapshot oracle for the trained weights.
//!
//! Training is deterministic for a given seed, so a change to the float
//! kernels underneath Algorithm 1 (`Matrix::matvec`, `matvec_t`,
//! `add_scaled_outer`, the truncated-SVD warm start) must leave every
//! trained weight bit for bit where it was. Each cell trains a network
//! with at least three hidden layers on a few dozen Basic images and
//! hashes (64-bit FNV-1a) the `f32` bits of every `W`, `U` and `V` plus
//! the per-epoch losses of the returned [`History`]. The values were
//! recorded from the serial-dot forward pass and the materialized
//! transposes of the warm-start SVD.

use sparsenn_datasets::{DatasetKind, DatasetSpec};
use sparsenn_linalg::Matrix;
use sparsenn_model::PredictedNetwork;
use sparsenn_train::{end_to_end, svd_baseline, History, TrainConfig};

/// FNV-1a over a stream of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for v in m.as_slice() {
            self.word(u64::from(v.to_bits()));
        }
    }
}

fn digest(net: &PredictedNetwork, history: &History) -> u64 {
    let mut h = Fnv::new();
    for layer in net.mlp().layers() {
        h.matrix(layer.w());
    }
    for p in net.predictors() {
        h.matrix(p.u());
        h.matrix(p.v());
    }
    for e in &history.epochs {
        h.word(u64::from(e.train_loss.to_bits()));
        h.word(u64::from(e.lr.to_bits()));
    }
    h.0
}

/// Odd hidden widths leave a remainder in any row blocking of the
/// forward pass; Basic images are ~70 % zeros and the gated ReLU
/// activations above them about as sparse.
const DIMS: [usize; 5] = [784, 67, 45, 29, 10];

fn split(seed: u64) -> sparsenn_datasets::SplitDataset {
    DatasetSpec {
        kind: DatasetKind::Basic,
        train: 40,
        test: 4,
        seed,
    }
    .generate()
}

fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 2,
        lr: 0.05,
        seed,
        ..TrainConfig::default()
    }
}

#[test]
fn end_to_end_training_is_bit_identical_to_the_recorded_weights() {
    let cells: [(u64, u64); 2] = [(1, 0xf77a_65c5_95b7_736d), (7, 0x4c34_277f_71f8_ab7e)];
    let got: Vec<(u64, u64)> = cells
        .iter()
        .map(|&(seed, _)| {
            let (net, history) = end_to_end::train(&DIMS, 5, &split(seed), &config(seed));
            (seed, digest(&net, &history))
        })
        .collect();
    assert_eq!(got, cells, "(seed, digest) per cell");
}

#[test]
fn svd_baseline_training_is_bit_identical_to_the_recorded_weights() {
    let (net, history) = svd_baseline::train(&DIMS, 5, &split(3), &config(3));
    let got = digest(&net, &history);
    assert_eq!(got, 0x8ce2_c113_850c_9d15, "digest {got:#018x}");
}

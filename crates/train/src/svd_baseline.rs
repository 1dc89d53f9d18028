//! The truncated-SVD predictor baseline (Davis et al. \[11\] / LRADNN \[12\]).
//!
//! `W` is trained by backprop through the predictor-gated forward pass, but
//! the predictor factors are **not** trained: at the start of every epoch
//! they are recomputed as the rank-`r` truncated SVD of the current `W`
//! (`U⁽ˡ⁾`, `V⁽ˡ⁾` are the leading singular vectors, with the singular
//! values split symmetrically between the factors).
//!
//! This is the scheme the paper criticizes: the SVD minimizes Frobenius
//! reconstruction error, which is *not* the same objective as predicting
//! the sign of `W·a` (0.1 and −0.1 are close in Frobenius norm but give
//! opposite predictions), and the once-per-epoch update cannot react to
//! the loss. Fig. 6 and Table I quantify the resulting gap.

use crate::loss::{cross_entropy, cross_entropy_grad};
use crate::trainer::{History, TrainConfig};
use rand::seq::SliceRandom;
use sparsenn_datasets::SplitDataset;
use sparsenn_linalg::init::seeded_rng;
use sparsenn_linalg::truncated::truncated_svd;
use sparsenn_linalg::vector;
use sparsenn_model::{Mlp, PredictedNetwork, Predictor};

/// Refreshes every predictor from the truncated SVD of its layer's current
/// weights (the once-per-epoch step of the baseline).
pub fn refresh_predictors(net: &mut PredictedNetwork, rank: usize, seed: u64) {
    for l in 0..net.predictors().len() {
        let w = net.mlp().layers()[l].w();
        let svd = truncated_svd(w, rank, seed ^ (l as u64).wrapping_mul(0x9E37_79B9));
        let (u, v) = svd.predictor_factors();
        net.predictors_mut()[l] = Predictor::new(u, v);
    }
}

/// One SGD step on `W` only, through the activeness-gated forward pass
/// (the predictor is frozen). Returns the sample loss.
///
/// Gating uses the inference semantics (`p > 0` computes the row, else the
/// activation is zero) — see the `end_to_end` module docs for why the
/// literal `±1` reading destabilizes training.
pub fn sgd_step_w_only(net: &mut PredictedNetwork, x: &[f32], label: usize, lr: f32) -> f32 {
    // Forward with gating, remembering z and p per hidden layer.
    let hidden = net.predictors().len();
    let mut a_list = vec![x.to_vec()];
    let mut z_list = Vec::with_capacity(hidden);
    let mut p_list = Vec::with_capacity(hidden);
    for l in 0..hidden {
        let a = a_list.last().expect("nonempty");
        let z = net.mlp().layers()[l].preact(a);
        let p: Vec<f32> = net.predictors()[l]
            .scores(a)
            .iter()
            .map(|&s| if s > 0.0 { 1.0 } else { 0.0 })
            .collect();
        let gated = vector::hadamard(&p, &vector::relu(&z));
        z_list.push(z);
        p_list.push(p);
        a_list.push(gated);
    }
    let logits = net.mlp().layers()[hidden].preact(a_list.last().expect("nonempty"));
    let loss = cross_entropy(&logits, label);

    // Backward through W only.
    let mut gamma = cross_entropy_grad(&logits, label);
    for l in (0..net.mlp().num_layers()).rev() {
        let delta = net.mlp().layers()[l].w().matvec_t(&gamma);
        net.mlp_mut().layers_mut()[l]
            .w_mut()
            .add_scaled_outer(-lr, &gamma, &a_list[l]);
        if l > 0 {
            let da_ori = vector::hadamard(&delta, &p_list[l - 1]);
            gamma = vector::hadamard(&da_ori, &vector::relu_mask(&z_list[l - 1]));
        }
    }
    loss
}

/// Trains the SVD-predictor baseline.
///
/// Epoch structure: refresh `U, V` from SVD(`W`), then run one shuffled
/// pass of W-only SGD. A final refresh follows the last epoch so the
/// returned predictor matches the returned weights.
///
/// # Example
///
/// ```
/// use sparsenn_datasets::{DatasetKind, DatasetSpec};
/// use sparsenn_train::{svd_baseline, TrainConfig};
/// let split = DatasetSpec { kind: DatasetKind::Basic, train: 20, test: 10, seed: 2 }.generate();
/// let (net, _) = svd_baseline::train(&[784, 8, 10], 2, &split, &TrainConfig { epochs: 1, ..Default::default() });
/// assert_eq!(net.predictors()[0].rank(), 2);
/// ```
pub fn train(
    dims: &[usize],
    rank: usize,
    split: &SplitDataset,
    config: &TrainConfig,
) -> (PredictedNetwork, History) {
    let mut rng = seeded_rng(config.seed);
    let mlp = Mlp::random(dims, &mut rng);
    // Rank placeholder predictors; immediately replaced by the SVD refresh.
    let mut net = PredictedNetwork::with_random_predictors(mlp, rank, &mut rng);
    refresh_predictors(&mut net, rank, config.seed);

    let mut history = History::default();
    let mut indices: Vec<usize> = (0..split.train.len()).collect();
    let mut shuffle_rng = seeded_rng(config.seed ^ 0x51d3);
    let mut lr = config.lr;
    for epoch in 0..config.epochs {
        refresh_predictors(&mut net, rank, config.seed.wrapping_add(epoch as u64));
        indices.shuffle(&mut shuffle_rng);
        let mut loss_sum = 0.0f64;
        for &i in &indices {
            loss_sum += f64::from(sgd_step_w_only(
                &mut net,
                split.train.image(i),
                split.train.label(i) as usize,
                lr,
            ));
        }
        let mean = if indices.is_empty() {
            0.0
        } else {
            (loss_sum / indices.len() as f64) as f32
        };
        history.epochs.push(crate::trainer::EpochStats {
            train_loss: mean,
            lr,
        });
        lr *= config.lr_decay;
    }
    refresh_predictors(
        &mut net,
        rank,
        config.seed.wrapping_add(config.epochs as u64),
    );
    (net, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsenn_datasets::{DatasetKind, DatasetSpec};
    use sparsenn_model::stats::{test_error_rate, EvalMode};

    #[test]
    fn refresh_approximates_weights() {
        let mut rng = seeded_rng(1);
        let mlp = Mlp::random(&[12, 16, 4], &mut rng);
        let mut net = PredictedNetwork::with_random_predictors(mlp, 8, &mut rng);
        refresh_predictors(&mut net, 8, 7);
        let w = net.mlp().layers()[0].w();
        let approx = net.predictors()[0].u().matmul(net.predictors()[0].v());
        let rel = w.sub(&approx).frobenius_norm() / w.frobenius_norm();
        // Rank 8 of a random 16x12 keeps most of the energy.
        assert!(rel < 0.75, "relative error {rel}");
    }

    #[test]
    fn higher_rank_refreshes_are_more_accurate() {
        let mut rng = seeded_rng(2);
        let mlp = Mlp::random(&[12, 16, 4], &mut rng);
        let rel_for = |rank: usize| {
            let mut net =
                PredictedNetwork::with_random_predictors(mlp.clone(), rank, &mut seeded_rng(3));
            refresh_predictors(&mut net, rank, 7);
            let w = net.mlp().layers()[0].w();
            let approx = net.predictors()[0].u().matmul(net.predictors()[0].v());
            w.sub(&approx).frobenius_norm() / w.frobenius_norm()
        };
        assert!(rel_for(2) > rel_for(10));
    }

    #[test]
    fn training_beats_chance() {
        let split = DatasetSpec {
            kind: DatasetKind::Basic,
            train: 200,
            test: 100,
            seed: 5,
        }
        .generate();
        let cfg = TrainConfig {
            epochs: 6,
            lr: 0.05,
            ..TrainConfig::default()
        };
        let (net, _) = train(&[784, 32, 10], 16, &split, &cfg);
        let ter = test_error_rate(&net, &split.test, EvalMode::Predicted);
        assert!(ter < 60.0, "TER {ter}%");
    }

    #[test]
    fn w_step_leaves_predictor_untouched() {
        let mut rng = seeded_rng(6);
        let mlp = Mlp::random(&[6, 8, 3], &mut rng);
        let mut net = PredictedNetwork::with_random_predictors(mlp, 2, &mut rng);
        let before = net.predictors()[0].clone();
        sgd_step_w_only(&mut net, &[0.5, 0.2, 0.8, 0.1, 0.9, 0.3], 1, 0.05);
        assert_eq!(&before, &net.predictors()[0]);
    }
}

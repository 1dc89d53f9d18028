//! Snapshot oracle for the kernel's forward passes.
//!
//! `snapshot_of_kernel_runs` pins every observable of [`SparseKernel`]
//! over a fixed grid — two seeded networks × {Prescan, Dense} × {UV off,
//! on} × batch sizes {1, 3, 8} × block sizes {1, 8, 33} — to values
//! recorded from the kernel when `run` and `run_batch` were still two
//! separate layer loops. Each cell hashes (64-bit FNV-1a) the batched
//! run's outputs, masks, every [`LayerStats`] field and both W books,
//! then every sample's own `run`. A change to the layer loop that moves
//! any bit, verdict or work count breaks the table.

use rand::Rng;
use sparsenn_kernel::{KernelRun, LayerStats, SparseKernel, Strategy};
use sparsenn_linalg::init::seeded_rng;
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_model::{Mlp, PredictedNetwork};
use sparsenn_numeric::Q6_10;

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

    fn stats(&mut self, st: &LayerStats) {
        for w in [
            st.rows,
            st.cols,
            st.nnz_in,
            st.live_blocks,
            st.total_blocks,
            st.active_rows,
            st.w_words,
            st.v_words,
            st.u_words,
            st.macs,
        ] {
            self.word(w);
        }
    }

    fn run(&mut self, run: &KernelRun) {
        self.word(run.layers.len() as u64);
        for l in &run.layers {
            self.word(l.output.len() as u64);
            for v in &l.output {
                self.word(v.raw() as u16 as u64);
            }
            match &l.mask {
                None => self.word(u64::MAX),
                Some(m) => {
                    self.word(m.len() as u64);
                    for &bit in m {
                        self.word(u64::from(bit));
                    }
                }
            }
            self.stats(&l.stats);
        }
    }
}

const DIMS: [usize; 4] = [41, 70, 45, 10];

fn network(seed: u64) -> FixedNetwork {
    let mut rng = seeded_rng(seed);
    let mlp = Mlp::random(&DIMS, &mut rng);
    FixedNetwork::from_float(&PredictedNetwork::with_random_predictors(mlp, 4, &mut rng))
}

/// `b` inputs with input zeros spread from ~10 % to ~90 % across samples.
fn inputs(net: &FixedNetwork, seed: u64, b: usize) -> Vec<Vec<Q6_10>> {
    let mut rng = seeded_rng(seed ^ 0x5eed);
    (0..b)
        .map(|s| {
            let zeros = (10 + 37 * s) % 90 + 5;
            let x: Vec<f32> = (0..DIMS[0])
                .map(|_| {
                    if rng.gen_range(0usize..100) < zeros {
                        0.0
                    } else {
                        rng.gen_range(-1.5f32..1.5)
                    }
                })
                .collect();
            net.quantize_input(&x)
        })
        .collect()
}

/// One hash per grid cell, in grid order, labelled for failure messages.
fn cells() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for seed in [3u64, 17] {
        let net = network(seed);
        for block in [1usize, 8, 33] {
            let kernel = SparseKernel::pack(&net, block);
            let mut s = kernel.scratch();
            for strategy in [Strategy::Prescan, Strategy::Dense] {
                for mode in [UvMode::Off, UvMode::On] {
                    for b in [1usize, 3, 8] {
                        let xs = inputs(&net, seed * 31 + b as u64, b);
                        let batch = kernel.run_batch(&xs, mode, strategy, &mut s);
                        let mut h = Fnv::new();
                        h.word(batch.runs.len() as u64);
                        for r in &batch.runs {
                            h.run(r);
                        }
                        h.word(batch.w_words_serial);
                        h.word(batch.w_words_batch);
                        for x in &xs {
                            h.run(&kernel.run(x, mode, strategy, &mut s));
                        }
                        out.push((
                            format!("seed{seed} block{block} {strategy:?} {mode:?} B{b}"),
                            h.0,
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Recorded from the two-loop kernel (serial `run` beside `run_batch`).
const EXPECTED: [u64; 72] = [
    0x0bce008dfea525b4, // seed3 block1 Prescan Off B1
    0x72d8acdd5a843bdf, // seed3 block1 Prescan Off B3
    0x31053fcfa932b494, // seed3 block1 Prescan Off B8
    0x7fa282f0cab0aaf8, // seed3 block1 Prescan On B1
    0xc6697a907bca39be, // seed3 block1 Prescan On B3
    0x377f81def056c92e, // seed3 block1 Prescan On B8
    0x66689f67f0dd5b00, // seed3 block1 Dense Off B1
    0x7b0803c06d81a42c, // seed3 block1 Dense Off B3
    0x5cdc12fea312908e, // seed3 block1 Dense Off B8
    0x399f65c23bb90a08, // seed3 block1 Dense On B1
    0x7e50351c19fc46f0, // seed3 block1 Dense On B3
    0x74641387fb600306, // seed3 block1 Dense On B8
    0x4a1a1b5d6542fbd4, // seed3 block8 Prescan Off B1
    0x41bf1295e45cf09e, // seed3 block8 Prescan Off B3
    0x0ad4e0d5ed0ec128, // seed3 block8 Prescan Off B8
    0x214b18e7a1220764, // seed3 block8 Prescan On B1
    0x3868aadc98227e46, // seed3 block8 Prescan On B3
    0x641b9852e8a94a0a, // seed3 block8 Prescan On B8
    0xd72b65526ddeeb40, // seed3 block8 Dense Off B1
    0x3a7999bb091e1e6c, // seed3 block8 Dense Off B3
    0xbf27a7eb801c7c0e, // seed3 block8 Dense Off B8
    0xd77c9827c4df3e08, // seed3 block8 Dense On B1
    0x5ac9e49c5f812ef0, // seed3 block8 Dense On B3
    0x3b2f0a85d1a10786, // seed3 block8 Dense On B8
    0x5760fa8981076230, // seed3 block33 Prescan Off B1
    0xe5526c00f93ec714, // seed3 block33 Prescan Off B3
    0xa7d2447399a78d8f, // seed3 block33 Prescan Off B8
    0xcd43eb28c9495974, // seed3 block33 Prescan On B1
    0xc01a97bf1c591e00, // seed3 block33 Prescan On B3
    0x14701bd43947a442, // seed3 block33 Prescan On B8
    0x096c9aa2ef271e40, // seed3 block33 Dense Off B1
    0x68af71271fb9d8ec, // seed3 block33 Dense Off B3
    0xf966b9690682490e, // seed3 block33 Dense Off B8
    0x823723b258c20e08, // seed3 block33 Dense On B1
    0x47d30ee5a8b24770, // seed3 block33 Dense On B3
    0x5352040661fae686, // seed3 block33 Dense On B8
    0x763f1a1732aac0dc, // seed17 block1 Prescan Off B1
    0x072cbde2f5091d6c, // seed17 block1 Prescan Off B3
    0x9bd2f409fd3ede98, // seed17 block1 Prescan Off B8
    0x0898816794b079dc, // seed17 block1 Prescan On B1
    0xa0a0347750dd2a40, // seed17 block1 Prescan On B3
    0xa0645f17c4632471, // seed17 block1 Prescan On B8
    0xff446cf590d0f0f8, // seed17 block1 Dense Off B1
    0x61d4fffc42b044bc, // seed17 block1 Dense Off B3
    0x6d742e5f88fdd282, // seed17 block1 Dense Off B8
    0x4ae0018148f54604, // seed17 block1 Dense On B1
    0x4010f9a616773e74, // seed17 block1 Dense On B3
    0x8a15cf221f09fe3e, // seed17 block1 Dense On B8
    0x95580dd8f9309ae8, // seed17 block8 Prescan Off B1
    0xec789b2333466d68, // seed17 block8 Prescan Off B3
    0xc0f784faa8c00c0b, // seed17 block8 Prescan Off B8
    0x36a5492d44ee6dc4, // seed17 block8 Prescan On B1
    0x158391bda7915ef9, // seed17 block8 Prescan On B3
    0xeb492304d8424beb, // seed17 block8 Prescan On B8
    0xe8d2c5de88bf3338, // seed17 block8 Dense Off B1
    0x165fe28da43567bc, // seed17 block8 Dense Off B3
    0x7a505dd47fd68302, // seed17 block8 Dense Off B8
    0x7cb9200447e73b84, // seed17 block8 Dense On B1
    0x84d079c54a2f28f4, // seed17 block8 Dense On B3
    0x519cad16b5a1a0be, // seed17 block8 Dense On B8
    0x68e6e7b62adba7a0, // seed17 block33 Prescan Off B1
    0xa6facbc6114dae87, // seed17 block33 Prescan Off B3
    0xa920123b9092407a, // seed17 block33 Prescan Off B8
    0xf33e22c96f365174, // seed17 block33 Prescan On B1
    0x0f895062a8f3e3aa, // seed17 block33 Prescan On B3
    0x9a396f29da8d7c37, // seed17 block33 Prescan On B8
    0x3cae88e4ce9d11b8, // seed17 block33 Dense Off B1
    0x1074b5da677b8f3c, // seed17 block33 Dense Off B3
    0xa078814eed79d402, // seed17 block33 Dense Off B8
    0x79d307ddb624c404, // seed17 block33 Dense On B1
    0x688932f94c3484f4, // seed17 block33 Dense On B3
    0x7e80c337d375acbe, // seed17 block33 Dense On B8
];

#[test]
fn snapshot_of_kernel_runs() {
    let got = cells();
    assert_eq!(got.len(), EXPECTED.len());
    let table: String = got
        .iter()
        .map(|(l, h)| format!("    {h:#018x}, // {l}\n"))
        .collect();
    for ((label, h), want) in got.iter().zip(EXPECTED) {
        assert_eq!(*h, want, "{label} moved; current table:\n{table}");
    }
}

//! The two-stage kernel: prescan → block-skip compute, over a whole
//! quantized network.

use crate::packed::{PackedLayer, PackedPredictor};
use crate::prescan::BlockIndex;
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_numeric::{argmax, Q6_10};

/// Which compute stage to run. Both produce bit-identical outputs; they
/// differ only in wall-clock cost — [`Dense`](Strategy::Dense) is the
/// baseline [`Prescan`](Strategy::Prescan)'s measured speedup is reported
/// against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Two-stage: prescan builds the nonzero-block index, compute touches
    /// only live blocks and predictor-active rows.
    #[default]
    Prescan,
    /// Straight dense GEMV over every column and row (predictor verdicts
    /// still computed; bypassed rows zeroed after the fact), on the same
    /// packed layout with the same accumulator.
    Dense,
}

/// Functional activity of one kernel layer pass — what the compute stage
/// actually touched. Deterministic (a pure function of the input pattern
/// and strategy), so records built from it are reproducible run to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// Output rows of the layer.
    pub rows: u64,
    /// Unpadded input columns.
    pub cols: u64,
    /// Nonzero input activations (prescan's exact count).
    pub nnz_in: u64,
    /// Live column blocks the prescan found.
    pub live_blocks: u64,
    /// Total column blocks.
    pub total_blocks: u64,
    /// Rows the W stage computed (predictor-active, or all).
    pub active_rows: u64,
    /// 16-bit W words the compute stage read.
    pub w_words: u64,
    /// 16-bit V words read (0 for unpredicted layers).
    pub v_words: u64,
    /// 16-bit U words read (0 for unpredicted layers).
    pub u_words: u64,
    /// Multiply-accumulates executed.
    pub macs: u64,
}

/// One layer of a kernel forward pass.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelLayer {
    /// Output activations (bit-exact vs the golden model).
    pub output: Vec<Q6_10>,
    /// Predictor mask when the layer ran predicted (`true` = computed).
    pub mask: Option<Vec<bool>>,
    /// What the pass touched.
    pub stats: LayerStats,
}

/// Result of one kernel forward pass.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelRun {
    /// Per-layer results, input side first.
    pub layers: Vec<KernelLayer>,
}

impl KernelRun {
    /// Final-layer output activations.
    pub fn output(&self) -> &[Q6_10] {
        &self.layers.last().expect("at least one layer").output
    }

    /// Argmax classification of the final layer.
    pub fn classify(&self) -> usize {
        argmax(self.output())
    }
}

/// Result of one batched kernel pass: per-sample runs (each bit-identical
/// to running that sample alone) plus the batch's W-traffic books.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelBatchRun {
    /// Per-sample forward passes.
    pub runs: Vec<KernelRun>,
    /// W words B serial passes would read (sum of per-sample `w_words`).
    pub w_words_serial: u64,
    /// W words the batched pass reads: each row panel is streamed once
    /// per batch, over the union of the active samples' live blocks
    /// (≤ serial).
    pub w_words_batch: u64,
}

impl KernelBatchRun {
    /// W-traffic amortization factor: serial over batch (≥ 1).
    pub fn w_amortization(&self) -> f64 {
        if self.w_words_batch == 0 {
            return 1.0;
        }
        self.w_words_serial as f64 / self.w_words_batch as f64
    }
}

/// Preallocated working memory for [`SparseKernel`] runs: per sample, the
/// padded ping-pong activation buffers, the prescan index, the predictor
/// mask and the layer's activity book; shared, the V result and the W
/// union words. Build once with [`SparseKernel::scratch`]; once it has
/// seen a batch size, every run of that size allocates only the vectors
/// it returns.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    act: Vec<Vec<Q6_10>>,
    next: Vec<Vec<Q6_10>>,
    index: Vec<BlockIndex>,
    mask: Vec<Vec<bool>>,
    stats: Vec<LayerStats>,
    v_result: Vec<Q6_10>,
    union_words: Vec<u64>,
}

impl Scratch {
    /// Grows the arenas to `b` samples of `k` (a no-op once warm).
    fn ensure(&mut self, k: &SparseKernel, b: usize) {
        grow(&mut self.act, b, Vec::new());
        grow(&mut self.next, b, Vec::new());
        grow(&mut self.index, b, BlockIndex::new());
        grow(&mut self.mask, b, Vec::new());
        grow(&mut self.stats, b, LayerStats::default());
        for buf in self.act.iter_mut().chain(&mut self.next) {
            grow(buf, k.buf_len, Q6_10::ZERO);
        }
        for m in &mut self.mask {
            grow(m, k.max_rows, false);
        }
        grow(&mut self.v_result, k.max_rank, Q6_10::ZERO);
        grow(&mut self.union_words, k.max_words, 0);
    }
}

/// Grows `v` to at least `len` elements, padding with `fill`.
fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

/// A quantized network repacked for the two-stage kernel: one
/// [`PackedLayer`] per weight layer, one [`PackedPredictor`] per predicted
/// hidden layer. Packing happens once here; runs only read.
#[derive(Clone, Debug)]
pub struct SparseKernel {
    block: usize,
    layers: Vec<PackedLayer>,
    preds: Vec<Option<PackedPredictor>>,
    buf_len: usize,
    max_rank: usize,
    max_rows: usize,
    max_words: usize,
}

impl SparseKernel {
    /// Repacks a quantized network with the given column-block size.
    ///
    /// # Panics
    ///
    /// Panics if the network has no layers or `block == 0`.
    pub fn pack(net: &FixedNetwork, block: usize) -> Self {
        assert!(net.num_layers() > 0, "network has no layers");
        assert!(block > 0, "block size must be positive");
        let n = net.num_layers();
        let layers: Vec<PackedLayer> = net
            .layers()
            .iter()
            .map(|w| PackedLayer::pack(w, block))
            .collect();
        let preds: Vec<Option<PackedPredictor>> = (0..n)
            .map(|l| {
                (l + 1 < n)
                    .then(|| net.predictors().get(l))
                    .flatten()
                    .map(|p| PackedPredictor::pack(p, block))
            })
            .collect();
        let max_padded = layers.iter().map(PackedLayer::padded).max().unwrap_or(0);
        let max_rows = layers.iter().map(PackedLayer::rows).max().unwrap_or(0);
        let max_rank = preds
            .iter()
            .flatten()
            .map(PackedPredictor::rank)
            .max()
            .unwrap_or(0);
        let max_words = layers
            .iter()
            .map(|l| l.blocks().div_ceil(64))
            .max()
            .unwrap_or(0);
        Self {
            block,
            layers,
            preds,
            buf_len: max_padded.max(max_rows),
            max_rank,
            max_rows,
            max_words,
        }
    }

    /// The column-block size every panel was packed with.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Number of weight layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input width the kernel expects.
    pub fn input_width(&self) -> usize {
        self.layers[0].cols()
    }

    /// A scratch arena sized for this kernel (one sample; batches grow it).
    pub fn scratch(&self) -> Scratch {
        let mut s = Scratch::default();
        s.ensure(self, 1);
        s
    }

    /// Runs one quantized input through the network: the batch core at
    /// B = 1, so it is bit-identical to that sample's share of any
    /// [`run_batch`](Self::run_batch).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the first layer's width.
    pub fn run(
        &self,
        input: &[Q6_10],
        mode: UvMode,
        strategy: Strategy,
        s: &mut Scratch,
    ) -> KernelRun {
        let mut run = KernelRun {
            layers: Vec::with_capacity(self.layers.len()),
        };
        self.forward(
            std::slice::from_ref(&input),
            mode,
            strategy,
            s,
            std::slice::from_mut(&mut run),
        );
        run
    }

    /// Runs a batch of quantized inputs in one pass: prescan once per
    /// sample, then each layer's W stage iterates **rows outer, samples
    /// inner**, so a row's weight panel is streamed from memory once per
    /// batch while every sample applies its own live-block index and
    /// predictor verdict — per-sample results stay bit-identical to
    /// serial [`run`](Self::run)s.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or any input width mismatches.
    pub fn run_batch(
        &self,
        inputs: &[Vec<Q6_10>],
        mode: UvMode,
        strategy: Strategy,
        s: &mut Scratch,
    ) -> KernelBatchRun {
        assert!(!inputs.is_empty(), "batch has no samples");
        let mut runs: Vec<KernelRun> = inputs
            .iter()
            .map(|_| KernelRun {
                layers: Vec::with_capacity(self.layers.len()),
            })
            .collect();
        let (w_words_serial, w_words_batch) = self.forward(inputs, mode, strategy, s, &mut runs);
        KernelBatchRun {
            runs,
            w_words_serial,
            w_words_batch,
        }
    }

    /// The layer loop behind [`run`](Self::run) and
    /// [`run_batch`](Self::run_batch): per layer, prescan and predictor per
    /// sample, then the W stage rows outer, samples inner. Pushes one
    /// [`KernelLayer`] per layer onto each of `runs` (one per input) and
    /// returns the `(serial, batch)` W books.
    fn forward<X: AsRef<[Q6_10]>>(
        &self,
        inputs: &[X],
        mode: UvMode,
        strategy: Strategy,
        s: &mut Scratch,
        runs: &mut [KernelRun],
    ) -> (u64, u64) {
        let b = inputs.len();
        s.ensure(self, b);
        for (x, buf) in inputs.iter().zip(&mut s.act) {
            let x = x.as_ref();
            assert_eq!(x.len(), self.input_width(), "input width mismatch");
            buf[..x.len()].copy_from_slice(x);
            buf[x.len()..self.layers[0].padded()].fill(Q6_10::ZERO);
        }
        let (mut w_serial, mut w_batch) = (0u64, 0u64);
        for (l, lay) in self.layers.iter().enumerate() {
            let is_hidden = l + 1 < self.layers.len();
            let rows = lay.rows();
            let pred = self.preds[l].as_ref().filter(|_| mode == UvMode::On);
            let predicted = pred.is_some();
            // Stage 1 and the predictor, per sample (verdicts are per
            // sample). The dense baseline pays a plain nnz count instead of
            // the prescan — it reads the input either way.
            for si in 0..b {
                let (a, idx) = (&s.act[si][..], &mut s.index[si]);
                let st = &mut s.stats[si];
                *st = LayerStats {
                    rows: rows as u64,
                    cols: lay.cols() as u64,
                    total_blocks: lay.blocks() as u64,
                    ..LayerStats::default()
                };
                match strategy {
                    Strategy::Prescan => {
                        idx.prescan(&a[..lay.padded()], self.block);
                        st.nnz_in = idx.nnz();
                        st.live_blocks = idx.live().len() as u64;
                    }
                    Strategy::Dense => {
                        st.nnz_in = a[..lay.cols()].iter().filter(|v| !v.is_zero()).count() as u64;
                        st.live_blocks = st.total_blocks;
                    }
                }
                // Predictor: V·a quantized per row, then sign of U·(V·a).
                if let Some(p) = pred {
                    let r = p.rank();
                    for (t, v) in s.v_result[..r].iter_mut().enumerate() {
                        let acc = match strategy {
                            Strategy::Prescan => p.v.block_dot(t, idx, a),
                            Strategy::Dense => p.v.dense_dot(t, a),
                        };
                        *v = acc.to_fixed();
                    }
                    st.v_words = match strategy {
                        Strategy::Prescan => (r * idx.live_cols()) as u64,
                        Strategy::Dense => (r * lay.cols()) as u64,
                    };
                    for (i, m) in s.mask[si][..rows].iter_mut().enumerate() {
                        *m = p.u_verdict(i, &s.v_result[..r]);
                    }
                    st.u_words = (rows * r) as u64;
                }
            }
            // Stage 2, the W pass: rows outer, samples inner — one panel
            // stream per batch. The batch W book counts, per row, the union
            // of the active samples' live blocks. `i` indexes four parallel
            // per-sample structures, so a range loop reads clearest.
            let union = &mut s.union_words[..lay.blocks().div_ceil(64)];
            #[allow(clippy::needless_range_loop)]
            for i in 0..rows {
                union.fill(0);
                for si in 0..b {
                    let row_active = !predicted || s.mask[si][i];
                    s.stats[si].active_rows += u64::from(row_active);
                    let acc = match strategy {
                        Strategy::Prescan if !row_active => {
                            s.next[si][i] = Q6_10::ZERO;
                            continue;
                        }
                        Strategy::Prescan => {
                            for (u, w) in union.iter_mut().zip(s.index[si].words()) {
                                *u |= *w;
                            }
                            lay.block_dot(i, &s.index[si], &s.act[si])
                        }
                        // The dense baseline computes every row, then zeroes
                        // the bypassed ones (same bits, full dense cost).
                        Strategy::Dense => lay.dense_dot(i, &s.act[si]),
                    };
                    let q: Q6_10 = acc.to_fixed();
                    let q = if is_hidden { q.relu() } else { q };
                    s.next[si][i] = if row_active { q } else { Q6_10::ZERO };
                }
                if strategy == Strategy::Prescan {
                    let union_blocks: u64 = union.iter().map(|w| u64::from(w.count_ones())).sum();
                    w_batch += union_blocks * self.block as u64;
                }
            }
            if strategy == Strategy::Dense {
                w_batch += (rows * lay.cols()) as u64;
            }
            for (si, run) in runs.iter_mut().enumerate() {
                let st = &mut s.stats[si];
                st.w_words = match strategy {
                    Strategy::Prescan => st.active_rows * s.index[si].live_cols() as u64,
                    Strategy::Dense => (rows * lay.cols()) as u64,
                };
                st.macs = st.w_words + st.v_words + st.u_words;
                w_serial += st.w_words;
                run.layers.push(KernelLayer {
                    output: s.next[si][..rows].to_vec(),
                    mask: predicted.then(|| s.mask[si][..rows].to_vec()),
                    stats: *st,
                });
                // Zero the padding tail the next layer's prescan will scan.
                if is_hidden {
                    s.next[si][rows..self.layers[l + 1].padded()].fill(Q6_10::ZERO);
                }
            }
            std::mem::swap(&mut s.act, &mut s.next);
        }
        (w_serial, w_batch)
    }
}

//! The kernel's allocation claim, counted: once a [`Scratch`] is warm, a
//! `run` or `run_batch` call allocates exactly the heap blocks it returns
//! (the `layers` vectors, each layer's output and mask, and a batch's
//! `runs` vector) and nothing else.
//!
//! A counting global allocator tallies allocations per thread, so the test
//! harness's own threads never leak into the count.

use sparsenn_kernel::{KernelRun, SparseKernel, Strategy};
use sparsenn_linalg::init::seeded_rng;
use sparsenn_model::fixedpoint::{FixedNetwork, UvMode};
use sparsenn_model::{Mlp, PredictedNetwork};
use sparsenn_numeric::Q6_10;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local with no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Heap blocks a run owns: its `layers` vector plus every output and mask.
fn blocks(run: &KernelRun) -> u64 {
    1 + run
        .layers
        .iter()
        .map(|l| 1 + u64::from(l.mask.is_some()))
        .sum::<u64>()
}

fn inputs(net: &FixedNetwork, seed: u64, b: usize) -> Vec<Vec<Q6_10>> {
    (0..b)
        .map(|s| {
            let x: Vec<f32> = (0..net.layers()[0].cols())
                .map(|i| {
                    let k = (i as u64 * 7919 + s as u64 * 104_729 + seed) % 100;
                    if k < 20 + 9 * s as u64 {
                        0.0
                    } else {
                        ((i + s) as f32 * 0.37).sin()
                    }
                })
                .collect();
            net.quantize_input(&x)
        })
        .collect()
}

#[test]
fn warm_runs_allocate_only_what_they_return() {
    let mut rng = seeded_rng(5);
    let mlp = Mlp::random(&[100, 64, 48, 10], &mut rng);
    let net = FixedNetwork::from_float(&PredictedNetwork::with_random_predictors(mlp, 4, &mut rng));
    for block in [1usize, 8, 33] {
        let kernel = SparseKernel::pack(&net, block);
        let mut s = kernel.scratch();
        let warm = inputs(&net, 0, 8);
        for strategy in [Strategy::Prescan, Strategy::Dense] {
            for mode in [UvMode::Off, UvMode::On] {
                let _ = kernel.run_batch(&warm, mode, strategy, &mut s);
                // Fresh sparsity patterns: a warm arena never grows.
                for (seed, b) in [(1u64, 1usize), (2, 3), (3, 8)] {
                    let xs = inputs(&net, seed, b);
                    let (batch, n) = counted(|| kernel.run_batch(&xs, mode, strategy, &mut s));
                    let want = 1 + batch.runs.iter().map(blocks).sum::<u64>();
                    assert_eq!(
                        n, want,
                        "run_batch B{b} block {block} {strategy:?} {mode:?}"
                    );
                    let (run, n) = counted(|| kernel.run(&xs[0], mode, strategy, &mut s));
                    assert_eq!(n, blocks(&run), "run block {block} {strategy:?} {mode:?}");
                }
            }
        }
    }
}

//! The evaluation hot path allocates nothing once its buffers are sized:
//! a counting global allocator sees zero heap allocations per warmed-up
//! `expectation_in` and `expectation_and_grad_in` call (serial budget).
//!
//! Allocations are counted per thread, so the test harness's own threads
//! never leak into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use graphs::generators;
use qaoa::{EvalContext, MaxCutProblem, QaoaAnsatz};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: thread-local storage may already be gone while a thread
    // tears down; those allocations are not the hot path's.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations made by `f` on the calling thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn warmed_up_evaluations_allocate_nothing() {
    let mut rng = StdRng::seed_from_u64(3);
    for n in [8, 12] {
        let problem = MaxCutProblem::new(&generators::erdos_renyi_nonempty(n, 0.5, &mut rng))
            .expect("non-empty graph");
        for p in [1, 3] {
            let ansatz = QaoaAnsatz::new(problem.clone(), p).expect("valid depth");
            let params: Vec<f64> = (0..2 * p).map(|k| 0.2 + 0.1 * k as f64).collect();
            let mut grad = vec![0.0; 2 * p];
            let mut ctx = EvalContext::new(n);
            ctx.set_threads(1);
            // Warm-up: sizes the state, the adjoint buffer and the phase table.
            ansatz
                .expectation_and_grad_in(&mut ctx, &params, &mut grad)
                .expect("valid params");
            let exp = allocations_in(|| {
                ansatz
                    .expectation_in(&mut ctx, &params)
                    .expect("valid params");
            });
            assert_eq!(exp, 0, "n={n} p={p}: expectation_in allocated {exp} times");
            let grad_allocs = allocations_in(|| {
                ansatz
                    .expectation_and_grad_in(&mut ctx, &params, &mut grad)
                    .expect("valid params");
            });
            assert_eq!(
                grad_allocs, 0,
                "n={n} p={p}: expectation_and_grad_in allocated {grad_allocs} times"
            );
        }
    }
}

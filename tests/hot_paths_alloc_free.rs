//! The allocation-free contract of the training and serving hot paths,
//! proven by measurement: a counting global allocator wraps `System`,
//! and each test asserts that a hot call makes zero heap allocations
//! after one warm-up call.
//!
//! Counters are per thread, so tests running in parallel never see each
//! other's allocations. Every measurement runs under `with_threads(1)`:
//! that is how a device fit runs inside a `fleet::schedule` worker, the
//! configuration the paper's round uses. (At more kernel threads, a
//! large GEMM spawns scoped workers per call, which allocates.)
//!
//! Which call covers which hot function:
//!
//! | hot function | crate file | measured through |
//! |---|---|---|
//! | `gemm`, `gemm_rows`, `microkernel`, `pack_a_panel`, `pack_b` | `tensor/src/kernel.rs` | `matmul_acc`, `matmul_tn_acc`, `matmul_nt_acc` above `SMALL_FLOP_CUTOFF` |
//! | `gemm_small` | `tensor/src/kernel.rs` | the same three products below `SMALL_FLOP_CUTOFF` |
//! | `gather_rows_into` | `tensor/src/matrix.rs` | itself |
//! | `backward` | `nn/src/tape.rs` | `Tape::backward` |
//! | `accumulate_grad` | `nn/src/param.rs` | `Tape::backward` (parameter leaves) |
//! | `step` | `nn/src/optim.rs` | Adam and SGD-with-momentum `step` |
//! | `apply_update` | `nn/src/param.rs` | Adam and SGD `step` |
//! | `zero_grad` | `nn/src/param.rs` | `Optimizer::zero_grad` |
//! | `fill_positives`, `sample_candidate`, `write_accepted` | `core/src/pipeline.rs` | `KgTrainPipeline::fill_positives` |
//! | `backoff_ticks`, `quorum_required` | `fleet/src/resilience.rs` | themselves |
//! | `advance`, `total` | `fleet/src/fault.rs` | `VirtualClock::advance`, `VirtualClock::total` |
//! | `score_rows` | `fleet/src/service.rs` | `ServingModel::score_batch`: its count must not grow with the row count |
//! | `push_record` | `obs/src/journal.rs` | `obs::event` inside a session scope |
//! | `merge_records` | `obs/src/journal.rs` | itself, over a session's records |
//!
//! The disabled observability path (events and counters with no session
//! open) is measured too: it must cost no allocation.

use kinetgan_suite::data::transform::DataTransformer;
use kinetgan_suite::datasets::lab::{LabSimConfig, LabSimulator};
use kinetgan_suite::fleet::resilience::backoff_ticks;
use kinetgan_suite::fleet::{ResilienceConfig, ServingModel, VirtualClock};
use kinetgan_suite::model::pipeline::KgTrainPipeline;
use kinetgan_suite::nn::layers::{Linear, ResidualBlock};
use kinetgan_suite::nn::optim::{Adam, Optimizer, Sgd};
use kinetgan_suite::nn::{ParamSet, Tape, Var};
use kinetgan_suite::obs::{self, kv, metrics::SERVING_ROWS_SCORED, ObsConfig, Scope};
use kinetgan_suite::tensor::{with_threads, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// `System`, plus a per-thread count of allocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// Only `alloc` and `dealloc` are overridden: the provided `realloc` and
// `alloc_zeroed` both go through `alloc`, so they count as allocations.
// SAFETY: every call forwards its layout and pointer to `System`
// unchanged, so `System`'s guarantees are the allocator's guarantees.
unsafe impl GlobalAlloc for Counting {
    // The counter is a const-initialised `Cell` without a destructor:
    // bumping it never allocates.
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `alloc` above, that is, from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on the calling thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Runs `f` once to warm up, then asserts a second call allocates
/// nothing — all on one kernel thread.
fn assert_alloc_free(what: &str, mut f: impl FnMut()) {
    with_threads(1, || {
        f();
        let n = allocs_in(&mut f);
        assert_eq!(n, 0, "{what}: {n} allocation(s) after warm-up");
    });
}

fn lab_table(rows: usize, seed: u64) -> kinetgan_suite::data::Table {
    LabSimulator::new(LabSimConfig::small(rows, seed))
        .generate()
        .expect("lab generation succeeds")
}

#[test]
fn the_counter_sees_allocations_and_reallocations() {
    assert_eq!(
        allocs_in(|| drop(black_box(Vec::<u64>::with_capacity(4)))),
        1
    );
    let mut v: Vec<u64> = Vec::with_capacity(1);
    let grows = allocs_in(|| {
        for i in 0..64 {
            v.push(black_box(i));
        }
    });
    assert!(grows > 0, "growing a Vec reallocates and must count");
    assert_eq!(allocs_in(|| v.clear()), 0);
}

#[test]
fn gemm_products_are_alloc_free_below_and_above_the_small_cutoff() {
    // (n, k, m): 8·16·16 multiply-adds run the small path, 128·96·96 the
    // packed, tiled path.
    for (n, k, m) in [(8, 16, 16), (128, 96, 96)] {
        let fill = |r, c| (r * 7 + c * 3) as f32 * 0.01;
        let a = Matrix::from_fn(n, k, fill);
        let b = Matrix::from_fn(k, m, fill);
        let at = Matrix::from_fn(k, n, fill);
        let bt = Matrix::from_fn(m, k, fill);
        let mut out = Matrix::zeros(n, m);
        assert_alloc_free("matmul_acc", || out.matmul_acc(&a, &b));
        assert_alloc_free("matmul_tn_acc", || out.matmul_tn_acc(&at, &b));
        assert_alloc_free("matmul_nt_acc", || out.matmul_nt_acc(&a, &bt));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn row_gather_into_a_reused_buffer_is_alloc_free() {
    let src = Matrix::from_fn(512, 40, |r, c| (r * 40 + c) as f32);
    let idx: Vec<usize> = (0..64).map(|i| (i * 37) % 512).collect();
    let mut out = Matrix::default();
    assert_alloc_free("gather_rows_into", || src.gather_rows_into(&idx, &mut out));
    assert_eq!(out.rows(), 64);
}

/// A generator-shaped tape: residual block, linear head, tanh and
/// softmax output blocks, then a linear critic under a BCE loss.
fn gan_like_loss<'t>(
    tape: &'t Tape,
    x: &Matrix,
    res: &ResidualBlock,
    head: &Linear,
    critic: &Linear,
) -> Var<'t> {
    let h = res.forward(tape, tape.constant(x.clone()), true);
    let out = head.forward(tape, h);
    let num = out.slice_cols(0, 4).tanh();
    let cat = out.slice_cols(4, 12).softmax();
    let logits = critic.forward(tape, Var::concat_cols(&[num, cat]));
    logits.bce_with_logits(&Matrix::ones(x.rows(), 1))
}

#[test]
fn backward_and_optimizer_steps_are_alloc_free() {
    let mut rng = StdRng::seed_from_u64(7);
    let res = ResidualBlock::new(16, 32, &mut rng);
    let head = Linear::new(res.out_dim(), 12, &mut rng);
    let critic = Linear::new(12, 1, &mut rng);
    let mut params = ParamSet::new();
    for set in [res.params(), head.params(), critic.params()] {
        params.extend(&set);
    }
    let x = Matrix::from_fn(64, 16, |r, c| ((r * 16 + c) % 13) as f32 * 0.1 - 0.6);

    let tape = Tape::new();
    let loss = gan_like_loss(&tape, &x, &res, &head, &critic);
    assert_alloc_free("Tape::backward", || tape.backward(loss));

    let mut adam = Adam::with_betas(params.clone(), 2e-4, 0.5, 0.9).with_weight_decay(1e-6);
    assert_alloc_free("Adam::step", || adam.step());
    let mut sgd = Sgd::with_momentum(params, 1e-3, 0.9);
    assert_alloc_free("Sgd::step", || sgd.step());
    assert_alloc_free("Optimizer::zero_grad", || sgd.zero_grad());
}

#[test]
fn kg_positive_sampling_is_alloc_free() {
    let table = lab_table(512, 3);
    let kg = LabSimulator::knowledge_graph();
    let transformer = DataTransformer::fit(&table, 4, 7).expect("non-empty table");
    let mut pipe = KgTrainPipeline::new(&kg, &table, &transformer);
    let real_idx: Vec<usize> = (0..64).map(|i| (i * 7) % table.n_rows()).collect();
    let mut out = Matrix::default();
    let mut rng = StdRng::seed_from_u64(9);
    assert_alloc_free("KgTrainPipeline::fill_positives", || {
        pipe.fill_positives(&real_idx, &mut out, &mut rng, 8)
            .expect("lab KG rules align with the schema");
    });
    assert_eq!(out.rows(), real_idx.len());
}

#[test]
fn recovery_arithmetic_and_the_virtual_clock_are_alloc_free() {
    let cfg = ResilienceConfig::default();
    let clock = VirtualClock::new();
    assert_alloc_free("recovery arithmetic", || {
        for attempt in 0..8 {
            black_box(backoff_ticks(black_box(50), 4_000, attempt));
        }
        black_box(cfg.quorum_required(black_box(4)));
        clock.advance(black_box(3));
        black_box(clock.total());
    });
}

#[test]
fn journal_records_and_merge_are_alloc_free_inside_a_session() {
    let session = obs::start(ObsConfig::default());
    obs::with_scope(Scope::Orch, || {
        let n = with_threads(1, || {
            allocs_in(|| {
                for i in 0..16u64 {
                    obs::event("alloc.probe", i, &[kv("i", i), kv("rows", 64)]);
                }
            })
        });
        assert_eq!(n, 0, "16 events into an open scope: {n} allocation(s)");
    });
    let mut capture = session.finish();
    assert_eq!(capture.journal.records().len(), 16);
    capture.ring.reverse();
    assert_alloc_free("merge_records", || obs::merge_records(&mut capture.ring));
    assert!(capture.ring.windows(2).all(|w| w[0].seq < w[1].seq));
}

#[test]
fn disabled_observability_is_alloc_free() {
    assert_alloc_free("obs with no session", || {
        obs::event("alloc.probe", 0, &[kv("i", 1)]);
        SERVING_ROWS_SCORED.incr(64);
        obs::with_scope(Scope::Serve, || obs::event("alloc.probe", 0, &[]));
    });
}

#[test]
fn serving_allocations_do_not_grow_with_the_batch() {
    let model = ServingModel::train(&lab_table(600, 11), 3, 11).expect("serving model trains");
    let counts: Vec<u64> = [64usize, 128, 1024]
        .iter()
        .map(|&rows| {
            let flows = lab_table(rows, 100 + rows as u64);
            with_threads(1, || {
                model.score_batch(&flows).expect("scores");
                allocs_in(|| {
                    black_box(model.score_batch(&flows).expect("scores"));
                })
            })
        })
        .collect();
    // `score_batch` allocates the encoded feature buffer and the logits
    // once per batch; the per-row loop in `score_rows` must add nothing.
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "allocations per batch at 64/128/1024 rows: {counts:?}"
    );
    assert!(counts[0] <= 2, "allocations per batch: {counts:?}");
}

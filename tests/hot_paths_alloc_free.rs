//! The allocation-free contract of the training and serving hot paths,
//! proven by measurement: a counting global allocator wraps `System`,
//! and each test asserts that a hot call makes zero heap allocations
//! after one warm-up call, or that a whole run's count does not grow
//! with the work it repeats (serving rows, training steps).
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
//! | `push`, `reset` and every op's forward | `nn/src/tape.rs` | a KiNETGAN D+G step on a reset tape |
//! | `clip_grad_norm` | `nn/src/param.rs` | the same step |
//! | `train` | `core/src/model.rs` | `KinetGan::fit`: 2 more epochs add only their 2 report rows |
//! | `sample_batch_into`, `write_row` | `data/src/sampler.rs`, `data/src/condition.rs` | the same fits |
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

use kinetgan_suite::data::synth::TabularSynthesizer;
use kinetgan_suite::data::transform::{DataTransformer, HeadKind};
use kinetgan_suite::datasets::lab::{LabSimConfig, LabSimulator};
use kinetgan_suite::fleet::resilience::backoff_ticks;
use kinetgan_suite::fleet::{ResilienceConfig, ServingModel, VirtualClock};
use kinetgan_suite::model::pipeline::KgTrainPipeline;
use kinetgan_suite::model::{
    ConditionalGenerator, KinetGan, KinetGanConfig, KnowledgeDiscriminator, RecordDiscriminator,
};
use kinetgan_suite::nn::layers::{Linear, ResidualBlock};
use kinetgan_suite::nn::loss::{gan_discriminator_loss, gan_generator_loss};
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
    let h = res.forward(tape, tape.constant(x), true);
    let out = head.forward(tape, h);
    let num = out.slice_cols(0, 4).tanh();
    let cat = out.slice_cols(4, 12).softmax();
    let logits = critic.forward(tape, Var::concat_cols([num, cat]));
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
    // `score_batch` allocates the encoded feature buffer and the scorer's
    // scratch (lane weights and accumulators) once per batch; the per-row
    // loop in `score_rows` must add nothing.
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "allocations per batch at 64/128/1024 rows: {counts:?}"
    );
    assert!(counts[0] <= 2, "allocations per batch: {counts:?}");
}

/// The pieces of one KiNETGAN training step, at the shape a lab device
/// fit trains: batch 32, `small_shard` widths, dropout on both critics.
struct GanStep {
    generator: ConditionalGenerator,
    d_m: RecordDiscriminator,
    d_kg: KnowledgeDiscriminator,
    g_opt: Adam,
    d_opt: Adam,
    c: Matrix,
    real: Matrix,
    head: usize,
    target: Matrix,
    rng: StdRng,
}

impl GanStep {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(21);
        let table = lab_table(512, 5);
        let transformer = DataTransformer::fit(&table, 4, 7).expect("non-empty table");
        let encoded = transformer.transform(&table, &mut rng);
        let (batch, cond) = (32, 6);
        let generator = ConditionalGenerator::new(32, cond, &[64, 64], &transformer, &mut rng);
        let d_m = RecordDiscriminator::new(transformer.width(), cond, &[64], 0.25, &mut rng);
        let d_kg = KnowledgeDiscriminator::new(transformer.width(), &[64], 0.25, &mut rng);
        let g_opt = Adam::with_betas(generator.params(), 5e-4, 0.5, 0.9);
        let mut d_params = d_m.params();
        d_params.extend(&d_kg.params());
        let d_opt = Adam::with_betas(d_params, 5e-4, 0.5, 0.9);
        let c = Matrix::from_fn(batch, cond, |r, j| f32::from(u8::from(r % cond == j)));
        let rows: Vec<usize> = (0..batch).map(|i| (i * 13) % table.n_rows()).collect();
        let real = encoded.select_rows(&rows);
        let head = generator
            .heads()
            .iter()
            .position(|h| h.kind == HeadKind::Softmax)
            .expect("the lab schema has a categorical column");
        let width = generator.heads()[head].width;
        let target = Matrix::from_fn(batch, width, |r, j| f32::from(u8::from(r % width == j)));
        Self {
            generator,
            d_m,
            d_kg,
            g_opt,
            d_opt,
            c,
            real,
            head,
            target,
            rng,
        }
    }

    /// A D pass on detached fake rows, then a G pass (critics frozen) with
    /// the condition cross-entropy, each with backward, clipping and an
    /// Adam step.
    fn run(&mut self, tape: &mut Tape) {
        tape.reset();
        let fake = self
            .generator
            .generate(tape, &self.c, 0.2, true, &mut self.rng)
            .output
            .detach();
        let real = tape.constant(&self.real);
        let d_real = self.d_m.forward(tape, real, &self.c, true, &mut self.rng);
        let d_fake = self.d_m.forward(tape, fake, &self.c, true, &mut self.rng);
        let kg_real = self.d_kg.forward(tape, real, true, &mut self.rng);
        let kg_fake = self.d_kg.forward(tape, fake, true, &mut self.rng);
        let loss = gan_discriminator_loss(d_real, d_fake, 0.9)
            .add(gan_discriminator_loss(kg_real, kg_fake, 1.0));
        black_box(loss.scalar());
        tape.backward(loss);
        self.d_opt.params().clip_grad_norm(1e-3);
        self.d_opt.step();
        self.d_opt.zero_grad();

        tape.reset();
        tape.freeze(self.d_opt.params());
        let fake = self
            .generator
            .generate(tape, &self.c, 0.2, true, &mut self.rng);
        let d_fake = self
            .d_m
            .forward(tape, fake.output, &self.c, true, &mut self.rng);
        let kg_fake = self.d_kg.forward(tape, fake.output, true, &mut self.rng);
        let ce = fake
            .head_logits
            .get(self.head)
            .softmax_cross_entropy(&self.target);
        let loss = gan_generator_loss(d_fake.add(kg_fake)).add(ce);
        black_box(loss.scalar());
        tape.backward(loss);
        self.g_opt.params().clip_grad_norm(1e-3);
        self.g_opt.step();
        self.g_opt.zero_grad();
    }
}

#[test]
fn a_gan_training_step_on_a_reset_tape_is_alloc_free() {
    let mut step = GanStep::new();
    let mut tape = Tape::new();
    // A clipping norm this small clips every step, so the clip path runs.
    assert_alloc_free("KiNETGAN D+G step", || step.run(&mut tape));
}

/// Heap allocations of one `small_shard` fit of a 500-row lab shard, on
/// the calling thread at one kernel thread. Rejection resampling is off:
/// the post-fit probe sample redraws each KG-invalid row, and how many
/// rows the trained weights get wrong changes with the epoch count.
fn fit_allocs(epochs: usize) -> u64 {
    let shard = lab_table(500, 17);
    let config = KinetGanConfig::small_shard()
        .with_epochs(epochs)
        .with_seed(3)
        .with_rejection_rounds(0);
    with_threads(1, || {
        let mut model = KinetGan::new(config, LabSimulator::knowledge_graph());
        allocs_in(|| model.fit(&shard).expect("training succeeds"))
    })
}

#[test]
fn fit_allocations_do_not_grow_with_the_step_count() {
    // The first fit on a thread also grows the GEMM kernel's per-thread
    // pack buffers.
    fit_allocs(1);
    let (two, four) = (fit_allocs(2), fit_allocs(4));
    // 15 steps per epoch, so one allocation per step would add 30. Each
    // epoch allocates just its report row of per-class condition counts
    // (the loss rows' first push already reserves room for four epochs).
    assert_eq!(
        four,
        two + 2,
        "fit allocations at 2 and 4 epochs: {two} and {four}"
    );
}

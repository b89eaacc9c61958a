//! Machine-readable perf baseline for the scoring hot path.
//!
//! Emits `BENCH_pipeline.json`: kernel-level ns/iter for the GEMM
//! entry points at pipeline-representative shapes, plus end-to-end
//! single-thread `score_batch` and `StreamRuntime` frames/sec, plus
//! scratch-pool hit statistics, plus multi-tenant `StreamServer`
//! aggregate throughput at growing fleet sizes with the per-tenant
//! sequential baseline the coalesced batch must beat. The schema is
//! versioned so future PRs can diff trajectories mechanically.
//!
//! Usage:
//!   bench_pipeline [--out PATH] [--check PATH] [--quick]
//!
//! `--check PATH` loads a previously committed baseline and exits
//! non-zero if end-to-end frames/sec regressed more than 20% against it
//! (the CI bench-smoke gate). Baselines back to schema v2 are accepted:
//! the gated fields exist unchanged in every layout since, so
//! comparisons stay like-for-like. `--quick` shrinks iteration
//! counts for smoke runs.

use std::hint::black_box;
use std::time::Instant;

use ndtensor::{
    conv2d_into, matmul_assign_into, matmul_at_b_into, set_thread_config, Conv2dSpec, Tensor,
    ThreadConfig,
};
use novelty::{
    ClassifierConfig, DecisionSource, NoveltyDetector, NoveltyDetectorBuilder, QueueConfig,
    ReconstructionObjective, StreamConfig, StreamRuntime, StreamServer, TenantSpec,
};
use serde::{Deserialize, Serialize};
use simdrive::DatasetConfig;
use vision::Image;

/// Bump on breaking changes to the JSON layout.
const BENCH_SCHEMA_VERSION: u32 = 4;

/// Oldest baseline schema `--check` still compares against: every gated
/// field (pipeline and serve frames/sec) is unchanged since v2. Fields a
/// newer layout dropped (v3's `routines`/`selections`/`autotune`) are
/// ignored on load.
const BENCH_SCHEMA_CHECK_FLOOR: u32 = 2;

/// One kernel microbenchmark result.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelBench {
    /// Kernel entry point measured.
    kernel: String,
    /// Human-readable shape, e.g. `m8 k25 n4212`.
    shape: String,
    /// Mean wall time per call, nanoseconds.
    ns_per_iter: f64,
}

/// End-to-end throughput numbers (single thread).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PipelineBench {
    /// Frames scored per second through `NoveltyDetector::score_batch`.
    score_batch_frames_per_sec: f64,
    /// Frames processed per second through a warmed `StreamRuntime`.
    stream_frames_per_sec: f64,
}

/// Scratch-pool effectiveness over the stream run.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScratchBench {
    /// Pool takes served from a recycled buffer.
    hits: u64,
    /// Pool takes that had to allocate.
    misses: u64,
    /// Bytes newly allocated through the pool.
    bytes_allocated: u64,
    /// hits / (hits + misses), 0 when the pool is idle.
    hit_rate: f64,
}

/// Multi-tenant serve throughput at one fleet size (single thread).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServeBench {
    /// Tenant count.
    tenants: u64,
    /// Aggregate decisions per second through the `StreamServer`
    /// (cross-tenant coalesced scoring batches).
    frames_per_sec: f64,
    /// The same frames through one batch-1 `StreamRuntime` per tenant,
    /// served round-robin — what serving would cost without coalescing.
    sequential_frames_per_sec: f64,
    /// `frames_per_sec / sequential_frames_per_sec`; must exceed 1.0 for
    /// fleets large enough to batch (panel packing amortizes).
    coalesced_speedup: f64,
    /// Mean coalesced scoring-batch size across rounds.
    mean_batch: f64,
    /// Largest coalesced batch observed.
    max_batch: u64,
    /// `[batch_size, rounds]` pairs: how often each coalesced batch size
    /// occurred.
    batch_histogram: Vec<(u64, u64)>,
}

/// The whole report.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchReport {
    /// [`BENCH_SCHEMA_VERSION`] at write time.
    schema_version: u32,
    /// Worker threads pinned for the run (always 1 here).
    threads: u64,
    /// Frame geometry, `[height, width]`.
    image_hw: Vec<u64>,
    /// Kernel microbenchmarks.
    kernels: Vec<KernelBench>,
    /// End-to-end throughput.
    pipeline: PipelineBench,
    /// Scratch-pool statistics for the stream segment.
    scratch: ScratchBench,
    /// Multi-tenant serve throughput at growing fleet sizes.
    serve: Vec<ServeBench>,
    /// Numbers measured at the pre-PR kernels on the same machine, for
    /// the recorded before/after trajectory. Empty when not applicable.
    reference: Vec<PipelineBench>,
}

fn time_iters(iters: usize, mut f: impl FnMut()) -> f64 {
    // One warmup call, then a timed batch.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn pseudo(shape: impl Into<ndtensor::Shape>, seed: u64) -> Tensor {
    let shape = shape.into();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Tensor::from_fn(shape, |_| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}

/// The conv layers scoring runs, at batch 1: `(f, c, h, w, kernel,
/// stride)` on the compact widths and 60×160 input — conv1, and conv3 as
/// a mid layer. Each runs through `conv2d_into`, the path every conv
/// forward takes (lowering into a padded panel, then one register-blocked
/// kernel); the row's shape is its GEMM view `m{f} k{c·kernel²}
/// n{oh·ow}`.
const CONV_CASES: &[(usize, usize, usize, usize, usize, usize)] =
    &[(8, 1, 60, 160, 5, 2), (16, 12, 12, 37, 5, 2)];

/// Pipeline-representative dense GEMM shapes: the autoencoder's large
/// dense layers at batch 1 (the streaming case), run the way
/// `neural::Dense` runs them: `x · Wt` on the `[in, out]` weight copy;
/// then two training-path backward shapes.
const GEMM_CASES: &[(&str, usize, usize, usize)] = &[
    // dense decode head at batch 1: [1, 64] x [64, 9600].
    ("matmul_assign", 1, 64, 9600),
    // dense encode at batch 1: [1, 9600] x [9600, 64].
    ("matmul_assign", 1, 9600, 64),
    // dense backward shapes (training path).
    ("matmul_at_b", 32, 64, 9600),
    ("matmul_at_b", 25, 8, 2184),
];

/// Entry-point benches over [`CONV_CASES`] and [`GEMM_CASES`].
///
/// Times the `_into` entry points over a recycled output
/// buffer: the scoring hot path runs on `ndtensor::scratch` storage, and
/// the allocating wrappers' per-call mmap churn (≈0.4 ms on the 1.2 MB
/// backward shape) would otherwise swamp the kernel being measured.
fn kernel_benches(iters: usize) -> Vec<KernelBench> {
    let mut out = Vec::new();
    for &(f, c, h, w, kernel, stride) in CONV_CASES {
        let spec = Conv2dSpec::new((stride, stride), (0, 0));
        let (oh, ow) = spec.output_hw(h, w, kernel, kernel).expect("conv geometry");
        let input = pseudo([1, c, h, w], 11);
        let weight = pseudo([f, c, kernel, kernel], 12);
        let bias = pseudo([f], 13);
        let mut y = vec![0.0f32; f * oh * ow];
        let ns = time_iters(iters, || {
            conv2d_into(
                black_box(&input),
                black_box(&weight),
                Some(&bias),
                spec,
                &mut y,
            )
            .expect("conv2d");
            black_box(&mut y);
        });
        out.push(KernelBench {
            kernel: "conv2d".to_string(),
            shape: format!("m{f} k{} n{}", c * kernel * kernel, oh * ow),
            ns_per_iter: ns,
        });
    }
    for &(kernel, m, k, n) in GEMM_CASES {
        let mut c = vec![0.0f32; m * n];
        let ns = match kernel {
            "matmul_assign" => {
                let a = pseudo([m, k], 13);
                let b = pseudo([k, n], 14);
                time_iters(iters, || {
                    matmul_assign_into(black_box(&a), black_box(&b), &mut c)
                        .expect("matmul_assign");
                    black_box(&mut c);
                })
            }
            "matmul_at_b" => {
                let a = pseudo([k, m], 15);
                let b = pseudo([k, n], 16);
                time_iters(iters, || {
                    matmul_at_b_into(black_box(&a), black_box(&b), &mut c).expect("matmul_at_b");
                    black_box(&mut c);
                })
            }
            _ => unreachable!(),
        };
        out.push(KernelBench {
            kernel: kernel.to_string(),
            shape: format!("m{m} k{k} n{n}"),
            ns_per_iter: ns,
        });
    }
    out
}

/// Trains the bench detector: paper geometry (60×160, VBP + SSIM), quick
/// weights — throughput does not depend on weight quality.
fn train_detector() -> NoveltyDetector {
    let data = DatasetConfig::outdoor().with_len(24).generate(7);
    NoveltyDetectorBuilder::paper()
        .cnn_epochs(1)
        .classifier_config(ClassifierConfig {
            epochs: 1,
            warmup_epochs: 0,
            objective: ReconstructionObjective::paper_ssim(),
            ..ClassifierConfig::paper()
        })
        .seed(1)
        .train(&data)
        .expect("bench detector trains")
}

/// Accumulators produced by the measured serve loop.
struct RoundTiming {
    decisions_total: u64,
    histogram: std::collections::BTreeMap<u64, u64>,
    serve_secs: f64,
    sequential_secs: f64,
}

/// The measured serve loop, separated from setup so the sncheck hot-root
/// cone covers exactly the code being timed. Interleaves the coalesced
/// and sequential measurements round-by-round so clock-frequency drift
/// and cache-state drift hit both paths equally: the gap being measured
/// is only a few percent.
// sncheck:hot-root
fn timed_rounds(
    server: &mut StreamServer,
    runtimes: &mut [StreamRuntime],
    batch: &[Image],
    tenants: usize,
    rounds: usize,
) -> RoundTiming {
    let frame_for = |t: usize, round: usize| &batch[(t + round) % batch.len()];
    let mut timing = RoundTiming {
        decisions_total: 0,
        histogram: std::collections::BTreeMap::new(),
        serve_secs: 0.0,
        sequential_secs: 0.0,
    };
    for round in 0..rounds {
        let start = Instant::now(); // sncheck:allow(hot-path-transitive-clock): this IS the stopwatch — the bench measures the hot path, the read sits outside the per-tenant scoring work
        for t in 0..tenants {
            server
                .offer(t, Some(frame_for(t, round).clone()))
                .expect("offer"); // sncheck:allow(hot-path-transitive-panic): tenant ids are in range by construction and the queue is lossless; aborting beats timing a half-fed server
        }
        let decisions = server.step();
        timing.serve_secs += start.elapsed().as_secs_f64();
        let coalesced = decisions
            .iter()
            .filter(|(_, d)| d.source == DecisionSource::Scored)
            .count() as u64;
        *timing.histogram.entry(coalesced).or_insert(0) += 1;
        timing.decisions_total += decisions.len() as u64;

        let start = Instant::now(); // sncheck:allow(hot-path-transitive-clock): stopwatch for the sequential baseline half of the same round
        for (t, runtime) in runtimes.iter_mut().enumerate() {
            let _ = black_box(runtime.process(Some(frame_for(t, round))));
        }
        timing.sequential_secs += start.elapsed().as_secs_f64();
    }
    timing
}

/// Measures aggregate multi-tenant throughput: `total` clean frames spread
/// round-robin over `tenants` lanes through one `StreamServer` (coalesced
/// cross-tenant batches), against the same schedule through one batch-1
/// `StreamRuntime` per tenant.
fn serve_bench(
    detector: &NoveltyDetector,
    batch: &[Image],
    tenants: usize,
    total: usize,
) -> ServeBench {
    // Lossless queue: the bench measures scoring throughput, not shedding.
    let queue = QueueConfig {
        capacity: tenants.max(4),
        drain: tenants.max(4),
        max_wait_rounds: u64::MAX,
    };
    // At least 6 interleaved round-pairs: large fleets would otherwise
    // measure so few pairs that drift-cancellation loses its grip.
    let rounds = (total / tenants).max(6);
    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|i| {
            TenantSpec::new(format!("bench-{i}"), StreamConfig::for_detector(detector))
                .with_queue(queue)
        })
        .collect();
    let frame_for = |t: usize, round: usize| &batch[(t + round) % batch.len()];

    let mut server = StreamServer::new(detector, specs).expect("bench server");
    // Warmup round: fills the scratch pool and packs weight panels.
    for t in 0..tenants {
        server
            .offer(t, Some(frame_for(t, 0).clone()))
            .expect("offer");
    }
    let _ = server.step();

    // Sequential baseline lanes: identical schedule, one batch-1 runtime
    // per tenant.
    let mut runtimes: Vec<StreamRuntime> = (0..tenants)
        .map(|_| {
            StreamRuntime::new(detector, StreamConfig::for_detector(detector))
                .expect("bench runtime")
        })
        .collect();
    for (t, runtime) in runtimes.iter_mut().enumerate() {
        let _ = runtime.process(Some(frame_for(t, 0))); // warmup
    }

    let timing = timed_rounds(&mut server, &mut runtimes, batch, tenants, rounds);
    let RoundTiming {
        decisions_total,
        histogram,
        serve_secs,
        sequential_secs,
    } = timing;
    assert_eq!(
        server.pending(),
        0,
        "lossless bench queue drained each round"
    );
    let frames_per_sec = decisions_total as f64 / serve_secs;
    let sequential_frames_per_sec = (rounds * tenants) as f64 / sequential_secs;

    let observed: u64 = histogram.values().sum();
    let weighted: u64 = histogram.iter().map(|(size, count)| size * count).sum();
    ServeBench {
        tenants: tenants as u64,
        frames_per_sec,
        sequential_frames_per_sec,
        coalesced_speedup: frames_per_sec / sequential_frames_per_sec,
        mean_batch: if observed == 0 {
            0.0
        } else {
            weighted as f64 / observed as f64
        },
        max_batch: histogram.keys().next_back().copied().unwrap_or(0),
        batch_histogram: histogram.into_iter().collect(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut check_path: Option<String> = None;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out_path = args[i + 1].clone();
                i += 1;
            }
            "--check" if i + 1 < args.len() => {
                check_path = Some(args[i + 1].clone());
                i += 1;
            }
            "--quick" => quick = true,
            other => {
                eprintln!("bench_pipeline: unknown argument `{other}`");
                eprintln!("usage: bench_pipeline [--out PATH] [--check PATH] [--quick]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Single-thread throughout: the acceptance criterion is the 1-core
    // (CI container) number, where the thread pool cannot help.
    set_thread_config(ThreadConfig::serial());

    let kernel_iters = if quick { 20 } else { 200 };
    let frames = if quick { 12 } else { 48 };

    eprintln!("bench_pipeline: kernels ({kernel_iters} iters each)");
    let kernels = kernel_benches(kernel_iters);

    eprintln!("bench_pipeline: training detector (60x160, quick weights)");
    let detector = train_detector();
    let data = DatasetConfig::outdoor().with_len(frames).generate(9);
    let batch: Vec<_> = data.frames().iter().map(|f| f.image.clone()).collect();

    // score_batch throughput.
    let _ = detector.score_batch(&batch).expect("warmup scores"); // warmup
    let start = Instant::now();
    let scores = detector.score_batch(&batch).expect("bench scores");
    let score_secs = start.elapsed().as_secs_f64();
    black_box(&scores);
    let score_fps = batch.len() as f64 / score_secs;
    eprintln!("bench_pipeline: score_batch {score_fps:.2} frames/sec");

    // Warmed stream throughput + scratch stats over the measured span.
    let stream_config = StreamConfig::for_detector(&detector);
    let mut runtime = StreamRuntime::new(&detector, stream_config).expect("stream runtime");
    for image in batch.iter().take(4) {
        let _ = runtime.process(Some(image)); // warmup
    }
    let scratch_before = ndtensor::scratch::stats();
    let start = Instant::now();
    for image in &batch {
        let _ = black_box(runtime.process(Some(image)));
    }
    let stream_secs = start.elapsed().as_secs_f64();
    let scratch_delta = ndtensor::scratch::stats().since(scratch_before);
    let stream_fps = batch.len() as f64 / stream_secs;
    eprintln!("bench_pipeline: stream {stream_fps:.2} frames/sec");

    // Multi-tenant serve: aggregate fps at growing fleet sizes. Total
    // scored work stays comparable across fleet sizes (rounds shrink as
    // tenants grow), except the 64-tenant point which needs one frame per
    // tenant minimum.
    let mut serve = Vec::new();
    // Longer span than the single-stream benches: the coalesced-vs-
    // sequential gap is a few percent, so the measurement needs more
    // frames than the fps numbers do to rise above run-to-run noise.
    let serve_total = if quick { frames } else { frames * 4 };
    for tenants in [1usize, 8, 64] {
        let bench = serve_bench(&detector, &batch, tenants, serve_total);
        eprintln!(
            "bench_pipeline: serve x{tenants} {:.2} frames/sec (sequential {:.2}, speedup {:.2}x, mean batch {:.1})",
            bench.frames_per_sec,
            bench.sequential_frames_per_sec,
            bench.coalesced_speedup,
            bench.mean_batch
        );
        serve.push(bench);
    }

    let total = scratch_delta.hits + scratch_delta.misses;
    let report = BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        threads: 1,
        image_hw: vec![60, 160],
        kernels,
        pipeline: PipelineBench {
            score_batch_frames_per_sec: score_fps,
            stream_frames_per_sec: stream_fps,
        },
        scratch: ScratchBench {
            hits: scratch_delta.hits,
            misses: scratch_delta.misses,
            bytes_allocated: scratch_delta.bytes_allocated,
            hit_rate: if total == 0 {
                0.0
            } else {
                scratch_delta.hits as f64 / total as f64
            },
        },
        serve,
        reference: Vec::new(),
    };

    // The coalesced path must beat per-tenant sequential scoring once the
    // fleet is large enough to batch. Quick runs are too noisy to gate.
    if !quick {
        // Coalescing must stay at least at parity with per-tenant
        // sequential scoring. Batched and batch-1 scoring sit within
        // measurement noise of each other, so the gate allows noise
        // below exact parity while still catching a real coalescing
        // regression.
        for bench in report.serve.iter().filter(|b| b.tenants >= 8) {
            assert!(
                bench.coalesced_speedup >= 0.95,
                "coalesced serve at {} tenants fell behind sequential ({:.2}x < 0.95x)",
                bench.tenants,
                bench.coalesced_speedup
            );
        }
        // A lone tenant rides the single-frame fast path (batch of one
        // scores through scalar classify), so serving must cost the same
        // as a bare StreamRuntime: parity minus measurement noise. The
        // pre-fast-path batch-1 assembly overhead showed up here as a
        // consistent ~0.97x.
        for bench in report.serve.iter().filter(|b| b.tenants == 1) {
            assert!(
                bench.coalesced_speedup >= 0.9,
                "single-tenant serve fell behind a bare StreamRuntime ({:.3}x < 0.9x): \
                 the batch-of-1 fast path regressed",
                bench.coalesced_speedup
            );
        }
    }

    // Load the baseline before writing: with the default --out the check
    // target and the output file are the same path, and writing first
    // would compare the run against itself.
    let baseline = check_path.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("bench_pipeline: cannot read baseline {path}: {e}"));
        let baseline: BenchReport = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("bench_pipeline: baseline {path} does not parse: {e}"));
        assert!(
            (BENCH_SCHEMA_CHECK_FLOOR..=BENCH_SCHEMA_VERSION).contains(&baseline.schema_version),
            "baseline schema v{} is outside the comparable range v{}..=v{}",
            baseline.schema_version,
            BENCH_SCHEMA_CHECK_FLOOR,
            BENCH_SCHEMA_VERSION
        );
        if baseline.schema_version < BENCH_SCHEMA_VERSION {
            eprintln!(
                "bench_pipeline: baseline is schema v{} (current v{}); \
                 comparing the fields both layouts share",
                baseline.schema_version, BENCH_SCHEMA_VERSION
            );
        }
        baseline
    });

    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, format!("{json}\n")).expect("report is written");
    eprintln!("bench_pipeline: wrote {out_path}");

    if let Some(baseline) = baseline {
        let mut failed = false;
        let mut gates = vec![
            (
                "score_batch",
                score_fps,
                baseline.pipeline.score_batch_frames_per_sec,
            ),
            (
                "stream",
                stream_fps,
                baseline.pipeline.stream_frames_per_sec,
            ),
        ];
        for now_bench in &report.serve {
            if let Some(then_bench) = baseline
                .serve
                .iter()
                .find(|b| b.tenants == now_bench.tenants)
            {
                gates.push((
                    match now_bench.tenants {
                        1 => "serve x1",
                        8 => "serve x8",
                        _ => "serve x64",
                    },
                    now_bench.frames_per_sec,
                    then_bench.frames_per_sec,
                ));
            }
        }
        for (name, now, then) in gates {
            let floor = 0.8 * then;
            if now < floor {
                eprintln!(
                    "bench_pipeline: REGRESSION {name}: {now:.2} frames/sec < 80% of baseline {then:.2}"
                );
                failed = true;
            } else {
                eprintln!(
                    "bench_pipeline: {name} ok: {now:.2} frames/sec vs baseline {then:.2} (floor {floor:.2})"
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

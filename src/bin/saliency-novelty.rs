//! Command-line interface for the saliency-novelty pipeline.
//!
//! ```text
//! saliency-novelty generate --world outdoor --len 20 --out frames/
//! saliency-novelty backends
//! saliency-novelty train    --world outdoor --len 200 --backend vbp+ssim --out detector.json
//! saliency-novelty train    --world outdoor --len 200 --ensemble --out ensemble.json
//! saliency-novelty classify --detector detector.json --image frames/frame_0003.pgm
//! saliency-novelty eval     --detector ensemble.json --backend model-char --len 50
//! saliency-novelty stream   --detector detector.json --faults nan@20+8 --alarm-log alarms.json
//! saliency-novelty serve    --detector detector.json --tenants 8 --hostile 3 --log-dir logs/
//! saliency-novelty evalgrid --quick --domains clear=clear,fog=fog@0.8,night=night@0.7
//! saliency-novelty info     --detector detector.json
//! saliency-novelty report   --file report.json --expect cnn-train,vbp
//! ```
//!
//! Flags are `--key value` pairs (`--json` stands alone); `--help` (or no
//! arguments) prints usage. Usage mistakes (unknown flags, unparseable
//! values, missing required flags) exit with code 2; runtime failures
//! (I/O, training, evaluation) exit with code 1. The argument parser is
//! deliberately dependency-free.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ndtensor::par::{set_thread_config, ThreadConfig};
use novelty::eval::evaluate;
use novelty::evalgrid::{run_evalgrid, GridConfig, GridDomain};
use novelty::monitor::AlarmState;
use novelty::{
    load_any, AlarmLog, AlarmLogEntry, BackendKind, CostModel, Detector, EnsembleDetector,
    FallbackPolicy, HealthState, LoadedDetector, NoveltyDetector, NoveltyDetectorBuilder,
    QueueConfig, StreamConfig, StreamRuntime, StreamServer, TenantSpec,
};
use obs::{Recorder, RunRecorder, RunReport};
use serde::Serialize;
use simdrive::{
    standard_mix, DatasetConfig, DriveConfig, FaultBurst, FaultConfig, FaultInjector, FaultKind,
    InjectedFrame, Weather, World,
};
use vision::Image;

const USAGE: &str = "\
saliency-novelty — novelty detection via network saliency (DSN 2019 reproduction)

USAGE:
  saliency-novelty <command> [--key value]...

COMMANDS:
  generate   render a synthetic driving dataset to PGM files
             --world outdoor|indoor   (default outdoor)
             --weather clear|fog|rain (default clear)
             --len N                  (default 20)
             --seed S                 (default 0)
             --out DIR                (default frames/)
  backends   list the registered score backends
  train      train a detector (or a fused ensemble) and save it as JSON
             --world outdoor|indoor   (default outdoor)
             --backend ID             score backend: model-char|raw+mse|
                                      vbp+mse|vbp+ssim (default vbp+ssim;
                                      --pipeline is a deprecated alias)
             --ensemble               train every registered backend on a
                                      shared steering CNN and save the
                                      calibrated majority-vote ensemble
             --len N                  (default 200)
             --seed S                 (default 0)
             --cnn-epochs N           (default 8)
             --ae-epochs N            (default 60)
             --out FILE               (default detector.json)
             --obs-out FILE           write an observability report
  classify   score one PGM image with a saved detector or ensemble
             --detector FILE          (required)
             --image FILE.pgm         (required)
             --backend ID             for an ensemble file, score with
                                      this member only
             --ensemble               require the file to hold an ensemble
             --json                   emit the full verdict as JSON
  eval       compare target vs novel synthetic data under a detector
             --detector FILE          (required)
             --backend ID             see classify
             --ensemble               see classify
             --target-world outdoor|indoor (default outdoor)
             --novel-world outdoor|indoor  (default indoor)
             --len N                  (default 50)
             --seed S                 (default 1)
             --json                   emit the summary as JSON
             --obs-out FILE           write an observability report
  stream     run the fault-tolerant streaming monitor over a simulated
             drive, optionally with injected sensor faults
             --detector FILE          (required)
             --backend ID             see classify
             --ensemble               see classify
             --world outdoor|indoor   (default outdoor)
             --len N                  (default 120)
             --seed S                 (default 0)
             --window N               alarm window size (default 8)
             --min-novel N            flags that raise the alarm (default 5)
             --fallback treat-novel|hold-last|abstain (default treat-novel)
             --faults k@s+n,...       scripted fault bursts: kind drop|
                                      freeze|nan|spike|truncate at frame s
                                      for n frames (e.g. nan@20+8)
             --fault-rate P           random burst start probability per
                                      frame (default 0 = off)
             --fault-seed S           fault schedule seed (default --seed)
             --fault-burst-len N      max random burst length (default 4)
             --deadline-ms N          per-frame scoring deadline; overruns
                                      degrade health (default off; leaves
                                      runs byte-reproducible)
             --alarm-log FILE         write the per-frame decision log as
                                      JSON (byte-identical across runs
                                      with the same seeds and schedule)
             --require-recovery       exit 1 unless health degraded during
                                      the run AND ended healthy
             --json                   emit the summary as JSON
             --obs-out FILE           write an observability report
  serve      run the multi-tenant stream server over seeded per-tenant
             simulated traffic: bounded admission queues, deadline-aware
             shedding, one coalesced scoring batch per round
             --detector FILE          (required)
             --backend ID             see classify
             --ensemble               see classify
             --tenants N              tenant count (default 4)
             --len N                  frames per tenant (default 60)
             --seed S                 master traffic seed (default 0)
             --hostile IDX            give tenant IDX a scripted fault
                                      storm (see --hostile-faults)
             --hostile-faults k@s+n,. fault bursts for the hostile tenant
                                      (default: nan + freeze storms
                                      scaled to --len)
             --capacity N             per-tenant queue capacity (default 6)
             --drain N                frames served per tenant per round
                                      (default 2)
             --max-wait N             rounds a frame may queue before it
                                      is shed (default 4)
             --window N               alarm window size (default 8)
             --min-novel N            flags that raise the alarm (default 5)
             --fallback treat-novel|hold-last|abstain (default treat-novel)
             --cost-ms N              virtual per-frame scoring cost; the
                                      deadline clock charges this instead
                                      of wall time (deterministic)
             --cost-jitter-ms N       seeded jitter on the virtual cost
             --deadline-ms N          per-frame scoring deadline; needs
                                      --cost-ms (keeps runs reproducible)
             --log-dir DIR            write one atomic per-tenant alarm
                                      log DIR/<tenant>.json (byte-identical
                                      across runs and thread counts)
             --require-recovery       exit 1 unless the --hostile tenant
                                      degraded AND ended healthy
             --json                   emit the summary as JSON
             --obs-out FILE           write an observability report
  evalgrid   train one detector per scenario domain and score the full
             train-domain x score-domain matrix (AUROC, threshold
             exceedance, mean SSIM per cell)
             --domains name=spec,...  scenario domains as modifier-stack
                                      specs, e.g. clear=clear,fog=fog@0.8,
                                      dusk=night@0.5+rain@0.3
                                      (default clear,fog,night)
             --quick                  smoke-test sizing (seconds; default
                                      is paper geometry, minutes)
             --train-len N            frames per training set (overrides
                                      the sizing preset)
             --test-len N             frames per held-out/score set
             --cnn-epochs N           steering-CNN epochs
             --ae-epochs N            autoencoder epochs
             --seed S                 (default 17)
             --backends id,id,...     score backends to train per domain
                                      (default: preset — vbp+ssim for
                                      --quick, all four otherwise;
                                      --pipeline ID is a deprecated alias)
             --ensemble               train all registered backends and
                                      report the fused verdict per cell
             --out FILE               write the grid as schema-versioned
                                      JSON (BENCH_evalgrid.json format)
             --json                   print the grid JSON to stdout
                                      instead of the table
             --obs-out FILE           write an observability report
  info       print a saved detector's configuration
             --detector FILE          (required)
  report     pretty-print an observability report written by --obs-out
             --file FILE              (required)
             --expect s1,s2,...       fail unless every named pipeline
                                      stage appears with positive time

  All pipeline commands also accept --threads N to fix the worker-pool
  size (overrides the SALIENCY_THREADS environment variable).

EXIT CODES:
  0 success · 1 runtime failure · 2 usage error
";

/// Flags that stand alone instead of consuming a value.
const BOOL_FLAGS: &[&str] = &["json", "require-recovery", "quick", "ensemble"];

/// CLI failure, split so `main` can map the class to an exit code.
enum CliError {
    /// The invocation itself was malformed (exit 2).
    Usage(String),
    /// The invocation was well-formed but the work failed (exit 1).
    Runtime(String),
}

type CliResult = Result<(), CliError>;

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn runtime_err(msg: impl Into<String>) -> CliError {
    CliError::Runtime(msg.into())
}

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, CliError> {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < raw.len() {
            let key = raw[i]
                .strip_prefix("--")
                .ok_or_else(|| usage_err(format!("expected --flag, got {:?}", raw[i])))?;
            if BOOL_FLAGS.contains(&key) {
                flags.insert(key.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let value = raw
                .get(i + 1)
                .ok_or_else(|| usage_err(format!("flag --{key} is missing its value")))?;
            flags.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Args { flags })
    }

    /// Rejects flags this command does not understand — a typo'd flag
    /// silently falling back to a default is worse than an error.
    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), CliError> {
        for key in self.flags.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(usage_err(format!(
                    "unknown flag --{key} (expected one of: {})",
                    allowed
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }

    fn get(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn optional(&self, key: &str) -> Option<String> {
        self.flags.get(key).cloned()
    }

    fn is_set(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    fn required(&self, key: &str) -> Result<String, CliError> {
        self.flags
            .get(key)
            .cloned()
            .ok_or_else(|| usage_err(format!("missing required flag --{key}")))
    }

    fn usize(&self, key: &str, default: usize) -> Result<usize, CliError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| usage_err(format!("--{key} must be an integer, got {v:?}"))),
        }
    }

    fn u64(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| usage_err(format!("--{key} must be an integer, got {v:?}"))),
        }
    }

    /// Applies `--threads N` to the process-global worker pool.
    fn apply_threads(&self) -> Result<(), CliError> {
        if let Some(v) = self.flags.get("threads") {
            let n: usize = v
                .parse()
                .map_err(|_| usage_err(format!("--threads must be an integer, got {v:?}")))?;
            if n == 0 {
                return Err(usage_err("--threads must be at least 1"));
            }
            set_thread_config(ThreadConfig::new(n));
        }
        Ok(())
    }
}

fn parse_world(s: &str) -> Result<World, CliError> {
    match s {
        "outdoor" => Ok(World::Outdoor),
        "indoor" => Ok(World::Indoor),
        other => Err(usage_err(format!(
            "unknown world {other:?} (outdoor|indoor)"
        ))),
    }
}

fn parse_weather(s: &str) -> Result<Weather, CliError> {
    match s {
        "clear" => Ok(Weather::Clear),
        "fog" => Ok(Weather::Fog),
        "rain" => Ok(Weather::Rain),
        other => Err(usage_err(format!(
            "unknown weather {other:?} (clear|fog|rain)"
        ))),
    }
}

fn parse_backend(s: &str) -> Result<BackendKind, CliError> {
    BackendKind::from_id(s).ok_or_else(|| {
        let known: Vec<&str> = BackendKind::all().iter().map(|k| k.id()).collect();
        usage_err(format!(
            "unknown backend {s:?} (known: {})",
            known.join("|")
        ))
    })
}

/// Parses a comma-separated backend list (`model-char,vbp+ssim`).
fn parse_backend_list(spec: &str) -> Result<Vec<BackendKind>, CliError> {
    let mut kinds = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        kinds.push(parse_backend(part)?);
    }
    if kinds.is_empty() {
        return Err(usage_err("--backends needs at least one backend id"));
    }
    Ok(kinds)
}

/// Picks the recorder for a command: a live [`RunRecorder`] when
/// `--obs-out` is present, the no-op otherwise. Recording never changes
/// results, only what gets written at the end.
fn recorder_for(args: &Args) -> (Option<RunRecorder>, Option<String>) {
    match args.optional("obs-out") {
        Some(path) => (Some(RunRecorder::new()), Some(path)),
        None => (None, None),
    }
}

/// Writes the observability report if `--obs-out` was requested.
fn flush_report(
    recorder: &Option<RunRecorder>,
    obs_out: &Option<String>,
    command: &str,
) -> Result<(), CliError> {
    if let (Some(recorder), Some(path)) = (recorder, obs_out) {
        let report = recorder.report(command);
        report
            .save(path)
            .map_err(|e| runtime_err(format!("cannot write report {path}: {e}")))?;
        eprintln!("wrote observability report to {path}");
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> CliResult {
    args.reject_unknown(&["world", "weather", "len", "seed", "out", "threads"])?;
    let world = parse_world(&args.get("world", "outdoor"))?;
    let weather = parse_weather(&args.get("weather", "clear"))?;
    let len = args.usize("len", 20)?;
    let seed = args.u64("seed", 0)?;
    let out = PathBuf::from(args.get("out", "frames"));
    std::fs::create_dir_all(&out)
        .map_err(|e| runtime_err(format!("cannot create {}: {e}", out.display())))?;

    let dataset = DatasetConfig::for_world(world)
        .with_len(len)
        .with_weather(weather)
        .generate(seed);
    let mut index = String::from("frame,angle\n");
    for (i, frame) in dataset.frames().iter().enumerate() {
        let name = format!("frame_{i:04}.pgm");
        vision::io::save_pgm(&frame.image, out.join(&name))
            .map_err(|e| runtime_err(format!("cannot write {name}: {e}")))?;
        index.push_str(&format!("{name},{:.6}\n", frame.angle));
    }
    std::fs::write(out.join("angles.csv"), index)
        .map_err(|e| runtime_err(format!("cannot write angles.csv: {e}")))?;
    println!(
        "wrote {len} {world} frames ({weather}) and angles.csv to {}",
        out.display()
    );
    Ok(())
}

fn cmd_train(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "world",
        "backend",
        "pipeline",
        "ensemble",
        "len",
        "seed",
        "cnn-epochs",
        "ae-epochs",
        "out",
        "obs-out",
        "threads",
    ])?;
    let world = parse_world(&args.get("world", "outdoor"))?;
    let backend_flag = args
        .optional("backend")
        .or_else(|| args.optional("pipeline"));
    if args.is_set("ensemble") && backend_flag.is_some() {
        return Err(usage_err(
            "--ensemble trains every registered backend; drop --backend",
        ));
    }
    let backend = parse_backend(&backend_flag.unwrap_or_else(|| "vbp+ssim".to_string()))?;
    let len = args.usize("len", 200)?;
    let seed = args.u64("seed", 0)?;
    let cnn_epochs = args.usize("cnn-epochs", 8)?;
    let ae_epochs = args.usize("ae-epochs", 60)?;
    let out = args.get("out", "detector.json");
    let (recorder, obs_out) = recorder_for(args);

    println!("generating {len} {world} training frames…");
    let dataset = DatasetConfig::for_world(world).with_len(len).generate(seed);
    let dyn_recorder: &dyn Recorder = match &recorder {
        Some(r) => r,
        None => obs::noop(),
    };
    if args.is_set("ensemble") {
        println!(
            "training ensemble over every registered backend \
             (cnn {cnn_epochs} ep, ae {ae_epochs} ep)…"
        );
        let base = NoveltyDetectorBuilder::paper()
            .cnn_epochs(cnn_epochs)
            .ae_epochs(ae_epochs)
            .seed(seed);
        let ensemble = EnsembleDetector::train(&base, &BackendKind::all(), &dataset, dyn_recorder)
            .map_err(|e| runtime_err(format!("training failed: {e}")))?;
        ensemble
            .save(&out)
            .map_err(|e| runtime_err(format!("cannot save {out}: {e}")))?;
        println!(
            "saved {} to {out} (quorum {} of {})",
            ensemble.label(),
            ensemble.quorum(),
            ensemble.members().len()
        );
        return flush_report(&recorder, &obs_out, "train");
    }
    println!(
        "training {} backend (cnn {cnn_epochs} ep, ae {ae_epochs} ep)…",
        backend.id()
    );
    let builder = NoveltyDetectorBuilder::for_kind(backend)
        .cnn_epochs(cnn_epochs)
        .ae_epochs(ae_epochs)
        .seed(seed);
    let detector = builder
        .train_recorded(&dataset, dyn_recorder)
        .map_err(|e| runtime_err(format!("training failed: {e}")))?;
    detector
        .save(&out)
        .map_err(|e| runtime_err(format!("cannot save {out}: {e}")))?;
    println!(
        "saved detector to {out} (threshold {:.4}, {} training scores)",
        detector.threshold().value(),
        detector.training_scores().len()
    );
    flush_report(&recorder, &obs_out, "train")
}

fn load_image(path: &str) -> Result<Image, CliError> {
    vision::io::load_pgm(path).map_err(|e| runtime_err(format!("cannot read {path}: {e}")))
}

fn load_detector_file(args: &Args) -> Result<LoadedDetector, CliError> {
    load_any(args.required("detector")?)
        .map_err(|e| runtime_err(format!("cannot load detector: {e}")))
}

/// Resolves `--backend` / `--ensemble` against whatever the detector
/// file held: `--backend ID` selects one member of an ensemble (or
/// asserts a single file's backend), `--ensemble` requires a fused
/// ensemble file, and no flag uses the file as-is.
fn select_detector<'a>(
    loaded: &'a LoadedDetector,
    args: &Args,
) -> Result<&'a dyn Detector, CliError> {
    if args.is_set("backend") && args.is_set("ensemble") {
        return Err(usage_err("--backend and --ensemble are mutually exclusive"));
    }
    if let Some(id) = args.optional("backend") {
        let kind = parse_backend(&id)?;
        return match loaded {
            LoadedDetector::Single(d) => {
                if d.kind() == kind {
                    Ok(d as &dyn Detector)
                } else {
                    Err(runtime_err(format!(
                        "detector file holds backend {}, not {}",
                        d.kind().id(),
                        kind.id()
                    )))
                }
            }
            LoadedDetector::Ensemble(e) => e
                .members()
                .iter()
                .find(|m| m.kind() == kind)
                .map(|m| m as &dyn Detector)
                .ok_or_else(|| runtime_err(format!("{} has no {} member", e.label(), kind.id()))),
        };
    }
    if args.is_set("ensemble") && loaded.as_ensemble().is_none() {
        return Err(runtime_err(
            "--ensemble: the detector file holds a single backend, not an ensemble",
        ));
    }
    Ok(loaded.as_detector())
}

fn cmd_backends(args: &Args) -> CliResult {
    args.reject_unknown(&[])?;
    println!("{:<12} {:<12} description", "backend", "metric");
    for kind in BackendKind::all() {
        println!(
            "{:<12} {:<12} {}",
            kind.id(),
            kind.metric_name(),
            kind.describe()
        );
    }
    println!("\nensembles fuse every backend above with a majority vote over");
    println!("calibrated percentile ranks (train with: train --ensemble).");
    Ok(())
}

fn cmd_classify(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "detector", "image", "backend", "ensemble", "json", "threads",
    ])?;
    let loaded = load_detector_file(args)?;
    let detector = select_detector(&loaded, args)?;
    let image = load_image(&args.required("image")?)?;
    let verdict = detector
        .classify(&image)
        .map_err(|e| runtime_err(format!("classification failed: {e}")))?;
    if args.is_set("json") {
        let json = serde_json::to_string(&verdict)
            .map_err(|e| runtime_err(format!("cannot serialize verdict: {e}")))?;
        println!("{json}");
    } else {
        println!(
            "{{\"is_novel\": {}, \"score\": {:.6}, \"threshold\": {:.6}, \
             \"percentile_rank\": {:.2}, \"backend\": \"{}\", \"votes\": \"{}/{}\"}}",
            verdict.is_novel,
            verdict.score,
            verdict.threshold,
            verdict.percentile_rank,
            verdict.backend,
            verdict.novel_votes,
            verdict.total_votes
        );
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "detector",
        "backend",
        "ensemble",
        "target-world",
        "novel-world",
        "len",
        "seed",
        "json",
        "obs-out",
        "threads",
    ])?;
    let loaded = load_detector_file(args)?;
    let detector = select_detector(&loaded, args)?;
    let target_world = parse_world(&args.get("target-world", "outdoor"))?;
    let novel_world = parse_world(&args.get("novel-world", "indoor"))?;
    let len = args.usize("len", 50)?;
    let seed = args.u64("seed", 1)?;
    let (recorder, obs_out) = recorder_for(args);
    let images = |world: World, seed: u64| -> Vec<Image> {
        DatasetConfig::for_world(world)
            .with_len(len)
            .generate(seed)
            .frames()
            .iter()
            .map(|f| f.image.clone())
            .collect()
    };
    let dyn_recorder: &dyn Recorder = match &recorder {
        Some(r) => r,
        None => obs::noop(),
    };
    let report = evaluate(
        detector,
        &images(target_world, seed),
        &images(novel_world, seed + 1),
        dyn_recorder,
    )
    .map_err(|e| runtime_err(format!("evaluation failed: {e}")))?;
    if args.is_set("json") {
        println!(
            "{{\"auroc\": {:.6}, \"novel_detection_rate\": {:.6}, \
             \"false_positive_rate\": {:.6}, \"threshold\": {:.6}, \
             \"target_images\": {}, \"novel_images\": {}}}",
            report.separation.auroc,
            report.novel_detection_rate,
            report.false_positive_rate,
            report.threshold,
            report.target_scores.len(),
            report.novel_scores.len()
        );
    } else {
        println!("{report}");
    }
    flush_report(&recorder, &obs_out, "eval")
}

/// Parses `--faults` specs like `nan@20+8,freeze@40` (burst length
/// defaults to 1).
fn parse_fault_bursts(spec: &str) -> Result<Vec<FaultBurst>, CliError> {
    let mut bursts = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (kind_s, rest) = part.split_once('@').ok_or_else(|| {
            usage_err(format!(
                "fault burst {part:?} must look like kind@start+len (e.g. nan@20+8)"
            ))
        })?;
        let kind = FaultKind::from_name(kind_s).ok_or_else(|| {
            usage_err(format!(
                "unknown fault kind {kind_s:?} (drop|freeze|nan|spike|truncate)"
            ))
        })?;
        let (start_s, len_s) = rest.split_once('+').unwrap_or((rest, "1"));
        let start: usize = start_s.parse().map_err(|_| {
            usage_err(format!(
                "fault burst start must be an integer, got {start_s:?}"
            ))
        })?;
        let len: usize = len_s.parse().map_err(|_| {
            usage_err(format!(
                "fault burst length must be an integer, got {len_s:?}"
            ))
        })?;
        if len == 0 {
            return Err(usage_err(format!("fault burst {part:?} has zero length")));
        }
        bursts.push(FaultBurst::new(kind, start, len));
    }
    if bursts.is_empty() {
        return Err(usage_err(
            "--faults needs at least one kind@start+len burst",
        ));
    }
    Ok(bursts)
}

fn cmd_stream(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "detector",
        "backend",
        "ensemble",
        "world",
        "len",
        "seed",
        "window",
        "min-novel",
        "fallback",
        "faults",
        "fault-rate",
        "fault-seed",
        "fault-burst-len",
        "deadline-ms",
        "alarm-log",
        "require-recovery",
        "json",
        "obs-out",
        "threads",
    ])?;
    let loaded = load_detector_file(args)?;
    let detector = select_detector(&loaded, args)?;
    let world = parse_world(&args.get("world", "outdoor"))?;
    let len = args.usize("len", 120)?;
    let seed = args.u64("seed", 0)?;
    let window = args.usize("window", 8)?;
    let min_novel = args.usize("min-novel", 5)?;
    let fallback_name = args.get("fallback", "treat-novel");
    let fallback = FallbackPolicy::from_name(&fallback_name).ok_or_else(|| {
        usage_err(format!(
            "unknown fallback policy {fallback_name:?} (treat-novel|hold-last|abstain)"
        ))
    })?;

    // Assemble the deterministic fault schedule.
    let mut fault_config = FaultConfig::new(args.u64("fault-seed", seed)?);
    if let Some(spec) = args.optional("faults") {
        for burst in parse_fault_bursts(&spec)? {
            fault_config = fault_config.with_burst(burst);
        }
    }
    let rate_s = args.get("fault-rate", "0");
    let rate: f32 = rate_s
        .parse()
        .map_err(|_| usage_err(format!("--fault-rate must be a number, got {rate_s:?}")))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(usage_err(format!(
            "--fault-rate must be in [0, 1], got {rate}"
        )));
    }
    let burst_len = args.usize("fault-burst-len", 4)?;
    if burst_len == 0 {
        return Err(usage_err("--fault-burst-len must be at least 1"));
    }
    if rate > 0.0 {
        fault_config = fault_config.with_random(rate, burst_len);
    }

    let mut config = StreamConfig::for_detector(detector)
        .with_fallback(fallback)
        .with_alarm_window(window, min_novel);
    let deadline_ms = args.u64("deadline-ms", 0)?;
    if deadline_ms > 0 {
        config = config.with_deadline(Duration::from_millis(deadline_ms));
    }
    let mut runtime = StreamRuntime::new(detector, config)
        .map_err(|e| usage_err(format!("invalid stream configuration: {e}")))?;

    let (recorder, obs_out) = recorder_for(args);
    let dyn_recorder: &dyn Recorder = match &recorder {
        Some(r) => r,
        None => obs::noop(),
    };

    // Drive frames are rendered at the detector's input size so the gate
    // checks deployment geometry, whatever the detector was trained on.
    let (height, width) = detector.input_size();
    let drive = DriveConfig::new(world)
        .with_len(len)
        .with_size(height, width)
        .simulate(seed);
    let mut injector = FaultInjector::new(fault_config);

    let mut log = Vec::with_capacity(len);
    let mut scored = 0u64;
    let mut fallbacks: HashMap<&'static str, u64> = HashMap::new();
    let mut gate_rejections: HashMap<&'static str, u64> = HashMap::new();
    let mut alarm_raised_frames = 0u64;
    for (i, frame) in drive.frames().iter().enumerate() {
        let injected = injector.apply(i, &frame.image);
        let decision = runtime.process_recorded(injected.image.as_ref(), dyn_recorder);
        if decision.source == novelty::DecisionSource::Scored {
            scored += 1;
        } else {
            *fallbacks.entry(decision.source.name()).or_default() += 1;
        }
        if let Some(fault) = &decision.gate_fault {
            *gate_rejections.entry(fault.class()).or_default() += 1;
        }
        if decision.alarm == AlarmState::Raised {
            alarm_raised_frames += 1;
        }
        log.push(AlarmLogEntry::from_decision(
            &decision,
            injected.fault.map(|k| k.name()),
        ));
    }

    if let Some(path) = args.optional("alarm-log") {
        let json = serde_json::to_string(&log)
            .map_err(|e| runtime_err(format!("cannot serialize alarm log: {e}")))?;
        std::fs::write(&path, json)
            .map_err(|e| runtime_err(format!("cannot write alarm log {path}: {e}")))?;
        eprintln!("wrote alarm log to {path}");
    }

    let health = runtime.health();
    let final_state = health.state();
    let worst = health.worst_state();
    let transitions = health.transitions().len();
    let monitor = runtime.monitor();
    // Sort the breakdown maps so output ordering is stable.
    let sorted = |m: &HashMap<&'static str, u64>| -> Vec<(String, u64)> {
        let mut v: Vec<_> = m.iter().map(|(k, n)| (k.to_string(), *n)).collect();
        v.sort();
        v
    };
    let gate_sorted = sorted(&gate_rejections);
    let fallback_sorted = sorted(&fallbacks);
    let breakdown = |v: &[(String, u64)]| -> String {
        if v.is_empty() {
            "none".to_string()
        } else {
            v.iter()
                .map(|(k, n)| format!("{k} {n}"))
                .collect::<Vec<_>>()
                .join(", ")
        }
    };

    if args.is_set("json") {
        println!(
            "{{\"frames\": {}, \"scored\": {}, \"fallbacks\": {}, \
             \"gate_rejections\": {}, \"health_transitions\": {}, \
             \"worst_health\": \"{}\", \"final_health\": \"{}\", \
             \"alarm_raised_frames\": {}, \"lifetime_novel_rate\": {:.6}}}",
            runtime.frames_processed(),
            scored,
            fallback_sorted.iter().map(|(_, n)| n).sum::<u64>(),
            gate_sorted.iter().map(|(_, n)| n).sum::<u64>(),
            transitions,
            worst.name(),
            final_state.name(),
            alarm_raised_frames,
            monitor.lifetime_novel_rate()
        );
    } else {
        println!(
            "processed {} frames with policy {}: {} scored, {} fallback",
            runtime.frames_processed(),
            fallback.name(),
            scored,
            fallback_sorted.iter().map(|(_, n)| n).sum::<u64>()
        );
        println!("gate rejections:    {}", breakdown(&gate_sorted));
        println!("fallback decisions: {}", breakdown(&fallback_sorted));
        println!(
            "health:             {} transitions, worst {}, final {}",
            transitions,
            worst.name(),
            final_state.name()
        );
        println!(
            "alarm:              raised on {} frames, lifetime novel rate {:.1}%",
            alarm_raised_frames,
            monitor.lifetime_novel_rate() * 100.0
        );
    }
    flush_report(&recorder, &obs_out, "stream")?;

    if args.is_set("require-recovery") {
        if worst == HealthState::Healthy {
            return Err(runtime_err(
                "--require-recovery: health never degraded (no faults took effect)".to_string(),
            ));
        }
        if final_state != HealthState::Healthy {
            return Err(runtime_err(format!(
                "--require-recovery: stream ended {} (worst {}), expected healthy",
                final_state.name(),
                worst.name()
            )));
        }
        println!(
            "recovery check passed: degraded to {} and returned to healthy",
            worst.name()
        );
    }
    Ok(())
}

/// Per-tenant summary row of the `serve` command.
#[derive(Serialize)]
struct ServeTenantSummary {
    tenant: String,
    offered: u64,
    decisions: u64,
    scored: u64,
    shed_queue_full: u64,
    shed_deadline: u64,
    gate_rejected: u64,
    score_errors: u64,
    alarm_raised_frames: u64,
    worst_health: String,
    final_health: String,
}

fn cmd_serve(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "detector",
        "backend",
        "ensemble",
        "tenants",
        "len",
        "seed",
        "hostile",
        "hostile-faults",
        "capacity",
        "drain",
        "max-wait",
        "window",
        "min-novel",
        "fallback",
        "cost-ms",
        "cost-jitter-ms",
        "deadline-ms",
        "log-dir",
        "require-recovery",
        "json",
        "obs-out",
        "threads",
    ])?;
    let loaded = load_detector_file(args)?;
    let detector = select_detector(&loaded, args)?;
    let tenants = args.usize("tenants", 4)?;
    if tenants == 0 {
        return Err(usage_err("--tenants must be at least 1"));
    }
    let len = args.usize("len", 60)?;
    if len == 0 {
        return Err(usage_err("--len must be at least 1"));
    }
    let seed = args.u64("seed", 0)?;
    let hostile = match args.optional("hostile") {
        Some(s) => {
            let idx: usize = s
                .parse()
                .map_err(|_| usage_err(format!("--hostile must be a tenant index, got {s:?}")))?;
            if idx >= tenants {
                return Err(usage_err(format!(
                    "--hostile {idx} is out of range for {tenants} tenants"
                )));
            }
            Some(idx)
        }
        None => None,
    };
    let window = args.usize("window", 8)?;
    let min_novel = args.usize("min-novel", 5)?;
    let fallback_name = args.get("fallback", "treat-novel");
    let fallback = FallbackPolicy::from_name(&fallback_name).ok_or_else(|| {
        usage_err(format!(
            "unknown fallback policy {fallback_name:?} (treat-novel|hold-last|abstain)"
        ))
    })?;
    let queue = QueueConfig {
        capacity: args.usize("capacity", 6)?,
        drain: args.usize("drain", 2)?,
        max_wait_rounds: args.u64("max-wait", 4)?,
    };
    let cost_ms = args.u64("cost-ms", 0)?;
    let cost_jitter_ms = args.u64("cost-jitter-ms", 0)?;
    let deadline_ms = args.u64("deadline-ms", 0)?;
    if deadline_ms > 0 && cost_ms == 0 {
        return Err(usage_err(
            "serve deadlines use the virtual cost clock; set --cost-ms as well \
             (wall-clock deadlines would make runs irreproducible)",
        ));
    }

    // Seeded per-tenant traffic: each tenant's drive, scenario stack and
    // fault schedule derive from (master seed, tenant index) only, so the
    // arrival streams are independent of each other and of scheduling.
    let (height, width) = detector.input_size();
    let mut configs = standard_mix(tenants, len, None);
    for config in configs.iter_mut() {
        config.height = height;
        config.width = width;
    }
    if let Some(idx) = hostile {
        let bursts = match args.optional("hostile-faults") {
            Some(spec) => parse_fault_bursts(&spec)?,
            None => {
                // Default storm: a NaN burst then a freeze burst, scaled
                // to the stream so the tenant can degrade AND recover.
                let nan_len = (len / 8).max(3);
                let freeze_len = (len / 10).max(2);
                vec![
                    FaultBurst::new(FaultKind::NanBurst, len / 6, nan_len),
                    FaultBurst::new(FaultKind::Freeze, len / 3, freeze_len),
                ]
            }
        };
        for burst in bursts {
            configs[idx].fault_bursts.push(burst);
        }
        // Recovery needs headroom: serve the hostile tenant at a cadence
        // its drain budget can absorb.
        configs[idx].arrivals_per_round = 1;
    } else if args.is_set("hostile-faults") {
        return Err(usage_err("--hostile-faults needs --hostile IDX"));
    }
    let mut traffic = Vec::with_capacity(tenants);
    for (i, config) in configs.iter().enumerate() {
        traffic.push(
            config
                .generate(seed, i)
                .map_err(|e| runtime_err(format!("cannot generate traffic: {e}")))?,
        );
    }

    // One stream runtime per tenant behind a bounded queue; the virtual
    // cost clock (when enabled) keeps deadline accounting deterministic.
    let mut specs = Vec::with_capacity(tenants);
    for (i, t) in traffic.iter().enumerate() {
        let mut stream = StreamConfig::for_detector(detector)
            .with_fallback(fallback)
            .with_alarm_window(window, min_novel);
        if deadline_ms > 0 {
            stream = stream.with_deadline(Duration::from_millis(deadline_ms));
        }
        if cost_ms > 0 {
            stream = stream.with_virtual_cost(CostModel {
                base: Duration::from_millis(cost_ms),
                jitter: Duration::from_millis(cost_jitter_ms),
                seed: seed.wrapping_add(i as u64),
            });
        }
        specs.push(TenantSpec::new(t.name(), stream).with_queue(queue));
    }
    let mut server = StreamServer::new(detector, specs)
        .map_err(|e| usage_err(format!("invalid serve configuration: {e}")))?;

    let (recorder, obs_out) = recorder_for(args);
    let dyn_recorder: &dyn Recorder = match &recorder {
        Some(r) => r,
        None => obs::noop(),
    };

    // Round loop: offer each tenant's arrivals, then run one scheduling
    // round; after arrivals are exhausted, keep stepping until every
    // queued frame has resolved into a decision.
    let mut logs: Vec<AlarmLog> = traffic.iter().map(|t| AlarmLog::new(t.name())).collect();
    while traffic.iter().any(|t| t.remaining() > 0) || server.pending() > 0 {
        for (t, stream) in traffic.iter_mut().enumerate() {
            let arrivals: Vec<InjectedFrame> = stream.next_round().to_vec();
            for injected in arrivals {
                server
                    .offer(t, injected.image)
                    .map_err(|e| runtime_err(format!("offer failed: {e}")))?;
            }
        }
        for (t, decision) in server.step_recorded(dyn_recorder) {
            let fault = traffic
                .get(t)
                .and_then(|s| s.fault_at(decision.frame as usize));
            if let Some(log) = logs.get_mut(t) {
                log.record(&decision, fault.map(|k| k.name()));
            }
        }
    }

    if let Some(dir) = args.optional("log-dir") {
        std::fs::create_dir_all(&dir)
            .map_err(|e| runtime_err(format!("cannot create {dir}: {e}")))?;
        for log in &logs {
            let path = PathBuf::from(&dir).join(format!("{}.json", log.tenant));
            log.save(&path)
                .map_err(|e| runtime_err(format!("cannot write alarm log: {e}")))?;
        }
        eprintln!("wrote {} per-tenant alarm logs to {dir}/", logs.len());
    }

    let mut summaries = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let (stats, runtime) = match (server.stats(t), server.runtime(t)) {
            (Some(s), Some(r)) => (*s, r),
            _ => return Err(runtime_err(format!("tenant {t} vanished from the server"))),
        };
        summaries.push(ServeTenantSummary {
            tenant: server.tenant_name(t).unwrap_or("?").to_string(),
            offered: stats.offered,
            decisions: stats.decisions,
            scored: stats.scored,
            shed_queue_full: stats.shed_queue_full,
            shed_deadline: stats.shed_deadline,
            gate_rejected: stats.gate_rejected,
            score_errors: stats.score_errors,
            alarm_raised_frames: stats.alarm_raised_frames,
            worst_health: runtime.health().worst_state().name().to_string(),
            final_health: runtime.health().state().name().to_string(),
        });
    }
    // Jain's fairness index over per-tenant scored counts: 1.0 is
    // perfectly even service, 1/n is one tenant monopolizing.
    let scored_sum: f64 = summaries.iter().map(|s| s.scored as f64).sum();
    let scored_sq: f64 = summaries.iter().map(|s| (s.scored as f64).powi(2)).sum();
    let fairness = if scored_sq > 0.0 {
        (scored_sum * scored_sum) / (tenants as f64 * scored_sq)
    } else {
        1.0
    };

    // Captured before the summaries move into the JSON body.
    let recovery = hostile.and_then(|idx| {
        summaries.get(idx).map(|s| {
            (
                s.tenant.clone(),
                s.worst_health.clone(),
                s.final_health.clone(),
            )
        })
    });

    if args.is_set("json") {
        #[derive(Serialize)]
        struct ServeSummary {
            tenants: usize,
            rounds: u64,
            fairness_jain: f64,
            per_tenant: Vec<ServeTenantSummary>,
        }
        let json = serde_json::to_string(&ServeSummary {
            tenants: summaries.len(),
            rounds: server.round(),
            fairness_jain: fairness,
            per_tenant: summaries,
        })
        .map_err(|e| runtime_err(format!("cannot serialize summary: {e}")))?;
        println!("{json}");
    } else {
        println!(
            "served {} tenants for {} rounds (fairness {:.3})",
            tenants,
            server.round(),
            fairness
        );
        println!(
            "{:<12} {:>7} {:>6} {:>5} {:>5} {:>4} {:>4} {:>5}  {:<8} final",
            "tenant", "offered", "scored", "shedQ", "shedD", "gate", "err", "alarm", "worst"
        );
        for s in &summaries {
            println!(
                "{:<12} {:>7} {:>6} {:>5} {:>5} {:>4} {:>4} {:>5}  {:<8} {}",
                s.tenant,
                s.offered,
                s.scored,
                s.shed_queue_full,
                s.shed_deadline,
                s.gate_rejected,
                s.score_errors,
                s.alarm_raised_frames,
                s.worst_health,
                s.final_health
            );
        }
    }
    flush_report(&recorder, &obs_out, "serve")?;

    if args.is_set("require-recovery") {
        let Some((tenant, worst, fin)) = recovery else {
            return Err(usage_err("--require-recovery needs --hostile IDX"));
        };
        if worst == HealthState::Healthy.name() {
            return Err(runtime_err(format!(
                "--require-recovery: tenant {tenant} never degraded (no faults took effect)"
            )));
        }
        if fin != HealthState::Healthy.name() {
            return Err(runtime_err(format!(
                "--require-recovery: tenant {tenant} ended {fin} (worst {worst}), \
                 expected healthy"
            )));
        }
        println!("recovery check passed: {tenant} degraded to {worst} and returned to healthy");
    }
    Ok(())
}

/// Parses `--domains clear=clear,fog=fog@0.8,...` into grid domains.
fn parse_grid_domains(spec: &str) -> Result<Vec<GridDomain>, CliError> {
    let mut domains = Vec::new();
    for part in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (name, stack) = part.split_once('=').ok_or_else(|| {
            usage_err(format!(
                "domain {part:?} must look like name=spec (e.g. fog=fog@0.8)"
            ))
        })?;
        domains.push(GridDomain::new(name, stack));
    }
    if domains.is_empty() {
        return Err(usage_err("--domains needs at least one name=spec entry"));
    }
    Ok(domains)
}

fn cmd_evalgrid(args: &Args) -> CliResult {
    args.reject_unknown(&[
        "domains",
        "quick",
        "train-len",
        "test-len",
        "cnn-epochs",
        "ae-epochs",
        "seed",
        "backends",
        "pipeline",
        "ensemble",
        "out",
        "json",
        "obs-out",
        "threads",
    ])?;
    let seed = args.u64("seed", 17)?;
    let mut cfg = if args.is_set("quick") {
        GridConfig::quick(seed)
    } else {
        GridConfig::full(seed)
    };
    cfg.train_len = args.usize("train-len", cfg.train_len)?;
    cfg.test_len = args.usize("test-len", cfg.test_len)?;
    cfg.cnn_epochs = args.usize("cnn-epochs", cfg.cnn_epochs)?;
    cfg.ae_epochs = args.usize("ae-epochs", cfg.ae_epochs)?;
    if args.is_set("ensemble") {
        cfg = cfg.with_ensemble();
    }
    // Explicit backend lists override the preset (and --ensemble's
    // all-backends default); --pipeline remains as a single-backend
    // alias for old scripts.
    let backend_spec = args
        .optional("backends")
        .or_else(|| args.optional("pipeline"));
    if let Some(spec) = backend_spec {
        cfg.backends = parse_backend_list(&spec)?;
    }
    let domains = match args.optional("domains") {
        Some(spec) => parse_grid_domains(&spec)?,
        None => vec![
            GridDomain::new("clear", "clear"),
            GridDomain::new("fog", "fog@0.8"),
            GridDomain::new("night", "night@0.7"),
        ],
    };

    let (recorder, obs_out) = recorder_for(args);
    let dyn_recorder: &dyn Recorder = match &recorder {
        Some(r) => r,
        None => obs::noop(),
    };
    eprintln!(
        "evalgrid: {} domains, {} train / {} test frames, {}x{}, seed {seed}",
        domains.len(),
        cfg.train_len,
        cfg.test_len,
        cfg.height,
        cfg.width
    );
    let report = run_evalgrid(&domains, &cfg, dyn_recorder)
        .map_err(|e| runtime_err(format!("evalgrid failed: {e}")))?;

    let json = report
        .to_json()
        .map_err(|e| runtime_err(format!("cannot serialize grid: {e}")))?;
    if args.is_set("json") {
        println!("{json}");
    } else {
        print!("{}", report.render_table());
    }
    if let Some(path) = args.optional("out") {
        std::fs::write(&path, format!("{json}\n"))
            .map_err(|e| runtime_err(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote grid report to {path}");
    }
    flush_report(&recorder, &obs_out, "evalgrid")
}

fn print_detector_info(detector: &NoveltyDetector, indent: &str) {
    println!("{indent}backend:       {}", detector.kind().id());
    println!(
        "{indent}preprocessing: {}",
        detector
            .preprocessing()
            .map_or("model activations/gradients", |p| p.name())
    );
    println!("{indent}objective:     {}", detector.metric_name());
    let (height, width) = detector.input_size();
    println!("{indent}input size:    {height}x{width}");
    println!(
        "{indent}threshold:     {:.4} ({:?})",
        detector.threshold().value(),
        detector.threshold().direction()
    );
    println!(
        "{indent}training set:  {} calibration scores",
        detector.training_scores().len()
    );
    if let Some(cnn) = detector.steering_network() {
        println!(
            "{indent}steering CNN:  {} layers, {} parameters",
            cnn.layer_count(),
            cnn.param_count()
        );
    } else {
        println!("{indent}steering CNN:  none (raw pipeline)");
    }
    match detector.classifier() {
        Some(classifier) => println!(
            "{indent}autoencoder:   {} layers, {} parameters",
            classifier.network().layer_count(),
            classifier.network().param_count()
        ),
        None => println!(
            "{indent}profile:       {} per-layer statistics",
            detector.backend().stat_profile().map_or(0, |p| p.len())
        ),
    }
}

fn cmd_info(args: &Args) -> CliResult {
    args.reject_unknown(&["detector"])?;
    match load_detector_file(args)? {
        LoadedDetector::Single(detector) => print_detector_info(&detector, ""),
        LoadedDetector::Ensemble(ensemble) => {
            println!("ensemble:      {}", ensemble.label());
            println!(
                "quorum:        {} of {} member votes",
                ensemble.quorum(),
                ensemble.members().len()
            );
            for member in ensemble.members() {
                println!("member {}:", member.kind().id());
                print_detector_info(member, "  ");
            }
        }
    }
    Ok(())
}

fn cmd_report(args: &Args) -> CliResult {
    args.reject_unknown(&["file", "expect"])?;
    let file = args.required("file")?;
    let report =
        RunReport::load(&file).map_err(|e| runtime_err(format!("cannot load {file}: {e}")))?;
    print!("{report}");
    if let Some(expected) = args.optional("expect") {
        let names: Vec<&str> = expected
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if names.is_empty() {
            return Err(usage_err("--expect needs a comma-separated stage list"));
        }
        let missing = report.missing_stages(&names);
        if !missing.is_empty() {
            return Err(runtime_err(format!(
                "report is missing expected stages (or they have zero time): {}",
                missing.join(", ")
            )));
        }
        println!("all expected stages present: {}", names.join(", "));
    }
    Ok(())
}

fn run() -> CliResult {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        print!("{USAGE}");
        return Ok(());
    };
    if command == "--help" || command == "help" {
        print!("{USAGE}");
        return Ok(());
    }
    let args = Args::parse(&argv[1..])?;
    args.apply_threads()?;
    match command.as_str() {
        "generate" => cmd_generate(&args),
        "backends" => cmd_backends(&args),
        "train" => cmd_train(&args),
        "classify" => cmd_classify(&args),
        "eval" => cmd_eval(&args),
        "stream" => cmd_stream(&args),
        "serve" => cmd_serve(&args),
        "evalgrid" => cmd_evalgrid(&args),
        "info" => cmd_info(&args),
        "report" => cmd_report(&args),
        other => Err(usage_err(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

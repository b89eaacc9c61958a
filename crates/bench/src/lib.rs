#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! Shared experiment harness for the figure-regeneration binaries.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `DESIGN.md` §4 for the index and
//! `EXPERIMENTS.md` for recorded results). They share:
//!
//! * [`Scale`] — experiment sizing. `SALIENCY_NOVELTY_SCALE=quick` runs a
//!   reduced (seconds-scale) variant for smoke testing; the default
//!   `full` matches the paper's sample sizes (500 test images per class).
//! * dataset construction helpers with the paper's 60×160 geometry,
//! * consistent printing of histogram panels and summary tables.

use metrics::histogram::Histogram;
use novelty::eval::EvalReport;
use simdrive::{DatasetConfig, DrivingDataset, World};
use vision::Image;

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale: ~1000 training frames, 500 test frames per class.
    Full,
    /// Smoke-test scale: tens of frames, a couple of epochs.
    Quick,
}

impl Scale {
    /// Reads the scale from `SALIENCY_NOVELTY_SCALE` (`quick` or `full`,
    /// default `full`).
    pub fn from_env() -> Scale {
        match std::env::var("SALIENCY_NOVELTY_SCALE").as_deref() {
            Ok("quick") | Ok("QUICK") => Scale::Quick,
            _ => Scale::Full,
        }
    }

    /// Number of frames to generate per training dataset.
    pub fn train_len(&self) -> usize {
        match self {
            Scale::Full => 1000,
            Scale::Quick => 60,
        }
    }

    /// Number of test images sampled per class (paper: 500).
    pub fn test_len(&self) -> usize {
        match self {
            Scale::Full => 500,
            Scale::Quick => 20,
        }
    }

    /// Steering-CNN training epochs.
    pub fn cnn_epochs(&self) -> usize {
        match self {
            Scale::Full => 8,
            Scale::Quick => 2,
        }
    }

    /// Autoencoder training epochs. The paper reports no epoch count; 60
    /// is where reconstruction quality saturates on the synthetic data
    /// (train-set SSIM ≈ 0.64, close to the paper's ≈ 0.7).
    pub fn ae_epochs(&self) -> usize {
        match self {
            Scale::Full => 60,
            Scale::Quick => 12,
        }
    }

    /// Image height (the paper's 60 in both scales — geometry matters to
    /// the pipeline more than sample count).
    pub fn height(&self) -> usize {
        60
    }

    /// Image width.
    pub fn width(&self) -> usize {
        160
    }
}

/// Generates the DSU stand-in (outdoor world) at this scale.
pub fn outdoor_dataset(scale: Scale, len: usize, seed: u64) -> DrivingDataset {
    DatasetConfig::outdoor()
        .with_len(len)
        .with_size(scale.height(), scale.width())
        .generate(seed)
}

/// Generates the DSI stand-in (indoor world) at this scale.
pub fn indoor_dataset(scale: Scale, len: usize, seed: u64) -> DrivingDataset {
    DatasetConfig::indoor()
        .with_len(len)
        .with_size(scale.height(), scale.width())
        .generate(seed)
}

/// Generates either world.
pub fn world_dataset(world: World, scale: Scale, len: usize, seed: u64) -> DrivingDataset {
    DatasetConfig::for_world(world)
        .with_len(len)
        .with_size(scale.height(), scale.width())
        .generate(seed)
}

/// Extracts owned images from a dataset.
pub fn images_of(dataset: &DrivingDataset) -> Vec<Image> {
    dataset.frames().iter().map(|f| f.image.clone()).collect()
}

/// Prints one histogram panel (the textual analogue of a Fig. 5/7
/// subplot).
pub fn print_histogram_panel(title: &str, histogram: &Histogram) {
    println!("  {title}");
    for row in histogram.render_rows(46) {
        println!("    {row}");
    }
}

/// Prints a full evaluation report in the format the figures use:
/// target/novel histogram pair plus the summary line.
///
/// # Panics
///
/// Panics when the report's scores cannot be histogrammed (empty samples
/// cannot occur for reports produced by `novelty::eval::evaluate`).
pub fn print_eval_report(label: &str, report: &EvalReport, bins: usize) {
    let (target_hist, novel_hist) = report
        .histograms(bins)
        .expect("evaluate() guarantees non-empty, finite scores");
    println!("{label}");
    print_histogram_panel("target class:", &target_hist);
    print_histogram_panel("novel class:", &novel_hist);
    println!("  summary: {report}");
    println!();
}

/// Writes an image as PGM into `out/` (created on demand), returning the
/// path. Failures are printed, not fatal — figure binaries should not die
/// on a read-only filesystem.
pub fn dump_pgm(name: &str, image: &Image) -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new("out");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create out/: {e}");
        return None;
    }
    let path = dir.join(format!("{name}.pgm"));
    match vision::io::save_pgm(image, &path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Writes an RGB image as PPM into `out/`.
pub fn dump_ppm(name: &str, image: &vision::RgbImage) -> Option<std::path::PathBuf> {
    let dir = std::path::Path::new("out");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create out/: {e}");
        return None;
    }
    let path = dir.join(format!("{name}.ppm"));
    match vision::io::save_ppm(image, &path) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Observability sink for the figure binaries, controlled by the
/// `SALIENCY_NOVELTY_OBS_OUT` environment variable. When set, a live
/// [`obs::RunRecorder`] collects the run and [`ObsSink::flush`] writes a
/// report in the same schema the CLI's `--obs-out` flag produces (so
/// `saliency-novelty report --file …` reads both). When unset, every
/// probe goes to the no-op recorder and costs nothing.
#[derive(Debug)]
pub struct ObsSink {
    recorder: Option<obs::RunRecorder>,
    path: Option<std::path::PathBuf>,
}

impl ObsSink {
    /// Builds the sink from `SALIENCY_NOVELTY_OBS_OUT`.
    pub fn from_env() -> ObsSink {
        match std::env::var_os("SALIENCY_NOVELTY_OBS_OUT") {
            Some(path) if !path.is_empty() => ObsSink {
                recorder: Some(obs::RunRecorder::new()),
                path: Some(path.into()),
            },
            _ => ObsSink {
                recorder: None,
                path: None,
            },
        }
    }

    /// The recorder to thread through pipeline calls.
    pub fn recorder(&self) -> &dyn obs::Recorder {
        match &self.recorder {
            Some(r) => r,
            None => obs::noop(),
        }
    }

    /// Writes the report if recording is enabled. Failures are printed,
    /// not fatal — figure binaries should not die on a read-only
    /// filesystem.
    pub fn flush(&self, command: &str) {
        if let (Some(recorder), Some(path)) = (&self.recorder, &self.path) {
            match recorder.report(command).save(path) {
                Ok(()) => println!("wrote observability report to {}", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
    }
}

/// Prints the standard experiment header.
pub fn print_header(experiment: &str, paper_artifact: &str, scale: Scale) {
    println!("================================================================");
    println!("{experiment} — reproduces {paper_artifact}");
    println!("scale: {scale:?} (set SALIENCY_NOVELTY_SCALE=quick for a fast run)");
    println!("================================================================");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_values() {
        // Default is Full (the variable is unlikely to be set in tests;
        // handle both to stay hermetic).
        match std::env::var("SALIENCY_NOVELTY_SCALE").as_deref() {
            Ok("quick") => assert_eq!(Scale::from_env(), Scale::Quick),
            _ => assert_eq!(Scale::from_env(), Scale::Full),
        }
        assert!(Scale::Full.train_len() > Scale::Quick.train_len());
        assert!(Scale::Full.test_len() > Scale::Quick.test_len());
        assert_eq!(Scale::Full.height(), 60);
        assert_eq!(Scale::Full.width(), 160);
    }

    #[test]
    fn obs_sink_roundtrips_through_env() {
        // Unset (or empty) → no-op recorder, flush writes nothing.
        std::env::remove_var("SALIENCY_NOVELTY_OBS_OUT");
        let sink = ObsSink::from_env();
        assert!(!sink.recorder().enabled());
        sink.flush("noop");

        let dir = std::env::temp_dir().join("saliency_novelty_obs_sink");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        std::env::set_var("SALIENCY_NOVELTY_OBS_OUT", &path);
        let sink = ObsSink::from_env();
        std::env::remove_var("SALIENCY_NOVELTY_OBS_OUT");
        assert!(sink.recorder().enabled());
        obs::time(sink.recorder(), "stage", || std::hint::black_box(0));
        sink.flush("bench-test");
        let report = obs::RunReport::load(&path).unwrap();
        assert_eq!(report.command, "bench-test");
        assert!(report.stage("stage").is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dataset_helpers_respect_scale() {
        let ds = outdoor_dataset(Scale::Quick, 4, 1);
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.frames()[0].image.height(), 60);
        assert_eq!(ds.frames()[0].image.width(), 160);
        let di = indoor_dataset(Scale::Quick, 3, 1);
        assert_eq!(di.world(), World::Indoor);
        assert_eq!(world_dataset(World::Outdoor, Scale::Quick, 2, 1).len(), 2);
        assert_eq!(images_of(&ds).len(), 4);
    }
}

//! Train-domain × score-domain evaluation grid.
//!
//! The paper's separation claim (Figs. 5/7) is demonstrated on a single
//! holdout pair (outdoor vs indoor). This module generalizes the
//! protocol to a full matrix over *scenario domains*: each domain is a
//! [`simdrive::ModifierStack`] spec (e.g. `"fog@0.7+night@0.5"`) applied
//! to a shared base world. One detector per configured backend is
//! trained per domain (sharing one steering CNN); every detector then
//! scores every domain's test set, yielding a grid whose diagonal is
//! in-distribution (AUROC ≈ 0.5) and whose off-diagonal cells measure
//! cross-domain novelty — the stratified generalization grid of Shekar
//! et al. (arXiv:2201.00531) applied to the VBP pipeline.
//!
//! Per cell `(train A, score B)` the grid records, for each backend and
//! (optionally) for the calibrated ensemble fusion:
//!
//! * **AUROC** of domain-B scores against held-out domain-A scores
//!   under the backend's orientation (ensemble scores are fused
//!   oriented percentile ranks, see [`crate::fuse_verdict`]),
//! * **exceedance**: the fraction of domain-B frames past the
//!   calibrated threshold (the paper's "detection rate"; for the
//!   ensemble, the fraction of frames whose fused vote flags novel),
//! * **mean SSIM** between domain-A and domain-B renderings of the
//!   *same* base scenes — a detector-free image-space distance that
//!   contextualizes the score-space separation (diagonal ≡ 1).
//!
//! Everything is a pure function of the config seed: the same
//! [`GridConfig`] produces a byte-identical [`GridReport`] on every run,
//! which is what lets CI `cmp` two runs of the smoke grid.

use metrics::separation::{auroc, detection_rate};
use metrics::{ssim, SsimConfig};
use obs::Recorder;
use serde::{Deserialize, Serialize};
use simdrive::{DatasetConfig, DrivingDataset, ModifierStack};
use vision::Image;

use crate::ensemble::{fuse_verdict, EnsembleDetector};
use crate::{
    BackendKind, Direction, NoveltyDetector, NoveltyDetectorBuilder, NoveltyError, Result,
};

/// Bump on breaking changes to the [`GridReport`] JSON layout.
/// Version 2 added per-backend columns and ensemble fusion.
pub const EVALGRID_SCHEMA_VERSION: u32 = 2;

/// One scenario domain: a short label plus the modifier-stack spec that
/// renders it (see [`ModifierStack::parse`]). `"clear"` is the
/// unmodified base world.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridDomain {
    /// Short label used in stage names, table headers and cell keys.
    /// Must be non-empty ASCII alphanumeric/`_` (no separators, so
    /// `evalgrid-cell-<a>-<b>` stage names stay parseable).
    pub name: String,
    /// Modifier-stack spec, e.g. `"fog@0.7+night@0.5"` or `"clear"`.
    pub spec: String,
}

impl GridDomain {
    /// Builds a domain from a label and a spec.
    pub fn new(name: impl Into<String>, spec: impl Into<String>) -> GridDomain {
        GridDomain {
            name: name.into(),
            spec: spec.into(),
        }
    }
}

/// Sizing and seeding for one grid run. All fields are honest knobs —
/// the report embeds them so a committed JSON is self-describing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridConfig {
    /// Frames per training dataset.
    pub train_len: usize,
    /// Frames per held-out / score dataset.
    pub test_len: usize,
    /// Steering-CNN epochs.
    pub cnn_epochs: usize,
    /// Autoencoder epochs.
    pub ae_epochs: usize,
    /// Master seed; train/target/score base datasets derive from
    /// `seed`, `seed+1`, `seed+2`.
    pub seed: u64,
    /// Frame height.
    pub height: usize,
    /// Frame width.
    pub width: usize,
    /// Renderer supersampling factor (1 = fastest).
    pub supersample: usize,
    /// Which score backends to train per domain. Stored (and reported)
    /// sorted by backend id; all non-raw backends share one steering
    /// CNN per domain.
    pub backends: Vec<BackendKind>,
    /// When set, each cell additionally fuses the per-backend verdicts
    /// with [`crate::fuse_verdict`] (majority quorum) and the top-level
    /// cell numbers become the ensemble's.
    pub ensemble: bool,
}

impl GridConfig {
    /// Smoke-test scale: seconds-long, used by CI and unit tests.
    pub fn quick(seed: u64) -> GridConfig {
        GridConfig {
            train_len: 24,
            test_len: 8,
            cnn_epochs: 2,
            ae_epochs: 10,
            seed,
            height: 40,
            width: 80,
            supersample: 1,
            backends: vec![BackendKind::VbpSsim],
            ensemble: false,
        }
    }

    /// Paper-geometry scale (60×160): minutes-long per domain. Trains
    /// every registered backend and reports the ensemble fusion.
    pub fn full(seed: u64) -> GridConfig {
        GridConfig {
            train_len: 300,
            test_len: 100,
            cnn_epochs: 6,
            ae_epochs: 40,
            seed,
            height: 60,
            width: 160,
            supersample: 2,
            backends: BackendKind::all().to_vec(),
            ensemble: true,
        }
    }

    /// Switches this config to train every registered backend and fuse
    /// their verdicts per cell.
    #[must_use]
    pub fn with_ensemble(mut self) -> GridConfig {
        self.backends = BackendKind::all().to_vec();
        self.ensemble = true;
        self
    }
}

/// Per-backend slice of one grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendCellReport {
    /// Backend id (`vbp+ssim`, `model-char`, …).
    pub backend: String,
    /// AUROC of this backend's score-domain scores vs its held-out
    /// train-domain scores under its orientation.
    pub auroc: f32,
    /// Fraction of score-domain frames past this backend's calibrated
    /// threshold.
    pub exceedance: f32,
}

/// One cell of the matrix: detectors trained on `train_domain`, scored
/// on `score_domain`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridCell {
    /// Domain the detectors were trained (and calibrated) on.
    pub train_domain: String,
    /// Domain whose frames were scored.
    pub score_domain: String,
    /// Headline AUROC: the ensemble fusion's when the run fused, else
    /// the first backend's. ≈ 0.5 on the diagonal.
    pub auroc: f32,
    /// Headline exceedance (same selection rule as `auroc`).
    pub exceedance: f32,
    /// Mean SSIM between the two domains' renderings of the same base
    /// scenes (1.0 on the diagonal).
    pub mean_ssim: f32,
    /// Per-backend columns, sorted by backend id.
    pub backends: Vec<BackendCellReport>,
}

/// Calibrated threshold of one backend's detector in one domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendThreshold {
    /// Backend id.
    pub backend: String,
    /// Calibrated novelty threshold.
    pub threshold: f32,
}

/// Per-domain training summary embedded in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridDomainReport {
    /// Domain label.
    pub name: String,
    /// Modifier-stack spec the domain was rendered with.
    pub spec: String,
    /// Calibrated threshold of the first backend's detector (kept as a
    /// headline; see `thresholds` for every backend).
    pub threshold: f32,
    /// Calibrated thresholds of every backend's detector, sorted by
    /// backend id.
    pub thresholds: Vec<BackendThreshold>,
}

/// The full grid: config echo, per-domain summaries, and
/// `domains² ` cells in row-major (train-domain outer) order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridReport {
    /// [`EVALGRID_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Comma-joined backend ids trained per domain (`vbp+ssim` or
    /// `model-char,raw+mse,vbp+mse,vbp+ssim`).
    pub pipeline: String,
    /// Backend ids trained per domain, sorted.
    pub backends: Vec<String>,
    /// Whether the headline cell numbers are the ensemble fusion's.
    pub ensemble: bool,
    /// Master seed of the run.
    pub seed: u64,
    /// Training frames per domain.
    pub train_len: u64,
    /// Held-out / score frames per domain.
    pub test_len: u64,
    /// Frame height.
    pub height: u64,
    /// Frame width.
    pub width: u64,
    /// The domains, in grid order.
    pub domains: Vec<GridDomainReport>,
    /// Row-major cells: all score domains for the first train domain,
    /// then the second, …
    pub cells: Vec<GridCell>,
}

impl GridReport {
    /// Looks up the cell for `(train_domain, score_domain)`.
    pub fn cell(&self, train_domain: &str, score_domain: &str) -> Option<&GridCell> {
        self.cells
            .iter()
            .find(|c| c.train_domain == train_domain && c.score_domain == score_domain)
    }

    /// Mean AUROC over the diagonal (in-distribution) cells.
    pub fn diagonal_mean_auroc(&self) -> f32 {
        mean(
            self.cells
                .iter()
                .filter(|c| c.train_domain == c.score_domain)
                .map(|c| c.auroc),
        )
    }

    /// Mean AUROC over the off-diagonal (cross-domain) cells.
    pub fn off_diagonal_mean_auroc(&self) -> f32 {
        mean(
            self.cells
                .iter()
                .filter(|c| c.train_domain != c.score_domain)
                .map(|c| c.auroc),
        )
    }

    /// Mean AUROC over the off-diagonal cells of one backend's column.
    /// Returns 0.0 for an unknown backend id.
    pub fn backend_off_diagonal_mean_auroc(&self, backend: &str) -> f32 {
        mean(
            self.cells
                .iter()
                .filter(|c| c.train_domain != c.score_domain)
                .flat_map(|c| &c.backends)
                .filter(|b| b.backend == backend)
                .map(|b| b.auroc),
        )
    }

    /// Renders the matrix as a fixed-width text table; each cell shows
    /// the headline `AUROC/exceedance/SSIM`, followed by one
    /// off-diagonal summary line per backend.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<10}", "train\\score"));
        for d in &self.domains {
            out.push_str(&format!("  {:>20}", d.name));
        }
        out.push('\n');
        for a in &self.domains {
            out.push_str(&format!("{:<10}", a.name));
            for b in &self.domains {
                match self.cell(&a.name, &b.name) {
                    Some(c) => out.push_str(&format!(
                        "  {:>20}",
                        format!("{:.3}/{:.2}/{:.2}", c.auroc, c.exceedance, c.mean_ssim)
                    )),
                    None => out.push_str(&format!("  {:>20}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "diagonal mean AUROC {:.3} | off-diagonal mean AUROC {:.3}{}\n",
            self.diagonal_mean_auroc(),
            self.off_diagonal_mean_auroc(),
            if self.ensemble { " (ensemble)" } else { "" }
        ));
        for b in &self.backends {
            out.push_str(&format!(
                "backend {:<12} off-diagonal mean AUROC {:.3}\n",
                b,
                self.backend_off_diagonal_mean_auroc(b)
            ));
        }
        out
    }

    /// Serializes to JSON (the `BENCH_evalgrid.json` format).
    ///
    /// # Errors
    ///
    /// Fails when serialization fails (it cannot for this type).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| NoveltyError::Serde(e.to_string()))
    }

    /// Parses a report back from JSON, checking the schema version.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a schema-version mismatch.
    pub fn from_json(json: &str) -> Result<GridReport> {
        let report: GridReport =
            serde_json::from_str(json).map_err(|e| NoveltyError::Serde(e.to_string()))?;
        if report.schema_version != EVALGRID_SCHEMA_VERSION {
            return Err(NoveltyError::invalid(
                "evalgrid",
                format!(
                    "schema version {} != supported {}",
                    report.schema_version, EVALGRID_SCHEMA_VERSION
                ),
            ));
        }
        Ok(report)
    }
}

fn mean(iter: impl Iterator<Item = f32>) -> f32 {
    let mut sum = 0.0f32;
    let mut n = 0usize;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f32
    }
}

fn validate_domains(domains: &[GridDomain]) -> Result<Vec<ModifierStack>> {
    if domains.len() < 2 {
        return Err(NoveltyError::invalid(
            "evalgrid",
            "need at least two domains to form a grid",
        ));
    }
    let mut stacks = Vec::with_capacity(domains.len());
    for (i, d) in domains.iter().enumerate() {
        if d.name.is_empty()
            || !d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            return Err(NoveltyError::invalid(
                "evalgrid",
                format!("domain name {:?} must be ASCII alphanumeric/_", d.name),
            ));
        }
        if domains[..i].iter().any(|prev| prev.name == d.name) {
            return Err(NoveltyError::invalid(
                "evalgrid",
                format!("duplicate domain name {:?}", d.name),
            ));
        }
        let stack = ModifierStack::parse(&d.spec)
            .map_err(|e| NoveltyError::invalid("evalgrid", format!("domain {:?}: {e}", d.name)))?;
        stacks.push(stack);
    }
    Ok(stacks)
}

fn validate_backends(cfg: &GridConfig) -> Result<Vec<BackendKind>> {
    if cfg.backends.is_empty() {
        return Err(NoveltyError::invalid(
            "evalgrid",
            "at least one backend is required",
        ));
    }
    let mut kinds = cfg.backends.clone();
    kinds.sort_by_key(|k| k.id());
    for pair in kinds.windows(2) {
        if pair[0] == pair[1] {
            return Err(NoveltyError::invalid(
                "evalgrid",
                format!("duplicate backend {:?}", pair[0].id()),
            ));
        }
    }
    Ok(kinds)
}

fn base_dataset(cfg: &GridConfig, len: usize, seed: u64) -> DrivingDataset {
    DatasetConfig::outdoor()
        .with_len(len)
        .with_size(cfg.height, cfg.width)
        .with_supersample(cfg.supersample)
        .generate(seed)
}

fn images_of(ds: &DrivingDataset) -> Vec<Image> {
    ds.frames().iter().map(|f| f.image.clone()).collect()
}

/// Fuses member-major per-image scores into per-image ensemble scores
/// (top-2 oriented percentile rank, see [`fuse_verdict`]) and the
/// fraction of images whose fused vote flagged novel.
fn fuse_columns(
    members: &[NoveltyDetector],
    per_member: &[Vec<f32>],
    quorum: u32,
) -> (Vec<f32>, f32) {
    let n_images = per_member.first().map_or(0, Vec::len);
    let mut scores = Vec::with_capacity(members.len());
    let mut fused = Vec::with_capacity(n_images);
    let mut flagged = 0usize;
    for i in 0..n_images {
        scores.clear();
        for (det, column) in members.iter().zip(per_member) {
            scores.push(det.backend_score(column[i]));
        }
        let v = fuse_verdict(&scores, quorum);
        flagged += usize::from(v.is_novel);
        fused.push(v.score);
    }
    let rate = if n_images == 0 {
        0.0
    } else {
        flagged as f32 / n_images as f32
    };
    (fused, rate)
}

/// Runs the full grid: trains one detector per (domain, backend) pair
/// with a per-domain shared steering CNN (stage
/// `evalgrid-train-<name>`), then scores every (train, score) pair
/// (stage `evalgrid-cell-<a>-<b>`).
///
/// Train, held-out and score base scenes come from three disjoint seeds;
/// the score-side base scenes are *shared* across domains so the per-cell
/// mean SSIM compares renderings of identical geometry.
///
/// # Errors
///
/// Fails on invalid domains (bad name, bad spec, duplicates, fewer than
/// two), an empty or duplicated backend list, zero-length datasets, or
/// any training/scoring failure.
pub fn run_evalgrid(
    domains: &[GridDomain],
    cfg: &GridConfig,
    recorder: &dyn Recorder,
) -> Result<GridReport> {
    let stacks = validate_domains(domains)?;
    let kinds = validate_backends(cfg)?;
    if cfg.train_len == 0 || cfg.test_len == 0 {
        return Err(NoveltyError::invalid(
            "evalgrid",
            "train_len and test_len must be non-zero",
        ));
    }

    let train_base = base_dataset(cfg, cfg.train_len, cfg.seed);
    let target_base = base_dataset(cfg, cfg.test_len, cfg.seed.wrapping_add(1));
    let score_base = base_dataset(cfg, cfg.test_len, cfg.seed.wrapping_add(2));

    // Per-domain artifacts. `ensembles[d]` holds the domain's member
    // detectors sorted by backend id (matching `kinds`);
    // `target_scores[d][m]` the held-out scores of member `m`.
    let mut ensembles = Vec::with_capacity(domains.len());
    let mut target_scores: Vec<Vec<Vec<f32>>> = Vec::with_capacity(domains.len());
    let mut target_fused: Vec<Vec<f32>> = Vec::with_capacity(domains.len());
    let mut score_images: Vec<Vec<Image>> = Vec::with_capacity(domains.len());
    let mut domain_reports = Vec::with_capacity(domains.len());
    for (d, stack) in domains.iter().zip(&stacks) {
        let train_ds = train_base.modified(stack, cfg.seed);
        let target_ds = target_base.modified(stack, cfg.seed.wrapping_add(1));
        let score_ds = score_base.modified(stack, cfg.seed.wrapping_add(2));
        let base = NoveltyDetectorBuilder::paper()
            .cnn_epochs(cfg.cnn_epochs)
            .ae_epochs(cfg.ae_epochs)
            .seed(cfg.seed);
        let ensemble = obs::time(recorder, &format!("evalgrid-train-{}", d.name), || {
            EnsembleDetector::train(&base, &kinds, &train_ds, recorder)
        })?;
        let held_out = images_of(&target_ds);
        let mut member_scores = Vec::with_capacity(kinds.len());
        for member in ensemble.members() {
            member_scores.push(member.score_batch_recorded(&held_out, recorder)?);
        }
        let (fused, _) = fuse_columns(ensemble.members(), &member_scores, ensemble.quorum());
        let thresholds: Vec<BackendThreshold> = ensemble
            .members()
            .iter()
            .map(|m| BackendThreshold {
                backend: m.kind().id().to_string(),
                threshold: m.threshold().value(),
            })
            .collect();
        let first_threshold = thresholds.first().map_or(0.0, |t| t.threshold);
        recorder.gauge(
            &format!("evalgrid.threshold.{}", d.name),
            first_threshold as f64,
        );
        domain_reports.push(GridDomainReport {
            name: d.name.clone(),
            spec: stack.spec(),
            threshold: first_threshold,
            thresholds,
        });
        ensembles.push(ensemble);
        target_scores.push(member_scores);
        target_fused.push(fused);
        score_images.push(images_of(&score_ds));
    }

    // Detector-free image-space distances between domains, over shared
    // base scenes (symmetric; computed once per unordered pair).
    let n = domains.len();
    let ssim_cfg = SsimConfig::default();
    let mut pair_ssim = vec![0.0f32; n * n];
    for a in 0..n {
        for b in a..n {
            let mut sum = 0.0f32;
            for (x, y) in score_images[a].iter().zip(&score_images[b]) {
                sum += ssim(x, y, &ssim_cfg)?;
            }
            let m = sum / score_images[a].len() as f32;
            pair_ssim[a * n + b] = m;
            pair_ssim[b * n + a] = m;
        }
    }

    let fused_orientation = Direction::HigherIsNovel.orientation();
    let mut cells = Vec::with_capacity(n * n);
    for (a, ens) in ensembles.iter().enumerate() {
        for b in 0..n {
            let cell = obs::time(
                recorder,
                &format!("evalgrid-cell-{}-{}", domains[a].name, domains[b].name),
                || -> Result<GridCell> {
                    let mut member_scores = Vec::with_capacity(kinds.len());
                    let mut backends = Vec::with_capacity(kinds.len());
                    for (m, member) in ens.members().iter().enumerate() {
                        let scores = member.score_batch_recorded(&score_images[b], recorder)?;
                        let orientation = member.threshold().direction().orientation();
                        backends.push(BackendCellReport {
                            backend: member.kind().id().to_string(),
                            auroc: auroc(&target_scores[a][m], &scores, orientation)?,
                            exceedance: detection_rate(
                                &scores,
                                member.threshold().value(),
                                orientation,
                            )?,
                        });
                        member_scores.push(scores);
                    }
                    let (cell_auroc, cell_exceedance) = if cfg.ensemble {
                        let (fused, flagged) =
                            fuse_columns(ens.members(), &member_scores, ens.quorum());
                        (auroc(&target_fused[a], &fused, fused_orientation)?, flagged)
                    } else {
                        backends
                            .first()
                            .map_or((0.0, 0.0), |c| (c.auroc, c.exceedance))
                    };
                    let cell = GridCell {
                        train_domain: domains[a].name.clone(),
                        score_domain: domains[b].name.clone(),
                        auroc: cell_auroc,
                        exceedance: cell_exceedance,
                        mean_ssim: pair_ssim[a * n + b],
                        backends,
                    };
                    recorder.gauge(
                        &format!("evalgrid.auroc.{}.{}", cell.train_domain, cell.score_domain),
                        cell.auroc as f64,
                    );
                    Ok(cell)
                },
            )?;
            cells.push(cell);
        }
    }

    let backend_ids: Vec<String> = kinds.iter().map(|k| k.id().to_string()).collect();
    Ok(GridReport {
        schema_version: EVALGRID_SCHEMA_VERSION,
        pipeline: backend_ids.join(","),
        backends: backend_ids,
        ensemble: cfg.ensemble,
        seed: cfg.seed,
        train_len: cfg.train_len as u64,
        test_len: cfg.test_len as u64,
        height: cfg.height as u64,
        width: cfg.width as u64,
        domains: domain_reports,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_domains() -> Vec<GridDomain> {
        vec![
            GridDomain::new("clear", "clear"),
            GridDomain::new("fognight", "fog@0.8+night@0.6"),
        ]
    }

    #[test]
    fn grid_shape_and_diagonal_properties() {
        let report = run_evalgrid(&quick_domains(), &GridConfig::quick(5), obs::noop()).unwrap();
        assert_eq!(report.schema_version, EVALGRID_SCHEMA_VERSION);
        assert_eq!(report.domains.len(), 2);
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.backends, vec!["vbp+ssim".to_string()]);
        assert_eq!(report.pipeline, "vbp+ssim");
        assert!(!report.ensemble);
        for c in &report.cells {
            assert!((0.0..=1.0).contains(&c.auroc), "auroc {}", c.auroc);
            assert!((0.0..=1.0).contains(&c.exceedance));
            assert!(c.mean_ssim.is_finite());
            // Single-backend run: headline numbers are the backend's.
            assert_eq!(c.backends.len(), 1);
            assert_eq!(c.backends[0].backend, "vbp+ssim");
            assert_eq!(c.backends[0].auroc, c.auroc);
            assert_eq!(c.backends[0].exceedance, c.exceedance);
        }
        for d in &report.domains {
            assert_eq!(d.thresholds.len(), 1);
            assert_eq!(d.thresholds[0].threshold, d.threshold);
        }
        // Diagonal SSIM compares identical renderings.
        let diag = report.cell("clear", "clear").unwrap();
        assert!(
            (diag.mean_ssim - 1.0).abs() < 1e-5,
            "ssim {}",
            diag.mean_ssim
        );
        // Off-diagonal image distance is strictly smaller.
        let off = report.cell("clear", "fognight").unwrap();
        assert!(off.mean_ssim < diag.mean_ssim);
        // Symmetric detector-free distance.
        let rev = report.cell("fognight", "clear").unwrap();
        assert!((off.mean_ssim - rev.mean_ssim).abs() < 1e-6);
        let table = report.render_table();
        assert!(table.contains("fognight"));
        assert!(table.contains("diagonal mean AUROC"));
        assert!(table.contains("backend vbp+ssim"));
    }

    #[test]
    fn ensemble_grid_reports_backends_side_by_side() {
        let mut cfg = GridConfig::quick(5);
        cfg.backends = vec![BackendKind::VbpSsim, BackendKind::RawMse];
        cfg.ensemble = true;
        let report = run_evalgrid(&quick_domains(), &cfg, obs::noop()).unwrap();
        // Backend order is sorted by id regardless of config order.
        assert_eq!(
            report.backends,
            vec!["raw+mse".to_string(), "vbp+ssim".to_string()]
        );
        assert_eq!(report.pipeline, "raw+mse,vbp+ssim");
        assert!(report.ensemble);
        for c in &report.cells {
            assert_eq!(c.backends.len(), 2);
            assert_eq!(c.backends[0].backend, "raw+mse");
            assert_eq!(c.backends[1].backend, "vbp+ssim");
            assert!((0.0..=1.0).contains(&c.auroc), "auroc {}", c.auroc);
            assert!((0.0..=1.0).contains(&c.exceedance));
            for bc in &c.backends {
                assert!((0.0..=1.0).contains(&bc.auroc));
                assert!((0.0..=1.0).contains(&bc.exceedance));
            }
        }
        for d in &report.domains {
            assert_eq!(d.thresholds.len(), 2);
            assert_eq!(d.thresholds[0].backend, "raw+mse");
        }
        let table = report.render_table();
        assert!(table.contains("(ensemble)"));
        assert!(table.contains("backend raw+mse"));
        // The vbp+ssim column must match a single-backend run of the
        // same seed (shared-CNN training is bit-identical).
        let single = run_evalgrid(&quick_domains(), &GridConfig::quick(5), obs::noop()).unwrap();
        for c in &report.cells {
            let s = single.cell(&c.train_domain, &c.score_domain).unwrap();
            let vbp = &c.backends[1];
            assert_eq!(vbp.auroc, s.auroc, "{}→{}", c.train_domain, c.score_domain);
            assert_eq!(vbp.exceedance, s.exceedance);
        }
    }

    #[test]
    fn report_round_trips_and_is_deterministic() {
        let a = run_evalgrid(&quick_domains(), &GridConfig::quick(7), obs::noop()).unwrap();
        let b = run_evalgrid(&quick_domains(), &GridConfig::quick(7), obs::noop()).unwrap();
        let ja = a.to_json().unwrap();
        let jb = b.to_json().unwrap();
        assert_eq!(ja, jb, "same config must produce byte-identical JSON");
        let back = GridReport::from_json(&ja).unwrap();
        assert_eq!(back, a);
        // Schema guard.
        let mut tampered = a.clone();
        tampered.schema_version = 99;
        assert!(GridReport::from_json(&tampered.to_json().unwrap()).is_err());
    }

    #[test]
    fn validation_rejects_bad_grids() {
        let cfg = GridConfig::quick(1);
        let rec = obs::noop();
        // Too few domains.
        let one = vec![GridDomain::new("clear", "clear")];
        assert!(run_evalgrid(&one, &cfg, rec).is_err());
        // Bad name (separator would corrupt stage names).
        let bad_name = vec![
            GridDomain::new("cl-ear", "clear"),
            GridDomain::new("x", "clear"),
        ];
        assert!(run_evalgrid(&bad_name, &cfg, rec).is_err());
        // Duplicate names.
        let dup = vec![
            GridDomain::new("a", "clear"),
            GridDomain::new("a", "fog@0.5"),
        ];
        assert!(run_evalgrid(&dup, &cfg, rec).is_err());
        // Unknown modifier.
        let bad_spec = vec![
            GridDomain::new("a", "clear"),
            GridDomain::new("b", "blizzard@0.5"),
        ];
        assert!(run_evalgrid(&bad_spec, &cfg, rec).is_err());
        // No backends.
        let mut no_backends = GridConfig::quick(1);
        no_backends.backends.clear();
        assert!(run_evalgrid(&quick_domains(), &no_backends, rec).is_err());
        // Duplicate backends.
        let mut dup_backends = GridConfig::quick(1);
        dup_backends.backends = vec![BackendKind::VbpSsim, BackendKind::VbpSsim];
        assert!(run_evalgrid(&quick_domains(), &dup_backends, rec).is_err());
    }

    #[test]
    fn recording_does_not_change_the_report() {
        let rec = obs::RunRecorder::new();
        let with = run_evalgrid(&quick_domains(), &GridConfig::quick(3), &rec).unwrap();
        let without = run_evalgrid(&quick_domains(), &GridConfig::quick(3), obs::noop()).unwrap();
        assert_eq!(with, without);
        let report = rec.report("evalgrid-test");
        assert!(report.stage("evalgrid-train-clear").is_some());
        assert!(report.stage("evalgrid-cell-clear-fognight").is_some());
    }
}

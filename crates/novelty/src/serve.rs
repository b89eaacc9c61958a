//! The multi-tenant stream server: N independent tenant streams, one
//! process, one scoring path.
//!
//! [`crate::StreamRuntime`] guards exactly one camera feed. A deployed
//! monitor serves many — and the hard part is *robustness under load*:
//! one tenant's fault storm must degrade only that tenant, and overload
//! must shed work explicitly instead of silently stalling feeds.
//! [`StreamServer`] owns one [`StreamRuntime`] lane per tenant (its own
//! gate, health tracker, alarm monitor and fallback policy) behind a
//! bounded admission queue, and advances them in discrete *rounds*:
//!
//! ```text
//!   offer()        ┌────────────── per-tenant, isolated ──────────────┐
//!   arrivals ────► │ bounded queue → shed stale/overflow → gate admit │─┐
//!                  └──────────────────────────────────────────────────┘ │
//!                  ┌──────────────────────────────────────────────────┐ │
//!   tenant B ────► │                    (same, independent)           │─┤
//!                  └──────────────────────────────────────────────────┘ │
//!                             cross-tenant mega-batch  ◄───────────────┘
//!                     one Detector::classify_each call (stacked
//!                      autoencoder passes of up to 64 frames), then
//!                      demultiplex verdicts back to each lane
//! ```
//!
//! **Backpressure and shedding.** Each [`QueueConfig`] bounds a tenant's
//! queue (`capacity`), its service rate (`drain` frames per round) and
//! its queueing deadline (`max_wait_rounds`). Overflowing and stale
//! frames are not dropped silently: they resolve to real
//! [`StreamDecision`]s with [`crate::DecisionSource::Shed`], so the
//! one-decision-per-frame guarantee survives overload and the health
//! tracker sees the gap ([`crate::HealthEvent::Shed`]).
//!
//! **Fault isolation.** Shedding for tenant A is a pure function of A's
//! own arrivals, queue and deadline state. Every round's admitted frames,
//! a lone frame included, are scored by one [`Detector::classify_each`]
//! call: its verdicts are bit-identical to per-image
//! [`Detector::classify`] regardless of batch composition, and a frame
//! that fails validation or scores non-finite fails only its own slot,
//! which that tenant's runtime resolves as a score error. Removing a
//! tenant therefore never changes any other tenant's decision stream
//! (proven in `tests/serve_isolation.rs`).
//!
//! **Determinism.** Rounds are a virtual clock: queueing deadlines count
//! rounds, and scoring deadlines can charge a seeded
//! [`crate::CostModel`] instead of wall time. Same seeds + same tenant
//! set ⇒ byte-identical per-tenant [`AlarmLog`]s on every run.

use std::collections::VecDeque;
use std::path::Path;

use obs::{Recorder, Span};
use serde::{Deserialize, Serialize};
use vision::Image;

use crate::backend::Detector;
use crate::monitor::AlarmState;
use crate::runtime::{
    FrameAdmission, ScoreOutcome, ShedReason, StreamConfig, StreamDecision, StreamRuntime,
};
use crate::{NoveltyError, Result};

/// Schema version of the serialized [`AlarmLog`].
pub const ALARM_LOG_SCHEMA_VERSION: u32 = 1;

/// Bounded-queue and service parameters for one tenant lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Maximum frames waiting in the lane (default 8). Arrivals beyond
    /// this resolve as [`ShedReason::QueueFull`] decisions.
    pub capacity: usize,
    /// Frames dispatched to scoring per round (default 1) — the lane's
    /// guaranteed service rate, independent of other tenants.
    pub drain: usize,
    /// Maximum whole rounds a frame may wait before it is shed as
    /// [`ShedReason::DeadlineExpired`] (default 4). Shedding stale
    /// frames costs no drain budget.
    pub max_wait_rounds: u64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            capacity: 8,
            drain: 1,
            max_wait_rounds: 4,
        }
    }
}

impl QueueConfig {
    fn validate(&self, tenant: &str) -> Result<()> {
        if self.capacity == 0 || self.drain == 0 {
            return Err(NoveltyError::invalid(
                "StreamServer",
                format!("tenant {tenant:?}: queue capacity and drain must be at least 1"),
            ));
        }
        Ok(())
    }
}

/// One tenant's full configuration: a name, its stream-runtime settings
/// and its queue bounds.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Unique tenant name (log file stem, gauge label).
    pub name: String,
    /// Per-tenant gate/health/alarm/fallback/deadline configuration.
    pub stream: StreamConfig,
    /// Per-tenant queue bounds and service rate.
    pub queue: QueueConfig,
}

impl TenantSpec {
    /// A tenant with default queue bounds.
    pub fn new(name: impl Into<String>, stream: StreamConfig) -> Self {
        TenantSpec {
            name: name.into(),
            stream,
            queue: QueueConfig::default(),
        }
    }

    /// Overrides the queue bounds.
    pub fn with_queue(mut self, queue: QueueConfig) -> Self {
        self.queue = queue;
        self
    }
}

/// Cumulative per-tenant serving statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Frames offered to the lane (including ones later shed).
    pub offered: u64,
    /// Decisions emitted (every offered frame eventually yields one).
    pub decisions: u64,
    /// Frames scored by the detector.
    pub scored: u64,
    /// Frames shed because the queue was full on arrival.
    pub shed_queue_full: u64,
    /// Frames shed because they aged past `max_wait_rounds`.
    pub shed_deadline: u64,
    /// Frames the gate rejected.
    pub gate_rejected: u64,
    /// Frames the detector failed on past the gate.
    pub score_errors: u64,
    /// Decisions during which the tenant's alarm was raised.
    pub alarm_raised_frames: u64,
}

impl TenantStats {
    /// Total shed decisions, all reasons.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline
    }
}

/// A frame waiting in a tenant's queue. Overflow arrivals keep a slot
/// (they still owe a decision, emitted in frame order) but drop their
/// pixels immediately and never count against `capacity`.
#[derive(Debug)]
struct PendingFrame {
    image: Option<Image>,
    arrival_round: u64,
    overflow: bool,
}

/// What the drain phase planned for one admitted frame.
#[derive(Debug)]
enum Planned {
    /// Shed without gating or scoring.
    Shed(ShedReason),
    /// Gate-rejected; the fallback policy resolves it.
    Gated,
    /// Dispatched to the mega-batch at this slot.
    Batched(usize),
    /// The gate admitted a frame with no pixels (structurally
    /// unreachable — the gate rejects missing frames).
    Undelivered,
}

#[derive(Debug)]
struct TenantLane<'d> {
    name: String,
    runtime: StreamRuntime<'d>,
    queue: VecDeque<PendingFrame>,
    config: QueueConfig,
    /// Queued frames that count against `capacity` (excludes overflow
    /// markers, which hold no pixels).
    live: usize,
    stats: TenantStats,
}

/// The multi-tenant stream server. See the module docs for the
/// round-based scheduling model.
///
/// # Example
///
/// ```no_run
/// use novelty::serve::{StreamServer, TenantSpec};
/// use novelty::{NoveltyDetector, StreamConfig};
///
/// # fn main() -> Result<(), novelty::NoveltyError> {
/// let detector = NoveltyDetector::load("detector.json")?;
/// let tenants = vec![
///     TenantSpec::new("cam-front", StreamConfig::for_detector(&detector)),
///     TenantSpec::new("cam-rear", StreamConfig::for_detector(&detector)),
/// ];
/// let mut server = StreamServer::new(&detector, tenants)?;
/// // each round: offer arrivals, then step
/// server.offer(0, None)?; // front camera dropped a frame
/// for (tenant, decision) in server.step() {
///     println!("tenant {tenant}: frame {} {:?}", decision.frame, decision.is_novel);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamServer<'d> {
    detector: &'d dyn Detector,
    lanes: Vec<TenantLane<'d>>,
    round: u64,
}

impl<'d> StreamServer<'d> {
    /// A server with one lane per tenant spec.
    ///
    /// # Errors
    ///
    /// Fails when `tenants` is empty, names collide, any queue config is
    /// degenerate, or any stream config is invalid.
    pub fn new(detector: &'d dyn Detector, tenants: Vec<TenantSpec>) -> Result<Self> {
        if tenants.is_empty() {
            return Err(NoveltyError::invalid(
                "StreamServer",
                "need at least one tenant",
            ));
        }
        let mut lanes = Vec::with_capacity(tenants.len());
        for spec in tenants {
            spec.queue.validate(&spec.name)?;
            if lanes.iter().any(|l: &TenantLane<'_>| l.name == spec.name) {
                return Err(NoveltyError::invalid(
                    "StreamServer",
                    format!("duplicate tenant name {:?}", spec.name),
                ));
            }
            lanes.push(TenantLane {
                runtime: StreamRuntime::new(detector, spec.stream)?,
                name: spec.name,
                queue: VecDeque::new(),
                config: spec.queue,
                live: 0,
                stats: TenantStats::default(),
            });
        }
        Ok(StreamServer {
            detector,
            lanes,
            round: 0,
        })
    }

    /// Number of tenant lanes.
    pub fn tenant_count(&self) -> usize {
        self.lanes.len()
    }

    /// The tenant's name, when the index is valid.
    pub fn tenant_name(&self, tenant: usize) -> Option<&str> {
        self.lanes.get(tenant).map(|l| l.name.as_str())
    }

    /// Rounds stepped so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The tenant's cumulative serving statistics.
    pub fn stats(&self, tenant: usize) -> Option<&TenantStats> {
        self.lanes.get(tenant).map(|l| &l.stats)
    }

    /// The tenant's stream runtime (health, alarm monitor).
    pub fn runtime(&self, tenant: usize) -> Option<&StreamRuntime<'d>> {
        self.lanes.get(tenant).map(|l| &l.runtime)
    }

    /// Frames (including overflow markers) still owing a decision,
    /// across all tenants. Stepping with no new arrivals strictly
    /// decreases this, so `while server.pending() > 0 { server.step(); }`
    /// always terminates.
    pub fn pending(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    /// Live queue depth (frames counting against capacity) of a tenant.
    pub fn queue_depth(&self, tenant: usize) -> usize {
        self.lanes.get(tenant).map(|l| l.live).unwrap_or(0)
    }

    /// Offers one arrival (`None` = the frame never arrived) to a
    /// tenant's queue at the current round. When the queue is full the
    /// frame is recorded as an overflow marker: its pixels are dropped
    /// immediately and it resolves as a [`ShedReason::QueueFull`]
    /// decision, in frame order, on a later [`StreamServer::step`].
    /// Admission depends only on this tenant's own queue state.
    ///
    /// # Errors
    ///
    /// Fails when `tenant` is out of range.
    pub fn offer(&mut self, tenant: usize, frame: Option<Image>) -> Result<()> {
        let round = self.round;
        let lane = self.lanes.get_mut(tenant).ok_or_else(|| {
            NoveltyError::invalid("StreamServer::offer", format!("no tenant {tenant}"))
        })?;
        lane.stats.offered += 1;
        if lane.live >= lane.config.capacity {
            lane.queue.push_back(PendingFrame {
                image: None,
                arrival_round: round,
                overflow: true,
            });
        } else {
            lane.queue.push_back(PendingFrame {
                image: frame,
                arrival_round: round,
                overflow: false,
            });
            lane.live += 1;
        }
        Ok(())
    }

    /// Runs one scheduling round without observability.
    pub fn step(&mut self) -> Vec<(usize, StreamDecision)> {
        self.step_recorded(obs::noop())
    }

    /// Runs one scheduling round: per tenant (in index order) sheds
    /// overflow and stale frames, gates up to `drain` fresh frames, then
    /// scores every admitted frame across all tenants in **one**
    /// coalesced batch and demultiplexes the verdicts back through each
    /// lane's own fallback/alarm/health machinery, in frame order.
    ///
    /// Returns `(tenant index, decision)` pairs, grouped by tenant in
    /// index order, each tenant's decisions in frame order. Recording
    /// lands under the `serve-score` span plus `serve.*` counters,
    /// gauges and histograms, and never changes any decision.
    pub fn step_recorded(&mut self, recorder: &dyn Recorder) -> Vec<(usize, StreamDecision)> {
        let round = self.round;
        recorder.add("serve.rounds", 1);

        // Phase A — drain plans. Everything here is per-tenant state:
        // shedding and admission for one lane never read another lane.
        let mut batch: Vec<Image> = Vec::new();
        let mut plans: Vec<Vec<(FrameAdmission, Planned)>> = Vec::with_capacity(self.lanes.len()); // sncheck:allow(hot-path-transitive-alloc): one plan slot per tenant lane per serve round, amortized over the coalesced batch
        for lane in self.lanes.iter_mut() {
            let mut plan = Vec::new();
            let mut budget = lane.config.drain;
            while let Some(front) = lane.queue.front() {
                if front.overflow {
                    lane.queue.pop_front();
                    let admission = lane.runtime.admit_unseen(recorder);
                    plan.push((admission, Planned::Shed(ShedReason::QueueFull)));
                    continue;
                }
                let waited = round.saturating_sub(front.arrival_round);
                if waited > lane.config.max_wait_rounds {
                    lane.queue.pop_front();
                    lane.live = lane.live.saturating_sub(1);
                    let admission = lane.runtime.admit_unseen(recorder);
                    plan.push((admission, Planned::Shed(ShedReason::DeadlineExpired)));
                    continue;
                }
                if budget == 0 {
                    break;
                }
                budget -= 1;
                let Some(pending) = lane.queue.pop_front() else {
                    break;
                };
                lane.live = lane.live.saturating_sub(1);
                let admission = lane
                    .runtime
                    .admit_recorded(pending.image.as_ref(), recorder);
                if admission.gate_fault().is_some() {
                    plan.push((admission, Planned::Gated));
                } else if let Some(image) = pending.image {
                    plan.push((admission, Planned::Batched(batch.len())));
                    batch.push(image);
                } else {
                    plan.push((admission, Planned::Undelivered));
                }
            }
            recorder.gauge(
                &format!("serve.queue_depth.{}", lane.name),
                lane.live as f64,
            );
            plans.push(plan);
        }

        // Phase B — one coalesced cross-tenant scoring pass. Verdict i
        // is bit-identical to classify() on frame i whatever the batch
        // holds, and a failing frame fails only its own slot, so batch
        // composition cannot couple tenants.
        recorder.observe("serve.coalesce.batch_size", batch.len() as f64);
        let mut results: Vec<Option<Result<crate::Verdict>>> = if batch.is_empty() {
            Vec::new()
        } else {
            let span = Span::root(recorder, "serve-score");
            let verdicts = self.detector.classify_each(&batch, recorder);
            span.finish();
            verdicts.into_iter().map(Some).collect()
        };

        // Phase C — demultiplex, resolving each tenant's frames in
        // admission (= frame) order through its own runtime.
        let mut decisions = Vec::new();
        for (tenant, plan) in plans.into_iter().enumerate() {
            let Some(lane) = self.lanes.get_mut(tenant) else {
                break;
            };
            for (admission, planned) in plan {
                let outcome = match planned {
                    Planned::Shed(reason) => {
                        recorder.add("serve.shed", 1);
                        recorder.add(&format!("serve.shed.{}", reason.name()), 1);
                        ScoreOutcome::Shed(reason)
                    }
                    Planned::Gated => ScoreOutcome::Unscored,
                    Planned::Undelivered => {
                        ScoreOutcome::Failed("gate admitted an undelivered frame".to_string())
                    }
                    Planned::Batched(slot) => match results.get_mut(slot).and_then(Option::take) {
                        Some(Ok(verdict)) => ScoreOutcome::Scored {
                            verdict,
                            elapsed: None,
                        },
                        Some(Err(e)) => ScoreOutcome::Failed(e.to_string()),
                        None => ScoreOutcome::Failed(
                            "coalesced batch returned no verdict for this slot".to_string(),
                        ),
                    },
                };
                let decision = lane.runtime.resolve_recorded(admission, outcome, recorder);
                lane.stats.decisions += 1;
                match decision.source {
                    crate::DecisionSource::Scored => lane.stats.scored += 1,
                    crate::DecisionSource::Shed => match decision.shed {
                        Some(ShedReason::QueueFull) => lane.stats.shed_queue_full += 1,
                        Some(ShedReason::DeadlineExpired) | None => {
                            lane.stats.shed_deadline += 1;
                        }
                    },
                    _ => {}
                }
                if decision.gate_fault.is_some() {
                    lane.stats.gate_rejected += 1;
                }
                if decision.score_error.is_some() {
                    lane.stats.score_errors += 1;
                }
                if decision.alarm == AlarmState::Raised {
                    lane.stats.alarm_raised_frames += 1;
                }
                decisions.push((tenant, decision));
            }
        }

        // Per-tenant fairness over cumulative scored counts (Jain's
        // index: 1 = perfectly even service, 1/n = one tenant starved).
        let n = self.lanes.len() as f64;
        let sum: f64 = self.lanes.iter().map(|l| l.stats.scored as f64).sum();
        let sum_sq: f64 = self
            .lanes
            .iter()
            .map(|l| (l.stats.scored as f64) * (l.stats.scored as f64))
            .sum();
        if sum > 0.0 {
            recorder.gauge("serve.fairness.jain", (sum * sum) / (n * sum_sq));
        }

        self.round += 1;
        decisions
    }
}

/// One line of a per-tenant serve (or stream) alarm log. Only
/// deterministic fields are logged — deadline overruns under the ambient
/// clock are deliberately absent — so runs with the same seeds, tenant
/// set and fault schedules produce byte-identical logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlarmLogEntry {
    /// Frame index within the tenant's stream.
    pub frame: u64,
    /// Injected sensor fault, if the traffic generator corrupted this
    /// frame.
    pub injected: Option<String>,
    /// Gate rejection class, if the frame was inadmissible.
    pub gate: Option<String>,
    /// Shed reason, if the serving layer shed the frame.
    pub shed: Option<String>,
    /// How the decision was produced (scored / fallback-* / abstained /
    /// shed).
    pub source: String,
    /// The novelty flag; absent under the abstain policy.
    pub is_novel: Option<bool>,
    /// The backing verdict's score, when one exists.
    pub score: Option<f32>,
    /// Health state after this frame.
    pub health: String,
    /// Alarm state after this frame.
    pub alarm: String,
}

impl AlarmLogEntry {
    /// Builds a log line from a decision.
    pub fn from_decision(decision: &StreamDecision, injected: Option<&str>) -> Self {
        AlarmLogEntry {
            frame: decision.frame,
            injected: injected.map(str::to_string),
            gate: decision.gate_fault.as_ref().map(|f| f.class().to_string()),
            shed: decision.shed.map(|r| r.name().to_string()),
            source: decision.source.name().to_string(),
            is_novel: decision.is_novel,
            score: decision.verdict.as_ref().map(|v| v.score),
            health: decision.health.name().to_string(),
            alarm: match decision.alarm {
                AlarmState::Nominal => "nominal".to_string(),
                AlarmState::Raised => "raised".to_string(),
            },
        }
    }
}

/// A schema-versioned per-tenant alarm log with atomic persistence:
/// saves write a sibling `*.tmp` and rename it into place (the same
/// discipline as detector persistence), so a crash mid-write never
/// leaves a truncated log where a complete one stood.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlarmLog {
    /// Format version ([`ALARM_LOG_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The tenant this log belongs to.
    pub tenant: String,
    /// Per-frame decisions, in frame order.
    pub entries: Vec<AlarmLogEntry>,
}

impl AlarmLog {
    /// An empty log for a tenant.
    pub fn new(tenant: impl Into<String>) -> Self {
        AlarmLog {
            schema_version: ALARM_LOG_SCHEMA_VERSION,
            tenant: tenant.into(),
            entries: Vec::new(),
        }
    }

    /// Appends a decision as a log line.
    pub fn record(&mut self, decision: &StreamDecision, injected: Option<&str>) {
        self.entries
            .push(AlarmLogEntry::from_decision(decision, injected));
    }

    /// Serializes and writes the log atomically (sibling `.tmp` +
    /// rename).
    ///
    /// # Errors
    ///
    /// Fails on serialization or I/O errors; the destination is never
    /// left half-written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let json = serde_json::to_string(self).map_err(|e| {
            NoveltyError::invalid("AlarmLog::save", format!("cannot serialize: {e}"))
        })?;
        crate::persist::write_atomic(path.as_ref(), &json)
    }

    /// Loads a log, validating the schema version. A truncated or
    /// corrupt file fails cleanly (atomic saves make one impossible to
    /// produce by crashing, but not by other writers).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, malformed JSON, or a schema mismatch.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path).map_err(|e| {
            NoveltyError::invalid(
                "AlarmLog::load",
                format!("cannot read {}: {e}", path.display()),
            )
        })?;
        let log: AlarmLog = serde_json::from_str(&json).map_err(|e| {
            NoveltyError::invalid(
                "AlarmLog::load",
                format!("{} is not a valid alarm log: {e}", path.display()),
            )
        })?;
        if log.schema_version != ALARM_LOG_SCHEMA_VERSION {
            return Err(NoveltyError::invalid(
                "AlarmLog::load",
                format!(
                    "unsupported alarm log schema {} (expected {})",
                    log.schema_version, ALARM_LOG_SCHEMA_VERSION
                ),
            ));
        }
        Ok(log)
    }

    /// Loads an existing log, appends `entries`, and atomically rewrites
    /// it — readers only ever observe a complete, parseable log.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AlarmLog::load`] and [`AlarmLog::save`].
    pub fn append(path: impl AsRef<Path>, entries: &[AlarmLogEntry]) -> Result<Self> {
        let path = path.as_ref();
        let mut log = AlarmLog::load(path)?;
        log.entries.extend(entries.iter().cloned());
        log.save(path)?;
        Ok(log)
    }
}

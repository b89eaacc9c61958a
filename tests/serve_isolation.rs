//! Isolation and determinism proofs for the multi-tenant stream server:
//! serving K interleaved tenants must leave each tenant's decision
//! sequence bit-identical to a solo run (whatever the arrival order and
//! whoever else is on the box), a 100 % faulted tenant must not perturb
//! its neighbours by one byte, shed frames must still obey the
//! one-decision-per-frame contract, and per-tenant alarm logs must
//! survive an attached recorder and half-written files.

use std::path::PathBuf;

use novelty::{
    AlarmLog, ClassifierConfig, CostModel, DecisionSource, NoveltyDetector, NoveltyDetectorBuilder,
    QueueConfig, ReconstructionObjective, ShedReason, StreamConfig, StreamDecision, StreamRuntime,
    StreamServer, TenantSpec,
};
use obs::{Recorder, RunRecorder};
use proptest::prelude::*;
use simdrive::{standard_mix, FaultBurst, FaultKind, TenantTraffic, TrafficConfig, World};

const HEIGHT: usize = 40;
const WIDTH: usize = 80;

/// One tiny trained detector shared by every test in this binary.
fn detector() -> &'static NoveltyDetector {
    use std::sync::OnceLock;
    static DETECTOR: OnceLock<NoveltyDetector> = OnceLock::new();
    DETECTOR.get_or_init(|| {
        let data = simdrive::DatasetConfig::outdoor()
            .with_len(24)
            .with_size(HEIGHT, WIDTH)
            .with_supersample(1)
            .generate(31);
        NoveltyDetectorBuilder::paper()
            .classifier_config(ClassifierConfig {
                hidden: vec![16, 8, 16],
                epochs: 6,
                warmup_epochs: 2,
                batch_size: 8,
                learning_rate: 3e-3,
                objective: ReconstructionObjective::Ssim { window: 7 },
            })
            .cnn_epochs(1)
            .seed(2)
            .train(&data)
            .unwrap()
    })
}

fn stream_config() -> StreamConfig {
    StreamConfig::for_detector(detector()).with_alarm_window(6, 4)
}

fn small_traffic(name: &str, world: World) -> TrafficConfig {
    TrafficConfig::new(name, world)
        .with_size(HEIGHT, WIDTH)
        .with_supersample(1)
}

/// A queue so generous nothing ever sheds: serve decisions can then be
/// compared against solo [`StreamRuntime`] runs one-to-one.
fn lossless_queue() -> QueueConfig {
    QueueConfig {
        capacity: 1024,
        drain: 16,
        max_wait_rounds: u64::MAX,
    }
}

/// Tiny LCG + Fisher–Yates so arrival interleavings are seeded, not
/// platform-dependent.
fn next_u64(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

fn shuffle(order: &mut [usize], state: &mut u64) {
    for i in (1..order.len()).rev() {
        let j = (next_u64(state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

/// Runs a whole fleet through a [`StreamServer`] and demuxes the
/// decisions per tenant. When `order_seed` is set, the order in which
/// tenants are offered their arrivals is Fisher–Yates-shuffled every
/// round — tenant isolation means this must never change any output.
fn run_serve(
    traffics: &mut [TenantTraffic],
    queue: QueueConfig,
    config: impl Fn(usize) -> StreamConfig,
    order_seed: Option<u64>,
    recorder: &dyn Recorder,
) -> Vec<Vec<StreamDecision>> {
    let det = detector();
    let specs: Vec<TenantSpec> = traffics
        .iter()
        .enumerate()
        .map(|(i, t)| TenantSpec::new(t.name(), config(i)).with_queue(queue))
        .collect();
    let mut server = StreamServer::new(det, specs).unwrap();
    let mut out: Vec<Vec<StreamDecision>> = traffics.iter().map(|_| Vec::new()).collect();
    let mut rng = order_seed.unwrap_or(0);
    while traffics.iter().any(|t| t.remaining() > 0) || server.pending() > 0 {
        let mut order: Vec<usize> = (0..traffics.len()).collect();
        if order_seed.is_some() {
            shuffle(&mut order, &mut rng);
        }
        for &t in &order {
            let arrivals: Vec<_> = traffics[t].next_round().to_vec();
            for injected in arrivals {
                server.offer(t, injected.image).unwrap();
            }
        }
        for (t, decision) in server.step_recorded(recorder) {
            out[t].push(decision);
        }
    }
    for t in traffics.iter_mut() {
        t.reset();
    }
    out
}

/// The reference: one tenant alone on a plain [`StreamRuntime`].
fn run_solo(traffic: &TenantTraffic, config: StreamConfig) -> Vec<StreamDecision> {
    let det = detector();
    let mut runtime = StreamRuntime::new(det, config).unwrap();
    traffic
        .frames()
        .iter()
        .map(|f| runtime.process_recorded(f.image.as_ref(), obs::noop()))
        .collect()
}

fn per_tenant_log_bytes(traffic: &TenantTraffic, decisions: &[StreamDecision]) -> String {
    let mut log = AlarmLog::new(traffic.name());
    for d in decisions {
        let fault = traffic.fault_at(d.frame as usize);
        log.record(d, fault.map(|k| k.name()));
    }
    serde_json::to_string(&log).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole isolation property: interleaving K tenants through
    /// one server — with shuffled arrival orders and a fault burst on
    /// exactly one tenant — yields per-tenant decision sequences
    /// bit-identical to each tenant running *alone* on a plain
    /// StreamRuntime. Batched cross-tenant scoring, queueing and round
    /// scheduling must all be invisible.
    #[test]
    fn interleaved_serve_is_bit_identical_to_solo_runs(
        master_seed in 0u64..1000,
        order_seed in 0u64..1000,
        k in 2usize..=4,
        faulty in 0usize..4,
    ) {
        let faulty = faulty % k;
        let mut traffics: Vec<TenantTraffic> = (0..k)
            .map(|i| {
                let world = if i % 2 == 0 { World::Outdoor } else { World::Indoor };
                let mut config = small_traffic(&format!("t{i}"), world)
                    .with_len(8)
                    .with_arrivals_per_round(1 + i % 2);
                if i == faulty {
                    // A burst of every-kind trouble on one tenant only.
                    config = config
                        .with_fault_burst(FaultBurst::new(FaultKind::NanBurst, 2, 2))
                        .with_fault_burst(FaultBurst::new(FaultKind::Drop, 5, 1));
                }
                config.generate(master_seed, i).unwrap()
            })
            .collect();

        let served = run_serve(
            &mut traffics,
            lossless_queue(),
            |_| stream_config(),
            Some(order_seed),
            obs::noop(),
        );
        for (i, traffic) in traffics.iter().enumerate() {
            let solo = run_solo(traffic, stream_config());
            prop_assert_eq!(
                &served[i],
                &solo,
                "tenant {} diverged from its solo run",
                i
            );
        }
    }
}

/// A single-tenant server, whose every round scores a batch of exactly
/// one frame, must be invisible: its decisions are bit-identical to a
/// solo [`StreamRuntime`] (per-image `classify`), and to the same tenant
/// riding in a two-tenant fleet whose rounds score batches of two — while
/// the `serve-score`/`scoring` stages and score counters still fire.
#[test]
fn single_tenant_fast_path_is_bit_identical() {
    let gen_solo = || {
        small_traffic("solo", World::Outdoor)
            .with_len(10)
            .with_fault_burst(FaultBurst::new(FaultKind::NanBurst, 3, 2))
            .generate(41, 0)
            .unwrap()
    };
    let mut solo = vec![gen_solo()];
    let recorder = RunRecorder::new();
    let served = run_serve(
        &mut solo,
        lossless_queue(),
        |_| stream_config(),
        None,
        &recorder,
    )
    .remove(0);
    let reference = run_solo(&solo[0], stream_config());
    assert_eq!(
        served, reference,
        "single-tenant serve (fast path) diverged from the solo runtime"
    );

    // The same tenant in a two-tenant fleet: every round admits two
    // frames, so every scoring call holds both tenants' frames.
    let mut pair = vec![
        gen_solo(),
        small_traffic("other", World::Indoor)
            .with_len(10)
            .generate(41, 1)
            .unwrap(),
    ];
    let fleet = run_serve(
        &mut pair,
        lossless_queue(),
        |_| stream_config(),
        None,
        obs::noop(),
    );
    assert_eq!(
        fleet[0], served,
        "fast-path decisions diverged from the coalesced batch path"
    );

    // Observability keeps its shape on one-frame rounds.
    let report = recorder.report("serve");
    assert!(report
        .missing_stages(&["serve-score", "scoring"])
        .is_empty());
    assert!(report.counter("scoring.scores_computed").unwrap_or(0) > 0);
}

/// A tenant whose every frame is corrupted (100 % fault schedule) must
/// not change one byte of any other tenant's decisions or alarm log:
/// removing it from the fleet leaves the survivors' outputs identical.
#[test]
fn hostile_tenant_cannot_perturb_neighbours() {
    let seed = 17;
    let len = 10;
    let mut configs = standard_mix(4, len, Some(0));
    for c in configs.iter_mut() {
        c.height = HEIGHT;
        c.width = WIDTH;
        c.supersample = 1;
    }
    let gen = |idx: &[usize]| -> Vec<TenantTraffic> {
        idx.iter()
            .map(|&i| configs[i].generate(seed, i).unwrap())
            .collect()
    };

    // A deliberately tight queue: shedding is allowed to happen, and
    // must still be a per-tenant-local phenomenon.
    let queue = QueueConfig {
        capacity: 3,
        drain: 2,
        max_wait_rounds: 2,
    };

    let mut full = gen(&[0, 1, 2, 3]);
    let with_hostile = run_serve(&mut full, queue, |_| stream_config(), None, obs::noop());
    let mut survivors = gen(&[1, 2, 3]);
    let without_hostile = run_serve(
        &mut survivors,
        queue,
        |_| stream_config(),
        None,
        obs::noop(),
    );

    // The hostile tenant really was hostile…
    assert!(
        with_hostile[0]
            .iter()
            .all(|d| d.source != DecisionSource::Scored),
        "tenant 0 should never score a clean frame"
    );
    // …and the survivors can't tell whether it was there.
    for (survivor, original) in (1..4).enumerate() {
        assert_eq!(
            with_hostile[original], without_hostile[survivor],
            "tenant {original} changed when the hostile tenant left"
        );
        assert_eq!(
            per_tenant_log_bytes(&full[original], &with_hostile[original]),
            per_tenant_log_bytes(&survivors[survivor], &without_hostile[survivor]),
            "tenant {original}'s alarm log bytes changed"
        );
    }
}

/// Same fleet, same seeds ⇒ byte-identical per-tenant alarm logs, with
/// or without an obs recorder attached.
#[test]
fn serve_logs_are_byte_identical_with_recording_on_and_off() {
    let seed = 23;
    let mut configs = standard_mix(3, 9, Some(2));
    for c in configs.iter_mut() {
        c.height = HEIGHT;
        c.width = WIDTH;
        c.supersample = 1;
    }
    let mut traffics: Vec<TenantTraffic> = configs
        .iter()
        .enumerate()
        .map(|(i, c)| c.generate(seed, i).unwrap())
        .collect();
    let queue = QueueConfig {
        capacity: 4,
        drain: 2,
        max_wait_rounds: 3,
    };

    let recorder = RunRecorder::new();
    let recorded = run_serve(&mut traffics, queue, |_| stream_config(), None, &recorder);
    let plain = run_serve(&mut traffics, queue, |_| stream_config(), None, obs::noop());

    for (i, traffic) in traffics.iter().enumerate() {
        assert_eq!(
            per_tenant_log_bytes(traffic, &recorded[i]),
            per_tenant_log_bytes(traffic, &plain[i]),
            "tenant {i} log bytes differ between the recorded and the plain run"
        );
    }

    // The recorded run exposes the serve pipeline without changing it.
    let report = recorder.report("serve");
    assert!(report.missing_stages(&["serve-score"]).is_empty());
    assert!(report.counter("serve.rounds").unwrap_or(0) > 0);
}

/// Overload semantics: every offered frame still gets exactly one
/// decision, sheds carry a reason and count against health, and both
/// shed classes (queue overflow, expired queueing deadline) occur under
/// sustained pressure.
#[test]
fn shedding_preserves_one_decision_per_frame() {
    let len = 18;
    let mut traffics = vec![small_traffic("hot", World::Outdoor)
        .with_len(len)
        .with_arrivals_per_round(3)
        .generate(5, 0)
        .unwrap()];
    // Capacity 4 with drain 1 lets a backlog age past the 1-round
    // queueing deadline, while 3-per-round arrivals overflow it.
    let queue = QueueConfig {
        capacity: 4,
        drain: 1,
        max_wait_rounds: 1,
    };
    let recorder = RunRecorder::new();
    let decisions = run_serve(&mut traffics, queue, |_| stream_config(), None, &recorder).remove(0);

    assert_eq!(decisions.len(), len, "one decision per offered frame");
    for (i, d) in decisions.iter().enumerate() {
        assert_eq!(d.frame, i as u64, "decisions in frame order");
        if d.source == DecisionSource::Shed {
            assert!(d.shed.is_some());
            assert!(d.gate_fault.is_none(), "shed frames are never gated");
            assert!(d.score_error.is_none());
            // Default fallback treats unscorable frames as novel.
            assert_eq!(d.is_novel, Some(true));
        } else {
            assert!(d.shed.is_none());
        }
    }
    let reasons: Vec<ShedReason> = decisions.iter().filter_map(|d| d.shed).collect();
    assert!(
        reasons.contains(&ShedReason::QueueFull),
        "expected queue-full sheds under 3-per-round arrivals into capacity 2"
    );
    assert!(
        reasons.contains(&ShedReason::DeadlineExpired),
        "expected deadline sheds with max_wait_rounds 1"
    );
    // Sustained shedding reads as a fault stream to the health tracker.
    assert!(
        decisions
            .iter()
            .any(|d| d.health != novelty::HealthState::Healthy),
        "sustained shedding must degrade health"
    );
    // And the obs layer sees it all.
    let report = recorder.report("serve");
    let shed_total = reasons.len() as u64;
    assert_eq!(report.counter("serve.shed"), Some(shed_total));
    assert_eq!(
        report.counter("serve.shed.queue-full").unwrap_or(0)
            + report.counter("serve.shed.deadline-expired").unwrap_or(0),
        shed_total
    );
    assert_eq!(report.counter("stream-score.shed"), Some(shed_total));
}

/// The virtual cost clock makes scoring-deadline overruns a pure
/// function of the seed: same config ⇒ identical decisions (including
/// overruns and the health consequences), no wall clock involved.
#[test]
fn virtual_deadline_overruns_are_deterministic() {
    use std::time::Duration;
    let config = || {
        stream_config()
            .with_deadline(Duration::from_millis(12))
            .with_virtual_cost(CostModel {
                base: Duration::from_millis(10),
                jitter: Duration::from_millis(5),
                seed: 77,
            })
    };
    let mut traffics = vec![small_traffic("vt", World::Outdoor)
        .with_len(12)
        .generate(3, 0)
        .unwrap()];
    let a = run_serve(
        &mut traffics,
        lossless_queue(),
        |_| config(),
        None,
        obs::noop(),
    )
    .remove(0);
    let b = run_serve(
        &mut traffics,
        lossless_queue(),
        |_| config(),
        None,
        obs::noop(),
    )
    .remove(0);
    assert_eq!(a, b);
    assert!(
        a.iter().any(|d| d.deadline_overrun),
        "a 10–15 ms virtual cost against a 12 ms deadline must overrun sometimes"
    );
    assert!(a.iter().any(|d| !d.deadline_overrun), "…but not every time");
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("serve_isolation_{}_{name}", std::process::id()))
}

/// Alarm-log persistence: atomic save (no `.tmp` left behind), lossless
/// load, append-then-rewrite, and a clean failure — not a panic, not
/// garbage — on a truncated file.
#[test]
fn alarm_log_roundtrip_append_and_truncation() {
    let mut traffics = vec![small_traffic("log", World::Outdoor)
        .with_len(6)
        .with_fault_burst(FaultBurst::new(FaultKind::Drop, 2, 1))
        .generate(9, 0)
        .unwrap()];
    let decisions = run_serve(
        &mut traffics,
        lossless_queue(),
        |_| stream_config(),
        None,
        obs::noop(),
    )
    .remove(0);
    let mut log = AlarmLog::new("log");
    for d in &decisions[..4] {
        log.record(d, traffics[0].fault_at(d.frame as usize).map(|k| k.name()));
    }

    let path = temp_path("roundtrip.json");
    log.save(&path).unwrap();
    let tmp = path.with_extension("json.tmp");
    assert!(!tmp.exists(), "atomic save must not leave a .tmp sibling");
    let loaded = AlarmLog::load(&path).unwrap();
    assert_eq!(loaded, log);

    // Append rewrites atomically; the file is always a complete log.
    let tail: Vec<_> = decisions[4..]
        .iter()
        .map(|d| {
            novelty::AlarmLogEntry::from_decision(
                d,
                traffics[0].fault_at(d.frame as usize).map(|k| k.name()),
            )
        })
        .collect();
    let appended = AlarmLog::append(&path, &tail).unwrap();
    assert_eq!(appended.entries.len(), decisions.len());
    assert_eq!(AlarmLog::load(&path).unwrap(), appended);

    // A truncated file (simulating a non-atomic writer dying mid-write)
    // must fail to load with an error, not a panic or a partial log.
    let json = std::fs::read_to_string(&path).unwrap();
    let cut = temp_path("truncated.json");
    std::fs::write(&cut, &json[..json.len() / 2]).unwrap();
    let err = AlarmLog::load(&cut).unwrap_err();
    assert!(
        err.to_string().contains("not a valid alarm log"),
        "unexpected error: {err}"
    );
    // Appending to the truncated log refuses rather than clobbering it.
    assert!(AlarmLog::append(&cut, &appended.entries).is_err());

    // Schema mismatches are rejected explicitly.
    let mut wrong = appended.clone();
    wrong.schema_version += 1;
    let bad = temp_path("schema.json");
    std::fs::write(&bad, serde_json::to_string(&wrong).unwrap()).unwrap();
    let err = AlarmLog::load(&bad).unwrap_err();
    assert!(err.to_string().contains("unsupported alarm log schema"));

    for p in [path, cut, bad] {
        let _ = std::fs::remove_file(p);
    }
}

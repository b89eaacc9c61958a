//! Property-test sweep of the scenario-generator and gate/score
//! invariants (ISSUE 6).
//!
//! The scenario matrix only means something if the modifiers are honest:
//! pure in (seed, frame index, params), unit-range preserving, identity
//! at zero intensity, and gate-safe (weather is not a sensor fault).
//! These tests pin each contract for *any* seed/intensity, pin golden
//! `frame_digest` values so an accidental RNG-order change in `simdrive`
//! fails loudly, and prove the evalgrid report is a pure function of
//! its config.

use novelty::evalgrid::{run_evalgrid, GridConfig, GridDomain};
use novelty::{FrameFault, FrameGate, GateConfig};
use proptest::prelude::*;
use simdrive::{
    boxed_modifier, frame_digest, modifier_names, DatasetConfig, FaultBurst, FaultConfig,
    FaultInjector, FaultKind, ModifierStack,
};
use vision::Image;

const H: usize = 24;
const W: usize = 64;

/// Modifiers that only re-light existing structure (vs the occluders,
/// which paint geometry over it). The gate-safety claim covers both, but
/// the fault-visibility argument below needs the photometric family.
const PHOTOMETRIC: &[&str] = &["rain", "fog", "glare", "night"];
const OCCLUDERS: &[&str] = &["tunnel", "traffic"];

fn base_frame(seed: u64) -> Image {
    DatasetConfig::outdoor()
        .with_len(1)
        .with_size(H, W)
        .with_supersample(1)
        .generate(seed)
        .frames()[0]
        .image
        .clone()
}

fn gate() -> FrameGate {
    FrameGate::new(GateConfig::new(H, W)).expect("default gate config is valid")
}

fn apply(name: &str, intensity: f32, seed: u64, frame_index: u64, image: &Image) -> Image {
    boxed_modifier(name, intensity)
        .unwrap_or_else(|| panic!("unknown modifier {name}"))
        .apply(seed, frame_index, image)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same (seed, frame index, intensity) → bit-identical output, for
    /// every modifier. This is the purity contract the byte-reproducible
    /// evalgrid rests on.
    #[test]
    fn modifiers_are_pure_functions_of_seed_and_frame(
        scene_seed in 0u64..200,
        mod_seed in 0u64..u64::MAX,
        frame_index in 0u64..1000,
        intensity in 0.0f32..1.0,
    ) {
        let base = base_frame(scene_seed);
        for name in modifier_names() {
            let a = apply(name, intensity, mod_seed, frame_index, &base);
            let b = apply(name, intensity, mod_seed, frame_index, &base);
            prop_assert_eq!(
                frame_digest(&a), frame_digest(&b),
                "{} must be deterministic", name
            );
        }
    }

    /// Unit-range preservation: pixels stay in [0, 1] at any intensity.
    #[test]
    fn modifiers_preserve_unit_range(
        scene_seed in 0u64..200,
        mod_seed in 0u64..u64::MAX,
        frame_index in 0u64..1000,
        intensity in 0.0f32..1.0,
    ) {
        let base = base_frame(scene_seed);
        for name in modifier_names() {
            let out = apply(name, intensity, mod_seed, frame_index, &base);
            let min = out.as_slice().iter().copied().fold(f32::INFINITY, f32::min);
            let max = out.as_slice().iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(
                (0.0..=1.0).contains(&min) && (0.0..=1.0).contains(&max),
                "{name}@{intensity} leaves [0,1]: [{min}, {max}]"
            );
        }
    }

    /// Intensity 0 is the identity, bit-exactly, whatever the seed.
    #[test]
    fn zero_intensity_is_identity(
        scene_seed in 0u64..200,
        mod_seed in 0u64..u64::MAX,
        frame_index in 0u64..1000,
    ) {
        let base = base_frame(scene_seed);
        for name in modifier_names() {
            let out = apply(name, 0.0, mod_seed, frame_index, &base);
            prop_assert_eq!(&out, &base, "{}@0 must be the identity", name);
        }
    }

    /// The occluder family commutes bit-exactly (painting with
    /// input-independent shade via pointwise min), for any seeds and
    /// intensities. This is the only commutativity the trait claims.
    #[test]
    fn occluders_commute_bit_exactly(
        scene_seed in 0u64..200,
        mod_seed in 0u64..u64::MAX,
        frame_index in 0u64..1000,
        ia in 0.0f32..1.0,
        ib in 0.0f32..1.0,
    ) {
        let base = base_frame(scene_seed);
        let ab = apply("traffic", ib, mod_seed, frame_index,
            &apply("tunnel", ia, mod_seed, frame_index, &base));
        let ba = apply("tunnel", ia, mod_seed, frame_index,
            &apply("traffic", ib, mod_seed, frame_index, &base));
        prop_assert_eq!(frame_digest(&ab), frame_digest(&ba));
    }

    /// Weather is not a sensor fault: any single modifier at any
    /// intensity — and any composition of the photometric family —
    /// passes the gate. Fog must not read as all-black, glare must not
    /// read as the saturated fault, night must not read as a dead
    /// sensor.
    #[test]
    fn modifiers_never_trip_the_gate(
        scene_seed in 0u64..200,
        mod_seed in 0u64..u64::MAX,
        frame_index in 0u64..200,
        i0 in 0.0f32..1.0,
        i1 in 0.0f32..1.0,
        i2 in 0.0f32..1.0,
        i3 in 0.0f32..1.0,
        rot in 0usize..4,
    ) {
        let base = base_frame(scene_seed);
        for name in PHOTOMETRIC.iter().chain(OCCLUDERS) {
            let out = apply(name, i0, mod_seed, frame_index, &base);
            prop_assert_eq!(
                gate().admit(Some(&out)), None,
                "{}@{} must be admitted", name, i0
            );
        }
        // A composed photometric stack (rotated order, independent
        // intensities) is still admissible.
        let intensities = [i0, i1, i2, i3];
        let mut stack = ModifierStack::new();
        for k in 0..PHOTOMETRIC.len() {
            let name = PHOTOMETRIC[(k + rot) % PHOTOMETRIC.len()];
            if let Some(m) = boxed_modifier(name, intensities[k]) {
                stack.push(m);
            }
        }
        let out = stack.apply(mod_seed, frame_index, &base);
        prop_assert_eq!(
            gate().admit(Some(&out)), None,
            "composed stack {} must be admitted", stack.spec()
        );
    }

    /// No gate regression: real injected faults still trip the gate even
    /// on frames already degraded by weather, for any modifier and
    /// intensity.
    #[test]
    fn injected_faults_still_trip_the_gate(
        scene_seed in 0u64..200,
        mod_seed in 0u64..u64::MAX,
        intensity in 0.0f32..1.0,
        which in 0usize..4,
    ) {
        let name = PHOTOMETRIC[which];
        let weathered = apply(name, intensity, mod_seed, 0, &base_frame(scene_seed));
        let inject = |kind: FaultKind| {
            FaultInjector::new(FaultConfig::new(1).with_burst(FaultBurst::new(kind, 0, 1)))
                .apply(0, &weathered)
        };

        let dropped = inject(FaultKind::Drop);
        prop_assert_eq!(
            gate().admit(dropped.image.as_ref()),
            Some(FrameFault::MissingFrame)
        );

        let nan = inject(FaultKind::NanBurst);
        prop_assert!(matches!(
            gate().admit(nan.image.as_ref()),
            Some(FrameFault::NonFinitePixels { .. })
        ), "nan burst must be rejected on a {name}@{intensity} frame");

        let spiked = inject(FaultKind::BrightnessSpike);
        prop_assert!(matches!(
            gate().admit(spiked.image.as_ref()),
            Some(FrameFault::OutOfRangePixels { .. })
        ), "brightness spike must be rejected on a {name}@{intensity} frame");

        let truncated = inject(FaultKind::Truncate);
        prop_assert!(matches!(
            gate().admit(truncated.image.as_ref()),
            Some(FrameFault::WrongDimensions { .. })
        ), "truncation must be rejected on a {name}@{intensity} frame");

        // Freeze: the same weathered frame repeated past the tolerance.
        let mut g = gate();
        prop_assert_eq!(g.admit(Some(&weathered)), None);
        prop_assert_eq!(g.admit(Some(&weathered)), None);
        prop_assert!(matches!(
            g.admit(Some(&weathered)),
            Some(FrameFault::StuckFrame { .. })
        ), "frozen {name}@{intensity} frame must be rejected");
    }
}

/// Golden digests: every modifier at 3 seeds × 3 intensities on a pinned
/// base frame. Any change to the hash discipline, noise layout or blend
/// arithmetic in `simdrive` shows up here as a loud diff, with the
/// expected table printed for re-pinning after an *intentional* change.
mod golden {
    use super::*;

    const BASE_SEED: u64 = 7;
    const FRAME_INDEX: u64 = 1;
    const SEEDS: [u64; 3] = [11, 22, 33];
    const INTENSITIES: [f32; 3] = [0.25, 0.5, 1.0];

    /// `frame_digest` of the unmodified base frame.
    const BASE_DIGEST: u64 = 0x76c239da96a5fddc;

    /// Row-major: modifier (declaration order) × seed × intensity.
    const GOLDEN: [u64; 54] = [
        0xa0174c401ac568b4,
        0x8016cf36c87220bc,
        0xab97549d4cc973d1,
        0x1feda102cf555aed,
        0x836e7a189002e45a,
        0xbffad06c8ce37c35,
        0xea6f1772d72c21ff,
        0x9af627cec8af7e01,
        0x0baa8854b572835f,
        0xd19eac0d2b921286,
        0xfdbdc417dd8559dc,
        0xae0c093c88cbfb5f,
        0x73826c1718ce7b5e,
        0x88497a8c7a9f83a3,
        0x2fe6cecbd634f911,
        0x0435cc90b6d23945,
        0x7ddcfc5c726c00c4,
        0x27c5af263c3feb74,
        0xa2b9e240b7f52269,
        0x09e0d03875ea735f,
        0x086a62427e506c5f,
        0xad2305461a185819,
        0x497322e81e9a9b60,
        0x7eebd24861654b99,
        0xf250d3a46aff4895,
        0x85bc7e31bda5220c,
        0xaefd4727f0f1b9f7,
        0x7acbb7ec24cee473,
        0x3efa06219a2efc25,
        0xc86bfa3bb567ce94,
        0x3d18d93faa2a9c29,
        0x6efcc8e53bfaaac7,
        0xf3d5e71c345cfdc2,
        0x2c728b3e08a3e782,
        0x0fba2a3d6e52cdb9,
        0xf87a5a10552f0c09,
        0x7ac06f1c5a5b7777,
        0xa5853e63db7e908a,
        0x5dc2722e5de5d145,
        0xa914b6c343d61649,
        0xc6ca02d96261bd46,
        0xd16c5cf538b38bfb,
        0xa9ffe84d340cd9c7,
        0xd8e610a9021b7217,
        0x55281530f1da6f3f,
        0xd6dc637f75f95f9f,
        0xe4b0fc51d016904e,
        0x962b43db1218f7cc,
        0x95f5f6ec0c8a5ae9,
        0x339f8011803294c2,
        0x9839f175955db545,
        0xf82bf4c014c125ef,
        0xd2e9a8362eb9ce50,
        0x60c433618e17153b,
    ];

    fn expected_table() -> (u64, Vec<u64>) {
        let base = base_frame(BASE_SEED);
        let mut digests = Vec::with_capacity(54);
        for name in modifier_names() {
            for seed in SEEDS {
                for intensity in INTENSITIES {
                    digests.push(frame_digest(&apply(
                        name,
                        intensity,
                        seed,
                        FRAME_INDEX,
                        &base,
                    )));
                }
            }
        }
        (frame_digest(&base), digests)
    }

    #[test]
    fn modifier_digests_match_pinned_goldens() {
        let (base_digest, digests) = expected_table();
        if base_digest != BASE_DIGEST || digests != GOLDEN {
            // Print the re-pin table before failing so an intentional
            // renderer change is a copy-paste fix.
            println!("const BASE_DIGEST: u64 = {base_digest:#018x};");
            println!("const GOLDEN: [u64; 54] = [");
            for chunk in digests.chunks(3) {
                let row: Vec<String> = chunk.iter().map(|d| format!("{d:#018x}")).collect();
                println!("    {},", row.join(", "));
            }
            println!("];");
        }
        assert_eq!(base_digest, BASE_DIGEST, "base frame digest changed");
        assert_eq!(
            digests.as_slice(),
            GOLDEN.as_slice(),
            "modifier digests changed"
        );
    }
}

/// The evalgrid report is a pure function of its config: two runs of
/// one config write byte-identical JSON.
#[test]
fn evalgrid_is_a_pure_function_of_its_config() {
    let domains = vec![
        GridDomain::new("clear", "clear"),
        GridDomain::new("fognight", "fog@0.7+night@0.5"),
    ];
    let cfg = GridConfig::quick(13);
    let first = run_evalgrid(&domains, &cfg, obs::noop()).expect("first grid");
    let second = run_evalgrid(&domains, &cfg, obs::noop()).expect("second grid");
    assert_eq!(
        first.to_json().expect("serializes"),
        second.to_json().expect("serializes"),
        "evalgrid JSON must be byte-identical across runs"
    );
    assert_eq!(first.cells.len(), 4);
}

/// Different seeds genuinely change every modifier's output at full
/// intensity (a unit check, not a proptest: tiny intensities may quantize
/// to no-ops, full intensity must not).
#[test]
fn full_intensity_outputs_depend_on_seed() {
    let base = base_frame(3);
    for name in modifier_names() {
        let a = apply(name, 1.0, 100, 0, &base);
        let b = apply(name, 1.0, 200, 0, &base);
        assert_ne!(
            frame_digest(&a),
            frame_digest(&b),
            "{name} must draw its noise from the seed"
        );
    }
}

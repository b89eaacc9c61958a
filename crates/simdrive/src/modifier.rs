//! Seeded, composable scene modifiers.
//!
//! The paper's separation claims (C3/C5/C7) are only credible if the
//! score distributions separate across *many* visual domains, not just
//! the two worlds. A [`SceneModifier`] turns one rendered frame into a
//! domain-shifted variant — rain streaks, a fog density ramp, glare
//! bloom, night lighting, tunnel/overpass occlusion, traffic objects —
//! as a **pure function of `(seed, frame index, params, input pixels)`**.
//! Two applications with the same inputs are bit-identical, so any
//! composition of modifiers is byte-reproducible and suitable for
//! golden-file pinning and cross-domain evaluation grids.
//!
//! # Contract
//!
//! Every modifier upholds three invariants (property-tested in
//! `tests/scenario_matrix.rs`):
//!
//! 1. **Purity / determinism** — the output depends only on
//!    `(seed, frame_index, params, input)`; no ambient RNG, clocks or
//!    global state. All randomness comes from [`crate::hash::hash01`]-style
//!    hashes, salted per modifier *type* (not stack position) so
//!    reordering a stack never changes an individual modifier's noise.
//! 2. **Range preservation** — pixels in `[0, 1]` stay in `[0, 1]`.
//!    Modifiers only use convex blends (`px + (c − px)·w` with
//!    `w ∈ [0, 1]`, `c ∈ [0, 1]`) and pointwise `min`/`max` against
//!    in-range values, so no clamping is ever needed.
//! 3. **Identity at zero intensity** — `intensity == 0` returns the
//!    input bit-exactly (early return, not a degenerate blend).
//!
//! # Composition and commutativity
//!
//! [`ModifierStack`] applies modifiers in order. Composition is *not*
//! commutative in general (fog-then-night ≠ night-then-fog: the blends
//! are affine and do not commute). The one claimed exception is the
//! **occluder family** ([`TunnelOcclusion`], [`TrafficObjects`]): these
//! paint opaque geometry via `min(px, shade(x, y))` where `shade` never
//! reads the input image, and pointwise `min` is commutative and
//! associative — so occluders commute with each other bit-exactly.
//! [`SceneModifier::is_occluder`] advertises membership and the property
//! tests verify exactly that claim, and nothing stronger.

use vision::Image;

use crate::hash::{hash01, value_noise};

/// Domain salts separating each modifier type's hash stream. Salted by
/// *type* so a modifier draws the same noise wherever it sits in a stack.
const SALT_RAIN: u64 = 0x5CE1_0001;
const SALT_FOG: u64 = 0x5CE1_0002;
const SALT_GLARE: u64 = 0x5CE1_0003;
const SALT_NIGHT: u64 = 0x5CE1_0004;
const SALT_TUNNEL: u64 = 0x5CE1_0005;
const SALT_TRAFFIC: u64 = 0x5CE1_0006;

/// A deterministic, composable transformation of a rendered frame.
///
/// Implementations must be pure: [`SceneModifier::apply`] may depend
/// only on the seed, the frame index, the modifier's own parameters and
/// the input pixels. See the module docs for the full contract.
pub trait SceneModifier: std::fmt::Debug + Send + Sync {
    /// Stable lower-case name, used in CLI specs, domain labels and
    /// reports.
    fn name(&self) -> &'static str;

    /// Effect strength in `[0, 1]`; `0` is the bit-exact identity.
    fn intensity(&self) -> f32;

    /// Produces the modified frame. Pure function of
    /// `(seed, frame_index, self, image)`.
    fn apply(&self, seed: u64, frame_index: u64, image: &Image) -> Image;

    /// `true` for modifiers that only paint opaque geometry via
    /// pointwise `min` — these commute with each other bit-exactly (the
    /// only commutativity this module claims).
    fn is_occluder(&self) -> bool {
        false
    }
}

/// Validates an intensity parameter at construction time.
///
/// # Panics
///
/// Panics when `intensity` is not finite or outside `[0, 1]` — modifier
/// construction is configuration-time code, matching the panicking
/// validation style of [`crate::DatasetConfig`].
fn checked_intensity(name: &str, intensity: f32) -> f32 {
    assert!(
        intensity.is_finite() && (0.0..=1.0).contains(&intensity),
        "{name} intensity must be in [0, 1], got {intensity}"
    );
    intensity
}

/// Convex blend of `px` towards `target` with weight `w ∈ [0, 1]` —
/// range-preserving by construction when both operands are in `[0, 1]`.
#[inline]
fn blend(px: f32, target: f32, w: f32) -> f32 {
    px + (target - px) * w
}

/// Rain: slanted bright streaks drifting down-frame, over a mildly
/// darkened (wet, overcast) scene.
///
/// Streaks are placed by hashing a slanted column index and a coarse row
/// band, and drift with the frame index so a streamed sequence animates
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RainStreaks {
    intensity: f32,
}

/// Fog: a depth-graded convex blend towards a uniform fog luminance,
/// strongest near the top of the frame (far geometry), with slow
/// value-noise patchiness drifting across frames.
///
/// Because the blend target is mid-grey (0.72), fog at *any* intensity
/// can neither black out nor saturate a frame — the `FrameGate` must
/// keep admitting foggy frames (property-tested).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FogRamp {
    intensity: f32,
}

/// Glare: an elliptical bloom around a seeded sun position in the upper
/// part of the frame, blending pixels towards white with a quadratic
/// falloff.
///
/// The bloom is spatially localized (falloff support is a bounded
/// ellipse), so the frame-wide mean stays far from the gate's
/// `saturated` threshold even at full intensity — glare is a *scene*,
/// not a sensor fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlareBloom {
    intensity: f32,
}

/// Night/dusk: a global gain roll-off towards an ambient floor plus
/// faint sensor grain.
///
/// The ambient floor (`0.05 · intensity`) keeps even a full-night frame
/// above the gate's `all-black` mean threshold: night is darker, never
/// dead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NightLighting {
    intensity: f32,
}

/// Tunnel/overpass: structured occlusion — a dark concrete ceiling band
/// descending from the top of the frame plus two drifting support
/// pillars, painted with pointwise `min` (an occluder).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunnelOcclusion {
    intensity: f32,
}

/// Traffic: up to three vehicle-shaped occluders on the road surface,
/// approaching cyclically with the frame index, painted with pointwise
/// `min` (an occluder).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficObjects {
    intensity: f32,
}

macro_rules! modifier_ctor {
    ($ty:ident, $label:literal) => {
        impl $ty {
            #[doc = concat!("A `", $label, "` modifier at `intensity`.")]
            ///
            /// # Panics
            ///
            /// Panics when `intensity` is not finite or outside `[0, 1]`.
            pub fn new(intensity: f32) -> Self {
                Self {
                    intensity: checked_intensity($label, intensity),
                }
            }
        }
    };
}

modifier_ctor!(RainStreaks, "rain");
modifier_ctor!(FogRamp, "fog");
modifier_ctor!(GlareBloom, "glare");
modifier_ctor!(NightLighting, "night");
modifier_ctor!(TunnelOcclusion, "tunnel");
modifier_ctor!(TrafficObjects, "traffic");

impl SceneModifier for FogRamp {
    fn name(&self) -> &'static str {
        "fog"
    }

    fn intensity(&self) -> f32 {
        self.intensity
    }

    fn apply(&self, seed: u64, frame_index: u64, image: &Image) -> Image {
        if self.intensity <= 0.0 {
            return image.clone();
        }
        let s = seed ^ SALT_FOG;
        let h = image.height() as f32;
        // Fog banks drift slowly across the frame sequence.
        let drift = frame_index as f32 * 0.35;
        const FOG_LUMA: f32 = 0.72;
        Image::from_fn(image.height(), image.width(), |y, x| {
            // Depth ramp: rows near the top of the frame (far geometry)
            // fog the hardest; the foreground keeps some contrast.
            // sncheck:allow(no-libm-math): this libm call shapes generated
            // frames; moving it to `ndtensor::math` changes every dataset
            // digest, which ROADMAP item 3 leaves to a change of its own.
            let ramp = ((h - y as f32) / h).powf(1.2);
            let patch = 0.8 + 0.2 * value_noise(s, x as f32 * 0.06 + drift, y as f32 * 0.1, 1.0);
            let w = self.intensity * (0.35 + 0.65 * ramp) * patch;
            blend(image.get(y, x), FOG_LUMA, w.min(1.0))
        })
        .expect("input image dimensions are non-zero")
    }
}

impl SceneModifier for RainStreaks {
    fn name(&self) -> &'static str {
        "rain"
    }

    fn intensity(&self) -> f32 {
        self.intensity
    }

    fn apply(&self, seed: u64, frame_index: u64, image: &Image) -> Image {
        if self.intensity <= 0.0 {
            return image.clone();
        }
        let s = seed ^ SALT_RAIN;
        // Overcast wet-scene dimming, well clear of the gate's
        // `all-black` threshold even at full intensity.
        let dim = 1.0 - 0.18 * self.intensity;
        let fall = frame_index as f32 * 2.0;
        Image::from_fn(image.height(), image.width(), |y, x| {
            let px = image.get(y, x) * dim;
            // Slanted streak coordinate: streaks lean ~17° and fall with
            // the frame index.
            let u = x as f32 - 0.3 * y as f32 + fall;
            let col = u.floor() as i64 as u64;
            let band = (y as u64) / 9;
            // Which slanted columns carry a streak, and where each
            // streak's dashes sit, are independent hash draws.
            let active = hash01(s, col, 0) < 0.35 * self.intensity;
            let dash = hash01(s ^ 0xD5, col, band) < 0.65;
            if active && dash {
                // Streak brightness varies per streak; blend is convex.
                let streak_luma = 0.58 + 0.20 * hash01(s ^ 0x1F, col, 1);
                blend(px, streak_luma, 0.55 * self.intensity)
            } else {
                px
            }
        })
        .expect("input image dimensions are non-zero")
    }
}

impl SceneModifier for GlareBloom {
    fn name(&self) -> &'static str {
        "glare"
    }

    fn intensity(&self) -> f32 {
        self.intensity
    }

    fn apply(&self, seed: u64, frame_index: u64, image: &Image) -> Image {
        if self.intensity <= 0.0 {
            return image.clone();
        }
        let s = seed ^ SALT_GLARE;
        let (h, w) = (image.height() as f32, image.width() as f32);
        // Sun position: seeded, in the upper middle band of the frame.
        let cx = (0.2 + 0.6 * hash01(s, 0, 0)) * w;
        let cy = (0.05 + 0.25 * hash01(s, 1, 0)) * h;
        // Per-frame shimmer modulates bloom strength a little.
        let shimmer = 0.9 + 0.1 * hash01(s, frame_index, 2);
        Image::from_fn(image.height(), image.width(), |y, x| {
            let dx = (x as f32 - cx) / (0.35 * w);
            let dy = (y as f32 - cy) / (0.35 * h);
            let falloff = (1.0 - (dx * dx + dy * dy)).max(0.0);
            // Quadratic falloff keeps the bloom localized: the
            // frame-mean added brightness stays small at any intensity.
            let wgt = self.intensity * shimmer * falloff * falloff;
            blend(image.get(y, x), 1.0, wgt.min(1.0))
        })
        .expect("input image dimensions are non-zero")
    }
}

impl SceneModifier for NightLighting {
    fn name(&self) -> &'static str {
        "night"
    }

    fn intensity(&self) -> f32 {
        self.intensity
    }

    fn apply(&self, seed: u64, frame_index: u64, image: &Image) -> Image {
        if self.intensity <= 0.0 {
            return image.clone();
        }
        let s = seed ^ SALT_NIGHT ^ frame_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Gain roll-off with an ambient floor: gain + floor + grain ≤ 1
        // and floor − grain ≥ 0, so the output range needs no clamping.
        let gain = 1.0 - 0.78 * self.intensity;
        let floor = 0.05 * self.intensity;
        let grain = 0.02 * self.intensity;
        Image::from_fn(image.height(), image.width(), |y, x| {
            image.get(y, x) * gain + floor + grain * hash01(s, x as u64, y as u64)
        })
        .expect("input image dimensions are non-zero")
    }
}

impl SceneModifier for TunnelOcclusion {
    fn name(&self) -> &'static str {
        "tunnel"
    }

    fn intensity(&self) -> f32 {
        self.intensity
    }

    fn is_occluder(&self) -> bool {
        true
    }

    fn apply(&self, seed: u64, frame_index: u64, image: &Image) -> Image {
        if self.intensity <= 0.0 {
            return image.clone();
        }
        let s = seed ^ SALT_TUNNEL;
        let (h, w) = (image.height(), image.width());
        // Ceiling band: at most the top 45 % of the frame, so the road
        // ahead (and the frame mean) survives full intensity.
        let ceiling_rows = (self.intensity * 0.45 * h as f32) as usize;
        // Two support pillars drift past the camera with the frame index.
        let pillar_w = ((0.05 * w as f32) as usize).max(1);
        let pillar_x = |p: u64| -> usize {
            let base = hash01(s, p, 0) * w as f32;
            ((base + frame_index as f32 * 1.5) as usize) % w
        };
        let (p0, p1) = (pillar_x(0), pillar_x(1));
        let pillar_rows = (0.8 * h as f32) as usize;
        Image::from_fn(h, w, |y, x| {
            let px = image.get(y, x);
            let in_ceiling = y < ceiling_rows;
            let in_pillar = y < pillar_rows
                && ((x >= p0 && x < (p0 + pillar_w).min(w))
                    || (x >= p1 && x < (p1 + pillar_w).min(w)));
            if in_ceiling || in_pillar {
                // Occluders paint with pointwise `min` against a shade
                // that never reads the input — the commuting family.
                let shade = 0.10 + 0.06 * value_noise(s, x as f32 * 0.2, y as f32 * 0.2, 1.0);
                px.min(shade)
            } else {
                px
            }
        })
        .expect("input image dimensions are non-zero")
    }
}

impl SceneModifier for TrafficObjects {
    fn name(&self) -> &'static str {
        "traffic"
    }

    fn intensity(&self) -> f32 {
        self.intensity
    }

    fn is_occluder(&self) -> bool {
        true
    }

    fn apply(&self, seed: u64, frame_index: u64, image: &Image) -> Image {
        if self.intensity <= 0.0 {
            return image.clone();
        }
        let s = seed ^ SALT_TRAFFIC;
        let (h, w) = (image.height() as f32, image.width() as f32);
        // 1–3 vehicles depending on intensity.
        let count = (self.intensity * 3.0).ceil() as u64;
        // Precompute each vehicle's screen rectangle; painting is then a
        // pointwise `min` against a shade independent of the input.
        let mut rects: Vec<(usize, usize, usize, usize, f32)> = Vec::new();
        for v in 0..count {
            // Approach cycle: proximity grows 0→1 then the vehicle
            // resets far away; phase and lane are per-vehicle draws.
            let speed = 0.008 + 0.012 * hash01(s, v, 1);
            let phase = hash01(s, v, 2);
            let prox = (frame_index as f32 * speed + phase).fract();
            // Lane position: somewhere in the middle half of the frame,
            // spreading outwards slightly as the vehicle nears.
            let lane = 0.3 + 0.4 * hash01(s, v, 3);
            let spread = 1.0 + 0.3 * prox;
            let cx = (0.5 + (lane - 0.5) * spread) * w;
            // Vehicles sit low in the frame and grow as they approach.
            let cy = (0.52 + 0.30 * prox) * h;
            let half_w = (0.025 + 0.06 * prox) * w;
            let half_h = half_w * 0.45;
            let x0 = (cx - half_w).max(0.0) as usize;
            let x1 = ((cx + half_w) as usize).min(w as usize);
            let y0 = (cy - half_h).max(0.0) as usize;
            let y1 = ((cy + half_h) as usize).min(h as usize);
            let shade = 0.14 + 0.08 * hash01(s, v, 4);
            if x0 < x1 && y0 < y1 {
                rects.push((y0, y1, x0, x1, shade));
            }
        }
        Image::from_fn(image.height(), image.width(), |y, x| {
            let mut px = image.get(y, x);
            for &(y0, y1, x0, x1, shade) in &rects {
                if y >= y0 && y < y1 && x >= x0 && x < x1 {
                    px = px.min(shade);
                }
            }
            px
        })
        .expect("input image dimensions are non-zero")
    }
}

/// An ordered composition of modifiers, applied front-to-back.
///
/// The stack itself adds no randomness: it threads the same
/// `(seed, frame_index)` through every member (each modifier salts the
/// seed by its own type). An empty stack is the identity.
///
/// # Example
///
/// ```
/// use simdrive::{FogRamp, ModifierStack, NightLighting};
/// use vision::Image;
///
/// let stack = ModifierStack::new()
///     .with(FogRamp::new(0.6))
///     .with(NightLighting::new(0.8));
/// let frame = Image::from_fn(8, 16, |y, x| ((y + x) % 7) as f32 / 7.0).unwrap();
/// let a = stack.apply(42, 0, &frame);
/// let b = stack.apply(42, 0, &frame);
/// assert_eq!(a, b); // byte-reproducible
/// ```
#[derive(Debug, Default)]
pub struct ModifierStack {
    modifiers: Vec<Box<dyn SceneModifier>>,
}

impl ModifierStack {
    /// An empty (identity) stack.
    pub fn new() -> Self {
        ModifierStack {
            modifiers: Vec::new(),
        }
    }

    /// Appends a modifier, builder-style.
    pub fn with(mut self, modifier: impl SceneModifier + 'static) -> Self {
        self.modifiers.push(Box::new(modifier));
        self
    }

    /// Appends a boxed modifier.
    pub fn push(&mut self, modifier: Box<dyn SceneModifier>) {
        self.modifiers.push(modifier);
    }

    /// Number of modifiers in the stack.
    pub fn len(&self) -> usize {
        self.modifiers.len()
    }

    /// `true` when the stack is the identity.
    pub fn is_empty(&self) -> bool {
        self.modifiers.is_empty()
    }

    /// The modifiers, in application order.
    pub fn modifiers(&self) -> &[Box<dyn SceneModifier>] {
        &self.modifiers
    }

    /// Canonical spec string (`"fog@0.60+night@0.80"`, `"clear"` when
    /// empty) — parses back via [`ModifierStack::parse`].
    pub fn spec(&self) -> String {
        if self.modifiers.is_empty() {
            return "clear".to_string();
        }
        self.modifiers
            .iter()
            .map(|m| format!("{}@{:.2}", m.name(), m.intensity()))
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Applies every modifier in order. Pure function of
    /// `(seed, frame_index, stack, image)`.
    #[must_use = "apply returns the modified frame; the input is untouched"]
    pub fn apply(&self, seed: u64, frame_index: u64, image: &Image) -> Image {
        let mut out = image.clone();
        for modifier in &self.modifiers {
            out = modifier.apply(seed, frame_index, &out);
        }
        out
    }

    /// Parses a composition spec: `+`-separated `name@intensity` parts
    /// (`fog@0.6+night@0.8`); a bare name means full intensity; the
    /// spec `clear` (or an empty string) is the identity stack.
    ///
    /// Known names: `rain`, `fog`, `glare`, `night`, `tunnel`,
    /// `traffic`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names or
    /// out-of-range intensities.
    pub fn parse(spec: &str) -> Result<ModifierStack, String> {
        let mut stack = ModifierStack::new();
        let trimmed = spec.trim();
        if trimmed.is_empty() || trimmed == "clear" {
            return Ok(stack);
        }
        for part in trimmed.split('+').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, intensity) = match part.split_once('@') {
                Some((name, value)) => {
                    let intensity: f32 = value.parse().map_err(|_| {
                        format!("modifier {part:?}: intensity {value:?} is not a number")
                    })?;
                    if !intensity.is_finite() || !(0.0..=1.0).contains(&intensity) {
                        return Err(format!(
                            "modifier {part:?}: intensity must be in [0, 1], got {intensity}"
                        ));
                    }
                    (name, intensity)
                }
                None => (part, 1.0),
            };
            stack.push(boxed_modifier(name, intensity).ok_or_else(|| {
                format!(
                    "unknown modifier {name:?} (rain|fog|glare|night|tunnel|traffic, \
                     or clear for none)"
                )
            })?);
        }
        Ok(stack)
    }
}

/// Constructs a modifier by [`SceneModifier::name`]; `None` for unknown
/// names. Intensity must already be validated to `[0, 1]`.
pub fn boxed_modifier(name: &str, intensity: f32) -> Option<Box<dyn SceneModifier>> {
    Some(match name {
        "rain" => Box::new(RainStreaks::new(intensity)),
        "fog" => Box::new(FogRamp::new(intensity)),
        "glare" => Box::new(GlareBloom::new(intensity)),
        "night" => Box::new(NightLighting::new(intensity)),
        "tunnel" => Box::new(TunnelOcclusion::new(intensity)),
        "traffic" => Box::new(TrafficObjects::new(intensity)),
        _ => return None,
    })
}

/// Every modifier name, in a stable order (for exhaustive sweeps).
pub fn modifier_names() -> [&'static str; 6] {
    ["rain", "fog", "glare", "night", "tunnel", "traffic"]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame_digest;

    fn base_frame() -> Image {
        // Textured, mid-intensity frame resembling a rendered scene.
        Image::from_fn(24, 64, |y, x| {
            0.25 + 0.5 * ((y as f32 * 0.31 + x as f32 * 0.17).sin().abs())
        })
        .unwrap()
    }

    fn all_modifiers(intensity: f32) -> Vec<Box<dyn SceneModifier>> {
        modifier_names()
            .iter()
            .map(|n| boxed_modifier(n, intensity).unwrap())
            .collect()
    }

    #[test]
    fn every_modifier_is_deterministic_and_seed_sensitive() {
        let frame = base_frame();
        for m in all_modifiers(0.7) {
            let a = m.apply(1, 3, &frame);
            let b = m.apply(1, 3, &frame);
            assert_eq!(
                frame_digest(&a),
                frame_digest(&b),
                "{} not deterministic",
                m.name()
            );
            let c = m.apply(2, 3, &frame);
            assert_ne!(
                frame_digest(&a),
                frame_digest(&c),
                "{} ignores its seed",
                m.name()
            );
        }
    }

    #[test]
    fn every_modifier_is_identity_at_zero_intensity() {
        let frame = base_frame();
        for m in all_modifiers(0.0) {
            assert_eq!(m.apply(9, 4, &frame), frame, "{} at zero", m.name());
        }
    }

    #[test]
    fn every_modifier_preserves_unit_range() {
        let frame = base_frame();
        for intensity in [0.25, 1.0] {
            for m in all_modifiers(intensity) {
                let out = m.apply(5, 7, &frame);
                assert!(
                    out.tensor().min_value() >= 0.0 && out.tensor().max_value() <= 1.0,
                    "{} at {intensity} escapes [0, 1]",
                    m.name()
                );
                assert!(!out.tensor().has_non_finite());
            }
        }
    }

    #[test]
    fn every_modifier_actually_changes_the_frame() {
        let frame = base_frame();
        for m in all_modifiers(0.9) {
            assert_ne!(
                frame_digest(&m.apply(3, 2, &frame)),
                frame_digest(&frame),
                "{} at 0.9 is a no-op",
                m.name()
            );
        }
    }

    #[test]
    fn modifiers_animate_with_the_frame_index() {
        let frame = base_frame();
        // Every modifier whose physics moves (rain falls, fog drifts,
        // traffic approaches, pillars pass, grain re-rolls, glare
        // shimmers) must vary with the frame index.
        for m in all_modifiers(0.8) {
            assert_ne!(
                frame_digest(&m.apply(4, 0, &frame)),
                frame_digest(&m.apply(4, 25, &frame)),
                "{} is frozen in time",
                m.name()
            );
        }
    }

    #[test]
    fn occluders_commute_bit_exactly() {
        let frame = base_frame();
        let tunnel = TunnelOcclusion::new(0.8);
        let traffic = TrafficObjects::new(0.9);
        assert!(tunnel.is_occluder() && traffic.is_occluder());
        let ab = traffic.apply(6, 11, &tunnel.apply(6, 11, &frame));
        let ba = tunnel.apply(6, 11, &traffic.apply(6, 11, &frame));
        assert_eq!(frame_digest(&ab), frame_digest(&ba));
    }

    #[test]
    fn non_occluders_do_not_claim_commutativity() {
        let frame = base_frame();
        let fog = FogRamp::new(0.7);
        let night = NightLighting::new(0.7);
        assert!(!fog.is_occluder() && !night.is_occluder());
        let ab = night.apply(6, 1, &fog.apply(6, 1, &frame));
        let ba = fog.apply(6, 1, &night.apply(6, 1, &frame));
        // Affine blends do not commute — and we do not claim they do.
        assert_ne!(frame_digest(&ab), frame_digest(&ba));
    }

    #[test]
    fn stack_applies_in_order_and_roundtrips_specs() {
        let frame = base_frame();
        let stack = ModifierStack::parse("fog@0.5+night@0.75").unwrap();
        assert_eq!(stack.len(), 2);
        assert_eq!(stack.spec(), "fog@0.50+night@0.75");
        let manual = NightLighting::new(0.75).apply(8, 2, &FogRamp::new(0.5).apply(8, 2, &frame));
        assert_eq!(stack.apply(8, 2, &frame), manual);
        // Identity stack.
        let clear = ModifierStack::parse("clear").unwrap();
        assert!(clear.is_empty());
        assert_eq!(clear.spec(), "clear");
        assert_eq!(clear.apply(8, 2, &frame), frame);
        // Bare names mean full intensity.
        let bare = ModifierStack::parse("rain").unwrap();
        assert_eq!(bare.modifiers()[0].intensity(), 1.0);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(ModifierStack::parse("smoke@0.5").is_err());
        assert!(ModifierStack::parse("fog@1.5").is_err());
        assert!(ModifierStack::parse("fog@lots").is_err());
        assert!(ModifierStack::parse("fog@-0.1").is_err());
    }

    #[test]
    #[should_panic(expected = "intensity must be in [0, 1]")]
    fn constructors_validate_intensity() {
        let _ = FogRamp::new(1.2);
    }

    #[test]
    fn modifier_noise_is_position_independent() {
        // A modifier draws the same noise wherever it sits in a stack:
        // fog applied alone and fog applied after an occluder see the
        // same fog field (only the underlying pixels differ).
        let frame = base_frame();
        let fog = FogRamp::new(0.6);
        let tunnel = TunnelOcclusion::new(0.0); // identity occluder
        let direct = fog.apply(3, 5, &frame);
        let after_identity = fog.apply(3, 5, &tunnel.apply(3, 5, &frame));
        assert_eq!(frame_digest(&direct), frame_digest(&after_identity));
    }
}

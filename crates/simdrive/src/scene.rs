//! Per-frame scene parameters.
//!
//! A [`SceneParams`] captures everything that varies between frames of one
//! world: the local road geometry the vehicle sees (curvature, lateral
//! offset, heading error), photometric conditions, and the seeds that place
//! texture and clutter. The ground-truth steering angle is a pure function
//! of the geometric part (see [`crate::steering_angle`]).

use rand::Rng;
use rand_distr::{Distribution, Normal};

use crate::{Weather, World};

/// The sampled state of a single frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneParams {
    /// Which world the frame belongs to.
    pub world: World,
    /// Road curvature at the vehicle, 1/metres (positive = curving right
    /// in image space).
    pub curvature: f32,
    /// Lateral offset of the vehicle from the lane centre, metres
    /// (positive = vehicle right of centre).
    pub lateral_offset: f32,
    /// Heading error of the vehicle relative to the road tangent, radians
    /// (positive = pointing right of the road direction).
    pub heading_error: f32,
    /// Global brightness multiplier for the frame (photometric jitter).
    pub exposure: f32,
    /// Haze strength in `[0, 1]` (outdoor only; fades distant ground
    /// towards the sky colour).
    pub haze: f32,
    /// Sun/lamp direction bias in `[-1, 1]`, shifts lateral shading.
    pub light_bias: f32,
    /// Weather condition (outdoor only; extension beyond the paper).
    pub weather: Weather,
    /// Seed for deterministic texture noise.
    pub texture_seed: u64,
    /// Seed for clutter object placement.
    pub clutter_seed: u64,
    /// Distance travelled since the clutter layout was sampled, metres —
    /// used by drive simulation to stream objects past the camera
    /// (0.0 for i.i.d. dataset frames).
    pub clutter_travel: f32,
}

impl SceneParams {
    /// Samples a random scene for `world` from `rng`.
    ///
    /// Geometry is drawn from truncated normals so most frames are mild
    /// and the tails still exercise strong curvature; photometrics differ
    /// per world (outdoor jitters much more, mirroring the paper's note
    /// that DSU is the more varied dataset).
    pub fn sample(world: World, rng: &mut impl Rng) -> Self {
        let max_curv = world.max_curvature();
        let curv_dist = Normal::new(0.0f32, max_curv * 0.5).expect("valid std");
        let curvature = curv_dist.sample(rng).clamp(-max_curv, max_curv);

        let off_std = world.road_half_width() * 0.25;
        let lateral_offset = Normal::new(0.0f32, off_std)
            .expect("valid std")
            .sample(rng)
            .clamp(-2.0 * off_std, 2.0 * off_std);

        let heading_error = Normal::new(0.0f32, 0.05)
            .expect("valid std")
            .sample(rng)
            .clamp(-0.15, 0.15);

        let (exposure, haze) = match world {
            World::Outdoor => (rng.gen_range(0.75..1.25), rng.gen_range(0.0..0.5)),
            World::Indoor => (rng.gen_range(0.92..1.08), 0.0),
        };

        SceneParams {
            world,
            curvature,
            lateral_offset,
            heading_error,
            exposure,
            haze,
            light_bias: rng.gen_range(-1.0..1.0),
            weather: Weather::Clear,
            texture_seed: rng.gen(),
            clutter_seed: rng.gen(),
            clutter_travel: 0.0,
        }
    }

    /// Returns the scene with a weather condition applied (adjusting the
    /// photometric parameters weather implies).
    pub fn with_weather(mut self, weather: Weather) -> Self {
        self.weather = weather;
        match weather {
            Weather::Clear => {}
            Weather::Fog => {
                self.haze = (self.haze + 0.75).min(1.0);
                self.exposure *= 1.05;
            }
            Weather::Rain => {
                self.exposure *= 0.8;
            }
        }
        self
    }

    /// A canonical straight-road scene with neutral photometrics, useful
    /// for tests and documentation figures.
    pub fn neutral(world: World) -> Self {
        SceneParams {
            world,
            curvature: 0.0,
            lateral_offset: 0.0,
            heading_error: 0.0,
            exposure: 1.0,
            haze: 0.0,
            light_bias: 0.0,
            weather: Weather::Clear,
            texture_seed: 0,
            clutter_seed: 0,
            clutter_travel: 0.0,
        }
    }

    /// Lateral position of the road centreline at distance `z` metres
    /// ahead, in vehicle coordinates (metres, positive right).
    ///
    /// Uses the standard quadratic lane model: offset + heading term +
    /// curvature term.
    pub fn centerline_at(&self, z: f32) -> f32 {
        -self.lateral_offset + self.heading_error * z + 0.5 * self.curvature * z * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_scenes_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for world in [World::Outdoor, World::Indoor] {
            for _ in 0..200 {
                let s = SceneParams::sample(world, &mut rng);
                assert!(s.curvature.abs() <= world.max_curvature());
                assert!(s.lateral_offset.abs() <= world.road_half_width() * 0.5 + 1e-6);
                assert!(s.heading_error.abs() <= 0.15);
                assert!(s.exposure > 0.5 && s.exposure < 1.5);
                assert!((0.0..=1.0).contains(&s.haze));
            }
        }
    }

    #[test]
    fn indoor_photometrics_are_tamer() {
        let mut rng = StdRng::seed_from_u64(2);
        let spread = |w: World, rng: &mut StdRng| {
            let vals: Vec<f32> = (0..300)
                .map(|_| SceneParams::sample(w, rng).exposure)
                .collect();
            let lo = vals.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            hi - lo
        };
        assert!(spread(World::Outdoor, &mut rng) > spread(World::Indoor, &mut rng));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = SceneParams::sample(World::Outdoor, &mut StdRng::seed_from_u64(5));
        let b = SceneParams::sample(World::Outdoor, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn centerline_is_quadratic_in_distance() {
        let mut s = SceneParams::neutral(World::Outdoor);
        s.curvature = 0.01;
        s.heading_error = 0.02;
        s.lateral_offset = 0.5;
        let z = 10.0;
        let expect = -0.5 + 0.02 * 10.0 + 0.5 * 0.01 * 100.0;
        assert!((s.centerline_at(z) - expect).abs() < 1e-6);
        // At z = 0 the centreline sits opposite the vehicle's own offset.
        assert!((s.centerline_at(0.0) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn weather_adjusts_photometrics() {
        let base = SceneParams::neutral(World::Outdoor);
        let fog = base.clone().with_weather(Weather::Fog);
        assert!(fog.haze > base.haze);
        assert_eq!(fog.weather, Weather::Fog);
        let rain = base.clone().with_weather(Weather::Rain);
        assert!(rain.exposure < base.exposure);
        let clear = base.clone().with_weather(Weather::Clear);
        assert_eq!(clear.haze, base.haze);
    }

    #[test]
    fn neutral_scene_is_straight_and_centred() {
        let s = SceneParams::neutral(World::Indoor);
        for z in [0.0f32, 1.0, 5.0] {
            assert_eq!(s.centerline_at(z), 0.0);
        }
    }
}

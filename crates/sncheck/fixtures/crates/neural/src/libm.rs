//! Fixture: libm transcendental calls outside `ndtensor::math` must fire,
//! as methods and as `f32::`/`f64::` paths; a suppressed dataset site, a
//! same-named free fn, a lookalike method and the test module stay silent.

pub fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

pub fn squash(v: &[f32]) -> Vec<f32> {
    v.iter().copied().map(f32::tanh).collect()
}

pub fn gamma(v: f32) -> f32 {
    // sncheck:allow(no-libm-math): fixture demonstrates a reasoned dataset site
    v.powf(2.2)
}

pub fn lookalikes(v: f32) -> f32 {
    exp(v) + v.exponent()
}

fn exp(v: f32) -> f32 {
    v
}

trait Exponent {
    fn exponent(self) -> f32;
}

impl Exponent for f32 {
    fn exponent(self) -> f32 {
        self
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reference() {
        assert!(1.0f32.exp() > 2.0);
    }
}

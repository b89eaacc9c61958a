//! Fixture: thread spawning in library code must fire.

pub fn bad_spawn() {
    std::thread::spawn(|| {}).join().ok();
}

pub fn bad_scope(xs: &mut [f32]) {
    std::thread::scope(|s| {
        s.spawn(|| xs.iter().sum::<f32>());
    });
}

pub fn bad_builder() {
    let _ = std::thread::Builder::new();
}

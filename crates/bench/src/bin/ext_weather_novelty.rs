//! Extension experiment E9 (ours) — novelty from *changed conditions in
//! the same world*.
//!
//! The paper's problem statement asks for detection of "altered, yet
//! similar images of a seen environment", but its evaluation only covers
//! a fully different dataset (Fig. 5) and synthetic noise (Fig. 7). This
//! experiment fills the gap: the detector trains on clear outdoor
//! driving and is then shown the *same* road in fog and rain — a milder,
//! more realistic distribution shift.
//!
//! Expected shape: detection rates between the Fig. 7 (noise) and Fig. 5
//! (cross-dataset) extremes, with fog (which erases distant road
//! structure that VBP relies on) harder to miss than rain.

use bench::{images_of, indoor_dataset, print_eval_report, print_header, Scale};
use novelty::eval::evaluate;
use novelty::NoveltyDetectorBuilder;
use simdrive::{DatasetConfig, Weather};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    print_header(
        "ext_weather_novelty",
        "extension E9: unseen weather in the training world",
        scale,
    );

    let make = |weather: Weather, len: usize, seed: u64| {
        DatasetConfig::outdoor()
            .with_len(len)
            .with_size(scale.height(), scale.width())
            .with_weather(weather)
            .generate(seed)
    };
    let clear = make(Weather::Clear, scale.train_len() + scale.test_len(), 0xE9);
    let (train, held_out) = clear.split(scale.train_len() as f32 / clear.len() as f32);
    let target_images = images_of(&held_out.sample(scale.test_len(), 60));

    println!(
        "training the paper's pipeline on {} clear outdoor frames…",
        train.len()
    );
    let detector = NoveltyDetectorBuilder::paper()
        .cnn_epochs(scale.cnn_epochs())
        .ae_epochs(scale.ae_epochs())
        .train_fraction(1.0)
        .seed(10)
        .train(&train)?;

    let mut rows = Vec::new();
    for weather in [Weather::Fog, Weather::Rain] {
        let shifted = make(weather, scale.test_len(), 0xE9 + weather as u64 + 1);
        let novel_images = images_of(&shifted);
        let report = evaluate(&detector, &target_images, &novel_images, obs::noop())?;
        print_eval_report(&format!("[clear vs {weather}]"), &report, 20);
        rows.push((weather.name(), report));
    }
    // Cross-dataset reference point at the same scale.
    let indoor = indoor_dataset(scale, scale.test_len(), 0xE99);
    let report = evaluate(&detector, &target_images, &images_of(&indoor), obs::noop())?;
    print_eval_report("[clear vs indoor (Fig. 5 reference)]", &report, 20);
    rows.push(("indoor", report));

    println!("weather-shift summary (ours; harder than noise, easier than cross-dataset)");
    println!("  novel condition   AUROC   overlap   detected @99th pct");
    for (name, r) in &rows {
        println!(
            "  {:<15} {:>6.3}   {:>7.3}   {:>6.1}%",
            name,
            r.separation.auroc,
            r.separation.overlap,
            r.novel_detection_rate * 100.0
        );
    }
    Ok(())
}

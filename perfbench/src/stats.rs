//! Order statistics for the reported metrics.
//!
//! Percentiles are nearest-rank (every reported value is a real sample);
//! quartiles follow Python's `statistics.quantiles(values, n=4)` default
//! ("exclusive") method, so `perfbench compare` spreads match the ones a
//! Python check over the same run files computes.

/// Samples beyond a reported percentile needed before the percentile is
/// trusted: below this the "tail" is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `values` ascending (NaN-free input assumed; NaN sorts
/// last under `total_cmp`).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of ascending `sorted`:
/// the smallest sample with at least `p`% of the samples at or below it.
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly greater than `value` in ascending `sorted`.
pub fn beyond(sorted: &[f64], value: f64) -> usize {
    sorted.len() - sorted.partition_point(|&v| v <= value)
}

/// The median (mean of the two middle samples for even counts), as
/// Python's `statistics.median`. `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values,
/// n=4)` (method "exclusive"). `None` below two samples, where Python
/// raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// One measured call: when it completed, how many frames it scored, and
/// how long the system worked in it.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Completion time, seconds since the run started.
    pub at: f64,
    /// Frames the call scored.
    pub frames: f64,
    /// Seconds spent inside the call.
    pub busy: f64,
}

/// Frames scored per busy second, as the median over the whole one-second
/// windows `[k, k+1)` of a run lasting `duration` seconds. Each call
/// counts in the window holding its completion time; calls in the
/// trailing incomplete window are dropped, and so are windows without
/// busy time. In a closed loop busy time is nearly all of a window, so
/// this is the frame rate; in an open loop it is the server's capacity on
/// that traffic rather than the offered load. A whole-run rate moves with
/// a single stall; the median window does not. `None` for a run shorter
/// than one window.
pub fn window_rate_median(calls: &[Call], duration: f64) -> Option<f64> {
    let mut windows = vec![(0.0, 0.0); duration.floor() as usize];
    for c in calls {
        if let Some((frames, busy)) = windows.get_mut(c.at.max(0.0) as usize) {
            *frames += c.frames;
            *busy += c.busy;
        }
    }
    let rates: Vec<f64> = windows
        .into_iter()
        .filter(|&(_, busy)| busy > 0.0)
        .map(|(frames, busy)| frames / busy)
        .collect();
    median(&rates)
}

/// 64-bit FNV-1a, the digest the output checks compare.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = sorted(&[15.0, 20.0, 35.0, 40.0, 50.0]);
        assert_eq!(percentile(&s, 5.0), Some(15.0));
        assert_eq!(percentile(&s, 30.0), Some(20.0));
        assert_eq!(percentile(&s, 40.0), Some(20.0));
        assert_eq!(percentile(&s, 50.0), Some(35.0));
        assert_eq!(percentile(&s, 100.0), Some(50.0));
        // 1..=1000: p50 is the 500th sample, p99 the 990th.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(500.0));
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_guard_counts_samples_strictly_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&s, 99.0).unwrap();
        assert_eq!(beyond(&s, p99), 10);
        // 999 samples: p99 is the 990th, nine lie beyond — too few.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(beyond(&s, percentile(&s, 99.0).unwrap()), 9);
        // Ties at the percentile are not "beyond" it.
        assert_eq!(beyond(&[1.0, 2.0, 2.0, 2.0, 3.0], 2.0), 1);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_rate_is_the_median_whole_window() {
        let call = |at, frames, busy| Call { at, frames, busy };
        // Window [0,1): 6 frames in 0.5 busy s = 12/s. Window [1,2): a
        // stall, 2 frames in 0.5 s = 4/s. Window [2,3): 8 in 0.5 = 16/s.
        // Window [3,4): idle, no rate. Window [4,5): 7 in 0.5 = 14/s. The
        // call at 5.2 lies in the incomplete window of a 5.5 s run and is
        // dropped. Rates 4, 12, 14, 16: the mean of the middle two.
        let calls = [
            call(0.2, 3.0, 0.25),
            call(0.9, 3.0, 0.25),
            call(1.5, 2.0, 0.5),
            call(2.1, 4.0, 0.25),
            call(2.8, 4.0, 0.25),
            call(4.0, 7.0, 0.5),
            call(5.2, 100.0, 0.1),
        ];
        assert_eq!(window_rate_median(&calls, 5.5), Some(13.0));
        // Windows [0,1) to [2,3) only: 4, 12, 16.
        assert_eq!(window_rate_median(&calls, 3.0), Some(12.0));
        // Shorter than one window: no rate.
        assert_eq!(window_rate_median(&calls, 0.95), None);
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
    }
}

//! Latency samples and the percentiles reported from them.

use std::sync::OnceLock;
use std::time::Instant;

/// Segments a run's samples are split into, in time order. A reported
/// percentile is the median of the segments' percentiles, so a slow
/// spell of the host that covers less than half of a run does not move
/// it.
const SEGMENTS: usize = 5;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Latency samples: (start, duration) in nanoseconds since the
/// process-wide epoch.
#[derive(Default, Clone)]
pub struct Lat {
    samples: Vec<(u64, u64)>,
}

/// Nearest-rank percentile `p` (0..=100) of unsorted nanosecond values.
fn pct(mut v: Vec<u64>, p: f64) -> u64 {
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

impl Lat {
    pub fn push(&mut self, start: Instant, end: Instant) {
        let at = start.saturating_duration_since(epoch()).as_nanos() as u64;
        self.samples
            .push((at, end.saturating_duration_since(start).as_nanos() as u64));
    }

    pub fn extend(&mut self, other: &Lat) {
        self.samples.extend_from_slice(&other.samples);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Percentile `p` in microseconds: the median over [`SEGMENTS`]
    /// time-ordered segments of equal sample count (the plain
    /// percentile when there are too few samples to split).
    pub fn pct_us(&self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut by_time = self.samples.clone();
        by_time.sort_unstable();
        let n = by_time.len();
        if n < 4 * SEGMENTS {
            return Some(pct(by_time.iter().map(|s| s.1).collect(), p) as f64 / 1e3);
        }
        let per_segment: Vec<f64> = (0..SEGMENTS)
            .map(|k| {
                let seg = &by_time[k * n / SEGMENTS..(k + 1) * n / SEGMENTS];
                pct(seg.iter().map(|s| s.1).collect(), p) as f64
            })
            .collect();
        Some(median(&per_segment) / 1e3)
    }

    pub fn mean_us(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|s| s.1).sum::<u64>() as f64 / self.samples.len() as f64 / 1e3)
    }
}

/// Median of a small sample (set-up repetitions, segment percentiles).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

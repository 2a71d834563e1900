//! The benchmark's statistics: nearest-rank percentiles with a
//! sample-count guard, the geometric mean, open-loop due-time latency
//! and generator lag, and backlog-growth detection.

/// Samples that must lie beyond a tail percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of unsorted `values` (`None` when empty).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The median (nearest rank).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// A tail percentile, reported only when at least [`MIN_BEYOND`]
/// samples lie beyond it: p90 needs 100 samples, p99 needs 1000.
pub fn tail(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || n - rank(n, q) < MIN_BEYOND {
        return None;
    }
    quantile(values, q)
}

/// Geometric mean of positive values (`None` when empty or when any
/// value is not positive).
#[allow(clippy::cast_precision_loss)]
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Timing of one open-loop operation, in seconds from the start of its
/// rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// When the schedule said the operation should be sent.
    pub due: f64,
    /// When the generator actually started sending it.
    pub sent: f64,
    /// When its last reply byte arrived.
    pub done: f64,
}

impl OpenLoopSample {
    /// Latency counted from the due time: a generator stalled behind a
    /// slow reply charges the stall to every operation it delayed.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator started the operation (never negative).
    pub fn lag(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Whether a rung's backlog grew: the median generator lag of the
/// second half of the rung (by due time) exceeds the first half's by
/// more than 5 ms. Below capacity lags stay near zero in both halves;
/// above it they climb for the whole rung. Only the tests call it until
/// an open-loop workload with a rate ladder is gated.
#[allow(dead_code)]
pub fn backlog_grows(samples: &[OpenLoopSample]) -> bool {
    const BACKLOG_TOLERANCE_S: f64 = 0.005;
    if samples.len() < 2 {
        return false;
    }
    let mut by_due = samples.to_vec();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let half = by_due.len() / 2;
    let lags =
        |s: &[OpenLoopSample]| median(&s.iter().map(OpenLoopSample::lag).collect::<Vec<_>>());
    match (lags(&by_due[..half]), lags(&by_due[half..])) {
        (Some(first), Some(second)) => second - first > BACKLOG_TOLERANCE_S,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::cast_precision_loss)]
    fn tail_percentiles_need_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 0.9), Some(90.0));
        assert_eq!(tail(&hundred[..99], 0.9), None);
        assert_eq!(tail(&hundred, 0.99), None);
        let thousand: Vec<f64> = (1..=1000).map(|v| v as f64).collect();
        assert_eq!(tail(&thousand, 0.99), Some(990.0));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geometric_mean() {
        let g = geomean(&[1.0, 100.0]).expect("positive");
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn due_time_latency_charges_generator_lag() {
        let s = OpenLoopSample {
            due: 1.0,
            sent: 1.25,
            done: 1.5,
        };
        assert!((s.latency() - 0.5).abs() < 1e-12);
        assert!((s.lag() - 0.25).abs() < 1e-12);
        let early = OpenLoopSample {
            due: 2.0,
            sent: 1.999,
            done: 2.01,
        };
        assert_eq!(early.lag(), 0.0);
    }

    #[test]
    #[allow(clippy::cast_precision_loss)]
    fn backlog_growth_is_detected_only_when_lag_climbs() {
        // under capacity: lags jitter around a millisecond
        let steady: Vec<OpenLoopSample> = (0..200)
            .map(|i| {
                let due = i as f64 * 0.01;
                let sent = due + 0.001 * f64::from(i % 3);
                OpenLoopSample {
                    due,
                    sent,
                    done: sent + 0.002,
                }
            })
            .collect();
        assert!(!backlog_grows(&steady));
        // over capacity: each operation starts 1 ms later than the last
        let growing: Vec<OpenLoopSample> = (0..200)
            .map(|i| {
                let due = i as f64 * 0.01;
                let sent = due + 0.001 * i as f64;
                OpenLoopSample {
                    due,
                    sent,
                    done: sent + 0.002,
                }
            })
            .collect();
        assert!(backlog_grows(&growing));
        assert!(!backlog_grows(&[]));
    }
}

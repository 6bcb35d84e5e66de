//! The benchmark's own statistics: the percentile rule, open-loop due-time
//! accounting, backlog-growth detection, the ladder search and the quartile
//! spread used to compare runs.  Pure functions over recorded numbers, unit-tested below.

/// The fewest samples that must lie strictly beyond a reported tail
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// A timing distribution condensed by the percentile rule: the median and
/// the highest percentile at or below the requested tail that still has at
/// least [`MIN_BEYOND`] samples beyond it, together with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The percentile actually reported, as a fraction (0.99 when the
    /// sample supports it).
    pub q: f64,
    /// The value at `q`.
    pub value: f64,
    /// Whether `q` equals the requested tail.
    pub full: bool,
}

/// Nearest-rank value at fraction `q` of an ascending slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Applies the percentile rule to `samples` for the requested tail `target`
/// (e.g. 0.99).  The reported rank `r` (1-based, nearest rank) satisfies
/// `n - r >= MIN_BEYOND`; when `target` asks for more, the rank is lowered
/// to `n - MIN_BEYOND` and `q = r / n`, but never below the median's rank
/// (a sample too small for any tail reports its median, `full == false`).
/// Returns `None` for an empty sample.
pub fn tail(samples: &[f64], target: f64) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let wanted = ((target * n as f64).ceil() as usize).clamp(1, n);
    let median_rank = ((0.5 * n as f64).ceil() as usize).clamp(1, n);
    let allowed = n.saturating_sub(MIN_BEYOND).max(median_rank);
    let rank = wanted.min(allowed);
    let full = rank == wanted && n - rank >= MIN_BEYOND;
    Some(Tail {
        n,
        p50: nearest_rank(&sorted, 0.5),
        q: if rank == wanted {
            target
        } else {
            rank as f64 / n as f64
        },
        value: sorted[rank - 1],
        full,
    })
}

/// Median of a sample (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(nearest_rank(&sorted, 0.5))
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default `"exclusive"` method).  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, data.len() - 1);
        // Clamping `j` can make `delta` negative (extrapolation), as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// The run-to-run spread: the distance between the first and third
/// quartile as a share of the median (`statistics.median`).  `None` with
/// fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let med = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Finds the highest passing rung of an ascending ladder of `n` rungs
/// without running every rung: it climbs every `stride`-th rung from the
/// bottom until one fails, then climbs the rungs between the last coarse
/// pass and that failure one by one until one fails.  `pass(i)` runs rung
/// `i` and returns its verdict.  Returns the highest passing rung run, or
/// `None` when the bottom rung fails.  On a ladder whose verdicts pass up
/// to some rung and fail above it, the result is that rung.
pub fn ladder_search<E>(
    n: usize,
    stride: usize,
    mut pass: impl FnMut(usize) -> Result<bool, E>,
) -> Result<Option<usize>, E> {
    let stride = stride.max(1);
    let mut best = None;
    let mut failed_at = n;
    let mut i = 0;
    while i < n {
        if !pass(i)? {
            failed_at = i;
            break;
        }
        best = Some(i);
        i += stride;
    }
    let from = best.map_or(0, |b| b + 1);
    for j in from..failed_at.min(n) {
        if !pass(j)? {
            break;
        }
        best = Some(j);
    }
    Ok(best)
}

/// One open-loop request, in seconds since the phase started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// When the schedule wanted the request sent.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When its terminal response arrived (`None`: never).
    pub done: Option<f64>,
}

impl Timed {
    /// Latency counted from the due time, so a stall that delays later
    /// sends is charged to every request it delayed.
    pub fn due_latency(&self) -> Option<f64> {
        self.done.map(|d| d - self.due)
    }

    /// How late the generator sent the request.
    pub fn lag(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// The generator's own lateness over an open-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lateness {
    /// Mean send lag, seconds.
    pub mean: f64,
    /// Largest send lag, seconds.
    pub max: f64,
    /// Share of requests sent more than `tolerance` after their due time.
    pub late_frac: f64,
    /// Whether the phase should be flagged: more than 5% of sends were late.
    pub behind: bool,
}

/// Summarises generator lag with a per-request `tolerance` (seconds).
pub fn lateness(requests: &[Timed], tolerance: f64) -> Lateness {
    let lags: Vec<f64> = requests.iter().map(Timed::lag).collect();
    let late = lags.iter().filter(|&&l| l > tolerance).count();
    let late_frac = if lags.is_empty() {
        0.0
    } else {
        late as f64 / lags.len() as f64
    };
    Lateness {
        mean: mean(&lags),
        max: lags.iter().copied().fold(0.0, f64::max),
        late_frac,
        behind: late_frac > 0.05,
    }
}

/// Backlog — requests due but not yet answered — at time `t`.
pub fn backlog_at(requests: &[Timed], t: f64) -> usize {
    let due = requests.iter().filter(|r| r.due <= t).count();
    let done = requests
        .iter()
        .filter(|r| r.done.is_some_and(|d| d <= t))
        .count();
    due.saturating_sub(done)
}

/// Whether the backlog grew over an open-loop phase of length `duration`:
/// the least-squares slope of the backlog, sampled at 20 evenly spaced
/// instants over the second half of the phase, extrapolated over the whole
/// phase, exceeds `max(5, 10%)` of the requests offered.  A stable queue
/// fluctuates around a level; an overloaded one climbs linearly.
pub fn backlog_grows(requests: &[Timed], duration: f64) -> bool {
    const POINTS: usize = 20;
    let xs: Vec<f64> = (0..POINTS)
        .map(|i| duration * (0.5 + 0.5 * (i + 1) as f64 / POINTS as f64))
        .collect();
    let ys: Vec<f64> = xs.iter().map(|&t| backlog_at(requests, t) as f64).collect();
    let (mx, my) = (mean(&xs), mean(&ys));
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    let threshold = (0.1 * requests.len() as f64).max(5.0);
    slope * duration > threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_reports_the_requested_percentile_when_ten_samples_lie_beyond() {
        // 1000 samples: rank 990 leaves exactly 10 beyond it.
        let t = tail(&ramp(1000), 0.99).unwrap();
        assert_eq!(t.n, 1000);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.q, 0.99);
        assert!(t.full);
        assert_eq!(t.p50, 500.0);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        // 200 samples cannot support p99 (rank 198 leaves 2 beyond);
        // rank 190 (p95) is the highest with ten beyond.
        let t = tail(&ramp(200), 0.99).unwrap();
        assert_eq!(t.n, 200);
        assert_eq!(t.value, 190.0);
        assert!((t.q - 0.95).abs() < 1e-12);
        assert!(!t.full);
        // p90 of 200 is supported as asked.
        let t = tail(&ramp(200), 0.90).unwrap();
        assert_eq!(t.value, 180.0);
        assert!(t.full);
        // Ten beyond, counted from unsorted input too.
        let mut shuffled = ramp(50);
        shuffled.reverse();
        let t = tail(&shuffled, 0.99).unwrap();
        assert_eq!(t.value, 40.0);
        assert_eq!(t.n, 50);
    }

    #[test]
    fn tail_of_tiny_and_empty_samples() {
        assert!(tail(&[], 0.99).is_none());
        // Too small for any tail: the median is reported.
        let t = tail(&ramp(5), 0.99).unwrap();
        assert!(!t.full);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.p50, 3.0);
        assert_eq!(t.q, 0.6);
        // 16 samples: rank 6 would leave ten beyond but sits below the
        // median, so the median (rank 8) is reported.
        let t = tail(&ramp(16), 0.99).unwrap();
        assert_eq!(t.value, 8.0);
        assert!(!t.full);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Requests due every 10 ms; the generator stalled 50 ms before the
        // third send, so it went out late and so did the fourth.
        let reqs = [
            Timed {
                due: 0.00,
                sent: 0.000,
                done: Some(0.005),
            },
            Timed {
                due: 0.01,
                sent: 0.010,
                done: Some(0.015),
            },
            Timed {
                due: 0.02,
                sent: 0.070,
                done: Some(0.075),
            },
            Timed {
                due: 0.03,
                sent: 0.071,
                done: Some(0.076),
            },
        ];
        let lat: Vec<f64> = reqs.iter().map(|r| r.due_latency().unwrap()).collect();
        assert!((lat[0] - 0.005).abs() < 1e-12);
        // The stall is charged to the delayed requests, not hidden.
        assert!((lat[2] - 0.055).abs() < 1e-12);
        assert!((lat[3] - 0.046).abs() < 1e-12);
        let late = lateness(&reqs, 0.002);
        assert!((late.max - 0.05).abs() < 1e-12);
        assert!((late.late_frac - 0.5).abs() < 1e-12);
        assert!(late.behind);
        let on_time = lateness(&reqs[..2], 0.002);
        assert!(!on_time.behind);
        assert_eq!(on_time.max, 0.0);
    }

    fn queue(rate: f64, service: f64, duration: f64) -> Vec<Timed> {
        // A single FIFO server: arrivals every 1/rate, fixed service time.
        let mut free_at: f64 = 0.0;
        (0..)
            .map(|i| i as f64 / rate)
            .take_while(|&due| due < duration)
            .map(|due| {
                let start = free_at.max(due);
                free_at = start + service;
                Timed {
                    due,
                    sent: due,
                    done: Some(free_at),
                }
            })
            .collect()
    }

    #[test]
    fn backlog_growth_is_detected_only_under_overload() {
        // 100/s offered to a 200/s server: the queue stays empty.
        assert!(!backlog_grows(&queue(100.0, 0.005, 4.0), 4.0));
        // 100/s offered to an 80/s server: backlog climbs ~20/s.
        assert!(backlog_grows(&queue(100.0, 1.0 / 80.0, 4.0), 4.0));
        // 100/s offered to a 95/s server: a slow drift below the threshold.
        assert!(!backlog_grows(&queue(100.0, 1.0 / 95.0, 4.0), 4.0));
        // 100/s offered to a 50/s server: clearly growing.
        let over = queue(100.0, 0.02, 4.0);
        assert!(backlog_grows(&over, 4.0));
        assert!(backlog_at(&over, 4.0) > 150);
        // Requests that never complete are backlog too.
        let mut lost = queue(100.0, 0.005, 4.0);
        for r in lost.iter_mut().skip(200) {
            r.done = None;
        }
        assert!(backlog_grows(&lost, 4.0));
    }

    #[test]
    fn ladder_search_finds_the_highest_passing_rung() {
        // Verdicts pass up to rung `top` and fail above it.
        for top in 0..25 {
            let mut ran = Vec::new();
            let found = ladder_search::<()>(25, 4, |i| {
                ran.push(i);
                Ok(i <= top)
            })
            .unwrap();
            assert_eq!(found, Some(top), "top {top}");
            // Each rung at most once, and far fewer than all.
            let mut distinct = ran.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), ran.len(), "{ran:?}");
            assert!(ran.len() <= 25 / 4 + 5, "{ran:?}");
        }
        // Every rung passes: the top rung is found.
        assert_eq!(ladder_search::<()>(25, 4, |_| Ok(true)).unwrap(), Some(24));
        // The bottom rung fails: nothing passes, and nothing more is run.
        let mut ran = 0;
        let found = ladder_search::<()>(25, 4, |_| {
            ran += 1;
            Ok(false)
        });
        assert_eq!((found.unwrap(), ran), (None, 1));
        // A noisy failure on a fine rung ends the climb there.
        let found = ladder_search::<()>(25, 4, |i| Ok(i != 13 && i <= 14)).unwrap();
        assert_eq!(found, Some(12));
        // Errors pass through.
        assert_eq!(
            ladder_search(25, 4, |i| if i == 8 { Err(8) } else { Ok(true) }),
            Err(8)
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]).unwrap(), [0.75, 1.5, 2.25]);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn quartile_spread_is_iqr_over_median() {
        // IQR 5.5 over median 5.5.
        assert!((quartile_spread(&ramp(10)).unwrap() - 1.0).abs() < 1e-12);
        let steady = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0, 10.01];
        assert!(quartile_spread(&steady).unwrap() < 0.01);
        assert!(quartile_spread(&[0.0, 0.0, 0.0]).is_none());
    }
}

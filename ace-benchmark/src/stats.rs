//! Order statistics, the percentile-reporting rule and peak-RSS parsing.
//! (Timer calibration lives with the sampler it calibrates, in
//! [`crate::layers::calibrate`].)

/// Median of `values` (mean of the middle pair for an even count), or
/// `None` when empty. NaNs sort last.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads reported here match a reader's own recomputation. A single
/// value is its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some((data[0], data[0])),
        _ => {
            let n = 4usize;
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
            };
            Some((q(1), q(3)))
        }
    }
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    Some(if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    })
}

/// A tail percentile reported under the rule "the highest percentile
/// with at least ten samples beyond it", together with the sample count
/// it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Which percentile (e.g. 90.0).
    pub p: f64,
    /// Its value, linearly interpolated between order statistics.
    pub value: f64,
    /// Samples it was computed from.
    pub n: usize,
}

/// Candidate percentiles, highest first.
const PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`PERCENTILES`] that leaves at least ten of
/// `n` samples beyond it, or `None` when even the median would not.
pub fn reportable_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The `p`-th percentile of `values` (linear interpolation between order
/// statistics at rank `p/100 * (n-1)`), or `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The tail percentile `values` support under the ten-beyond rule.
pub fn tail(values: &[f64]) -> Option<Percentile> {
    let p = reportable_percentile(values.len())?;
    Some(Percentile {
        p,
        value: percentile(values, p)?,
        n: values.len(),
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `VmHWM` (peak resident set) field of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

/// This process's peak resident set in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kb(&status)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = relative_iqr(&v).unwrap();
        assert!((r - 5.5 / 5.5).abs() < 1e-12, "{r}");
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(reportable_percentile(9), None);
        assert_eq!(reportable_percentile(20), Some(50.0));
        assert_eq!(reportable_percentile(39), Some(50.0));
        assert_eq!(reportable_percentile(40), Some(75.0));
        assert_eq!(reportable_percentile(100), Some(90.0));
        assert_eq!(reportable_percentile(128), Some(90.0));
        assert_eq!(reportable_percentile(200), Some(95.0));
        assert_eq!(reportable_percentile(1000), Some(99.0));
        assert_eq!(reportable_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_reports_value_and_sample_count() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.p, 90.0);
        assert_eq!(t.n, 101);
        assert!((t.value - 90.0).abs() < 1e-9, "{t:?}");
        assert_eq!(percentile(&[1.0, 3.0], 50.0), Some(2.0));
        assert!(tail(&v[..5]).is_none());
    }

    #[test]
    fn vm_hwm_parses_from_proc_status() {
        let status = "Name:\tace\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        let own = peak_rss_mb().expect("/proc/self/status has VmHWM on Linux");
        assert!(own > 0.0);
    }
}

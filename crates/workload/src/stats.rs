//! Allocated-core time series and utilization statistics (Figs. 1(b), 6).

use crate::job::Job;

/// A core-allocation time series at fixed slot resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationSeries {
    slot_secs: f64,
    values: Vec<f64>,
}

impl AllocationSeries {
    /// Builds the series by sweeping job start/end events.
    ///
    /// Slot `i` covers `[i·slot, (i+1)·slot)`; a job contributes its cores
    /// to every slot its execution overlaps.
    ///
    /// # Panics
    ///
    /// Panics if `slot_secs` is not positive.
    #[must_use]
    pub fn from_jobs(jobs: &[Job], slot_secs: f64, span_secs: f64) -> Self {
        assert!(
            slot_secs.is_finite() && slot_secs > 0.0,
            "slot_secs must be positive"
        );
        let n = (span_secs / slot_secs).ceil() as usize;
        // Difference array over slots: +cores at start slot, −cores after end.
        let mut diff = vec![0.0f64; n + 1];
        for j in jobs {
            let s = ((j.start_secs / slot_secs).floor() as usize).min(n);
            let e = ((j.end_secs() / slot_secs).ceil() as usize).clamp(s + 1, n.max(s + 1));
            let e = e.min(n);
            if s < n {
                if let Some(d) = diff.get_mut(s) {
                    *d += f64::from(j.cores);
                }
                if let Some(d) = diff.get_mut(e) {
                    *d -= f64::from(j.cores);
                }
            }
        }
        let mut values = Vec::with_capacity(n);
        let mut acc = 0.0;
        for d in diff.iter().take(n) {
            acc += d;
            values.push(acc);
        }
        Self { slot_secs, values }
    }

    /// Slot resolution in seconds.
    #[must_use]
    pub fn slot_secs(&self) -> f64 {
        self.slot_secs
    }

    /// Allocated cores per slot.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Peak allocation across the series.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Mean allocation across the series.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// Empirical CDF of utilization: for each of `bins` evenly spaced
/// utilization levels `u ∈ (0, 1]`, the fraction of time the utilization is
/// at or below `u` (Fig. 1(b)).
///
/// `capacity` is the normalization base — typically the cluster's installed
/// cores (Fig. 1(b)) or the trace's own peak (for overload analysis).
///
/// Returns `(utilization_level, fraction_of_time_at_or_below)` pairs.
#[must_use]
pub fn utilization_cdf(series: &AllocationSeries, capacity: f64, bins: usize) -> Vec<(f64, f64)> {
    let bins = bins.max(1);
    let n = series.values().len().max(1) as f64;
    let mut sorted: Vec<f64> = series
        .values()
        .iter()
        .map(|v| v / capacity.max(1e-12))
        .collect();
    sorted.sort_by(f64::total_cmp);
    (1..=bins)
        .map(|i| {
            let u = i as f64 / bins as f64;
            let below = sorted.partition_point(|&x| x <= u);
            (u, below as f64 / n)
        })
        .collect()
}

/// Fraction of time the utilization exceeds `threshold` (of `capacity`) —
/// the overload-probability metric of Table I.
#[must_use]
pub fn exceedance(series: &AllocationSeries, capacity: f64, threshold: f64) -> f64 {
    if series.values().is_empty() {
        return 0.0;
    }
    let above = series
        .values()
        .iter()
        .filter(|&&v| v / capacity.max(1e-12) > threshold)
        .count();
    above as f64 / series.values().len() as f64
}

/// Summary statistics of a trace's job mix — widths, runtimes and arrival
/// cadence — used to sanity-check generated traces against the archive
/// logs' published characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMix {
    /// Number of jobs.
    pub jobs: usize,
    /// Mean job width, cores.
    pub mean_cores: f64,
    /// Median job width, cores.
    pub median_cores: f64,
    /// Largest job width, cores.
    pub max_cores: u32,
    /// Mean runtime, hours.
    pub mean_runtime_hours: f64,
    /// Median runtime, hours.
    pub median_runtime_hours: f64,
    /// Mean core-hours per job.
    pub mean_core_hours: f64,
    /// Mean arrivals per day over the span.
    pub arrivals_per_day: f64,
}

impl JobMix {
    /// Computes the mix over a set of jobs spanning `span_secs`.
    #[must_use]
    pub fn of(jobs: &[Job], span_secs: f64) -> JobMix {
        if jobs.is_empty() {
            return JobMix {
                jobs: 0,
                mean_cores: 0.0,
                median_cores: 0.0,
                max_cores: 0,
                mean_runtime_hours: 0.0,
                median_runtime_hours: 0.0,
                mean_core_hours: 0.0,
                arrivals_per_day: 0.0,
            };
        }
        let n = jobs.len() as f64;
        let mut cores: Vec<f64> = jobs.iter().map(|j| f64::from(j.cores)).collect();
        let mut runtimes: Vec<f64> = jobs.iter().map(|j| j.runtime_secs / 3600.0).collect();
        cores.sort_by(f64::total_cmp);
        runtimes.sort_by(f64::total_cmp);
        let median = |sorted: &[f64]| sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
        JobMix {
            jobs: jobs.len(),
            mean_cores: cores.iter().sum::<f64>() / n,
            median_cores: median(&cores),
            max_cores: jobs.iter().map(|j| j.cores).max().unwrap_or(0),
            mean_runtime_hours: runtimes.iter().sum::<f64>() / n,
            median_runtime_hours: median(&runtimes),
            mean_core_hours: jobs.iter().map(Job::core_hours).sum::<f64>() / n,
            arrivals_per_day: n / (span_secs / 86_400.0).max(1e-9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> AllocationSeries {
        let jobs = vec![
            Job::new(1, 0.0, 120.0, 10),
            Job::new(2, 60.0, 60.0, 20),
            Job::new(3, 180.0, 60.0, 40),
        ];
        AllocationSeries::from_jobs(&jobs, 60.0, 240.0)
    }

    #[test]
    fn sweep_counts_overlaps() {
        let s = series();
        assert_eq!(s.values(), &[10.0, 30.0, 0.0, 40.0]);
        assert_eq!(s.peak(), 40.0);
        assert!((s.mean() - 20.0).abs() < 1e-12);
        assert_eq!(s.slot_secs(), 60.0);
    }

    #[test]
    fn partial_slot_overlap_counts_whole_slot() {
        // Job covering [30, 90) touches slots 0 and 1.
        let jobs = vec![Job::new(1, 30.0, 60.0, 5)];
        let s = AllocationSeries::from_jobs(&jobs, 60.0, 120.0);
        assert_eq!(s.values(), &[5.0, 5.0]);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let s = series();
        let cdf = utilization_cdf(&s, 40.0, 4);
        assert_eq!(cdf.len(), 4);
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        // At u = 0.25 (10 cores of 40): slots with alloc <= 10 are 2 of 4.
        let at_quarter = cdf.iter().find(|(u, _)| (*u - 0.25).abs() < 1e-9).unwrap();
        assert!((at_quarter.1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exceedance_matches_manual_count() {
        let s = series();
        // Above 50 % of 40 cores (20): slots with alloc > 20 → {30, 40} = 2/4.
        assert!((exceedance(&s, 40.0, 0.5) - 0.5).abs() < 1e-12);
        assert_eq!(exceedance(&s, 40.0, 1.0), 0.0);
    }

    #[test]
    fn empty_series_is_safe() {
        let s = AllocationSeries::from_jobs(&[], 60.0, 0.0);
        assert_eq!(s.peak(), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(exceedance(&s, 10.0, 0.5), 0.0);
    }

    #[test]
    fn job_mix_summary() {
        let jobs = vec![
            Job::new(1, 0.0, 3600.0, 4),
            Job::new(2, 100.0, 7200.0, 8),
            Job::new(3, 200.0, 1800.0, 64),
        ];
        let mix = JobMix::of(&jobs, 86_400.0);
        assert_eq!(mix.jobs, 3);
        assert!((mix.mean_cores - (4.0 + 8.0 + 64.0) / 3.0).abs() < 1e-9);
        assert_eq!(mix.median_cores, 8.0);
        assert_eq!(mix.max_cores, 64);
        assert!((mix.mean_runtime_hours - (1.0 + 2.0 + 0.5) / 3.0).abs() < 1e-9);
        assert_eq!(mix.median_runtime_hours, 1.0);
        assert!((mix.mean_core_hours - (4.0 + 16.0 + 32.0) / 3.0).abs() < 1e-9);
        assert!((mix.arrivals_per_day - 3.0).abs() < 1e-9);
    }

    #[test]
    fn job_mix_of_empty_is_zero() {
        let mix = JobMix::of(&[], 86_400.0);
        assert_eq!(mix.jobs, 0);
        assert_eq!(mix.mean_cores, 0.0);
        assert_eq!(mix.arrivals_per_day, 0.0);
    }

    #[test]
    fn job_past_span_is_clipped() {
        let jobs = vec![Job::new(1, 100.0, 1000.0, 3)];
        let s = AllocationSeries::from_jobs(&jobs, 60.0, 120.0);
        assert_eq!(s.values().len(), 2);
        assert_eq!(s.values()[1], 3.0);
    }
}

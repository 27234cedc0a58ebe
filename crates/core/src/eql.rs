//! The EQL benchmark: performance-oblivious uniform slowdown.
//!
//! EQL "equally slows down all cores in the system to reduce power"
//! (Section IV-A). It ignores every job's sensitivity — the same per-core
//! reduction fraction is applied to a memory-bound job as to a compute-bound
//! one — which is exactly why it suffers the highest performance cost in the
//! paper's comparison (Fig. 9) and can even push sensitive applications past
//! their feasible operating range (Fig. 15, EQL at 20 % oversubscription).

use crate::error::MarketError;
use crate::participant::JobId;
use crate::units::Watts;

/// One job as seen by EQL: just its size. No cost model, no bids — EQL is
/// deliberately oblivious.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EqlJob {
    /// The job id.
    pub id: JobId,
    /// Number of cores the job runs on.
    pub cores: f64,
    /// The job's actual maximum feasible reduction `Δ_m` (cores). EQL does
    /// *not* respect this when choosing the uniform fraction; it is recorded
    /// so the outcome can report which jobs were pushed past their limit.
    pub delta_max: f64,
    /// Power reduction per core of reduction, in watts.
    pub watts_per_unit: f64,
}

/// Result of an EQL uniform reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct EqlOutcome {
    /// The uniform per-core reduction fraction `f ∈ [0, 1]` applied to
    /// every job.
    pub fraction: f64,
    /// Per-job reductions `(job id, f · cores)` in input order.
    pub reductions: Vec<(JobId, f64)>,
    /// Jobs whose assigned reduction exceeds their feasible `Δ_m` — these
    /// are operating outside their profiled range (runaway cost).
    pub violations: Vec<JobId>,
    /// Total power reduction in watts.
    pub total_power: f64,
}

impl EqlOutcome {
    /// `true` when no job was pushed past its feasible reduction.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Computes the EQL reduction for a power target.
///
/// The uniform fraction is `f = target / (Σ cores · watts_per_unit)`,
/// capped at 1 (cores cannot run backwards). The "bookkeeping" of logging
/// every job's new allocation is what dominates EQL's solution time at
/// scale (Fig. 10(a)).
///
/// ```
/// use mpr_core::eql::{reduce, EqlJob};
/// use mpr_core::Watts;
///
/// # fn main() -> Result<(), mpr_core::MarketError> {
/// let jobs = [
///     EqlJob { id: 0, cores: 10.0, delta_max: 7.0, watts_per_unit: 125.0 },
///     EqlJob { id: 1, cores: 30.0, delta_max: 21.0, watts_per_unit: 125.0 },
/// ];
/// let out = reduce(&jobs, Watts::new(1000.0))?;
/// assert!((out.fraction - 0.2).abs() < 1e-12); // everyone slows by 20 %
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`MarketError::NoParticipants`] for an empty job list with positive
///   target.
/// * [`MarketError::Infeasible`] when even `f = 1` (all cores stopped)
///   cannot reach the target.
pub fn reduce(jobs: &[EqlJob], target: Watts) -> Result<EqlOutcome, MarketError> {
    let target_watts = target.get();
    if target_watts <= 0.0 {
        return Ok(EqlOutcome {
            fraction: 0.0,
            reductions: jobs.iter().map(|j| (j.id, 0.0)).collect(),
            violations: Vec::new(),
            total_power: 0.0,
        });
    }
    if jobs.is_empty() {
        return Err(MarketError::NoParticipants);
    }
    let capacity: f64 = jobs.iter().map(|j| j.cores * j.watts_per_unit).sum();
    if capacity < target_watts * (1.0 - 1e-9) {
        return Err(MarketError::Infeasible {
            target_watts,
            attainable_watts: capacity,
        });
    }
    let fraction = (target_watts / capacity).min(1.0);
    let mut violations = Vec::new();
    let reductions: Vec<(JobId, f64)> = jobs
        .iter()
        .map(|j| {
            let delta = fraction * j.cores;
            if delta > j.delta_max + 1e-12 {
                violations.push(j.id);
            }
            (j.id, delta)
        })
        .collect();
    let total_power = reductions
        .iter()
        .zip(jobs)
        .map(|((_, d), j)| d * j.watts_per_unit)
        .sum();
    Ok(EqlOutcome {
        fraction,
        reductions,
        violations,
        total_power,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn job(id: u64, cores: f64, delta_max: f64) -> EqlJob {
        EqlJob {
            id,
            cores,
            delta_max,
            watts_per_unit: 125.0,
        }
    }

    #[test]
    fn uniform_fraction_reaches_target() {
        let jobs = vec![job(0, 10.0, 7.0), job(1, 30.0, 21.0)];
        let out = reduce(&jobs, Watts::new(1000.0)).unwrap();
        // f = 1000 / (40 * 125) = 0.2
        assert!((out.fraction - 0.2).abs() < 1e-12);
        assert!((out.reductions[0].1 - 2.0).abs() < 1e-12);
        assert!((out.reductions[1].1 - 6.0).abs() < 1e-12);
        assert!((out.total_power - 1000.0).abs() < 1e-9);
        assert!(out.is_feasible());
    }

    #[test]
    fn violations_reported_for_sensitive_jobs() {
        // Job 1 tolerates only 10 % reduction; a 40 % uniform cut violates it.
        let jobs = vec![job(0, 10.0, 9.0), job(1, 10.0, 1.0)];
        let out = reduce(&jobs, Watts::new(1000.0)).unwrap();
        assert!((out.fraction - 0.4).abs() < 1e-12);
        assert_eq!(out.violations, vec![1]);
        assert!(!out.is_feasible());
    }

    #[test]
    fn zero_target_no_reduction() {
        let jobs = vec![job(0, 4.0, 2.0)];
        let out = reduce(&jobs, Watts::ZERO).unwrap();
        assert_eq!(out.fraction, 0.0);
        assert!(out.is_feasible());
    }

    #[test]
    fn empty_and_overlarge_targets_err() {
        assert_eq!(
            reduce(&[], Watts::new(10.0)),
            Err(MarketError::NoParticipants)
        );
        let jobs = vec![job(0, 1.0, 0.7)];
        assert!(matches!(
            reduce(&jobs, Watts::new(1e6)),
            Err(MarketError::Infeasible { .. })
        ));
    }

    proptest! {
        /// The fraction is within [0, 1], identical for all jobs, and the
        /// power target is met exactly.
        #[test]
        fn fraction_uniform_and_exact(
            sizes in proptest::collection::vec(1.0f64..64.0, 1..20),
            frac in 0.05f64..0.95,
        ) {
            let jobs: Vec<EqlJob> = sizes
                .iter()
                .enumerate()
                .map(|(i, &c)| job(i as u64, c, 0.7 * c))
                .collect();
            let capacity: f64 = jobs.iter().map(|j| j.cores * 125.0).sum();
            let target = frac * capacity;
            let out = reduce(&jobs, Watts::new(target)).unwrap();
            prop_assert!(out.fraction >= 0.0 && out.fraction <= 1.0);
            for ((_, d), j) in out.reductions.iter().zip(&jobs) {
                prop_assert!((d / j.cores - out.fraction).abs() < 1e-9);
            }
            prop_assert!((out.total_power - target).abs() < 1e-6 * target.max(1.0));
        }
    }
}

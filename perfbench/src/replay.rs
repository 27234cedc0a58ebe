//! The `mpr-core` layer, replayed from outside the engine.
//!
//! For every response slot of a Gaia run the replay rebuilds a market
//! instance from the trace jobs running at that moment, with the run's
//! profile assignment and cost models, and clears it for the slot's
//! reduction target through the engine's own mechanism factory. Replayed
//! instances match the engine's in shape but not row for row: stretching,
//! deferral and participation differ.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mpr_apps::{AppProfile, NoisyCost};
use mpr_core::bidding::StaticStrategy;
use mpr_core::{CostModel, MarketInstance, ParticipantSpec, ScaledCost, Watts};
use mpr_sim::{Algorithm, EmergencyEventKind, SimConfig, SimReport};
use mpr_workload::Trace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Forwards every [`CostModel`] method to the wrapped model and counts
/// the calls that evaluate the cost curve.
pub struct CountingCost {
    inner: Arc<dyn CostModel>,
    evals: Arc<AtomicU64>,
}

impl CountingCost {
    fn tick(&self) {
        // A statistic: publishes no other data.
        self.evals.fetch_add(1, Ordering::Relaxed);
    }
}

impl CostModel for CountingCost {
    fn cost(&self, delta: f64) -> f64 {
        self.tick();
        self.inner.cost(delta)
    }
    fn delta_max(&self) -> f64 {
        self.inner.delta_max()
    }
    fn unit_cost(&self, delta: f64) -> f64 {
        self.tick();
        self.inner.unit_cost(delta)
    }
    fn marginal(&self, delta: f64) -> f64 {
        self.tick();
        self.inner.marginal(delta)
    }
}

/// One replayed clear.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedClear {
    /// Instance rows.
    pub rows: usize,
    /// Wall time of building the instance, µs.
    pub build_us: f64,
    /// Wall time of `Mechanism::clear`, ms.
    pub clear_ms: f64,
    /// The clearing met its target (an error counts as not met).
    pub met: bool,
    /// Bit patterns of the per-row reductions, for identity checks.
    pub reduction_bits: Vec<u64>,
}

/// A whole replay of one run's responses.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// One entry per response, in run order.
    pub clears: Vec<ReplayedClear>,
    /// Cost-curve evaluations, when counted.
    pub cost_evals: u64,
}

impl Replay {
    /// `true` when both replays cleared every instance to the same bits.
    #[must_use]
    pub fn same_clearings(&self, other: &Replay) -> bool {
        self.clears.len() == other.clears.len()
            && self
                .clears
                .iter()
                .zip(&other.clears)
                .all(|(a, b)| a.reduction_bits == b.reduction_bits && a.met == b.met)
    }
}

/// The profile each trace job runs, drawn exactly as the engine draws it
/// from the configuration's seed.
fn assign_profiles(trace: &Trace, cfg: &SimConfig) -> Vec<Arc<AppProfile>> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    trace
        .jobs()
        .iter()
        .map(|_| Arc::clone(&cfg.profiles[rng.gen_range(0..cfg.profiles.len())]))
        .collect()
}

/// One instance row for a job of `cores` cores running `profile`, shaped
/// as the engine shapes rows for the configured algorithm.
fn row(
    cfg: &SimConfig,
    id: u64,
    cores: f64,
    profile: &Arc<AppProfile>,
    evals: Option<&Arc<AtomicU64>>,
) -> Option<ParticipantSpec> {
    let wpu = Watts::new(profile.unit_dynamic_power_w());
    let truth = ScaledCost::new(profile.cost_model(cfg.alpha), cores);
    let count = |cost: Arc<dyn CostModel>| -> Arc<dyn CostModel> {
        match evals {
            Some(evals) => Arc::new(CountingCost {
                inner: cost,
                evals: Arc::clone(evals),
            }),
            None => cost,
        }
    };
    match cfg.algorithm {
        Algorithm::MprStat => {
            let perceived =
                ScaledCost::new(NoisyCost::new(profile.cost_model(cfg.alpha), 1.0), cores);
            let supply = StaticStrategy::Cooperative.supply_for(&perceived).ok()?;
            Some(ParticipantSpec::new(id, supply.delta_max(), wpu).with_bid(supply.bid()))
        }
        Algorithm::MprInt => {
            let perceived =
                ScaledCost::new(NoisyCost::new(profile.cost_model(cfg.alpha), 1.0), cores);
            let delta = perceived.delta_max();
            Some(ParticipantSpec::new(id, delta, wpu).with_cost(count(Arc::new(perceived))))
        }
        Algorithm::Opt | Algorithm::Vcg => {
            let delta = truth.delta_max();
            Some(ParticipantSpec::new(id, delta, wpu).with_cost(count(Arc::new(truth))))
        }
        Algorithm::Eql => Some(ParticipantSpec::new(id, truth.delta_max(), wpu).with_cores(cores)),
    }
}

/// Replays every response of `report` (a run of `trace` under `cfg`),
/// counting cost-curve evaluations when `count_evals` is set.
///
/// Each job's row is prepared once, untimed, the first time the job is
/// running at a response — as the engine prepares bids and cost models
/// when a job starts — so `build_us` times only instance assembly.
#[must_use]
pub fn replay(trace: &Trace, cfg: &SimConfig, report: &SimReport, count_evals: bool) -> Replay {
    let profiles = assign_profiles(trace, cfg);
    let evals = count_evals.then(|| Arc::new(AtomicU64::new(0)));
    let mut rows: Vec<Option<Option<ParticipantSpec>>> = vec![None; trace.len()];
    let mut out = Replay::default();
    for event in report
        .events
        .iter()
        .filter(|e| e.kind != EmergencyEventKind::Lift)
    {
        let t = event.t_secs;
        let running: Vec<usize> = trace
            .jobs()
            .iter()
            .enumerate()
            .filter(|(_, job)| job.start_secs <= t && t < job.end_secs())
            .map(|(i, _)| i)
            .collect();
        for &i in &running {
            if rows[i].is_none() {
                let cores = f64::from(trace.jobs()[i].cores);
                rows[i] = Some(row(cfg, i as u64, cores, &profiles[i], evals.as_ref()));
            }
        }
        let built = Instant::now();
        let instance: MarketInstance = running
            .iter()
            .filter_map(|&i| rows[i].clone().flatten())
            .collect();
        let build_us = built.elapsed().as_secs_f64() * 1e6;
        let mut mechanism = mpr_sim::mechanism::for_algorithm(cfg);
        let cleared = Instant::now();
        let result = mechanism.clear(&instance, Watts::new(event.target_watts));
        let clear_ms = cleared.elapsed().as_secs_f64() * 1e3;
        let (met, reduction_bits) = match &result {
            Ok(c) => (
                c.met_target(),
                c.reductions().iter().map(|r| r.to_bits()).collect(),
            ),
            Err(_) => (false, Vec::new()),
        };
        out.clears.push(ReplayedClear {
            rows: instance.len(),
            build_us,
            clear_ms,
            met,
            reduction_bits,
        });
    }
    out.cost_evals = evals.map_or(0, |e| e.load(Ordering::Relaxed));
    out
}

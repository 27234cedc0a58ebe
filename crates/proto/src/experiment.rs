//! The 30-minute prototype experiment (Fig. 17).
//!
//! Two runs — one without MPR, one with — against a 400 W power cap. The
//! emulated cluster samples power once per second; with MPR enabled, the
//! emergency controller invokes a static market whose bids derive from each
//! application's DVFS cost model, and reductions are actuated as discrete
//! CPU-frequency changes.

use mpr_core::bidding::StaticStrategy;
use mpr_core::{MarketInstance, MclrMechanism, Mechanism, ParticipantSpec, Watts};
use mpr_power::{EmergencyAction, EmergencyConfig, EmergencyController};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::app::{prototype_apps, DvfsApp, FREQ_MAX_GHZ};

/// Static (non-DVFS) power of the two servers, watts.
const STATIC_POWER_W: f64 = 20.0;

/// Configuration of a prototype run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Power cap creating the overload condition (paper: 400 W).
    pub cap_watts: f64,
    /// Experiment length in seconds (paper: 30 minutes).
    pub duration_secs: f64,
    /// Whether MPR handles the overload.
    pub with_mpr: bool,
    /// Seed for the power-measurement noise.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    /// The paper's setup: 400 W cap, 30 minutes, MPR on.
    fn default() -> Self {
        Self {
            cap_watts: 400.0,
            duration_secs: 1800.0,
            with_mpr: true,
            seed: 17,
        }
    }
}

/// One power sample of the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Seconds from experiment start.
    pub t_secs: f64,
    /// Total cluster power, watts.
    pub power_watts: f64,
}

/// Per-application outcome of a run (Fig. 17(b)).
#[derive(Debug, Clone, PartialEq)]
pub struct AppOutcome {
    /// Application name.
    pub name: String,
    /// Time-average resource reduction, cores.
    pub avg_reduction_cores: f64,
    /// Time-average CPU frequency, GHz.
    pub avg_freq_ghz: f64,
    /// Total reward earned, core-seconds × price.
    pub reward: f64,
}

/// Result of a prototype run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Power timeline (1 Hz).
    pub samples: Vec<Sample>,
    /// Per-application outcomes.
    pub apps: Vec<AppOutcome>,
    /// Number of emergencies declared.
    pub emergencies: usize,
    /// Fraction of samples above the cap.
    pub overload_fraction: f64,
}

impl ExperimentResult {
    /// Mean power over the run.
    #[must_use]
    pub fn mean_power_watts(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.power_watts).sum::<f64>() / self.samples.len() as f64
    }
}

/// The emulated prototype experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    apps: Vec<DvfsApp>,
    config: ExperimentConfig,
}

impl Experiment {
    /// Creates the experiment with the paper's four applications.
    #[must_use]
    pub fn new(config: ExperimentConfig) -> Self {
        Self {
            apps: prototype_apps(),
            config,
        }
    }

    /// Creates the experiment with custom applications.
    #[must_use]
    pub fn with_apps(apps: Vec<DvfsApp>, config: ExperimentConfig) -> Self {
        Self { apps, config }
    }

    /// Runs the experiment.
    #[must_use]
    pub fn run(&self) -> ExperimentResult {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let n = cfg.duration_secs.max(1.0) as usize;

        let mut controller = EmergencyController::new(EmergencyConfig {
            capacity: Watts::new(cfg.cap_watts),
            buffer_frac: 0.01,
            min_overload_secs: 5.0,
            cooldown_secs: 60.0,
        });

        // Per-app state: current frequency, accumulated reduction/reward.
        let mut freqs: Vec<f64> = vec![FREQ_MAX_GHZ; self.apps.len()];
        let mut reductions: Vec<f64> = vec![0.0; self.apps.len()];
        let mut price = 0.0f64;
        let mut red_sum: Vec<f64> = vec![0.0; self.apps.len()];
        let mut freq_sum: Vec<f64> = vec![0.0; self.apps.len()];
        let mut reward: Vec<f64> = vec![0.0; self.apps.len()];
        let mut emergencies = 0usize;
        let mut over = 0usize;
        let mut samples = Vec::with_capacity(n);

        // Cooperative bids are fixed for the whole run (MPR-STAT style).
        // An invalid cost model (never the prototype apps) simply keeps the
        // app out of the market rather than aborting the run.
        let supplies: Vec<Option<_>> = self
            .apps
            .iter()
            .map(|a| StaticStrategy::Cooperative.supply_for(&a.cost_model()).ok())
            .collect();

        for step in 0..n {
            let t = step as f64;
            // Measured power: static + per-app dynamic with phase noise.
            let mut power = STATIC_POWER_W;
            for (i, (app, &f)) in self.apps.iter().zip(&freqs).enumerate() {
                let wobble =
                    1.0 + 0.02 * (t / 90.0 + i as f64).sin() + 0.01 * rng.gen_range(-1.0..1.0);
                power += app.dynamic_power_w(f) * wobble;
            }
            samples.push(Sample {
                t_secs: t,
                power_watts: power,
            });
            if power > cfg.cap_watts {
                over += 1;
            }

            if cfg.with_mpr {
                match controller.step(t, Watts::new(power)) {
                    EmergencyAction::Declare { .. } | EmergencyAction::Escalate { .. } => {
                        emergencies += 1;
                        let target = controller.active_target();
                        let instance: MarketInstance = self
                            .apps
                            .iter()
                            .zip(&supplies)
                            .enumerate()
                            .filter_map(|(i, (a, s))| {
                                s.map(|s| {
                                    ParticipantSpec::new(
                                        i as u64,
                                        s.delta_max(),
                                        Watts::new(a.watts_per_unit()),
                                    )
                                    .with_bid(s.bid())
                                })
                            })
                            .collect();
                        // An instance without bidders clears nothing.
                        let clearing = MclrMechanism::best_effort().clear(&instance, target).ok();
                        price = clearing.as_ref().map_or(0.0, |c| c.price().get());
                        let mut delivered = 0.0;
                        let rows = clearing
                            .iter()
                            .flat_map(|c| c.ids().iter().zip(c.reductions()));
                        for (&id, &reduction) in rows {
                            let i = id as usize;
                            let Some(app) = self.apps.get(i) else {
                                continue;
                            };
                            let f = app.freq_for_reduction(reduction);
                            if let Some(fr) = freqs.get_mut(i) {
                                *fr = f;
                            }
                            // Actual reduction after frequency snapping.
                            if let Some(r) = reductions.get_mut(i) {
                                *r = f64::from(app.cores()) * (1.0 - app.allocation(f));
                            }
                            delivered += app.power_saving_w(f);
                        }
                        controller.record_delivered(Watts::new(delivered));
                    }
                    EmergencyAction::Lift => {
                        freqs.iter_mut().for_each(|f| *f = FREQ_MAX_GHZ);
                        reductions.iter_mut().for_each(|r| *r = 0.0);
                        price = 0.0;
                    }
                    EmergencyAction::None => {}
                }
            }

            let sums = red_sum.iter_mut().zip(&mut freq_sum).zip(&mut reward);
            for (((rs, fs), rw), (&r, &f)) in sums.zip(reductions.iter().zip(&freqs)) {
                *rs += r;
                *fs += f;
                *rw += price * r / 3600.0;
            }
        }

        let totals = red_sum.iter().zip(&freq_sum).zip(&reward);
        let apps = self
            .apps
            .iter()
            .zip(totals)
            .map(|(a, ((&rs, &fs), &rw))| AppOutcome {
                name: a.name().to_owned(),
                avg_reduction_cores: rs / n as f64,
                avg_freq_ghz: fs / n as f64,
                reward: rw,
            })
            .collect();
        ExperimentResult {
            samples,
            apps,
            emergencies,
            overload_fraction: over as f64 / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(with_mpr: bool) -> ExperimentResult {
        Experiment::new(ExperimentConfig {
            with_mpr,
            ..ExperimentConfig::default()
        })
        .run()
    }

    #[test]
    fn without_mpr_the_cap_is_violated_throughout() {
        let r = run(false);
        assert_eq!(r.emergencies, 0);
        assert!(
            r.overload_fraction > 0.9,
            "uncapped run should sit above 400 W, fraction {}",
            r.overload_fraction
        );
        assert!(r.mean_power_watts() > 400.0);
        for a in &r.apps {
            assert_eq!(a.avg_reduction_cores, 0.0);
            assert!((a.avg_freq_ghz - FREQ_MAX_GHZ).abs() < 1e-9);
        }
    }

    #[test]
    fn mpr_brings_power_under_the_cap() {
        let r = run(true);
        assert!(r.emergencies >= 1);
        assert!(
            r.overload_fraction < 0.10,
            "MPR should mitigate quickly, overload fraction {}",
            r.overload_fraction
        );
        // Steady-state power sits below the cap (Fig. 17(a)).
        let tail: Vec<f64> = r
            .samples
            .iter()
            .skip(r.samples.len() / 2)
            .map(|s| s.power_watts)
            .collect();
        let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(tail_mean < 400.0, "steady-state power {tail_mean}");
    }

    #[test]
    fn mpr_reduces_power_by_tens_of_watts() {
        let without = run(false).mean_power_watts();
        let with = run(true).mean_power_watts();
        let saved = without - with;
        assert!(
            (20.0..120.0).contains(&saved),
            "expected a ~50 W reduction, got {saved:.1} W"
        );
    }

    #[test]
    fn apps_reduce_different_amounts() {
        // Fig. 17(b): reductions differ by performance impact and bids.
        let r = run(true);
        let reds: Vec<f64> = r.apps.iter().map(|a| a.avg_reduction_cores).collect();
        assert!(reds.iter().any(|&x| x > 0.0));
        let max = reds.iter().cloned().fold(0.0, f64::max);
        let min = reds.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max > min + 0.05,
            "apps should shed different amounts: {reds:?}"
        );
        // The frequency-insensitive app (HPCCG) sheds the most; the most
        // sensitive (miniMD) sheds the least.
        let by_name = |n: &str| {
            r.apps
                .iter()
                .find(|a| a.name == n)
                .unwrap()
                .avg_reduction_cores
        };
        assert!(by_name("HPCCG") > by_name("miniMD"));
    }

    #[test]
    fn participants_earn_rewards() {
        let r = run(true);
        let total: f64 = r.apps.iter().map(|a| a.reward).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(true);
        let b = run(true);
        assert_eq!(a.samples.len(), b.samples.len());
        assert_eq!(a.apps, b.apps);
    }

    #[test]
    fn custom_apps_and_duration() {
        let apps = vec![DvfsApp::new("only", 40, 50.0, 300.0, 2.0, 0.7)];
        let r = Experiment::with_apps(
            apps,
            ExperimentConfig {
                duration_secs: 120.0,
                ..ExperimentConfig::default()
            },
        )
        .run();
        assert_eq!(r.samples.len(), 120);
        assert_eq!(r.apps.len(), 1);
    }
}

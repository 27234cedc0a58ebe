//! Mechanism selection: maps the configured [`Algorithm`] onto the unified
//! [`Mechanism`] interface from `mpr_core::mechanism`.
//!
//! The engine never talks to a solver directly — every clearing goes
//! through `Mechanism::clear` over a shared
//! [`MarketInstance`], and the choice of solver
//! is made here, in one place. The simulator always uses the best-effort
//! variants: an infeasible reduction target must degrade (cap at `Δ_m`),
//! never abort the run.

use mpr_core::{
    BiddingAgent, ChainLevel, EqlCappingMechanism, EqlMechanism, FallbackChain, InteractiveConfig,
    InteractiveMechanism, MarketInstance, MclrMechanism, Mechanism, OptMechanism, OptMethod,
    ResilientConfig, ResilientInteractiveMechanism, SimNet, TransportedInteractiveMechanism,
    VcgMechanism,
};

use crate::config::{Algorithm, FaultPlan, NetPlan, SimConfig};

/// Stream separator for the virtual network's fault RNG, so channel faults
/// never share draws with agent-fault assignment within an overload event.
const NET_SEED_XOR: u64 = 0x6e65_745f_5eed_0bad;

/// The engine's interactive-market tuning for a configuration.
pub(crate) fn interactive_config(cfg: &SimConfig) -> InteractiveConfig {
    InteractiveConfig {
        max_iterations: cfg.int_max_iterations,
        ..InteractiveConfig::default()
    }
}

/// The best-effort mechanism implementing the configured algorithm.
///
/// MPR-INT under an active fault or net plan is not built here: its
/// degradation chain needs live agents, which only the engine can provide
/// per overload event (see `exchange_chain`).
#[must_use]
pub fn for_algorithm(cfg: &SimConfig) -> Box<dyn Mechanism> {
    match cfg.algorithm {
        Algorithm::Opt => Box::new(OptMechanism::best_effort(OptMethod::Auto)),
        Algorithm::Eql => Box::new(EqlMechanism),
        Algorithm::MprStat => Box::new(MclrMechanism::best_effort()),
        Algorithm::MprInt => Box::new(InteractiveMechanism::best_effort(interactive_config(cfg))),
        Algorithm::Vcg => Box::new(VcgMechanism::best_effort(OptMethod::Auto)),
    }
}

/// Whether the configuration clears MPR-INT through the degradation chain
/// of [`exchange_chain`]: an active agent-fault or net plan.
pub(crate) fn clears_through_chain(cfg: &SimConfig) -> bool {
    cfg.algorithm == Algorithm::MprInt
        && (cfg.net_plan.is_some_and(|p| p.is_active())
            || cfg.fault_plan.is_some_and(|p| p.is_active()))
}

/// The MPR-INT degradation chain of one overload event: a level-0 exchange
/// holding `agents` (each with its registered cooperative bid), then
/// MPR-STAT, then EQL capping. Level 0 runs over a lossy [`SimNet`] seeded
/// from `event_seed` when a net plan is active (it composes an agent-fault
/// plan: faulty agents behind a faulty channel), and synchronously with
/// retries otherwise. Returns the instance matching the agents with the
/// chain, or `None` when the configuration does not
/// [clear through the chain](clears_through_chain).
pub(crate) fn exchange_chain(
    cfg: &SimConfig,
    event_seed: u64,
    agents: Vec<(Box<dyn BiddingAgent>, Option<f64>)>,
) -> Option<(MarketInstance, FallbackChain<'static>)> {
    fn chain(level0: impl Mechanism + 'static) -> FallbackChain<'static> {
        FallbackChain::new()
            .stage(ChainLevel::Interactive, level0)
            .stage(ChainLevel::StaticFallback, MclrMechanism::best_effort())
            .stage(ChainLevel::EqlCapping, EqlCappingMechanism)
    }
    if !clears_through_chain(cfg) {
        return None;
    }
    let config = ResilientConfig {
        interactive: interactive_config(cfg),
        ..cfg
            .fault_plan
            .filter(FaultPlan::is_active)
            .map_or_else(ResilientConfig::default, |fp| ResilientConfig {
                max_retries: fp.max_retries,
                watchdog_window: fp.watchdog_window,
                divergence_min_change: fp.divergence_min_change,
                ..ResilientConfig::default()
            })
    };
    Some(match cfg.net_plan.filter(NetPlan::is_active) {
        Some(plan) => {
            let net = SimNet::new(plan.fault_config(), event_seed ^ NET_SEED_XOR);
            let mut level0 = TransportedInteractiveMechanism::new(
                config,
                plan.transport_config(event_seed),
                net,
            );
            for (agent, bid) in agents {
                level0.register(agent, bid);
            }
            (level0.instance(), chain(level0))
        }
        None => {
            let mut level0 = ResilientInteractiveMechanism::new(config);
            for (agent, bid) in agents {
                level0.register(agent, bid);
            }
            (level0.instance(), chain(level0))
        }
    })
}

/// Human-readable descriptor of the clearing mechanism a configuration
/// runs: the chain's stage names when it clears through
/// `exchange_chain`, the mechanism's name otherwise. Folded into the
/// checkpoint fingerprint, so a checkpointed run can never be resumed
/// under a different mechanism or chain shape.
#[must_use]
pub fn descriptor(cfg: &SimConfig) -> String {
    match exchange_chain(cfg, 0, Vec::new()) {
        Some((_, chain)) => format!("chain({})", chain.stage_names().join(",")),
        None => for_algorithm(cfg).name().to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_maps_to_a_mechanism() {
        for (alg, name) in [
            (Algorithm::Opt, "OPT"),
            (Algorithm::Eql, "EQL"),
            (Algorithm::MprStat, "MPR-STAT"),
            (Algorithm::MprInt, "MPR-INT"),
            (Algorithm::Vcg, "VCG"),
        ] {
            let cfg = SimConfig::new(alg, 15.0);
            assert_eq!(for_algorithm(&cfg).name(), name);
            assert_eq!(descriptor(&cfg), name);
        }
    }

    #[test]
    fn active_fault_plan_switches_the_descriptor_to_the_chain() {
        let plan = FaultPlan::unresponsive_and_crash(0.3, 0.1);
        let cfg = SimConfig::new(Algorithm::MprInt, 15.0).with_faults(plan);
        assert_eq!(
            descriptor(&cfg),
            "chain(MPR-INT-RESILIENT,MPR-STAT,EQL-CAP)"
        );
        // An all-zero plan is equivalent to no plan.
        let idle = SimConfig::new(Algorithm::MprInt, 15.0).with_faults(FaultPlan::default());
        assert_eq!(descriptor(&idle), "MPR-INT");
        // Fault plans only apply to MPR-INT.
        let stat = SimConfig::new(Algorithm::MprStat, 15.0).with_faults(plan);
        assert_eq!(descriptor(&stat), "MPR-STAT");
    }

    #[test]
    fn active_net_plan_switches_the_descriptor_to_the_transported_chain() {
        let net = crate::config::NetPlan::lossy(0.3);
        let cfg = SimConfig::new(Algorithm::MprInt, 15.0).with_net(net);
        assert_eq!(descriptor(&cfg), "chain(MPR-INT-NET,MPR-STAT,EQL-CAP)");
        // The network takes precedence over (and composes) an agent-fault
        // plan, so the descriptor is still the transported chain's.
        let both = SimConfig::new(Algorithm::MprInt, 15.0)
            .with_net(net)
            .with_faults(FaultPlan::unresponsive_and_crash(0.3, 0.1));
        assert_eq!(descriptor(&both), "chain(MPR-INT-NET,MPR-STAT,EQL-CAP)");
        // An idle plan is equivalent to no plan; other algorithms never
        // consult it.
        let idle =
            SimConfig::new(Algorithm::MprInt, 15.0).with_net(crate::config::NetPlan::default());
        assert_eq!(descriptor(&idle), "MPR-INT");
        let stat = SimConfig::new(Algorithm::MprStat, 15.0).with_net(net);
        assert_eq!(descriptor(&stat), "MPR-STAT");
    }
}

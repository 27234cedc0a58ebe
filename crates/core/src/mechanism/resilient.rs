//! The fault-tolerant interactive exchange as a chain-composable
//! [`Mechanism`].
//!
//! This is level 0 of the MPR-INT → MPR-STAT → EQL degradation chain: the
//! shared [tâtonnement](super::exchange) over registered agents, with a
//! per-round retry budget, quarantine and the convergence watchdog. Agent
//! faults never become errors; see [`LiveExchange`] for what a failed
//! exchange returns.

use crate::error::MarketError;
use crate::market::faults::{Quarantine, ResilientConfig};
use crate::market::interactive::BiddingAgent;
use crate::mechanism::exchange::{AgentSlot, Collector, LiveExchange};
use crate::mechanism::{
    Clearing, Diagnostics, InstanceView, MarketInstance, Mechanism, MechanismError,
};
use crate::units::{Price, Watts};

/// Asks every live agent synchronously, granting each `max_retries`
/// retries per round before quarantine. Crashes are terminal by contract
/// and skip the budget.
#[derive(Debug)]
struct Retries {
    max_retries: usize,
    spent: usize,
}

impl Collector for Retries {
    fn begin(&mut self, _slots: usize) {
        self.spent = 0;
    }

    fn collect(
        &mut self,
        slots: &mut [AgentSlot],
        round: usize,
        price: Price,
        quarantined: &mut Vec<Quarantine>,
    ) -> bool {
        for slot in slots.iter_mut().filter(|s| !s.quarantined) {
            let mut attempts = 0usize;
            let error = loop {
                let error = match slot.agent.respond(price.get()) {
                    Ok(bid) if bid.is_finite() => {
                        slot.last_bid = Some(bid.max(0.0));
                        break None;
                    }
                    Ok(garbage) => MarketError::InvalidParameter {
                        name: "bid",
                        value: garbage,
                        constraint: "agent returned a non-finite bid",
                    },
                    Err(err @ MarketError::AgentCrashed { .. }) => break Some(err),
                    Err(err) => err,
                };
                attempts += 1;
                if attempts > self.max_retries {
                    break Some(error);
                }
                self.spent += 1;
            };
            if let Some(error) = error {
                slot.quarantined = true;
                quarantined.push(Quarantine {
                    id: slot.agent.job_id(),
                    round,
                    error,
                });
            }
        }
        true
    }

    fn finish(&mut self, _rounds: usize, diagnostics: &mut Diagnostics) {
        diagnostics.retries = self.spent;
    }
}

/// Fault-tolerant MPR-INT over registered bidding agents.
///
/// The mechanism owns its agents, so quarantine state persists across
/// clearings. The [`MarketInstance`] passed to `clear` must list the
/// registered jobs in registration order (use
/// [`ResilientInteractiveMechanism::instance`]); the mechanism reads agent
/// state authoritatively from its slots and uses the instance only for the
/// clearing's row layout.
#[derive(Debug)]
pub struct ResilientInteractiveMechanism(LiveExchange<Retries>);

impl ResilientInteractiveMechanism {
    /// Creates an empty mechanism.
    #[must_use]
    pub fn new(config: ResilientConfig) -> Self {
        let retries = Retries {
            max_retries: config.max_retries,
            spent: 0,
        };
        Self(LiveExchange::new(config, retries))
    }

    /// Registers an agent together with its submission-time cooperative
    /// bid (ignored unless finite and non-negative).
    pub fn register(&mut self, agent: Box<dyn BiddingAgent>, fallback_bid: Option<f64>) {
        self.0.register(agent, fallback_bid);
    }

    /// Number of registered agents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when no agents are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.len() == 0
    }

    /// The resilient configuration in use.
    #[must_use]
    pub fn config(&self) -> ResilientConfig {
        self.0.config()
    }

    /// Builds the [`MarketInstance`] matching the registered agents, in
    /// registration order (bids are the registered fallback bids).
    #[must_use]
    pub fn instance(&self) -> MarketInstance {
        self.0.instance()
    }
}

impl Mechanism for ResilientInteractiveMechanism {
    fn name(&self) -> &'static str {
        "MPR-INT-RESILIENT"
    }

    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        self.0.clear_view(
            view,
            target,
            "no agents are registered with the resilient exchange",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::QuadraticCost;
    use crate::market::faults::CrashAgent;
    use crate::market::interactive::NetGainAgent;

    fn rational(id: u64, alpha: f64) -> NetGainAgent<QuadraticCost> {
        NetGainAgent::new(id, QuadraticCost::new(alpha, 1.0), Watts::new(125.0))
    }

    #[test]
    fn clean_exchange_is_accepted_and_meets_target() {
        let mut mech = ResilientInteractiveMechanism::new(ResilientConfig::default());
        for (i, a) in [1.0, 2.0, 4.0].iter().enumerate() {
            mech.register(Box::new(rational(i as u64, *a)), Some(0.2));
        }
        let inst = mech.instance();
        let c = mech.clear(&inst, Watts::new(150.0)).unwrap();
        assert!(c.diagnostics().accepted);
        assert!(c.diagnostics().converged);
        assert!(c.met_target());
        assert!(c.diagnostics().quarantined.is_empty());
        assert_eq!(c.diagnostics().observed_bids.as_ref().unwrap().len(), 3);
    }

    #[test]
    fn crashing_agent_is_quarantined_but_exchange_recovers() {
        let mut mech = ResilientInteractiveMechanism::new(ResilientConfig::default());
        mech.register(Box::new(rational(0, 1.0)), None);
        mech.register(Box::new(rational(1, 2.0)), None);
        mech.register(Box::new(CrashAgent::new(rational(2, 1.0), 1)), Some(0.3));
        let inst = mech.instance();
        let c = mech.clear(&inst, Watts::new(100.0)).unwrap();
        assert_eq!(c.diagnostics().quarantined.len(), 1);
        assert_eq!(c.diagnostics().quarantined[0].id, 2);
        // Quarantined row supplies nothing at the interactive level.
        assert_eq!(c.reductions()[2], 0.0);
        assert!(c.diagnostics().accepted);
        assert!(c.met_target());
    }

    #[test]
    fn empty_mechanism_is_degenerate() {
        let mut mech = ResilientInteractiveMechanism::new(ResilientConfig::default());
        let inst = MarketInstance::from_specs(std::iter::empty());
        assert!(matches!(
            mech.clear(&inst, Watts::new(10.0)),
            Err(MechanismError::DegenerateInstance { .. })
        ));
    }
}

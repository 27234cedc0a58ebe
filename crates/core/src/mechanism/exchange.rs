//! The MPR-INT tâtonnement (Section III-B), written once.
//!
//! The manager announces a price, users best-respond, the manager re-solves
//! MClr over their bids and moves the price towards the solution by the
//! damped update `q_{k+1} = (1−γ)·q_k + γ·q_solved`. The exchange stops when
//! the relative price change falls to the tolerance, when an optional
//! [`ConvergenceWatchdog`] declares the trajectory divergent, or when the
//! round cap fires. [`tatonnement`] is that loop; every interactive
//! mechanism passes in only how one round collects bids:
//!
//! * [`InteractiveMechanism`](super::InteractiveMechanism) asks rational
//!   agents directly and aborts on the first error;
//! * [`ResilientInteractiveMechanism`](super::ResilientInteractiveMechanism)
//!   retries and quarantines defaulting agents;
//! * [`TransportedInteractiveMechanism`](super::TransportedInteractiveMechanism)
//!   announces and collects over a [`Transport`](crate::market::transport::Transport).
//!
//! The last two are level 0 of a degradation chain and share
//! [`LiveExchange`]: the registered agent slots, the row layout, the
//! zero-target prologue and the final solve over the surviving bids.

use crate::market::faults::{ConvergenceWatchdog, Quarantine, ResilientConfig};
use crate::market::interactive::{BiddingAgent, InteractiveConfig};
use crate::mclr;
use crate::mechanism::{
    Clearing, Diagnostics, InstanceView, MarketInstance, MechanismError, ParticipantSpec,
};
use crate::participant::Participant;
use crate::supply::SupplyFunction;
use crate::units::{Price, Watts};

/// What a tâtonnement did.
pub(crate) struct Rounds {
    /// Rounds started.
    pub(crate) rounds: usize,
    /// The price change fell to the tolerance.
    pub(crate) converged: bool,
    /// The watchdog declared the trajectory divergent.
    pub(crate) diverged: bool,
    /// Announced prices, the initial one first.
    pub(crate) price_trace: Vec<f64>,
    /// The supplies collected in the last round (empty when that round
    /// found no bidder).
    pub(crate) participants: Vec<Participant>,
}

/// Runs the damped price/bid exchange for `target`.
///
/// `collect(round, price, participants)` gathers one round's bids at the
/// announced `price` into the (emptied) `participants`, in a fixed order.
/// It returns `Ok(false)` when no agent could be asked; that, or a round
/// without any supply, ends the exchange unconverged. An `Err` aborts it.
pub(crate) fn tatonnement<E>(
    config: &InteractiveConfig,
    mut watchdog: Option<ConvergenceWatchdog>,
    target: Watts,
    mut collect: impl FnMut(usize, Price, &mut Vec<Participant>) -> Result<bool, E>,
) -> Result<Rounds, E> {
    let mut price = config.initial_price.max(1e-9);
    let mut out = Rounds {
        rounds: 0,
        converged: false,
        diverged: false,
        price_trace: vec![price],
        participants: Vec::new(),
    };
    for round in 1..=config.max_iterations {
        out.rounds = round;
        out.participants.clear();
        if !collect(round, Price::new(price), &mut out.participants)? || out.participants.is_empty()
        {
            break;
        }
        let sol = mclr::clear_best_effort(&out.participants, target);
        let next = (1.0 - config.damping) * price + config.damping * sol.price.get();
        let rel_change = (next - price).abs() / price.abs().max(1e-9);
        price = next;
        out.price_trace.push(price);
        if rel_change <= config.tolerance {
            out.converged = true;
            break;
        }
        if watchdog.as_mut().is_some_and(|w| w.observe(rel_change)) {
            out.diverged = true;
            break;
        }
    }
    Ok(out)
}

/// One registered agent of a level-0 exchange.
pub(crate) struct AgentSlot {
    pub(crate) agent: Box<dyn BiddingAgent>,
    /// Registered submission-time (cooperative) bid, used at fallback
    /// levels when no live bid was ever observed.
    fallback_bid: Option<f64>,
    /// Most recent valid bid observed from the live exchange.
    pub(crate) last_bid: Option<f64>,
    pub(crate) quarantined: bool,
}

impl AgentSlot {
    /// The slot's live supply, when it is not quarantined and has bid.
    fn live_supply(&self) -> Option<SupplyFunction> {
        if self.quarantined {
            return None;
        }
        SupplyFunction::new(self.agent.delta_max(), self.last_bid?).ok()
    }
}

/// How a level-0 exchange collects one round of bids into its slots.
pub(crate) trait Collector {
    /// Prepares a clearing over `slots` registered agents.
    fn begin(&mut self, slots: usize);

    /// Collects round `round` at `price` into the slots' `last_bid`,
    /// quarantining defaulters (in order) into `quarantined`. Returns
    /// `false` when no agent could be asked.
    fn collect(
        &mut self,
        slots: &mut [AgentSlot],
        round: usize,
        price: Price,
        quarantined: &mut Vec<Quarantine>,
    ) -> bool;

    /// Records the clearing's collection counters after `rounds` rounds.
    fn finish(&mut self, rounds: usize, diagnostics: &mut Diagnostics);
}

/// A level-0 exchange: registered agents, their quarantine state (which
/// persists across clearings) and the round collector.
///
/// It never turns agent faults into errors. A failed exchange is an
/// **unaccepted** [`Clearing`] carrying the observed last-known or
/// cooperative bids, which a
/// [`FallbackChain`](crate::mechanism::FallbackChain) patches into the
/// instance for its next stage.
pub(crate) struct LiveExchange<C> {
    slots: Vec<AgentSlot>,
    config: ResilientConfig,
    pub(crate) collector: C,
}

impl<C: Collector> LiveExchange<C> {
    pub(crate) fn new(config: ResilientConfig, collector: C) -> Self {
        Self {
            slots: Vec::new(),
            config,
            collector,
        }
    }

    /// Registers an agent with its submission-time cooperative bid
    /// (ignored unless finite and non-negative).
    pub(crate) fn register(&mut self, agent: Box<dyn BiddingAgent>, fallback_bid: Option<f64>) {
        self.slots.push(AgentSlot {
            agent,
            fallback_bid: fallback_bid.filter(|b| b.is_finite() && *b >= 0.0),
            last_bid: None,
            quarantined: false,
        });
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn config(&self) -> ResilientConfig {
        self.config
    }

    /// The [`MarketInstance`] matching the registered agents, in
    /// registration order (bids are the registered fallback bids).
    pub(crate) fn instance(&self) -> MarketInstance {
        self.slots
            .iter()
            .map(|s| {
                let spec = ParticipantSpec::new(
                    s.agent.job_id(),
                    s.agent.delta_max(),
                    Watts::new(s.agent.watts_per_unit()),
                );
                match s.fallback_bid {
                    Some(b) => spec.with_bid(b),
                    None => spec,
                }
            })
            .collect()
    }

    /// Every slot's effective bid: last live, else registered cooperative,
    /// else 0 (manager-side forced capping still supplies).
    fn observed_bids(&self) -> Vec<f64> {
        self.slots
            .iter()
            .map(|s| s.last_bid.or(s.fallback_bid).unwrap_or(0.0))
            .collect()
    }

    /// Clears the registered agents for `target`. The clearing's rows are
    /// the slots; `view` supplies the row layout when it has one row per
    /// slot, and the exchange's own [`LiveExchange::instance`] otherwise.
    pub(crate) fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
        empty: &'static str,
    ) -> Result<Clearing, MechanismError> {
        if self.slots.is_empty() {
            return Err(MechanismError::DegenerateInstance { reason: empty });
        }
        let own;
        let own_view;
        let layout: &InstanceView<'_> = if view.len() == self.slots.len() {
            view
        } else {
            own = self.instance();
            own_view = own.view();
            &own_view
        };
        if target.get() <= 0.0 {
            let diagnostics = Diagnostics {
                iterations: 0,
                price_trace: vec![0.0],
                observed_bids: Some(self.observed_bids()),
                ..Diagnostics::default()
            };
            return Ok(Clearing::build(
                layout,
                Watts::new(target.get().max(0.0)),
                Price::ZERO,
                vec![0.0; layout.len()],
                None,
                None,
                diagnostics,
            ));
        }

        let cfg = self.config;
        let watchdog = ConvergenceWatchdog::new(cfg.watchdog_window, cfg.divergence_min_change);
        let mut quarantined = Vec::new();
        self.collector.begin(self.slots.len());
        let (slots, collector) = (&mut self.slots, &mut self.collector);
        let exchange = tatonnement(
            &cfg.interactive,
            Some(watchdog),
            target,
            |round, price, participants| {
                if !collector.collect(slots, round, price, &mut quarantined) {
                    return Ok::<_, std::convert::Infallible>(false);
                }
                participants.extend(slots.iter().filter_map(|s| {
                    let supply = s.live_supply()?;
                    Some(Participant::new(
                        s.agent.job_id(),
                        supply,
                        Watts::new(s.agent.watts_per_unit()),
                    ))
                }));
                Ok(true)
            },
        );
        let Ok(exchange) = exchange;

        // Final solve over the converged round's supplies: it replaces the
        // damped announcement with the price that actually clears them.
        // An unconverged exchange leaves the chain's next stage to
        // re-clear from the observed bids.
        let (price, reductions) = if exchange.converged {
            let price = mclr::clear_best_effort(&exchange.participants, target).price;
            let reductions = self
                .slots
                .iter()
                .map(|s| s.live_supply().map_or(0.0, |supply| supply.supply(price)))
                .collect();
            (price, reductions)
        } else {
            (Price::ZERO, vec![0.0; self.slots.len()])
        };
        let mut diagnostics = Diagnostics {
            iterations: exchange.rounds,
            converged: exchange.converged,
            diverged: exchange.diverged,
            quarantined,
            price_trace: exchange.price_trace,
            accepted: exchange.converged,
            observed_bids: Some(self.observed_bids()),
            ..Diagnostics::default()
        };
        self.collector.finish(exchange.rounds, &mut diagnostics);
        Ok(Clearing::build(
            layout,
            target,
            price,
            reductions,
            None,
            None,
            diagnostics,
        ))
    }
}

impl<C> std::fmt::Debug for LiveExchange<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveExchange")
            .field("agents", &self.slots.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

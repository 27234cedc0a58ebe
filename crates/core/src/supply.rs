//! Supply curves: the paper's parameterized supply function of Eqn. (3),
//! `δ(q) = [Δ − b/q]⁺`, plus the linear alternative it is contrasted with.

use crate::error::MarketError;
use crate::units::Price;

/// A price-to-supply curve: how much resource reduction a participant
/// offers at a unit price. Implemented by the paper's hyperbolic
/// [`SupplyFunction`] and by [`LinearSupply`]; generic market clearing
/// ([`crate::mclr::solve_supplies`]) works over any implementation that is
/// non-decreasing in the price.
pub trait Supply {
    /// Resource reduction supplied at unit price `price`.
    fn supply(&self, price: f64) -> f64;

    /// The supply's saturation level `Δ`.
    fn delta_max(&self) -> f64;
}

/// A user's supply of resource reduction as a function of the unit price.
///
/// For a job `m` the user provides two parameters (Section III-B):
///
/// * `Δ` ([`delta_max`](Self::delta_max)) — the maximum resource reduction
///   the job can tolerate, dictated by the application's behaviour (e.g.
///   `Δ = 0.7` cores per core for XSBench);
/// * `b` ([`bid`](Self::bid)) — the bidding parameter expressing the user's
///   affinity for reduction: larger bids demand higher prices before
///   supplying the same reduction.
///
/// The supplied reduction at price `q > 0` is `δ(q) = max(0, Δ − b/q)`;
/// the `[·]⁺` clamp guarantees no job is ever asked to *increase* its
/// resources.
///
/// ```
/// use mpr_core::{Price, SupplyFunction};
///
/// # fn main() -> Result<(), mpr_core::MarketError> {
/// let s = SupplyFunction::new(0.7, 0.1)?;
/// assert_eq!(s.supply(Price::ZERO), 0.0);    // free reductions are not supplied
/// assert!((s.supply(Price::new(0.2)) - 0.2).abs() < 1e-12);
/// assert!((s.supply(Price::new(f64::INFINITY)) - 0.7).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupplyFunction {
    delta_max: f64,
    bid: f64,
}

impl SupplyFunction {
    /// Creates a supply function with maximum reduction `delta_max` and
    /// bidding parameter `bid`.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::InvalidParameter`] when `delta_max` is not a
    /// non-negative finite number or `bid` is not a non-negative finite
    /// number. (`bid = 0` is legal: it supplies `Δ` at any positive price.)
    pub fn new(delta_max: f64, bid: f64) -> Result<Self, MarketError> {
        if !delta_max.is_finite() || delta_max < 0.0 {
            return Err(MarketError::InvalidParameter {
                name: "delta_max",
                value: delta_max,
                constraint: "must be finite and >= 0",
            });
        }
        if !bid.is_finite() || bid < 0.0 {
            return Err(MarketError::InvalidParameter {
                name: "bid",
                value: bid,
                constraint: "must be finite and >= 0",
            });
        }
        Ok(Self { delta_max, bid })
    }

    /// The maximum resource reduction `Δ` this supply can ever provide.
    #[must_use]
    pub fn delta_max(&self) -> f64 {
        self.delta_max
    }

    /// The bidding parameter `b`.
    #[must_use]
    pub fn bid(&self) -> f64 {
        self.bid
    }

    /// Returns a copy with the bidding parameter replaced — used by
    /// interactive-market agents that re-bid every round.
    #[must_use]
    pub fn with_bid(&self, bid: f64) -> Self {
        Self {
            delta_max: self.delta_max,
            bid: bid.max(0.0),
        }
    }

    /// Supplied resource reduction `δ(q) = [Δ − b/q]⁺` at unit price `q`.
    ///
    /// At `q <= 0` the supply is zero (no reduction is given away for free),
    /// except for the degenerate `b = 0` bid which supplies `Δ` at any
    /// positive price.
    #[must_use]
    pub fn supply(&self, price: Price) -> f64 {
        let q = price.get();
        if q <= 0.0 {
            return 0.0;
        }
        (self.delta_max - self.bid / q).max(0.0)
    }

    /// The price at which this supply starts to be positive: `b / Δ`.
    ///
    /// Returns `None` for the degenerate `Δ = 0` supply which never
    /// activates.
    #[must_use]
    pub fn activation_price(&self) -> Option<Price> {
        if self.delta_max <= 0.0 {
            None
        } else {
            Some(Price::new(self.bid / self.delta_max))
        }
    }

    /// Inverse of the supply function: the minimum price at which at least
    /// `delta` is supplied, or `None` when `delta > Δ` (never supplied).
    ///
    /// For `delta <= 0` this is the activation price.
    #[must_use]
    pub fn price_for(&self, delta: f64) -> Option<Price> {
        if delta > self.delta_max {
            return None;
        }
        if self.bid <= 0.0 {
            // Any positive price supplies Δ (`new` validated `b >= 0`).
            return Some(Price::ZERO);
        }
        let remaining = self.delta_max - delta.max(0.0);
        if remaining <= 0.0 {
            // Exactly Δ requested: only reached in the limit q → ∞.
            return if delta <= self.delta_max {
                Some(Price::new(f64::INFINITY))
            } else {
                None
            };
        }
        Some(Price::new(self.bid / remaining))
    }
}

impl Supply for SupplyFunction {
    fn supply(&self, price: f64) -> f64 {
        SupplyFunction::supply(self, Price::new(price))
    }
    fn delta_max(&self) -> f64 {
        SupplyFunction::delta_max(self)
    }
}

/// The linear supply function `δ(q) = min(q/β, Δ)` of Li et al. ("Demand
/// response using linear supply function bidding"), the form the paper's
/// Section III-B contrasts its choice against: it lacks the hyperbolic
/// curve's diminishing-returns shape, so it under-prices shallow
/// reductions of convex-cost users.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearSupply {
    delta_max: f64,
    beta: f64,
}

impl LinearSupply {
    /// Creates a linear supply with slope `1/beta` saturating at
    /// `delta_max`.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::InvalidParameter`] when `delta_max` is not a
    /// non-negative finite number or `beta` is not positive and finite.
    pub fn new(delta_max: f64, beta: f64) -> Result<Self, MarketError> {
        if !delta_max.is_finite() || delta_max < 0.0 {
            return Err(MarketError::InvalidParameter {
                name: "delta_max",
                value: delta_max,
                constraint: "must be finite and >= 0",
            });
        }
        if !beta.is_finite() || beta <= 0.0 {
            return Err(MarketError::InvalidParameter {
                name: "beta",
                value: beta,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Self { delta_max, beta })
    }

    /// The price coefficient `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl Supply for LinearSupply {
    fn supply(&self, price: f64) -> f64 {
        (price.max(0.0) / self.beta).min(self.delta_max)
    }
    fn delta_max(&self) -> f64 {
        self.delta_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_supply_shape() {
        let s = LinearSupply::new(0.7, 2.0).unwrap();
        assert_eq!(Supply::supply(&s, 0.0), 0.0);
        assert!((Supply::supply(&s, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(Supply::supply(&s, 100.0), 0.7);
        assert_eq!(Supply::delta_max(&s), 0.7);
        assert_eq!(s.beta(), 2.0);
        assert_eq!(Supply::supply(&s, -1.0), 0.0);
    }

    #[test]
    fn linear_supply_validation() {
        assert!(LinearSupply::new(-1.0, 1.0).is_err());
        assert!(LinearSupply::new(1.0, 0.0).is_err());
        assert!(LinearSupply::new(1.0, f64::NAN).is_err());
    }

    #[test]
    fn hyperbolic_implements_supply_trait() {
        let s = SupplyFunction::new(0.7, 0.14).unwrap();
        let dynamic: &dyn Supply = &s;
        assert!((dynamic.supply(0.4) - (0.7 - 0.14 / 0.4)).abs() < 1e-12);
        assert_eq!(dynamic.delta_max(), 0.7);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(SupplyFunction::new(-1.0, 0.1).is_err());
        assert!(SupplyFunction::new(f64::NAN, 0.1).is_err());
        assert!(SupplyFunction::new(0.7, -0.1).is_err());
        assert!(SupplyFunction::new(0.7, f64::INFINITY).is_err());
        assert!(SupplyFunction::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn supply_matches_paper_formula() {
        let s = SupplyFunction::new(0.7, 0.14).unwrap();
        // At the activation price the supply is exactly zero.
        let act = s.activation_price().unwrap();
        assert!((act.get() - 0.2).abs() < 1e-12);
        assert_eq!(s.supply(act), 0.0);
        // Above it, Δ − b/q.
        assert!((s.supply(Price::new(0.4)) - (0.7 - 0.14 / 0.4)).abs() < 1e-12);
    }

    #[test]
    fn zero_bid_supplies_everything_at_any_positive_price() {
        let s = SupplyFunction::new(0.5, 0.0).unwrap();
        assert_eq!(s.supply(Price::new(1e-9)), 0.5);
        assert_eq!(s.supply(Price::ZERO), 0.0);
        assert_eq!(s.price_for(0.5), Some(Price::ZERO));
    }

    #[test]
    fn price_for_is_inverse_of_supply() {
        let s = SupplyFunction::new(0.7, 0.1).unwrap();
        for delta in [0.0, 0.1, 0.3, 0.699] {
            let q = s.price_for(delta).unwrap();
            assert!(
                (s.supply(q) - delta).abs() < 1e-9,
                "delta={delta} q={q} supply={}",
                s.supply(q)
            );
        }
        assert_eq!(s.price_for(0.71), None);
        assert_eq!(s.price_for(0.7), Some(Price::new(f64::INFINITY)));
    }

    #[test]
    fn with_bid_clamps_negative_to_zero() {
        let s = SupplyFunction::new(0.7, 0.1).unwrap().with_bid(-5.0);
        assert_eq!(s.bid(), 0.0);
    }

    #[test]
    fn zero_delta_never_activates() {
        let s = SupplyFunction::new(0.0, 0.3).unwrap();
        assert_eq!(s.activation_price(), None);
        assert_eq!(s.supply(Price::new(1e12)), 0.0);
    }

    proptest! {
        /// Supply is non-negative, bounded by Δ, and non-decreasing in price.
        #[test]
        fn supply_is_monotone_and_bounded(
            delta_max in 0.0f64..10.0,
            bid in 0.0f64..10.0,
            q1 in 0.0f64..100.0,
            dq in 0.0f64..100.0,
        ) {
            let s = SupplyFunction::new(delta_max, bid).unwrap();
            let a = s.supply(Price::new(q1));
            let b = s.supply(Price::new(q1 + dq));
            prop_assert!(a >= 0.0);
            prop_assert!(b <= delta_max + 1e-12);
            prop_assert!(b + 1e-12 >= a, "supply must be non-decreasing: {a} then {b}");
        }

        /// A higher bid never supplies more at the same price (Fig. 2).
        #[test]
        fn higher_bid_supplies_less(
            delta_max in 0.1f64..10.0,
            bid in 0.0f64..5.0,
            extra in 0.001f64..5.0,
            q in 0.001f64..50.0,
        ) {
            let low = SupplyFunction::new(delta_max, bid).unwrap();
            let high = SupplyFunction::new(delta_max, bid + extra).unwrap();
            prop_assert!(high.supply(Price::new(q)) <= low.supply(Price::new(q)) + 1e-12);
        }
    }
}

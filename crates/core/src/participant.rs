//! Market participants: one active job offering resource reduction.

use crate::supply::SupplyFunction;
use crate::units::{Price, Watts};

/// Identifier of a job participating in the market.
pub type JobId = u64;

/// One active job taking part in an MPR market instance.
///
/// Besides its [`SupplyFunction`], a participant carries
/// `watts_per_unit` — the power saved per unit of resource reduction.
/// The HPC manager knows this conversion reliably from the adopted power
/// capping technique (Section III-A: "determining power reduction for
/// resource reduction is straightforward"); in the paper's power model it is
/// simply the per-core dynamic power, 125 W.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Participant {
    /// The job this participant represents.
    pub id: JobId,
    /// The job's current supply function.
    pub supply: SupplyFunction,
    /// Power reduction (watts) obtained per unit of resource reduction.
    pub watts_per_unit: f64,
}

impl Participant {
    /// Creates a participant for job `id`.
    #[must_use]
    pub fn new(id: JobId, supply: SupplyFunction, watts_per_unit: Watts) -> Self {
        Self {
            id,
            supply,
            watts_per_unit: watts_per_unit.get(),
        }
    }

    /// Power reduction this participant supplies at price `q`.
    #[must_use]
    pub fn power_at(&self, price: Price) -> Watts {
        Watts::new(self.supply.supply(price) * self.watts_per_unit)
    }

    /// Maximum power reduction this participant can ever supply.
    #[must_use]
    pub fn max_power(&self) -> Watts {
        Watts::new(self.supply.delta_max() * self.watts_per_unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_supply_times_conversion() {
        let p = Participant::new(7, SupplyFunction::new(2.0, 0.5).unwrap(), Watts::new(125.0));
        assert_eq!(p.id, 7);
        assert_eq!(p.max_power(), Watts::new(250.0));
        let q = Price::new(1.0);
        assert!((p.power_at(q).get() - (2.0 - 0.5) * 125.0).abs() < 1e-9);
        assert_eq!(p.power_at(Price::ZERO), Watts::ZERO);
    }
}

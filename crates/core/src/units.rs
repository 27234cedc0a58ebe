//! Newtype wrappers for the physical quantities used throughout MPR.
//!
//! The market math itself operates on `f64` for ergonomics, but public
//! aggregate results use these newtypes so that watts, cores, core-hours and
//! prices cannot be confused ([C-NEWTYPE]).
//!
//! All four types are thin wrappers: construct them with `from`/`new`, read
//! them back with [`get`](Watts::get), and add/subtract values of the same
//! unit. Multiplying by a bare `f64` scales the quantity.
//!
//! ```
//! use mpr_core::units::{Cores, Watts};
//!
//! let per_core = Watts::new(125.0);
//! let reduction = Cores::new(4.0);
//! let saved = per_core * reduction.get();
//! assert_eq!(saved, Watts::new(500.0));
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $suffix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Zero of this unit.
            pub const ZERO: $name = $name(0.0);

            /// Display suffix for this unit, leading space included (e.g.
            /// `" W"`). Report and CSV emitters derive their unit tokens
            /// from this constant instead of hand-writing the strings.
            pub const SUFFIX: &'static str = $suffix;

            /// Wraps a raw value in this unit.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the underlying value.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// `true` if the value is finite (not NaN / infinite).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Clamps into `[lo, hi]`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Total ordering over the underlying floats (IEEE 754
            /// `totalOrder`): safe for sorting even with NaN present.
            ///
            /// ```
            #[doc = concat!("use mpr_core::units::", stringify!($name), " as U;")]
            /// let mut v = vec![U::new(2.0), U::new(f64::NAN), U::new(1.0)];
            /// v.sort_by(|a, b| a.total_cmp(b));
            /// assert_eq!(v[0], U::new(1.0));
            /// ```
            #[must_use]
            pub fn total_cmp(&self, other: &Self) -> core::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }

            /// Ratio of two same-unit quantities, guarded: `None` when the
            /// divisor is zero or either operand is non-finite.
            ///
            /// ```
            #[doc = concat!("use mpr_core::units::", stringify!($name), " as U;")]
            /// assert_eq!(U::new(10.0).checked_ratio(U::new(4.0)), Some(2.5));
            /// assert_eq!(U::new(10.0).checked_ratio(U::ZERO), None);
            /// assert_eq!(U::new(f64::NAN).checked_ratio(U::new(1.0)), None);
            /// ```
            #[must_use]
            pub fn checked_ratio(self, rhs: Self) -> Option<f64> {
                // lint: allow(nan-safety) exact-zero divisor guard: any nonzero value, however small, divides fine
                if !self.0.is_finite() || !rhs.0.is_finite() || rhs.0 == 0.0 {
                    return None;
                }
                Some(self.0 / rhs.0)
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self(value)
            }
        }

        impl From<$name> for f64 {
            fn from(value: $name) -> f64 {
                value.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                // Forward width/precision flags to the inner float so
                // `{:.1}` renders as e.g. `42.0 W`, then append the suffix.
                fmt::Display::fmt(&self.0, f)?;
                f.write_str($suffix)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Ratio of two quantities of the same unit (dimensionless).
        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit!(
    /// Electrical power in watts.
    Watts,
    " W"
);
unit!(
    /// A (possibly fractional) quantity of CPU/GPU cores. A core slowed to
    /// 90 % of its nominal speed counts as 0.9 cores (Section III-A).
    Cores,
    " cores"
);
unit!(
    /// Core-hours: availability of one HPC core for one hour — the currency
    /// in which MPR rewards are paid (Section I). Displayed as `ch`, the
    /// paper's shorthand.
    CoreHours,
    " ch"
);
unit!(
    /// Market unit price `q`: reward paid per unit of shed power —
    /// core-hours per watt-slot, displayed as `ch/W` (PAPER.md Eqns. 3–7).
    /// Numerically it behaves as a scalar multiplier throughout the
    /// mechanism code (Section IV-B, "Bidding references").
    Price,
    " ch/W"
);

/// Compensation for shedding power at a clearing price: `q′ · δ_m` of
/// Eqn. (5), where the price is expressed in core-hours per watt-slot.
///
/// ```
/// use mpr_core::units::{CoreHours, Price, Watts};
///
/// let q = Price::new(0.02); // core-hours per shed watt-slot
/// let shed = Watts::new(500.0);
/// assert_eq!(q * shed, CoreHours::new(10.0));
/// assert_eq!(shed * q, CoreHours::new(10.0)); // commutes
/// ```
impl Mul<Watts> for Price {
    type Output = CoreHours;
    fn mul(self, rhs: Watts) -> CoreHours {
        CoreHours::new(self.get() * rhs.get())
    }
}

/// See [`Mul<Watts> for Price`](struct.Price.html#impl-Mul%3CWatts%3E-for-Price).
impl Mul<Price> for Watts {
    type Output = CoreHours;
    fn mul(self, rhs: Price) -> CoreHours {
        rhs * self
    }
}

impl Watts {
    /// Guarded watts-by-price division: how many watt-slots one core-hour
    /// of compensation pays for at this shed wattage — the divisor guard
    /// used when inverting Eqn. (5). `None` when the price is zero,
    /// negative or non-finite, or the wattage is non-finite.
    ///
    /// ```
    /// use mpr_core::units::{Price, Watts};
    ///
    /// assert_eq!(Watts::new(500.0).checked_div_price(Price::new(0.02)), Some(25_000.0));
    /// assert_eq!(Watts::new(500.0).checked_div_price(Price::ZERO), None);
    /// assert_eq!(Watts::new(500.0).checked_div_price(Price::new(f64::NAN)), None);
    /// ```
    #[must_use]
    // lint: raw-f64-ok dimensionless watt-slot count (W per (ch/W) is no catalogued unit)
    pub fn checked_div_price(self, price: Price) -> Option<f64> {
        if !self.is_finite() || !price.is_finite() || price.get() <= 0.0 {
            return None;
        }
        Some(self.get() / price.get())
    }
}

impl CoreHours {
    /// The shed wattage a compensation budget buys at a clearing price —
    /// the inverse of `Price * Watts`. `None` when the price is zero,
    /// negative or non-finite, or the budget is non-finite.
    ///
    /// ```
    /// use mpr_core::units::{CoreHours, Price, Watts};
    ///
    /// let budget = CoreHours::new(10.0);
    /// assert_eq!(budget.affordable_shed(Price::new(0.02)), Some(Watts::new(500.0)));
    /// assert_eq!(budget.affordable_shed(Price::ZERO), None);
    /// ```
    #[must_use]
    pub fn affordable_shed(self, price: Price) -> Option<Watts> {
        if !self.is_finite() || !price.is_finite() || price.get() <= 0.0 {
            return None;
        }
        Some(Watts::new(self.get() / price.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Watts::new(100.0);
        let b = Watts::new(25.0);
        assert_eq!(a + b, Watts::new(125.0));
        assert_eq!(a - b, Watts::new(75.0));
        assert_eq!(a * 2.0, Watts::new(200.0));
        assert_eq!(a / 4.0, Watts::new(25.0));
        assert_eq!(a / b, 4.0);
        assert_eq!(-a, Watts::new(-100.0));
    }

    #[test]
    fn assign_ops() {
        let mut w = Cores::new(1.0);
        w += Cores::new(2.0);
        assert_eq!(w, Cores::new(3.0));
        w -= Cores::new(0.5);
        assert_eq!(w, Cores::new(2.5));
    }

    #[test]
    fn sum_of_iterator() {
        let total: CoreHours = (1..=4).map(|i| CoreHours::new(f64::from(i))).sum();
        assert_eq!(total, CoreHours::new(10.0));
    }

    #[test]
    fn display_includes_unit_suffix() {
        assert_eq!(Watts::new(301.8).to_string(), "301.8 W");
        assert_eq!(Cores::new(2.0).to_string(), "2 cores");
        assert_eq!(CoreHours::new(7.25).to_string(), "7.25 ch");
        assert_eq!(Price::new(0.5).to_string(), "0.5 ch/W");
    }

    #[test]
    fn display_forwards_precision_and_width() {
        // `{:.1}` must format the inner float, not silently ignore the
        // precision flag — CLI output relies on this.
        assert_eq!(format!("{:.1}", Watts::new(301.84)), "301.8 W");
        assert_eq!(format!("{:.0}", Watts::new(99.6)), "100 W");
        assert_eq!(format!("{:.2}", CoreHours::new(1.0)), "1.00 ch");
        assert_eq!(format!("{:.4}", Price::new(0.55)), "0.5500 ch/W");
    }

    #[test]
    fn suffix_constants_match_display() {
        assert_eq!(Watts::SUFFIX, " W");
        assert_eq!(CoreHours::SUFFIX, " ch");
        assert_eq!(Price::SUFFIX, " ch/W");
        let rendered = Watts::new(1.0).to_string();
        assert!(rendered.ends_with(Watts::SUFFIX));
    }

    #[test]
    fn ordering_and_clamping() {
        let lo = Price::new(0.1);
        let hi = Price::new(0.9);
        assert!(lo < hi);
        assert_eq!(lo.max(hi), hi);
        assert_eq!(lo.min(hi), lo);
    }

    #[test]
    fn conversions() {
        let w: Watts = 42.0.into();
        let raw: f64 = w.into();
        assert_eq!(raw, 42.0);
        assert!(w.is_finite());
        assert!(!Watts::new(f64::NAN).is_finite());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Watts::default(), Watts::ZERO);
    }

    #[test]
    fn cross_unit_compensation() {
        let q = Price::new(0.5);
        let shed = Watts::new(40.0);
        assert_eq!(q * shed, CoreHours::new(20.0));
        assert_eq!(shed * q, CoreHours::new(20.0));
        assert_eq!((q * shed).affordable_shed(q), Some(shed));
    }

    #[test]
    fn guards_reject_degenerate_divisors() {
        assert_eq!(Watts::new(1.0).checked_div_price(Price::new(-1.0)), None);
        assert_eq!(
            CoreHours::new(1.0).affordable_shed(Price::new(f64::INFINITY)),
            None
        );
        assert_eq!(
            Watts::new(f64::INFINITY).checked_div_price(Price::new(1.0)),
            None
        );
        assert_eq!(
            Watts::new(3.0).checked_ratio(Watts::new(f64::INFINITY)),
            None
        );
    }

    #[test]
    fn total_cmp_sorts_nan_last() {
        let mut v = [
            Watts::new(f64::NAN),
            Watts::new(1.0),
            Watts::new(-2.0),
            Watts::new(0.5),
        ];
        v.sort_by(Watts::total_cmp);
        assert_eq!(v[0], Watts::new(-2.0));
        assert_eq!(v[1], Watts::new(0.5));
        assert_eq!(v[2], Watts::new(1.0));
        assert!(!v[3].is_finite());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Unit arithmetic is exactly the underlying f64 arithmetic:
            /// every op round-trips through `get()`/`new()` bit-for-bit.
            #[test]
            fn arithmetic_roundtrips_through_get_new(
                a in -1e9f64..1e9,
                b in -1e9f64..1e9,
                k in 0.001f64..1e6,
            ) {
                let (wa, wb) = (Watts::new(a), Watts::new(b));
                prop_assert_eq!((wa + wb).get(), a + b);
                prop_assert_eq!((wa - wb).get(), a - b);
                prop_assert_eq!((wa * k).get(), a * k);
                prop_assert_eq!((wa / k).get(), a / k);
                prop_assert_eq!((-wa).get(), -a);
                prop_assert_eq!(Watts::new(wa.get()), wa);
                prop_assert_eq!(CoreHours::new(a).get(), a);
                prop_assert_eq!(Price::new(b).get(), b);
                prop_assert_eq!(Cores::new(k).get(), k);
            }

            /// `Price * Watts` equals raw multiplication and inverts
            /// through `affordable_shed` up to float rounding.
            #[test]
            fn compensation_inverts(
                q in 0.001f64..100.0,
                w in 0.001f64..1e6,
            ) {
                let comp = Price::new(q) * Watts::new(w);
                prop_assert_eq!(comp.get(), q * w);
                let back = comp.affordable_shed(Price::new(q)).expect("positive price");
                prop_assert!((back.get() - w).abs() <= 1e-9 * w.abs().max(1.0));
            }

            /// The division guards accept exactly the documented domain.
            #[test]
            fn guards_match_domain(
                w in -1e6f64..1e6,
                q in -10.0f64..10.0,
            ) {
                let got = Watts::new(w).checked_div_price(Price::new(q));
                prop_assert_eq!(got.is_some(), q > 0.0);
                let ratio = Watts::new(w).checked_ratio(Watts::new(q));
                prop_assert_eq!(ratio.is_some(), q != 0.0);
            }
        }
    }
}

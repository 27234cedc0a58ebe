//! Small numeric toolbox: bisection root/threshold search, golden-section
//! maximization and grid scans.
//!
//! These routines are deliberately dependency-free and deterministic; every
//! solver in this crate (MClr bisection, water-filling, best-response
//! maximization) is built on them.

use crate::error::MarketError;

/// Relative tolerance used by default across the crate's solvers.
pub const DEFAULT_REL_TOL: f64 = 1e-10;

/// Maximum bisection iterations; 200 halvings shrink any practical bracket
/// below `f64` resolution.
const MAX_BISECT_ITERS: usize = 200;

/// Finds the smallest `x` in `[lo, hi]` such that `f(x) >= threshold`,
/// assuming `f` is non-decreasing.
///
/// This is the primitive behind MClr's clearing-price search: the aggregate
/// power reduction is monotone in the price, so the cheapest feasible price
/// is the threshold point. The threshold is a bare `f64` by design: this
/// toolbox is unit-agnostic (callers bisect over watts, prices, or plain
/// ratios alike).
///
/// # Errors
///
/// Returns [`MarketError::Numeric`] if the bracket is invalid or `f` is not
/// finite at the bracket ends, and [`MarketError::Infeasible`] is *not*
/// raised here — callers must check `f(hi) >= threshold` beforehand; if it
/// is not, `hi` is returned.
pub fn bisect_threshold<F>(
    mut lo: f64,
    mut hi: f64,
    threshold: f64,
    rel_tol: f64,
    f: F,
) -> Result<f64, MarketError>
where
    F: Fn(f64) -> f64,
{
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return Err(MarketError::Numeric("invalid bisection bracket"));
    }
    if f(lo) >= threshold {
        return Ok(lo);
    }
    if f(hi) < threshold {
        return Ok(hi);
    }
    for _ in 0..MAX_BISECT_ITERS {
        let mid = 0.5 * (lo + hi);
        if f(mid) >= threshold {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo) <= rel_tol * hi.abs().max(1.0) {
            break;
        }
    }
    Ok(hi)
}

/// Maximizes `f` over `[lo, hi]` with a coarse grid scan followed by
/// golden-section refinement around the best grid cell.
///
/// Returns `(x_best, f(x_best))`. The grid scan makes the routine robust to
/// multi-modal objectives (e.g. net gain under non-convex cost models); the
/// golden-section pass then polishes to ~1e-10 relative accuracy.
///
/// # Errors
///
/// Returns [`MarketError::Numeric`] when the bracket is invalid.
pub fn maximize<F>(lo: f64, hi: f64, grid: usize, f: F) -> Result<(f64, f64), MarketError>
where
    F: Fn(f64) -> f64,
{
    let grid = Grid::new(lo, hi, grid)?;
    Ok(grid.maximize(|i| f(grid.x(i)), &f))
}

/// The uniform grid [`maximize`] scans: `n + 1` points over `n` intervals
/// of `[lo, hi]`, with `n = max(intervals, 3)`.
///
/// Split out so a caller whose objective is cheap to rebuild from cached
/// samples (the MPR-INT best response, whose cost curve is fixed for a
/// whole clearing) can sample the expensive part once per point and still
/// run the one scan and the one polish [`maximize`] runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grid {
    lo: f64,
    hi: f64,
    step: f64,
    intervals: usize,
}

impl Grid {
    /// The grid over `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::Numeric`] when the bracket is invalid.
    pub(crate) fn new(lo: f64, hi: f64, intervals: usize) -> Result<Self, MarketError> {
        if !(lo.is_finite() && hi.is_finite()) || lo > hi {
            return Err(MarketError::Numeric("invalid maximization bracket"));
        }
        let intervals = intervals.max(3);
        Ok(Self {
            lo,
            hi,
            step: (hi - lo) / intervals as f64,
            intervals,
        })
    }

    /// Number of grid points, `n + 1`.
    pub(crate) fn len(&self) -> usize {
        self.intervals + 1
    }

    /// The `i`-th abscissa, `lo + step·i`: the only formula for it, so a
    /// cached sample and a fresh one see the same bits.
    pub(crate) fn x(&self, i: usize) -> f64 {
        self.lo + self.step * i as f64
    }

    /// Maximizes `f` on this grid: scan, then polish. `value(i)` must be
    /// `f(self.x(i))`, possibly rebuilt from cached samples; `f` itself
    /// is evaluated only by the polish (or once at `lo` when the bracket
    /// is a point).
    pub(crate) fn maximize<V, F>(&self, value: V, f: F) -> (f64, f64)
    where
        V: Fn(usize) -> f64,
        F: Fn(f64) -> f64,
    {
        if self.hi - self.lo <= f64::EPSILON * self.lo.abs().max(1.0) {
            return (self.lo, f(self.lo));
        }
        let (best_i, best_v) = scan(self.len(), value);
        self.polish(best_i, best_v, &f)
    }

    /// Golden-section refinement over the cells either side of grid point
    /// `best_i`; the refined point is kept only if it is at least as good
    /// as the grid's best.
    fn polish<F>(&self, best_i: usize, best_v: f64, f: &F) -> (f64, f64)
    where
        F: Fn(f64) -> f64,
    {
        let a = self.x(best_i.saturating_sub(1));
        let b = self.x(best_i + 1).min(self.hi);
        let (x, v) = golden_section_max(a, b, f);
        if v >= best_v {
            (x, v)
        } else {
            (self.x(best_i), best_v)
        }
    }
}

/// The last index of `0..len` attaining the maximum of `value`, with that
/// value; `(0, -∞)` when every value is NaN.
///
/// Ties break toward the larger index so bang-bang objectives prefer the
/// full-supply corner, matching the paper's cooperative spirit. The scan
/// keeps four running maxima, lane `j` over the indices `≡ j (mod 4)`, so
/// the comparisons form four short dependency chains rather than one long
/// one. Each lane keeps its last `>=` maximum, and the merge takes the
/// largest value with the largest index among equals: exactly what one
/// sequential `v >= best` loop returns, bit for bit. `value` is still
/// called in index order.
fn scan<V>(len: usize, value: V) -> (usize, f64)
where
    V: Fn(usize) -> f64,
{
    #[derive(Clone, Copy)]
    struct Lane {
        i: usize,
        v: f64,
    }
    impl Lane {
        fn offer(&mut self, i: usize, v: f64) {
            if v >= self.v {
                self.v = v;
                self.i = i;
            }
        }
    }
    let mut lanes = [Lane {
        i: 0,
        v: f64::NEG_INFINITY,
    }; 4];
    let full = len - len % 4;
    for base in (0..full).step_by(4) {
        for (j, lane) in lanes.iter_mut().enumerate() {
            lane.offer(base + j, value(base + j));
        }
    }
    for (j, lane) in lanes.iter_mut().enumerate().take(len - full) {
        lane.offer(full + j, value(full + j));
    }
    // Lane values are never NaN (`NaN >= x` is false), so `>` and `==`
    // order them totally.
    let best = lanes.iter().fold(
        Lane {
            i: 0,
            v: f64::NEG_INFINITY,
        },
        |best, lane| {
            if lane.v > best.v || (lane.v == best.v && lane.i > best.i) {
                *lane
            } else {
                best
            }
        },
    );
    (best.i, best.v)
}

/// Golden-section search for the maximum of a unimodal `f` on `[a, b]`.
fn golden_section_max<F>(mut a: f64, mut b: f64, f: &F) -> (f64, f64)
where
    F: Fn(f64) -> f64,
{
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..120 {
        if (b - a).abs() <= DEFAULT_REL_TOL * b.abs().max(1.0) {
            break;
        }
        if fc >= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    (x, f(x))
}

/// Numerically estimates the derivative of `f` at `x` with central
/// differences, falling back to one-sided differences at domain edges.
pub fn derivative<F>(f: &F, x: f64, lo: f64, hi: f64) -> f64
where
    F: Fn(f64) -> f64,
{
    let h = 1e-6 * (hi - lo).abs().max(1e-6);
    let a = (x - h).max(lo);
    let b = (x + h).min(hi);
    if b - a <= 0.0 {
        return 0.0;
    }
    (f(b) - f(a)) / (b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-lane loop the four-lane scan must reproduce.
    fn sequential_scan(values: &[f64]) -> (usize, f64) {
        let mut best = (0, f64::NEG_INFINITY);
        for (i, &v) in values.iter().enumerate() {
            if v >= best.1 {
                best = (i, v);
            }
        }
        best
    }

    fn assert_scans_agree(values: &[f64]) {
        let (i, v) = scan(values.len(), |i| values[i]);
        let (want_i, want_v) = sequential_scan(values);
        assert_eq!(
            (i, v.to_bits()),
            (want_i, want_v.to_bits()),
            "values {values:?}: scan ({i}, {v}), sequential ({want_i}, {want_v})"
        );
    }

    /// Few distinct values, so ties across lanes are the common case.
    fn awkward() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(0.0),
            Just(-0.0),
            Just(1.0),
            Just(-1.0),
            Just(2.5),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn four_lane_scan_matches_the_sequential_loop(
            values in prop_oneof![
                prop::collection::vec(awkward(), 1..=9),
                prop::collection::vec(awkward(), 513..=513),
            ],
        ) {
            assert_scans_agree(&values);
        }
    }

    #[test]
    fn four_lane_scan_edge_cases() {
        let nan = f64::NAN;
        for values in [
            vec![nan],
            vec![nan; 9],
            vec![f64::NEG_INFINITY; 6],
            vec![nan, f64::NEG_INFINITY, nan],
            vec![0.0, -0.0, 0.0, -0.0, 0.0],
            vec![-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
            vec![1.0, 3.0, 3.0, 3.0, 1.0, 3.0, 2.0, 1.0],
            vec![f64::INFINITY, 1.0, nan, f64::INFINITY, 0.0],
            (0..513).map(|i| f64::from(i % 5)).collect(),
            (0..513).map(|i| -f64::from(i)).collect(),
        ] {
            assert_scans_agree(&values);
        }
    }

    #[test]
    fn threshold_finds_minimal_feasible_point() {
        // f(x) = x^2 is non-decreasing on [0, 10]; smallest x with x^2 >= 9 is 3.
        let x = bisect_threshold(0.0, 10.0, 9.0, 1e-12, |x| x * x).unwrap();
        assert!((x - 3.0).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn threshold_returns_lo_when_already_satisfied() {
        let x = bisect_threshold(2.0, 10.0, 1.0, 1e-12, |x| x).unwrap();
        assert_eq!(x, 2.0);
    }

    #[test]
    fn threshold_returns_hi_when_unreachable() {
        let x = bisect_threshold(0.0, 1.0, 100.0, 1e-12, |x| x).unwrap();
        assert_eq!(x, 1.0);
    }

    #[test]
    fn threshold_rejects_bad_bracket() {
        assert!(bisect_threshold(1.0, 0.0, 0.0, 1e-12, |x| x).is_err());
        assert!(bisect_threshold(f64::NAN, 1.0, 0.0, 1e-12, |x| x).is_err());
    }

    #[test]
    fn maximize_quadratic() {
        // max of -(x-2)^2 + 5 at x = 2.
        let (x, v) = maximize(0.0, 10.0, 64, |x| -(x - 2.0).powi(2) + 5.0).unwrap();
        assert!((x - 2.0).abs() < 1e-6);
        assert!((v - 5.0).abs() < 1e-9);
    }

    #[test]
    fn maximize_prefers_larger_x_on_ties() {
        // Constant function: tie-break should land in the upper region.
        let (x, _) = maximize(0.0, 1.0, 16, |_| 1.0).unwrap();
        assert!(x > 0.8, "x = {x}");
    }

    #[test]
    fn maximize_handles_bang_bang_objective() {
        // Convex objective: maximum at a boundary.
        let (x, _) = maximize(0.0, 1.0, 64, |x| (x - 0.5).powi(2)).unwrap();
        assert!(!(0.01..=0.99).contains(&x));
    }

    #[test]
    fn maximize_degenerate_interval() {
        let (x, v) = maximize(3.0, 3.0, 8, |x| x).unwrap();
        assert_eq!(x, 3.0);
        assert_eq!(v, 3.0);
    }

    #[test]
    fn derivative_of_square() {
        let f = |x: f64| x * x;
        let d = derivative(&f, 2.0, 0.0, 10.0);
        assert!((d - 4.0).abs() < 1e-4);
    }

    #[test]
    fn derivative_at_edges_uses_one_sided() {
        let f = |x: f64| 3.0 * x;
        assert!((derivative(&f, 0.0, 0.0, 1.0) - 3.0).abs() < 1e-4);
        assert!((derivative(&f, 1.0, 0.0, 1.0) - 3.0).abs() < 1e-4);
    }
}

//! Federated clearing of the whole power tree.
//!
//! The paper clears one global constraint; [`HierarchicalMarket`] clears
//! *every* oversubscribed level of a [`PowerHierarchy`]. Jobs are assigned
//! to racks; each overloaded node runs its own subtree market over an
//! [`InstanceView`] window of the shared [`MarketInstance`] with its local
//! capacity deficit as the target. The sweep walks
//! [`PowerHierarchy::overloaded`] bottom-up (deepest level first, so rack
//! markets shed load before their UPS asks for more), commits the
//! incremental reductions, propagates the residual demand up, and
//! re-clears until the root is feasible or no further progress is
//! possible.
//!
//! Determinism: overloaded nodes are visited in (depth, id) order;
//! same-depth subtree markets (always disjoint) clear in parallel on the
//! rayon shim, whose `collect` returns results in task-index order, and
//! the commit fold then runs sequentially in that same order — so the
//! outcome is bit-identical across thread counts (`RAYON_NUM_THREADS=1`
//! vs default).
//!
//! Flat equivalence: when only one node is constrained and every job is in
//! its subtree (e.g. a root-only-constrained tree), the single market
//! clears the *identity* view — the borrowed full instance — and
//! [`Clearing::merge`] returns that clearing verbatim, so the federated
//! path is bit-identical to `mechanism.clear(&instance, target)`,
//! diagnostics included.

use std::collections::BTreeMap;

use mpr_core::mechanism::{
    Clearing, Diagnostics, InstanceView, MarketInstance, Mechanism, MechanismError, ParticipantSpec,
};
use mpr_core::{Price, Watts};
use rayon::prelude::*;

use crate::hierarchy::{LevelKind, PowerHierarchy, SubtreeRows};

/// Residual tolerance: deficits below this are treated as feasible.
const DEFICIT_TOL: f64 = 1e-6;

/// Default for [`HierarchicalMarket::with_exhausted_frac`]: a row whose
/// remaining Δ has fallen to this fraction of its original Δ (or below an
/// absolute floor) is exhausted and never re-marketed. A best-effort
/// ceiling clear leaves exactly `Δ/1000` on the table (the ceiling is
/// 1000× the highest activation price); re-clearing those leftovers would
/// multiply the next market's activation prices — and hence its ceiling —
/// by 1000 per round, compounding payments without bound. The unshed
/// remainder escalates as residual instead, which the manager covers with
/// direct power capping outside the market.
pub const DEFAULT_EXHAUSTED_FRAC: f64 = 2e-3;

/// Errors from federated market construction and clearing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FederatedError {
    /// The job→rack assignment names a node that is not a rack (or does
    /// not exist).
    BadAssignment {
        /// Instance row with the bad assignment.
        row: usize,
        /// The offending node id.
        node: usize,
    },
    /// The assignment vector's length does not match the instance.
    AssignmentLength {
        /// Rows in the instance.
        rows: usize,
        /// Entries in the assignment.
        assigned: usize,
    },
    /// The hierarchy contains a node with zero (or negative) capacity. A
    /// dead node must be *fenced out* of the hierarchy (see
    /// `mpr_power::gridfault::TopologyState::to_hierarchy_scaled`), never
    /// modeled as a zero-capacity constraint: its deficit arithmetic would
    /// silently report the node as feasible while power still routes
    /// through it.
    ZeroCapacity {
        /// The offending node id.
        node: usize,
        /// The node's name.
        name: String,
    },
    /// Every subtree market failed; the first error observed.
    Mechanism(MechanismError),
}

impl std::fmt::Display for FederatedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FederatedError::BadAssignment { row, node } => {
                write!(
                    f,
                    "job row {row} is assigned to node {node}, which is not a rack"
                )
            }
            FederatedError::AssignmentLength { rows, assigned } => write!(
                f,
                "assignment has {assigned} entries for an instance of {rows} rows"
            ),
            FederatedError::ZeroCapacity { node, name } => write!(
                f,
                "node {node} (`{name}`) has zero capacity — fence dead nodes out of the \
                 hierarchy instead of zeroing them"
            ),
            FederatedError::Mechanism(e) => write!(f, "federated clearing failed: {e}"),
        }
    }
}

impl std::error::Error for FederatedError {}

/// Per-node accounting of one federated sweep, in (depth, id) order.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelReport {
    /// Hierarchy node id.
    pub id: usize,
    /// Node name.
    pub name: String,
    /// Node kind.
    pub kind: LevelKind,
    /// Distance from the root.
    pub depth: usize,
    /// The node's initial capacity deficit (its first market's target).
    pub target: Watts,
    /// Power shed by markets run *at this node* (not by descendants).
    pub cleared: Watts,
    /// Number of market clearings run at this node across all rounds.
    pub markets: usize,
    /// The node's own residual deficit after the sweep (0 when feasible).
    pub residual: Watts,
    /// Residual propagated up the subtree: `max(residual, children's
    /// propagated residuals)`. Edge-monotone by construction — the chaos
    /// oracle checks reported values preserve this.
    pub propagated_residual: Watts,
    /// `true` when the node's local markets could not shed its full
    /// deficit: the residual escalates past the market to the node's
    /// emergency path (direct capping / load shedding outside the market).
    pub escalated: bool,
}

/// The outcome of one federated sweep over the tree.
#[derive(Debug, Clone)]
pub struct FederatedOutcome {
    /// The merged clearing over the full instance, in parent row order.
    pub clearing: Clearing,
    /// Per-node accounting for every node that was overloaded at any
    /// point, in (depth, id) order.
    pub levels: Vec<LevelReport>,
    /// Sweep rounds executed (one round = one deepest-to-root pass).
    pub rounds: usize,
    /// Total initial deficit over the maximal overloaded subtrees — the
    /// headline target of the merged clearing.
    pub initial_deficit: Watts,
    /// Total final deficit over the maximal still-overloaded subtrees
    /// (zero when the whole tree cleared feasible).
    pub residual: Watts,
    /// Subtree markets cleared in total.
    pub markets: usize,
}

impl FederatedOutcome {
    /// `true` when every level ended within its capacity.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.residual.get() <= DEFICIT_TOL
    }
}

/// One subtree market task of a depth wave (disjoint from its siblings).
struct NodeTask {
    node: usize,
    /// Instance rows the clearing's outputs map to, in clearing order.
    /// The full subtree for a pristine window; only the non-exhausted
    /// rows for a re-materialized one.
    rows: Vec<u32>,
    target: Watts,
    /// The re-clear instance for a partially committed subtree; `None`
    /// means the market clears a pristine window of the original instance.
    remaining: Option<MarketInstance>,
}

/// What one subtree market produced.
struct NodeClear<'a> {
    node: usize,
    rows: Vec<u32>,
    target: Watts,
    /// The pristine window, when one was used (enables verbatim merge).
    view: Option<InstanceView<'a>>,
    result: Result<Clearing, MechanismError>,
}

/// Federated clearing over a power tree: jobs assigned to racks, one
/// market per oversubscribed node, residual demand propagated upward.
#[derive(Debug)]
pub struct HierarchicalMarket<'h> {
    hierarchy: &'h PowerHierarchy,
    /// Instance row → rack node id.
    assignment: Vec<usize>,
    /// Cap on deepest-to-root sweep rounds.
    max_rounds: usize,
    /// Remaining-Δ fraction under which a row is exhausted and never
    /// re-marketed (see [`DEFAULT_EXHAUSTED_FRAC`] for why).
    exhausted_frac: f64,
}

impl<'h> HierarchicalMarket<'h> {
    /// Builds a federated market over `hierarchy` with the given job→rack
    /// assignment (one rack id per instance row).
    ///
    /// # Errors
    ///
    /// * [`FederatedError::BadAssignment`] when an entry is not a rack id.
    /// * [`FederatedError::ZeroCapacity`] when any hierarchy node has no
    ///   capacity — dead nodes must be fenced out of the tree, not zeroed.
    pub fn new(
        hierarchy: &'h PowerHierarchy,
        assignment: Vec<usize>,
    ) -> Result<Self, FederatedError> {
        for node in 0..hierarchy.len() {
            if hierarchy.capacity_of(node).get() <= 0.0 {
                return Err(FederatedError::ZeroCapacity {
                    node,
                    name: hierarchy.name_of(node).to_owned(),
                });
            }
        }
        for (row, &node) in assignment.iter().enumerate() {
            if hierarchy.kind_of(node) != Some(LevelKind::Rack) {
                return Err(FederatedError::BadAssignment { row, node });
            }
        }
        Ok(Self {
            hierarchy,
            assignment,
            max_rounds: 8,
            exhausted_frac: DEFAULT_EXHAUSTED_FRAC,
        })
    }

    /// Overrides the sweep-round cap (default 8).
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds.max(1);
        self
    }

    /// Overrides the exhausted-row fencing fraction (default
    /// [`DEFAULT_EXHAUSTED_FRAC`]). Clamped to `[0, 0.5]`: rows whose
    /// remaining Δ falls under this fraction of their original Δ are
    /// dropped from re-clears so ceiling-clear leftovers are never
    /// re-priced.
    #[must_use]
    pub fn with_exhausted_frac(mut self, frac: f64) -> Self {
        self.exhausted_frac = frac.clamp(0.0, 0.5);
        self
    }

    /// The job→rack assignment in use.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The exhausted-row fencing fraction in use.
    #[must_use]
    pub fn exhausted_frac(&self) -> f64 {
        self.exhausted_frac
    }

    /// The node's capacity deficit after subtracting committed reductions:
    /// its load, less the committed watts of its rows summed in ascending
    /// row order, less its capacity.
    fn effective_deficit(
        &self,
        index: &SubtreeRows,
        node: usize,
        committed: &[f64],
        wpu: &[f64],
    ) -> f64 {
        let load = self.hierarchy.load_at(node).get();
        let shed: f64 = index
            .rows(node)
            .iter()
            .map(|&row| {
                let row = row as usize;
                committed.get(row).copied().unwrap_or(0.0) * wpu.get(row).copied().unwrap_or(0.0)
            })
            .sum();
        load - shed - self.hierarchy.capacity_of(node).get()
    }

    /// Clears the whole tree with one fresh mechanism per subtree market.
    ///
    /// The factory is invoked once per market (mechanisms are stateful and
    /// cleared concurrently); all six paper schemes are instance-driven
    /// and work here, as do [`FallbackChain`](mpr_core::mechanism::FallbackChain)s
    /// built fresh per call.
    ///
    /// # Errors
    ///
    /// * [`FederatedError::AssignmentLength`] on a row-count mismatch.
    /// * [`FederatedError::Mechanism`] when every market failed and
    ///   nothing was committed.
    pub fn clear<M, F>(
        &self,
        instance: &MarketInstance,
        factory: F,
    ) -> Result<FederatedOutcome, FederatedError>
    where
        M: Mechanism,
        F: Fn() -> M + Sync,
    {
        let n = instance.len();
        if self.assignment.len() != n {
            return Err(FederatedError::AssignmentLength {
                rows: n,
                assigned: self.assignment.len(),
            });
        }
        let wpu = instance.watts_per_unit_slice();
        let deltas = instance.deltas();
        // Built per clear rather than in `new`, which stays a cheap
        // validation pass for callers that build many markets.
        let index = SubtreeRows::new(self.hierarchy, &self.assignment);

        let mut committed = vec![0.0f64; n];
        let mut prices_acc = vec![0.0f64; n];
        let mut payments_acc = vec![0.0f64; n];
        let mut headline = Price::ZERO;
        let mut folded: Option<Diagnostics> = None;
        // Pristine windows cleared so far; `None` once any market ran over
        // a re-materialized (partially committed) subtree.
        let mut pristine_parts: Option<Vec<(InstanceView<'_>, Clearing)>> = Some(Vec::new());
        let mut reports: BTreeMap<usize, LevelReport> = BTreeMap::new();
        let mut first_error: Option<MechanismError> = None;
        let mut markets = 0usize;
        let mut rounds = 0usize;

        // One sweep of effective deficits per committed state: the first
        // gives the initial deficit and round one's nodes, each round's
        // closing sweep the next round's nodes or the final residual.
        let mut over = self.overloaded_effective(&index, &committed, wpu);
        let initial_deficit = self.maximal_deficit_sum(&over);

        for _round in 0..self.max_rounds {
            if over.is_empty() {
                break;
            }
            rounds += 1;
            let committed_before: f64 = committed.iter().zip(wpu).map(|(c, w)| c * w).sum();

            // Deepest level first: rack markets shed before their UPS asks.
            let mut depths: Vec<usize> = over.iter().map(|&(d, _, _)| d).collect();
            depths.sort_unstable();
            depths.dedup();
            for &depth in depths.iter().rev() {
                // Re-derive each node's deficit now — deeper waves of this
                // round may already have shed part of it.
                let tasks: Vec<NodeTask> = over
                    .iter()
                    .filter(|&&(d, _, _)| d == depth)
                    .filter_map(|&(_, id, _)| {
                        let deficit = self.effective_deficit(&index, id, &committed, wpu);
                        if deficit <= DEFICIT_TOL {
                            return None;
                        }
                        let rows = index.rows(id);
                        // A row is pristine while its commit slot still
                        // holds the exact `+0.0` it was initialised with —
                        // commits only ever add positive reductions, so a
                        // bitwise zero test is the precise check.
                        let pristine = rows.iter().all(|&r| {
                            committed.get(r as usize).copied().unwrap_or(0.0).to_bits() == 0
                        });
                        let (rows, remaining) = if pristine {
                            (rows.to_vec(), None)
                        } else {
                            let (kept, remaining) =
                                gather_remaining(instance, rows, &committed, self.exhausted_frac);
                            if kept.is_empty() {
                                // Every row is exhausted: the deficit is
                                // stuck residual, there is no market to run.
                                return None;
                            }
                            (kept, Some(remaining))
                        };
                        Some(NodeTask {
                            node: id,
                            rows,
                            target: Watts::new(deficit),
                            remaining,
                        })
                    })
                    .collect();
                if tasks.is_empty() {
                    continue;
                }
                // Same-depth subtrees are disjoint: clear them in parallel.
                // The shim's collect returns results in task-index order
                // and the commit fold below is sequential in that order,
                // so the sweep is bit-identical across thread counts.
                let wave: Vec<NodeClear<'_>> = tasks
                    .into_par_iter()
                    .map(|task| {
                        let mut mechanism = factory();
                        match task.remaining {
                            None => {
                                let view = instance.select(&task.rows);
                                let result = mechanism.clear_view(&view, task.target);
                                NodeClear {
                                    node: task.node,
                                    rows: task.rows,
                                    target: task.target,
                                    view: Some(view),
                                    result,
                                }
                            }
                            Some(remaining) => {
                                let result = mechanism.clear(&remaining, task.target);
                                NodeClear {
                                    node: task.node,
                                    rows: task.rows,
                                    target: task.target,
                                    view: None,
                                    result,
                                }
                            }
                        }
                    })
                    .collect();
                for clear in wave {
                    markets += 1;
                    let report = reports.entry(clear.node).or_insert_with(|| LevelReport {
                        id: clear.node,
                        name: self.hierarchy.name_of(clear.node).to_owned(),
                        kind: self
                            .hierarchy
                            .kind_of(clear.node)
                            .unwrap_or(LevelKind::Rack),
                        depth: self.hierarchy.depth(clear.node).unwrap_or(0),
                        target: clear.target,
                        cleared: Watts::ZERO,
                        markets: 0,
                        residual: Watts::ZERO,
                        propagated_residual: Watts::ZERO,
                        escalated: false,
                    });
                    report.markets += 1;
                    let clearing = match clear.result {
                        Ok(c) => c,
                        Err(e) => {
                            if first_error.is_none() {
                                first_error = Some(e);
                            }
                            continue;
                        }
                    };
                    let mut shed_w = 0.0;
                    for (j, &row) in clear.rows.iter().enumerate() {
                        let row = row as usize;
                        let r = clearing.reductions().get(j).copied().unwrap_or(0.0);
                        let (Some(c), Some(&d), Some(&w)) =
                            (committed.get_mut(row), deltas.get(row), wpu.get(row))
                        else {
                            continue;
                        };
                        let inc = r.min(d - *c).max(0.0);
                        *c += inc;
                        shed_w += inc * w;
                        if let Some(p) = prices_acc.get_mut(row) {
                            *p = clearing.participant_prices().get(j).copied().unwrap_or(0.0);
                        }
                        if let Some(pay) = payments_acc.get_mut(row) {
                            let rate = clearing.payment_rates().get(j).copied().unwrap_or(0.0);
                            *pay += if r > 1e-12 { rate * (inc / r) } else { 0.0 };
                        }
                    }
                    report.cleared = Watts::new(report.cleared.get() + shed_w);
                    if clearing.price() > headline {
                        headline = clearing.price();
                    }
                    let d = clearing.diagnostics().clone();
                    folded = Some(match folded.take() {
                        None => d,
                        Some(acc) => Diagnostics::fold(acc, &d),
                    });
                    match (&mut pristine_parts, clear.view) {
                        (Some(parts), Some(view)) => parts.push((view, clearing)),
                        (parts, _) => *parts = None,
                    }
                }
            }

            let committed_after: f64 = committed.iter().zip(wpu).map(|(c, w)| c * w).sum();
            over = self.overloaded_effective(&index, &committed, wpu);
            if committed_after - committed_before <= DEFICIT_TOL {
                break; // No progress: every remaining deficit is stuck.
            }
        }

        let any_committed = committed.iter().any(|&c| c > 0.0);
        if let Some(e) = first_error {
            if !any_committed && markets > 0 {
                return Err(FederatedError::Mechanism(e));
            }
        }

        // Final per-node residuals + upward propagation for the reports.
        let mut levels: Vec<LevelReport> = reports.into_values().collect();
        for report in &mut levels {
            report.residual = Watts::new(
                self.effective_deficit(&index, report.id, &committed, wpu)
                    .max(0.0),
            );
            // The market is out of supply here: the leftover deficit must
            // escalate to the node's emergency path (direct capping).
            report.escalated = report.residual.get() > DEFICIT_TOL;
        }
        levels.sort_by_key(|r| (r.depth, r.id));
        // The recursive max-of-children's-maxes collapses to one max over
        // the subtree: a node's propagated residual is the largest
        // residual reported at the node itself or at any strictly deeper
        // descendant (chains reported without an intermediate level
        // included).
        let snapshot: Vec<(usize, usize, Watts)> =
            levels.iter().map(|r| (r.id, r.depth, r.residual)).collect();
        for report in &mut levels {
            let mut propagated = report.residual;
            for &(id, depth, residual) in &snapshot {
                if depth > report.depth
                    && self.hierarchy.is_ancestor_or_self(report.id, id)
                    && residual > propagated
                {
                    propagated = residual;
                }
            }
            report.propagated_residual = propagated;
        }

        let residual = Watts::new(self.maximal_deficit_sum(&over));
        let clearing = match pristine_parts {
            Some(parts) if !parts.is_empty() => {
                Clearing::merge(instance, Watts::new(initial_deficit), parts)
            }
            _ => Clearing::build(
                &instance.view(),
                Watts::new(initial_deficit),
                headline,
                committed,
                Some(prices_acc),
                Some(payments_acc),
                folded.unwrap_or_default(),
            ),
        };
        Ok(FederatedOutcome {
            clearing,
            levels,
            rounds,
            initial_deficit: Watts::new(initial_deficit),
            residual,
            markets,
        })
    }

    /// Effectively overloaded nodes as `(depth, id, deficit)` in
    /// deterministic (depth, id) order.
    fn overloaded_effective(
        &self,
        index: &SubtreeRows,
        committed: &[f64],
        wpu: &[f64],
    ) -> Vec<(usize, usize, f64)> {
        let mut over: Vec<(usize, usize, f64)> = (0..self.hierarchy.len())
            .filter_map(|id| {
                let deficit = self.effective_deficit(index, id, committed, wpu);
                (deficit > DEFICIT_TOL)
                    .then(|| (self.hierarchy.depth(id).unwrap_or(0), id, deficit))
            })
            .collect();
        over.sort_by_key(|a| (a.0, a.1));
        over
    }

    /// Summed deficit over the *maximal* overloaded subtrees of one
    /// [`overloaded_effective`](Self::overloaded_effective) sweep (nodes
    /// with no overloaded strict ancestor) — disjoint, so the sum is the
    /// total shed the tree still needs.
    fn maximal_deficit_sum(&self, over: &[(usize, usize, f64)]) -> f64 {
        over.iter()
            .filter(|&&(_, id, _)| {
                !over.iter().any(|&(_, other, _)| {
                    other != id && self.hierarchy.is_ancestor_or_self(other, id)
                })
            })
            .map(|&(_, _, deficit)| deficit)
            .sum()
    }
}

/// A standalone instance of the non-exhausted rows with each `Δ_m` reduced
/// by what is already committed (bids, costs, cores and watts-per-unit
/// carried over) — the re-clear instance for a partially shed subtree.
/// Returns the kept parent rows (in order) alongside the instance, so the
/// clearing's outputs map back row-for-row. Rows with less than
/// `exhausted_frac` of their original Δ left are dropped: re-pricing
/// ceiling-clear leftovers compounds without bound (see
/// [`DEFAULT_EXHAUSTED_FRAC`]).
fn gather_remaining(
    instance: &MarketInstance,
    rows: &[u32],
    committed: &[f64],
    exhausted_frac: f64,
) -> (Vec<u32>, MarketInstance) {
    let mut kept = Vec::new();
    let gathered: MarketInstance = rows
        .iter()
        .filter_map(|&r| {
            let row = r as usize;
            let id = instance.ids().get(row)?;
            let delta = instance.deltas().get(row)?;
            let done = committed.get(row).copied().unwrap_or(0.0);
            let remaining = (delta - done).max(0.0);
            if remaining <= (delta * exhausted_frac).max(1e-9) {
                return None;
            }
            let wpu = instance.watts_per_unit_slice().get(row)?;
            let cores = instance.cores().get(row)?;
            let mut spec =
                ParticipantSpec::new(*id, remaining, Watts::new(*wpu)).with_cores(*cores);
            if instance.bid_supplied(row) {
                let bid = instance.bids().get(row).copied().unwrap_or(f64::NAN);
                spec = spec.with_bid(bid);
            }
            if let Some(cost) = instance.costs().get(row).and_then(Clone::clone) {
                spec = spec.with_cost(cost);
            }
            kept.push(r);
            Some(spec)
        })
        .collect();
    (kept, gathered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_core::mechanism::MclrMechanism;

    /// Two UPS subtrees under one ATS, one rack each:
    /// `(h, ups_a, ups_b, rack_a, rack_b)`.
    fn two_ups_tree(ats_cap: f64, ups_cap: f64) -> (PowerHierarchy, usize, usize, usize, usize) {
        let mut h = PowerHierarchy::new();
        let ats = h.add_root("ats", LevelKind::Ats, Watts::new(ats_cap));
        let ups_a = h
            .add_child("ups-a", LevelKind::Ups, Watts::new(ups_cap), ats)
            .unwrap();
        let ups_b = h
            .add_child("ups-b", LevelKind::Ups, Watts::new(ups_cap), ats)
            .unwrap();
        let pdu_a = h
            .add_child("pdu-a", LevelKind::Pdu, Watts::new(ups_cap * 10.0), ups_a)
            .unwrap();
        let pdu_b = h
            .add_child("pdu-b", LevelKind::Pdu, Watts::new(ups_cap * 10.0), ups_b)
            .unwrap();
        let rack_a = h
            .add_child("rack-a", LevelKind::Rack, Watts::new(ups_cap * 10.0), pdu_a)
            .unwrap();
        let rack_b = h
            .add_child("rack-b", LevelKind::Rack, Watts::new(ups_cap * 10.0), pdu_b)
            .unwrap();
        (h, ups_a, ups_b, rack_a, rack_b)
    }

    /// `n` jobs, delta 2 cores, 125 W/core, bid 0.2.
    fn instance(n: usize) -> MarketInstance {
        (0..n)
            .map(|id| ParticipantSpec::new(id as u64, 2.0, Watts::new(125.0)).with_bid(0.2))
            .collect()
    }

    #[test]
    fn root_only_constraint_is_bit_identical_to_flat() {
        let (mut h, _, _, rack_a, rack_b) = two_ups_tree(1500.0, 1e6);
        h.set_load(rack_a, Watts::new(1000.0)).unwrap();
        h.set_load(rack_b, Watts::new(1000.0)).unwrap();
        let inst = instance(4);
        let assignment = vec![rack_a, rack_a, rack_b, rack_b];
        let market = HierarchicalMarket::new(&h, assignment).unwrap();
        let outcome = market.clear(&inst, MclrMechanism::best_effort).unwrap();
        assert!(outcome.feasible());
        assert_eq!(outcome.markets, 1, "one pristine root market");

        let mut flat = MclrMechanism::best_effort();
        let expect = flat.clear(&inst, Watts::new(500.0)).unwrap();
        assert_eq!(outcome.clearing.reductions(), expect.reductions());
        assert_eq!(outcome.clearing.price(), expect.price());
        assert_eq!(
            outcome.clearing.participant_prices(),
            expect.participant_prices()
        );
        assert_eq!(outcome.clearing.payment_rates(), expect.payment_rates());
        assert_eq!(outcome.clearing.diagnostics(), expect.diagnostics());
    }

    #[test]
    fn disjoint_ups_overloads_clear_as_two_parallel_markets() {
        let (mut h, ups_a, ups_b, rack_a, rack_b) = two_ups_tree(1e6, 900.0);
        h.set_load(rack_a, Watts::new(1000.0)).unwrap();
        h.set_load(rack_b, Watts::new(1100.0)).unwrap();
        let inst = instance(4);
        let market = HierarchicalMarket::new(&h, vec![rack_a, rack_a, rack_b, rack_b]).unwrap();
        let outcome = market.clear(&inst, MclrMechanism::best_effort).unwrap();
        assert!(outcome.feasible());
        assert_eq!(outcome.markets, 2);
        assert_eq!(outcome.rounds, 1);
        assert_eq!(outcome.levels.len(), 2);
        assert!(
            outcome.levels.iter().all(|l| !l.escalated),
            "feasible nodes never escalate"
        );
        assert_eq!(outcome.levels[0].id, ups_a);
        assert_eq!(outcome.levels[1].id, ups_b);
        assert!((outcome.levels[0].target.get() - 100.0).abs() < 1e-9);
        assert!((outcome.levels[1].target.get() - 200.0).abs() < 1e-9);
        assert!(outcome.levels.iter().all(|l| l.residual == Watts::ZERO));
        // Subtree B had the bigger deficit, so its rows shed more.
        let r = outcome.clearing.reductions();
        assert!(r[2] + r[3] > r[0] + r[1]);
        assert!((outcome.initial_deficit.get() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn nested_overload_escalates_residual_to_the_parent() {
        // UPS-A's deficit exceeds what its own jobs can shed; the ATS is
        // also constrained and must extract the rest from subtree B.
        let (mut h, ups_a, _, rack_a, rack_b) = two_ups_tree(1900.0, 800.0);
        h.set_load(rack_a, Watts::new(1100.0)).unwrap();
        h.set_load(rack_b, Watts::new(1000.0)).unwrap();
        // Rows 0..1 in rack A can shed 2 cores · 125 W = 250 W at most.
        let inst: MarketInstance = (0..4)
            .map(|id| {
                let delta = if id < 1 { 1.0 } else { 2.0 };
                ParticipantSpec::new(id as u64, delta, Watts::new(125.0)).with_bid(0.2)
            })
            .collect();
        let market = HierarchicalMarket::new(&h, vec![rack_a, rack_b, rack_b, rack_b]).unwrap();
        let outcome = market.clear(&inst, MclrMechanism::best_effort).unwrap();
        // UPS-A needs 300 W but its only job caps at 125 W: residual stays.
        let a_report = outcome.levels.iter().find(|l| l.id == ups_a).unwrap();
        assert!(a_report.residual.get() > 0.0);
        assert!(
            a_report.escalated,
            "a stuck residual escalates to the node's emergency path"
        );
        assert!(!outcome.feasible());
        assert!(outcome.rounds >= 1);
        // Propagated residuals are edge-monotone: the root's reported
        // propagation is at least UPS-A's.
        let root_report = outcome.levels.iter().find(|l| l.id == 0);
        if let Some(root) = root_report {
            assert!(root.propagated_residual >= a_report.propagated_residual);
        }
        // The merged clearing accounts every committed reduction once.
        let total: f64 = outcome
            .clearing
            .reductions()
            .iter()
            .zip(inst.deltas())
            .map(|(r, d)| {
                assert!(*r <= d + 1e-9, "no row over-commits");
                r * 125.0
            })
            .sum();
        assert!(total > 0.0);
    }

    #[test]
    fn feasible_tree_returns_zero_markets() {
        let (mut h, _, _, rack_a, rack_b) = two_ups_tree(1e6, 1e6);
        h.set_load(rack_a, Watts::new(10.0)).unwrap();
        h.set_load(rack_b, Watts::new(10.0)).unwrap();
        let inst = instance(2);
        let market = HierarchicalMarket::new(&h, vec![rack_a, rack_b]).unwrap();
        let outcome = market.clear(&inst, MclrMechanism::best_effort).unwrap();
        assert!(outcome.feasible());
        assert_eq!(outcome.markets, 0);
        assert_eq!(outcome.rounds, 0);
        assert_eq!(outcome.initial_deficit, Watts::ZERO);
        assert_eq!(outcome.clearing.total_power_reduction(), Watts::ZERO);
    }

    #[test]
    fn bad_assignment_and_length_mismatch_error() {
        let (h, ups_a, _, rack_a, _) = two_ups_tree(1e6, 1e6);
        assert!(matches!(
            HierarchicalMarket::new(&h, vec![rack_a, ups_a]),
            Err(FederatedError::BadAssignment { row: 1, .. })
        ));
        let market = HierarchicalMarket::new(&h, vec![rack_a]).unwrap();
        assert!(matches!(
            market.clear(&instance(3), MclrMechanism::best_effort),
            Err(FederatedError::AssignmentLength {
                rows: 3,
                assigned: 1
            })
        ));
    }

    #[test]
    fn exhausted_rows_are_never_remarketed_so_prices_stay_bounded() {
        // Every level is hopelessly overconstrained: each market
        // best-effort-clears at its price ceiling. The leftovers (Δ/1000
        // per row) must not be re-marketed — doing so would multiply the
        // ceiling by 1000 per round and compound payments without bound.
        let (mut h, _, _, rack_a, rack_b) = two_ups_tree(10.0, 5.0);
        h.set_load(rack_a, Watts::new(1000.0)).unwrap();
        h.set_load(rack_b, Watts::new(1000.0)).unwrap();
        let inst = instance(4);
        let market = HierarchicalMarket::new(&h, vec![rack_a, rack_a, rack_b, rack_b]).unwrap();
        let outcome = market.clear(&inst, MclrMechanism::best_effort).unwrap();
        assert!(!outcome.feasible());
        // Activation price is b/Δ = 0.1; a single ceiling pass caps at
        // 1000×0.1 = 100. Unbounded compounding would exceed this by
        // orders of magnitude.
        assert!(
            outcome.clearing.price().get() <= 100.0 + 1e-9,
            "headline price {} escaped the single-pass ceiling",
            outcome.clearing.price().get()
        );
        for (row, &rate) in outcome.clearing.payment_rates().iter().enumerate() {
            assert!(
                rate <= 100.0 * 2.0 + 1e-9,
                "row {row} payment rate {rate} escaped q·Δ at the ceiling"
            );
        }
        // The sweep settles instead of spinning all eight rounds.
        assert!(outcome.rounds <= 3, "rounds: {}", outcome.rounds);
    }

    #[test]
    fn zero_capacity_nodes_are_a_typed_error() {
        let mut h = PowerHierarchy::new();
        let ats = h.add_root("ats", LevelKind::Ats, Watts::new(100.0));
        let ups = h
            .add_child("ups", LevelKind::Ups, Watts::ZERO, ats)
            .unwrap();
        let pdu = h
            .add_child("pdu", LevelKind::Pdu, Watts::new(100.0), ups)
            .unwrap();
        h.add_child("rack", LevelKind::Rack, Watts::new(100.0), pdu)
            .unwrap();
        match HierarchicalMarket::new(&h, Vec::new()) {
            Err(FederatedError::ZeroCapacity { node, name }) => {
                assert_eq!(node, ups);
                assert_eq!(name, "ups");
            }
            other => panic!("expected ZeroCapacity, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_fencing_fraction_is_configurable() {
        let (mut h, _, _, rack_a, rack_b) = two_ups_tree(10.0, 5.0);
        h.set_load(rack_a, Watts::new(1000.0)).unwrap();
        h.set_load(rack_b, Watts::new(1000.0)).unwrap();
        let inst = instance(4);
        let market = HierarchicalMarket::new(&h, vec![rack_a, rack_a, rack_b, rack_b]).unwrap();
        assert_eq!(market.exhausted_frac(), DEFAULT_EXHAUSTED_FRAC);
        // The clamp keeps pathological values out.
        let market = market.with_exhausted_frac(5.0);
        assert_eq!(market.exhausted_frac(), 0.5);
        // With fencing effectively off, ceiling-clear leftovers are
        // re-marketed and the headline price escapes the single-pass
        // ceiling — exactly the compounding the default prevents.
        let market = market.with_exhausted_frac(0.0);
        assert_eq!(market.exhausted_frac(), 0.0);
        let outcome = market.clear(&inst, MclrMechanism::best_effort).unwrap();
        assert!(
            outcome.clearing.price().get() > 100.0 + 1e-9,
            "price {} should compound past the single-pass ceiling with fencing off",
            outcome.clearing.price().get()
        );
    }

    mod index {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        /// A random forest of 1–2 trees with 2–4 levels each (rooted at a
        /// PDU, UPS or ATS), 1–3 children per inner node and random
        /// positive capacities and rack loads. Returns the hierarchy and
        /// its rack ids.
        fn random_tree(rng: &mut ChaCha8Rng) -> (PowerHierarchy, Vec<usize>) {
            const KINDS: [LevelKind; 4] = [
                LevelKind::Ats,
                LevelKind::Ups,
                LevelKind::Pdu,
                LevelKind::Rack,
            ];
            let mut h = PowerHierarchy::new();
            let mut racks = Vec::new();
            for t in 0..rng.gen_range(1usize..=2) {
                let top = 4 - rng.gen_range(2usize..=4);
                let root = h.add_root(
                    format!("root-{t}"),
                    KINDS[top],
                    Watts::new(rng.gen_range(1.0..1e4)),
                );
                let mut frontier = vec![root];
                for &kind in &KINDS[top + 1..] {
                    let mut next = Vec::new();
                    for &parent in &frontier {
                        for _ in 0..rng.gen_range(1usize..=3) {
                            let cap = Watts::new(rng.gen_range(1.0..1e4));
                            let id = h.add_child("n", kind, cap, parent).unwrap();
                            next.push(id);
                        }
                    }
                    frontier = next;
                }
                racks.extend(frontier);
            }
            for &rack in &racks {
                h.set_load(rack, Watts::new(rng.gen_range(0.0..2e4)))
                    .unwrap();
            }
            (h, racks)
        }

        /// The pre-index query: every row whose rack is among the node's
        /// leaf racks, in ascending row order.
        fn reference_rows(h: &PowerHierarchy, assignment: &[usize], node: usize) -> Vec<u32> {
            let racks = h.leaf_racks(node);
            assignment
                .iter()
                .enumerate()
                .filter(|(_, rack)| racks.binary_search(rack).is_ok())
                .map(|(row, _)| row as u32)
                .collect()
        }

        /// The pre-index committed watts of a subtree, summed over the
        /// same filter.
        fn reference_committed(
            h: &PowerHierarchy,
            assignment: &[usize],
            node: usize,
            committed: &[f64],
            wpu: &[f64],
        ) -> f64 {
            let racks = h.leaf_racks(node);
            assignment
                .iter()
                .enumerate()
                .filter(|(_, rack)| racks.binary_search(rack).is_ok())
                .map(|(row, _)| committed[row] * wpu[row])
                .sum()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The subtree index returns exactly the old filter's rows, and
            /// the deficits it sums are bit-identical to the old sums, on
            /// random trees, assignments and committed vectors (zeros
            /// included).
            #[test]
            fn index_matches_the_leaf_rack_filter_bit_for_bit(
                seed in 0u64..=u64::MAX,
                rows in 0usize..80,
            ) {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let (h, racks) = random_tree(&mut rng);
                let assignment: Vec<usize> = (0..rows)
                    .map(|_| racks[rng.gen_range(0..racks.len())])
                    .collect();
                let committed: Vec<f64> = (0..rows)
                    .map(|_| if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(0.0..4.0) })
                    .collect();
                let wpu: Vec<f64> = (0..rows).map(|_| rng.gen_range(10.0..200.0)).collect();
                let market = HierarchicalMarket::new(&h, assignment.clone()).unwrap();
                let index = SubtreeRows::new(&h, &assignment);
                for node in 0..h.len() {
                    let expect_rows = reference_rows(&h, &assignment, node);
                    prop_assert_eq!(index.rows(node), expect_rows.as_slice(), "node {} rows", node);
                    let shed = reference_committed(&h, &assignment, node, &committed, &wpu);
                    let expect = h.load_at(node).get() - shed - h.capacity_of(node).get();
                    let got = market.effective_deficit(&index, node, &committed, &wpu);
                    prop_assert_eq!(got.to_bits(), expect.to_bits(), "node {} deficit", node);
                }
                prop_assert!(index.rows(h.len()).is_empty());
            }
        }
    }

    #[test]
    fn single_thread_env_is_bit_identical() {
        // The parallel wave must not depend on worker count. The shim
        // collects in task order regardless, so this pins the contract.
        let (mut h, _, _, rack_a, rack_b) = two_ups_tree(1e6, 900.0);
        h.set_load(rack_a, Watts::new(1000.0)).unwrap();
        h.set_load(rack_b, Watts::new(1100.0)).unwrap();
        let inst = instance(4);
        let market = HierarchicalMarket::new(&h, vec![rack_a, rack_a, rack_b, rack_b]).unwrap();
        let a = market.clear(&inst, MclrMechanism::best_effort).unwrap();
        let b = market.clear(&inst, MclrMechanism::best_effort).unwrap();
        assert_eq!(a.clearing.reductions(), b.clearing.reductions());
        assert_eq!(a.clearing.payment_rates(), b.clearing.payment_rates());
        assert_eq!(a.levels, b.levels);
    }
}

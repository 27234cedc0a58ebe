//! Integration tests for the hierarchical federated market: flat
//! equivalence across every clearing scheme, topology round-trips, and
//! end-to-end determinism of federated simulation runs.

use std::sync::Arc;

use mpr_core::bidding::StaticStrategy;
use mpr_core::{
    ChainLevel, CostModel, EqlCappingMechanism, EqlMechanism, FallbackChain, InteractiveConfig,
    InteractiveMechanism, MarketInstance, MclrMechanism, Mechanism, OptMechanism, OptMethod,
    ParticipantSpec, ScaledCost, VcgMechanism, Watts,
};
use mpr_power::{HierarchicalMarket, LevelKind, PowerHierarchy, TopologySpec};
use mpr_sim::{Algorithm, SimConfig, Simulation};
use mpr_tests::test_trace;
use proptest::prelude::*;

/// A market instance every scheme can clear: cooperative standing bids
/// (MPR-STAT), cost curves (MPR-INT, OPT, VCG) and core counts (EQL).
fn full_instance(jobs: usize) -> MarketInstance {
    let profiles = mpr_apps::cpu_profiles();
    (0..jobs)
        .map(|i| {
            let cost = Arc::new(ScaledCost::new(
                profiles[i % profiles.len()].cost_model(1.0),
                8.0,
            ));
            let supply = StaticStrategy::Cooperative
                .supply_for(cost.as_ref())
                .expect("catalog costs are valid");
            ParticipantSpec::new(i as u64, cost.delta_max(), Watts::new(125.0))
                .with_bid(supply.bid())
                .with_cores(8.0)
                .with_cost(cost)
        })
        .collect()
}

/// A tree whose only binding constraint is the root: two racks with huge
/// local capacity under one ATS capped `target` below the load.
fn root_constrained_tree(load: f64, target: f64) -> (PowerHierarchy, usize, usize) {
    let mut h = PowerHierarchy::new();
    let ats = h.add_root("ats", LevelKind::Ats, Watts::new(load - target));
    let ups = h
        .add_child("ups", LevelKind::Ups, Watts::new(1e12), ats)
        .unwrap();
    let pdu = h
        .add_child("pdu", LevelKind::Pdu, Watts::new(1e12), ups)
        .unwrap();
    let rack_a = h
        .add_child("rack-a", LevelKind::Rack, Watts::new(1e12), pdu)
        .unwrap();
    let rack_b = h
        .add_child("rack-b", LevelKind::Rack, Watts::new(1e12), pdu)
        .unwrap();
    h.set_load(rack_a, Watts::new(load * 0.5)).unwrap();
    h.set_load(rack_b, Watts::new(load * 0.5)).unwrap();
    (h, rack_a, rack_b)
}

/// Every paper scheme as a fresh boxed mechanism, by name.
fn scheme(name: &str) -> Box<dyn Mechanism> {
    match name {
        "mpr-stat" => Box::new(MclrMechanism::strict()),
        "mpr-int" => Box::new(InteractiveMechanism::strict(InteractiveConfig::default())),
        "opt" => Box::new(OptMechanism::strict(OptMethod::Auto)),
        "eql" => Box::new(EqlMechanism),
        "vcg" => Box::new(VcgMechanism::strict(OptMethod::Auto)),
        "chain" => Box::new(
            FallbackChain::new()
                .stage(
                    ChainLevel::Interactive,
                    InteractiveMechanism::best_effort(InteractiveConfig::default()),
                )
                .stage(ChainLevel::StaticFallback, MclrMechanism::best_effort())
                .stage(ChainLevel::EqlCapping, EqlCappingMechanism),
        ),
        other => panic!("unknown scheme {other}"),
    }
}

const SCHEMES: [&str; 6] = ["mpr-stat", "mpr-int", "opt", "eql", "vcg", "chain"];

/// On a root-only-constrained tree the federated sweep runs exactly one
/// market over the identity view, and `Clearing::merge` returns it
/// verbatim — bit-identical to the flat clear, for every scheme.
fn assert_flat_equivalent(jobs: usize, target_frac: f64) {
    let inst = full_instance(jobs);
    let load = 1e6;
    let asked = inst.attainable_watts().get() * target_frac;
    let (h, rack_a, rack_b) = root_constrained_tree(load, asked);
    // The sweep derives its target as `load − capacity`, which can differ
    // from `asked` by an ULP; the flat comparator must see the exact same
    // number or bit-equality is meaningless.
    let target = load - (load - asked);
    let assignment: Vec<usize> = (0..jobs)
        .map(|i| if i % 2 == 0 { rack_a } else { rack_b })
        .collect();
    let market = HierarchicalMarket::new(&h, assignment).unwrap();
    for name in SCHEMES {
        let outcome = market
            .clear(&inst, || scheme(name))
            .unwrap_or_else(|e| panic!("{name}: federated clear failed: {e}"));
        assert_eq!(outcome.markets, 1, "{name}: one pristine root market");
        let mut flat = scheme(name);
        let expect = flat
            .clear(&inst, Watts::new(target))
            .unwrap_or_else(|e| panic!("{name}: flat clear failed: {e}"));
        assert_eq!(
            outcome.clearing.reductions(),
            expect.reductions(),
            "{name}: reductions diverge"
        );
        assert_eq!(outcome.clearing.price(), expect.price(), "{name}: price");
        assert_eq!(
            outcome.clearing.participant_prices(),
            expect.participant_prices(),
            "{name}: participant prices"
        );
        assert_eq!(
            outcome.clearing.payment_rates(),
            expect.payment_rates(),
            "{name}: payment rates"
        );
        assert_eq!(
            outcome.clearing.diagnostics(),
            expect.diagnostics(),
            "{name}: diagnostics"
        );
    }
}

#[test]
fn every_scheme_is_flat_equivalent_on_a_root_constrained_tree() {
    assert_flat_equivalent(24, 0.3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The flat-equivalence regression across instance sizes and targets
    /// (feasible ones: strict mechanisms refuse infeasible asks).
    #[test]
    fn flat_equivalence_holds_across_sizes_and_targets(
        jobs in 4usize..28,
        target_frac in 0.05f64..0.5,
    ) {
        assert_flat_equivalent(jobs, target_frac);
    }
}

/// The topology spec round-trips through its JSON codec with a stable
/// fingerprint, and any capacity change moves the fingerprint.
#[test]
fn topology_round_trips_and_fingerprints_capacity_changes() {
    let spec = TopologySpec::parse(include_str!("../../examples/tree.json")).unwrap();
    let reparsed = TopologySpec::parse(&spec.to_json()).unwrap();
    assert_eq!(spec, reparsed);
    assert_eq!(spec.fingerprint(), reparsed.fingerprint());

    let mut tweaked = spec.clone();
    tweaked.nodes[1].capacity = Watts::new(spec.nodes[1].capacity.get() * 0.5);
    assert_ne!(spec.fingerprint(), tweaked.fingerprint());

    // The spec materializes into a hierarchy whose racks carry the jobs.
    let h = spec.to_hierarchy().unwrap();
    assert_eq!(h.len(), spec.nodes.len());
    assert!(!spec.rack_ids().is_empty());
    assert!(spec.root_capacity().get() > 0.0);
}

/// Two identical federated runs are bit-identical: the parallel depth
/// waves commit in deterministic (depth, id) order regardless of worker
/// interleaving, so the whole simulation reproduces. (CI additionally
/// diffs `RAYON_NUM_THREADS=1` against the default pool via the CLI.)
#[test]
fn federated_simulation_is_deterministic_end_to_end() {
    let trace = test_trace(2.0, 11);
    let spec = TopologySpec::parse(include_str!("../../examples/tree.json")).unwrap();
    let cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_topology(spec);
    let a = Simulation::new(&trace, cfg.clone()).run();
    let b = Simulation::new(&trace, cfg).run();
    let fa = a.federated.as_ref().expect("federated stats");
    let fb = b.federated.as_ref().expect("federated stats");
    assert_eq!(
        fa, fb,
        "federated accounting must reproduce bit-identically"
    );
    assert!(fa.events > 0, "the run must clear overloads federated");
    assert!(fa.markets >= fa.events);
    assert!(!fa.levels.is_empty());
    assert_eq!(
        a.reduction_core_hours.to_bits(),
        b.reduction_core_hours.to_bits()
    );
    assert_eq!(a.reward_core_hours.to_bits(), b.reward_core_hours.to_bits());
    assert_eq!(a.cost_core_hours.to_bits(), b.cost_core_hours.to_bits());
}

/// The federated path reports residuals per level and they are consistent:
/// a level's residual never exceeds its cumulative target, and the merged
/// totals absorb every level.
#[test]
fn federated_per_level_accounting_is_consistent() {
    let trace = test_trace(2.0, 11);
    let spec = TopologySpec::parse(include_str!("../../examples/tree.json")).unwrap();
    let cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_topology(spec);
    let r = Simulation::new(&trace, cfg).run();
    let fed = r.federated.as_ref().expect("federated stats");
    assert!(fed.residual_watts >= 0.0);
    for (name, lv) in &fed.levels {
        assert!(lv.markets > 0, "{name}: reported levels ran markets");
        assert!(
            lv.cleared_watts <= lv.target_watts + 1e-6,
            "{name}: cleared {} exceeds cumulative target {}",
            lv.cleared_watts,
            lv.target_watts
        );
        assert!(lv.residual_watts >= 0.0, "{name}");
    }
    let total_markets: usize = fed.levels.values().map(|l| l.markets).sum();
    assert_eq!(total_markets, fed.markets);
}

/// Which levels of the 4 × 4 × 4 tree bind in a pinned clear.
#[derive(Clone, Copy)]
enum Binding {
    /// Every third rack is capped below its load; nothing above binds.
    Racks,
    /// Only the ATS is capped below the total load.
    Root,
    /// The rack caps, UPS 0 and the ATS all bind, so upper markets re-clear
    /// partially committed subtrees.
    Nested,
}

/// An ATS feeding 4 UPSes × 4 PDUs × 4 racks (85 nodes), with `rows` jobs
/// of [`full_instance`] interleaved over the 64 racks. Every rack carries
/// 1.5× its rows' sheddable watts plus 500 W; a binding node is capped
/// 30 % of its sheddable watts below its load.
fn tree_4x4x4(rows: usize, binding: Binding) -> (PowerHierarchy, Vec<usize>, MarketInstance) {
    const AMPLE: f64 = 1e12;
    let inst = full_instance(rows);
    let rack_of = |row: usize| (row * 13) % 64;
    let mut shed = [0.0f64; 64];
    for (row, (d, w)) in inst
        .deltas()
        .iter()
        .zip(inst.watts_per_unit_slice())
        .enumerate()
    {
        shed[rack_of(row)] += d * w;
    }
    let load = |r: usize| 1.5 * shed[r] + 500.0;
    let total_load: f64 = (0..64).map(load).sum();
    let total_shed: f64 = shed.iter().sum();
    let ups0_load: f64 = (0..16).map(load).sum();
    let ups0_shed: f64 = shed[..16].iter().sum();
    let (ats_cap, ups0_cap, racks_bind) = match binding {
        Binding::Racks => (AMPLE, AMPLE, true),
        Binding::Root => (total_load - 0.3 * total_shed, AMPLE, false),
        Binding::Nested => (
            total_load - 0.3 * total_shed,
            ups0_load - 0.3 * ups0_shed,
            true,
        ),
    };
    let mut h = PowerHierarchy::new();
    let ats = h.add_root("ats", LevelKind::Ats, Watts::new(ats_cap));
    let mut racks = Vec::with_capacity(64);
    for u in 0..4 {
        let cap = if u == 0 { ups0_cap } else { AMPLE };
        let ups = h
            .add_child(format!("ups-{u}"), LevelKind::Ups, Watts::new(cap), ats)
            .unwrap();
        for p in 0..4 {
            let pdu = h
                .add_child(
                    format!("pdu-{u}.{p}"),
                    LevelKind::Pdu,
                    Watts::new(AMPLE),
                    ups,
                )
                .unwrap();
            for _ in 0..4 {
                let r = racks.len();
                let cap = if racks_bind && r % 3 == 0 {
                    load(r) - 0.3 * shed[r]
                } else {
                    AMPLE
                };
                let rack = h
                    .add_child(format!("rack-{r}"), LevelKind::Rack, Watts::new(cap), pdu)
                    .unwrap();
                h.set_load(rack, Watts::new(load(r))).unwrap();
                racks.push(rack);
            }
        }
    }
    let assignment = (0..rows).map(|row| racks[rack_of(row)]).collect();
    (h, assignment, inst)
}

/// FNV-1a over every output of a federated clear: the merged reductions,
/// participant prices, payment rates and price, every level report, and
/// the sweep totals.
fn outcome_digest(outcome: &mpr_power::FederatedOutcome) -> u64 {
    let mut enc = mpr_core::codec::Enc::with_capacity(4096);
    let clearing = &outcome.clearing;
    for v in clearing
        .reductions()
        .iter()
        .chain(clearing.participant_prices())
        .chain(clearing.payment_rates())
    {
        enc.f64(*v);
    }
    enc.f64(clearing.price().get());
    for l in &outcome.levels {
        enc.usize(l.id);
        enc.usize(l.depth);
        enc.f64(l.target.get());
        enc.f64(l.cleared.get());
        enc.usize(l.markets);
        enc.f64(l.residual.get());
        enc.f64(l.propagated_residual.get());
        enc.bool(l.escalated);
    }
    enc.usize(outcome.rounds);
    enc.usize(outcome.markets);
    enc.f64(outcome.initial_deficit.get());
    enc.f64(outcome.residual.get());
    mpr_core::codec::fnv1a(enc.as_bytes())
}

/// Pins rack-, root- and nested-binding clears of a 4 × 4 × 4 tree,
/// bit for bit, under MPR-STAT and OPT: any change to how the sweep finds
/// subtree rows, sums committed watts or orders its markets moves a
/// digest. Each case pins the MPR-STAT and OPT digests, the reported level
/// ids (the same under both), and `(markets, rounds)` per mechanism.
#[test]
fn pinned_4x4x4_clears_are_bit_identical() {
    let binding_racks = vec![
        3, 6, 10, 14, 18, 21, 26, 30, 34, 37, 41, 46, 50, 53, 57, 61, 66, 69, 73, 77, 81, 84,
    ];
    let mut nested_levels = vec![0, 1];
    nested_levels.extend(&binding_racks);
    let cases = [
        (
            "racks",
            Binding::Racks,
            (0x1d0e_7c94_c50c_a17c_u64, 0x2be8_b06d_922a_0c1b_u64),
            binding_racks,
            [(22, 1), (22, 1)],
        ),
        (
            "root",
            Binding::Root,
            (0xf539_8145_1d31_86da, 0x8d35_1d4c_e58a_c42c),
            vec![0],
            [(1, 1), (1, 1)],
        ),
        (
            "nested",
            Binding::Nested,
            (0x75c5_c2cc_8af8_d7e0, 0xad0f_ed82_1cd6_291a),
            nested_levels,
            [(24, 1), (26, 3)],
        ),
    ];
    for (name, binding, digests, levels, sweeps) in cases {
        let (h, assignment, inst) = tree_4x4x4(256, binding);
        let market = HierarchicalMarket::new(&h, assignment).unwrap();
        let stat = market.clear(&inst, MclrMechanism::best_effort).unwrap();
        let opt = market
            .clear(&inst, || OptMechanism::best_effort(OptMethod::Auto))
            .unwrap();
        assert_eq!(
            (outcome_digest(&stat), outcome_digest(&opt)),
            digests,
            "{name}: digests"
        );
        for (mechanism, outcome, sweep) in
            [("mpr-stat", &stat, sweeps[0]), ("opt", &opt, sweeps[1])]
        {
            let ids: Vec<usize> = outcome.levels.iter().map(|l| l.id).collect();
            assert_eq!(ids, levels, "{name}/{mechanism}: levels");
            assert_eq!(
                (outcome.markets, outcome.rounds),
                sweep,
                "{name}/{mechanism}: (markets, rounds)"
            );
        }
    }
}

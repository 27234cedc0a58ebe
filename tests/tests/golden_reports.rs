//! Golden report matrix: the exact `SimReport` of seven fixed runs over a
//! short synthetic Gaia trace, pinned as an FNV-1a hash of its `Debug`
//! rendering. `Debug` prints every `f64` in shortest round-trip form, so a
//! matching hash means a bit-identical report: every counter, cost, price
//! and event.
//!
//! The matrix covers each MPR-INT exchange path the engine can take (flat,
//! behind faulty agents, over a lossy network, both at once) and the three
//! single-shot paths (MPR-STAT, EQL, and OPT federated over a balanced
//! tree). A refactor of the clearing layers must leave every hash as is.

use mpr_core::codec::fnv1a;
use mpr_power::TopologySpec;
use mpr_sim::{Algorithm, FaultPlan, NetPlan, SimConfig, SimReport, Simulation};
use mpr_workload::{ClusterSpec, Trace, TraceGenerator};

/// An ATS over two UPS → PDU → rack chains, every child able to carry its
/// share of the root's scaled deficit.
const BALANCED_TREE: &str = r#"{
  "name": "balanced-two-ups",
  "nodes": [
    {"name": "ats", "kind": "ats", "capacity_w": 12000.0, "parent": null},
    {"name": "ups-a", "kind": "ups", "capacity_w": 6000.0, "parent": 0},
    {"name": "ups-b", "kind": "ups", "capacity_w": 6000.0, "parent": 0},
    {"name": "pdu-a", "kind": "pdu", "capacity_w": 6000.0, "parent": 1},
    {"name": "pdu-b", "kind": "pdu", "capacity_w": 6000.0, "parent": 2},
    {"name": "rack-a", "kind": "rack", "capacity_w": 6000.0, "parent": 3},
    {"name": "rack-b", "kind": "rack", "capacity_w": 6000.0, "parent": 4}
  ]
}"#;

/// The generator's default-seed Gaia trace over three days.
fn trace() -> Trace {
    TraceGenerator::new(ClusterSpec::gaia().with_span_days(3.0)).generate()
}

fn faults() -> FaultPlan {
    FaultPlan::unresponsive_and_crash(0.3, 0.1)
}

fn net() -> NetPlan {
    NetPlan {
        drop_prob: 0.3,
        duplicate_prob: 0.1,
        partition_prob: 0.05,
        ..NetPlan::default()
    }
}

fn check(name: &str, config: SimConfig, expected: u64) -> SimReport {
    let report = Simulation::new(&trace(), config).run();
    let rendered = format!("{report:?}");
    let hash = fnv1a(rendered.as_bytes());
    assert_eq!(
        hash, expected,
        "{name}: report changed (hash {hash:#018x}):\n{rendered}"
    );
    report
}

#[test]
fn mpr_int_flat() {
    let r = check(
        "MPR-INT",
        SimConfig::new(Algorithm::MprInt, 15.0),
        0x19b1_3140_9f43_e8dc,
    );
    assert!(r.int_iterations_total > 0);
}

#[test]
fn mpr_int_with_agent_faults() {
    let r = check(
        "MPR-INT + faults",
        SimConfig::new(Algorithm::MprInt, 15.0).with_faults(faults()),
        0x99ef_31e3_3d7a_c0ec,
    );
    assert!(r.degradation.participants_quarantined > 0);
}

#[test]
fn mpr_int_over_a_lossy_network() {
    let r = check(
        "MPR-INT + net",
        SimConfig::new(Algorithm::MprInt, 15.0).with_net(net()),
        0x8097_733c_5004_1c9b,
    );
    assert!(r.transport.is_some_and(|t| t.messages_dropped > 0));
}

#[test]
fn mpr_int_with_agent_faults_over_a_lossy_network() {
    let r = check(
        "MPR-INT + faults + net",
        SimConfig::new(Algorithm::MprInt, 15.0)
            .with_faults(faults())
            .with_net(net()),
        0x033e_34bd_352a_b6eb,
    );
    assert!(r.degradation.participants_quarantined > 0);
    assert!(r.transport.is_some());
}

#[test]
fn mpr_stat() {
    check(
        "MPR-STAT",
        SimConfig::new(Algorithm::MprStat, 15.0),
        0x4735_535d_6538_c09d,
    );
}

#[test]
fn eql() {
    check(
        "EQL",
        SimConfig::new(Algorithm::Eql, 15.0),
        0x8d98_5a6e_3552_395d,
    );
}

#[test]
fn opt_federated_over_a_balanced_tree() {
    let spec = TopologySpec::parse(BALANCED_TREE).expect("balanced tree parses");
    let r = check(
        "OPT federated",
        SimConfig::new(Algorithm::Opt, 15.0).with_topology(spec),
        0x0b17_39d7_f8a5_31eb,
    );
    assert!(r.federated.is_some_and(|f| f.markets > 0));
}

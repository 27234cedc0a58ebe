//! Golden byte formats: FNV-1a hashes of every byte stream the workspace
//! persists or hands to another process — checkpoint files, config
//! fingerprints, WAL images, topology JSON, chaos repro JSON and
//! `mpr ledger dump --json` output — over fixed default-seed runs. A codec
//! refactor must leave every hash as is; a real format change bumps the
//! matching version constant and re-records the hash here.

use std::path::PathBuf;
use std::process::Command;

use mpr_chaos::Scenario;
use mpr_power::telemetry::SensorFaultConfig;
use mpr_power::TopologySpec;
use mpr_sim::{
    run_durable, Algorithm, CheckpointPlan, DurabilityPlan, FaultPlan, NetPlan, RunOutcome,
    SimConfig, Simulation, TelemetryConfig,
};
use mpr_workload::{ClusterSpec, Trace, TraceGenerator};

/// The reference FNV-1a loop, kept separate from the codec it checks.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn assert_hash(name: &str, bytes: &[u8], expected: u64) {
    let hash = fnv1a(bytes);
    assert_eq!(
        hash,
        expected,
        "{name}: bytes changed (hash {hash:#018x}, {} bytes)",
        bytes.len()
    );
}

/// The generator's default-seed Gaia trace over three days.
fn trace() -> Trace {
    TraceGenerator::new(ClusterSpec::gaia().with_span_days(3.0)).generate()
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpr_bytes_{}_{tag}", std::process::id()))
}

/// The same balanced tree `tests/tests/golden_reports.rs` clears over.
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

fn balanced_tree() -> TopologySpec {
    TopologySpec::parse(BALANCED_TREE).expect("balanced tree parses")
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

/// The checkpoint file a run leaves on disk when killed right before
/// `kill_at` (checkpointing every `every` slots).
fn checkpoint_bytes(
    tag: &str,
    trace: &Trace,
    cfg: SimConfig,
    every: usize,
    kill_at: usize,
) -> Vec<u8> {
    let path = tmp(tag);
    let plan = CheckpointPlan::every(&path, every).with_kill_at(kill_at);
    let outcome = Simulation::new(trace, cfg)
        .run_with_checkpoints(&plan)
        .expect("checkpointed run");
    assert!(
        matches!(outcome, RunOutcome::Killed { .. }),
        "{tag}: kill point must fire"
    );
    let bytes = std::fs::read(&path).expect("checkpoint on disk");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// OPT federated over the balanced tree with faulty sensors and a
/// recorded timeline: the checkpoint carries federated levels, the
/// telemetry pipeline and the timeline.
fn federated_telemetry_timeline() -> SimConfig {
    SimConfig::new(Algorithm::Opt, 15.0)
        .with_topology(balanced_tree())
        .with_telemetry(TelemetryConfig::with_faults(SensorFaultConfig {
            noise_sigma_frac: 0.02,
            dropout_prob: 0.2,
            delay_polls: 2,
            ..SensorFaultConfig::default()
        }))
        .with_timeline()
}

#[test]
fn checkpoint_files_are_byte_stable() {
    let trace = trace();
    let fed = checkpoint_bytes("fed", &trace, federated_telemetry_timeline(), 500, 3000);
    let int = checkpoint_bytes(
        "int",
        &trace,
        SimConfig::new(Algorithm::MprInt, 15.0)
            .with_faults(faults())
            .with_net(net()),
        500,
        3000,
    );
    let got = [fnv1a(&fed), fnv1a(&int)];
    assert_eq!(
        got,
        [0x0bea_4090_f731_531e, 0xfc6f_491b_7eaf_b383],
        "checkpoints (fed, int): {got:#018x?}"
    );
}

#[test]
fn config_fingerprints_are_stable() {
    // The seven configs of `tests/tests/golden_reports.rs`, in its order.
    const FINGERPRINTS: [u64; 7] = [
        0x7fbf_f4bf_ddd5_185d,
        0x749a_1196_7bad_4689,
        0xcecf_0e10_1566_eea7,
        0x60a6_f103_329c_d644,
        0x65ce_0770_7c1d_c616,
        0xfd1e_324e_a5f9_8d66,
        0x9e9d_b188_ef00_7ace,
    ];
    // The fingerprint sits at bytes 12..20 of every checkpoint header; a
    // kill at slot 0 writes exactly one checkpoint without simulating.
    let trace = trace();
    let configs = [
        SimConfig::new(Algorithm::MprInt, 15.0),
        SimConfig::new(Algorithm::MprInt, 15.0).with_faults(faults()),
        SimConfig::new(Algorithm::MprInt, 15.0).with_net(net()),
        SimConfig::new(Algorithm::MprInt, 15.0)
            .with_faults(faults())
            .with_net(net()),
        SimConfig::new(Algorithm::MprStat, 15.0),
        SimConfig::new(Algorithm::Eql, 15.0),
        SimConfig::new(Algorithm::Opt, 15.0).with_topology(balanced_tree()),
    ];
    let got: Vec<u64> = configs
        .into_iter()
        .map(|cfg| {
            let bytes = checkpoint_bytes("fprint", &trace, cfg, 1, 0);
            u64::from_le_bytes(bytes[12..20].try_into().expect("header"))
        })
        .collect();
    assert_eq!(got, FINGERPRINTS, "fingerprints: {got:#018x?}");
}

/// The WAL image of a durable MPR-STAT run killed mid-run and recovered.
fn durable_wal_image() -> Vec<u8> {
    let cfg =
        SimConfig::new(Algorithm::MprStat, 15.0).with_durability(DurabilityPlan::kill_at(1500));
    run_durable(&trace(), cfg).expect("durable run").wal_image
}

#[test]
fn wal_image_is_byte_stable() {
    assert_hash("WAL image", &durable_wal_image(), 0x9f15_93aa_3e01_51d3);
}

#[test]
fn ledger_dump_json_on_a_truncated_tail_is_byte_stable() {
    let mut image = durable_wal_image();
    image.truncate(image.len() - 5);
    let path = tmp("wal");
    std::fs::write(&path, &image).expect("write wal");
    let out = Command::new(env!("CARGO_BIN_EXE_mpr"))
        .args(["ledger", "dump", "--json"])
        .arg(&path)
        .output()
        .expect("run mpr ledger");
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_hash("mpr ledger dump --json", &out.stdout, 0xffc3_798e_2b95_4e8c);
}

#[test]
fn topology_json_and_fingerprint_are_stable() {
    let spec = TopologySpec::parse(include_str!("../../../examples/tree.json")).expect("tree");
    let got = [fnv1a(spec.to_json().as_bytes()), spec.fingerprint()];
    assert_eq!(
        got,
        [0x96d6_05fd_4cad_0fd7, 0x3a99_c68d_3655_07f0],
        "tree.json (to_json, fingerprint): {got:#018x?}"
    );
}

#[test]
fn chaos_repro_json_is_byte_stable() {
    let hashes: Vec<u64> = (0..4)
        .map(|seed| fnv1a(Scenario::generate(seed, 0).to_json(0).as_bytes()))
        .collect();
    assert_eq!(
        hashes,
        [
            0xc372_60a5_0945_ae3c,
            0xbd25_411d_af47_4052,
            0x0701_4f44_472d_95ea,
            0x1a12_9e5e_40dc_957e
        ],
        "chaos seeds 0-3: {hashes:#018x?}"
    );
}

//! The operating-point bounds keep the benchmark off pathological inputs.
//!
//! The federated workload clears over `trees/balanced.json`, not the
//! repository's quickstart tree `examples/tree.json`. The quickstart tree
//! hangs 2.5 kW racks and 3 kW UPSes under a 12 kW ATS, so once the tree
//! is scaled to the run's capacity every rack market is asked for more
//! than its jobs can shed: the run sits overloaded most of the time and
//! every federated clearing is infeasible (ROADMAP item 1). These tests
//! keep that defect visible: swapping the quickstart tree in must trip the
//! bounds, while the balanced tree passes them.

use mpr_perfbench::gaia::{generate, sanity_violations, Gaia, BALANCED_TREE};
use mpr_sim::{Algorithm, Simulation};

const QUICKSTART_TREE: &str = include_str!("../../examples/tree.json");
const DAYS: f64 = 5.0;
const SEED: u64 = 1;

fn violations(tree: &str, algorithm: Algorithm) -> Vec<String> {
    let mut input = generate(Gaia::OptFed, SEED, DAYS, tree).expect("tree parses");
    input.config.algorithm = algorithm;
    sanity_violations(&Simulation::new(&input.trace, input.config).run())
}

#[test]
fn balanced_tree_passes_the_bounds() {
    for algorithm in [Algorithm::Opt, Algorithm::MprStat] {
        let v = violations(BALANCED_TREE, algorithm);
        assert!(v.is_empty(), "{algorithm}: {v:?}");
    }
}

#[test]
fn quickstart_tree_trips_the_bounds() {
    let opt = violations(QUICKSTART_TREE, Algorithm::Opt);
    assert!(opt.iter().any(|v| v.starts_with("overloaded")), "{opt:?}");
    assert!(opt.iter().any(|v| v.contains("infeasible")), "{opt:?}");
    let stat = violations(QUICKSTART_TREE, Algorithm::MprStat);
    assert!(stat.iter().any(|v| v.starts_with("rewards")), "{stat:?}");
}

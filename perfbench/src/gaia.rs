//! The three Gaia workloads: a synthetic Gaia trace at 15 %
//! oversubscription, run by the simulator under MPR-INT (flat), OPT
//! (federated over the balanced tree) or MPR-STAT (flat, journaled to a
//! write-ahead ledger with one scripted kill).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mpr_durable::fsio::atomic_replace;
use mpr_power::TopologySpec;
use mpr_sim::{
    run_durable, Algorithm, CheckpointPlan, DurabilityPlan, EmergencyEventKind, SimConfig,
    SimReport, Simulation,
};
use mpr_workload::{ClusterSpec, Trace, TraceGenerator};

use crate::clock::{SlotClock, SlotTimes};
use crate::outcome::Outcome;
use crate::replay::replay;
use crate::stats::{median, P95_MIN_SAMPLES};
use crate::{millis, report_latencies, Layers, SETUP_REPEATS};

/// The balanced two-UPS tree the federated workload clears over: an ATS
/// at 12 kW over two UPS → PDU → rack chains at 6 kW each, so every child
/// can carry its share of the root's scaled deficit.
pub const BALANCED_TREE: &str = include_str!("../trees/balanced.json");

/// Oversubscription level of every Gaia workload, percent.
const OVERSUB_PCT: f64 = 15.0;

/// Slots between file checkpoints in the traced checkpoint measurement.
const CHECKPOINT_EVERY: usize = 240;

/// Which Gaia workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gaia {
    /// MPR-INT, flat.
    Int,
    /// OPT, federated over [`BALANCED_TREE`].
    OptFed,
    /// MPR-STAT, flat, through `run_durable` with a kill at the middle
    /// slot.
    StatWal,
}

impl Gaia {
    /// Trace length, days: long enough that every seed yields at least
    /// 200 responses per run, the p95 sample floor.
    #[must_use]
    pub fn days(self) -> f64 {
        match self {
            Gaia::Int => 30.0,
            Gaia::OptFed | Gaia::StatWal => 60.0,
        }
    }

    fn algorithm(self) -> Algorithm {
        match self {
            Gaia::Int => Algorithm::MprInt,
            Gaia::OptFed => Algorithm::Opt,
            Gaia::StatWal => Algorithm::MprStat,
        }
    }
}

/// A workload's generated inputs: the trace and the configuration the
/// program receives (without the slot clock).
pub struct Input {
    /// The synthetic Gaia trace.
    pub trace: Trace,
    /// The run configuration.
    pub config: SimConfig,
}

/// The job stream of every Gaia workload: the generator's default-seed
/// synthetic Gaia trace over `days`. It is fixed so that seeds compare
/// runs of the same size (see the README's "Seeds").
fn gaia_trace(days: f64) -> Trace {
    TraceGenerator::new(ClusterSpec::gaia().with_span_days(days)).generate()
}

/// Generates the inputs of `kind` from `seed` over `days`, clearing
/// federated runs over the topology document `tree`. The seed is the
/// simulation seed: profile assignment and every per-job draw.
///
/// # Errors
///
/// When `tree` is not a valid topology document.
pub fn generate(kind: Gaia, seed: u64, days: f64, tree: &str) -> Result<Input, String> {
    let trace = gaia_trace(days);
    let mut config = SimConfig::new(kind.algorithm(), OVERSUB_PCT).with_seed(seed);
    match kind {
        Gaia::Int => {}
        Gaia::OptFed => {
            let spec = TopologySpec::parse(tree).map_err(|e| format!("balanced tree: {e}"))?;
            config = config.with_topology(spec);
        }
        Gaia::StatWal => {
            let mid = (trace.span_secs() / config.slot_secs / 2.0) as u64;
            config = config.with_durability(DurabilityPlan::kill_at(mid));
        }
    }
    // Binding the configuration validates it, as every run does.
    drop(Simulation::new(&trace, config.clone()));
    Ok(Input { trace, config })
}

/// Ways a run's operating point is implausible for a healthy manager.
/// Without these bounds the benchmark could end up tuned on a
/// pathological input (an unbalanced tree drives every federated
/// clearing infeasible and the system overloaded most of the time).
#[must_use]
pub fn sanity_violations(report: &SimReport) -> Vec<String> {
    let mut out = Vec::new();
    let overload = report.overload_time_pct();
    if !(1.0..=15.0).contains(&overload) {
        out.push(format!(
            "overloaded {overload:.2}% of the time, outside [1, 15]%"
        ));
    }
    let market = report.algorithm.starts_with("MPR");
    if let (true, Some(reward)) = (market, report.reward_pct_of_cost()) {
        if !(100.0..=200.0).contains(&reward) {
            out.push(format!("rewards {reward:.1}% of cost, outside [100, 200]%"));
        }
    }
    if let Some(fed) = &report.federated {
        if fed.infeasible_events > 0 {
            out.push(format!(
                "{} of {} federated clearings infeasible on the tree",
                fed.infeasible_events, fed.events
            ));
        }
    }
    out
}

/// One timed pass over the workload.
struct Pass {
    report: SimReport,
    wal_image: Vec<u8>,
    wall_s: f64,
    slots: Option<SlotTimes>,
}

fn run_pass(input: &Input, clock: Option<&Arc<SlotClock>>, wal: &Path) -> Result<Pass, String> {
    let mut config = input.config.clone();
    if let Some(clock) = clock {
        clock.reset();
        config = config.with_capacity_policy(Arc::clone(clock) as _);
    }
    let start = Instant::now();
    let (report, wal_image, end) = if config.durability.is_some() {
        let run = run_durable(&input.trace, config).map_err(|e| format!("run_durable: {e}"))?;
        let end = Instant::now();
        // Persisted as `mpr simulate --wal` persists it.
        atomic_replace(wal, &run.wal_image).map_err(|e| format!("persist WAL: {e}"))?;
        (run.report, run.wal_image, end)
    } else {
        let report = Simulation::new(&input.trace, config).run();
        (report, Vec::new(), Instant::now())
    };
    let wall_s = start.elapsed().as_secs_f64();
    let slots = clock.map(|c| c.slot_times(end, &report));
    Ok(Pass {
        report,
        wal_image,
        wall_s,
        slots,
    })
}

/// Responses a report holds: slots with a `Declare` or `Escalate`.
fn responses(report: &SimReport) -> u64 {
    report
        .events
        .iter()
        .filter(|e| e.kind != EmergencyEventKind::Lift)
        .count() as u64
}

/// Determinism: a pass must reproduce the reference pass exactly. With
/// an unclocked reference this also shows the slot clock is invisible.
fn check_pass(out: &mut Outcome, reference: &Pass, pass: &Pass) {
    let same = format!("{:?}", pass.report) == format!("{:?}", reference.report);
    out.check(same && pass.wal_image == reference.wal_image, || {
        "report differs between passes (determinism / slot-clock invisibility)".into()
    });
}

fn check_durable(out: &mut Outcome, report: &SimReport, image: &[u8], seed: u64) {
    let Some(d) = &report.durability else {
        out.check(false, || "durable run reported no durability totals".into());
        return;
    };
    out.check(d.replay_divergence == 0, || {
        format!("{} replayed slots diverged", d.replay_divergence)
    });
    out.check(
        d.ledger_reward_core_hours.to_bits() == report.reward_core_hours.to_bits(),
        || {
            format!(
                "ledger rewards {} != report rewards {}",
                d.ledger_reward_core_hours, report.reward_core_hours
            )
        },
    );
    let scan = mpr_durable::scan(image, Some(seed));
    out.check(scan.corruption.is_none(), || {
        format!("WAL image scans dirty: {:?}", scan.corruption)
    });
    out.check(scan.records.len() as u64 == d.records_journaled, || {
        format!(
            "WAL image holds {} records, {} journaled",
            scan.records.len(),
            d.records_journaled
        )
    });
}

/// Runs a Gaia workload for `seconds` and reports its end-to-end
/// metrics, or with `traced` its per-layer metrics.
///
/// # Errors
///
/// When the workload cannot be set up or a run fails outright.
pub fn run(
    kind: Gaia,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let wal = scratch.join("ledger.wal");
    let mut setup_s = Vec::new();
    let mut input = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        input = Some(generate(kind, seed, kind.days(), BALANCED_TREE)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let input = input.expect("SETUP_REPEATS is positive");
    let clock = Arc::new(SlotClock::default());

    if traced {
        return traced_run(kind, &input, &clock, scratch, out);
    }

    // Every pass runs with the slot clock and must reproduce the first;
    // the traced run checks the clock against an unclocked pass.
    let started = Instant::now();
    let first = run_pass(&input, Some(&clock), &wal)?;
    let report = &first.report;
    if kind == Gaia::StatWal {
        check_durable(&mut out, report, &first.wal_image, seed);
    }
    for violation in sanity_violations(report) {
        out.check(false, || format!("operating point: {violation}"));
    }
    let mut runs = vec![first.wall_s];
    let mut respond_ms = first
        .slots
        .as_ref()
        .map(SlotTimes::respond_ms)
        .unwrap_or_default();
    // Each later pass is checked and dropped at once, so kept passes never
    // inflate the peak memory the run reports.
    while started.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(&input, Some(&clock), &wal)?;
        check_pass(&mut out, &first, &pass);
        runs.push(pass.wall_s);
        respond_ms.extend(
            pass.slots
                .as_ref()
                .map(SlotTimes::respond_ms)
                .unwrap_or_default(),
        );
    }

    out.attempted = responses(report);
    out.check(out.attempted >= P95_MIN_SAMPLES as u64, || {
        format!(
            "{} responses per run; the p95 needs {P95_MIN_SAMPLES}",
            responses(report)
        )
    });
    let infeasible = report.federated.as_ref().map_or(0, |f| f.infeasible_events);
    out.failed = (report.unmet_emergencies + infeasible) as u64;
    out.note(format!(
        "{} | {} days | seed {seed} | {} responses per pass | {} passes: {}",
        report.algorithm,
        kind.days(),
        out.attempted,
        runs.len(),
        runs.iter()
            .map(|r| format!("{r:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.note(format!(
        "overloaded {:.2}% | cost {:.1} ch over {:.1} ch reduced | rewards {:.1} ch",
        report.overload_time_pct(),
        report.cost_core_hours,
        report.reduction_core_hours,
        report.reward_core_hours
    ));

    out.metric("setup_s", median(&setup_s), "s");
    out.metric("run_s", median(&runs), "s");
    report_latencies(&mut out, &respond_ms);
    out.metric("cost_ch", report.cost_core_hours, "ch");
    Ok(out)
}

fn traced_run(
    kind: Gaia,
    input: &Input,
    clock: &Arc<SlotClock>,
    scratch: &Path,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    let wal = scratch.join("ledger.wal");

    let mut generate_ms = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let trace = gaia_trace(kind.days());
        generate_ms.push(millis(start));
        layers.set("workload.jobs", trace.len() as f64);
    }
    layers.set("workload.generate_ms", median(&generate_ms));

    // The untraced pass, then the same pass with the slot clock.
    let plain = run_pass(input, None, &wal)?;
    let clocked = run_pass(input, Some(clock), &wal)?;
    check_pass(&mut out, &plain, &clocked);
    let report = &clocked.report;
    let slots = clocked.slots.clone().unwrap_or_default();
    layers.set("trace.run_s", clocked.wall_s);
    layers.set("trace.overhead_s", clocked.wall_s - plain.wall_s);

    let respond = slots.respond_ms();
    let quiet = slots.quiet_s();
    let respond_total_ms: f64 = respond.iter().sum();
    layers.set("sim.slots", slots.spans.len() as f64);
    layers.set("sim.respond_slots", respond.len() as f64);
    layers.set("sim.respond_slot_ms", respond_total_ms);
    layers.set("sim.respond_share", respond_total_ms / 1e3 / clocked.wall_s);
    layers.set("sim.quiet_slot_ms", quiet.iter().sum::<f64>() * 1e3);
    layers.set(
        "sim.quiet_slot_p50_us",
        median(&quiet.iter().map(|s| s * 1e6).collect::<Vec<_>>()),
    );

    let replayed = replay(&input.trace, &input.config, report, false);
    let counted = replay(&input.trace, &input.config, report, true);
    out.check(replayed.same_clearings(&counted), || {
        "counting cost wrapper changed a replayed clearing".into()
    });
    let clears = replayed.clears.len().max(1) as f64;
    let clear_ms: Vec<f64> = replayed.clears.iter().map(|c| c.clear_ms).collect();
    let build_us: Vec<f64> = replayed.clears.iter().map(|c| c.build_us).collect();
    let rows: usize = replayed.clears.iter().map(|c| c.rows).sum();
    let met = replayed.clears.iter().filter(|c| c.met).count();
    layers.set("core.instance_rows", rows as f64 / clears);
    layers.set("core.instance_build_us", median(&build_us));
    layers.set("core.clear_p50_ms", median(&clear_ms));
    layers.set("core.clear_ms", clear_ms.iter().sum());
    layers.set("core.cost_evals", counted.cost_evals as f64 / clears);
    layers.set("core.replay_met_frac", met as f64 / clears);
    layers.set("core.int_rounds", report.int_iterations_total as f64);

    if let Some(fed) = &report.federated {
        layers.set("fed.markets", fed.markets as f64);
        layers.set("fed.rounds", fed.rounds as f64);
        layers.set("fed.infeasible", fed.infeasible_events as f64);
    }

    if kind == Gaia::StatWal {
        check_durable(&mut out, report, &clocked.wal_image, input.config.seed);
        durable_layers(input, &clocked, &slots, scratch, &mut layers, &mut out)?;
    }

    out.attempted = responses(report);
    out.note(format!(
        "{} | traced | slot clock {:.1} ms over a {:.1} ms run",
        report.algorithm,
        clocked.wall_s * 1e3 - plain.wall_s * 1e3,
        plain.wall_s * 1e3
    ));
    layers.into_outcome(&mut out);
    Ok(out)
}

/// The ledger, WAL and checkpoint layers of the journaled workload.
fn durable_layers(
    input: &Input,
    killed: &Pass,
    slots: &SlotTimes,
    scratch: &Path,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let d = killed.report.durability.unwrap_or_default();
    let image = &killed.wal_image;
    layers.set("ledger.records", d.records_journaled as f64);
    layers.set("ledger.payments", d.payments_journaled as f64);
    layers.set("ledger.replayed_records", d.records_replayed as f64);
    layers.set("ledger.wal_bytes", image.len() as f64);
    layers.set(
        "ledger.recover_ms",
        slots.recover_s.unwrap_or(f64::NAN) * 1e3,
    );

    // Journal overhead: the same run journaled without a kill, against
    // the plain engine.
    let mut bare = input.config.clone();
    bare.durability = None;
    let start = Instant::now();
    let plain = Simulation::new(&input.trace, bare.clone()).run();
    let plain_ms = millis(start);
    let mut journaled_cfg = input.config.clone();
    journaled_cfg.durability = Some(DurabilityPlan::default());
    let start = Instant::now();
    let journaled =
        run_durable(&input.trace, journaled_cfg).map_err(|e| format!("run_durable: {e}"))?;
    layers.set("ledger.overhead_ms", millis(start) - plain_ms);
    out.check(
        journaled.report.reward_core_hours.to_bits() == plain.reward_core_hours.to_bits(),
        || "journaling changed the run's rewards".into(),
    );

    let start = Instant::now();
    let scan = mpr_durable::scan(image, Some(input.config.seed));
    let scan_ms = millis(start);
    out.check(scan.corruption.is_none(), || {
        "final WAL image scans dirty".into()
    });
    layers.set("durable.scan_ms", scan_ms);
    layers.set(
        "durable.scan_mb_per_s",
        image.len() as f64 / 1e6 / (scan_ms / 1e3),
    );

    let start = Instant::now();
    atomic_replace(&scratch.join("persist.wal"), image).map_err(|e| format!("persist WAL: {e}"))?;
    layers.set("durable.persist_ms", millis(start));

    let ckpt = scratch.join("engine.ckpt");
    let start = Instant::now();
    let outcome = Simulation::new(&input.trace, bare)
        .run_with_checkpoints(&CheckpointPlan::every(&ckpt, CHECKPOINT_EVERY))
        .map_err(|e| format!("checkpointed run: {e}"))?;
    let wall_ms = millis(start);
    let written = plain.total_slots.div_ceil(CHECKPOINT_EVERY).max(1);
    out.check(
        outcome
            .into_report()
            .is_some_and(|r| format!("{r:?}") == format!("{plain:?}")),
        || "checkpointing changed the run's report".into(),
    );
    let bytes = std::fs::metadata(&ckpt)
        .map_err(|e| format!("checkpoint file: {e}"))?
        .len();
    layers.set("checkpoint.bytes", bytes as f64);
    layers.set("checkpoint.write_ms", (wall_ms - plain_ms) / written as f64);
    Ok(())
}

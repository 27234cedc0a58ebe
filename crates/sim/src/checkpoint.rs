//! Crash-safe checkpoint/resume for long simulations.
//!
//! A checkpoint is a versioned, checksummed binary snapshot of the full
//! [`EngineState`] — job stream RNG position, active jobs (as their drawn
//! scalars, rebuilt RNG-free on restore), emergency-controller state,
//! accounting, timeline, event log and the telemetry pipeline. Snapshots
//! are written atomically (temp file + rename), so a crash mid-write can
//! never leave a torn checkpoint: the previous one survives intact.
//!
//! Resuming a run from any of its checkpoints produces a `SimReport`
//! **bit-identical** to the uninterrupted run — floats are stored via
//! their raw IEEE bits, and every RNG in the engine snapshots its exact
//! stream position.
//!
//! The file format:
//!
//! ```text
//! magic    8 B   "MPRCKPT\0"
//! version  u32   format version (currently 1)
//! fprint   u64   FNV-1a fingerprint of the config + trace
//! len      u64   payload length in bytes
//! checksum u64   FNV-1a over the payload
//! payload  ...   little-endian engine state
//! ```
//!
//! The fingerprint guards against resuming under a different
//! configuration or trace (which would silently diverge). A custom
//! [`CapacityPolicy`](mpr_power::CapacityPolicy) cannot be fingerprinted
//! through its trait object; only its presence is recorded — callers must
//! resume with the same policy.

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};

use mpr_core::codec::{fnv1a, Dec, DecodeError, Enc, Wire};
use mpr_core::{ChainLevel, Watts};
use mpr_power::telemetry::{
    EstimatorConfig, FaultySensor, RobustEstimator, SensorFaultConfig, SensorReading, SplitMix64,
    TelemetryHealth,
};
use mpr_power::{ControllerState, EmergencyConfig, EmergencyController, EmergencyPhase};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::CostNoise;
use crate::engine::{Accounting, ActiveJob, EngineState, RunSetup, Simulation, TelemetryState};
use crate::report::{
    DegradationStats, EmergencyEvent, EmergencyEventKind, FederatedLevelStats, FederatedStats,
    ProfileStats, SimReport, Timeline, TransportTotals,
};

const MAGIC: [u8; 8] = *b"MPRCKPT\0";
const VERSION: u32 = 5;
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Filesystem failure while reading or writing.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file uses a format version this build cannot read.
    UnsupportedVersion(
        /// Version found in the file.
        u32,
    ),
    /// The payload checksum does not match (torn or corrupted file).
    ChecksumMismatch,
    /// The file ends before the encoded state does.
    Truncated,
    /// The payload decodes to structurally invalid state.
    Malformed(
        /// What was invalid.
        &'static str,
    ),
    /// The checkpoint was written by a simulation with a different
    /// configuration or trace.
    ConfigMismatch,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {VERSION})"
                )
            }
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (corrupted file)")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::ConfigMismatch => write!(
                f,
                "checkpoint was written under a different configuration or trace"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => CheckpointError::Truncated,
            DecodeError::Malformed(what) => CheckpointError::Malformed(what),
        }
    }
}

/// Where and how often to checkpoint, plus an optional injected kill
/// point for crash testing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPlan {
    /// Checkpoint file path. Each write replaces the previous checkpoint
    /// atomically.
    pub path: PathBuf,
    /// Write a checkpoint every this many slots (0 disables writing).
    pub every_slots: usize,
    /// Abort the run just before simulating this slot, simulating a
    /// crash. Used by the kill/resume tests; `None` in production.
    pub kill_at_slot: Option<usize>,
}

impl CheckpointPlan {
    /// A plan writing to `path` every `every_slots` slots.
    pub fn every(path: impl Into<PathBuf>, every_slots: usize) -> Self {
        Self {
            path: path.into(),
            every_slots,
            kill_at_slot: None,
        }
    }

    /// Injects a kill point: the run aborts right before this slot.
    #[must_use]
    pub fn with_kill_at(mut self, slot: usize) -> Self {
        self.kill_at_slot = Some(slot);
        self
    }

    /// A plan that neither writes nor kills — used by plain resume.
    pub(crate) fn resume_only() -> Self {
        Self {
            path: PathBuf::new(),
            every_slots: 0,
            kill_at_slot: None,
        }
    }
}

/// How a checkpointed run ended.
///
/// A transient return value, so the report-sized variant is kept inline
/// rather than boxed.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The run finished; here is its report.
    Completed(SimReport),
    /// The injected kill point fired.
    Killed {
        /// Slot at which the run was killed.
        at_slot: usize,
        /// Path of the checkpoint file to resume from.
        checkpoint: PathBuf,
    },
}

impl RunOutcome {
    /// The report, when the run completed.
    #[must_use]
    pub fn into_report(self) -> Option<SimReport> {
        match self {
            RunOutcome::Completed(r) => Some(r),
            RunOutcome::Killed { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Config/trace fingerprint.

/// FNV-1a fingerprint over everything that determines a run besides the
/// mutable engine state. Two simulations with equal fingerprints evolve
/// identically, so resuming across them is sound (modulo an uncheckable
/// custom capacity policy, whose presence alone is hashed).
pub(crate) fn fingerprint(sim: &Simulation<'_>) -> u64 {
    let cfg = &sim.config;
    let mut e = Enc::default();
    e.u8(match cfg.algorithm {
        crate::config::Algorithm::Opt => 0,
        crate::config::Algorithm::Eql => 1,
        crate::config::Algorithm::MprStat => 2,
        crate::config::Algorithm::MprInt => 3,
        crate::config::Algorithm::Vcg => 4,
    });
    // The resolved clearing mechanism (including the degradation-chain
    // shape under a fault plan): a checkpointed run can never resume under
    // a different `--mechanism`, even one that aliases the same algorithm
    // tag above.
    e.str(&crate::mechanism::descriptor(cfg));
    e.f64(cfg.oversubscription_pct);
    e.f64(cfg.slot_secs);
    e.f64(cfg.power_model.static_w_per_core());
    e.f64(cfg.power_model.dynamic_w_per_core());
    e.f64(cfg.buffer_frac);
    e.f64(cfg.cooldown_secs);
    e.f64(cfg.participation);
    e.f64(cfg.alpha);
    e.f64(cfg.alpha_spread);
    match cfg.cost_noise {
        CostNoise::None => {
            e.u8(0);
            e.f64(0.0);
        }
        CostNoise::Random { magnitude } => {
            e.u8(1);
            e.f64(magnitude);
        }
        CostNoise::Underestimate { fraction } => {
            e.u8(2);
            e.f64(fraction);
        }
    }
    e.usize(cfg.profiles.len());
    for p in &cfg.profiles {
        e.str(p.name());
        e.f64(p.unit_dynamic_power_w());
    }
    e.u64(cfg.seed);
    e.usize(cfg.int_max_iterations);
    e.opt_f64(cfg.capacity_watts_override);
    e.f64(cfg.phase_amplitude);
    e.f64(cfg.phase_period_secs);
    match cfg.fault_plan {
        Some(p) => {
            e.u8(1);
            e.f64(p.unresponsive_frac);
            e.f64(p.crash_frac);
            e.f64(p.stale_frac);
            e.f64(p.byzantine_frac);
            e.f64(p.byzantine_factor);
            e.usize(p.max_retries);
            e.usize(p.watchdog_window);
            e.f64(p.divergence_min_change);
        }
        None => e.u8(0),
    }
    // The transport/network plan changes every interactive clearing (fault
    // draws, deadlines, retry cadence), so resuming under different
    // `--net-*` flags must be rejected exactly like a mechanism mismatch.
    match cfg.net_plan {
        Some(p) => {
            e.u8(1);
            e.f64(p.drop_prob);
            e.f64(p.duplicate_prob);
            e.u64(p.min_delay_ticks);
            e.u64(p.max_delay_ticks);
            e.f64(p.partition_prob);
            e.u64(p.partition_ticks);
            e.u64(p.deadline_ticks);
            e.usize(p.max_attempts);
            e.usize(p.quarantine_after_misses);
        }
        None => e.u8(0),
    }
    match cfg.telemetry {
        Some(t) => {
            e.u8(1);
            let (mut sensor, mut estimator) = (t.sensor, t.estimator);
            let Ok(()) = sensor_config_fields(&mut e, &mut sensor);
            let Ok(()) = estimator_config_fields(&mut e, &mut estimator);
        }
        None => e.u8(0),
    }
    e.bool(cfg.record_timeline);
    e.bool(cfg.capacity_policy.is_some());
    e.bool(cfg.emergency_disabled);
    // The durability plan drives the ledger-journaling side channel (fsync
    // cadence, disk-fault draws, scripted kills), so resuming under
    // different `--wal-*` flags must be rejected (checkpoint V3).
    match cfg.durability {
        Some(d) => {
            e.u8(1);
            match d.fsync {
                mpr_durable::FsyncPolicy::Always => e.u8(0),
                mpr_durable::FsyncPolicy::EveryRecords(n) => {
                    e.u8(1);
                    e.u32(n);
                }
                mpr_durable::FsyncPolicy::Never => e.u8(2),
            }
            match d.disk {
                Some(p) => {
                    e.u8(1);
                    e.f64(p.torn_write_prob);
                    e.f64(p.bit_flip_prob);
                    e.f64(p.fsync_fail_prob);
                    match p.capacity_bytes {
                        Some(cap) => {
                            e.u8(1);
                            e.u64(cap);
                        }
                        None => e.u8(0),
                    }
                }
                None => e.u8(0),
            }
            match d.kill_at_slot {
                Some(s) => {
                    e.u8(1);
                    e.u64(s);
                }
                None => e.u8(0),
            }
            e.u64(d.checkpoint_every);
            e.u32(d.max_restarts);
        }
        None => e.u8(0),
    }
    // The chaos generator-space version: a checkpoint written by a campaign
    // scenario can only be resumed by a harness realizing the same space
    // (satellite of the chaos-campaign PR; see `mpr_chaos::SPACE_VERSION`).
    match cfg.scenario_space {
        Some(v) => {
            e.u8(1);
            e.u32(v);
        }
        None => e.u8(0),
    }
    // The power-tree topology and the federated flag change every overload
    // clearing (subtree targets, rack assignment), so a federated run can
    // only resume under the bit-identical tree (checkpoint V4).
    match &cfg.topology {
        Some(t) => {
            e.u8(1);
            e.u64(t.fingerprint());
        }
        None => e.u8(0),
    }
    e.bool(cfg.federated);
    // The grid-fault plan is a pure function of (plan, topology, t): no
    // fault state lives in `EngineState`, so fingerprinting the plan is
    // all that's needed for a bit-identical resume mid-fault-window —
    // and a resume under *different* `--tree-fault-*` flags must be
    // rejected here (checkpoint V5).
    match &cfg.grid_fault {
        Some(p) => {
            e.u8(1);
            e.u64(p.seed);
            e.f64(p.ups_failure_prob);
            e.f64(p.ats_derate_prob);
            e.f64(p.ats_derate_frac);
            e.f64(p.pdu_trip_prob);
            e.f64(p.derate_prob);
            e.f64(p.derate_floor);
            e.f64(p.onset_secs);
            e.f64(p.window_secs);
            e.f64(p.repair_secs);
        }
        None => e.u8(0),
    }
    e.bool(cfg.grid_fencing_disabled);
    e.str(sim.trace.name());
    e.u64(u64::from(sim.trace.total_cores()));
    e.usize(sim.trace.len());
    for j in sim.trace.jobs() {
        e.u64(j.id);
        e.f64(j.start_secs);
        e.f64(j.runtime_secs);
        e.u64(u64::from(j.cores));
    }
    fnv1a(e.as_bytes())
}

// ---------------------------------------------------------------------------
// Record layouts: each plain-data record's field list, written once and
// shared by encode (`Enc`) and decode (`Dec`, starting from the record's
// `Default`). Each list starts with an exhaustive destructure, so a field
// added to a record fails to compile until its list names it.

fn accounting_fields<W: Wire>(w: &mut W, a: &mut Accounting) -> Result<(), W::Error> {
    let Accounting {
        overload_slots,
        overload_events,
        unmet_emergencies,
        jobs_started,
        jobs_completed,
        jobs_affected,
        jobs_deferred,
        reduction_ch,
        cost_ch,
        reward_ch,
        int_iterations,
        degradation,
        fault_events,
        transport,
        stretch_sum_pct,
        stretch_count,
        per_profile,
        per_profile_stretch,
        federated,
    } = a;
    w.usize(overload_slots)?;
    w.usize(overload_events)?;
    w.usize(unmet_emergencies)?;
    w.usize(jobs_started)?;
    w.usize(jobs_completed)?;
    w.usize(jobs_affected)?;
    w.usize(jobs_deferred)?;
    w.usize(int_iterations)?;
    w.usize(fault_events)?;
    w.usize(stretch_count)?;
    w.f64(reduction_ch)?;
    w.f64(cost_ch)?;
    w.f64(reward_ch)?;
    w.f64(stretch_sum_pct)?;
    degradation_fields(w, degradation)?;
    transport_fields(w, transport)?;
    w.map(per_profile, profile_fields)?;
    w.map(per_profile_stretch, |w, (sum, count)| {
        w.f64(sum)?;
        w.usize(count)
    })?;
    federated_fields(w, federated)
}

/// Decode order of the chain-level tag byte; the inverse of [`level_tag`].
const CHAIN_LEVELS: [Option<ChainLevel>; 4] = [
    None,
    Some(ChainLevel::Interactive),
    Some(ChainLevel::StaticFallback),
    Some(ChainLevel::EqlCapping),
];

fn level_tag(level: Option<ChainLevel>) -> u8 {
    match level {
        None => 0,
        Some(ChainLevel::Interactive) => 1,
        Some(ChainLevel::StaticFallback) => 2,
        Some(ChainLevel::EqlCapping) => 3,
    }
}

fn degradation_fields<W: Wire>(w: &mut W, d: &mut DegradationStats) -> Result<(), W::Error> {
    let DegradationStats {
        rounds_retried,
        participants_quarantined,
        static_fallbacks,
        eql_cappings,
        diverged_clearings,
        deepest_chain_level,
        residual_overload_watts,
        bid_failures,
    } = d;
    w.usize(rounds_retried)?;
    w.usize(participants_quarantined)?;
    w.usize(static_fallbacks)?;
    w.usize(eql_cappings)?;
    w.usize(diverged_clearings)?;
    w.usize(bid_failures)?;
    w.f64(residual_overload_watts)?;
    w.tag(
        deepest_chain_level,
        level_tag,
        &CHAIN_LEVELS,
        "invalid chain level",
    )
}

fn transport_fields<W: Wire>(w: &mut W, t: &mut TransportTotals) -> Result<(), W::Error> {
    let TransportTotals {
        clearings,
        rounds,
        announces,
        retransmits,
        replies_accepted,
        duplicates_ignored,
        late_replies_ignored,
        invalid_replies,
        straggler_rounds,
        deadline_quarantines,
        virtual_ticks,
        messages_dropped,
        messages_duplicated,
    } = t;
    w.usize(clearings)?;
    w.usize(rounds)?;
    w.usize(announces)?;
    w.usize(retransmits)?;
    w.usize(replies_accepted)?;
    w.usize(duplicates_ignored)?;
    w.usize(late_replies_ignored)?;
    w.usize(invalid_replies)?;
    w.usize(straggler_rounds)?;
    w.usize(deadline_quarantines)?;
    w.u64(virtual_ticks)?;
    w.usize(messages_dropped)?;
    w.usize(messages_duplicated)
}

fn profile_fields<W: Wire>(w: &mut W, p: &mut ProfileStats) -> Result<(), W::Error> {
    let ProfileStats {
        reduction_core_hours,
        cost_core_hours,
        runtime_stretch_pct,
        jobs,
    } = p;
    w.f64(reduction_core_hours)?;
    w.f64(cost_core_hours)?;
    w.f64(runtime_stretch_pct)?;
    w.usize(jobs)
}

fn federated_fields<W: Wire>(w: &mut W, f: &mut FederatedStats) -> Result<(), W::Error> {
    let FederatedStats {
        events,
        markets,
        rounds,
        residual_watts,
        infeasible_events,
        grid_fault_slots,
        fenced_nodes,
        derated_nodes,
        reassigned_jobs,
        quarantined_jobs,
        dead_cleared_watts,
        derate_excess_watts,
        post_repair_events,
        levels,
    } = f;
    w.usize(events)?;
    w.usize(markets)?;
    w.usize(rounds)?;
    w.usize(infeasible_events)?;
    w.f64(residual_watts)?;
    w.usize(grid_fault_slots)?;
    w.usize(fenced_nodes)?;
    w.usize(derated_nodes)?;
    w.usize(reassigned_jobs)?;
    w.usize(quarantined_jobs)?;
    w.f64(dead_cleared_watts)?;
    w.f64(derate_excess_watts)?;
    w.usize(post_repair_events)?;
    w.map(levels, level_fields)
}

fn level_fields<W: Wire>(w: &mut W, l: &mut FederatedLevelStats) -> Result<(), W::Error> {
    let FederatedLevelStats {
        depth,
        markets,
        target_watts,
        cleared_watts,
        residual_watts,
        escalations,
    } = l;
    w.usize(depth)?;
    w.usize(markets)?;
    w.f64(target_watts)?;
    w.f64(cleared_watts)?;
    w.f64(residual_watts)?;
    w.usize(escalations)
}

fn timeline_fields<W: Wire>(w: &mut W, t: &mut Timeline) -> Result<(), W::Error> {
    let Timeline {
        slot_secs,
        power_w,
        demand_w,
        capacity_w,
        reduction_w,
        price,
    } = t;
    w.f64(slot_secs)?;
    w.list(power_w, W::f64)?;
    w.list(demand_w, W::f64)?;
    w.list(capacity_w, W::f64)?;
    w.list(reduction_w, W::f64)?;
    w.list(price, W::f64)
}

/// Decode order of the event-kind tag byte; the inverse of [`kind_tag`].
const EVENT_KINDS: [EmergencyEventKind; 3] = [
    EmergencyEventKind::Declare,
    EmergencyEventKind::Escalate,
    EmergencyEventKind::Lift,
];

fn kind_tag(kind: EmergencyEventKind) -> u8 {
    match kind {
        EmergencyEventKind::Declare => 0,
        EmergencyEventKind::Escalate => 1,
        EmergencyEventKind::Lift => 2,
    }
}

fn event_fields<W: Wire>(w: &mut W, e: &mut EmergencyEvent) -> Result<(), W::Error> {
    let EmergencyEvent {
        t_secs,
        kind,
        target_watts,
        price,
    } = e;
    w.f64(t_secs)?;
    w.tag(kind, kind_tag, &EVENT_KINDS, "invalid event kind")?;
    w.f64(target_watts)?;
    w.f64(price)
}

fn health_fields<W: Wire>(w: &mut W, h: &mut TelemetryHealth) -> Result<(), W::Error> {
    let TelemetryHealth {
        samples_delivered,
        samples_missed,
        outliers_rejected,
        stale_polls,
    } = h;
    w.usize(samples_delivered)?;
    w.usize(samples_missed)?;
    w.usize(outliers_rejected)?;
    w.usize(stale_polls)
}

fn sensor_config_fields<W: Wire>(w: &mut W, c: &mut SensorFaultConfig) -> Result<(), W::Error> {
    let SensorFaultConfig {
        noise_sigma_frac,
        dropout_prob,
        stuck_prob,
        stuck_polls,
        delay_polls,
        spike_prob,
        spike_magnitude_frac,
    } = c;
    w.f64(noise_sigma_frac)?;
    w.f64(dropout_prob)?;
    w.f64(stuck_prob)?;
    w.u32(stuck_polls)?;
    w.usize(delay_polls)?;
    w.f64(spike_prob)?;
    w.f64(spike_magnitude_frac)
}

fn estimator_config_fields<W: Wire>(w: &mut W, c: &mut EstimatorConfig) -> Result<(), W::Error> {
    let EstimatorConfig {
        window,
        ewma_alpha,
        outlier_frac,
        outlier_streak,
        stale_after_secs,
        margin_frac,
        stale_margin_frac,
    } = c;
    w.usize(window)?;
    w.f64(ewma_alpha)?;
    w.f64(outlier_frac)?;
    w.usize(outlier_streak)?;
    w.f64(stale_after_secs)?;
    w.f64(margin_frac)?;
    w.f64(stale_margin_frac)
}

fn reading_fields<W: Wire>(w: &mut W, r: &mut SensorReading) -> Result<(), W::Error> {
    let SensorReading { t_secs, power } = r;
    w.f64(t_secs)?;
    let mut watts = power.get();
    w.f64(&mut watts)?;
    *power = Watts::new(watts);
    Ok(())
}

/// A deque goes on the wire as a list of its items.
fn deque_fields<W: Wire, T: Default>(
    w: &mut W,
    deque: &mut VecDeque<T>,
    item: impl FnMut(&mut W, &mut T) -> Result<(), W::Error>,
) -> Result<(), W::Error> {
    let mut items = Vec::from(std::mem::take(deque));
    w.list(&mut items, item)?;
    *deque = items.into();
    Ok(())
}

fn telemetry_fields<W: Wire>(w: &mut W, tel: &mut TelemetryState) -> Result<(), W::Error> {
    let TelemetryState { sensor, estimator } = tel;
    let FaultySensor {
        config,
        rng: SplitMix64 { state },
        delay_buf,
        stuck_remaining,
        held,
    } = sensor;
    sensor_config_fields(w, config)?;
    w.u64(state)?;
    deque_fields(w, delay_buf, reading_fields)?;
    w.u32(stuck_remaining)?;
    w.option(held, "invalid held tag", reading_fields)?;
    let RobustEstimator {
        config,
        window,
        ewma,
        reject_streak,
        last_reading_secs,
        health,
    } = estimator;
    estimator_config_fields(w, config)?;
    deque_fields(w, window, W::f64)?;
    w.option(ewma, "invalid option tag", W::f64)?;
    w.usize(reject_streak)?;
    w.option(last_reading_secs, "invalid option tag", W::f64)?;
    health_fields(w, health)
}

/// Every state section after the deferred queue, in payload order:
/// accounting, the optional timeline, the emergency event log and the
/// optional telemetry pipeline.
fn tail_fields<W: Wire>(
    w: &mut W,
    acc: &mut Accounting,
    timeline: &mut Option<Timeline>,
    events: &mut Vec<EmergencyEvent>,
    telemetry: &mut Option<TelemetryState>,
) -> Result<(), W::Error> {
    accounting_fields(w, acc)?;
    w.option(timeline, "invalid timeline tag", timeline_fields)?;
    w.list(events, event_fields)?;
    w.option(telemetry, "invalid telemetry tag", telemetry_fields)
}

// ---------------------------------------------------------------------------
// State encode/decode: the fixed sections, then the shared record layouts.

/// Encodes the engine state. The record layouts are shared with
/// [`decode_state`], so encoding borrows the state mutably; it leaves it
/// unchanged.
pub(crate) fn encode_state(state: &mut EngineState) -> Vec<u8> {
    let mut e = Enc::default();
    e.usize(state.step);
    e.usize(state.total_slots);
    e.usize(state.next_job);
    e.bool(state.finished);

    // Job-stream RNG: exact stream position.
    e.raw(&state.rng.get_seed());
    e.u64(state.rng.get_stream());
    e.u128(state.rng.get_word_pos());

    // Emergency controller.
    let cs = state.controller.state();
    e.f64(cs.config.capacity.get());
    e.f64(cs.config.buffer_frac);
    e.f64(cs.config.min_overload_secs);
    e.f64(cs.config.cooldown_secs);
    e.u8(match cs.phase {
        EmergencyPhase::Normal => 0,
        EmergencyPhase::Emergency => 1,
        EmergencyPhase::Degraded => 2,
    });
    e.opt_f64(cs.overload_since);
    e.opt_f64(cs.emergency_started);
    e.f64(cs.active_target.get());

    // Active jobs: drawn scalars + dynamic fields; cost models and the
    // profile Arc are rebuilt deterministically on restore.
    e.usize(state.active.len());
    for j in &state.active {
        e.usize(j.idx);
        e.f64(j.alpha);
        e.f64(j.noise_factor);
        e.f64(j.remaining_secs);
        e.f64(j.exec_started_secs);
        e.f64(j.reduction);
        e.f64(j.price);
        e.f64(j.phase_offset);
        e.bool(j.participates);
        e.bool(j.affected);
    }
    e.usize(state.deferred.len());
    for &idx in &state.deferred {
        e.usize(idx);
    }

    let Ok(()) = tail_fields(
        &mut e,
        &mut state.acc,
        &mut state.timeline,
        &mut state.events,
        &mut state.telemetry,
    );
    e.into_bytes()
}

pub(crate) fn decode_state(
    payload: &[u8],
    sim: &Simulation<'_>,
    setup: &RunSetup,
) -> Result<EngineState, CheckpointError> {
    let mut d = Dec::new(payload);
    let step = d.usize()?;
    let total_slots = d.usize()?;
    let next_job = d.usize()?;
    if next_job > sim.trace.len() {
        return Err(CheckpointError::Malformed("next_job beyond trace"));
    }
    let finished = d.bool()?;

    let seed: [u8; 32] = d.array()?;
    let stream = d.u64()?;
    let word_pos = d.u128()?;
    let mut rng = ChaCha8Rng::from_seed(seed);
    rng.set_stream(stream);
    rng.set_word_pos(word_pos);

    let controller_config = EmergencyConfig {
        capacity: Watts::new(d.f64()?),
        buffer_frac: d.f64()?,
        min_overload_secs: d.f64()?,
        cooldown_secs: d.f64()?,
    };
    let phase = match d.u8()? {
        0 => EmergencyPhase::Normal,
        1 => EmergencyPhase::Emergency,
        2 => EmergencyPhase::Degraded,
        _ => return Err(CheckpointError::Malformed("invalid emergency phase")),
    };
    let controller = EmergencyController::from_state(ControllerState {
        config: controller_config,
        phase,
        overload_since: d.opt_f64()?,
        emergency_started: d.opt_f64()?,
        active_target: Watts::new(d.f64()?),
    });

    // Active jobs are validated here but rebuilt (cost models, cooperative
    // bids) only once the whole payload has decoded: a truncated or
    // corrupt payload is rejected before any of that work.
    let n_active = d.length()?;
    let mut drawn = Vec::with_capacity(n_active);
    for _ in 0..n_active {
        let idx = d.usize()?;
        let Some(profile) = setup.profiles.get(idx) else {
            return Err(CheckpointError::Malformed("job index beyond trace"));
        };
        let alpha = d.f64()?;
        let noise_factor = d.f64()?;
        if !noise_factor.is_finite() || noise_factor < 0.0 {
            return Err(CheckpointError::Malformed("invalid noise factor"));
        }
        let dynamic = [d.f64()?, d.f64()?, d.f64()?, d.f64()?, d.f64()?];
        let flags = [d.bool()?, d.bool()?];
        drawn.push((idx, profile, alpha, noise_factor, dynamic, flags));
    }
    let n_deferred = d.length()?;
    let mut deferred = VecDeque::with_capacity(n_deferred);
    for _ in 0..n_deferred {
        let idx = d.usize()?;
        if idx >= sim.trace.len() {
            return Err(CheckpointError::Malformed("deferred index beyond trace"));
        }
        deferred.push_back(idx);
    }

    let mut acc = Accounting::default();
    let (mut timeline, mut events, mut telemetry) = (None, Vec::new(), None);
    tail_fields(&mut d, &mut acc, &mut timeline, &mut events, &mut telemetry)?;
    d.finish()?;

    let active = drawn
        .into_iter()
        .map(|(idx, profile, alpha, noise_factor, dynamic, flags)| {
            let mut job: ActiveJob = sim.rebuild_job(idx, profile, alpha, noise_factor);
            [
                job.remaining_secs,
                job.exec_started_secs,
                job.reduction,
                job.price,
                job.phase_offset,
            ] = dynamic;
            [job.participates, job.affected] = flags;
            job
        })
        .collect();

    Ok(EngineState {
        step,
        total_slots,
        next_job,
        finished,
        rng,
        controller,
        active,
        deferred,
        acc,
        timeline,
        events,
        telemetry,
    })
}

// ---------------------------------------------------------------------------
// File I/O.

/// Atomically writes a checkpoint via the shared crash-durable helper
/// ([`mpr_durable::fsio::atomic_replace`]): the bytes go to a sibling temp
/// file which is fsynced and renamed over `path`, and the parent directory
/// is fsynced after the rename — so a crash mid-write leaves either the old
/// checkpoint or the new one, never a torn file, and the rename itself
/// survives power loss. (Pre-V3 the directory fsync was missing: a freshly
/// renamed checkpoint could vanish entirely on power loss.)
pub(crate) fn write_checkpoint(
    path: &Path,
    sim: &Simulation<'_>,
    state: &mut EngineState,
) -> Result<(), CheckpointError> {
    let payload = encode_state(state);
    let mut e = Enc::with_capacity(HEADER_LEN + payload.len());
    e.raw(&MAGIC);
    e.u32(VERSION);
    e.u64(fingerprint(sim));
    e.usize(payload.len());
    e.u64(fnv1a(&payload));
    e.raw(&payload);
    mpr_durable::fsio::atomic_replace(path, e.as_bytes())?;
    Ok(())
}

/// Reads, validates and decodes a checkpoint into a ready-to-run
/// [`EngineState`].
pub(crate) fn read_checkpoint(
    path: &Path,
    sim: &Simulation<'_>,
    setup: &RunSetup,
) -> Result<EngineState, CheckpointError> {
    let bytes = fs::read(path)?;
    let mut header = Dec::new(&bytes);
    if header.array() != Ok(MAGIC) {
        return Err(CheckpointError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated);
    }
    let version = header.u32()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let (fprint, payload_len, checksum) = (header.u64()?, header.u64()?, header.u64()?);
    let payload = bytes.get(HEADER_LEN..).ok_or(CheckpointError::Truncated)?;
    if payload.len() as u64 != payload_len {
        return Err(CheckpointError::Truncated);
    }
    if fnv1a(payload) != checksum {
        return Err(CheckpointError::ChecksumMismatch);
    }
    if fprint != fingerprint(sim) {
        return Err(CheckpointError::ConfigMismatch);
    }
    decode_state(payload, sim, setup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, SimConfig, TelemetryConfig};
    use mpr_workload::{ClusterSpec, Trace, TraceGenerator};

    fn small_trace() -> Trace {
        TraceGenerator::new(ClusterSpec::gaia().with_span_days(5.0))
            .with_seed(3)
            .generate()
    }

    fn tmp_ckpt(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mpr_ckpt_{}_{tag}.bin", std::process::id()))
    }

    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_run() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_timeline();
        let full = Simulation::new(&trace, cfg.clone()).run();

        let path = tmp_ckpt("stat_resume");
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(2000);
        let sim = Simulation::new(&trace, cfg);
        let outcome = sim.run_with_checkpoints(&plan).expect("checkpointed run");
        match outcome {
            RunOutcome::Killed { at_slot, .. } => assert_eq!(at_slot, 2000),
            RunOutcome::Completed(_) => panic!("kill point must fire"),
        }
        let resumed = sim.resume(&path).expect("resume");
        assert_eq!(resumed, full, "resumed report must be bit-identical");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_mid_checkpoint_cadence_matches_plain_run() {
        // Kill between two checkpoint writes: the resumed run replays the
        // slots after the last checkpoint and still converges bit-exactly.
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::Opt, 15.0);
        let full = Simulation::new(&trace, cfg.clone()).run();
        let path = tmp_ckpt("opt_midcadence");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 700).with_kill_at(1650);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let resumed = sim.resume(&path).expect("resume");
        assert_eq!(resumed, full);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checkpointing_with_telemetry_round_trips() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_telemetry(
            TelemetryConfig::with_faults(mpr_power::telemetry::SensorFaultConfig {
                noise_sigma_frac: 0.02,
                dropout_prob: 0.2,
                ..Default::default()
            }),
        );
        let full = Simulation::new(&trace, cfg.clone()).run();
        let path = tmp_ckpt("telemetry_resume");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 500).with_kill_at(1500);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let resumed = sim.resume(&path).expect("resume");
        assert_eq!(resumed, full, "telemetry state must round-trip exactly");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn completed_checkpointed_run_equals_plain_run() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::Eql, 15.0);
        let full = Simulation::new(&trace, cfg.clone()).run();
        let path = tmp_ckpt("eql_completed");
        let sim = Simulation::new(&trace, cfg);
        let outcome = sim
            .run_with_checkpoints(&CheckpointPlan::every(&path, 1000))
            .expect("checkpointed run");
        assert_eq!(outcome.into_report().expect("completed"), full);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0);
        let path = tmp_ckpt("corrupt");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(800);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let mut bytes = fs::read(&path).expect("checkpoint on disk");
        let flip = HEADER_LEN + 7;
        bytes[flip] ^= 0xff;
        fs::write(&path, &bytes).expect("rewrite");
        match sim.resume(&path) {
            Err(CheckpointError::ChecksumMismatch) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn every_tagged_value_round_trips_at_its_table_index() {
        for (i, level) in CHAIN_LEVELS.into_iter().enumerate() {
            let mut d = DegradationStats {
                deepest_chain_level: level,
                ..DegradationStats::default()
            };
            let mut e = Enc::default();
            let Ok(()) = degradation_fields(&mut e, &mut d);
            assert_eq!(e.as_bytes().last().map(|&b| usize::from(b)), Some(i));
            let mut back = DegradationStats::default();
            degradation_fields(&mut Dec::new(e.as_bytes()), &mut back).unwrap();
            assert_eq!(back, d);
        }
        for (i, kind) in EVENT_KINDS.into_iter().enumerate() {
            let mut ev = EmergencyEvent {
                kind,
                ..EmergencyEvent::default()
            };
            let mut e = Enc::default();
            let Ok(()) = event_fields(&mut e, &mut ev);
            assert_eq!(e.as_bytes().get(8).map(|&b| usize::from(b)), Some(i));
            let mut back = EmergencyEvent::default();
            event_fields(&mut Dec::new(e.as_bytes()), &mut back).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn decode_is_total_over_prefixes_and_byte_flips() {
        // The MPR-INT + agent-fault + lossy-net checkpoint pinned by the
        // CLI's golden byte-format test: degradation and transport
        // counters are all live. The checksum is bypassed, so every
        // corruption reaches the decoder itself.
        let trace = TraceGenerator::new(ClusterSpec::gaia().with_span_days(3.0)).generate();
        let cfg = SimConfig::new(Algorithm::MprInt, 15.0)
            .with_faults(crate::config::FaultPlan::unresponsive_and_crash(0.3, 0.1))
            .with_net(crate::config::NetPlan {
                drop_prob: 0.3,
                duplicate_prob: 0.1,
                partition_prob: 0.05,
                ..Default::default()
            });
        let path = tmp_ckpt("total");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 500).with_kill_at(3000);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let bytes = fs::read(&path).expect("checkpoint on disk");
        let _ = fs::remove_file(&path);
        let payload = &bytes[HEADER_LEN..];
        let setup = sim.setup();
        let state = decode_state(payload, &sim, &setup).expect("valid payload");
        assert!(state.acc.degradation.participants_quarantined > 0);
        assert!(state.acc.transport.messages_dropped > 0);
        for cut in 0..payload.len() {
            assert!(
                matches!(
                    decode_state(&payload[..cut], &sim, &setup),
                    Err(CheckpointError::Truncated)
                ),
                "prefix of {cut} bytes"
            );
        }
        // A flip that still decodes rebuilds every active job, so the
        // flips are split across two threads.
        let half = payload.len() / 2;
        std::thread::scope(|scope| {
            for range in [0..half, half..payload.len()] {
                let (sim, setup) = (&sim, &setup);
                scope.spawn(move || {
                    let mut flipped = payload.to_vec();
                    for i in range {
                        flipped[i] ^= 0xff;
                        if let Ok(state) = decode_state(&flipped, sim, setup) {
                            assert!(state.next_job <= sim.trace.len(), "flip at {i}");
                        }
                        flipped[i] ^= 0xff;
                    }
                });
            }
        });
    }

    #[test]
    fn truncated_file_is_rejected() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0);
        let path = tmp_ckpt("trunc");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(800);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let bytes = fs::read(&path).expect("checkpoint on disk");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        match sim.resume(&path) {
            Err(CheckpointError::Truncated) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn foreign_file_is_rejected() {
        let trace = small_trace();
        let path = tmp_ckpt("magic");
        fs::write(&path, b"definitely not a checkpoint file").expect("write");
        let sim = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        match sim.resume(&path) {
            Err(CheckpointError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let trace = small_trace();
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0);
        let path = tmp_ckpt("version");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(800);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let mut bytes = fs::read(&path).expect("checkpoint on disk");
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bytes).expect("rewrite");
        match sim.resume(&path) {
            Err(CheckpointError::UnsupportedVersion(99)) => {}
            other => panic!("expected UnsupportedVersion(99), got {other:?}"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn different_config_is_rejected() {
        let trace = small_trace();
        let path = tmp_ckpt("mismatch");
        let writer = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(800);
        writer
            .run_with_checkpoints(&plan)
            .expect("checkpointed run");
        // Same trace, different oversubscription: resuming would diverge.
        let reader = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 20.0));
        match reader.resume(&path) {
            Err(CheckpointError::ConfigMismatch) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        // The writer itself can still resume.
        assert!(writer.resume(&path).is_ok());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_under_a_different_mechanism_is_rejected() {
        let trace = small_trace();
        let path = tmp_ckpt("mechanism-mismatch");
        let writer = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(800);
        writer
            .run_with_checkpoints(&plan)
            .expect("checkpointed run");
        // Every other mechanism choice must be refused at restore time.
        for alg in [
            Algorithm::Opt,
            Algorithm::Eql,
            Algorithm::MprInt,
            Algorithm::Vcg,
        ] {
            let reader = Simulation::new(&trace, SimConfig::new(alg, 15.0));
            match reader.resume(&path) {
                Err(CheckpointError::ConfigMismatch) => {}
                other => panic!("{alg}: expected ConfigMismatch, got {other:?}"),
            }
        }
        assert!(writer.resume(&path).is_ok());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_is_sensitive_to_the_degradation_chain() {
        // Same algorithm tag, different resolved mechanism: an MPR-INT run
        // with an active fault plan clears through the degradation chain,
        // so its checkpoints must not be resumable by a clean MPR-INT run
        // (and vice versa).
        let trace = small_trace();
        let clean = Simulation::new(&trace, SimConfig::new(Algorithm::MprInt, 15.0));
        let chained = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprInt, 15.0)
                .with_faults(crate::config::FaultPlan::unresponsive_and_crash(0.3, 0.1)),
        );
        assert_ne!(fingerprint(&clean), fingerprint(&chained));
    }

    #[test]
    fn federated_kill_and_resume_reproduces_the_uninterrupted_run() {
        let trace = small_trace();
        let spec = mpr_power::TopologySpec::parse(include_str!("../../../examples/tree.json"))
            .expect("sample topology");
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_topology(spec);
        let full = Simulation::new(&trace, cfg.clone()).run();
        assert!(
            full.federated.as_ref().is_some_and(|f| f.events > 0),
            "federated path must engage at 15% oversubscription"
        );
        let path = tmp_ckpt("federated_resume");
        let sim = Simulation::new(&trace, cfg);
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(2000);
        sim.run_with_checkpoints(&plan).expect("checkpointed run");
        let resumed = sim.resume(&path).expect("resume");
        assert_eq!(resumed, full, "federated state must round-trip exactly");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn grid_fault_kill_and_resume_mid_window_is_bit_identical() {
        // The fault schedule is a pure function of (plan, topology, t),
        // so a checkpoint taken while a UPS is dark carries no fault
        // state at all — the resumed run must still be bit-identical to
        // the uninterrupted one, fences and all.
        let trace = small_trace();
        let spec = mpr_power::TopologySpec::parse(include_str!("../../../examples/tree.json"))
            .expect("sample topology");
        let plan = mpr_power::GridFaultPlan {
            ups_failure_prob: 1.0,
            window_secs: 0.0,
            repair_secs: 100_000.0,
            ..mpr_power::GridFaultPlan::default()
        };
        let cfg = SimConfig::new(Algorithm::MprStat, 15.0)
            .with_topology(spec)
            .with_grid_faults(plan);
        let full = Simulation::new(&trace, cfg.clone()).run();
        let fed = full.federated.as_ref().expect("federated stats");
        assert!(
            fed.fenced_nodes > 0,
            "the always-on UPS failure must fence nodes during the run"
        );
        let path = tmp_ckpt("grid_fault_resume");
        let sim = Simulation::new(&trace, cfg);
        // 2000 slots × 60 s = 120 000 s: well inside the fault windows of
        // a plan whose repairs land at ~150 000–250 000 s.
        let plan_ck = CheckpointPlan::every(&path, 400).with_kill_at(2000);
        sim.run_with_checkpoints(&plan_ck)
            .expect("checkpointed run");
        let resumed = sim.resume(&path).expect("resume");
        assert_eq!(
            resumed, full,
            "resume mid-fault-window must be bit-identical"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_under_a_different_grid_fault_plan_is_rejected() {
        let trace = small_trace();
        let spec = mpr_power::TopologySpec::parse(include_str!("../../../examples/tree.json"))
            .expect("sample topology");
        let plan = mpr_power::GridFaultPlan::ups_outage(0.8);
        let path = tmp_ckpt("grid-fault-mismatch");
        let writer = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0)
                .with_topology(spec.clone())
                .with_grid_faults(plan),
        );
        let plan_ck = CheckpointPlan::every(&path, 400).with_kill_at(800);
        writer
            .run_with_checkpoints(&plan_ck)
            .expect("checkpointed run");
        // A different seed, a different fault mix, a fault-free run, and
        // a fencing-disabled run all change what every overload event
        // cleared — each must be refused at restore time.
        let mut reseeded = plan;
        reseeded.seed ^= 1;
        let mut pdu = plan;
        pdu.pdu_trip_prob = 0.5;
        let base = || SimConfig::new(Algorithm::MprStat, 15.0).with_topology(spec.clone());
        let readers = [
            Simulation::new(&trace, base().with_grid_faults(reseeded)),
            Simulation::new(&trace, base().with_grid_faults(pdu)),
            Simulation::new(&trace, base()),
            Simulation::new(
                &trace,
                base().with_grid_faults(plan).with_grid_fencing_disabled(),
            ),
        ];
        for reader in &readers {
            match reader.resume(&path) {
                Err(CheckpointError::ConfigMismatch) => {}
                other => panic!("expected ConfigMismatch, got {other:?}"),
            }
        }
        assert!(writer.resume(&path).is_ok());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_under_a_different_topology_is_rejected() {
        let trace = small_trace();
        let spec = mpr_power::TopologySpec::parse(include_str!("../../../examples/tree.json"))
            .expect("sample topology");
        let mut other = spec.clone();
        other.nodes[1].capacity = Watts::new(spec.nodes[1].capacity.get() * 0.5);
        let path = tmp_ckpt("topology-mismatch");
        let writer = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0).with_topology(spec.clone()),
        );
        let plan = CheckpointPlan::every(&path, 400).with_kill_at(800);
        writer
            .run_with_checkpoints(&plan)
            .expect("checkpointed run");
        // A different tree, a flat run, and a federated-flag-off run must
        // all be refused at restore time.
        let different_tree = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0).with_topology(other),
        );
        let flat = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        let mut flag_off_cfg = SimConfig::new(Algorithm::MprStat, 15.0).with_topology(spec);
        flag_off_cfg.federated = false;
        let flag_off = Simulation::new(&trace, flag_off_cfg);
        for reader in [&different_tree, &flat, &flag_off] {
            match reader.resume(&path) {
                Err(CheckpointError::ConfigMismatch) => {}
                other => panic!("expected ConfigMismatch, got {other:?}"),
            }
        }
        assert!(writer.resume(&path).is_ok());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_reports_io_error() {
        let trace = small_trace();
        let sim = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        match sim.resume(Path::new("/nonexistent/mpr.ckpt")) {
            Err(CheckpointError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_is_sensitive_to_seed_and_trace() {
        let trace = small_trace();
        let a = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        let b = Simulation::new(
            &trace,
            SimConfig::new(Algorithm::MprStat, 15.0).with_seed(1),
        );
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let other = TraceGenerator::new(ClusterSpec::gaia().with_span_days(5.0))
            .with_seed(4)
            .generate();
        let c = Simulation::new(&other, SimConfig::new(Algorithm::MprStat, 15.0));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        let same = Simulation::new(&trace, SimConfig::new(Algorithm::MprStat, 15.0));
        assert_eq!(fingerprint(&a), fingerprint(&same));
    }

    #[test]
    fn error_display_is_informative() {
        let s = CheckpointError::UnsupportedVersion(7).to_string();
        assert!(s.contains('7'));
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::ConfigMismatch
            .to_string()
            .contains("configuration"));
    }
}

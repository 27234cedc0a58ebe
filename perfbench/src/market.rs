//! The `market-fed-20k` workload: 20 000 participants from the
//! `mechanism_scale` fixture on a 4 UPS × 4 PDU × 4 rack tree, each
//! response one `HierarchicalMarket::clear` with an MPR-STAT market per
//! oversubscribed subtree.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mpr_bench::{attainable_watts, make_instance, make_jobs};
use mpr_core::mechanism::{Clearing, InstanceView, MechanismError};
use mpr_core::{MarketInstance, MclrMechanism, Mechanism, Watts};
use mpr_power::{FederatedOutcome, HierarchicalMarket, LevelKind, PowerHierarchy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::outcome::Outcome;
use crate::stats::median;
use crate::{millis, report_latencies, Layers, SETUP_REPEATS};

/// Participants in the market.
const PARTICIPANTS: usize = 20_000;
/// Children per node below the ATS: 4 UPS × 4 PDU × 4 racks.
const FANOUT: usize = 4;
const RACKS: usize = FANOUT * FANOUT * FANOUT;
/// Clears per pass: targets alternate root-binding and rack-binding
/// shapes, so each shape gets half.
const CLEARS: usize = 256;
/// Reduction targets span this share of the attainable reduction.
const TARGET_FRACS: (f64, f64) = (0.05, 0.55);
/// Relative slack on "reductions reach the target".
const REACH_TOL: f64 = 1e-6;

/// One clear of a pass: the tree it runs on and its target.
struct Case {
    hierarchy: PowerHierarchy,
    target_w: f64,
}

/// The generated inputs: the instance and one tree per clear.
struct Input {
    instance: MarketInstance,
    attainable_w: f64,
    cases: Vec<Case>,
}

/// Reduction-target shares of attainable, drawn from `seed`: stratified
/// over [`TARGET_FRACS`] within each tree shape, so every pass covers the
/// whole range once per shape.
fn target_fracs(seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let per_shape = CLEARS / 2;
    let (lo, hi) = TARGET_FRACS;
    (0..CLEARS)
        .map(|i| {
            let stratum = (i / 2) as f64 + rng.gen_range(0.0..1.0);
            lo + (hi - lo) * stratum / per_shape as f64
        })
        .collect()
}

/// The 4×4×4 tree with rack loads `total_load / 64`. A root-binding tree
/// caps the ATS `deficit` below the load; a rack-binding one caps every
/// rack `deficit / 64` below its load. Other nodes are unbounded.
fn tree(total_load: f64, deficit: f64, at_racks: bool) -> Result<PowerHierarchy, String> {
    let err = |e: mpr_power::HierarchyError| format!("tree: {e}");
    let unbounded = Watts::new(total_load * 10.0);
    let rack_load = total_load / RACKS as f64;
    let mut h = PowerHierarchy::new();
    let root_cap = if at_racks {
        unbounded
    } else {
        Watts::new(total_load - deficit)
    };
    let ats = h.add_root("ats", LevelKind::Ats, root_cap);
    for u in 0..FANOUT {
        let ups = h
            .add_child(format!("ups-{u}"), LevelKind::Ups, unbounded, ats)
            .map_err(err)?;
        for p in 0..FANOUT {
            let pdu = h
                .add_child(format!("pdu-{u}-{p}"), LevelKind::Pdu, unbounded, ups)
                .map_err(err)?;
            for r in 0..FANOUT {
                let cap = if at_racks {
                    Watts::new(rack_load - deficit / RACKS as f64)
                } else {
                    unbounded
                };
                let rack = h
                    .add_child(format!("rack-{u}-{p}-{r}"), LevelKind::Rack, cap, pdu)
                    .map_err(err)?;
                h.set_load(rack, Watts::new(rack_load)).map_err(err)?;
            }
        }
    }
    Ok(h)
}

fn generate(seed: u64) -> Result<Input, String> {
    let jobs = make_jobs(PARTICIPANTS);
    let instance = make_instance(&jobs);
    let attainable_w = attainable_watts(&jobs);
    // As in the `federated_scale` bench: the load is a proxy; what the
    // markets see is the deficit each binding node presents.
    let total_load = 2.0 * attainable_w;
    let cases = target_fracs(seed)
        .into_iter()
        .enumerate()
        .map(|(i, frac)| {
            let target_w = frac * attainable_w;
            let hierarchy = tree(total_load, target_w, i % 2 == 1)?;
            Ok(Case {
                hierarchy,
                target_w,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Input {
        instance,
        attainable_w,
        cases,
    })
}

/// Row → rack assignment: racks are node ids of leaf kind, rows dealt
/// round-robin.
fn assignment(h: &PowerHierarchy) -> Vec<usize> {
    let racks: Vec<usize> = (0..h.len())
        .filter(|&id| h.kind_of(id) == Some(LevelKind::Rack))
        .collect();
    (0..PARTICIPANTS).map(|i| racks[i % racks.len()]).collect()
}

/// Wraps a mechanism and records the wall interval of every clear.
struct Timed<M> {
    inner: M,
    spans: Arc<Mutex<Vec<(Instant, Instant)>>>,
}

impl<M: Mechanism> Mechanism for Timed<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn prepare(&mut self, view: &InstanceView<'_>) -> Result<(), MechanismError> {
        self.inner.prepare(view)
    }
    fn clear_view(
        &mut self,
        view: &InstanceView<'_>,
        target: Watts,
    ) -> Result<Clearing, MechanismError> {
        let start = Instant::now();
        let result = self.inner.clear_view(view, target);
        let end = Instant::now();
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((start, end));
        result
    }
}

/// Wall time covered by the union of `spans`, seconds: subtree markets of
/// one depth wave clear in parallel, so their spans overlap.
fn covered_s(spans: &mut [(Instant, Instant)]) -> f64 {
    spans.sort_by_key(|s| s.0);
    let mut total = 0.0;
    let mut current: Option<(Instant, Instant)> = None;
    for &(start, end) in spans.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += (e - s).as_secs_f64();
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0.0, |(s, e)| (e - s).as_secs_f64())
}

/// What one clear produced, summarized at once so a pass never holds
/// 256 merged clearings of 20 000 rows.
struct Cleared {
    /// Wall time of the clear, ms.
    ms: f64,
    /// FNV-1a digest of the merged reductions' bits, for determinism.
    digest: u64,
    /// The clear returned `Ok` and reached `min(target, attainable)`.
    ok: bool,
    /// Why the clear failed, when it returned an error.
    error: Option<String>,
    /// Users' cost at the cleared reductions, when asked for.
    cost: f64,
    /// Cores reduced.
    reduced: f64,
    markets: usize,
    rounds: usize,
    feasible: bool,
}

fn digest(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Cost users bear at the cleared reductions, cores (core-hours per hour
/// of reduction): every row's own cost model at its reduction.
fn user_cost(instance: &MarketInstance, outcome: &FederatedOutcome) -> f64 {
    instance
        .costs()
        .iter()
        .zip(outcome.clearing.reductions())
        .map(|(cost, &r)| cost.as_ref().map_or(0.0, |c| c.cost(r)))
        .sum()
}

type Spans = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// One response: a federated clear of the whole tree, its subtree markets
/// wrapped in [`Timed`] when `spans` is given.
fn clear_one(
    input: &Input,
    case: &Case,
    market: &HierarchicalMarket<'_>,
    spans: Option<&Spans>,
    with_cost: bool,
) -> Cleared {
    let at = Instant::now();
    let outcome = match spans {
        Some(spans) => market.clear(&input.instance, || Timed {
            inner: MclrMechanism::best_effort(),
            spans: Arc::clone(spans),
        }),
        None => market.clear(&input.instance, MclrMechanism::best_effort),
    };
    let ms = millis(at);
    match outcome {
        Ok(o) => {
            let need = case.target_w.min(input.attainable_w);
            Cleared {
                ms,
                digest: digest(o.clearing.reductions()),
                ok: o.clearing.total_power_reduction().get() >= need * (1.0 - REACH_TOL),
                error: None,
                cost: if with_cost {
                    user_cost(&input.instance, &o)
                } else {
                    0.0
                },
                reduced: o.clearing.total_reduction(),
                markets: o.markets,
                rounds: o.rounds,
                feasible: o.feasible(),
            }
        }
        Err(e) => Cleared {
            ms,
            digest: 0,
            ok: false,
            error: Some(e.to_string()),
            cost: 0.0,
            reduced: 0.0,
            markets: 0,
            rounds: 0,
            feasible: false,
        },
    }
}

/// One untraced pass over every clear. Its run time is the clears' summed
/// wall time, which leaves out the cost evaluation `with_cost` adds.
fn pass(input: &Input, markets: &[HierarchicalMarket<'_>], with_cost: bool) -> Vec<Cleared> {
    input
        .cases
        .iter()
        .zip(markets)
        .map(|(case, m)| clear_one(input, case, m, None, with_cost))
        .collect()
}

fn run_s(cleared: &[Cleared]) -> f64 {
    cleared.iter().map(|c| c.ms).sum::<f64>() / 1e3
}

/// Runs `market-fed-20k` for `seconds`, reporting end-to-end metrics, or
/// with `traced` its per-layer metrics.
///
/// # Errors
///
/// When the workload cannot be set up.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let input = generate(seed)?;
        generate_ms.push(millis(start));
        let markets = input
            .cases
            .iter()
            .map(|c| {
                HierarchicalMarket::new(&c.hierarchy, assignment(&c.hierarchy))
                    .map_err(|e| format!("federated market: {e}"))
            })
            .collect::<Result<Vec<_>, String>>();
        setup_s.push(start.elapsed().as_secs_f64());
        drop(markets?);
        built = Some(input);
    }
    let input = built.expect("SETUP_REPEATS is positive");
    let markets = input
        .cases
        .iter()
        .map(|c| HierarchicalMarket::new(&c.hierarchy, assignment(&c.hierarchy)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("federated market: {e}"))?;

    if traced {
        return Ok(traced_run(&input, &markets, generate_ms, out));
    }

    let started = Instant::now();
    let first = pass(&input, &markets, true);
    out.attempted = first.len() as u64;
    out.failed = first.iter().filter(|c| !c.ok).count() as u64;
    for c in &first {
        if let Some(e) = &c.error {
            out.check(false, || format!("clear failed: {e}"));
        }
    }
    let failed = out.failed;
    out.check(failed == 0, || {
        format!("{failed} clears fell short of an attainable target")
    });
    let cost: f64 = first.iter().map(|c| c.cost).sum();
    let reduced: f64 = first.iter().map(|c| c.reduced).sum();
    let mut runs = vec![run_s(&first)];
    let mut respond_ms: Vec<f64> = first.iter().map(|c| c.ms).collect();
    while started.elapsed().as_secs_f64() < seconds {
        let again = pass(&input, &markets, false);
        let same = again.iter().zip(&first).all(|(a, b)| a.digest == b.digest);
        out.check(same, || "clearings differ between passes".into());
        runs.push(run_s(&again));
        respond_ms.extend(again.iter().map(|c| c.ms));
    }
    out.note(format!(
        "market-fed-20k | seed {seed} | {CLEARS} clears per pass | {} passes | user cost {cost:.1} over {reduced:.1} cores reduced",
        runs.len()
    ));

    out.metric("setup_s", median(&setup_s), "s");
    out.metric("run_s", median(&runs), "s");
    report_latencies(&mut out, &respond_ms);
    out.metric("cost_ch", cost, "ch");
    Ok(out)
}

fn traced_run(
    input: &Input,
    markets: &[HierarchicalMarket<'_>],
    generate_ms: Vec<f64>,
    mut out: Outcome,
) -> Outcome {
    let mut layers = Layers::default();
    layers.set("workload.generate_ms", median(&generate_ms));
    layers.set("workload.jobs", PARTICIPANTS as f64);

    let plain_s = run_s(&pass(input, markets, false));
    let spans: Spans = Arc::new(Mutex::new(Vec::new()));
    let mut traced_s = 0.0;
    let mut subtree_s = 0.0;
    let mut self_s = 0.0;
    let (mut subtree_markets, mut rounds, mut infeasible) = (0, 0, 0);
    let mut failed = 0;
    for (case, market) in input.cases.iter().zip(markets) {
        spans.lock().unwrap_or_else(PoisonError::into_inner).clear();
        let cleared = clear_one(input, case, market, Some(&spans), false);
        let covered = covered_s(&mut spans.lock().unwrap_or_else(PoisonError::into_inner));
        traced_s += cleared.ms / 1e3;
        subtree_s += covered;
        self_s += cleared.ms / 1e3 - covered;
        subtree_markets += cleared.markets;
        rounds += cleared.rounds;
        infeasible += usize::from(!cleared.feasible);
        failed += usize::from(!cleared.ok);
    }

    let mut flat_ms = 0.0;
    for case in &input.cases {
        let at = Instant::now();
        let flat = MclrMechanism::best_effort().clear(&input.instance, Watts::new(case.target_w));
        flat_ms += millis(at);
        out.check(flat.is_ok(), || "flat reference clear failed".into());
    }

    out.check(failed == 0, || {
        format!("{failed} traced clears missed their target")
    });
    layers.set("fed.markets", subtree_markets as f64);
    layers.set("fed.rounds", rounds as f64);
    layers.set("fed.infeasible", infeasible as f64);
    layers.set("fed.subtree_clear_ms", subtree_s * 1e3);
    layers.set("fed.self_ms", self_s * 1e3);
    layers.set("fed.flat_clear_ms", flat_ms);
    layers.set("trace.run_s", traced_s);
    layers.set("trace.overhead_s", traced_s - plain_s);
    out.attempted = input.cases.len() as u64;
    out.note(format!(
        "market-fed-20k | traced | subtree clears {:.1} ms, tree walk {:.1} ms, flat {flat_ms:.1} ms",
        subtree_s * 1e3,
        self_s * 1e3
    ));
    layers.into_outcome(&mut out);
    out
}

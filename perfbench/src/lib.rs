//! The MPR benchmark: four closed-loop workloads, each measured end to end
//! with only the slot clock inside the simulation, or in a traced run that
//! times every layer from outside through public functions. See
//! `README.md` next to this crate for the workloads and metrics.

#![warn(missing_docs)]

mod clock;
pub mod gaia;
mod market;
pub mod outcome;
mod replay;
mod rss;
pub mod stats;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use outcome::Outcome;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;

/// End-to-end metrics, as `BENCHMARK.json` lists them: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("respond_p50_ms", "ms"),
    ("respond_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("met_frac", "ratio"),
    ("cost_ch", "ch"),
];

/// Per-layer metrics of the traced run, as `BENCHMARK.json` lists them.
/// A metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_ms", "ms"),
    ("workload.jobs", "count"),
    ("sim.slots", "count"),
    ("sim.respond_slots", "count"),
    ("sim.respond_slot_ms", "ms"),
    ("sim.respond_share", "ratio"),
    ("sim.quiet_slot_ms", "ms"),
    ("sim.quiet_slot_p50_us", "us"),
    ("core.instance_rows", "count"),
    ("core.instance_build_us", "us"),
    ("core.clear_p50_ms", "ms"),
    ("core.clear_ms", "ms"),
    ("core.cost_evals", "count"),
    ("core.int_rounds", "count"),
    ("core.replay_met_frac", "ratio"),
    ("fed.markets", "count"),
    ("fed.rounds", "count"),
    ("fed.infeasible", "count"),
    ("fed.subtree_clear_ms", "ms"),
    ("fed.self_ms", "ms"),
    ("fed.flat_clear_ms", "ms"),
    ("ledger.records", "count"),
    ("ledger.payments", "count"),
    ("ledger.replayed_records", "count"),
    ("ledger.wal_bytes", "bytes"),
    ("ledger.overhead_ms", "ms"),
    ("ledger.recover_ms", "ms"),
    ("durable.scan_ms", "ms"),
    ("durable.scan_mb_per_s", "MB/s"),
    ("durable.persist_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.write_ms", "ms"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Milliseconds since `start`.
#[must_use]
pub fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Reports the median and p95 of response latencies pooled over a run's
/// passes; a p95 from too few samples fails the run instead.
pub fn report_latencies(out: &mut Outcome, ms: &[f64]) {
    out.metric("respond_p50_ms", stats::median(ms), "ms");
    let p95 = stats::p95(ms);
    out.check(p95.is_some(), || {
        format!(
            "{} response samples; the p95 needs {}",
            ms.len(),
            stats::P95_MIN_SAMPLES
        )
    });
    out.metric("respond_p95_ms", p95.unwrap_or(f64::NAN), "ms");
}

/// Per-layer values collected by a traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records a per-layer value.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`]: a bug in this crate.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Emits every per-layer metric in [`PER_LAYER`] order, 0 where the
    /// workload has no such layer.
    pub fn into_outcome(self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A Gaia workload.
    Gaia(gaia::Gaia),
    /// `market-fed-20k`.
    MarketFed20k,
}

impl Workload {
    /// Every workload with its name, in `BENCHMARK.json` order.
    pub const ALL: [(&'static str, Workload); 4] = [
        ("gaia-int", Workload::Gaia(gaia::Gaia::Int)),
        ("gaia-opt-fed", Workload::Gaia(gaia::Gaia::OptFed)),
        ("gaia-stat-wal", Workload::Gaia(gaia::Gaia::StatWal)),
        ("market-fed-20k", Workload::MarketFed20k),
    ];

    /// The workload called `name`.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }
}

/// Runs `workload` from `seed` for `seconds`, end to end or traced,
/// using `scratch` (created, then removed) for files the run writes.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, scratch: &Path) -> Outcome {
    if let Err(e) = std::fs::create_dir_all(scratch) {
        let mut out = Outcome::default();
        out.check(false, || format!("scratch directory: {e}"));
        return out;
    }
    let result = match workload {
        Workload::Gaia(kind) => gaia::run(kind, seed, seconds, traced, scratch),
        Workload::MarketFed20k => market::run(seed, seconds, traced),
    };
    // Best effort: a leftover scratch file changes no result.
    let _ = std::fs::remove_dir_all(scratch);
    let mut out = result.unwrap_or_else(|e| {
        let mut out = Outcome::default();
        out.check(false, || e);
        out
    });
    if !traced {
        finish_end_to_end(&mut out);
    }
    out
}

/// Adds the metrics every workload shares and puts them in
/// [`END_TO_END`] order.
fn finish_end_to_end(out: &mut Outcome) {
    let rss = rss::peak_rss_mb().unwrap_or(f64::NAN);
    out.metric("peak_rss_mb", rss, "MB");
    let met = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("met_frac", met, "ratio");
    let mut ordered = Vec::with_capacity(END_TO_END.len());
    for &(name, unit) in END_TO_END {
        match out.metrics.iter().find(|m| m.name == name) {
            Some(m) => ordered.push(m.clone()),
            None => ordered.push(outcome::Metric {
                name,
                value: f64::NAN,
                unit,
            }),
        }
    }
    out.metrics = ordered;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units in `BENCHMARK.json` at the repository
    /// root, in file order, for one of its metric lists.
    fn listed(key: &str) -> Vec<(String, String)> {
        let doc = include_str!("../../BENCHMARK.json");
        let from = doc
            .find(&format!("\"{key}\""))
            .expect("metric list present");
        let list = &doc[from..];
        let list = &list[..list.find(']').expect("list closes")];
        let field = |entry: &str, name: &str| -> String {
            let at = entry.find(&format!("\"{name}\"")).expect("field present");
            let rest = &entry[at + name.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = rest[open..].find('"').expect("string closes");
            rest[open..open + close].to_owned()
        };
        list.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn as_owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), as_owned(END_TO_END));
        assert_eq!(listed("per_layer"), as_owned(PER_LAYER));
    }

    #[test]
    fn workload_names_resolve() {
        for (name, w) in Workload::ALL {
            assert_eq!(Workload::by_name(name), Some(w));
        }
        assert_eq!(Workload::by_name("gaia"), None);
    }

    #[test]
    fn layers_fill_missing_metrics_with_zero() {
        let mut layers = Layers::default();
        layers.set("fed.markets", 3.0);
        let mut out = Outcome::default();
        layers.into_outcome(&mut out);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        let get = |n: &str| out.metrics.iter().find(|m| m.name == n).map(|m| m.value);
        assert_eq!(get("fed.markets"), Some(3.0));
        assert_eq!(get("fed.rounds"), Some(0.0));
    }
}

//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark workload and prints, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when an output check fails, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use mpr_perfbench::outcome::Outcome;
use mpr_perfbench::Workload;

/// Rayon workers the benchmark allows, at most: the host the benchmark
/// was defined on has two cores.
const MAX_THREADS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload gaia-int|gaia-opt-fed|gaia-stat-wal|market-fed-20k \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Set before any thread exists; the rayon shim reads it per call.
    std::env::set_var("RAYON_NUM_THREADS", cores.min(MAX_THREADS).to_string());
    let scratch =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!(".scratch-{}", std::process::id()));

    let out = std::panic::catch_unwind(|| {
        mpr_perfbench::run(
            args.workload,
            args.seed,
            args.seconds,
            args.traced,
            &scratch,
        )
    })
    .unwrap_or_else(|_| {
        let _ = std::fs::remove_dir_all(&scratch);
        let mut out = Outcome::default();
        out.check(false, || "the workload panicked".into());
        out
    });

    for line in &out.notes {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("  {:<24} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  threads {} of {cores} cores | {} operations, {} failed",
        cores.min(MAX_THREADS),
        out.attempted,
        out.failed
    );
    for failure in &out.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `nc_benchmark`: one layered, repeatable benchmark for the whole system.
//!
//! ```text
//! nc_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! nc_benchmark report  [--out <dir>] [--save <file>]
//! nc_benchmark compare <baseline.json> [--out <dir>]
//! ```
//!
//! The first form runs one workload in this process and prints, as the last line of its
//! standard output, one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! `bench/run.sh` is the one command that builds, runs every workload both ways, merges
//! and prints; `bench/README.md` is the metric catalogue.

mod catalogue;
mod fixture;
mod gen;
mod layers;
mod measure;
mod phase;
mod probes;
mod refclock;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use catalogue::{END_TO_END, LAYERS, WORKLOADS};
use fixture::Scale;
use workloads::{Ctx, Outcome};

/// Where records and traces go unless `--out` says otherwise (relative to the directory
/// the benchmark is started in: the repository root).
const DEFAULT_OUT: &str = "bench/out";

/// The traced run's measured phase is at most this long: its numbers are not gated, and
/// the probes that follow it need the time.
const TRACED_SECONDS: f64 = 10.0;

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} {v:?} is not a valid value")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn out(&self) -> PathBuf {
        PathBuf::from(self.value("--out").unwrap_or(DEFAULT_OUT))
    }
}

fn run_workload(args: &Args, workload: &str) -> Result<bool, String> {
    let run: fn(&Ctx) -> Outcome = match workload {
        "plan_burst" => workloads::plan_burst,
        "direct_m" => workloads::direct_m,
        "build_light" => workloads::build_light,
        "update_serve" => workloads::update_serve,
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {other:?}; one of {names:?}"));
        }
    };
    let seed: u64 = args.parsed("--seed", fixture::FIXTURE_SEED)?;
    let traced = match args.parsed::<u8>("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let smoke = args.has("--smoke");
    let seconds: f64 = args.parsed("--seconds", if smoke { 1.0 } else { 20.0 })?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: expected a positive number"));
    }
    let ctx = Ctx {
        seed,
        scale: Scale {
            smoke,
            seconds: if traced {
                seconds.min(TRACED_SECONDS)
            } else {
                seconds
            },
        },
        trace: traced,
        out: args.out(),
    };
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    let outcome = run(&ctx);

    // A run that could not produce its metrics is a failed run, never a silent gap.
    let expected: Vec<&str> = if traced {
        LAYERS.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let printed: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    let complete = printed == expected && outcome.metrics.iter().all(|(_, v)| v.is_finite());
    let kind = if traced { "per_layer" } else { "end_to_end" };
    let record = report::run_record(workload, traced, seed, ctx.scale.seconds, &outcome);
    let path = ctx.out.join(format!("{workload}.{kind}.json"));
    let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(serde::Json::Array(failures)) =
        report::get(&record, "detail").and_then(|d| report::get(d, "failures"))
    {
        for failure in failures {
            eprintln!("nc_benchmark: {workload}: {failure:?}");
        }
    }
    if !complete {
        return Err(format!(
            "{workload} did not produce every {kind} metric as a finite number"
        ));
    }
    println!("{}", report::result_line(&outcome));
    Ok(outcome.failed == 0)
}

fn main_inner() -> Result<bool, String> {
    let args = Args(std::env::args().skip(1).collect());
    match args.0.first().map(String::as_str) {
        Some("report") => {
            let result = report::merge(&args.out())?;
            let correct = report::print(&result);
            let path = args
                .value("--save")
                .map_or_else(|| args.out().join("result.json"), PathBuf::from);
            let text = serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?;
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("wrote {}", path.display());
            Ok(correct)
        }
        Some("compare") => {
            let baseline = args.0.get(1).ok_or("compare needs the baseline's path")?;
            let result = report::read_json(&args.out().join("result.json"))?;
            let regressions = report::compare(&result, &report::read_json(std::path::Path::new(baseline))?);
            println!("{regressions} end-to-end metrics past their bound (or seeded quantities changed)");
            Ok(regressions == 0)
        }
        _ => match args.value("--workload") {
            Some(workload) => run_workload(&args, workload),
            None => Err("usage: nc_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>] | report | compare <baseline>".into()),
        },
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("nc_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

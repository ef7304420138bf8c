//! RaxPP benchmark: one command for the four workloads of
//! `BENCHMARK.json`, printing every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_compute|train_collective|train_wire|serve_open|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! measures the per-layer metrics and writes the per-layer table to
//! `perfbench/tables/<workload>.md`. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Any failed correctness check exits with status 1.

mod layers;
mod micro;
mod procstat;
mod report;
mod serve;
mod stats;
mod train;

use std::path::Path;
use std::process::ExitCode;

use report::Report;

const WORKLOADS: [&str; 4] = [
    "train_compute",
    "train_collective",
    "train_wire",
    "serve_open",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    match workload {
        "train_compute" => train::run(&train::TRAIN_COMPUTE, seed, seconds, trace),
        "train_collective" => train::run(&train::TRAIN_COLLECTIVE, seed, seconds, trace),
        "train_wire" => train::run(&train::TRAIN_WIRE, seed, seconds, trace),
        "serve_open" => serve::run(seed, seconds, trace),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Prints one workload's findings and metric table; in a traced run
/// also writes its per-layer table under `tables/`.
fn print(workload: &str, seed: u64, trace: bool, cores: usize, r: &Report) -> Result<(), String> {
    println!(
        "== {workload} (seed {seed}, {}, available_cores {cores}) ==",
        if trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    for n in &r.notes {
        println!("  {n}");
    }
    print!("{}", r.table(trace));
    if trace {
        std::fs::create_dir_all("tables").map_err(|e| format!("creating tables/: {e}"))?;
        let header = format!(
            "Seed {seed}, available_cores {cores}, attempted {}, failed {}, correct {}. Written \
             by `perfbench --workload {workload} --trace 1`.",
            r.attempted, r.failed, r.correct
        );
        let path = format!("tables/{workload}.md");
        std::fs::write(&path, r.layer_markdown(workload, &header))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("  wrote perfbench/{path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every workload runs in the default configuration.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("RAXPP_"))
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {set:?} set; unset every RAXPP_* variable");
        return ExitCode::from(2);
    }
    // Work inside the benchmark's own directory; socket fleets create
    // their directories under a short relative TMPDIR there.
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    if let Err(e) = std::env::set_current_dir(here).and_then(|()| std::fs::create_dir_all("tmp")) {
        eprintln!("perfbench: preparing {}: {e}", here.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", "tmp");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let modes: &[bool] = if args.workload == "all" {
        &[false, true]
    } else {
        &[args.trace]
    };
    let mut last = None;
    let mut all_correct = true;
    for &w in &workloads {
        for &trace in modes {
            let ticks0 = procstat::host_ticks();
            let r = match run(w, args.seed, args.seconds, trace) {
                Ok(mut r) => {
                    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, procstat::host_ticks()) {
                        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
                        r.note(format!(
                            "host: hypervisor steal was {:.1}% of CPU time during the run",
                            100.0 * share
                        ));
                    }
                    r
                }
                Err(e) => {
                    eprintln!("perfbench: {w}: {e}");
                    return ExitCode::from(1);
                }
            };
            if let Err(e) = print(w, args.seed, trace, cores, &r) {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
            all_correct &= r.correct;
            last = Some((r, trace));
        }
    }
    let _ = std::fs::remove_dir("tmp");
    let (r, trace) = last.expect("at least one workload ran");
    if args.workload == "all" {
        println!(
            "{{\"correct\": {all_correct}, \"workloads\": {}}}",
            workloads.len()
        );
    } else {
        println!("{}", r.json_line(trace));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness check failed");
        ExitCode::from(1)
    }
}

//! `experiments` — regenerates every table and figure of the PLDI'98
//! evaluation.
//!
//! ```text
//! experiments <table1..table7|figure2|extensions|all> [--scale N] [--csv DIR]
//! experiments bench-json [--out FILE] [--workers N]
//! experiments bench-compare [--baseline FILE] [--candidate FILE]
//!                           [--max-regress-pct N]
//! experiments gc-log [--bench NAME] [--plan LABEL] [--out-dir DIR]
//!                    [--validate] [--adaptive] [--ttsp]
//! experiments slo-report [--input FILE.jsonl | --bench NAME --plan LABEL
//!                        [--adaptive] [--ttsp]] [--validate] [--report FILE]
//!                        [--max-p50 C] [--max-p90 C] [--max-p99 C]
//!                        [--max-p999 C] [--mmu-window C] [--min-mmu P]
//! experiments drift
//! ```
//!
//! `bench-json` runs the fixed wall-clock GC-throughput suite and
//! writes a machine-readable baseline (default `BENCH_pr10.json`); it is
//! not part of `all`, whose outputs are deterministic simulated cycles.
//! `--workers N` sizes the parallel lane of the Table 5 workload (and is
//! recorded in the baseline alongside the host's core count).
//! `bench-compare` gates a candidate baseline (default
//! `BENCH_nightly.json`) against a reference (default `BENCH_pr10.json`),
//! failing if any kernel throughput regressed more than the allowed
//! percentage (default 25), any batched kernel drifted below its scalar
//! reference path, the adaptive pretenurer drifted below the static
//! policy on the drifting workload, any pause percentile grew past the
//! allowance, any MMU floor fell below it, or any time-to-safepoint
//! percentile grew past it.
//! `gc-log` runs one benchmark (default `Checksum`) under one collector
//! (default `gen+markers`) with the telemetry recorder attached, prints
//! an ASCII per-collection phase timeline and per-site survival table,
//! and writes the event stream as JSONL plus a Chrome/Perfetto trace
//! into `--out-dir` (default `gclog`); `--validate` additionally checks
//! both files against the documented schema, `--adaptive` turns the
//! online pretenuring estimator on so its site flips show up in the log,
//! and `--ttsp` turns time-to-safepoint tracking on so the log's
//! collection-begin lines carry it.
//! `slo-report` evaluates pause-time service-level objectives: it reads
//! an event stream (a `gc-log` JSONL via `--input`, or a live run of
//! `--bench` under `--plan` — the gc-log rig), prints the pause
//! percentile table, the MMU curve, the last heap census, and the
//! recorder's drop accounting, then checks each configured bound —
//! `--max-p50/--max-p90/--max-p99/--max-p999 CYCLES` upper-bound pause
//! percentiles, and `--min-mmu PERMILLE` lower-bounds the MMU at the
//! preceding `--mmu-window CYCLES` (default 1500000, i.e. 10 ms at the
//! default clock; the flag pair may repeat for multiple windows) —
//! exiting nonzero on any violation. `--report FILE` additionally writes
//! the report text to a file for CI artifacts. `--ttsp` enables
//! time-to-safepoint tracking on live runs; replayed streams surface
//! TTSP automatically whenever they carry `ttsp_cycles` fields.
//! `drift` runs the phase-flipping workload under the pretenure plan
//! twice — stale static policy vs online adaptation — and reports the
//! deterministic `drift_adaptive_speedup_vs_static` ratio.
//!
//! Build with `--release`: the simulator is deterministic either way, but
//! debug builds are an order of magnitude slower.

mod bench_json;
mod compare;
mod csv;
mod drift;
mod extensions;
mod gclog;
mod harness;
mod slo;
mod tables;

use std::process::ExitCode;

/// The value after flag `args[*i]`, advancing `*i` past it: parsed as
/// `T` and accepted by `ok`, else the error "`<flag>` needs `<what>`".
fn flag_value<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .and_then(|s| s.parse().ok())
        .filter(|v| ok(v))
        .ok_or_else(|| format!("{flag} needs {what}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Option<String> = None;
    let mut scale: u32 = 1;
    let mut out = "BENCH_pr10.json".to_string();
    let mut baseline = "BENCH_pr10.json".to_string();
    let mut candidate = "BENCH_nightly.json".to_string();
    let mut max_regress_pct = 25.0f64;
    let mut workers: usize = 4;
    let mut csv_sink = csv::CsvSink::disabled();
    let mut bench = "Checksum".to_string();
    let mut plan = "gen+markers".to_string();
    let mut out_dir = "gclog".to_string();
    let mut validate = false;
    let mut adaptive = false;
    let mut ttsp = false;
    let mut input: Option<String> = None;
    let mut report: Option<String> = None;
    let mut spec = tilgc_obs::metrics::SloSpec::default();
    // Window the next `--min-mmu` bound applies at: 10 ms at the default
    // 150 MHz clock.
    let mut mmu_window: u64 = 1_500_000;
    let any = |_: &String| true;
    let mut i = 0;
    while i < args.len() {
        let i = &mut i;
        match args[*i].as_str() {
            "--baseline" => baseline = flag_value(&args, i, "a file path", any)?,
            "--candidate" => candidate = flag_value(&args, i, "a file path", any)?,
            "--max-regress-pct" => {
                max_regress_pct =
                    flag_value(&args, i, "a non-negative number", |p: &f64| *p >= 0.0)?;
            }
            "--out" => out = flag_value(&args, i, "a file path", any)?,
            "--csv" => {
                let dir: String = flag_value(&args, i, "a directory", any)?;
                csv_sink = csv::CsvSink::into_dir(std::path::Path::new(&dir))
                    .map_err(|e| format!("--csv {dir}: {e}"))?;
            }
            "--bench" => bench = flag_value(&args, i, "a benchmark name", any)?,
            "--plan" => plan = flag_value(&args, i, "a collector label", any)?,
            "--out-dir" => out_dir = flag_value(&args, i, "a directory", any)?,
            "--validate" => validate = true,
            "--adaptive" => adaptive = true,
            "--ttsp" => ttsp = true,
            "--input" => input = Some(flag_value(&args, i, "a JSONL file path", any)?),
            "--report" => report = Some(flag_value(&args, i, "a file path", any)?),
            flag @ ("--max-p50" | "--max-p90" | "--max-p99" | "--max-p999") => {
                let permille = match flag {
                    "--max-p50" => 500,
                    "--max-p90" => 900,
                    "--max-p99" => 990,
                    _ => 999,
                };
                let bound = flag_value(&args, i, "a cycle count", |_: &u64| true)?;
                spec.max_pause.push((permille, bound));
            }
            "--mmu-window" => {
                mmu_window = flag_value(&args, i, "a positive cycle count", |w: &u64| *w > 0)?;
            }
            "--min-mmu" => {
                let floor = flag_value(&args, i, "a permille value (0..=1000)", |p: &u64| {
                    *p <= 1000
                })?;
                spec.min_mmu.push((mmu_window, floor));
            }
            "--workers" => {
                workers = flag_value(&args, i, "a positive integer", |w: &usize| *w >= 1)?;
            }
            "--scale" => scale = flag_value(&args, i, "a positive integer", |_: &u32| true)?,
            other if which.is_none() => which = Some(other.to_string()),
            other => return Err(format!("unexpected argument: {other}")),
        }
        *i += 1;
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    if which == "bench-compare" {
        return Ok(compare::run(&baseline, &candidate, max_regress_pct));
    }
    if which == "gc-log" {
        return Ok(gclog::run(
            &bench, &plan, &out_dir, validate, adaptive, ttsp,
        ));
    }
    if which == "slo-report" {
        return Ok(slo::run(&slo::SloRequest {
            input,
            bench,
            plan,
            adaptive,
            ttsp,
            validate,
            report,
            spec,
        }));
    }
    if which == "drift" {
        drift::run();
        return Ok(ExitCode::SUCCESS);
    }
    let run = |name: &str| match name {
        "table1" => tables::table1(),
        "table2" => tables::table2(scale),
        "table3" => tables::table3(scale, &csv_sink),
        "table4" => tables::table4(scale, &csv_sink),
        "table5" => tables::table5(scale, &csv_sink),
        "table6" => tables::table6(scale, &csv_sink),
        "table7" => tables::table7(scale, &csv_sink),
        "figure2" => tables::figure2(scale),
        "extensions" => extensions::all(scale),
        "bench-json" => bench_json::run(&out, workers),
        other => {
            eprintln!(
                "unknown experiment {other:?}; expected table1..table7, figure2, extensions, \
                 bench-json, bench-compare, gc-log, slo-report, drift, or all"
            );
            std::process::exit(2);
        }
    };
    if which == "all" {
        for name in [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "figure2",
            "extensions",
        ] {
            run(name);
            println!();
        }
    } else {
        run(&which);
    }
    Ok(ExitCode::SUCCESS)
}

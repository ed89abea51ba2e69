//! The repository benchmark.
//!
//! ```text
//! env MALLOC_ARENA_MAX=1 MALLOC_MMAP_THRESHOLD_=131072 \
//!     cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in closed loop: passes over the workload's sessions,
//! each session starting after the previous one ends, until `--seconds`
//! have passed. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it interleaves untraced and traced passes and prints the
//! per-layer metrics of the traced ones, writing their spans to
//! `.bench_build/perfbench-spans/`. The last line of standard output is
//! one JSON object. See `perfbench/NOTES.md` for the workloads and
//! metrics.

mod probe;
mod trees;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tilgc_obs::GcPhase;
use tilgc_programs::common::XorShift;
use tilgc_runtime::CostModel;

use probe::Tracer;
use workload::{run_session, status_kb, Session, SessionRecord, Workload};

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// A run measures at least this many passes, however long they take.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One pass over every session, in `order`.
struct Pass {
    wall_s: f64,
    records: Vec<(usize, SessionRecord)>,
}

fn run_pass(sessions: &[Session], order: &[usize], tracer: &mut Tracer) -> Pass {
    let start = Instant::now();
    let records = order
        .iter()
        .map(|&i| (i, run_session(&sessions[i], tracer, i as u32)))
        .collect();
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        records,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `permille`/1000.
fn percentile(sorted: &[u64], permille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * permille).div_ceil(1000).max(1);
    sorted[rank as usize - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metrics in output order, with units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn secs(cycles: u64) -> f64 {
    CostModel::default().secs(cycles)
}

/// End-to-end metrics of the untraced passes.
fn end_to_end(passes: &[Pass], setup_s: f64, ok_share: f64) -> Metrics {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(f).collect());
    let pauses = |p: &Pass| {
        let mut v: Vec<u64> = p
            .records
            .iter()
            .flat_map(|(_, r)| r.calls.pause_cycles.iter().copied())
            .collect();
        v.sort_unstable();
        v
    };
    let mut m = Metrics::default();
    m.put("run_s", per_pass(&|p| p.wall_s), "s");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", status_kb("VmHWM:") as f64 / 1024.0, "MB");
    let sim = |f: &dyn Fn(&SessionRecord) -> u64| {
        per_pass(&|p| secs(p.records.iter().map(|(_, r)| f(r)).sum()))
    };
    m.put(
        "sim_total_s",
        sim(&|r| r.mutator.client_cycles + r.gc.gc_cycles()),
        "sim_s",
    );
    m.put("sim_gc_s", sim(&|r| r.gc.gc_cycles()), "sim_s");
    m.put(
        "pause_p50_cycles",
        per_pass(&|p| percentile(&pauses(p), 500) as f64),
        "cycles",
    );
    m.put(
        "pause_p99_cycles",
        per_pass(&|p| percentile(&pauses(p), 990) as f64),
        "cycles",
    );
    m.put(
        "mmu_10ms_permille",
        per_pass(&|p| {
            p.records
                .iter()
                .map(|(_, r)| r.mmu_permille)
                .min()
                .unwrap_or(1000) as f64
        }),
        "permille",
    );
    m.put("ok_share", ok_share, "ratio");
    m
}

/// Per-layer metrics of the traced passes: each is computed per pass and
/// the median over passes is reported.
fn per_layer(traced: &[Pass], plain_run_s: f64, derive_s: f64) -> Metrics {
    let mut m = Metrics::default();
    let mut put = |name: &str, unit: &'static str, f: &dyn Fn(&Pass) -> f64| {
        m.put(name, median(traced.iter().map(f).collect()), unit);
    };
    fn sum(p: &Pass, f: impl Fn(&SessionRecord) -> u64) -> f64 {
        p.records.iter().map(|(_, r)| f(r)).sum::<u64>() as f64
    }
    let n = |p: &Pass| p.records.len() as f64;
    let collect_walls = |p: &Pass| {
        let mut v: Vec<u64> = p
            .records
            .iter()
            .flat_map(|(_, r)| r.calls.calls.iter())
            .filter(|c| c.name != "collector.finish")
            .map(|c| c.ns())
            .collect();
        v.sort_unstable();
        v
    };
    let collect_ns = |p: &Pass| sum(p, |r| r.calls.collect_ns);
    let mutator_ns = |p: &Pass| sum(p, |r| r.program_ns - r.calls.collector_ns());

    put("mem.construct_ms_per_vm", "ms", &|p| {
        sum(p, |r| r.construct_ns) / n(p) / 1e6
    });
    put("mem.construct_rss_mb_per_vm", "MB", &|p| {
        p.records
            .iter()
            .map(|(_, r)| r.construct_rss_kb)
            .sum::<i64>() as f64
            / n(p)
            / 1024.0
    });
    put("mem.teardown_ms_per_vm", "ms", &|p| {
        sum(p, |r| r.drop_ns) / n(p) / 1e6
    });
    put("runtime.mutator_self_s", "s", &|p| mutator_ns(p) / 1e9);
    put("runtime.mutator_ns_per_alloc", "ns", &|p| {
        ratio(mutator_ns(p), sum(p, |r| r.mutator.alloc_objects))
    });
    put("runtime.mutator_ns_per_kcycle", "ns", &|p| {
        ratio(mutator_ns(p), sum(p, |r| r.mutator.client_cycles) / 1e3)
    });
    put("runtime.allocs", "count", &|p| {
        sum(p, |r| r.mutator.alloc_objects)
    });
    put("runtime.frame_pushes", "count", &|p| {
        sum(p, |r| r.frame_pushes)
    });
    put("runtime.pointer_updates", "count", &|p| {
        sum(p, |r| r.mutator.pointer_updates)
    });
    put("runtime.barrier_entries_per_update", "ratio", &|p| {
        ratio(
            sum(p, |r| r.gc.barrier_entries),
            sum(p, |r| r.mutator.pointer_updates),
        )
    });
    put("core.alloc.fast_calls", "count", &|p| {
        sum(p, |r| r.calls.fast_calls)
    });
    put("core.alloc.fast_ns_per_call", "ns", &|p| {
        ratio(sum(p, |r| r.calls.fast_ns), sum(p, |r| r.calls.fast_calls))
    });
    put("core.collect.count", "count", &|p| {
        sum(p, |r| r.gc.collections)
    });
    put("core.collect.major_count", "count", &|p| {
        sum(p, |r| r.gc.major_collections)
    });
    put("core.collect.wall_s", "s", &|p| collect_ns(p) / 1e9);
    put("core.collect.wall_p50_us", "us", &|p| {
        percentile(&collect_walls(p), 500) as f64 / 1e3
    });
    put("core.collect.wall_p99_us", "us", &|p| {
        percentile(&collect_walls(p), 990) as f64 / 1e3
    });
    put("core.collect.copied_mb_per_s", "MB/s", &|p| {
        ratio(
            sum(p, |r| r.gc.copied_bytes) / f64::from(1 << 20),
            collect_ns(p) / 1e9,
        )
    });
    put("core.collect.ns_per_sim_cycle", "ns/cycle", &|p| {
        ratio(collect_ns(p), sum(p, |r| r.gc.gc_cycles()))
    });
    put("core.collect.stack_wall_s", "s", &|p| {
        sum(p, |r| r.gc.stack_wall_ns) / 1e9
    });
    put("core.collect.copy_wall_s", "s", &|p| {
        sum(p, |r| r.gc.copy_wall_ns) / 1e9
    });
    put("core.collect.stack_cycles", "cycles", &|p| {
        sum(p, |r| r.gc.stack_cycles)
    });
    put("core.collect.copy_cycles", "cycles", &|p| {
        sum(p, |r| r.gc.copy_cycles)
    });
    put("core.collect.other_cycles", "cycles", &|p| {
        sum(p, |r| r.gc.other_cycles)
    });
    put("core.collect.unattributed_s", "s", &|p| {
        (collect_ns(p) - sum(p, |r| r.gc.total_wall_ns)) / 1e9
    });
    put("core.roots.frames_scanned", "count", &|p| {
        sum(p, |r| r.gc.frames_scanned)
    });
    put("core.roots.frame_reuse_ratio", "ratio", &|p| {
        let reused = sum(p, |r| r.gc.frames_reused);
        ratio(reused, reused + sum(p, |r| r.gc.frames_scanned))
    });
    put("core.pretenure.bytes", "bytes", &|p| {
        sum(p, |r| r.gc.pretenured_bytes)
    });
    put("core.pretenure.scanned_words", "words", &|p| {
        sum(p, |r| r.gc.pretenured_scanned_words)
    });
    put("core.scheduler.engaged_share", "ratio", &|p| {
        ratio(
            sum(p, |r| r.recorder.parallel_ends),
            sum(p, |r| r.recorder.collection_ends),
        )
    });
    put("core.scheduler.wall_per_collection_us", "us", &|p| {
        ratio(collect_ns(p) / 1e3, sum(p, |r| r.gc.collections))
    });
    put("core.scheduler.workers_lost", "count", &|p| {
        sum(p, |r| r.gc.workers_lost)
    });
    put("core.scheduler.degraded_collections", "count", &|p| {
        sum(p, |r| r.gc.degraded_collections)
    });
    put("core.scheduler.oracle_divergent_sessions", "count", &|p| {
        sum(p, |r| u64::from(r.oracle_divergent))
    });
    put("profile.derive_s", "s", &|_| derive_s);
    put("obs.events", "count", &|p| sum(p, |r| r.events));
    put("obs.dropped", "count", &|p| sum(p, |r| r.dropped));
    put("obs.record_ns_per_event", "ns", &|p| {
        ratio(
            sum(p, |r| r.recorder.record_ns),
            sum(p, |r| r.recorder.events),
        )
    });
    put("obs.jsonl_render_ms", "ms", &|p| {
        sum(p, |r| r.render_ns) / 1e6
    });
    put("obs.validate_ms", "ms", &|p| {
        sum(p, |r| r.validate_ns) / 1e6
    });
    for (i, phase) in GcPhase::ALL.into_iter().enumerate() {
        let name = format!("obs.phase_wall_ms.{}", phase.wire_name());
        put(&name, "ms", &|p| {
            sum(p, |r| r.recorder.phase_wall_ns[i]) / 1e6
        });
    }
    put("trace.overhead_s", "s", &|p| p.wall_s - plain_run_s);
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);

    let mut setup_s = Vec::new();
    let mut derive_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = workload::setup(args.workload, args.seed, &mut tracer);
        setup_s.push(t.elapsed().as_secs_f64());
        derive_s.push(s.derive_ns as f64 / 1e9);
        setup = Some(s);
    }
    let setup = setup.expect("SETUP_REPS > 0");
    let sessions = &setup.sessions;

    let mut rng = XorShift::new(args.seed ^ 0x5E55_1075);
    let mut order: Vec<usize> = (0..sessions.len()).collect();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while plain.len() < MIN_PASSES || start.elapsed() < budget {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        plain.push(run_pass(sessions, &order, &mut Tracer::new(false)));
        if args.trace {
            traced.push(run_pass(sessions, &order, &mut tracer));
        }
    }

    // Every session must repeat its first untraced result exactly, in
    // every later pass and in the traced passes.
    let mut reference: Vec<Option<_>> = vec![None; sessions.len()];
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    for pass in plain.iter_mut().chain(traced.iter_mut()) {
        for (i, r) in pass.records.iter_mut() {
            attempted += 1;
            let parallel = sessions[*i].config.workers > 1;
            let fp = r.fingerprint(parallel);
            match &reference[*i] {
                None if r.failure.is_none() => reference[*i] = Some(fp),
                Some(first) if *first != fp && r.failure.is_none() => {
                    r.failure = Some("results differ from the first pass".into())
                }
                _ => {}
            }
            if let Some(f) = &r.failure {
                failures.push(format!("{}: {f}", sessions[*i].label()));
            }
        }
    }
    let failed = failures.len() as u64;
    let ok_share = (attempted - failed) as f64 / attempted as f64;

    let plain_run_s = median(plain.iter().map(|p| p.wall_s).collect());
    println!(
        "perfbench {} seed {}: {} sessions, {} untraced + {} traced passes, {} of {} sessions failed (failed_share {})",
        args.workload.name(),
        args.seed,
        sessions.len(),
        plain.len(),
        traced.len(),
        failed,
        attempted,
        failed as f64 / attempted as f64,
    );
    let walls: Vec<String> = plain.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!("pass wall s: {}", walls.join(" "));
    let samples: Vec<usize> = plain
        .iter()
        .map(|p| {
            p.records
                .iter()
                .map(|(_, r)| r.calls.pause_cycles.len())
                .sum()
        })
        .collect();
    println!("pause samples per pass: {samples:?}");
    if let Some(h) = setup.tree_sequence {
        println!("tree depth sequence hash {h:#018x}");
    }
    let mut first: Vec<_> = plain[0].records.iter().collect();
    first.sort_by_key(|(i, _)| *i);
    for (i, r) in first {
        println!(
            "  {:36} checksum {:#018x} alloc_bytes {} gc_cycles {}",
            sessions[*i].label(),
            r.checksum,
            r.mutator.alloc_bytes,
            r.gc.gc_cycles(),
        );
    }
    for f in failures.iter().take(20) {
        println!("FAILED {f}");
    }

    let metrics = if args.trace {
        let path = std::path::PathBuf::from(format!(
            ".bench_build/perfbench-spans/{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match tracer.write(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans.len(),
                path.display()
            ),
            Err(e) => println!("spans: cannot write {}: {e}", path.display()),
        }
        per_layer(&traced, plain_run_s, median(derive_s))
    } else {
        end_to_end(&plain, median(setup_s), ok_share)
    };
    for (name, value, unit) in &metrics.0 {
        println!("  {name:44} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json()
    );
    ExitCode::SUCCESS
}

//! `experiments bench-json` — a fixed GC-throughput suite emitting a
//! machine-readable baseline (`BENCH_pr10.json`).
//!
//! Seven wall-clock metric groups plus deterministic lanes (the
//! tables, by contrast, report only deterministic simulated cycles):
//!
//! * evacuation-scan throughput in heap words per second,
//! * stack-scan throughput in frames per second,
//! * store-buffer filter throughput in entries per second,
//! * write-barrier filter throughput in updates per second (the
//!   branch-free side-bitmap dedup plus bulk retire, against the scalar
//!   test-branch-set filter plus per-object clear walk),
//! * side-metadata bulk-clear throughput in heap megabytes retired per
//!   second,
//! * the end-to-end Table 5 workload (the four headline benchmarks
//!   under the generational collector with stack markers) in
//!   milliseconds, serial,
//! * the same workload with the work-packet scheduler at `--workers N`:
//!   parallel wall time, parallel-vs-serial speedup, and per-worker copy
//!   throughput (copied MB per second of copy-phase wall time, divided
//!   by the worker count),
//! * the drifting-workload ratio `drift_adaptive_speedup_vs_static` —
//!   simulated GC cycles of a stale static pretenure policy divided by
//!   the online-adaptive lane's, on the phase-flipping program (see the
//!   `drift` subcommand). Deterministic, so any value below 1.0 is a
//!   policy defect rather than noise,
//! * the pause/latency lane: for every collector plan, the headline
//!   workload runs once at the calibrated k = 4.0 heap budget with the
//!   telemetry recorder attached and the streaming pause histogram is
//!   merged across the four benchmarks.
//!   The baseline records each plan's p50/p99/p99.9 pause in simulated
//!   gc cycles plus the worst per-benchmark MMU at a 10 ms-equivalent
//!   window (`<plan>_pause_p50_cycles`, …, `<plan>_mmu_10ms_equiv`,
//!   with `+` in plan labels flattened to `_`). The same runs track
//!   time-to-safepoint — the client cycles between each collection and
//!   the mutator's last safepoint poll — and record per-plan
//!   `<plan>_ttsp_p50_cycles`/`<plan>_ttsp_p99_cycles` (TTSP tracking
//!   is observational, so it perturbs none of the pause numbers). All
//!   simulated-cycle numbers, so they are byte-deterministic and gate
//!   tightly.
//!
//! The kernel metrics also record the batched-vs-reference speedup
//! measured against the pre-batching scalar paths retained under
//! `tilgc-core`'s `kernel-ref` feature, so a regression in the rewrites
//! shows up as a ratio near (or below) 1.0.
//!
//! The baseline records `workers` and `host_cores` so the nightly gate
//! can tell an honest single-core measurement (parallel speedup near or
//! below 1.0 is expected — the lanes interleave on one CPU) from a real
//! scaling regression on a multi-core runner.

use std::time::Instant;

use tilgc_bench::kernels::{BarrierRig, BulkClearRig, EvacRig, SsbRig, StackRig};
use tilgc_bench::{bench_config, run_program, HEADLINERS};
use tilgc_core::{build_vm, CollectorKind, GcConfig};
use tilgc_obs::metrics::{PauseHistogram, PauseMetrics, TtspMetrics};
use tilgc_runtime::CostModel;

use crate::harness::{recorded_run, Calibration};

/// Iterations per kernel measurement (after warm-up).
const KERNEL_ITERS: usize = 200;
/// Iterations of the end-to-end workload (after warm-up).
const WORKLOAD_ITERS: usize = 5;

/// One collector plan's deterministic pause/MMU numbers.
struct PauseLane {
    /// Plan label with `+` flattened to `_` for JSON keys.
    key: String,
    p50: u64,
    p99: u64,
    p999: u64,
    /// Worst per-benchmark MMU at the 10 ms-equivalent window, permille.
    mmu_10ms: u64,
    /// Time-to-safepoint percentiles over the same collections, in
    /// simulated client cycles since the mutator's last poll.
    ttsp_p50: u64,
    ttsp_p99: u64,
}

/// Runs the headline workload once per plan with the recorder attached
/// and reduces the event streams to pause percentiles and MMU. Purely
/// simulated cycles — deterministic across hosts and runs. The heap
/// budget is the calibrated k = 4.0 ratio (the `gc-log` rig), not the
/// huge wall-clock-suite budget: a budget so large that a plan never
/// collects would record a degenerate all-zero lane that gates nothing.
fn measure_pause_lanes() -> Vec<PauseLane> {
    let window = CostModel::default().cycles_per_ms(10);
    let mut cal = Calibration::new(1);
    CollectorKind::ALL
        .iter()
        .map(|&kind| {
            let mut hist = PauseHistogram::new();
            let mut ttsp = TtspMetrics::new();
            let mut mmu_10ms = 1000u64;
            for &bench in HEADLINERS.iter() {
                // TTSP tracking is observational: it charges no cycles,
                // so the pause lane's numbers are unchanged by it.
                let run = recorded_run(bench, kind, &mut cal, false, true);
                let mut metrics = PauseMetrics::from_events(&run.events);
                metrics.set_horizon(run.total_cycles);
                hist.merge(metrics.histogram());
                ttsp.merge(TtspMetrics::from_events(&run.events).histogram());
                mmu_10ms = mmu_10ms.min(metrics.mmu(window));
            }
            PauseLane {
                key: kind.label().replace('+', "_"),
                p50: hist.percentile(500),
                p99: hist.percentile(990),
                p999: hist.percentile(999),
                mmu_10ms,
                ttsp_p50: ttsp.histogram().percentile(500),
                ttsp_p99: ttsp.histogram().percentile(990),
            }
        })
        .collect()
}

/// Times `pass` over `iters` iterations and returns the median seconds
/// per iteration. A few warm-up passes are discarded first.
fn median_pass_secs<F: FnMut()>(mut pass: F, iters: usize) -> f64 {
    for _ in 0..3 {
        pass();
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    samples[samples.len() / 2]
}

/// Times a batched kernel and its scalar reference, each on a fresh rig
/// from `new`: returns the batched rig (for its per-pass sizes), the
/// median seconds per pass of each, and each one's last result.
fn kernel_pair<R>(
    new: fn() -> R,
    batched: fn(&mut R) -> u64,
    reference: fn(&mut R) -> u64,
) -> (R, f64, f64, [u64; 2]) {
    let mut last = [0u64; 2];
    let mut rig = new();
    let batched_secs = median_pass_secs(
        || last[0] = std::hint::black_box(batched(&mut rig)),
        KERNEL_ITERS,
    );
    let mut rig_ref = new();
    let reference_secs = median_pass_secs(
        || last[1] = std::hint::black_box(reference(&mut rig_ref)),
        KERNEL_ITERS,
    );
    (rig, batched_secs, reference_secs, last)
}

/// One pass of the Table 5 workload under `config`, returning its
/// checksum plus the aggregate copied bytes and copy-phase wall time
/// across every collection of the pass.
fn workload_pass(config: &GcConfig) -> (u64, u64, u64) {
    let mut checksum = 0u64;
    let mut copied_bytes = 0u64;
    let mut copy_wall_ns = 0u64;
    for &bench in HEADLINERS.iter() {
        let mut vm = build_vm(CollectorKind::GenerationalStack, config);
        vm.mutator_mut().check_shadows = false;
        let c = bench.run(&mut vm, 1);
        vm.finish();
        copied_bytes += vm.gc_stats().copied_bytes;
        copy_wall_ns += vm.gc_stats().copy_wall_ns;
        checksum = checksum.rotate_left(7) ^ c;
    }
    (checksum, copied_bytes, copy_wall_ns)
}

/// Runs the suite, prints a human-readable summary, and writes the
/// JSON baseline to `path`. `workers` sizes the parallel lane of the
/// Table 5 workload.
pub fn run(path: &str, workers: usize) {
    println!(
        "GC throughput baseline ({KERNEL_ITERS} kernel iters, {WORKLOAD_ITERS} workload iters, \
         {workers} workers)"
    );
    println!("{}", "-".repeat(78));

    let (rig, evac_batched, evac_reference, _) = kernel_pair(
        EvacRig::new,
        EvacRig::scan_pass,
        EvacRig::scan_pass_reference,
    );
    let evac_words_per_sec = rig.words_per_pass as f64 / evac_batched;
    let evac_speedup = evac_reference / evac_batched;
    println!("evac scan:   {evac_words_per_sec:>14.0} words/s   {evac_speedup:.2}x vs reference");

    let (rig, stack_batched, stack_reference, _) = kernel_pair(
        StackRig::new,
        StackRig::scan_pass,
        StackRig::scan_pass_reference,
    );
    let stack_frames_per_sec = rig.frames_per_pass as f64 / stack_batched;
    let stack_speedup = stack_reference / stack_batched;
    println!(
        "stack scan:  {stack_frames_per_sec:>14.0} frames/s  {stack_speedup:.2}x vs reference"
    );

    let (rig, ssb_batched, ssb_reference, _) = kernel_pair(
        SsbRig::new,
        SsbRig::filter_pass,
        SsbRig::filter_pass_reference,
    );
    let ssb_entries_per_sec = rig.entries_per_pass as f64 / ssb_batched;
    let ssb_speedup = ssb_reference / ssb_batched;
    println!("ssb filter:  {ssb_entries_per_sec:>14.0} entries/s {ssb_speedup:.2}x vs reference");

    let (rig, barrier_batched, barrier_reference, [recorded, recorded_ref]) = kernel_pair(
        BarrierRig::new,
        BarrierRig::filter_pass,
        BarrierRig::filter_pass_reference,
    );
    assert_eq!(
        recorded, recorded_ref,
        "branch-free barrier filter diverged from the scalar reference"
    );
    let barrier_updates_per_sec = rig.updates_per_pass as f64 / barrier_batched;
    let barrier_speedup = barrier_reference / barrier_batched;
    println!(
        "barrier:     {barrier_updates_per_sec:>14.0} updates/s {barrier_speedup:.2}x vs reference"
    );

    let mut rig = BulkClearRig::new();
    let bulk_clear_secs = median_pass_secs(
        || {
            std::hint::black_box(rig.clear_pass());
        },
        KERNEL_ITERS,
    );
    let bulk_clear_mb_per_sec = rig.heap_mb_per_pass / bulk_clear_secs;
    println!("bulk clear:  {bulk_clear_mb_per_sec:>14.0} MB/s      (heap MB of retired metadata)");

    // End-to-end: the Table 5 headline workload under the generational
    // collector with stack markers, at the standard benchmark scale.
    let config = bench_config(192 << 20);
    let mut workload_checksum = 0u64;
    let workload_secs = median_pass_secs(
        || {
            workload_checksum = HEADLINERS
                .iter()
                .map(|&b| run_program(b, CollectorKind::GenerationalStack, &config, 1))
                .fold(0u64, |acc, c| acc.rotate_left(7) ^ c);
        },
        WORKLOAD_ITERS,
    );
    let workload_ms = workload_secs * 1e3;
    println!("table5 e2e:  {workload_ms:>14.2} ms        checksum {workload_checksum:#018x}");

    // The same workload with the work-packet scheduler engaged. The
    // serial and parallel lanes are defined to produce identical
    // answers, so a checksum mismatch here is a correctness bug, not
    // noise.
    let par_config = bench_config(192 << 20).workers(workers);
    let mut par_checksum = 0u64;
    let mut par_copied_bytes = 0u64;
    let mut par_copy_wall_ns = 0u64;
    let par_secs = median_pass_secs(
        || {
            let (checksum, copied, copy_ns) = workload_pass(&par_config);
            par_checksum = checksum;
            par_copied_bytes = copied;
            par_copy_wall_ns = copy_ns;
        },
        WORKLOAD_ITERS,
    );
    assert_eq!(
        par_checksum, workload_checksum,
        "parallel Table 5 workload diverged from the serial oracle"
    );
    let par_ms = par_secs * 1e3;
    let par_speedup = workload_secs / par_secs;
    let par_copy_mb_per_sec_per_worker = if par_copy_wall_ns > 0 {
        (par_copied_bytes as f64 / (1u64 << 20) as f64)
            / (par_copy_wall_ns as f64 / 1e9)
            / workers as f64
    } else {
        0.0
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "table5 par:  {par_ms:>14.2} ms        {par_speedup:.2}x vs serial, {workers} workers \
         on {host_cores} cores, {par_copy_mb_per_sec_per_worker:.1} MB/s/worker copy"
    );

    // Deterministic: the drifting workload under stale-static vs online
    // adaptive pretenuring, in simulated GC cycles.
    let drift = crate::drift::measure();
    let drift_speedup = drift.speedup;
    println!(
        "drift:       {drift_speedup:>14.3} x         adaptive vs static on the \
         phase-flipping workload"
    );

    // Deterministic: per-plan pause percentiles and MMU over the same
    // headline workload, in simulated gc cycles.
    let lanes = measure_pause_lanes();
    let mut pause_json = String::new();
    for lane in &lanes {
        println!(
            "pauses:      {:>14} p50={} p99={} p99.9={} gc-cycles, MMU@10ms {}‰, \
             TTSP p50={} p99={}",
            lane.key, lane.p50, lane.p99, lane.p999, lane.mmu_10ms, lane.ttsp_p50, lane.ttsp_p99
        );
        pause_json.push_str(&format!(
            ",\n    \"{k}_pause_p50_cycles\": {},\n    \"{k}_pause_p99_cycles\": {},\n    \
             \"{k}_pause_p999_cycles\": {},\n    \"{k}_mmu_10ms_equiv\": {},\n    \
             \"{k}_ttsp_p50_cycles\": {},\n    \"{k}_ttsp_p99_cycles\": {}",
            lane.p50,
            lane.p99,
            lane.p999,
            lane.mmu_10ms,
            lane.ttsp_p50,
            lane.ttsp_p99,
            k = lane.key
        ));
    }

    let json = format!(
        "{{\n  \"suite\": \"gc-throughput-baseline\",\n  \"kernel_iters\": {KERNEL_ITERS},\n  \"workload_iters\": {WORKLOAD_ITERS},\n  \"workers\": {workers},\n  \"host_cores\": {host_cores},\n  \"metrics\": {{\n    \"evac_words_per_sec\": {evac_words_per_sec:.0},\n    \"evac_speedup_vs_reference\": {evac_speedup:.3},\n    \"stack_scan_frames_per_sec\": {stack_frames_per_sec:.0},\n    \"stack_scan_speedup_vs_reference\": {stack_speedup:.3},\n    \"ssb_filter_entries_per_sec\": {ssb_entries_per_sec:.0},\n    \"ssb_filter_speedup_vs_reference\": {ssb_speedup:.3},\n    \"barrier_filter_updates_per_sec\": {barrier_updates_per_sec:.0},\n    \"barrier_filter_speedup_vs_reference\": {barrier_speedup:.3},\n    \"bulk_clear_mb_per_sec\": {bulk_clear_mb_per_sec:.0},\n    \"table5_workload_ms\": {workload_ms:.3},\n    \"table5_workload_checksum\": {workload_checksum},\n    \"table5_parallel_workload_ms\": {par_ms:.3},\n    \"table5_parallel_speedup\": {par_speedup:.3},\n    \"par_copy_mb_per_sec_per_worker\": {par_copy_mb_per_sec_per_worker:.1},\n    \"drift_adaptive_speedup_vs_static\": {drift_speedup:.3}{pause_json}\n  }}\n}}\n"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

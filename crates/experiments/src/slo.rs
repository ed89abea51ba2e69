//! `experiments slo-report` — evaluates pause-time/MMU service-level
//! objectives over a telemetry event stream.
//!
//! Two sources: `--input FILE.jsonl` decodes a stream previously written
//! by `gc-log` (or any producer of the documented schema) back into
//! events, while the default live mode runs one benchmark under one
//! collector with the recorder attached — the same rig as `gc-log` —
//! and takes the events it just captured. Both then go through one
//! summarizer, computed entirely in the deterministic cycle domain: the
//! percentile table comes from the streaming [`PauseHistogram`], the MMU
//! curve from the exact sliding-window minimum, and the verdict from an
//! [`SloSpec`] assembled out of `--max-p*`/`--min-mmu` bounds. Any
//! violated bound makes the process exit nonzero, which is what lets CI
//! gate on it.
//!
//! Time-to-safepoint is surfaced alongside the pauses whenever the
//! stream carries it: replayed files contribute their `ttsp_cycles`
//! fields, and `--ttsp` turns tracking on for live runs. The section is
//! omitted when every observation is zero, so untracked runs render
//! exactly as before.
//!
//! One caveat for replayed streams: the timeline horizon is the last
//! recorded event, so mutator time after the final collection is not
//! visible and whole-run MMU reads slightly low. Live mode extends the
//! horizon to the run's full `client + gc` cycle total.

use std::fmt::Write as _;
use std::process::ExitCode;

use tilgc_obs::metrics::{fmt_permille, PauseHistogram, PauseMetrics, SloSpec, TtspMetrics};
use tilgc_obs::table::Record;
use tilgc_obs::{jsonl, schema, Event, SpaceCensus};
use tilgc_runtime::CostModel;

use crate::harness::{find_bench_and_plan, recorded_run, Calibration};

/// Width of the MMU bar, in character cells (one cell per 40‰).
const MMU_BAR_WIDTH: usize = 25;

/// The default MMU windows of the report, in milliseconds of the
/// stream's clock (the paper's latency story is told at these scales).
const MMU_WINDOWS_MS: [u64; 7] = [1, 2, 5, 10, 20, 50, 100];

/// Everything `slo-report` needs, assembled by `main`'s flag parser.
pub struct SloRequest {
    /// Replay this JSONL file instead of running a benchmark.
    pub input: Option<String>,
    /// Live mode: benchmark name (matched case-insensitively).
    pub bench: String,
    /// Live mode: collector plan label.
    pub plan: String,
    /// Live mode: enable the online pretenuring estimator.
    pub adaptive: bool,
    /// Live mode: track time-to-safepoint (observational; the replay
    /// path surfaces TTSP whenever the stream carries it).
    pub ttsp: bool,
    /// Schema-validate the stream before evaluating it.
    pub validate: bool,
    /// Also write the report text to this file (CI artifact).
    pub report: Option<String>,
    /// The bounds to enforce; empty means report-only (always exit 0).
    pub spec: SloSpec,
}

/// An event stream, whatever its source.
struct Stream {
    source: String,
    plan: String,
    bench: String,
    clock_hz: u64,
    events: Vec<Event>,
    /// Events the recorder's ring dropped (a file has no ring: whatever
    /// was dropped at record time is simply absent from it).
    dropped: u64,
    /// The timeline's end: the run's `client + gc` cycle total for live
    /// runs, 0 (the last event) for replays.
    horizon: u64,
}

pub fn run(req: &SloRequest) -> ExitCode {
    let stream = match &req.input {
        Some(path) => replay(path, req.validate),
        None => live_run(req),
    };
    let stream = match stream {
        Ok(s) => s,
        Err(e) => {
            eprintln!("slo-report: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (text, violations) = render_report(&stream, &req.spec);
    print!("{text}");
    if let Some(path) = &req.report {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("slo-report: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Decodes the JSONL file at `path` back into its events.
fn replay(path: &str, validate: bool) -> Result<Stream, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if validate {
        let n = schema::validate_jsonl(&doc).map_err(|e| format!("{path}: schema: {e}"))?;
        println!("validate: {n} JSONL lines conform to the schema");
    }
    let (meta, events) = jsonl::decode_jsonl(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok(Stream {
        source: path.to_string(),
        plan: meta.plan,
        bench: meta.bench,
        clock_hz: meta.clock_hz,
        events,
        dropped: 0,
        horizon: 0,
    })
}

/// Runs one benchmark on the recorded-run rig and takes its stream.
fn live_run(req: &SloRequest) -> Result<Stream, String> {
    let (bench, kind) = find_bench_and_plan(&req.bench, &req.plan)?;
    let run = recorded_run(
        bench,
        kind,
        &mut Calibration::new(1),
        req.adaptive,
        req.ttsp,
    );
    let clock_hz = CostModel::default().clock_hz;
    if req.validate {
        let doc = jsonl::render(
            kind.label(),
            bench.name(),
            clock_hz,
            &run.sites,
            &run.events,
        );
        let n = schema::validate_jsonl(&doc).map_err(|e| format!("schema: {e}"))?;
        println!("validate: {n} JSONL lines conform to the schema");
    }
    Ok(Stream {
        source: format!("{} on {} (live)", bench.name(), kind.label()),
        plan: kind.label().to_string(),
        bench: bench.name().to_string(),
        clock_hz,
        events: run.events,
        dropped: run.dropped,
        horizon: run.total_cycles,
    })
}

/// Writes a percentile table: the `permilles` rows and a `max` row, in
/// cycles and in milliseconds of `model`'s clock.
fn push_percentiles(out: &mut String, model: &CostModel, h: &PauseHistogram, permilles: &[u64]) {
    let _ = writeln!(out, "  {:>6} {:>14} {:>12}", "pctl", "cycles", "ms");
    let rows = permilles
        .iter()
        .map(|&p| (format!("p{}", fmt_permille(p)), h.percentile(p)));
    for (name, value) in rows.chain([("max".to_string(), h.max())]) {
        let ms = model.secs(value) * 1000.0;
        let _ = writeln!(out, "  {name:>6} {value:>14} {ms:>12.3}");
    }
}

/// Renders the full report and returns it with the violation count.
fn render_report(stream: &Stream, spec: &SloSpec) -> (String, usize) {
    let mut metrics = PauseMetrics::from_events(&stream.events);
    metrics.set_horizon(stream.horizon);
    let ttsp = TtspMetrics::from_events(&stream.events);
    let census = stream.events.iter().rev().find_map(|e| match e {
        Event::HeapCensus(c) => Some(c),
        _ => None,
    });
    let mut out = String::new();
    let model = CostModel {
        clock_hz: stream.clock_hz,
        ..CostModel::default()
    };
    let h = metrics.histogram();
    let _ = writeln!(out, "slo-report: {}", stream.source);
    let _ = writeln!(
        out,
        "plan {}, bench {}, clock {} Hz, horizon {} cycles",
        stream.plan,
        stream.bench,
        stream.clock_hz,
        metrics.horizon()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "pause percentiles ({} collections, {} gc cycles total):",
        h.count(),
        h.sum()
    );
    push_percentiles(&mut out, &model, h, &[500, 900, 990, 999]);

    // Time-to-safepoint: only rendered when the stream actually carries
    // nonzero observations (a run without `track_ttsp` — or any
    // pre-TTSP trace — reads as all zeros and keeps the report
    // byte-identical to what it printed before the section existed).
    let t = ttsp.histogram();
    if t.max() > 0 {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "time-to-safepoint ({} collections, client cycles since last poll):",
            t.count()
        );
        push_percentiles(&mut out, &model, t, &[500, 900, 990]);
    }

    // The curve rows: the standard millisecond ladder plus every window
    // an SLO bound names, deduplicated and sorted.
    let mut windows: Vec<u64> = MMU_WINDOWS_MS
        .iter()
        .map(|&ms| model.cycles_per_ms(ms))
        .chain(spec.min_mmu.iter().map(|&(w, _)| w))
        .filter(|&w| w > 0)
        .collect();
    windows.sort_unstable();
    windows.dedup();
    let _ = writeln!(out);
    let _ = writeln!(out, "MMU curve (min mutator utilization):");
    let _ = writeln!(out, "  {:>14} {:>8}", "window(cycles)", "permille");
    for (window, mmu) in metrics.mmu_curve(&windows) {
        let bar = "#".repeat((mmu as usize * MMU_BAR_WIDTH) / 1000);
        let _ = writeln!(out, "  {window:>14} {mmu:>8}  {bar}");
    }

    if let Some(census) = census {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "heap census (after collection {}, {} pretenured site(s)):",
            census.collection, census.pretenured_sites
        );
        let keys: Vec<&str> = SpaceCensus::FIELDS.iter().map(|f| f.key).collect();
        let _ = writeln!(
            out,
            "  {:<10} {:>12} {:>15} {:>7}",
            keys[0], keys[1], keys[2], keys[3]
        );
        for row in &census.spaces {
            let _ = writeln!(
                out,
                "  {:<10} {:>12} {:>15} {:>7}",
                row.space, row.used_words, row.reserved_words, row.chunks
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "recorder: {} events, {} dropped",
        stream.events.len(),
        stream.dropped
    );

    let _ = writeln!(out);
    if spec.is_empty() {
        let _ = writeln!(out, "slo: no bounds configured (report only)");
        return (out, 0);
    }
    let violations = spec.evaluate(&metrics);
    for &(permille, bound) in &spec.max_pause {
        let actual = h.percentile(permille);
        let verdict = if actual > bound { "VIOLATED" } else { "ok" };
        let _ = writeln!(
            out,
            "slo: pause p{} <= {bound} cycles: actual {actual}  {verdict}",
            fmt_permille(permille)
        );
    }
    for &(window, floor) in &spec.min_mmu {
        let actual = metrics.mmu(window);
        let verdict = if actual < floor { "VIOLATED" } else { "ok" };
        let _ = writeln!(
            out,
            "slo: MMU@{window} >= {floor}‰: actual {actual}‰  {verdict}"
        );
    }
    let _ = if violations.is_empty() {
        writeln!(out, "slo-report: ok")
    } else {
        writeln!(
            out,
            "slo-report: FAILED ({} violation(s))",
            violations.len()
        )
    };
    (out, violations.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilgc_obs::{CollectionBegin, CollectionEnd, HeapCensus, Hist};

    fn begin(collection: u64, start_cycles: u64, ttsp_cycles: u64) -> Event {
        Event::CollectionBegin(CollectionBegin {
            collection,
            plan: "generational",
            reason: "alloc-failure",
            major: false,
            depth: 2,
            start_cycles,
            ttsp_cycles,
        })
    }

    fn end(collection: u64, gc_cycles: u64, end_cycles: u64) -> Event {
        Event::CollectionEnd(Box::new(CollectionEnd {
            collection,
            major: false,
            depth: 2,
            claimed_prefix: 0,
            oracle_prefix: 0,
            copied_bytes: 0,
            scanned_words: 0,
            pretenured_scanned_words: 0,
            roots_found: 0,
            frames_scanned: 0,
            frames_reused: 0,
            slots_scanned: 0,
            barrier_entries: 0,
            markers_placed: 0,
            gc_cycles,
            end_cycles,
            live_bytes_after: 0,
            wall_ns: 0,
            chunks_owned: 0,
            side_cleared_words: 0,
            size_hist: Hist::default(),
            depth_hist: Hist::default(),
            workers: 1,
            worker_copied_bytes: Vec::new(),
        }))
    }

    /// Two collections and a census; the second end has no begin (as
    /// after a ring overflow), so its start is `end - gc_cycles`.
    fn sample_events(ttsp_cycles: u64) -> Vec<Event> {
        vec![
            begin(1, 1000, ttsp_cycles),
            end(1, 500, 1500),
            Event::HeapCensus(HeapCensus {
                collection: 1,
                pretenured_sites: 3,
                spaces: vec![SpaceCensus {
                    space: "nursery",
                    used_words: 10,
                    reserved_words: 64,
                    chunks: 1,
                }],
            }),
            end(2, 200, 4000),
        ]
    }

    fn sample_doc(ttsp_cycles: u64) -> String {
        jsonl::render(
            "gen+markers",
            "Checksum",
            100_000,
            &[],
            &sample_events(ttsp_cycles),
        )
    }

    /// Replays `doc` through the `--input` path (unvalidated: the sample
    /// is not a bracketed stream).
    fn replayed(doc: &str) -> Stream {
        // Unique per process and call, so concurrent tests never share it.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "tilgc-slo-replay-{}-{call}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, doc).unwrap();
        let stream = replay(path.to_str().unwrap(), false).unwrap();
        let _ = std::fs::remove_file(&path);
        stream
    }

    #[test]
    fn jsonl_replay_decodes_the_recorded_stream() {
        let s = replayed(&sample_doc(0));
        assert_eq!(
            (s.plan.as_str(), s.bench.as_str()),
            ("gen+markers", "Checksum")
        );
        assert_eq!(s.clock_hz, 100_000);
        assert_eq!(s.events, sample_events(0));
        let (text, _) = render_report(&s, &SloSpec::default());
        assert!(text.contains("pause percentiles (2 collections, 700 gc cycles total)"));
        // The second end had no begin: its start is end - gc_cycles,
        // and the horizon is the last event.
        assert!(text.contains("horizon 4000 cycles"), "{text}");
        assert!(text.contains("heap census (after collection 1, 3 pretenured site(s))"));
        assert!(text.contains("  nursery              10              64       1"));
        // 4 events; meta is not an event.
        assert!(text.contains("recorder: 4 events, 0 dropped"));
    }

    #[test]
    fn report_flags_violations_and_passes_generous_bounds() {
        let s = replayed(&sample_doc(0));
        // Generous bounds: pass.
        let ok = SloSpec {
            max_pause: vec![(990, 1_000_000)],
            min_mmu: vec![(4000, 100)],
        };
        let (text, violations) = render_report(&s, &ok);
        assert_eq!(violations, 0, "{text}");
        assert!(text.contains("slo-report: ok"));
        // Impossible bounds: fail, and the verdict lines say which.
        let bad = SloSpec {
            max_pause: vec![(500, 1)],
            min_mmu: vec![(500, 1000)],
        };
        let (text, violations) = render_report(&s, &bad);
        assert_eq!(violations, 2, "{text}");
        assert!(text.contains("slo: pause p50 <= 1 cycles"));
        assert!(text.contains("VIOLATED"));
        assert!(text.contains("slo-report: FAILED (2 violation(s))"));
    }

    #[test]
    fn empty_spec_is_report_only() {
        let s = replayed(&sample_doc(0));
        let (text, violations) = render_report(&s, &SloSpec::default());
        assert_eq!(violations, 0);
        assert!(text.contains("no bounds configured"));
    }

    #[test]
    fn ttsp_section_appears_only_when_the_stream_carries_it() {
        // An untracked stream: no section.
        let (text, _) = render_report(&replayed(&sample_doc(0)), &SloSpec::default());
        assert!(
            !text.contains("time-to-safepoint"),
            "all-zero TTSP must not change the report: {text}"
        );
        // A tracked stream carries a nonzero TTSP on collection-begin.
        let (text, _) = render_report(&replayed(&sample_doc(40)), &SloSpec::default());
        assert!(
            text.contains("time-to-safepoint (1 collections"),
            "tracked TTSP must be surfaced: {text}"
        );
        assert!(text.contains("     max             40"), "{text}");
    }

    /// The CI contract end to end: replaying a stream through `--input`
    /// with a bound it violates must exit nonzero, and with generous
    /// bounds must exit zero. `ExitCode` has no `PartialEq`, so the
    /// comparison goes through its `Debug` form.
    #[test]
    fn replayed_violations_exit_nonzero() {
        // Unique to this process and test, so concurrent runs never share it.
        let path =
            std::env::temp_dir().join(format!("tilgc-slo-gate-{}.jsonl", std::process::id()));
        std::fs::write(&path, sample_doc(0)).unwrap();
        let request = |spec: SloSpec| SloRequest {
            input: Some(path.to_str().unwrap().to_string()),
            bench: String::new(),
            plan: String::new(),
            adaptive: false,
            ttsp: false,
            validate: false,
            report: None,
            spec,
        };
        // 500/1500 cycles of GC inside the 1000..4000 window: MMU at
        // that window can never reach 1000‰, so this bound is violated.
        let violated = run(&request(SloSpec {
            max_pause: vec![],
            min_mmu: vec![(3000, 1000)],
        }));
        assert_eq!(
            format!("{violated:?}"),
            format!("{:?}", ExitCode::FAILURE),
            "a violated MMU floor must exit nonzero"
        );
        let ok = run(&request(SloSpec {
            max_pause: vec![(990, 1_000_000)],
            min_mmu: vec![(3000, 1)],
        }));
        assert_eq!(
            format!("{ok:?}"),
            format!("{:?}", ExitCode::SUCCESS),
            "generous bounds must exit zero"
        );
        let _ = std::fs::remove_file(&path);
    }
}

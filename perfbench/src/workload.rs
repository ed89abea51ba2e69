//! The four workloads: their sessions, their set-up, and how one session
//! runs.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use tilgc_core::{build_collector, build_vm, CollectorKind, GcConfig, PretenurePolicy};
use tilgc_obs::{jsonl, schema, Event, RingRecorder};
use tilgc_programs::Benchmark;
use tilgc_runtime::{CostModel, GcStats, MutatorState, MutatorStats, Vm, WriteBarrier};

use crate::probe::{CallLog, Probe, RecLog, TimedRecorder, Tracer};
use crate::trees::{self, TreeSpec};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FreshVmSuite,
    TightHeap,
    GcBound,
    ParallelGc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FreshVmSuite,
        Workload::TightHeap,
        Workload::GcBound,
        Workload::ParallelGc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FreshVmSuite => "fresh-vm-suite",
            Workload::TightHeap => "tight-heap",
            Workload::GcBound => "gc-bound",
            Workload::ParallelGc => "parallel-gc",
        }
    }
}

/// The standard benchmark heap (`tilgc_bench::bench_config(192 MB)`).
const SUITE_BUDGET: usize = 192 << 20;

/// `Min = 2 x max live` of each headliner in bytes, as the experiments
/// harness calibrates it (semispace runs, doubling the budget until the
/// program fits). Pinned so that `tight-heap` does not re-calibrate.
const HEADLINER_MIN: [(Benchmark, usize); 4] = [
    (Benchmark::Color, 30_336),
    (Benchmark::KnuthBendix, 913_088),
    (Benchmark::Nqueen, 256_320),
    (Benchmark::Pia, 83_392),
];

/// Heap budget of the tree sessions, for both plans: ~7% above the
/// budget at which the generational plan overruns its tenured share
/// (1.4 MB) and semispace runs out of memory. Tight, so that collection
/// dominates the session's wall time.
const TREES_BUDGET: usize = 1536 << 10;

/// Ring capacity for telemetry sessions; no session comes near it.
const RING_CAPACITY: usize = 1 << 22;

/// The MMU window: 10 ms at the cost model's 150 MHz clock.
pub const MMU_WINDOW_CYCLES: u64 = 1_500_000;

#[derive(Clone, Debug)]
pub enum Program {
    Paper(Benchmark),
    Trees(TreeSpec),
}

impl Program {
    fn name(&self) -> &'static str {
        match self {
            Program::Paper(b) => b.name(),
            Program::Trees(_) => "trees",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Session {
    pub program: Program,
    pub kind: CollectorKind,
    pub config: GcConfig,
    /// RingRecorder on; the stream is rendered to JSONL and validated.
    pub telemetry: bool,
    pub expected_checksum: u64,
    /// Bytes the program must allocate (the synthetic only).
    pub expected_alloc_bytes: Option<u64>,
    /// Deterministic `GcStats` of the same session at `workers = 1`.
    pub oracle: Option<GcStats>,
}

impl Session {
    pub fn label(&self) -> String {
        format!("{}/{}", self.program.name(), self.kind.label())
    }
}

pub struct Setup {
    pub sessions: Vec<Session>,
    pub derive_ns: u64,
    /// Fingerprint of the synthetic's depth sequence, if any.
    pub tree_sequence: Option<u64>,
}

fn reference_checksum(bench: Benchmark) -> u64 {
    include_str!("../data/checksums.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (name, hex) = l.split_once(' ')?;
            (name == bench.name()).then(|| u64::from_str_radix(&hex[2..], 16))
        })
        .and_then(Result::ok)
        .unwrap_or_else(|| panic!("no reference checksum for {}", bench.name()))
}

/// `experiments::harness::config_with_budget`: nursery a third of the
/// heap capped at 32 KB, 4 KB large-object threshold.
fn config_with_budget(budget: usize) -> GcConfig {
    GcConfig::new()
        .heap_budget_bytes(budget)
        .nursery_bytes((32usize << 10).min(budget / 3).max(4 << 10))
        .large_object_bytes(4 << 10)
}

fn paper_session(bench: Benchmark, kind: CollectorKind, config: GcConfig) -> Session {
    Session {
        program: Program::Paper(bench),
        kind,
        config,
        telemetry: false,
        expected_checksum: reference_checksum(bench),
        expected_alloc_bytes: None,
        oracle: None,
    }
}

fn tree_sessions(spec: &TreeSpec, workers: usize) -> Vec<Session> {
    [CollectorKind::GenerationalStack, CollectorKind::Semispace]
        .into_iter()
        .map(|kind| Session {
            program: Program::Trees(spec.clone()),
            kind,
            config: config_with_budget(TREES_BUDGET).workers(workers),
            telemetry: false,
            expected_checksum: spec.expected_checksum(),
            expected_alloc_bytes: Some(spec.expected_alloc_bytes()),
            oracle: None,
        })
        .collect()
}

/// Profiles `bench` in a 192 MB heap and derives its pretenuring policy,
/// as `tilgc_bench::pretenure_policy_for` does. Returns the policy and
/// the time `derive_policy` took.
fn derive(bench: Benchmark, tracer: &mut Tracer, parent: u32) -> (PretenurePolicy, u64) {
    let t0 = tracer.now();
    let config = config_with_budget(SUITE_BUDGET).profiling(true);
    let mut vm = build_vm(CollectorKind::GenerationalStack, &config);
    vm.mutator_mut().check_shadows = false;
    bench.run(&mut vm, 1);
    vm.finish();
    let profile = vm.take_profile().expect("profiling was enabled");
    drop(vm);
    let t1 = tracer.now();
    let start = Instant::now();
    let policy = tilgc_profile::derive_policy(&profile, &tilgc_profile::PolicyOptions::default());
    let derive_ns = start.elapsed().as_nanos() as u64;
    let t2 = tracer.now();
    tracer.span(parent, "profile.run", t0, t1);
    tracer.span(parent, "profile.derive_policy", t1, t2);
    (policy, derive_ns)
}

/// The one-time work before the first measured pass.
pub fn setup(workload: Workload, seed: u64, tracer: &mut Tracer) -> Setup {
    let root = tracer.open(0, "setup", 0);
    let mut derive_ns = 0;
    let mut tree_sequence = None;
    let sessions = match workload {
        Workload::FreshVmSuite => {
            let config = config_with_budget(SUITE_BUDGET);
            let sessions: Vec<Session> = Benchmark::ALL
                .into_iter()
                .map(|b| paper_session(b, CollectorKind::GenerationalStack, config.clone()))
                .collect();
            // Warm-up: one fresh VM through the cheapest program.
            let w = tracer.now();
            run_session(&sessions[0], &mut Tracer::new(false), 0);
            let w1 = tracer.now();
            tracer.span(root, "warmup", w, w1);
            sessions
        }
        Workload::TightHeap => {
            let mut sessions = Vec::new();
            for (bench, min) in HEADLINER_MIN {
                let (policy, ns) = derive(bench, tracer, root);
                derive_ns += ns;
                let config = config_with_budget((2 * min).max(48 << 10)).track_ttsp(true);
                for kind in CollectorKind::ALL {
                    let config = match kind {
                        CollectorKind::GenerationalStackPretenure => {
                            config.clone().pretenure(policy.clone())
                        }
                        _ => config.clone(),
                    };
                    let mut s = paper_session(bench, kind, config);
                    s.telemetry = true;
                    sessions.push(s);
                }
            }
            sessions
        }
        Workload::GcBound | Workload::ParallelGc => {
            let spec = TreeSpec::from_seed(seed);
            tree_sequence = Some(spec.sequence_hash());
            let serial = tree_sessions(&spec, 1);
            // Warm-up for gc-bound, serial oracle for parallel-gc: one
            // untraced pass at workers = 1.
            let w = tracer.now();
            let oracle: Vec<GcStats> = serial
                .iter()
                .map(|s| deterministic(run_session(s, &mut Tracer::new(false), 0).gc))
                .collect();
            tracer.span(root, "serial_pass", w, tracer.now());
            if workload == Workload::GcBound {
                serial
            } else {
                let mut parallel = tree_sessions(&spec, 2);
                for (s, o) in parallel.iter_mut().zip(oracle) {
                    s.oracle = Some(o);
                }
                parallel
            }
        }
    };
    tracer.close(root);
    Setup {
        sessions,
        derive_ns,
        tree_sequence,
    }
}

/// `GcStats` without its wall-clock fields.
fn deterministic(mut gc: GcStats) -> GcStats {
    gc.stack_wall_ns = 0;
    gc.copy_wall_ns = 0;
    gc.total_wall_ns = 0;
    gc
}

fn mutator_fields(m: &MutatorStats) -> [u64; 7] {
    [
        m.alloc_bytes,
        m.record_bytes,
        m.ptr_array_bytes,
        m.raw_array_bytes,
        m.alloc_objects,
        m.pointer_updates,
        m.client_cycles,
    ]
}

/// Everything one session produced.
#[derive(Debug, Default)]
pub struct SessionRecord {
    pub failure: Option<String>,
    pub checksum: u64,
    pub gc: GcStats,
    pub mutator: MutatorStats,
    pub frame_pushes: u64,
    pub calls: CallLog,
    pub mmu_permille: u64,
    pub oracle_divergent: bool,
    // Wall-clock layers; zero unless traced.
    pub construct_ns: u64,
    pub construct_rss_kb: i64,
    pub drop_ns: u64,
    pub program_ns: u64,
    pub recorder: RecLog,
    pub events: u64,
    pub dropped: u64,
    pub render_ns: u64,
    pub validate_ns: u64,
}

impl SessionRecord {
    /// What must repeat exactly across passes and between the traced and
    /// untraced runs. The parallel lane's `GcStats` do not repeat (a
    /// known defect), so only its answer and mutator counters count.
    pub fn fingerprint(&self, parallel: bool) -> (u64, Option<GcStats>, [u64; 7]) {
        let gc = (!parallel).then(|| deterministic(self.gc));
        (self.checksum, gc, mutator_fields(&self.mutator))
    }
}

/// Resident set size in kB, from `/proc/self/status`.
pub fn status_kb(field: &str) -> i64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Constructs the session's VM, runs the program through `Vm::finish`,
/// exports telemetry if the session has it on, and drops the VM. With
/// `tracer` enabled every seam call is timed and recorded as a span.
pub fn run_session(s: &Session, tracer: &mut Tracer, index: u32) -> SessionRecord {
    let traced = tracer.epoch().is_some();
    let mut rec = SessionRecord::default();
    let root = tracer.open(0, "session", index);

    let rss0 = if traced { status_kb("VmRSS:") } else { 0 };
    let t0 = tracer.now();
    let collector = build_collector(s.kind, &s.config);
    let t1 = tracer.now();
    if traced {
        rec.construct_rss_kb = status_kb("VmRSS:") - rss0;
    }
    tracer.span(root, "build_collector", t0, t1);
    rec.construct_ns = t1 - t0;

    // `build_vm`'s barrier choice: none for semispace, SSB otherwise.
    let mut mutator = MutatorState::new();
    mutator.barrier = match s.kind {
        CollectorKind::Semispace => WriteBarrier::None,
        _ => WriteBarrier::ssb(),
    };
    mutator.check_shadows = false;
    let log = Rc::new(RefCell::new(CallLog::default()));
    let mut vm = Vm::with_mutator(
        mutator,
        Box::new(Probe::new(collector, Rc::clone(&log), tracer.epoch())),
    );
    let observe_workers = traced && s.config.workers > 1;
    if s.telemetry || observe_workers {
        let ring = RingRecorder::with_capacity(RING_CAPACITY);
        if traced {
            vm.set_recorder(Box::new(TimedRecorder {
                ring,
                log: RecLog::default(),
            }));
        } else {
            vm.set_recorder(Box::new(ring));
        }
    }

    let p0 = tracer.now();
    let answer = catch_unwind(AssertUnwindSafe(|| {
        let checksum = match &s.program {
            Program::Paper(b) => b.run(&mut vm, 1),
            Program::Trees(spec) => trees::run(&mut vm, spec),
        };
        vm.finish();
        checksum
    }));
    let p1 = tracer.now();
    rec.program_ns = p1 - p0;
    let program = tracer.span(root, "program", p0, p1);

    match answer {
        Ok(checksum) => rec.checksum = checksum,
        Err(payload) => rec.failure = Some(format!("panic: {}", panic_message(&*payload))),
    }
    rec.gc = *vm.gc_stats();
    rec.mutator = *vm.mutator_stats();
    rec.frame_pushes = vm.mutator().stack.stats().pushes;

    let (events, dropped) = drain(&mut vm, &mut rec.recorder);
    rec.events = events.len() as u64;
    rec.dropped = dropped;
    if s.telemetry && rec.failure.is_none() {
        let sites: Vec<(u16, String)> = vm
            .mutator()
            .sites
            .iter()
            .map(|(id, name)| (id.get(), name.to_string()))
            .collect();
        let r0 = tracer.now();
        let doc = jsonl::render(
            s.kind.label(),
            s.program.name(),
            CostModel::default().clock_hz,
            &sites,
            &events,
        );
        let r1 = tracer.now();
        let valid = schema::validate_jsonl(&doc);
        let r2 = tracer.now();
        tracer.span(root, "jsonl.render", r0, r1);
        tracer.span(root, "schema.validate_jsonl", r1, r2);
        rec.render_ns = r1 - r0;
        rec.validate_ns = r2 - r1;
        if let Err(e) = valid {
            rec.failure = Some(format!("telemetry schema violation: {e}"));
        }
    }

    let d0 = tracer.now();
    drop(vm);
    let d1 = tracer.now();
    tracer.span(root, "vm.drop", d0, d1);
    rec.drop_ns = d1 - d0;

    let mut calls = std::mem::take(&mut *log.borrow_mut());
    for c in &calls.calls {
        tracer.span(program, c.name, c.start_ns, c.end_ns);
    }
    tracer.folded(
        program,
        "collector.alloc.fast",
        p0,
        p1,
        calls.fast_calls,
        calls.fast_ns,
    );
    tracer.folded(
        program,
        "recorder.record",
        p0,
        p1,
        rec.recorder.events,
        rec.recorder.record_ns,
    );
    tracer.close(root);

    calls
        .pauses
        .set_horizon(rec.mutator.client_cycles + rec.gc.gc_cycles());
    rec.mmu_permille = calls.pauses.mmu(MMU_WINDOW_CYCLES);
    rec.calls = calls;
    rec.oracle_divergent = s.oracle.is_some_and(|o| o != deterministic(rec.gc));
    if rec.failure.is_none() {
        rec.failure = check(s, &rec);
    }
    rec
}

/// Takes the telemetry events out of whichever recorder is installed.
fn drain(vm: &mut Vm, log: &mut RecLog) -> (Vec<Event>, u64) {
    let any = vm.recorder_mut().as_any_mut();
    if let Some(timed) = any.downcast_mut::<TimedRecorder>() {
        *log = std::mem::take(&mut timed.log);
        (timed.ring.drain(), timed.ring.dropped())
    } else if let Some(ring) = any.downcast_mut::<RingRecorder>() {
        (ring.drain(), ring.dropped())
    } else {
        (Vec::new(), 0)
    }
}

/// The output checks of one session that ran to completion.
fn check(s: &Session, rec: &SessionRecord) -> Option<String> {
    if rec.checksum != s.expected_checksum {
        return Some(format!(
            "checksum {:#x}, expected {:#x}",
            rec.checksum, s.expected_checksum
        ));
    }
    if rec.gc.pressure_episodes > 0 || rec.gc.budget_overruns > 0 {
        return Some(format!(
            "survived only under pressure ({} episodes, {} overruns)",
            rec.gc.pressure_episodes, rec.gc.budget_overruns
        ));
    }
    match s.expected_alloc_bytes {
        Some(b) if b != rec.mutator.alloc_bytes => Some(format!(
            "allocated {} bytes, expected {b}",
            rec.mutator.alloc_bytes
        )),
        _ => None,
    }
}

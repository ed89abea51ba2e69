//! The collection-cycle driver: the one skeleton every plan's
//! collections run through.
//!
//! Every collection the paper measures has the same shape — decode the
//! stack, forward the roots, copy, release, resize — and Table 5 splits
//! each one the same way into GC-stack and GC-copy time. A [`Cycle`] is
//! one collection's bracket around that shape. It owns the steps that do
//! not depend on the plan: the TTSP read, the `collection-begin` event
//! and phase timer, the per-collection counters, the stack scan, the
//! stack and copy wall timers, arming the [`Evacuator`] (telemetry, the
//! parallel lanes behind the headroom gate, the one-shot worker fault,
//! watchdog and cycle budget), worker accounting, the inspection record,
//! and the closing events. The plan supplies only what differs: its
//! from-ranges and to-space (it builds the evacuator), the barrier and
//! in-place scans of a minor collection, the release-and-resize step,
//! its census rows, and adaptation.
//!
//! A plan drives one collection as
//!
//! ```text
//! let (cycle, roots) = Cycle::begin(..);   // setup, stack-decode
//! let mut evac = Evacuator::new(..);       // from-ranges, to-space
//! cycle.arm(&mut evac, ..);                // telemetry, parallel lanes
//! cycle.forward_roots(&mut evac, ..);      // root-scan
//! ...plan scans, each closed by cycle.mark(phase, ..)...
//! cycle.drain(&mut evac);                  // cheney-copy
//! ...release and resize; adapt...
//! cycle.finish(..);                        // counters, inspection, events
//! ```
//!
//! With a recorder installed, each collection emits, in this order:
//! `collection-begin`; any `site-promote`/`site-demote` from adaptation
//! (which runs before [`finish`](Cycle::finish)); the `phase` spans;
//! `collection-end`; the `degradation-begin`/`-end` pair if a parallel
//! section degraded; `heap-census`; and the `site-sample`s.

use std::time::Instant;

use tilgc_mem::Memory;
use tilgc_obs::{
    CollectionBegin, DegradationBegin, DegradationEnd, Event, GcPhase, HeapCensus, PhaseTimer,
    SpaceCensus, TelemetryAcc,
};
use tilgc_runtime::{AllocShape, CollectionInspection, GcStats, MutatorState};

use crate::config::{GcConfig, MarkerPolicy};
use crate::evac::{Evacuator, FaultOutcome, ParallelSettings};
use crate::roots::{append_cached_roots, scan_stack, RootLoc, ScanCache};

/// The state every plan carries for its collections, owned by the
/// driver.
pub(crate) struct CycleState {
    /// Cumulative collection statistics.
    pub(crate) stats: GcStats,
    /// The inspection record of the most recent collection.
    pub(crate) inspection: Option<CollectionInspection>,
    /// Telemetry accumulator, allocated lazily the first time a
    /// collection or allocation runs with an enabled recorder installed
    /// (or with adaptation on).
    pub(crate) telem: Option<TelemetryAcc>,
    /// Whether online adaptation reads the telemetry windows, which then
    /// flow even without a recorder.
    adaptive: bool,
    marker_policy: MarkerPolicy,
    cache: Option<ScanCache>,
    parallel: ParallelSettings,
    /// Whether the injected worker fault has fired: the spec is per run,
    /// not per collection, so it is disarmed after its one shot.
    fault_fired: bool,
    track_ttsp: bool,
}

impl CycleState {
    /// The driver state for a plan built from `config`; `adaptive` says
    /// whether the plan runs the online pretenuring estimator.
    pub(crate) fn new(config: &GcConfig, adaptive: bool) -> CycleState {
        CycleState {
            stats: GcStats::default(),
            inspection: None,
            telem: None,
            adaptive,
            marker_policy: config.marker_policy,
            cache: config.marker_policy.is_enabled().then(ScanCache::default),
            parallel: ParallelSettings {
                workers: config.workers,
                packet_reorder: config.packet_reorder,
                fault: config.worker_fault,
                watchdog_ms: config.watchdog_ms,
                cycle_budget: config.worker_cycle_budget,
            },
            fault_fired: false,
            track_ttsp: config.track_ttsp,
        }
    }

    /// Counts an allocation into the per-site telemetry windows, before
    /// any routing, so every allocation path feeds the same time series.
    pub(crate) fn note_alloc(&mut self, m: &MutatorState, shape: AllocShape) {
        if m.recorder.is_enabled() || self.adaptive {
            self.telem
                .get_or_insert_with(TelemetryAcc::default)
                .note_alloc(shape.site().get(), shape.size_bytes() as u64);
        }
    }
}

/// A census row for one space: its occupancy now and the chunks its
/// label owns.
pub(crate) fn census_row(
    mem: &Memory,
    space: &'static str,
    used_words: usize,
    reserved_words: usize,
) -> SpaceCensus {
    SpaceCensus {
        space,
        used_words: used_words as u64,
        reserved_words: reserved_words as u64,
        chunks: mem.owned_chunks_by(space) as u64,
    }
}

/// One collection in flight, from [`begin`](Cycle::begin) to
/// [`finish`](Cycle::finish).
pub(crate) struct Cycle {
    wall_start: Instant,
    /// Start of the wall-clock section being timed (stack, then copy).
    lap: Instant,
    stack_ns: u64,
    copy_ns: u64,
    stats_before: GcStats,
    side_cleared_before: u64,
    depth: usize,
    major: bool,
    scan_claim: (usize, usize),
    /// Present exactly when a recorder is installed.
    timer: Option<PhaseTimer>,
    lend_telemetry: bool,
    parallel: ParallelSettings,
    workers_used: u64,
    worker_copied: Vec<u64>,
    fault: FaultOutcome,
}

impl Cycle {
    /// Opens a collection: reads TTSP, emits `collection-begin`, bumps
    /// the per-collection counters and charges the fixed setup cost, then
    /// scans the stack. Returns the root locations to forward: the newly
    /// decoded frames' roots, plus the cached frames' roots when
    /// `cached_roots` (a collection that may move what they reference).
    pub(crate) fn begin(
        gc: &mut CycleState,
        m: &mut MutatorState,
        mem: &Memory,
        plan: &'static str,
        reason: &'static str,
        major: bool,
        cached_roots: bool,
    ) -> (Cycle, Vec<RootLoc>) {
        let wall_start = Instant::now();
        let stats_before = gc.stats;
        let depth = m.stack.depth();
        // TTSP is read before any GC work so the distance reflects the
        // mutator's position when the collection took over.
        let ttsp_cycles = if gc.track_ttsp {
            m.cycles_since_safepoint()
        } else {
            0
        };
        let mut timer = None;
        if m.recorder.is_enabled() {
            gc.telem
                .get_or_insert_with(TelemetryAcc::default)
                .note_depth(depth as u64);
            m.recorder.record(Event::CollectionBegin(CollectionBegin {
                collection: gc.stats.collections + 1,
                plan,
                reason,
                major,
                depth: depth as u64,
                start_cycles: m.stats.client_cycles + gc.stats.gc_cycles(),
                ttsp_cycles,
            }));
            timer = Some(PhaseTimer::start(gc.stats.gc_cycles()));
        }
        gc.stats.collections += 1;
        gc.stats.depth_at_gc_sum += depth as u64;
        gc.stats.other_cycles += m.cost.gc_base;
        let mut parallel = gc.parallel;
        if gc.fault_fired {
            parallel.fault = None;
        }
        let mut cycle = Cycle {
            wall_start,
            lap: wall_start,
            stack_ns: 0,
            copy_ns: 0,
            stats_before,
            side_cleared_before: mem.side_cleared_words(),
            depth,
            major,
            scan_claim: (0, 0),
            lend_telemetry: timer.is_some() || gc.adaptive,
            timer,
            parallel,
            workers_used: 1,
            worker_copied: Vec::new(),
            fault: FaultOutcome::default(),
        };
        cycle.mark(GcPhase::Setup, gc.stats.gc_cycles());

        // --- root processing (GC-stack) ---
        cycle.lap = Instant::now();
        let outcome = scan_stack(m, gc.cache.as_mut(), gc.marker_policy, &mut gc.stats);
        cycle.mark(GcPhase::StackDecode, gc.stats.gc_cycles());
        cycle.scan_claim = (outcome.claimed_prefix, outcome.oracle_prefix);
        let mut roots = outcome.new_roots;
        if cached_roots {
            append_cached_roots(gc.cache.as_ref(), outcome.reused_frames, &mut roots);
        }
        (cycle, roots)
    }

    /// Whether this collection traces the whole heap.
    pub(crate) fn major(&self) -> bool {
        self.major
    }

    /// Ends the current phase section at `now_cycles` total GC cycles
    /// (a no-op without a recorder).
    pub(crate) fn mark(&mut self, phase: GcPhase, now_cycles: u64) {
        if let Some(t) = self.timer.as_mut() {
            t.mark(phase, now_cycles);
        }
    }

    /// Arms the plan's freshly built evacuator: lends it the telemetry
    /// accumulator when anything reads it, and switches it onto the
    /// parallel lanes when more than one worker is configured and the
    /// collection passes the headroom gate for the `from_used` words it
    /// vacates. Tight heaps, profiling runs and the §7.2 survivor path
    /// stay on the serial oracle lane.
    pub(crate) fn arm<'a>(
        &self,
        evac: &mut Evacuator<'a>,
        telem: &'a mut Option<TelemetryAcc>,
        from_used: usize,
    ) {
        if self.lend_telemetry {
            evac.set_telemetry(telem.get_or_insert_with(TelemetryAcc::default));
        }
        if self.parallel.workers > 1 && evac.fits_parallel(self.parallel.workers, from_used) {
            evac.set_parallel(self.parallel);
        }
    }

    /// Forwards the roots, closing the root-scan phase and the GC-stack
    /// wall section.
    pub(crate) fn forward_roots(
        &mut self,
        evac: &mut Evacuator<'_>,
        m: &mut MutatorState,
        roots: &[RootLoc],
    ) {
        evac.forward_roots(m, roots);
        self.mark(GcPhase::RootScan, evac.current_gc_cycles());
        self.stack_ns = self.lap.elapsed().as_nanos() as u64;
        self.lap = Instant::now();
    }

    /// Drains the transitive closure, closing the cheney-copy phase and
    /// the GC-copy wall section, and takes the evacuator's worker and
    /// fault accounting.
    pub(crate) fn drain(&mut self, evac: &mut Evacuator<'_>) {
        evac.drain();
        self.mark(GcPhase::CheneyCopy, evac.current_gc_cycles());
        if evac.parallel() {
            self.workers_used = self.parallel.workers as u64;
        }
        self.worker_copied = evac.worker_copied().to_vec();
        self.fault = evac.fault_outcome();
        self.copy_ns = self.lap.elapsed().as_nanos() as u64;
    }

    /// Closes the collection once the plan has released and resized its
    /// spaces: folds the fault outcome, `live_words` and the wall timers
    /// into the statistics, checks worker accounting, records the
    /// inspection (`live_accounting_complete` says whether `live_words`
    /// covers every survivor), and emits the closing events. `census`
    /// yields the plan's routed pretenured-site count and space rows; it
    /// runs only with a recorder installed.
    pub(crate) fn finish(
        self,
        gc: &mut CycleState,
        m: &mut MutatorState,
        mem: &Memory,
        live_words: usize,
        live_accounting_complete: bool,
        census: impl FnOnce() -> (u64, Vec<SpaceCensus>),
    ) {
        let before = &self.stats_before;
        gc.fault_fired |= self.fault.fired;
        gc.stats.workers_lost += self.fault.workers_lost;
        gc.stats.degraded_collections += u64::from(self.fault.degraded);
        gc.stats
            .note_live_bytes(tilgc_mem::words_to_bytes(live_words) as u64);
        gc.stats.stack_wall_ns += self.stack_ns;
        gc.stats.copy_wall_ns += self.copy_ns;
        let total_ns = self.wall_start.elapsed().as_nanos() as u64;
        gc.stats.total_wall_ns += total_ns;
        crate::verify::check_worker_accounting(
            self.workers_used,
            &self.worker_copied,
            gc.stats.copied_bytes - before.copied_bytes,
        );
        let insp = gc.inspection.insert(build_inspection(
            before,
            &gc.stats,
            self.major,
            self.depth,
            live_accounting_complete,
            self.scan_claim,
        ));
        let Some(timer) = self.timer else { return };
        let collection = gc.stats.collections;
        for e in timer.into_events(collection) {
            m.recorder.record(e);
        }
        let telem = gc.telem.as_mut().expect("allocated by Cycle::begin");
        let end_cycles = m.stats.client_cycles + gc.stats.gc_cycles();
        m.recorder
            .record(Event::CollectionEnd(Box::new(build_collection_end(
                before,
                &gc.stats,
                insp,
                telem,
                end_cycles,
                total_ns,
                self.workers_used,
                self.worker_copied,
                mem.owned_chunks() as u64,
                mem.side_cleared_words() - self.side_cleared_before,
            ))));
        // A degradation episode brackets right behind the end event,
        // like a census: the affected collection has already closed
        // with the exact serial answer.
        if self.fault.degraded {
            m.recorder.record(Event::DegradationBegin(DegradationBegin {
                collection,
                trigger: self.fault.trigger.unwrap_or("orphan"),
                workers: self.workers_used,
                workers_lost: self.fault.workers_lost,
            }));
            m.recorder.record(Event::DegradationEnd(DegradationEnd {
                collection,
                leftover_packets: self.fault.leftover_packets,
                outcome: "drained",
            }));
        }
        // The heap census rides right behind the end event: host-side
        // reads only — no simulated cycles, no GcStats.
        let (pretenured_sites, spaces) = census();
        m.recorder.record(Event::HeapCensus(HeapCensus {
            collection,
            pretenured_sites,
            spaces,
        }));
        for e in telem.drain_samples(collection) {
            m.recorder.record(e);
        }
    }
}

/// Builds the post-collection inspection record from the cumulative
/// stats snapshot taken at the start of the collection (`before`), the
/// stats at its end (`after`), and the scan's prefix claims
/// (`claimed_prefix`, `oracle_prefix` from the
/// [`ScanOutcome`](crate::ScanOutcome)).
fn build_inspection(
    before: &GcStats,
    after: &GcStats,
    was_major: bool,
    depth_at_gc: usize,
    live_accounting_complete: bool,
    scan_claim: (usize, usize),
) -> CollectionInspection {
    CollectionInspection {
        collection: after.collections,
        was_major,
        depth_at_gc: depth_at_gc as u64,
        live_bytes_after: after.last_live_bytes,
        live_accounting_complete,
        copied_bytes: after.copied_bytes - before.copied_bytes,
        scanned_words: after.scanned_words - before.scanned_words,
        pretenured_scanned_words: after.pretenured_scanned_words - before.pretenured_scanned_words,
        roots_found: after.roots_found - before.roots_found,
        frames_scanned: after.frames_scanned - before.frames_scanned,
        frames_reused: after.frames_reused - before.frames_reused,
        claimed_prefix: scan_claim.0 as u64,
        oracle_prefix: scan_claim.1 as u64,
    }
}

/// Builds the telemetry end-of-collection event from the same snapshots
/// the inspection record is derived from, plus the collection's timeline
/// position and the plan's cumulative histograms.
#[allow(clippy::too_many_arguments)]
fn build_collection_end(
    before: &GcStats,
    after: &GcStats,
    insp: &CollectionInspection,
    telem: &TelemetryAcc,
    end_cycles: u64,
    wall_ns: u64,
    workers: u64,
    worker_copied_bytes: Vec<u64>,
    chunks_owned: u64,
    side_cleared_words: u64,
) -> tilgc_obs::CollectionEnd {
    tilgc_obs::CollectionEnd {
        collection: insp.collection,
        major: insp.was_major,
        depth: insp.depth_at_gc,
        claimed_prefix: insp.claimed_prefix,
        oracle_prefix: insp.oracle_prefix,
        copied_bytes: insp.copied_bytes,
        scanned_words: insp.scanned_words,
        pretenured_scanned_words: insp.pretenured_scanned_words,
        roots_found: insp.roots_found,
        frames_scanned: insp.frames_scanned,
        frames_reused: insp.frames_reused,
        slots_scanned: after.slots_scanned - before.slots_scanned,
        barrier_entries: after.barrier_entries - before.barrier_entries,
        markers_placed: after.markers_placed - before.markers_placed,
        gc_cycles: after.gc_cycles() - before.gc_cycles(),
        end_cycles,
        live_bytes_after: insp.live_bytes_after,
        wall_ns,
        size_hist: telem.size_hist,
        depth_hist: telem.depth_hist,
        workers,
        worker_copied_bytes,
        chunks_owned,
        side_cleared_words,
    }
}

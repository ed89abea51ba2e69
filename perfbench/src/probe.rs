//! Decorators around the collector and recorder seams, timed from outside.
//!
//! [`Probe`] wraps the `Box<dyn Collector>` that `build_collector` returns
//! and brackets every collector call. Untraced, it only differences
//! `gc_stats()` around `alloc` and `collect` to find the calls that
//! collected; traced, it also takes wall-clock time around every call.
//! [`TimedRecorder`] wraps a `RingRecorder` and times each `record`.
//! Neither changes what the wrapped object does.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use tilgc_mem::{Addr, GcError, Memory};
use tilgc_obs::metrics::PauseMetrics;
use tilgc_obs::{Event, GcPhase, Recorder, RingRecorder};
use tilgc_runtime::{
    AllocShape, CollectReason, CollectionInspection, Collector, GcStats, HeapProfile, MutatorState,
};

/// One wall-clock interval, in nanoseconds since the run's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Interval {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the [`Probe`] saw during one session.
#[derive(Debug, Default)]
pub struct CallLog {
    /// Simulated cycles of each collector call that collected.
    pub pause_cycles: Vec<u64>,
    /// The same calls as brackets on the simulated timeline, for MMU.
    pub pauses: PauseMetrics,
    /// Allocation calls that did not collect, and their summed wall time.
    pub fast_calls: u64,
    pub fast_ns: u64,
    /// Every other collector call that ran (collecting allocations,
    /// explicit collections, `finish`).
    pub calls: Vec<Interval>,
    /// Summed wall time of the calls that collected.
    pub collect_ns: u64,
}

impl CallLog {
    /// Wall time of every collector call, collecting or not.
    pub fn collector_ns(&self) -> u64 {
        self.fast_ns + self.calls.iter().map(Interval::ns).sum::<u64>()
    }
}

/// The state sampled before a collector call.
struct Before {
    collections: u64,
    gc_cycles: u64,
    client_cycles: u64,
    start_ns: u64,
}

/// A `Collector` that forwards to `inner` and logs each call.
pub struct Probe {
    inner: Box<dyn Collector>,
    log: Rc<RefCell<CallLog>>,
    /// `Some(epoch)` when wall-clock timing is on (the traced run).
    epoch: Option<Instant>,
}

impl Probe {
    pub fn new(
        inner: Box<dyn Collector>,
        log: Rc<RefCell<CallLog>>,
        epoch: Option<Instant>,
    ) -> Probe {
        Probe { inner, log, epoch }
    }

    fn before(&self, mutator: &MutatorState) -> Before {
        let gc = self.inner.gc_stats();
        Before {
            collections: gc.collections,
            gc_cycles: gc.gc_cycles(),
            client_cycles: mutator.stats.client_cycles,
            start_ns: self.now(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    fn after(&self, name: &'static str, b: Before, always_logged: bool) {
        let end_ns = self.now();
        let gc = self.inner.gc_stats();
        let collected = gc.collections != b.collections;
        if !collected && self.epoch.is_none() {
            return;
        }
        let mut log = self.log.borrow_mut();
        if collected {
            // Client cycles do not advance inside a collector call, so the
            // bracket on the client + GC timeline is exactly the GC delta.
            let cycles = gc.gc_cycles() - b.gc_cycles;
            let start = b.client_cycles + b.gc_cycles;
            log.pause_cycles.push(cycles);
            log.pauses.push_pause(start, start + cycles, cycles);
        }
        if self.epoch.is_none() {
            return;
        }
        let span = Interval {
            name,
            start_ns: b.start_ns,
            end_ns,
        };
        if collected {
            log.collect_ns += span.ns();
        }
        if collected || always_logged {
            log.calls.push(span);
        } else {
            log.fast_calls += 1;
            log.fast_ns += span.ns();
        }
    }
}

impl Collector for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn memory(&self) -> &Memory {
        self.inner.memory()
    }

    fn memory_mut(&mut self) -> &mut Memory {
        self.inner.memory_mut()
    }

    fn alloc(&mut self, mutator: &mut MutatorState, shape: AllocShape) -> Result<Addr, GcError> {
        let b = self.before(mutator);
        let out = self.inner.alloc(mutator, shape);
        self.after("collector.alloc", b, false);
        out
    }

    fn collect(&mut self, mutator: &mut MutatorState, reason: CollectReason) {
        let b = self.before(mutator);
        self.inner.collect(mutator, reason);
        self.after("collector.collect", b, true);
    }

    fn gc_stats(&self) -> &GcStats {
        self.inner.gc_stats()
    }

    fn live_bytes_estimate(&self) -> u64 {
        self.inner.live_bytes_estimate()
    }

    fn finish(&mut self, mutator: &mut MutatorState) {
        let b = self.before(mutator);
        self.inner.finish(mutator);
        self.after("collector.finish", b, true);
    }

    fn take_profile(&mut self) -> Option<HeapProfile> {
        self.inner.take_profile()
    }

    fn last_inspection(&self) -> Option<&CollectionInspection> {
        self.inner.last_inspection()
    }
}

/// What the [`TimedRecorder`] saw during one session.
#[derive(Debug, Default)]
pub struct RecLog {
    pub events: u64,
    pub record_ns: u64,
    /// `collection-end` events, and those whose `workers` field shows the
    /// parallel lane ran.
    pub collection_ends: u64,
    pub parallel_ends: u64,
    /// Wall time of each `GcPhase`, from the phase events.
    pub phase_wall_ns: [u64; GcPhase::ALL.len()],
}

/// A `Recorder` that forwards to a `RingRecorder` and times each call.
#[derive(Debug)]
pub struct TimedRecorder {
    pub ring: RingRecorder,
    pub log: RecLog,
}

impl Recorder for TimedRecorder {
    fn is_enabled(&self) -> bool {
        self.ring.is_enabled()
    }

    fn record(&mut self, event: Event) {
        match &event {
            Event::CollectionEnd(e) => {
                self.log.collection_ends += 1;
                self.log.parallel_ends += u64::from(e.workers > 1);
            }
            Event::Phase(p) => {
                let i = GcPhase::ALL.iter().position(|&q| q == p.phase);
                self.log.phase_wall_ns[i.expect("phase is in GcPhase::ALL")] += p.wall_ns;
            }
            _ => {}
        }
        let t = Instant::now();
        self.ring.record(event);
        self.log.record_ns += t.elapsed().as_nanos() as u64;
        self.log.events += 1;
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One span of the traced run. Folded spans (`count > 1`) stand for many
/// calls: `sum_ns` is their total time and `start_ns..end_ns` the span
/// that contains them.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// The session index for `session` spans, otherwise 0.
    pub arg: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
    pub sum_ns: u64,
}

/// Spans kept in memory while the run lasts. Disabled, it records
/// nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: enabled.then(Instant::now),
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Option<Instant> {
        self.epoch
    }

    /// Nanoseconds since the run began, or 0 when disabled.
    pub fn now(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    /// Records a span and returns its id (0 when disabled; ids start at 1).
    pub fn span(&mut self, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        self.folded(parent, name, start_ns, end_ns, 1, end_ns - start_ns)
    }

    pub fn folded(
        &mut self,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
        sum_ns: u64,
    ) -> u32 {
        if self.epoch.is_none() {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            arg: 0,
            start_ns,
            end_ns,
            count,
            sum_ns,
        });
        id
    }

    /// Starts a span that [`close`](Tracer::close) ends.
    pub fn open(&mut self, parent: u32, name: &'static str, arg: u32) -> u32 {
        let now = self.now();
        let id = self.span(parent, name, now, now);
        if let Some(s) = self.get_mut(id) {
            s.arg = arg;
        }
        id
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now();
        if let Some(s) = self.get_mut(id) {
            s.end_ns = now;
            s.sum_ns = now - s.start_ns;
        }
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut Span> {
        self.spans.get_mut(id.checked_sub(1)? as usize)
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"arg\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{},\"sum_ns\":{}}}",
                s.id, s.parent, s.name, s.arg, s.start_ns, s.end_ns, s.count, s.sum_ns
            )?;
        }
        out.flush()
    }
}

//! The Chrome trace-event sink: renders an event stream as a
//! `{"traceEvents":[...]}` JSON document that loads directly in
//! Perfetto (ui.perfetto.dev) or `chrome://tracing`.
//!
//! Layout: one process (`tilgc <plan> · <bench>`) with two threads —
//! tid 0 carries one complete ("X") slice per collection spanning
//! `start_cycles..end_cycles` on the simulated timeline, tid 1 carries
//! the phase slices of each collection laid out consecutively inside
//! that span. Pressure-episode steps, adaptive site flips and
//! degradation episodes render as instant ("i") marks on tid 0, named
//! by their event kind, and each heap census becomes counter ("C")
//! samples (per-space occupancy + pretenured-site count) Perfetto draws
//! as time-series tracks. Timestamps are microseconds of *simulated*
//! time: cycles divided by the cost model's clock rate.
//!
//! Every slice and instant carries the wire fields of the event it
//! renders as its args (a collection slice: its begin's fields, then its
//! end's), written from the field tables in [`crate::table`].

use crate::table::{write_fields, Field, Record, Wire};
use crate::{Event, GcPhase};

/// One record's field table and values: a slice or instant's args.
type Args<'a> = (&'static [Field], Vec<&'a dyn Wire>);

fn args<R: Record>(record: &R) -> Args<'_> {
    (R::FIELDS, record.values())
}

/// Microseconds (as f64) for `cycles` at `clock_hz`.
fn us(cycles: u64, clock_hz: u64) -> f64 {
    cycles as f64 * 1e6 / clock_hz as f64
}

fn push_f64(out: &mut String, v: f64) {
    // Trace viewers accept fractional µs; keep three decimals (≈ ns
    // resolution at the default 150 MHz clock).
    out.push_str(&format!("{v:.3}"));
}

/// Writes `,"args":{...}` from the records' wire fields; a key already
/// written by an earlier record is skipped.
fn push_args(out: &mut String, records: &[Args]) {
    let mut seen: Vec<&str> = Vec::new();
    let fields = records
        .iter()
        .flat_map(|(fields, values)| fields.iter().zip(values.iter().copied()))
        .filter(|(f, _)| {
            let fresh = !seen.contains(&f.key);
            seen.push(f.key);
            fresh
        });
    out.push_str(",\"args\":{");
    write_fields(out, fields, false);
    out.push('}');
}

struct TraceWriter {
    out: String,
    first: bool,
}

impl TraceWriter {
    fn new() -> TraceWriter {
        TraceWriter {
            out: String::from("{\"traceEvents\":["),
            first: true,
        }
    }

    fn raw(&mut self, event_json: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str(event_json);
    }

    fn metadata(&mut self, name: &str, tid: Option<u64>, value: &str) {
        let tid_field = match tid {
            Some(t) => format!(",\"tid\":{t}"),
            None => String::new(),
        };
        let mut escaped = String::new();
        crate::json::escape_into(&mut escaped, value);
        self.raw(&format!(
            "{{\"ph\":\"M\",\"pid\":0{tid_field},\"name\":\"{name}\",\"args\":{{\"name\":{escaped}}}}}"
        ));
    }

    /// A complete ("X") slice when `dur_us` is given, else an instant
    /// ("i") mark; either way its args are the records' wire fields.
    fn slice(&mut self, tid: u64, name: &str, ts_us: f64, dur_us: Option<f64>, records: &[Args]) {
        let ph = if dur_us.is_some() { "X" } else { "i" };
        let mut e = format!("{{\"ph\":\"{ph}\",\"pid\":0,\"tid\":{tid},\"name\":");
        crate::json::escape_into(&mut e, name);
        e.push_str(",\"cat\":\"gc\",");
        if dur_us.is_none() {
            e.push_str("\"s\":\"t\",");
        }
        e.push_str("\"ts\":");
        push_f64(&mut e, ts_us);
        if let Some(dur) = dur_us {
            e.push_str(",\"dur\":");
            push_f64(&mut e, dur.max(0.001));
        }
        push_args(&mut e, records);
        e.push('}');
        self.raw(&e);
    }

    fn counter(&mut self, name: &str, ts_us: f64, series: &[(&str, u64)]) {
        let mut e = String::from("{\"ph\":\"C\",\"pid\":0,\"name\":");
        crate::json::escape_into(&mut e, name);
        e.push_str(",\"ts\":");
        push_f64(&mut e, ts_us);
        e.push_str(",\"args\":{");
        for (i, (k, v)) in series.iter().enumerate() {
            if i > 0 {
                e.push(',');
            }
            crate::json::escape_into(&mut e, k);
            e.push(':');
            e.push_str(&v.to_string());
        }
        e.push_str("}}");
        self.raw(&e);
    }

    fn finish(mut self) -> String {
        self.out.push_str("],\"displayTimeUnit\":\"ms\"}");
        self.out
    }
}

/// Renders the event stream as a Chrome trace-event JSON document.
///
/// Collections missing either endpoint (begin without end, or the ring
/// buffer dropped the begin) are skipped; phases without a surrounding
/// collection span are skipped too.
pub fn render(plan: &str, bench: &str, clock_hz: u64, events: &[Event]) -> String {
    let mut w = TraceWriter::new();
    w.metadata("process_name", None, &format!("tilgc {plan} · {bench}"));
    w.metadata("thread_name", Some(0), "collections");
    w.metadata("thread_name", Some(1), "gc phases");

    // Index begins by collection number so ends can find their span.
    let mut begins: Vec<&crate::CollectionBegin> = Vec::new();
    let mut phases: Vec<&crate::PhaseSpan> = Vec::new();
    // Timeline cursor for events that carry no absolute position of
    // their own (pressure rungs advance it by their cycle charge; site
    // flips, degradation episodes and censuses happen at the collection
    // end it points at).
    let mut now = 0u64;
    for e in events {
        match e {
            Event::CollectionBegin(b) => {
                now = now.max(b.start_cycles);
                begins.push(b);
            }
            Event::Phase(p) => phases.push(p),
            Event::CollectionEnd(end) => {
                now = now.max(end.end_cycles);
                let Some(&begin) = begins.iter().find(|b| b.collection == end.collection) else {
                    continue;
                };
                let ts = us(begin.start_cycles, clock_hz);
                let dur = us(end.end_cycles.saturating_sub(begin.start_cycles), clock_hz);
                let name = format!(
                    "GC {} ({})",
                    end.collection,
                    if end.major { "major" } else { "minor" }
                );
                w.slice(0, &name, ts, Some(dur), &[args(begin), args(&**end)]);
                // Phases of this collection, consecutively from the
                // span start, in canonical order.
                let mut cursor = begin.start_cycles;
                for phase in GcPhase::ALL {
                    for p in phases.iter().filter(|p| p.collection == end.collection) {
                        if p.phase != phase {
                            continue;
                        }
                        w.slice(
                            1,
                            p.phase.wire_name(),
                            us(cursor, clock_hz),
                            Some(us(p.cycles, clock_hz)),
                            &[args(*p)],
                        );
                        cursor += p.cycles;
                    }
                }
                phases.retain(|p| p.collection != end.collection);
                begins.retain(|b| b.collection != end.collection);
            }
            Event::SiteSample(_) => {}
            // Pressure episodes render as instant marks: the begin at its
            // recorded timeline position, each rung advancing the cursor
            // by its cycle charge (collections the ladder triggers nest
            // between them as ordinary slices).
            Event::PressureBegin(p) => {
                now = now.max(p.start_cycles);
                w.slice(0, e.wire_name(), us(now, clock_hz), None, &[e.fields()]);
            }
            Event::PressureRung(r) => {
                now += r.cycles;
                let name = format!("{} {}", e.wire_name(), r.rung);
                w.slice(0, &name, us(now, clock_hz), None, &[e.fields()]);
            }
            // The rest are instant marks at the cursor: adaptive site
            // flips at the collection end whose evidence triggered them,
            // degradation episodes at the affected collection's end (the
            // plans emit them right after collection-end).
            Event::PressureEnd(_)
            | Event::SitePromote(_)
            | Event::SiteDemote(_)
            | Event::DegradationBegin(_)
            | Event::DegradationEnd(_) => {
                w.slice(0, e.wire_name(), us(now, clock_hz), None, &[e.fields()]);
            }
            // Each census becomes counter samples Perfetto draws as
            // per-space occupancy tracks plus a pretenured-site count.
            Event::HeapCensus(c) => {
                let ts = us(now, clock_hz);
                let used: Vec<(&str, u64)> =
                    c.spaces.iter().map(|s| (s.space, s.used_words)).collect();
                w.counter("heap used (words)", ts, &used);
                let reserved: Vec<(&str, u64)> = c
                    .spaces
                    .iter()
                    .map(|s| (s.space, s.reserved_words))
                    .collect();
                w.counter("heap reserved (words)", ts, &reserved);
                w.counter("pretenured sites", ts, &[("sites", c.pretenured_sites)]);
            }
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::{CollectionBegin, CollectionEnd, Hist, PhaseSpan};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::CollectionBegin(CollectionBegin {
                collection: 1,
                plan: "generational",
                reason: "alloc-failure",
                major: false,
                depth: 4,
                start_cycles: 1_500_000,
                ttsp_cycles: 0,
            }),
            Event::Phase(PhaseSpan {
                collection: 1,
                phase: GcPhase::StackDecode,
                cycles: 300,
                wall_ns: 10,
            }),
            Event::Phase(PhaseSpan {
                collection: 1,
                phase: GcPhase::CheneyCopy,
                cycles: 700,
                wall_ns: 20,
            }),
            Event::CollectionEnd(Box::new(CollectionEnd {
                collection: 1,
                major: false,
                depth: 4,
                claimed_prefix: 0,
                oracle_prefix: 0,
                copied_bytes: 96,
                scanned_words: 12,
                pretenured_scanned_words: 0,
                roots_found: 7,
                frames_scanned: 4,
                frames_reused: 0,
                slots_scanned: 20,
                barrier_entries: 2,
                markers_placed: 0,
                gc_cycles: 1000,
                end_cycles: 1_501_000,
                live_bytes_after: 96,
                wall_ns: 30,
                chunks_owned: 2,
                side_cleared_words: 0,
                size_hist: Hist::default(),
                depth_hist: Hist::default(),
                workers: 1,
                worker_copied_bytes: Vec::new(),
            })),
        ]
    }

    #[test]
    fn render_produces_valid_trace_json() {
        let doc = render("generational", "Life", 150_000_000, &sample_events());
        let v = parse(&doc).expect("trace parses");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 3 metadata + 1 collection slice + 2 phase slices.
        assert_eq!(events.len(), 6);
        let slice = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("GC 1 (minor)"))
            .expect("collection slice present");
        assert_eq!(slice.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(slice.get("tid").unwrap().as_u64(), Some(0));
        let phases: Vec<_> = events
            .iter()
            .filter(|e| e.get("tid").and_then(|t| t.as_u64()) == Some(1) && e.get("ts").is_some())
            .collect();
        assert_eq!(phases.len(), 2);
        // Phases tile the span consecutively.
        let ts0 = phases[0].get("ts").unwrap().as_f64().unwrap();
        let d0 = phases[0].get("dur").unwrap().as_f64().unwrap();
        let ts1 = phases[1].get("ts").unwrap().as_f64().unwrap();
        assert!((ts0 + d0 - ts1).abs() < 0.01, "consecutive layout");
    }

    #[test]
    fn all_event_kinds_round_trip_through_the_validator() {
        // One of every event kind, in a plausible stream order: a
        // pressure episode whose ladder triggers a collection, followed
        // by the census, a site sample, and adaptive flips.
        let mut events = vec![Event::PressureBegin(crate::PressureBegin {
            site: 3,
            words: 64,
            space: "nursery",
            start_cycles: 1_000_000,
        })];
        events.extend(sample_events());
        events.extend([
            Event::DegradationBegin(crate::DegradationBegin {
                collection: 1,
                trigger: "watchdog",
                workers: 4,
                workers_lost: 1,
            }),
            Event::DegradationEnd(crate::DegradationEnd {
                collection: 1,
                leftover_packets: 2,
                outcome: "drained",
            }),
            Event::SiteSample(crate::SiteSample {
                collection: 1,
                site: 3,
                allocs: 10,
                alloc_bytes: 160,
                copied_objects: 4,
                copied_bytes: 64,
                survived: 4,
            }),
            Event::HeapCensus(crate::HeapCensus {
                collection: 1,
                pretenured_sites: 1,
                spaces: vec![
                    crate::SpaceCensus {
                        space: "nursery",
                        used_words: 0,
                        reserved_words: 1024,
                        chunks: 2,
                    },
                    crate::SpaceCensus {
                        space: "tenured",
                        used_words: 12,
                        reserved_words: 2048,
                        chunks: 4,
                    },
                ],
            }),
            Event::PressureRung(crate::PressureRung {
                rung: "retry-minor",
                site: 3,
                words: 64,
                outcome: "recovered",
                cycles: 500,
            }),
            Event::PressureEnd(crate::PressureEnd {
                outcome: "recovered",
                rungs: 1,
                cycles: 500,
            }),
            Event::SitePromote(crate::SitePromote {
                collection: 1,
                site: 3,
                survival_permille: 940,
            }),
            Event::SiteDemote(crate::SiteDemote {
                collection: 1,
                site: 3,
                survival_permille: 80,
                reason: "adaptive",
            }),
        ]);
        let doc = render("gen+markers+pretenure", "Life", 150_000_000, &events);
        let n = crate::schema::validate_chrome(&doc).expect("trace validates");
        // 3 metadata + 1 slice + 2 phases + 7 instants + 3 counters.
        assert_eq!(n, 16);
        let v = parse(&doc).unwrap();
        let trace = v.get("traceEvents").unwrap().as_array().unwrap();
        let instants: Vec<_> = trace
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
            .collect();
        assert_eq!(instants.len(), 7);
        for name in [
            "pressure-begin",
            "pressure-rung retry-minor",
            "pressure-end",
            "site-promote",
            "site-demote",
            "degradation-begin",
            "degradation-end",
        ] {
            assert!(
                instants
                    .iter()
                    .any(|e| e.get("name").unwrap().as_str() == Some(name)),
                "instant {name} present"
            );
        }
        let counters: Vec<_> = trace
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 3);
        let used = counters
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("heap used (words)"))
            .expect("used counter present");
        let args = used.get("args").unwrap();
        assert_eq!(args.get("tenured").unwrap().as_u64(), Some(12));
        // The census is stamped at the preceding collection's end.
        let end_ts = 1_501_000f64 * 1e6 / 150e6;
        let ts = used.get("ts").unwrap().as_f64().unwrap();
        assert!((ts - end_ts).abs() < 0.01, "census at collection end");
        // A rung advances the cursor by its cycle charge.
        let rung = instants
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("pressure-rung retry-minor"))
            .unwrap();
        let rung_ts = rung.get("ts").unwrap().as_f64().unwrap();
        assert!(
            (rung_ts - (1_501_500f64 * 1e6 / 150e6)).abs() < 0.01,
            "rung cursor advanced"
        );
    }

    #[test]
    fn orphan_events_are_skipped() {
        let events = vec![Event::Phase(PhaseSpan {
            collection: 9,
            phase: GcPhase::Setup,
            cycles: 5,
            wall_ns: 0,
        })];
        let doc = render("semispace", "FFT", 150_000_000, &events);
        let v = parse(&doc).unwrap();
        let slices = v
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .count();
        assert_eq!(slices, 0);
    }
}

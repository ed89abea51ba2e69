//! The JSONL sink: one JSON object per line, one line per event,
//! preceded by a `meta` line that resolves plan, benchmark, clock rate,
//! and allocation-site names — and its inverse, the decoder.
//!
//! Both directions are driven by the field tables in [`crate::table`];
//! the stream-level rules are machine-checked by
//! [`crate::schema::validate_jsonl`].

use crate::json::{escape_into, parse, Value};
use crate::table::{decode_record, write_fields, Field, Record, Wire};
use crate::{Event, Meta, SiteName};

/// Renders one record as a line: `{"type":<wire>,<fields>}`.
fn record_line(wire: &str, fields: &[Field], values: &[&dyn Wire]) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"type\":");
    escape_into(&mut out, wire);
    write_fields(&mut out, fields.iter().zip(values.iter().copied()), true);
    out.push('}');
    out
}

/// Renders the leading `meta` line: run identity plus the site-id → name
/// table needed to interpret `site-sample` lines.
pub fn meta_line(plan: &str, bench: &str, clock_hz: u64, sites: &[(u16, String)]) -> String {
    let meta = Meta {
        plan: plan.to_string(),
        bench: bench.to_string(),
        clock_hz,
        sites: sites
            .iter()
            .map(|(id, name)| SiteName {
                id: *id,
                name: name.clone(),
            })
            .collect(),
    };
    record_line(Meta::WIRE, Meta::FIELDS, &meta.values())
}

/// Renders one event as a JSONL line (no trailing newline).
pub fn event_line(event: &Event) -> String {
    let (fields, values) = event.fields();
    record_line(event.wire_name(), fields, &values)
}

/// Renders a whole event stream, meta line first, newline-terminated.
pub fn render(
    plan: &str,
    bench: &str,
    clock_hz: u64,
    sites: &[(u16, String)],
    events: &[Event],
) -> String {
    let mut out = meta_line(plan, bench, clock_hz, sites);
    out.push('\n');
    for e in events {
        out.push_str(&event_line(e));
        out.push('\n');
    }
    out
}

/// One decoded JSONL line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Line {
    /// The stream's leading `meta` line.
    Meta(Meta),
    /// An event line.
    Event(Event),
}

/// Decodes one JSONL line: parses it once and reads every field of its
/// kind's table, rejecting unknown kinds, unknown or missing fields,
/// wrong types, values outside a closed set, and broken omission rules.
/// Cross-field rules are [`crate::schema::check`]'s.
pub fn decode_line(line: &str) -> Result<Line, String> {
    let v = parse(line)?;
    let kind = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or("missing string field \"type\"")?;
    let line = if kind == Meta::WIRE {
        decode_record(&v).map(Line::Meta)
    } else {
        Event::decode(kind, &v)
            .ok_or_else(|| format!("unknown event type {kind:?}"))?
            .map(Line::Event)
    };
    line.map_err(|e| format!("{kind}: {e}"))
}

/// Decodes every non-empty line of `doc` and hands it to `each`. The
/// `meta` line must be the first non-empty line and must appear exactly
/// once. Errors, from decoding or from `each`, carry the line number.
pub(crate) fn for_each_line(
    doc: &str,
    mut each: impl FnMut(Line) -> Result<(), String>,
) -> Result<(), String> {
    let mut seen_meta = false;
    for (i, text) in doc.lines().enumerate() {
        if text.is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        let line = decode_line(text).map_err(at)?;
        match (&line, seen_meta) {
            (Line::Meta(_), true) => return Err(at("second meta line".to_string())),
            (Line::Event(_), false) => return Err(at("expected meta line".to_string())),
            _ => seen_meta = true,
        }
        each(line).map_err(at)?;
    }
    Ok(())
}

/// Decodes a whole JSONL document into its meta line and its events.
pub fn decode_jsonl(doc: &str) -> Result<(Meta, Vec<Event>), String> {
    let mut meta = None;
    let mut events = Vec::new();
    for_each_line(doc, |line| {
        match line {
            Line::Meta(m) => meta = Some(m),
            Line::Event(e) => events.push(e),
        }
        Ok(())
    })?;
    Ok((meta.ok_or("empty document")?, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CollectionBegin, CollectionEnd, DegradationBegin, DegradationEnd, GcPhase, HeapCensus,
        Hist, PhaseSpan, PressureBegin, PressureEnd, PressureRung, SiteDemote, SitePromote,
        SiteSample, SpaceCensus,
    };

    /// One event of every kind. `optional` fills the omittable fields:
    /// a nonzero `ttsp_cycles` and a parallel worker group.
    pub(crate) fn every_kind(optional: bool) -> Vec<Event> {
        let mut size_hist = Hist::default();
        size_hist.add(16);
        vec![
            Event::CollectionBegin(CollectionBegin {
                collection: 1,
                plan: "generational",
                reason: "alloc-failure",
                major: false,
                depth: 9,
                start_cycles: 1234,
                ttsp_cycles: if optional { 42 } else { 0 },
            }),
            Event::Phase(PhaseSpan {
                collection: 1,
                phase: GcPhase::StackDecode,
                cycles: 77,
                wall_ns: 880,
            }),
            Event::CollectionEnd(Box::new(CollectionEnd {
                collection: 1,
                major: false,
                depth: 9,
                claimed_prefix: 1,
                oracle_prefix: 2,
                copied_bytes: 64,
                scanned_words: 8,
                pretenured_scanned_words: 0,
                roots_found: 5,
                frames_scanned: 3,
                frames_reused: 0,
                slots_scanned: 12,
                barrier_entries: 0,
                markers_placed: 1,
                gc_cycles: 77,
                end_cycles: 1311,
                live_bytes_after: 64,
                wall_ns: 100,
                chunks_owned: 4,
                side_cleared_words: 32,
                size_hist,
                depth_hist: Hist::default(),
                workers: if optional { 2 } else { 1 },
                worker_copied_bytes: if optional { vec![48, 16] } else { Vec::new() },
            })),
            Event::SiteSample(SiteSample {
                collection: 1,
                site: 4,
                allocs: 10,
                alloc_bytes: 160,
                copied_objects: 2,
                copied_bytes: 32,
                survived: 2,
            }),
            Event::PressureBegin(PressureBegin {
                site: 3,
                words: 64,
                space: "nursery",
                start_cycles: 2000,
            }),
            Event::PressureRung(PressureRung {
                rung: "retry-minor",
                site: 3,
                words: 64,
                outcome: "recovered",
                cycles: 500,
            }),
            Event::PressureEnd(PressureEnd {
                outcome: "recovered",
                rungs: 1,
                cycles: 500,
            }),
            Event::SitePromote(SitePromote {
                collection: 12,
                site: 7,
                survival_permille: 912,
            }),
            Event::SiteDemote(SiteDemote {
                collection: 19,
                site: 7,
                survival_permille: 120,
                reason: "adaptive",
            }),
            Event::HeapCensus(HeapCensus {
                collection: 4,
                pretenured_sites: 2,
                spaces: vec![
                    SpaceCensus {
                        space: "nursery",
                        used_words: 0,
                        reserved_words: 1024,
                        chunks: 2,
                    },
                    SpaceCensus {
                        space: "tenured",
                        used_words: 500,
                        reserved_words: 4096,
                        chunks: 8,
                    },
                ],
            }),
            Event::DegradationBegin(DegradationBegin {
                collection: 7,
                trigger: "panic",
                workers: 4,
                workers_lost: 1,
            }),
            Event::DegradationEnd(DegradationEnd {
                collection: 7,
                leftover_packets: 3,
                outcome: "drained",
            }),
        ]
    }

    #[test]
    fn every_kind_round_trips_with_optional_fields_present_and_absent() {
        for optional in [false, true] {
            let events = every_kind(optional);
            let mut kinds: Vec<&str> = events.iter().map(Event::wire_name).collect();
            kinds.dedup();
            assert_eq!(kinds.len(), 12, "one event of every kind");
            let mut text = String::new();
            for e in &events {
                let line = event_line(e);
                assert_eq!(
                    decode_line(&line),
                    Ok(Line::Event(e.clone())),
                    "{line} decodes back"
                );
                text.push_str(&line);
            }
            for key in [
                "\"ttsp_cycles\"",
                "\"workers\":2",
                "\"worker_copied_bytes\"",
            ] {
                assert_eq!(text.contains(key), optional, "{key} present iff set");
            }
        }
    }

    #[test]
    fn lines_keep_their_wire_layout() {
        let events = every_kind(true);
        assert_eq!(
            event_line(&events[0]),
            "{\"type\":\"collection-begin\",\"collection\":1,\"plan\":\"generational\",\
             \"reason\":\"alloc-failure\",\"major\":false,\"depth\":9,\"start_cycles\":1234,\
             \"ttsp_cycles\":42}"
        );
        assert!(event_line(&events[2]).ends_with(
            "\"depth_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"workers\":2,\
             \"worker_copied_bytes\":[48,16]}"
        ));
        assert_eq!(
            event_line(&events[9]),
            "{\"type\":\"heap-census\",\"collection\":4,\"pretenured_sites\":2,\"spaces\":[\
             {\"space\":\"nursery\",\"used_words\":0,\"reserved_words\":1024,\"chunks\":2},\
             {\"space\":\"tenured\",\"used_words\":500,\"reserved_words\":4096,\"chunks\":8}]}"
        );
    }

    #[test]
    fn meta_line_resolves_sites() {
        let sites = [(0, "unknown".to_string()), (3, "rec\"3".to_string())];
        let line = meta_line("gen+markers", "Life", 150_000_000, &sites);
        assert_eq!(
            line,
            "{\"type\":\"meta\",\"plan\":\"gen+markers\",\"bench\":\"Life\",\
             \"clock_hz\":150000000,\"sites\":[{\"id\":0,\"name\":\"unknown\"},\
             {\"id\":3,\"name\":\"rec\\\"3\"}]}"
        );
        let Ok(Line::Meta(meta)) = decode_line(&line) else {
            panic!("meta decodes")
        };
        assert_eq!(meta.plan, "gen+markers");
        assert_eq!(meta.sites[1].name, "rec\"3");
    }

    #[test]
    fn documents_decode_to_meta_and_events() {
        let events = every_kind(false);
        let doc = render("semispace", "Life", 1, &[], &events);
        let (meta, decoded) = decode_jsonl(&doc).unwrap();
        assert_eq!((meta.bench.as_str(), meta.clock_hz), ("Life", 1));
        assert_eq!(decoded, events);
    }
}

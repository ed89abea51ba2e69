//! Schema validation for the telemetry sinks' output, used by the
//! `experiments gc-log --validate` flag and by CI. A JSONL line is valid
//! when it decodes through its kind's field table
//! ([`crate::jsonl::decode_line`]) and passes [`check`]; a document is
//! valid when, in addition, its events are properly bracketed.

use crate::json::{parse, Value};
use crate::jsonl::{decode_line, for_each_line, Line};
use crate::Event;

/// The cross-field rules no single field's wire type expresses.
pub fn check(event: &Event) -> Result<(), String> {
    match event {
        Event::CollectionEnd(e) => {
            if e.claimed_prefix > e.oracle_prefix {
                return Err(format!(
                    "claimed prefix {} exceeds oracle bound {}",
                    e.claimed_prefix, e.oracle_prefix
                ));
            }
            if e.workers > 1 {
                if e.worker_copied_bytes.len() as u64 != e.workers {
                    return Err(format!(
                        "per-worker copied bytes have {} entries for {} workers",
                        e.worker_copied_bytes.len(),
                        e.workers
                    ));
                }
                let sum: u64 = e.worker_copied_bytes.iter().sum();
                if sum != e.copied_bytes {
                    return Err(format!(
                        "per-worker copied bytes sum {sum} != copied bytes {}",
                        e.copied_bytes
                    ));
                }
            }
        }
        Event::SiteSample(s) if s.survived > s.copied_objects => {
            return Err(format!(
                "survived {} exceeds copied objects {}",
                s.survived, s.copied_objects
            ));
        }
        Event::SitePromote(crate::SitePromote {
            survival_permille, ..
        })
        | Event::SiteDemote(crate::SiteDemote {
            survival_permille, ..
        }) if *survival_permille > 1000 => {
            return Err(format!("survival {survival_permille}‰ exceeds 1000‰"));
        }
        Event::DegradationBegin(d) => {
            if d.workers < 2 {
                return Err(format!("degradation on {} workers (< 2)", d.workers));
            }
            if d.workers_lost > d.workers {
                return Err(format!(
                    "{} workers lost of {} workers",
                    d.workers_lost, d.workers
                ));
            }
        }
        Event::HeapCensus(c) => {
            if c.spaces.is_empty() {
                return Err("census has no space rows".to_string());
            }
            if let Some(s) = c.spaces.iter().find(|s| s.used_words > s.reserved_words) {
                return Err(format!(
                    "census: {} uses {} words of {} reserved",
                    s.space, s.used_words, s.reserved_words
                ));
            }
        }
        _ => {}
    }
    Ok(())
}

/// [`check`] for events; a `meta` line needs a positive clock rate.
fn check_line(line: &Line) -> Result<(), String> {
    match line {
        Line::Meta(m) if m.clock_hz == 0 => Err("meta: clock rate must be positive".to_string()),
        Line::Meta(_) => Ok(()),
        Line::Event(e) => check(e),
    }
}

/// Validates one JSONL line: it decodes, and passes [`check`].
pub fn validate_line(line: &str) -> Result<(), String> {
    check_line(&decode_line(line)?)
}

/// The stream-level state of [`validate_jsonl`]: which collection,
/// pressure and degradation brackets are open.
#[derive(Default)]
struct Brackets {
    open: Option<u64>,
    last_ended: u64,
    phase_sum: u64,
    pressure_open: bool,
    rung_sum: u64,
    rung_count: u64,
    degradation_open: Option<u64>,
}

impl Brackets {
    fn step(&mut self, event: &Event) -> Result<(), String> {
        match event {
            // Censuses, degradation and pressure episodes all sit outside
            // collection spans (collections the pressure ladder triggers
            // nest inside its episode, not the other way round).
            Event::HeapCensus(_)
            | Event::DegradationBegin(_)
            | Event::DegradationEnd(_)
            | Event::PressureBegin(_)
            | Event::PressureRung(_)
            | Event::PressureEnd(_)
                if self.open.is_some() =>
            {
                return Err(format!("{} inside a collection span", event.wire_name()));
            }
            Event::CollectionBegin(b) => {
                let c = b.collection;
                if self.open.is_some() {
                    return Err(format!("nested collection {c}"));
                }
                if self.degradation_open.is_some() {
                    return Err(format!("collection {c} began inside a degradation episode"));
                }
                if c <= self.last_ended {
                    return Err(format!("collection {c} out of order"));
                }
                self.open = Some(c);
                self.phase_sum = 0;
            }
            Event::Phase(p) => {
                if self.open != Some(p.collection) {
                    return Err(format!("phase outside collection {}", p.collection));
                }
                self.phase_sum += p.cycles;
            }
            Event::CollectionEnd(e) => {
                if self.open != Some(e.collection) {
                    return Err(format!("end without begin for {}", e.collection));
                }
                if self.phase_sum != e.gc_cycles {
                    return Err(format!(
                        "phase cycles {} != collection cycles {}",
                        self.phase_sum, e.gc_cycles
                    ));
                }
                self.open = None;
                self.last_ended = e.collection;
            }
            Event::HeapCensus(c) => self.after_last_ended("census", c.collection)?,
            Event::DegradationBegin(d) => {
                if self.degradation_open.is_some() {
                    return Err("nested degradation episode".to_string());
                }
                self.after_last_ended("degradation", d.collection)?;
                self.degradation_open = Some(d.collection);
            }
            Event::DegradationEnd(d) => {
                if self.degradation_open != Some(d.collection) {
                    return Err(format!(
                        "degradation end without begin for {}",
                        d.collection
                    ));
                }
                self.degradation_open = None;
            }
            Event::PressureBegin(_) => {
                if self.pressure_open {
                    return Err("nested pressure episode".to_string());
                }
                self.pressure_open = true;
                self.rung_sum = 0;
                self.rung_count = 0;
            }
            Event::PressureRung(r) => {
                if !self.pressure_open {
                    return Err("rung outside a pressure episode".to_string());
                }
                self.rung_sum += r.cycles;
                self.rung_count += 1;
            }
            Event::PressureEnd(p) => {
                if !self.pressure_open {
                    return Err("pressure end without begin".to_string());
                }
                if p.cycles != self.rung_sum {
                    return Err(format!(
                        "episode cycles {} != rung sum {}",
                        p.cycles, self.rung_sum
                    ));
                }
                if p.rungs != self.rung_count {
                    return Err(format!(
                        "episode rungs {} != rung count {}",
                        p.rungs, self.rung_count
                    ));
                }
                self.pressure_open = false;
            }
            Event::SiteSample(_) | Event::SitePromote(_) | Event::SiteDemote(_) => {}
        }
        Ok(())
    }

    /// Censuses and degradation episodes annotate the collection that
    /// just ended.
    fn after_last_ended(&self, what: &str, c: u64) -> Result<(), String> {
        if c == self.last_ended {
            Ok(())
        } else {
            Err(format!(
                "{what} for collection {c} but last ended is {}",
                self.last_ended
            ))
        }
    }

    fn finish(self) -> Result<(), String> {
        if let Some(c) = self.open {
            return Err(format!("collection {c} never ended"));
        }
        if self.pressure_open {
            return Err("pressure episode never ended".to_string());
        }
        if let Some(c) = self.degradation_open {
            return Err(format!("degradation episode for {c} never ended"));
        }
        Ok(())
    }
}

/// Validates a whole JSONL document, parsing each line once: the `meta`
/// line comes first and exactly once, every line decodes and passes
/// [`check`], collection numbers are properly bracketed (begin before
/// end, strictly increasing), and per-collection phase cycles sum
/// exactly to the reported `gc_cycles`.
///
/// Pressure episodes are bracketed too: a `pressure-begin` opens an
/// episode on the allocation path (so it cannot appear inside a
/// collection span, though collections triggered by the ladder may nest
/// *inside* the episode), `pressure-rung` lines may only appear inside
/// an open episode, and the closing `pressure-end` must report exactly
/// the number of rungs taken and the sum of their cycle charges.
///
/// Degradation episodes are bracketed like censuses: both lines sit
/// *outside* any collection span, reference the collection that just
/// ended, and the `degradation-end` must name the same collection as
/// its begin with no nesting.
pub fn validate_jsonl(doc: &str) -> Result<usize, String> {
    let mut lines = 0usize;
    let mut brackets = Brackets::default();
    for_each_line(doc, |line| {
        lines += 1;
        check_line(&line)?;
        match line {
            Line::Event(e) => brackets.step(&e),
            Line::Meta(_) => Ok(()),
        }
    })?;
    brackets.finish()?;
    if lines == 0 {
        return Err("empty document".to_string());
    }
    Ok(lines)
}

/// Validates a Chrome trace document: parses as JSON, requires a
/// `traceEvents` array whose entries all carry a `ph` string, and checks
/// the fields of "X" (complete), "i" (instant), "C" (counter) and "M"
/// (metadata) events.
pub fn validate_chrome(doc: &str) -> Result<usize, String> {
    let v = parse(doc)?;
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        // Per phase type: required string keys, non-negative time keys,
        // and integer id keys.
        let (strings, times, ids): (&[&str], &[&str], &[&str]) = match ph {
            "X" => (&["name", "cat"], &["ts", "dur"], &["pid", "tid"]),
            "i" => (&["name", "cat", "s"], &["ts"], &["pid", "tid"]),
            "C" => (&["name"], &["ts"], &["pid"]),
            "M" => (&["name"], &[], &[]),
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        };
        for key in strings {
            if e.get(key).and_then(Value::as_str).is_none() {
                return Err(format!("event {i}: {ph} missing string {key:?}"));
            }
        }
        for key in times {
            if e.get(key).and_then(Value::as_f64).is_none_or(|x| x < 0.0) {
                return Err(format!("event {i}: {ph} has bad {key:?}"));
            }
        }
        for key in ids {
            if e.get(key).and_then(Value::as_u64).is_none() {
                return Err(format!("event {i}: {ph} missing {key:?}"));
            }
        }
        if ph == "C" {
            let series = e.get("args").and_then(Value::as_object).unwrap_or(&[]);
            if series.is_empty() || series.iter().any(|(_, v)| v.as_u64().is_none()) {
                return Err(format!("event {i}: counter args need integer series"));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_documented_lines() {
        let lines = [
            r#"{"type":"meta","plan":"semispace","bench":"Life","clock_hz":150000000,"sites":[{"id":0,"name":"unknown"}]}"#,
            r#"{"type":"collection-begin","collection":1,"plan":"semispace","reason":"forced","major":true,"depth":0,"start_cycles":10}"#,
            r#"{"type":"phase","collection":1,"phase":"cheney-copy","cycles":5,"wall_ns":10}"#,
            r#"{"type":"site-sample","collection":1,"site":2,"allocs":3,"alloc_bytes":48,"copied_objects":1,"copied_bytes":16,"survived":1}"#,
            r#"{"type":"pressure-begin","site":4,"words":18,"space":"nursery","start_cycles":900}"#,
            r#"{"type":"pressure-rung","rung":"retry-major","site":4,"words":18,"outcome":"recovered","cycles":20}"#,
            r#"{"type":"pressure-end","outcome":"recovered","rungs":1,"cycles":20}"#,
            r#"{"type":"site-promote","collection":3,"site":9,"survival_permille":903}"#,
            r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[{"space":"nursery","used_words":0,"reserved_words":1024,"chunks":2},{"space":"tenured","used_words":12,"reserved_words":2048,"chunks":4}]}"#,
            r#"{"type":"site-demote","collection":8,"site":9,"survival_permille":105,"reason":"adaptive"}"#,
            r#"{"type":"site-demote","collection":9,"site":2,"survival_permille":640,"reason":"pressure"}"#,
            r#"{"type":"collection-begin","collection":2,"plan":"semispace","reason":"alloc-failure","major":false,"depth":1,"start_cycles":99,"ttsp_cycles":12}"#,
            r#"{"type":"degradation-begin","collection":1,"trigger":"panic","workers":4,"workers_lost":1}"#,
            r#"{"type":"degradation-begin","collection":1,"trigger":"orphan","workers":2,"workers_lost":0}"#,
            r#"{"type":"degradation-end","collection":1,"leftover_packets":3,"outcome":"drained"}"#,
        ];
        for line in lines {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn rejects_bad_lines() {
        let bad = [
            ("not json", "{oops"),
            ("unknown type", r#"{"type":"mystery"}"#),
            (
                "unknown phase",
                r#"{"type":"phase","collection":1,"phase":"mark-sweep","cycles":1,"wall_ns":0}"#,
            ),
            (
                "unknown reason",
                r#"{"type":"collection-begin","collection":1,"plan":"semispace","reason":"bored","major":false,"depth":0,"start_cycles":0}"#,
            ),
            (
                "survived > copied",
                r#"{"type":"site-sample","collection":1,"site":1,"allocs":0,"alloc_bytes":0,"copied_objects":1,"copied_bytes":16,"survived":2}"#,
            ),
            (
                "extra field",
                r#"{"type":"phase","collection":1,"phase":"setup","cycles":1,"wall_ns":0,"bogus":1}"#,
            ),
            (
                "missing field",
                r#"{"type":"phase","collection":1,"phase":"setup","cycles":1}"#,
            ),
            (
                "unknown pressure rung",
                r#"{"type":"pressure-rung","rung":"pray","site":0,"words":1,"outcome":"recovered","cycles":1}"#,
            ),
            (
                "unknown pressure space",
                r#"{"type":"pressure-begin","site":0,"words":1,"space":"attic","start_cycles":0}"#,
            ),
            (
                "unknown pressure outcome",
                r#"{"type":"pressure-end","outcome":"shrug","rungs":1,"cycles":1}"#,
            ),
            (
                "promote permille out of range",
                r#"{"type":"site-promote","collection":1,"site":1,"survival_permille":1001}"#,
            ),
            (
                "promote site out of range",
                r#"{"type":"site-promote","collection":1,"site":70000,"survival_permille":900}"#,
            ),
            (
                "unknown demote reason",
                r#"{"type":"site-demote","collection":1,"site":1,"survival_permille":100,"reason":"whim"}"#,
            ),
            (
                "demote without reason",
                r#"{"type":"site-demote","collection":1,"site":1,"survival_permille":100}"#,
            ),
            (
                "census with unknown space",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[{"space":"attic","used_words":0,"reserved_words":1,"chunks":0}]}"#,
            ),
            (
                "census with empty spaces",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[]}"#,
            ),
            (
                "census used exceeds reserved",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[{"space":"nursery","used_words":9,"reserved_words":8,"chunks":1}]}"#,
            ),
            (
                "census with unknown field",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"bogus":1,"spaces":[{"space":"nursery","used_words":0,"reserved_words":8,"chunks":1}]}"#,
            ),
            (
                "census row missing chunks",
                r#"{"type":"heap-census","collection":1,"pretenured_sites":0,"spaces":[{"space":"nursery","used_words":0,"reserved_words":8}]}"#,
            ),
            (
                "zero ttsp should be omitted",
                r#"{"type":"collection-begin","collection":1,"plan":"semispace","reason":"forced","major":false,"depth":0,"start_cycles":0,"ttsp_cycles":0}"#,
            ),
            (
                "unknown degradation trigger",
                r#"{"type":"degradation-begin","collection":1,"trigger":"gremlins","workers":4,"workers_lost":1}"#,
            ),
            (
                "degradation on a serial collection",
                r#"{"type":"degradation-begin","collection":1,"trigger":"panic","workers":1,"workers_lost":1}"#,
            ),
            (
                "workers_lost exceeds workers",
                r#"{"type":"degradation-begin","collection":1,"trigger":"panic","workers":2,"workers_lost":3}"#,
            ),
            (
                "unknown degradation outcome",
                r#"{"type":"degradation-end","collection":1,"leftover_packets":0,"outcome":"gave-up"}"#,
            ),
        ];
        for (what, line) in bad {
            assert!(validate_line(line).is_err(), "{what} should be rejected");
        }
    }

    #[test]
    fn collection_end_worker_fields_are_optional_together_and_reconciled() {
        let base = "{\"type\":\"collection-end\",\"collection\":1,\"major\":false,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":64,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0,\"size_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"depth_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]";
        let serial = format!("{base}}}");
        validate_line(&serial).expect("serial end line valid without worker fields");

        let parallel = format!("{base},\"workers\":2,\"worker_copied_bytes\":[48,16]}}");
        validate_line(&parallel).expect("parallel end line valid");

        let bad = [
            (
                "workers without per-worker array",
                format!("{base},\"workers\":2}}"),
            ),
            (
                "per-worker array without workers",
                format!("{base},\"worker_copied_bytes\":[64]}}"),
            ),
            (
                "workers below 2",
                format!("{base},\"workers\":1,\"worker_copied_bytes\":[64]}}"),
            ),
            (
                "array length mismatch",
                format!("{base},\"workers\":3,\"worker_copied_bytes\":[48,16]}}"),
            ),
            (
                "sum mismatch",
                format!("{base},\"workers\":2,\"worker_copied_bytes\":[48,17]}}"),
            ),
        ];
        for (what, line) in bad {
            assert!(validate_line(&line).is_err(), "{what} should be rejected");
        }
    }

    #[test]
    fn jsonl_document_checks_bracketing_and_phase_sums() {
        let ok = "\
{\"type\":\"meta\",\"plan\":\"p\",\"bench\":\"b\",\"clock_hz\":1,\"sites\":[]}\n\
{\"type\":\"collection-begin\",\"collection\":1,\"plan\":\"semispace\",\"reason\":\"forced\",\"major\":false,\"depth\":0,\"start_cycles\":0}\n\
{\"type\":\"phase\",\"collection\":1,\"phase\":\"setup\",\"cycles\":2,\"wall_ns\":0}\n\
{\"type\":\"phase\",\"collection\":1,\"phase\":\"cheney-copy\",\"cycles\":3,\"wall_ns\":0}\n\
{\"type\":\"collection-end\",\"collection\":1,\"major\":false,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":0,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0,\"size_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"depth_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}\n";
        assert_eq!(validate_jsonl(ok).unwrap(), 5);
        let mismatched = ok.replace("\"gc_cycles\":5", "\"gc_cycles\":6");
        assert!(validate_jsonl(&mismatched)
            .unwrap_err()
            .contains("phase cycles"));
        let unclosed = ok.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(validate_jsonl(&unclosed)
            .unwrap_err()
            .contains("never ended"));
    }

    #[test]
    fn jsonl_document_needs_exactly_one_leading_meta_line() {
        let meta =
            "{\"type\":\"meta\",\"plan\":\"p\",\"bench\":\"b\",\"clock_hz\":1,\"sites\":[]}\n";
        let promote =
            "{\"type\":\"site-promote\",\"collection\":1,\"site\":1,\"survival_permille\":900}\n";
        assert_eq!(validate_jsonl(&format!("{meta}{promote}")).unwrap(), 2);
        // A leading blank line does not excuse a missing meta line.
        assert!(validate_jsonl(&format!("\n{promote}"))
            .unwrap_err()
            .contains("expected meta line"));
        assert!(validate_jsonl(&format!("{meta}{promote}{meta}"))
            .unwrap_err()
            .contains("second meta line"));
        assert!(validate_jsonl(&meta.replace(":1,", ":0,"))
            .unwrap_err()
            .contains("clock rate"));
    }

    #[test]
    fn jsonl_document_checks_census_placement() {
        let meta =
            "{\"type\":\"meta\",\"plan\":\"p\",\"bench\":\"b\",\"clock_hz\":1,\"sites\":[]}\n";
        let gc_begin = "{\"type\":\"collection-begin\",\"collection\":1,\"plan\":\"semispace\",\"reason\":\"forced\",\"major\":false,\"depth\":0,\"start_cycles\":0}\n";
        let gc_phase = "{\"type\":\"phase\",\"collection\":1,\"phase\":\"setup\",\"cycles\":5,\"wall_ns\":0}\n";
        let gc_end = "{\"type\":\"collection-end\",\"collection\":1,\"major\":false,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":0,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0,\"size_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"depth_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}\n";
        let census = "{\"type\":\"heap-census\",\"collection\":1,\"pretenured_sites\":0,\"spaces\":[{\"space\":\"semispace\",\"used_words\":0,\"reserved_words\":64,\"chunks\":1}]}\n";
        let ok = format!("{meta}{gc_begin}{gc_phase}{gc_end}{census}");
        assert_eq!(validate_jsonl(&ok).unwrap(), 5);

        let inside = format!("{meta}{gc_begin}{census}");
        assert!(validate_jsonl(&inside)
            .unwrap_err()
            .contains("inside a collection"));
        let wrong_collection = format!(
            "{meta}{gc_begin}{gc_phase}{gc_end}{}",
            census.replace("\"collection\":1", "\"collection\":2")
        );
        assert!(validate_jsonl(&wrong_collection)
            .unwrap_err()
            .contains("last ended"));
    }

    #[test]
    fn jsonl_document_checks_degradation_bracketing() {
        let meta =
            "{\"type\":\"meta\",\"plan\":\"p\",\"bench\":\"b\",\"clock_hz\":1,\"sites\":[]}\n";
        let gc_begin = "{\"type\":\"collection-begin\",\"collection\":1,\"plan\":\"semispace\",\"reason\":\"forced\",\"major\":false,\"depth\":0,\"start_cycles\":0}\n";
        let gc_phase = "{\"type\":\"phase\",\"collection\":1,\"phase\":\"setup\",\"cycles\":5,\"wall_ns\":0}\n";
        let gc_end = "{\"type\":\"collection-end\",\"collection\":1,\"major\":false,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":0,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0,\"size_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"depth_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}\n";
        let deg_begin = "{\"type\":\"degradation-begin\",\"collection\":1,\"trigger\":\"watchdog\",\"workers\":4,\"workers_lost\":1}\n";
        let deg_end = "{\"type\":\"degradation-end\",\"collection\":1,\"leftover_packets\":2,\"outcome\":\"drained\"}\n";
        let ok = format!("{meta}{gc_begin}{gc_phase}{gc_end}{deg_begin}{deg_end}");
        assert_eq!(validate_jsonl(&ok).unwrap(), 6);

        let inside = format!("{meta}{gc_begin}{deg_begin}");
        assert!(validate_jsonl(&inside)
            .unwrap_err()
            .contains("inside a collection"));
        let wrong_collection = format!(
            "{meta}{gc_begin}{gc_phase}{gc_end}{}",
            deg_begin.replace("\"collection\":1", "\"collection\":2")
        );
        assert!(validate_jsonl(&wrong_collection)
            .unwrap_err()
            .contains("last ended"));
        let orphan_end = format!("{meta}{gc_begin}{gc_phase}{gc_end}{deg_end}");
        assert!(validate_jsonl(&orphan_end)
            .unwrap_err()
            .contains("without begin"));
        let unclosed = format!("{meta}{gc_begin}{gc_phase}{gc_end}{deg_begin}");
        assert!(validate_jsonl(&unclosed)
            .unwrap_err()
            .contains("never ended"));
        let nested = format!("{meta}{gc_begin}{gc_phase}{gc_end}{deg_begin}{deg_begin}");
        assert!(validate_jsonl(&nested)
            .unwrap_err()
            .contains("nested degradation"));
    }

    #[test]
    fn jsonl_document_checks_pressure_bracketing() {
        let meta =
            "{\"type\":\"meta\",\"plan\":\"p\",\"bench\":\"b\",\"clock_hz\":1,\"sites\":[]}\n";
        let begin = "{\"type\":\"pressure-begin\",\"site\":1,\"words\":8,\"space\":\"tenured\",\"start_cycles\":0}\n";
        let rung = "{\"type\":\"pressure-rung\",\"rung\":\"retry-major\",\"site\":1,\"words\":8,\"outcome\":\"escalated\",\"cycles\":20}\n";
        let rung2 = "{\"type\":\"pressure-rung\",\"rung\":\"rebalance\",\"site\":1,\"words\":8,\"outcome\":\"recovered\",\"cycles\":200}\n";
        let end =
            "{\"type\":\"pressure-end\",\"outcome\":\"recovered\",\"rungs\":2,\"cycles\":220}\n";
        let ok = format!("{meta}{begin}{rung}{rung2}{end}");
        assert_eq!(validate_jsonl(&ok).unwrap(), 5);

        // A collection triggered by the ladder nests inside the episode.
        let gc_begin = "{\"type\":\"collection-begin\",\"collection\":1,\"plan\":\"semispace\",\"reason\":\"alloc-failure\",\"major\":true,\"depth\":0,\"start_cycles\":0}\n";
        let gc_phase = "{\"type\":\"phase\",\"collection\":1,\"phase\":\"setup\",\"cycles\":5,\"wall_ns\":0}\n";
        let gc_end = "{\"type\":\"collection-end\",\"collection\":1,\"major\":true,\"depth\":0,\"claimed_prefix\":0,\"oracle_prefix\":0,\"copied_bytes\":0,\"scanned_words\":0,\"pretenured_scanned_words\":0,\"roots_found\":0,\"frames_scanned\":0,\"frames_reused\":0,\"slots_scanned\":0,\"barrier_entries\":0,\"markers_placed\":0,\"gc_cycles\":5,\"end_cycles\":5,\"live_bytes_after\":0,\"wall_ns\":0,\"chunks_owned\":0,\"side_cleared_words\":0,\"size_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],\"depth_hist\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}\n";
        let nested = format!("{meta}{begin}{gc_begin}{gc_phase}{gc_end}{rung}{rung2}{end}");
        assert_eq!(validate_jsonl(&nested).unwrap(), 8);

        let orphan_rung = format!("{meta}{rung}");
        assert!(validate_jsonl(&orphan_rung)
            .unwrap_err()
            .contains("outside a pressure episode"));
        let bad_sum = format!("{meta}{begin}{rung}{end}");
        assert!(validate_jsonl(&bad_sum).unwrap_err().contains("rung"));
        let unclosed = format!("{meta}{begin}{rung}");
        assert!(validate_jsonl(&unclosed)
            .unwrap_err()
            .contains("pressure episode never ended"));
        let inside_gc = format!("{meta}{gc_begin}{begin}");
        assert!(validate_jsonl(&inside_gc)
            .unwrap_err()
            .contains("inside a collection"));
    }

    #[test]
    fn chrome_validator_accepts_rendered_trace() {
        let events = [crate::Event::CollectionBegin(crate::CollectionBegin {
            collection: 1,
            plan: "semispace",
            reason: "forced",
            major: false,
            depth: 0,
            start_cycles: 0,
            ttsp_cycles: 0,
        })];
        let doc = crate::chrome::render("p", "b", 150_000_000, &events);
        assert!(
            validate_chrome(&doc).unwrap() >= 3,
            "metadata events present"
        );
        assert!(validate_chrome("{}").is_err());
        assert!(validate_chrome("{\"traceEvents\":[{\"ph\":\"Q\"}]}").is_err());
    }
}

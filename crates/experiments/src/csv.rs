//! Minimal CSV writing for the experiment tables.
//!
//! `experiments <table> --csv <dir>` writes `<dir>/<table>.csv` alongside
//! the human-readable output, so results can be plotted or diffed without
//! parsing the text tables.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Where CSV output goes, if anywhere.
#[derive(Clone, Debug, Default)]
pub struct CsvSink {
    dir: Option<PathBuf>,
}

impl CsvSink {
    /// A sink that writes nothing.
    pub fn disabled() -> CsvSink {
        CsvSink::default()
    }

    /// A sink writing one file per table into `dir` (created if needed).
    pub fn into_dir(dir: &Path) -> std::io::Result<CsvSink> {
        fs::create_dir_all(dir)?;
        Ok(CsvSink {
            dir: Some(dir.to_path_buf()),
        })
    }

    /// Writes `name.csv` with the given header and rows. Fields are
    /// quoted only when they contain commas or quotes.
    pub fn write(&self, name: &str, header: &[&str], rows: &[Vec<String>]) {
        let Some(dir) = &self.dir else { return };
        let path = dir.join(format!("{name}.csv"));
        let mut out = match fs::File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("csv: cannot create {}: {e}", path.display());
                return;
            }
        };
        let quote = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut text = header
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(",");
        text.push('\n');
        for row in rows {
            text.push_str(&row.iter().map(|f| quote(f)).collect::<Vec<_>>().join(","));
            text.push('\n');
        }
        if let Err(e) = out.write_all(text.as_bytes()) {
            eprintln!("csv: write to {} failed: {e}", path.display());
        } else {
            eprintln!("csv: wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_writes_nothing() {
        CsvSink::disabled().write("x", &["a"], &[vec!["1".into()]]);
    }

    #[test]
    fn writes_and_quotes() {
        // Unique to this process and test, since the test deletes it.
        let dir = std::env::temp_dir().join(format!("tilgc-csv-{}", std::process::id()));
        let sink = CsvSink::into_dir(&dir).expect("temp dir");
        sink.write(
            "t",
            &["name", "value"],
            &[
                vec!["plain".into(), "1".into()],
                vec!["with,comma".into(), "a\"b".into()],
            ],
        );
        let text = fs::read_to_string(dir.join("t.csv")).expect("file written");
        assert_eq!(text, "name,value\nplain,1\n\"with,comma\",\"a\"\"b\"\n");
        let _ = fs::remove_dir_all(&dir);
    }
}

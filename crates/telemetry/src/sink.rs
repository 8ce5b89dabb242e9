//! Pluggable destinations for the telemetry record stream.
//!
//! Three sinks cover the pipeline's needs: [`JsonlSink`] writes one JSON
//! line per record for offline analysis, [`MemorySink`] buffers records
//! for assertions in tests, and [`NoopSink`] discards everything (the
//! default when telemetry is enabled only for its metric registers).
//!
//! This module is the **only** place in the workspace where telemetry
//! output touches the filesystem; library crates emit through the
//! global collector and never open files themselves (`clippy.toml`
//! disallows it).

use crate::record::Record;
use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A destination for telemetry records.
///
/// Implementations must be cheap per call and must not panic: sinks run
/// inside the instrumented hot paths.
pub trait Sink: Send {
    /// Consumes one record.
    fn record(&mut self, record: &Record);

    /// Flushes buffered output.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Short human-readable label for diagnostics.
    fn label(&self) -> &'static str;

    /// Records this sink has silently dropped (encode or I/O failures).
    /// Surfaced into [`crate::TelemetrySummary::sink_dropped`] at
    /// shutdown so lossy runs are visible, not absorbed.
    fn dropped(&self) -> u64 {
        0
    }
}

/// Discards every record.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&mut self, _record: &Record) {}

    fn label(&self) -> &'static str {
        "noop"
    }
}

/// Buffers records in memory behind a shared handle, for tests.
///
/// # Example
///
/// ```
/// use crp_telemetry::sink::{MemorySink, Sink};
/// use crp_telemetry::record::Record;
///
/// let (mut sink, handle) = MemorySink::shared();
/// sink.record(&Record::SpanStart { time_ms: 0, name: "x".into() });
/// assert_eq!(handle.lock().unwrap().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Arc<Mutex<Vec<Record>>>,
}

impl MemorySink {
    /// Creates a sink plus a handle that stays readable after the sink
    /// is installed into the global collector.
    pub fn shared() -> (MemorySink, Arc<Mutex<Vec<Record>>>) {
        let records = Arc::new(Mutex::new(Vec::new()));
        (
            MemorySink {
                records: Arc::clone(&records),
            },
            records,
        )
    }
}

impl Sink for MemorySink {
    fn record(&mut self, record: &Record) {
        self.records
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(record.clone());
    }

    fn label(&self) -> &'static str {
        "memory"
    }
}

/// Writes records as JSON Lines to a file, one record per line.
///
/// Encoding or I/O failures never panic; they increment a drop counter
/// that surfaces in the run summary instead, because telemetry must not
/// take down the experiment it observes.
#[derive(Debug)]
pub struct JsonlSink {
    writer: BufWriter<fs::File>,
    path: PathBuf,
    written: u64,
    dropped: u64,
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Returns any error from creating the directories or the file.
    pub fn create(path: &Path) -> io::Result<JsonlSink> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the JSONL export sink creates the file it is asked to write"
        )]
        let file = fs::File::create(path)?;
        Ok(JsonlSink {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            written: 0,
            dropped: 0,
        })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Records dropped to encoding or I/O errors.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, record: &Record) {
        match record.to_json_line() {
            Ok(line) => {
                if writeln!(self.writer, "{line}").is_ok() {
                    self.written += 1;
                } else {
                    self.dropped += 1;
                }
            }
            Err(_) => self.dropped += 1,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn label(&self) -> &'static str {
        "jsonl"
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FieldValue;

    fn event(t: u64, name: &str) -> Record {
        Record::Event {
            time_ms: t,
            name: name.to_owned(),
            fields: vec![("v".to_owned(), FieldValue::U64(t))],
        }
    }

    #[test]
    fn noop_sink_accepts_everything() {
        let mut s = NoopSink;
        s.record(&event(1, "a"));
        assert!(s.flush().is_ok());
        assert_eq!(s.label(), "noop");
    }

    #[test]
    fn memory_sink_shares_records_with_handle() {
        let (mut sink, handle) = MemorySink::shared();
        sink.record(&event(1, "a"));
        sink.record(&event(2, "b"));
        let records = handle.lock().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].name(), "b");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let dir = std::env::temp_dir().join("crp-telemetry-sink-test");
        let path = dir.join("out.jsonl");
        let mut sink = JsonlSink::create(&path).expect("create sink");
        sink.record(&event(1, "a"));
        sink.record(&event(2, "b"));
        sink.flush().expect("flush");
        assert_eq!(sink.written(), 2);
        assert_eq!(sink.dropped(), 0);
        let text = fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = serde_json::parse(line).expect("valid json");
            assert!(v.field("kind").is_ok());
        }
    }

    #[test]
    fn jsonl_sink_counts_unencodable_records_as_dropped() {
        let dir = std::env::temp_dir().join("crp-telemetry-sink-drop-test");
        let mut sink = JsonlSink::create(&dir.join("out.jsonl")).expect("create sink");
        sink.record(&Record::Event {
            time_ms: 0,
            name: "bad".to_owned(),
            fields: vec![("x".to_owned(), FieldValue::F64(f64::INFINITY))],
        });
        assert_eq!(sink.written(), 0);
        assert_eq!(sink.dropped(), 1);
    }
}

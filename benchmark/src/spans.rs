//! Spans the benchmark records around its own calls into each layer
//! during the probe replay. Kept in memory; written out as JSON lines
//! when the traced run ends. A span's self time is its duration minus
//! the part of it its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Shared by every span of one replayed transaction (0: none).
    pub txn: u32,
    /// Crate/module the timed call belongs to.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<u32>,
        txn: u32,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            txn,
            layer,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        // Stamp last, so the bookkeeping above is outside the span.
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        id
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Times `f` as one span and returns its result with the duration.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<u32>,
        txn: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(layer, name, parent, txn);
        let r = std::hint::black_box(f());
        (r, self.close(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the children's durations
    /// (children of one parent never overlap here: the replay is
    /// single-threaded).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// `(layer.name, calls, total ns, self ns)` per span kind, by name.
    pub fn summary(&self) -> Vec<(String, u64, u64, u64)> {
        let own = self.self_times_ns();
        let mut by: HashMap<String, (u64, u64, u64)> = HashMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let e = by.entry(format!("{}.{}", s.layer, s.name)).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += own_ns;
        }
        let mut rows: Vec<_> = by.into_iter().map(|(k, v)| (k, v.0, v.1, v.2)).collect();
        rows.sort();
        rows
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"txn\": {}, \"layer\": \"{}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.txn, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new();
        let txn = r.open("client", "txn", None, 1);
        let op = r.open("core", "op", Some(txn), 1);
        let (_, eval_ns) = r.time("xpath", "eval", Some(op), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let op_ns = r.close(op);
        let txn_ns = r.close(txn);
        assert!(eval_ns >= 2_000_000 && op_ns >= eval_ns && txn_ns >= op_ns);
        let own = r.self_times_ns();
        assert_eq!(own[txn as usize], txn_ns - op_ns);
        assert_eq!(own[op as usize], op_ns - eval_ns);
        assert_eq!(own[2], eval_ns);
        // Self times of a tree add up to its root.
        assert_eq!(own.iter().sum::<u64>(), txn_ns);
        let rows = r.summary();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].0, "xpath.eval");
    }
}

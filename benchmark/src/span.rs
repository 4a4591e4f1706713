//! Host-time spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only — around the
//! public function it calls — and kept in memory until the run ends.
//! A disabled tracer costs one branch per call, which is how the untraced
//! twin of a traced run is produced from the same code.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent` is the index of the enclosing span in the
/// tracer's list (`u32::MAX` at top level).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span for a call into `layer`. Pair with [`Tracer::end`].
    #[inline]
    pub fn begin(&mut self, layer: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(u32::MAX),
        });
        self.open.push(idx);
    }

    /// Close the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(idx) = self.open.pop() {
            self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals: `(layer, spans, self_ns)`, where a span's self
    /// time is its duration minus the part its child spans cover.
    pub fn self_time_by_layer(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
            match out.iter_mut().find(|(l, _, _)| *l == s.layer) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += own;
                }
                None => out.push((s.layer, 1, own)),
            }
        }
        out
    }

    /// Write every span as one JSON array. `workload` is the identifier
    /// all spans of this run share.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent}}}{sep}",
                s.name, s.layer, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin("bench", "outer");
        t.begin("netsim", "inner");
        t.end();
        t.end();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        let rows = t.self_time_by_layer();
        let outer = rows.iter().find(|r| r.0 == "bench").unwrap();
        let inner = rows.iter().find(|r| r.0 == "netsim").unwrap();
        let total = t.spans()[0].end_ns - t.spans()[0].start_ns;
        assert_eq!(outer.2 + inner.2, total);

        let mut off = Tracer::new(false);
        off.begin("bench", "x");
        off.end();
        assert!(off.spans().is_empty());
    }
}

//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and end (ns since the tracer was made), the
//! span that encloses it, and the sequence number of the record it
//! belongs to (0 when it serves no single record, such as one uplink
//! tick). Spans are kept in memory and written out when the run ends. A
//! stage's self time is its spans' durations minus the parts their child
//! spans cover, so the self times of all stages add up to the wall time
//! of the root spans exactly; the root spans' own self time is the
//! `unattributed` row.
//!
//! A tracer made with [`Tracer::off`] records nothing, which is what the
//! untraced runs that report the end-to-end metrics use.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Stage name, `layer.operation`.
    pub name: &'static str,
    /// Record sequence number, 0 for spans that serve no single record.
    pub seq: u64,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    cap: usize,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(u32);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cap: 0,
        }
    }

    /// A recording tracer that holds at most `cap` spans.
    pub fn on(cap: usize) -> Self {
        Self {
            on: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            stack: Vec::with_capacity(16),
            cap,
        }
    }

    /// Whether a recording tracer has used most of its span budget; a
    /// workload stops starting new rounds once this holds, so the round
    /// in progress still fits.
    pub fn nearly_full(&self) -> bool {
        self.on && self.spans.len() * 4 >= self.cap * 3
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, seq: u64) -> SpanId {
        if !self.on {
            return SpanId(NONE);
        }
        assert!(self.spans.len() < self.cap, "span budget exhausted");
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start = self.now();
        self.spans.push(Span {
            name,
            seq,
            start,
            end: 0,
            parent,
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let end = self.now();
        assert_eq!(
            self.stack.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        self.spans[id.0 as usize].end = end;
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, seq: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, seq);
        let r = f();
        self.exit(id);
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e3)
            .collect()
    }

    /// Write every span as one tab-separated line:
    /// `index name seq start_ns end_ns parent` (parent -1 for a root).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tseq\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}",
                s.name, s.seq, s.start, s.end
            )?;
        }
        out.flush()
    }

    /// Self time per stage. Root spans contribute their self time to the
    /// `unattributed` row and their duration to the wall time.
    pub fn stage_table(&self) -> StageTable {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.dur();
            }
        }
        let mut stages: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut wall_ns = 0u64;
        let mut unattributed_ns = 0u64;
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let own = s.dur() - child;
            if s.parent == NONE {
                wall_ns += s.dur();
                unattributed_ns += own;
            } else {
                let e = stages.entry(s.name).or_default();
                e.0 += 1;
                e.1 += own;
            }
        }
        StageTable {
            stages: stages
                .into_iter()
                .map(|(name, (calls, self_ns))| (name, calls, self_ns))
                .collect(),
            unattributed_ns,
            wall_ns,
        }
    }
}

/// Self time per stage, reconciled against wall time.
#[derive(Debug)]
pub struct StageTable {
    /// `(stage, calls, self ns)` by stage name.
    pub stages: Vec<(&'static str, u64, u64)>,
    /// Time inside root spans that no stage span covers.
    pub unattributed_ns: u64,
    /// Total duration of the root spans.
    pub wall_ns: u64,
}

impl StageTable {
    /// Stage self times plus `unattributed`; equals `wall_ns`.
    pub fn total_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.2).sum::<u64>() + self.unattributed_ns
    }

    /// Print the table, largest self time first.
    pub fn print(&self, title: &str) {
        let wall = self.wall_ns.max(1) as f64;
        println!("stage table: {title}");
        println!(
            "  {:<28} {:>10} {:>12} {:>7}",
            "stage", "calls", "self_ms", "share"
        );
        let mut rows = self.stages.clone();
        rows.sort_by_key(|r| std::cmp::Reverse(r.2));
        for (name, calls, ns) in rows {
            let ms = ns as f64 / 1e6;
            println!(
                "  {name:<28} {calls:>10} {ms:>12.3} {:>6.2}%",
                ns as f64 / wall * 100.0
            );
        }
        let un = self.unattributed_ns as f64;
        println!(
            "  {:<28} {:>10} {:>12.3} {:>6.2}%",
            "unattributed",
            "-",
            un / 1e6,
            un / wall * 100.0
        );
        println!(
            "  {:<28} {:>10} {:>12.3} (stages + unattributed = {:.3} ms)",
            "wall",
            "-",
            wall / 1e6,
            self.total_ns() as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_unattributed_add_up_to_wall_time() {
        let mut t = Tracer::on(64);
        let root = t.enter("round", 0);
        let a = t.enter("a", 1);
        t.span("b", 1, || std::hint::black_box((0..1000).sum::<u64>()));
        t.exit(a);
        t.span("c", 2, || ());
        t.exit(root);
        let table = t.stage_table();
        assert_eq!(table.total_ns(), table.wall_ns);
        assert_eq!(table.stages.len(), 3);
        assert_eq!(t.spans()[2].parent, 1);
        assert_eq!(t.spans()[1].parent, 0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter("x", 0);
        t.exit(id);
        assert!(t.spans().is_empty());
        assert!(!t.nearly_full());
    }
}

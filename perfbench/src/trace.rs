//! The span recorder of the traced run. Spans wrap the benchmark's own
//! calls into each module's public functions, so the program under test
//! carries no instrumentation. Spans stay in memory until the run ends.

use crate::common::{median, scratch_dir, Config, Report};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    op: u64,
}

/// The spans of one traced run, each with a name, start, end, parent and
/// op id.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Record a span over `[start, end]`. Returns its index, which its
    /// children name as their parent.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Open a span now; [`Recorder::end`] closes it.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.add(name, now, now, parent, op)
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end = Instant::now();
    }

    /// How long span `span` lasted, in milliseconds.
    pub fn ms(&self, span: usize) -> f64 {
        let s = &self.spans[span];
        nanos(s.start, s.end) as f64 / 1e6
    }

    /// Per op, in op order, the summed milliseconds of the spans named in
    /// `names`.
    pub fn per_op_ms(&self, names: &[&str]) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            *by_op.entry(s.op).or_default() += nanos(s.start, s.end) as f64 / 1e6;
        }
        by_op.into_values().collect()
    }

    /// Median over ops of [`Recorder::per_op_ms`].
    pub fn median_ms(&self, names: &[&str]) -> f64 {
        median(&self.per_op_ms(names))
    }

    /// Each span's self time in ns: its duration minus the part its
    /// children cover. Children of one span run one after another and never
    /// overlap, so the part they cover is the sum of their durations.
    fn self_nanos(&self) -> Vec<u128> {
        let mut covered = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += nanos(s.start, s.end);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| nanos(s.start, s.end).saturating_sub(c))
            .collect()
    }

    /// The share of the wall time of the op spans (roots named `op.*`)
    /// that the layer spans below them account for, in percent.
    fn coverage_pct(&self) -> f64 {
        let (mut total, mut own) = (0u128, 0u128);
        for (s, self_ns) in self.spans.iter().zip(self.self_nanos()) {
            if s.parent.is_none() && s.name.starts_with("op.") {
                total += nanos(s.start, s.end);
                own += self_ns;
            }
        }
        if total == 0 {
            return 0.0;
        }
        100.0 * (1.0 - own as f64 / total as f64)
    }

    /// The traced run's own metrics. The tracing overhead compares, per op
    /// kind, the median of the traced ops `samples[k + kinds]` with the
    /// untraced ops `samples[k]` of the same interleaved run; the coverage
    /// is the share of op wall time the layer spans account for.
    pub fn set_trace_metrics(&self, report: &mut Report, samples: &[Vec<f64>], kinds: usize) {
        let overhead = (0..kinds)
            .map(|k| median(&samples[k + kinds]) / median(&samples[k]) - 1.0)
            .sum::<f64>()
            / kinds as f64;
        let traced: usize = samples[kinds..2 * kinds].iter().map(Vec::len).sum();
        report.set("trace.overhead_pct", 100.0 * overhead, traced);
        report.set("trace.coverage_pct", self.coverage_pct(), traced);
    }

    /// Write the spans as JSON lines into the scratch directory and note
    /// where they went.
    pub fn save(&self, cfg: &Config, report: &mut Report) {
        let path = scratch_dir().join(format!("trace-{}-seed{}.jsonl", cfg.workload, cfg.seed));
        match self.write_jsonl(&path) {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                self.spans.len(),
                path.display()
            )),
            Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
        }
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_nanos()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{self_ns}}}"#,
                s.name,
                s.op,
                nanos(self.origin, s.start),
                nanos(self.origin, s.end),
            )?;
        }
        w.flush()
    }
}

fn nanos(from: Instant, to: Instant) -> u128 {
    to.saturating_duration_since(from).as_nanos()
}

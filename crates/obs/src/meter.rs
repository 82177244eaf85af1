//! The [`WorkMeter`]: named monotonic work counters plus lightweight
//! wall-clock span timers.
//!
//! The sparsification theorems bound *unit counts* — adjacency probes
//! (Thm 3.1), messages and rounds (Thm 3.2/3.3), per-update work
//! (Thm 3.5) — so the meter tracks integers, never rates. Counter values
//! are deterministic for a fixed seed; wall-clock timings are kept in a
//! separate section so snapshots can stay byte-stable (see
//! [`WorkMeter::snapshot_counters`]).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Well-known counter names, shared across crates so that the CLI and the
/// experiment harness produce uniform metric files. Using the constants is
/// not required — any name works — but the wired call sites stick to them.
pub mod keys {
    /// Degree probes against a read-only adjacency oracle.
    pub const DEGREE_PROBES: &str = "adjacency.degree_probes";
    /// Neighbor probes against a read-only adjacency oracle. The EDCS
    /// backend records its notional scan cost here, `passes × 2m`
    /// half-edge visits, however many edges its fixpoint evaluated
    /// ([`EDCS_EDGE_EVALUATIONS`]).
    pub const NEIGHBOR_PROBES: &str = "adjacency.neighbor_probes";
    /// Draws taken from the pseudorandom generator.
    pub const RNG_DRAWS: &str = "sampler.rng_draws";
    /// Writes into the position-array sampler overlay.
    pub const OVERLAY_WRITES: &str = "sampler.overlay_writes";
    /// Edges appended to the sparsifier.
    pub const SPARSIFIER_EDGES: &str = "sparsifier.edges";
    /// Vertices of degree at most the mark cap `2Δ`, which keep every
    /// incident edge in `G_Δ`, added once per delta solve like
    /// [`SPARSIFIER_EDGES`]. One solve's count equals the vertex count
    /// exactly when its sparsifier keeps the whole graph; a meter that
    /// sums `k` such solves of an `n`-vertex graph reads `k·n`.
    pub const KEEP_ALL_VERTICES: &str = "sparsifier.keep_all_vertices";
    /// Passes of the EDCS fixpoint, including the final pass that
    /// changed nothing.
    pub const EDCS_PASSES: &str = "edcs.passes";
    /// Edges the in-memory EDCS fixpoint evaluated across its passes: at
    /// most `passes × m`, less by the edges it proved could not change.
    pub const EDCS_EDGE_EVALUATIONS: &str = "edcs.edge_evaluations";
    /// Edge visits performed by bounded augmenting-path search.
    pub const EDGE_VISITS: &str = "matching.edge_visits";
    /// Augmenting-path searches started.
    pub const AUG_SEARCHES: &str = "matching.searches";
    /// Augmentations applied.
    pub const AUGMENTATIONS: &str = "matching.augmentations";
    /// Blossoms contracted by the augmenting-path searches.
    pub const CONTRACTIONS: &str = "matching.contractions";
    /// CONGEST rounds simulated.
    pub const ROUNDS: &str = "distsim.rounds";
    /// Messages sent in the simulation.
    pub const MESSAGES: &str = "distsim.messages";
    /// Total message bits sent.
    pub const MESSAGE_BITS: &str = "distsim.bits";
    /// Largest single message, in bits (a maximum, not a sum).
    pub const MAX_MESSAGE_BITS: &str = "distsim.max_message_bits";
    /// Host-side payload clones performed by the simulated transport.
    pub const MESSAGES_CLONED: &str = "distsim.messages_cloned";
    /// Dynamic-scheme updates applied.
    pub const UPDATES: &str = "dynamic.updates";
    /// Work units spent across dynamic updates.
    pub const UPDATE_WORK: &str = "dynamic.work";
    /// Worst single-update work (a maximum, not a sum).
    pub const MAX_UPDATE_WORK: &str = "dynamic.max_update_work";
    /// Dynamic serve solves whose snapshot was patched with the net
    /// changes of the updates since the last solve.
    pub const SNAPSHOT_PATCHED: &str = "snapshot.patched";
    /// Dynamic serve solves that reused the last solve's snapshot as it
    /// was: the updates since, if any, changed no edge on net.
    pub const SNAPSHOT_REUSED: &str = "snapshot.reused";
    /// Net edge changes (inserts plus deletes) patched into dynamic serve
    /// snapshots, summed over the patched solves.
    pub const SNAPSHOT_NET_EDITS: &str = "snapshot.net_edits";
    /// Edges consumed from a stream.
    pub const EDGES_SEEN: &str = "stream.edges_seen";
    /// Edges retained by a streaming matcher.
    pub const EDGES_RETAINED: &str = "stream.edges_retained";
    /// Messages lost to injected drops or crashed endpoints.
    pub const FAULTS_DROPPED: &str = "faults.dropped";
    /// Extra message deliveries from injected duplication (or ack-loss
    /// retransmits).
    pub const FAULTS_DUPLICATED: &str = "faults.duplicated";
    /// Message retransmissions performed by the ack/retry resilience layer.
    pub const FAULTS_RETRIES: &str = "faults.retries";
    /// Stream-scan restarts performed by the streaming build's retry
    /// policy (one per failed pass attempt that was retried).
    pub const IO_RETRIES: &str = "io.retries";
    /// Node-rounds spent crashed (summed over nodes and rounds).
    pub const FAULTS_CRASHED_ROUNDS: &str = "faults.crashed_rounds";
    /// Heap bytes requested from the global allocator during the run.
    /// Only populated when the process installs the `alloc-count`
    /// counting allocator; otherwise absent from metric files.
    pub const ALLOC_BYTES: &str = "alloc.bytes";
    /// Heap allocation calls during the run (same gating as
    /// [`ALLOC_BYTES`]).
    pub const ALLOC_COUNT: &str = "alloc.count";
    /// Span: pipeline stage 1, marking edges for the sparsifier.
    pub const STAGE_MARK: &str = "stage.mark";
    /// Span: pipeline stage 2, extracting the sparsifier CSR.
    pub const STAGE_EXTRACT: &str = "stage.extract";
    /// Span: pipeline stage 3, matching on the sparsifier.
    pub const STAGE_MATCH: &str = "stage.match";
    /// Span: the whole sparsify-and-match pipeline.
    pub const PIPELINE_TOTAL: &str = "pipeline.total";
}

/// Accumulated wall-clock time for one named span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// How many times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_nanos: u128,
}

/// Named monotonic counters, maxima, and span timers.
///
/// Counters only ever grow (use [`WorkMeter::record_max`] for
/// high-water-mark style values). `BTreeMap` keeps iteration — and thus
/// every snapshot — in stable lexicographic order.
#[derive(Clone, Debug, Default)]
pub struct WorkMeter {
    counters: BTreeMap<String, u64>,
    maxima: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStats>,
}

impl WorkMeter {
    /// A meter with no counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(slot) = self.counters.get_mut(name) {
            *slot = slot.saturating_add(delta);
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Add one to counter `name`.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Raise maximum `name` to at least `value`.
    pub fn record_max(&mut self, name: &str, value: u64) {
        let slot = self.maxima.entry(name.to_string()).or_insert(0);
        *slot = (*slot).max(value);
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of maximum `name` (zero if never touched).
    pub fn get_max(&self, name: &str) -> u64 {
        self.maxima.get(name).copied().unwrap_or(0)
    }

    /// Accumulated stats for span `name`.
    pub fn span_stats(&self, name: &str) -> SpanStats {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Iterate all counters in lexicographic name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Fold an externally measured duration into span `name`. Used by code
    /// that times with its own `Instant` (e.g. pipeline stages timed
    /// whether or not a meter is attached) and only reports when one is.
    pub fn add_span(&mut self, name: &str, count: u64, nanos: u128) {
        let span = self.spans.entry(name.to_string()).or_default();
        span.count += count;
        span.total_nanos += nanos;
    }

    /// Time `body`, folding the elapsed wall-clock time into span `name`.
    pub fn time<T>(&mut self, name: &str, body: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        let out = body(self);
        let elapsed = start.elapsed().as_nanos();
        let span = self.spans.entry(name.to_string()).or_default();
        span.count += 1;
        span.total_nanos += elapsed;
        out
    }

    /// Fold another meter into this one: counters add, maxima take the
    /// max, spans add.
    pub fn absorb(&mut self, other: &WorkMeter) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, v) in &other.maxima {
            self.record_max(k, *v);
        }
        for (k, s) in &other.spans {
            let span = self.spans.entry(k.clone()).or_default();
            span.count += s.count;
            span.total_nanos += s.total_nanos;
        }
    }

    /// Deterministic snapshot: counters and maxima only, no timings.
    /// For a fixed seed this is byte-stable across runs.
    pub fn snapshot_counters(&self) -> Json {
        let mut obj = Json::object();
        obj.set("counters", members(&self.counters, |&v| v.into()));
        obj.set("maxima", members(&self.maxima, |&v| v.into()));
        obj
    }

    /// Full snapshot: counters, maxima, and wall-clock span timings.
    /// Timings vary run to run, so this form is opt-in (the CLI gates it
    /// behind `SPARSIMATCH_METRICS_TIMINGS=1` to keep files byte-stable).
    pub fn snapshot_full(&self) -> Json {
        let mut obj = self.snapshot_counters();
        let spans = members(&self.spans, |s| {
            let mut span = Json::object();
            span.set("count", s.count);
            span.set("total_nanos", s.total_nanos as u64);
            span
        });
        obj.set("spans", spans);
        obj
    }
}

/// An object with one member per entry of `map`, in key order: the keys
/// are distinct, so it skips [`Json::set`]'s scan for an earlier member
/// of the same key, which would make a snapshot quadratic in its keys.
fn members<T>(map: &BTreeMap<String, T>, value: impl Fn(&T) -> Json) -> Json {
    Json::Object(map.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let mut m = WorkMeter::new();
        m.incr("a");
        m.add("a", 4);
        m.add("b", u64::MAX);
        m.add("b", 10);
        assert_eq!(m.get("a"), 5);
        assert_eq!(m.get("b"), u64::MAX);
        assert_eq!(m.get("untouched"), 0);
    }

    #[test]
    fn maxima_keep_high_water_mark() {
        let mut m = WorkMeter::new();
        m.record_max("w", 7);
        m.record_max("w", 3);
        assert_eq!(m.get_max("w"), 7);
    }

    #[test]
    fn spans_accumulate() {
        let mut m = WorkMeter::new();
        let out = m.time("stage", |m| {
            m.incr("inner");
            21 * 2
        });
        assert_eq!(out, 42);
        m.time("stage", |_| {});
        let s = m.span_stats("stage");
        assert_eq!(s.count, 2);
        assert_eq!(m.get("inner"), 1);
    }

    #[test]
    fn add_span_folds_external_timings() {
        let mut m = WorkMeter::new();
        m.add_span(keys::STAGE_MARK, 1, 500);
        m.add_span(keys::STAGE_MARK, 2, 250);
        let s = m.span_stats(keys::STAGE_MARK);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_nanos, 750);
        // Folds with `time` spans under the same name.
        m.time(keys::STAGE_MARK, |_| {});
        assert_eq!(m.span_stats(keys::STAGE_MARK).count, 4);
    }

    #[test]
    fn absorb_merges() {
        let mut a = WorkMeter::new();
        a.add("x", 1);
        a.record_max("m", 5);
        let mut b = WorkMeter::new();
        b.add("x", 2);
        b.add("y", 3);
        b.record_max("m", 4);
        b.time("t", |_| {});
        a.absorb(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
        assert_eq!(a.get_max("m"), 5);
        assert_eq!(a.span_stats("t").count, 1);
    }

    #[test]
    fn snapshots_equal_the_set_built_objects() {
        let mut m = WorkMeter::new();
        for i in 0..40u64 {
            m.add(&format!("counter.{:02}", (i * 17) % 40), i);
            m.record_max(&format!("max.{}", i % 7), i);
            m.add_span(&format!("span.{}", i % 5), 1, u128::from(i) * 1_000);
        }
        let by_set = |map: Vec<(String, Json)>| {
            let mut obj = Json::object();
            for (k, v) in map {
                obj.set(&k, v);
            }
            obj
        };
        let mut want = Json::object();
        want.set(
            "counters",
            by_set(
                m.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), v.into()))
                    .collect(),
            ),
        );
        want.set(
            "maxima",
            by_set(
                m.maxima
                    .iter()
                    .map(|(k, &v)| (k.clone(), v.into()))
                    .collect(),
            ),
        );
        assert_eq!(m.snapshot_counters().to_pretty(), want.to_pretty());
        let spans = m.spans.iter().map(|(k, s)| {
            let mut span = Json::object();
            span.set("count", s.count);
            span.set("total_nanos", s.total_nanos as u64);
            (k.clone(), span)
        });
        want.set("spans", by_set(spans.collect()));
        assert_eq!(m.snapshot_full().to_pretty(), want.to_pretty());
        assert_eq!(m.snapshot_full(), want);
    }

    #[test]
    fn counter_snapshot_is_deterministic_and_ordered() {
        let mut m = WorkMeter::new();
        m.add("zeta", 1);
        m.add("alpha", 2);
        m.record_max("peak", 9);
        let text = m.snapshot_counters().to_pretty();
        assert_eq!(text, m.clone().snapshot_counters().to_pretty());
        // BTreeMap order: alpha before zeta regardless of insertion order.
        assert!(text.find("alpha").unwrap() < text.find("zeta").unwrap());
        assert!(!text.contains("spans"));
        assert!(m.snapshot_full().to_pretty().contains("spans"));
    }
}

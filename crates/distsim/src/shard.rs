//! The simulated network's one transport, [`Network`]: rounds executed on
//! `t` `std::thread::scope` workers, with the same result at every `t`.
//!
//! A round runs on the flat buffers of [`crate::network`]: the senders'
//! [`Outbox`] in, CSR [`Inboxes`] out. Every inbox lists its messages in
//! (sender, outbox position) order, and three loops produce that order:
//!
//! 1. **Perfect unicast.** Each message is resolved to its destination
//!    and in-port, then one stable counting sort on destination moves the
//!    outbox into the inboxes. The outbox is already in (sender, outbox
//!    position) order, and a stable sort keeps that order among the
//!    messages of one destination.
//! 2. **Perfect broadcast.** Node `v` sends on every port, so the inboxes
//!    have the graph's own CSR shape, and the message on half-edge `s`
//!    belongs at the reverse half-edge of `s`. The messages are laid out
//!    in half-edge order, and one pass over the edges swaps each edge's
//!    two messages into place. A receiver's ports ascend by neighbor id,
//!    so port order is sender order, the order of the unicast loop.
//! 3. **Faulty.** Each sender shard runs the resilience layer's attempts
//!    over its messages and logs every delivery as a `u32` message id,
//!    attempt by attempt and in sender order within an attempt, a
//!    duplicate right after its original. One out-of-place counting sort
//!    on destination reads the logs attempt by attempt, and shard by shard
//!    within one, so each inbox lists the first attempt's deliveries in
//!    sender order, then the second's; the plan reorders each inbox's ids,
//!    and each delivery then clones its payload into the inboxes.
//!
//! The vertex set is partitioned into contiguous CSR ranges balanced by
//! half-edge count, one per worker. Resolving unicast messages, the
//! faulty loop's attempts and acks, and inbox reorders run per shard; the
//! sorts, the broadcast pass and the faulty loop's payload clones run on
//! the calling thread. Per-worker [`Metrics`] and [`FaultStats`] are
//! merged in ascending shard order; every merged field is a sum or a max,
//! so the totals do not depend on the shard count. One worker is the
//! default, and a lone job runs inline, so a one-worker network never
//! enters `thread::scope`.
//!
//! A round takes the faulty loop unless the plan cannot fault and
//! resilience is off; one loop serves every such plan, crashes or none.
//! Faults parallelize because every [`FaultPlan`] decision is a pure hash
//! of `(seed, kind, round, slot-or-node)`, and every attempt's round is
//! known in advance: a sender shard runs all of a logical round's attempts
//! in one job, with its unacked messages in an ascending retry list, and
//! the round lasts as many attempts as the longest-running shard's. The
//! per-round part of each hash is taken once per attempt. Inbox
//! reordering is keyed by `(logical round, destination node)`.

use crate::faults::{crash_aware_ball, FaultPlan, FaultStats, ResilienceParams};
use crate::metrics::Metrics;
use crate::network::{fan_out, Inboxes, Incoming, Net, Outbox, Outgoing};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::VertexId;

/// Run one job per shard on scoped worker threads and collect their
/// results in shard order. A single job runs inline (no thread). Worker
/// panics are re-raised with their original payload, so a protocol bug
/// (for example an out-of-range port) reports the same message it would
/// on one worker.
pub(crate) fn run_jobs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if jobs.len() <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs.into_iter().map(|job| s.spawn(job)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Partition `0..n` (where `offsets` has `n + 1` entries, CSR-style) into
/// `shards` contiguous vertex ranges of roughly equal half-edge load.
/// Returns `shards + 1` nondecreasing boundaries starting at 0 and ending
/// at `n`; a shard may be empty when vertices are fewer than shards or a
/// hub vertex swallows several targets.
pub(crate) fn balanced_bounds(offsets: &[usize], shards: usize) -> Vec<usize> {
    assert!(shards >= 1, "shard count must be at least 1");
    let n = offsets.len() - 1;
    let total = offsets[n];
    let mut bounds = Vec::with_capacity(shards + 1);
    bounds.push(0usize);
    for k in 1..shards {
        let target = total * k / shards;
        let v = offsets.partition_point(|&o| o < target).min(n);
        let prev = *bounds.last().unwrap();
        bounds.push(v.max(prev));
    }
    bounds.push(n);
    bounds
}

/// CSR-style slot offsets of a graph (`n + 1` entries): the global
/// half-edge slot at which each vertex's ports start.
pub(crate) fn csr_offsets(g: &CsrGraph) -> Vec<usize> {
    let n = g.num_vertices();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    for v in 0..n {
        offsets.push(offsets[v] + g.degree(VertexId::new(v)));
    }
    offsets
}

/// Split a slice at the nondecreasing cut points `cuts` (`cuts[0] == 0`)
/// into `cuts.len() - 1` consecutive mutable sub-slices.
fn split_ranges<'a, T>(items: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(cuts.len() - 1);
    let mut rest = items;
    for k in 0..cuts.len() - 1 {
        let (head, tail) = rest.split_at_mut(cuts[k + 1] - cuts[k]);
        out.push(head);
        rest = tail;
    }
    out
}

/// Where each shard's senders start in a sender-ascending message list:
/// `bounds.len()` cut points for [`split_ranges`].
fn sender_cuts<T>(msgs: &[T], sender: impl Fn(&T) -> usize, bounds: &[usize]) -> Vec<usize> {
    bounds
        .iter()
        .map(|&b| msgs.partition_point(|m| sender(m) < b))
        .collect()
}

/// Crashed node-rounds charged for one physical round.
fn crashed_count(plan: &FaultPlan, n: u32, round: u64) -> u64 {
    if !plan.has_crashes() {
        return 0;
    }
    (0..n).filter(|&v| plan.is_down(v, round)).count() as u64
}

/// The first half of a stable counting sort by destination: count each
/// destination `d < n` of `dests` into `offsets[d + 1]`, then turn the
/// counts into group starts shifted by one slot, so that `offsets[d + 1]`
/// is where group `d` begins. Handing out positions from `offsets[d + 1]`
/// in input order then leaves `offsets[d]` at group `d`'s start. Returns
/// the item count.
fn group_starts(offsets: &mut Vec<usize>, n: usize, dests: impl Iterator<Item = u32>) -> usize {
    offsets.clear();
    offsets.resize(n + 1, 0);
    for d in dests {
        offsets[d as usize + 1] += 1;
    }
    let mut start = 0;
    for slot in &mut offsets[1..] {
        let count = *slot;
        *slot = start;
        start += count;
    }
    start
}

/// Stable counting sort of `items` by destination vertex, in place:
/// `dest[i] < n` is the destination of `items[i]`. Leaves in `offsets`
/// the `n + 1` CSR offsets of the sorted groups; `pos` is working space.
fn sort_by_dest<T>(
    items: &mut [T],
    dest: &[u32],
    pos: &mut Vec<u32>,
    offsets: &mut Vec<usize>,
    n: usize,
) {
    assert!(
        u32::try_from(items.len()).is_ok(),
        "a round carries at most u32::MAX deliveries"
    );
    group_starts(offsets, n, dest.iter().copied());
    // Hand out positions in input order (this is what makes the sort
    // stable). Each group's cursor ends at the next group's start, so
    // afterwards `offsets[v]` is where group `v` begins.
    pos.clear();
    pos.extend(dest.iter().map(|&d| {
        let cursor = &mut offsets[d as usize + 1];
        let p = *cursor as u32;
        *cursor += 1;
        p
    }));
    // Apply the permutation by following its cycles: every swap puts one
    // item in its final place.
    for i in 0..items.len() {
        loop {
            let j = pos[i] as usize;
            if j == i {
                break;
            }
            items.swap(i, j);
            pos.swap(i, j);
        }
    }
}

/// Build the table of back ports: for the half-edge at global slot `s`
/// (vertex `v`, port `i`), the port of the same edge at the other
/// endpoint. One pass over the half-edges: visiting `v` in ascending
/// order meets each lower neighbor `u`'s higher neighbors in ascending
/// order, which is the order of `u`'s remaining ports, so a per-vertex
/// cursor finds every back port.
fn peer_ports(graph: &CsrGraph, offsets: &[usize]) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut peer_port = vec![0u32; offsets[n]];
    // `cursor[u]`: the port of `u`'s next neighbor above `u`.
    let mut cursor = vec![0u32; n];
    for v in 0..n {
        let vid = VertexId::new(v);
        let mut below = 0u32;
        let mut prev = None;
        for (i, u) in graph.neighbors(vid).enumerate() {
            assert!(prev < Some(u), "adjacency windows must ascend");
            prev = Some(u);
            if u.0 < vid.0 {
                let back = cursor[u.index()];
                assert_eq!(graph.neighbor(u, back as usize), vid, "back port");
                peer_port[offsets[v] + i] = back;
                peer_port[offsets[u.index()] + back as usize] = i as u32;
                cursor[u.index()] += 1;
                below += 1;
            }
        }
        cursor[v] = below;
    }
    peer_port
}

/// Marks a retry-list entry whose message reached its receiver in an
/// earlier attempt, so that delivering it again counts as a duplicate.
/// Message ids stay below it.
const DELIVERED: u32 = 1 << 31;

/// Message `i`'s way through the network in a faulty round: it leaves
/// `sender` on half-edge `slot` for `dest`, and its ack returns on the
/// half-edge `back`.
#[derive(Clone, Copy)]
struct Hop {
    sender: u32,
    dest: u32,
    slot: u32,
    back: u32,
    bits: u64,
}

/// One sender shard's buffers in the faulty loop, kept across rounds.
#[derive(Debug, Default)]
struct ShardLog {
    /// The shard's unacked messages, ascending, some marked [`DELIVERED`].
    retry: Vec<u32>,
    /// `(message, destination)` of the shard's deliveries, attempt after
    /// attempt, a duplicate right after its original. Entries past the
    /// last of `ends` are stale: the buffer keeps its longest length, so
    /// the loop can write every entry it might need before it knows
    /// whether the message arrives.
    sent: Vec<(u32, u32)>,
    /// Where each attempt's deliveries end in `sent`.
    ends: Vec<usize>,
}

impl ShardLog {
    /// The deliveries of attempt `a`, empty if the shard ran fewer.
    fn attempt(&self, a: usize) -> &[(u32, u32)] {
        let Some(&end) = self.ends.get(a) else {
            return &[];
        };
        let start = if a == 0 { 0 } else { self.ends[a - 1] };
        &self.sent[start..end]
    }

    /// Every delivery of the round.
    fn deliveries(&self) -> &[(u32, u32)] {
        &self.sent[..self.ends.last().copied().unwrap_or(0)]
    }
}

/// What the shards' faulty loops share in one logical round.
#[derive(Clone, Copy)]
struct Attempts<'a> {
    plan: &'a FaultPlan,
    resilience: ResilienceParams,
    /// The physical round before the first send.
    base: u64,
}

impl Attempts<'_> {
    /// Run one sender shard's send attempts, and the ack round after each
    /// when resilience is on, over the messages `ids`, recording the
    /// deliveries in `log`. `hop(i, v)` is message `i`'s hop; the loop
    /// asks for ascending `i` and keeps `v`, a sender cursor that starts
    /// at `first_sender`. Returns the shard's counts and the number of
    /// attempts it ran.
    ///
    /// Every decision is a pure plan query of a known round, so a shard
    /// needs no other shard's state: the round's attempts are as many as
    /// the longest-running shard's, and a shard that has every message
    /// acked idles through the rest. The drop, duplicate and ack outcomes
    /// are counted and written without branching on them.
    fn run(
        self,
        hop: impl Fn(usize, &mut usize) -> Hop,
        ids: std::ops::Range<usize>,
        first_sender: usize,
        log: &mut ShardLog,
    ) -> (Metrics, FaultStats, u64) {
        let Attempts {
            plan,
            resilience,
            base,
        } = self;
        let crashes = plan.has_crashes();
        let retain = resilience.enabled();
        // Counted in u64: `1 + max_retries` does not fit a u32 at u32::MAX.
        let budget = 1 + u64::from(resilience.max_retries);
        let (mut m, mut f) = (Metrics::new(), FaultStats::default());
        let ShardLog { retry, sent, ends } = log;
        retry.clear();
        retry.extend(ids.start as u32..ids.end as u32);
        ends.clear();
        let (mut delivered, mut dups, mut acks) = (0usize, 0u64, 0u64);
        let mut attempt = 0;
        while attempt < budget {
            if attempt > 0 {
                if retry.is_empty() {
                    break;
                }
                f.retries += retry.len() as u64;
            }
            let round = base + 1 + 2 * attempt;
            let ack_round = round + 1;
            let (drop, dup_key) = (plan.drop_key(round), plan.duplicate_key(round));
            let ack_drop = plan.drop_key(ack_round);
            if sent.len() < delivered + 2 * retry.len() {
                sent.resize(delivered + 2 * retry.len(), (0, 0));
            }
            let mut v = first_sender;
            let mut kept = 0;
            for r in 0..retry.len() {
                let entry = retry[r];
                let i = entry & !DELIVERED;
                let hop = hop(i as usize, &mut v);
                if crashes && plan.is_down(hop.sender, round) {
                    // A crashed node sends nothing; the message is lost
                    // unless a later retry finds the node back up.
                    f.dropped += 1;
                    retry[kept] = entry;
                    kept += 1;
                    continue;
                }
                m.messages += 1;
                m.bits += hop.bits;
                m.max_message_bits = m.max_message_bits.max(hop.bits);
                let lost =
                    (crashes && plan.is_down(hop.dest, round)) | drop.hits(u64::from(hop.slot));
                let dup = !lost & dup_key.hits(u64::from(hop.slot));
                sent[delivered] = (i, hop.dest);
                sent[delivered + 1] = (i, hop.dest);
                delivered += usize::from(!lost) + usize::from(dup);
                f.dropped += u64::from(lost);
                // An ack-loss retransmit: the receiver sees it twice.
                let again = !lost & (entry & DELIVERED != 0);
                f.duplicated += u64::from(again) + u64::from(dup);
                dups += u64::from(dup);
                if retain {
                    // Ack round: each delivery is acked along the reverse
                    // edge, over the same faulty links; a down acker
                    // sends no ack at all.
                    let ack_sent = !lost & !(crashes && plan.is_down(hop.dest, ack_round));
                    let ack_lost = (crashes && plan.is_down(hop.sender, ack_round))
                        | ack_drop.hits(u64::from(hop.back));
                    acks += u64::from(ack_sent);
                    f.dropped += u64::from(ack_sent & ack_lost);
                    retry[kept] = entry | (DELIVERED * u32::from(!lost));
                    kept += usize::from(!(ack_sent & !ack_lost));
                }
            }
            retry.truncate(kept);
            ends.push(delivered);
            attempt += 1;
        }
        m.messages += acks;
        m.bits += acks * resilience.ack_bits;
        if acks > 0 {
            m.max_message_bits = m.max_message_bits.max(resilience.ack_bits);
        }
        // The clones of a sender that hands out its payload per delivery:
        // one for each while it retains the payload for retransmits, else
        // one per duplicate, the only delivery that cannot take the
        // original.
        m.messages_cloned = if retain { delivered as u64 } else { dups };
        (m, f, attempt)
    }
}

/// The simulated network over a fixed topology, and the one [`Net`]
/// transport. [`Network::new`] delivers perfectly on one worker;
/// [`Network::with_resilience`] adds a fault plan and the ack/retry
/// layer, and [`Network::with_threads`] sets the worker count. Outputs,
/// [`Metrics`] and [`FaultStats`] are the same at every worker count.
///
/// ```
/// use sparsimatch_distsim::network::{Inboxes, Outbox};
/// use sparsimatch_distsim::{Net, Network};
/// use sparsimatch_graph::generators::path;
///
/// let g = path(3); // 0 - 1 - 2
/// let mut net = Network::new(&g);
/// // Vertex 0 sends one 8-bit message on its only port.
/// let mut outbox = Outbox::new();
/// outbox.push(0, 0, 42u32, 8);
/// let mut inboxes = Inboxes::new();
/// net.route(&mut outbox, &mut inboxes);
/// assert_eq!(inboxes.of(1), &[(0, 42)]);
/// assert!(outbox.is_empty());
/// assert_eq!(net.metrics().rounds, 1);
/// assert_eq!(net.metrics().bits, 8);
/// ```
pub struct Network<'g> {
    graph: &'g CsrGraph,
    /// Global half-edge slot offset of each vertex (`n + 1` entries).
    offsets: Vec<usize>,
    /// For the half-edge at global slot `s` (vertex `u`, port `i`),
    /// `peer_port[s]` is the port index of the same edge at the other
    /// endpoint.
    peer_port: Vec<u32>,
    plan: FaultPlan,
    resilience: ResilienceParams,
    /// `threads + 1` shard boundaries (see [`Network::shard_bounds`]).
    bounds: Vec<usize>,
    metrics: Metrics,
    faults: FaultStats,
    /// Destination vertex of each message of the current round.
    dest: Vec<u32>,
    /// Working space of [`sort_by_dest`]; in a faulty round, the ids of
    /// the delivered messages sorted by destination.
    pos: Vec<u32>,
    /// A faulty unicast round's half-edge slot and back slot per message.
    slot: Vec<u32>,
    back: Vec<u32>,
    /// A faulty broadcast round's bits per sender.
    bits: Vec<u64>,
    /// Each sender shard's faulty-loop buffers.
    logs: Vec<ShardLog>,
}

impl<'g> Network<'g> {
    /// Wrap a topology: perfect delivery, one worker.
    pub fn new(graph: &'g CsrGraph) -> Self {
        Network::with_resilience(graph, FaultPlan::none(), ResilienceParams::off())
    }

    /// Wrap a topology with a fault plan and a resilience configuration,
    /// on one worker.
    pub fn with_resilience(
        graph: &'g CsrGraph,
        plan: FaultPlan,
        resilience: ResilienceParams,
    ) -> Self {
        let offsets = csr_offsets(graph);
        let peer_port = peer_ports(graph, &offsets);
        let bounds = balanced_bounds(&offsets, 1);
        Network {
            graph,
            offsets,
            peer_port,
            plan,
            resilience,
            bounds,
            metrics: Metrics::new(),
            faults: FaultStats::default(),
            dest: Vec::new(),
            pos: Vec::new(),
            slot: Vec::new(),
            back: Vec::new(),
            bits: Vec::new(),
            logs: Vec::new(),
        }
    }

    /// Run every round on `threads` workers.
    ///
    /// ```
    /// use sparsimatch_distsim::network::Inboxes;
    /// use sparsimatch_distsim::{Net, Network};
    /// use sparsimatch_graph::generators::cycle;
    ///
    /// let g = cycle(64);
    /// let mut one = Network::new(&g);
    /// let mut four = Network::new(&g).with_threads(4);
    /// let (mut a, mut b) = (Inboxes::new(), Inboxes::new());
    /// one.broadcast_into((0..64u32).map(|v| (v, 8)), &mut a);
    /// four.broadcast_into((0..64u32).map(|v| (v, 8)), &mut b);
    /// assert_eq!(a, b);
    /// assert_eq!(one.metrics(), four.metrics());
    /// ```
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be at least 1");
        self.bounds = balanced_bounds(&self.offsets, threads);
        self
    }

    /// The underlying topology. The returned reference borrows the graph
    /// itself (lifetime `'g`), not the network, so callers can hold it
    /// across accounted rounds.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// Communication metrics accumulated so far (inherent mirror of the
    /// trait method, so concrete holders need no trait import).
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// The neighbor reached through `(v, port)`.
    pub fn peer(&self, v: VertexId, port: usize) -> VertexId {
        self.graph.neighbor(v, port)
    }

    /// The port index of the edge `(v, port)` at the *other* endpoint:
    /// a message sent on `(v, port)` arrives tagged with this in-port.
    ///
    /// # Panics
    /// Panics if `port >= deg(v)`.
    pub fn in_port(&self, v: VertexId, port: usize) -> usize {
        assert!(port < self.graph.degree(v), "port out of range");
        self.peer_port[self.offsets[v.index()] + port] as usize
    }

    /// The shard boundaries: `threads + 1` nondecreasing vertex indices;
    /// worker `k` owns vertices `bounds[k]..bounds[k + 1]`.
    pub fn shard_bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// The fault plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The resilience configuration in force.
    pub fn resilience(&self) -> ResilienceParams {
        self.resilience
    }

    /// Fault counters accumulated so far (all zero without faults).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// Whether rounds take the perfect loops: the plan cannot fault and
    /// resilience is off.
    fn perfect(&self) -> bool {
        self.plan.is_zero_fault() && !self.resilience.enabled()
    }

    /// Perfect unicast: resolve each message's destination and in-port
    /// per sender shard, then sort the outbox into the inboxes.
    fn route_perfect<M: Send>(&mut self, outbox: &mut Outbox<M>, inboxes: &mut Inboxes<M>) {
        let n = self.graph.num_vertices();
        self.metrics.rounds += 1;
        let graph = self.graph;
        let (offsets, peer_port) = (&self.offsets[..], &self.peer_port[..]);
        let (msgs, meta) = outbox.columns();
        assert!(
            meta.last().is_none_or(|&(v, _)| (v as usize) < n),
            "outbox sender out of range"
        );
        let cuts = sender_cuts(meta, |&(v, _)| v as usize, &self.bounds);
        self.dest.clear();
        self.dest.resize(msgs.len(), 0);
        let shards = split_ranges(msgs, &cuts)
            .into_iter()
            .zip(split_ranges(&mut self.dest, &cuts))
            .enumerate()
            .map(|(k, (msgs, dest))| {
                let meta = &meta[cuts[k]..cuts[k + 1]];
                move || {
                    let mut m = Metrics::new();
                    for ((msg, d), &(v, bits)) in msgs.iter_mut().zip(dest).zip(meta) {
                        let vid = VertexId(v);
                        let port = msg.0;
                        assert!(port < graph.degree(vid), "port out of range");
                        *d = graph.neighbor(vid, port).0;
                        msg.0 = peer_port[offsets[v as usize] + port] as usize;
                        m.messages += 1;
                        m.bits += bits;
                        m.max_message_bits = m.max_message_bits.max(bits);
                    }
                    m
                }
            })
            .collect();
        for m in run_jobs(shards) {
            self.metrics.absorb(m);
        }
        let (inbox_offsets, items) = inboxes.columns();
        sort_by_dest(msgs, &self.dest, &mut self.pos, inbox_offsets, n);
        // The sorted outbox buffer becomes the inboxes' message array; the
        // previous round's array becomes the (emptied) outbox buffer.
        std::mem::swap(msgs, items);
        outbox.clear();
    }

    /// Perfect broadcast: fill the message array in half-edge order, then
    /// move every message to its reverse half-edge, its slot in the
    /// receiver's CSR-shaped inbox. Reversal is an involution, so one swap
    /// per edge, made from its lower endpoint, places both its messages.
    fn broadcast_perfect<M: Clone>(
        &mut self,
        payloads: impl IntoIterator<Item = (M, u64)>,
        inboxes: &mut Inboxes<M>,
    ) {
        let n = self.graph.num_vertices();
        self.metrics.rounds += 1;
        let graph = self.graph;
        let (offsets, peer_port) = (&self.offsets[..], &self.peer_port[..]);
        let (inbox_offsets, items) = inboxes.columns();
        items.clear();
        items.reserve(offsets[n]);
        let mut m = Metrics::new();
        m.messages_cloned = fan_out(graph, payloads, |v, port, payload, bits| {
            items.push((peer_port[offsets[v] + port] as usize, payload));
            m.messages += 1;
            m.bits += bits;
            m.max_message_bits = m.max_message_bits.max(bits);
        });
        for v in 0..n {
            for (i, u) in graph.neighbors(VertexId::new(v)).enumerate() {
                if u.index() > v {
                    let s = offsets[v] + i;
                    items.swap(s, offsets[u.index()] + peer_port[s] as usize);
                }
            }
        }
        inbox_offsets.clear();
        inbox_offsets.extend_from_slice(offsets);
        self.metrics.absorb(m);
    }

    /// Keep one log per shard for a faulty round of `messages` messages.
    ///
    /// # Panics
    /// Panics unless the message ids and half-edge slots fit below
    /// [`DELIVERED`].
    fn ready_logs(&mut self, messages: usize) {
        let half_edges = self.offsets[self.graph.num_vertices()];
        assert!(
            messages.max(half_edges) < DELIVERED as usize,
            "a faulty round carries fewer than 2^31 messages over fewer than 2^31 half-edges"
        );
        self.logs
            .resize_with(self.bounds.len() - 1, ShardLog::default);
    }

    /// Faulty unicast: each sender shard resolves its messages'
    /// destination, half-edge slot, in-port and back slot once, then runs
    /// its attempts ([`Attempts::run`]). The payloads stay in the outbox
    /// until [`Network::settle`] has sorted the deliveries, and each
    /// delivery clones its message out of it.
    fn route_faulty<M: Clone + Send>(&mut self, outbox: &mut Outbox<M>, inboxes: &mut Inboxes<M>) {
        let n = self.graph.num_vertices();
        let (msgs, meta) = outbox.columns();
        assert!(
            meta.last().is_none_or(|&(v, _)| (v as usize) < n),
            "outbox sender out of range"
        );
        self.ready_logs(msgs.len());
        let cuts = sender_cuts(meta, |&(v, _)| v as usize, &self.bounds);
        for column in [&mut self.dest, &mut self.slot, &mut self.back] {
            column.resize(msgs.len(), 0);
        }
        let attempts = Attempts {
            plan: &self.plan,
            resilience: self.resilience,
            base: self.metrics.rounds,
        };
        let (graph, offsets, peer_port) = (self.graph, &self.offsets[..], &self.peer_port[..]);
        let shards = split_ranges(msgs, &cuts)
            .into_iter()
            .zip(split_ranges(&mut self.dest, &cuts))
            .zip(split_ranges(&mut self.slot, &cuts))
            .zip(split_ranges(&mut self.back, &cuts))
            .zip(&mut self.logs)
            .enumerate()
            .map(|(k, ((((msgs, dest), slot), back), log))| {
                let ids = cuts[k]..cuts[k + 1];
                let meta = &meta[ids.clone()];
                move || {
                    for (j, (msg, &(v, _))) in msgs.iter_mut().zip(meta).enumerate() {
                        let (sender, port) = (VertexId(v), msg.0);
                        assert!(port < graph.degree(sender), "port out of range");
                        let d = graph.neighbor(sender, port).0;
                        let s = offsets[v as usize] + port;
                        msg.0 = peer_port[s] as usize;
                        dest[j] = d;
                        slot[j] = s as u32;
                        back[j] = (offsets[d as usize] + msg.0) as u32;
                    }
                    let first = ids.start;
                    let hop = |i: usize, _: &mut usize| {
                        let k = i - first;
                        let (sender, bits) = meta[k];
                        Hop {
                            sender,
                            dest: dest[k],
                            slot: slot[k],
                            back: back[k],
                            bits,
                        }
                    };
                    attempts.run(hop, ids, 0, log)
                }
            })
            .collect();
        let shards = run_jobs(shards);
        let (inbox_offsets, items) = inboxes.columns();
        self.settle(shards, inbox_offsets);
        items.clear();
        items.extend(self.pos.iter().map(|&i| msgs[i as usize].clone()));
        outbox.clear();
    }

    /// Faulty broadcast: message `i` is half-edge `i`, and each node keeps
    /// its one payload, which every delivery of it clones once
    /// [`Network::settle`] has sorted them.
    fn broadcast_faulty<M: Clone + Send>(
        &mut self,
        payloads: impl IntoIterator<Item = (M, u64)>,
        inboxes: &mut Inboxes<M>,
    ) {
        let n = self.graph.num_vertices();
        let mut by_node = Vec::with_capacity(n);
        self.bits.clear();
        for (payload, bits) in payloads {
            assert!(by_node.len() < n, "one broadcast payload per node");
            by_node.push(payload);
            self.bits.push(bits);
        }
        assert_eq!(by_node.len(), n, "one broadcast payload per node");
        // The fan-out's clones, as `fan_out` counts them: `deg(v) - 1` for
        // every node with a port.
        self.metrics.messages_cloned += (self.offsets[n] - self.graph.num_non_isolated()) as u64;
        self.ready_logs(self.offsets[n]);
        let attempts = Attempts {
            plan: &self.plan,
            resilience: self.resilience,
            base: self.metrics.rounds,
        };
        let (graph, bounds, offsets) = (self.graph, &self.bounds[..], &self.offsets[..]);
        let (peer_port, bits) = (&self.peer_port[..], &self.bits[..]);
        // Message `i` is half-edge `i`: the graph and the back ports hold
        // everything but its sender's bits.
        let hop = move |i: usize, v: &mut usize| {
            while offsets[*v + 1] <= i {
                *v += 1;
            }
            let dest = graph.neighbor(VertexId::new(*v), i - offsets[*v]).0;
            Hop {
                sender: *v as u32,
                dest,
                slot: i as u32,
                back: (offsets[dest as usize] + peer_port[i] as usize) as u32,
                bits: bits[*v],
            }
        };
        let shards = self
            .logs
            .iter_mut()
            .enumerate()
            .map(|(k, log)| {
                let ids = offsets[bounds[k]]..offsets[bounds[k + 1]];
                move || attempts.run(hop, ids, bounds[k], log)
            })
            .collect();
        let shards = run_jobs(shards);
        let (inbox_offsets, items) = inboxes.columns();
        self.settle(shards, inbox_offsets);
        items.clear();
        items.reserve(self.pos.len());
        for v in 0..n {
            for &i in &self.pos[inbox_offsets[v]..inbox_offsets[v + 1]] {
                // The receiver's in-port leads back to the sender.
                let in_port = self.peer_port[i as usize] as usize;
                let sender = self.graph.neighbor(VertexId::new(v), in_port);
                items.push((in_port, by_node[sender.index()].clone()));
            }
        }
    }

    /// A faulty round's tail: charge the rounds of the longest-running
    /// shard and every shard's counts, counting-sort the deliveries'
    /// message ids by destination into `pos` (attempt by attempt, and in
    /// shard order within an attempt, so in sender order), leaving the
    /// groups' offsets in `inbox_offsets`, and reorder each inbox per
    /// destination shard, keyed by the logical round.
    fn settle(&mut self, shards: Vec<(Metrics, FaultStats, u64)>, inbox_offsets: &mut Vec<usize>) {
        let n = self.graph.num_vertices();
        let logical_round = self.metrics.rounds + 1;
        let mut attempts = 0;
        for (m, f, a) in shards {
            self.metrics.absorb(m);
            self.faults.absorb(f);
            attempts = attempts.max(a);
        }
        let rounds_per_attempt = if self.resilience.enabled() { 2 } else { 1 };
        for _ in 0..rounds_per_attempt * attempts {
            self.metrics.rounds += 1;
            self.faults.crashed_rounds += crashed_count(&self.plan, n as u32, self.metrics.rounds);
        }
        let deliveries = self.logs.iter().flat_map(|log| log.deliveries());
        let total = group_starts(inbox_offsets, n, deliveries.map(|&(_, d)| d));
        self.pos.resize(total, 0);
        for a in 0..attempts as usize {
            for log in &self.logs {
                for &(i, d) in log.attempt(a) {
                    let cursor = &mut inbox_offsets[d as usize + 1];
                    self.pos[*cursor] = i;
                    *cursor += 1;
                }
            }
        }
        let key = self.plan.reorder_key(logical_round);
        let inbox_offsets = &inbox_offsets[..];
        let cuts: Vec<usize> = self.bounds.iter().map(|&b| inbox_offsets[b]).collect();
        run_jobs(
            split_ranges(&mut self.pos, &cuts)
                .into_iter()
                .enumerate()
                .map(|(k, ids)| {
                    let vertices = self.bounds[k]..self.bounds[k + 1];
                    let base = cuts[k];
                    move || {
                        for v in vertices {
                            let inbox =
                                &mut ids[inbox_offsets[v] - base..inbox_offsets[v + 1] - base];
                            key.shuffle(v as u32, inbox);
                        }
                    }
                })
                .collect(),
        );
    }
}

impl<'g> Net<'g> for Network<'g> {
    fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Adapter onto [`Net::route`] for callers holding nested outboxes.
    fn exchange<M: Clone + Send>(
        &mut self,
        outboxes: Vec<Vec<Outgoing<M>>>,
    ) -> Vec<Vec<Incoming<M>>> {
        assert_eq!(outboxes.len(), self.graph.num_vertices());
        let mut outbox = Outbox::new();
        for (v, out) in outboxes.into_iter().enumerate() {
            for (port, payload, bits) in out {
                outbox.push(v, port, payload, bits);
            }
        }
        let mut inboxes = Inboxes::new();
        self.route(&mut outbox, &mut inboxes);
        inboxes.into_vecs()
    }

    fn route<M: Clone + Send>(&mut self, outbox: &mut Outbox<M>, inboxes: &mut Inboxes<M>) {
        if self.perfect() {
            self.route_perfect(outbox, inboxes);
        } else {
            self.route_faulty(outbox, inboxes);
        }
    }

    fn broadcast_into<M: Clone + Send>(
        &mut self,
        payloads: impl IntoIterator<Item = (M, u64)>,
        inboxes: &mut Inboxes<M>,
    ) {
        if self.perfect() {
            self.broadcast_perfect(payloads, inboxes);
        } else {
            self.broadcast_faulty(payloads, inboxes);
        }
    }

    fn charge_gather(&mut self, radius: usize, bits_per_message: u64) {
        // Gathers are bulk transfers read off the master graph; the fault
        // model reflects crashes by shrinking the balls (see `ball`), not
        // by corrupting their content.
        let m2 = 2 * self.graph.num_edges() as u64;
        let n = self.graph.num_vertices() as u32;
        for _ in 0..radius {
            self.metrics.rounds += 1;
            let round = self.metrics.rounds;
            self.faults.crashed_rounds += crashed_count(&self.plan, n, round);
        }
        self.metrics.messages += radius as u64 * m2;
        self.metrics.bits += radius as u64 * m2 * bits_per_message;
        self.metrics.max_message_bits = self.metrics.max_message_bits.max(bits_per_message);
    }

    fn record_clones(&mut self, count: u64) {
        self.metrics.messages_cloned += count;
    }

    fn ball(&self, v: VertexId, radius: usize) -> Vec<VertexId> {
        // Evaluated at the current round (the last charged gather round).
        crash_aware_ball(
            self.graph,
            &self.plan,
            self.metrics.rounds.max(1),
            v,
            radius,
        )
    }

    fn lossless(&self) -> bool {
        self.plan.is_zero_fault()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultRates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sparsimatch_graph::csr::from_edges;
    use sparsimatch_graph::generators::{gnp, path, star};

    fn all_broadcast(g: &CsrGraph) -> Vec<Vec<Outgoing<u32>>> {
        (0..g.num_vertices())
            .map(|v| {
                let vid = VertexId::new(v);
                (0..g.degree(vid)).map(|p| (p, v as u32, 8u64)).collect()
            })
            .collect()
    }

    #[test]
    fn bounds_are_monotone_and_cover() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gnp(60, 0.1, &mut rng);
        for t in [1usize, 2, 3, 7, 8, 59, 64, 200] {
            let net = Network::new(&g).with_threads(t);
            let b = net.shard_bounds();
            assert_eq!(b.len(), t + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), 60);
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
            for v in 0..60 {
                let k = b.partition_point(|&x| x <= v) - 1;
                assert!(b[k] <= v && v < b[k + 1]);
            }
        }
    }

    #[test]
    fn perfect_rounds_match_sequential_at_every_thread_count() {
        let mut rng = StdRng::seed_from_u64(77);
        let g = gnp(80, 0.08, &mut rng);
        for t in [2usize, 4, 8, 13] {
            let mut seq = Network::new(&g);
            let mut par = Network::new(&g).with_threads(t);
            for round in 0..3 {
                let out = all_broadcast(&g);
                let a = seq.exchange(out.clone());
                let b = par.exchange(out);
                assert_eq!(a, b, "t = {t}, round {round}");
                assert_eq!(seq.metrics(), par.metrics(), "t = {t}, round {round}");
            }
            seq.charge_gather(2, 16);
            par.charge_gather(2, 16);
            assert_eq!(seq.metrics(), par.metrics());
            assert_eq!(par.fault_stats(), FaultStats::default());
            assert!(par.lossless());
        }
    }

    #[test]
    fn faulty_rounds_match_sequential_transport_exactly() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = gnp(70, 0.09, &mut rng);
        let rates = FaultRates {
            drop: 0.25,
            duplicate: 0.2,
            reorder: 0.4,
            crash: 0.1,
        };
        for t in [2usize, 4, 8] {
            let plan = FaultPlan::new(42, rates)
                .with_crash_period(3)
                .with_horizon(50);
            let faulty = || Network::with_resilience(&g, plan.clone(), ResilienceParams::retry(2));
            let mut seq = faulty();
            let mut par = faulty().with_threads(t);
            for round in 0..4 {
                let out = all_broadcast(&g);
                let a = seq.exchange(out.clone());
                let b = par.exchange(out);
                assert_eq!(a, b, "t = {t}, logical round {round}");
                assert_eq!(seq.metrics(), par.metrics(), "t = {t}");
                assert_eq!(seq.fault_stats(), par.fault_stats(), "t = {t}");
            }
            seq.charge_gather(3, 8);
            par.charge_gather(3, 8);
            assert_eq!(seq.metrics(), par.metrics());
            assert_eq!(seq.fault_stats(), par.fault_stats());
        }
    }

    #[test]
    fn crashed_balls_match_sequential() {
        let g = path(6);
        let plan = FaultPlan::none().with_crashed_nodes([3]);
        let mut seq = Network::with_resilience(&g, plan.clone(), ResilienceParams::off());
        let mut par = Network::with_resilience(&g, plan, ResilienceParams::off()).with_threads(3);
        seq.charge_gather(5, 8);
        par.charge_gather(5, 8);
        for v in 0..6 {
            assert_eq!(seq.ball(VertexId::new(v), 5), par.ball(VertexId::new(v), 5));
        }
        assert!(!par.lossless());
    }

    #[test]
    fn broadcast_counts_clones_like_sequential() {
        let g = star(5);
        let mut seq = Network::new(&g);
        let mut par = Network::new(&g).with_threads(4);
        let (mut a, mut b) = (Inboxes::new(), Inboxes::new());
        seq.broadcast_into((0..5u32).map(|v| (v, 8)), &mut a);
        par.broadcast_into((0..5u32).map(|v| (v, 8)), &mut b);
        assert_eq!(a, b);
        assert_eq!(seq.metrics(), par.metrics());
        assert_eq!(par.metrics().messages_cloned, 3);
    }

    #[test]
    fn more_shards_than_vertices_still_deliver() {
        let g = from_edges(3, [(0, 1), (1, 2)]);
        let mut seq = Network::new(&g);
        let mut par = Network::new(&g).with_threads(16);
        let out = all_broadcast(&g);
        assert_eq!(seq.exchange(out.clone()), par.exchange(out));
        assert_eq!(seq.metrics(), par.metrics());
    }

    #[test]
    #[should_panic(expected = "port out of range")]
    fn port_out_of_range_panics_with_the_documented_message() {
        let g = path(3); // vertex 0 has degree 1
        let mut net = Network::new(&g).with_threads(2);
        let mut out: Vec<Vec<Outgoing<u8>>> = vec![vec![]; 3];
        out[0].push((1, 0u8, 8));
        let _ = net.exchange(out);
    }

    #[test]
    #[should_panic(expected = "thread count must be at least 1")]
    fn zero_threads_is_rejected() {
        let g = path(3);
        let _ = Network::new(&g).with_threads(0);
    }
}

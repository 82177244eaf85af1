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
//! 3. **Faulty.** The resilience layer's attempt loop appends every
//!    delivery to one buffer, attempt by attempt and in sender order
//!    within an attempt; one stable counting sort on destination then
//!    groups them, and the plan reorders each inbox slice.
//!
//! The vertex set is partitioned into contiguous CSR ranges balanced by
//! half-edge count, one per worker. Resolving unicast messages, the fault
//! decisions of each attempt, acks and inbox reorders run per shard; the
//! sort and the broadcast pass run on the calling thread. Per-worker
//! [`Metrics`] and [`FaultStats`] are merged in ascending shard order;
//! every merged field is a sum or a max, so the totals do not depend on
//! the shard count. One worker is the default, and a lone job runs
//! inline, so a one-worker network never enters `thread::scope`.
//!
//! A round takes the faulty loop unless the plan cannot fault and
//! resilience is off. Faults parallelize because every [`FaultPlan`]
//! decision is a pure hash of `(seed, kind, round, slot-or-node)`:
//! workers evaluate drop/duplicate/crash decisions independently, and
//! per-message retry state lives with the sender's shard. Inbox
//! reordering is keyed by `(logical round, destination node)`.

use crate::faults::{crash_aware_ball, FaultPlan, FaultStats, Pending, ResilienceParams};
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
    // Count into `offsets[d + 1]`, then turn the counts into group starts
    // shifted by one slot: `offsets[d + 1]` is where group `d` begins.
    offsets.clear();
    offsets.resize(n + 1, 0);
    for &d in dest {
        offsets[d as usize + 1] += 1;
    }
    let mut start = 0;
    for slot in &mut offsets[1..] {
        let count = *slot;
        *slot = start;
        start += count;
    }
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
    /// Working space of [`sort_by_dest`].
    pos: Vec<u32>,
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

    /// A message's retry state for the faulty loop.
    ///
    /// # Panics
    /// Panics if `v` is not a node or `port >= deg(v)`.
    fn pending<M>(&self, v: usize, port: usize, payload: M, bits: u64) -> Pending<M> {
        assert!(v < self.graph.num_vertices(), "outbox sender out of range");
        let sender = VertexId::new(v);
        assert!(port < self.graph.degree(sender), "port out of range");
        let dest = self.graph.neighbor(sender, port);
        let slot = self.offsets[v] + port;
        let in_port = self.peer_port[slot] as usize;
        Pending {
            sender,
            dest,
            in_port,
            slot: slot as u64,
            back_slot: (self.offsets[dest.index()] + in_port) as u64,
            payload: Some(payload),
            bits,
            deliveries: 0,
            acked: false,
        }
    }

    /// Faulty round: the resilience layer's attempt loop, each send and
    /// ack round run as a shard barrier. Retry state lives with the
    /// sender's shard; fault decisions are pure plan queries. `pending`
    /// holds the round's messages in ascending sender order.
    fn route_faulty<M: Clone + Send>(
        &mut self,
        mut pending: Vec<Pending<M>>,
        inboxes: &mut Inboxes<M>,
    ) {
        let n = self.graph.num_vertices();
        let plan = &self.plan;
        let resilience = self.resilience;
        let cuts = sender_cuts(&pending, |p| p.sender.index(), &self.bounds);

        /// One shard's deliveries in send order, and the indices (within
        /// the shard) of the messages it delivered in the current attempt.
        struct Sent<M> {
            items: Vec<Incoming<M>>,
            dest: Vec<u32>,
            delivered: Vec<usize>,
        }
        let (inbox_offsets, items) = inboxes.columns();
        items.clear();
        self.dest.clear();
        // Shard 0 appends straight to the round's buffers, and after each
        // attempt the other shards' deliveries follow it there, so the
        // buffers grow attempt by attempt and in sender order within an
        // attempt.
        let mut sent: Vec<Sent<M>> = (0..cuts.len() - 1)
            .map(|k| Sent {
                items: if k == 0 {
                    std::mem::take(items)
                } else {
                    Vec::new()
                },
                dest: if k == 0 {
                    std::mem::take(&mut self.dest)
                } else {
                    Vec::new()
                },
                delivered: Vec::new(),
            })
            .collect();

        let logical_round = self.metrics.rounds + 1;
        // Counted in u64: `1 + max_retries` does not fit a u32 at u32::MAX.
        let attempts = if resilience.enabled() {
            1 + u64::from(resilience.max_retries)
        } else {
            1
        };
        for attempt in 0..attempts {
            if attempt > 0 {
                let outstanding = pending.iter().filter(|m| !m.acked).count() as u64;
                if outstanding == 0 {
                    break;
                }
                self.faults.retries += outstanding;
            }
            // Send round.
            self.metrics.rounds += 1;
            let round = self.metrics.rounds;
            self.faults.crashed_rounds += crashed_count(plan, n as u32, round);
            let results: Vec<(Metrics, FaultStats)> = run_jobs(
                split_ranges(&mut pending, &cuts)
                    .into_iter()
                    .zip(&mut sent)
                    .map(|(shard, out)| {
                        move || {
                            let mut m = Metrics::new();
                            let mut f = FaultStats::default();
                            out.delivered.clear();
                            for (i, msg) in shard.iter_mut().enumerate() {
                                if msg.acked {
                                    continue;
                                }
                                if plan.is_down(msg.sender.0, round) {
                                    // A crashed node sends nothing; the
                                    // message is lost unless a later retry
                                    // finds the node back up.
                                    f.dropped += 1;
                                    continue;
                                }
                                m.messages += 1;
                                m.bits += msg.bits;
                                m.max_message_bits = m.max_message_bits.max(msg.bits);
                                if plan.is_down(msg.dest.0, round)
                                    || plan.message_dropped(round, msg.slot)
                                {
                                    f.dropped += 1;
                                    continue;
                                }
                                let dup = plan.message_duplicated(round, msg.slot);
                                // Retain the payload whenever another
                                // delivery may still need it: a retransmit
                                // (resilience) or the duplicate below.
                                let (payload, cloned) =
                                    msg.payload_for_delivery(resilience.enabled() || dup);
                                m.messages_cloned += cloned as u64;
                                out.items.push((msg.in_port, payload));
                                out.dest.push(msg.dest.0);
                                if msg.deliveries > 0 {
                                    // Ack-loss retransmit: the receiver
                                    // sees it twice.
                                    f.duplicated += 1;
                                }
                                msg.deliveries += 1;
                                if dup {
                                    let (payload, cloned) =
                                        msg.payload_for_delivery(resilience.enabled());
                                    m.messages_cloned += cloned as u64;
                                    out.items.push((msg.in_port, payload));
                                    out.dest.push(msg.dest.0);
                                    msg.deliveries += 1;
                                    f.duplicated += 1;
                                }
                                out.delivered.push(i);
                            }
                            (m, f)
                        }
                    })
                    .collect(),
            );
            for (m, f) in results {
                self.metrics.absorb(m);
                self.faults.absorb(f);
            }
            let (first, rest) = sent.split_first_mut().expect("at least one shard");
            for out in rest {
                first.items.append(&mut out.items);
                first.dest.append(&mut out.dest);
            }
            if !resilience.enabled() {
                break;
            }
            // Ack round: each delivery is acked along the reverse edge;
            // acks travel the same faulty links.
            self.metrics.rounds += 1;
            let ack_round = self.metrics.rounds;
            self.faults.crashed_rounds += crashed_count(plan, n as u32, ack_round);
            let acks: Vec<(Metrics, FaultStats)> = run_jobs(
                split_ranges(&mut pending, &cuts)
                    .into_iter()
                    .zip(sent.iter().map(|out| &out.delivered))
                    .map(|(shard, delivered)| {
                        move || {
                            let mut m = Metrics::new();
                            let mut f = FaultStats::default();
                            for &i in delivered {
                                let msg = &mut shard[i];
                                if plan.is_down(msg.dest.0, ack_round) {
                                    continue; // acker is down: no ack sent at all
                                }
                                m.messages += 1;
                                m.bits += resilience.ack_bits;
                                m.max_message_bits = m.max_message_bits.max(resilience.ack_bits);
                                if plan.is_down(msg.sender.0, ack_round)
                                    || plan.message_dropped(ack_round, msg.back_slot)
                                {
                                    f.dropped += 1;
                                    continue;
                                }
                                msg.acked = true;
                            }
                            (m, f)
                        }
                    })
                    .collect(),
            );
            for (m, f) in acks {
                self.metrics.absorb(m);
                self.faults.absorb(f);
            }
            if pending.iter().all(|p| p.acked) {
                break;
            }
        }
        *items = std::mem::take(&mut sent[0].items);
        self.dest = std::mem::take(&mut sent[0].dest);
        sort_by_dest(items, &self.dest, &mut self.pos, inbox_offsets, n);
        // Within-round reordering, keyed by the logical round so retries
        // do not change which inboxes get shuffled; applied per
        // destination shard after the sort.
        let inbox_offsets = &inbox_offsets[..];
        let item_cuts: Vec<usize> = self.bounds.iter().map(|&b| inbox_offsets[b]).collect();
        run_jobs(
            split_ranges(items, &item_cuts)
                .into_iter()
                .enumerate()
                .map(|(k, slice)| {
                    let vertices = self.bounds[k]..self.bounds[k + 1];
                    let base = item_cuts[k];
                    move || {
                        for v in vertices {
                            let inbox =
                                &mut slice[inbox_offsets[v] - base..inbox_offsets[v + 1] - base];
                            plan.maybe_shuffle(logical_round, v as u32, inbox);
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
            let pending = outbox
                .drain()
                .map(|(v, port, payload, bits)| self.pending(v, port, payload, bits))
                .collect();
            self.route_faulty(pending, inboxes);
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
            let mut pending = Vec::with_capacity(self.offsets[self.graph.num_vertices()]);
            let clones = fan_out(self.graph, payloads, |v, port, payload, bits| {
                pending.push(self.pending(v, port, payload, bits))
            });
            self.metrics.messages_cloned += clones;
            self.route_faulty(pending, inboxes);
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

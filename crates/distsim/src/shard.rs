//! The simulated network's one transport, [`Network`]: rounds executed on
//! `t` `std::thread::scope` workers, with the same result at every `t`.
//!
//! The vertex set is partitioned into contiguous CSR ranges balanced by
//! half-edge count. Each [`Net::exchange`] runs in two barriers:
//!
//! 1. **Send.** Worker `k` walks its senders in ascending vertex order and
//!    routes each outgoing message into one buffer per destination shard.
//!    Within a buffer, messages are therefore already ordered by
//!    `(sender, outbox position)`.
//! 2. **Deliver.** Worker `d` owns the inboxes of its vertex range and
//!    concatenates the buffers addressed to it in ascending *source-shard*
//!    order. Source shards are contiguous ascending vertex ranges, so the
//!    concatenation of per-shard `(sender, seq)` orders is the global
//!    `(sender, seq)` order: every inbox is the same at every shard count.
//!
//! The merge order is total — `(source shard, sender, outbox position)`
//! determines a unique position for every message, no ties — so no
//! scheduling of the workers can change an inbox. Per-worker [`Metrics`]
//! and [`FaultStats`] are merged in ascending shard order; every merged
//! field is a sum or a max, so the totals do not depend on the shard
//! count. One worker is the default, and a lone job runs inline, so a
//! one-worker network never enters `thread::scope`.
//!
//! An exchange takes one of two loops. With a plan that cannot fault and
//! resilience off it takes the perfect loop above; otherwise it takes the
//! faulty loop. Faults parallelize the same way because every
//! [`FaultPlan`] decision is a pure hash of `(seed, kind, round,
//! slot-or-node)`: workers evaluate drop/duplicate/crash decisions
//! independently, per-message retry state lives with the sender's shard,
//! and the attempt loop of the resilience layer becomes a sequence of
//! send/ack barriers. Inbox reordering is keyed by
//! `(logical round, destination node)` and applied by the destination
//! shard after the merge.

use crate::faults::{crash_aware_ball, FaultPlan, FaultStats, Pending, ResilienceParams};
use crate::metrics::Metrics;
use crate::network::{Incoming, Net, Outgoing};
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

/// The shard owning vertex `v` under `bounds` (empty shards skipped).
#[inline]
fn shard_of(bounds: &[usize], v: usize) -> usize {
    bounds.partition_point(|&b| b <= v) - 1
}

/// Split a per-vertex slice into per-shard mutable sub-slices.
fn split_ranges<'a, T>(items: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bounds.len() - 1);
    let mut rest = items;
    for k in 0..bounds.len() - 1 {
        let (head, tail) = rest.split_at_mut(bounds[k + 1] - bounds[k]);
        out.push(head);
        rest = tail;
    }
    out
}

/// Crashed node-rounds charged for one physical round.
fn crashed_count(plan: &FaultPlan, n: u32, round: u64) -> u64 {
    if !plan.has_crashes() {
        return 0;
    }
    (0..n).filter(|&v| plan.is_down(v, round)).count() as u64
}

/// Append routed messages to their destination inboxes, one worker per
/// destination shard, source shards concatenated in ascending order.
/// `grouped[d]` lists, in source-shard order, the buffers addressed to
/// shard `d`; each buffer entry is `(destination vertex, in-port, payload)`.
fn deliver<M: Send>(
    inboxes: &mut [Vec<Incoming<M>>],
    grouped: Vec<Vec<Vec<(u32, u32, M)>>>,
    bounds: &[usize],
) {
    run_jobs(
        split_ranges(inboxes, bounds)
            .into_iter()
            .zip(grouped)
            .enumerate()
            .map(|(k, (slice, bufs))| {
                let base = bounds[k];
                move || {
                    for buf in bufs {
                        for (dst, in_port, payload) in buf {
                            slice[dst as usize - base].push((in_port as usize, payload));
                        }
                    }
                }
            })
            .collect(),
    );
}

/// The simulated network over a fixed topology, and the one [`Net`]
/// transport. [`Network::new`] delivers perfectly on one worker;
/// [`Network::with_resilience`] adds a fault plan and the ack/retry
/// layer, and [`Network::with_threads`] sets the worker count. Outputs,
/// [`Metrics`] and [`FaultStats`] are the same at every worker count.
///
/// ```
/// use sparsimatch_distsim::{Net, Network};
/// use sparsimatch_graph::generators::path;
///
/// let g = path(3); // 0 - 1 - 2
/// let mut net = Network::new(&g);
/// // Vertex 0 sends one 8-bit message to its only neighbor.
/// let mut out: Vec<Vec<(usize, u32, u64)>> = vec![vec![]; 3];
/// out[0].push((0, 42, 8));
/// let inboxes = net.exchange(out);
/// assert_eq!(inboxes[1].iter().map(|&(_, m)| m).collect::<Vec<_>>(), vec![42]);
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
        let n = graph.num_vertices();
        let offsets = csr_offsets(graph);
        // The port of each edge at its smaller and at its larger endpoint.
        let mut slot_small = vec![u32::MAX; graph.num_edges()];
        let mut slot_large = vec![u32::MAX; graph.num_edges()];
        for v in 0..n {
            let v = VertexId::new(v);
            for (i, (u, e)) in graph.incident(v).enumerate() {
                if v.0 < u.0 {
                    slot_small[e.index()] = i as u32;
                } else {
                    slot_large[e.index()] = i as u32;
                }
            }
        }
        let mut peer_port = vec![0u32; 2 * graph.num_edges()];
        for v in 0..n {
            let v = VertexId::new(v);
            for (i, (u, e)) in graph.incident(v).enumerate() {
                peer_port[offsets[v.index()] + i] = if v.0 < u.0 {
                    slot_large[e.index()]
                } else {
                    slot_small[e.index()]
                };
            }
        }
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
        }
    }

    /// Run every round on `threads` workers.
    ///
    /// ```
    /// use sparsimatch_distsim::{Net, Network};
    /// use sparsimatch_graph::generators::cycle;
    ///
    /// let g = cycle(64);
    /// let mut one = Network::new(&g);
    /// let mut four = Network::new(&g).with_threads(4);
    /// let payloads: Vec<(u32, u64)> = (0..64).map(|v| (v, 8)).collect();
    /// let a = one.broadcast_exchange(payloads.clone());
    /// let b = four.broadcast_exchange(payloads);
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

    /// Fault-free exchange: send barrier, deterministic merge, deliver
    /// barrier.
    fn exchange_perfect<M: Clone + Send>(
        &mut self,
        mut outboxes: Vec<Vec<Outgoing<M>>>,
    ) -> Vec<Vec<Incoming<M>>> {
        let n = self.graph.num_vertices();
        assert_eq!(outboxes.len(), n);
        self.metrics.rounds += 1;
        let graph = self.graph;
        let (offsets, peer_port, bounds) =
            (&self.offsets[..], &self.peer_port[..], &self.bounds[..]);
        let t = bounds.len() - 1;

        struct SendOut<M> {
            buffers: Vec<Vec<(u32, u32, M)>>,
            metrics: Metrics,
        }
        let sends: Vec<SendOut<M>> = run_jobs(
            split_ranges(&mut outboxes, bounds)
                .into_iter()
                .enumerate()
                .map(|(k, slice)| {
                    let base = bounds[k];
                    move || {
                        let mut buffers: Vec<Vec<(u32, u32, M)>> =
                            (0..t).map(|_| Vec::new()).collect();
                        let mut m = Metrics::new();
                        for (i, outbox) in slice.iter_mut().enumerate() {
                            let v = VertexId::new(base + i);
                            for (port, payload, bits) in std::mem::take(outbox) {
                                assert!(port < graph.degree(v), "port out of range");
                                let u = graph.neighbor(v, port);
                                let in_port = peer_port[offsets[v.index()] + port];
                                m.messages += 1;
                                m.bits += bits;
                                m.max_message_bits = m.max_message_bits.max(bits);
                                buffers[shard_of(bounds, u.index())].push((u.0, in_port, payload));
                            }
                        }
                        SendOut {
                            buffers,
                            metrics: m,
                        }
                    }
                })
                .collect(),
        );

        let mut grouped: Vec<Vec<Vec<(u32, u32, M)>>> =
            (0..t).map(|_| Vec::with_capacity(t)).collect();
        for s in sends {
            self.metrics.absorb(s.metrics);
            for (d, buf) in s.buffers.into_iter().enumerate() {
                grouped[d].push(buf);
            }
        }

        let mut inboxes: Vec<Vec<Incoming<M>>> = Vec::with_capacity(n);
        inboxes.resize_with(n, Vec::new);
        deliver(&mut inboxes, grouped, bounds);
        inboxes
    }

    /// Faulty exchange: the resilience layer's attempt loop, each send
    /// and ack round run as a shard barrier. Retry state lives with the
    /// sender's shard; fault decisions are pure plan queries.
    fn exchange_faulty<M: Clone + Send>(
        &mut self,
        mut outboxes: Vec<Vec<Outgoing<M>>>,
    ) -> Vec<Vec<Incoming<M>>> {
        let n = self.graph.num_vertices();
        assert_eq!(outboxes.len(), n);
        let graph = self.graph;
        let (offsets, peer_port, bounds) =
            (&self.offsets[..], &self.peer_port[..], &self.bounds[..]);
        let t = bounds.len() - 1;
        let plan = &self.plan;
        let resilience = self.resilience;

        let mut pending_shards: Vec<Vec<Pending<M>>> = run_jobs(
            split_ranges(&mut outboxes, bounds)
                .into_iter()
                .enumerate()
                .map(|(k, slice)| {
                    let base = bounds[k];
                    move || {
                        let mut pend = Vec::new();
                        for (i, outbox) in slice.iter_mut().enumerate() {
                            let v = VertexId::new(base + i);
                            for (port, payload, bits) in std::mem::take(outbox) {
                                assert!(port < graph.degree(v), "port out of range");
                                let dest = graph.neighbor(v, port);
                                let slot = offsets[v.index()] + port;
                                let in_port = peer_port[slot] as usize;
                                pend.push(Pending {
                                    sender: v,
                                    dest,
                                    in_port,
                                    slot: slot as u64,
                                    back_slot: (offsets[dest.index()] + in_port) as u64,
                                    payload: Some(payload),
                                    bits,
                                    deliveries: 0,
                                    acked: false,
                                });
                            }
                        }
                        pend
                    }
                })
                .collect(),
        );

        let logical_round = self.metrics.rounds + 1;
        let mut inboxes: Vec<Vec<Incoming<M>>> = Vec::with_capacity(n);
        inboxes.resize_with(n, Vec::new);
        // Counted in u64: `1 + max_retries` does not fit a u32 at u32::MAX.
        let attempts = if resilience.enabled() {
            1 + u64::from(resilience.max_retries)
        } else {
            1
        };
        for attempt in 0..attempts {
            if attempt > 0 {
                let outstanding: u64 = pending_shards
                    .iter()
                    .map(|s| s.iter().filter(|m| !m.acked).count() as u64)
                    .sum();
                if outstanding == 0 {
                    break;
                }
                self.faults.retries += outstanding;
            }
            // Send round.
            self.metrics.rounds += 1;
            let round = self.metrics.rounds;
            self.faults.crashed_rounds += crashed_count(plan, n as u32, round);
            struct SendRes<M> {
                buffers: Vec<Vec<(u32, u32, M)>>,
                metrics: Metrics,
                faults: FaultStats,
                delivered: Vec<usize>,
            }
            let results: Vec<SendRes<M>> = run_jobs(
                pending_shards
                    .iter_mut()
                    .map(|shard| {
                        move || {
                            let mut buffers: Vec<Vec<(u32, u32, M)>> =
                                (0..t).map(|_| Vec::new()).collect();
                            let mut m = Metrics::new();
                            let mut f = FaultStats::default();
                            let mut delivered = Vec::new();
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
                                let d = shard_of(bounds, msg.dest.index());
                                // Retain the payload whenever another
                                // delivery may still need it: a retransmit
                                // (resilience) or the duplicate below.
                                let (payload, cloned) =
                                    msg.payload_for_delivery(resilience.enabled() || dup);
                                m.messages_cloned += cloned as u64;
                                buffers[d].push((msg.dest.0, msg.in_port as u32, payload));
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
                                    buffers[d].push((msg.dest.0, msg.in_port as u32, payload));
                                    msg.deliveries += 1;
                                    f.duplicated += 1;
                                }
                                delivered.push(i);
                            }
                            SendRes {
                                buffers,
                                metrics: m,
                                faults: f,
                                delivered,
                            }
                        }
                    })
                    .collect(),
            );
            let mut grouped: Vec<Vec<Vec<(u32, u32, M)>>> =
                (0..t).map(|_| Vec::with_capacity(t)).collect();
            let mut delivered_shards: Vec<Vec<usize>> = Vec::with_capacity(t);
            for r in results {
                self.metrics.absorb(r.metrics);
                self.faults.absorb(r.faults);
                delivered_shards.push(r.delivered);
                for (d, buf) in r.buffers.into_iter().enumerate() {
                    grouped[d].push(buf);
                }
            }
            deliver(&mut inboxes, grouped, bounds);
            if !resilience.enabled() {
                break;
            }
            // Ack round: each delivery is acked along the reverse edge;
            // acks travel the same faulty links.
            self.metrics.rounds += 1;
            let ack_round = self.metrics.rounds;
            self.faults.crashed_rounds += crashed_count(plan, n as u32, ack_round);
            let acks: Vec<(Metrics, FaultStats)> = run_jobs(
                pending_shards
                    .iter_mut()
                    .zip(delivered_shards)
                    .map(|(shard, delivered)| {
                        move || {
                            let mut m = Metrics::new();
                            let mut f = FaultStats::default();
                            for i in delivered {
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
            if pending_shards.iter().all(|s| s.iter().all(|p| p.acked)) {
                break;
            }
        }
        // Within-round reordering, keyed by the logical round so retries
        // do not change which inboxes get shuffled; applied by the
        // destination shard after the merge.
        run_jobs(
            split_ranges(&mut inboxes, bounds)
                .into_iter()
                .enumerate()
                .map(|(k, slice)| {
                    let base = bounds[k];
                    move || {
                        for (i, inbox) in slice.iter_mut().enumerate() {
                            plan.maybe_shuffle(logical_round, (base + i) as u32, inbox);
                        }
                    }
                })
                .collect(),
        );
        inboxes
    }
}

impl<'g> Net<'g> for Network<'g> {
    fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    fn metrics(&self) -> Metrics {
        self.metrics
    }

    fn exchange<M: Clone + Send>(
        &mut self,
        outboxes: Vec<Vec<Outgoing<M>>>,
    ) -> Vec<Vec<Incoming<M>>> {
        if self.plan.is_zero_fault() && !self.resilience.enabled() {
            self.exchange_perfect(outboxes)
        } else {
            self.exchange_faulty(outboxes)
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
                let k = shard_of(b, v);
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
        let payloads: Vec<(u32, u64)> = (0..5).map(|v| (v, 8)).collect();
        let a = seq.broadcast_exchange(payloads.clone());
        let b = par.broadcast_exchange(payloads);
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

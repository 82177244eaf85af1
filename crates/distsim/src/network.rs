//! The simulated network's contract: a graph of nodes exchanging
//! port-addressed messages in synchronous rounds.
//!
//! Ports follow the standard distributed-computing convention: vertex `v`
//! talks through ports `0..deg(v)`, port `i` being its `i`-th incident
//! edge. Nodes address neighbors by port, never by id (the `KT_0`
//! assumption the paper's sparsifier needs); ids exist only as symmetry-
//! breaking input to the coloring algorithms, as in the LOCAL model.
//!
//! Algorithms are written against [`Net`]. Its one transport is
//! [`Network`], the sharded engine of [`crate::shard`], re-exported here.
//!
//! A round's traffic lives in two flat buffers that a phase reuses from
//! round to round: an [`Outbox`] that senders append to in ascending
//! order, and CSR [`Inboxes`] (`n + 1` offsets into one message array).
//! [`Net::route`] and [`Net::broadcast_into`] run a round over them;
//! [`Net::exchange`] keeps the nested per-vertex form for transports
//! outside this crate.

use crate::metrics::Metrics;
pub use crate::shard::Network;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::VertexId;

/// A message emitted by a node in one round: (out-port, payload, bits).
pub type Outgoing<M> = (usize, M, u64);

/// A message received by a node: (in-port, payload).
pub type Incoming<M> = (usize, M);

/// One round's outgoing messages, flat. Senders append in ascending
/// vertex order, so the buffer is already in (sender, outbox position)
/// order. Routing empties it and keeps its capacity for the next round.
#[derive(Debug)]
pub struct Outbox<M> {
    /// `(out-port, payload)` of each message. The engine rewrites the port
    /// to the receiver's in-port and hands the buffer to the inboxes.
    msgs: Vec<Incoming<M>>,
    /// `(sender, bits)` of each message, parallel to `msgs`.
    meta: Vec<(u32, u64)>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            msgs: Vec::new(),
            meta: Vec::new(),
        }
    }
}

impl<M> Outbox<M> {
    /// An empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue `payload` (`bits` on the wire) from node `v` on `port`.
    ///
    /// # Panics
    /// Panics if `v` is below the sender of an earlier message: senders
    /// append in ascending order, which is what makes a stable sort on
    /// destination yield the (sender, outbox position) delivery order.
    pub fn push(&mut self, v: usize, port: usize, payload: M, bits: u64) {
        let v = u32::try_from(v).expect("vertex ids fit in u32");
        assert!(
            self.meta.last().is_none_or(|&(s, _)| s <= v),
            "outbox senders must ascend"
        );
        self.msgs.push((port, payload));
        self.meta.push((v, bits));
    }

    /// Whether no message is queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Take every queued message as `(sender, port, payload, bits)`, in
    /// queue order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (usize, usize, M, u64)> + '_ {
        self.msgs
            .drain(..)
            .zip(self.meta.drain(..))
            .map(|((port, payload), (v, bits))| (v as usize, port, payload, bits))
    }

    /// The `(port, payload)` and `(sender, bits)` columns, for the engine.
    pub(crate) fn columns(&mut self) -> (&mut Vec<Incoming<M>>, &[(u32, u64)]) {
        (&mut self.msgs, &self.meta)
    }

    /// Forget every queued message, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.msgs.clear();
        self.meta.clear();
    }
}

/// One round's deliveries in CSR form: node `v` received
/// `items[offsets[v]..offsets[v + 1]]`, read through [`Inboxes::of`].
/// A phase keeps one and reuses its buffers from round to round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inboxes<M> {
    /// `n + 1` nondecreasing offsets into `items`.
    offsets: Vec<usize>,
    /// Every delivered `(in-port, payload)`, grouped by receiver.
    items: Vec<Incoming<M>>,
}

impl<M> Default for Inboxes<M> {
    fn default() -> Self {
        Inboxes {
            offsets: Vec::new(),
            items: Vec::new(),
        }
    }
}

impl<M> Inboxes<M> {
    /// Empty inboxes, to be filled by a round.
    pub fn new() -> Self {
        Self::default()
    }

    /// What node `v` received in the last round, in delivery order.
    ///
    /// # Panics
    /// Panics if `v` is not a node of the last round's network.
    pub fn of(&self, v: usize) -> &[Incoming<M>] {
        &self.items[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The nested per-node form [`Net::exchange`] returns.
    pub(crate) fn into_vecs(self) -> Vec<Vec<Incoming<M>>> {
        let mut items = self.items.into_iter();
        self.offsets
            .windows(2)
            .map(|w| items.by_ref().take(w[1] - w[0]).collect())
            .collect()
    }

    /// Refill from the nested per-node form.
    fn fill(&mut self, inboxes: Vec<Vec<Incoming<M>>>) {
        self.offsets.clear();
        self.offsets.push(0);
        self.items.clear();
        for inbox in inboxes {
            self.items.extend(inbox);
            self.offsets.push(self.items.len());
        }
    }

    /// The offset and message columns, for the engine.
    pub(crate) fn columns(&mut self) -> (&mut Vec<usize>, &mut Vec<Incoming<M>>) {
        (&mut self.offsets, &mut self.items)
    }
}

/// Expand a broadcast into unicast sends: node `v` sends the `v`-th of
/// `payloads` on each of its ports in port order, as
/// `send(v, port, payload, bits)`. The fan-out clones each payload
/// `deg(v) - 1` times and moves the original onto the last port; returns
/// the clone count.
///
/// # Panics
/// Panics unless `payloads` yields exactly one payload per node.
pub(crate) fn fan_out<M: Clone>(
    graph: &CsrGraph,
    payloads: impl IntoIterator<Item = (M, u64)>,
    mut send: impl FnMut(usize, usize, M, u64),
) -> u64 {
    let n = graph.num_vertices();
    let mut clones = 0u64;
    let mut count = 0usize;
    for (v, (payload, bits)) in payloads.into_iter().enumerate() {
        assert!(v < n, "one broadcast payload per node");
        count += 1;
        let Some(last) = graph.degree(VertexId::new(v)).checked_sub(1) else {
            continue;
        };
        for port in 0..last {
            send(v, port, payload.clone(), bits);
        }
        send(v, last, payload, bits);
        clones += last as u64;
    }
    assert_eq!(count, n, "one broadcast payload per node");
    clones
}

/// The interface the distributed algorithms are written against.
///
/// [`Network`] implements it; wrappers that observe a [`Network`] (a
/// timing wrapper, say) implement it by delegation. Without faults a
/// network delivers every message exactly once per round; under a
/// [`FaultPlan`](crate::FaultPlan) it may drop, duplicate, or reorder
/// messages and take extra (accounted) rounds for ack/retry resilience.
/// Algorithms run unmodified either way. The `'g` parameter
/// is the lifetime of the underlying topology, so `graph()` borrows the
/// graph rather than the network and callers can hold topology references
/// across accounted rounds.
///
/// Algorithms run their rounds through [`Net::route`] and
/// [`Net::broadcast_into`]. Their provided bodies go through
/// [`Net::exchange`], so a delegating wrapper that implements only the
/// required methods still runs every algorithm, with the same output and
/// accounting as the flat engine [`Network`] overrides them with.
///
/// `Sync` is a supertrait because the LOCAL augmentation phase fans its
/// per-node ball computations out over threads holding `&N`.
pub trait Net<'g>: Sync {
    /// The underlying topology.
    fn graph(&self) -> &'g CsrGraph;

    /// Communication metrics accumulated so far.
    fn metrics(&self) -> Metrics;

    /// One logical synchronous round: every node's outbox is handed to the
    /// transport for delivery. `outboxes[v]` lists `(port, payload, bits)`.
    ///
    /// # Panics
    /// Panics if `outboxes.len() != num_nodes()` or any entry names a port
    /// `>= deg(v)` — a malformed outbox is an algorithm bug, not a network
    /// fault, so every transport rejects it identically.
    fn exchange<M: Clone + Send>(
        &mut self,
        outboxes: Vec<Vec<Outgoing<M>>>,
    ) -> Vec<Vec<Incoming<M>>>;

    /// Charge the canonical LOCAL "gather your radius-`r` ball" primitive:
    /// `r` rounds in which every vertex forwards everything it knows on
    /// every port. Messages: `r · 2m`; bits: caller-supplied estimate of
    /// the per-message payload (e.g. the ball's edge count × bits/edge).
    ///
    /// The ball content itself is then read off the master graph with
    /// [`Net::ball`] — an accounting-faithful shortcut (the protocol would
    /// deliver exactly that information in `r` rounds).
    fn charge_gather(&mut self, radius: usize, bits_per_message: u64);

    /// Account `count` host-side payload clones against this transport's
    /// [`Metrics::messages_cloned`]. Unicast delivery moves payloads and
    /// clones nothing; broadcast fan-out (the provided
    /// [`Net::broadcast_into`] calls this), duplicate deliveries, and
    /// retained retransmit buffers clone.
    fn record_clones(&mut self, count: u64);

    /// Collect the radius-`r` ball around `v` — the vertices at distance
    /// ≤ `r` — as the transport would deliver it (crashed nodes are
    /// omitted).
    fn ball(&self, v: VertexId, radius: usize) -> Vec<VertexId>;

    /// Number of nodes.
    fn num_nodes(&self) -> usize {
        self.graph().num_vertices()
    }

    /// The neighbor reached through `(v, port)`.
    fn peer(&self, v: VertexId, port: usize) -> VertexId {
        self.graph().neighbor(v, port)
    }

    /// One logical synchronous round over flat buffers: deliver `outbox`
    /// into `inboxes` and leave `outbox` empty. Both keep their capacity,
    /// so a phase that reuses them allocates nothing per vertex. The
    /// deliveries are those [`Net::exchange`] makes for the same messages.
    ///
    /// # Panics
    /// As [`Net::exchange`]: a sender outside the graph or a port
    /// `>= deg(v)` is an algorithm bug.
    fn route<M: Clone + Send>(&mut self, outbox: &mut Outbox<M>, inboxes: &mut Inboxes<M>) {
        let mut outboxes: Vec<Vec<Outgoing<M>>> =
            (0..self.num_nodes()).map(|_| Vec::new()).collect();
        for (v, port, payload, bits) in outbox.drain() {
            outboxes[v].push((port, payload, bits));
        }
        inboxes.fill(self.exchange(outboxes));
    }

    /// Broadcast round (the broadcast transmission mode of Section 3.2):
    /// node `v` sends the `v`-th of `payloads` on all its ports, and the
    /// deliveries land in `inboxes`. The fan-out performs `deg(v) - 1`
    /// payload clones per speaking node (the last port takes the original
    /// by value), accounted via [`Net::record_clones`].
    ///
    /// # Panics
    /// Panics unless `payloads` yields exactly one payload per node.
    fn broadcast_into<M: Clone + Send>(
        &mut self,
        payloads: impl IntoIterator<Item = (M, u64)>,
        inboxes: &mut Inboxes<M>,
    ) {
        let mut outbox = Outbox::new();
        let clones = fan_out(self.graph(), payloads, |v, port, payload, bits| {
            outbox.push(v, port, payload, bits)
        });
        self.record_clones(clones);
        self.route(&mut outbox, inboxes);
    }

    /// Whether this transport guarantees exactly-once, in-order delivery
    /// to every node. Algorithms use it to gate *optional* self-checks
    /// (maximality, properness) that only hold under perfect delivery;
    /// their safety invariants (matching validity) never depend on it.
    fn lossless(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsimatch_graph::csr::from_edges;
    use sparsimatch_graph::generators::{cycle, path, star};

    #[test]
    fn peer_ports_are_inverse() {
        let g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let net = Network::new(&g);
        for v in 0..5 {
            let v = VertexId::new(v);
            for port in 0..g.degree(v) {
                let u = net.peer(v, port);
                let back = net.in_port(v, port);
                assert_eq!(net.peer(u, back), v, "peer port must point back");
            }
        }
    }

    #[test]
    fn exchange_delivers_and_counts() {
        let g = path(3); // 0-1-2
        let mut net = Network::new(&g);
        // Vertex 0 sends "7" to its only neighbor (1).
        let mut out: Vec<Vec<Outgoing<u32>>> = vec![vec![]; 3];
        out[0].push((0, 7u32, 32));
        let inboxes = net.exchange(out);
        let received: Vec<u32> = inboxes[1].iter().map(|&(_, m)| m).collect();
        assert_eq!(received, vec![7]);
        assert!(inboxes[0].is_empty() && inboxes[2].is_empty());
        let m = net.metrics();
        assert_eq!(m.rounds, 1);
        assert_eq!(m.messages, 1);
        assert_eq!(m.bits, 32);
        assert_eq!(m.messages_cloned, 0, "unicast moves its payload");
    }

    #[test]
    fn unicast_exchange_never_clones_payloads() {
        // A payload whose Clone panics: delivery must move it instead.
        struct Fragile(u32);
        impl Clone for Fragile {
            fn clone(&self) -> Self {
                panic!("unicast exchange must not clone");
            }
        }
        let g = cycle(4);
        let mut net = Network::new(&g);
        let mut out: Vec<Vec<Outgoing<Fragile>>> = vec![vec![], vec![], vec![], vec![]];
        out[0].push((0, Fragile(9), 8));
        out[2].push((1, Fragile(11), 8));
        let inboxes = net.exchange(out);
        let delivered: u32 = inboxes.iter().flatten().map(|(_, m)| m.0).sum();
        assert_eq!(delivered, 20);
        // The same through the flat buffers, reused over two rounds.
        let mut outbox = Outbox::new();
        let mut inboxes = Inboxes::new();
        for round in 0..2 {
            outbox.push(0, 0, Fragile(9), 8);
            outbox.push(2, 1, Fragile(11), 8);
            outbox.push(3, 0, Fragile(round), 8);
            net.route(&mut outbox, &mut inboxes);
            assert!(outbox.is_empty());
            let delivered: u32 = (0..4).flat_map(|v| inboxes.of(v)).map(|(_, m)| m.0).sum();
            assert_eq!(delivered, 20 + round);
        }
        assert_eq!(net.metrics().messages_cloned, 0);
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let g = star(5);
        let mut net = Network::new(&g);
        let mut inboxes = Inboxes::new();
        net.broadcast_into((0..5).map(|v| (v as u32, 8u64)), &mut inboxes);
        // Center (0) hears from all 4 leaves.
        assert_eq!(inboxes.of(0).len(), 4);
        let mut heard: Vec<u32> = inboxes.of(0).iter().map(|&(_, m)| m).collect();
        heard.sort_unstable();
        assert_eq!(heard, vec![1, 2, 3, 4]);
        // Each leaf hears only the center's value 0.
        for leaf in 1..5 {
            assert_eq!(inboxes.of(leaf), &[(0usize, 0u32)]);
        }
        assert_eq!(
            net.metrics().messages,
            8,
            "2m messages on a star of 4 edges"
        );
        // Center (degree 4) clones 3 times; each leaf (degree 1) moves.
        assert_eq!(net.metrics().messages_cloned, 3);
    }

    #[test]
    #[should_panic(expected = "outbox senders must ascend")]
    fn outbox_rejects_descending_senders() {
        let mut outbox = Outbox::new();
        outbox.push(2, 0, (), 1);
        outbox.push(1, 0, (), 1);
    }

    #[test]
    fn gather_charging() {
        let g = cycle(6);
        let mut net = Network::new(&g);
        net.charge_gather(3, 10);
        let m = net.metrics();
        assert_eq!(m.rounds, 3);
        assert_eq!(m.messages, 3 * 12);
        assert_eq!(m.bits, 3 * 12 * 10);
    }

    #[test]
    fn ball_radii() {
        let g = path(7); // 0-1-2-3-4-5-6
        let net = Network::new(&g);
        let b0 = net.ball(VertexId(3), 0);
        assert_eq!(b0.len(), 1);
        let b2: std::collections::HashSet<u32> =
            net.ball(VertexId(3), 2).into_iter().map(|v| v.0).collect();
        assert_eq!(b2, [1u32, 2, 3, 4, 5].into_iter().collect());
        let ball_all = net.ball(VertexId(0), 10);
        assert_eq!(ball_all.len(), 7);
    }

    #[test]
    fn empty_outboxes_still_advance_rounds() {
        // A round in which nobody speaks is still a round: synchronous
        // models charge for the barrier, not the traffic.
        let g = path(4);
        let mut net = Network::new(&g);
        for expected in 1..=3u64 {
            let inboxes = net.exchange(vec![Vec::<Outgoing<u8>>::new(); 4]);
            assert!(inboxes.iter().all(|i| i.is_empty()));
            assert_eq!(net.metrics().rounds, expected);
        }
        assert_eq!(net.metrics().messages, 0);
        assert_eq!(net.metrics().bits, 0);
    }

    #[test]
    #[should_panic(expected = "port out of range")]
    fn port_out_of_range_is_a_documented_panic() {
        let g = path(3); // vertex 0 has degree 1
        let mut net = Network::new(&g);
        let mut out: Vec<Vec<Outgoing<u8>>> = vec![vec![]; 3];
        out[0].push((1, 0u8, 8));
        let _ = net.exchange(out);
    }

    #[test]
    #[should_panic(expected = "port out of range")]
    fn in_port_rejects_out_of_range() {
        let g = path(3);
        let net = Network::new(&g);
        let _ = net.in_port(VertexId(0), 1);
    }

    #[test]
    fn in_port_matches_delivery_tag() {
        let g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let mut net = Network::new(&g);
        for v in 0..5 {
            let v = VertexId::new(v);
            for port in 0..g.degree(v) {
                let mut out: Vec<Vec<Outgoing<u8>>> = vec![vec![]; 5];
                out[v.index()].push((port, 1u8, 1));
                let inboxes = net.exchange(out);
                let u = net.peer(v, port);
                assert_eq!(inboxes[u.index()], vec![(net.in_port(v, port), 1u8)]);
            }
        }
    }

    #[test]
    fn port_addressing_round_trip_message() {
        // Reply on the in-port must reach the original sender.
        let g = from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        let mut net = Network::new(&g);
        let mut out: Vec<Vec<Outgoing<&'static str>>> = vec![vec![]; 4];
        out[2].push((0, "ping", 8));
        let inboxes = net.exchange(out);
        let (in_port, msg) = inboxes[0][0];
        assert_eq!(msg, "ping");
        let mut reply: Vec<Vec<Outgoing<&'static str>>> = vec![vec![]; 4];
        reply[0].push((in_port, "pong", 8));
        let inboxes2 = net.exchange(reply);
        assert_eq!(inboxes2[2], vec![(0usize, "pong")]);
    }
}

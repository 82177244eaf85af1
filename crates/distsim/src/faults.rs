//! Deterministic fault injection for the simulated network.
//!
//! The paper's protocols make purely local, per-vertex decisions, which
//! should make them naturally tolerant to partial communication — this
//! module exists to *test* that claim instead of assuming it. A
//! [`FaultPlan`] is a pure function from a `u64` seed and a set of rates
//! to per-round fault decisions: message drops, duplications, within-round
//! inbox reorderings, and node crash/recover windows.
//! [`Network::with_resilience`] runs a topology under a plan, behind the
//! same [`Net`](crate::Net) interface as a fault-free [`Network`], so every algorithm
//! in [`crate::algorithms`] runs unmodified over it.
//!
//! Design rules:
//!
//! * **Determinism.** Every fault decision is a hash of
//!   `(plan seed, kind, round, slot-or-node)` — two runs with the same
//!   `(algorithm seed, plan)` pair produce identical outputs, metrics,
//!   and fault counters. No global RNG, no iteration-order dependence.
//! * **Zero-fault transparency.** A plan whose faults never fire leaves
//!   every inbox, every [`Metrics`](crate::Metrics) field and every fault counter as a
//!   fault-free [`Network`] has them, though it runs the faulty exchange
//!   loop. Pinned by tests.
//! * **Honest accounting.** Sends are counted when the sender is up,
//!   whether or not delivery succeeds; ack/retry traffic from the
//!   resilience layer is charged as real rounds, messages, and bits.
//!
//! What the fault model does and does not promise is documented in
//! DESIGN.md §7 ("Fault model").

use crate::network::Network;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::edge_stream::{hash3, mix, threshold};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_obs::{keys, WorkMeter};

/// Per-kind fault probabilities, each in `[0, 1]`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultRates {
    /// Probability that a message in transit is dropped.
    pub drop: f64,
    /// Probability that a delivered message is delivered twice.
    pub duplicate: f64,
    /// Probability that a node's inbox is shuffled within a round.
    pub reorder: f64,
    /// Probability that a node is down for a given crash window.
    pub crash: f64,
}

impl FaultRates {
    fn validate(&self) {
        for (name, r) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("crash", self.crash),
        ] {
            assert!(
                r.is_finite() && (0.0..=1.0).contains(&r),
                "fault rate {name} = {r} must be a probability in [0, 1]"
            );
        }
    }
}

/// Configuration of the per-edge ack + bounded-retry resilience layer.
///
/// With `max_retries == 0` (the default) the layer is off: one physical
/// round per logical [`Net::exchange`](crate::Net::exchange), losses are
/// final. With `max_retries == k > 0`, each logical exchange runs up to
/// `1 + k` send attempts, every attempt followed by an explicit ack round:
/// receivers ack each delivery along the reverse edge, senders retransmit
/// messages whose ack never arrived. Acks travel the same faulty links,
/// so a lost ack causes a (counted) duplicate delivery — the classic
/// at-least-once tradeoff. The round budget is therefore bounded by
/// `2·(1 + max_retries)` physical rounds per logical round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResilienceParams {
    /// Retransmission attempts after the first send (0 disables the layer).
    pub max_retries: u32,
    /// Payload bits charged per ack message.
    pub ack_bits: u64,
}

impl ResilienceParams {
    /// Resilience disabled: one send, losses are final.
    pub fn off() -> Self {
        ResilienceParams {
            max_retries: 0,
            ack_bits: 1,
        }
    }

    /// Ack + retry with the given retransmission budget and 1-bit acks.
    pub fn retry(max_retries: u32) -> Self {
        ResilienceParams {
            max_retries,
            ack_bits: 1,
        }
    }

    /// Is the ack/retry protocol active?
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }
}

impl Default for ResilienceParams {
    fn default() -> Self {
        ResilienceParams::off()
    }
}

/// Fault counters accumulated by a [`Network`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages lost: link drops plus messages suppressed or discarded
    /// because an endpoint was crashed (acks included).
    pub dropped: u64,
    /// Extra deliveries: injected duplications plus ack-loss retransmits
    /// that re-delivered an already-delivered message.
    pub duplicated: u64,
    /// Retransmissions performed by the resilience layer.
    pub retries: u64,
    /// Node-rounds spent crashed, summed over nodes and physical rounds.
    pub crashed_rounds: u64,
}

impl FaultStats {
    /// Merge another record into this one (all fields add).
    pub fn absorb(&mut self, other: FaultStats) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.retries += other.retries;
        self.crashed_rounds += other.crashed_rounds;
    }

    /// Mirror into the unified [`WorkMeter`] accounting.
    pub fn mirror_into(&self, meter: &mut WorkMeter) {
        meter.add(keys::FAULTS_DROPPED, self.dropped);
        meter.add(keys::FAULTS_DUPLICATED, self.duplicated);
        meter.add(keys::FAULTS_RETRIES, self.retries);
        meter.add(keys::FAULTS_CRASHED_ROUNDS, self.crashed_rounds);
    }
}

impl std::fmt::Display for FaultStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} dropped, {} duplicated, {} retries, {} crashed node-rounds",
            self.dropped, self.duplicated, self.retries, self.crashed_rounds
        )
    }
}

const DROP_SALT: u64 = 0xD20F;
const DUP_SALT: u64 = 0xD0B1;
const REORDER_SALT: u64 = 0x5EED;
const CRASH_SALT: u64 = 0xC5A5;

/// A deterministic schedule of faults, built from a seed and rates.
///
/// All decisions are exposed as pure queries so tests (and the sweep
/// experiment) can inspect the schedule without running a network.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    drop: u128,
    duplicate: u128,
    reorder: u128,
    crash: u128,
    /// Length of one crash window in rounds: a node is down or up for a
    /// whole window, redrawing at every window boundary (crash/recover).
    crash_period: u64,
    /// Faults are injected only in physical rounds `1..=horizon`; later
    /// rounds deliver perfectly. A finite horizon models a bounded
    /// disruption and guarantees the retry layer eventually wins.
    horizon: u64,
    /// Nodes that are down in every round, horizon or not (sorted).
    perm_crashed: Vec<u32>,
}

impl FaultPlan {
    /// The empty plan: no faults, ever. With resilience off, a
    /// [`Network`] under this plan takes the perfect exchange loop.
    pub fn none() -> Self {
        FaultPlan::new(0, FaultRates::default())
    }

    /// Build a plan from a seed and rates. Faults apply at every round
    /// (`horizon = u64::MAX`) until bounded via [`FaultPlan::with_horizon`].
    ///
    /// # Panics
    /// Panics if any rate is not a probability in `[0, 1]` — plans are
    /// constructed programmatically; the CLI validates rates into typed
    /// errors before reaching this point.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        rates.validate();
        FaultPlan {
            seed,
            drop: threshold(rates.drop),
            duplicate: threshold(rates.duplicate),
            reorder: threshold(rates.reorder),
            crash: threshold(rates.crash),
            crash_period: 8,
            horizon: u64::MAX,
            perm_crashed: Vec::new(),
        }
    }

    /// Restrict fault injection to physical rounds `1..=horizon`.
    /// Permanently crashed nodes stay down regardless.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Set the crash window length (default 8 rounds; must be nonzero).
    pub fn with_crash_period(mut self, period: u64) -> Self {
        assert!(period > 0, "crash period must be nonzero");
        self.crash_period = period;
        self
    }

    /// Mark nodes as crashed for the whole run (never recover).
    pub fn with_crashed_nodes(mut self, nodes: impl IntoIterator<Item = u32>) -> Self {
        self.perm_crashed.extend(nodes);
        self.perm_crashed.sort_unstable();
        self.perm_crashed.dedup();
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Does this plan inject no faults at all?
    pub fn is_zero_fault(&self) -> bool {
        self.drop == 0
            && self.duplicate == 0
            && self.reorder == 0
            && self.crash == 0
            && self.perm_crashed.is_empty()
    }

    /// Can this plan ever take a node down?
    pub fn has_crashes(&self) -> bool {
        self.crash != 0 || !self.perm_crashed.is_empty()
    }

    #[inline]
    fn chance(&self, salt: u64, a: u64, b: u64, threshold: u128) -> bool {
        threshold != 0 && (hash3(self.seed, salt, a, b) as u128) < threshold
    }

    /// Is `node` down during physical round `round` (1-based)?
    pub fn is_down(&self, node: u32, round: u64) -> bool {
        if self.perm_crashed.binary_search(&node).is_ok() {
            return true;
        }
        round <= self.horizon
            && self.chance(
                CRASH_SALT,
                node as u64,
                (round - 1) / self.crash_period,
                self.crash,
            )
    }

    /// Is the message on half-edge `slot` dropped in `round`?
    pub fn message_dropped(&self, round: u64, slot: u64) -> bool {
        round <= self.horizon && self.chance(DROP_SALT, round, slot, self.drop)
    }

    /// Is the message on half-edge `slot` duplicated in `round`?
    pub fn message_duplicated(&self, round: u64, slot: u64) -> bool {
        round <= self.horizon && self.chance(DUP_SALT, round, slot, self.duplicate)
    }

    /// Shuffle `node`'s inbox for the logical round starting at physical
    /// round `round`, if the plan says so (deterministic Fisher–Yates).
    pub fn maybe_shuffle<T>(&self, round: u64, node: u32, items: &mut [T]) {
        if items.len() < 2
            || round > self.horizon
            || !self.chance(REORDER_SALT, round, node as u64, self.reorder)
        {
            return;
        }
        fisher_yates(
            hash3(self.seed, REORDER_SALT ^ 0xFF, round, node as u64),
            items,
        );
    }

    /// One kind's decisions in `round`: the key of a decision hash
    /// `hash3(seed, salt, round, x)`, whose threshold is 0 past the horizon.
    fn round_key(&self, salt: u64, round: u64, threshold: u128) -> RoundKey {
        RoundKey {
            prefix: mix(mix(self.seed ^ salt) ^ round),
            threshold: if round <= self.horizon { threshold } else { 0 },
        }
    }

    /// [`FaultPlan::message_dropped`] in `round`, keyed by the slot.
    pub(crate) fn drop_key(&self, round: u64) -> RoundKey {
        self.round_key(DROP_SALT, round, self.drop)
    }

    /// [`FaultPlan::message_duplicated`] in `round`, keyed by the slot.
    pub(crate) fn duplicate_key(&self, round: u64) -> RoundKey {
        self.round_key(DUP_SALT, round, self.duplicate)
    }

    /// [`FaultPlan::maybe_shuffle`] for the logical round starting at
    /// physical round `round`, keyed by the node.
    pub(crate) fn reorder_key(&self, round: u64) -> ReorderKey {
        ReorderKey {
            chance: self.round_key(REORDER_SALT, round, self.reorder),
            state: mix(mix(self.seed ^ (REORDER_SALT ^ 0xFF)) ^ round),
        }
    }
}

/// The fault-injecting transport's former name: a [`Network`] built with
/// [`Network::with_resilience`].
pub type FaultyNetwork<'g> = Network<'g>;

/// Shuffle `items` by Fisher–Yates, drawing from splitmix64 steps of
/// `state`.
fn fisher_yates<T>(mut state: u64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        state = mix(state);
        let j = (state % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One fault kind's decisions in one physical round. A decision hash
/// `hash3(seed, salt, round, x)` is `mix(prefix ^ x)` with the plan's and
/// the round's part folded into `prefix` once, so each decision costs one
/// splitmix round instead of three and is bit-identical to the plan's
/// query.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RoundKey {
    prefix: u64,
    threshold: u128,
}

impl RoundKey {
    /// Whether the fault hits `x` (a half-edge slot or a node). A zero
    /// threshold never hits and `2^64` always does.
    #[inline]
    pub(crate) fn hits(self, x: u64) -> bool {
        (mix(self.prefix ^ x) as u128) < self.threshold
    }
}

/// The inbox reorders of one logical round: which nodes shuffle, and the
/// prefix of their shuffles' seeds.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReorderKey {
    chance: RoundKey,
    state: u64,
}

impl ReorderKey {
    /// Shuffle `node`'s inbox as [`FaultPlan::maybe_shuffle`] does.
    pub(crate) fn shuffle<T>(self, node: u32, items: &mut [T]) {
        if items.len() >= 2 && self.chance.hits(node as u64) {
            fisher_yates(mix(self.state ^ node as u64), items);
        }
    }
}

/// The radius-`r` ball around `v` as a crash-afflicted gather delivers it:
/// crashed nodes neither forward nor reply, so they (and everything
/// reachable only through them) are absent. A down origin knows only
/// itself. Under a plan without crashes this is the plain breadth-first
/// ball.
pub(crate) fn crash_aware_ball(
    g: &CsrGraph,
    plan: &FaultPlan,
    round: u64,
    v: VertexId,
    radius: usize,
) -> Vec<VertexId> {
    let mut out = vec![v];
    if plan.is_down(v.0, round) {
        return out; // a down node knows only itself
    }
    let mut dist = std::collections::HashMap::new();
    dist.insert(v, 0usize);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(v);
    while let Some(u) = queue.pop_front() {
        let du = dist[&u];
        if du == radius {
            continue;
        }
        for w in g.neighbors(u) {
            if plan.is_down(w.0, round) {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(du + 1);
                out.push(w);
                queue.push_back(w);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Net, Outgoing};
    use sparsimatch_graph::csr::from_edges;
    use sparsimatch_graph::generators::{clique, path, star};

    fn all_broadcast(n: usize, g: &CsrGraph) -> Vec<Vec<Outgoing<u32>>> {
        (0..n)
            .map(|v| {
                let vid = VertexId::new(v);
                (0..g.degree(vid)).map(|p| (p, v as u32, 8u64)).collect()
            })
            .collect()
    }

    /// A network under `plan` with resilience off.
    fn faulty(g: &CsrGraph, plan: FaultPlan) -> Network<'_> {
        Network::with_resilience(g, plan, ResilienceParams::off())
    }

    #[test]
    fn zero_fault_plan_is_byte_identical_to_network() {
        // Every rate is positive, so exchanges take the faulty loop, but
        // a zero horizon means no fault ever fires.
        let rates = FaultRates {
            drop: 0.5,
            duplicate: 0.5,
            reorder: 0.5,
            crash: 0.5,
        };
        let g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
        let mut perfect = Network::new(&g);
        let mut silent = faulty(&g, FaultPlan::new(5, rates).with_horizon(0));
        for round in 0..4 {
            let out = all_broadcast(6, &g);
            let a = perfect.exchange(out.clone());
            let b = silent.exchange(out);
            assert_eq!(a, b, "round {round}: inboxes must match exactly");
            assert_eq!(perfect.metrics(), silent.metrics());
        }
        perfect.charge_gather(3, 16);
        silent.charge_gather(3, 16);
        assert_eq!(perfect.metrics(), silent.metrics());
        for v in 0..6 {
            assert_eq!(perfect.ball(VertexId(v), 2), silent.ball(VertexId(v), 2));
        }
        assert_eq!(silent.fault_stats(), FaultStats::default());
    }

    #[test]
    fn drop_rate_one_loses_everything_without_resilience() {
        let g = star(5);
        let rates = FaultRates {
            drop: 1.0,
            ..Default::default()
        };
        let mut net = faulty(&g, FaultPlan::new(3, rates));
        let inboxes = net.exchange(all_broadcast(5, &g));
        assert!(inboxes.iter().all(|i| i.is_empty()));
        // Sends are still counted: the work happened, delivery failed.
        assert_eq!(net.metrics().messages, 8);
        assert_eq!(net.fault_stats().dropped, 8);
        assert!(!net.lossless());
    }

    #[test]
    fn retry_past_the_horizon_recovers_every_message() {
        // drop = 1 inside the horizon, perfect after: attempt 1 (round 1)
        // loses all 8 messages, attempt 2 (round 3) delivers and acks all.
        // The largest retry budget stops at the same point.
        let g = star(5);
        let rates = FaultRates {
            drop: 1.0,
            ..Default::default()
        };
        for retries in [2, u32::MAX] {
            let plan = FaultPlan::new(7, rates).with_horizon(1);
            let mut net = Network::with_resilience(&g, plan, ResilienceParams::retry(retries));
            let inboxes = net.exchange(all_broadcast(5, &g));
            let delivered: usize = inboxes.iter().map(|i| i.len()).sum();
            assert_eq!(delivered, 8, "retry({retries}): all messages recovered");
            let stats = net.fault_stats();
            assert_eq!(
                stats.dropped, 8,
                "retry({retries}): first attempt lost all 8"
            );
            assert_eq!(
                stats.retries, 8,
                "retry({retries}): all 8 retransmitted once"
            );
            assert_eq!(stats.duplicated, 0);
            // Rounds: send + ack, retry send + ack.
            assert_eq!(net.metrics().rounds, 4, "retry({retries})");
        }
    }

    #[test]
    fn duplication_rate_one_doubles_every_delivery() {
        let g = path(3);
        let rates = FaultRates {
            duplicate: 1.0,
            ..Default::default()
        };
        let mut net = faulty(&g, FaultPlan::new(1, rates));
        let inboxes = net.exchange(all_broadcast(3, &g));
        let delivered: usize = inboxes.iter().map(|i| i.len()).sum();
        assert_eq!(delivered, 8, "4 half-edge messages, each doubled");
        assert_eq!(net.fault_stats().duplicated, 4);
        // Duplicates carry the same in-port and payload.
        assert_eq!(inboxes[0].len(), 2);
        assert_eq!(inboxes[0][0], inboxes[0][1]);
    }

    #[test]
    fn permanently_crashed_nodes_neither_send_nor_receive() {
        let g = star(4); // center 0, leaves 1..=3
        let plan = FaultPlan::none().with_crashed_nodes([1]);
        let mut net = faulty(&g, plan);
        let inboxes = net.exchange(all_broadcast(4, &g));
        // Leaf 1's message to the center is suppressed; the center's
        // message to leaf 1 is lost in transit.
        assert_eq!(inboxes[0].len(), 2, "center hears leaves 2 and 3 only");
        assert!(inboxes[1].is_empty(), "crashed leaf receives nothing");
        assert_eq!(inboxes[2].len(), 1);
        assert_eq!(net.fault_stats().dropped, 2);
        assert_eq!(net.fault_stats().crashed_rounds, 1);
        assert!(net.plan().is_down(1, 999), "permanent means permanent");
    }

    #[test]
    fn crashed_nodes_vanish_from_gathered_balls() {
        let g = path(5); // 0-1-2-3-4
        let plan = FaultPlan::none().with_crashed_nodes([2]);
        let mut net = faulty(&g, plan);
        net.charge_gather(4, 8);
        let ball: Vec<u32> = net.ball(VertexId(0), 4).into_iter().map(|v| v.0).collect();
        // Vertex 2 is down, so 3 and 4 are unreachable too.
        assert_eq!(ball, vec![0, 1]);
        let own: Vec<u32> = net.ball(VertexId(2), 4).into_iter().map(|v| v.0).collect();
        assert_eq!(own, vec![2], "a down node knows only itself");
    }

    #[test]
    fn reorder_shuffles_deterministically_and_preserves_content() {
        let g = clique(6);
        let rates = FaultRates {
            reorder: 1.0,
            ..Default::default()
        };
        let run = || {
            let mut net = faulty(&g, FaultPlan::new(11, rates));
            net.exchange(all_broadcast(6, &g))
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same (seed, plan) => same shuffles");
        // Same multiset as the perfect network, different order somewhere.
        let mut perfect = Network::new(&g);
        let p = perfect.exchange(all_broadcast(6, &g));
        let mut any_reordered = false;
        for v in 0..6 {
            let mut sa = a[v].clone();
            let mut sp = p[v].clone();
            if sa != sp {
                any_reordered = true;
            }
            sa.sort_unstable();
            sp.sort_unstable();
            assert_eq!(sa, sp, "reordering must not lose or invent messages");
        }
        assert!(any_reordered, "rate-1 reorder should shuffle something");
    }

    #[test]
    fn crash_windows_recover() {
        // With a moderate crash rate and 1-round windows, some node must
        // be observed both down and up across a long schedule.
        let plan = FaultPlan::new(5, {
            FaultRates {
                crash: 0.3,
                ..Default::default()
            }
        })
        .with_crash_period(1);
        let mut saw_down = false;
        let mut saw_flip = false;
        for node in 0..8u32 {
            let mut prev = None;
            for round in 1..=64u64 {
                let down = plan.is_down(node, round);
                saw_down |= down;
                if let Some(p) = prev {
                    saw_flip |= p != down;
                }
                prev = Some(down);
            }
        }
        assert!(saw_down, "crash rate 0.3 over 8x64 node-rounds hits");
        assert!(saw_flip, "windows must recover, not stick");
    }

    #[test]
    fn fault_decisions_respect_the_horizon() {
        let rates = FaultRates {
            drop: 1.0,
            duplicate: 1.0,
            reorder: 1.0,
            crash: 1.0,
        };
        let plan = FaultPlan::new(9, rates).with_horizon(5);
        assert!(plan.message_dropped(5, 0));
        assert!(!plan.message_dropped(6, 0));
        assert!(plan.message_duplicated(5, 3));
        assert!(!plan.message_duplicated(6, 3));
        assert!(plan.is_down(5, 5));
        assert!(!plan.is_down(5, 6));
        let mut items = vec![1, 2, 3];
        plan.maybe_shuffle(6, 0, &mut items);
        assert_eq!(items, vec![1, 2, 3], "no reordering past the horizon");
    }

    #[test]
    fn round_keys_decide_exactly_as_the_plan_queries() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xFA17);
        let rate = |rng: &mut StdRng| match rng.random_range(0..4u32) {
            0 => 0.0,
            1 => 1.0,
            2 => 0.25,
            _ => rng.random::<f64>(),
        };
        for case in 0..96 {
            let rates = FaultRates {
                drop: rate(&mut rng),
                duplicate: rate(&mut rng),
                reorder: rate(&mut rng),
                crash: 0.0,
            };
            let bounded = case % 4 != 0;
            let horizon = if bounded {
                rng.random_range(0..12u64)
            } else {
                u64::MAX
            };
            let plan = FaultPlan::new(rng.random(), rates).with_horizon(horizon);
            let last = if bounded { horizon + 2 } else { 24 };
            for round in 1..=last {
                let (drop, dup) = (plan.drop_key(round), plan.duplicate_key(round));
                let reorder = plan.reorder_key(round);
                for _ in 0..24 {
                    let slot = u64::from(rng.random::<u32>() >> rng.random_range(0..32u32));
                    assert_eq!(drop.hits(slot), plan.message_dropped(round, slot));
                    assert_eq!(dup.hits(slot), plan.message_duplicated(round, slot));
                    let node = rng.random::<u32>() >> rng.random_range(0..32u32);
                    let len = rng.random_range(0..10usize);
                    let mut by_plan: Vec<usize> = (0..len).collect();
                    let mut by_key = by_plan.clone();
                    plan.maybe_shuffle(round, node, &mut by_plan);
                    reorder.shuffle(node, &mut by_key);
                    assert_eq!(by_plan, by_key, "case {case}, round {round}, node {node}");
                }
            }
        }
    }

    #[test]
    fn stats_absorb_and_mirror() {
        let mut a = FaultStats {
            dropped: 1,
            duplicated: 2,
            retries: 3,
            crashed_rounds: 4,
        };
        a.absorb(FaultStats {
            dropped: 10,
            duplicated: 20,
            retries: 30,
            crashed_rounds: 40,
        });
        let mut meter = WorkMeter::new();
        a.mirror_into(&mut meter);
        assert_eq!(meter.get(keys::FAULTS_DROPPED), 11);
        assert_eq!(meter.get(keys::FAULTS_DUPLICATED), 22);
        assert_eq!(meter.get(keys::FAULTS_RETRIES), 33);
        assert_eq!(meter.get(keys::FAULTS_CRASHED_ROUNDS), 44);
        assert_eq!(
            a.to_string(),
            "11 dropped, 22 duplicated, 33 retries, 44 crashed node-rounds"
        );
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn non_probability_rates_are_rejected() {
        let _ = FaultPlan::new(0, {
            FaultRates {
                drop: f64::NAN,
                ..Default::default()
            }
        });
    }
}

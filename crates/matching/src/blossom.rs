//! Edmonds' blossom algorithm: exact maximum matching in general graphs.
//!
//! This is the workspace's ground truth — every sparsifier approximation
//! claim is audited against it. The implementation is the classic
//! array-based formulation (alternating BFS tree with blossom contraction
//! by base relabeling). A search costs what it touches: the half-edges it
//! scans, an undo of the previous search's forest linear in that
//! forest's size (a whole-array fill once the forest holds an eighth of
//! the vertices, which that share pays for), and per contraction the
//! members of the blossoms it merges, which each base keeps in a list.
//! Only [`BlossomSearcher::reset_from`] and the first forest phase after
//! it, which lists the free vertices, are linear in n. A search that
//! contracts deeply nested blossoms can still relabel O(n) vertices per
//! contraction, so the worst case stays O(n·m) per augmentation.
//!
//! The search supports a **depth cap**: expansion stops at alternating
//! distance `cap` from the root, so a search that fails with cap `2k−1`
//! certifies there is no augmenting path of length ≤ 2k−1 from that root
//! (blossom contraction can only shorten alternating reachability, and the
//! cap is applied to the contracted distance, an underestimate of the true
//! path length). This is exactly the primitive the `(1+1/k)`-approximation
//! of [`crate::bounded_aug`] needs.

use crate::matching::Matching;
use sparsimatch_graph::bitset::BitSet;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::VertexId;
use std::collections::VecDeque;

const NONE: u32 = u32::MAX;

/// A search whose forest holds at least `1 / FILL_SHARE` of the vertices
/// is undone by two sequential fills (`parent`, `even`) instead of vertex
/// by vertex. Set on the certification sweeps of unbalanced
/// `bipartite_gnp` 6000×4000 (forests of ~3/4 of the vertices) and
/// `power_law(20 000, 3)` (~1/5): without the fill they ran up to 4–5%
/// slower than refilling every array per search, with it no slower;
/// shares of 1/16 and 1/32 measured within noise of 1/8 (CHANGES.md).
const FILL_SHARE: usize = 8;

/// Reusable buffers for repeated augmenting-path searches on one graph.
///
/// Every search between two [`BlossomSearcher::reset_from`] calls must
/// run on the same graph. A search leaves its forest in place and the
/// next one undoes it first, through the list of vertices it added.
/// The per-vertex boolean overlays (even-level marks, blossom
/// membership, LCA marks, retired trees) are bit-packed [`BitSet`]s.
/// A warm [`BlossomSearcher::reset_from`] stays allocation-free, and so
/// does every search after it.
pub struct BlossomSearcher {
    mate: Vec<u32>,
    parent: Vec<u32>,
    base: Vec<u32>,
    /// The next member of the same blossom, `NONE` at the end; a
    /// blossom's list starts at its base.
    link: Vec<u32>,
    even: BitSet,
    in_blossom: BitSet,
    lca_mark: BitSet,
    /// Alternating depth of each even vertex, written when it turns even.
    depth: Vec<u32>,
    /// Tree root of each even vertex, written when it turns even
    /// (multi-source search only).
    root: Vec<u32>,
    /// Trees whose root was consumed by an augmentation in the current
    /// forest phase (multi-source search only), keyed by root vertex and
    /// cleared through the root list when the phase ends.
    retired: BitSet,
    queue: VecDeque<u32>,
    /// The vertices the last search added to its forest: the only ones
    /// whose `parent` and `even` entries differ from their reset values.
    touched: Vec<u32>,
    /// The vertices whose `base` or `link` the last search's contractions
    /// changed, each listed once: a singleton blossom's base when its
    /// list first grows or it is first merged into another.
    merged: Vec<u32>,
    /// The bases one contraction marks, in `lca_mark` and then in
    /// `in_blossom`, whose bits are cleared through this list.
    marked: Vec<u32>,
    /// The vertices one contraction turns even, queued in ascending id.
    fresh: Vec<u32>,
    /// The free vertices with an edge, in ascending id: built by the
    /// first forest phase after `reset_from` and filtered by each one
    /// after it, since a matched vertex never becomes free again.
    free: Vec<u32>,
    free_listed: bool,
    /// Half-edges examined across all searches — the machine-independent
    /// work measure used by the dynamic scheme's budget accounting.
    work: u64,
    /// Blossoms contracted across all searches.
    contractions: u64,
}

impl BlossomSearcher {
    /// A searcher starting from the given matching.
    pub fn new(matching: &Matching) -> Self {
        let mut s = BlossomSearcher {
            mate: Vec::new(),
            parent: Vec::new(),
            base: Vec::new(),
            link: Vec::new(),
            even: BitSet::new(),
            in_blossom: BitSet::new(),
            lca_mark: BitSet::new(),
            depth: Vec::new(),
            root: Vec::new(),
            retired: BitSet::new(),
            queue: VecDeque::new(),
            touched: Vec::new(),
            merged: Vec::new(),
            marked: Vec::new(),
            fresh: Vec::new(),
            free: Vec::new(),
            free_listed: false,
            work: 0,
            contractions: 0,
        };
        s.reset_from(matching);
        s
    }

    /// Re-initialize from `matching`, reusing every buffer's capacity.
    /// Equivalent to `*self = BlossomSearcher::new(matching)` but
    /// allocation-free once the buffers have grown to the vertex count —
    /// `work` and `contractions` restart at zero, so searches on a
    /// recycled searcher report exactly the counts a fresh one would.
    pub fn reset_from(&mut self, matching: &Matching) {
        let n = matching.num_vertices();
        self.mate.clear();
        self.mate.resize(n, NONE);
        for (u, v) in matching.pairs() {
            self.mate[u.index()] = v.0;
            self.mate[v.index()] = u.0;
        }
        self.parent.clear();
        self.parent.resize(n, NONE);
        self.base.clear();
        self.base.extend(0..n as u32);
        self.link.clear();
        self.link.resize(n, NONE);
        self.even.clear_and_resize(n);
        self.in_blossom.clear_and_resize(n);
        self.lca_mark.clear_and_resize(n);
        self.depth.clear();
        self.depth.resize(n, 0);
        self.root.clear();
        self.root.resize(n, NONE);
        self.retired.clear_and_resize(n);
        self.queue.clear();
        // Each list holds a vertex at most once, so capacity n is enough
        // for every search to come.
        for list in [
            &mut self.touched,
            &mut self.merged,
            &mut self.marked,
            &mut self.fresh,
            &mut self.free,
        ] {
            list.clear();
            list.reserve(n);
        }
        self.free_listed = false;
        self.work = 0;
        self.contractions = 0;
    }

    /// Half-edges examined so far (monotone across searches).
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Blossoms contracted so far (monotone across searches).
    pub fn contractions(&self) -> u64 {
        self.contractions
    }

    /// Heap bytes of buffer capacity currently held. Feeds the scratch
    /// arenas' high-water accounting; an estimate (element sizes, not
    /// allocator overhead).
    pub fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.mate.capacity()
            + self.parent.capacity()
            + self.base.capacity()
            + self.link.capacity()
            + self.depth.capacity()
            + self.root.capacity()
            + self.queue.capacity()
            + self.touched.capacity()
            + self.merged.capacity()
            + self.marked.capacity()
            + self.fresh.capacity()
            + self.free.capacity())
            * size_of::<u32>()
            + self.even.capacity_bytes()
            + self.in_blossom.capacity_bytes()
            + self.lca_mark.capacity_bytes()
            + self.retired.capacity_bytes()
    }

    /// Extract the current matching.
    pub fn into_matching(self) -> Matching {
        let mut m = Matching::new(self.mate.len());
        self.write_matching_into(&mut m);
        m
    }

    /// Write the current matching into a caller-owned `Matching`,
    /// resetting it to this searcher's vertex count first. The
    /// non-consuming [`BlossomSearcher::into_matching`]: allocation-free
    /// once `out` has capacity, and produces the identical matching.
    pub fn write_matching_into(&self, out: &mut Matching) {
        out.reset(self.mate.len());
        for (u, &v) in self.mate.iter().enumerate() {
            if v != NONE && (u as u32) < v {
                out.add_pair(VertexId::new(u), VertexId(v));
            }
        }
    }

    /// Current matching size.
    pub fn matching_size(&self) -> usize {
        self.mate.iter().filter(|&&m| m != NONE).count() / 2
    }

    #[inline]
    fn is_free(&self, v: u32) -> bool {
        self.mate[v as usize] == NONE
    }

    /// Whether `v` is free in the searcher's current matching.
    #[inline]
    pub fn is_free_vertex(&self, v: VertexId) -> bool {
        self.is_free(v.0)
    }

    /// Undo the last search's forest: every vertex it added gets its
    /// reset `parent` and `even` entries back, one by one, or by
    /// whole-array fills once the forest holds [`FILL_SHARE`]'s share of
    /// the vertices; every vertex its contractions merged gets its own
    /// `base` and an empty `link` back.
    fn clear_forest(&mut self) {
        if self.touched.len() * FILL_SHARE >= self.mate.len() {
            self.parent.fill(NONE);
            self.even.clear_all();
        } else {
            for &v in &self.touched {
                self.parent[v as usize] = NONE;
                self.even.remove(v as usize);
            }
        }
        for &v in &self.merged {
            self.base[v as usize] = v;
            self.link[v as usize] = NONE;
        }
        self.touched.clear();
        self.merged.clear();
        self.queue.clear();
    }

    /// Search for an augmenting path from `root` whose *contracted*
    /// alternating length is at most `cap` edges; flip it if found.
    ///
    /// `cap = u32::MAX` gives the unrestricted exact search.
    pub fn try_augment(&mut self, g: &CsrGraph, root: VertexId, cap: u32) -> bool {
        debug_assert!(self.is_free(root.0));
        self.clear_forest();
        self.even.set(root.index());
        self.depth[root.index()] = 0;
        self.touched.push(root.0);
        self.queue.push_back(root.0);

        while let Some(v) = self.queue.pop_front() {
            let dv = self.depth[v as usize];
            if dv + 1 > cap {
                continue; // cannot extend by even one edge within the cap
            }
            let deg = g.degree(VertexId(v));
            self.work += deg as u64;
            for i in 0..deg {
                let to = g.neighbor(VertexId(v), i).0;
                if self.base[v as usize] == self.base[to as usize] || self.mate[v as usize] == to {
                    continue;
                }
                let to_is_even = to == root.0
                    || (self.mate[to as usize] != NONE
                        && self.parent[self.mate[to as usize] as usize] != NONE);
                if to_is_even {
                    // Even-even edge closes an odd cycle: contract blossom.
                    self.contract(v, to, root.0);
                } else if self.parent[to as usize] == NONE {
                    self.parent[to as usize] = v;
                    self.touched.push(to);
                    if self.mate[to as usize] == NONE {
                        self.augment_to(to);
                        return true;
                    }
                    let w = self.mate[to as usize];
                    self.even.set(w as usize);
                    self.depth[w as usize] = dv + 2;
                    self.touched.push(w);
                    self.queue.push_back(w);
                }
            }
        }
        false
    }

    /// One Hopcroft–Karp-shaped forest *phase*: grow alternating trees
    /// from all free vertices, and whenever a cross-tree even–even edge
    /// closes an augmenting path, flip it, retire the two trees it
    /// consumed, and keep searching the surviving forest. One call costs
    /// O(m·α) and flips a set of vertex-disjoint augmenting paths —
    /// returning how many — so reaching a path-free state costs
    /// O(phases·m) instead of O(augmentations·m). (Retiring a tree can
    /// strand odd vertices it had claimed, so a phase is not guaranteed
    /// maximal; callers re-run until a phase returns 0.) A phase with no
    /// free vertex left returns 0 at once.
    pub fn augment_phase(&mut self, g: &CsrGraph, cap: u32) -> usize {
        if self.free_listed {
            let mate = &self.mate;
            self.free.retain(|&v| mate[v as usize] == NONE);
        } else {
            let mate = &self.mate;
            let roots = (0..g.num_vertices() as u32)
                .filter(|&v| mate[v as usize] == NONE && g.degree(VertexId(v)) > 0);
            self.free.extend(roots);
            self.free_listed = true;
        }
        if self.free.is_empty() {
            return 0;
        }
        self.clear_forest();
        for &v in &self.free {
            self.even.set(v as usize);
            self.root[v as usize] = v;
            self.depth[v as usize] = 0;
            self.queue.push_back(v);
        }
        self.touched.extend_from_slice(&self.free);
        let mut flipped = 0usize;
        'scan: while let Some(v) = self.queue.pop_front() {
            let dv = self.depth[v as usize];
            if dv + 1 > cap {
                continue;
            }
            let rv = self.root[v as usize];
            if self.retired.get(rv as usize) {
                continue;
            }
            let deg = g.degree(VertexId(v));
            self.work += deg as u64;
            for i in 0..deg {
                let to = g.neighbor(VertexId(v), i).0;
                if self.base[v as usize] == self.base[to as usize] || self.mate[v as usize] == to {
                    continue;
                }
                if self.even.get(to as usize) {
                    let rto = self.root[to as usize];
                    if rto == rv {
                        // Same tree: odd cycle, contract the blossom.
                        self.contract(v, to, rv);
                    } else if !self.retired.get(rto as usize) {
                        // Cross-tree even–even edge between live trees:
                        // augmenting path root(v) ⇝ v — to ⇝ root(to).
                        // Flip both halves and retire both trees; their
                        // parent structure is now stale, so later pops
                        // and edges into them are skipped above.
                        self.flip_to_free(v);
                        self.flip_to_free(to);
                        self.mate[v as usize] = to;
                        self.mate[to as usize] = v;
                        self.retired.set(rv as usize);
                        self.retired.set(rto as usize);
                        flipped += 1;
                        // v's own tree is retired: stop expanding it.
                        continue 'scan;
                    }
                } else if self.parent[to as usize] == NONE && self.mate[to as usize] != NONE {
                    self.parent[to as usize] = v;
                    self.touched.push(to);
                    let w = self.mate[to as usize];
                    if !self.even.get(w as usize) {
                        self.even.set(w as usize);
                        self.root[w as usize] = rv;
                        self.depth[w as usize] = dv + 2;
                        self.touched.push(w);
                        self.queue.push_back(w);
                    }
                }
            }
        }
        for &v in &self.free {
            self.retired.remove(v as usize);
        }
        flipped
    }

    /// Contract the blossom that the even–even edge `v`–`to` of tree
    /// `tree` closes: every member of a blossom on the two tree paths up
    /// to their lowest common base takes that base, and the members that
    /// were odd turn even and are queued in ascending id.
    fn contract(&mut self, v: u32, to: u32, tree: u32) {
        self.contractions += 1;
        let cur_base = self.lowest_common_ancestor(v, to);
        self.mark_path(v, cur_base, to);
        self.mark_path(to, cur_base, v);
        let base_depth = self.depth[cur_base as usize];
        // Only a singleton blossom has an empty list; every other vertex
        // this merge changes was listed when its blossom first grew.
        if self.link[cur_base as usize] == NONE {
            self.merged.push(cur_base);
        }
        for k in 0..self.marked.len() {
            let b = self.marked[k];
            self.in_blossom.remove(b as usize);
            // The paths stop below the common base, so its own blossom,
            // whose members are all even, is never marked.
            debug_assert_ne!(b, cur_base);
            if self.link[b as usize] == NONE {
                self.merged.push(b);
            }
            let mut last = b;
            let mut x = b;
            while x != NONE {
                self.base[x as usize] = cur_base;
                if !self.even.get(x as usize) {
                    self.even.set(x as usize);
                    self.root[x as usize] = tree;
                    // Conservative depth: contraction shortens paths, so
                    // inherit the base's depth.
                    self.depth[x as usize] = base_depth;
                    self.fresh.push(x);
                }
                last = x;
                x = self.link[x as usize];
            }
            self.link[last as usize] = self.link[cur_base as usize];
            self.link[cur_base as usize] = b;
        }
        self.marked.clear();
        self.fresh.sort_unstable();
        self.queue.extend(self.fresh.drain(..));
    }

    /// Flip the alternating tree path from even vertex `x` up to its root,
    /// leaving `x` temporarily free (its caller re-mates it across the
    /// cross edge). Walks the same parent structure as [`Self::augment_to`],
    /// so it is blossom-safe.
    fn flip_to_free(&mut self, x: u32) {
        let y = self.mate[x as usize];
        self.mate[x as usize] = NONE;
        if y != NONE {
            self.mate[y as usize] = NONE;
            self.augment_to(y);
        }
    }

    /// Walk `v` up to the blossom base `b`, marking blossom members and
    /// installing cross parent-pointers so odd vertices become traversable.
    fn mark_path(&mut self, mut v: u32, b: u32, mut child: u32) {
        while self.base[v as usize] != b {
            self.mark_blossom(self.base[v as usize]);
            let mv = self.mate[v as usize];
            self.mark_blossom(self.base[mv as usize]);
            self.parent[v as usize] = child;
            child = mv;
            v = self.parent[mv as usize];
        }
    }

    fn mark_blossom(&mut self, b: u32) {
        if !self.in_blossom.get(b as usize) {
            self.in_blossom.set(b as usize);
            self.marked.push(b);
        }
    }

    fn lowest_common_ancestor(&mut self, a: u32, b: u32) -> u32 {
        let mut a = self.base[a as usize];
        loop {
            self.lca_mark.set(a as usize);
            self.marked.push(a);
            if self.mate[a as usize] == NONE {
                break;
            }
            a = self.base[self.parent[self.mate[a as usize] as usize] as usize];
        }
        let mut b = self.base[b as usize];
        while !self.lca_mark.get(b as usize) {
            b = self.base[self.parent[self.mate[b as usize] as usize] as usize];
        }
        for &x in &self.marked {
            self.lca_mark.remove(x as usize);
        }
        self.marked.clear();
        b
    }

    /// Flip the alternating path ending at the free vertex `v` (walking the
    /// parent pointers back to the root).
    fn augment_to(&mut self, mut v: u32) {
        while v != NONE {
            let pv = self.parent[v as usize];
            let ppv = self.mate[pv as usize];
            self.mate[v as usize] = pv;
            self.mate[pv as usize] = v;
            v = ppv;
        }
    }
}

/// Exact maximum cardinality matching via Edmonds' algorithm, initialized
/// with a greedy maximal matching.
///
/// ```
/// use sparsimatch_graph::generators::cycle;
/// use sparsimatch_matching::blossom::maximum_matching;
///
/// // Odd cycles need blossom handling: MCM(C9) = 4.
/// let m = maximum_matching(&cycle(9));
/// assert_eq!(m.len(), 4);
/// ```
pub fn maximum_matching(g: &CsrGraph) -> Matching {
    let init = crate::greedy::greedy_maximal_matching(g);
    maximum_matching_from(g, init)
}

/// Exact maximum matching, growing a caller-supplied initial matching.
pub fn maximum_matching_from(g: &CsrGraph, init: Matching) -> Matching {
    let n = g.num_vertices();
    let mut searcher = BlossomSearcher::new(&init);
    // Classic fact: if no augmenting path starts at a free vertex v, later
    // augmentations cannot create one, so a single pass over roots suffices.
    for v in 0..n as u32 {
        if searcher.is_free(v) && g.degree(VertexId(v)) > 0 {
            searcher.try_augment(g, VertexId(v), u32::MAX);
        }
    }
    let m = searcher.into_matching();
    debug_assert!(m.is_valid_for(g));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::csr::from_edges;
    use sparsimatch_graph::generators::{
        clique, complete_bipartite, cycle, gnp, path, star, two_cliques_bridge,
    };

    #[test]
    fn path_mcm() {
        assert_eq!(maximum_matching(&path(7)).len(), 3);
        assert_eq!(maximum_matching(&path(8)).len(), 4);
    }

    #[test]
    fn cycles() {
        assert_eq!(maximum_matching(&cycle(6)).len(), 3);
        assert_eq!(maximum_matching(&cycle(7)).len(), 3, "odd cycle");
    }

    #[test]
    fn cliques() {
        assert_eq!(maximum_matching(&clique(6)).len(), 3);
        assert_eq!(maximum_matching(&clique(7)).len(), 3);
    }

    #[test]
    fn star_is_one() {
        assert_eq!(maximum_matching(&star(10)).len(), 1);
    }

    #[test]
    fn bipartite_agrees_with_hopcroft_karp() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..15 {
            let g = sparsimatch_graph::generators::bipartite_gnp(15, 18, 0.15, &mut rng);
            let hk = crate::hopcroft_karp::hopcroft_karp_auto(&g).expect("bipartite");
            let bl = maximum_matching(&g);
            assert_eq!(bl.len(), hk.len());
            assert!(bl.is_valid_for(&g));
        }
    }

    #[test]
    fn petersen_graph() {
        // Petersen graph has a perfect matching (size 5).
        let g = from_edges(
            10,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0), // outer cycle
                (5, 7),
                (7, 9),
                (9, 6),
                (6, 8),
                (8, 5), // inner pentagram
                (0, 5),
                (1, 6),
                (2, 7),
                (3, 8),
                (4, 9), // spokes
            ],
        );
        assert_eq!(maximum_matching(&g).len(), 5);
    }

    #[test]
    fn blossom_requiring_instance() {
        // Two triangles joined by a path: needs blossom handling.
        // Triangle A: 0-1-2, triangle B: 4-5-6, bridge 2-3, 3-4.
        let g = from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
            ],
        );
        assert_eq!(maximum_matching(&g).len(), 3);
    }

    #[test]
    fn bridge_instance_forced_edge() {
        let (g, (a, b)) = two_cliques_bridge(7);
        let m = maximum_matching(&g);
        assert_eq!(m.len(), 7);
        assert_eq!(m.mate(a), Some(b), "perfect matching must use the bridge");
    }

    #[test]
    fn complete_bipartite_mcm() {
        assert_eq!(maximum_matching(&complete_bipartite(4, 9)).len(), 4);
    }

    #[test]
    fn random_graphs_vs_flow_based_count() {
        // Cross-check sizes against an independent brute-force (exponential)
        // on tiny graphs.
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..25 {
            let g = gnp(11, 0.3, &mut rng);
            let fast = maximum_matching(&g).len();
            let brute = brute_force_mcm(&g);
            assert_eq!(fast, brute);
        }
    }

    fn brute_force_mcm(g: &CsrGraph) -> usize {
        let edges: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        fn rec(edges: &[(u32, u32)], used: &mut u64, i: usize) -> usize {
            if i == edges.len() {
                return 0;
            }
            let skip = rec(edges, used, i + 1);
            let (u, v) = edges[i];
            let mask = (1u64 << u) | (1u64 << v);
            if *used & mask == 0 {
                *used |= mask;
                let take = 1 + rec(edges, used, i + 1);
                *used &= !mask;
                skip.max(take)
            } else {
                skip
            }
        }
        rec(&edges, &mut 0u64, 0)
    }

    #[test]
    fn maximum_matching_from_preserves_validity() {
        let g = cycle(9);
        let init = Matching::from_pairs(9, [(VertexId(0), VertexId(1))]);
        let m = maximum_matching_from(&g, init);
        assert_eq!(m.len(), 4);
        assert!(m.is_valid_for(&g));
    }

    #[test]
    fn capped_search_finds_short_paths_only() {
        // Path of 5 edges: 0-1-2-3-4-5 with matching {1-2, 3-4}: the only
        // augmenting path is the full length-5 path.
        let g = path(6);
        let m = Matching::from_pairs(6, [(VertexId(1), VertexId(2)), (VertexId(3), VertexId(4))]);
        let mut s = BlossomSearcher::new(&m);
        assert!(!s.try_augment(&g, VertexId(0), 3), "no path of length ≤ 3");
        assert!(s.try_augment(&g, VertexId(0), 5), "length-5 path exists");
        assert_eq!(s.matching_size(), 3);
    }

    #[test]
    fn reset_from_equals_fresh_searcher() {
        let g = cycle(9);
        let init = crate::greedy::greedy_maximal_matching(&g);
        let mut recycled = BlossomSearcher::new(&Matching::new(3));
        // Dirty the recycled searcher on an unrelated graph first.
        recycled.augment_phase(&path(3), u32::MAX);
        recycled.reset_from(&init);
        let mut fresh = BlossomSearcher::new(&init);
        for v in 0..9u32 {
            let v = VertexId(v);
            if fresh.is_free_vertex(v) {
                assert_eq!(
                    fresh.try_augment(&g, v, u32::MAX),
                    recycled.try_augment(&g, v, u32::MAX),
                    "vertex {}",
                    v.0
                );
            }
        }
        assert_eq!(fresh.work(), recycled.work(), "work counters must agree");
        let mut out = Matching::new(0);
        recycled.write_matching_into(&mut out);
        assert_eq!(fresh.into_matching(), out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn augment_phase_flips_disjoint_paths_in_one_pass() {
        // Five disjoint edges, empty matching: one forest phase must flip
        // all five (the whole point of phases vs one flip per O(m) scan).
        let g = from_edges(10, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]);
        let mut s = BlossomSearcher::new(&Matching::new(10));
        assert_eq!(s.augment_phase(&g, 1), 5);
        assert_eq!(s.matching_size(), 5);
        assert_eq!(s.augment_phase(&g, u32::MAX), 0, "already maximum");
    }

    #[test]
    fn phased_elimination_reaches_maximum_on_dense_unions() {
        use sparsimatch_graph::generators::{clique_union, CliqueUnionConfig};
        let mut rng = StdRng::seed_from_u64(77);
        let g = clique_union(
            CliqueUnionConfig {
                n: 240,
                diversity: 2,
                clique_size: 16,
            },
            &mut rng,
        );
        let exact = maximum_matching(&g).len();
        let mut m = crate::greedy::greedy_maximal_matching(&g);
        crate::bounded_aug::eliminate_augmenting_paths_up_to(&g, &mut m, 17);
        assert!(m.is_valid_for(&g));
        // eps_stage = 0.12 ⇒ k = 9: |m| ≥ 9/10 · MCM.
        assert!(m.len() * 10 >= exact * 9, "{} vs {exact}", m.len());
    }

    #[test]
    fn capped_search_through_blossom() {
        // Odd cycle C5 with matching {1-2, 3-4}: augmenting from 0 requires
        // going around; the blossom machinery must still respect the cap
        // conservatively (find the path with a generous cap).
        let g = cycle(5);
        let m = Matching::from_pairs(5, [(VertexId(1), VertexId(2)), (VertexId(3), VertexId(4))]);
        let mut s = BlossomSearcher::new(&m);
        // 0 is free but both neighbors are matched; no augmenting path at
        // all (M is maximum in C5).
        assert!(!s.try_augment(&g, VertexId(0), u32::MAX));
    }
}

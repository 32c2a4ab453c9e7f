//! Coupling-graph topology of a quantum chip.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::link::{Link, LinkPair};

/// The undirected coupling graph of a device.
///
/// Stores the canonical link list with its position index (shared by
/// reference count with every [`Calibration`](crate::Calibration) made
/// for the topology), the adjacency in compressed rows (row starts plus
/// one neighbour array, each row ascending), the all-pairs BFS hop
/// counts as one `n × n` array, and the one-hop link relation in
/// compressed rows, which the mapper, partitioner and merge query
/// heavily. Everything but the link list is derived from it, so two
/// topologies are equal exactly when their qubit counts and links are.
///
/// ```
/// use qucp_device::Topology;
/// let t = Topology::line(4);
/// assert_eq!(t.distance(0, 3), 3);
/// assert!(t.has_link(1, 2));
/// assert!(t.is_connected_subset(&[1, 2, 3]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    links: Arc<LinkIndex>,
    /// `neighbours[row[q]..row[q + 1]]` are the neighbours of `q`.
    row: Vec<usize>,
    neighbours: Vec<usize>,
    /// `distance[a * n + b]`.
    distance: Vec<usize>,
    /// `one_hop[hop_row[i]..hop_row[i + 1]]` are the links one hop from
    /// link `i` that share no qubit with it, ascending.
    hop_row: Vec<usize>,
    one_hop: Vec<Link>,
}

/// A topology's canonical link list and where each link sits in it: the
/// links of lower endpoint `q` are `links[first[q]..first[q + 1]]`,
/// ascending by higher endpoint. A per-link table (a calibration's CNOT
/// errors and durations) stores its entries in this order and finds a
/// link's entry with [`LinkIndex::position`], a scan of one short run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LinkIndex {
    links: Vec<Link>,
    first: Vec<usize>,
}

impl LinkIndex {
    /// The index of `links`, canonical (sorted, no duplicates), on `n`
    /// qubits.
    fn new(n: usize, links: Vec<Link>) -> Self {
        let mut first = vec![0; n + 1];
        for l in &links {
            first[l.low() + 1] += 1;
        }
        for q in 0..n {
            first[q + 1] += first[q];
        }
        LinkIndex { links, first }
    }

    /// The links, in canonical order.
    pub(crate) fn links(&self) -> &[Link] {
        &self.links
    }

    /// Where `link` sits in [`links`](LinkIndex::links), if it is one.
    pub(crate) fn position(&self, link: Link) -> Option<usize> {
        let low = link.low();
        let (&start, &end) = (self.first.get(low)?, self.first.get(low + 1)?);
        (start..end).find(|&i| self.links[i].high() == link.high())
    }
}

/// Distance value meaning "unreachable".
pub const UNREACHABLE: usize = usize::MAX;

impl Topology {
    /// Builds a topology on `n` qubits from an edge list.
    ///
    /// Duplicate edges are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit `>= n` or is a self-loop.
    pub fn new(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut links: Vec<Link> = edges
            .iter()
            .map(|&(a, b)| {
                assert!(a < n && b < n, "edge ({a},{b}) out of range for {n} qubits");
                Link::new(a, b)
            })
            .collect();
        links.sort_unstable();
        links.dedup();
        // Degrees, then row starts; `row[q]` is then used as the fill
        // cursor of row `q` and shifted back one place afterwards.
        let mut row = vec![0; n + 1];
        for l in &links {
            row[l.low() + 1] += 1;
            row[l.high() + 1] += 1;
        }
        for q in 0..n {
            row[q + 1] += row[q];
        }
        // Canonical link order hands every row its lower neighbours
        // first, then its higher ones, each ascending: rows come out
        // sorted.
        let mut neighbours = vec![0; 2 * links.len()];
        for l in &links {
            for (q, nb) in [(l.low(), l.high()), (l.high(), l.low())] {
                neighbours[row[q]] = nb;
                row[q] += 1;
            }
        }
        for q in (1..=n).rev() {
            row[q] = row[q - 1];
        }
        row[0] = 0;
        let mut topology = Topology {
            n,
            links: Arc::new(LinkIndex::new(n, links)),
            row,
            neighbours,
            distance: vec![UNREACHABLE; n * n],
            hop_row: Vec::new(),
            one_hop: Vec::new(),
        };
        topology.fill_distances();
        topology.fill_one_hop();
        topology
    }

    /// Per link, the links one hop from it that share no qubit with it,
    /// ascending: the links with an endpoint adjacent to one of its
    /// endpoints, less those that touch it.
    fn fill_one_hop(&mut self) {
        let links = self.links.links();
        let mut hop_row = Vec::with_capacity(links.len() + 1);
        let mut one_hop = Vec::new();
        hop_row.push(0);
        for &a in links {
            let mut row = Vec::new();
            for x in [a.low(), a.high()] {
                for &y in self.neighbors(x) {
                    let touching = self.neighbors(y).iter().map(|&z| Link::new(y, z));
                    row.extend(touching.filter(|b| !a.shares_qubit(b)));
                }
            }
            row.sort_unstable();
            row.dedup();
            one_hop.extend(row);
            hop_row.push(one_hop.len());
        }
        self.hop_row = hop_row;
        self.one_hop = one_hop;
    }

    /// One BFS per start qubit over a single reused queue.
    fn fill_distances(&mut self) {
        let n = self.n;
        let mut queue = Vec::with_capacity(n);
        for start in 0..n {
            let dist = &mut self.distance[start * n..(start + 1) * n];
            dist[start] = 0;
            queue.clear();
            queue.push(start);
            let mut head = 0;
            while let Some(&q) = queue.get(head) {
                head += 1;
                for &nb in &self.neighbours[self.row[q]..self.row[q + 1]] {
                    if dist[nb] == UNREACHABLE {
                        dist[nb] = dist[q] + 1;
                        queue.push(nb);
                    }
                }
            }
        }
    }

    /// A 1-D chain of `n` qubits (useful in tests).
    pub fn line(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        Topology::new(n, &edges)
    }

    /// A cycle of `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 qubits");
        let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        edges.push((n - 1, 0));
        Topology::new(n, &edges)
    }

    /// A `rows × cols` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let q = r * cols + c;
                if c + 1 < cols {
                    edges.push((q, q + 1));
                }
                if r + 1 < rows {
                    edges.push((q, q + cols));
                }
            }
        }
        Topology::new(rows * cols, &edges)
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// All coupling links, sorted canonically.
    pub fn links(&self) -> &[Link] {
        self.links.links()
    }

    /// The link list's position index, shared by every calibration made
    /// for this topology.
    pub(crate) fn link_index(&self) -> &Arc<LinkIndex> {
        &self.links
    }

    /// Number of coupling links.
    pub fn num_links(&self) -> usize {
        self.links.links().len()
    }

    /// Neighbors of `q`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `q >= num_qubits()`.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.neighbours[self.row[q]..self.row[q + 1]]
    }

    /// Where the neighbours of `q` start in the concatenation of every
    /// qubit's [`neighbors`](Topology::neighbors) in qubit order: a
    /// table with one entry per neighbour slot (`2 × num_links()` in
    /// all) keeps the entry of `q`'s `i`-th neighbour at
    /// `neighbor_offset(q) + i`.
    pub(crate) fn neighbor_offset(&self, q: usize) -> usize {
        self.row[q]
    }

    /// Degree of `q`.
    pub fn degree(&self, q: usize) -> usize {
        self.neighbors(q).len()
    }

    /// Whether qubits `a` and `b` are directly coupled.
    pub fn has_link(&self, a: usize, b: usize) -> bool {
        a != b && self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Hop distance between two qubits ([`UNREACHABLE`] if disconnected).
    pub fn distance(&self, a: usize, b: usize) -> usize {
        assert!(a < self.n && b < self.n, "qubit out of range");
        self.distance[a * self.n + b]
    }

    /// Hop distance between two links: the minimum endpoint-to-endpoint
    /// distance. Adjacent links (sharing a qubit) have distance 0; the
    /// "one-hop" pairs of the SRB literature have distance 1.
    pub fn link_distance(&self, a: Link, b: Link) -> usize {
        let mut best = UNREACHABLE;
        for &x in &[a.low(), a.high()] {
            for &y in &[b.low(), b.high()] {
                best = best.min(self.distance(x, y));
            }
        }
        best
    }

    /// The links one hop from `link` that share no qubit with it
    /// (`!link.shares_qubit(&b) && link_distance(link, b) == 1`),
    /// ascending; none if `link` is not a coupling link.
    pub fn one_hop_links(&self, link: Link) -> &[Link] {
        match self.links.position(link) {
            Some(i) => &self.one_hop[self.hop_row[i]..self.hop_row[i + 1]],
            None => &[],
        }
    }

    /// Whether coupling link `a` and link `b` share no qubit and sit one
    /// hop apart — the pairs that may suffer crosstalk — read from the
    /// relation the topology holds. `false` if `a` is not a coupling
    /// link.
    pub fn is_one_hop(&self, a: Link, b: Link) -> bool {
        self.one_hop_links(a).binary_search(&b).is_ok()
    }

    /// All unordered pairs of disjoint links at one-hop distance — the
    /// pairs whose simultaneous operation may suffer crosstalk and that SRB
    /// must characterize (Sec. III of the paper).
    pub fn one_hop_link_pairs(&self) -> Vec<LinkPair> {
        let mut out = Vec::new();
        for &a in self.links() {
            for &b in self.one_hop_links(a).iter().filter(|&&b| b > a) {
                out.push(LinkPair::new(a, b));
            }
        }
        out
    }

    /// Whether the induced subgraph on `subset` is connected and non-empty.
    pub fn is_connected_subset(&self, subset: &[usize]) -> bool {
        if subset.is_empty() {
            return false;
        }
        let inside = |q: usize| subset.contains(&q);
        let mut seen = vec![false; self.n];
        let mut queue = VecDeque::new();
        queue.push_back(subset[0]);
        seen[subset[0]] = true;
        let mut count = 1;
        while let Some(q) = queue.pop_front() {
            for &nb in self.neighbors(q) {
                if inside(nb) && !seen[nb] {
                    seen[nb] = true;
                    count += 1;
                    queue.push_back(nb);
                }
            }
        }
        count == subset.len()
    }

    /// Whether the whole graph is connected.
    pub fn is_connected(&self) -> bool {
        let all: Vec<usize> = (0..self.n).collect();
        self.n > 0 && self.is_connected_subset(&all)
    }

    /// The shortest path between two qubits as a vertex list (inclusive),
    /// or `None` if disconnected. Ties are broken toward lower qubit
    /// indices, making routing deterministic.
    pub fn shortest_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        if from == to {
            return Some(vec![from]);
        }
        if self.distance(from, to) == UNREACHABLE {
            return None;
        }
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            let next = *self
                .neighbors(cur)
                .iter()
                .find(|&&nb| self.distance(nb, to) + 1 == self.distance(cur, to))
                .expect("distance matrix is consistent");
            path.push(next);
            cur = next;
        }
        Some(path)
    }

    /// The links within a qubit subset (induced edges).
    pub fn links_within(&self, subset: &[usize]) -> Vec<Link> {
        self.links()
            .iter()
            .copied()
            .filter(|l| subset.contains(&l.low()) && subset.contains(&l.high()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_distances() {
        let t = Topology::line(5);
        assert_eq!(t.num_qubits(), 5);
        assert_eq!(t.num_links(), 4);
        assert_eq!(t.distance(0, 4), 4);
        assert_eq!(t.distance(2, 2), 0);
        assert!(t.is_connected());
    }

    #[test]
    fn ring_wraps() {
        let t = Topology::ring(6);
        assert_eq!(t.distance(0, 5), 1);
        assert_eq!(t.distance(0, 3), 3);
        assert_eq!(t.num_links(), 6);
    }

    #[test]
    fn grid_structure() {
        let t = Topology::grid(3, 3);
        assert_eq!(t.num_qubits(), 9);
        assert_eq!(t.num_links(), 12);
        assert_eq!(t.distance(0, 8), 4);
        assert!(t.has_link(0, 1));
        assert!(t.has_link(0, 3));
        assert!(!t.has_link(0, 4));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let t = Topology::new(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(t.num_links(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Topology::new(2, &[(0, 2)]);
    }

    #[test]
    fn disconnected_distance() {
        let t = Topology::new(4, &[(0, 1), (2, 3)]);
        assert_eq!(t.distance(0, 3), UNREACHABLE);
        assert!(!t.is_connected());
        assert!(t.shortest_path(0, 3).is_none());
    }

    #[test]
    fn connected_subset_checks() {
        let t = Topology::line(5);
        assert!(t.is_connected_subset(&[1, 2, 3]));
        assert!(!t.is_connected_subset(&[0, 2]));
        assert!(!t.is_connected_subset(&[]));
        assert!(t.is_connected_subset(&[4]));
    }

    #[test]
    fn shortest_path_endpoints() {
        let t = Topology::grid(2, 3);
        let p = t.shortest_path(0, 5).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&5));
        assert_eq!(p.len(), t.distance(0, 5) + 1);
        assert_eq!(t.shortest_path(2, 2).unwrap(), vec![2]);
    }

    #[test]
    fn link_distance_classes() {
        let t = Topology::line(6);
        let l01 = Link::new(0, 1);
        let l12 = Link::new(1, 2);
        let l23 = Link::new(2, 3);
        let l45 = Link::new(4, 5);
        assert_eq!(t.link_distance(l01, l12), 0); // share qubit 1
        assert_eq!(t.link_distance(l01, l23), 1); // one hop
        assert_eq!(t.link_distance(l01, l45), 3);
    }

    #[test]
    fn one_hop_pairs_on_line() {
        // Line 0-1-2-3-4: links 01,12,23,34. Disjoint one-hop pairs:
        // (01,23), (12,34).
        let t = Topology::line(5);
        let pairs = t.one_hop_link_pairs();
        assert_eq!(pairs.len(), 2);
        assert!(pairs.iter().all(|p| p.is_disjoint()));
    }

    #[test]
    fn the_one_hop_relation_is_disjoint_links_at_distance_one() {
        let topologies = [
            Topology::line(6),
            Topology::ring(7),
            Topology::grid(3, 4),
            Topology::new(5, &[(0, 1), (2, 3)]),
            crate::ibm::toronto_topology(),
            crate::ibm::manhattan_topology(),
            crate::ibm::melbourne_topology(),
        ];
        for t in &topologies {
            for &a in t.links() {
                for &b in t.links() {
                    let expected = !a.shares_qubit(&b) && t.link_distance(a, b) == 1;
                    assert_eq!(t.is_one_hop(a, b), expected, "{a} {b}");
                }
                let row = t.one_hop_links(a);
                assert!(row.windows(2).all(|w| w[0] < w[1]), "{a}: {row:?}");
            }
            assert!(t.one_hop_links(Link::new(0, t.num_qubits())).is_empty());
        }
    }

    #[test]
    fn the_link_index_finds_every_link_and_nothing_else() {
        let t = crate::ibm::toronto_topology();
        let index = t.link_index();
        for (i, &l) in t.links().iter().enumerate() {
            assert_eq!(index.position(l), Some(i));
        }
        for a in 0..t.num_qubits() + 2 {
            for b in a + 1..t.num_qubits() + 2 {
                let l = Link::new(a, b);
                assert_eq!(index.position(l).is_some(), t.links().contains(&l), "{l}");
            }
        }
    }

    #[test]
    fn links_within_subset() {
        let t = Topology::grid(2, 2);
        let links = t.links_within(&[0, 1, 2]);
        assert_eq!(links.len(), 2); // 0-1 and 0-2
    }

    #[test]
    fn neighbors_sorted() {
        let t = Topology::grid(3, 3);
        assert_eq!(t.neighbors(4), &[1, 3, 5, 7]);
        assert_eq!(t.degree(4), 4);
        assert_eq!(t.degree(0), 2);
    }
}

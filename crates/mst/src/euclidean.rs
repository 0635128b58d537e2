//! Euclidean MST construction.
//!
//! Every construction here returns the minimum spanning tree under one strict
//! total order on the candidate edges: by [`Point::distance`], then by the smaller
//! endpoint index, then by the larger. Under that order the MST is unique, ties in
//! length included, so the constructions agree edge for edge wherever they apply.
//!
//! * [`euclidean_mst`] — Borůvka's algorithm over a kd-tree (March, Ram & Gray,
//!   KDD 2010): `O(log n)` rounds of `n` pruned nearest-foreign-neighbour
//!   searches, each touching `O(log n)` tree nodes on well-spread planar
//!   deployments, so `O(n log² n)` expected time, and `O(n)` memory. The
//!   workhorse, for any pointset size,
//! * [`kruskal_mst`] — Kruskal's algorithm over all `O(n²)` candidate edges,
//!   sorted by the same order; the test oracle for [`euclidean_mst`] and the
//!   construction the k-connectivity spanner uses (it needs edge filtering),
//! * [`line_mst`] — the specialised construction for points on a line, where the
//!   unique MST simply connects each point to its neighbours in sorted order
//!   (used by the paper's lower-bound constructions, which all live on the line).

use crate::kdtree::{Candidate, KdTree};
use crate::tree::{Edge, SpanningTree};
use crate::MstError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wagg_geometry::Point;

/// Checks a pointset for validity: at least two points, no duplicates.
fn validate_points(points: &[Point]) -> Result<(), MstError> {
    if points.len() < 2 {
        return Err(MstError::TooFewPoints {
            found: points.len(),
        });
    }
    // O(n²) duplicate check; construction is O(n²) anyway.
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            if points[i].distance_squared(points[j]) == 0.0 {
                return Err(MstError::DuplicatePoints {
                    first: i,
                    second: j,
                });
            }
        }
    }
    Ok(())
}

/// Builds the Euclidean minimum spanning tree of a planar pointset.
///
/// Borůvka's algorithm over a kd-tree: each round, every point searches the tree
/// for its nearest point in another component, pruning subtrees that lie wholly
/// in its own component or strictly farther than the best edge its component has
/// found so far; each component's first outgoing edge (in the module's edge
/// order) joins the tree. `O(n log² n)` expected time and `O(n)` memory on
/// planar deployments. The edge set equals [`kruskal_mst`]`(points, &[])` on every
/// input, and [`SpanningTree::edges`] lists it in the order Prim's algorithm
/// grown from node 0 attaches the nodes: by length, ties to the smaller new node.
///
/// # Errors
///
/// Returns [`MstError::TooFewPoints`] for fewer than two points and
/// [`MstError::DuplicatePoints`] if two points coincide, naming the
/// lexicographically smallest such pair. Returns [`MstError::NotASpanningTree`]
/// if non-finite coordinates leave some point without a comparable edge.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_mst::euclidean_mst;
///
/// let points = vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(10.0, 0.0),
/// ];
/// let tree = euclidean_mst(&points).unwrap();
/// assert_eq!(tree.total_length(), 10.0);
/// ```
pub fn euclidean_mst(points: &[Point]) -> Result<SpanningTree, MstError> {
    if points.len() < 2 {
        return Err(MstError::TooFewPoints {
            found: points.len(),
        });
    }
    let edges = boruvka(points)?;
    SpanningTree::new(points.to_vec(), prim_order(points, &edges))
}

/// The MST's edges, in the order Borůvka's rounds find them, for `n ≥ 2` points.
fn boruvka(points: &[Point]) -> Result<Vec<Edge>, MstError> {
    let n = points.len();
    let kd = KdTree::new(points);
    let mut dsu = DisjointSets::new(n);
    // Component labels (input index of the union–find root) in tree order, and
    // the first outgoing edge of each component, indexed by its label.
    let mut comp = vec![0usize; n];
    let mut node_comp = vec![0usize; kd.node_count()];
    let mut best = vec![Candidate::NONE; n];
    let mut stack = Vec::new();
    let mut edges = Vec::with_capacity(n - 1);
    while edges.len() < n - 1 {
        for (label, &i) in comp.iter_mut().zip(kd.order()) {
            *label = dsu.find(i);
            best[*label] = Candidate::NONE;
        }
        kd.mark_components(&comp, &mut node_comp);
        for q in 0..n {
            kd.offer_foreign(q, &comp, &node_comp, &mut best[comp[q]], &mut stack);
        }
        if edges.is_empty() {
            // First round: every component is a single point, so `best` holds
            // each point's nearest neighbour. A coincident pair shows up there,
            // and the smallest zero-length candidate is the smallest such pair.
            if let Some(dup) = best
                .iter()
                .filter(|c| c.length == 0.0)
                .min_by_key(|c| (c.a, c.b))
            {
                return Err(MstError::DuplicatePoints {
                    first: dup.a,
                    second: dup.b,
                });
            }
        }
        let before = edges.len();
        for (&i, &label) in kd.order().iter().zip(&comp) {
            let c = best[label];
            if i == label && c != Candidate::NONE && dsu.union(c.a, c.b) {
                edges.push(Edge::new(c.a, c.b));
            }
        }
        if edges.len() == before {
            return Err(MstError::NotASpanningTree {
                reason: "non-finite coordinates leave points unconnected",
            });
        }
    }
    Ok(edges)
}

/// Lists a spanning tree's edges in the order Prim's algorithm grown from node 0
/// attaches the nodes: the shortest edge leaving the grown part first, ties to
/// the smaller new node.
fn prim_order(points: &[Point], edges: &[Edge]) -> Vec<Edge> {
    // Compressed adjacency: the neighbours of `u` are
    // `neighbours[start[u]..start[u + 1]]`.
    let mut start = vec![0usize; points.len() + 1];
    for e in edges {
        start[e.a + 1] += 1;
        start[e.b + 1] += 1;
    }
    for u in 0..points.len() {
        start[u + 1] += start[u];
    }
    let mut fill = start.clone();
    let mut neighbours = vec![0usize; 2 * edges.len()];
    for e in edges {
        for (u, v) in [(e.a, e.b), (e.b, e.a)] {
            neighbours[fill[u]] = v;
            fill[u] += 1;
        }
    }
    let mut attached = vec![false; points.len()];
    let mut frontier = BinaryHeap::new();
    let mut ordered = Vec::with_capacity(edges.len());
    let attach = |u: usize, attached: &mut [bool], frontier: &mut BinaryHeap<_>| {
        attached[u] = true;
        for &v in &neighbours[start[u]..start[u + 1]] {
            if !attached[v] {
                // Lengths are non-negative, so their bit patterns sort like them.
                frontier.push(Reverse((points[u].distance(points[v]).to_bits(), v, u)));
            }
        }
    };
    attach(0, &mut attached, &mut frontier);
    while let Some(Reverse((_, v, u))) = frontier.pop() {
        ordered.push(Edge::new(u, v));
        attach(v, &mut attached, &mut frontier);
    }
    ordered
}

/// Builds the Euclidean MST with Kruskal's algorithm, optionally excluding a set of
/// forbidden edges (used by the k-edge-connected spanner construction).
///
/// # Errors
///
/// Returns [`MstError::TooFewPoints`] for fewer than two points,
/// [`MstError::DuplicatePoints`] if two points coincide, and
/// [`MstError::NotASpanningTree`] if the allowed edges cannot connect the pointset
/// (possible only when `forbidden` is non-empty).
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_mst::{euclidean_mst, kruskal_mst};
///
/// let points = vec![
///     Point::new(0.0, 0.0),
///     Point::new(2.0, 1.0),
///     Point::new(4.0, 0.0),
///     Point::new(1.0, 5.0),
/// ];
/// let prim = euclidean_mst(&points).unwrap();
/// let kruskal = kruskal_mst(&points, &[]).unwrap();
/// assert!((prim.total_length() - kruskal.total_length()).abs() < 1e-9);
/// ```
pub fn kruskal_mst(points: &[Point], forbidden: &[Edge]) -> Result<SpanningTree, MstError> {
    validate_points(points)?;
    let n = points.len();
    let mut candidates: Vec<(f64, Edge)> = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let e = Edge::new(i, j);
            if forbidden.contains(&e) {
                continue;
            }
            candidates.push((points[i].distance(points[j]), e));
        }
    }
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut dsu = DisjointSets::new(n);
    let mut edges = Vec::with_capacity(n - 1);
    for (_, e) in candidates {
        if dsu.union(e.a, e.b) {
            edges.push(e);
            if edges.len() == n - 1 {
                break;
            }
        }
    }
    if edges.len() != n - 1 {
        return Err(MstError::NotASpanningTree {
            reason: "allowed edges cannot connect the pointset",
        });
    }
    SpanningTree::new(points.to_vec(), edges)
}

/// Builds the MST of a set of points on the real line: each point is connected to
/// its successor in sorted order. This is the unique MST of a line pointset (up to
/// ties) and is the tree used by all of the paper's lower-bound constructions.
///
/// The input points need not be sorted, and need not actually have `y = 0`: only
/// the `x` coordinates are used for sorting, so the caller is responsible for
/// passing a genuinely one-dimensional instance.
///
/// # Errors
///
/// Same validation as [`euclidean_mst`].
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_mst::line_mst;
///
/// let points = vec![Point::on_line(5.0), Point::on_line(0.0), Point::on_line(1.0)];
/// let tree = line_mst(&points).unwrap();
/// assert_eq!(tree.total_length(), 5.0);
/// assert_eq!(tree.edges().len(), 2);
/// ```
pub fn line_mst(points: &[Point]) -> Result<SpanningTree, MstError> {
    validate_points(points)?;
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| points[a].x.total_cmp(&points[b].x));
    let edges: Vec<Edge> = order.windows(2).map(|w| Edge::new(w[0], w[1])).collect();
    SpanningTree::new(points.to_vec(), edges)
}

/// A small union–find structure used by Kruskal's and Borůvka's algorithms.
#[derive(Debug)]
struct DisjointSets {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl DisjointSets {
    fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    /// Unions the sets of `a` and `b`; returns `false` if they were already joined.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn mst_of_two_points_is_single_edge() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.0, 7.0)];
        let t = euclidean_mst(&pts).unwrap();
        assert_eq!(t.edges(), &[Edge::new(0, 1)]);
        assert_eq!(t.total_length(), 7.0);
    }

    #[test]
    fn mst_rejects_duplicates_and_small_inputs() {
        assert!(matches!(
            euclidean_mst(&[Point::origin()]),
            Err(MstError::TooFewPoints { found: 1 })
        ));
        assert!(matches!(
            euclidean_mst(&[Point::origin(), Point::origin()]),
            Err(MstError::DuplicatePoints { .. })
        ));
        assert!(kruskal_mst(&[Point::origin()], &[]).is_err());
        assert!(line_mst(&[Point::origin()],).is_err());
    }

    #[test]
    fn mst_of_square_uses_three_sides() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let t = euclidean_mst(&pts).unwrap();
        assert_eq!(t.edges().len(), 3);
        assert!((t.total_length() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mst_of_cluster_pair_crosses_once() {
        // Two tight clusters far apart: exactly one long edge crosses between them.
        let mut pts = Vec::new();
        for i in 0..5 {
            pts.push(Point::new(i as f64 * 0.1, 0.0));
            pts.push(Point::new(100.0 + i as f64 * 0.1, 0.0));
        }
        let t = euclidean_mst(&pts).unwrap();
        let long_edges = t.edge_lengths().into_iter().filter(|&l| l > 50.0).count();
        assert_eq!(long_edges, 1);
    }

    #[test]
    fn prim_and_kruskal_agree_on_random_instances() {
        let mut rng = wagg_geometry::rng::seeded_rng(17);
        for _ in 0..10 {
            let n = rng.gen_range(3..40);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let a = euclidean_mst(&pts).unwrap();
            let b = kruskal_mst(&pts, &[]).unwrap();
            assert!(
                (a.total_length() - b.total_length()).abs() < 1e-6,
                "MST weight mismatch: {} vs {}",
                a.total_length(),
                b.total_length()
            );
        }
    }

    #[test]
    fn line_mst_connects_consecutive_points() {
        let pts = vec![
            Point::on_line(3.0),
            Point::on_line(1.0),
            Point::on_line(0.0),
            Point::on_line(10.0),
        ];
        let t = line_mst(&pts).unwrap();
        // Edges should be (2,1), (1,0), (0,3) by original indices: 0<->1, 1<->2, 0<->3.
        assert!(t.edges().contains(&Edge::new(1, 2)));
        assert!(t.edges().contains(&Edge::new(0, 1)));
        assert!(t.edges().contains(&Edge::new(0, 3)));
        assert_eq!(t.total_length(), 10.0);
    }

    #[test]
    fn line_mst_matches_euclidean_mst_on_line() {
        let pts: Vec<Point> = [0.0, 1.0, 3.0, 7.0, 15.0, 31.0]
            .iter()
            .map(|&x| Point::on_line(x))
            .collect();
        let a = line_mst(&pts).unwrap();
        let b = euclidean_mst(&pts).unwrap();
        assert_eq!(a.total_length(), b.total_length());
    }

    #[test]
    fn kruskal_with_forbidden_edges_finds_alternative() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        let base = kruskal_mst(&pts, &[]).unwrap();
        assert_eq!(base.total_length(), 2.0);
        // Forbid the (0,1) edge; the alternative must use the 2-length (0,2) edge.
        let alt = kruskal_mst(&pts, &[Edge::new(0, 1)]).unwrap();
        assert_eq!(alt.total_length(), 3.0);
    }

    #[test]
    fn kruskal_fails_when_too_many_edges_forbidden() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let err = kruskal_mst(&pts, &[Edge::new(0, 1)]).unwrap_err();
        assert!(matches!(err, MstError::NotASpanningTree { .. }));
    }

    #[test]
    fn disjoint_sets_union_find() {
        let mut dsu = DisjointSets::new(4);
        assert!(dsu.union(0, 1));
        assert!(!dsu.union(1, 0));
        assert!(dsu.union(2, 3));
        assert!(dsu.union(0, 3));
        assert_eq!(dsu.find(1), dsu.find(2));
    }

    proptest! {
        /// The MST never weighs more than the path visiting points in input order
        /// (any spanning structure upper-bounds the MST weight).
        #[test]
        fn prop_mst_no_heavier_than_input_path(xs in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 2..30)) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            // Skip degenerate inputs with duplicate points.
            prop_assume!(euclidean_mst(&pts).is_ok());
            let t = euclidean_mst(&pts).unwrap();
            let path_len: f64 = pts.windows(2).map(|w| w[0].distance(w[1])).sum();
            prop_assert!(t.total_length() <= path_len + 1e-9);
        }

        /// Prim and Kruskal agree on MST weight.
        #[test]
        fn prop_prim_kruskal_agree(xs in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..20)) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            prop_assume!(euclidean_mst(&pts).is_ok());
            let a = euclidean_mst(&pts).unwrap();
            let b = kruskal_mst(&pts, &[]).unwrap();
            prop_assert!((a.total_length() - b.total_length()).abs() < 1e-6);
        }

        /// The MST of points on a line has total length max - min.
        #[test]
        fn prop_line_mst_total_length(xs in proptest::collection::hash_set(0u32..100000, 2..40)) {
            let pts: Vec<Point> = xs.iter().map(|&x| Point::on_line(x as f64)).collect();
            let t = line_mst(&pts).unwrap();
            let max = xs.iter().max().unwrap();
            let min = xs.iter().min().unwrap();
            prop_assert!((t.total_length() - (*max as f64 - *min as f64)).abs() < 1e-9);
        }
    }
}

//! Spanning trees over pointsets and their convergecast orientation.

use crate::MstError;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use wagg_geometry::Point;
use wagg_sinr::{Link, NodeId};

/// An undirected edge of a spanning tree, identified by the indices of its endpoints.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_mst::Edge;
///
/// let e = Edge::new(0, 1);
/// assert_eq!(e.length(&[Point::new(0.0, 0.0), Point::new(3.0, 4.0)]), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Index of one endpoint in the pointset.
    pub a: usize,
    /// Index of the other endpoint in the pointset.
    pub b: usize,
}

impl Edge {
    /// Creates an edge between node indices `a` and `b` (stored with `a < b`).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loops are never part of a tree).
    pub fn new(a: usize, b: usize) -> Self {
        assert_ne!(a, b, "tree edges cannot be self-loops");
        if a < b {
            Edge { a, b }
        } else {
            Edge { a: b, b: a }
        }
    }

    /// Length of the edge with respect to a pointset.
    pub fn length(&self, points: &[Point]) -> f64 {
        points[self.a].distance(points[self.b])
    }

    /// The endpoint other than `node`, or `None` if `node` is not an endpoint.
    pub fn other(&self, node: usize) -> Option<usize> {
        if node == self.a {
            Some(self.b)
        } else if node == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A spanning tree of a planar pointset.
///
/// The tree owns a copy of the pointset, so edge lengths and orientations can be
/// computed without carrying the points separately.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_mst::{Edge, SpanningTree};
///
/// let points = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
/// let tree = SpanningTree::new(points, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
/// assert_eq!(tree.total_length(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanningTree {
    points: Vec<Point>,
    edges: Vec<Edge>,
}

impl SpanningTree {
    /// Creates a spanning tree from a pointset and an edge list, validating that the
    /// edges really form a spanning tree (n − 1 edges, all indices valid, connected).
    ///
    /// # Errors
    ///
    /// Returns [`MstError`] if the pointset has fewer than two points, an edge refers
    /// to a node out of range, the edge count is not `n − 1`, or the edges do not
    /// connect all nodes.
    pub fn new(points: Vec<Point>, edges: Vec<Edge>) -> Result<Self, MstError> {
        if points.len() < 2 {
            return Err(MstError::TooFewPoints {
                found: points.len(),
            });
        }
        for e in &edges {
            for idx in [e.a, e.b] {
                if idx >= points.len() {
                    return Err(MstError::NodeOutOfRange {
                        index: idx,
                        nodes: points.len(),
                    });
                }
            }
        }
        if edges.len() != points.len() - 1 {
            return Err(MstError::NotASpanningTree {
                reason: "edge count is not n - 1",
            });
        }
        let tree = SpanningTree { points, edges };
        if !tree.is_connected() {
            return Err(MstError::NotASpanningTree {
                reason: "edges do not connect all nodes",
            });
        }
        Ok(tree)
    }

    /// The pointset spanned by the tree.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The undirected edges of the tree.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// The lengths of all edges.
    pub fn edge_lengths(&self) -> Vec<f64> {
        self.edges.iter().map(|e| e.length(&self.points)).collect()
    }

    /// Sum of all edge lengths.
    pub fn total_length(&self) -> f64 {
        self.edge_lengths().iter().sum()
    }

    /// Length of the longest edge.
    pub fn max_edge_length(&self) -> f64 {
        self.edge_lengths().into_iter().fold(0.0, f64::max)
    }

    /// Length of the shortest edge.
    pub fn min_edge_length(&self) -> f64 {
        self.edge_lengths()
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    /// Length diversity `Δ` of the tree's edges (longest over shortest edge length).
    pub fn edge_diversity(&self) -> f64 {
        let min = self.min_edge_length();
        if min <= 0.0 {
            return f64::INFINITY;
        }
        self.max_edge_length() / min
    }

    /// Adjacency lists of the tree.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.points.len()];
        for e in &self.edges {
            adj[e.a].push(e.b);
            adj[e.b].push(e.a);
        }
        adj
    }

    /// Degree of each node.
    pub fn degrees(&self) -> Vec<usize> {
        self.adjacency().iter().map(|n| n.len()).collect()
    }

    /// Maximum node degree.
    pub fn max_degree(&self) -> usize {
        self.degrees().into_iter().max().unwrap_or(0)
    }

    /// Whether the edge set connects every node (assuming edge indices are valid).
    fn is_connected(&self) -> bool {
        let n = self.points.len();
        if n == 0 {
            return true;
        }
        let adj = self.adjacency();
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        queue.push_back(0);
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == n
    }

    /// Parent of each node in the tree rooted at `sink` (`None` for the sink itself).
    ///
    /// # Errors
    ///
    /// Returns [`MstError::NodeOutOfRange`] if `sink` is not a valid node index.
    pub fn parents(&self, sink: usize) -> Result<Vec<Option<usize>>, MstError> {
        Ok(self.breadth_first(sink)?.0)
    }

    /// The parent of each node in the tree rooted at `sink`, and the nodes in the
    /// breadth-first order they were reached (the sink first).
    fn breadth_first(&self, sink: usize) -> Result<(Vec<Option<usize>>, Vec<usize>), MstError> {
        if sink >= self.points.len() {
            return Err(MstError::NodeOutOfRange {
                index: sink,
                nodes: self.points.len(),
            });
        }
        let adj = self.adjacency();
        let mut parent: Vec<Option<usize>> = vec![None; self.points.len()];
        let mut seen = vec![false; self.points.len()];
        let mut order = Vec::with_capacity(self.points.len());
        order.push(sink);
        seen[sink] = true;
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = Some(u);
                    order.push(v);
                }
            }
        }
        Ok((parent, order))
    }

    /// Hop depth of each node below `sink` (the sink has depth 0).
    ///
    /// # Errors
    ///
    /// Returns [`MstError::NodeOutOfRange`] if `sink` is not a valid node index.
    pub fn depths(&self, sink: usize) -> Result<Vec<usize>, MstError> {
        let (parent, order) = self.breadth_first(sink)?;
        let mut depth = vec![0usize; self.points.len()];
        // Breadth-first order reaches every parent before its children.
        for &v in &order[1..] {
            if let Some(p) = parent[v] {
                depth[v] = depth[p] + 1;
            }
        }
        Ok(depth)
    }

    /// Maximum hop depth below `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`MstError::NodeOutOfRange`] if `sink` is not a valid node index.
    pub fn height(&self, sink: usize) -> Result<usize, MstError> {
        Ok(self.depths(sink)?.into_iter().max().unwrap_or(0))
    }

    /// Orients every edge towards `sink`, producing the convergecast link set
    /// (each non-sink node sends to its parent).
    ///
    /// Link `k` is the link whose sender is node `k` shifted to skip the sink, so
    /// link identifiers are consecutive starting from zero; each link records the
    /// sender and receiver node indices.
    ///
    /// # Panics
    ///
    /// Panics if `sink` is out of range; use [`SpanningTree::try_orient_towards`]
    /// for a fallible version.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_mst::{Edge, SpanningTree};
    ///
    /// let points = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
    /// let tree = SpanningTree::new(points, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
    /// let links = tree.orient_towards(0);
    /// assert_eq!(links.len(), 2);
    /// // Every link points "down" the tree towards the sink.
    /// assert!(links.iter().any(|l| l.receiver_node.unwrap().index() == 0));
    /// ```
    pub fn orient_towards(&self, sink: usize) -> Vec<Link> {
        self.try_orient_towards(sink)
            .expect("sink index out of range")
    }

    /// Fallible version of [`SpanningTree::orient_towards`].
    ///
    /// # Errors
    ///
    /// Returns [`MstError::NodeOutOfRange`] if `sink` is not a valid node index.
    pub fn try_orient_towards(&self, sink: usize) -> Result<Vec<Link>, MstError> {
        let parent = self.parents(sink)?;
        let mut links = Vec::with_capacity(self.points.len().saturating_sub(1));
        let mut next_id = 0usize;
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                links.push(Link::with_nodes(
                    next_id,
                    self.points[v],
                    self.points[p],
                    NodeId(v),
                    NodeId(p),
                ));
                next_id += 1;
            }
        }
        Ok(links)
    }

    /// Orients edges arbitrarily (from the lower to the higher node index).
    ///
    /// Theorem 1 of the paper allows the MST edges to be "directed arbitrarily";
    /// this orientation is the simplest deterministic choice and is used by tests
    /// that only care about the undirected structure.
    pub fn orient_arbitrarily(&self) -> Vec<Link> {
        self.edges
            .iter()
            .enumerate()
            .map(|(k, e)| {
                Link::with_nodes(
                    k,
                    self.points[e.a],
                    self.points[e.b],
                    NodeId(e.a),
                    NodeId(e.b),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_tree(n: usize) -> SpanningTree {
        let points: Vec<Point> = (0..n).map(|i| Point::on_line(i as f64)).collect();
        let edges: Vec<Edge> = (0..n - 1).map(|i| Edge::new(i, i + 1)).collect();
        SpanningTree::new(points, edges).unwrap()
    }

    fn star_tree(n: usize) -> SpanningTree {
        let mut points = vec![Point::origin()];
        for i in 1..n {
            let angle = i as f64;
            points.push(Point::new(angle.cos() * 2.0, angle.sin() * 2.0));
        }
        let edges: Vec<Edge> = (1..n).map(|i| Edge::new(0, i)).collect();
        SpanningTree::new(points, edges).unwrap()
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(3, 3);
    }

    #[test]
    fn edge_normalises_order_and_other() {
        let e = Edge::new(5, 2);
        assert_eq!((e.a, e.b), (2, 5));
        assert_eq!(e.other(2), Some(5));
        assert_eq!(e.other(5), Some(2));
        assert_eq!(e.other(7), None);
    }

    #[test]
    fn new_rejects_too_few_points() {
        let err = SpanningTree::new(vec![Point::origin()], vec![]).unwrap_err();
        assert_eq!(err, MstError::TooFewPoints { found: 1 });
    }

    #[test]
    fn new_rejects_wrong_edge_count() {
        let points = vec![
            Point::on_line(0.0),
            Point::on_line(1.0),
            Point::on_line(2.0),
        ];
        let err = SpanningTree::new(points, vec![Edge::new(0, 1)]).unwrap_err();
        assert!(matches!(err, MstError::NotASpanningTree { .. }));
    }

    #[test]
    fn new_rejects_out_of_range_edge() {
        let points = vec![Point::on_line(0.0), Point::on_line(1.0)];
        let err = SpanningTree::new(points, vec![Edge::new(0, 5)]).unwrap_err();
        assert!(matches!(err, MstError::NodeOutOfRange { index: 5, .. }));
    }

    #[test]
    fn new_rejects_disconnected_edges() {
        let points = vec![
            Point::on_line(0.0),
            Point::on_line(1.0),
            Point::on_line(2.0),
            Point::on_line(3.0),
        ];
        // Three edges but node 3 is isolated (multi-edge between 0-1 pair).
        let err = SpanningTree::new(
            points,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)],
        )
        .unwrap_err();
        assert!(matches!(err, MstError::NotASpanningTree { .. }));
    }

    #[test]
    fn path_tree_statistics() {
        let t = path_tree(5);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.total_length(), 4.0);
        assert_eq!(t.max_degree(), 2);
        assert_eq!(t.edge_diversity(), 1.0);
        assert_eq!(t.height(0).unwrap(), 4);
        assert_eq!(t.height(2).unwrap(), 2);
    }

    #[test]
    fn star_tree_statistics() {
        let t = star_tree(6);
        assert_eq!(t.max_degree(), 5);
        assert_eq!(t.height(0).unwrap(), 1);
        assert_eq!(t.height(1).unwrap(), 2);
    }

    #[test]
    fn parents_of_path_rooted_at_end() {
        let t = path_tree(4);
        let p = t.parents(0).unwrap();
        assert_eq!(p, vec![None, Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn parents_rejects_bad_sink() {
        let t = path_tree(3);
        assert!(t.parents(7).is_err());
        assert!(t.try_orient_towards(7).is_err());
    }

    #[test]
    fn orientation_points_to_sink() {
        let t = path_tree(4);
        let links = t.orient_towards(3);
        assert_eq!(links.len(), 3);
        for l in &links {
            // Every sender is further from the sink (node 3 at x=3) than its receiver.
            let sink = Point::on_line(3.0);
            assert!(l.sender.distance(sink) > l.receiver.distance(sink));
        }
        // Link ids are consecutive from zero.
        let mut ids: Vec<usize> = links.iter().map(|l| l.id.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn orientation_preserves_edge_multiset() {
        let t = star_tree(5);
        let links = t.orient_towards(0);
        let mut lengths: Vec<f64> = links.iter().map(|l| l.length()).collect();
        let mut edge_lengths = t.edge_lengths();
        lengths.sort_by(f64::total_cmp);
        edge_lengths.sort_by(f64::total_cmp);
        for (a, b) in lengths.iter().zip(edge_lengths.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn arbitrary_orientation_has_all_edges() {
        let t = path_tree(6);
        let links = t.orient_arbitrarily();
        assert_eq!(links.len(), 5);
        for (k, l) in links.iter().enumerate() {
            assert_eq!(l.id.index(), k);
        }
    }

    #[test]
    fn depths_match_a_walk_to_the_sink_on_random_trees() {
        use rand::Rng;
        let mut rng = wagg_geometry::rng::seeded_rng(23);
        for _ in 0..20 {
            let n = rng.gen_range(2..200);
            let points: Vec<Point> = (0..n).map(|i| Point::on_line(i as f64)).collect();
            let edges: Vec<Edge> = (1..n).map(|v| Edge::new(v, rng.gen_range(0..v))).collect();
            let tree = SpanningTree::new(points, edges).unwrap();
            for sink in [0, n / 2, n - 1] {
                let parent = tree.parents(sink).unwrap();
                let walked: Vec<usize> = (0..n)
                    .map(|v| {
                        let (mut d, mut cur) = (0, v);
                        while let Some(p) = parent[cur] {
                            d += 1;
                            cur = p;
                        }
                        d
                    })
                    .collect();
                assert_eq!(tree.depths(sink).unwrap(), walked);
            }
        }
    }

    #[test]
    fn depths_sum_to_expected_for_path() {
        let t = path_tree(4);
        assert_eq!(t.depths(0).unwrap(), vec![0, 1, 2, 3]);
    }
}

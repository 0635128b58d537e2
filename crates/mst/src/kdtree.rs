//! A static 2-d tree specialised for the nearest-foreign-neighbour queries of
//! Borůvka's MST algorithm (March, Ram & Gray, *Fast Euclidean Minimum Spanning
//! Tree*, KDD 2010).
//!
//! The tree is built once by median splits on the wider side of each node's tight
//! bounding box; the points are permuted in place into tree order, so every node
//! owns a contiguous range of them. A Borůvka round then labels each point with
//! its component ([`KdTree::mark_components`] records which nodes are
//! single-component) and asks, for every point, for the nearest point of a
//! *different* component ([`KdTree::offer_foreign`]).

use wagg_geometry::Point;

/// Most points a leaf holds.
const LEAF_SIZE: usize = 16;

/// Node label for "points of more than one component".
const MIXED: usize = usize::MAX;

/// A candidate MST edge between input indices `a < b`, ordered by the strict
/// total order `(length, a, b)` — the order [`kruskal_mst`](crate::kruskal_mst)
/// sorts its candidates by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    /// Euclidean length, [`Point::distance`] of the endpoints.
    pub(crate) length: f64,
    /// Smaller input index.
    pub(crate) a: usize,
    /// Larger input index.
    pub(crate) b: usize,
}

impl Candidate {
    /// No edge found yet; every real candidate precedes it.
    pub(crate) const NONE: Candidate = Candidate {
        length: f64::INFINITY,
        a: usize::MAX,
        b: usize::MAX,
    };

    /// Whether `self` strictly precedes `other` in the edge order.
    fn precedes(&self, other: &Candidate) -> bool {
        self.length < other.length
            || (self.length == other.length && (self.a, self.b) < (other.a, other.b))
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// The node's points are `start..end` in tree order.
    start: usize,
    end: usize,
    /// Index of the right child; the left child is the next node. `0` for a
    /// leaf (the root is never anyone's child).
    right: usize,
    /// Tight bounding box of the node's points.
    min: Point,
    max: Point,
}

impl Node {
    /// A lower bound on [`Point::distance`] from `p` to any point in the box.
    ///
    /// Each step (coordinate difference, square, sum, square root) is the same
    /// correctly rounded operation `Point::distance` performs on numbers that are
    /// no larger, and rounding is monotone, so the bound never exceeds a
    /// computed distance — ties included.
    fn lower_bound(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(p.x - self.max.x).max(0.0);
        let dy = (self.min.y - p.y).max(p.y - self.max.y).max(0.0);
        (dx * dx + dy * dy).sqrt()
    }
}

/// A kd-tree over a planar pointset; see the module docs.
#[derive(Debug)]
pub(crate) struct KdTree {
    /// The points in tree order.
    points: Vec<Point>,
    /// `order[k]` is the input index of the `k`-th point in tree order.
    order: Vec<usize>,
    /// Nodes in pre-order; node 0 is the root.
    nodes: Vec<Node>,
}

impl KdTree {
    /// Builds the tree in `O(n log n)` time.
    pub(crate) fn new(points: &[Point]) -> Self {
        let mut order: Vec<usize> = (0..points.len()).collect();
        let mut nodes = Vec::with_capacity(2 * points.len() / LEAF_SIZE + 1);
        build(points, &mut order, 0, &mut nodes);
        KdTree {
            points: order.iter().map(|&i| points[i]).collect(),
            order,
            nodes,
        }
    }

    /// Input index of each point, in tree order.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Sets `node_comp[k]` to the component every point of node `k` belongs to,
    /// or [`MIXED`]; `comp` labels the points in tree order.
    pub(crate) fn mark_components(&self, comp: &[usize], node_comp: &mut [usize]) {
        // Children come after their parent in pre-order.
        for (k, node) in self.nodes.iter().enumerate().rev() {
            node_comp[k] = if node.right == 0 {
                let c = comp[node.start];
                if comp[node.start..node.end].iter().all(|&x| x == c) {
                    c
                } else {
                    MIXED
                }
            } else if node_comp[k + 1] == node_comp[node.right] {
                node_comp[k + 1]
            } else {
                MIXED
            };
        }
    }

    /// Offers `best` every edge from the point at tree position `q` to a point of
    /// another component, keeping the first in the edge order.
    ///
    /// `best` is the best edge `q`'s component has found so far, so a subtree is
    /// pruned when its box lies strictly farther away than that edge — no edge
    /// the subtree holds could then precede it — or when all its points share
    /// `q`'s component. `stack` is scratch space.
    pub(crate) fn offer_foreign(
        &self,
        q: usize,
        comp: &[usize],
        node_comp: &[usize],
        best: &mut Candidate,
        stack: &mut Vec<(usize, f64)>,
    ) {
        let own = comp[q];
        let p = self.points[q];
        let origin = self.order[q];
        stack.clear();
        stack.push((0, 0.0));
        while let Some((k, bound)) = stack.pop() {
            if node_comp[k] == own || bound > best.length {
                continue;
            }
            let node = &self.nodes[k];
            if node.right == 0 {
                let range = node.start..node.end;
                let leaf = comp[range.clone()]
                    .iter()
                    .zip(&self.points[range.clone()])
                    .zip(&self.order[range]);
                for ((&label, &point), &other) in leaf {
                    if label == own {
                        continue;
                    }
                    let candidate = Candidate {
                        length: p.distance(point),
                        a: origin.min(other),
                        b: origin.max(other),
                    };
                    if candidate.precedes(best) {
                        *best = candidate;
                    }
                }
            } else {
                // Push the farther child first so the nearer one is searched
                // first and tightens `best` early.
                let (left, right) = (k + 1, node.right);
                let (bl, br) = (
                    self.nodes[left].lower_bound(p),
                    self.nodes[right].lower_bound(p),
                );
                if bl <= br {
                    stack.push((right, br));
                    stack.push((left, bl));
                } else {
                    stack.push((left, bl));
                    stack.push((right, br));
                }
            }
        }
    }
}

/// Builds the subtree over `order` (tree positions `offset..offset + order.len()`)
/// and returns its root's index.
fn build(points: &[Point], order: &mut [usize], offset: usize, nodes: &mut Vec<Node>) -> usize {
    let first = points[order[0]];
    let (mut min, mut max) = (first, first);
    for &i in &order[1..] {
        let p = points[i];
        min = Point::new(min.x.min(p.x), min.y.min(p.y));
        max = Point::new(max.x.max(p.x), max.y.max(p.y));
    }
    let k = nodes.len();
    nodes.push(Node {
        start: offset,
        end: offset + order.len(),
        right: 0,
        min,
        max,
    });
    if order.len() > LEAF_SIZE {
        let mid = order.len() / 2;
        if max.x - min.x >= max.y - min.y {
            order.select_nth_unstable_by(mid, |&i, &j| points[i].x.total_cmp(&points[j].x));
        } else {
            order.select_nth_unstable_by(mid, |&i, &j| points[i].y.total_cmp(&points[j].y));
        }
        let (left, right) = order.split_at_mut(mid);
        build(points, left, offset, nodes);
        nodes[k].right = build(points, right, offset + mid, nodes);
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = wagg_geometry::rng::seeded_rng(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect()
    }

    #[test]
    fn tree_order_is_a_permutation_and_boxes_are_tight() {
        let pts = random_points(500, 3);
        let kd = KdTree::new(&pts);
        let mut seen = kd.order().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..pts.len()).collect::<Vec<_>>());
        for node in &kd.nodes {
            assert!(node.end - node.start <= LEAF_SIZE || node.right != 0);
            let inside = &kd.points[node.start..node.end];
            assert!(inside.iter().all(|p| node.lower_bound(*p) == 0.0));
            assert!(inside.iter().any(|p| p.x == node.min.x));
            assert!(inside.iter().any(|p| p.y == node.max.y));
        }
    }

    #[test]
    fn singleton_components_find_their_nearest_neighbour() {
        let pts = random_points(300, 9);
        let kd = KdTree::new(&pts);
        let comp: Vec<usize> = kd.order().to_vec();
        let mut node_comp = vec![0; kd.node_count()];
        kd.mark_components(&comp, &mut node_comp);
        let mut stack = Vec::new();
        for q in 0..pts.len() {
            let mut best = Candidate::NONE;
            kd.offer_foreign(q, &comp, &node_comp, &mut best, &mut stack);
            let i = kd.order()[q];
            let nearest = (0..pts.len())
                .filter(|&j| j != i)
                .map(|j| pts[i].distance(pts[j]))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(best.length, nearest);
            assert!(best.a == i || best.b == i);
        }
    }

    #[test]
    fn lower_bound_never_exceeds_a_point_distance() {
        let pts = random_points(200, 5);
        let kd = KdTree::new(&pts);
        for q in random_points(50, 6) {
            for node in &kd.nodes {
                for p in &kd.points[node.start..node.end] {
                    assert!(node.lower_bound(q) <= q.distance(*p));
                }
            }
        }
    }
}

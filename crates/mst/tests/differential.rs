//! `euclidean_mst` (kd-tree Borůvka) against `kruskal_mst` (all pairs, sorted),
//! edge for edge.
//!
//! Both return the unique MST under the order (length, smaller index, larger
//! index), so their edge *sets* must be equal on every input, ties included —
//! equal weight is not enough. The inputs cover random reals, integer lattices
//! (heavy ties), collinear points and clustered high-Δ deployments.

use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeSet;
use wagg_geometry::Point;
use wagg_instances::random::clustered;
use wagg_mst::{euclidean_mst, kruskal_mst, MstError, SpanningTree};

fn edge_set(tree: &SpanningTree) -> BTreeSet<(usize, usize)> {
    tree.edges().iter().map(|e| (e.a, e.b)).collect()
}

/// The first coincident pair in lexicographic order, by the all-pairs scan.
fn first_duplicate(points: &[Point]) -> Option<(usize, usize)> {
    (0..points.len()).find_map(|i| {
        ((i + 1)..points.len())
            .find(|&j| points[i].distance_squared(points[j]) == 0.0)
            .map(|j| (i, j))
    })
}

/// Checks the two constructions agree: the same edge set, or the same
/// duplicate pair as the all-pairs scan.
fn assert_agree(points: &[Point]) {
    if let Some((first, second)) = first_duplicate(points) {
        let expected = MstError::DuplicatePoints { first, second };
        assert_eq!(euclidean_mst(points).unwrap_err(), expected);
        assert_eq!(kruskal_mst(points, &[]).unwrap_err(), expected);
        return;
    }
    let fast = euclidean_mst(points).unwrap();
    let oracle = kruskal_mst(points, &[]).unwrap();
    assert_eq!(
        edge_set(&fast),
        edge_set(&oracle),
        "{} points",
        points.len()
    );
}

fn to_points(xs: &[(f64, f64)]) -> Vec<Point> {
    xs.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

/// The pointset's length diversity (longest over shortest pairwise distance).
fn diversity(points: &[Point]) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for (i, p) in points.iter().enumerate() {
        for q in &points[i + 1..] {
            let d = p.distance(*q);
            lo = lo.min(d);
            hi = hi.max(d);
        }
    }
    hi / lo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_reals(xs in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 2..300)) {
        assert_agree(&to_points(&xs));
    }

    /// Small lattices: many equal lengths, and repeated draws are duplicates.
    #[test]
    fn integer_lattices(
        side in 2u32..16,
        xs in proptest::collection::vec((0u32..16, 0u32..16), 2..200),
    ) {
        let pts: Vec<Point> = xs
            .iter()
            .map(|&(x, y)| Point::new((x % side) as f64, (y % side) as f64))
            .collect();
        assert_agree(&pts);
    }

    #[test]
    fn distinct_lattice_points(cells in proptest::collection::hash_set((0u32..20, 0u32..20), 2..250)) {
        let pts: Vec<Point> = cells.iter().map(|&(x, y)| Point::new(x as f64, y as f64)).collect();
        assert_agree(&pts);
    }

    /// Points on one line, at integer steps (all-tie spacings) or real ones,
    /// along an axis or a diagonal.
    #[test]
    fn collinear(
        steps in proptest::collection::hash_set(0u32..400, 2..150),
        offsets in proptest::collection::vec(0.0f64..400.0, 2..150),
        (dx, dy) in prop_oneof![Just((1.0, 0.0)), Just((0.0, 1.0)), Just((3.0, 4.0)), Just((1.0, 1.0))],
    ) {
        let on_line = |t: f64| Point::new(7.0 + t * dx, -2.0 + t * dy);
        assert_agree(&steps.iter().map(|&t| on_line(t as f64)).collect::<Vec<_>>());
        assert_agree(&offsets.iter().map(|&t| on_line(t)).collect::<Vec<_>>());
    }

    /// Random reals with copies planted at random positions.
    #[test]
    fn planted_duplicates(
        xs in proptest::collection::vec((0.0f64..50.0, 0.0f64..50.0), 3..120),
        copies in proptest::collection::vec((0usize..1000, 0usize..1000), 1..4),
    ) {
        let mut pts = to_points(&xs);
        for &(from, to) in &copies {
            let (from, to) = (from % pts.len(), to % pts.len());
            pts[to] = pts[from];
        }
        assert_agree(&pts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Clustered deployments with Δ ≥ 10⁶, up to 1 500 points.
    #[test]
    fn clustered_high_diversity(
        clusters in 2usize..30,
        per_cluster in 5usize..50,
        seed in 0u64..1_000_000,
    ) {
        let pts = clustered(clusters, per_cluster, 1e6, 0.5, seed).points;
        prop_assume!(diversity(&pts) >= 1e6);
        assert_agree(&pts);
    }
}

#[test]
fn clustered_two_thousand_nodes() {
    let pts = clustered(20, 100, 100_000.0, 1.0, 12).points;
    assert_eq!(pts.len(), 2_000);
    assert_agree(&pts);
}

#[test]
fn signed_zeros_coincide() {
    let pts = vec![
        Point::new(1.0, 1.0),
        Point::new(0.0, -0.0),
        Point::new(2.0, 0.0),
        Point::new(-0.0, 0.0),
    ];
    assert_eq!(
        euclidean_mst(&pts).unwrap_err(),
        MstError::DuplicatePoints {
            first: 1,
            second: 3
        }
    );
}

#[test]
fn duplicate_report_is_the_lexicographically_first_pair() {
    // Copies of node 4 at 2 and 6, of node 1 at 5: the first pair is (1, 5).
    let mut pts: Vec<Point> = (0..8)
        .map(|i| Point::new(i as f64, (i * i) as f64))
        .collect();
    pts[2] = pts[4];
    pts[6] = pts[4];
    pts[5] = pts[1];
    assert_eq!(first_duplicate(&pts), Some((1, 5)));
    assert_agree(&pts);
}

/// `edges()` lists the tree in the order Prim's algorithm from node 0 attaches
/// the nodes: each edge is the shortest between the nodes attached so far and
/// the rest.
#[test]
fn edges_follow_prim_attachment_order() {
    let mut rng = wagg_geometry::rng::seeded_rng(5);
    for _ in 0..20 {
        let n = rng.gen_range(2..80);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        let tree = euclidean_mst(&pts).unwrap();
        let mut attached = vec![false; n];
        attached[0] = true;
        for e in tree.edges() {
            assert!(
                attached[e.a] != attached[e.b],
                "{e:?} does not attach a new node"
            );
            let shortest = (0..n)
                .filter(|&u| attached[u])
                .flat_map(|u| (0..n).filter(|&v| !attached[v]).map(move |v| (u, v)))
                .map(|(u, v)| pts[u].distance(pts[v]))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(e.length(&pts), shortest);
            attached[e.a] = true;
            attached[e.b] = true;
        }
    }
}

#[test]
fn a_point_without_comparable_distances_is_an_error() {
    let pts = vec![
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(f64::NAN, 2.0),
    ];
    assert!(matches!(
        euclidean_mst(&pts),
        Err(MstError::NotASpanningTree { .. })
    ));
}

//! Random and structured planar deployments (the instances of Corollary 1).

use crate::Instance;
use rand::Rng;
use std::collections::HashSet;
use wagg_geometry::rng::{derive_seed, seeded_rng};
use wagg_geometry::Point;

/// The exact coordinates of a point, with `-0.0` folded into `+0.0`, so two
/// generated points share a key exactly when they coincide.
fn coordinates(p: Point) -> (u64, u64) {
    ((p.x + 0.0).to_bits(), (p.y + 0.0).to_bits())
}

/// `n` nodes uniformly at random in an axis-aligned square of side `side`,
/// with node 0 as the sink.
///
/// The generator resamples any point that collides exactly with an existing point,
/// so the pointset always has a well-defined length diversity.
///
/// # Panics
///
/// Panics if `n < 2` or `side <= 0`.
///
/// # Examples
///
/// ```
/// use wagg_instances::random::uniform_square;
///
/// let inst = uniform_square(50, 10.0, 7);
/// assert_eq!(inst.points.len(), 50);
/// let bb = inst.bounding_box().unwrap();
/// assert!(bb.width() <= 10.0 && bb.height() <= 10.0);
/// ```
pub fn uniform_square(n: usize, side: f64, seed: u64) -> Instance {
    assert!(n >= 2, "need at least two nodes");
    assert!(side > 0.0, "side must be positive");
    let mut rng = seeded_rng(seed);
    let mut points: Vec<Point> = Vec::with_capacity(n);
    let mut taken = HashSet::with_capacity(n);
    while points.len() < n {
        let p = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        if taken.insert(coordinates(p)) {
            points.push(p);
        }
    }
    Instance::new(format!("uniform-square-n{n}"), points, 0)
}

/// `n` nodes uniformly at random in a disk of radius `radius` centred at the origin,
/// with node 0 as the sink.
///
/// # Panics
///
/// Panics if `n < 2` or `radius <= 0`.
pub fn uniform_disk(n: usize, radius: f64, seed: u64) -> Instance {
    assert!(n >= 2, "need at least two nodes");
    assert!(radius > 0.0, "radius must be positive");
    let mut rng = seeded_rng(seed);
    let mut points: Vec<Point> = Vec::with_capacity(n);
    let mut taken = HashSet::with_capacity(n);
    while points.len() < n {
        // Rejection sampling from the bounding square keeps the distribution uniform.
        let p = Point::new(
            rng.gen_range(-radius..radius),
            rng.gen_range(-radius..radius),
        );
        if p.distance(Point::origin()) <= radius && taken.insert(coordinates(p)) {
            points.push(p);
        }
    }
    Instance::new(format!("uniform-disk-n{n}"), points, 0)
}

/// A `rows × cols` unit grid, with the sink at the grid's corner node `(0, 0)`.
///
/// Regular grids are the classic example where constant aggregation rate is possible
/// (referenced in the paper's related work); they also serve as a worst case for the
/// `G1` sparsity constant because every MST edge has the same length.
///
/// # Panics
///
/// Panics if `rows * cols < 2`.
pub fn grid(rows: usize, cols: usize, spacing: f64) -> Instance {
    assert!(rows * cols >= 2, "need at least two nodes");
    assert!(spacing > 0.0, "spacing must be positive");
    let mut points = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            points.push(Point::new(c as f64 * spacing, r as f64 * spacing));
        }
    }
    Instance::new(format!("grid-{rows}x{cols}"), points, 0)
}

/// A clustered deployment: `clusters` cluster centres uniformly in a square of side
/// `side`, each with `per_cluster` nodes placed uniformly within radius
/// `cluster_radius` of the centre. Node 0 is the sink.
///
/// Clustered deployments have large length diversity (tight intra-cluster distances,
/// long inter-cluster distances), which stresses the `log log Δ` and `log* Δ` factors.
///
/// # Panics
///
/// Panics if `clusters * per_cluster < 2` or any geometric parameter is non-positive.
pub fn clustered(
    clusters: usize,
    per_cluster: usize,
    side: f64,
    cluster_radius: f64,
    seed: u64,
) -> Instance {
    assert!(clusters * per_cluster >= 2, "need at least two nodes");
    assert!(
        side > 0.0 && cluster_radius > 0.0,
        "geometry must be positive"
    );
    let mut rng = seeded_rng(seed);
    let mut points = Vec::with_capacity(clusters * per_cluster);
    let mut taken = HashSet::with_capacity(clusters * per_cluster);
    for c in 0..clusters {
        let mut centre_rng = seeded_rng(derive_seed(seed, c as u64));
        let centre = Point::new(
            centre_rng.gen_range(0.0..side),
            centre_rng.gen_range(0.0..side),
        );
        let mut placed = 0;
        while placed < per_cluster {
            let p = Point::new(
                centre.x + rng.gen_range(-cluster_radius..cluster_radius),
                centre.y + rng.gen_range(-cluster_radius..cluster_radius),
            );
            if taken.insert(coordinates(p)) {
                points.push(p);
                placed += 1;
            }
        }
    }
    Instance::new(format!("clustered-{clusters}x{per_cluster}"), points, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_square_is_reproducible() {
        let a = uniform_square(30, 50.0, 123);
        let b = uniform_square(30, 50.0, 123);
        assert_eq!(a, b);
        let c = uniform_square(30, 50.0, 124);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_square_points_inside_square() {
        let inst = uniform_square(100, 5.0, 9);
        for p in &inst.points {
            assert!((0.0..5.0).contains(&p.x));
            assert!((0.0..5.0).contains(&p.y));
        }
        assert!(inst.mst().is_ok());
    }

    #[test]
    fn uniform_disk_points_inside_disk() {
        let inst = uniform_disk(80, 3.0, 11);
        for p in &inst.points {
            assert!(p.distance(Point::origin()) <= 3.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn uniform_square_rejects_tiny_n() {
        let _ = uniform_square(1, 1.0, 0);
    }

    #[test]
    fn grid_structure() {
        let inst = grid(3, 4, 2.0);
        assert_eq!(inst.points.len(), 12);
        // Max distance is the diagonal (6, 4); min distance is the spacing 2.
        let expected = (36.0f64 + 16.0).sqrt() / 2.0;
        assert!((inst.length_diversity().unwrap() - expected).abs() < 1e-12);
        // The MST of a grid has unit-spacing edges only.
        let tree = inst.mst().unwrap();
        assert!((tree.max_edge_length() - 2.0).abs() < 1e-12);
        assert!((tree.min_edge_length() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clustered_has_large_diversity() {
        let inst = clustered(4, 8, 1000.0, 1.0, 5);
        assert_eq!(inst.points.len(), 32);
        assert!(inst.length_diversity().unwrap() > 20.0);
    }

    /// The generators as they were with an `O(n²)` scan for a coincident point.
    mod quadratic {
        use super::*;

        fn fresh(points: &[Point], p: Point) -> bool {
            points.iter().all(|q| q.distance_squared(p) > 0.0)
        }

        pub fn uniform_square(n: usize, side: f64, seed: u64) -> Vec<Point> {
            let mut rng = seeded_rng(seed);
            let mut points = Vec::with_capacity(n);
            while points.len() < n {
                let p = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
                if fresh(&points, p) {
                    points.push(p);
                }
            }
            points
        }

        pub fn uniform_disk(n: usize, radius: f64, seed: u64) -> Vec<Point> {
            let mut rng = seeded_rng(seed);
            let mut points = Vec::with_capacity(n);
            while points.len() < n {
                let p = Point::new(
                    rng.gen_range(-radius..radius),
                    rng.gen_range(-radius..radius),
                );
                if p.distance(Point::origin()) <= radius && fresh(&points, p) {
                    points.push(p);
                }
            }
            points
        }

        pub fn clustered(
            clusters: usize,
            per_cluster: usize,
            side: f64,
            cluster_radius: f64,
            seed: u64,
        ) -> Vec<Point> {
            let mut rng = seeded_rng(seed);
            let mut points = Vec::with_capacity(clusters * per_cluster);
            for c in 0..clusters {
                let mut centre_rng = seeded_rng(derive_seed(seed, c as u64));
                let centre = Point::new(
                    centre_rng.gen_range(0.0..side),
                    centre_rng.gen_range(0.0..side),
                );
                let mut placed = 0;
                while placed < per_cluster {
                    let p = Point::new(
                        centre.x + rng.gen_range(-cluster_radius..cluster_radius),
                        centre.y + rng.gen_range(-cluster_radius..cluster_radius),
                    );
                    if fresh(&points, p) {
                        points.push(p);
                        placed += 1;
                    }
                }
            }
            points
        }
    }

    /// Bit-for-bit equality, so `-0.0` and `0.0` would not pass for each other.
    fn same_bits(a: &[Point], b: &[Point]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
    }

    #[test]
    fn hashed_rejection_matches_the_quadratic_scan() {
        for seed in [0, 1, 7, 42, 801] {
            for (n, side) in [(300, 100.0), (400, 1e-3)] {
                let hashed = uniform_square(n, side, seed);
                assert!(same_bits(
                    &hashed.points,
                    &quadratic::uniform_square(n, side, seed)
                ));
                let hashed = uniform_disk(n, side, seed);
                assert!(same_bits(
                    &hashed.points,
                    &quadratic::uniform_disk(n, side, seed)
                ));
            }
            // Radii down to a few ulps of the centres force coincident draws
            // that must be rejected.
            for (clusters, per_cluster, side, radius) in [
                (10, 40, 100_000.0, 1.0),
                (3, 60, 1.0, 1e-15),
                (4, 30, 0.0001, 1e-19),
            ] {
                let hashed = clustered(clusters, per_cluster, side, radius, seed);
                let scanned = quadratic::clustered(clusters, per_cluster, side, radius, seed);
                assert!(same_bits(&hashed.points, &scanned));
            }
        }
    }

    #[test]
    fn coordinates_fold_negative_zero() {
        assert_eq!(
            coordinates(Point::new(-0.0, 1.0)),
            coordinates(Point::new(0.0, 1.0))
        );
        assert_ne!(
            coordinates(Point::new(1.0, 2.0)),
            coordinates(Point::new(2.0, 1.0))
        );
    }

    #[test]
    fn random_instances_have_positive_diversity() {
        for seed in 0..5 {
            let inst = uniform_square(40, 100.0, seed);
            assert!(inst.length_diversity().unwrap() >= 1.0);
        }
    }
}

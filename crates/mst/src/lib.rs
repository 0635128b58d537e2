//! Euclidean minimum spanning trees and the aggregation trees built from them.
//!
//! The paper's aggregation protocol uses the *minimum spanning tree* of the sensor
//! pointset, oriented towards the sink, as its convergecast tree (Theorem 1).
//! This crate provides:
//!
//! * [`euclidean`] — MST construction over planar pointsets: kd-tree Borůvka in
//!   `O(n log² n)` expected time, Kruskal in `O(n² log n)` as its oracle, and a
//!   specialised `O(n log n)` sort for points on a line. All three return the
//!   unique MST under the edge order (length, smaller endpoint index, larger
//!   endpoint index), so they agree edge for edge, ties included,
//! * [`tree`] — the [`SpanningTree`](tree::SpanningTree) type, orientation towards
//!   a sink into a set of convergecast [`Link`](wagg_sinr::Link)s, and structural
//!   statistics (depth, degrees),
//! * [`sparsity`] — the MST sparsity measure `I(i, T_i^+)` of the paper's Lemma 1,
//!   which drives the constant chromatic number of `G1` (Theorem 2),
//! * [`kconnect`] — `k`-edge-connected spanners built from unions of edge-disjoint
//!   MSTs (Remark 2 of the paper).
//!
//! # Examples
//!
//! ```
//! use wagg_geometry::Point;
//! use wagg_mst::euclidean::euclidean_mst;
//! use wagg_mst::tree::SpanningTree;
//!
//! let points = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(1.0, 0.0),
//!     Point::new(0.0, 1.0),
//!     Point::new(5.0, 5.0),
//! ];
//! let tree = euclidean_mst(&points).unwrap();
//! assert_eq!(tree.edges().len(), 3);
//! let links = tree.orient_towards(0);
//! assert_eq!(links.len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod approx;
pub mod error;
pub mod euclidean;
pub mod kconnect;
mod kdtree;
pub mod sparsity;
pub mod tree;

pub use error::MstError;
pub use euclidean::{euclidean_mst, kruskal_mst, line_mst};
pub use tree::{Edge, SpanningTree};

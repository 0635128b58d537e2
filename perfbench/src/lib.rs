//! End-to-end and per-layer benchmark of the wireless-aggregation
//! workspace.
//!
//! Three workloads drive the public API the way a user would:
//!
//! * `aggregate_mst` — the paper's job: points of a clustered, high-Δ
//!   deployment to a verified MST schedule ([`AggregationProblem::solve`]).
//! * `cold_sharded` — a 200 000-link hinted sharded session on a
//!   [`SchedulerService`]: open + solve, snapshot, restore + solve, close.
//! * `churn_service` — two clients, each churning its own hosted
//!   20 000-link engine repair session: a closed loop, then an open loop at
//!   a fixed rate.
//!
//! An untraced run reports the end-to-end metrics of
//! [`END_TO_END`]; a traced run repeats the workload's requests on
//! directly driven sessions with `wagg-obs` recorders installed, harvests
//! the service's own recorder, and reports [`PER_LAYER`]. Every run
//! checks its outputs outside the timed spans; a failed check counts as a
//! failed operation.
//!
//! [`AggregationProblem::solve`]: wireless_aggregation::AggregationProblem::solve
//! [`SchedulerService`]: wireless_aggregation::SchedulerService

mod aggregate;
pub mod churn;
mod cold;
mod report;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use wireless_aggregation::obs::trace;
use wireless_aggregation::{Recorder, SchedulerService, ServiceConfig};

pub use report::{Outcome, END_TO_END, PER_LAYER};

/// Instance sizes and load levels of the three workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// `aggregate_mst`: deployments a run solves, round robin.
    pub deployments: usize,
    /// `aggregate_mst`: clusters in each deployment.
    pub clusters: usize,
    /// `aggregate_mst`: nodes per cluster.
    pub per_cluster: usize,
    /// `aggregate_mst`: side of the square the cluster centres fall in.
    pub side: f64,
    /// `aggregate_mst`: half-width of each cluster.
    pub cluster_radius: f64,
    /// `cold_sharded`: unit links in the session.
    pub cold_links: usize,
    /// `cold_sharded`: target shard count.
    pub shards: usize,
    /// `churn_service`: unit links in each client's session.
    pub churn_links: usize,
    /// `churn_service`: offered open-loop rate over both clients, in ops/s.
    pub churn_rate: f64,
    /// `churn_service`: churn ops each client replays on a directly driven
    /// session in a traced run.
    pub replay_ops: usize,
    /// Fewest requests a batch workload (`aggregate_mst`, `cold_sharded`)
    /// measures, however short the run.
    pub min_requests: usize,
}

impl Scale {
    /// The benchmark's sizes (see `BENCHMARK.json`).
    pub const FULL: Scale = Scale {
        deployments: 4,
        clusters: 100,
        per_cluster: 100,
        side: 100_000.0,
        cluster_radius: 1.0,
        cold_links: 200_000,
        shards: 16,
        churn_links: 20_000,
        churn_rate: 600.0,
        replay_ops: 300,
        min_requests: 2,
    };
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's MST aggregation.
    AggregateMst,
    /// Cold sharded solve, snapshot and restore on the service.
    ColdSharded,
    /// Hosted churn from two clients.
    ChurnService,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AggregateMst,
        Workload::ColdSharded,
        Workload::ChurnService,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AggregateMst => "aggregate_mst",
            Workload::ColdSharded => "cold_sharded",
            Workload::ChurnService => "churn_service",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Instance sizes.
    pub scale: Scale,
    /// Where a traced run writes its chrome trace (validated either way).
    pub trace_dir: Option<PathBuf>,
}

/// Runs one workload and returns what it measured and checked.
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    match config.workload {
        Workload::AggregateMst => aggregate::run(config, &mut out),
        Workload::ColdSharded => cold::run(config, &mut out),
        Workload::ChurnService => churn::run(config, &mut out),
    }
    if config.trace {
        out.finish_layers();
    }
    out
}

/// Seconds elapsed since `start`.
pub(crate) fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds elapsed since `start`.
pub(crate) fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The measured phase's deadline.
pub(crate) fn deadline(config: &RunConfig, share: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(config.seconds * share)
}

/// The service every service workload runs on: two workers, one per core
/// of the reference box.
pub(crate) fn start_service() -> SchedulerService {
    SchedulerService::start(ServiceConfig {
        workers: 2,
        queue_depth: 8,
        telemetry: None,
    })
}

/// Validates the recorder's chrome trace and writes it to the run's trace
/// directory; an invalid (or, with `obs` on, empty) trace fails the run.
pub(crate) fn emit_trace(recorder: &Recorder, config: &RunConfig, out: &mut Outcome) {
    let text = recorder.chrome_trace();
    match trace::validate(&text) {
        Ok(stats) if stats.events > 0 || !cfg!(feature = "obs") => {}
        Ok(_) => return out.fail("chrome trace holds no spans".into()),
        Err(e) => return out.fail(format!("chrome trace rejected: {e}")),
    }
    let Some(dir) = &config.trace_dir else { return };
    let path = dir.join(format!(
        "{}-{}.trace.json",
        config.workload.name(),
        config.seed
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        out.fail(format!("writing {}: {e}", path.display()));
    }
}

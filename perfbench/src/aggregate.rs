//! `aggregate_mst`: the paper's job — a clustered, high-Δ deployment to a
//! verified schedule of its MST under mean-oblivious power.

use std::time::Instant;

use wireless_aggregation::conflict::ConflictGraph;
use wireless_aggregation::geometry::rng::derive_seed;
use wireless_aggregation::instances::random::clustered;
use wireless_aggregation::mst::euclidean_mst;
use wireless_aggregation::{AggregationProblem, Backend, Instance, PowerMode, Recorder, Session};

use crate::stats::{max, mean, median};
use crate::{emit_trace, millis, secs, Outcome, RunConfig, Scale};

/// The `k`-th seeded deployment of a run.
pub fn deployment(scale: &Scale, seed: u64, k: usize) -> Instance {
    clustered(
        scale.clusters,
        scale.per_cluster,
        scale.side,
        scale.cluster_radius,
        derive_seed(seed, k as u64),
    )
}

/// The aggregation problem over `deployment` (default `Backend::Auto`).
pub fn problem(deployment: &Instance) -> AggregationProblem {
    AggregationProblem::from_instance(deployment).with_power_mode(PowerMode::mean_oblivious())
}

/// Set-up is making the run's deployments. The measured request is one
/// [`AggregationProblem::solve`], checked with `verify` and
/// `is_partition`; a round solves every deployment once. The set-up is
/// repeated after every round, so `setup_s` samples the whole run rather
/// than its first second.
pub fn run(config: &RunConfig, out: &mut Outcome) {
    let scale = &config.scale;
    let set_up = || {
        let t = Instant::now();
        let problems: Vec<AggregationProblem> = (0..scale.deployments)
            .map(|k| problem(&deployment(scale, config.seed, k)))
            .collect();
        (problems, secs(t))
    };
    let (problems, first) = set_up();
    let mut setup = vec![first];

    let end = crate::deadline(config, 1.0);
    let mut solves = vec![Vec::new(); problems.len()];
    let mut slots = vec![0.0; problems.len()];
    let mut rounds = Vec::new();
    while rounds.len() < scale.min_requests || Instant::now() < end {
        let round = Instant::now();
        for (k, problem) in problems.iter().enumerate() {
            let t = Instant::now();
            let solved = problem.solve();
            solves[k].push(secs(t));
            out.count(1, 0);
            match solved {
                Ok(solution) => {
                    slots[k] = solution.slots() as f64;
                    if !(solution.verify()
                        && solution
                            .report
                            .schedule()
                            .is_partition(solution.links.len()))
                    {
                        out.fail("aggregation schedule failed verification".into());
                    }
                }
                Err(e) => out.fail(format!("aggregation failed: {e}")),
            }
        }
        rounds.push(secs(round) * 1e3);
        setup.push(set_up().1);
    }
    out.set("setup_s", median(&setup));
    let per_deployment: Vec<f64> = solves.iter().map(|s| median(s)).collect();
    let solve_time: f64 = solves.iter().flatten().sum();
    out.set("solve_s", mean(&per_deployment));
    out.set("slots", mean(&slots));
    out.set("p50_ms", median(&rounds));
    out.set("tail_ms", max(&rounds));
    out.set("ops_per_s", out.attempted as f64 / solve_time);
    out.set(
        "ok_frac",
        (out.attempted - out.failed) as f64 / out.attempted as f64,
    );

    if config.trace {
        traced(config, &problems[0], per_deployment[0], out);
    }
}

/// The same request taken apart at the layer boundaries, on a session with
/// a recorder: a timed MST build, a timed conflict-graph build over the
/// MST links, and the session solve whose spans give the static split.
fn traced(config: &RunConfig, problem: &AggregationProblem, untraced_s: f64, out: &mut Outcome) {
    let recorder = Recorder::new();
    let start = Instant::now();

    let span = recorder.span("bench/mst");
    let t = Instant::now();
    let tree = match euclidean_mst(problem.points()) {
        Ok(tree) => tree,
        Err(e) => return out.fail(format!("MST failed: {e}")),
    };
    out.set("mst.build_ms", millis(t));
    drop(span);
    let links = match tree.try_orient_towards(problem.sink()) {
        Ok(links) => links,
        Err(e) => return out.fail(format!("orienting the MST failed: {e}")),
    };

    let scheduler = problem.config();
    let span = recorder.span("bench/open");
    let t = Instant::now();
    let mut session = Session::builder()
        .scheduler(scheduler)
        .backend(Backend::Auto)
        .links(&links)
        .recorder(recorder.clone())
        .build();
    out.set("session.open_ms", millis(t));
    drop(span);

    let before = recorder.metrics().root_nanos();
    let t = Instant::now();
    let report = session.solve();
    let solve_ms = millis(t);
    let traced_s = secs(start);
    let metrics = report.metrics.clone().unwrap_or_default();
    let attributed = metrics.root_nanos().saturating_sub(before) as f64 / 1e6;
    out.set("session.unattributed_ms", solve_ms - attributed);
    out.set("trace.overhead_ms", (traced_s - untraced_s) * 1e3);
    out.harvest(&metrics);
    if !report
        .schedule()
        .verify(&links, &scheduler.model, scheduler.mode)
    {
        out.fail("traced aggregation schedule failed verification".into());
    }

    let relation = scheduler.mode.conflict_relation(scheduler.model.alpha());
    let span = recorder.span("bench/conflict");
    let t = Instant::now();
    let graph = ConflictGraph::build(&links, relation);
    out.set("conflict.build_ms", millis(t));
    drop(span);
    out.set("conflict.edges", graph.edge_count() as f64);

    emit_trace(&recorder, config, out);
}

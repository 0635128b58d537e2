//! `cold_sharded`: a large hinted sharded session on the service — open and
//! solve from cold, snapshot, restore and solve, close.

use std::time::Instant;

use wagg_bench::uniform_unit_links;
use wireless_aggregation::conflict::ConflictGraph;
use wireless_aggregation::geometry::BoundingBox;
use wireless_aggregation::session::{PartitionHints, RestoreError};
use wireless_aggregation::{
    Backend, Frame, Link, PowerMode, Recorder, RepairPolicy, SchedulerConfig, SchedulerService,
    ServiceError, Session, SessionConfig, SolveReport,
};

use crate::stats::{max, median};
use crate::{emit_trace, millis, secs, start_service, Outcome, RunConfig, Scale};

/// The seeded link set.
pub fn links(scale: &Scale, seed: u64) -> Vec<Link> {
    uniform_unit_links(scale.cold_links, seed)
}

/// Hinted sharded sessions with warm repair on: the configuration of the
/// `service/{snapshot,restore_solve}` rows.
pub fn session_config(scale: &Scale) -> SessionConfig {
    let side = (scale.cold_links as f64).sqrt() * 4.0;
    SessionConfig {
        scheduler: SchedulerConfig::new(PowerMode::mean_oblivious()),
        backend: Backend::Sharded,
        target_shards: scale.shards,
        partition: Some(PartitionHints {
            extent: BoundingBox::new(-1.5, -1.5, side + 1.5, side + 1.5),
            length_bounds: (0.9, 1.1),
        }),
        repair: RepairPolicy::enabled(),
        ..SessionConfig::default()
    }
}

/// Timings of one request cycle, in seconds.
struct Cycle {
    cold: f64,
    snapshot: f64,
    restore: f64,
    total: f64,
    slots: usize,
    frame_bytes: usize,
}

/// Set-up is making the links and starting the service; the measured
/// request is the cycle open + solve, snapshot, restore + solve, close.
/// The set-up is repeated after every cycle, so `setup_s` samples the
/// whole run rather than its first moment.
pub fn run(config: &RunConfig, out: &mut Outcome) {
    let set_up = || {
        let t = Instant::now();
        let ready = (links(&config.scale, config.seed), start_service());
        (ready, secs(t))
    };
    let ((links, service), first) = set_up();
    let mut setup = vec![first];
    let session_config = session_config(&config.scale);

    let end = crate::deadline(config, 1.0);
    let mut cycles = Vec::new();
    while cycles.len() < config.scale.min_requests || Instant::now() < end {
        out.count(1, 0);
        match cycle(&service, session_config, &links, out) {
            Ok(c) => cycles.push(c),
            Err(e) => out.fail(format!("service cycle failed: {e}")),
        }
        let ((_, again), t) = set_up();
        setup.push(t);
        again.shutdown();
    }
    service.shutdown();
    out.set("setup_s", median(&setup));

    let pick = |f: fn(&Cycle) -> f64| -> Vec<f64> { cycles.iter().map(f).collect() };
    let totals = pick(|c| c.total * 1e3);
    out.set("solve_s", median(&pick(|c| c.cold)));
    out.set("slots", median(&pick(|c| c.slots as f64)));
    out.set("p50_ms", median(&totals));
    out.set("tail_ms", max(&totals));
    out.set(
        "ops_per_s",
        cycles.len() as f64 / pick(|c| c.total).iter().sum::<f64>(),
    );
    out.set(
        "ok_frac",
        (out.attempted - out.failed) as f64 / out.attempted as f64,
    );

    if config.trace {
        out.set("cold.snapshot_ms", median(&pick(|c| c.snapshot * 1e3)));
        out.set("cold.restore_solve_ms", median(&pick(|c| c.restore * 1e3)));
        out.set(
            "snapshot.frame_mb",
            median(&pick(|c| c.frame_bytes as f64 / 1e6)),
        );
        traced(config, session_config, &links, out);
    }
}

/// One request cycle; the checks run outside the timed spans.
fn cycle(
    service: &SchedulerService,
    config: SessionConfig,
    links: &[Link],
    out: &mut Outcome,
) -> Result<Cycle, ServiceError> {
    let start = Instant::now();
    let origin = service.open_session(config, links)?;
    let cold = service.solve(origin)?;
    let cold_s = secs(start);
    let t = Instant::now();
    let frame = service.snapshot(origin)?;
    let snapshot_s = secs(t);
    let t = Instant::now();
    let clone = service.restore(&frame)?;
    let restored = service.solve(clone)?;
    let restore_s = secs(t);
    service.close_session(origin)?;
    service.close_session(clone)?;
    let total = secs(start);

    check(&cold, &restored, links.len(), out);
    Ok(Cycle {
        cold: cold_s,
        snapshot: snapshot_s,
        restore: restore_s,
        total,
        slots: cold.slots(),
        frame_bytes: frame.len(),
    })
}

/// The cold schedule partitions the links and the restored session
/// schedules slot for slot like its origin.
fn check(cold: &SolveReport, restored: &SolveReport, n: usize, out: &mut Outcome) {
    if !cold.schedule().is_partition(n) {
        out.fail("cold schedule is not a partition of the links".into());
    }
    if cold.schedule() != restored.schedule() {
        out.fail("restored session schedules differently from its origin".into());
    }
}

/// The cycle on a directly driven session with a recorder, each layer
/// call timed: session build, solve (with the part no span covers),
/// state capture, wire encode and decode, restore and first solve, and a
/// conflict-graph build over the whole link set. An untraced direct open +
/// solve first gives the tracing overhead.
fn traced(config: &RunConfig, session_config: SessionConfig, links: &[Link], out: &mut Outcome) {
    let t = Instant::now();
    let untraced = Session::builder()
        .config(session_config)
        .links(links)
        .build()
        .solve();
    let untraced_ms = millis(t);

    let recorder = Recorder::new();
    let span = recorder.span("bench/open");
    let t = Instant::now();
    let mut session = Session::builder()
        .config(session_config)
        .links(links)
        .recorder(recorder.clone())
        .build();
    let open_ms = millis(t);
    drop(span);
    out.set("session.open_ms", open_ms);

    let before = recorder.metrics().root_nanos();
    let t = Instant::now();
    let cold = session.solve();
    let solve_ms = millis(t);
    let metrics = cold.metrics.clone().unwrap_or_default();
    let attributed = metrics.root_nanos().saturating_sub(before) as f64 / 1e6;
    out.set("session.unattributed_ms", solve_ms - attributed);
    out.set("trace.overhead_ms", open_ms + solve_ms - untraced_ms);
    out.harvest(&metrics);
    if cold.schedule() != untraced.schedule() {
        out.fail("the recorder changed the cold schedule".into());
    }

    let span = recorder.span("bench/capture");
    let t = Instant::now();
    let state = session.capture_state();
    out.set("state.capture_ms", millis(t));
    drop(span);
    let span = recorder.span("bench/encode");
    let t = Instant::now();
    let bytes = Frame::Snapshot(state).encode();
    out.set("wire.encode_ms", millis(t));
    drop(span);
    let restored = bytes.map_err(|e| e.to_string()).and_then(|bytes| {
        let span = recorder.span("bench/decode");
        let t = Instant::now();
        let frame = Frame::decode(&bytes);
        out.set("wire.decode_ms", millis(t));
        drop(span);
        let Ok(Frame::Snapshot(state)) = frame else {
            return Err("snapshot frame did not decode to a snapshot".to_string());
        };
        let span = recorder.span("bench/restore");
        let t = Instant::now();
        let restored = Session::restore_state(&state);
        out.set("state.restore_ms", millis(t));
        drop(span);
        restored.map_err(|e: RestoreError| e.to_string())
    });
    match restored {
        Ok(mut restored) => {
            let span = recorder.span("bench/first_solve");
            let t = Instant::now();
            let again = restored.solve();
            out.set("restore.first_solve_ms", millis(t));
            drop(span);
            check(&cold, &again, links.len(), out);
        }
        Err(e) => out.fail(format!("direct snapshot round trip failed: {e}")),
    }
    drop(session);

    let scheduler = session_config.scheduler;
    let relation = scheduler.mode.conflict_relation(scheduler.model.alpha());
    let span = recorder.span("bench/conflict");
    let t = Instant::now();
    let graph = ConflictGraph::build(links, relation);
    out.set("conflict.build_ms", millis(t));
    drop(span);
    out.set("conflict.edges", graph.edge_count() as f64);

    emit_trace(&recorder, config, out);
}

//! The [`SchedulerBackend`] trait and its three implementations.
//!
//! A backend owns a mutable link universe and knows how to turn it into a
//! [`SolveReport`]. All three speak the same event vocabulary (insert /
//! remove / relocate / move-node, addressed by session-stable `u64` keys),
//! so the [`Session`](crate::Session) facade can swap execution strategies
//! without the call sites noticing:
//!
//! * [`StaticBackend`] — keeps the links in a key-ordered map and runs the
//!   from-scratch kernel (`wagg_schedule::solve_static`) per solve;
//! * [`EngineBackend`] — an incrementally maintained
//!   [`InterferenceEngine`]: events patch the spatial grids, conflict
//!   adjacency and path-loss state, and solving reuses all of it;
//! * [`ShardedBackend`] — the spatially sharded pipeline, either re-tiling
//!   the current link set per solve (`wagg_partition::solve_sharded`) or,
//!   when the session declares [`PartitionHints`](crate::PartitionHints),
//!   routing events through a [`PartitionedEngine`] whose per-shard state is
//!   maintained incrementally.
//!
//! The repair-capable backends keep their warm state **position-indexed**
//! and patch it in place from the kernel's per-link deltas
//! ([`wagg_schedule::RepairOutcome`]): a repair-path solve costs O(dirty
//! neighbourhood), not an O(n) re-capture. Full recolors (cold starts,
//! watermark breaches) still re-anchor through [`WarmSchedule::capture`],
//! which stays the correctness oracle — debug builds assert the patched
//! state equals a from-scratch capture after every repair commit.

use crate::state::{self, BackendState, EventCounts, KeyedLink, RestoreError, WarmState};
use crate::{RepairPolicy, SessionError, SessionStats};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use wagg_engine::{EngineConfig, InterferenceEngine};
use wagg_geometry::Point;
use wagg_obs::Recorder;
use wagg_partition::{
    solve_sharded_traced, AffectanceVerifier, PartitionedEngine, PartitionedEngineConfig,
    VerifierStrategy,
};
use wagg_schedule::{
    solve_static_traced, BackendKind, CacheJudge, RepairDecision, RepairOutcome, RepairStats,
    ScheduleReport, SchedulerConfig, SolveReport,
};
use wagg_sinr::{Link, LinkId, NodeId, PathLossCache};

/// One execution strategy behind the [`Session`](crate::Session) facade: a
/// mutable link universe plus a way to schedule it.
///
/// Keys are session-stable `u64`s assigned by [`SchedulerBackend::insert`]
/// in increasing order and never reused. [`SchedulerBackend::links`] returns
/// the live universe in the backend's **solve order** — the order the
/// backend's [`SolveReport`] schedule indexes into, with ids relabeled to
/// `0..len()`. For the static and sharded backends that is ascending key
/// order; the engine backend exposes the engine's slot order (stable per
/// link, but a recycled slot can place a newer link before an older one),
/// matching the legacy engine path exactly.
pub trait SchedulerBackend: std::fmt::Debug {
    /// Which strategy this backend realises.
    fn kind(&self) -> BackendKind;

    /// Number of live links.
    fn len(&self) -> usize;

    /// Whether no links are live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live links in the backend's solve order (see the trait docs),
    /// ids relabeled to `0..len()`.
    fn links(&self) -> Vec<Link>;

    /// Whether `key` names a live link.
    fn contains(&self, key: u64) -> bool;

    /// Inserts a link, returning its key. Node annotations (when given) make
    /// the link follow [`SchedulerBackend::move_node`] events.
    ///
    /// # Panics
    ///
    /// The hinted sharded backend panics when the link's length falls
    /// outside the declared [`PartitionHints`](crate::PartitionHints)
    /// bounds (they size the tiling's halo margin).
    fn insert(&mut self, sender: Point, receiver: Point, nodes: Option<(NodeId, NodeId)>) -> u64;

    /// Removes the link under `key`.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownKey`] when no live link has this key.
    fn remove(&mut self, key: u64) -> Result<(), SessionError>;

    /// Moves the link under `key` to a new geometry (annotations and key are
    /// preserved).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownKey`] when no live link has this key.
    ///
    /// # Panics
    ///
    /// The hinted sharded backend panics when the new length falls outside
    /// the declared [`PartitionHints`](crate::PartitionHints) bounds.
    fn relocate(&mut self, key: u64, sender: Point, receiver: Point) -> Result<(), SessionError>;

    /// Moves a pointset node: every live link annotated with `node` follows.
    /// Returns the number of links touched.
    ///
    /// # Panics
    ///
    /// The hinted sharded backend panics when a followed link's new length
    /// falls outside the declared [`PartitionHints`](crate::PartitionHints)
    /// bounds; links of the node relocated before the offending one stay
    /// moved (declared-bounds violations are programmer errors, not
    /// recoverable events).
    fn move_node(&mut self, node: usize, to: Point) -> usize;

    /// Schedules the current universe from scratch.
    fn solve(&mut self) -> SolveReport;

    /// Schedules the current universe by warm-start repair (see
    /// [`wagg_schedule::solve_repair`]): keep the previous assignment, re-place
    /// only the links the event batch dirtied, fall back to a full recolor when
    /// the schedule length drifts past `policy.max_drift`. Returns `None` when
    /// this backend maintains no incremental state to repair from (the session
    /// then runs [`SchedulerBackend::solve`] and tags
    /// [`RepairDecision::Unsupported`]).
    fn solve_repair(&mut self, policy: &RepairPolicy) -> Option<SolveReport> {
        let _ = policy;
        None
    }

    /// Installs a `wagg-obs` recorder: subsequent solves record their phase
    /// spans and work counters into it (see
    /// [`SessionBuilder::recorder`](crate::SessionBuilder::recorder)). The
    /// default implementation discards the recorder — a backend without
    /// instrumentation hooks simply records nothing.
    fn set_recorder(&mut self, recorder: Recorder) {
        let _ = recorder;
    }

    /// Snapshot of the incremental warm repair state, by vertex position in
    /// the backend's solve order — `None` for backends without warm state,
    /// or before the first repair-enabled solve. Test-only introspection
    /// for the warm-state invariant suite; not a public contract.
    #[doc(hidden)]
    fn warm_state(&self) -> Option<WarmStateView> {
        None
    }

    /// Event accounting for this backend.
    fn stats(&self) -> SessionStats;

    /// Materialises the backend's full state — universe with stable keys in
    /// solve order, key counter, dirty set, warm repair state — as plain
    /// data (see [`crate::state`]). The session snapshot surface
    /// ([`crate::Session::capture_state`]) builds on this.
    fn capture_state(&self) -> BackendState;
}

/// Position-indexed snapshot of a backend's warm repair state, exposed
/// through [`SchedulerBackend::warm_state`] for the warm-state invariant
/// suite in `tests/repair.rs`.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStateView {
    /// Vertex position → committed slot (`None` marks a link dirtied since
    /// the last repair-committed schedule).
    pub colors: Vec<Option<usize>>,
    /// Vertex position → warm affectance budget.
    pub budgets: Vec<f64>,
    /// Schedule length of the last full recolor.
    pub baseline_slots: usize,
}

/// Warm-start state a repair-capable backend carries between solves: the
/// last committed assignment and budgets, **indexed by vertex position** in
/// the backend's solve order. The backends keep their key↔position mirrors
/// alive across solves and splice these vectors in lockstep as the universe
/// churns, so positions stay current without any per-solve rebuild — and
/// there is no keyed side table to leak stale entries (removal drops the
/// color and the budget in one splice, structurally).
#[derive(Debug)]
struct WarmSchedule {
    /// Position → slot index in the last committed schedule; `None` marks a
    /// link dirtied since (inserted, relocated, re-seated) — exactly the
    /// `prev_colors` contract of [`wagg_schedule::solve_repair`].
    colors: Vec<Option<usize>>,
    /// Position → upper bound on the link's affectance total inside its
    /// slot (the additive-repair budget contract of
    /// [`wagg_schedule::solve_repair`]). Zero-filled when the config has no
    /// additive kernel (noise, global power control) — the opaque probe
    /// path never reads them.
    budgets: Vec<f64>,
    /// Schedule length of the last full recolor.
    baseline_slots: usize,
    /// `(max_owned, mean_owned, ghost_fraction)` from the last full
    /// sharded solve. The warm repair fast path touches only the dirty
    /// set and cannot re-derive per-shard occupancy, so it carries the
    /// last full-solve skew forward instead of zeroing it — the drift
    /// signals downstream stay real across repairs. `None` for backends
    /// without sharding accounting (engine warm state).
    skew: Option<(usize, f64, f64)>,
}

impl WarmSchedule {
    /// Captures `report`'s assignment from scratch, position `i` carrying
    /// warm budget `budgets[i]`. This is the re-anchoring path (cold
    /// starts, watermark breaches) and the correctness oracle the
    /// incremental patches are checked against in debug builds.
    fn capture(report: &ScheduleReport, baseline: usize, budgets: Vec<f64>) -> Self {
        debug_assert_eq!(budgets.len(), report.num_links, "one budget per link");
        let mut colors = vec![None; report.num_links];
        for (t, slot) in report.schedule.slots().iter().enumerate() {
            for &i in slot {
                colors[i] = Some(t);
            }
        }
        WarmSchedule {
            colors,
            budgets,
            baseline_slots: baseline,
            skew: None,
        }
    }

    /// Patches the warm state in place from a repair's per-link deltas —
    /// O(replaced) instead of the O(n) re-capture this path used to run.
    /// The three steps follow the replay contract documented on
    /// [`RepairOutcome`]: remap surviving colors through the compaction
    /// (if any), replay the admission budget increments in order, then let
    /// the placements overwrite — a re-placed link's stale color/budget
    /// may transiently hold garbage between steps, but its placement
    /// carries the final values.
    fn patch(&mut self, outcome: &RepairOutcome) {
        if let Some(remap) = &outcome.slot_remap {
            for c in self.colors.iter_mut().flatten() {
                *c = remap[*c];
            }
        }
        for &(pos, inc) in &outcome.increments {
            self.budgets[pos] += inc;
        }
        for p in &outcome.placements {
            self.colors[p.pos] = Some(p.slot);
            self.budgets[p.pos] = p.budget;
        }
        // `capture` stays the correctness oracle: in debug builds (i.e.
        // every test solve) the patched state must equal a from-scratch
        // capture of the same outcome, bit for bit.
        if cfg!(debug_assertions) {
            let oracle = WarmSchedule::capture(
                &outcome.report,
                self.baseline_slots,
                outcome.budgets.clone(),
            );
            assert_eq!(
                self.colors, oracle.colors,
                "patched colors diverge from capture"
            );
            assert_eq!(
                self.budgets, oracle.budgets,
                "patched budgets diverge from capture"
            );
        }
    }

    /// Splices a fresh (dirty, unscheduled) entry in at `pos`.
    fn insert_at(&mut self, pos: usize) {
        self.colors.insert(pos, None);
        self.budgets.insert(pos, 0.0);
    }

    /// Drops the entry at `pos`. The budget goes with the color: under
    /// incremental capture a leaked budget entry would outlive its link
    /// forever (the old per-solve rebuild scrubbed the leak by accident).
    fn remove_at(&mut self, pos: usize) {
        self.colors.remove(pos);
        self.budgets.remove(pos);
    }

    /// Marks the entry at `pos` dirty (geometry changed in place).
    fn mark_dirty(&mut self, pos: usize) {
        self.colors[pos] = None;
        self.budgets[pos] = 0.0;
    }
}

/// Root span (no `/`, so `Metrics::root_nanos` counts it) around a full
/// recolor's warm re-anchoring: budget capture where the backend prices
/// them itself, and the [`WarmSchedule::capture`] of the new assignment.
const ANCHOR_SPAN: &str = "warm_anchor";

/// Per-vertex warm budgets for a freshly recolored schedule, captured slot
/// by slot through the certified verifier under `strategy` (near-linear per
/// slot — certified upper bounds are exactly what the additive repair
/// contract wants, and on a just-verified schedule every budget lands
/// within `1/β`). Only the engine backend's re-anchor prices budgets this
/// way: its cold verification is the exact static kernel, which yields no
/// reusable totals. The hinted sharded backend takes its budgets from the
/// pipeline's own verification pass
/// ([`PartitionedEngine::schedule_with_budgets`]) and calls this only as
/// the debug-build oracle for them.
fn recolor_budgets(
    config: &SchedulerConfig,
    strategy: VerifierStrategy,
    links: &[Link],
    powers: &[Option<f64>],
    weights: &[Option<f64>],
    schedule: &wagg_schedule::Schedule,
) -> Vec<f64> {
    let verifier =
        AffectanceVerifier::new(&config.model, links, powers, weights).with_strategy(strategy);
    let mut budgets = vec![0.0f64; links.len()];
    for slot in schedule.slots() {
        for (&i, b) in slot.iter().zip(verifier.budgets(slot)) {
            budgets[i] = b;
        }
    }
    budgets
}

/// The `(power, weight)` entry [`PathLossCache::new`] would compute for
/// `link` under `config`'s pinned assignment. The cache computes entries
/// per link independently, so one event can refresh one mirror entry
/// without touching the rest — the same single-link trick the
/// interference engine's event maintenance uses. `(None, None)` when the
/// mode pins no assignment or the model has noise: the opaque judge path
/// never reads the parts.
fn link_parts(config: &SchedulerConfig, link: &Link) -> (Option<f64>, Option<f64>) {
    match (config.model.noise() == 0.0)
        .then(|| config.mode.assignment())
        .flatten()
    {
        Some(assignment) => {
            let (p, w) = PathLossCache::new(&config.model, std::slice::from_ref(link), &assignment)
                .into_parts();
            (p[0], w[0])
        }
        None => (None, None),
    }
}

/// Relative schedule-length drift vs. the baseline, finite even for an empty
/// baseline (so it survives the report codec).
fn drift_vs(slots: usize, baseline: usize) -> f64 {
    (slots as f64 - baseline as f64) / baseline.max(1) as f64
}

/// Captures a key-ordered link map as [`KeyedLink`]s, ids relabeled to
/// positions (the canonical form: capture → restore → capture is identity).
fn keyed_from_map(links: &BTreeMap<u64, Link>) -> Vec<KeyedLink> {
    links
        .iter()
        .enumerate()
        .map(|(pos, (&key, link))| {
            let mut l = *link;
            l.id = LinkId(pos);
            KeyedLink { key, link: l }
        })
        .collect()
}

/// Re-assigns contiguous ids in iteration (= ascending key) order.
fn relabeled(links: &BTreeMap<u64, Link>) -> Vec<Link> {
    links
        .values()
        .enumerate()
        .map(|(pos, link)| {
            let mut l = *link;
            l.id = LinkId(pos);
            l
        })
        .collect()
}

/// Builds the link value for an insert (annotated links follow node moves).
fn make_link(sender: Point, receiver: Point, nodes: Option<(NodeId, NodeId)>) -> Link {
    match nodes {
        Some((s, r)) => Link::with_nodes(0, sender, receiver, s, r),
        None => Link::new(0, sender, receiver),
    }
}

/// Rebuilds `old` at a new geometry with id and node annotations preserved
/// — the single re-seat path every backend's relocate / move-node shares,
/// so id and annotation handling cannot drift between them (it used to:
/// the sharded arms rebuilt moved links as `Link::new(0, ..)`, dropping
/// the id the map-backed paths kept).
fn re_seat(old: &Link, sender: Point, receiver: Point) -> Link {
    let mut moved = Link::new(0, sender, receiver);
    moved.id = old.id;
    moved.sender_node = old.sender_node;
    moved.receiver_node = old.receiver_node;
    moved
}

/// Updates the endpoints of every link in `links` annotated with `node`,
/// returning the touched count — the map-backed backends' shared
/// `move_node`.
fn move_node_in_map(links: &mut BTreeMap<u64, Link>, node: usize, to: Point) -> Vec<u64> {
    let node = NodeId(node);
    let touched: Vec<u64> = links
        .iter()
        .filter(|(_, l)| l.sender_node == Some(node) || l.receiver_node == Some(node))
        .map(|(&k, _)| k)
        .collect();
    for &key in &touched {
        let old = links[&key];
        let sender = if old.sender_node == Some(node) {
            to
        } else {
            old.sender
        };
        let receiver = if old.receiver_node == Some(node) {
            to
        } else {
            old.receiver
        };
        links.insert(key, re_seat(&old, sender, receiver));
    }
    touched
}

/// The from-scratch strategy: a key-ordered link map, scheduled by the
/// static kernel per solve. Matches `wagg_schedule::solve_static` slot for
/// slot (the differential suite pins this).
#[derive(Debug)]
pub struct StaticBackend {
    scheduler: SchedulerConfig,
    links: BTreeMap<u64, Link>,
    next_key: u64,
    inserts: usize,
    removals: usize,
    moves: usize,
    recorder: Recorder,
}

impl StaticBackend {
    /// An empty backend.
    pub fn new(scheduler: SchedulerConfig) -> Self {
        StaticBackend {
            scheduler,
            links: BTreeMap::new(),
            next_key: 0,
            inserts: 0,
            removals: 0,
            moves: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Seeds the universe with `links` (keys `0..n` in input order, node
    /// annotations preserved).
    pub fn with_links(scheduler: SchedulerConfig, links: &[Link]) -> Self {
        let mut backend = StaticBackend::new(scheduler);
        for link in links {
            let key = backend.next_key;
            backend.next_key += 1;
            backend.links.insert(key, *link);
        }
        backend.inserts = links.len();
        backend
    }

    /// Rebuilds a backend from captured state (see
    /// [`crate::Session::restore_state`]), validating it first.
    pub(crate) fn restore(
        scheduler: SchedulerConfig,
        links: &[KeyedLink],
        next_key: u64,
        counts: EventCounts,
    ) -> Result<Self, RestoreError> {
        state::check_ascending(links)?;
        state::check_next_key(links, next_key)?;
        Ok(StaticBackend {
            scheduler,
            links: links.iter().map(|k| (k.key, k.link)).collect(),
            next_key,
            inserts: counts.inserts,
            removals: counts.removals,
            moves: counts.moves,
            recorder: Recorder::disabled(),
        })
    }
}

impl SchedulerBackend for StaticBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Static
    }

    fn len(&self) -> usize {
        self.links.len()
    }

    fn links(&self) -> Vec<Link> {
        relabeled(&self.links)
    }

    fn contains(&self, key: u64) -> bool {
        self.links.contains_key(&key)
    }

    fn insert(&mut self, sender: Point, receiver: Point, nodes: Option<(NodeId, NodeId)>) -> u64 {
        let key = self.next_key;
        self.next_key += 1;
        self.links.insert(key, make_link(sender, receiver, nodes));
        self.inserts += 1;
        key
    }

    fn remove(&mut self, key: u64) -> Result<(), SessionError> {
        self.links
            .remove(&key)
            .map(|_| self.removals += 1)
            .ok_or(SessionError::UnknownKey { key })
    }

    fn relocate(&mut self, key: u64, sender: Point, receiver: Point) -> Result<(), SessionError> {
        let old = *self
            .links
            .get(&key)
            .ok_or(SessionError::UnknownKey { key })?;
        self.links.insert(key, re_seat(&old, sender, receiver));
        self.moves += 1;
        Ok(())
    }

    fn move_node(&mut self, node: usize, to: Point) -> usize {
        let touched = move_node_in_map(&mut self.links, node, to).len();
        self.moves += 1;
        touched
    }

    fn solve(&mut self) -> SolveReport {
        solve_static_traced(&self.links(), self.scheduler, &self.recorder).into()
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    fn stats(&self) -> SessionStats {
        SessionStats {
            backend: BackendKind::Static,
            links: self.links.len(),
            inserts: self.inserts,
            removals: self.removals,
            moves: self.moves,
        }
    }

    fn capture_state(&self) -> BackendState {
        BackendState::Static {
            links: keyed_from_map(&self.links),
            next_key: self.next_key,
            counts: EventCounts {
                inserts: self.inserts,
                removals: self.removals,
                moves: self.moves,
            },
        }
    }
}

/// The engine backend's persistent repair state: the solve-order mirrors
/// that used to be rebuilt per solve — live-slot order, its inverse, the
/// relabeled links and their path-loss parts — plus the warm schedule, all
/// spliced per event instead. Built lazily by the first repair-enabled
/// solve; stays `None` forever on repair-disabled sessions, so the event
/// path pays nothing there.
#[derive(Debug)]
struct EngineWarm {
    /// Vertex position → engine slot, ascending (the engine's solve order).
    live: Vec<usize>,
    /// Engine slot → vertex position (`usize::MAX` for dead slots).
    pos_of: Vec<usize>,
    /// The live links in solve order, ids relabeled to positions — what
    /// `InterferenceEngine::links` would collect.
    links: Vec<Link>,
    /// The engine's maintained per-link path-loss parts in solve order —
    /// what `InterferenceEngine::cache_parts` would collect.
    powers: Vec<Option<f64>>,
    weights: Vec<Option<f64>>,
    sched: WarmSchedule,
}

impl EngineWarm {
    /// Collects the mirrors from the engine's current state — the one O(n)
    /// collection left on the repair path, run only when a full recolor
    /// re-anchors a cold session. The placeholder warm schedule is
    /// replaced by the caller's `capture`.
    fn build(engine: &InterferenceEngine) -> Self {
        let live = engine.live_slots();
        let links = engine.links();
        let (powers, weights) = engine.cache_parts();
        let mut pos_of = vec![usize::MAX; engine.capacity()];
        for (pos, &slot) in live.iter().enumerate() {
            pos_of[slot] = pos;
        }
        EngineWarm {
            live,
            pos_of,
            links,
            powers,
            weights,
            sched: WarmSchedule {
                colors: Vec::new(),
                budgets: Vec::new(),
                baseline_slots: 0,
                skew: None,
            },
        }
    }

    /// Splices a freshly inserted engine slot into the mirrors (positions
    /// at and after it shift up by one).
    fn insert_slot(&mut self, engine: &InterferenceEngine, slot: usize) {
        let pos = self.live.partition_point(|&s| s < slot);
        let link = *engine.link(slot).expect("slot was just inserted");
        let (p, w) = engine.cache_entry(slot);
        self.live.insert(pos, slot);
        self.links.insert(pos, link);
        self.powers.insert(pos, p);
        self.weights.insert(pos, w);
        self.sched.insert_at(pos);
        if self.pos_of.len() < engine.capacity() {
            self.pos_of.resize(engine.capacity(), usize::MAX);
        }
        self.refit(pos);
    }

    /// Drops a removed engine slot from the mirrors (positions after it
    /// shift down by one). The warm budget entry leaves with the color
    /// entry — see [`WarmSchedule::remove_at`].
    fn remove_slot(&mut self, slot: usize) {
        let pos = self.pos_of[slot];
        debug_assert_ne!(pos, usize::MAX, "removing a dead slot");
        self.live.remove(pos);
        self.links.remove(pos);
        self.powers.remove(pos);
        self.weights.remove(pos);
        self.sched.remove_at(pos);
        self.pos_of[slot] = usize::MAX;
        self.refit(pos);
    }

    /// Re-derives positions and relabeled ids from `from` onward after a
    /// splice — a plain index fix-up pass over the shifted tail.
    fn refit(&mut self, from: usize) {
        for pos in from..self.live.len() {
            self.pos_of[self.live[pos]] = pos;
            self.links[pos].id = LinkId(pos);
        }
    }

    /// Refreshes a re-seated slot's mirrored geometry and path-loss parts
    /// and dirties its warm entry (the engine re-seats moved links in
    /// their own slots, so the position is unchanged).
    fn reseat_slot(&mut self, engine: &InterferenceEngine, slot: usize) {
        let pos = self.pos_of[slot];
        let mut link = *engine.link(slot).expect("re-seated slot is live");
        link.id = LinkId(pos);
        self.links[pos] = link;
        let (p, w) = engine.cache_entry(slot);
        self.powers[pos] = p;
        self.weights[pos] = w;
        self.sched.mark_dirty(pos);
    }

    /// Debug-only: the event-spliced mirrors must equal what a from-scratch
    /// collection from the engine would produce.
    fn assert_matches_engine(&self, engine: &InterferenceEngine) {
        if cfg!(debug_assertions) {
            assert_eq!(self.live, engine.live_slots(), "live mirror diverged");
            assert_eq!(self.links, engine.links(), "link mirror diverged");
            let (powers, weights) = engine.cache_parts();
            assert_eq!(self.powers, powers, "power mirror diverged");
            assert_eq!(self.weights, weights, "weight mirror diverged");
        }
    }
}

/// The incremental strategy: an [`InterferenceEngine`] whose spatial grids,
/// conflict adjacency and path-loss state are patched per event; solving
/// snapshots the maintained state (no geometric rebuild). Matches the legacy
/// `InterferenceEngine::schedule` path slot for slot.
#[derive(Debug)]
pub struct EngineBackend {
    engine: InterferenceEngine,
    /// Session key → engine slot (slots recycle, keys never do).
    slot_of: BTreeMap<u64, usize>,
    /// Engine slot → session key (the inverse of `slot_of`, for mapping the
    /// engine's vertex order back to stable keys).
    key_of: HashMap<usize, u64>,
    next_key: u64,
    /// Keys dirtied (inserted / relocated / re-seated) since the last
    /// repair-committed schedule.
    dirty: BTreeSet<u64>,
    warm: Option<EngineWarm>,
}

impl EngineBackend {
    /// An empty backend maintaining state for `config`.
    pub fn new(config: EngineConfig) -> Self {
        EngineBackend {
            engine: InterferenceEngine::new(config),
            slot_of: BTreeMap::new(),
            key_of: HashMap::new(),
            next_key: 0,
            dirty: BTreeSet::new(),
            warm: None,
        }
    }

    /// Bulk-seeds the engine (slots and keys `0..n` in input order).
    pub fn with_links(config: EngineConfig, links: &[Link]) -> Self {
        let engine = InterferenceEngine::with_links(config, links);
        EngineBackend {
            slot_of: (0..links.len()).map(|i| (i as u64, i)).collect(),
            key_of: (0..links.len()).map(|i| (i, i as u64)).collect(),
            next_key: links.len() as u64,
            engine,
            dirty: BTreeSet::new(),
            warm: None,
        }
    }

    /// The maintained engine (adjacency queries, maintenance counters).
    pub fn engine(&self) -> &InterferenceEngine {
        &self.engine
    }

    /// Rebuilds a backend from captured state (see
    /// [`crate::Session::restore_state`]), validating it first. The links
    /// arrive in the captured engine's slot order and land in slots `0..n`
    /// — position-for-position the captured order, so the restored warm
    /// vectors index correctly and (engine snapshots being canonical) the
    /// next solve is byte-identical. Maintenance counters restart at zero:
    /// the bulk-built engine owns them.
    pub(crate) fn restore(
        config: EngineConfig,
        links: &[KeyedLink],
        next_key: u64,
        dirty: &[u64],
        warm: Option<&WarmState>,
    ) -> Result<Self, RestoreError> {
        state::check_unique(links)?;
        state::check_next_key(links, next_key)?;
        state::check_dirty(links, dirty)?;
        if let Some(w) = warm {
            state::check_warm(links, w)?;
        }
        let bare: Vec<Link> = links.iter().map(|k| k.link).collect();
        let mut backend = EngineBackend {
            engine: InterferenceEngine::with_links(config, &bare),
            slot_of: links.iter().enumerate().map(|(i, k)| (k.key, i)).collect(),
            key_of: links.iter().enumerate().map(|(i, k)| (i, k.key)).collect(),
            next_key,
            dirty: dirty.iter().copied().collect(),
            warm: None,
        };
        if let Some(w) = warm {
            let mut ew = EngineWarm::build(&backend.engine);
            ew.sched = WarmSchedule {
                colors: w.colors.clone(),
                budgets: w.budgets.clone(),
                baseline_slots: w.baseline_slots,
                skew: w.skew,
            };
            backend.warm = Some(ew);
        }
        Ok(backend)
    }

    /// Recolors from scratch, re-anchors the warm baseline and wraps the
    /// result with repair provenance (`dirty_links` / `drift` describe the
    /// state that led here — zero for a cold start, the breaching
    /// measurement on a watermark fallback).
    fn full_recolor(
        &mut self,
        decision: RepairDecision,
        policy: &RepairPolicy,
        dirty_links: usize,
        drift: f64,
    ) -> SolveReport {
        let report = self.engine.schedule();
        let slots = report.schedule.len();
        let config = self.engine.config().scheduler;
        // Re-anchor: the mirrors are collected once here (events splice
        // them current afterwards) and the warm schedule is re-captured
        // from the recolored report — `capture` stays the correctness
        // oracle the incremental patches are checked against.
        if self.warm.is_none() {
            self.warm = Some(EngineWarm::build(&self.engine));
        }
        let warm = self.warm.as_mut().expect("anchored above");
        warm.assert_matches_engine(&self.engine);
        let anchor = self.engine.recorder().span(ANCHOR_SPAN);
        let budgets = if config.verify_slots
            && config.model.noise() == 0.0
            && config.mode.assignment().as_ref() == Some(&self.engine.config().power)
        {
            recolor_budgets(
                &config,
                VerifierStrategy::default(),
                &warm.links,
                &warm.powers,
                &warm.weights,
                &report.schedule,
            )
        } else {
            vec![0.0; report.num_links]
        };
        warm.sched = WarmSchedule::capture(&report, slots, budgets);
        anchor.finish();
        self.dirty.clear();
        self.engine.recorder().add("repair.warm_recaptured", 1);
        let replaced = report.num_links;
        SolveReport::new(report, BackendKind::Engine).with_repair(RepairStats {
            decision,
            dirty_links,
            replaced_links: replaced,
            baseline_slots: slots,
            drift,
            watermark: policy.max_drift,
        })
    }
}

impl SchedulerBackend for EngineBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Engine
    }

    fn len(&self) -> usize {
        self.engine.len()
    }

    fn links(&self) -> Vec<Link> {
        // Engine vertex order is ascending slot order; keys are assigned in
        // insertion order but slots recycle, so the schedule's universe is
        // the engine's own (`InterferenceEngine::links`), exactly as the
        // legacy engine path exposed it.
        self.engine.links()
    }

    fn contains(&self, key: u64) -> bool {
        self.slot_of.contains_key(&key)
    }

    fn insert(&mut self, sender: Point, receiver: Point, nodes: Option<(NodeId, NodeId)>) -> u64 {
        let slot = match nodes {
            Some((s, r)) => self.engine.insert_link_with_nodes(sender, receiver, s, r),
            None => self.engine.insert_link(sender, receiver),
        };
        let key = self.next_key;
        self.next_key += 1;
        self.slot_of.insert(key, slot);
        self.key_of.insert(slot, key);
        self.dirty.insert(key);
        if let Some(warm) = &mut self.warm {
            warm.insert_slot(&self.engine, slot);
        }
        key
    }

    fn remove(&mut self, key: u64) -> Result<(), SessionError> {
        let slot = self
            .slot_of
            .remove(&key)
            .ok_or(SessionError::UnknownKey { key })?;
        self.engine.remove_link(slot)?;
        self.key_of.remove(&slot);
        // Departures are monotone-safe: the survivors of the vacated slot
        // stay feasible, so nothing else needs dirtying.
        self.dirty.remove(&key);
        if let Some(warm) = &mut self.warm {
            warm.remove_slot(slot);
        }
        Ok(())
    }

    fn relocate(&mut self, key: u64, sender: Point, receiver: Point) -> Result<(), SessionError> {
        let old_slot = *self
            .slot_of
            .get(&key)
            .ok_or(SessionError::UnknownKey { key })?;
        let old = self.engine.remove_link(old_slot)?;
        self.key_of.remove(&old_slot);
        let slot = match (old.sender_node, old.receiver_node) {
            (Some(s), Some(r)) => self.engine.insert_link_with_nodes(sender, receiver, s, r),
            _ => self.engine.insert_link(sender, receiver),
        };
        self.slot_of.insert(key, slot);
        self.key_of.insert(slot, key);
        self.dirty.insert(key);
        if let Some(warm) = &mut self.warm {
            // The engine's free list is LIFO, so the remove/insert pair
            // lands back in the same slot and the mirror update degenerates
            // to an in-place refresh; the guard keeps the mirror honest
            // should that engine detail ever change.
            if slot == old_slot {
                warm.reseat_slot(&self.engine, slot);
            } else {
                warm.remove_slot(old_slot);
                warm.insert_slot(&self.engine, slot);
            }
        }
        Ok(())
    }

    fn move_node(&mut self, node: usize, to: Point) -> usize {
        // Links are re-seated in their own slots, so the key binding holds —
        // but their geometry changed, so they must be re-placed.
        let touched = self.engine.node_slots(node);
        for &slot in &touched {
            self.dirty.insert(self.key_of[&slot]);
        }
        let count = self.engine.move_node(node, to);
        if let Some(warm) = &mut self.warm {
            for &slot in &touched {
                warm.reseat_slot(&self.engine, slot);
            }
        }
        count
    }

    fn solve(&mut self) -> SolveReport {
        SolveReport::new(self.engine.schedule(), BackendKind::Engine)
    }

    fn solve_repair(&mut self, policy: &RepairPolicy) -> Option<SolveReport> {
        let dirty_links = self.dirty.len();
        if self.warm.is_none() {
            return Some(self.full_recolor(RepairDecision::ColdStart, policy, dirty_links, 0.0));
        }
        let config = self.engine.config().scheduler;
        let (outcome, baseline) = {
            let warm = self.warm.as_ref().expect("anchored above");
            warm.assert_matches_engine(&self.engine);
            let baseline = warm.sched.baseline_slots;
            // Slots of the dirty links' conflict neighbours get one re-verify
            // sweep (their affectance budget is what the events perturbed).
            let mut check: Vec<usize> = self
                .dirty
                .iter()
                .filter_map(|key| self.slot_of.get(key))
                .flat_map(|&slot| self.engine.neighbors(slot))
                .map(|w| warm.pos_of[w])
                .collect();
            check.sort_unstable();
            check.dedup();
            let lend_cache = config.model.noise() == 0.0
                && config.mode.assignment().as_ref() == Some(&self.engine.config().power);
            let cache = lend_cache.then(|| {
                PathLossCache::from_borrowed_parts(
                    &config.model,
                    &warm.links,
                    &warm.powers,
                    &warm.weights,
                )
            });
            let judge = CacheJudge::new(&warm.links, config, cache.as_ref());
            let neighbors = |i: usize| -> Vec<usize> {
                self.engine
                    .neighbors(warm.live[i])
                    .into_iter()
                    .map(|w| warm.pos_of[w])
                    .collect()
            };
            let outcome = wagg_schedule::solve_repair_traced(
                &warm.links,
                &neighbors,
                &judge,
                &config,
                &warm.sched.colors,
                &warm.sched.budgets,
                &check,
                self.engine.recorder(),
            );
            (outcome, baseline)
        };
        let drift = drift_vs(outcome.report.schedule.len(), baseline);
        if drift > policy.max_drift {
            return Some(self.full_recolor(
                RepairDecision::WatermarkBreach,
                policy,
                dirty_links,
                drift,
            ));
        }
        // Commit by O(replaced) in-place patch — the O(n) post-solve
        // `capture` this path used to run is gone.
        self.warm
            .as_mut()
            .expect("anchored above")
            .sched
            .patch(&outcome);
        self.dirty.clear();
        self.engine.recorder().add("repair.warm_patched", 1);
        Some(
            SolveReport::new(outcome.report, BackendKind::Engine).with_repair(RepairStats {
                decision: RepairDecision::Repaired,
                dirty_links,
                replaced_links: outcome.replaced,
                baseline_slots: baseline,
                drift,
                watermark: policy.max_drift,
            }),
        )
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.engine.set_recorder(recorder);
    }

    fn warm_state(&self) -> Option<WarmStateView> {
        self.warm.as_ref().map(|w| WarmStateView {
            colors: w.sched.colors.clone(),
            budgets: w.sched.budgets.clone(),
            baseline_slots: w.sched.baseline_slots,
        })
    }

    fn stats(&self) -> SessionStats {
        let s = self.engine.stats();
        SessionStats {
            backend: BackendKind::Engine,
            links: self.engine.len(),
            inserts: s.inserts,
            removals: s.removals,
            moves: s.moves,
        }
    }

    fn capture_state(&self) -> BackendState {
        let s = self.engine.stats();
        BackendState::Engine {
            links: self
                .engine
                .live_slots()
                .iter()
                .enumerate()
                .map(|(pos, &slot)| {
                    let mut l = *self.engine.link(slot).expect("live slot");
                    l.id = LinkId(pos);
                    KeyedLink {
                        key: self.key_of[&slot],
                        link: l,
                    }
                })
                .collect(),
            next_key: self.next_key,
            dirty: self.dirty.iter().copied().collect(),
            warm: self.warm.as_ref().map(|w| WarmState {
                colors: w.sched.colors.clone(),
                budgets: w.sched.budgets.clone(),
                baseline_slots: w.sched.baseline_slots,
                skew: w.sched.skew,
            }),
            counts: EventCounts {
                inserts: s.inserts,
                removals: s.removals,
                moves: s.moves,
            },
        }
    }
}

/// The two execution modes of the sharded strategy.
#[derive(Debug)]
enum ShardedInner {
    /// No partition hints: keep the links in a map and re-tile per solve.
    Rebuild { links: BTreeMap<u64, Link> },
    /// Partition hints declared: per-shard engines maintained incrementally.
    /// The session-side mirrors are position-indexed vectors maintained per
    /// event — session keys and engine keys are both minted monotonically,
    /// so ascending-key order is ascending-position order for both, the
    /// vectors stay sorted with append-only inserts, and position `i` holds
    /// `skeys[i]` / `ekeys[i]` / `links[i]` — exactly the universe
    /// `PartitionedEngine::schedule` indexes. This is the **one** key
    /// collection the repair path has: built at event time, reused by the
    /// solve and the warm-state commit (the old per-solve rebuild collected
    /// the keys once before the solve and then a second time after it).
    Engine {
        engine: Box<PartitionedEngine>,
        /// Position → session key (sorted; binary-searchable).
        skeys: Vec<u64>,
        /// Position → engine key (sorted — the monotone mints again — so a
        /// binary search over this persistent vector *is* the ekey→position
        /// index; a position-valued hash map would need an O(n) re-index
        /// every time a removal shifts the tail).
        ekeys: Vec<u64>,
        /// The live links in solve order, ids relabeled to positions, node
        /// annotations preserved (the engine itself does not track them).
        links: Vec<Link>,
        /// Per-link path-loss parts under the scheduler's pinned assignment
        /// (`None`-filled when the mode pins none or the model has noise —
        /// the opaque judge path never reads them).
        powers: Vec<Option<f64>>,
        weights: Vec<Option<f64>>,
    },
}

/// The sharded strategy: conflict-radius tiling, independent per-shard
/// colorings, boundary stitching and certified verification. Matches
/// `wagg_partition::solve_sharded` (rebuild mode) and
/// `PartitionedEngine::schedule` (hinted mode) slot for slot.
#[derive(Debug)]
pub struct ShardedBackend {
    scheduler: SchedulerConfig,
    strategy: VerifierStrategy,
    target_shards: usize,
    inner: ShardedInner,
    next_key: u64,
    inserts: usize,
    removals: usize,
    moves: usize,
    /// Keys dirtied since the last repair-committed schedule (hinted engine
    /// mode only — rebuild mode has no incremental state to repair).
    dirty: BTreeSet<u64>,
    warm: Option<WarmSchedule>,
    recorder: Recorder,
}

impl ShardedBackend {
    /// A re-tiling backend (no partition hints): events mutate the link map,
    /// every solve runs the full sharded pipeline over the current set.
    pub fn new(
        scheduler: SchedulerConfig,
        strategy: VerifierStrategy,
        target_shards: usize,
    ) -> Self {
        ShardedBackend {
            scheduler,
            strategy,
            target_shards,
            inner: ShardedInner::Rebuild {
                links: BTreeMap::new(),
            },
            next_key: 0,
            inserts: 0,
            removals: 0,
            moves: 0,
            dirty: BTreeSet::new(),
            warm: None,
            recorder: Recorder::disabled(),
        }
    }

    /// An incrementally maintained backend over a fixed tiling
    /// ([`PartitionedEngineConfig`] — deployment extent and link length
    /// bounds come from the session's partition hints).
    pub fn with_partitioned_engine(config: PartitionedEngineConfig) -> Self {
        ShardedBackend {
            scheduler: config.scheduler,
            strategy: config.verifier,
            target_shards: config.target_shards,
            inner: ShardedInner::Engine {
                engine: Box::new(PartitionedEngine::new(config)),
                skeys: Vec::new(),
                ekeys: Vec::new(),
                links: Vec::new(),
                powers: Vec::new(),
                weights: Vec::new(),
            },
            next_key: 0,
            inserts: 0,
            removals: 0,
            moves: 0,
            dirty: BTreeSet::new(),
            warm: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Seeds the universe with `links` (keys `0..n` in input order).
    ///
    /// On a fresh hinted (engine-mode) backend this routes through
    /// [`PartitionedEngine::with_links`] — one grid-accelerated build per
    /// shard instead of `n` incremental conflict-row recomputations —
    /// producing the exact state (keys, mirrors, dirty set) the per-event
    /// path would have built. Million-link sessions construct in seconds
    /// where sequential insertion costs minutes.
    ///
    /// # Panics
    ///
    /// In hinted (engine) mode, panics when a link's length falls outside
    /// the declared bounds — the tiling's halo margin is sized from them.
    pub fn seeded(mut self, links: &[Link]) -> Self {
        if self.next_key == 0 && !links.is_empty() {
            if let ShardedInner::Engine {
                engine,
                skeys,
                ekeys,
                links: mirror,
                powers,
                weights,
            } = &mut self.inner
            {
                let config = *engine.config();
                **engine = PartitionedEngine::with_links(config, links);
                *skeys = (0..links.len() as u64).collect();
                *ekeys = (0..links.len() as u64).collect();
                // The sequential path drops partial node annotations (a
                // link follows move-node events only when both endpoints
                // are annotated); the bulk mirror must normalise the same
                // way.
                *mirror = links
                    .iter()
                    .enumerate()
                    .map(|(pos, l)| {
                        let mut staged = make_link(
                            l.sender,
                            l.receiver,
                            match (l.sender_node, l.receiver_node) {
                                (Some(s), Some(r)) => Some((s, r)),
                                _ => None,
                            },
                        );
                        staged.id = LinkId(pos);
                        staged
                    })
                    .collect();
                (*powers, *weights) = mirror
                    .iter()
                    .map(|l| link_parts(&self.scheduler, l))
                    .unzip();
                self.dirty = (0..links.len() as u64).collect();
                self.next_key = links.len() as u64;
                self.inserts = links.len();
                return self;
            }
        }
        for link in links {
            let nodes = match (link.sender_node, link.receiver_node) {
                (Some(s), Some(r)) => Some((s, r)),
                _ => None,
            };
            self.insert(link.sender, link.receiver, nodes);
        }
        self
    }

    /// Rebuilds a re-tiling (hint-less) backend from captured state (see
    /// [`crate::Session::restore_state`]), validating it first.
    pub(crate) fn restore_rebuild(
        scheduler: SchedulerConfig,
        strategy: VerifierStrategy,
        target_shards: usize,
        links: &[KeyedLink],
        next_key: u64,
        counts: EventCounts,
    ) -> Result<Self, RestoreError> {
        state::check_ascending(links)?;
        state::check_next_key(links, next_key)?;
        Ok(ShardedBackend {
            scheduler,
            strategy,
            target_shards,
            inner: ShardedInner::Rebuild {
                links: links.iter().map(|k| (k.key, k.link)).collect(),
            },
            next_key,
            inserts: counts.inserts,
            removals: counts.removals,
            moves: counts.moves,
            dirty: BTreeSet::new(),
            warm: None,
            recorder: Recorder::disabled(),
        })
    }

    /// Rebuilds a hinted (engine-mode) backend from captured state (see
    /// [`crate::Session::restore_state`]), validating it first. The engine
    /// is re-materialised through [`PartitionedEngine::with_links`] — the
    /// restart-in-seconds path — and mints fresh engine keys `0..n`
    /// (ascending, like the originals, so the sorted-mirror invariant and
    /// the position-ordered solve are preserved and the next solve is
    /// byte-identical).
    pub(crate) fn restore_engine(
        config: PartitionedEngineConfig,
        links: &[KeyedLink],
        next_key: u64,
        dirty: &[u64],
        warm: Option<&WarmState>,
        counts: EventCounts,
    ) -> Result<Self, RestoreError> {
        state::check_ascending(links)?;
        state::check_next_key(links, next_key)?;
        state::check_dirty(links, dirty)?;
        if let Some(w) = warm {
            state::check_warm(links, w)?;
        }
        // Pre-check the declared bounds so the engine's insert-path assert
        // cannot fire on a hostile snapshot (NaN lengths fail the range
        // test and land here too).
        let (lo, hi) = config.length_bounds;
        for k in links {
            let length = k.link.length();
            if !(length >= lo && length <= hi) {
                return Err(RestoreError::LengthOutOfBounds { key: k.key, length });
            }
        }
        let mirror: Vec<Link> = links
            .iter()
            .enumerate()
            .map(|(pos, k)| {
                let mut l = k.link;
                l.id = LinkId(pos);
                l
            })
            .collect();
        let engine = PartitionedEngine::with_links(config, &mirror);
        let (powers, weights) = mirror
            .iter()
            .map(|l| link_parts(&config.scheduler, l))
            .unzip();
        Ok(ShardedBackend {
            scheduler: config.scheduler,
            strategy: config.verifier,
            target_shards: config.target_shards,
            inner: ShardedInner::Engine {
                engine: Box::new(engine),
                skeys: links.iter().map(|k| k.key).collect(),
                ekeys: (0..links.len() as u64).collect(),
                links: mirror,
                powers,
                weights,
            },
            next_key,
            inserts: counts.inserts,
            removals: counts.removals,
            moves: counts.moves,
            dirty: dirty.iter().copied().collect(),
            warm: warm.map(|w| WarmSchedule {
                colors: w.colors.clone(),
                budgets: w.budgets.clone(),
                baseline_slots: w.baseline_slots,
                skew: w.skew,
            }),
            recorder: Recorder::disabled(),
        })
    }

    /// Runs the full hinted-engine pipeline, re-anchors the warm baseline and
    /// wraps the result with repair provenance. Only called in engine mode.
    fn full_recolor_hinted(
        &mut self,
        decision: RepairDecision,
        policy: &RepairPolicy,
        dirty_links: usize,
        drift: f64,
    ) -> SolveReport {
        let ShardedInner::Engine {
            engine,
            links,
            powers,
            weights,
            ..
        } = &self.inner
        else {
            unreachable!("hinted repair requires engine mode");
        };
        // The pipeline's verification pass yields the budgets — no second
        // pyramid sweep over the schedule.
        let (report, budgets) = engine.schedule_with_budgets();
        let solve: SolveReport = report.into();
        if let (true, Some(fused)) = (cfg!(debug_assertions), &budgets) {
            // The per-slot capture through the session's strategy stays the
            // oracle: the fused budgets must equal it bit for bit. Parts come
            // from the persistent mirror — maintained per link at event
            // time, equal to a from-scratch `PathLossCache::new` (pinned on
            // the repair path).
            let oracle = recolor_budgets(
                &self.scheduler,
                self.strategy,
                links,
                powers,
                weights,
                &solve.report.schedule,
            );
            assert!(
                fused
                    .iter()
                    .map(|b| b.to_bits())
                    .eq(oracle.iter().map(|b| b.to_bits())),
                "pipeline budgets diverge from the per-slot capture"
            );
        }
        let anchor = self.recorder.span(ANCHOR_SPAN);
        let budgets = budgets.unwrap_or_else(|| vec![0.0; solve.report.num_links]);
        let slots = solve.report.schedule.len();
        let mut warm = WarmSchedule::capture(&solve.report, slots, budgets);
        // Remember this full solve's occupancy skew so subsequent
        // repair-path reports can carry it forward.
        warm.skew = solve
            .sharding
            .map(|s| (s.max_owned, s.mean_owned, s.ghost_fraction));
        self.warm = Some(warm);
        anchor.finish();
        self.dirty.clear();
        self.recorder.add("repair.warm_recaptured", 1);
        let replaced = solve.report.num_links;
        solve.with_repair(RepairStats {
            decision,
            dirty_links,
            replaced_links: replaced,
            baseline_slots: slots,
            drift,
            watermark: policy.max_drift,
        })
    }
}

impl SchedulerBackend for ShardedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sharded
    }

    fn len(&self) -> usize {
        match &self.inner {
            ShardedInner::Rebuild { links } => links.len(),
            ShardedInner::Engine { skeys, .. } => skeys.len(),
        }
    }

    fn links(&self) -> Vec<Link> {
        match &self.inner {
            ShardedInner::Rebuild { links } => relabeled(links),
            // The mirror is already in solve order with relabeled ids (see
            // `ShardedInner::Engine`).
            ShardedInner::Engine { links, .. } => links.clone(),
        }
    }

    fn contains(&self, key: u64) -> bool {
        match &self.inner {
            ShardedInner::Rebuild { links } => links.contains_key(&key),
            ShardedInner::Engine { skeys, .. } => skeys.binary_search(&key).is_ok(),
        }
    }

    fn insert(&mut self, sender: Point, receiver: Point, nodes: Option<(NodeId, NodeId)>) -> u64 {
        let key = self.next_key;
        self.next_key += 1;
        let link = make_link(sender, receiver, nodes);
        match &mut self.inner {
            ShardedInner::Rebuild { links } => {
                links.insert(key, link);
            }
            ShardedInner::Engine {
                engine,
                skeys,
                ekeys,
                links,
                powers,
                weights,
            } => {
                let ekey = engine.insert_link(sender, receiver);
                // Monotone mints on both sides: appending keeps the vectors
                // sorted and the new link's position is the tail.
                debug_assert!(skeys.last().is_none_or(|&k| k < key));
                debug_assert!(ekeys.last().is_none_or(|&k| k < ekey));
                let mut l = link;
                l.id = LinkId(links.len());
                let (p, w) = link_parts(&self.scheduler, &l);
                skeys.push(key);
                ekeys.push(ekey);
                links.push(l);
                powers.push(p);
                weights.push(w);
                if let Some(warm) = &mut self.warm {
                    warm.insert_at(warm.colors.len());
                }
                self.dirty.insert(key);
            }
        }
        self.inserts += 1;
        key
    }

    fn remove(&mut self, key: u64) -> Result<(), SessionError> {
        match &mut self.inner {
            ShardedInner::Rebuild { links } => {
                links.remove(&key).ok_or(SessionError::UnknownKey { key })?;
            }
            ShardedInner::Engine {
                engine,
                skeys,
                ekeys,
                links,
                powers,
                weights,
            } => {
                let pos = skeys
                    .binary_search(&key)
                    .map_err(|_| SessionError::UnknownKey { key })?;
                engine.remove_link(ekeys[pos])?;
                skeys.remove(pos);
                ekeys.remove(pos);
                links.remove(pos);
                powers.remove(pos);
                weights.remove(pos);
                for (i, l) in links.iter_mut().enumerate().skip(pos) {
                    l.id = LinkId(i);
                }
                // Departures are monotone-safe; drop every trace of the key.
                // The warm budget entry leaves with the color entry (one
                // splice drops both — see `WarmSchedule::remove_at`).
                self.dirty.remove(&key);
                if let Some(warm) = &mut self.warm {
                    warm.remove_at(pos);
                }
            }
        }
        self.removals += 1;
        Ok(())
    }

    fn relocate(&mut self, key: u64, sender: Point, receiver: Point) -> Result<(), SessionError> {
        match &mut self.inner {
            ShardedInner::Rebuild { links } => {
                let old = *links.get(&key).ok_or(SessionError::UnknownKey { key })?;
                links.insert(key, re_seat(&old, sender, receiver));
            }
            ShardedInner::Engine {
                engine,
                skeys,
                ekeys,
                links,
                powers,
                weights,
            } => {
                let pos = skeys
                    .binary_search(&key)
                    .map_err(|_| SessionError::UnknownKey { key })?;
                engine.relocate_link(ekeys[pos], sender, receiver)?;
                let moved = re_seat(&links[pos], sender, receiver);
                let (p, w) = link_parts(&self.scheduler, &moved);
                links[pos] = moved;
                powers[pos] = p;
                weights[pos] = w;
                if let Some(warm) = &mut self.warm {
                    warm.mark_dirty(pos);
                }
                self.dirty.insert(key);
            }
        }
        self.moves += 1;
        Ok(())
    }

    fn move_node(&mut self, node: usize, to: Point) -> usize {
        let touched = match &mut self.inner {
            ShardedInner::Rebuild { links } => move_node_in_map(links, node, to).len(),
            ShardedInner::Engine {
                engine,
                skeys,
                ekeys,
                links,
                powers,
                weights,
            } => {
                let node_id = NodeId(node);
                let touched: Vec<usize> = links
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| {
                        l.sender_node == Some(node_id) || l.receiver_node == Some(node_id)
                    })
                    .map(|(pos, _)| pos)
                    .collect();
                for &pos in &touched {
                    let old = links[pos];
                    let sender = if old.sender_node == Some(node_id) {
                        to
                    } else {
                        old.sender
                    };
                    let receiver = if old.receiver_node == Some(node_id) {
                        to
                    } else {
                        old.receiver
                    };
                    engine
                        .relocate_link(ekeys[pos], sender, receiver)
                        .expect("mirrored engine key is live");
                    let moved = re_seat(&old, sender, receiver);
                    let (p, w) = link_parts(&self.scheduler, &moved);
                    links[pos] = moved;
                    powers[pos] = p;
                    weights[pos] = w;
                    if let Some(warm) = &mut self.warm {
                        warm.mark_dirty(pos);
                    }
                    self.dirty.insert(skeys[pos]);
                }
                touched.len()
            }
        };
        self.moves += 1;
        touched
    }

    fn solve(&mut self) -> SolveReport {
        match &self.inner {
            ShardedInner::Rebuild { .. } => solve_sharded_traced(
                &self.links(),
                self.scheduler,
                self.target_shards,
                self.strategy,
                &self.recorder,
            )
            .into(),
            ShardedInner::Engine { engine, .. } => engine.schedule().into(),
        }
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        if let ShardedInner::Engine { engine, .. } = &mut self.inner {
            engine.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    fn solve_repair(&mut self, policy: &RepairPolicy) -> Option<SolveReport> {
        // Rebuild mode re-tiles per solve — no stable state to repair.
        if matches!(self.inner, ShardedInner::Rebuild { .. }) {
            return None;
        }
        let dirty_links = self.dirty.len();
        if self.warm.is_none() {
            return Some(self.full_recolor_hinted(
                RepairDecision::ColdStart,
                policy,
                dirty_links,
                0.0,
            ));
        }
        let config = self.scheduler;
        let (outcome, baseline, shards, radius, boundary) = {
            let warm = self.warm.as_ref().expect("anchored above");
            let baseline = warm.baseline_slots;
            let ShardedInner::Engine {
                engine,
                skeys,
                ekeys,
                links,
                powers,
                weights,
            } = &self.inner
            else {
                unreachable!("rebuild mode handled above");
            };
            debug_assert_eq!(warm.colors.len(), links.len(), "warm state out of lockstep");
            let neighbors = |i: usize| -> Vec<usize> {
                engine
                    .neighbor_keys(ekeys[i])
                    .expect("mirrored engine key is live")
                    .into_iter()
                    .map(|ekey| ekeys.binary_search(&ekey).expect("live neighbour"))
                    .collect()
            };
            let mut check: Vec<usize> = self
                .dirty
                .iter()
                .filter_map(|key| skeys.binary_search(key).ok())
                .flat_map(&neighbors)
                .collect();
            check.sort_unstable();
            check.dedup();
            // Judge through the certified verifier (hierarchical far-field
            // aggregation) when the mode pins a power assignment under a
            // noise-free model — the exact judge the stitched pipeline's
            // verification pass uses; otherwise the kernel's slot probes.
            // Either way the per-link parts come from the persistent mirror,
            // not a per-solve `PathLossCache` rebuild.
            let additive = (config.model.noise() == 0.0)
                .then(|| config.mode.assignment())
                .flatten()
                .is_some();
            if cfg!(debug_assertions) && additive {
                // Pin the single-link-maintenance == batch-collection
                // contract the mirror parts rely on.
                let assignment = config.mode.assignment().expect("additive implies pinned");
                let (p, w) = PathLossCache::new(&config.model, links, &assignment).into_parts();
                assert_eq!(powers, &p, "power mirror diverged");
                assert_eq!(weights, &w, "weight mirror diverged");
            }
            let out = if additive {
                let judge = AffectanceVerifier::new(&config.model, links, powers, weights)
                    .with_strategy(self.strategy)
                    .with_recorder(&self.recorder);
                wagg_schedule::solve_repair_traced(
                    links,
                    &neighbors,
                    &judge,
                    &config,
                    &warm.colors,
                    &warm.budgets,
                    &check,
                    &self.recorder,
                )
            } else {
                let judge = CacheJudge::new(links, config, None);
                wagg_schedule::solve_repair_traced(
                    links,
                    &neighbors,
                    &judge,
                    &config,
                    &warm.colors,
                    &warm.budgets,
                    &check,
                    &self.recorder,
                )
            };
            (
                out,
                baseline,
                engine.shard_count(),
                engine.radius(),
                engine.boundary_link_count(),
            )
        };
        let drift = drift_vs(outcome.report.schedule.len(), baseline);
        if drift > policy.max_drift {
            return Some(self.full_recolor_hinted(
                RepairDecision::WatermarkBreach,
                policy,
                dirty_links,
                drift,
            ));
        }
        // Commit by O(replaced) in-place patch — the O(n) post-solve
        // `capture` (and the second walk over the mirror's keys it needed)
        // is gone; the carried baseline and occupancy skew stay put.
        let warm = self.warm.as_mut().expect("anchored above");
        warm.patch(&outcome);
        let carried_skew = warm.skew;
        self.dirty.clear();
        self.recorder.add("repair.warm_patched", 1);
        let replaced = outcome.replaced;
        let mut solve =
            SolveReport::new(outcome.report, BackendKind::Sharded).with_repair(RepairStats {
                decision: RepairDecision::Repaired,
                dirty_links,
                replaced_links: replaced,
                baseline_slots: baseline,
                drift,
                watermark: policy.max_drift,
            });
        // The warm repair path touches only the dirty set; per-shard
        // occupancy is not re-derived here, so the last full solve's skew
        // is carried forward (ownership shifts only at full recolors).
        let (max_owned, mean_owned, ghost_fraction) = carried_skew.unwrap_or((0, 0.0, 0.0));
        solve.sharding = Some(wagg_schedule::ShardingStats {
            shards,
            radius,
            boundary_links: boundary,
            repaired_links: replaced,
            evicted_links: outcome.evicted,
            max_owned,
            mean_owned,
            ghost_fraction,
        });
        Some(solve)
    }

    fn warm_state(&self) -> Option<WarmStateView> {
        self.warm.as_ref().map(|w| WarmStateView {
            colors: w.colors.clone(),
            budgets: w.budgets.clone(),
            baseline_slots: w.baseline_slots,
        })
    }

    fn stats(&self) -> SessionStats {
        SessionStats {
            backend: BackendKind::Sharded,
            links: self.len(),
            inserts: self.inserts,
            removals: self.removals,
            moves: self.moves,
        }
    }

    fn capture_state(&self) -> BackendState {
        let counts = EventCounts {
            inserts: self.inserts,
            removals: self.removals,
            moves: self.moves,
        };
        match &self.inner {
            ShardedInner::Rebuild { links } => BackendState::ShardedRebuild {
                links: keyed_from_map(links),
                next_key: self.next_key,
                counts,
            },
            // The engine keys are not captured: restore mints fresh ones
            // `0..n`, which preserves every invariant the mirrors rely on
            // (see `ShardedBackend::restore_engine`).
            ShardedInner::Engine { skeys, links, .. } => BackendState::ShardedEngine {
                links: skeys
                    .iter()
                    .zip(links)
                    .map(|(&key, &link)| KeyedLink { key, link })
                    .collect(),
                next_key: self.next_key,
                dirty: self.dirty.iter().copied().collect(),
                warm: self.warm.as_ref().map(|w| WarmState {
                    colors: w.colors.clone(),
                    budgets: w.budgets.clone(),
                    baseline_slots: w.baseline_slots,
                    skew: w.skew,
                }),
                counts,
            },
        }
    }
}

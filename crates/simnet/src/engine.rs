//! The discrete-event engine with serialized actors.
//!
//! Actor (rank) code is written in blocking style, exactly like an MPI
//! program, and runs as a stackful [`Fiber`] that *yields* to the scheduler
//! wherever the program would block — one OS thread drives tens of
//! thousands of ranks. The engine serializes execution: at any moment
//! exactly one of {an actor, an event callback} runs. Virtual time advances
//! only inside the scheduler loop.
//!
//! # Determinism
//!
//! The scheduler interleaves two deterministic orders:
//!
//! * **Events** are totally ordered by [`EventKey`] `(time, class, origin,
//!   seq)`. Actor-posted events carry the actor's id and a per-actor
//!   sequence number; engine-posted events carry [`ENGINE_ORIGIN`] and an
//!   engine counter (which is itself deterministic because only one context
//!   runs at a time). They wait in two heaps under that one order: a
//!   `BinaryHeap` of callbacks, and an indexed min-heap of flow
//!   completions whose positions live in a slot-indexed side table, so a
//!   rate change moves a flow's event in place. The scheduler takes the
//!   smaller of the two tops. Keys must be unique; a heap cannot see a
//!   duplicate when it is pushed, so the check is made when it is popped —
//!   equal keys pop back to back — and panics with `event key collision`.
//! * **Actor releases** are totally ordered by `(wake time, actor id)`.
//!
//! At each step the scheduler picks the earlier of the two; an actor release
//! wins a time tie against an event. Because actors may only schedule events
//! at or after their own local clocks and wakes never target the past, the
//! executed sequence — and therefore every virtual timestamp, trace span
//! order, and verify log — is identical across runs.
//!
//! # Actor protocol
//!
//! An actor is registered with [`Engine::register_fiber_at`] together with
//! its [`ParkCell`]. The actor's body must call [`Engine::await_release`]
//! on that cell before touching anything else, park only via
//! [`Engine::park`] **on its own registered cell**, and call
//! [`Engine::actor_finished`] when done (normally via a drop guard). Wakes
//! directed at a registered cell are routed through the scheduler's ready
//! queue. Calling `await_release` or `park` from outside a fiber is a bug
//! and panics.
//!
//! # Lock ordering
//!
//! `Engine`'s core mutex and each [`ParkCell`]'s mutex are never held
//! simultaneously. Higher layers (simmpi) take their own state lock *before*
//! calling into the engine; engine callbacks and fiber bodies run with the
//! core lock released.

use std::cmp;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::fiber::{self, Fiber};
use crate::flow::{FlowId, FlowNet, FlowSpec, ResourceId, ResourceKind, ResourceStats};
use crate::time::{SimDur, SimTime};
use crate::topology::{ClusterResources, ClusterSpec};

/// Origin id used for events scheduled by the engine itself (flow
/// completions, timer chains created inside callbacks).
pub const ENGINE_ORIGIN: u32 = u32::MAX;

/// Event class for flow-completion events (sorts after same-time actor
/// events so that, e.g., a wake posted "at" a flow's completion instant is
/// handled deterministically).
pub const CLASS_FLOW: u8 = 200;

/// Cell id meaning "not registered with the engine".
const ACTOR_NONE: u32 = u32::MAX;

/// A callback run by the event loop at its scheduled virtual time, with the
/// core lock released.
pub type Action = Box<dyn FnOnce(&Engine) + Send>;

/// Total ordering key for events: `(time, class, origin, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Virtual time the event fires.
    pub time: SimTime,
    /// Secondary ordering class; lower classes fire first at equal times.
    pub class: u8,
    /// Posting actor (or [`ENGINE_ORIGIN`]).
    pub origin: u32,
    /// Per-origin monotonic sequence number.
    pub seq: u64,
}

/// A scheduled callback, ordered so that `BinaryHeap` (a max-heap) pops
/// the smallest key first.
struct Call {
    key: EventKey,
    action: Action,
}

impl PartialEq for Call {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Call {}

impl PartialOrd for Call {
    fn partial_cmp(&self, other: &Self) -> Option<cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Call {
    fn cmp(&self, other: &Self) -> cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// A live flow's completion event and accounting, at its flow's slot.
struct FlowMeta {
    id: FlowId,
    /// Index of the flow's entry in [`FlowEvents::heap`].
    pos: usize,
    on_complete: Option<Action>,
    /// When the flow started, for queueing-delay accounting.
    started: SimTime,
    /// Seconds the flow would take at its full per-flow cap with no
    /// contention; the excess of actual over this is queueing delay.
    ideal_secs: f64,
}

/// Flow-completion events: a binary min-heap of `(key, slot)` plus the
/// slot-indexed [`FlowMeta`] holding each entry's heap position, so a
/// rate change moves an event in place (sift up or down) instead of
/// removing and re-inserting it.
#[derive(Default)]
struct FlowEvents {
    heap: Vec<(EventKey, u32)>,
    meta: Vec<Option<FlowMeta>>,
}

impl FlowEvents {
    fn peek(&self) -> Option<EventKey> {
        self.heap.first().map(|&(key, _)| key)
    }

    fn push(&mut self, key: EventKey, mut meta: FlowMeta) {
        let slot = meta.id.slot();
        meta.pos = self.heap.len();
        if slot == self.meta.len() {
            self.meta.push(Some(meta));
        } else {
            debug_assert!(self.meta[slot].is_none(), "flow slot still has an event");
            self.meta[slot] = Some(meta);
        }
        self.heap.push((key, slot as u32));
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove the earliest event; returns its flow's meta.
    // The heap and the meta table hold the same flows by construction.
    #[allow(clippy::expect_used)]
    fn pop(&mut self) -> Option<FlowMeta> {
        let (_, slot) = *self.heap.first()?;
        self.swap(0, self.heap.len() - 1);
        self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some(self.meta[slot as usize].take().expect("flow meta missing"))
    }

    /// Move `id`'s event to time `t`; false if it is already there.
    // Every live flow has a queued event by construction.
    #[allow(clippy::expect_used)]
    fn rekey(&mut self, id: FlowId, t: SimTime) -> bool {
        let meta = self.meta[id.slot()].as_ref().expect("meta for active flow");
        let i = meta.pos;
        let old = self.heap[i].0.time;
        if old == t {
            return false;
        }
        self.heap[i].0.time = t;
        if t < old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
        true
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        for k in [i, j] {
            if let Some(m) = self.meta[self.heap[k].1 as usize].as_mut() {
                m.pos = k;
            }
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].0 >= self.heap[parent].0 {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let mut least = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < n && self.heap[child].0 < self.heap[least].0 {
                    least = child;
                }
            }
            if least == i {
                break;
            }
            self.swap(i, least);
            i = least;
        }
    }
}

/// Snapshot of one resource's registration and accumulated utilization.
#[derive(Debug, Clone)]
pub struct ResourceEntry {
    /// What the resource models.
    pub kind: ResourceKind,
    /// Registered capacity in bytes/second.
    pub capacity: f64,
    /// Busy/overlap time integrals, bytes carried, concurrency high-water.
    pub stats: ResourceStats,
}

/// Snapshot of network-level accounting, taken via [`Engine::net_stats`].
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// All registered resources, in registration order.
    pub resources: Vec<ResourceEntry>,
    /// Flows that ran to completion.
    pub completed_flows: u64,
    /// Sum over completed flows of (actual duration − contention-free
    /// duration at the flow's own cap), in seconds.
    pub total_queue_delay_secs: f64,
    /// Largest single-flow queueing delay, in seconds.
    pub max_queue_delay_secs: f64,
    /// Contended flow adds/removes that re-solved their component's
    /// max–min rates (uncontended ones take the fast path and skip it).
    pub resolves: u64,
    /// Σ over those re-solves of the component size, in flows.
    pub resolved_flows: u64,
    /// Flow-completion events moved to a new time by a rate change.
    pub rekeys: u64,
}

#[derive(Default)]
struct CellState {
    pending: Option<SimTime>,
    deadlock: bool,
}

/// Per-actor parking spot. An actor parks on its cell inside blocking
/// calls; the scheduler releases it at its turn in `(time, id)` order.
pub struct ParkCell {
    state: Mutex<CellState>,
    /// Only the engine-free `_direct` methods sleep on this (wall-clock
    /// runtimes parking real threads); engine actors are fibers and yield.
    cv: Condvar,
    /// The actor id this cell was registered under ([`ACTOR_NONE`] while
    /// unregistered). Lets [`Engine::wake`] route wakes to the ready queue.
    id: AtomicU32,
}

impl Default for ParkCell {
    fn default() -> Self {
        Self::new()
    }
}

impl ParkCell {
    /// Fresh, unarmed cell.
    pub fn new() -> ParkCell {
        ParkCell {
            state: Mutex::new(CellState::default()),
            cv: Condvar::new(),
            id: AtomicU32::new(ACTOR_NONE),
        }
    }

    /// Deposit a pending wake at `t` (repeated wakes merge to the latest
    /// time) and notify any parked thread. No scheduler involvement.
    fn deposit(&self, t: SimTime) {
        let mut st = self.state.lock();
        st.pending = Some(st.pending.map_or(t, |p| p.max(t)));
        drop(st);
        self.cv.notify_all();
    }

    /// Engine-free wake: deposit a pending wake at `t` (repeated wakes merge
    /// to the latest time) and notify any parked thread. For wall-clock
    /// runtimes that reuse the cell as a plain parking spot without the
    /// virtual-time engine's scheduling. Never mix the `_direct` methods
    /// with [`Engine::park`]/[`Engine::wake`] on the same cell.
    pub fn wake_direct(&self, t: SimTime) {
        self.deposit(t);
    }

    /// Engine-free park with a timeout: block until a pending wake arrives
    /// or `timeout` elapses. Returns the wake time, or `None` on timeout —
    /// wall-clock runtimes use the timeout to poll an abort flag so a real
    /// deadlock does not hang the process forever.
    pub fn park_timeout_direct(&self, timeout: std::time::Duration) -> Option<SimTime> {
        let mut st = self.state.lock();
        loop {
            if let Some(t) = st.pending.take() {
                return Some(t);
            }
            if self.cv.wait_for(&mut st, timeout).timed_out() {
                return st.pending.take();
            }
        }
    }

    /// Engine-free: consume a pending wake without sleeping, if one exists.
    pub fn take_pending_direct(&self) -> Option<SimTime> {
        self.state.lock().pending.take()
    }
}

/// A registered actor: its suspended continuation and its cell.
struct ActorSlot {
    /// `None` while the fiber is running (the scheduler takes it out to
    /// resume it outside the core lock).
    fiber: Option<Fiber>,
    cell: Arc<ParkCell>,
}

struct Core {
    now: SimTime,
    /// Callback events, smallest key on top.
    calls: BinaryHeap<Call>,
    /// Flow-completion events, ordered with `calls` by the same key.
    flow_events: FlowEvents,
    live: usize,
    engine_seq: u64,
    flows: FlowNet,
    /// Reused buffer for the flows whose rates a flow event changed.
    changed: Vec<FlowId>,
    flows_settled_at: SimTime,
    actors: BTreeMap<u32, ActorSlot>,
    /// Actors awaiting release, ordered by `(wake time, id)`.
    ready: BTreeSet<(SimTime, u32)>,
    /// Pending release time per ready actor (wakes merge to the max).
    ready_time: BTreeMap<u32, SimTime>,
    /// The actor currently running, if any (set across one `resume`).
    current: Option<u32>,
    completed_flows: u64,
    total_queue_delay_secs: f64,
    max_queue_delay_secs: f64,
    rekeys: u64,
    deadlocked: bool,
    /// Actor ids that were parked when deadlock was declared.
    deadlock_actors: Vec<u32>,
    stopped: bool,
}

/// The virtual-time discrete-event engine. Shared by reference between the
/// scheduler and all actor fibers.
pub struct Engine {
    core: Mutex<Core>,
}

const DEADLOCK_MSG: &str = "simulation deadlock: every rank is blocked and no event is pending \
                            (mismatched send/recv or collective call order?)";

impl Engine {
    /// New engine at virtual time zero with no resources or actors.
    pub fn new() -> Engine {
        Engine {
            core: Mutex::new(Core {
                now: SimTime::ZERO,
                calls: BinaryHeap::new(),
                flow_events: FlowEvents::default(),
                live: 0,
                engine_seq: 0,
                flows: FlowNet::new(),
                changed: Vec::new(),
                flows_settled_at: SimTime::ZERO,
                actors: BTreeMap::new(),
                ready: BTreeSet::new(),
                ready_time: BTreeMap::new(),
                current: None,
                completed_flows: 0,
                total_queue_delay_secs: 0.0,
                max_queue_delay_secs: 0.0,
                rekeys: 0,
                deadlocked: false,
                deadlock_actors: Vec::new(),
                stopped: false,
            }),
        }
    }

    /// Register a network resource (must happen before flows use it).
    pub fn add_resource(&self, capacity: f64) -> ResourceId {
        self.core.lock().flows.add_resource(capacity)
    }

    /// Register a network resource labeled with what it models, for
    /// utilization accounting (see [`Engine::net_stats`]).
    pub fn add_resource_kind(&self, capacity: f64, kind: ResourceKind) -> ResourceId {
        self.core.lock().flows.add_resource_kind(capacity, kind)
    }

    /// Register a whole cluster's resources (NICs, memory channels, and —
    /// for a fat-tree fabric — per-link resources) in one lock
    /// acquisition and return the routing table.
    pub fn build_cluster(&self, spec: &ClusterSpec) -> ClusterResources {
        spec.build_resources(&mut self.core.lock().flows)
    }

    /// Snapshot per-resource utilization and flow-level queueing-delay
    /// accounting. Utilization integrals are settled up to the engine's
    /// current virtual time before the snapshot is taken.
    pub fn net_stats(&self) -> NetStats {
        let mut core = self.core.lock();
        let now = core.now;
        core.settle_flows(now);
        core.flows.settle_all();
        let (resolves, resolved_flows) = core.flows.solver_counts();
        NetStats {
            resources: core
                .flows
                .resources()
                .map(|(_, kind, capacity, stats)| ResourceEntry {
                    kind,
                    capacity,
                    stats,
                })
                .collect(),
            completed_flows: core.completed_flows,
            total_queue_delay_secs: core.total_queue_delay_secs,
            max_queue_delay_secs: core.max_queue_delay_secs,
            resolves,
            resolved_flows,
            rekeys: core.rekeys,
        }
    }

    /// Current virtual time of the event loop. Actor code should use its own
    /// local clock; this is primarily for event callbacks.
    pub fn now(&self) -> SimTime {
        self.core.lock().now
    }

    /// Whether the run ended in deadlock.
    pub fn deadlocked(&self) -> bool {
        self.core.lock().deadlocked
    }

    /// Actor ids that were parked when deadlock was declared (empty if the
    /// run did not deadlock). Higher layers use this to build wait-for
    /// diagnoses.
    pub fn deadlocked_actors(&self) -> Vec<u32> {
        self.core.lock().deadlock_actors.clone()
    }

    /// Register an actor that becomes ready at `ready_at` (time zero for a
    /// rank, the post time for a collective-op actor). The scheduler resumes
    /// the fiber at its turns; the fiber's body must call
    /// [`Engine::await_release`] on `cell` first, park only via
    /// [`Engine::park`] on `cell`, and call [`Engine::actor_finished`]
    /// before returning.
    pub fn register_fiber_at(&self, id: u32, fiber: Fiber, cell: Arc<ParkCell>, ready_at: SimTime) {
        assert!(id != ACTOR_NONE, "actor id {id} is reserved");
        cell.id.store(id, Ordering::Relaxed);
        let slot = ActorSlot {
            fiber: Some(fiber),
            cell,
        };
        let mut core = self.core.lock();
        debug_assert!(ready_at >= core.now, "actor {id} registered in the past");
        assert!(
            core.actors.insert(id, slot).is_none(),
            "actor {id} registered twice"
        );
        core.live += 1;
        core.ready.insert((ready_at, id));
        core.ready_time.insert(id, ready_at);
    }

    /// Mark an actor finished (called from the actor's body, including on
    /// unwind).
    // An unknown id here is engine-state corruption; crashing is correct.
    #[allow(clippy::expect_used)]
    pub fn actor_finished(&self, id: u32) {
        let mut core = self.core.lock();
        core.actors.remove(&id).expect("finishing unknown actor");
        core.live -= 1;
        if let Some(t) = core.ready_time.remove(&id) {
            core.ready.remove(&(t, id));
        }
        if core.current == Some(id) {
            core.current = None;
        }
    }

    /// Consume the release time the scheduler deposited before resuming the
    /// calling actor for the first time. Must be the first engine call an
    /// actor's body makes; panics outside a fiber.
    pub fn await_release(&self, cell: &ParkCell) -> SimTime {
        assert!(
            fiber::in_fiber(),
            "Engine::await_release called outside a fiber actor"
        );
        cell.state.lock().pending.take().unwrap_or(SimTime::ZERO)
    }

    /// Schedule an action at an explicit key. Callers must use unique
    /// per-origin sequence numbers: a key scheduled twice panics with
    /// `event key collision` when the scheduler reaches it.
    pub fn schedule(&self, key: EventKey, action: Action) {
        let mut core = self.core.lock();
        assert!(!core.stopped, "scheduling after the simulation has stopped");
        core.calls.push(Call { key, action });
    }

    /// Schedule an action with an engine-assigned sequence number. The
    /// engine counter is deterministic because exactly one context (actor or
    /// callback) runs at a time.
    pub fn schedule_engine(&self, time: SimTime, class: u8, action: Action) -> EventKey {
        let mut core = self.core.lock();
        assert!(!core.stopped, "scheduling after stop");
        let key = EventKey {
            time,
            class,
            origin: ENGINE_ORIGIN,
            seq: core.engine_seq,
        };
        core.engine_seq += 1;
        core.calls.push(Call { key, action });
        key
    }

    /// Start a bulk transfer. Must be called from an event callback (so that
    /// the flow starts exactly at the callback's virtual time);
    /// `on_complete` runs when the last byte arrives.
    ///
    /// Returns the flow id (useful only for diagnostics).
    pub fn start_flow(
        &self,
        resources: Vec<ResourceId>,
        cap: f64,
        bytes: f64,
        on_complete: Action,
    ) -> FlowId {
        let mut core = self.core.lock();
        assert!(!core.stopped, "starting a flow after stop");
        let now = core.now;
        core.settle_flows(now);
        let id = core.flows.add(FlowSpec {
            resources,
            cap,
            bytes,
        });
        let eta = core.flows.eta_secs(id);
        assert!(
            eta.is_finite(),
            "flow {id:?} has infinite ETA (zero rate with bytes remaining)"
        );
        let seq = core.engine_seq;
        core.engine_seq += 1;
        let key = EventKey {
            time: now + SimDur::from_secs_f64(eta),
            class: CLASS_FLOW,
            origin: ENGINE_ORIGIN,
            seq,
        };
        core.flow_events.push(
            key,
            FlowMeta {
                id,
                pos: 0,
                on_complete: Some(on_complete),
                started: now,
                ideal_secs: if cap > 0.0 { bytes / cap } else { 0.0 },
            },
        );
        core.apply_rate_changes(Some(id));
        id
    }

    /// Release a parked actor at virtual time `t`. May be called before the
    /// actor has actually gone to sleep (the wake is then consumed
    /// immediately); repeated wakes merge to the latest time. The cell must
    /// belong to a registered actor.
    pub fn wake(&self, cell: &ParkCell, t: SimTime) {
        let id = cell.id.load(Ordering::Relaxed);
        let mut core = self.core.lock();
        let routed = id != ACTOR_NONE && core.current != Some(id) && core.actors.contains_key(&id);
        if routed {
            // The target is parked (or walking toward its park): queue the
            // release; the scheduler will deposit the wake at its turn.
            let c = &mut *core;
            match c.ready_time.entry(id) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let old = *e.get();
                    if t > old {
                        c.ready.remove(&(old, id));
                        c.ready.insert((t, id));
                        *e.get_mut() = t;
                    }
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(t);
                    c.ready.insert((t, id));
                }
            }
        } else {
            // Self-wake of the running actor (or an unregistered cell):
            // deposit directly; `park`/`consume_pending` picks it up without
            // a scheduler round-trip.
            drop(core);
            cell.deposit(t);
        }
    }

    /// Consume a pending wake on `cell` without sleeping. Waiters that find
    /// their condition satisfied *without* parking call this to clear a
    /// self-wake deposited while they were running.
    pub fn consume_pending(&self, cell: &ParkCell) -> Option<SimTime> {
        cell.state.lock().pending.take()
    }

    /// Declare the calling actor blocked and yield until the scheduler
    /// releases it. Returns the wake time; panics with a diagnostic if the
    /// simulation deadlocked. Must be called on the actor's own registered
    /// cell; panics outside a fiber.
    pub fn park(&self, cell: &ParkCell) -> SimTime {
        assert!(
            fiber::in_fiber(),
            "Engine::park called outside a fiber actor"
        );
        // A wake deposited while we were running (self-wake): consume it
        // without a scheduler round-trip — the actor just keeps running.
        if let Some(t) = cell.state.lock().pending.take() {
            return t;
        }
        {
            let mut core = self.core.lock();
            debug_assert_eq!(
                core.current,
                Some(cell.id.load(Ordering::Relaxed)),
                "fiber parking on a cell it is not registered under"
            );
            core.current = None;
        }
        // The scheduler is blocked inside `Fiber::resume`; yielding returns
        // control to it. It resumes us with a deposited wake (or the
        // deadlock flag).
        fiber::fiber_yield();
        let mut st = cell.state.lock();
        if st.deadlock {
            drop(st);
            panic!("{DEADLOCK_MSG}");
        }
        match st.pending.take() {
            Some(t) => t,
            None => {
                drop(st);
                panic!("fiber resumed without a pending wake");
            }
        }
    }

    /// Run the scheduler until all actors have finished (or deadlock), on
    /// the caller's thread; actors are resumed inline.
    // The `expect`s below assert queue/flow-table agreement — invariants
    // whose violation means the engine itself is broken, not user error.
    #[allow(clippy::expect_used)]
    pub fn run_loop(&self) {
        enum Work {
            Event(Action),
            RunFiber(u32, Fiber, Arc<ParkCell>, SimTime),
            Deadlock(Vec<Arc<ParkCell>>, Vec<Fiber>),
            Return,
        }
        loop {
            let work: Work = {
                let mut core = self.core.lock();
                debug_assert!(
                    core.stopped || core.current.is_none(),
                    "an actor yielded without parking or finishing"
                );
                if core.stopped {
                    Work::Return
                } else if core.live == 0 {
                    core.stopped = true;
                    Work::Return
                } else {
                    let next_actor = core.ready.first().copied();
                    let next_event = core.next_event();
                    match (next_actor, next_event) {
                        (None, None) => {
                            // Deadlock: release everyone with a diagnostic.
                            core.deadlocked = true;
                            core.deadlock_actors = core.actors.keys().copied().collect();
                            core.stopped = true;
                            let mut cells = Vec::new();
                            let mut fibers = Vec::new();
                            for slot in core.actors.values_mut() {
                                cells.push(slot.cell.clone());
                                fibers.extend(slot.fiber.take());
                            }
                            Work::Deadlock(cells, fibers)
                        }
                        (Some((ta, id)), ev) if ev.is_none_or(|k| ta <= k.time) => {
                            // Release the earliest ready actor; actors win
                            // ties against same-time events.
                            core.ready.remove(&(ta, id));
                            core.ready_time.remove(&id);
                            if ta > core.now {
                                core.now = ta;
                            }
                            core.current = Some(id);
                            let slot = core.actors.get_mut(&id).expect("ready actor missing");
                            let fiber = slot.fiber.take().expect("fiber already running");
                            Work::RunFiber(id, fiber, slot.cell.clone(), ta)
                        }
                        // The guard above always passes when there is no
                        // event, so this arm only ever sees `Some` events.
                        (_, next) => {
                            let next = next.expect("event queued");
                            debug_assert!(next.time >= core.now, "event in the past: {next:?}");
                            core.now = next.time;
                            let action = if core.flow_events.peek() == Some(next) {
                                let meta = core.flow_events.pop().expect("flow event queued");
                                core.finish_flow(meta)
                            } else {
                                core.calls.pop().expect("callback queued").action
                            };
                            // Equal keys pop back to back.
                            assert!(
                                core.next_event() != Some(next),
                                "event key collision: {next:?}"
                            );
                            Work::Event(action)
                        }
                    }
                }
            };
            match work {
                Work::Return => return,
                Work::Event(a) => a(self),
                Work::RunFiber(id, mut fiber, cell, t) => {
                    cell.deposit(t);
                    fiber.resume();
                    // The fiber parked (put it back) or finished (its
                    // `actor_finished` removed the map entry; drop it).
                    let mut core = self.core.lock();
                    if let Some(slot) = core.actors.get_mut(&id) {
                        debug_assert!(slot.fiber.is_none());
                        slot.fiber = Some(fiber);
                    } else {
                        debug_assert!(fiber.done());
                    }
                }
                Work::Deadlock(cells, fibers) => {
                    for cell in cells {
                        cell.state.lock().deadlock = true;
                    }
                    // Resume each suspended fiber once: its `park` sees the
                    // deadlock flag and panics, unwinding the fiber stack
                    // through the actor's own panic handling.
                    for mut fiber in fibers {
                        if !fiber.done() {
                            fiber.resume();
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Drop any fibers still registered (defensive cleanup after an
    /// abnormal run). Fibers are cancelled outside the core lock so their
    /// unwinding destructors may call back into the engine.
    pub fn drain_fibers(&self) {
        let mut held = Vec::new();
        {
            let mut core = self.core.lock();
            for slot in core.actors.values_mut() {
                held.extend(slot.fiber.take());
            }
        }
        drop(held);
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Core {
    /// The smaller of the two event heaps' tops.
    fn next_event(&self) -> Option<EventKey> {
        let call = self.calls.peek().map(|c| c.key);
        match (call, self.flow_events.peek()) {
            (Some(c), Some(f)) => Some(c.min(f)),
            (c, f) => c.or(f),
        }
    }

    /// Retire a flow whose completion event just popped at `self.now`:
    /// remove it from the flow model, re-key the flows it slowed, account
    /// its queueing delay, and hand back its callback.
    // A popped completion carries its callback by construction.
    #[allow(clippy::expect_used)]
    fn finish_flow(&mut self, mut meta: FlowMeta) -> Action {
        let now = self.now;
        self.settle_flows(now);
        self.flows.remove(meta.id);
        self.apply_rate_changes(None);
        let actual = now.saturating_since(meta.started).as_secs_f64();
        let delay = (actual - meta.ideal_secs).max(0.0);
        self.completed_flows += 1;
        self.total_queue_delay_secs += delay;
        self.max_queue_delay_secs = self.max_queue_delay_secs.max(delay);
        meta.on_complete.take().expect("flow callback missing")
    }

    fn settle_flows(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.flows_settled_at);
        if dt > SimDur::ZERO {
            self.flows.progress(dt.as_secs_f64());
        }
        self.flows_settled_at = now;
    }

    /// Re-key the completion events of flows whose rates changed in the
    /// last add/remove. `skip` is a just-added flow whose event was created
    /// directly by the caller.
    fn apply_rate_changes(&mut self, skip: Option<FlowId>) {
        let now = self.flows_settled_at;
        let mut changed = std::mem::take(&mut self.changed);
        self.flows.drain_rate_changes(&mut changed);
        for &id in &changed {
            if Some(id) == skip {
                continue;
            }
            let eta = self.flows.eta_secs(id);
            assert!(
                eta.is_finite(),
                "flow {id:?} has infinite ETA (zero rate with bytes remaining)"
            );
            let t = now + SimDur::from_secs_f64(eta);
            if self.flow_events.rekey(id, t) {
                self.rekeys += 1;
            }
        }
        changed.clear();
        self.changed = changed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Drive a single-actor simulation: the actor body gets (engine, its
    /// registered cell) after the scheduler releases it.
    fn run_one_actor<F>(engine: Arc<Engine>, body: F)
    where
        F: FnOnce(&Engine, &Arc<ParkCell>) + Send + 'static,
    {
        let cell = Arc::new(ParkCell::new());
        let (eng2, cell2) = (engine.clone(), cell.clone());
        let fiber = Fiber::new(128 * 1024, move || {
            eng2.await_release(&cell2);
            body(&eng2, &cell2);
            eng2.actor_finished(0);
        });
        engine.register_fiber_at(0, fiber, cell, SimTime::ZERO);
        engine.run_loop();
    }

    #[test]
    fn timer_event_wakes_actor_at_scheduled_time() {
        let engine = Arc::new(Engine::new());
        let woke_at = Arc::new(AtomicU64::new(0));
        let woke_at2 = woke_at.clone();
        run_one_actor(engine, move |eng, cell| {
            // Schedule a wake at t = 5us, then park.
            let cell_for_event = cell.clone();
            eng.schedule(
                EventKey {
                    time: SimTime(5_000),
                    class: 0,
                    origin: 0,
                    seq: 0,
                },
                Box::new(move |e| {
                    e.wake(&cell_for_event, SimTime(5_000));
                }),
            );
            let t = eng.park(cell);
            woke_at2.store(t.as_nanos(), Ordering::SeqCst);
        });
        assert_eq!(woke_at.load(Ordering::SeqCst), 5_000);
    }

    #[test]
    fn events_fire_in_key_order() {
        let engine = Arc::new(Engine::new());
        let order = Arc::new(Mutex::new(Vec::<u32>::new()));
        let order2 = order.clone();
        run_one_actor(engine, move |eng, cell| {
            for (i, t) in [(0u32, 9_000u64), (1, 3_000), (2, 3_000)] {
                let order3 = order2.clone();
                let cell2 = cell.clone();
                eng.schedule(
                    EventKey {
                        time: SimTime(t),
                        class: 0,
                        origin: 0,
                        seq: i as u64,
                    },
                    Box::new(move |e| {
                        order3.lock().push(i);
                        if i == 0 {
                            // Last event by time: release the actor.
                            e.wake(&cell2, SimTime(9_000));
                        }
                    }),
                );
            }
            eng.park(cell);
        });
        // Same-time events (1, 2) fire in seq order, then the later one (0).
        assert_eq!(*order.lock(), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "event key collision")]
    fn scheduling_one_key_twice_panics() {
        let engine = Arc::new(Engine::new());
        run_one_actor(engine, |eng, cell| {
            let key = EventKey {
                time: SimTime(7),
                class: 0,
                origin: 0,
                seq: 0,
            };
            for _ in 0..2 {
                let cell2 = cell.clone();
                eng.schedule(key, Box::new(move |e| e.wake(&cell2, SimTime(7))));
            }
            eng.park(cell);
        });
    }

    #[test]
    fn flow_completion_time_matches_bandwidth() {
        let engine = Arc::new(Engine::new());
        let nic = engine.add_resource(1e9); // 1 GB/s
        let done_at = Arc::new(AtomicU64::new(0));
        let done_at2 = done_at.clone();
        run_one_actor(engine, move |eng, cell| {
            let cell2 = cell.clone();
            // Kick off the flow from an event so it starts at t=0 exactly.
            eng.schedule(
                EventKey {
                    time: SimTime(0),
                    class: 0,
                    origin: 0,
                    seq: 0,
                },
                Box::new(move |e| {
                    let cell3 = cell2.clone();
                    e.start_flow(
                        vec![nic],
                        1e9,
                        1_000_000.0, // 1 MB at 1 GB/s = 1 ms
                        Box::new(move |e2| {
                            e2.wake(&cell3, e2.now());
                        }),
                    );
                }),
            );
            let t = eng.park(cell);
            done_at2.store(t.as_nanos(), Ordering::SeqCst);
        });
        let t = done_at.load(Ordering::SeqCst);
        assert!((t as i64 - 1_000_000).abs() < 10, "flow done at {t}ns");
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        // Two 1 MB flows on one 1 GB/s NIC started together: each runs at
        // 0.5 GB/s and finishes at 2 ms (fair sharing, work conservation).
        let engine = Arc::new(Engine::new());
        let nic = engine.add_resource(1e9);
        let done = Arc::new(Mutex::new(Vec::<u64>::new()));
        let done2 = done.clone();
        run_one_actor(engine, move |eng, cell| {
            let cell2 = cell.clone();
            let done3 = done2.clone();
            eng.schedule(
                EventKey {
                    time: SimTime(0),
                    class: 0,
                    origin: 0,
                    seq: 0,
                },
                Box::new(move |e| {
                    let remaining = Arc::new(AtomicU64::new(2));
                    for _ in 0..2 {
                        let done4 = done3.clone();
                        let cell3 = cell2.clone();
                        let rem = remaining.clone();
                        e.start_flow(
                            vec![nic],
                            1e9,
                            1_000_000.0,
                            Box::new(move |e2| {
                                done4.lock().push(e2.now().as_nanos());
                                if rem.fetch_sub(1, Ordering::SeqCst) == 1 {
                                    e2.wake(&cell3, e2.now());
                                }
                            }),
                        );
                    }
                }),
            );
            eng.park(cell);
        });
        let times = done.lock().clone();
        assert_eq!(times.len(), 2);
        for t in times {
            assert!((t as i64 - 2_000_000).abs() < 10, "finished at {t}ns");
        }
    }

    #[test]
    fn deadlock_is_detected_and_panics_parked_actor() {
        let engine = Arc::new(Engine::new());
        run_one_actor(engine.clone(), |eng, cell| {
            // Park with nothing scheduled: guaranteed deadlock.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                eng.park(cell);
            }));
            assert!(result.is_err(), "park should panic on deadlock");
        });
        assert!(engine.deadlocked());
        assert_eq!(engine.deadlocked_actors(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "Engine::park called outside a fiber actor")]
    fn park_outside_a_fiber_panics() {
        Engine::new().park(&ParkCell::new());
    }

    #[test]
    #[should_panic(expected = "Engine::await_release called outside a fiber actor")]
    fn await_release_outside_a_fiber_panics() {
        Engine::new().await_release(&ParkCell::new());
    }

    #[test]
    fn wake_before_park_is_not_lost() {
        let engine = Arc::new(Engine::new());
        run_one_actor(engine, move |eng, cell| {
            // Self-wake (e.g. a request completed before the waiter looked).
            eng.wake(cell, SimTime(42));
            let t = eng.park(cell);
            assert_eq!(t.as_nanos(), 42);
        });
    }

    #[test]
    fn merged_wakes_keep_latest_time() {
        let engine = Arc::new(Engine::new());
        run_one_actor(engine, move |eng, cell| {
            eng.wake(cell, SimTime(10));
            eng.wake(cell, SimTime(30));
            eng.wake(cell, SimTime(20));
            assert_eq!(eng.park(cell).as_nanos(), 30);
        });
    }

    /// Run `n` fiber actors under the scheduler; each body gets its index,
    /// the engine, and its registered cell.
    fn run_fiber_actors<F>(engine: &Arc<Engine>, n: usize, body: F)
    where
        F: Fn(usize, Arc<Engine>, Arc<ParkCell>) + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        for i in 0..n {
            let cell = Arc::new(ParkCell::new());
            let eng2 = engine.clone();
            let cell2 = cell.clone();
            let body2 = body.clone();
            let fiber = Fiber::new(
                128 * 1024,
                Box::new(move || {
                    eng2.await_release(&cell2);
                    body2(i, eng2.clone(), cell2.clone());
                    eng2.actor_finished(i as u32);
                }),
            );
            engine.register_fiber_at(i as u32, fiber, cell, SimTime::ZERO);
        }
        engine.run_loop();
    }

    #[test]
    fn fiber_actors_sleep_and_wake_in_time_order() {
        let engine = Arc::new(Engine::new());
        let order = Arc::new(Mutex::new(Vec::<(u64, usize)>::new()));
        let order2 = order.clone();
        run_fiber_actors(&engine, 8, move |i, eng, cell| {
            let seq = AtomicU64::new(0);
            // Staggered virtual sleeps; lower i sleeps longer.
            let mut t = 0u64;
            for round in 0..5u64 {
                let at = t + 1_000 * (8 - i as u64) + round;
                let cell2 = cell.clone();
                eng.schedule(
                    EventKey {
                        time: SimTime(at),
                        class: 1,
                        origin: i as u32,
                        seq: seq.fetch_add(1, Ordering::Relaxed),
                    },
                    Box::new(move |e| e.wake(&cell2, SimTime(at))),
                );
                t = eng.park(&cell).as_nanos();
                assert_eq!(t, at);
            }
            order2.lock().push((t, i));
        });
        let got = order.lock().clone();
        assert_eq!(got.len(), 8);
        // Completion order must be sorted by (final wake time, id).
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted);
    }

    #[test]
    fn fiber_deadlock_unwinds_all_fibers() {
        let engine = Arc::new(Engine::new());
        let unwound = Arc::new(AtomicU64::new(0));
        let u2 = unwound.clone();
        run_fiber_actors(&engine, 4, move |i, eng, cell| {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Everyone parks with nothing scheduled after actor 0's
                // startup event: guaranteed deadlock.
                eng.park(&cell);
            }));
            if let Err(p) = result {
                let msg = p.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(msg.contains("simulation deadlock"), "actor {i}: {msg}");
                u2.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(engine.deadlocked());
        assert_eq!(unwound.load(Ordering::SeqCst), 4);
        assert_eq!(engine.deadlocked_actors().len(), 4);
    }

    #[test]
    fn same_time_wakes_release_in_id_order_across_runs() {
        // The fig6 fix: same-virtual-time releases must be ordered by actor
        // id, identically on every run.
        let go = || {
            let engine = Arc::new(Engine::new());
            let order = Arc::new(Mutex::new(Vec::<usize>::new()));
            let order2 = order.clone();
            run_fiber_actors(&engine, 16, move |i, eng, cell| {
                let cell2 = cell.clone();
                eng.schedule(
                    EventKey {
                        time: SimTime(500),
                        class: 1,
                        origin: i as u32,
                        seq: 0,
                    },
                    Box::new(move |e| e.wake(&cell2, SimTime(500))),
                );
                eng.park(&cell);
                order2.lock().push(i);
            });
            Arc::try_unwrap(order).unwrap().into_inner()
        };
        let a = go();
        assert_eq!(a, (0..16).collect::<Vec<_>>());
        assert_eq!(a, go());
    }

    #[test]
    fn fiber_rank_panic_is_catchable_inside_fiber() {
        // A rank body panic caught inside the fiber (as simmpi does) lets
        // the rest of the simulation proceed.
        let engine = Arc::new(Engine::new());
        let survived = Arc::new(AtomicU64::new(0));
        let s2 = survived.clone();
        run_fiber_actors(&engine, 2, move |i, eng, cell| {
            if i == 0 {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    panic!("rank 0 exploded");
                }));
                assert!(r.is_err());
            } else {
                let cell2 = cell.clone();
                eng.schedule(
                    EventKey {
                        time: SimTime(100),
                        class: 1,
                        origin: i as u32,
                        seq: 0,
                    },
                    Box::new(move |e| e.wake(&cell2, SimTime(100))),
                );
                eng.park(&cell);
                s2.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(survived.load(Ordering::SeqCst), 1);
        assert!(!engine.deadlocked());
    }
}

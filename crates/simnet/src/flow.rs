//! Max–min fair flow-level network model.
//!
//! A *flow* is a bulk data transfer that consumes capacity on a set of
//! *resources* (NIC transmit/receive sides, intra-node memory channels,
//! fabric links, …) and is additionally limited by a per-flow rate cap (the
//! "single stream" bandwidth — the reason one MPI process cannot saturate a
//! NIC, which is the root motivation of the paper, §V-A / Fig. 3).
//!
//! Rates are assigned by progressive filling (max–min fairness): repeatedly
//! find the most-constrained bottleneck — either a resource whose fair share
//! is smallest or a flow whose own cap is below every share — fix the
//! affected flows at that rate, remove the consumed capacity, and continue.
//!
//! The allocator is deterministic: flows are visited in creation order (a
//! per-flow stamp, see [`FlowId`]) and resources in index order, so equal
//! inputs always produce equal rates — and equal float accumulation order
//! in every byte and rate sum.
//!
//! # Storage
//!
//! Flows live in a dense slab (a `Vec` plus a free list); a [`FlowId`] is
//! a slot and that slot's generation. Each resource keeps its attached
//! flows as a creation-ordered `Vec` of slots. A contended re-solve walks
//! its component with generation-stamped visit marks (a `u64` epoch, so
//! marks never wrap) and scratch vectors the `FlowNet` clears and reuses,
//! so the solver allocates nothing per event once warm.
//!
//! # Lazy settlement
//!
//! The model is designed for simulations with tens of thousands of mostly
//! independent flows, so nothing is done eagerly per time step:
//!
//! * [`FlowNet::progress`] is O(1): it only advances the model's clock.
//!   Remaining-byte counters are *settled* on demand (when a flow's rate
//!   changes, when it is removed, or when [`FlowNet::settle_all`] is called
//!   before reading statistics).
//! * [`FlowNet::add`] takes a fast path when every resource the new flow
//!   touches has spare capacity for the full per-flow cap: the flow simply
//!   runs at its cap and no other rate changes. Likewise [`FlowNet::remove`]
//!   skips recomputation when none of the flow's resources is saturated
//!   (removing a flow from an unsaturated resource cannot raise anyone
//!   else's max–min rate). Only contended events trigger a full progressive
//!   filling pass.
//! * Rate changes are recorded in a dirty set the caller drains with
//!   [`FlowNet::take_rate_changes`] to re-key completion events, instead of
//!   re-deriving every flow's ETA after every change.
//!
//! Per-resource busy/overlap integrals are maintained incrementally from
//! activity transition counts, so they are exact (not sampled) while still
//! being O(changes), not O(flows · steps).

/// Identifies a capacity-constrained resource (e.g. one NIC direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u32);

/// What a resource models, for utilization accounting. Purely a label: the
/// allocator treats all resources identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Transmit side of the NIC of node `node`.
    NicTx(u32),
    /// Receive side of the NIC of node `node`.
    NicRx(u32),
    /// Intra-node memory channel of node `node`.
    Mem(u32),
    /// Per-rank CPU resource (e.g. the reduction-compute stream of `rank`).
    Cpu(u32),
    /// A fabric link (leaf uplink, spine trunk, …). The payload is an
    /// opaque link index assigned by the topology builder.
    Link(u32),
    /// Unlabeled resource.
    Other,
}

impl ResourceKind {
    /// True for either direction of a NIC.
    pub fn is_nic(&self) -> bool {
        matches!(self, ResourceKind::NicTx(_) | ResourceKind::NicRx(_))
    }

    /// Stable display label, e.g. `"nic_tx/3"`.
    pub fn label(&self) -> String {
        match self {
            ResourceKind::NicTx(n) => format!("nic_tx/{n}"),
            ResourceKind::NicRx(n) => format!("nic_rx/{n}"),
            ResourceKind::Mem(n) => format!("mem/{n}"),
            ResourceKind::Cpu(r) => format!("cpu/{r}"),
            ResourceKind::Link(l) => format!("link/{l}"),
            ResourceKind::Other => "other".to_string(),
        }
    }
}

/// Utilization accounting for one resource, integrated over virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceStats {
    /// Seconds during which at least one flow was actively moving bytes
    /// through this resource.
    pub busy_secs: f64,
    /// Seconds during which at least two flows were concurrently moving
    /// bytes through this resource — the paper's "overlapped communication"
    /// condition.
    pub overlap2_secs: f64,
    /// Total bytes carried through this resource.
    pub bytes: f64,
    /// High-water mark of concurrently attached flows.
    pub max_concurrent: u32,
}

/// Identifies an active flow: a slot of the flow slab plus the slot's
/// generation. A slot is reused once its flow is removed, under a new
/// generation, so a stale id never names the slot's next flow — using one
/// panics. Ids carry no order; the determinism contract's creation order
/// is a per-flow creation stamp kept inside the `FlowNet`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    slot: u32,
    gen: u32,
}

impl FlowId {
    /// The slab slot, dense from 0: callers may index side tables by it
    /// (a slot holds at most one live flow at a time).
    pub(crate) fn slot(self) -> usize {
        self.slot as usize
    }
}

/// Description of a new flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Resources this flow consumes capacity on (typically source NIC tx and
    /// destination NIC rx, plus any fabric links on the route, or a node
    /// memory channel for intra-node flows). Duplicates are allowed and are
    /// counted once.
    pub resources: Vec<ResourceId>,
    /// Per-flow rate cap in bytes/second (single-stream bandwidth).
    pub cap: f64,
    /// Bytes to transfer.
    pub bytes: f64,
}

#[derive(Debug)]
struct Flow {
    /// Sorted, deduplicated.
    resources: Vec<ResourceId>,
    cap: f64,
    /// Bytes still to transfer as of `settled_at`.
    remaining: f64,
    /// Current max–min fair rate in bytes/second.
    rate: f64,
    /// Model time this flow's `remaining` was last brought up to date.
    settled_at: f64,
    /// Whether this flow currently counts toward its resources' busy /
    /// overlap integrals (rate > 0 and bytes remaining).
    active: bool,
    /// Creation stamp, unique and increasing: the order every pass visits
    /// flows in.
    stamp: u64,
    /// Epoch of the last re-solve that put this flow in its component.
    mark: u64,
}

/// One slab slot: its generation and the flow it holds, if any.
#[derive(Debug)]
struct Entry {
    gen: u32,
    flow: Option<Flow>,
}

#[derive(Debug)]
struct Res {
    capacity: f64,
    kind: ResourceKind,
    stats: ResourceStats,
    /// Flows currently attached (active or not).
    nflows: u32,
    /// Sum of attached flows' current rates.
    rate_sum: f64,
    /// Attached flows currently moving bytes.
    active: u32,
    /// Model time the busy/overlap integrals were last brought up to date.
    integrated_at: f64,
    /// Slots of the attached flows, in creation order. Used to walk the
    /// flow↔resource sharing graph so contended recomputation can stay
    /// scoped to one connected component.
    attached: Vec<u32>,
}

/// Buffers of the component re-solve, cleared and reused across calls.
#[derive(Debug, Default)]
struct Scratch {
    /// Epoch of the current re-solve; a resource or flow whose mark equals
    /// it has been reached. `u64`, so it never wraps.
    epoch: u64,
    /// Per resource: epoch of the last re-solve that reached it.
    res_mark: Vec<u64>,
    /// Per resource: its index into `touched` during the current re-solve.
    res_local: Vec<u32>,
    /// Resources still to expand in the component walk.
    stack: Vec<u32>,
    /// The component's resources, sorted by index.
    touched: Vec<u32>,
    /// The component's flows as `(stamp, slot)`, sorted: creation order.
    comp: Vec<(u64, u32)>,
    /// Per `touched` entry: capacity not yet handed out, unfixed flows.
    rem_cap: Vec<f64>,
    count: Vec<u32>,
    /// Flows not yet fixed by the fill, and the next round's survivors.
    unfixed: Vec<u32>,
    still: Vec<u32>,
    /// `(slot, rate)` in the order the fill fixed them.
    assigned: Vec<(u32, f64)>,
}

/// The set of active flows plus the fixed resource capacities.
///
/// `FlowNet` keeps its own clock, advanced by the caller (the engine) via
/// [`FlowNet::progress`]; all per-flow byte accounting is lazy against that
/// clock (see the module docs).
#[derive(Debug, Default)]
pub struct FlowNet {
    res: Vec<Res>,
    /// The flow slab, indexed by [`FlowId`] slot.
    slab: Vec<Entry>,
    /// Vacant slots, reused last-freed first.
    free: Vec<u32>,
    next_stamp: u64,
    now: f64,
    /// `(stamp, id)` of flows whose rate changed since the last drain. May
    /// contain duplicates and ids that have since been removed.
    dirty: Vec<(u64, FlowId)>,
    scratch: Scratch,
    /// Contended re-solves run (see [`FlowNet::solver_counts`]).
    resolves: u64,
    /// Flows visited by those re-solves, Σ component sizes.
    resolved_flows: u64,
}

/// Relative tolerance when deciding whether a resource has room for one more
/// cap-rate flow (fast-path add) or is saturated (slow-path remove). Much
/// larger than the ~1e-13 relative drift incremental `rate_sum` updates can
/// accumulate, and much smaller than any physically meaningful share.
const SAT_EPS: f64 = 1e-9;

/// Bring one flow's `remaining` up to `now`, crediting moved bytes to its
/// resources. Free function so callers can split borrows of the flow slab
/// and the resource table.
fn settle_flow(res: &mut [Res], f: &mut Flow, now: f64) {
    let dt = now - f.settled_at;
    if dt > 0.0 {
        let moved = (f.rate * dt).min(f.remaining);
        if moved > 0.0 {
            for r in &f.resources {
                res[r.0 as usize].stats.bytes += moved;
            }
        }
        f.remaining -= moved;
    }
    f.settled_at = now;
}

/// Bring one resource's busy/overlap integrals up to `now` at its current
/// activity level. Must be called *before* the activity count changes.
fn integrate_res(r: &mut Res, now: f64) {
    let dt = now - r.integrated_at;
    if dt > 0.0 {
        if r.active >= 1 {
            r.stats.busy_secs += dt;
        }
        if r.active >= 2 {
            r.stats.overlap2_secs += dt;
        }
    }
    r.integrated_at = now;
}

/// The live flow in `slot`. Slots handed to this come from the attached
/// lists or the component, which hold live flows only.
// A vacant slot here is solver-state corruption.
#[allow(clippy::expect_used)]
fn live(slab: &[Entry], slot: u32) -> &Flow {
    slab[slot as usize]
        .flow
        .as_ref()
        .expect("slot holds a flow")
}

#[allow(clippy::expect_used)]
fn live_mut(slab: &mut [Entry], slot: u32) -> &mut Flow {
    slab[slot as usize]
        .flow
        .as_mut()
        .expect("slot holds a flow")
}

impl FlowNet {
    /// Create an empty network with no resources.
    pub fn new() -> FlowNet {
        FlowNet::default()
    }

    /// Register a resource with the given capacity (bytes/second) and return
    /// its id. Capacities are fixed for the lifetime of the network.
    pub fn add_resource(&mut self, capacity: f64) -> ResourceId {
        self.add_resource_kind(capacity, ResourceKind::Other)
    }

    /// Register a resource labeled with what it models (NIC side, memory
    /// channel, CPU, fabric link). The label only affects utilization
    /// reporting.
    pub fn add_resource_kind(&mut self, capacity: f64, kind: ResourceKind) -> ResourceId {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "resource capacity must be positive and finite, got {capacity}"
        );
        let id = ResourceId(self.res.len() as u32);
        self.res.push(Res {
            capacity,
            kind,
            stats: ResourceStats::default(),
            nflows: 0,
            rate_sum: 0.0,
            active: 0,
            integrated_at: self.now,
            attached: Vec::new(),
        });
        self.scratch.res_mark.push(0);
        self.scratch.res_local.push(0);
        id
    }

    /// Number of registered resources.
    pub fn num_resources(&self) -> usize {
        self.res.len()
    }

    /// Add a flow and assign its rate (recomputing other flows' rates only
    /// if the new flow contends with them). Returns the new flow's id.
    ///
    /// A zero-byte flow is legal; it will report an ETA of zero.
    pub fn add(&mut self, spec: FlowSpec) -> FlowId {
        assert!(
            spec.cap.is_finite() && spec.cap > 0.0,
            "flow cap must be positive and finite, got {}",
            spec.cap
        );
        assert!(
            spec.bytes.is_finite() && spec.bytes >= 0.0,
            "flow size must be non-negative, got {}",
            spec.bytes
        );
        let mut resources = spec.resources;
        resources.sort_unstable();
        resources.dedup();
        for r in &resources {
            assert!((r.0 as usize) < self.res.len(), "unknown resource {r:?}");
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let now = self.now;
        // The slot `insert` below will fill: attach it before the flow
        // moves into the slab.
        let slot = self.free.last().copied().unwrap_or(self.slab.len() as u32);

        // Fast path: every touched resource has room for a full cap-rate
        // flow, so the new flow runs at its cap and nobody else changes.
        let fits = resources.iter().all(|r| {
            let res = &self.res[r.0 as usize];
            res.rate_sum + spec.cap <= res.capacity * (1.0 + SAT_EPS)
        });

        let mut flow = Flow {
            resources,
            cap: spec.cap,
            remaining: spec.bytes,
            rate: 0.0,
            settled_at: now,
            active: false,
            stamp,
            mark: 0,
        };
        for r in &flow.resources {
            let res = &mut self.res[r.0 as usize];
            res.nflows += 1;
            res.stats.max_concurrent = res.stats.max_concurrent.max(res.nflows);
            res.attached.push(slot);
        }
        if fits {
            flow.rate = spec.cap;
            flow.active = flow.remaining > 0.0;
            for r in &flow.resources {
                let res = &mut self.res[r.0 as usize];
                res.rate_sum += spec.cap;
                if flow.active {
                    integrate_res(res, now);
                    res.active += 1;
                }
            }
            let id = self.insert(flow);
            self.dirty.push((stamp, id));
            id
        } else {
            self.seed(&flow.resources);
            let id = self.insert(flow);
            self.recompute_component();
            id
        }
    }

    /// Put `flow` into the slab at the slot `add` attached it under.
    fn insert(&mut self, flow: Flow) -> FlowId {
        match self.free.pop() {
            Some(slot) => {
                let e = &mut self.slab[slot as usize];
                e.flow = Some(flow);
                FlowId { slot, gen: e.gen }
            }
            None => {
                let slot = self.slab.len() as u32;
                self.slab.push(Entry {
                    gen: 0,
                    flow: Some(flow),
                });
                FlowId { slot, gen: 0 }
            }
        }
    }

    /// The flow `id` names, unless it was removed.
    fn get(&self, id: FlowId) -> Option<&Flow> {
        self.slab
            .get(id.slot())
            .filter(|e| e.gen == id.gen)
            .and_then(|e| e.flow.as_ref())
    }

    // A stale or foreign id is caller-side corruption.
    #[allow(clippy::expect_used)]
    fn flow(&self, id: FlowId) -> &Flow {
        self.get(id).expect("unknown or removed flow")
    }

    /// Remove a flow (complete or cancelled), recomputing other flows' rates
    /// only if the removed flow was crossing a saturated resource. Returns
    /// the bytes it still had outstanding.
    // Removing an id the slab does not hold is caller-side corruption.
    #[allow(clippy::expect_used)]
    pub fn remove(&mut self, id: FlowId) -> f64 {
        let now = self.now;
        let e = self
            .slab
            .get_mut(id.slot())
            .filter(|e| e.gen == id.gen)
            .expect("removing unknown flow");
        let mut flow = e.flow.take().expect("removing unknown flow");
        // Retire a slot whose generation is spent rather than let a stale
        // id alias a later flow.
        if let Some(gen) = e.gen.checked_add(1) {
            e.gen = gen;
            self.free.push(id.slot);
        }
        settle_flow(&mut self.res, &mut flow, now);
        // If none of the flow's resources is saturated, no other flow is
        // bottlenecked there, so removing this flow cannot raise anyone's
        // max–min rate: detach incrementally and skip the global pass.
        let saturated = flow.resources.iter().any(|r| {
            let res = &self.res[r.0 as usize];
            res.rate_sum >= res.capacity * (1.0 - SAT_EPS)
        });
        for r in &flow.resources {
            let res = &mut self.res[r.0 as usize];
            res.nflows -= 1;
            res.rate_sum -= flow.rate;
            if flow.active {
                integrate_res(res, now);
                res.active -= 1;
            }
            let at = res
                .attached
                .iter()
                .position(|&s| s == id.slot)
                .expect("flow attached to its resource");
            res.attached.remove(at);
        }
        if saturated {
            self.seed(&flow.resources);
            self.recompute_component();
        }
        flow.remaining
    }

    /// Advance the model clock by `dt_secs`. O(1): remaining-byte counters
    /// and utilization integrals are settled lazily (see the module docs).
    pub fn progress(&mut self, dt_secs: f64) {
        debug_assert!(dt_secs >= 0.0);
        self.now += dt_secs;
    }

    /// Settle every flow's remaining-byte counter and every resource's
    /// utilization integrals up to the current model time. Call before
    /// reading [`FlowNet::resource_stats`]-style aggregates for a snapshot
    /// that includes the interval since the last rate change.
    pub fn settle_all(&mut self) {
        let now = self.now;
        // In creation order, like every pass: the byte sums depend on it.
        let order = &mut self.scratch.comp;
        order.clear();
        order.extend(
            self.slab
                .iter()
                .enumerate()
                .filter_map(|(s, e)| e.flow.as_ref().map(|f| (f.stamp, s as u32))),
        );
        order.sort_unstable();
        for &(_, s) in order.iter() {
            settle_flow(&mut self.res, live_mut(&mut self.slab, s), now);
        }
        for r in &mut self.res {
            integrate_res(r, now);
        }
    }

    /// Drain the set of flows whose rate changed since the last call,
    /// deduplicated, in creation order, restricted to flows still present.
    /// The caller uses this to re-key completion events after an
    /// add/remove.
    pub fn take_rate_changes(&mut self) -> Vec<FlowId> {
        let mut out = Vec::new();
        self.drain_rate_changes(&mut out);
        out
    }

    /// [`FlowNet::take_rate_changes`] into a buffer the caller reuses
    /// (appended to, not cleared).
    pub(crate) fn drain_rate_changes(&mut self, out: &mut Vec<FlowId>) {
        self.dirty.sort_unstable_by_key(|&(stamp, _)| stamp);
        self.dirty.dedup();
        for &(_, id) in &self.dirty {
            if self.get(id).is_some() {
                out.push(id);
            }
        }
        self.dirty.clear();
    }

    /// `(re-solves, Σ component sizes)`: how many contended adds/removes
    /// ran a progressive fill, and how many flows those fills visited.
    /// Deterministic counts of the solver's fast-path decisions.
    pub(crate) fn solver_counts(&self) -> (u64, u64) {
        (self.resolves, self.resolved_flows)
    }

    /// Current rate of a flow in bytes/second.
    pub fn rate(&self, id: FlowId) -> f64 {
        self.flow(id).rate
    }

    /// Bytes outstanding as of the current model time.
    pub fn remaining(&self, id: FlowId) -> f64 {
        let f = self.flow(id);
        let dt = (self.now - f.settled_at).max(0.0);
        (f.remaining - f.rate * dt).max(0.0)
    }

    /// Seconds from now until the flow finishes at its current rate
    /// (`f64::INFINITY` if its rate is zero and bytes remain; zero-byte
    /// flows finish immediately).
    pub fn eta_secs(&self, id: FlowId) -> f64 {
        let rem = self.remaining(id);
        let rate = self.flow(id).rate;
        if rem <= 0.0 {
            0.0
        } else if rate <= 0.0 {
            f64::INFINITY
        } else {
            rem / rate
        }
    }

    /// The kind label a resource was registered with.
    pub fn resource_kind(&self, id: ResourceId) -> ResourceKind {
        self.res[id.0 as usize].kind
    }

    /// The fixed capacity a resource was registered with (bytes/second).
    pub fn resource_capacity(&self, id: ResourceId) -> f64 {
        self.res[id.0 as usize].capacity
    }

    /// Accumulated utilization of one resource, settled up to the current
    /// model time.
    pub fn resource_stats(&mut self, id: ResourceId) -> ResourceStats {
        self.settle_all();
        self.res[id.0 as usize].stats
    }

    /// Iterate `(id, kind, capacity, stats)` over all registered resources.
    /// Stats reflect the last settlement point; call
    /// [`FlowNet::settle_all`] first for an up-to-the-instant snapshot.
    pub fn resources(
        &self,
    ) -> impl Iterator<Item = (ResourceId, ResourceKind, f64, ResourceStats)> + '_ {
        self.res
            .iter()
            .enumerate()
            .map(|(i, r)| (ResourceId(i as u32), r.kind, r.capacity, r.stats))
    }

    /// Open a re-solve: a fresh epoch, and `seeds` marked and queued as the
    /// component walk's starting resources.
    fn seed(&mut self, seeds: &[ResourceId]) {
        let sc = &mut self.scratch;
        sc.epoch += 1;
        sc.stack.clear();
        for r in seeds {
            let r = r.0 as usize;
            if sc.res_mark[r] != sc.epoch {
                sc.res_mark[r] = sc.epoch;
                sc.stack.push(r as u32);
            }
        }
    }

    /// Progressive-filling max–min fair rate allocation, scoped to the
    /// connected component of the flow↔resource sharing graph reachable
    /// from the resources [`FlowNet::seed`] queued.
    ///
    /// Max–min rates decompose exactly across connected components: a flow
    /// that shares no resource (transitively) with a changed flow keeps its
    /// rate bit-for-bit, so only the affected component is settled and
    /// refilled. Within the component the pass is identical to a global
    /// progressive fill — flows are visited in creation order and resources
    /// in index order, so results are deterministic and equal to what a
    /// whole-network recomputation would assign. This is what keeps
    /// contended bursts (thousands of simultaneous collective messages)
    /// from costing Θ(total flows) per flow event.
    fn recompute_component(&mut self) {
        let now = self.now;
        let FlowNet {
            res,
            slab,
            dirty,
            scratch: sc,
            ..
        } = self;
        let epoch = sc.epoch;

        // Depth-first walk over resources ↔ attached flows.
        sc.touched.clear();
        sc.comp.clear();
        while let Some(r) = sc.stack.pop() {
            sc.touched.push(r);
            for &s in &res[r as usize].attached {
                let f = live_mut(slab, s);
                if f.mark != epoch {
                    f.mark = epoch;
                    sc.comp.push((f.stamp, s));
                    for rr in &f.resources {
                        let rr = rr.0 as usize;
                        if sc.res_mark[rr] != epoch {
                            sc.res_mark[rr] = epoch;
                            sc.stack.push(rr as u32);
                        }
                    }
                }
            }
        }
        sc.touched.sort_unstable();
        sc.comp.sort_unstable();
        self.resolves += 1;
        self.resolved_flows += sc.comp.len() as u64;

        for &(_, s) in &sc.comp {
            settle_flow(res, live_mut(slab, s), now);
        }

        // Dense scratch over only the component's resources, indexed by
        // position in the sorted `touched` list.
        sc.rem_cap.clear();
        sc.count.clear();
        for (i, &r) in sc.touched.iter().enumerate() {
            sc.res_local[r as usize] = i as u32;
            sc.rem_cap.push(res[r as usize].capacity);
            sc.count.push(0);
        }
        let local = |r: &ResourceId| sc.res_local[r.0 as usize] as usize;
        sc.unfixed.clear();
        for &(_, s) in &sc.comp {
            sc.unfixed.push(s);
            for r in &live(slab, s).resources {
                sc.count[local(r)] += 1;
            }
        }
        if sc.unfixed.is_empty() {
            // Seeds can point at now-empty resources (last flow removed).
            for &r in &sc.touched {
                res[r as usize].rate_sum = 0.0;
            }
            return;
        }

        sc.assigned.clear();
        while !sc.unfixed.is_empty() {
            // Bottleneck share over resources that still carry unfixed flows.
            let mut share = f64::INFINITY;
            for (&rem, &n) in sc.rem_cap.iter().zip(&sc.count) {
                if n > 0 {
                    share = share.min(rem.max(0.0) / n as f64);
                }
            }
            // A flow with no resources is limited only by its own cap.
            // This round's rate: the smaller of the bottleneck share and the
            // smallest unfixed per-flow cap.
            let min_cap = sc
                .unfixed
                .iter()
                .map(|&s| live(slab, s).cap)
                .fold(f64::INFINITY, f64::min);
            let level = share.min(min_cap);
            debug_assert!(level.is_finite(), "no constraint bound any flow");

            // Fix every flow that is pinned at this level: either its cap is
            // the binding constraint, or it crosses a bottleneck resource.
            let mut fixed_any = false;
            sc.still.clear();
            for &s in &sc.unfixed {
                let flow = live(slab, s);
                let at_cap = flow.cap <= level + level * 1e-12;
                let at_bottleneck = flow.resources.iter().any(|r| {
                    let i = local(r);
                    sc.count[i] > 0
                        && sc.rem_cap[i].max(0.0) / sc.count[i] as f64 <= level + level * 1e-12
                });
                if at_cap || at_bottleneck {
                    fixed_any = true;
                    for r in &flow.resources {
                        let i = local(r);
                        sc.rem_cap[i] -= level;
                        sc.count[i] -= 1;
                    }
                    sc.assigned.push((s, level));
                } else {
                    sc.still.push(s);
                }
            }
            std::mem::swap(&mut sc.unfixed, &mut sc.still);
            assert!(fixed_any, "max-min allocation failed to make progress");
        }

        for &(s, rate) in &sc.assigned {
            let gen = slab[s as usize].gen;
            let f = live_mut(slab, s);
            if f.rate != rate {
                f.rate = rate;
                dirty.push((f.stamp, FlowId { slot: s, gen }));
            }
            let want = f.rate > 0.0 && f.remaining > 0.0;
            if want != f.active {
                f.active = want;
                for r in &f.resources {
                    let res = &mut res[r.0 as usize];
                    integrate_res(res, now);
                    if want {
                        res.active += 1;
                    } else {
                        res.active -= 1;
                    }
                }
            }
        }

        for &r in &sc.touched {
            res[r as usize].rate_sum = 0.0;
        }
        for &(_, s) in &sc.comp {
            let f = live(slab, s);
            for r in &f.resources {
                res[r.0 as usize].rate_sum += f.rate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(resources: &[ResourceId], cap: f64, bytes: f64) -> FlowSpec {
        FlowSpec {
            resources: resources.to_vec(),
            cap,
            bytes,
        }
    }

    #[test]
    fn single_flow_capped_by_stream_cap() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let f = net.add(spec(&[nic], 9e9, 1e6));
        assert_eq!(net.rate(f), 9e9);
    }

    #[test]
    fn single_flow_capped_by_resource() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(5e9);
        let f = net.add(spec(&[nic], 9e9, 1e6));
        assert_eq!(net.rate(f), 5e9);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let a = net.add(spec(&[nic], 9e9, 1e6));
        let b = net.add(spec(&[nic], 9e9, 1e6));
        assert!((net.rate(a) - 6e9).abs() < 1.0);
        assert!((net.rate(b) - 6e9).abs() < 1.0);
    }

    #[test]
    fn capped_flow_releases_share_to_others() {
        // One flow capped at 2 GB/s on a 12 GB/s NIC; the other (cap 11)
        // should get the remaining 10 GB/s, not the naive 6.
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let slow = net.add(spec(&[nic], 2e9, 1e6));
        let fast = net.add(spec(&[nic], 11e9, 1e6));
        assert!((net.rate(slow) - 2e9).abs() < 1.0);
        assert!((net.rate(fast) - 10e9).abs() < 1e3);
    }

    #[test]
    fn multi_resource_bottleneck() {
        // tx capacity 12, rx capacity 4: flow crossing both is limited by rx.
        let mut net = FlowNet::new();
        let tx = net.add_resource(12e9);
        let rx = net.add_resource(4e9);
        let f = net.add(spec(&[tx, rx], 20e9, 1e6));
        assert!((net.rate(f) - 4e9).abs() < 1.0);
    }

    #[test]
    fn incast_shares_receiver() {
        // Four senders (distinct tx NICs) into one rx NIC of 12 GB/s:
        // each should get 3 GB/s.
        let mut net = FlowNet::new();
        let rx = net.add_resource(12e9);
        let mut flows = Vec::new();
        for _ in 0..4 {
            let tx = net.add_resource(12e9);
            flows.push(net.add(spec(&[tx, rx], 10e9, 1e6)));
        }
        for f in flows {
            assert!((net.rate(f) - 3e9).abs() < 1e3);
        }
    }

    #[test]
    fn progress_and_eta() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10.0); // 10 B/s for easy math
        let f = net.add(spec(&[nic], 100.0, 50.0));
        assert!((net.eta_secs(f) - 5.0).abs() < 1e-12);
        net.progress(2.0);
        assert!((net.remaining(f) - 30.0).abs() < 1e-12);
        assert!((net.eta_secs(f) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn removal_restores_capacity() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let a = net.add(spec(&[nic], 12e9, 1e6));
        let b = net.add(spec(&[nic], 12e9, 1e6));
        assert!((net.rate(a) - 6e9).abs() < 1.0);
        net.remove(b);
        assert!((net.rate(a) - 12e9).abs() < 1.0);
    }

    #[test]
    fn zero_byte_flow_has_zero_eta() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let f = net.add(spec(&[nic], 12e9, 0.0));
        assert_eq!(net.eta_secs(f), 0.0);
    }

    #[test]
    fn duplicate_resources_counted_once() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10e9);
        let f = net.add(spec(&[nic, nic], 20e9, 1.0));
        assert!((net.rate(f) - 10e9).abs() < 1.0);
    }

    #[test]
    fn work_conservation_on_shared_resource() {
        // Sum of rates on the shared NIC must equal its capacity when demand
        // exceeds it.
        let mut net = FlowNet::new();
        let nic = net.add_resource(12e9);
        let flows: Vec<_> = (0..5).map(|_| net.add(spec(&[nic], 9e9, 1.0))).collect();
        let total: f64 = flows.iter().map(|&f| net.rate(f)).sum();
        assert!((total - 12e9).abs() < 1e3, "total {total}");
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn unknown_resource_panics() {
        let mut net = FlowNet::new();
        net.add(spec(&[ResourceId(7)], 1e9, 1.0));
    }

    #[test]
    fn resource_stats_accumulate_busy_and_overlap() {
        let mut net = FlowNet::new();
        let nic = net.add_resource_kind(10.0, ResourceKind::NicTx(0));
        let a = net.add(spec(&[nic], 100.0, 100.0));
        net.progress(2.0); // one active flow: busy only
        let b = net.add(spec(&[nic], 100.0, 100.0));
        net.progress(3.0); // two active flows: busy + overlap
        let s = net.resource_stats(nic);
        assert!((s.busy_secs - 5.0).abs() < 1e-12, "busy {}", s.busy_secs);
        assert!(
            (s.overlap2_secs - 3.0).abs() < 1e-12,
            "overlap {}",
            s.overlap2_secs
        );
        // 10 B/s for 2 s solo + 10 B/s aggregate for 3 s shared.
        assert!((s.bytes - 50.0).abs() < 1e-9, "bytes {}", s.bytes);
        assert_eq!(s.max_concurrent, 2);
        assert_eq!(net.resource_kind(nic), ResourceKind::NicTx(0));
        assert!(net.resource_kind(nic).is_nic());
        assert_eq!(net.resource_capacity(nic), 10.0);
        let _ = (a, b);
    }

    #[test]
    fn idle_resource_accumulates_nothing() {
        let mut net = FlowNet::new();
        let busy = net.add_resource(10.0);
        let idle = net.add_resource_kind(10.0, ResourceKind::Mem(1));
        net.add(spec(&[busy], 100.0, 100.0));
        net.progress(1.0);
        let s = net.resource_stats(idle);
        assert_eq!(s.busy_secs, 0.0);
        assert_eq!(s.bytes, 0.0);
        assert_eq!(s.max_concurrent, 0);
        assert_eq!(net.resources().count(), 2);
    }

    #[test]
    fn fast_path_add_leaves_other_rates_alone() {
        // Two flows on disjoint NICs, third on its own NIC: no rate of an
        // existing flow may appear in the dirty set when the add does not
        // contend.
        let mut net = FlowNet::new();
        let n0 = net.add_resource(10e9);
        let n1 = net.add_resource(10e9);
        let a = net.add(spec(&[n0], 5e9, 1e6));
        net.take_rate_changes();
        let b = net.add(spec(&[n1], 5e9, 1e6));
        assert_eq!(net.take_rate_changes(), vec![b]);
        assert_eq!(net.rate(a), 5e9);
        assert_eq!(net.rate(b), 5e9);
    }

    #[test]
    fn take_rate_changes_reports_contended_adds() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10e9);
        let a = net.add(spec(&[nic], 8e9, 1e6));
        net.take_rate_changes();
        let b = net.add(spec(&[nic], 8e9, 1e6));
        let changed = net.take_rate_changes();
        assert_eq!(changed, vec![a, b]);
        assert!((net.rate(a) - 5e9).abs() < 1.0);
        assert!((net.rate(b) - 5e9).abs() < 1.0);
        // Uncontended removal of `b` leaves... no: nic was saturated, so
        // removing b restores a to its cap and must mark it dirty.
        net.remove(b);
        assert_eq!(net.take_rate_changes(), vec![a]);
        assert!((net.rate(a) - 8e9).abs() < 1.0);
    }

    #[test]
    fn uncontended_removal_skips_recompute_and_dirty() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10e9);
        let a = net.add(spec(&[nic], 3e9, 1e6));
        let b = net.add(spec(&[nic], 3e9, 1e6));
        net.take_rate_changes();
        net.remove(b);
        assert!(net.take_rate_changes().is_empty());
        assert_eq!(net.rate(a), 3e9);
    }

    #[test]
    fn lazy_settlement_matches_eager_byte_accounting() {
        // Drive a small scenario with rate changes mid-flight and verify the
        // lazily settled remaining-bytes match hand-computed values.
        let mut net = FlowNet::new();
        let nic = net.add_resource(10.0);
        let a = net.add(spec(&[nic], 100.0, 100.0)); // rate 10
        net.progress(4.0); // a moved 40, 60 left
        let b = net.add(spec(&[nic], 100.0, 30.0)); // both now rate 5
        assert!((net.remaining(a) - 60.0).abs() < 1e-9);
        net.progress(2.0); // a: 50 left, b: 20 left
        assert!((net.remaining(a) - 50.0).abs() < 1e-9);
        assert!((net.remaining(b) - 20.0).abs() < 1e-9);
        net.progress(4.0); // b done exactly now (20 / 5)
        assert!(net.remaining(b).abs() < 1e-9);
        assert_eq!(net.eta_secs(b), 0.0);
        net.remove(b);
        // a back to rate 10 with 30 left.
        assert!((net.rate(a) - 10.0).abs() < 1e-9);
        assert!((net.remaining(a) - 30.0).abs() < 1e-9);
        assert!((net.eta_secs(a) - 3.0).abs() < 1e-9);
    }

    /// From-scratch max–min reference allocator, structured independently of
    /// the incremental implementation, for the randomized equivalence test.
    fn reference_rates(caps: &[f64], flows: &[(Vec<usize>, f64)]) -> Vec<f64> {
        let n = flows.len();
        let mut rate = vec![0.0f64; n];
        let mut fixed = vec![false; n];
        let mut rem = caps.to_vec();
        loop {
            let mut count = vec![0usize; caps.len()];
            for (i, (res, _)) in flows.iter().enumerate() {
                if !fixed[i] {
                    for &r in res {
                        count[r] += 1;
                    }
                }
            }
            if fixed.iter().all(|&f| f) {
                break;
            }
            let mut level = f64::INFINITY;
            for r in 0..caps.len() {
                if count[r] > 0 {
                    level = level.min(rem[r].max(0.0) / count[r] as f64);
                }
            }
            for (i, (_, cap)) in flows.iter().enumerate() {
                if !fixed[i] {
                    level = level.min(*cap);
                }
            }
            // Decide this round's pinned set against the round-start
            // rem/count snapshot, then apply the subtractions (mutating
            // `rem` mid-sweep with a stale `count` would falsely pin
            // late-checked flows).
            let pinned: Vec<usize> = (0..n)
                .filter(|&i| !fixed[i])
                .filter(|&i| {
                    let (res, cap) = &flows[i];
                    *cap <= level * (1.0 + 1e-9)
                        || res.iter().any(|&r| {
                            count[r] > 0
                                && rem[r].max(0.0) / count[r] as f64 <= level * (1.0 + 1e-9)
                        })
                })
                .collect();
            assert!(!pinned.is_empty());
            for i in pinned {
                fixed[i] = true;
                rate[i] = level;
                for &r in &flows[i].0 {
                    rem[r] -= level;
                }
            }
        }
        rate
    }

    #[test]
    #[should_panic(expected = "removing unknown flow")]
    fn removing_a_stale_flow_id_panics() {
        let mut net = FlowNet::new();
        let nic = net.add_resource(10e9);
        let a = net.add(spec(&[nic], 1e9, 1e6));
        net.remove(a);
        // `b` reuses `a`'s slot under a new generation: `a` must not
        // name it.
        let b = net.add(spec(&[nic], 1e9, 1e6));
        assert_eq!(b.slot, a.slot);
        net.remove(a);
    }

    #[test]
    fn randomized_incremental_matches_from_scratch_reference() {
        // Pseudo-random add/remove churn; after every step, every live
        // flow's incremental rate must match a from-scratch allocation of
        // the current flow set, a freed slot must be the next one reused
        // (under a new generation), and the drained rate changes must be
        // exactly the live flows whose rate bits changed, in creation
        // order.
        let mut seed = 0x2545F491_4F6CDD1Du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut net = FlowNet::new();
        let caps: Vec<f64> = (0..6).map(|i| 4e9 + 1e9 * i as f64).collect();
        let rids: Vec<ResourceId> = caps.iter().map(|&c| net.add_resource(c)).collect();
        // In creation order.
        let mut live: Vec<(FlowId, Vec<usize>, f64)> = Vec::new();
        let mut freed: Option<FlowId> = None;
        let (mut reused, mut changed_total) = (0, 0);
        for step in 0..200 {
            let before: Vec<(FlowId, u64)> = live
                .iter()
                .map(|(id, _, _)| (*id, net.rate(*id).to_bits()))
                .collect();
            if live.is_empty() || rng() % 3 != 0 {
                let nres = 1 + (rng() % 3) as usize;
                let mut res: Vec<usize> = (0..nres).map(|_| (rng() % 6) as usize).collect();
                res.sort_unstable();
                res.dedup();
                let cap = 1e9 + (rng() % 10) as f64 * 1e9;
                let id = net.add(spec(
                    &res.iter().map(|&r| rids[r]).collect::<Vec<_>>(),
                    cap,
                    1e6,
                ));
                if let Some(old) = freed.take() {
                    assert_eq!(id.slot, old.slot, "step {step}: freed slot not reused");
                    assert_ne!(id, old, "step {step}: reused slot kept its generation");
                    reused += 1;
                }
                live.push((id, res, cap));
            } else {
                let victim = (rng() as usize) % live.len();
                let (id, _, _) = live.remove(victim);
                net.remove(id);
                freed = Some(id);
            }
            // Exactly the flows whose rate bits changed (a new flow's rate
            // always counts as changed), in creation order.
            let expect_changed: Vec<FlowId> = live
                .iter()
                .map(|(id, _, _)| *id)
                .filter(|id| {
                    before
                        .iter()
                        .find(|(old, _)| old == id)
                        .is_none_or(|&(_, bits)| bits != net.rate(*id).to_bits())
                })
                .collect();
            assert_eq!(net.take_rate_changes(), expect_changed, "step {step}");
            changed_total += expect_changed.len();
            net.progress(1e-6);
            // Compare against the reference, which is ignorant of the
            // incremental bookkeeping.
            let flows: Vec<(Vec<usize>, f64)> = live
                .iter()
                .map(|(_, res, cap)| (res.clone(), *cap))
                .collect();
            let expect = reference_rates(&caps, &flows);
            for ((id, _, _), want) in live.iter().zip(expect) {
                let got = net.rate(*id);
                assert!(
                    (got - want).abs() <= want.abs() * 1e-6 + 1.0,
                    "step {step}: flow {id:?} rate {got} != reference {want}"
                );
            }
        }
        assert!(
            reused > 20 && changed_total > 200,
            "{reused} {changed_total}"
        );
    }
}

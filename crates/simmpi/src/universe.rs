//! The simulation universe: launches one fiber per rank, runs the event
//! loop on the calling thread, and collects results.

use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

use ovcomm_obs::MetricsSnapshot;
use ovcomm_simnet::{
    ClusterResources, ClusterSpec, Engine, Fabric, Fiber, ForcedUnwind, MachineProfile, NetStats,
    NodeMap, ParkCell, ResourceKind, SimDur, SimTime, Trace,
};
use ovcomm_verify::plan::{CollAlgo, CollPlan};
use ovcomm_verify::{DeadlockReport, Finding, Severity, VerifyMode, VerifyReport};

use crate::agent::Agent;
use crate::collsel::CollSelector;
use crate::request::Request;
use crate::state::MpiState;
use crate::transport::CommEnv;
use crate::Comm;

/// Configuration for one simulated run.
pub struct SimConfig {
    /// The cluster (nodes + machine profile).
    pub cluster: ClusterSpec,
    /// Rank → node placement; `nodemap.nranks()` ranks are spawned.
    pub nodemap: NodeMap,
    /// Record `TraceSpan`s (needed for Fig-6-style timelines).
    pub trace: bool,
    /// Write the recorded trace as Perfetto/Chrome trace-event JSON to this
    /// path after the run (implies `trace`). Load it in `ui.perfetto.dev`.
    pub trace_out: Option<PathBuf>,
    /// Communication-correctness verification level. Defaults to
    /// [`VerifyMode::Strict`], so every run doubles as a correctness check;
    /// use [`SimConfig::with_verify`] to relax it.
    pub verify: VerifyMode,
    /// Collective-algorithm selection policy. The default reproduces the
    /// legacy hardcoded 32 KiB short/long thresholds exactly.
    pub coll_select: CollSelector,
    /// Stack size of each rank/op fiber. Stacks are committed lazily by
    /// the OS, so the default is generous; lower it for very large sweeps
    /// if address space matters.
    pub fiber_stack: usize,
}

impl SimConfig {
    /// `nranks` ranks placed `ppn`-per-node ("natural" placement, the
    /// paper's §V-D mapping) on a cluster with the given profile.
    pub fn natural(nranks: usize, ppn: usize, profile: MachineProfile) -> SimConfig {
        let nodemap = NodeMap::natural(nranks, ppn);
        let cluster = ClusterSpec::new(nodemap.nodes(), profile);
        SimConfig {
            cluster,
            nodemap,
            trace: false,
            trace_out: None,
            verify: VerifyMode::Strict,
            coll_select: CollSelector::default(),
            fiber_stack: ovcomm_simnet::DEFAULT_STACK_SIZE,
        }
    }

    /// Explicit node map.
    pub fn with_map(nodemap: NodeMap, profile: MachineProfile) -> SimConfig {
        let cluster = ClusterSpec::new(nodemap.nodes(), profile);
        SimConfig {
            cluster,
            nodemap,
            trace: false,
            trace_out: None,
            verify: VerifyMode::Strict,
            coll_select: CollSelector::default(),
            fiber_stack: ovcomm_simnet::DEFAULT_STACK_SIZE,
        }
    }

    /// Replace the default full-bisection fabric with an explicit cluster
    /// topology (fat-tree or dragonfly) whose links contend.
    pub fn with_fabric(mut self, fabric: Fabric) -> SimConfig {
        self.cluster = self.cluster.with_fabric(fabric);
        self
    }

    /// Set the per-fiber stack size.
    pub fn with_fiber_stack(mut self, bytes: usize) -> SimConfig {
        self.fiber_stack = bytes;
        self
    }

    /// Set the verification level.
    pub fn with_verify(mut self, mode: VerifyMode) -> SimConfig {
        self.verify = mode;
        self
    }

    /// Set the collective-algorithm selection policy.
    pub fn with_coll_select(mut self, sel: CollSelector) -> SimConfig {
        self.coll_select = sel;
        self
    }

    /// Enable span tracing.
    pub fn with_trace(mut self) -> SimConfig {
        self.trace = true;
        self
    }

    /// Enable tracing and write the trace as Perfetto/Chrome trace-event
    /// JSON to `path` when the run completes.
    pub fn with_trace_out(mut self, path: impl Into<PathBuf>) -> SimConfig {
        self.trace = true;
        self.trace_out = Some(path.into());
        self
    }
}

/// Why a run failed.
#[derive(Debug)]
pub enum SimError {
    /// All ranks blocked with no event pending (mismatched communication).
    /// The report names each blocked rank's pending operation and, when one
    /// exists, the wait-for cycle among ranks.
    Deadlock {
        /// The structured diagnosis.
        report: DeadlockReport,
    },
    /// A rank (or one of its progress actors) panicked.
    RankPanic {
        /// World rank that panicked (the lowest, when several did).
        rank: usize,
        /// Panic payload rendered as a string.
        message: String,
    },
    /// The run completed but `VerifyMode::Strict` analysis found
    /// error-severity communication-correctness violations.
    Verification {
        /// All findings (errors first).
        findings: Vec<Finding>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { report } => write!(f, "{report}"),
            SimError::RankPanic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::Verification { findings } => {
                let errors = findings
                    .iter()
                    .filter(|x| x.severity == Severity::Error)
                    .count();
                write!(f, "verification failed: {errors} error(s)")?;
                for x in findings.iter().take(8) {
                    write!(f, "\n  {x}")?;
                }
                if findings.len() > 8 {
                    write!(f, "\n  ... and {} more finding(s)", findings.len() - 8)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Results of a successful run.
pub struct SimOutput<T> {
    /// Per-rank return values of the rank closure.
    pub results: Vec<T>,
    /// Final virtual clock of each rank.
    pub end_times: Vec<SimTime>,
    /// Latest final clock across ranks — the virtual makespan.
    pub makespan: SimTime,
    /// Total bytes that crossed node boundaries.
    pub inter_node_bytes: u64,
    /// Total bytes moved through intra-node shared memory.
    pub intra_node_bytes: u64,
    /// Total messages.
    pub messages: u64,
    /// Recorded spans, if tracing was enabled.
    pub trace: Option<Trace>,
    /// Snapshot of every metric the run recorded (byte/call counters,
    /// virtual-time histograms, pool gauges).
    pub metrics: MetricsSnapshot,
    /// Per-resource utilization integrals and flow queueing-delay totals.
    pub net: NetStats,
    /// Trace spans that arrived with `end < start` and were clamped —
    /// non-zero indicates an instrumentation bug upstream.
    pub clamped_spans: usize,
    /// Communication-correctness findings and leak counters (empty when
    /// verification was off). Under `Strict`, error findings abort the run
    /// instead, so this carries warnings only.
    pub verify: VerifyReport,
}

/// Everything shared between rank actors, progress actors and engine
/// callbacks.
pub(crate) struct UniShared {
    pub engine: Engine,
    pub state: Mutex<MpiState>,
    /// What the communicator front end reads: metrics, verifier, plan
    /// cache, selector, profile, communicator registry.
    pub env: CommEnv,
    pub nodemap: NodeMap,
    pub resources: ClusterResources,
    /// Per-rank reduction-compute resource (capacity `gamma_reduce_bw ×
    /// reduce_parallel`): concurrent nonblocking collectives on one rank
    /// share it, so pipelined reductions cannot compute faster than the
    /// process's progress engine allows.
    pub cpu: Vec<ovcomm_simnet::ResourceId>,
    pub tracing: bool,
    pub op_panics: Mutex<Vec<(u32, String)>>,
    /// Stack size for op fibers.
    pub fiber_stack: usize,
}

/// One compiled plan shape plus its memoized static-analysis findings.
/// Lint (and, under `Strict`, model-check) findings are computed and
/// rendered exactly once, at first compile; cache hits return the plans
/// without re-rendering, so `Warn`-mode diagnostics print once per shape.
#[derive(Clone)]
pub struct CachedPlans {
    /// The per-rank schedules.
    pub plans: Arc<Vec<CollPlan>>,
    /// Rendered static-analysis findings (empty for clean plans).
    pub findings: Arc<Vec<String>>,
}

/// Cache of compiled per-rank collective schedules, keyed by plan shape.
pub type PlanCache = std::collections::BTreeMap<
    (ovcomm_verify::CollKind, CollAlgo, usize, usize, usize),
    CachedPlans,
>;

impl UniShared {
    /// Complete a request at virtual time `at` and wake its waiters.
    pub fn complete<T>(&self, req: &Request<T>, value: T, at: SimTime) {
        for cell in req.complete(value, at) {
            self.engine.wake(&cell, at);
        }
    }

    /// Node hosting a world rank.
    pub fn node_of(&self, rank: u32) -> usize {
        self.nodemap.node_of(rank as usize)
    }

    /// Record a panic that unwound a progress actor.
    pub fn record_op_panic(&self, rank: u32, msg: String) {
        self.op_panics.lock().push((rank, msg));
    }

    /// Record a happens-before edge in the trace (no-op when tracing is
    /// off). Used by the p2p layer (send→recv) and the dispatcher
    /// (operation completion → wait) so obs can rebuild the run's DAG.
    pub(crate) fn edge(
        &self,
        kind: ovcomm_simnet::EdgeKind,
        from_actor: u32,
        from_time: SimTime,
        to_actor: u32,
        to_time: SimTime,
    ) {
        if self.tracing {
            self.engine.record_edge(ovcomm_simnet::TraceEdge {
                kind,
                from_actor,
                from_time,
                to_actor,
                to_time,
            });
        }
    }
}

/// Encode a deterministic actor id for the `op_idx`-th nonblocking
/// operation posted by `rank`. Rank actors use ids `0..nranks`; operation
/// actors set the high bit.
pub(crate) fn op_actor_id(rank: u32, op_idx: u64) -> u32 {
    assert!(
        rank < (1 << 17),
        "rank {rank} too large for op-actor encoding"
    );
    assert!(
        op_idx < (1 << 14),
        "rank {rank} posted more than 16384 nonblocking operations in one run"
    );
    0x8000_0000 | (rank << 14) | (op_idx as u32)
}

/// World rank an actor id acts for (inverse of [`op_actor_id`] for
/// operation actors; identity for rank actors).
pub(crate) fn rank_of_actor(id: u32) -> u32 {
    if id & 0x8000_0000 != 0 {
        (id & 0x7FFF_FFFF) >> 14
    } else {
        id
    }
}

/// Human-readable track name for an actor id (inverse of [`op_actor_id`]
/// for operation actors), used for Perfetto thread names.
pub fn actor_name(id: u32) -> String {
    if id & 0x8000_0000 != 0 {
        let rank = (id & 0x7FFF_FFFF) >> 14;
        let op = id & 0x3FFF;
        format!("rank {rank} op {op}")
    } else {
        format!("rank {id}")
    }
}

/// Handle passed to each rank's closure: identity, clock, and the world
/// communicator.
pub struct RankCtx {
    pub(crate) agent: Agent,
    world: Comm,
    /// Per-kernel compute-share override: when some of this node's
    /// processes sleep (§III-B), the active ones own their cores, so
    /// compute-rate models should divide the node by the *active* count.
    active_ppn: std::cell::Cell<usize>,
}

impl RankCtx {
    /// World rank of this process.
    pub fn rank(&self) -> usize {
        self.agent.rank as usize
    }

    /// Total number of ranks.
    pub fn nranks(&self) -> usize {
        self.agent.uni.nodemap.nranks()
    }

    /// Node hosting this rank.
    pub fn node(&self) -> usize {
        self.agent.uni.node_of(self.agent.rank)
    }

    /// Number of ranks sharing this rank's node.
    pub fn ppn(&self) -> usize {
        let me = self.node();
        (0..self.nranks())
            .filter(|&r| self.agent.uni.nodemap.node_of(r) == me)
            .count()
    }

    /// Processes per node to use for compute-rate models: the launched PPN
    /// by default, or the active count set by [`RankCtx::set_active_ppn`]
    /// during a per-kernel-PPN stage (sleeping processes release their
    /// cores to the active ones).
    pub fn compute_ppn(&self) -> usize {
        let o = self.active_ppn.get();
        if o == 0 {
            self.ppn()
        } else {
            o
        }
    }

    /// Declare how many of this node's processes are actually computing
    /// (0 restores the default = launched PPN).
    pub fn set_active_ppn(&self, active: usize) {
        self.active_ppn.set(active);
    }

    /// The world communicator (all ranks).
    pub fn world(&self) -> Comm {
        self.world.clone()
    }

    /// This rank's virtual clock.
    pub fn now(&self) -> SimTime {
        self.agent.now()
    }

    /// Charge modeled local computation time.
    pub fn advance(&self, d: SimDur) {
        self.agent.advance(d);
    }

    /// Charge `flops` of dense-kernel computation at `rate` flop/s,
    /// recording a `Compute` trace span when tracing is on.
    pub fn compute_flops(&self, flops: f64, rate: f64) {
        assert!(rate > 0.0 && flops >= 0.0);
        let t0 = self.agent.now();
        self.agent.advance(SimDur::from_secs_f64(flops / rate));
        self.agent.trace_span(
            ovcomm_simnet::SpanKind::Compute,
            t0,
            self.agent.now(),
            || format!("compute {flops:.3e} flops"),
        );
    }

    /// Sleep for `d` of virtual time (the `usleep` of the paper's
    /// multiple-PPN sleep/poll mechanism, §III-B).
    pub fn sleep(&self, d: SimDur) {
        self.agent.sleep(d);
    }

    /// The machine profile (for compute-rate lookups).
    pub fn profile(&self) -> &MachineProfile {
        &self.agent.uni.env.profile
    }

    /// The rank→node map.
    pub fn nodemap(&self) -> &NodeMap {
        &self.agent.uni.nodemap
    }

    /// Record a custom trace span (shown on Fig-6-style timelines).
    pub fn trace_span(
        &self,
        kind: ovcomm_simnet::SpanKind,
        start: SimTime,
        end: SimTime,
        label: String,
    ) {
        self.agent.trace_span(kind, start, end, move || label);
    }

    /// Record a custom trace span tagged with a pipeline chunk index.
    pub fn trace_span_chunk(
        &self,
        kind: ovcomm_simnet::SpanKind,
        chunk: u32,
        start: SimTime,
        end: SimTime,
        label: String,
    ) {
        self.agent
            .trace_span_chunk(kind, Some(chunk), start, end, move || label);
    }

    /// Record a `Phase` span from `start` to now — kernels bracket their
    /// algorithm phases (a SUMMA step, a purification iteration) with these
    /// so timelines and the critical-path analysis can group finer spans.
    pub fn phase_span(&self, start: SimTime, label: String) {
        self.agent.trace_span(
            ovcomm_simnet::SpanKind::Phase,
            start,
            self.agent.now(),
            move || label,
        );
    }
}

/// Run `f` on every rank of the configured cluster; the calling thread
/// drives the event loop until all ranks finish.
///
/// ```
/// use ovcomm_simmpi::{run, Payload, RankCtx, SimConfig};
/// use ovcomm_simnet::MachineProfile;
///
/// // Two ranks on two nodes: rank 0 sends a value, rank 1 doubles it.
/// let out = run(
///     SimConfig::natural(2, 1, MachineProfile::test_profile()),
///     |rc: RankCtx| {
///         let world = rc.world();
///         if rc.rank() == 0 {
///             world.send(1, 0, Payload::from_f64s(&[21.0]));
///             0.0
///         } else {
///             2.0 * world.recv(0, 0).to_f64s()[0]
///         }
///     },
/// )
/// .unwrap();
/// assert_eq!(out.results[1], 42.0);
/// assert!(out.makespan.as_nanos() > 0); // virtual time elapsed
/// ```
// The `expect` here is a collect-time invariant: a rank that did not
// panic must have produced a result.
#[allow(clippy::expect_used)]
pub fn run<T, F>(cfg: SimConfig, f: F) -> Result<SimOutput<T>, SimError>
where
    T: Send + 'static,
    F: Fn(RankCtx) -> T + Send + Sync + 'static,
{
    let nranks = cfg.nodemap.nranks();
    let engine = Engine::new();
    if cfg.trace {
        engine.enable_trace();
    }
    // Register cluster resources: per-node NIC/memory in the canonical
    // (tx, rx, mem per node) order, then any fabric link resources.
    let resources = engine.build_cluster(&cfg.cluster);
    let cpu: Vec<ovcomm_simnet::ResourceId> = (0..nranks)
        .map(|r| {
            engine.add_resource_kind(
                cfg.cluster.profile.gamma_reduce_bw * cfg.cluster.profile.reduce_parallel,
                ResourceKind::Cpu(r as u32),
            )
        })
        .collect();

    let state = MpiState {
        rank_end_times: vec![SimTime::ZERO; nranks],
        ..MpiState::default()
    };
    let uni = Arc::new(UniShared {
        engine,
        state: Mutex::new(state),
        env: CommEnv::new(
            nranks,
            cfg.verify,
            cfg.coll_select.clone(),
            cfg.cluster.profile.clone(),
        ),
        nodemap: cfg.nodemap.clone(),
        resources,
        cpu,
        tracing: cfg.trace,
        op_panics: Mutex::new(Vec::new()),
        fiber_stack: cfg.fiber_stack,
    });

    let f = Arc::new(f);
    let world_ranks: Arc<Vec<u32>> = Arc::new((0..nranks as u32).collect());
    // Rank results and captured rank panics, filled in by the rank bodies
    // themselves.
    let results: Arc<Mutex<Vec<Option<T>>>> =
        Arc::new(Mutex::new((0..nranks).map(|_| None).collect()));
    let rank_panics: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));

    // The body of one rank actor: take the scheduler's first release, run
    // the user closure, record the result (or the panic), and — via the
    // drop guard, so unwinding paths are covered — retire the actor.
    let body_for = |r: usize, cell: Arc<ParkCell>| {
        let uni2 = uni.clone();
        let f2 = f.clone();
        let world_ranks2 = world_ranks.clone();
        let results2 = results.clone();
        let panics2 = rank_panics.clone();
        move || {
            struct Finish {
                uni: Arc<UniShared>,
                id: u32,
            }
            impl Drop for Finish {
                fn drop(&mut self) {
                    self.uni.engine.actor_finished(self.id);
                }
            }
            let _guard = Finish {
                uni: uni2.clone(),
                id: r as u32,
            };
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                uni2.engine.await_release(&cell);
                let agent = Agent::new_rank(r as u32, cell.clone(), uni2.clone());
                let world = Comm::new_world(agent.clone(), world_ranks2.clone(), r);
                let rc = RankCtx {
                    agent: agent.clone(),
                    world,
                    active_ppn: std::cell::Cell::new(0),
                };
                let v = f2(rc);
                uni2.state.lock().rank_end_times[r] = agent.now();
                v
            }));
            match out {
                Ok(v) => results2.lock()[r] = Some(v),
                Err(e) => {
                    // Fiber cancellation must keep unwinding; everything
                    // else is a rank panic to report.
                    if e.downcast_ref::<ForcedUnwind>().is_some() {
                        std::panic::resume_unwind(e);
                    }
                    let msg = e
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| e.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic>".to_string());
                    panics2.lock().push((r, msg));
                }
            }
        }
    };

    // Register all rank actors before the loop starts so the engine cannot
    // advance early.
    for r in 0..nranks {
        let cell = Arc::new(ParkCell::new());
        let fiber = Fiber::new(cfg.fiber_stack, body_for(r, cell.clone()));
        uni.engine
            .register_fiber_at(r as u32, fiber, cell, SimTime::ZERO);
    }

    // Drive the event loop on this thread (fibers resume inline here).
    uni.engine.run_loop();
    uni.engine.drain_fibers();

    let results: Vec<Option<T>> = std::mem::take(&mut *results.lock());
    let mut panics: Vec<(usize, String)> = std::mem::take(&mut *rank_panics.lock());
    // Report by rank, not by the order the scheduler reached the panics.
    panics.sort();

    // A rank panic often *causes* the deadlock that unwinds everyone else;
    // report the root cause, not the induced deadlock panics.
    let is_deadlock_msg = |m: &str| m.contains("simulation deadlock");
    let mut op_panics = std::mem::take(&mut *uni.op_panics.lock());
    op_panics.retain(|(_, m)| !is_deadlock_msg(m));
    if let Some((rank, message)) = panics
        .iter()
        .find(|(_, m)| !is_deadlock_msg(m))
        .cloned()
        .or_else(|| op_panics.first().map(|(r, m)| (*r as usize, m.clone())))
    {
        return Err(SimError::RankPanic { rank, message });
    }
    if uni.engine.deadlocked() {
        let blocked: Vec<(u32, u32)> = uni
            .engine
            .deadlocked_actors()
            .into_iter()
            .map(|id| (id, rank_of_actor(id)))
            .collect();
        let report = match uni.env.verify.as_ref() {
            Some(v) => v.deadlock_report(&blocked),
            None => DeadlockReport::unknown(&blocked),
        };
        return Err(SimError::Deadlock { report });
    }
    if let Some((rank, message)) = panics.into_iter().next() {
        return Err(SimError::RankPanic { rank, message });
    }

    // Analyze the communication log. Under Strict, error-severity findings
    // fail the run; under Warn they are printed; warnings always travel in
    // the output.
    let verify_report = uni
        .env
        .verify_report(|_| true)
        .map_err(|findings| SimError::Verification { findings })?;

    let (inter, intra, messages, end_times) = {
        let st = uni.state.lock();
        (
            st.inter_bytes,
            st.intra_bytes,
            st.messages,
            st.rank_end_times.clone(),
        )
    };
    let makespan = end_times.iter().copied().max().unwrap_or(SimTime::ZERO);
    let clamped_spans = uni.engine.clamped_spans();
    uni.env.metrics.spans_clamped(clamped_spans as u64);
    let trace = uni.engine.take_trace();
    if let Some(path) = &cfg.trace_out {
        let spans: &[ovcomm_simnet::TraceSpan] = trace.as_ref().map_or(&[], |t| t.spans());
        if let Err(e) = ovcomm_obs::write_trace(path, spans, actor_name) {
            eprintln!("warning: failed to write trace to {}: {e}", path.display());
        }
    }
    Ok(SimOutput {
        results: results
            .into_iter()
            .map(|o| o.expect("non-panicked rank must produce a result"))
            .collect(),
        end_times,
        makespan,
        inter_node_bytes: inter,
        intra_node_bytes: intra,
        messages,
        trace,
        metrics: uni.env.metrics.snapshot(),
        net: uni.engine.net_stats(),
        clamped_spans,
        verify: verify_report,
    })
}

//! The simulation universe: launches one fiber per rank, runs the event
//! loop on the calling thread, and hands what the ranks left behind to the
//! shared epilogue (`CommEnv::finish`). The trace is not among it — spans
//! and edges go straight to `CommEnv` — and the actor-id layout is
//! `ovcomm_simnet::trace`'s.

use std::sync::Arc;

use parking_lot::Mutex;

use ovcomm_simnet::{
    rank_of_actor, ClusterResources, ClusterSpec, Engine, Fabric, Fiber, ForcedUnwind,
    ResourceKind, SimTime,
};

use crate::agent::Agent;
use crate::rank::{RunConfig, RunError, RunOutput};
use crate::request::Request;
use crate::state::MpiState;
use crate::transport::{panic_message, CommEnv};
use crate::RankCtx;

/// Configuration for one simulated run: the shared [`RunConfig`] with the
/// simulator's own settings.
pub type SimConfig = RunConfig<SimOpts>;

/// The simulator's own run settings.
#[derive(Clone)]
pub struct SimOpts {
    /// The switching fabric between nodes. Defaults to
    /// [`Fabric::FullBisection`].
    pub fabric: Fabric,
    /// Stack size of each rank/op fiber. A stack costs address space and
    /// the pages a fiber touches, not this size, so the default is
    /// generous; raise it for a rank body that needs more.
    pub fiber_stack: usize,
}

impl Default for SimOpts {
    fn default() -> SimOpts {
        SimOpts {
            fabric: Fabric::FullBisection,
            fiber_stack: ovcomm_simnet::DEFAULT_STACK_SIZE,
        }
    }
}

impl SimConfig {
    /// Replace the default full-bisection fabric with an explicit cluster
    /// topology (a fat tree) whose links contend. The fabric must provide
    /// a host slot for every node of the node map.
    pub fn with_fabric(mut self, fabric: Fabric) -> SimConfig {
        fabric.assert_fits(self.nodemap.nodes());
        self.backend.fabric = fabric;
        self
    }

    /// Set the per-fiber stack size.
    pub fn with_fiber_stack(mut self, bytes: usize) -> SimConfig {
        self.backend.fiber_stack = bytes;
        self
    }
}

/// Everything shared between rank actors, progress actors and engine
/// callbacks.
pub(crate) struct UniShared {
    pub engine: Engine,
    pub state: Mutex<MpiState>,
    /// What the front end reads and the run's result is built from:
    /// metrics, verifier, selector, profile, node map,
    /// registries, trace, traffic counters, rank end times.
    pub env: CommEnv,
    pub resources: ClusterResources,
    /// Per-rank reduction-compute resource (capacity `gamma_reduce_bw ×
    /// reduce_parallel`): concurrent nonblocking collectives on one rank
    /// share it, so pipelined reductions cannot compute faster than the
    /// process's progress engine allows.
    pub cpu: Vec<ovcomm_simnet::ResourceId>,
    /// Stack size for op fibers.
    pub fiber_stack: usize,
}

impl UniShared {
    /// Complete a request at virtual time `at` and wake its waiters.
    pub fn complete<T>(&self, req: &Request<T>, value: T, at: SimTime) {
        for id in req.complete(value, at) {
            self.engine.wake(id, at);
        }
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
pub fn run<T, F>(cfg: SimConfig, f: F) -> Result<RunOutput<T>, RunError>
where
    T: Send + 'static,
    F: Fn(RankCtx) -> T + Send + Sync + 'static,
{
    let nranks = cfg.nodemap.nranks();
    let engine = Engine::new();
    // Register cluster resources: per-node NIC/memory in the canonical
    // (tx, rx, mem per node) order, then any fabric link resources.
    let cluster = ClusterSpec::new(cfg.nodemap.nodes(), cfg.profile.clone())
        .with_fabric(cfg.backend.fabric.clone());
    let resources = engine.build_cluster(&cluster);
    let cpu: Vec<ovcomm_simnet::ResourceId> = (0..nranks)
        .map(|r| {
            engine.add_resource_kind(
                cfg.profile.gamma_reduce_bw * cfg.profile.reduce_parallel,
                ResourceKind::Cpu(r as u32),
            )
        })
        .collect();

    let uni = Arc::new(UniShared {
        engine,
        state: Mutex::new(MpiState::default()),
        env: CommEnv::new(&cfg),
        resources,
        cpu,
        fiber_stack: cfg.backend.fiber_stack,
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
    let body_for = |r: usize| {
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
                uni2.engine.await_release();
                let agent = Agent::new(r as u32, r as u32, SimTime::ZERO, uni2.clone());
                RankCtx::run(agent, world_ranks2.clone(), &*f2)
            }));
            match out {
                Ok(v) => results2.lock()[r] = Some(v),
                Err(e) => {
                    // Fiber cancellation must keep unwinding; everything
                    // else is a rank panic to report.
                    if e.downcast_ref::<ForcedUnwind>().is_some() {
                        std::panic::resume_unwind(e);
                    }
                    panics2.lock().push((r, panic_message(&*e)));
                }
            }
        }
    };

    // Register all rank actors before the loop starts so the engine cannot
    // advance early.
    for r in 0..nranks {
        let fiber = Fiber::new(cfg.backend.fiber_stack, body_for(r));
        uni.engine.register_fiber_at(r as u32, fiber, SimTime::ZERO);
    }

    // Drive the event loop on this thread (fibers resume inline here).
    uni.engine.run_loop();
    uni.engine.drain_fibers();

    let results = std::mem::take(&mut *results.lock());
    let panics = std::mem::take(&mut *rank_panics.lock());
    let deadlock = uni.engine.deadlocked().then(|| {
        let blocked = uni.engine.deadlocked_actors().into_iter();
        blocked.map(|id| (id, rank_of_actor(id))).collect()
    });
    uni.env
        .finish::<Agent, T>(results, panics, deadlock, Some(uni.engine.net_stats()))
}

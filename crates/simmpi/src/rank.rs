//! The run harness both backends share: the per-rank context handed to the
//! rank closure ([`RankCtx<T>`]), the result types of a run ([`RunOutput`],
//! [`RunError`]) and the post-run epilogue that builds them
//! ([`CommEnv::finish`]).
//!
//! A backend's `run` keeps only what is really its own — the simulator its
//! engine, fibers and network statistics; the runtime its threads, watchdog
//! and sampler — and ends by handing what it observed to `finish`.

use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ovcomm_obs::MetricsSnapshot;
use ovcomm_simnet::{MachineProfile, NetStats, NodeMap, SimDur, SimTime, SpanKind, Trace};
use ovcomm_verify::{DeadlockReport, Finding, Severity, VerifyReport};

use crate::comm::Comm;
use crate::transport::{CommEnv, Transport};

/// Handle passed to each rank's closure: identity, clock, and the world
/// communicator — `ovcomm_simmpi::RankCtx` on the simulator,
/// `ovcomm_rt::RtRankCtx` on the wall-clock runtime.
pub struct RankCtx<T: Transport> {
    agent: T,
    world: Comm<T>,
    /// Per-kernel compute-share override: when some of this node's
    /// processes sleep (§III-B), the active ones own their cores, so
    /// compute-rate models should divide the node by the *active* count.
    active_ppn: Cell<usize>,
}

impl<T: Transport> RankCtx<T> {
    /// Run one rank's closure on `agent`: hand it its context over the
    /// world group `world_ranks`, then record the rank's final clock.
    #[doc(hidden)]
    pub fn run<R>(agent: T, world_ranks: Arc<Vec<u32>>, f: impl FnOnce(RankCtx<T>) -> R) -> R {
        let rank = agent.rank() as usize;
        let out = f(RankCtx {
            world: Comm::new_world(agent.clone(), world_ranks, rank),
            agent: agent.clone(),
            active_ppn: Cell::new(0),
        });
        agent.env().rank_end_times.lock()[rank] = agent.now();
        out
    }

    /// World rank of this process.
    pub fn rank(&self) -> usize {
        self.agent.rank() as usize
    }

    /// Total number of ranks.
    pub fn nranks(&self) -> usize {
        self.nodemap().nranks()
    }

    /// Node hosting this rank (a logical node on the runtime, where
    /// everything is physically shared memory).
    pub fn node(&self) -> usize {
        self.nodemap().node_of(self.rank())
    }

    /// Number of ranks sharing this rank's node.
    pub fn ppn(&self) -> usize {
        let me = self.node();
        (0..self.nranks())
            .filter(|&r| self.nodemap().node_of(r) == me)
            .count()
    }

    /// Processes per node to use for compute-rate models: the launched PPN
    /// by default, or the active count set by [`RankCtx::set_active_ppn`]
    /// during a per-kernel-PPN stage (sleeping processes release their
    /// cores to the active ones).
    pub fn compute_ppn(&self) -> usize {
        match self.active_ppn.get() {
            0 => self.ppn(),
            active => active,
        }
    }

    /// Declare how many of this node's processes are actually computing
    /// (0 restores the default = launched PPN).
    pub fn set_active_ppn(&self, active: usize) {
        self.active_ppn.set(active);
    }

    /// The world communicator (all ranks).
    pub fn world(&self) -> Comm<T> {
        self.world.clone()
    }

    /// This rank's clock: virtual time on the simulator, wall-clock
    /// nanoseconds since the run's epoch on the runtime.
    pub fn now(&self) -> SimTime {
        self.agent.now()
    }

    /// Charge modeled local computation time (a clock bump on the
    /// simulator; nothing on the runtime, where real code costs real time).
    pub fn advance(&self, d: SimDur) {
        self.agent.charge(d);
    }

    /// Charge `flops` of dense-kernel computation at `rate` flop/s,
    /// recording a `Compute` trace span when tracing is on.
    pub fn compute_flops(&self, flops: f64, rate: f64) {
        assert!(rate > 0.0 && flops >= 0.0);
        let t0 = self.now();
        self.advance(SimDur::from_secs_f64(flops / rate));
        self.world.span_since(SpanKind::Compute, None, t0, || {
            format!("compute {flops:.3e} flops")
        });
    }

    /// Sleep for `d` (the `usleep` of the paper's multiple-PPN sleep/poll
    /// mechanism, §III-B).
    pub fn sleep(&self, d: SimDur) {
        self.agent.sleep(d);
    }

    /// The machine profile (for compute-rate lookups).
    pub fn profile(&self) -> &MachineProfile {
        &self.agent.env().profile
    }

    /// The rank→node map.
    pub fn nodemap(&self) -> &NodeMap {
        &self.agent.env().nodemap
    }

    /// Record a custom trace span (shown on Fig-6-style timelines).
    pub fn trace_span(&self, kind: SpanKind, start: SimTime, end: SimTime, label: String) {
        let agent = &self.agent;
        agent
            .env()
            .span(agent.id(), kind, None, start, end, move || label);
    }

    /// Record a `Phase` span from `start` to now — kernels bracket their
    /// algorithm phases (a SUMMA step, a purification iteration) with these
    /// so timelines and the critical-path analysis can group finer spans.
    pub fn phase_span(&self, start: SimTime, label: String) {
        self.trace_span(SpanKind::Phase, start, self.now(), label);
    }

    /// `"sim"` or `"rt"`.
    pub fn backend_name(&self) -> &'static str {
        T::NAME
    }
}

/// Why a run failed, on either backend.
#[derive(Debug)]
pub enum RunError {
    /// Every rank blocked with nothing left that could wake one
    /// (mismatched communication): no event pending on the simulator; on
    /// the runtime, no request completing for `RtConfig::deadlock_timeout`.
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

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { report } => write!(f, "{report}"),
            RunError::RankPanic { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            RunError::Verification { findings } => {
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

impl std::error::Error for RunError {}

/// Results of a successful run, on either backend. Times are virtual on
/// the simulator and wall-clock nanoseconds since the run's epoch on the
/// runtime.
pub struct RunOutput<R> {
    /// `"sim"` or `"rt"`: the backend that produced this output.
    pub backend: &'static str,
    /// Per-rank return values of the rank closure.
    pub results: Vec<R>,
    /// Final clock of each rank.
    pub end_times: Vec<SimTime>,
    /// Latest final clock across ranks — the makespan.
    pub makespan: SimTime,
    /// Total bytes that crossed (logical) node boundaries.
    pub inter_node_bytes: u64,
    /// Total bytes moved between ranks of one node.
    pub intra_node_bytes: u64,
    /// Total messages.
    pub messages: u64,
    /// Recorded spans, if tracing was enabled.
    pub trace: Option<Trace>,
    /// Snapshot of every metric the run recorded (byte/call counters,
    /// time histograms, pool gauges) — same names on both backends, so
    /// sim-vs-rt reports join per-rank records directly.
    pub metrics: MetricsSnapshot,
    /// Per-resource utilization integrals and flow queueing-delay totals.
    /// `Some` only where a flow model exists: the simulator.
    pub net: Option<NetStats>,
    /// Trace spans that arrived with `end < start` and were clamped —
    /// non-zero indicates an instrumentation bug upstream.
    pub clamped_spans: usize,
    /// Communication-correctness findings and leak counters (empty when
    /// verification was off). Under `Strict`, error findings abort the run
    /// instead, so this carries warnings only.
    pub verify: VerifyReport,
}

/// True for the message a blocked wait unwinds with once its backend has
/// declared the run deadlocked (`Engine::park` on the simulator, the
/// runtime's sliced park).
fn deadlock_unwind(message: &str) -> bool {
    message.contains("simulation deadlock") || message.contains("rt deadlock")
}

impl CommEnv {
    /// The epilogue both backends' `run` end with: triage what the ranks
    /// left behind into a [`RunError`], or assemble the [`RunOutput`].
    ///
    /// `results[r]` is rank `r`'s return value (`None` if it unwound),
    /// `panics` the `(rank, message)` of every rank that panicked, and
    /// `deadlock` the `(agent, rank)` of everyone blocked if the backend
    /// declared the run deadlocked. `trace_out` is where to write the
    /// Perfetto trace — written whether the run succeeded or not: a failed
    /// run's trace is the one somebody needs.
    #[allow(clippy::expect_used)]
    pub fn finish<T: Transport, R>(
        &self,
        results: Vec<Option<R>>,
        mut panics: Vec<(usize, String)>,
        deadlock: Option<Vec<(u32, u32)>>,
        net: Option<NetStats>,
        trace_out: Option<&Path>,
    ) -> Result<RunOutput<R>, RunError> {
        let trace = self.trace.as_ref().map(|t| std::mem::take(&mut *t.lock()));
        if let Some(path) = trace_out {
            let spans = trace.as_ref().map_or(&[][..], |t| t.spans());
            if let Err(e) = ovcomm_obs::write_trace(path, spans) {
                eprintln!("warning: failed to write trace to {}: {e}", path.display());
            }
        }

        // Report by rank, not by the order the panics were reached.
        panics.sort();
        // A rank panic often *causes* the deadlock that unwinds everyone
        // else; report the root cause, not the induced deadlock panics.
        let op_panic = std::mem::take(&mut *self.op_panics.lock())
            .into_iter()
            .find(|(_, m)| !deadlock_unwind(m));
        if let Some((rank, message)) = panics
            .iter()
            .find(|(_, m)| !deadlock_unwind(m))
            .cloned()
            .or(op_panic.map(|(r, m)| (r as usize, m)))
        {
            return Err(RunError::RankPanic { rank, message });
        }
        if let Some(blocked) = deadlock {
            let report = match self.verify.as_ref() {
                Some(v) => v.deadlock_report(&blocked),
                None => DeadlockReport::unknown(&blocked),
            };
            return Err(RunError::Deadlock { report });
        }
        if let Some((rank, message)) = panics.into_iter().next() {
            return Err(RunError::RankPanic { rank, message });
        }

        // Analyze the communication log: error-severity findings fail the
        // run; warnings travel in the output.
        let verify = match self.verify.as_ref() {
            Some(v) => v
                .report()
                .map_err(|findings| RunError::Verification { findings })?,
            None => VerifyReport::default(),
        };

        let clamped_spans = trace.as_ref().map_or(0, Trace::clamped);
        self.metrics.spans_clamped(clamped_spans as u64);
        let end_times = self.rank_end_times.lock().clone();
        Ok(RunOutput {
            backend: T::NAME,
            results: results
                .into_iter()
                .map(|o| o.expect("non-panicked rank must produce a result"))
                .collect(),
            makespan: end_times.iter().copied().max().unwrap_or(SimTime::ZERO),
            end_times,
            inter_node_bytes: self.inter_bytes.load(Ordering::Relaxed),
            intra_node_bytes: self.intra_bytes.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            trace,
            metrics: self.metrics.snapshot(),
            net,
            clamped_spans,
            verify,
        })
    }
}

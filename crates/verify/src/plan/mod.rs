//! The collective schedule IR: `CollPlan`.
//!
//! A [`CollPlan`] is one rank's schedule for one collective instance — a
//! DAG of primitive steps (`Send`, `Recv`, `Reduce`, `Copy`, `Slack`) over
//! byte-range *buffers*, produced by a pure [algorithm builder](builders)
//! and executed by the simulator's shared plan executor. Because plans are
//! plain data built without touching the network, all ranks' plans can be
//! analyzed before a single message is posted — by one symbolic executor
//! (the private `exec` module, the only other interpreter of the five
//! steps) behind one reporter, the [model checker](mc). It runs the
//! executor once per eager/rendezvous cutpoint for each member of a
//! [composition](compose) whose wire namespaces it has proven disjoint —
//! checking send/recv matching, chunk-coverage completeness and deadlock
//! freedom — and reports the first violation of each code with its
//! interleaving. [`lint_plans`] is that check at the all-rendezvous
//! cutpoint alone.
//!
//! ## Execution contract
//!
//! The executor interprets a plan's steps **in order**. `Send`/`Recv`
//! steps *post* nonblocking operations when reached; every other step runs
//! to completion before the next begins. A step's `deps` name previously
//! posted `Send`/`Recv` steps that must *complete* before the step begins
//! — this is how builders express the blocking structure of the classical
//! algorithms (a blocking send is `Send` + a dep on it from the next
//! step). Steps still outstanding when the plan ends are drained in post
//! order.
//!
//! Buffers are immutable byte strings: produced once (by the local input,
//! a `Recv`, a `Reduce` or a `Copy`), then read any number of times.
//! Offsets follow `chunk_bounds`, the 8-byte-aligned contiguous partition
//! used by every chunked algorithm.

pub mod builders;
pub mod compose;
mod exec;
mod finding;
pub mod mc;
mod structure;

use std::fmt;

use crate::event::CollKind;

pub use builders::{build_all, build_plan};
pub use compose::{check_compose, dup_instances, seq_instances, wire_tag, PlanInstance};
pub use finding::PlanFinding;
pub use mc::{cutpoints, lint_plans, model_check, model_check_single, McConfig, McReport};

/// Which algorithm a plan encodes. The selector picks one per
/// (collective, message size, communicator size); benches can force one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollAlgo {
    /// Binomial-tree broadcast (short messages).
    BcastBinomial,
    /// Van de Geijn scatter + ring allgather broadcast (long messages).
    BcastScatterAllgather,
    /// Binomial-tree reduction (short messages).
    ReduceBinomial,
    /// Rabenseifner reduce-scatter + binomial gather (long, power-of-two).
    ReduceRabenseifner,
    /// Ring reduce-scatter + direct gather to root (long, any size).
    ReduceRing,
    /// Recursive-doubling allreduce (short messages).
    AllreduceRecursiveDoubling,
    /// Reduce-scatter + ring allgather allreduce (long, power-of-two).
    AllreduceRsag,
    /// Ring allreduce (long, any communicator size).
    AllreduceRing,
    /// Binomial-tree gather (short messages).
    GatherBinomial,
    /// Linear gather: every rank sends its chunk straight to the root,
    /// which drains them concurrently (long messages).
    GatherLinear,
    /// Range-halving scatter tree.
    ScatterTree,
    /// Ring allgather.
    AllgatherRing,
    /// Dissemination barrier.
    BarrierDissemination,
}

impl CollAlgo {
    /// Every algorithm, in a stable order (for sweeps).
    pub fn all() -> &'static [CollAlgo] {
        &[
            CollAlgo::BcastBinomial,
            CollAlgo::BcastScatterAllgather,
            CollAlgo::ReduceBinomial,
            CollAlgo::ReduceRabenseifner,
            CollAlgo::ReduceRing,
            CollAlgo::AllreduceRecursiveDoubling,
            CollAlgo::AllreduceRsag,
            CollAlgo::AllreduceRing,
            CollAlgo::GatherBinomial,
            CollAlgo::GatherLinear,
            CollAlgo::ScatterTree,
            CollAlgo::AllgatherRing,
            CollAlgo::BarrierDissemination,
        ]
    }

    /// The collective this algorithm implements.
    pub fn kind(&self) -> CollKind {
        match self {
            CollAlgo::BcastBinomial | CollAlgo::BcastScatterAllgather => CollKind::Bcast,
            CollAlgo::ReduceBinomial | CollAlgo::ReduceRabenseifner | CollAlgo::ReduceRing => {
                CollKind::Reduce
            }
            CollAlgo::AllreduceRecursiveDoubling
            | CollAlgo::AllreduceRsag
            | CollAlgo::AllreduceRing => CollKind::Allreduce,
            CollAlgo::GatherBinomial | CollAlgo::GatherLinear => CollKind::Gather,
            CollAlgo::ScatterTree => CollKind::Scatter,
            CollAlgo::AllgatherRing => CollKind::Allgather,
            CollAlgo::BarrierDissemination => CollKind::Barrier,
        }
    }

    /// The algorithms implementing `kind`, in sweep order.
    pub fn for_kind(kind: CollKind) -> Vec<CollAlgo> {
        CollAlgo::all()
            .iter()
            .copied()
            .filter(|a| a.kind() == kind)
            .collect()
    }

    /// Whether the algorithm can run on a `p`-rank communicator. All
    /// current algorithms handle any `p ≥ 1` (the recursive-halving cores
    /// fold non-power-of-two surplus ranks in and out); the hook exists so
    /// selectors never have to special-case future restricted algorithms.
    pub fn supports(&self, p: usize) -> bool {
        p >= 1
    }

    /// Short algorithm name, unique within one collective (the `algo`
    /// field of sweep records).
    pub fn short(&self) -> &'static str {
        match self {
            CollAlgo::BcastBinomial | CollAlgo::ReduceBinomial | CollAlgo::GatherBinomial => {
                "binomial"
            }
            CollAlgo::BcastScatterAllgather => "scatter-allgather",
            CollAlgo::ReduceRabenseifner => "rabenseifner",
            CollAlgo::ReduceRing | CollAlgo::AllreduceRing | CollAlgo::AllgatherRing => "ring",
            CollAlgo::AllreduceRecursiveDoubling => "recursive-doubling",
            CollAlgo::AllreduceRsag => "rsag",
            CollAlgo::GatherLinear => "linear",
            CollAlgo::ScatterTree => "tree",
            CollAlgo::BarrierDissemination => "dissemination",
        }
    }

    /// Resolve an algorithm from its [`CollAlgo::short`] name within a
    /// collective.
    pub fn parse_for(kind: CollKind, name: &str) -> Option<CollAlgo> {
        CollAlgo::for_kind(kind)
            .into_iter()
            .find(|a| a.short() == name)
    }
}

/// Lowercase collective name used in sweep records and plan dumps
/// (`bcast`, `reduce`, …).
pub fn kind_short(kind: CollKind) -> &'static str {
    match kind {
        CollKind::Bcast => "bcast",
        CollKind::Reduce => "reduce",
        CollKind::Allreduce => "allreduce",
        CollKind::Barrier => "barrier",
        CollKind::Scatter => "scatter",
        CollKind::Gather => "gather",
        CollKind::Allgather => "allgather",
        CollKind::Dup => "dup",
        CollKind::Split => "split",
    }
}

/// Resolve a collective from its [`kind_short`] name.
pub fn parse_kind(name: &str) -> Option<CollKind> {
    [
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::Allreduce,
        CollKind::Barrier,
        CollKind::Scatter,
        CollKind::Gather,
        CollKind::Allgather,
    ]
    .into_iter()
    .find(|&k| kind_short(k) == name)
}

impl fmt::Display for CollAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", kind_short(self.kind()), self.short())
    }
}

/// Index of a buffer within one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufId(pub u32);

/// Index of a step within one plan (steps execute in index order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StepId(pub u32);

/// One immutable byte buffer of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buf {
    /// Byte length.
    pub len: usize,
    /// `Some(off)` if the buffer is the byte range `off..off+len` of this
    /// rank's local contribution; `None` for buffers produced by steps (or
    /// the empty literal).
    pub input_off: Option<usize>,
}

/// One source range of a [`StepOp::Copy`] assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyPart {
    /// Source buffer.
    pub buf: BufId,
    /// Start offset within the source.
    pub off: usize,
    /// Bytes taken.
    pub len: usize,
}

/// A primitive plan step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOp {
    /// Charge one round of per-round software slack.
    Slack,
    /// Post a nonblocking send of `buf` to communicator index `peer`,
    /// tagged with the per-instance step tag `tag`.
    Send {
        /// Destination communicator index.
        peer: usize,
        /// Payload buffer.
        buf: BufId,
        /// Step tag (combined with the instance sequence number on the wire).
        tag: u32,
    },
    /// Post a nonblocking receive from communicator index `peer` into
    /// `into` (whose `len` is the expected byte count).
    Recv {
        /// Source communicator index.
        peer: usize,
        /// Destination buffer.
        into: BufId,
        /// Step tag.
        tag: u32,
    },
    /// Element-wise `f64` sum of two equal-length buffers into `into`,
    /// charged through the rank's shared reduction-CPU resource.
    Reduce {
        /// Left operand.
        a: BufId,
        /// Right operand.
        b: BufId,
        /// Result buffer.
        into: BufId,
    },
    /// Assemble `into` by concatenating byte ranges of other buffers
    /// (zero modeled time; a single whole-buffer part is a free view).
    Copy {
        /// Source ranges, in output order.
        parts: Vec<CopyPart>,
        /// Result buffer.
        into: BufId,
    },
}

/// A step plus the completions it must wait for before beginning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// What the step does.
    pub op: StepOp,
    /// Earlier `Send`/`Recv` steps that must complete first, in wait order.
    pub deps: Vec<StepId>,
}

/// One rank's schedule for one collective instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollPlan {
    /// Which collective.
    pub kind: CollKind,
    /// Which algorithm produced the plan.
    pub algo: CollAlgo,
    /// Communicator size.
    pub p: usize,
    /// This rank's communicator index.
    pub me: usize,
    /// Total logical payload size in bytes.
    pub n: usize,
    /// Communicator-relative root (0 for rootless collectives).
    pub root: usize,
    /// Logical byte range `(offset, len)` of this rank's input
    /// contribution within the collective's `n`-byte vector (`None` when
    /// the rank contributes nothing, e.g. non-root bcast ranks).
    pub input: Option<(usize, usize)>,
    /// All buffers.
    pub bufs: Vec<Buf>,
    /// All steps, in execution order.
    pub steps: Vec<Step>,
    /// The buffer holding this rank's result (`None` when the rank
    /// produces no output, e.g. non-root reduce ranks or barriers).
    pub output: Option<BufId>,
}

impl CollPlan {
    /// Byte length of a buffer.
    pub fn buf_len(&self, b: BufId) -> usize {
        self.bufs[b.0 as usize].len
    }

    /// Number of `Send`/`Recv` steps (the plan's message count).
    pub fn messages(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.op, StepOp::Send { .. } | StepOp::Recv { .. }))
            .count()
    }

    /// Render the plan as a readable listing (one line per step), used by
    /// `docs/coll-plans.md` and debugging.
    pub fn dump(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        // Infallible: `write!` to a String cannot fail.
        let _ = writeln!(
            out,
            "plan {} p={} me={} n={} root={} input={:?} output={:?}",
            self.algo, self.p, self.me, self.n, self.root, self.input, self.output,
        );
        for (i, s) in self.steps.iter().enumerate() {
            let _ = write!(out, "  s{i}: ");
            match &s.op {
                StepOp::Slack => {
                    let _ = write!(out, "slack");
                }
                StepOp::Send { peer, buf, tag } => {
                    let _ = write!(
                        out,
                        "send b{}({}B) -> rank {peer} tag {tag}",
                        buf.0,
                        self.buf_len(*buf)
                    );
                }
                StepOp::Recv { peer, into, tag } => {
                    let _ = write!(
                        out,
                        "recv b{}({}B) <- rank {peer} tag {tag}",
                        into.0,
                        self.buf_len(*into)
                    );
                }
                StepOp::Reduce { a, b, into } => {
                    let _ = write!(
                        out,
                        "reduce b{} + b{} -> b{}({}B)",
                        a.0,
                        b.0,
                        into.0,
                        self.buf_len(*into)
                    );
                }
                StepOp::Copy { parts, into } => {
                    let _ = write!(out, "copy [");
                    for (k, part) in parts.iter().enumerate() {
                        if k > 0 {
                            let _ = write!(out, ", ");
                        }
                        let _ = write!(
                            out,
                            "b{}[{}..{}]",
                            part.buf.0,
                            part.off,
                            part.off + part.len
                        );
                    }
                    let _ = write!(out, "] -> b{}({}B)", into.0, self.buf_len(*into));
                }
            }
            if !s.deps.is_empty() {
                let _ = write!(out, "  after [");
                for (k, d) in s.deps.iter().enumerate() {
                    if k > 0 {
                        let _ = write!(out, ", ");
                    }
                    let _ = write!(out, "s{}", d.0);
                }
                let _ = write!(out, "]");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Incremental [`CollPlan`] construction with blocking-call emulation.
///
/// Builders write algorithms in the same shape as classical blocking MPI
/// code; the builder turns blocking calls into posted steps plus a
/// *fence*: the step ids of pending blocking operations, attached as
/// `deps` of the next step pushed (and drained by the executor's final
/// wait if the plan ends first). This reproduces the virtual-time behavior
/// of the original hand-written blocking implementations exactly.
#[derive(Debug)]
pub struct PlanBuilder {
    plan: CollPlan,
    fence: Vec<StepId>,
}

impl PlanBuilder {
    /// Start a plan. `input` is the logical byte range this rank
    /// contributes (see [`CollPlan::input`]).
    pub fn new(
        kind: CollKind,
        algo: CollAlgo,
        p: usize,
        me: usize,
        n: usize,
        root: usize,
        input: Option<(usize, usize)>,
    ) -> PlanBuilder {
        assert!(p >= 1 && me < p && root < p, "bad plan shape");
        PlanBuilder {
            plan: CollPlan {
                kind,
                algo,
                p,
                me,
                n,
                root,
                input,
                bufs: Vec::new(),
                steps: Vec::new(),
                output: None,
            },
            fence: Vec::new(),
        }
    }

    /// Communicator size.
    pub fn p(&self) -> usize {
        self.plan.p
    }

    /// This rank's communicator index.
    pub fn me(&self) -> usize {
        self.plan.me
    }

    /// Total logical payload size in bytes.
    pub fn n(&self) -> usize {
        self.plan.n
    }

    /// Byte length of a buffer.
    pub fn len_of(&self, b: BufId) -> usize {
        self.plan.buf_len(b)
    }

    fn add_buf(&mut self, len: usize, input_off: Option<usize>) -> BufId {
        let id = BufId(self.plan.bufs.len() as u32);
        self.plan.bufs.push(Buf { len, input_off });
        id
    }

    fn push(&mut self, op: StepOp) -> StepId {
        let id = StepId(self.plan.steps.len() as u32);
        let deps = std::mem::take(&mut self.fence);
        self.plan.steps.push(Step { op, deps });
        id
    }

    /// The whole local contribution as a buffer. Panics if this rank has
    /// no input.
    pub fn input_buf(&mut self) -> BufId {
        let (_, len) = match self.plan.input {
            Some(r) => r,
            None => panic!("plan rank {} has no input", self.plan.me),
        };
        self.add_buf(len, Some(0))
    }

    /// The byte range `off..off+len` of the local contribution.
    pub fn input_slice(&mut self, off: usize, len: usize) -> BufId {
        let (_, total) = match self.plan.input {
            Some(r) => r,
            None => panic!("plan rank {} has no input", self.plan.me),
        };
        assert!(off + len <= total, "input slice out of range");
        self.add_buf(len, Some(off))
    }

    /// A zero-length literal buffer (barrier tokens).
    pub fn empty(&mut self) -> BufId {
        self.add_buf(0, None)
    }

    /// Charge one round of software slack.
    pub fn slack(&mut self) {
        self.push(StepOp::Slack);
    }

    /// Post a nonblocking send (completion not yet awaited).
    pub fn isend(&mut self, dst: usize, tag: u32, buf: BufId) -> StepId {
        assert!(dst < self.plan.p, "send peer out of range");
        self.push(StepOp::Send {
            peer: dst,
            buf,
            tag,
        })
    }

    /// Post a nonblocking receive of `len` bytes (completion not yet
    /// awaited); returns the step and the destination buffer.
    pub fn irecv(&mut self, src: usize, tag: u32, len: usize) -> (StepId, BufId) {
        assert!(src < self.plan.p, "recv peer out of range");
        let into = self.add_buf(len, None);
        let id = self.push(StepOp::Recv {
            peer: src,
            into,
            tag,
        });
        (id, into)
    }

    /// Require `step`'s completion before the next pushed step — the
    /// waitall idiom for draining earlier `isend`/`irecv` posts.
    pub fn fence_on(&mut self, step: StepId) {
        self.fence.push(step);
    }

    /// Blocking send: posted now, completion fenced before the next step.
    pub fn send(&mut self, dst: usize, tag: u32, buf: BufId) {
        let s = self.isend(dst, tag, buf);
        self.fence.push(s);
    }

    /// Blocking receive: posted now, completion fenced before the next
    /// step; returns the destination buffer.
    pub fn recv(&mut self, src: usize, tag: u32, len: usize) -> BufId {
        let (r, buf) = self.irecv(src, tag, len);
        self.fence.push(r);
        buf
    }

    /// Concurrent send-to/receive-from (possibly different peers) — the
    /// pairwise-exchange building block. The receive is posted first, as
    /// in the classical implementations; both completions are fenced
    /// (send first) before the next step.
    pub fn exchange(
        &mut self,
        send_to: usize,
        recv_from: usize,
        tag: u32,
        buf: BufId,
        recv_len: usize,
    ) -> BufId {
        let (r, rbuf) = self.irecv(recv_from, tag, recv_len);
        let s = self.isend(send_to, tag, buf);
        self.fence.push(s);
        self.fence.push(r);
        rbuf
    }

    /// Element-wise `f64` sum of two equal-length buffers.
    pub fn reduce(&mut self, a: BufId, b: BufId) -> BufId {
        let (la, lb) = (self.len_of(a), self.len_of(b));
        assert_eq!(la, lb, "reduce of unequal buffers ({la} vs {lb})");
        let into = self.add_buf(la, None);
        self.push(StepOp::Reduce { a, b, into });
        into
    }

    /// Concatenate whole buffers into a new one.
    pub fn concat(&mut self, parts: &[BufId]) -> BufId {
        assert!(!parts.is_empty(), "concat of no parts");
        let cp: Vec<CopyPart> = parts
            .iter()
            .map(|&b| CopyPart {
                buf: b,
                off: 0,
                len: self.len_of(b),
            })
            .collect();
        let total = cp.iter().map(|c| c.len).sum();
        let into = self.add_buf(total, None);
        self.push(StepOp::Copy { parts: cp, into });
        into
    }

    /// The byte range `off..off+len` of `buf` as a new buffer (zero-copy
    /// view at execution time).
    pub fn slice(&mut self, buf: BufId, off: usize, len: usize) -> BufId {
        assert!(off + len <= self.len_of(buf), "slice out of range");
        let into = self.add_buf(len, None);
        self.push(StepOp::Copy {
            parts: vec![CopyPart { buf, off, len }],
            into,
        });
        into
    }

    /// Split `buf` at byte `at`: `(buf[..at], buf[at..])`.
    pub fn split_at(&mut self, buf: BufId, at: usize) -> (BufId, BufId) {
        let len = self.len_of(buf);
        assert!(at <= len, "split_at {at} beyond length {len}");
        let lo = self.slice(buf, 0, at);
        let hi = self.slice(buf, at, len - at);
        (lo, hi)
    }

    /// Declare this rank's result buffer.
    pub fn set_output(&mut self, buf: BufId) {
        self.plan.output = Some(buf);
    }

    /// Finish. Pending fenced completions are left to the executor's final
    /// drain (equivalent to waiting them at the end, which is what the
    /// classical blocking code did).
    pub fn finish(self) -> CollPlan {
        self.plan
    }
}

/// Contiguous, 8-byte-aligned partition of `n` bytes into `parts` chunks:
/// returns `parts + 1` offsets (monotone, first 0, last `n`). All chunks
/// are multiples of 8 except possibly the last, so `f64` data never splits
/// mid-element. This is the partition every chunked collective uses.
pub fn chunk_bounds(n: usize, parts: usize) -> Vec<usize> {
    assert!(parts >= 1);
    let quantum = 8usize;
    let elems = n / quantum; // full 8-byte elements
    let rem = n - elems * quantum; // trailing ragged bytes go to the last chunk
    let base = elems / parts;
    let extra = elems % parts;
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    let mut off = 0;
    for i in 0..parts {
        let e = base + usize::from(i < extra);
        off += e * quantum;
        bounds.push(off);
    }
    if let Some(last) = bounds.last_mut() {
        *last += rem;
    }
    debug_assert_eq!(bounds.last().copied(), Some(n));
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_partitions_exactly() {
        let b = chunk_bounds(100, 4);
        assert_eq!(b.first(), Some(&0));
        assert_eq!(b.last(), Some(&100));
        assert_eq!(b.len(), 5);
        for w in b.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // All but the last boundary 8-aligned.
        for &x in &b[..b.len() - 1] {
            assert_eq!(x % 8, 0);
        }
    }

    #[test]
    fn chunk_bounds_more_parts_than_elements() {
        assert_eq!(chunk_bounds(16, 5), vec![0, 8, 16, 16, 16, 16]);
    }

    #[test]
    fn chunk_bounds_zero_bytes() {
        assert_eq!(chunk_bounds(0, 3), vec![0, 0, 0, 0]);
    }

    #[test]
    fn chunk_bounds_single_part() {
        assert_eq!(chunk_bounds(24, 1), vec![0, 24]);
    }

    #[test]
    fn builder_fences_blocking_ops() {
        let mut pb = PlanBuilder::new(
            CollKind::Bcast,
            CollAlgo::BcastBinomial,
            2,
            0,
            8,
            0,
            Some((0, 8)),
        );
        let b = pb.input_buf();
        pb.send(1, 0, b);
        pb.slack();
        let plan = pb.finish();
        // The slack after a blocking send waits on it.
        assert_eq!(plan.steps[1].deps, vec![StepId(0)]);
    }

    #[test]
    fn exchange_posts_recv_before_send_and_fences_both() {
        let mut pb = PlanBuilder::new(
            CollKind::Barrier,
            CollAlgo::BarrierDissemination,
            2,
            0,
            0,
            0,
            None,
        );
        let e = pb.empty();
        let _ = pb.exchange(1, 1, 5, e, 0);
        pb.slack();
        let plan = pb.finish();
        assert!(matches!(plan.steps[0].op, StepOp::Recv { .. }));
        assert!(matches!(plan.steps[1].op, StepOp::Send { .. }));
        // Send waited before recv, matching the classical exchange.
        assert_eq!(plan.steps[2].deps, vec![StepId(1), StepId(0)]);
    }

    #[test]
    fn algo_names_roundtrip() {
        for &a in CollAlgo::all() {
            assert_eq!(CollAlgo::parse_for(a.kind(), a.short()), Some(a));
        }
        assert_eq!(CollAlgo::parse_for(CollKind::Bcast, "ring"), None);
    }

    #[test]
    fn dump_is_readable() {
        let plans = builders::build_all(CollKind::Bcast, CollAlgo::BcastBinomial, 4, 64, 0);
        let d = plans[0].dump();
        assert!(d.contains("send"), "{d}");
        assert!(d.contains("bcast.binomial"), "{d}");
    }
}

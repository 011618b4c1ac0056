//! The one symbolic executor for collective plans.
//!
//! The [model checker](super::mc) runs this machine once per composed
//! member per eager/rendezvous cutpoint and never interprets a
//! [`StepOp`] itself. It executes the plans of one instance, one agent
//! per rank, with no clocks and no payloads, under the
//! [execution contract](super): steps in program order, `Send`/`Recv`
//! posting into strictly FIFO wire envelopes, a step waiting on its
//! `deps` alone. [Admission](super::structure::admit) has checked that
//! those deps cover every buffer the step reads, so a read never finds a
//! buffer missing.
//! A send of fewer than `eager_cut` bytes completes when posted; any other
//! completes when matched. Each envelope queue is filled by one rank in
//! program order, so the machine's one deterministic pass reaches the
//! state every interleaving of the ranks reaches.
//!
//! Buffers carry *provenance segments* in place of bytes: every buffer
//! byte is tracked as a logical position in the collective's `n`-byte
//! vector plus the set of ranks whose contributions have been reduced
//! into it. Receives copy the sender's provenance, reductions union
//! contributor sets (flagging overlap), copies rearrange ranges — so a
//! finished run's outputs can be checked byte-for-byte against what the
//! collective promises ([`expected_output`]).
//!
//! A pass records its interleaving and halts at its first violation,
//! which it reports as [`Violation`] data; the model checker renders that
//! into an `mc-*` finding with the interleaving as its counterexample.
//!
//! [`Machine::settle`] is an event-driven worklist over agent program
//! counters: an agent re-runs only when one of its pending operations
//! completes, so one pass is `O(steps + matches)` in time and memory.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::event::CollKind;

use super::compose::InstRef;
use super::{chunk_bounds, BufId, CollPlan, StepOp};

/// A set of contributing ranks (bitmask over the communicator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RankSet(Vec<u64>);

impl RankSet {
    pub(crate) fn single(r: usize, p: usize) -> RankSet {
        let mut v = vec![0u64; p.div_ceil(64)];
        v[r / 64] |= 1 << (r % 64);
        RankSet(v)
    }

    pub(crate) fn all(p: usize) -> RankSet {
        let mut v = vec![u64::MAX; p.div_ceil(64)];
        if !p.is_multiple_of(64) {
            if let Some(last) = v.last_mut() {
                *last = (1u64 << (p % 64)) - 1;
            }
        }
        RankSet(v)
    }

    pub(crate) fn union(&self, o: &RankSet) -> RankSet {
        RankSet(self.0.iter().zip(o.0.iter()).map(|(a, b)| a | b).collect())
    }

    pub(crate) fn intersects(&self, o: &RankSet) -> bool {
        self.0.iter().zip(o.0.iter()).any(|(a, b)| a & b != 0)
    }

    fn ranks(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (w, &bits) in self.0.iter().enumerate() {
            for b in 0..64 {
                if bits & (1 << b) != 0 {
                    out.push(w * 64 + b);
                }
            }
        }
        out
    }
}

impl fmt::Display for RankSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.ranks();
        if r.len() > 6 {
            write!(f, "{{{} ranks}}", r.len())
        } else {
            write!(f, "{{{:?}}}", r)
        }
    }
}

/// One provenance segment: `len` buffer bytes holding logical positions
/// `lo..lo+len`, reduced over contributor set `mask`.
#[derive(Debug, Clone)]
pub(crate) struct Seg {
    pub(crate) len: usize,
    pub(crate) lo: usize,
    pub(crate) mask: RankSet,
}

/// A buffer's contents: provenance segments in buffer-byte order
/// (zero-length segments are never stored).
pub(crate) type BufVal = Vec<Seg>;

/// Extract buffer bytes `off..off+len` from a value.
pub(crate) fn slice_val(val: &[Seg], off: usize, len: usize) -> BufVal {
    let mut out = Vec::new();
    let (mut pos, mut want_from, mut want) = (0usize, off, len);
    for s in val {
        if want == 0 {
            break;
        }
        let end = pos + s.len;
        if end > want_from {
            let skip = want_from - pos;
            let take = (s.len - skip).min(want);
            out.push(Seg {
                len: take,
                lo: s.lo + skip,
                mask: s.mask.clone(),
            });
            want -= take;
            want_from += take;
        }
        pos = end;
    }
    out
}

pub(crate) fn val_len(val: &[Seg]) -> usize {
    val.iter().map(|s| s.len).sum()
}

/// Split both values at the union of their internal breakpoints so they
/// can be compared segment by segment. Values must have equal total
/// length.
pub(crate) fn refine(a: &[Seg], b: &[Seg]) -> (BufVal, BufVal) {
    let mut cuts: Vec<usize> = Vec::new();
    for v in [a, b] {
        let mut pos = 0;
        for s in v {
            pos += s.len;
            cuts.push(pos);
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    let cut_up = |v: &[Seg]| -> BufVal {
        let mut out = Vec::new();
        let mut prev = 0;
        for &c in &cuts {
            if c > prev {
                out.extend(slice_val(v, prev, c - prev));
                prev = c;
            }
        }
        out
    };
    (cut_up(a), cut_up(b))
}

/// Expected provenance of rank `r`'s output, or `None` if the rank must
/// not produce one.
pub(crate) fn expected_output(
    kind: CollKind,
    p: usize,
    n: usize,
    root: usize,
    r: usize,
) -> Option<BufVal> {
    let chunked = |owner_of: &dyn Fn(usize) -> RankSet| -> BufVal {
        let bounds = chunk_bounds(n, p);
        (0..p)
            .filter(|&c| bounds[c + 1] > bounds[c])
            .map(|c| Seg {
                len: bounds[c + 1] - bounds[c],
                lo: bounds[c],
                mask: owner_of(c),
            })
            .collect()
    };
    let whole = |mask: RankSet| -> BufVal {
        if n == 0 {
            Vec::new()
        } else {
            vec![Seg {
                len: n,
                lo: 0,
                mask,
            }]
        }
    };
    match kind {
        CollKind::Bcast => Some(whole(RankSet::single(root, p))),
        CollKind::Allreduce => Some(whole(RankSet::all(p))),
        CollKind::Reduce => (r == root).then(|| whole(RankSet::all(p))),
        CollKind::Scatter => {
            let bounds = chunk_bounds(n, p);
            let v = (r + p - root) % p;
            let len = bounds[v + 1] - bounds[v];
            Some(if len == 0 {
                Vec::new()
            } else {
                vec![Seg {
                    len,
                    lo: bounds[v],
                    mask: RankSet::single(root, p),
                }]
            })
        }
        CollKind::Gather => (r == root).then(|| chunked(&|c| RankSet::single((c + root) % p, p))),
        CollKind::Allgather => Some(chunked(&|c| RankSet::single(c, p))),
        CollKind::Barrier | CollKind::Dup | CollKind::Split => None,
    }
}

/// Wire envelope: `(ctx, src, dst, wire_tag)`.
pub(crate) type Key = (u64, usize, usize, u64);

/// A posted, not-yet-matched operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Post {
    pub(crate) agent: usize,
    pub(crate) step: usize,
    pub(crate) bytes: usize,
    /// The send completed at post time (always `false` for a receive).
    pub(crate) eager: bool,
}

/// One executed action of an interleaving (compact; the model checker
/// renders it to text when it reports the violation).
#[derive(Debug)]
pub(crate) struct TraceStep {
    pub(crate) agent: u32,
    pub(crate) step: u32,
    pub(crate) kind: TraceKind,
}

#[derive(Debug)]
pub(crate) enum TraceKind {
    PostSend {
        eager: bool,
    },
    PostRecv,
    /// The receive `(agent, step)` consumed this send.
    Match {
        agent: u32,
        step: u32,
    },
    Exec,
}

/// Something the machine found wrong. An agent is a rank of the
/// machine's instance; `what` is the part of a diagnosis the finding
/// prints verbatim.
#[derive(Debug)]
pub(crate) enum Violation {
    /// A matched pair disagrees on the byte count.
    LenMismatch { key: Key, send: Post, recv: Post },
    /// Misplaced, missing or wrongly-reduced bytes: at a `Reduce` step, or
    /// (`step: None`) in a finished agent's output.
    ChunkGap {
        at: usize,
        step: Option<usize>,
        what: String,
    },
    /// A `Reduce` step summed one contribution twice.
    DoubleCount {
        at: usize,
        step: usize,
        what: String,
    },
    /// At quiescence these agents are mid-plan or hold posts that never
    /// complete (a receive nothing matches always leaves its agent here).
    Stuck { agents: Vec<usize> },
    /// At quiescence, with nobody stuck, an eager send still sits in its
    /// queue.
    UnmatchedSend { post: Post },
    /// The agent declares an output its collective does not give it.
    UnexpectedOutput { at: usize },
    /// The agent is owed a result but its plan declares none.
    MissingOutput { at: usize },
}

/// Mutable execution state, indexed by agent.
pub(crate) struct St {
    /// Program counter.
    pub(crate) pcs: Vec<usize>,
    /// Per step: completed? (Posts complete on match, or when posted if
    /// eager; other steps when executed.)
    pub(crate) done: Vec<Vec<bool>>,
    /// Outstanding posted operations (what the end-of-plan drain waits on).
    pub(crate) pending: Vec<usize>,
    /// Per buffer: provenance (`None` until produced).
    pub(crate) vals: Vec<Vec<Option<BufVal>>>,
    pub(crate) sends: BTreeMap<Key, VecDeque<Post>>,
    pub(crate) recvs: BTreeMap<Key, VecDeque<Post>>,
    /// The actions executed so far, in execution order.
    pub(crate) trace: Vec<TraceStep>,
}

impl St {
    fn note(&mut self, a: usize, step: usize, kind: TraceKind) {
        self.trace.push(TraceStep {
            agent: a as u32,
            step: step as u32,
            kind,
        });
    }
}

/// The symbolic machine over one instance: what is fixed for a run
/// (plans, protocol cut) plus what it has found and counted so far.
/// The evolving [`St`] is passed in, so the checker can read it after.
pub(crate) struct Machine<'a> {
    inst: InstRef<'a>,
    pub(crate) eager_cut: usize,
    /// The first violation found while executing; execution halts at it.
    pub(crate) violation: Option<Violation>,
    /// Steps executed so far.
    pub(crate) actions: usize,
}

impl<'a> Machine<'a> {
    /// A machine over a plan set [`super::structure::admit`] accepted.
    pub(crate) fn new(inst: InstRef<'a>, eager_cut: usize) -> Machine<'a> {
        Machine {
            inst,
            eager_cut,
            violation: None,
            actions: 0,
        }
    }

    pub(crate) fn plan(&self, a: usize) -> &'a CollPlan {
        &self.inst.plans[a]
    }

    pub(crate) fn initial(&self) -> St {
        let agents = self.inst.plans.len();
        let plans = || self.inst.plans.iter();
        St {
            pcs: vec![0; agents],
            done: plans().map(|pl| vec![false; pl.steps.len()]).collect(),
            pending: vec![0; agents],
            vals: plans()
                .map(|pl| {
                    let base = pl.input.map_or(0, |(o, _)| o);
                    pl.bufs
                        .iter()
                        .map(|b| match b.input_off {
                            // Zero-length literals (barrier tokens) exist
                            // without a producing step.
                            _ if b.len == 0 => Some(Vec::new()),
                            Some(off) => Some(vec![Seg {
                                len: b.len,
                                lo: base + off,
                                mask: RankSet::single(pl.me, pl.p),
                            }]),
                            None => None,
                        })
                        .collect()
                })
                .collect(),
            sends: BTreeMap::new(),
            recvs: BTreeMap::new(),
            trace: Vec::new(),
        }
    }

    /// Keep `v` unless an earlier violation already halts the pass.
    fn flag(&mut self, v: Violation) {
        self.violation.get_or_insert(v);
    }

    /// Can agent `a`'s step `idx` run now? All its deps must be complete.
    fn runnable(&self, st: &St, a: usize, idx: usize) -> bool {
        let deps = &self.plan(a).steps[idx].deps;
        deps.iter().all(|d| st.done[a][d.0 as usize])
    }

    /// Agent `a`'s buffer `buf`. Admission guarantees a runnable step
    /// reads only produced buffers.
    fn val(st: &St, a: usize, buf: BufId) -> &[Seg] {
        st.vals[a][buf.0 as usize].as_deref().unwrap_or(&[])
    }

    /// Match the heads of both queues of one envelope, if both are
    /// present: the receive takes the send's provenance and completes, as
    /// does a rendezvous send. Returns the two agents to re-wake.
    fn try_match(&mut self, st: &mut St, key: Key) -> Option<(usize, usize)> {
        let (sq, rq) = (st.sends.get_mut(&key)?, st.recvs.get_mut(&key)?);
        if sq.is_empty() || rq.is_empty() {
            return None;
        }
        let (send, recv) = (sq.pop_front()?, rq.pop_front()?);
        let kind = TraceKind::Match {
            agent: send.agent as u32,
            step: send.step as u32,
        };
        st.note(recv.agent, recv.step, kind);
        if send.bytes != recv.bytes {
            self.flag(Violation::LenMismatch { key, send, recv });
        }
        let sent = match self.plan(send.agent).steps[send.step].op {
            StepOp::Send { buf, .. } => Self::val(st, send.agent, buf).to_vec(),
            _ => Vec::new(),
        };
        if let StepOp::Recv { into, .. } = self.plan(recv.agent).steps[recv.step].op {
            // A length mismatch is already flagged; keep going with what
            // arrived, truncated to the declared buffer size.
            let fitted = if val_len(&sent) == recv.bytes {
                sent
            } else {
                slice_val(&sent, 0, recv.bytes)
            };
            st.vals[recv.agent][into.0 as usize] = Some(fitted);
        }
        if !send.eager {
            st.done[send.agent][send.step] = true;
            st.pending[send.agent] -= 1;
        }
        st.done[recv.agent][recv.step] = true;
        st.pending[recv.agent] -= 1;
        Some((send.agent, recv.agent))
    }

    /// Execute step `idx` of agent `a` (runnable, pc already advanced).
    /// Returns the agents a resulting match re-wakes.
    fn execute(&mut self, st: &mut St, a: usize, idx: usize) -> Option<(usize, usize)> {
        self.actions += 1;
        let plan = self.plan(a);
        let inst = self.inst;
        match &plan.steps[idx].op {
            StepOp::Slack => st.note(a, idx, TraceKind::Exec),
            &StepOp::Send { peer, buf, tag } => {
                let bytes = plan.buf_len(buf);
                let eager = bytes < self.eager_cut;
                let key = (inst.ctx, a, peer, inst.wire_tag(tag));
                st.note(a, idx, TraceKind::PostSend { eager });
                st.sends.entry(key).or_default().push_back(Post {
                    agent: a,
                    step: idx,
                    bytes,
                    eager,
                });
                if eager {
                    st.done[a][idx] = true;
                } else {
                    st.pending[a] += 1;
                }
                return self.try_match(st, key);
            }
            &StepOp::Recv { peer, into, tag } => {
                let key = (inst.ctx, peer, a, inst.wire_tag(tag));
                st.note(a, idx, TraceKind::PostRecv);
                st.recvs.entry(key).or_default().push_back(Post {
                    agent: a,
                    step: idx,
                    bytes: plan.buf_len(into),
                    eager: false,
                });
                st.pending[a] += 1;
                return self.try_match(st, key);
            }
            &StepOp::Reduce { a: x, b: y, into } => {
                st.note(a, idx, TraceKind::Exec);
                let (rx, ry) = refine(Self::val(st, a, x), Self::val(st, a, y));
                let mut out = Vec::with_capacity(rx.len());
                for (sx, sy) in rx.iter().zip(ry.iter()) {
                    if sx.lo != sy.lo {
                        self.flag(Violation::ChunkGap {
                            at: a,
                            step: Some(idx),
                            what: format!(
                                "reduction combines misaligned ranges: logical {}..{} with {}..{}",
                                sx.lo,
                                sx.lo + sx.len,
                                sy.lo,
                                sy.lo + sy.len
                            ),
                        });
                    }
                    if sx.mask.intersects(&sy.mask) {
                        self.flag(Violation::DoubleCount {
                            at: a,
                            step: idx,
                            what: format!(
                                "logical bytes {}..{} reduced over overlapping contributor sets \
                                 {} and {}",
                                sx.lo,
                                sx.lo + sx.len,
                                sx.mask,
                                sy.mask
                            ),
                        });
                    }
                    out.push(Seg {
                        len: sx.len,
                        lo: sx.lo,
                        mask: sx.mask.union(&sy.mask),
                    });
                }
                st.vals[a][into.0 as usize] = Some(out);
            }
            StepOp::Copy { parts, into } => {
                st.note(a, idx, TraceKind::Exec);
                let mut out: BufVal = Vec::new();
                for part in parts {
                    let v = Self::val(st, a, part.buf);
                    out.extend(slice_val(v, part.off, part.len));
                }
                st.vals[a][into.0 as usize] = Some(out);
            }
        }
        st.done[a][idx] = true;
        None
    }

    /// Run every agent as far as it can go. Every action is confluent —
    /// each queue has one producer in program order — so this
    /// deterministic closure reaches the same state as any interleaving.
    pub(crate) fn settle(&mut self, st: &mut St) {
        let agents = self.inst.plans.len();
        let mut queue: VecDeque<usize> = (0..agents).collect();
        let mut queued = vec![true; agents];
        while let Some(a) = queue.pop_front() {
            queued[a] = false;
            while st.pcs[a] < self.plan(a).steps.len() {
                if self.violation.is_some() {
                    return;
                }
                let idx = st.pcs[a];
                if !self.runnable(st, a, idx) {
                    break;
                }
                st.pcs[a] = idx + 1;
                if let Some((x, y)) = self.execute(st, a, idx) {
                    for w in [x, y] {
                        if !queued[w] {
                            queued[w] = true;
                            queue.push_back(w);
                        }
                    }
                }
            }
        }
    }

    /// The first thing wrong with the quiescent state of a pass that
    /// halted at no violation, in this order: agents that can never
    /// finish, an eager send nothing will match, outputs that are not what
    /// the collective promises.
    pub(crate) fn terminal(&self, st: &St) -> Option<Violation> {
        let stuck: Vec<usize> = (0..self.inst.plans.len())
            .filter(|&a| st.pcs[a] < self.plan(a).steps.len() || st.pending[a] > 0)
            .collect();
        if !stuck.is_empty() {
            return Some(Violation::Stuck { agents: stuck });
        }
        if let Some(&post) = st.sends.values().flatten().next() {
            return Some(Violation::UnmatchedSend { post });
        }
        for at in 0..self.inst.plans.len() {
            let plan = self.plan(at);
            let expect = expected_output(plan.kind, plan.p, plan.n, plan.root, plan.me);
            let (want, got) = match (&expect, plan.output) {
                (None, None) => continue,
                (None, Some(_)) => return Some(Violation::UnexpectedOutput { at }),
                (Some(_), None) => return Some(Violation::MissingOutput { at }),
                (Some(want), Some(b)) => (want, Self::val(st, at, b)),
            };
            let gap = |what: String| {
                Some(Violation::ChunkGap {
                    at,
                    step: None,
                    what,
                })
            };
            if val_len(got) != val_len(want) {
                return gap(format!(
                    "output holds {}B but the collective promises {}B",
                    val_len(got),
                    val_len(want)
                ));
            }
            let (rg, rw) = refine(got, want);
            let mut pos = 0usize;
            for (g, w) in rg.iter().zip(rw.iter()) {
                if g.lo != w.lo {
                    return gap(format!(
                        "output byte {pos} holds logical byte {} but should hold {}",
                        g.lo, w.lo
                    ));
                }
                if g.mask != w.mask {
                    return gap(format!(
                        "logical bytes {}..{} reduced over {} but should cover {}",
                        g.lo,
                        g.lo + g.len,
                        g.mask,
                        w.mask
                    ));
                }
                pos += g.len;
            }
        }
        None
    }
}

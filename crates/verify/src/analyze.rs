//! The live verification state: every analysis runs online, as events
//! arrive, over the state the checks read — no event log is kept.
//!
//! Three families:
//!
//! 1. **Collective matching** — every member of a communicator must issue
//!    the same sequence of collective kinds with consistent roots, and
//!    blocking collectives on communicators with identical member sets must
//!    be interleaved identically on every rank.
//! 2. **Resource checks** — user requests must be waited on or tested to
//!    completion; every send must match a receive and vice versa.
//! 3. **Race detection** — a send/receive posted on an envelope whose
//!    previous send/receive its poster had not yet observed complete: the
//!    two are in flight together, so which message meets which receive
//!    depends on arrival order.
//!
//! [`Live::apply`] folds each event in under the verifier's one lock, so
//! per-agent order is program order. Each finding is rendered once, where
//! it is found: a check formats its message from the state it reads. An
//! entry is **retired** once it can no longer produce a finding;
//! [`Live::findings`] renders what is left and sorts it. What stays live:
//!
//! * **Requests**, until observed (`WaitDone`/`TestObserved`) and, for
//!   point-to-point, matched. `Match` is always recorded before
//!   completion, so an observed p2p request is matched; one dropped
//!   incomplete is unobserved and stays, to be reported as a leak; one an
//!   agent is blocked on is unobserved, so a deadlock report finds it.
//! * **Envelopes**: the last user post, its poster, and the first agent
//!   that observed it. The next post is ordered iff that observer is its
//!   poster. Unordered pairs wait for the report, which keeps those whose
//!   requests both matched and reports an envelope's first. An envelope
//!   whose poster observed its last post, with no pair waiting, is retired:
//!   user posts on an envelope come from its rank's own agent.
//! * **Collectives**, per context and per member-set group (blocking,
//!   non-`Dup`): each member's count, and only the records a comparison
//!   still needs. Member record `i` is compared with the first member's
//!   record `i` once both exist, each member's first divergence is kept,
//!   and records every member has passed are dropped. A context joins its
//!   group at its declaration, which each member records before calling on
//!   it; an undeclared context keeps its records per rank until the
//!   report, with the ranks that called as its members.
//! * **RMA**: the per-(window, rank) epoch machine. A lock epoch is swept
//!   for conflicts at its unlock, a fence epoch once every window member
//!   has fenced past it or freed; epochs still open at the report are
//!   swept then.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use rustc_hash::FxHashMap;

use crate::deadlock::PendingOp;
use crate::event::{AgentId, CollKind, Event, ReqId, RmaKind, Site};
use crate::finding::{Finding, Severity};
use crate::CollCallKey;

/// `"{lead} file:line"`, or nothing without a call site.
fn at(lead: &str, site: Option<Site>) -> String {
    site.map_or(String::new(), |s| {
        format!("{lead} {}:{}", s.file(), s.line())
    })
}

/// A record members must agree on, index by index.
trait Step: Clone {
    fn differs(&self, other: &Self) -> bool;
}

/// One rank's collective call, compared across a communicator's members.
#[derive(Clone)]
struct CollCallDesc {
    rank: u32,
    kind: CollKind,
    blocking: bool,
    root: Option<u32>,
    len: usize,
    site: Option<Site>,
}

impl Step for CollCallDesc {
    fn differs(&self, o: &CollCallDesc) -> bool {
        (self.kind, self.root, self.blocking, self.len) != (o.kind, o.root, o.blocking, o.len)
    }
}

impl fmt::Display for CollCallDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.kind.name(self.blocking);
        write!(f, "rank {} called {name}(", self.rank)?;
        if let Some(r) = self.root {
            write!(f, "root={r}, ")?;
        }
        write!(f, "len={}){}", self.len, at(" at", self.site))
    }
}

/// A blocking collective in a rank's cross-communicator call order.
#[derive(Clone)]
struct SeqEntry {
    ctx: u32,
    kind: CollKind,
    site: Option<Site>,
}

impl Step for SeqEntry {
    fn differs(&self, o: &SeqEntry) -> bool {
        self.ctx != o.ctx
    }
}

impl fmt::Display for SeqEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.kind.name(true);
        write!(f, "{name} on comm {}{}", self.ctx, at(" at", self.site))
    }
}

/// One member's records in a [`Lockstep`].
struct Lane<R> {
    rank: u32,
    count: usize,
    /// Records a comparison still needs: the first lane keeps indices
    /// `base..count`, every other lane the ones the first has not reached.
    held: VecDeque<R>,
    /// First index where this member differs from the first member, with
    /// the first member's record and this one's.
    diff: Option<Box<(usize, R, R)>>,
}

impl<R: Step> Lane<R> {
    fn compare(&mut self, i: usize, first: &R, mine: R) {
        if self.diff.is_none() && first.differs(&mine) {
            self.diff = Some(Box::new((i, first.clone(), mine)));
        }
    }
}

/// The members of one communicator (or one member-set group), each
/// compared record by record with the first member.
struct Lockstep<R> {
    lane_of: FxHashMap<u32, usize>,
    lanes: Vec<Lane<R>>,
    /// Every member has passed the records below `base`.
    base: usize,
    /// Members whose count is exactly `base`.
    at_base: usize,
}

impl<R: Step> Lockstep<R> {
    fn new(members: &[u32]) -> Lockstep<R> {
        let lane = |&rank: &u32| Lane {
            rank,
            count: 0,
            held: VecDeque::new(),
            diff: None,
        };
        Lockstep {
            lane_of: members.iter().enumerate().map(|(i, &r)| (r, i)).collect(),
            lanes: members.iter().map(lane).collect(),
            base: 0,
            at_base: members.len(),
        }
    }

    /// Append `rank`'s next record (ignored for a non-member).
    fn push(&mut self, rank: u32, rec: R) {
        let Some(&k) = self.lane_of.get(&rank) else {
            return;
        };
        let i = self.lanes[k].count;
        self.lanes[k].count += 1;
        let (first, rest) = self.lanes.split_at_mut(1);
        let first = &mut first[0];
        if k == 0 {
            // Every lane already past `i` holds its record `i` in front.
            for lane in rest.iter_mut().filter(|l| l.count > i) {
                if let Some(theirs) = lane.held.pop_front() {
                    lane.compare(i, &rec, theirs);
                }
            }
            first.held.push_back(rec);
        } else if first.count > i {
            rest[k - 1].compare(i, &first.held[i - self.base], rec);
        } else {
            rest[k - 1].held.push_back(rec);
        }
        if i == self.base {
            self.at_base -= 1;
            while self.at_base == 0 {
                self.base += 1;
                self.lanes[0].held.pop_front();
                self.at_base = self.lanes.iter().filter(|l| l.count == self.base).count();
            }
        }
    }

    /// The first member after the first, in member order, that diverged.
    fn first_diff(&self) -> Option<(u32, &(usize, R, R))> {
        let mut diffs = self.lanes.iter().skip(1);
        diffs.find_map(|l| Some((l.rank, &**l.diff.as_ref()?)))
    }
}

/// Collective state of one context.
#[derive(Default)]
struct CtxColls {
    /// Set at the context's first `CommDecl`, with its member-set group.
    steps: Option<(Lockstep<CollCallDesc>, usize)>,
    /// Records of a context not declared yet, per rank.
    early: BTreeMap<u32, Vec<CollCallDesc>>,
}

fn replay(members: &[u32], early: &BTreeMap<u32, Vec<CollCallDesc>>) -> Lockstep<CollCallDesc> {
    let mut steps = Lockstep::new(members);
    for r in members {
        for rec in early.get(r).into_iter().flatten() {
            steps.push(*r, rec.clone());
        }
    }
    steps
}

/// Contexts sharing one member set, and their members' merged orders of
/// blocking collectives over them.
struct Group {
    ctxs: BTreeSet<u32>,
    steps: Lockstep<SeqEntry>,
}

/// A tracked request: its post event (`SendPost`, `RecvPost`, a
/// nonblocking `Coll` or a `get`'s `RmaOp`) and what has happened since.
struct ReqLive {
    post: Event,
    observed: bool,
    matched: bool,
    dropped_incomplete: bool,
}

/// `(is_recv, ctx, src, dst, tag)`.
type EnvKey = (bool, u32, u32, u32, u64);

struct EnvLive {
    last: ReqId,
    poster: AgentId,
    /// First agent that observed `last` complete.
    observer: Option<AgentId>,
    /// Same-envelope pairs `(prev, cur, cur's site)` in flight together.
    races: Vec<(ReqId, ReqId, Option<Site>)>,
}

/// A blocked request with no post on record.
const UNTRACKED: &str = "an untracked operation";

impl Event {
    /// The posted operation as a leak report (`blocked == false`) or a
    /// deadlock report names it; only a collective's wording differs.
    fn describe(&self, blocked: bool) -> String {
        match *self {
            Event::SendPost {
                ctx,
                dst,
                tag,
                bytes,
                internal,
                ..
            } => match internal {
                true => format!(
                    "internal collective send ({bytes}B to rank {dst}, tag {tag:#x}) on comm {ctx}"
                ),
                false => format!("MPI_Isend({bytes}B to rank {dst}, tag={tag}) on comm {ctx}"),
            },
            Event::RecvPost {
                ctx,
                src,
                tag,
                internal,
                ..
            } => match internal {
                true => format!(
                    "internal collective receive (from rank {src}, tag {tag:#x}) on comm {ctx}"
                ),
                false => format!("MPI_Irecv(from rank {src}, tag={tag}) on comm {ctx}"),
            },
            Event::Coll {
                ctx, kind, root, ..
            } => match (blocked, root) {
                (false, _) => format!("{} on comm {ctx}", kind.name(false)),
                (true, Some(r)) => format!("{}(root={r}, on comm {ctx})", kind.name(false)),
                (true, None) => format!("{}(on comm {ctx})", kind.name(false)),
            },
            Event::RmaOp {
                win,
                kind,
                target,
                len,
                ..
            } => format!("{}({len}B, rank {target}) on win {win}", kind.name()),
            _ => UNTRACKED.to_string(),
        }
    }

    /// The posting rank and call site.
    fn poster(&self) -> (u32, Option<Site>) {
        match *self {
            Event::SendPost { rank, site, .. }
            | Event::RecvPost { rank, site, .. }
            | Event::Coll { rank, site, .. }
            | Event::RmaOp { rank, site, .. } => (rank, site),
            _ => (0, None),
        }
    }

    /// The race-check envelope of a user send or receive.
    fn envelope(&self) -> Option<EnvKey> {
        match *self {
            Event::SendPost {
                rank,
                ctx,
                dst,
                tag,
                internal: false,
                ..
            } => Some((false, ctx, rank, dst, tag)),
            Event::RecvPost {
                rank,
                ctx,
                src,
                tag,
                internal: false,
                ..
            } => Some((true, ctx, src, rank, tag)),
            _ => None,
        }
    }
}

/// Retired requests were matched (p2p retires only once matched).
fn matched(reqs: &FxHashMap<ReqId, ReqLive>, req: ReqId) -> bool {
    reqs.get(&req).is_none_or(|r| r.matched)
}

/// One one-sided operation inside an epoch group, for conflict detection.
struct RmaOpRec {
    rank: u32,
    kind: RmaKind,
    offset: usize,
    len: usize,
    site: Option<Site>,
}

impl RmaOpRec {
    fn describe(&self) -> String {
        format!(
            "rank {} {}({}B at offset {}..{})",
            self.rank,
            self.kind.name(),
            self.len,
            self.offset,
            self.offset + self.len
        )
    }

    fn overlaps(&self, other: &RmaOpRec) -> bool {
        self.len > 0
            && other.len > 0
            && self.offset < other.offset + other.len
            && other.offset < self.offset + self.len
    }
}

/// Do two overlapping one-sided accesses conflict, and how badly?
/// Concurrent gets are fine; concurrent accumulates commute by definition
/// (applied in deterministic origin order); anything involving a put is a
/// write-write or read-write race. Get-vs-accumulate is deterministic in
/// the staged epoch model but non-portable to real MPI, so it warns.
fn rma_conflict_severity(a: RmaKind, b: RmaKind) -> Option<Severity> {
    use RmaKind::*;
    match (a, b) {
        (Get, Get) | (Accumulate, Accumulate) => None,
        (Put, _) | (_, Put) => Some(Severity::Error),
        (Get, Accumulate) | (Accumulate, Get) => Some(Severity::Warning),
    }
}

/// Overlap sweep of one epoch group, reporting its first conflicting
/// `(i, j)` pair. Groups are per (window, target, epoch[, origin]), so
/// they stay small; one finding per group keeps a single buggy loop from
/// flooding the report.
fn sweep(win: u64, target: u32, ops: &[RmaOpRec], findings: &mut Vec<Finding>) {
    let mut conflicts = ops.iter().enumerate().flat_map(|(i, a)| {
        let later = ops[i + 1..].iter().filter(move |b| a.overlaps(b));
        later.filter_map(move |b| Some((rma_conflict_severity(a.kind, b.kind)?, a, b)))
    });
    if let Some((severity, a, b)) = conflicts.next() {
        let message = format!(
            "conflicting one-sided accesses to rank {target}'s segment of win {win} in the \
             same epoch: {} overlaps {}{}",
            a.describe(),
            b.describe(),
            at(", posted at", b.site)
        );
        findings.push(Finding {
            severity,
            code: "rma-conflict",
            message,
        });
    }
}

/// Per-(window, rank) epoch state machine, driven in program order.
#[derive(Default)]
struct WinRankState {
    /// `win_create` call site.
    site: Option<Site>,
    /// Completed fences (0 = no access epoch has been opened yet).
    fence_count: u64,
    /// Ops posted since the last fence (outside lock epochs).
    ops_since_fence: usize,
    /// Site of the most recent such op.
    last_op_site: Option<Site>,
    /// Held passive-target locks: target -> lock instance id.
    locks: BTreeMap<u32, u64>,
    /// Monotone lock instance counter.
    lock_seq: u64,
    /// Has `free` run?
    freed: bool,
}

impl WinRankState {
    /// Report `rank`'s epochs still open on `win` (at its `free`, or at
    /// the report): any op posted since the last fence and every lock
    /// still held.
    fn unclosed(&self, rank: u32, win: u64, findings: &mut Vec<Finding>) {
        let mut unclosed = |what: String, site: Option<Site>| {
            findings.push(Finding {
                severity: Severity::Error,
                code: "rma-unclosed-epoch",
                message: format!(
                    "rank {rank} left an epoch open on win {win} at finalize: {what}{}",
                    at(", posted at", site)
                ),
            })
        };
        if self.ops_since_fence > 0 {
            let n = self.ops_since_fence;
            let what = format!("{n} unsynchronized operation(s) posted after the last fence");
            unclosed(what, self.last_op_site);
        }
        for target in self.locks.keys() {
            unclosed(format!("lock on rank {target} still held"), None);
        }
    }
}

/// What one agent is currently blocked on (for deadlock diagnosis).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Waiting {
    /// Blocked in a wait on a tracked request.
    Req(ReqId),
    /// Blocked in the `MPI_Comm_split` gather on a parent context.
    Split { ctx: u32 },
}

/// Everything the analyses still need of a run so far.
#[derive(Default)]
pub(crate) struct Live {
    /// Findings final when their event arrived.
    found: Vec<Finding>,
    pub(crate) coll_calls: BTreeMap<CollCallKey, u64>,
    reqs: FxHashMap<ReqId, ReqLive>,
    envelopes: FxHashMap<EnvKey, EnvLive>,
    ctxs: FxHashMap<u32, CtxColls>,
    groups: Vec<Group>,
    group_of: FxHashMap<Arc<Vec<u32>>, usize>,
    wins: BTreeMap<(u64, u32), WinRankState>,
    // Epoch op groups for conflict detection. Fence epochs are numbered by
    // the per-rank fence count — consistent across ranks because fence is
    // collective on the window — so ops from all origins targeting one
    // segment in the same global epoch share a group. Lock epochs key on
    // the origin too: the lock serializes different origins, so only
    // same-origin overlaps are races there.
    fence_groups: BTreeMap<(u64, u32, u64), Vec<RmaOpRec>>,
    lock_groups: BTreeMap<(u64, u32, u32, u64), Vec<RmaOpRec>>,
    pub(crate) waiting: FxHashMap<AgentId, Waiting>,
}

impl Live {
    /// Fold one event into the state.
    pub(crate) fn apply(&mut self, ev: Event) {
        match ev {
            Event::CommDecl { ctx, members } => {
                let c = self.ctxs.entry(ctx).or_default();
                if c.steps.is_none() {
                    let groups = &mut self.groups;
                    let g = *self.group_of.entry(members.clone()).or_insert_with(|| {
                        let steps = Lockstep::new(&members);
                        groups.push(Group {
                            ctxs: BTreeSet::new(),
                            steps,
                        });
                        groups.len() - 1
                    });
                    groups[g].ctxs.insert(ctx);
                    c.steps = Some((replay(&members, &std::mem::take(&mut c.early)), g));
                }
            }
            Event::Coll {
                rank,
                ctx,
                kind,
                root,
                len,
                blocking,
                req,
                site,
            } => {
                *self
                    .coll_calls
                    .entry((ctx, kind, root, len, blocking))
                    .or_insert(0) += 1;
                let rec = CollCallDesc {
                    rank,
                    kind,
                    blocking,
                    root,
                    len,
                    site,
                };
                let c = self.ctxs.entry(ctx).or_default();
                match &mut c.steps {
                    Some((steps, g)) => {
                        steps.push(rank, rec);
                        if blocking && kind != CollKind::Dup {
                            self.groups[*g]
                                .steps
                                .push(rank, SeqEntry { ctx, kind, site });
                        }
                    }
                    None => c.early.entry(rank).or_default().push(rec),
                }
                if let Some(r) = req {
                    self.post(r, rank, ev);
                }
            }
            Event::SendPost { agent, req, .. } | Event::RecvPost { agent, req, .. } => {
                self.post(req, agent, ev)
            }
            Event::Match { send, recv } => {
                for req in [send, recv] {
                    if let Some(r) = self.reqs.get_mut(&req) {
                        r.matched = true;
                        self.retire(req);
                    }
                }
            }
            Event::WaitDone { agent, req } | Event::TestObserved { agent, req } => {
                // A retired request was observed before.
                let Some(r) = self.reqs.get_mut(&req).filter(|r| !r.observed) else {
                    return;
                };
                r.observed = true;
                if let Some(key) = r.post.envelope() {
                    if let Some(env) = self.envelopes.get_mut(&key).filter(|e| e.last == req) {
                        env.observer = Some(agent);
                        if agent == env.poster && env.races.is_empty() {
                            self.envelopes.remove(&key);
                        }
                    }
                }
                self.retire(req);
            }
            Event::ReqDropped { req, completed } => {
                if let Some(r) = self.reqs.get_mut(&req) {
                    r.dropped_incomplete |= !completed;
                }
            }
            Event::WinDecl { rank, win, site } => {
                self.wins.entry((win, rank)).or_default().site = site;
            }
            Event::WinFence { rank, win, .. } => {
                let st = self.wins.entry((win, rank)).or_default();
                st.fence_count += 1;
                st.ops_since_fence = 0;
                st.last_op_site = None;
                self.sweep_fenced(win);
            }
            Event::WinLock {
                rank, win, target, ..
            } => {
                let st = self.wins.entry((win, rank)).or_default();
                st.lock_seq += 1;
                st.locks.insert(target, st.lock_seq);
            }
            Event::WinUnlock {
                rank,
                win,
                target,
                site,
            } => {
                let st = self.wins.entry((win, rank)).or_default();
                match st.locks.remove(&target) {
                    Some(lock) => {
                        if let Some(ops) = self.lock_groups.remove(&(win, target, rank, lock)) {
                            sweep(win, target, &ops, &mut self.found);
                        }
                    }
                    None => self.found.push(Finding {
                        severity: Severity::Error,
                        code: "rma-double-unlock",
                        message: format!(
                            "rank {rank} unlocked rank {target} on win {win} without holding \
                             the lock (double unlock){}",
                            at(", posted at", site)
                        ),
                    }),
                }
            }
            Event::RmaOp {
                rank,
                win,
                kind,
                target,
                offset,
                len,
                req,
                site,
            } => {
                if let Some(r) = req {
                    self.post(r, rank, ev);
                }
                let rec = RmaOpRec {
                    rank,
                    kind,
                    offset,
                    len,
                    site,
                };
                let st = self.wins.entry((win, rank)).or_default();
                if let Some(&lock) = st.locks.get(&target) {
                    let group = (win, target, rank, lock);
                    self.lock_groups.entry(group).or_default().push(rec);
                } else if st.fence_count >= 1 {
                    st.ops_since_fence += 1;
                    st.last_op_site = site;
                    let group = (win, target, st.fence_count);
                    self.fence_groups.entry(group).or_default().push(rec);
                } else {
                    let op = format!("{}({len}B, rank {target} at offset {offset})", kind.name());
                    self.found.push(Finding {
                        severity: Severity::Error,
                        code: "rma-outside-epoch",
                        message: format!(
                            "rank {rank} posted {op} on win {win} outside any epoch (no fence \
                             opened an access epoch and no lock is held on the target){}",
                            at(", posted at", site)
                        ),
                    });
                }
            }
            Event::WinFree { rank, win, .. } => {
                let st = self.wins.entry((win, rank)).or_default();
                st.freed = true;
                st.unclosed(rank, win, &mut self.found);
                st.ops_since_fence = 0;
                st.locks.clear();
                self.sweep_fenced(win);
            }
            Event::WinDropped { rank, win, freed } => {
                if !freed {
                    let site = self.wins.get(&(win, rank)).and_then(|s| s.site);
                    let created = at(", created at", site);
                    self.found.push(Finding {
                        severity: Severity::Error,
                        code: "win-leak",
                        message: format!(
                            "rank {rank} dropped win {win} without freeing it{created}"
                        ),
                    });
                }
            }
        }
    }

    /// Track request `req` posted by `agent` and, for a user send or
    /// receive, check its order against the previous post on its envelope.
    fn post(&mut self, req: ReqId, agent: AgentId, post: Event) {
        if let Some(key) = post.envelope() {
            // A fresh envelope has no earlier post to order against.
            let env = self.envelopes.entry(key).or_insert(EnvLive {
                last: req,
                poster: agent,
                observer: Some(agent),
                races: Vec::new(),
            });
            // Once a pair both matched is waiting, later pairs cannot be
            // the envelope's first race.
            let decided = env
                .races
                .last()
                .is_some_and(|&(a, b, _)| matched(&self.reqs, a) && matched(&self.reqs, b));
            if env.observer != Some(agent) && !decided {
                env.races.push((env.last, req, post.poster().1));
            }
            (env.last, env.poster, env.observer) = (req, agent, None);
        }
        let r = ReqLive {
            post,
            observed: false,
            matched: false,
            dropped_incomplete: false,
        };
        self.reqs.insert(req, r);
    }

    /// Drop `req` once it was observed and, if p2p, matched.
    fn retire(&mut self, req: ReqId) {
        let p2p = |e: &Event| matches!(e, Event::SendPost { .. } | Event::RecvPost { .. });
        if self
            .reqs
            .get(&req)
            .is_some_and(|r| r.observed && (r.matched || !p2p(&r.post)))
        {
            self.reqs.remove(&req);
        }
    }

    /// Sweep `win`'s fence groups every member has fenced past (or freed).
    fn sweep_fenced(&mut self, win: u64) {
        let members = self.wins.range((win, 0)..=(win, u32::MAX));
        let passed = members
            .map(|(_, st)| if st.freed { u64::MAX } else { st.fence_count })
            .min()
            .unwrap_or(0);
        let groups = self
            .fence_groups
            .range((win, 0, 0)..=(win, u32::MAX, u64::MAX));
        let done: Vec<_> = groups.map(|(k, _)| *k).filter(|k| k.2 < passed).collect();
        for key in done {
            if let Some(ops) = self.fence_groups.remove(&key) {
                sweep(win, key.1, &ops, &mut self.found);
            }
        }
    }

    /// Every finding of the run so far, sorted errors-first, then by
    /// rendered text, so output is stable across thread schedules.
    pub(crate) fn findings(&self) -> Vec<Finding> {
        let mut findings = self.found.clone();

        // RMA: anything still open is unsynchronized (a window never freed
        // is itself reported via `WinDropped`).
        for (&(win, rank), st) in self.wins.iter().filter(|(_, st)| !st.freed) {
            st.unclosed(rank, win, &mut findings);
        }
        for (&(win, target, _epoch), ops) in &self.fence_groups {
            sweep(win, target, ops, &mut findings);
        }
        for (&(win, target, _origin, _lock), ops) in &self.lock_groups {
            sweep(win, target, ops, &mut findings);
        }
        let mut push = |severity, code, message| {
            findings.push(Finding {
                severity,
                code,
                message,
            })
        };

        // Per-communicator collective matching.
        for (&ctx, c) in &self.ctxs {
            let undeclared;
            let steps = match &c.steps {
                Some((steps, _)) => steps,
                None => {
                    let members: Vec<u32> = c.early.keys().copied().collect();
                    undeclared = replay(&members, &c.early);
                    &undeclared
                }
            };
            if let Some((_, (index, a, b))) = steps.first_diff() {
                let (severity, code, what) =
                    if (a.kind, a.root, a.blocking) != (b.kind, b.root, b.blocking) {
                        (Severity::Error, "coll-mismatch", "mismatched collective")
                    } else {
                        (
                            Severity::Warning,
                            "coll-len-mismatch",
                            "length differs at collective",
                        )
                    };
                let message = format!("{what} #{index} on comm {ctx}: {a}, but {b}");
                push(severity, code, message);
            }
            // The first member at the least count and at the most.
            let min = steps.lanes.iter().min_by_key(|l| l.count);
            let max = steps.lanes.iter().rev().max_by_key(|l| l.count);
            if let (Some(min), Some(max)) = (min, max) {
                if min.count != max.count {
                    let message = format!(
                        "comm {ctx}: rank {} issued {} collective(s) but rank {} issued {} — \
                         some member skipped a collective",
                        min.rank, min.count, max.rank, max.count
                    );
                    push(Severity::Error, "coll-count", message);
                }
            }
        }

        // Cross-communicator interleaving. A kind divergence on the same
        // ctx is reported by the per-communicator pass; only interleave
        // changes show here.
        for g in &self.groups {
            if let Some((rank_b, (index, a, b))) = g.steps.first_diff() {
                let ctxs: Vec<u32> = g.ctxs.iter().copied().collect();
                let message = format!(
                    "blocking collectives on comms {ctxs:?} (same member set) are interleaved \
                     differently: at position {index}, rank {} ran {a} but rank {rank_b} ran {b}",
                    g.steps.lanes[0].rank
                );
                push(Severity::Error, "cross-comm-order", message);
            }
        }

        // Request leaks and unmatched messages.
        for r in self.reqs.values() {
            let internal = matches!(
                r.post,
                Event::SendPost { internal: true, .. } | Event::RecvPost { internal: true, .. }
            );
            let (rank, site) = r.post.poster();
            if !internal && !r.observed {
                let how = match r.dropped_incomplete {
                    true => "dropped before the operation completed",
                    false => "never waited on or tested to completion",
                };
                let op = r.post.describe(false);
                let message = format!("rank {rank} leaked {op}: {how}{}", at(", posted at", site));
                push(Severity::Error, "request-leak", message);
            }
            let tag_of = |tag: u64| match internal {
                true => format!("internal tag {tag:#x}"),
                false => format!("tag={tag}"),
            };
            let (code, message) = match r.post {
                _ if r.matched => continue,
                Event::SendPost {
                    ctx,
                    dst,
                    tag,
                    bytes,
                    ..
                } => (
                    "unmatched-send",
                    format!(
                        "send of {bytes}B from rank {rank} to rank {dst} ({}) on comm {ctx} was \
                         never matched by a receive{}",
                        tag_of(tag),
                        at(", posted at", site)
                    ),
                ),
                Event::RecvPost { ctx, src, tag, .. } => (
                    "unmatched-recv",
                    format!(
                        "receive at rank {rank} from rank {src} ({}) on comm {ctx} was never \
                         matched by a send{}",
                        tag_of(tag),
                        at(", posted at", site)
                    ),
                ),
                _ => continue,
            };
            let severity = if internal {
                Severity::Warning
            } else {
                Severity::Error
            };
            push(severity, code, message);
        }

        // Order-dependent matching: an envelope's first unordered pair
        // whose requests both matched (pure leaks are reported above).
        for (&(recv, ctx, src, dst, tag), env) in &self.envelopes {
            let mut races = env.races.iter();
            let race = races.find(|&&(a, b, _)| matched(&self.reqs, a) && matched(&self.reqs, b));
            if let Some(&(_, _, site)) = race {
                let what = if recv { "receives" } else { "sends" };
                let message = format!(
                    "concurrent same-envelope {what} (comm {ctx}, rank {src} -> rank {dst}, \
                     tag={tag}): matching depends on arrival order{}",
                    at(", posted at", site)
                );
                push(Severity::Warning, "order-dependent-match", message);
            }
        }

        // No code is a prefix of another, so this is the order of the
        // rendered lines.
        findings.sort_by(|x, y| {
            (x.severity, x.code, &x.message).cmp(&(y.severity, y.code, &y.message))
        });
        findings
    }

    /// What `agent` is blocked on, for the deadlock report.
    pub(crate) fn pending(&self, agent: AgentId) -> Option<PendingOp> {
        Some(match *self.waiting.get(&agent)? {
            Waiting::Req(req) => {
                let post = self.reqs.get(&req).map(|r| &r.post);
                let peers = match post {
                    Some(&Event::SendPost { dst, .. }) => vec![dst],
                    Some(&Event::RecvPost { src, .. }) => vec![src],
                    _ => Vec::new(),
                };
                PendingOp {
                    op: post.map_or(UNTRACKED.to_string(), |p| p.describe(true)),
                    peers,
                    site: post.and_then(|p| p.poster().1),
                }
            }
            Waiting::Split { ctx } => PendingOp {
                op: format!("MPI_Comm_split on comm {ctx} (some member never called it)"),
                peers: Vec::new(),
                site: None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 10,000 rounds of three agents: rank 0 sends to rank 1 on one
    /// envelope, the two match and wait, then all three call a barrier on
    /// the one context, rank 2 first. In round `leak_at` the pair uses
    /// tag 8 and rank 1 drops its completed receive unwaited.
    fn rounds(leak_at: Option<u64>) -> Live {
        let mut live = Live::default();
        live.apply(Event::CommDecl {
            ctx: 0,
            members: Arc::new(vec![0, 1, 2]),
        });
        for round in 0..10_000 {
            let (s, r, leak) = (2 * round, 2 * round + 1, leak_at == Some(round));
            let tag = if leak { 8 } else { 7 };
            live.apply(Event::SendPost {
                agent: 0,
                rank: 0,
                ctx: 0,
                dst: 1,
                tag,
                bytes: 64,
                internal: false,
                req: s,
                site: None,
            });
            live.apply(Event::RecvPost {
                agent: 1,
                rank: 1,
                ctx: 0,
                src: 0,
                tag,
                internal: false,
                req: r,
                site: None,
            });
            live.apply(Event::Match { send: s, recv: r });
            live.apply(Event::WaitDone { agent: 0, req: s });
            if leak {
                live.apply(Event::ReqDropped {
                    req: r,
                    completed: true,
                });
            } else {
                live.apply(Event::WaitDone { agent: 1, req: r });
            }
            for rank in [2, 0, 1] {
                live.apply(Event::Coll {
                    rank,
                    ctx: 0,
                    kind: CollKind::Barrier,
                    root: None,
                    len: 0,
                    blocking: true,
                    req: None,
                    site: None,
                });
            }
        }
        live
    }

    /// Collective records still held, over every context and group.
    fn held(live: &Live) -> usize {
        let ctxs = live.ctxs.values().filter_map(|c| c.steps.as_ref());
        let coll = ctxs.flat_map(|(s, _)| &s.lanes).map(|l| l.held.len());
        let seq = live.groups.iter().flat_map(|g| &g.steps.lanes);
        coll.sum::<usize>() + seq.map(|l| l.held.len()).sum::<usize>()
    }

    #[test]
    fn a_long_clean_run_keeps_bounded_state() {
        let live = rounds(None);
        assert_eq!(live.reqs.len(), 0);
        assert!(live.envelopes.len() <= 1, "{}", live.envelopes.len());
        assert!(held(&live) <= 3, "{}", held(&live));
        assert_eq!(
            live.coll_calls[&(0, CollKind::Barrier, None, 0, true)],
            30_000
        );
        assert!(live.findings().is_empty());
    }

    #[test]
    fn a_leak_in_a_long_run_is_the_one_finding() {
        let live = rounds(Some(5_000));
        assert_eq!(live.reqs.len(), 1);
        assert!(live.envelopes.len() <= 2, "{}", live.envelopes.len());
        assert!(held(&live) <= 3, "{}", held(&live));
        let text: Vec<String> = live.findings().iter().map(Finding::to_string).collect();
        assert_eq!(
            text,
            [
                "error[request-leak]: rank 1 leaked MPI_Irecv(from rank 0, tag=8) on comm 0: \
              never waited on or tested to completion"
            ]
        );
    }
}

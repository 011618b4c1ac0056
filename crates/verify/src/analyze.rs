//! Offline analyses over the event log.
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
//! All passes are deterministic given per-agent program order: per-agent
//! event subsequences are program-ordered by construction (each agent
//! appends its own events), and the final finding list is sorted.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use crate::event::{AgentId, CollKind, Event, ReqId, RmaKind, Site};
use crate::finding::{CollCallDesc, Finding, FindingKind, LeakKind, SeqEntry, Severity};
use crate::CollCallKey;

#[derive(Clone)]
struct CollRec {
    kind: CollKind,
    blocking: bool,
    root: Option<u32>,
    len: usize,
    site: Option<Site>,
}

enum Post {
    Send {
        rank: u32,
        ctx: u32,
        dst: u32,
        tag: u64,
        bytes: usize,
        internal: bool,
        site: Option<Site>,
    },
    Recv {
        rank: u32,
        ctx: u32,
        src: u32,
        tag: u64,
        internal: bool,
        site: Option<Site>,
    },
    Coll {
        rank: u32,
        ctx: u32,
        kind: CollKind,
        site: Option<Site>,
    },
    Rma {
        rank: u32,
        win: u64,
        kind: RmaKind,
        target: u32,
        bytes: usize,
        site: Option<Site>,
    },
}

impl Post {
    /// Human-readable operation description for leak reports.
    pub(crate) fn describe(&self) -> String {
        match self {
            Post::Send {
                ctx,
                dst,
                tag,
                bytes,
                ..
            } => {
                format!("MPI_Isend({bytes}B to rank {dst}, tag={tag}) on comm {ctx}")
            }
            Post::Recv { ctx, src, tag, .. } => {
                format!("MPI_Irecv(from rank {src}, tag={tag}) on comm {ctx}")
            }
            Post::Coll { ctx, kind, .. } => {
                format!("{} on comm {ctx}", kind.name(false))
            }
            Post::Rma {
                win,
                kind,
                target,
                bytes,
                ..
            } => {
                format!("{}({bytes}B, rank {target}) on win {win}", kind.name())
            }
        }
    }

    fn rank(&self) -> u32 {
        match self {
            Post::Send { rank, .. }
            | Post::Recv { rank, .. }
            | Post::Coll { rank, .. }
            | Post::Rma { rank, .. } => *rank,
        }
    }

    fn site(&self) -> Option<Site> {
        match self {
            Post::Send { site, .. }
            | Post::Recv { site, .. }
            | Post::Coll { site, .. }
            | Post::Rma { site, .. } => *site,
        }
    }
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

/// Per-(rank, window) epoch state machine, driven in program order.
#[derive(Default)]
struct WinRankState {
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
    /// Close `rank`'s epochs on `win` (at its `free`, or at the end of the
    /// log): report, then clear, any op posted since the last fence and
    /// every lock still held.
    fn close(&mut self, rank: u32, win: u64, findings: &mut Vec<Finding>) {
        let unclosed = |what: String, site: Option<Site>| Finding {
            severity: Severity::Error,
            kind: FindingKind::RmaUnclosedEpoch {
                rank,
                win,
                what,
                site,
            },
        };
        if self.ops_since_fence > 0 {
            findings.push(unclosed(
                format!(
                    "{} unsynchronized operation(s) posted after the last fence",
                    self.ops_since_fence
                ),
                self.last_op_site,
            ));
            self.ops_since_fence = 0;
        }
        for target in std::mem::take(&mut self.locks).into_keys() {
            findings.push(unclosed(format!("lock on rank {target} still held"), None));
        }
    }
}

#[derive(Default)]
struct ReqState {
    /// The first `WaitDone`/`TestObserved` of the request: who observed it
    /// complete, and at which log index.
    observed: Option<(AgentId, usize)>,
    matched: Option<ReqId>,
    dropped_incomplete: bool,
}

/// User send/recv requests on one `(ctx, src, dst, tag)` envelope, each
/// with its poster and the log index of its post. All from one rank, so
/// this order is program order.
type Envelopes = BTreeMap<(u32, u32, u32, u64), Vec<(ReqId, AgentId, usize)>>;

/// Run every analysis over the log; findings are sorted errors-first, then
/// by rendered text, so output is stable across thread schedules. Returned
/// beside them: how many times each collective call shape was logged
/// ([`VerifyReport::coll_calls`](crate::VerifyReport::coll_calls)).
pub fn analyze(events: &[Event]) -> (Vec<Finding>, BTreeMap<CollCallKey, u64>) {
    let mut findings = Vec::new();
    let mut coll_calls = BTreeMap::new();

    // ---- pass 1: index the log -------------------------------------
    let mut ctx_members: BTreeMap<u32, Arc<Vec<u32>>> = BTreeMap::new();
    // ctx -> rank -> per-rank collective sequence (program order).
    let mut coll_seqs: BTreeMap<u32, BTreeMap<u32, Vec<CollRec>>> = BTreeMap::new();
    // rank -> merged order of its blocking collectives across all comms.
    let mut rank_blocking: BTreeMap<u32, Vec<SeqEntry>> = BTreeMap::new();
    let mut posts: HashMap<ReqId, Post> = HashMap::new();
    let mut post_order: Vec<ReqId> = Vec::new();
    let mut states: HashMap<ReqId, ReqState> = HashMap::new();
    let mut send_envelopes = Envelopes::new();
    let mut recv_envelopes = Envelopes::new();
    // RMA: per-(rank, win) epoch state, creation sites, and epoch op
    // groups for conflict detection. Fence epochs are numbered by the
    // per-rank fence count — consistent across ranks because fence is
    // collective on the window — so ops from all origins targeting one
    // segment in the same global epoch share a group. Lock epochs key on
    // the origin too: the lock serializes different origins, so only
    // same-origin overlaps are races there.
    let mut win_sites: HashMap<(u32, u64), Option<Site>> = HashMap::new();
    let mut win_states: BTreeMap<(u32, u64), WinRankState> = BTreeMap::new();
    let mut fence_groups: BTreeMap<(u64, u32, u64), Vec<RmaOpRec>> = BTreeMap::new();
    let mut lock_groups: BTreeMap<(u64, u32, u32, u64), Vec<RmaOpRec>> = BTreeMap::new();

    for (at, ev) in events.iter().enumerate() {
        match ev {
            Event::CommDecl { ctx, members } => {
                ctx_members.entry(*ctx).or_insert_with(|| members.clone());
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
                *coll_calls
                    .entry((*ctx, *kind, *root, *len, *blocking))
                    .or_insert(0) += 1;
                coll_seqs
                    .entry(*ctx)
                    .or_default()
                    .entry(*rank)
                    .or_default()
                    .push(CollRec {
                        kind: *kind,
                        blocking: *blocking,
                        root: *root,
                        len: *len,
                        site: *site,
                    });
                if *blocking && *kind != CollKind::Dup {
                    rank_blocking.entry(*rank).or_default().push(SeqEntry {
                        ctx: *ctx,
                        kind: *kind,
                        site: *site,
                    });
                }
                if let Some(r) = req {
                    posts.insert(
                        *r,
                        Post::Coll {
                            rank: *rank,
                            ctx: *ctx,
                            kind: *kind,
                            site: *site,
                        },
                    );
                    post_order.push(*r);
                    states.entry(*r).or_default();
                }
            }
            Event::SendPost {
                agent,
                rank,
                ctx,
                dst,
                tag,
                bytes,
                internal,
                req,
                site,
            } => {
                posts.insert(
                    *req,
                    Post::Send {
                        rank: *rank,
                        ctx: *ctx,
                        dst: *dst,
                        tag: *tag,
                        bytes: *bytes,
                        internal: *internal,
                        site: *site,
                    },
                );
                post_order.push(*req);
                states.entry(*req).or_default();
                if !internal {
                    send_envelopes
                        .entry((*ctx, *rank, *dst, *tag))
                        .or_default()
                        .push((*req, *agent, at));
                }
            }
            Event::RecvPost {
                agent,
                rank,
                ctx,
                src,
                tag,
                internal,
                req,
                site,
            } => {
                posts.insert(
                    *req,
                    Post::Recv {
                        rank: *rank,
                        ctx: *ctx,
                        src: *src,
                        tag: *tag,
                        internal: *internal,
                        site: *site,
                    },
                );
                post_order.push(*req);
                states.entry(*req).or_default();
                if !internal {
                    recv_envelopes
                        .entry((*ctx, *src, *rank, *tag))
                        .or_default()
                        .push((*req, *agent, at));
                }
            }
            Event::Match { send, recv } => {
                states.entry(*send).or_default().matched = Some(*recv);
                states.entry(*recv).or_default().matched = Some(*send);
            }
            Event::WaitDone { agent, req } | Event::TestObserved { agent, req } => {
                states
                    .entry(*req)
                    .or_default()
                    .observed
                    .get_or_insert((*agent, at));
            }
            Event::ReqDropped { req, completed, .. } => {
                if !completed {
                    states.entry(*req).or_default().dropped_incomplete = true;
                }
            }
            Event::WinDecl {
                rank, win, site, ..
            } => {
                win_sites.insert((*rank, *win), *site);
                win_states.entry((*rank, *win)).or_default();
            }
            Event::WinFence { rank, win, .. } => {
                let st = win_states.entry((*rank, *win)).or_default();
                st.fence_count += 1;
                st.ops_since_fence = 0;
                st.last_op_site = None;
            }
            Event::WinLock {
                rank, win, target, ..
            } => {
                let st = win_states.entry((*rank, *win)).or_default();
                st.lock_seq += 1;
                let seq = st.lock_seq;
                st.locks.insert(*target, seq);
            }
            Event::WinUnlock {
                rank,
                win,
                target,
                site,
            } => {
                let st = win_states.entry((*rank, *win)).or_default();
                if st.locks.remove(target).is_none() {
                    findings.push(Finding {
                        severity: Severity::Error,
                        kind: FindingKind::RmaDoubleUnlock {
                            rank: *rank,
                            win: *win,
                            target: *target,
                            site: *site,
                        },
                    });
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
                    posts.insert(
                        *r,
                        Post::Rma {
                            rank: *rank,
                            win: *win,
                            kind: *kind,
                            target: *target,
                            bytes: *len,
                            site: *site,
                        },
                    );
                    post_order.push(*r);
                    states.entry(*r).or_default();
                }
                let rec = RmaOpRec {
                    rank: *rank,
                    kind: *kind,
                    offset: *offset,
                    len: *len,
                    site: *site,
                };
                let st = win_states.entry((*rank, *win)).or_default();
                if let Some(&lock_inst) = st.locks.get(target) {
                    lock_groups
                        .entry((*win, *target, *rank, lock_inst))
                        .or_default()
                        .push(rec);
                } else if st.fence_count >= 1 {
                    st.ops_since_fence += 1;
                    st.last_op_site = *site;
                    fence_groups
                        .entry((*win, *target, st.fence_count))
                        .or_default()
                        .push(rec);
                } else {
                    findings.push(Finding {
                        severity: Severity::Error,
                        kind: FindingKind::RmaOutsideEpoch {
                            rank: *rank,
                            win: *win,
                            op: format!(
                                "{}({len}B, rank {target} at offset {offset})",
                                kind.name()
                            ),
                            site: *site,
                        },
                    });
                }
            }
            Event::WinFree { rank, win, .. } => {
                let st = win_states.entry((*rank, *win)).or_default();
                st.freed = true;
                st.close(*rank, *win, &mut findings);
            }
            Event::WinDropped { rank, win, freed } => {
                if !freed {
                    findings.push(Finding {
                        severity: Severity::Error,
                        kind: FindingKind::WinLeak {
                            rank: *rank,
                            win: *win,
                            site: win_sites.get(&(*rank, *win)).copied().flatten(),
                        },
                    });
                }
            }
        }
    }

    // ---- analysis 0: RMA epoch closure and conflicts ----------------
    // Windows never freed: anything still open at end-of-log is
    // unsynchronized (the leak itself is reported via `WinDropped`).
    for ((rank, win), st) in &mut win_states {
        if !st.freed {
            st.close(*rank, *win, &mut findings);
        }
    }
    // Overlap sweep inside each epoch group. Groups are per (window,
    // target, epoch[, origin]), so they stay small; one finding per group
    // keeps a single buggy loop from flooding the report.
    let sweep = |win: u64, target: u32, ops: &[RmaOpRec], findings: &mut Vec<Finding>| {
        'outer: for i in 0..ops.len() {
            for j in (i + 1)..ops.len() {
                let (a, b) = (&ops[i], &ops[j]);
                if !a.overlaps(b) {
                    continue;
                }
                if let Some(severity) = rma_conflict_severity(a.kind, b.kind) {
                    findings.push(Finding {
                        severity,
                        kind: FindingKind::RmaConflict {
                            win,
                            target,
                            a: a.describe(),
                            b: b.describe(),
                            site: b.site,
                        },
                    });
                    break 'outer;
                }
            }
        }
    };
    for ((win, target, _epoch), ops) in &fence_groups {
        sweep(*win, *target, ops, &mut findings);
    }
    for ((win, target, _origin, _lock), ops) in &lock_groups {
        sweep(*win, *target, ops, &mut findings);
    }

    // ---- analysis 1a: per-communicator collective matching ---------
    let empty: Vec<CollRec> = Vec::new();
    for (ctx, per_rank) in &coll_seqs {
        let members: Vec<u32> = match ctx_members.get(ctx) {
            Some(m) => (**m).clone(),
            None => per_rank.keys().copied().collect(),
        };
        if members.is_empty() {
            continue;
        }
        let seq_of = |r: u32| per_rank.get(&r).unwrap_or(&empty);
        let r0 = members[0];
        let s0 = seq_of(r0);
        'content: for &r in &members[1..] {
            let s = seq_of(r);
            for i in 0..s0.len().min(s.len()) {
                let (a, b) = (&s0[i], &s[i]);
                let desc = |rank: u32, c: &CollRec| CollCallDesc {
                    rank,
                    kind: c.kind,
                    blocking: c.blocking,
                    root: c.root,
                    len: c.len,
                    site: c.site,
                };
                if a.kind != b.kind || a.root != b.root || a.blocking != b.blocking {
                    findings.push(Finding {
                        severity: Severity::Error,
                        kind: FindingKind::CollectiveMismatch {
                            ctx: *ctx,
                            index: i,
                            a: desc(r0, a),
                            b: desc(r, b),
                        },
                    });
                    break 'content;
                }
                if a.len != b.len {
                    findings.push(Finding {
                        severity: Severity::Warning,
                        kind: FindingKind::CollectiveLengthMismatch {
                            ctx: *ctx,
                            index: i,
                            a: desc(r0, a),
                            b: desc(r, b),
                        },
                    });
                    break 'content;
                }
            }
        }
        let (mut min_rank, mut min_count) = (r0, s0.len());
        let (mut max_rank, mut max_count) = (r0, s0.len());
        for &r in &members {
            let c = seq_of(r).len();
            if c < min_count {
                min_rank = r;
                min_count = c;
            }
            if c > max_count {
                max_rank = r;
                max_count = c;
            }
        }
        if min_count != max_count {
            findings.push(Finding {
                severity: Severity::Error,
                kind: FindingKind::CollectiveCountDivergence {
                    ctx: *ctx,
                    min_rank,
                    min_count,
                    max_rank,
                    max_count,
                },
            });
        }
    }

    // ---- analysis 1b: cross-communicator interleaving --------------
    let mut groups: BTreeMap<Vec<u32>, Vec<u32>> = BTreeMap::new();
    for (ctx, members) in &ctx_members {
        groups.entry((**members).clone()).or_default().push(*ctx);
    }
    for (members, ctxs) in &groups {
        if ctxs.len() < 2 || members.len() < 2 {
            continue;
        }
        let ctxset: BTreeSet<u32> = ctxs.iter().copied().collect();
        let proj = |r: u32| -> Vec<SeqEntry> {
            rank_blocking
                .get(&r)
                .map(|v| {
                    v.iter()
                        .filter(|e| ctxset.contains(&e.ctx))
                        .cloned()
                        .collect()
                })
                .unwrap_or_default()
        };
        let r0 = members[0];
        let p0 = proj(r0);
        'group: for &r in &members[1..] {
            let p = proj(r);
            for i in 0..p0.len().min(p.len()) {
                // A kind divergence on the same ctx is already reported by
                // the per-communicator pass; only flag interleave changes.
                if p0[i].ctx != p[i].ctx {
                    findings.push(Finding {
                        severity: Severity::Error,
                        kind: FindingKind::CrossCommReorder {
                            ctxs: ctxs.clone(),
                            rank_a: r0,
                            rank_b: r,
                            index: i,
                            a: Some(p0[i].clone()),
                            b: Some(p[i].clone()),
                        },
                    });
                    break 'group;
                }
            }
        }
    }

    // ---- analysis 2: request leaks and unmatched messages ----------
    for req in &post_order {
        let (Some(post), Some(st)) = (posts.get(req), states.get(req)) else {
            continue;
        };
        let internal = match post {
            Post::Send { internal, .. } | Post::Recv { internal, .. } => *internal,
            Post::Coll { .. } | Post::Rma { .. } => false,
        };
        if !internal && st.observed.is_none() {
            findings.push(Finding {
                severity: Severity::Error,
                kind: FindingKind::RequestLeak {
                    rank: post.rank(),
                    op: post.describe(),
                    site: post.site(),
                    leak: if st.dropped_incomplete {
                        LeakKind::DroppedIncomplete
                    } else {
                        LeakKind::NeverWaited
                    },
                },
            });
        }
        if st.matched.is_none() {
            match post {
                Post::Send {
                    ctx,
                    rank,
                    dst,
                    tag,
                    bytes,
                    internal,
                    site,
                } => findings.push(Finding {
                    severity: if *internal {
                        Severity::Warning
                    } else {
                        Severity::Error
                    },
                    kind: FindingKind::UnmatchedSend {
                        ctx: *ctx,
                        src: *rank,
                        dst: *dst,
                        tag: *tag,
                        bytes: *bytes,
                        internal: *internal,
                        site: *site,
                    },
                }),
                Post::Recv {
                    ctx,
                    rank,
                    src,
                    tag,
                    internal,
                    site,
                } => findings.push(Finding {
                    severity: if *internal {
                        Severity::Warning
                    } else {
                        Severity::Error
                    },
                    kind: FindingKind::UnmatchedRecv {
                        ctx: *ctx,
                        src: *src,
                        dst: *rank,
                        tag: *tag,
                        internal: *internal,
                        site: *site,
                    },
                }),
                Post::Coll { .. } | Post::Rma { .. } => {}
            }
        }
    }

    // ---- analysis 3: order-dependent matching ----------------------
    // Both requests of a pair are posted by one agent, and a completion is
    // only ever observed by whoever waits or tests, so `prev` is out of
    // flight before `cur` iff `cur`'s poster itself observed `prev`
    // complete earlier in its own event order (per-agent log order is
    // program order). An observation by any other agent does not order.
    let mut race_check = |envelopes: &Envelopes, what: &'static str| {
        let matched = |req: &ReqId| states.get(req).is_some_and(|s| s.matched.is_some());
        for ((ctx, src, dst, tag), reqs) in envelopes {
            for pair in reqs.windows(2) {
                let ((prev, ..), (cur, poster, posted_at)) = (pair[0], pair[1]);
                if !(matched(&prev) && matched(&cur)) {
                    continue; // pure leaks are reported above
                }
                let ordered = states
                    .get(&prev)
                    .and_then(|s| s.observed)
                    .is_some_and(|(observer, at)| observer == poster && at < posted_at);
                if !ordered {
                    findings.push(Finding {
                        severity: Severity::Warning,
                        kind: FindingKind::OrderDependentMatch {
                            ctx: *ctx,
                            src: *src,
                            dst: *dst,
                            tag: *tag,
                            what,
                            site: posts.get(&cur).and_then(Post::site),
                        },
                    });
                    break; // one finding per envelope
                }
            }
        }
    };
    race_check(&send_envelopes, "sends");
    race_check(&recv_envelopes, "receives");

    findings.sort_by_key(|x| (x.severity, x.to_string()));
    (findings, coll_calls)
}

/// Look up the post descriptor of a request, for deadlock reporting.
pub(crate) fn describe_req(events: &[Event], req: ReqId) -> Option<(String, Option<Site>)> {
    for ev in events {
        match ev {
            Event::SendPost {
                req: r,
                ctx,
                dst,
                tag,
                bytes,
                internal,
                site,
                ..
            } if *r == req => {
                let op = if *internal {
                    format!(
                        "internal collective send ({bytes}B to rank {dst}, tag {tag:#x}) on comm {ctx}"
                    )
                } else {
                    format!("MPI_Isend({bytes}B to rank {dst}, tag={tag}) on comm {ctx}")
                };
                return Some((op, *site));
            }
            Event::RecvPost {
                req: r,
                ctx,
                src,
                tag,
                internal,
                site,
                ..
            } if *r == req => {
                let op = if *internal {
                    format!(
                        "internal collective receive (from rank {src}, tag {tag:#x}) on comm {ctx}"
                    )
                } else {
                    format!("MPI_Irecv(from rank {src}, tag={tag}) on comm {ctx}")
                };
                return Some((op, *site));
            }
            Event::Coll {
                req: Some(r),
                ctx,
                kind,
                root,
                site,
                ..
            } if *r == req => {
                let root_s = root.map_or(String::new(), |x| format!("root={x}, "));
                return Some((
                    format!("{}({root_s}on comm {ctx})", kind.name(false)),
                    *site,
                ));
            }
            _ => {}
        }
    }
    None
}

/// Peer world ranks whose action is needed to complete `req` (for the
/// deadlock wait-for graph).
pub(crate) fn req_peers(events: &[Event], req: ReqId) -> Vec<u32> {
    for ev in events {
        match ev {
            Event::SendPost { req: r, dst, .. } if *r == req => return vec![*dst],
            Event::RecvPost { req: r, src, .. } if *r == req => return vec![*src],
            _ => {}
        }
    }
    Vec::new()
}

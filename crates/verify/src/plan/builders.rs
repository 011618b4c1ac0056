//! Pure algorithm builders: the classical collective algorithms,
//! transliterated from blocking-style code into [`CollPlan`] schedules.
//!
//! Each builder is a pure function of `(p, me, n, root)` — it never touches
//! the network, clocks or payload bytes, so plans can be built for **all**
//! ranks at once and statically linted before execution. Blocking
//! operations become posted steps plus fences (see
//! [`PlanBuilder`]); peer formulas, tag step-bases and slack
//! placement replicate the original hand-written implementations exactly,
//! which keeps modeled virtual times unchanged.
//!
//! Non-power-of-two communicators are handled the classical way: the
//! recursive algorithms fold the `r = p - m` surplus ranks into a
//! power-of-two core (`m` = largest power of two ≤ `p`) before the core
//! phase and unfold afterwards where the collective requires it.

// Builder invariants (e.g. "every non-root rank receives exactly once in a
// binomial tree", "all ring chunks are present after p-1 rounds") are
// structural properties of the algorithms; expect() documents them.
#![allow(clippy::expect_used)]

use crate::event::CollKind;

use super::{chunk_bounds, BufId, CollAlgo, CollPlan, PlanBuilder};

/// Map a root-relative virtual rank back to a communicator index.
fn from_v(p: usize, root: usize, v: usize) -> usize {
    (v + root) % p
}

/// Map a communicator index to its root-relative virtual rank.
fn to_v(p: usize, root: usize, rank: usize) -> usize {
    (rank + p - root) % p
}

/// The power-of-two core of a communicator: `m` = largest power of two
/// ≤ `p`, `r = p - m` surplus ranks folded pairwise into the first `2r`.
struct Core {
    m: usize,
    r: usize,
}

impl Core {
    fn new(p: usize) -> Core {
        let mut m = 1usize;
        while m * 2 <= p {
            m *= 2;
        }
        Core { m, r: p - m }
    }

    /// Communicator-space index of core rank `c`.
    fn comm_of(&self, c: usize) -> usize {
        if c < self.r {
            2 * c
        } else {
            c + self.r
        }
    }
}

/// Binomial-tree broadcast. Returns the full-payload buffer on every rank.
fn bcast_binomial(pb: &mut PlanBuilder, root: usize, step_base: u32) -> BufId {
    let p = pb.p();
    let n = pb.n();
    let vrank = to_v(p, root, pb.me());
    let mut buf = if vrank == 0 {
        Some(pb.input_buf())
    } else {
        None
    };
    // Receive phase: a non-root rank receives once, from the parent that
    // differs in its lowest set bit.
    let mut mask = 1usize;
    let mut recv_round = 0u32;
    while mask < p {
        if vrank & mask != 0 {
            pb.slack();
            buf = Some(pb.recv(from_v(p, root, vrank - mask), step_base + recv_round, n));
            break;
        }
        mask <<= 1;
        recv_round += 1;
    }
    let buf = buf.expect("binomial bcast: every rank has the payload after its receive");
    // Send phase: forward to children at decreasing mask levels.
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < p {
            pb.slack();
            pb.send(
                from_v(p, root, vrank + mask),
                step_base + mask.trailing_zeros(),
                buf,
            );
        }
        mask >>= 1;
    }
    buf
}

/// Range-halving scatter tree. Returns this rank's chunk
/// (`bounds[vrank]..bounds[vrank+1]` of `chunk_bounds(n, p)`).
fn scatter_tree(pb: &mut PlanBuilder, root: usize, step_base: u32) -> BufId {
    let p = pb.p();
    let n = pb.n();
    let vrank = to_v(p, root, pb.me());
    let bounds = chunk_bounds(n, p);
    let mut buf = if vrank == 0 {
        Some(pb.input_buf())
    } else {
        None
    };
    let (mut lo, mut hi) = (0usize, p);
    let mut step = step_base;
    while hi - lo > 1 {
        let mid = lo + (hi - lo).div_ceil(2);
        if vrank < mid {
            if vrank == lo {
                let cut = bounds[mid] - bounds[lo];
                let b = buf.expect("scatter tree: range owner holds its range");
                let (keep, give) = pb.split_at(b, cut);
                pb.slack();
                pb.send(from_v(p, root, mid), step, give);
                buf = Some(keep);
            }
            hi = mid;
        } else {
            if vrank == mid {
                pb.slack();
                buf = Some(pb.recv(from_v(p, root, lo), step, bounds[hi] - bounds[mid]));
            }
            lo = mid;
        }
        step += 1;
    }
    buf.expect("scatter tree: every rank ends owning its chunk")
}

/// Ring allgather in root-relative virtual-rank space: rank `vrank`
/// contributes `my_chunk` (= chunk `vrank` of `chunk_bounds(n, p)`) and
/// every rank returns the full concatenation.
fn allgather_ring(pb: &mut PlanBuilder, root: usize, my_chunk: BufId, step_base: u32) -> BufId {
    let p = pb.p();
    let n = pb.n();
    let vrank = to_v(p, root, pb.me());
    let bounds = chunk_bounds(n, p);
    assert_eq!(
        pb.len_of(my_chunk),
        bounds[vrank + 1] - bounds[vrank],
        "allgather chunk length mismatch"
    );
    let mut chunks: Vec<Option<BufId>> = vec![None; p];
    chunks[vrank] = Some(my_chunk);
    if p > 1 {
        let right = from_v(p, root, (vrank + 1) % p);
        let left = from_v(p, root, (vrank + p - 1) % p);
        for s in 0..p - 1 {
            let send_idx = (vrank + p - s) % p;
            let recv_idx = (vrank + p - s - 1) % p;
            pb.slack();
            let rlen = bounds[recv_idx + 1] - bounds[recv_idx];
            let sbuf = chunks[send_idx].expect("ring: sent chunk was produced a round earlier");
            let rbuf = pb.exchange(right, left, step_base + s as u32, sbuf, rlen);
            chunks[recv_idx] = Some(rbuf);
        }
    }
    let parts: Vec<BufId> = chunks
        .into_iter()
        .map(|c| c.expect("ring: all chunks present after p-1 rounds"))
        .collect();
    pb.concat(&parts)
}

/// Dissemination barrier: log2(p) rounds of pairwise empty-token exchange.
fn barrier_dissemination(pb: &mut PlanBuilder) {
    let p = pb.p();
    let me = pb.me();
    let mut dist = 1usize;
    let mut step = 0u32;
    while dist < p {
        let to = (me + dist) % p;
        let from = (me + p - dist) % p;
        pb.slack();
        let token = pb.empty();
        pb.exchange(to, from, step, token, 0);
        dist <<= 1;
        step += 1;
    }
}

/// Fold the `2r` lowest ranks pairwise so a power-of-two core holds the
/// partial sums. Works in virtual-rank space via the `fv` index map
/// (identity for rootless collectives). Returns this rank's folded payload
/// and `Some(core rank)` if it joins the core, `None` if it retires.
fn fold(
    pb: &mut PlanBuilder,
    core: &Core,
    vrank: usize,
    fv: &dyn Fn(usize) -> usize,
    step: u32,
) -> (BufId, Option<usize>) {
    let n = pb.n();
    let r = core.r;
    let contrib = pb.input_buf();
    if vrank < 2 * r {
        let half = chunk_bounds(n, 2)[1];
        let (lo, hi) = pb.split_at(contrib, half);
        if vrank % 2 == 1 {
            // Odd surplus rank: swap halves, reduce the high half, hand it
            // back to the even partner, retire.
            let partner = fv(vrank - 1);
            pb.slack();
            let their_hi = pb.exchange(partner, partner, step, lo, n - half);
            let reduced_hi = pb.reduce(hi, their_hi);
            pb.send(partner, step + 1, reduced_hi);
            (contrib, None)
        } else {
            // Even surplus rank: reduce the low half, receive the reduced
            // high half, join the core with the full folded vector.
            let partner = fv(vrank + 1);
            pb.slack();
            let their_lo = pb.exchange(partner, partner, step, hi, half);
            let reduced_lo = pb.reduce(lo, their_lo);
            let reduced_hi = pb.recv(partner, step + 1, n - half);
            let folded = pb.concat(&[reduced_lo, reduced_hi]);
            (folded, Some(vrank / 2))
        }
    } else {
        (contrib, Some(vrank - r))
    }
}

/// Unfold after an allreduce core phase: even surplus ranks forward the
/// full result to their retired odd partners. Returns the result buffer.
fn unfold(pb: &mut PlanBuilder, core: &Core, result: Option<BufId>, step: u32) -> BufId {
    let me = pb.me();
    let n = pb.n();
    if me < 2 * core.r {
        if me % 2 == 1 {
            pb.slack();
            pb.recv(me - 1, step, n)
        } else {
            let b = result.expect("unfold: core rank holds the result");
            pb.slack();
            pb.send(me + 1, step, b);
            b
        }
    } else {
        result.expect("unfold: core rank holds the result")
    }
}

/// Recursive-halving reduce-scatter over a power-of-two core of `m` ranks.
/// `contrib` covers `bounds[0]..bounds[m]`; returns chunk `cv`
/// (`bounds[cv]..bounds[cv+1]`) fully reduced.
fn reduce_scatter_halving(
    pb: &mut PlanBuilder,
    cv: usize,
    m: usize,
    core_to_comm: &dyn Fn(usize) -> usize,
    contrib: BufId,
    bounds: &[usize],
    step_base: u32,
) -> BufId {
    let (mut lo, mut hi) = (0usize, m);
    let mut buf = contrib;
    let mut step = step_base;
    while hi - lo > 1 {
        let half = (hi - lo) / 2;
        let mid = lo + half;
        let cut = bounds[mid] - bounds[lo];
        let (low, high) = pb.split_at(buf, cut);
        let (keep, give, partner) = if cv < mid {
            (low, high, cv + half)
        } else {
            (high, low, cv - half)
        };
        pb.slack();
        let keep_len = pb.len_of(keep);
        let incoming = pb.exchange(
            core_to_comm(partner),
            core_to_comm(partner),
            step,
            give,
            keep_len,
        );
        buf = pb.reduce(keep, incoming);
        if cv < mid {
            hi = mid;
        } else {
            lo = mid;
        }
        step += 1;
    }
    buf
}

/// Binomial gather of reduced chunks to core rank 0. Returns the full
/// vector at core rank 0, `None` elsewhere.
fn gather_to_zero(
    pb: &mut PlanBuilder,
    cv: usize,
    m: usize,
    core_to_comm: &dyn Fn(usize) -> usize,
    chunk: BufId,
    bounds: &[usize],
    step_base: u32,
) -> Option<BufId> {
    let mut buf = chunk;
    let mut mask = 1usize;
    while mask < m {
        if cv & mask != 0 {
            pb.slack();
            pb.send(
                core_to_comm(cv - mask),
                step_base + mask.trailing_zeros(),
                buf,
            );
            return None;
        }
        let src = cv + mask;
        if src < m {
            pb.slack();
            let rlen = bounds[src + mask] - bounds[src];
            let incoming = pb.recv(core_to_comm(src), step_base + mask.trailing_zeros(), rlen);
            buf = pb.concat(&[buf, incoming]);
        }
        mask <<= 1;
    }
    Some(buf)
}

/// Ring allreduce: ring reduce-scatter, then ring allgather rooted so each
/// rank's owned chunk lines up with its allgather position.
fn allreduce_ring(pb: &mut PlanBuilder) -> BufId {
    let p = pb.p();
    let me = pb.me();
    let n = pb.n();
    let bounds = chunk_bounds(n, p);
    let mut acc: Vec<BufId> = (0..p)
        .map(|i| pb.input_slice(bounds[i], bounds[i + 1] - bounds[i]))
        .collect();
    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    for s in 0..p - 1 {
        let send_idx = (me + p - s) % p;
        let recv_idx = (me + p - s - 1) % p;
        pb.slack();
        let rlen = pb.len_of(acc[recv_idx]);
        let incoming = pb.exchange(right, left, s as u32, acc[send_idx], rlen);
        acc[recv_idx] = pb.reduce(acc[recv_idx], incoming);
    }
    // After the reduce-scatter, rank me fully owns chunk (me+1)%p. Root
    // the allgather at p-1 so vrank == (me+1)%p == owned chunk index.
    allgather_ring(pb, p - 1, acc[(me + 1) % p], 500)
}

/// Recursive-doubling allreduce with surplus-rank fold/unfold.
fn allreduce_recursive_doubling(pb: &mut PlanBuilder) -> BufId {
    let core = Core::new(pb.p());
    let n = pb.n();
    let me = pb.me();
    let (folded, role) = fold(pb, &core, me, &|v| v, 0);
    let result = if let Some(cv) = role {
        let mut acc = folded;
        let mut mask = 1usize;
        let mut step = 10u32;
        while mask < core.m {
            let partner = core.comm_of(cv ^ mask);
            pb.slack();
            let incoming = pb.exchange(partner, partner, step, acc, n);
            acc = pb.reduce(acc, incoming);
            mask <<= 1;
            step += 1;
        }
        Some(acc)
    } else {
        None
    };
    unfold(pb, &core, result, 100)
}

/// Reduce-scatter + ring-allgather allreduce over the power-of-two core.
fn allreduce_rsag(pb: &mut PlanBuilder) -> BufId {
    let core = Core::new(pb.p());
    let n = pb.n();
    let me = pb.me();
    let (folded, role) = fold(pb, &core, me, &|v| v, 0);
    let m = core.m;
    let bounds = chunk_bounds(n, m);
    let result = if let Some(cv) = role {
        let ctc = |c: usize| core.comm_of(c);
        let chunk = reduce_scatter_halving(pb, cv, m, &ctc, folded, &bounds, 10);
        // Ring allgather over the core ranks (chunk cv lives at core rank
        // cv after the halving phase).
        let mut chunks: Vec<Option<BufId>> = vec![None; m];
        chunks[cv] = Some(chunk);
        if m > 1 {
            let right = core.comm_of((cv + 1) % m);
            let left = core.comm_of((cv + m - 1) % m);
            for s in 0..m - 1 {
                let send_idx = (cv + m - s) % m;
                let recv_idx = (cv + m - s - 1) % m;
                pb.slack();
                let rlen = bounds[recv_idx + 1] - bounds[recv_idx];
                let sbuf =
                    chunks[send_idx].expect("rsag ring: sent chunk produced a round earlier");
                chunks[recv_idx] = Some(pb.exchange(right, left, 100 + s as u32, sbuf, rlen));
            }
        }
        let parts: Vec<BufId> = chunks
            .into_iter()
            .map(|c| c.expect("rsag ring: all chunks present"))
            .collect();
        Some(pb.concat(&parts))
    } else {
        None
    };
    unfold(pb, &core, result, 1000)
}

/// Binomial-tree reduce toward the root. Returns the result at the root.
fn reduce_binomial(pb: &mut PlanBuilder, root: usize, step_base: u32) -> Option<BufId> {
    let p = pb.p();
    let n = pb.n();
    let vrank = to_v(p, root, pb.me());
    let mut acc = pb.input_buf();
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask == 0 {
            let src_v = vrank + mask;
            if src_v < p {
                pb.slack();
                let incoming =
                    pb.recv(from_v(p, root, src_v), step_base + mask.trailing_zeros(), n);
                acc = pb.reduce(acc, incoming);
            }
            mask <<= 1;
        } else {
            pb.slack();
            pb.send(
                from_v(p, root, vrank - mask),
                step_base + mask.trailing_zeros(),
                acc,
            );
            return None;
        }
    }
    Some(acc)
}

/// Ring reduce-scatter + direct gather to the root.
fn reduce_ring(pb: &mut PlanBuilder, root: usize) -> Option<BufId> {
    let p = pb.p();
    let n = pb.n();
    let vrank = to_v(p, root, pb.me());
    let fv = |v: usize| from_v(p, root, v);
    let bounds = chunk_bounds(n, p);
    let mut acc: Vec<BufId> = (0..p)
        .map(|i| pb.input_slice(bounds[i], bounds[i + 1] - bounds[i]))
        .collect();
    let right = fv((vrank + 1) % p);
    let left = fv((vrank + p - 1) % p);
    for s in 0..p - 1 {
        let send_idx = (vrank + p - s) % p;
        let recv_idx = (vrank + p - s - 1) % p;
        pb.slack();
        let rlen = pb.len_of(acc[recv_idx]);
        let incoming = pb.exchange(right, left, s as u32, acc[send_idx], rlen);
        acc[recv_idx] = pb.reduce(acc[recv_idx], incoming);
    }
    // Rank vrank now fully owns chunk (vrank+1)%p; everyone sends theirs
    // straight to the root, which assembles the vector in chunk order.
    let owned = (vrank + 1) % p;
    if vrank == 0 {
        let mut chunks: Vec<Option<BufId>> = vec![None; p];
        chunks[owned] = Some(acc[owned]);
        for c in 0..p {
            if c == owned {
                continue;
            }
            let owner_v = (c + p - 1) % p;
            pb.slack();
            let rlen = bounds[c + 1] - bounds[c];
            chunks[c] = Some(pb.recv(fv(owner_v), 500 + c as u32, rlen));
        }
        let parts: Vec<BufId> = chunks
            .into_iter()
            .map(|x| x.expect("reduce ring: all chunks gathered"))
            .collect();
        Some(pb.concat(&parts))
    } else {
        pb.slack();
        pb.send(fv(0), 500 + owned as u32, acc[owned]);
        None
    }
}

/// Rabenseifner reduce: fold into the power-of-two core, recursive-halving
/// reduce-scatter, binomial gather of chunks to the root.
fn reduce_rabenseifner(pb: &mut PlanBuilder, root: usize) -> Option<BufId> {
    let p = pb.p();
    let n = pb.n();
    let vrank = to_v(p, root, pb.me());
    let core = Core::new(p);
    let fv = |v: usize| from_v(p, root, v);
    let (folded, role) = fold(pb, &core, vrank, &fv, 0);
    let cv = role?;
    let ctc = |c: usize| fv(core.comm_of(c));
    let bounds = chunk_bounds(n, core.m);
    let chunk = reduce_scatter_halving(pb, cv, core.m, &ctc, folded, &bounds, 10);
    gather_to_zero(pb, cv, core.m, &ctc, chunk, &bounds, 100)
}

/// Binomial-tree gather of per-rank chunks to the root.
fn gather_binomial(pb: &mut PlanBuilder, root: usize) -> Option<BufId> {
    let p = pb.p();
    let n = pb.n();
    let vrank = to_v(p, root, pb.me());
    let bounds = chunk_bounds(n, p);
    let mut buf = pb.input_buf();
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            pb.slack();
            pb.send(from_v(p, root, vrank - mask), mask.trailing_zeros(), buf);
            return None;
        }
        let src = vrank + mask;
        if src < p {
            pb.slack();
            // Sender src holds chunks [src, min(src+mask, p)) when it fires.
            let top = (src + mask).min(p);
            let rlen = bounds[top] - bounds[src];
            let incoming = pb.recv(from_v(p, root, src), mask.trailing_zeros(), rlen);
            buf = pb.concat(&[buf, incoming]);
        }
        mask <<= 1;
    }
    Some(buf)
}

/// Linear gather for long messages: every rank sends its chunk straight to
/// the root, which drains all receives concurrently (tag = sender's
/// virtual rank).
fn gather_linear(pb: &mut PlanBuilder, root: usize) -> Option<BufId> {
    let p = pb.p();
    let n = pb.n();
    let vrank = to_v(p, root, pb.me());
    let bounds = chunk_bounds(n, p);
    let chunk = pb.input_buf();
    if vrank == 0 {
        pb.slack();
        let mut parts = vec![chunk];
        let mut posted = Vec::with_capacity(p - 1);
        for v in 1..p {
            let rlen = bounds[v + 1] - bounds[v];
            let (sid, b) = pb.irecv(from_v(p, root, v), v as u32, rlen);
            posted.push(sid);
            parts.push(b);
        }
        for s in posted {
            pb.fence_on(s);
        }
        Some(pb.concat(&parts))
    } else {
        pb.slack();
        pb.send(from_v(p, root, 0), vrank as u32, chunk);
        None
    }
}

/// Build rank `me`'s schedule for one collective instance.
///
/// `root` is the communicator-relative root (pass 0 for rootless
/// collectives); `n` is the total logical payload in bytes. Panics if
/// `algo` does not implement `kind` or the ranks are out of range.
pub fn build_plan(
    kind: CollKind,
    algo: CollAlgo,
    p: usize,
    me: usize,
    n: usize,
    root: usize,
) -> CollPlan {
    assert_eq!(algo.kind(), kind, "{algo} does not implement {kind:?}");
    assert!(me < p && root < p, "bad rank/root for p={p}");
    let vrank = to_v(p, root, me);
    let bounds = chunk_bounds(n, p);
    let input = match kind {
        CollKind::Bcast | CollKind::Scatter => (me == root).then_some((0, n)),
        CollKind::Reduce | CollKind::Allreduce => Some((0, n)),
        CollKind::Gather | CollKind::Allgather => {
            Some((bounds[vrank], bounds[vrank + 1] - bounds[vrank]))
        }
        CollKind::Barrier => None,
        CollKind::Dup | CollKind::Split => panic!("no plans for communicator management"),
    };
    let mut pb = PlanBuilder::new(kind, algo, p, me, n, root, input);
    if p == 1 {
        // Trivial single-rank collective: the output is the input, nothing
        // goes on the wire.
        if kind != CollKind::Barrier {
            let b = pb.input_buf();
            pb.set_output(b);
        }
        return pb.finish();
    }
    let out: Option<BufId> = match algo {
        CollAlgo::BcastBinomial => Some(bcast_binomial(&mut pb, root, 0)),
        CollAlgo::BcastScatterAllgather => {
            let chunk = scatter_tree(&mut pb, root, 0);
            Some(allgather_ring(&mut pb, root, chunk, 1000))
        }
        CollAlgo::ReduceBinomial => reduce_binomial(&mut pb, root, 0),
        CollAlgo::ReduceRabenseifner => reduce_rabenseifner(&mut pb, root),
        CollAlgo::ReduceRing => reduce_ring(&mut pb, root),
        CollAlgo::AllreduceRecursiveDoubling => Some(allreduce_recursive_doubling(&mut pb)),
        CollAlgo::AllreduceRsag => Some(allreduce_rsag(&mut pb)),
        CollAlgo::AllreduceRing => Some(allreduce_ring(&mut pb)),
        CollAlgo::GatherBinomial => gather_binomial(&mut pb, root),
        CollAlgo::GatherLinear => gather_linear(&mut pb, root),
        CollAlgo::ScatterTree => Some(scatter_tree(&mut pb, root, 0)),
        CollAlgo::AllgatherRing => {
            let b = pb.input_buf();
            Some(allgather_ring(&mut pb, 0, b, 0))
        }
        CollAlgo::BarrierDissemination => {
            barrier_dissemination(&mut pb);
            None
        }
    };
    if let Some(b) = out {
        pb.set_output(b);
    }
    pb.finish()
}

/// Build the schedules of **all** `p` ranks for one collective instance
/// (the unit the static linter checks and the executor caches).
pub fn build_all(kind: CollKind, algo: CollAlgo, p: usize, n: usize, root: usize) -> Vec<CollPlan> {
    (0..p)
        .map(|me| build_plan(kind, algo, p, me, n, root))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StepOp;

    // (from, to, tag, bytes) of every posted message.
    type Msgs = Vec<(usize, usize, u32, usize)>;

    fn sends_and_recvs(plans: &[CollPlan]) -> (Msgs, Msgs) {
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for plan in plans {
            for s in &plan.steps {
                match &s.op {
                    StepOp::Send { peer, buf, tag } => {
                        sends.push((plan.me, *peer, *tag, plan.buf_len(*buf)));
                    }
                    StepOp::Recv { peer, into, tag } => {
                        recvs.push((*peer, plan.me, *tag, plan.buf_len(*into)));
                    }
                    _ => {}
                }
            }
        }
        (sends, recvs)
    }

    #[test]
    fn every_algo_builds_with_matching_envelopes() {
        for &algo in CollAlgo::all() {
            for p in [1usize, 2, 3, 4, 5, 7, 8] {
                for n in [0usize, 64, 1000] {
                    let roots: &[usize] = match algo.kind() {
                        CollKind::Bcast
                        | CollKind::Reduce
                        | CollKind::Scatter
                        | CollKind::Gather => {
                            if p > 1 {
                                &[0, 1]
                            } else {
                                &[0]
                            }
                        }
                        _ => &[0],
                    };
                    for &root in roots {
                        let plans = build_all(algo.kind(), algo, p, n, root);
                        assert_eq!(plans.len(), p);
                        let (mut sends, mut recvs) = sends_and_recvs(&plans);
                        sends.sort_unstable();
                        recvs.sort_unstable();
                        assert_eq!(
                            sends, recvs,
                            "{algo} p={p} n={n} root={root}: send/recv envelopes differ"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn binomial_bcast_sends_p_minus_1_messages() {
        for p in [2usize, 3, 8, 13] {
            let plans = build_all(CollKind::Bcast, CollAlgo::BcastBinomial, p, 256, 0);
            let total: usize = plans
                .iter()
                .map(|pl| {
                    pl.steps
                        .iter()
                        .filter(|s| matches!(s.op, StepOp::Send { .. }))
                        .count()
                })
                .sum();
            assert_eq!(total, p - 1);
        }
    }

    #[test]
    fn outputs_exist_where_expected() {
        let p = 6;
        let plans = build_all(CollKind::Reduce, CollAlgo::ReduceRing, p, 4096, 2);
        for plan in &plans {
            if plan.me == 2 {
                assert!(plan.output.is_some());
                assert_eq!(plan.buf_len(plan.output.unwrap()), 4096);
            } else {
                assert!(plan.output.is_none(), "rank {} has output", plan.me);
            }
        }
        let plans = build_all(CollKind::Allreduce, CollAlgo::AllreduceRing, p, 4096, 0);
        for plan in &plans {
            assert_eq!(plan.output.map(|b| plan.buf_len(b)), Some(4096));
        }
    }

    #[test]
    fn gather_linear_root_posts_concurrent_recvs() {
        let p = 5;
        let plans = build_all(CollKind::Gather, CollAlgo::GatherLinear, p, 400, 0);
        let recvs = plans[0]
            .steps
            .iter()
            .filter(|s| matches!(s.op, StepOp::Recv { .. }))
            .count();
        assert_eq!(recvs, p - 1);
        // No recv step depends on another recv: they are all in flight at once.
        for s in &plans[0].steps {
            if matches!(s.op, StepOp::Recv { .. }) {
                assert!(s.deps.is_empty());
            }
        }
    }

    #[test]
    fn single_rank_plans_are_wire_silent() {
        for &algo in CollAlgo::all() {
            let plans = build_all(algo.kind(), algo, 1, 128, 0);
            assert_eq!(plans[0].messages(), 0, "{algo}");
        }
    }
}

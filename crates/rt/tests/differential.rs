//! One seeded random program of nonblocking collectives, run on both
//! backends (a first slice of ROADMAP item 13's differential fuzzer).
//!
//! Every rank posts `iallreduce` / `ibcast` / `ireduce` / `ibarrier` over
//! one to four `dup`'d communicators. The order of the posts per
//! communicator is the same on every rank, as MPI requires, but how the
//! communicators interleave is drawn per rank. Between the posts go
//! point-to-point pairs whose sizes straddle the eager limit, and one
//! blocking ring `sendrecv` on the world communicator. The waits then come
//! in a per-rank shuffled order, one of them replaced by a `test` poll
//! loop. A backend that ran each collective to completion at post time
//! would deadlock on these orders; one that advances them only inside the
//! rank's own calls must finish.
//!
//! Under `Strict`, the simulator and the runtime must agree bit for bit on
//! every payload, count the same messages, and report no finding.

use std::time::Duration;

use ovcomm_rt::{RtConfig, RtRankCtx};
use ovcomm_simmpi::{Comm, Payload, RankCtx, Request, RunOutput, SimConfig, Transport};
use ovcomm_simnet::{MachineProfile, SimDur};

/// The test profile's eager limit, in bytes.
const EAGER: usize = 64 * 1024;
/// Payload sizes, in bytes, on either side of the eager limit.
const SIZES: [usize; 4] = [1024, EAGER - 8, EAGER, EAGER + 32 * 1024];
/// The ring `sendrecv`'s tag; point-to-point pair `k` uses tag `k`.
const RING_TAG: u32 = 1 << 20;

/// splitmix64: a small, seedable generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn size(&mut self) -> usize {
        SIZES[self.below(SIZES.len())]
    }
}

#[derive(Clone, Copy, Debug)]
enum Coll {
    Allreduce { len: usize },
    Bcast { root: usize, len: usize },
    Reduce { root: usize, len: usize },
    Barrier,
}

/// One global program; each rank projects it onto its own calls.
#[derive(Clone, Debug)]
struct Case {
    seed: u64,
    p: usize,
    ndup: usize,
    /// `(communicator, collective)`, in each communicator's call order.
    colls: Vec<(usize, Coll)>,
    /// `(src, dst, bytes, after)`: pair `k` is posted by both sides right
    /// after their `after`-th collective post.
    pairs: Vec<(usize, usize, usize, usize)>,
    /// The ring `sendrecv` comes after this many collective posts.
    ring_after: usize,
    ring_len: usize,
}

impl Case {
    fn new(p: usize, seed: u64) -> Case {
        let mut g = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ p as u64);
        let ndup = 1 + g.below(4);
        let ncolls = 4 + g.below(7);
        let colls = (0..ncolls)
            .map(|_| {
                let comm = g.below(ndup);
                let coll = match g.below(4) {
                    0 => Coll::Allreduce { len: g.size() },
                    1 => Coll::Bcast {
                        root: g.below(p),
                        len: g.size(),
                    },
                    2 => Coll::Reduce {
                        root: g.below(p),
                        len: g.size(),
                    },
                    _ => Coll::Barrier,
                };
                (comm, coll)
            })
            .collect();
        let pairs = (0..2 + g.below(5))
            .map(|_| {
                let src = g.below(p);
                let dst = (src + 1 + g.below(p - 1)) % p;
                (src, dst, g.size(), g.below(ncolls + 1))
            })
            .collect();
        Case {
            seed,
            p,
            ndup,
            colls,
            pairs,
            ring_after: g.below(ncolls + 1),
            ring_len: g.size(),
        }
    }
}

/// `len` bytes of f64s that depend on the rank and the operation.
fn data(rank: usize, op: usize, len: usize) -> Payload {
    let v: Vec<f64> = (0..len / 8)
        .map(|i| ((rank * 31 + op * 7 + i) % 97) as f64 * 0.37 + rank as f64)
        .collect();
    Payload::from_f64s(&v)
}

/// `(length, FNV-1a of the f64 bits)` of a result.
fn digest(p: &Payload) -> (usize, u64) {
    let h = p.to_f64s().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
    });
    (p.len(), h)
}

/// A posted request of any of the shapes the program makes.
enum Posted {
    Data(Request<Payload>),
    Root(Request<Option<Payload>>),
    Unit(Request<()>),
}

impl Posted {
    fn test<T: Transport>(&self, w: &Comm<T>) -> bool {
        match self {
            Posted::Data(r) => w.test(r),
            Posted::Root(r) => w.test(r),
            Posted::Unit(r) => w.test(r),
        }
    }

    fn wait<T: Transport>(&self, w: &Comm<T>) -> Option<(usize, u64)> {
        match self {
            Posted::Data(r) => Some(digest(&w.wait(r))),
            Posted::Root(r) => w.wait(r).as_ref().map(digest),
            Posted::Unit(r) => {
                w.wait(r);
                None
            }
        }
    }
}

/// Let time pass inside a `test` poll loop. A simulated rank must yield
/// to the engine for its clock to move; a runtime rank sleeps for real,
/// so only `test` itself can advance its posted collectives.
fn nap<T: Transport>(rc: &RankCtx<T>) {
    if T::NAME == "sim" {
        rc.sleep(SimDur::from_micros(5));
    } else {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// One rank's projection of `case`. Returns the digest of every result,
/// indexed by collective, then pair, then the ring.
fn program<T: Transport>(rc: &RankCtx<T>, case: &Case) -> Vec<Option<(usize, u64)>> {
    let (me, p) = (rc.rank(), case.p);
    let world = rc.world();
    let comms = world.dup_n(case.ndup);
    let mut order = Rng(case.seed ^ (me as u64 + 1).wrapping_mul(0x9e37_79b9));

    // This rank's post order: each communicator's collectives in call
    // order, the communicators interleaved at random.
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); case.ndup];
    for (i, (c, _)) in case.colls.iter().enumerate().rev() {
        queues[*c].push(i);
    }
    let ncolls = case.colls.len();
    let nres = ncolls + case.pairs.len() + 1;
    let mut posted: Vec<(usize, Posted)> = Vec::new();
    let mut results = vec![None; nres];
    for step in 0..=ncolls {
        for (k, &(src, dst, len, after)) in case.pairs.iter().enumerate() {
            if after != step {
                continue;
            }
            let tag = k as u32;
            if me == src {
                let req = world.isend(dst, tag, data(me, ncolls + k, len));
                posted.push((ncolls + k, Posted::Unit(req)));
            } else if me == dst {
                posted.push((ncolls + k, Posted::Data(world.irecv(src, tag))));
            }
        }
        if step == case.ring_after {
            let out = data(me, nres, case.ring_len);
            let got = world.sendrecv((me + 1) % p, (me + p - 1) % p, RING_TAG, out);
            results[nres - 1] = Some(digest(&got));
        }
        if step == ncolls {
            break;
        }
        let live: Vec<usize> = (0..case.ndup).filter(|&c| !queues[c].is_empty()).collect();
        let c = live[order.below(live.len())];
        let Some(i) = queues[c].pop() else {
            unreachable!("a live queue is not empty")
        };
        let comm = &comms[c];
        let req = match case.colls[i].1 {
            Coll::Allreduce { len } => Posted::Data(comm.iallreduce(data(me, i, len))),
            Coll::Bcast { root, len } => {
                Posted::Data(comm.ibcast(root, (me == root).then(|| data(me, i, len)), len))
            }
            Coll::Reduce { root, len } => Posted::Root(comm.ireduce(root, data(me, i, len))),
            Coll::Barrier => Posted::Unit(comm.ibarrier()),
        };
        posted.push((i, req));
    }

    // Wait in a shuffled order; the first collective in it is polled.
    for i in (1..posted.len()).rev() {
        posted.swap(i, order.below(i + 1));
    }
    let polled = posted.iter().position(|(i, _)| *i < ncolls);
    for (n, (i, req)) in posted.iter().enumerate() {
        if Some(n) == polled {
            while !req.test(&world) {
                nap(rc);
            }
        }
        results[*i] = req.wait(&world);
    }
    results
}

fn on_sim(case: &Case) -> RunOutput<Vec<Option<(usize, u64)>>> {
    let c = case.clone();
    let cfg = SimConfig::natural(case.p, 1, MachineProfile::test_profile());
    ovcomm_simmpi::run(cfg, move |rc: RankCtx| program(&rc, &c))
        .unwrap_or_else(|e| panic!("sim {case:?}: {e}"))
}

fn on_rt(case: &Case) -> RunOutput<Vec<Option<(usize, u64)>>> {
    let c = case.clone();
    let cfg = RtConfig::natural(case.p, 1, MachineProfile::test_profile());
    ovcomm_rt::run(cfg, move |rc: RtRankCtx| program(&rc, &c))
        .unwrap_or_else(|e| panic!("rt {case:?}: {e}"))
}

#[test]
fn random_nonblocking_collective_programs_agree_across_backends() {
    for p in [3, 4, 8] {
        for seed in 1..=8 {
            let case = Case::new(p, seed);
            let (sim, rt) = (on_sim(&case), on_rt(&case));
            assert_eq!(sim.results, rt.results, "{case:?}");
            assert_eq!(sim.messages, rt.messages, "{case:?}");
            assert!(sim.verify.findings.is_empty(), "sim {case:?}");
            assert!(rt.verify.findings.is_empty(), "rt {case:?}");
            // Every rank saw every result it takes part in.
            for (r, res) in sim.results.iter().enumerate() {
                let ring = res.last().copied().flatten();
                assert!(ring.is_some(), "rank {r} lost its ring message");
            }
        }
    }
}

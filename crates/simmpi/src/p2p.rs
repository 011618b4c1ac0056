//! Point-to-point transport: eager and rendezvous protocols over the flow
//! network — what happens to a message once the front end has posted it
//! (`transport::post_send` / `post_recv`) and the agent's
//! `Transport::inject_*` has scheduled this module's engine callbacks at
//! the poster's clock. Those callbacks match through the shared
//! `Mailbox` (the same matcher rt posts to under its lock) and start the
//! flows.
//!
//! Timing model (constants from [`ovcomm_simnet::MachineProfile`]):
//!
//! * **Posting** (charged by the front end, on either backend's clock): a
//!   send costs `small_post`, plus an internal buffer copy (`n / copy_bw`)
//!   for eager messages; a receive costs `small_post`.
//! * **Eager** (`n < eager_limit`): the sender's request completed at post
//!   time (buffered); data is injected after the one-way latency α and
//!   flows to the destination regardless of whether the receive is posted;
//!   the receive completes one unpack copy after both the data has arrived
//!   and the receive was posted.
//! * **Rendezvous** (`n ≥ eager_limit`): the transfer starts only when both
//!   sides have posted, after α plus a handshake round-trip; sender and
//!   receiver requests complete together when the last byte arrives. This
//!   synchronization delay is one of the idle-NIC gaps that the paper's
//!   overlap techniques fill.
//!
//! Flows are capped per-stream at `stream_cap(n)` (inter-node) or
//! `shm_stream_bw` (intra-node) and share NIC/memory resources max–min
//! fairly with every other concurrent transfer — so overlapping operations
//! genuinely raises achieved bandwidth in the model, rather than being
//! assumed to.

use std::sync::Arc;

use ovcomm_simnet::{Action, EdgeKind, SimDur, SimTime};

use crate::agent::{Agent, CLASS_P2P};
use crate::mailbox::{RecvPost, SendPost};
use crate::payload::Payload;
use crate::request::Request;
use crate::state::{EagerHalf, SimSend};
use crate::transport::Envelope;
use crate::universe::UniShared;

/// Transfer path parameters: resources, per-stream cap, latency, rendezvous
/// handshake extra.
pub(crate) struct Path {
    pub(crate) resources: Vec<ovcomm_simnet::ResourceId>,
    pub(crate) cap: f64,
    pub(crate) alpha: SimDur,
    pub(crate) rdv_extra: SimDur,
}

pub(crate) fn path_params(uni: &UniShared, src: u32, dst: u32, n: usize) -> Path {
    let map = &uni.env.nodemap;
    let (src_node, dst_node) = (map.node_of(src as usize), map.node_of(dst as usize));
    let (resources, intra) = uni.resources.path(src_node, dst_node);
    let p = &uni.env.profile;
    if intra {
        Path {
            resources,
            cap: p.shm_stream_bw,
            alpha: p.alpha_intra,
            rdv_extra: SimDur(2 * p.alpha_intra.as_nanos()),
        }
    } else {
        Path {
            resources,
            cap: p.stream_cap(n),
            alpha: p.alpha_inter,
            rdv_extra: p.rendezvous_rtt,
        }
    }
}

/// Engine callback: a send reaches the matching layer at time `ts`.
pub(crate) fn inject_send(
    uni: &Arc<UniShared>,
    key: Envelope,
    payload: Payload,
    eager: bool,
    sender_req: Request<()>,
    ts: SimTime,
) {
    let sender = sender_req.verify_id();
    let mut st = uni.state.lock();
    // An eager message's data leaves now, matched or not, and the mailbox
    // parks only its id; a rendezvous send parks the data itself.
    let (send, eager_data) = if eager {
        let id = st.next_eager;
        st.next_eager += 1;
        (SimSend::Eager { id, sender }, Some((id, payload)))
    } else {
        let send = SimSend::Rendezvous {
            payload,
            sender_req,
        };
        (send, None)
    };
    let matched = st.mailbox.post_send(key, send);
    drop(st);
    if let SendPost::Matched { send, recv } = matched {
        on_match(uni, key, send, recv, ts);
    }
    if let Some((id, payload)) = eager_data {
        launch_eager_flow(uni, key, id, payload, ts);
    }
}

/// Engine callback: a receive reaches the matching layer at time `tr`.
pub(crate) fn inject_recv(uni: &Arc<UniShared>, key: Envelope, req: Request<Payload>, tr: SimTime) {
    let matched = uni.state.lock().mailbox.post_recv(key, req);
    if let RecvPost::Matched { send, recv } = matched {
        on_match(uni, key, send, recv, tr);
    }
}

/// A send and a receive matched at `t`, when the later of the two posted:
/// record the pair, then move the data by the send's protocol.
fn on_match(
    uni: &Arc<UniShared>,
    key: Envelope,
    send: SimSend,
    recv: Request<Payload>,
    t: SimTime,
) {
    match send {
        SimSend::Eager { id, sender } => {
            uni.env.record_match(sender, recv.verify_id());
            if let Some((recv, payload)) = eager_meet(uni, id, EagerHalf::Recv(recv)) {
                // Data already sits in the receiver's internal buffer.
                deliver_eager(uni, key, &recv, payload, t);
            }
        }
        SimSend::Rendezvous {
            payload,
            sender_req,
        } => {
            uni.env
                .record_match(sender_req.verify_id(), recv.verify_id());
            start_rendezvous(uni, key, payload, sender_req, recv, t);
        }
    }
}

/// One half of eager message `id` is here. Park it until the other half
/// comes, or — when the other half came first — hand back both.
fn eager_meet(uni: &UniShared, id: u64, half: EagerHalf) -> Option<(Request<Payload>, Payload)> {
    let mut st = uni.state.lock();
    match (st.eager.remove(&id), half) {
        (None, half) => {
            st.eager.insert(id, half);
            None
        }
        (Some(EagerHalf::Recv(recv)), EagerHalf::Data(payload))
        | (Some(EagerHalf::Data(payload)), EagerHalf::Recv(recv)) => Some((recv, payload)),
        _ => unreachable!("eager message {id} got the same half twice"),
    }
}

/// Complete an eager receive at `t`, when its data and its match are both
/// in: one unpack copy from the internal buffer.
fn deliver_eager(
    uni: &UniShared,
    key: Envelope,
    recv: &Request<Payload>,
    payload: Payload,
    t: SimTime,
) {
    let done = t + uni.env.profile.copy_time(payload.len());
    uni.env.edge(EdgeKind::SendRecv, key.src, t, key.dst, done);
    uni.complete(recv, payload, done);
}

/// Start the modeled flow of one `n`-byte transfer from world rank `src`
/// to `dst`: it enters the network `delay(path)` after `t` and shares the
/// path's resources max–min fairly with every other transfer; `on_land`
/// runs when the last byte arrives.
fn launch_flow(
    uni: &UniShared,
    src: u32,
    dst: u32,
    n: usize,
    t: SimTime,
    delay: impl FnOnce(&Path) -> SimDur,
    on_land: Action,
) {
    let path = path_params(uni, src, dst, n);
    uni.engine.schedule_engine(
        t + delay(&path),
        CLASS_P2P,
        Box::new(move |e| {
            e.start_flow(path.resources, path.cap, n as f64, on_land);
        }),
    );
}

/// Launch the network flow of eager message `id` at `ts` (post-injection
/// time); on arrival, deliver to its matched receive or park the data as
/// "unexpected".
fn launch_eager_flow(uni: &Arc<UniShared>, key: Envelope, id: u64, payload: Payload, ts: SimTime) {
    let (n, uni2) = (payload.len(), uni.clone());
    let on_land: Action = Box::new(move |e| {
        if let Some((recv, payload)) = eager_meet(&uni2, id, EagerHalf::Data(payload)) {
            deliver_eager(&uni2, key, &recv, payload, e.now());
        }
    });
    launch_flow(uni, key.src, key.dst, n, ts, |p| p.alpha, on_land);
}

/// Both sides of a rendezvous message are present at `tp`: run the
/// handshake, then the flow; complete both requests when it lands.
fn start_rendezvous(
    uni: &Arc<UniShared>,
    key: Envelope,
    payload: Payload,
    sender_req: Request<()>,
    recv: Request<Payload>,
    tp: SimTime,
) {
    let (n, uni2) = (payload.len(), uni.clone());
    let on_land: Action = Box::new(move |e| {
        let ta = e.now();
        uni2.env.edge(EdgeKind::SendRecv, key.src, ta, key.dst, ta);
        uni2.complete(&sender_req, (), ta);
        uni2.complete(&recv, payload, ta);
    });
    let handshake = |p: &Path| p.alpha + p.rdv_extra;
    launch_flow(uni, key.src, key.dst, n, tp, handshake, on_land);
}

/// Inject an origin-driven one-sided data flow from world rank `src` to
/// world rank `dst` on `agent`'s behalf, completing `done` when the last
/// byte lands. Mirrors the eager p2p flow: the transfer starts after the
/// one-way latency and shares the path's NIC/memory resources max–min
/// fairly with every other concurrent transfer — no receiver-side post
/// exists or is charged. A get (`src` is the target) also completes the
/// user-visible request with its data, one unpack copy after arrival.
pub(crate) fn rma_transfer(
    agent: &Agent,
    src: u32,
    dst: u32,
    n: usize,
    get: Option<(Request<Payload>, Payload)>,
    done: Request<()>,
) {
    let (uni, uni2) = (agent.uni.clone(), agent.uni.clone());
    let ts = agent.now();
    let on_land: Action = Box::new(move |e| {
        let landed = e.now();
        // A put's edge leaves the origin's post; a get's data is usable
        // one unpack copy after it lands.
        let (from, ta) = match get {
            None => (ts, landed),
            Some(_) => (landed, landed + uni2.env.profile.copy_time(n)),
        };
        uni2.env.edge(EdgeKind::SendRecv, src, from, dst, ta);
        if let Some((req, data)) = get {
            uni2.complete(&req, data, ta);
        }
        uni2.complete(&done, (), ta);
    });
    agent.schedule(
        ts,
        CLASS_P2P,
        Box::new(move |_| launch_flow(&uni, src, dst, n, ts, |p| p.alpha, on_land)),
    );
}

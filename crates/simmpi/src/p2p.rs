//! Point-to-point transport: eager and rendezvous protocols over the flow
//! network — what happens to a message once the front end has posted it
//! (`transport::post_send` / `post_recv`) and the agent's
//! `Transport::inject_*` has scheduled this module's engine callbacks at
//! the poster's clock.
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

use ovcomm_simnet::{EdgeKind, SimDur, SimTime};
use ovcomm_verify::ReqId;

use crate::agent::{Agent, CLASS_P2P};
use crate::payload::Payload;
use crate::request::Request;
use crate::state::{MsgId, SendSlot, SlotState};
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
    let n = payload.len();
    let sender_vid = sender_req.verify_id();
    let msg_id;
    let matched_recv;
    {
        let mut st = uni.state.lock();
        msg_id = st.alloc_msg_id();
        matched_recv = st.recv_q.get_mut(&key).and_then(|q| q.pop_front());
        let slot = SendSlot {
            state: if eager {
                SlotState::EagerInFlight
            } else {
                SlotState::Rendezvous
            },
            payload,
            sender_req,
            // An eager message binds a waiting receive immediately; the
            // receive completes when the data lands.
            bound_recv: if eager { matched_recv.clone() } else { None },
        };
        st.slots.insert(msg_id, slot);
        if matched_recv.is_none() {
            st.send_q.entry(key).or_default().push_back(msg_id);
        }
    }
    if let Some(recv) = &matched_recv {
        uni.env.record_match(sender_vid, recv.verify_id());
    }
    if eager {
        launch_eager_flow(uni, key, msg_id, n, ts);
    } else if let Some(recv) = matched_recv {
        start_rendezvous(uni, key, msg_id, n, recv, ts);
    }
}

/// Engine callback: a receive reaches the matching layer at time `tr`.
// Slot-table `expect`s assert matcher bookkeeping: a queued message id
// always has a live slot.
#[allow(clippy::expect_used, clippy::unwrap_used)]
pub(crate) fn inject_recv(uni: &Arc<UniShared>, key: Envelope, req: Request<Payload>, tr: SimTime) {
    enum Outcome {
        Queued,
        Bound(Option<ReqId>),
        DeliverNow(Payload, usize, Option<ReqId>),
        Rendezvous(MsgId, usize, Option<ReqId>),
    }
    let outcome = {
        let mut st = uni.state.lock();
        let head = st.send_q.get_mut(&key).and_then(|q| q.pop_front());
        match head {
            None => {
                st.recv_q.entry(key).or_default().push_back(req.clone());
                Outcome::Queued
            }
            Some(id) => {
                let slot = st.slots.get_mut(&id).expect("send slot missing");
                match slot.state {
                    SlotState::EagerInFlight => {
                        let svid = slot.sender_req.verify_id();
                        slot.bound_recv = Some(req.clone());
                        Outcome::Bound(svid)
                    }
                    SlotState::EagerArrived => {
                        let slot = st.slots.remove(&id).unwrap();
                        let n = slot.payload.len();
                        Outcome::DeliverNow(slot.payload, n, slot.sender_req.verify_id())
                    }
                    SlotState::Rendezvous => {
                        let n = slot.payload.len();
                        Outcome::Rendezvous(id, n, slot.sender_req.verify_id())
                    }
                }
            }
        }
    };
    match outcome {
        Outcome::Queued => {}
        Outcome::Bound(svid) => {
            uni.env.record_match(svid, req.verify_id());
        }
        Outcome::DeliverNow(payload, n, svid) => {
            uni.env.record_match(svid, req.verify_id());
            // Data already sits in the receiver's internal buffer: one
            // unpack copy from now.
            let done = tr + uni.env.profile.copy_time(n);
            uni.env.edge(EdgeKind::SendRecv, key.src, tr, key.dst, done);
            uni.complete(&req, payload, done);
        }
        Outcome::Rendezvous(id, n, svid) => {
            uni.env.record_match(svid, req.verify_id());
            start_rendezvous(uni, key, id, n, req, tr);
        }
    }
}

/// Launch the network flow of an eager message at `ts` (post-injection
/// time); on arrival, deliver to the bound/waiting receive or park the data
/// as "unexpected".
#[allow(clippy::expect_used, clippy::unwrap_used)]
fn launch_eager_flow(uni: &Arc<UniShared>, key: Envelope, msg_id: MsgId, n: usize, ts: SimTime) {
    let path = path_params(uni, key.src, key.dst, n);
    let uni2 = uni.clone();
    let start_at = ts + path.alpha;
    uni.engine.schedule_engine(
        start_at,
        CLASS_P2P,
        Box::new(move |e| {
            let uni3 = uni2.clone();
            e.start_flow(
                path.resources,
                path.cap,
                n as f64,
                Box::new(move |e2| {
                    let ta = e2.now();
                    let deliver = {
                        let mut st = uni3.state.lock();
                        let slot = st.slots.get_mut(&msg_id).expect("slot vanished");
                        match slot.bound_recv.take() {
                            Some(recv) => {
                                let slot = st.slots.remove(&msg_id).unwrap();
                                Some((recv, slot.payload))
                            }
                            None => {
                                slot.state = SlotState::EagerArrived;
                                None
                            }
                        }
                    };
                    if let Some((recv, payload)) = deliver {
                        let done = ta + uni3.env.profile.copy_time(n);
                        uni3.env
                            .edge(EdgeKind::SendRecv, key.src, ta, key.dst, done);
                        uni3.complete(&recv, payload, done);
                    }
                }),
            );
        }),
    );
}

/// Both sides of a rendezvous message are present at `tp`: run the
/// handshake, then the flow; complete both requests when it lands.
#[allow(clippy::expect_used)]
fn start_rendezvous(
    uni: &Arc<UniShared>,
    key: Envelope,
    msg_id: MsgId,
    n: usize,
    recv: Request<Payload>,
    tp: SimTime,
) {
    let path = path_params(uni, key.src, key.dst, n);
    let start_at = tp + path.alpha + path.rdv_extra;
    let uni2 = uni.clone();
    uni.engine.schedule_engine(
        start_at,
        CLASS_P2P,
        Box::new(move |e| {
            let uni3 = uni2.clone();
            e.start_flow(
                path.resources,
                path.cap,
                n as f64,
                Box::new(move |e2| {
                    let ta = e2.now();
                    let slot = uni3
                        .state
                        .lock()
                        .slots
                        .remove(&msg_id)
                        .expect("rendezvous slot vanished");
                    uni3.env.edge(EdgeKind::SendRecv, key.src, ta, key.dst, ta);
                    uni3.complete(&slot.sender_req, (), ta);
                    uni3.complete(&recv, slot.payload, ta);
                }),
            );
        }),
    );
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
    let uni = agent.uni.clone();
    let path = path_params(&uni, src, dst, n);
    let ts = agent.now();
    let start_at = ts + path.alpha;
    agent.schedule(
        ts,
        CLASS_P2P,
        Box::new(move |_| {
            let uni2 = uni.clone();
            uni.engine.schedule_engine(
                start_at,
                CLASS_P2P,
                Box::new(move |e| {
                    e.start_flow(
                        path.resources,
                        path.cap,
                        n as f64,
                        Box::new(move |e2| {
                            let landed = e2.now();
                            // A put's edge leaves the origin's post; a
                            // get's data is usable one unpack copy after
                            // it lands.
                            let (from, ta) = match get {
                                None => (ts, landed),
                                Some(_) => (landed, landed + uni2.env.profile.copy_time(n)),
                            };
                            uni2.env.edge(EdgeKind::SendRecv, src, from, dst, ta);
                            if let Some((req, data)) = get {
                                uni2.complete(&req, data, ta);
                            }
                            uni2.complete(&done, (), ta);
                        }),
                    );
                }),
            );
        }),
    );
}

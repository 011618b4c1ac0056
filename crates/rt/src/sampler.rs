//! Live runtime telemetry: a low-overhead sampler thread.
//!
//! While a run executes, one background thread wakes every
//! [`RtOpts::sample_interval`](crate::RtOpts::sample_interval) and records
//! a snapshot of the runtime's load indicators into the shared obs
//! registry:
//!
//! * `rt.sampler.pool_queue_depth` — nonblocking collectives posted and
//!   not yet finished (the `simmpi.pool_occupancy` gauge; there is no pool
//!   and nothing queues, the name is historical);
//! * `rt.sampler.mailbox_slots` — unmatched sends parked in the mailbox;
//! * `rt.sampler.posted_recvs` — unmatched posted receives;
//! * `rt.sampler.blocked_ranks` — threads parked inside a wait;
//! * `rt.sampler.samples` — how many snapshots were taken (so downstream
//!   analysis can spot a run too short for the histograms to mean much).
//!
//! All samples land in *histograms*: wall-clock sampling is inherently
//! nondeterministic, and histograms-of-samples keep the full occupancy
//! distribution (median queue depth vs. spikes) rather than one final
//! value. The two mailbox gauges are read under one take of the mailbox
//! lock per tick; the others read atomics. So the sampler's cost to the
//! rank threads is bounded by the sampling frequency, which the
//! `rt_sampler_overhead` test pins.

use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use crate::shared::RtShared;

/// Handle to the running sampler thread; join via [`Sampler::stop`].
pub(crate) struct Sampler {
    stop_tx: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<()>,
}

/// Spawn the sampler thread, recording into `shared`'s metrics registry
/// every `interval` until stopped.
pub(crate) fn start(shared: Arc<RtShared>, interval: Duration) -> Option<Sampler> {
    let reg = shared.env.metrics.registry();
    let pool_queue_depth = reg.histogram("rt.sampler.pool_queue_depth", &[]);
    let mailbox_slots = reg.histogram("rt.sampler.mailbox_slots", &[]);
    let posted_recvs = reg.histogram("rt.sampler.posted_recvs", &[]);
    let blocked_ranks = reg.histogram("rt.sampler.blocked_ranks", &[]);
    let samples = reg.counter("rt.sampler.samples", &[]);
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let handle = std::thread::Builder::new()
        .name("rt-sampler".into())
        .spawn(move || {
            // recv_timeout doubles as the sampling sleep: a stop message
            // (or the sender dropping) ends the loop without a full
            // interval of shutdown latency.
            while let Err(mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                pool_queue_depth.record(shared.env.metrics.pool_occupancy.get());
                let (sends, recvs) = {
                    let mb = shared.mailbox.lock();
                    (mb.unmatched_sends(), mb.posted_recvs())
                };
                mailbox_slots.record(sends as u64);
                posted_recvs.record(recvs as u64);
                blocked_ranks.record(shared.blocked.load(Ordering::Relaxed) as u64);
                samples.inc();
            }
        })
        .ok()?;
    Some(Sampler { stop_tx, handle })
}

impl Sampler {
    /// Stop the sampler and wait for its thread to exit.
    pub fn stop(self) {
        let _ = self.stop_tx.send(());
        let _ = self.handle.join();
    }
}

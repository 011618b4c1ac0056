//! Live runtime telemetry: a low-overhead sampler thread.
//!
//! While a run executes, one background thread wakes every
//! [`RtConfig::sample_interval`](crate::RtConfig) and records a snapshot
//! of the runtime's load indicators into the shared obs registry:
//!
//! * `rt.sampler.pool_queue_depth` — jobs currently running on progress
//!   workers, aggregated across every shard of the progress engine (kept
//!   under its historical name for dashboard compatibility);
//! * `rt.sampler.shard{N}.queue_depth` — the same occupancy per progress
//!   shard, so the N_DUP overlap pattern is visible as parallel load on
//!   distinct shards rather than one blended number;
//! * `rt.sampler.mailbox_slots` — unmatched sends parked in the mailbox;
//! * `rt.sampler.posted_recvs` — unmatched posted receives;
//! * `rt.sampler.blocked_ranks` — threads parked inside a wait;
//! * `rt.sampler.samples` — how many snapshots were taken (so downstream
//!   analysis can spot a run too short for the histograms to mean much).
//!
//! All samples land in *histograms*: wall-clock sampling is inherently
//! nondeterministic, and histograms-of-samples keep the full occupancy
//! distribution (median queue depth vs. spikes) rather than one final
//! value. Every gauge reads matcher-maintained atomics, so the sampler
//! touches nothing on the rank threads' hot paths — its overhead is
//! bounded by the sampling frequency, which the `rt_sampler_overhead`
//! test pins.

use crate::sync::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use ovcomm_obs::{Counter, Histogram};

use crate::shared::RtShared;

/// Handle to the running sampler thread; join via [`Sampler::stop`].
pub(crate) struct Sampler {
    stop_tx: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<()>,
}

/// Spawn the sampler thread, recording into `shared`'s metrics registry
/// every `interval` until stopped.
pub(crate) fn start(shared: Arc<RtShared>, interval: Duration) -> Option<Sampler> {
    struct Handles {
        pool_queue_depth: Histogram,
        shard_queue_depth: Vec<Histogram>,
        mailbox_slots: Histogram,
        posted_recvs: Histogram,
        blocked_ranks: Histogram,
        samples: Counter,
    }
    let reg = shared.env.metrics.registry();
    let h = Handles {
        pool_queue_depth: reg.histogram("rt.sampler.pool_queue_depth", &[]),
        shard_queue_depth: (0..shared.progress.nshards())
            .map(|i| reg.histogram(&format!("rt.sampler.shard{i}.queue_depth"), &[]))
            .collect(),
        mailbox_slots: reg.histogram("rt.sampler.mailbox_slots", &[]),
        posted_recvs: reg.histogram("rt.sampler.posted_recvs", &[]),
        blocked_ranks: reg.histogram("rt.sampler.blocked_ranks", &[]),
        samples: reg.counter("rt.sampler.samples", &[]),
    };
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let handle = std::thread::Builder::new()
        .name("rt-sampler".into())
        .spawn(move || {
            // recv_timeout doubles as the sampling sleep: a stop message
            // (or the sender dropping) ends the loop without a full
            // interval of shutdown latency.
            while let Err(mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                let (slots, recvs) = (
                    shared.mailbox.unmatched_sends(),
                    shared.mailbox.posted_recvs(),
                );
                h.pool_queue_depth
                    .record(shared.env.metrics.pool_occupancy.get());
                for (i, sh) in h.shard_queue_depth.iter().enumerate() {
                    sh.record(shared.progress.occupancy(i) as u64);
                }
                h.mailbox_slots.record(slots as u64);
                h.posted_recvs.record(recvs as u64);
                h.blocked_ranks
                    .record(shared.blocked.load(Ordering::Relaxed) as u64);
                h.samples.inc();
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

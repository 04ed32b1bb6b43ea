//! Shared all-to-all network storm driver, used by `bench_net` (the
//! recorded baseline) and `check_bench` (the CI perf-regression gate's
//! fresh smoke run) so both measure exactly the same workload.

use dtx_net::{LatencyModel, Network, SiteId, Wire};
use std::time::{Duration, Instant};

/// One benchmark frame: (sender site, per-link sequence number).
#[derive(Debug)]
pub struct Frame {
    /// Sending site index.
    pub from: u16,
    /// Per-link sequence number (receivers assert FIFO on it).
    pub seq: u32,
}

impl Wire for Frame {
    fn wire_size(&self) -> usize {
        128
    }
}

/// Result of one storm run.
pub struct StormResult {
    /// Site count.
    pub sites: u16,
    /// Frames per ordered link.
    pub msgs_per_link: u32,
    /// Total frames delivered.
    pub total_msgs: u64,
    /// Wall time until every frame was received.
    pub wall: Duration,
    /// Implied message rate.
    pub msgs_per_s: f64,
    /// Ordered pairs that carried traffic.
    pub links_active: u64,
    /// Delivery threads spawned.
    pub delivery_threads: u64,
}

/// Drives `sites` senders all-to-all: every ordered pair carries
/// `msgs_per_link` frames over a LAN latency model. Returns once every
/// receiver drained its full expected count, asserting **per-link FIFO
/// live** along the way, plus the one-delivery-thread bound.
pub fn storm(sites: u16, msgs_per_link: u32, seed: u64) -> StormResult {
    let net: Network<Frame> = Network::new(LatencyModel::lan(seed));
    let endpoints: Vec<_> = (0..sites).map(|s| net.register(SiteId(s))).collect();
    let expected_per_site = (sites as u64 - 1) * msgs_per_link as u64;
    let total_msgs = expected_per_site * sites as u64;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        // Receivers: drain until the full expected count, checking that
        // every sender's sequence arrives in order (per-link FIFO). Each
        // thread owns its endpoint (the receiver half is Send, not Sync).
        for ep in endpoints {
            scope.spawn(move || {
                let mut next_seq = vec![0u32; sites as usize];
                let mut received = 0u64;
                while received < expected_per_site {
                    let env = ep
                        .recv_timeout(Duration::from_secs(60))
                        .expect("network alive")
                        .expect("storm finishes within the timeout");
                    let f = env.payload;
                    assert_eq!(
                        f.seq, next_seq[f.from as usize],
                        "per-link FIFO violated on {} -> {}",
                        f.from, ep.site
                    );
                    next_seq[f.from as usize] += 1;
                    received += 1;
                }
            });
        }
        // Senders: one thread per site, round-robin over destinations so
        // every link's queue grows evenly.
        for from in 0..sites {
            let net = net.clone();
            scope.spawn(move || {
                for seq in 0..msgs_per_link {
                    for to in 0..sites {
                        if to != from {
                            net.send(SiteId(from), SiteId(to), Frame { from, seq })
                                .expect("send during storm");
                        }
                    }
                }
            });
        }
    });
    let wall = t0.elapsed();
    let links_active = net.stats().links_active();
    let delivery_threads = net.stats().delivery_threads();
    net.shutdown();
    let expected_links = (sites as u64) * (sites as u64 - 1);
    assert_eq!(links_active, expected_links, "every ordered pair counted");
    assert!(
        delivery_threads <= 1,
        "one delivery thread serves every link: {delivery_threads} spawned"
    );
    StormResult {
        sites,
        msgs_per_link,
        total_msgs,
        wall,
        msgs_per_s: total_msgs as f64 / wall.as_secs_f64().max(1e-9),
        links_active,
        delivery_threads,
    }
}

/// Messages per ordered link for an N-site sweep point, scaled so the
/// total message count stays in the low hundreds of thousands as the
/// link count grows quadratically.
pub fn sweep_msgs_per_link(sites: u16, smoke: bool) -> u32 {
    let links = (sites as u64) * (sites as u64 - 1);
    let budget: u64 = if smoke { 32_000 } else { 260_000 };
    (budget / links).clamp(4, 1500) as u32
}

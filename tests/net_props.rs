//! Transport-level properties of the delayed-delivery network.
//!
//! The scheduler's correctness leans on exactly three transport
//! guarantees (see `dtx-net`'s crate docs); these tests pin them:
//!
//! 1. **Per-pair FIFO** under concurrent jittered senders with
//!    size-dependent latency — delivery order equals send order on every
//!    ordered `(from, to)` link, no matter how links interleave globally.
//! 2. **Seed determinism** — the delay schedule of every link is a pure
//!    function of `(seed, from, to, k, bytes)`: same seed ⇒ same
//!    schedule, different seed ⇒ a different one.
//! 3. **A termination message never overtakes the operation it
//!    terminates**: a small `TerminateBatch` sent after a large
//!    `ExecRemote` on the same link arrives after it, even though its
//!    computed delay is far shorter.

use dtx::core::{Message, OpSpec, SiteId, TxnId};
use dtx::net::{link_delay, Envelope, LatencyModel, Network, Wire};
use dtx::xml::document::{Fragment, InsertPos};
use dtx::xpath::{Query, UpdateOp};
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Frame {
    from: u16,
    seq: u32,
    bytes: usize,
}

impl Wire for Frame {
    fn wire_size(&self) -> usize {
        self.bytes
    }
}

/// Deterministic per-thread byte-size stream (so runs are reproducible).
fn size_stream(seed: u64) -> impl FnMut() -> usize {
    let mut x = seed | 1;
    move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        // 16 B .. ~8 KiB: small control frames mixed with fat payloads,
        // so size-dependent latency would reorder without the clamp.
        16 + (x % 8192) as usize
    }
}

#[test]
fn per_link_fifo_survives_concurrent_jittered_storm() {
    const SITES: u16 = 4;
    const PER_LINK: u32 = 120;
    let model = LatencyModel {
        fixed: Duration::from_micros(200),
        per_kib: Duration::from_micros(400),
        jitter: Duration::from_micros(300),
        seed: 0xF1F0,
    };
    let net: Network<Frame> = Network::new(model);
    let endpoints: Vec<_> = (0..SITES).map(|s| net.register(SiteId(s))).collect();
    std::thread::scope(|scope| {
        for ep in endpoints {
            scope.spawn(move || {
                let mut next = vec![0u32; SITES as usize];
                for _ in 0..(SITES as u64 - 1) * PER_LINK as u64 {
                    let env: Envelope<Frame> = ep
                        .recv_timeout(Duration::from_secs(30))
                        .expect("network alive")
                        .expect("storm delivers within the timeout");
                    assert_eq!(
                        env.payload.seq, next[env.payload.from as usize],
                        "link {} -> {} delivered out of send order",
                        env.payload.from, ep.site
                    );
                    next[env.payload.from as usize] += 1;
                }
            });
        }
        for from in 0..SITES {
            let net = net.clone();
            scope.spawn(move || {
                let mut size = size_stream(0xBEEF ^ from as u64);
                for seq in 0..PER_LINK {
                    for to in 0..SITES {
                        if to != from {
                            let bytes = size();
                            net.send(SiteId(from), SiteId(to), Frame { from, seq, bytes })
                                .expect("send");
                        }
                    }
                }
            });
        }
    });
    net.shutdown();
}

/// Shutdown drain: in-flight delayed messages must not vanish — every
/// accepted message is delivered, in per-link FIFO order, before
/// endpoints disconnect, and the flush skips the remaining sleeps (here
/// with jitter, so the two links' messages interleave in the pending
/// queue and the flush must still keep each link in send order).
#[test]
fn reactor_shutdown_flushes_in_flight_messages() {
    let model = LatencyModel {
        fixed: Duration::from_millis(250),
        per_kib: Duration::ZERO,
        jitter: Duration::from_micros(100),
        seed: 9,
    };
    let net: Network<Frame> = Network::new(model);
    let a = net.register(SiteId(0));
    let _b = net.register(SiteId(1));
    let _c = net.register(SiteId(2));
    for seq in 0..25u32 {
        for from in [1u16, 2] {
            net.send(
                SiteId(from),
                SiteId(0),
                Frame {
                    from,
                    seq,
                    bytes: 64,
                },
            )
            .expect("send");
        }
    }
    let t0 = Instant::now();
    net.shutdown();
    assert!(
        t0.elapsed() < Duration::from_millis(200),
        "flush must skip the 250ms sleeps ({:?})",
        t0.elapsed()
    );
    let got = a.drain(100);
    assert_eq!(got.len(), 50, "nothing vanished");
    for from in [1u16, 2] {
        let link: Vec<u32> = got
            .iter()
            .filter(|e| e.payload.from == from)
            .map(|e| e.payload.seq)
            .collect();
        assert_eq!(
            link,
            (0..25).collect::<Vec<_>>(),
            "link {from} FIFO through the flush"
        );
    }
    assert!(matches!(a.recv(), Err(dtx::net::NetError::Closed)));
}

/// The one delivery thread serializes every link through one ordered
/// queue: on top of per-link FIFO, delivery across links follows
/// `deliver_at`. Delays are spaced several ms apart, far beyond any
/// send-time skew between the three senders, so the expected global
/// order is known without timing the sends. The test then
/// shuts down with messages still in flight: completing at all is the
/// no-deadlock assertion (the thread must never block on its own queue).
#[test]
fn one_delivery_thread_orders_cross_link_by_deliver_at_and_shuts_down() {
    // Delay = fixed + per_kib * KiB: distinct sizes give distinct,
    // well-separated delays. No jitter — the order must be exact.
    let model = LatencyModel {
        fixed: Duration::from_millis(10),
        per_kib: Duration::from_millis(8),
        jitter: Duration::ZERO,
        seed: 0,
    };
    let net: Network<Frame> = Network::new(model);
    let a = net.register(SiteId(0));
    for s in 1..=3u16 {
        net.register(SiteId(s));
    }
    // Send in an order unrelated to the delay order: sender 1 slowest
    // (3 KiB → 34ms), sender 3 fastest (1 KiB → 18ms). All sends happen
    // within well under one delay gap (8ms), so deliver_at order is the
    // size order: 3, 2, 1.
    for from in [1u16, 2, 3] {
        let bytes = 1024 * (4 - from as usize);
        net.send(
            SiteId(from),
            SiteId(0),
            Frame {
                from,
                seq: 0,
                bytes,
            },
        )
        .expect("send");
    }
    let mut got = Vec::new();
    for _ in 0..3 {
        got.push(
            a.recv_timeout(Duration::from_secs(10))
                .expect("network alive")
                .expect("delivered")
                .payload
                .from,
        );
    }
    assert_eq!(
        got,
        vec![3, 2, 1],
        "one thread delivers across links in deliver_at order"
    );
    assert_eq!(net.stats().delivery_threads(), 1);
    // In-flight shutdown: queue a fresh burst on every link and shut
    // down immediately. The delivery thread must drain everything (in
    // order) and join — if it ever blocked on its own queue, this would
    // hang, not pass.
    for seq in 0..10u32 {
        for from in [1u16, 2, 3] {
            net.send(
                SiteId(from),
                SiteId(0),
                Frame {
                    from,
                    seq,
                    bytes: 64,
                },
            )
            .expect("send");
        }
    }
    net.shutdown();
    let got = a.drain(100);
    assert_eq!(got.len(), 30, "shutdown drained the in-flight burst");
    for from in [1u16, 2, 3] {
        let link: Vec<u32> = got
            .iter()
            .filter(|e| e.payload.from == from)
            .map(|e| e.payload.seq)
            .collect();
        assert_eq!(link, (0..10).collect::<Vec<_>>(), "link {from} FIFO");
    }
}

#[test]
fn same_seed_gives_identical_per_link_delay_schedules() {
    let schedule = |seed: u64| -> Vec<Duration> {
        let model = LatencyModel::lan(seed);
        let mut out = Vec::new();
        for from in 0..4u16 {
            for to in 0..4u16 {
                if from == to {
                    continue;
                }
                for k in 0..32u64 {
                    let bytes = 16 + ((k * 977) % 8192) as usize;
                    out.push(link_delay(&model, SiteId(from), SiteId(to), k, bytes));
                }
            }
        }
        out
    };
    let a = schedule(2009);
    let b = schedule(2009);
    assert_eq!(a, b, "same seed must reproduce every link's delay stream");
    let c = schedule(2010);
    assert_ne!(a, c, "a different seed must draw a different stream");
}

#[test]
fn terminate_batch_never_overtakes_exec_remote() {
    // A fat ExecRemote (64 KiB fragment) followed by a tiny
    // TerminateBatch on the same link: the batch's computed delay is
    // orders of magnitude shorter, but it must still arrive second —
    // the scheduler aborts in-flight operations relying on exactly this.
    let model = LatencyModel {
        fixed: Duration::from_micros(100),
        per_kib: Duration::from_millis(2),
        jitter: Duration::from_micros(500),
        seed: 77,
    };
    for round in 0..5u64 {
        let mut m = model;
        m.seed = 77 + round;
        let net: Network<Message> = Network::new(m);
        let a = net.register(SiteId(0));
        let _b = net.register(SiteId(1));
        let big_op = OpSpec::update(
            "doc",
            UpdateOp::Insert {
                target: Query::parse("/r").unwrap(),
                fragment: Fragment::elem_text("blob", "x".repeat(64 * 1024)),
                pos: InsertPos::Into,
            },
        );
        net.send(
            SiteId(1),
            SiteId(0),
            Message::ExecRemote {
                txn: TxnId(1),
                coordinator: SiteId(1),
                op_seq: 0,
                op: big_op,
                corr: 1,
                update_txn: true,
                doc_version: 1,
                fragment: false,
            },
        )
        .unwrap();
        net.send(
            SiteId(1),
            SiteId(0),
            Message::TerminateBatch {
                commits: vec![],
                aborts: vec![TxnId(1)],
            },
        )
        .unwrap();
        let first = a
            .recv_timeout(Duration::from_secs(10))
            .unwrap()
            .expect("delivered");
        let second = a
            .recv_timeout(Duration::from_secs(10))
            .unwrap()
            .expect("delivered");
        assert!(
            matches!(first.payload, Message::ExecRemote { .. }),
            "round {round}: ExecRemote must arrive first, got {:?}",
            first.payload
        );
        assert!(
            matches!(second.payload, Message::TerminateBatch { .. }),
            "round {round}: TerminateBatch must arrive second, got {:?}",
            second.payload
        );
        net.shutdown();
    }
}

/// Delivery across links is exact, not rounded to some scheduling tick:
/// a 2 KiB frame on 1→0 followed at once by a 1 KiB frame on 2→0, which
/// falls due 30 µs earlier, must arrive second. A trial whose two sends
/// were more than 10 µs apart proves nothing (the second frame may then
/// fall due later) and is redone, up to a cap.
#[test]
fn cross_link_delivery_follows_deliver_at_exactly() {
    const TRIALS: usize = 30;
    const MAX_ATTEMPTS: usize = 3000;
    let model = LatencyModel {
        fixed: Duration::from_millis(2),
        per_kib: Duration::from_micros(30),
        jitter: Duration::ZERO,
        seed: 0,
    };
    let net: Network<Frame> = Network::new(model);
    let a = net.register(SiteId(0));
    net.register(SiteId(1));
    net.register(SiteId(2));
    let frame = |from: u16, seq: u32, bytes: usize| Frame { from, seq, bytes };
    let recv = || {
        a.recv_timeout(Duration::from_secs(10))
            .expect("network alive")
            .expect("delivered")
            .payload
    };
    // Warm-up: the first delayed send spawns the delivery thread.
    net.send(SiteId(1), SiteId(0), frame(1, 0, 64))
        .expect("send");
    recv();
    let (mut trials, mut attempts) = (0, 0);
    while trials < TRIALS {
        attempts += 1;
        assert!(
            attempts <= MAX_ATTEMPTS,
            "only {trials} of {attempts} trials sent both frames within 10 µs"
        );
        let (big, small) = (frame(1, 1, 2048), frame(2, 1, 1024));
        let t0 = Instant::now();
        net.send(SiteId(1), SiteId(0), big).expect("send");
        net.send(SiteId(2), SiteId(0), small).expect("send");
        let gap = t0.elapsed();
        let order = [recv().from, recv().from];
        if gap > Duration::from_micros(10) {
            continue;
        }
        assert_eq!(
            order,
            [2, 1],
            "trial {trials}: the frame due 30 µs earlier must arrive first"
        );
        trials += 1;
    }
    net.shutdown();
}

/// No message is delivered before its modelled instant: with jitter on
/// three links, each arrival comes at least `link_delay` after the
/// instant taken just before its `send`.
#[test]
fn no_message_arrives_before_its_delay() {
    const PER_LINK: u32 = 40;
    let model = LatencyModel {
        fixed: Duration::from_micros(500),
        per_kib: Duration::from_micros(200),
        jitter: Duration::from_micros(700),
        seed: 0xEA71,
    };
    let net: Network<Frame> = Network::new(model);
    let a = net.register(SiteId(0));
    for s in 1..=3u16 {
        net.register(SiteId(s));
    }
    let (earliest, arrivals) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut arrivals = Vec::new();
            for _ in 0..3 * PER_LINK {
                let env = a
                    .recv_timeout(Duration::from_secs(10))
                    .expect("network alive")
                    .expect("delivered");
                arrivals.push((env.payload.from, env.payload.seq, Instant::now()));
            }
            arrivals
        });
        let mut earliest = Vec::new();
        let mut size = size_stream(0x5EED);
        for seq in 0..PER_LINK {
            for from in 1..=3u16 {
                let bytes = size();
                let delay = link_delay(&model, SiteId(from), SiteId(0), seq as u64, bytes);
                let before = Instant::now();
                net.send(SiteId(from), SiteId(0), Frame { from, seq, bytes })
                    .expect("send");
                earliest.push(((from, seq), before + delay));
            }
            std::thread::sleep(Duration::from_micros(300));
        }
        let arrivals = receiver.join().expect("receiver");
        (earliest, arrivals)
    });
    assert_eq!(arrivals.len(), earliest.len());
    for (from, seq, at) in arrivals {
        let (_, due) = earliest
            .iter()
            .find(|(key, _)| *key == (from, seq))
            .expect("every arrival was sent");
        assert!(
            at >= *due,
            "link {from} -> 0 message {seq} arrived {:?} early",
            *due - at
        );
    }
    net.shutdown();
}

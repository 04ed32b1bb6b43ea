//! Process-mode integration: two [`SiteHost`]s meshed over real
//! localhost TCP, driven entirely through the `WIRE.md` control plane —
//! the in-process twin of the `dtx-site` binary pair that CI's wire
//! smoke spawns as OS processes.
//!
//! Pinned properties:
//!
//! 1. **Distributed commits over the wire** — a fragmented document
//!    split across the two nodes serves cross-node transactions from
//!    both coordinators; every submission terminates and a majority
//!    commits.
//! 2. **Catalog gossip convergence** — a placement registered on one
//!    node alone reaches the other node's catalog by anti-entropy
//!    within a few gossip periods, converging to the dominant version.
//! 3. **Per-pair FIFO on the socket transport** — the `tests/net_props.rs`
//!    storm shape replayed over a real TCP link: concurrent senders on
//!    size-varying frames, delivery order equals send order per
//!    `(from, to)` pair.
//! 4. **No silent hang on the control plane** — a submission no hosted
//!    scheduler can answer is answered by the host, as a failure.

use dtx::core::wire::CtrlMsg;
use dtx::core::{CtrlClient, Message, OpSpec, SiteHost, SiteHostConfig, TxnId, TxnSpec, TxnStatus};
use dtx::net::socket::{SocketConfig, SocketTransport};
use dtx::net::SiteId;
use dtx::xpath::Query;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Boots `n` single-site hosts on OS-assigned ports and meshes them
/// (driver-side `Peers` + `Ready` handshake), returning the hosts and a
/// connected control client.
fn mesh(n: u16) -> (Vec<SiteHost>, CtrlClient) {
    let hosts: Vec<SiteHost> = (0..n)
        .map(|i| {
            let mut config = SiteHostConfig::new(&[SiteId(i)], n);
            // Tight gossip so convergence tests finish quickly.
            config.gossip_every = Duration::from_millis(10);
            SiteHost::start(config).expect("host starts")
        })
        .collect();
    let client = CtrlClient::bind().expect("driver binds");
    for h in &hosts {
        client
            .connect(&h.local_addr().to_string(), &[h.node_id()])
            .expect("driver connects");
    }
    let peers: Vec<(SiteId, String)> = hosts
        .iter()
        .map(|h| (h.node_id(), h.local_addr().to_string()))
        .collect();
    for h in &hosts {
        client
            .send(
                h.node_id(),
                &CtrlMsg::Peers {
                    total_sites: n,
                    peers: peers.clone(),
                },
            )
            .expect("peers sent");
    }
    for _ in 0..n {
        let ready = recv_match(&client, |m| matches!(m, CtrlMsg::Ready { .. }));
        assert!(ready, "every node reports Ready");
    }
    (hosts, client)
}

/// Receives until `want` matches (true) or ten seconds pass (false).
fn recv_match(client: &CtrlClient, want: impl Fn(&CtrlMsg) -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        match client.recv(deadline - Instant::now()) {
            Some((_, msg)) if want(&msg) => return true,
            Some(_) => continue,
            None => break,
        }
    }
    false
}

#[test]
fn two_hosts_commit_distributed_transactions_over_tcp() {
    let (hosts, client) = mesh(2);

    // One logical document fragmented across both nodes, loaded and
    // registered through the control plane exactly as the bench driver
    // does it: every fragment in place before the placement publishes.
    let frags = [
        (SiteId(0), "<site><a><id>1</id></a><a><id>2</id></a></site>"),
        (SiteId(1), "<site><a><id>3</id></a><a><id>4</id></a></site>"),
    ];
    for (site, xml) in frags {
        let corr = client.corr();
        client
            .send(
                site,
                &CtrlMsg::LoadDoc {
                    corr,
                    doc: "d".into(),
                    xml: xml.into(),
                },
            )
            .expect("load sent");
        let ok = recv_match(
            &client,
            |m| matches!(m, CtrlMsg::Ack { corr: c, ok: true, .. } if *c == corr),
        );
        assert!(ok, "fragment loads on {site:?}");
    }
    for h in &hosts {
        let corr = client.corr();
        client
            .send(
                h.node_id(),
                &CtrlMsg::Register {
                    corr,
                    doc: "d".into(),
                    sites: vec![SiteId(0), SiteId(1)],
                    fragmented: true,
                },
            )
            .expect("register sent");
        let ok = recv_match(
            &client,
            |m| matches!(m, CtrlMsg::Ack { corr: c, ok: true, .. } if *c == corr),
        );
        assert!(ok, "placement registers on {:?}", h.node_id());
    }

    // Cross-node reads from both coordinators: resolving `/site/a` needs
    // both fragments, so every transaction crosses the real wire.
    let total = 10usize;
    for i in 0..total {
        let corr = client.corr();
        client
            .send(
                SiteId((i % 2) as u16),
                &CtrlMsg::Submit {
                    corr,
                    spec: TxnSpec::new(vec![OpSpec::query(
                        "d",
                        Query::parse("/site/a/id").expect("query parses"),
                    )]),
                },
            )
            .expect("submit sent");
    }
    let mut committed = 0usize;
    for _ in 0..total {
        let deadline = Instant::now() + Duration::from_secs(30);
        let outcome = loop {
            match client.recv(deadline - Instant::now()) {
                Some((_, CtrlMsg::Outcome { status, .. })) => break Some(status),
                Some(_) => continue,
                None => break None,
            }
        };
        if let TxnStatus::Committed = outcome.expect("every submission terminates") {
            committed += 1;
        }
    }
    assert!(committed >= total / 2, "committed only {committed}/{total}");

    // Real bytes crossed the wire on both nodes.
    for h in &hosts {
        let (bytes_out, bytes_in, frames_out, frames_in) = h.wire_stats();
        assert!(
            bytes_out > 0 && bytes_in > 0 && frames_out > 0 && frames_in > 0,
            "node {:?} never used the wire: {bytes_out}/{bytes_in} B",
            h.node_id()
        );
    }

    client.shutdown();
    for h in hosts {
        h.shutdown();
    }
}

#[test]
fn catalog_gossip_converges_one_sided_registrations() {
    let (hosts, client) = mesh(2);

    // Register a placement on node 0 ONLY — node 1 can learn it from
    // anti-entropy gossip alone.
    let corr = client.corr();
    client
        .send(
            SiteId(0),
            &CtrlMsg::Register {
                corr,
                doc: "lonely".into(),
                sites: vec![SiteId(0)],
                fragmented: false,
            },
        )
        .expect("register sent");
    assert!(recv_match(&client, |m| {
        matches!(m, CtrlMsg::Ack { corr: c, ok: true, .. } if *c == corr)
    }));

    let deadline = Instant::now() + Duration::from_secs(10);
    let converged = loop {
        if !hosts[1].catalog().sites_of("lonely").is_empty() {
            break true;
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(converged, "node 1 never learned the gossiped placement");

    client.shutdown();
    for h in hosts {
        h.shutdown();
    }
}

#[test]
fn socket_transport_preserves_per_pair_fifo_under_storm() {
    // The net_props storm shape over a real TCP link: two transports,
    // two sites each, concurrent senders, frames of wildly varying size
    // (TerminateBatch length varies 1..~180 txn ids). FIFO must hold
    // per (from, to) pair purely from send-order + TCP ordering.
    const PER_LINK: u64 = 150;
    let a: SocketTransport<Message> = SocketTransport::bind(
        &[SiteId(0), SiteId(1)],
        "127.0.0.1:0",
        SocketConfig::default(),
    )
    .expect("bind a");
    let b: SocketTransport<Message> = SocketTransport::bind(
        &[SiteId(2), SiteId(3)],
        "127.0.0.1:0",
        SocketConfig::default(),
    )
    .expect("bind b");
    let (tx, rx) = mpsc::channel::<(SiteId, SiteId, u64)>();
    b.set_msg_handler(Some(std::sync::Arc::new(
        move |env: dtx::net::Envelope<Message>| {
            // seq rides in the first commit id; frame size varies with the
            // batch length.
            if let Message::TerminateBatch { commits, .. } = &env.payload {
                let _ = tx.send((env.from, env.to, commits[0].0));
            }
        },
    )));
    a.connect(&b.local_addr().to_string(), &[SiteId(2), SiteId(3)])
        .expect("a dials b");

    let mut size = {
        let mut x = 0xBEEFu64;
        move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            1 + (x % 180) as usize
        }
    };
    // Interleave all four (from, to) pairs from two threads.
    std::thread::scope(|scope| {
        for from in [SiteId(0), SiteId(1)] {
            let a = a.clone();
            let mut sizes: Vec<usize> = (0..PER_LINK * 2).map(|_| size()).collect();
            scope.spawn(move || {
                for seq in 0..PER_LINK {
                    for to in [SiteId(2), SiteId(3)] {
                        let n = sizes.pop().expect("enough sizes");
                        let batch = Message::TerminateBatch {
                            commits: std::iter::once(TxnId(seq))
                                .chain((0..n as u64).map(TxnId))
                                .collect(),
                            aborts: vec![],
                        };
                        a.send_msg(from, to, &batch).expect("send");
                    }
                }
            });
        }
    });

    let mut next = std::collections::HashMap::<(SiteId, SiteId), u64>::new();
    for _ in 0..(4 * PER_LINK) {
        let (from, to, seq) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("storm delivers");
        let want = next.entry((from, to)).or_insert(0);
        assert_eq!(seq, *want, "link {from:?} -> {to:?} out of send order");
        *want += 1;
    }

    a.shutdown();
    b.shutdown();
}

#[test]
fn submit_to_a_site_the_host_does_not_own_fails_promptly() {
    // The driver's peer map is wrong: it believes site 1 lives on the
    // process that only hosts site 0. The host must say so instead of
    // leaving the driver to wait out its own timeout.
    let host = SiteHost::start(SiteHostConfig::new(&[SiteId(0)], 2)).expect("host starts");
    let client = CtrlClient::bind().expect("driver binds");
    client
        .connect(&host.local_addr().to_string(), &[SiteId(0), SiteId(1)])
        .expect("driver connects");
    let corr = client.corr();
    let sent = Instant::now();
    client
        .send(
            SiteId(1),
            &CtrlMsg::Submit {
                corr,
                spec: TxnSpec::new(vec![OpSpec::query("d", Query::parse("/site").unwrap())]),
            },
        )
        .expect("submit sent");
    let (_, reply) = client
        .recv(Duration::from_secs(1))
        .expect("the host answers well inside a second");
    match reply {
        CtrlMsg::Outcome {
            corr: c,
            status: TxnStatus::Failed(why),
            ..
        } => {
            assert_eq!(c, corr);
            assert!(why.contains("s1 not hosted here"), "{why}");
        }
        other => panic!("expected a Failed outcome, got {other:?}"),
    }
    assert!(sent.elapsed() < Duration::from_secs(1));
    client.shutdown();
    host.shutdown();
}

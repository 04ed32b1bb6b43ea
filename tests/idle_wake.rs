//! A parked site wakes for every kind of work handed to it.
//!
//! A scheduler with nothing runnable sleeps on its network endpoint until
//! a message, a wake-up or its next timer. Client commands and kills
//! arrive on other channels and must wake it, or they wait for that
//! timer. This file is its own test binary so no sibling test competes
//! for the CPU while the latency test measures.

use dtx::core::{Cluster, ClusterConfig, OpSpec, ProtocolKind, SiteId, TxnSpec};
use dtx::xpath::Query;
use std::time::{Duration, Instant};

const DOC: &str = "<r><a>1</a></r>";
const S0: SiteId = SiteId(0);

fn one_read() -> TxnSpec {
    TxnSpec::new(vec![OpSpec::query("d", Query::parse("/r/a").unwrap())])
}

/// A 1-site cluster holding `DOC`. With a 30 s detector period the
/// detector's next round is the only timer an idle site has, so a
/// missed wake-up shows as a 30 s stall.
fn parked_site() -> Cluster {
    let config =
        ClusterConfig::new(1, ProtocolKind::Xdgl).with_deadlock_period(Duration::from_secs(30));
    let cluster = Cluster::start(config);
    cluster.load_document("d", DOC, &[S0]).unwrap();
    park();
    cluster
}

/// Gives the scheduler time to finish its pass and block.
fn park() {
    std::thread::sleep(Duration::from_millis(20));
}

/// Runs `f` and asserts it returned within a second.
fn within_a_second<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "{what} took {took:?}");
    out
}

#[test]
fn a_submit_to_an_idle_site_is_served_at_once() {
    let cluster = Cluster::start(ClusterConfig::new(1, ProtocolKind::Xdgl));
    cluster.load_document("d", DOC, &[S0]).unwrap();
    // splitmix64 over a fixed seed: each submit lands at a random point
    // of the site's wait. A fixed pause could phase-lock with a periodic
    // poll and hide it.
    let mut state = 0x1D1E_u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let spec = one_read();
    let mut took = Vec::with_capacity(200);
    for _ in 0..200 {
        std::thread::sleep(Duration::from_micros(300 + next() % 1_000));
        let spec = spec.clone();
        let t0 = Instant::now();
        let out = cluster.submit(S0, spec);
        took.push(t0.elapsed());
        assert!(out.committed(), "{:?}", out.status);
    }
    cluster.shutdown();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_micros(150),
        "median submit round trip {median:?} (p10 {:?}, p90 {:?})",
        took[took.len() / 10],
        took[took.len() * 9 / 10]
    );
}

#[test]
fn submit_wakes_a_parked_site() {
    let cluster = parked_site();
    let out = within_a_second("submit", || cluster.submit(S0, one_read()));
    assert!(out.committed(), "{:?}", out.status);
    cluster.shutdown();
}

#[test]
fn load_and_dump_wake_a_parked_site() {
    let cluster = parked_site();
    within_a_second("load_document", || {
        cluster.load_document("e", "<e/>", &[S0]).unwrap()
    });
    park();
    let shipment = within_a_second("dump_document", || {
        cluster.instance(S0).dump_document("d").unwrap()
    });
    assert_eq!(shipment.xml, DOC);
    cluster.shutdown();
}

#[test]
fn kill_and_restart_wake_a_parked_site() {
    let mut cluster = parked_site();
    within_a_second("kill_site", || cluster.kill_site(S0));
    within_a_second("restart_site", || cluster.restart_site(S0));
    park();
    let out = within_a_second("submit after restart", || cluster.submit(S0, one_read()));
    assert!(out.committed(), "{:?}", out.status);
    cluster.shutdown();
}

#[test]
fn shutdown_wakes_a_parked_site() {
    let cluster = parked_site();
    within_a_second("Cluster::shutdown", || cluster.shutdown());
}

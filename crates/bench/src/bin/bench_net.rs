//! `bench_net` — the network fabric's bounded-thread scaling claim.
//!
//! The paper's testbed is a switched full-duplex LAN (§3.1): every pair
//! of sites has an independent path. `dtx-net` models it with a
//! **sharded timer-wheel reactor** whose delivery-thread count is
//! bounded by `NetConfig::workers` no matter how many links carry
//! traffic. This bench runs the all-to-all storm at `8/32/64/128` sites:
//! 128 sites is 16,256 ordered links — a thread per link would be ~16k
//! OS threads — and completes with a recorded, bounded delivery-thread
//! count. (The two earlier fabrics the reactor was measured against, a
//! single hub thread and a thread per link, are gone; their recorded
//! verdict is quoted in EXPERIMENTS.md.)
//!
//! Every receiver asserts **per-link FIFO live** (each sender's payload
//! sequence arrives strictly in send order), so a clamp regression fails
//! the run outright, at every scale.
//!
//! Flags: `--smoke` shrinks everything to a seconds-scale CI subset and
//! leaves `BENCH_net.json` untouched; `--sites N` runs the storm at
//! exactly N sites (CI's scale smoke uses `--smoke --sites 64`). The
//! full run (no flags) refreshes `BENCH_net.json`, which `check_bench`
//! gates on.

use dtx_bench::netbench::{storm, sweep_msgs_per_link, StormResult};
use dtx_net::NetConfig;
use std::fmt::Write as _;

fn print_result(r: &StormResult) {
    println!(
        "{:>4} sites  wall {:>9.2} ms  {:>10.0} msgs/s  links {:>6}  threads {:>5}",
        r.sites,
        r.wall.as_secs_f64() * 1e3,
        r.msgs_per_s,
        r.links_active,
        r.delivery_threads,
    );
}

fn json_entry(out: &mut String, r: &StormResult) {
    let _ = write!(
        out,
        "{{\"sites\": {}, \"msgs_per_link\": {}, \
         \"total_msgs\": {}, \"wall_ms\": {:.2}, \"msgs_per_s\": {:.0}, \
         \"links_active\": {}, \"delivery_threads\": {}}}",
        r.sites,
        r.msgs_per_link,
        r.total_msgs,
        r.wall.as_secs_f64() * 1e3,
        r.msgs_per_s,
        r.links_active,
        r.delivery_threads,
    );
}

fn write_json(sweep: &[StormResult]) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"experiment\": \"bench_net\",\n  \"sites_sweep\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        out.push_str("    ");
        json_entry(&mut out, r);
        out.push_str(if i + 1 < sweep.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_net.json", out)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = dtx_bench::seed_from_args();
    let smoke = args.iter().any(|a| a == "--smoke");
    let sites_arg: Option<u16> = args
        .iter()
        .position(|a| a == "--sites")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--sites takes a site count"));

    println!("# bench_net — all-to-all storm over the timer-wheel reactor");
    if let Some(sites) = sites_arg {
        // Scale smoke: one storm at the requested site count — the
        // bounded-thread claim exercised on every push.
        let msgs = sweep_msgs_per_link(sites, smoke);
        println!("# storm: {sites} sites all-to-all, {msgs} msgs per ordered link");
        let r = storm(sites, msgs, seed);
        print_result(&r);
        println!(
            "# {} links drained by {} delivery threads (bound: {})",
            r.links_active,
            r.delivery_threads,
            NetConfig::default().workers
        );
        return;
    }

    // Sites sweep, up to the scale a thread per link could not reach
    // (128 sites all-to-all would need ~16k OS threads).
    let sweep_sites: &[u16] = if smoke { &[16] } else { &[8, 32, 64, 128] };
    let mut sweep = Vec::new();
    for &sites in sweep_sites {
        let msgs = sweep_msgs_per_link(sites, smoke);
        let r = storm(sites, msgs, seed);
        print_result(&r);
        sweep.push(r);
    }

    if smoke {
        println!("# smoke run: BENCH_net.json left untouched");
    } else {
        match write_json(&sweep) {
            Ok(()) => println!("# baseline written to BENCH_net.json"),
            Err(e) => eprintln!("could not write BENCH_net.json: {e}"),
        }
    }
}

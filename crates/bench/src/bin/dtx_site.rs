//! `dtx-site` — host DTX sites as a standalone OS process.
//!
//! One invocation boots the schedulers for the sites named by `--host`,
//! listens for `WIRE.md` frames, prints `DTX-SITE LISTENING <addr>` on
//! stdout (the driver's rendezvous line), and serves until a `Shutdown`
//! control frame arrives.
//!
//! ```text
//! dtx-site --host 0 --total 4 [--listen 127.0.0.1:0] [--seed N]
//! ```
//!
//! `--host` takes a comma-separated site list, so one process can host
//! several sites (the two-process demo in `README.md` runs `--host 0,1`
//! and `--host 2,3`). The process knows only the placements the driver
//! registers with it; nodes do not exchange catalogs.

use dtx_core::{SiteHost, SiteHostConfig, SiteId};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: dtx-site --host <site[,site...]> --total <n> \
         [--listen <addr>] [--seed <n>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut hosted: Vec<SiteId> = Vec::new();
    let mut total: u16 = 0;
    let mut listen = "127.0.0.1:0".to_string();
    let mut seed: u64 = 0xD7C5;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--host" => {
                hosted = val()
                    .split(',')
                    .map(|s| s.trim().parse::<u16>().map(SiteId))
                    .collect::<Result<_, _>>()
                    .unwrap_or_else(|_| usage());
            }
            "--total" => total = val().parse().unwrap_or_else(|_| usage()),
            "--listen" => listen = val(),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if hosted.is_empty() || total == 0 {
        usage();
    }

    let mut config = SiteHostConfig::new(&hosted, total);
    config.listen = listen;
    config.seed = seed;
    let host = match SiteHost::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("dtx-site: {e}");
            std::process::exit(1);
        }
    };
    // The rendezvous line the driver parses; must be first on stdout.
    println!("DTX-SITE LISTENING {}", host.local_addr());

    while !host.wait_shutdown(Duration::from_secs(3600)) {}
    let (bytes_out, bytes_in, frames_out, frames_in) = host.wire_stats();
    host.shutdown();
    eprintln!(
        "dtx-site: done (wire: {bytes_out} B out / {bytes_in} B in, \
         {frames_out} frames out / {frames_in} frames in)"
    );
}

//! Output checks. A failing check is an `Err`; `main` then prints no
//! metrics and exits non-zero.

use crate::runner::Tally;
use crate::target::TcpMesh;
use dtx_core::{Cluster, OpSpec, RecoveryReport, SiteId, TxnSpec};
use dtx_dataguide::{DataGuide, GuideId};
use dtx_xmark::fragment::{Fragmented, LOGICAL_DOC};
use dtx_xml::Document;
use dtx_xpath::{Query, UpdateOp};
use std::time::{Duration, Instant};

/// Every attempted transaction terminated, and none as `Failed`.
pub fn all_terminated(t: &Tally) -> Result<(), String> {
    if t.unterminated > 0 || t.failed > 0 {
        return Err(format!(
            "{} of {} transactions never terminated and {} ended Failed",
            t.unterminated, t.attempted, t.failed
        ));
    }
    Ok(())
}

/// The guide as a sorted list of `(label path, is-attribute, extent)`
/// over paths that currently classify at least one node. An
/// incrementally maintained guide keeps emptied paths at extent 0 and
/// numbers its nodes in first-seen order, so neither ids nor empty
/// paths take part in the comparison.
fn live_paths(guide: &DataGuide) -> Vec<(String, bool, u64)> {
    let mut paths: Vec<(String, bool, u64)> = (0..guide.len())
        .map(|i| GuideId(i as u32))
        .filter(|&id| guide.node(id).extent > 0)
        .map(|id| {
            let n = guide.node(id);
            (guide.label_path(id).join("/"), n.is_attr, n.extent)
        })
        .collect();
    paths.sort();
    paths
}

/// Waits until no site holds applied, not-yet-terminated updates. The
/// client hears an outcome before every participant has finished
/// committing or undoing, so a dump taken at once could pair a
/// committed document with a guide that still counts an in-flight
/// update.
fn quiesce(cluster: &Cluster) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    for site in cluster.sites() {
        while !cluster.instance(site).doc_quiescent(LOGICAL_DOC)? {
            if Instant::now() > deadline {
                return Err(format!(
                    "{site} still holds unterminated updates after 10 s"
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    Ok(())
}

/// Makes every site persist the document it holds: one committed
/// transaction that changes one auction's price in each fragment.
///
/// `dump_document` serialises the last *persisted* state, and a site
/// persists its whole in-memory document when a transaction commits —
/// including updates other transactions have applied and not yet
/// terminated. If one of those then aborts and nothing commits there
/// afterwards, the dump keeps the aborted change (seen about once in 30
/// `fig12_lan` runs as a guide one `person` short of its document). The
/// checks below are about guide maintenance and recovery, so they first
/// bring store and memory level.
fn settle(cluster: &Cluster, frags: &Fragmented) -> Result<(), String> {
    let ops = frags
        .fragments
        .iter()
        .filter_map(|f| f.open_auction_ids.first())
        .map(|id| {
            let target = format!("/site/open_auctions/open_auction[id={id}]/current");
            OpSpec::update(
                LOGICAL_DOC,
                UpdateOp::Change {
                    target: Query::parse(&target).expect("well-formed path"),
                    new_value: "1.00".into(),
                },
            )
        })
        .collect();
    let outcome = cluster.submit(SiteId(0), TxnSpec::new(ops));
    if !outcome.committed() {
        return Err(format!("settling transaction ended {:?}", outcome.status));
    }
    quiesce(cluster)
}

/// Each site's maintained DataGuide equals the guide built from scratch
/// over the document it dumps.
pub fn guides_match_documents(cluster: &Cluster, frags: &Fragmented) -> Result<(), String> {
    quiesce(cluster)?;
    settle(cluster, frags)?;
    for site in cluster.sites() {
        let dump = cluster.instance(site).dump_document(LOGICAL_DOC)?;
        let maintained = DataGuide::from_wire(&dump.guide_wire)?;
        let doc = Document::parse(&dump.xml).map_err(|e| format!("{site} dump: {e}"))?;
        let rebuilt = DataGuide::build(&doc);
        let (m, r) = (live_paths(&maintained), live_paths(&rebuilt));
        if m != r {
            let only = |a: &[(String, bool, u64)], b: &[(String, bool, u64)]| -> Vec<String> {
                a.iter()
                    .filter(|p| !b.contains(p))
                    .map(|(path, _, extent)| format!("{path}={extent}"))
                    .collect()
            };
            return Err(format!(
                "{site}: maintained DataGuide differs from a rebuild over the dumped document: \
                 maintained has [{}], rebuilt has [{}]",
                only(&m, &r).join(", "),
                only(&r, &m).join(", ")
            ));
        }
    }
    Ok(())
}

/// Kills `site`, restarts it from its WAL, and requires its dump to be
/// byte-identical to the one taken before the kill. Call after
/// [`guides_match_documents`], which leaves the cluster quiescent and
/// settled. Returns the restart's recovery report.
pub fn restart_is_lossless(cluster: &mut Cluster, site: SiteId) -> Result<RecoveryReport, String> {
    let before = cluster.instance(site).dump_document(LOGICAL_DOC)?;
    cluster.kill_site(site);
    let report = cluster.restart_site(site);
    let after = cluster.instance(site).dump_document(LOGICAL_DOC)?;
    if before.xml != after.xml {
        return Err(format!(
            "{site}: document after kill/restart differs from the pre-kill dump \
             ({} vs {} bytes)",
            after.xml.len(),
            before.xml.len()
        ));
    }
    if live_paths(&DataGuide::from_wire(&before.guide_wire)?)
        != live_paths(&DataGuide::from_wire(&after.guide_wire)?)
    {
        return Err(format!("{site}: DataGuide after kill/restart differs"));
    }
    Ok(report)
}

/// On the TCP mesh every framed byte written was read: nothing was
/// dropped for want of a route, no connection died with bytes in
/// flight. (The hosts' `decode_errors`/`pending_dropped` counters are
/// not reachable through `SiteHost`'s public API; a dropped `Msg` frame
/// would also leave a transaction unterminated, which
/// [`all_terminated`] catches.)
pub fn mesh_bytes_conserved(mesh: &TcpMesh) -> Result<(), String> {
    // Gossip keeps flowing, so poll for a moment at which the books
    // balance instead of demanding it of one unsynchronised reading.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (out, inn, _, _) = mesh.wire_totals();
        let (c_out, c_in) = mesh.client_bytes();
        if out + c_out == inn + c_in {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "TCP mesh lost bytes: {} written, {} read",
                out + c_out,
                inn + c_in
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

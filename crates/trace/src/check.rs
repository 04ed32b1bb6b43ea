//! The trace-invariant checker: replays a captured [`Trace`] and
//! asserts the protocol laws the system claims to uphold, turning every
//! chaos/recovery run into a machine-checked oracle.
//!
//! The laws (see [`LAWS`]):
//!
//! 1. **prepared-before-vote** — a participant never sends a yes-vote
//!    ([`EventKind::VoteYes`]) before force-logging `Prepared` for that
//!    transaction on the same site (presumed abort requires the vote to
//!    survive a crash).
//! 2. **decision-before-commit** — a coordinator never sends a commit
//!    to a participant ([`EventKind::CommitSent`]) before
//!    force-logging `Decision` for that transaction (a commit heard by
//!    a participant must be recoverable).
//! 3. **link-fifo** — per ordered site pair, messages are delivered in
//!    send order (drops leave gaps; they never reorder survivors).
//! 4. **locks-released** — every lock grant entry is matched by a
//!    release on the same site by the end of the trace (strict 2PL: no
//!    terminate path leaks a lock). A site crash clears its table.
//! 5. **pins-unpinned** — every snapshot pin is matched by an unpin on
//!    the same site (no pin leak keeps old versions alive forever). A
//!    site crash clears its pins.
//!
//! Same-site ordering uses the ring sequence (true program order), not
//! the merged timeline, so the verdict is independent of clock
//! granularity. A trace with ring overflow (`dropped > 0`) is *not
//! certified*: [`CheckReport::complete`] is false and [`CheckReport::ok`]
//! fails, because a missing event could hide any violation.

use crate::{EventKind, Trace, TraceEvent};
use std::collections::HashMap;

/// The invariant names, in the order they are checked.
pub const LAWS: [&str; 5] = [
    "prepared-before-vote",
    "decision-before-commit",
    "link-fifo",
    "locks-released",
    "pins-unpinned",
];

/// One violated invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which law (an entry of [`LAWS`]).
    pub law: &'static str,
    /// Site the violation was observed on.
    pub site: u16,
    /// Human-readable specifics.
    pub detail: String,
}

/// What the checker looked at — evidence that the laws were exercised,
/// not vacuously true on an empty trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Events examined.
    pub events: usize,
    /// Yes-votes checked against law 1.
    pub votes: usize,
    /// Commit-batch entries checked against law 2.
    pub commits: usize,
    /// Ordered links checked against law 3.
    pub links: usize,
    /// (site, txn) lock scopes balanced by law 4.
    pub lock_scopes: usize,
    /// (site, txn, doc) pins balanced by law 5.
    pub pins: usize,
}

/// The checker's verdict.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// False when the trace lost events to ring overflow — the laws
    /// cannot be certified on a partial trace.
    pub complete: bool,
    /// Everything that was checked.
    pub stats: CheckStats,
    /// Every violated law instance (empty on a clean trace).
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// True when the trace is complete and no law was violated.
    pub fn ok(&self) -> bool {
        self.complete && self.violations.is_empty()
    }

    /// One line per violation (plus a completeness note), for asserts.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        if !self.complete {
            out.push_str("trace incomplete: ring overflow dropped events\n");
        }
        for v in &self.violations {
            out.push_str(&format!("[{}] site {}: {}\n", v.law, v.site, v.detail));
        }
        if out.is_empty() {
            out.push_str("all laws hold\n");
        }
        out
    }
}

/// Replays `trace` and checks every law. See the module docs for the
/// list and the crash semantics.
pub fn check(trace: &Trace) -> CheckReport {
    let mut report = CheckReport {
        complete: trace.dropped == 0,
        stats: CheckStats {
            events: trace.events.len(),
            ..CheckStats::default()
        },
        violations: Vec::new(),
    };

    // Same-site program order: group by site, sort by ring seq.
    let mut by_site: HashMap<u16, Vec<&TraceEvent>> = HashMap::new();
    for e in &trace.events {
        by_site.entry(e.site).or_default().push(e);
    }
    for events in by_site.values_mut() {
        events.sort_by_key(|e| e.seq);
    }

    check_forced_ordering(&by_site, &mut report);
    check_link_fifo(&by_site, &mut report);
    check_lock_balance(&by_site, &mut report);
    check_pin_balance(&by_site, &mut report);
    report
}

/// Laws 1 and 2: the forced WAL point precedes the protocol message
/// that makes it observable, in same-site program order.
fn check_forced_ordering(by_site: &HashMap<u16, Vec<&TraceEvent>>, report: &mut CheckReport) {
    for (&site, events) in by_site {
        let mut prepared_forced: HashMap<u64, bool> = HashMap::new();
        let mut decision_forced: HashMap<u64, bool> = HashMap::new();
        for e in events {
            match e.kind {
                EventKind::WalForce { txn, rec } => match rec {
                    "Prepared" => {
                        prepared_forced.insert(txn, true);
                    }
                    "Decision" => {
                        decision_forced.insert(txn, true);
                    }
                    _ => {}
                },
                EventKind::VoteYes { txn } => {
                    report.stats.votes += 1;
                    if !prepared_forced.get(&txn).copied().unwrap_or(false) {
                        report.violations.push(Violation {
                            law: "prepared-before-vote",
                            site,
                            detail: format!(
                                "txn {txn} voted yes with no forced Prepared before it"
                            ),
                        });
                    }
                }
                EventKind::CommitSent { txn, to } => {
                    report.stats.commits += 1;
                    if !decision_forced.get(&txn).copied().unwrap_or(false) {
                        report.violations.push(Violation {
                            law: "decision-before-commit",
                            site,
                            detail: format!(
                                "txn {txn} commit sent to s{to} with no forced Decision before it"
                            ),
                        });
                    }
                }
                // A crash wipes volatile state but NOT the forced log:
                // forced Prepared/Decision survive by construction, so
                // the maps deliberately persist across Crash/Restart.
                _ => {}
            }
        }
    }
}

/// Law 3: per ordered link, the delivered message-id sequence preserves
/// the sent order (gaps allowed — drops and dead sites eat messages,
/// they do not reorder them).
fn check_link_fifo(by_site: &HashMap<u16, Vec<&TraceEvent>>, report: &mut CheckReport) {
    // Send order per link, from the *sender's* ring order.
    let mut sent: HashMap<(u16, u16), Vec<u64>> = HashMap::new();
    // Delivery order per link, from the *receiver's* ring order.
    let mut delivered: HashMap<(u16, u16), Vec<u64>> = HashMap::new();
    for events in by_site.values() {
        for e in events {
            match e.kind {
                EventKind::MsgSend { msg, from, to, .. } => {
                    sent.entry((from, to)).or_default().push(msg);
                }
                EventKind::MsgDeliver { msg, from, to, .. } => {
                    delivered.entry((from, to)).or_default().push(msg);
                }
                _ => {}
            }
        }
    }
    for (link, got) in &delivered {
        report.stats.links += 1;
        let sent_ids = sent.get(link).map(Vec::as_slice).unwrap_or(&[]);
        let mut cursor = 0usize;
        for &msg in got {
            match sent_ids[cursor..].iter().position(|&s| s == msg) {
                Some(off) => cursor += off + 1,
                None => {
                    let law_detail = if sent_ids.contains(&msg) {
                        format!(
                            "msg {msg} delivered out of send order on s{}->s{}",
                            link.0, link.1
                        )
                    } else {
                        format!(
                            "msg {msg} delivered on s{}->s{} but never sent there",
                            link.0, link.1
                        )
                    };
                    report.violations.push(Violation {
                        law: "link-fifo",
                        site: link.1,
                        detail: law_detail,
                    });
                }
            }
        }
    }
}

/// Law 4: per (site, txn), grant entries minus released entries hits
/// zero by the end of the trace; a site crash clears its whole table.
fn check_lock_balance(by_site: &HashMap<u16, Vec<&TraceEvent>>, report: &mut CheckReport) {
    for (&site, events) in by_site {
        let mut balance: HashMap<u64, i64> = HashMap::new();
        let mut scopes = 0usize;
        for e in events {
            match e.kind {
                EventKind::LockGrant { txn, .. } => {
                    let b = balance.entry(txn).or_insert_with(|| {
                        scopes += 1;
                        0
                    });
                    *b += 1;
                }
                EventKind::LockRelease { txn, entries } => {
                    *balance.entry(txn).or_default() -= entries as i64;
                }
                EventKind::Crash => balance.clear(),
                _ => {}
            }
        }
        report.stats.lock_scopes += scopes;
        let mut leaked: Vec<(u64, i64)> = balance.into_iter().filter(|&(_, b)| b != 0).collect();
        leaked.sort_unstable();
        for (txn, b) in leaked {
            report.violations.push(Violation {
                law: "locks-released",
                site,
                detail: if b > 0 {
                    format!("txn {txn} holds {b} unreleased lock entr{}", ies(b))
                } else {
                    format!(
                        "txn {txn} released {} more entr{} than granted",
                        -b,
                        ies(-b)
                    )
                },
            });
        }
    }
}

fn ies(n: i64) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

/// Law 5: per (site, txn, doc), pins match unpins by trace end; a site
/// crash clears its pins.
fn check_pin_balance(by_site: &HashMap<u16, Vec<&TraceEvent>>, report: &mut CheckReport) {
    for (&site, events) in by_site {
        let mut pinned: HashMap<(u64, u64), u64> = HashMap::new();
        for e in events {
            match e.kind {
                EventKind::SnapPin { txn, doc, .. } => {
                    report.stats.pins += 1;
                    *pinned.entry((txn, doc)).or_default() += 1;
                }
                EventKind::SnapUnpin { txn, doc, .. } => match pinned.get_mut(&(txn, doc)) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => report.violations.push(Violation {
                        law: "pins-unpinned",
                        site,
                        detail: format!("txn {txn} unpinned doc {doc:x} it never pinned"),
                    }),
                },
                EventKind::Crash => pinned.clear(),
                _ => {}
            }
        }
        let mut leaked: Vec<(u64, u64)> = pinned
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|((txn, doc), _)| (txn, doc))
            .collect();
        leaked.sort_unstable();
        for (txn, doc) in leaked {
            report.violations.push(Violation {
                law: "pins-unpinned",
                site,
                detail: format!("txn {txn} never unpinned doc {doc:x}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    /// Builds a trace from (site, kind) pairs: seq/ts follow list order.
    fn trace_of(events: &[(u16, EventKind)]) -> Trace {
        let mut per_site: HashMap<u16, u64> = HashMap::new();
        Trace {
            events: events
                .iter()
                .enumerate()
                .map(|(i, &(site, kind))| {
                    let seq = per_site.entry(site).or_insert(0);
                    let e = TraceEvent {
                        site,
                        ts_ns: i as u64 * 1000,
                        seq: *seq,
                        kind,
                    };
                    *seq += 1;
                    e
                })
                .collect(),
            dropped: 0,
        }
    }

    fn law_violations<'a>(report: &'a CheckReport, law: &str) -> Vec<&'a Violation> {
        report.violations.iter().filter(|v| v.law == law).collect()
    }

    /// A healthy 2PC round: coordinator 0, participant 1, txn 5, plus a
    /// snapshot reader (txn 9) on site 1.
    fn good_events() -> Vec<(u16, EventKind)> {
        vec![
            (
                0,
                EventKind::PhaseEnter {
                    txn: 5,
                    phase: "AwaitingPrepareAcks",
                },
            ),
            (
                0,
                EventKind::MsgSend {
                    msg: 1,
                    from: 0,
                    to: 1,
                    label: "Prepare",
                    deliver_at_ns: 0,
                    bytes: 128,
                },
            ),
            (
                1,
                EventKind::MsgDeliver {
                    msg: 1,
                    from: 0,
                    to: 1,
                    label: "Prepare",
                },
            ),
            (
                1,
                EventKind::LockGrant {
                    txn: 5,
                    node: 3,
                    mode: "X",
                },
            ),
            (
                1,
                EventKind::WalForce {
                    txn: 5,
                    rec: "Prepared",
                },
            ),
            (1, EventKind::VoteYes { txn: 5 }),
            (
                1,
                EventKind::MsgSend {
                    msg: 2,
                    from: 1,
                    to: 0,
                    label: "PrepareAck",
                    deliver_at_ns: 0,
                    bytes: 128,
                },
            ),
            (
                0,
                EventKind::MsgDeliver {
                    msg: 2,
                    from: 1,
                    to: 0,
                    label: "PrepareAck",
                },
            ),
            (
                0,
                EventKind::WalForce {
                    txn: 5,
                    rec: "Decision",
                },
            ),
            (0, EventKind::CommitSent { txn: 5, to: 1 }),
            (
                0,
                EventKind::MsgSend {
                    msg: 3,
                    from: 0,
                    to: 1,
                    label: "TerminateBatch",
                    deliver_at_ns: 0,
                    bytes: 256,
                },
            ),
            (
                1,
                EventKind::MsgDeliver {
                    msg: 3,
                    from: 0,
                    to: 1,
                    label: "TerminateBatch",
                },
            ),
            (
                1,
                EventKind::WalForce {
                    txn: 5,
                    rec: "Committed",
                },
            ),
            (1, EventKind::LockRelease { txn: 5, entries: 1 }),
            (
                1,
                EventKind::SnapPin {
                    txn: 9,
                    doc: 0xd0c,
                    version: 2,
                },
            ),
            (
                1,
                EventKind::SnapUnpin {
                    txn: 9,
                    doc: 0xd0c,
                    version: 2,
                },
            ),
        ]
    }

    #[test]
    fn clean_trace_passes_every_law() {
        let report = check(&trace_of(&good_events()));
        assert!(report.ok(), "{}", report.summary());
        assert_eq!(report.violations, vec![]);
        // The laws were actually exercised, not vacuously true.
        assert_eq!(report.stats.votes, 1);
        assert_eq!(report.stats.commits, 1);
        assert!(report.stats.links >= 2);
        assert_eq!(report.stats.lock_scopes, 1);
        assert_eq!(report.stats.pins, 1);
    }

    #[test]
    fn doctored_vote_without_forced_prepared_fails() {
        let events: Vec<_> = good_events()
            .into_iter()
            .filter(|(_, k)| {
                !matches!(
                    k,
                    EventKind::WalForce {
                        rec: "Prepared",
                        ..
                    }
                )
            })
            .collect();
        let report = check(&trace_of(&events));
        assert!(!report.ok());
        let v = law_violations(&report, "prepared-before-vote");
        assert_eq!(v.len(), 1, "{}", report.summary());
        assert_eq!(v[0].site, 1);
    }

    #[test]
    fn doctored_vote_before_forced_prepared_fails() {
        // The force exists but AFTER the vote: same law, ordering arm.
        let mut events = good_events();
        let force_at = events
            .iter()
            .position(|(_, k)| {
                matches!(
                    k,
                    EventKind::WalForce {
                        rec: "Prepared",
                        ..
                    }
                )
            })
            .unwrap();
        events.swap(force_at, force_at + 1); // vote now precedes force
        let report = check(&trace_of(&events));
        assert_eq!(law_violations(&report, "prepared-before-vote").len(), 1);
    }

    #[test]
    fn doctored_commit_without_forced_decision_fails() {
        let events: Vec<_> = good_events()
            .into_iter()
            .filter(|(_, k)| {
                !matches!(
                    k,
                    EventKind::WalForce {
                        rec: "Decision",
                        ..
                    }
                )
            })
            .collect();
        let report = check(&trace_of(&events));
        let v = law_violations(&report, "decision-before-commit");
        assert_eq!(v.len(), 1, "{}", report.summary());
        assert_eq!(v[0].site, 0);
        assert!(v[0].detail.contains("txn 5"));
    }

    #[test]
    fn doctored_link_reorder_fails() {
        let mut events = good_events();
        // Messages 1 and 3 both travel 0 -> 1; deliver them swapped.
        let d1 = events
            .iter()
            .position(|(_, k)| matches!(k, EventKind::MsgDeliver { msg: 1, .. }))
            .unwrap();
        let d3 = events
            .iter()
            .position(|(_, k)| matches!(k, EventKind::MsgDeliver { msg: 3, .. }))
            .unwrap();
        events.swap(d1, d3);
        let report = check(&trace_of(&events));
        assert!(
            !law_violations(&report, "link-fifo").is_empty(),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn doctored_phantom_delivery_fails() {
        let mut events = good_events();
        events.push((
            1,
            EventKind::MsgDeliver {
                msg: 99,
                from: 0,
                to: 1,
                label: "Wake",
            },
        ));
        let report = check(&trace_of(&events));
        let v = law_violations(&report, "link-fifo");
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("never sent"));
    }

    #[test]
    fn dropped_messages_leave_gaps_without_violation() {
        let mut events = good_events();
        // A message sent 0 -> 1 that never arrives (chaos drop): fine.
        events.insert(
            1,
            (
                0,
                EventKind::MsgSend {
                    msg: 50,
                    from: 0,
                    to: 1,
                    label: "Wake",
                    deliver_at_ns: 0,
                    bytes: 64,
                },
            ),
        );
        let report = check(&trace_of(&events));
        assert!(report.ok(), "{}", report.summary());
    }

    #[test]
    fn doctored_lock_leak_fails() {
        let events: Vec<_> = good_events()
            .into_iter()
            .filter(|(_, k)| !matches!(k, EventKind::LockRelease { .. }))
            .collect();
        let report = check(&trace_of(&events));
        let v = law_violations(&report, "locks-released");
        assert_eq!(v.len(), 1, "{}", report.summary());
        assert!(v[0].detail.contains("txn 5"));
        assert_eq!(v[0].site, 1);
    }

    #[test]
    fn doctored_partial_release_fails() {
        // Two grants, a release of only one entry: still a leak.
        let mut events = good_events();
        let grant_at = events
            .iter()
            .position(|(_, k)| matches!(k, EventKind::LockGrant { .. }))
            .unwrap();
        events.insert(
            grant_at,
            (
                1,
                EventKind::LockGrant {
                    txn: 5,
                    node: 8,
                    mode: "IX",
                },
            ),
        );
        let report = check(&trace_of(&events));
        assert_eq!(law_violations(&report, "locks-released").len(), 1);
    }

    #[test]
    fn doctored_pin_leak_fails() {
        let events: Vec<_> = good_events()
            .into_iter()
            .filter(|(_, k)| !matches!(k, EventKind::SnapUnpin { .. }))
            .collect();
        let report = check(&trace_of(&events));
        let v = law_violations(&report, "pins-unpinned");
        assert_eq!(v.len(), 1, "{}", report.summary());
        assert!(v[0].detail.contains("txn 9"));
    }

    #[test]
    fn doctored_unmatched_unpin_fails() {
        let mut events = good_events();
        events.push((
            1,
            EventKind::SnapUnpin {
                txn: 11,
                doc: 0xd0c,
                version: 2,
            },
        ));
        let report = check(&trace_of(&events));
        let v = law_violations(&report, "pins-unpinned");
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("never pinned"));
    }

    #[test]
    fn crash_excuses_dead_sites_obligations() {
        // Site 1 crashes holding a lock and a pin: its table and pins
        // died with it — no violation. Its forced Prepared still counts
        // for the vote it sent before dying.
        let mut events = good_events();
        // Remove the releases, then crash the site.
        events.retain(|(_, k)| {
            !matches!(
                k,
                EventKind::LockRelease { .. } | EventKind::SnapUnpin { .. }
            )
        });
        events.push((1, EventKind::Crash));
        events.push((
            1,
            EventKind::Restart {
                in_doubt: 1,
                undelivered: 0,
            },
        ));
        let report = check(&trace_of(&events));
        assert!(report.ok(), "{}", report.summary());
        // But obligations acquired AFTER the restart still bind.
        events.push((
            1,
            EventKind::LockGrant {
                txn: 12,
                node: 4,
                mode: "X",
            },
        ));
        let report = check(&trace_of(&events));
        assert_eq!(law_violations(&report, "locks-released").len(), 1);
    }

    #[test]
    fn incomplete_trace_is_never_certified() {
        let mut t = trace_of(&good_events());
        t.dropped = 3;
        let report = check(&t);
        assert!(!report.ok());
        assert!(!report.complete);
        assert!(
            report.violations.is_empty(),
            "laws still hold on what's there"
        );
        assert!(report.summary().contains("incomplete"));
    }
}

//! Workload generation: XMark queries adapted to the DTX subset plus the
//! five update operations, shaped by the paper's experiment knobs.
//!
//! §3.2's parameters, reproduced exactly: number of clients, transactions
//! per client (5), operations per transaction (5), percentage of update
//! transactions (20–60 %), percentage of update operations per update
//! transaction (20 %).
//!
//! Every operation targets the **logical** document ([`LOGICAL_DOC`]):
//! the coordinator executes it on every fragment and merges. Entity-id
//! predicates are drawn from a (locality-weighted) fragment's manifest so
//! queries select real entities. Update operations are chosen to be repeatable
//! under concurrency (inserts of fresh entities, value changes, and
//! remove-what-this-transaction-inserted), so aborted-and-discarded
//! transactions never poison later ones — matching the paper's setup
//! where the 250 submitted transactions are a fixed, re-runnable set.

use crate::fragment::{Fragmented, LOGICAL_DOC};
use dtx_core::{OpSpec, TxnSpec};
use dtx_xml::document::{Fragment as XmlFragment, InsertPos};
use dtx_xpath::{Query, UpdateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default operation locality (see [`WorkloadConfig::locality`]).
pub const DEFAULT_LOCALITY: f64 = 0.8;

/// Workload knobs (paper §3.2).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of clients.
    pub clients: usize,
    /// Transactions per client (paper: 5).
    pub txns_per_client: usize,
    /// Operations per transaction (paper: 5).
    pub ops_per_txn: usize,
    /// Percentage (0–100) of update transactions.
    pub update_txn_pct: u32,
    /// Percentage (0–100) of update operations within an update
    /// transaction (paper: 20).
    pub update_op_pct: u32,
    /// PRNG seed.
    pub seed: u64,
    /// Probability (0.0–1.0) that an operation targets its transaction's
    /// *home* fragment rather than a uniformly random one. Clients of an
    /// auction site exhibit locality; the stray fraction is what makes
    /// transactions distributed.
    pub locality: f64,
}

impl WorkloadConfig {
    /// The paper's §3.2.1 read-only configuration: 5×5 reads per client.
    pub fn read_only(clients: usize, seed: u64) -> Self {
        WorkloadConfig {
            clients,
            txns_per_client: 5,
            ops_per_txn: 5,
            update_txn_pct: 0,
            update_op_pct: 0,
            seed,
            locality: DEFAULT_LOCALITY,
        }
    }

    /// The paper's update-experiment shape: 5×5 ops, given update-txn %,
    /// 20 % update ops per update transaction.
    pub fn with_updates(clients: usize, update_txn_pct: u32, seed: u64) -> Self {
        WorkloadConfig {
            clients,
            txns_per_client: 5,
            ops_per_txn: 5,
            update_txn_pct,
            update_op_pct: 20,
            seed,
            locality: DEFAULT_LOCALITY,
        }
    }
}

/// A generated workload: one transaction list per client.
#[derive(Debug, Clone)]
pub struct Workload {
    /// `clients[i]` is client *i*'s transaction sequence.
    pub clients: Vec<Vec<TxnSpec>>,
}

impl Workload {
    /// Total transactions across clients.
    pub fn total_txns(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    /// Number of transactions containing at least one update.
    pub fn update_txns(&self) -> usize {
        self.clients
            .iter()
            .flatten()
            .filter(|t| !t.is_read_only())
            .count()
    }
}

/// Generates a workload over the given fragments.
pub fn generate(config: WorkloadConfig, frags: &Fragmented) -> Workload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Fresh-id allocator for inserted entities, far above generated ids.
    let mut next_fresh: u64 = 1_000_000;
    let mut clients = Vec::with_capacity(config.clients);
    for _ in 0..config.clients {
        let mut txns = Vec::with_capacity(config.txns_per_client);
        for _ in 0..config.txns_per_client {
            let is_update_txn = rng.gen_range(0..100) < config.update_txn_pct;
            let home = rng.gen_range(0..frags.fragments.len());
            txns.push(gen_txn(
                config,
                frags,
                home,
                is_update_txn,
                &mut rng,
                &mut next_fresh,
            ));
        }
        clients.push(txns);
    }
    Workload { clients }
}

fn gen_txn(
    config: WorkloadConfig,
    frags: &Fragmented,
    home: usize,
    is_update_txn: bool,
    rng: &mut StdRng,
    next_fresh: &mut u64,
) -> TxnSpec {
    let n_ops = config.ops_per_txn.max(1);
    // How many of the ops are updates (at least one in an update txn).
    let n_updates = if is_update_txn {
        (n_ops as u32 * config.update_op_pct).div_ceil(100).max(1) as usize
    } else {
        0
    };
    // Place updates at random positions.
    let mut is_update = vec![false; n_ops];
    let mut placed = 0;
    while placed < n_updates.min(n_ops) {
        let at = rng.gen_range(0..n_ops);
        if !is_update[at] {
            is_update[at] = true;
            placed += 1;
        }
    }
    let ops = is_update
        .into_iter()
        .map(|upd| {
            let frag = pick_frag(frags, home, config.locality, rng);
            if upd {
                gen_update(frags, frag, rng, next_fresh)
            } else {
                gen_query(frags, frag, rng)
            }
        })
        .collect();
    TxnSpec::new(ops)
}

fn pick_frag<'a>(
    frags: &'a Fragmented,
    home: usize,
    locality: f64,
    rng: &mut StdRng,
) -> &'a crate::fragment::Fragment {
    if rng.gen_bool(locality.clamp(0.0, 1.0)) {
        &frags.fragments[home]
    } else {
        &frags.fragments[rng.gen_range(0..frags.fragments.len())]
    }
}

fn pick_id(ids: &[u64], rng: &mut StdRng) -> Option<u64> {
    if ids.is_empty() {
        None
    } else {
        Some(ids[rng.gen_range(0..ids.len())])
    }
}

/// One of eight XMark-derived query templates, adapted to the subset.
fn gen_query(_frags: &Fragmented, frag: &crate::fragment::Fragment, rng: &mut StdRng) -> OpSpec {
    let template = rng.gen_range(0..8u32);
    let q = match template {
        0 => match pick_id(&frag.person_ids, rng) {
            Some(id) => format!("/site/people/person[id={id}]/name"),
            None => "/site/people/person/name".to_owned(),
        },
        1 => "/site/open_auctions/open_auction/bidder/increase".to_owned(),
        2 => {
            let region = [
                "africa",
                "asia",
                "australia",
                "europe",
                "namerica",
                "samerica",
            ][rng.gen_range(0..6)];
            format!("/site/regions/{region}/item/name")
        }
        3 => format!(
            "/site/people/person[profile/age>{}]/name",
            rng.gen_range(25..60)
        ),
        4 => match pick_id(&frag.open_auction_ids, rng) {
            Some(id) => format!("/site/open_auctions/open_auction[id={id}]/current"),
            None => "/site/open_auctions/open_auction/current".to_owned(),
        },
        5 => match pick_id(&frag.item_ids, rng) {
            Some(id) => format!("//item[id={id}]/description"),
            None => "//item/description".to_owned(),
        },
        6 => "/site/closed_auctions/closed_auction/price".to_owned(),
        _ => "/site/categories/category/name".to_owned(),
    };
    OpSpec::query(LOGICAL_DOC, Query::parse(&q).expect("template parses"))
}

/// One of five update templates covering insert / change / remove.
fn gen_update(
    _frags: &Fragmented,
    frag: &crate::fragment::Fragment,
    rng: &mut StdRng,
    next_fresh: &mut u64,
) -> OpSpec {
    let template = rng.gen_range(0..5u32);
    match template {
        // Insert a fresh person (the paper's t2op2 shape), anchored after
        // an existing person so that under fragmentation exactly one
        // fragment (the anchor's) receives it.
        0 => {
            let id = *next_fresh;
            *next_fresh += 1;
            let (target, pos) = match pick_id(&frag.person_ids, rng) {
                Some(anchor) => (
                    format!("/site/people/person[id={anchor}]"),
                    InsertPos::After,
                ),
                None => ("/site/people".to_owned(), InsertPos::Into),
            };
            OpSpec::update(
                LOGICAL_DOC,
                UpdateOp::Insert {
                    target: Query::parse(&target).expect("parses"),
                    fragment: XmlFragment::elem(
                        "person",
                        vec![
                            XmlFragment::elem_text("id", id.to_string()),
                            XmlFragment::elem_text("name", format!("Client{id}")),
                            XmlFragment::elem_text("emailaddress", format!("c{id}@example.org")),
                        ],
                    ),
                    pos,
                },
            )
        }
        // Insert a bid into a specific open auction.
        1 => {
            let target = match pick_id(&frag.open_auction_ids, rng) {
                Some(id) => format!("/site/open_auctions/open_auction[id={id}]"),
                None => "/site/open_auctions".to_owned(),
            };
            OpSpec::update(
                LOGICAL_DOC,
                UpdateOp::Insert {
                    target: Query::parse(&target).expect("parses"),
                    fragment: XmlFragment::elem(
                        "bidder",
                        vec![
                            XmlFragment::elem_text("date", "2009-06-01"),
                            XmlFragment::elem_text(
                                "increase",
                                format!("{}.00", rng.gen_range(1..20)),
                            ),
                        ],
                    ),
                    pos: InsertPos::Into,
                },
            )
        }
        // Change the current price of an auction.
        2 => {
            let target = match pick_id(&frag.open_auction_ids, rng) {
                Some(id) => format!("/site/open_auctions/open_auction[id={id}]/current"),
                None => "/site/open_auctions/open_auction/current".to_owned(),
            };
            OpSpec::update(
                LOGICAL_DOC,
                UpdateOp::Change {
                    target: Query::parse(&target).expect("parses"),
                    new_value: format!("{}.{:02}", rng.gen_range(10..900), rng.gen_range(0..100)),
                },
            )
        }
        // Change a person's phone number.
        3 => {
            let target = match pick_id(&frag.person_ids, rng) {
                Some(id) => format!("/site/people/person[id={id}]/phone"),
                None => "/site/people/person/phone".to_owned(),
            };
            OpSpec::update(
                LOGICAL_DOC,
                UpdateOp::Change {
                    target: Query::parse(&target).expect("parses"),
                    new_value: format!("+55 85 9{:07}", rng.gen_range(0..9_999_999)),
                },
            )
        }
        // Insert a fresh category, anchored after an existing one.
        _ => {
            let id = *next_fresh;
            *next_fresh += 1;
            let (target, pos) = match pick_id(&frag.category_ids, rng) {
                Some(anchor) => (
                    format!("/site/categories/category[id={anchor}]"),
                    InsertPos::After,
                ),
                None => ("/site/categories".to_owned(), InsertPos::Into),
            };
            OpSpec::update(
                LOGICAL_DOC,
                UpdateOp::Insert {
                    target: Query::parse(&target).expect("parses"),
                    fragment: XmlFragment::elem(
                        "category",
                        vec![
                            XmlFragment::elem_text("id", id.to_string()),
                            XmlFragment::elem_text("name", "fresh"),
                        ],
                    ),
                    pos,
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::fragment_doc;
    use crate::generator::{generate as gen_doc, XmarkConfig};

    fn frags() -> Fragmented {
        fragment_doc(&gen_doc(XmarkConfig::sized(80_000, 21)), 4)
    }

    #[test]
    fn counts_match_config() {
        let f = frags();
        let w = generate(WorkloadConfig::read_only(10, 1), &f);
        assert_eq!(w.clients.len(), 10);
        assert_eq!(w.total_txns(), 50);
        let ops: usize = w.clients.iter().flatten().map(|t| t.ops.len()).sum();
        assert_eq!(ops, 250);
        assert_eq!(w.update_txns(), 0);
    }

    #[test]
    fn update_percentage_respected() {
        let f = frags();
        let w = generate(WorkloadConfig::with_updates(50, 40, 2), &f);
        let frac = w.update_txns() as f64 / w.total_txns() as f64;
        assert!((0.25..=0.55).contains(&frac), "update fraction {frac}");
        // Update txns have ~20% update ops → exactly 1 of 5.
        for txn in w.clients.iter().flatten().filter(|t| !t.is_read_only()) {
            let n = txn.ops.iter().filter(|o| o.is_update()).count();
            assert_eq!(n, 1, "expected exactly 1 update op in a 5-op txn");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let f = frags();
        let a = generate(WorkloadConfig::with_updates(5, 20, 3), &f);
        let b = generate(WorkloadConfig::with_updates(5, 20, 3), &f);
        assert_eq!(a.clients, b.clients);
        let c = generate(WorkloadConfig::with_updates(5, 20, 4), &f);
        assert_ne!(a.clients, c.clients);
    }

    #[test]
    fn ops_target_the_logical_document() {
        let f = frags();
        let w = generate(WorkloadConfig::with_updates(10, 50, 5), &f);
        for op in w.clients.iter().flatten().flat_map(|t| &t.ops) {
            assert_eq!(op.doc, LOGICAL_DOC, "all ops address the logical document");
        }
    }

    #[test]
    fn all_query_templates_parse_and_execute() {
        // Smoke-run every generated query against the full base document.
        let base = gen_doc(XmarkConfig::sized(80_000, 21));
        let f = fragment_doc(&base, 4);
        let doc = dtx_xml::Document::parse(&base.xml).unwrap();
        let w = generate(WorkloadConfig::with_updates(20, 30, 6), &f);
        for op in w.clients.iter().flatten().flat_map(|t| &t.ops) {
            if let dtx_core::OpKind::Query(q) = &op.kind {
                // Must evaluate without panicking (may legitimately be empty).
                let _ = dtx_xpath::eval(&doc, q);
            }
        }
    }

    #[test]
    fn update_ops_apply_cleanly_on_the_full_document() {
        let base = gen_doc(XmarkConfig::sized(80_000, 23));
        let f = fragment_doc(&base, 4);
        let w = generate(WorkloadConfig::with_updates(20, 100, 7), &f);
        let mut doc = dtx_xml::Document::parse(&base.xml).unwrap();
        let mut applied = 0;
        for op in w.clients.iter().flatten().flat_map(|t| &t.ops) {
            if let dtx_core::OpKind::Update(u) = &op.kind {
                dtx_xpath::apply_update(&mut doc, u)
                    .unwrap_or_else(|e| panic!("update {u} failed: {e}"));
                applied += 1;
            }
        }
        assert!(applied > 0);
        doc.check_integrity().unwrap();
    }
}

//! The paper's §2.4 execution scenario, end to end.
//!
//! Two sites: s1 serves client c1, s2 serves client c2. Document d1
//! (people) is replicated on both sites; d2 (products) lives only on s2
//! (Fig. 4). Transactions t1 and t2 interleave so that t1 holds query
//! locks on d1 while t2 holds query locks on d2, then each tries to
//! insert into the other's document — a **distributed deadlock** (Fig. 6)
//! that neither site can see alone. The distributed detector
//! (Algorithm 4), whose round the first wait arms, unions the wait-for
//! graphs, finds the circle, and aborts the most
//! recent transaction (t2). t1 then commits, and t3 — submitted
//! afterwards, like the paper's client c2 deciding to move on — commits
//! cleanly.
//!
//! ```text
//! cargo run --example store_scenario
//! ```

use dtx::core::{Cluster, ClusterConfig, OpSpec, ProtocolKind, SiteId, TxnSpec};
use dtx::dataguide::DataGuide;
use dtx::xml::{Document, Fragment, InsertPos};
use dtx::xpath::{Query, UpdateOp};
use std::time::Duration;

const D1: &str = "<people>\
                    <person><id>4</id><name>John</name></person>\
                  </people>";
const D2: &str = "<products>\
                    <product><id>4</id><description>Monitor</description><price>120.00</price></product>\
                    <product><id>14</id><description>Printer</description><price>55.50</price></product>\
                  </products>";

fn main() {
    println!("== DataGuides (paper Fig. 5) ==");
    for (name, xml) in [("d1", D1), ("d2", D2)] {
        let guide = DataGuide::build(&Document::parse(xml).unwrap());
        println!("DataGuide of {name}:\n{}", guide.render());
    }

    let mut config = ClusterConfig::new(2, ProtocolKind::Xdgl);
    config.scheduler.deadlock_period = Duration::from_millis(25);
    let cluster = Cluster::start(config);
    let (s1, s2) = (SiteId(0), SiteId(1));
    cluster.load_document("d1", D1, &[s1, s2]).unwrap();
    cluster.load_document("d2", D2, &[s2]).unwrap();

    // t1 (client c1 at s1): query person 4, then insert product Mouse.
    let t1 = TxnSpec::new(vec![
        OpSpec::query("d1", Query::parse("/people/person[id=4]").unwrap()),
        OpSpec::update(
            "d2",
            UpdateOp::Insert {
                target: Query::parse("/products").unwrap(),
                fragment: Fragment::elem(
                    "product",
                    vec![
                        Fragment::elem_text("id", "13"),
                        Fragment::elem_text("description", "Mouse"),
                        Fragment::elem_text("price", "10.30"),
                    ],
                ),
                pos: InsertPos::Into,
            },
        ),
    ]);
    // t2 (client c2 at s2): query all products, then insert person Patricia.
    let t2 = TxnSpec::new(vec![
        OpSpec::query("d2", Query::parse("/products/product").unwrap()),
        OpSpec::update(
            "d1",
            UpdateOp::Insert {
                target: Query::parse("/people").unwrap(),
                fragment: Fragment::elem(
                    "person",
                    vec![
                        Fragment::elem_text("id", "22"),
                        Fragment::elem_text("name", "Patricia"),
                    ],
                ),
                pos: InsertPos::Into,
            },
        ),
    ]);

    println!("== submitting t1 (c1@s1) and t2 (c2@s2) concurrently ==");
    let rx1 = cluster.submit_async(s1, t1);
    let rx2 = cluster.submit_async(s2, t2);
    let o1 = rx1.recv().expect("t1 terminates");
    let o2 = rx2.recv().expect("t2 terminates");
    println!("t1 ({:?}): {:?}", o1.txn, o1.status);
    println!("t2 ({:?}): {:?}", o2.txn, o2.status);
    if o2.deadlocked() {
        println!("-> distributed deadlock detected; t2 (the most recent) was the victim, as in the paper");
    } else if o1.deadlocked() {
        println!("-> distributed deadlock detected; t1 was the victim this interleaving");
    } else {
        println!("-> this interleaving serialized without deadlock (both committed)");
    }

    // Client c2 discards t2 and submits t3: query product 14, insert
    // Keyboard (the paper's follow-up).
    let t3 = TxnSpec::new(vec![
        OpSpec::query("d2", Query::parse("/products/product[id=14]").unwrap()),
        OpSpec::update(
            "d2",
            UpdateOp::Insert {
                target: Query::parse("/products").unwrap(),
                fragment: Fragment::elem(
                    "product",
                    vec![
                        Fragment::elem_text("id", "32"),
                        Fragment::elem_text("description", "Keyboard"),
                        Fragment::elem_text("price", "9.90"),
                    ],
                ),
                pos: InsertPos::Into,
            },
        ),
    ]);
    let o3 = cluster.submit(s2, t3);
    println!("t3 ({:?}): {:?}", o3.txn, o3.status);

    // Final state of d2 as seen through a read transaction.
    let check = cluster.submit(
        s2,
        TxnSpec::new(vec![OpSpec::query(
            "d2",
            Query::parse("/products/product/description").unwrap(),
        )]),
    );
    println!("products at the end: {:?}", check.results);
    cluster.shutdown();
}

//! Seed-generated inputs and their fingerprint.
//!
//! Everything a run feeds the program comes from `--seed` through
//! `dtx-xmark`: the base document, its four fragments and one flat
//! transaction stream per workload. The stream is generated as a single
//! client's sequence, so transaction *i* does not depend on how many
//! follow it and the fingerprint of a fixed prefix holds for every
//! `--seconds`.

use crate::spec::{Workload, BASE_BYTES, FINGERPRINT_TXNS, SITES};
use dtx_core::TxnSpec;
use dtx_xmark::fragment::{fragment_doc, Fragmented};
use dtx_xmark::generator::{generate, XmarkConfig, XmarkDoc};
use dtx_xmark::workload::{generate as gen_workload, WorkloadConfig, DEFAULT_LOCALITY};

/// Recorded fingerprints: `seed workload base_fnv ops_fnv` per line.
const RECORDED: &str = include_str!("../fingerprints.txt");

/// The generated base and its fragments.
pub struct Base {
    pub doc: XmarkDoc,
    pub frags: Fragmented,
}

/// Generates and fragments the base for `seed`.
pub fn base(seed: u64) -> Base {
    let doc = generate(XmarkConfig::sized(BASE_BYTES, seed));
    let frags = fragment_doc(&doc, SITES as usize);
    Base { doc, frags }
}

/// The first `n` transactions of `workload`'s stream for `seed` (at
/// least [`FINGERPRINT_TXNS`] are generated so the fingerprint prefix
/// always exists).
pub fn txns(workload: &Workload, seed: u64, frags: &Fragmented, n: usize) -> Vec<TxnSpec> {
    let config = WorkloadConfig {
        clients: 1,
        txns_per_client: n.max(FINGERPRINT_TXNS),
        ops_per_txn: 5,
        update_txn_pct: workload.update_txn_pct,
        update_op_pct: 20,
        seed,
        locality: DEFAULT_LOCALITY,
    };
    gen_workload(config, frags)
        .clients
        .pop()
        .expect("one client was asked for")
}

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of one run's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Over the generated base XML.
    pub base: u64,
    /// Over doc name + operation (its `Debug` form, which unlike
    /// `Display` includes inserted fragments) of every op of the first
    /// [`FINGERPRINT_TXNS`] transactions.
    pub ops: u64,
}

/// Fingerprints `base_xml` and the stream prefix.
pub fn fingerprint(base_xml: &str, txns: &[TxnSpec]) -> Fingerprint {
    let mut b = Fnv::new();
    b.write(base_xml.as_bytes());
    let mut o = Fnv::new();
    for txn in &txns[..FINGERPRINT_TXNS] {
        for op in &txn.ops {
            o.write(op.doc.as_bytes());
            o.write(format!("{:?}", op.kind).as_bytes());
            o.write(b"\n");
        }
    }
    Fingerprint {
        base: b.finish(),
        ops: o.finish(),
    }
}

/// The fingerprint recorded for `(seed, workload)`, if any.
pub fn recorded(seed: u64, workload: &str) -> Option<Fingerprint> {
    RECORDED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (s, w, base, ops) = (f.next()?, f.next()?, f.next()?, f.next()?);
        (s.parse() == Ok(seed) && w == workload).then(|| Fingerprint {
            base: u64::from_str_radix(base, 16).expect("recorded base fingerprint is hex"),
            ops: u64::from_str_radix(ops, 16).expect("recorded ops fingerprint is hex"),
        })
    })
}

/// Checks `got` against the recorded value: a seed with a record must
/// match it, so a change to `dtx-xmark` that alters the inputs fails
/// here instead of moving the numbers. Unrecorded seeds pass (their
/// fingerprint is printed in the provenance header).
pub fn check(seed: u64, workload: &str, got: Fingerprint) -> Result<(), String> {
    match recorded(seed, workload) {
        Some(want) if want != got => Err(format!(
            "input fingerprint mismatch for seed {seed} workload {workload}: recorded \
             base={:016x} ops={:016x}, generated base={:016x} ops={:016x} — the input \
             generators changed; numbers are not comparable with earlier runs",
            want.base, want.ops, got.base, got.ops
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn fnv1a_known_vectors() {
        let h = |s: &str| {
            let mut f = Fnv::new();
            f.write(s.as_bytes());
            f.finish()
        };
        assert_eq!(h(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(h("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(h("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn stream_is_prefix_stable_and_seeded() {
        let b = base(7);
        let w = &WORKLOADS[1];
        let short = txns(w, 7, &b.frags, 10);
        let long = txns(w, 7, &b.frags, FINGERPRINT_TXNS + 500);
        assert_eq!(short.len(), FINGERPRINT_TXNS);
        assert_eq!(long.len(), FINGERPRINT_TXNS + 500);
        assert_eq!(short[..], long[..FINGERPRINT_TXNS]);
        assert_eq!(
            fingerprint(&b.doc.xml, &short),
            fingerprint(&b.doc.xml, &long)
        );
        let other = base(8);
        assert_ne!(
            fingerprint(&b.doc.xml, &short),
            fingerprint(&other.doc.xml, &txns(w, 8, &other.frags, 10))
        );
    }

    #[test]
    fn default_seed_matches_its_record_and_a_wrong_one_fails() {
        let seed = crate::spec::DEFAULT_SEED;
        let b = base(seed);
        for w in &WORKLOADS {
            let got = fingerprint(&b.doc.xml, &txns(w, seed, &b.frags, 0));
            assert!(recorded(seed, w.name).is_some(), "no record for {}", w.name);
            check(seed, w.name, got).unwrap();
            let bad = Fingerprint {
                ops: got.ops ^ 1,
                ..got
            };
            assert!(check(seed, w.name, bad).is_err());
        }
    }
}

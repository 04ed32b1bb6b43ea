//! The five-operation XML update language, with invertible application.
//!
//! Paper §2: "In order to update data in XML documents an update language
//! was defined. This language has five types of update operations: insert,
//! remove, transpose, rename and change." DTX's abort path requires every
//! applied operation to be undoable ("upon abortion, the transaction undoes
//! all its effects on the required data"); [`apply_update`] therefore
//! returns an [`UndoRecord`] which [`undo_update`] replays in reverse.

use crate::ast::Query;
use crate::eval::eval;
use dtx_xml::document::{Fragment, InsertPos, Removed};
use dtx_xml::{Document, NodeId, XmlError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An update operation over one document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UpdateOp {
    /// Insert `fragment` at `pos` relative to every node matched by
    /// `target`.
    Insert {
        /// Anchor path.
        target: Query,
        /// Subtree to splice in.
        fragment: Fragment,
        /// Position relative to the anchor.
        pos: InsertPos,
    },
    /// Remove every node matched by `target` (with its subtree).
    Remove {
        /// Path of the victims.
        target: Query,
    },
    /// Rename every matched element/attribute to `new_label`.
    Rename {
        /// Path of the nodes to relabel.
        target: Query,
        /// Replacement label.
        new_label: String,
    },
    /// Replace the value of every matched node with `new_value`.
    Change {
        /// Path of the nodes whose value changes.
        target: Query,
        /// Replacement value.
        new_value: String,
    },
    /// Swap the positions of the (single) nodes matched by `a` and `b`.
    Transpose {
        /// First node's path.
        a: Query,
        /// Second node's path.
        b: Query,
    },
}

impl UpdateOp {
    /// The paths this operation navigates — the inputs to lock placement.
    pub fn queries(&self) -> Vec<&Query> {
        match self {
            UpdateOp::Insert { target, .. }
            | UpdateOp::Remove { target }
            | UpdateOp::Rename { target, .. }
            | UpdateOp::Change { target, .. } => vec![target],
            UpdateOp::Transpose { a, b } => vec![a, b],
        }
    }
}

impl fmt::Display for UpdateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateOp::Insert {
                target,
                fragment,
                pos,
            } => {
                let pos = match pos {
                    InsertPos::Into => "into",
                    InsertPos::FirstInto => "first-into",
                    InsertPos::Before => "before",
                    InsertPos::After => "after",
                };
                write!(
                    f,
                    "insert {} {pos} {target}",
                    fragment.label().unwrap_or("#text")
                )
            }
            UpdateOp::Remove { target } => write!(f, "remove {target}"),
            UpdateOp::Rename { target, new_label } => write!(f, "rename {target} to {new_label}"),
            UpdateOp::Change { target, new_value } => {
                write!(f, "change {target} to \"{new_value}\"")
            }
            UpdateOp::Transpose { a, b } => write!(f, "transpose {a} with {b}"),
        }
    }
}

/// Errors from applying an update.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateError {
    /// The target path matched no node.
    EmptyTarget(String),
    /// Transpose requires each path to match exactly one node.
    AmbiguousTranspose { path: String, matches: usize },
    /// An underlying tree operation failed.
    Xml(XmlError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::EmptyTarget(p) => write!(f, "update target matched no node: {p}"),
            UpdateError::AmbiguousTranspose { path, matches } => {
                write!(
                    f,
                    "transpose path {path} matched {matches} nodes (need exactly 1)"
                )
            }
            UpdateError::Xml(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<XmlError> for UpdateError {
    fn from(e: XmlError) -> Self {
        UpdateError::Xml(e)
    }
}

/// Inverse of one applied [`UpdateOp`]; see [`undo_update`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UndoRecord {
    /// Inserted subtree roots to remove again.
    Insert(Vec<NodeId>),
    /// Removal records to splice back (in original removal order).
    Remove(Vec<Removed>),
    /// `(node, old_label)` pairs to restore.
    Rename(Vec<(NodeId, String)>),
    /// `(node, old_value)` pairs to restore. `Some(old)` restores `old`
    /// onto the recorded target; `None` marks a text child the change
    /// *created* under a previously text-less element — the exact inverse
    /// removes that node again (restoring `""` would leave an empty text
    /// residue behind an aborted transaction).
    Change(Vec<(NodeId, Option<String>)>),
    /// The two nodes to swap back.
    Transpose(NodeId, NodeId),
}

/// Applies `op` to `doc`, returning the inverse record.
///
/// Application is all-or-nothing at the level of target resolution: targets
/// are resolved first, and structural errors on any target leave previously
/// modified targets applied (the caller — DTX's lock manager — wraps every
/// operation in its own undo scope, so partial application is rolled back
/// one level up; see `dtx-core`).
pub fn apply_update(doc: &mut Document, op: &UpdateOp) -> Result<UndoRecord, UpdateError> {
    match op {
        UpdateOp::Insert {
            target,
            fragment,
            pos,
        } => {
            let anchors = non_empty(doc, target)?;
            let mut inserted = Vec::with_capacity(anchors.len());
            for anchor in anchors {
                inserted.push(doc.insert_fragment(anchor, fragment, *pos)?);
            }
            Ok(UndoRecord::Insert(inserted))
        }
        UpdateOp::Remove { target } => {
            let victims = non_empty(doc, target)?;
            // Skip nodes whose ancestor is also a victim: removing the
            // ancestor removes them, and double-removal would see stale ids.
            let set: std::collections::HashSet<NodeId> = victims.iter().copied().collect();
            let mut records = Vec::new();
            for v in victims {
                let covered = doc
                    .ancestors(v)
                    .map(|anc| anc.iter().any(|a| set.contains(a)))
                    .unwrap_or(false);
                if !covered {
                    records.push(doc.remove(v)?);
                }
            }
            Ok(UndoRecord::Remove(records))
        }
        UpdateOp::Rename { target, new_label } => {
            let targets = non_empty(doc, target)?;
            let mut olds = Vec::with_capacity(targets.len());
            for t in targets {
                let old = doc.rename(t, new_label)?;
                olds.push((t, doc.interner().resolve(old).to_owned()));
            }
            Ok(UndoRecord::Rename(olds))
        }
        UpdateOp::Change { target, new_value } => {
            let targets = non_empty(doc, target)?;
            let mut olds = Vec::with_capacity(targets.len());
            for t in targets {
                let (old, created) = doc.change_value_tracked(t, new_value)?;
                match created {
                    // The element had no text child; the change created one,
                    // so the inverse is to remove that node again.
                    Some(tid) => olds.push((tid, None)),
                    None => olds.push((t, Some(old))),
                }
            }
            Ok(UndoRecord::Change(olds))
        }
        UpdateOp::Transpose { a, b } => {
            let na = single(doc, a)?;
            let nb = single(doc, b)?;
            doc.transpose(na, nb)?;
            Ok(UndoRecord::Transpose(na, nb))
        }
    }
}

/// Reverses an applied update.
///
/// Undo of a `Remove` re-inserts fragments at their recorded positions; the
/// restored subtrees receive fresh node ids (ids are never reused), which is
/// transparent to DTX because locks are held on DataGuide nodes, not
/// document nodes.
pub fn undo_update(doc: &mut Document, undo: &UndoRecord) -> Result<(), UpdateError> {
    match undo {
        UndoRecord::Insert(ids) => {
            for &id in ids.iter().rev() {
                // The insert may itself have been undone already (abort
                // after partial application); tolerate stale ids.
                if doc.is_live(id) {
                    doc.remove(id)?;
                }
            }
        }
        UndoRecord::Remove(records) => {
            for rec in records.iter().rev() {
                doc.unremove(rec)?;
            }
        }
        UndoRecord::Rename(olds) => {
            for (id, old) in olds.iter().rev() {
                doc.rename(*id, old)?;
            }
        }
        UndoRecord::Change(olds) => {
            for (id, old) in olds.iter().rev() {
                // The node may already be gone (abort after partial
                // application); tolerate stale ids.
                if !doc.is_live(*id) {
                    continue;
                }
                match old {
                    Some(old) => {
                        doc.change_value(*id, old)?;
                    }
                    // The change created this text child; remove it again.
                    None => {
                        doc.remove(*id)?;
                    }
                }
            }
        }
        UndoRecord::Transpose(a, b) => {
            doc.transpose(*a, *b)?;
        }
    }
    Ok(())
}

fn non_empty(doc: &Document, q: &Query) -> Result<Vec<NodeId>, UpdateError> {
    let nodes = eval(doc, q);
    if nodes.is_empty() {
        Err(UpdateError::EmptyTarget(q.to_string()))
    } else {
        Ok(nodes)
    }
}

fn single(doc: &Document, q: &Query) -> Result<NodeId, UpdateError> {
    let nodes = eval(doc, q);
    match nodes.len() {
        1 => Ok(nodes[0]),
        n => Err(UpdateError::AmbiguousTranspose {
            path: q.to_string(),
            matches: n,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtx_xml::parse;

    fn products() -> Document {
        parse(
            "<products>\
               <product><id>4</id><name>Monitor</name><price>120.00</price></product>\
               <product><id>14</id><name>Printer</name><price>55.50</price></product>\
             </products>",
        )
        .unwrap()
    }

    fn q(s: &str) -> Query {
        Query::parse(s).unwrap()
    }

    #[test]
    fn insert_the_paper_mouse() {
        // t1op2: insert product Mouse, price 10.30, id 13.
        let mut doc = products();
        let op = UpdateOp::Insert {
            target: q("/products"),
            fragment: Fragment::elem(
                "product",
                vec![
                    Fragment::elem_text("id", "13"),
                    Fragment::elem_text("name", "Mouse"),
                    Fragment::elem_text("price", "10.30"),
                ],
            ),
            pos: InsertPos::Into,
        };
        let undo = apply_update(&mut doc, &op).unwrap();
        assert_eq!(eval(&doc, &q("/products/product")).len(), 3);
        assert_eq!(eval(&doc, &q("/products/product[id=13]")).len(), 1);
        undo_update(&mut doc, &undo).unwrap();
        assert_eq!(eval(&doc, &q("/products/product")).len(), 2);
        doc.check_integrity().unwrap();
    }

    #[test]
    fn insert_before_and_after() {
        let mut doc = products();
        let before = UpdateOp::Insert {
            target: q("/products/product[id=14]"),
            fragment: Fragment::elem_text("marker", "here"),
            pos: InsertPos::Before,
        };
        apply_update(&mut doc, &before).unwrap();
        let kids = doc.children(doc.root()).unwrap();
        assert_eq!(doc.label_str(kids[1]).unwrap(), "marker");
    }

    #[test]
    fn insert_on_empty_target_fails() {
        let mut doc = products();
        let op = UpdateOp::Insert {
            target: q("/products/nothing"),
            fragment: Fragment::text("x"),
            pos: InsertPos::Into,
        };
        assert!(matches!(
            apply_update(&mut doc, &op),
            Err(UpdateError::EmptyTarget(_))
        ));
    }

    #[test]
    fn remove_and_undo_preserves_positions() {
        let mut doc = products();
        let before = doc.to_xml();
        let op = UpdateOp::Remove {
            target: q("/products/product[id=4]"),
        };
        let undo = apply_update(&mut doc, &op).unwrap();
        assert_eq!(eval(&doc, &q("/products/product")).len(), 1);
        undo_update(&mut doc, &undo).unwrap();
        assert_eq!(doc.to_xml(), before);
    }

    #[test]
    fn remove_multiple_targets() {
        let mut doc = products();
        let op = UpdateOp::Remove {
            target: q("/products/product/price"),
        };
        let undo = apply_update(&mut doc, &op).unwrap();
        assert!(eval(&doc, &q("//price")).is_empty());
        undo_update(&mut doc, &undo).unwrap();
        assert_eq!(eval(&doc, &q("//price")).len(), 2);
    }

    #[test]
    fn remove_nested_targets_handles_coverage() {
        // Both /r/a and /r/a/b match //*; removing a removes b.
        let mut doc = parse("<r><a><b/></a></r>").unwrap();
        let op = UpdateOp::Remove { target: q("//*") };
        // //* matches r too — but r is the root and cannot be removed;
        // restrict to /r/* to stay valid.
        let _ = op;
        let op = UpdateOp::Remove { target: q("/r//b") };
        apply_update(&mut doc, &op).unwrap();
        assert!(eval(&doc, &q("//b")).is_empty());
        let mut doc = parse("<r><a><b/></a></r>").unwrap();
        let both = UpdateOp::Remove { target: q("/r/*") };
        let undo = apply_update(&mut doc, &both).unwrap();
        assert_eq!(doc.node_count(), 1);
        undo_update(&mut doc, &undo).unwrap();
        assert_eq!(doc.node_count(), 3);
        doc.check_integrity().unwrap();
    }

    #[test]
    fn rename_round_trip() {
        let mut doc = products();
        let op = UpdateOp::Rename {
            target: q("/products/product/name"),
            new_label: "title".into(),
        };
        let undo = apply_update(&mut doc, &op).unwrap();
        assert_eq!(eval(&doc, &q("//title")).len(), 2);
        assert!(eval(&doc, &q("//name")).is_empty());
        undo_update(&mut doc, &undo).unwrap();
        assert_eq!(eval(&doc, &q("//name")).len(), 2);
    }

    #[test]
    fn change_round_trip() {
        let mut doc = products();
        let op = UpdateOp::Change {
            target: q("/products/product[id=4]/price"),
            new_value: "99.99".into(),
        };
        let undo = apply_update(&mut doc, &op).unwrap();
        let price = eval(&doc, &q("/products/product[id=4]/price"));
        assert_eq!(doc.text_of(price[0]).unwrap(), "99.99");
        undo_update(&mut doc, &undo).unwrap();
        let price = eval(&doc, &q("/products/product[id=4]/price"));
        assert_eq!(doc.text_of(price[0]).unwrap(), "120.00");
    }

    #[test]
    fn transpose_round_trip() {
        let mut doc = products();
        let before = doc.to_xml();
        let op = UpdateOp::Transpose {
            a: q("/products/product[id=4]"),
            b: q("/products/product[id=14]"),
        };
        let undo = apply_update(&mut doc, &op).unwrap();
        assert_ne!(doc.to_xml(), before);
        undo_update(&mut doc, &undo).unwrap();
        assert_eq!(doc.to_xml(), before);
    }

    #[test]
    fn transpose_requires_single_matches() {
        let mut doc = products();
        let op = UpdateOp::Transpose {
            a: q("/products/product"),
            b: q("/products/product[id=4]"),
        };
        assert!(matches!(
            apply_update(&mut doc, &op),
            Err(UpdateError::AmbiguousTranspose { matches: 2, .. })
        ));
    }

    #[test]
    fn op_metadata() {
        let op = UpdateOp::Remove { target: q("/a/b") };
        assert_eq!(op.queries().len(), 1);
        assert_eq!(op.to_string(), "remove /a/b");
        let op = UpdateOp::Transpose {
            a: q("/a"),
            b: q("/b"),
        };
        assert_eq!(op.queries().len(), 2);
    }
}

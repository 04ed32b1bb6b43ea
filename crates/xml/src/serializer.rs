//! Document → XML text serialization.
//!
//! The output round-trips through [`crate::parser::parse`] (modulo
//! formatting whitespace, which the parser drops). The storage substrate
//! uses this to persist documents; the benchmark harness uses byte counts
//! from here to size fragments.

use crate::document::Document;
use crate::intern::Symbol;
use crate::node::{Node, NodeId, NodeKind};

/// Serializer over a borrowed document.
pub struct Serializer<'a> {
    doc: &'a Document,
}

impl<'a> Serializer<'a> {
    /// Compact serializer (no added whitespace).
    pub fn new(doc: &'a Document) -> Self {
        Serializer { doc }
    }

    /// Serializes the whole document.
    pub fn document(&self) -> String {
        let mut out = String::new();
        self.node_into(self.doc.root(), &mut out);
        out
    }

    /// Serializes the subtree rooted at `id`.
    pub fn subtree(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.node_into(id, &mut out);
        out
    }

    fn node_into(&self, id: NodeId, out: &mut String) {
        let node = match self.doc.node(id) {
            Ok(n) => n,
            Err(_) => return,
        };
        match &node.kind {
            NodeKind::Element { label } => {
                let name = self.doc.interner().resolve(*label);
                out.push('<');
                out.push_str(name);
                // Attributes go inside the tag wherever they sit among the
                // children; everything else is content. Two walks over
                // `children` in place: no per-element allocation.
                let mut has_content = false;
                for &c in &node.children {
                    match self.doc.node(c).map(|n| &n.kind) {
                        Ok(NodeKind::Attribute { label, value }) => {
                            out.push(' ');
                            out.push_str(self.doc.interner().resolve(*label));
                            out.push_str("=\"");
                            escape_into(value, true, out);
                            out.push('"');
                        }
                        _ => has_content = true,
                    }
                }
                if !has_content {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                for &c in &node.children {
                    if !self.doc.node(c).is_ok_and(Node::is_attribute) {
                        self.node_into(c, out);
                    }
                }
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
            NodeKind::Attribute { label, value } => {
                // A detached attribute serialization (rare; used in debug).
                out.push_str(self.doc.interner().resolve(*label));
                out.push_str("=\"");
                escape_into(value, true, out);
                out.push('"');
            }
            NodeKind::Text { value } => escape_into(value, false, out),
        }
    }
}

/// The entity byte `b` is written as, when it is escaped at all.
/// `in_attr` additionally escapes quotes.
fn entity(b: u8, in_attr: bool) -> Option<&'static str> {
    match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        b'"' if in_attr => Some("&quot;"),
        b'\'' if in_attr => Some("&apos;"),
        _ => None,
    }
}

/// Escapes XML-special characters, copying the runs between them whole
/// (the specials are ASCII, so every cut is a char boundary). The one
/// escape routine: [`crate::stream::XmlWriter`] writes through it too.
pub(crate) fn escape_into(s: &str, in_attr: bool, out: &mut String) {
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(e) = entity(b, in_attr) {
            out.push_str(&s[plain..i]);
            out.push_str(e);
            plain = i + 1;
        }
    }
    out.push_str(&s[plain..]);
}

/// Length of what [`escape_into`] appends.
fn escaped_len(s: &str, in_attr: bool) -> usize {
    let grown = s.bytes().filter_map(|b| entity(b, in_attr));
    s.len() + grown.map(|e| e.len() - 1).sum::<usize>()
}

/// Bytes `node` itself contributes to the compact serialization of `doc`:
/// a function of the node's own slot and of the kinds of its children
/// (which never change), so [`Document::xml_len`] can keep sums of it per
/// arena chunk. Summed over the live nodes it is `to_xml().len()`.
pub(crate) fn node_len(doc: &Document, node: &Node) -> usize {
    let name = |label: &Symbol| doc.interner().resolve(*label).len();
    match &node.kind {
        NodeKind::Element { label } => {
            let has_content = node
                .children
                .iter()
                .any(|&c| !doc.node(c).is_ok_and(Node::is_attribute));
            if has_content {
                2 * name(label) + 5 // `<name>` … `</name>`
            } else {
                name(label) + 3 // `<name/>`
            }
        }
        NodeKind::Attribute { label, value } => name(label) + escaped_len(value, true) + 4,
        NodeKind::Text { value } => escaped_len(value, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn round_trip_compact() {
        let src = r#"<products><product id="4"><description>Monitor &amp; stand</description><price>120.00</price></product></products>"#;
        let doc = parse(src).unwrap();
        assert_eq!(doc.to_xml(), src);
    }

    #[test]
    fn empty_element_self_closes() {
        let doc = parse("<r><empty/></r>").unwrap();
        assert_eq!(doc.to_xml(), "<r><empty/></r>");
    }

    #[test]
    fn attribute_values_escaped() {
        let mut doc = Document::new("r");
        let sym = doc.intern("a");
        let root = doc.root();
        doc.insert_fragment(
            root,
            &crate::document::Fragment::Attribute {
                label: "a".into(),
                value: "x\"<>&".into(),
            },
            crate::document::InsertPos::Into,
        )
        .unwrap();
        let _ = sym;
        let xml = doc.to_xml();
        assert_eq!(xml, r#"<r a="x&quot;&lt;&gt;&amp;"/>"#);
        // And it reparses to the same value.
        let doc2 = parse(&xml).unwrap();
        let a = doc2.interner().get("a").unwrap();
        assert_eq!(doc2.attribute(doc2.root(), a).unwrap(), Some("x\"<>&"));
    }

    #[test]
    fn subtree_serialization() {
        let doc = parse("<r><a>1</a><b>2</b></r>").unwrap();
        let b = doc.children(doc.root()).unwrap()[1];
        assert_eq!(Serializer::new(&doc).subtree(b), "<b>2</b>");
    }

    #[test]
    fn parse_serialize_fixpoint() {
        // serialize(parse(x)) must be a fixpoint: applying again is stable.
        let src = "<site><people><person id=\"p0\"><name>A &amp; B</name></person></people></site>";
        let once = parse(src).unwrap().to_xml();
        let twice = parse(&once).unwrap().to_xml();
        assert_eq!(once, twice);
    }
}

//! Streaming DataGuide construction and the guide wire format.
//!
//! [`GuideBuilder`] consumes the same [`XmlEvent`] stream every other
//! ingestion consumer uses and grows a [`DataGuide`] incrementally — one
//! `ensure_child` + extent bump per labelled event, O(depth) transient
//! state. Feeding it a document's events yields exactly
//! [`DataGuide::build`] of that document (asserted by the workspace
//! property tests), so a generator or tokenizer run can produce the
//! document tree *and* its guide in a single pass (via
//! [`dtx_xml::stream::Tee`]) instead of re-walking the finished tree.
//!
//! [`DataGuide::to_wire`] / [`DataGuide::from_wire`] are the textual wire
//! format used to ship a guide alongside a document during replica
//! bootstrap — the serde derives in this workspace are offline no-op
//! shims, so shipping needs an explicit codec. The format is
//! line-oriented and versioned: one header, then one `label-path` node
//! per line in id order.

use crate::{DataGuide, GuideId};
use dtx_xml::stream::{EventSink, XmlEvent};
use dtx_xml::{XmlError, XmlResult};

/// Builds a [`DataGuide`] from an XML event stream.
pub struct GuideBuilder {
    guide: Option<DataGuide>,
    stack: Vec<GuideId>,
}

impl Default for GuideBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GuideBuilder {
    /// An empty builder; the guide root is created by the first
    /// `StartElement`.
    pub fn new() -> Self {
        GuideBuilder {
            guide: None,
            stack: Vec::new(),
        }
    }

    /// A builder that grows an existing guide (used when a site absorbs a
    /// second fragment of a document it already hosts). Events are
    /// classified against `guide`'s root: the incoming stream's root
    /// label must match.
    pub fn over(guide: DataGuide) -> Self {
        GuideBuilder {
            guide: Some(guide),
            stack: Vec::new(),
        }
    }

    /// Finishes the build.
    pub fn finish(self) -> XmlResult<DataGuide> {
        self.guide
            .ok_or_else(|| XmlError::InvalidTreeOp("event stream contained no root".into()))
    }
}

impl EventSink for GuideBuilder {
    fn event(&mut self, ev: &XmlEvent<'_>) -> XmlResult<()> {
        match ev {
            XmlEvent::StartElement { name } => match (&mut self.guide, self.stack.is_empty()) {
                (None, _) => {
                    let guide = DataGuide::new(name);
                    self.stack.push(guide.root());
                    self.guide = Some(guide);
                }
                (Some(guide), true) => {
                    // Re-entering the root of an absorbed stream: paths
                    // merge, the root extent stays 1 (one logical root).
                    if guide.node(guide.root()).label != name.as_ref() {
                        return Err(XmlError::InvalidTreeOp(format!(
                            "absorbed stream root {:?} does not match guide root {:?}",
                            name,
                            guide.node(guide.root()).label
                        )));
                    }
                    self.stack.push(guide.root());
                }
                (Some(guide), false) => {
                    let top = *self.stack.last().expect("non-empty");
                    let gid = guide.ensure_child(top, name, false);
                    guide.add_extent(gid, 1);
                    self.stack.push(gid);
                }
            },
            XmlEvent::Attribute { name, .. } => {
                let Some(guide) = &mut self.guide else {
                    return Err(XmlError::InvalidTreeOp("attribute before root".into()));
                };
                let top = *self
                    .stack
                    .last()
                    .ok_or_else(|| XmlError::InvalidTreeOp("attribute outside element".into()))?;
                let gid = guide.ensure_child(top, name, true);
                guide.add_extent(gid, 1);
            }
            XmlEvent::Text { .. } => {
                // Text is summarized by its parent element's guide node.
            }
            XmlEvent::EndElement { .. } => {
                self.stack
                    .pop()
                    .ok_or_else(|| XmlError::InvalidTreeOp("unbalanced EndElement".into()))?;
            }
        }
        Ok(())
    }
}

/// Magic header of the guide wire format (versioned so future layouts can
/// coexist with shipped snapshots).
const WIRE_HEADER: &str = "dataguide/1";

impl DataGuide {
    /// Builds a guide by pumping a tokenizer over `xml` — the streaming
    /// replacement for `DataGuide::build(&parse(xml))` when the tree is
    /// not otherwise needed (O(depth) transient memory).
    pub fn from_xml_stream(xml: &str) -> XmlResult<DataGuide> {
        let mut builder = GuideBuilder::new();
        dtx_xml::stream::pump(&mut dtx_xml::stream::XmlTokenizer::new(xml), &mut builder)?;
        builder.finish()
    }

    /// Serializes the guide for shipment (replica bootstrap). Line
    /// format, after the `dataguide/1` header: one node per line in id
    /// order — `parent-id kind extent label` with `kind` `e`/`a` and the
    /// root's parent written as `-`. Labels go last so embedded
    /// whitespace survives (labels cannot contain newlines: they are XML
    /// names plus interned strings, and [`DataGuide::from_wire`] rejects
    /// any line that would imply one).
    pub fn to_wire(&self) -> String {
        let mut out = String::with_capacity(self.len() * 24);
        out.push_str(WIRE_HEADER);
        out.push('\n');
        for id in 0..self.len() {
            let n = self.node(GuideId(id as u32));
            match n.parent {
                Some(p) => out.push_str(&p.0.to_string()),
                None => out.push('-'),
            }
            out.push(' ');
            out.push(if n.is_attr { 'a' } else { 'e' });
            out.push(' ');
            out.push_str(&n.extent.to_string());
            out.push(' ');
            out.push_str(&n.label);
            out.push('\n');
        }
        out
    }

    /// Reconstructs a guide from its wire form. Errors on malformed
    /// input (wrong header, dangling parents, non-root without parent).
    pub fn from_wire(wire: &str) -> Result<DataGuide, String> {
        let mut lines = wire.lines();
        match lines.next() {
            Some(WIRE_HEADER) => {}
            other => return Err(format!("bad guide wire header: {other:?}")),
        }
        let mut guide: Option<DataGuide> = None;
        for (i, line) in lines.enumerate() {
            let mut parts = line.splitn(4, ' ');
            let (Some(parent), Some(kind), Some(extent), Some(label)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("guide wire line {i} malformed: {line:?}"));
            };
            let is_attr = match kind {
                "e" => false,
                "a" => true,
                other => return Err(format!("guide wire line {i}: bad kind {other:?}")),
            };
            // Extents are counts, applied as signed deltas: above
            // `i64::MAX` is corruption.
            let extent: i64 = extent
                .parse::<u64>()
                .ok()
                .and_then(|e| i64::try_from(e).ok())
                .ok_or_else(|| format!("guide wire line {i}: bad extent {extent:?}"))?;
            match (&mut guide, parent) {
                (None, "-") => {
                    if is_attr {
                        return Err("guide root cannot be an attribute".into());
                    }
                    let mut g = DataGuide::new(label);
                    g.add_extent(g.root(), extent - 1);
                    guide = Some(g);
                }
                (None, _) => return Err("guide wire: first node must be the root".into()),
                (Some(_), "-") => {
                    return Err(format!("guide wire line {i}: second root {label:?}"))
                }
                (Some(g), parent) => {
                    let pid: u32 = parent
                        .parse()
                        .map_err(|_| format!("guide wire line {i}: bad parent {parent:?}"))?;
                    if pid as usize >= g.len() {
                        return Err(format!("guide wire line {i}: dangling parent {pid}"));
                    }
                    let gid = g.ensure_child(GuideId(pid), label, is_attr);
                    if gid.index() != i {
                        return Err(format!(
                            "guide wire line {i}: duplicate node under parent {pid}"
                        ));
                    }
                    g.add_extent(gid, extent);
                }
            }
        }
        guide.ok_or_else(|| "guide wire contained no nodes".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtx_xml::parse;
    use dtx_xml::stream::{pump, XmlTokenizer};

    const XML: &str = "<people>\
        <person status=\"a\"><id>1</id><name>Ana</name></person>\
        <person><id>2</id><name>Bruno</name><phone>555</phone></person>\
        </people>";

    fn guides_equal(a: &DataGuide, b: &DataGuide) -> bool {
        if a.len() != b.len() {
            return false;
        }
        (0..a.len()).all(|i| {
            let (na, nb) = (a.node(GuideId(i as u32)), b.node(GuideId(i as u32)));
            na.label == nb.label
                && na.is_attr == nb.is_attr
                && na.parent == nb.parent
                && na.extent == nb.extent
                && na.children == nb.children
        })
    }

    #[test]
    fn stream_build_matches_tree_build() {
        let tree_guide = DataGuide::build(&parse(XML).unwrap());
        let stream_guide = DataGuide::from_xml_stream(XML).unwrap();
        assert!(guides_equal(&tree_guide, &stream_guide));
    }

    #[test]
    fn builder_over_absorbs_second_fragment() {
        let mut g =
            DataGuide::from_xml_stream("<people><person><id>1</id></person></people>").unwrap();
        let mut b = GuideBuilder::over(g.clone());
        pump(
            &mut XmlTokenizer::new("<people><person><email>x</email></person></people>"),
            &mut b,
        )
        .unwrap();
        g.absorb(&parse("<people><person><email>x</email></person></people>").unwrap());
        let absorbed = b.finish().unwrap();
        assert!(guides_equal(&g, &absorbed));
    }

    #[test]
    fn mismatched_absorb_root_is_error() {
        let g = DataGuide::from_xml_stream("<people/>").unwrap();
        let mut b = GuideBuilder::over(g);
        let err = pump(&mut XmlTokenizer::new("<products/>"), &mut b);
        assert!(err.is_err());
    }

    #[test]
    fn wire_round_trip() {
        let g = DataGuide::from_xml_stream(XML).unwrap();
        let wire = g.to_wire();
        let back = DataGuide::from_wire(&wire).unwrap();
        assert!(guides_equal(&g, &back), "{wire}");
        // Shipped size is bounded by guide size, not document size.
        assert!(wire.len() < XML.len());
    }

    #[test]
    fn wire_rejects_malformed_input() {
        assert!(DataGuide::from_wire("").is_err());
        assert!(DataGuide::from_wire("nonsense/9\n").is_err());
        assert!(DataGuide::from_wire("dataguide/1\n").is_err());
        assert!(DataGuide::from_wire("dataguide/1\n0 e 1 notroot\n").is_err());
        assert!(DataGuide::from_wire("dataguide/1\n- e 1 r\n9 e 1 dangling\n").is_err());
        assert!(DataGuide::from_wire("dataguide/1\n- a 1 r\n").is_err());
        assert!(DataGuide::from_wire("dataguide/1\n- e x r\n").is_err());
        assert!(DataGuide::from_wire("dataguide/1\n- e 9223372036854775808 r\n").is_err());
    }

    #[test]
    fn wire_preserves_zero_extents_and_attrs() {
        let mut g = DataGuide::from_xml_stream("<r><x a=\"1\"/></r>").unwrap();
        let stale = g.ensure_path(&["gone"]);
        assert_eq!(g.node(stale).extent, 0);
        let back = DataGuide::from_wire(&g.to_wire()).unwrap();
        assert!(guides_equal(&g, &back));
    }
}

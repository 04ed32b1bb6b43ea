//! Pull-based streaming XML events: the ingestion substrate.
//!
//! Every ingestion path used to materialize whole documents as strings
//! (the parser took a `&str` and built the full tree, the XMark generator
//! rendered one giant `String`, DataGuide construction re-walked the
//! finished tree). This module replaces that with a SAX-style event
//! vocabulary with **bounded memory per event**:
//!
//! * [`XmlEvent`] — `StartElement` / `Attribute` / `Text` / `EndElement`,
//!   borrowing from the input where possible (`Cow`);
//! * [`XmlTokenizer`] — a pull tokenizer over a `&str` that yields events
//!   without building a tree; its transient state is O(element depth);
//! * [`EventSink`] — the consumer side: anything that can be fed events
//!   (tree builders, guide builders, serializers, fragment splitters);
//! * [`TreeBuilder`] — the sink that builds a [`Document`];
//!   [`crate::parser::parse`] is exactly `XmlTokenizer` → `TreeBuilder`;
//! * [`XmlWriter`] — the sink that serializes events back to compact XML
//!   (the streaming XMark generator writes through this);
//! * [`validate`] — well-formedness checking in O(depth) memory, for
//!   stores that want to reject corrupt documents without paying for a
//!   tree.
//!
//! Producers and consumers meet only at the event vocabulary, so any
//! producer (tokenizer, generator, network stream) can drive any consumer
//! (document, DataGuide, serializer, splitter) — or several at once via
//! [`Tee`] — in one pass.

use crate::document::Document;
use crate::error::{XmlError, XmlResult};
use crate::node::NodeId;
use crate::serializer::escape_into;
use std::borrow::Cow;

/// One SAX-style event of an XML document stream.
///
/// Invariants producers must uphold (the tokenizer does, and sinks may
/// rely on them):
/// * events form a balanced element tree with a single root;
/// * `Attribute` events appear only directly after their element's
///   `StartElement` (before any `Text`/child `StartElement`);
/// * adjacent `Text` events belong to the same text run (consumers that
///   care about text nodes merge them — the tokenizer emits entity
///   references and CDATA sections as separate events to keep per-event
///   memory bounded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// An element opens.
    StartElement {
        /// Element label.
        name: Cow<'a, str>,
    },
    /// An attribute of the most recently opened element.
    Attribute {
        /// Attribute label.
        name: Cow<'a, str>,
        /// Decoded attribute value.
        value: Cow<'a, str>,
    },
    /// A run (or partial run) of character data.
    Text {
        /// Decoded text content.
        value: Cow<'a, str>,
    },
    /// The most recently opened element closes.
    EndElement {
        /// Element label (matches the corresponding `StartElement`).
        name: Cow<'a, str>,
    },
}

impl<'a> XmlEvent<'a> {
    /// A `StartElement` with a borrowed/owned name.
    pub fn start(name: impl Into<Cow<'a, str>>) -> Self {
        XmlEvent::StartElement { name: name.into() }
    }

    /// An `Attribute` event.
    pub fn attr(name: impl Into<Cow<'a, str>>, value: impl Into<Cow<'a, str>>) -> Self {
        XmlEvent::Attribute {
            name: name.into(),
            value: value.into(),
        }
    }

    /// A `Text` event.
    pub fn text(value: impl Into<Cow<'a, str>>) -> Self {
        XmlEvent::Text {
            value: value.into(),
        }
    }

    /// An `EndElement` event.
    pub fn end(name: impl Into<Cow<'a, str>>) -> Self {
        XmlEvent::EndElement { name: name.into() }
    }

    /// Approximate serialized size contribution of this event in bytes
    /// (used by size-balancing consumers like the fragment splitter).
    pub fn byte_size(&self) -> usize {
        match self {
            XmlEvent::StartElement { name } => name.len() + 2,
            XmlEvent::Attribute { name, value } => name.len() + value.len() + 4,
            XmlEvent::Text { value } => value.len(),
            XmlEvent::EndElement { name } => name.len() + 3,
        }
    }
}

/// A consumer of XML events.
///
/// Sinks receive events in document order from any producer (tokenizer,
/// generator, network). Errors abort the stream.
pub trait EventSink {
    /// Consumes one event.
    fn event(&mut self, ev: &XmlEvent<'_>) -> XmlResult<()>;
}

/// Feeds both inner sinks every event (single-pass fan-out: e.g. build a
/// [`Document`] and its DataGuide from one generator run).
pub struct Tee<'s, A: EventSink, B: EventSink> {
    /// First sink.
    pub a: &'s mut A,
    /// Second sink.
    pub b: &'s mut B,
}

impl<'s, A: EventSink, B: EventSink> Tee<'s, A, B> {
    /// Couples two sinks.
    pub fn new(a: &'s mut A, b: &'s mut B) -> Self {
        Tee { a, b }
    }
}

impl<A: EventSink, B: EventSink> EventSink for Tee<'_, A, B> {
    fn event(&mut self, ev: &XmlEvent<'_>) -> XmlResult<()> {
        self.a.event(ev)?;
        self.b.event(ev)
    }
}

/// A sink that discards every event (used by [`validate`]).
pub struct NullSink;

impl EventSink for NullSink {
    fn event(&mut self, _ev: &XmlEvent<'_>) -> XmlResult<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Before the root element (XML declaration, DOCTYPE, comments, PIs).
    Prolog,
    /// Inside a start tag, emitting attributes.
    InTag,
    /// Inside element content.
    Content,
    /// After the root element closed (only misc allowed).
    Epilog,
}

/// Pull tokenizer: yields [`XmlEvent`]s from a `&str` without building a
/// tree. Transient state is the open-element stack (O(depth)); emitted
/// events borrow from the input wherever no entity decoding is needed.
///
/// Covers the same subset as the tree parser — by construction: the tree
/// parser *is* this tokenizer plus [`TreeBuilder`]. Elements, attributes,
/// character data, CDATA sections, comments (including `--`-adjacent
/// text), processing instructions, an XML declaration, DOCTYPE skipping,
/// the five predefined entities and numeric character references
/// (rejecting code points that are not XML characters).
pub struct XmlTokenizer<'a> {
    input: &'a [u8],
    pos: usize,
    state: State,
    /// Open element names, slices of the input.
    stack: Vec<&'a str>,
    /// Set when the current tag is self-closing: after the attributes the
    /// synthetic `EndElement` is emitted from here.
    self_closing: bool,
    /// Resume mode ([`XmlTokenizer::resume`]): the input is one chunk of
    /// a larger document, so a clean end-of-input inside element content
    /// is a valid chunk boundary, not an error.
    partial: bool,
    /// Elements opened by *earlier* chunks that this chunk may close.
    /// Their names live with the chunk producer (see `ChunkAssembler`),
    /// not in this input, so end tags for them are emitted unvalidated —
    /// the assembler checks them against its own cross-chunk stack.
    inherited: usize,
}

impl<'a> XmlTokenizer<'a> {
    /// Tokenizer over `input`.
    pub fn new(input: &'a str) -> Self {
        XmlTokenizer {
            input: input.as_bytes(),
            pos: 0,
            state: State::Prolog,
            stack: Vec::new(),
            self_closing: false,
            partial: false,
            inherited: 0,
        }
    }

    /// Tokenizer over one **chunk** of a document whose earlier chunks
    /// left `inherited` elements open (0 for the first chunk). The chunk
    /// must start and end at event boundaries — which is exactly what
    /// [`ChunkedWriter`] produces: tokenization starts in element content
    /// when `inherited > 0`, end tags may close inherited elements
    /// (name-checked by the caller, who owns the cross-chunk stack), and
    /// running out of input between events is a clean chunk end.
    pub fn resume(input: &'a str, inherited: usize) -> Self {
        XmlTokenizer {
            input: input.as_bytes(),
            pos: 0,
            state: if inherited > 0 {
                State::Content
            } else {
                State::Prolog
            },
            stack: Vec::new(),
            self_closing: false,
            partial: true,
            inherited,
        }
    }

    /// Current byte offset (error reporting, progress metrics).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Current element depth (including elements inherited from earlier
    /// chunks in resume mode).
    pub fn depth(&self) -> usize {
        self.stack.len() + self.inherited
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> XmlResult<()> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, end: &str) -> XmlResult<()> {
        while self.pos < self.input.len() {
            if self.eat(end) {
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.err(format!("unterminated construct, expected {end:?}")))
    }

    fn skip_doctype(&mut self) -> XmlResult<()> {
        // Skip to the matching '>' accounting for an optional [...] block.
        let mut depth = 0usize;
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => return Ok(()),
                _ => {}
            }
        }
        Err(self.err("unterminated DOCTYPE"))
    }

    /// Skips misc items allowed outside the root: whitespace, comments,
    /// PIs, the XML declaration, and a DOCTYPE.
    fn skip_misc(&mut self) -> XmlResult<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<!DOCTYPE") {
                self.pos += "<!DOCTYPE".len();
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skips a comment. Text adjacent to `--` runs (e.g. `<!--a--->`,
    /// `<!--x--y-->`) terminates at the first `-->`, never panics, and
    /// never consumes past it.
    fn skip_comment(&mut self) -> XmlResult<()> {
        debug_assert!(self.starts_with("<!--"));
        self.pos += "<!--".len();
        self.skip_until("-->")
    }

    fn name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        // Safety: we only advanced over ASCII name bytes.
        Ok(std::str::from_utf8(&self.input[start..self.pos]).expect("ascii name"))
    }

    /// Decodes one entity/character reference at the current `&`.
    fn entity(&mut self) -> XmlResult<char> {
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                let name = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| self.err("invalid entity name"))?;
                self.pos += 1;
                return match name {
                    "lt" => Ok('<'),
                    "gt" => Ok('>'),
                    "amp" => Ok('&'),
                    "apos" => Ok('\''),
                    "quot" => Ok('"'),
                    _ if name.starts_with("#x") || name.starts_with("#X") => {
                        char_ref(u32::from_str_radix(&name[2..], 16).ok())
                            .ok_or_else(|| self.err(format!("bad char reference &{name};")))
                    }
                    _ if name.starts_with('#') => char_ref(name[1..].parse::<u32>().ok())
                        .ok_or_else(|| self.err(format!("bad char reference &{name};"))),
                    _ => Err(self.err(format!("unknown entity &{name};"))),
                };
            }
            self.pos += 1;
        }
        Err(self.err("unterminated entity reference"))
    }

    fn attr_value(&mut self) -> XmlResult<Cow<'a, str>> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                q
            }
            _ => return Err(self.err("expected quoted attribute value")),
        };
        let start = self.pos;
        // Fast path: no entities → borrow the raw slice.
        let mut owned: Option<String> = None;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(q) if q == quote => {
                    let raw = &self.input[start..self.pos];
                    self.pos += 1;
                    return match owned {
                        Some(s) => Ok(Cow::Owned(s)),
                        None => {
                            Ok(Cow::Borrowed(std::str::from_utf8(raw).map_err(|_| {
                                self.err("invalid UTF-8 in attribute value")
                            })?))
                        }
                    };
                }
                Some(b'&') => {
                    if owned.is_none() {
                        let prefix = std::str::from_utf8(&self.input[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in attribute value"))?;
                        owned = Some(prefix.to_owned());
                    }
                    let ch = self.entity()?;
                    owned.as_mut().expect("just set").push(ch);
                    // Continue accumulating raw bytes into the owned buffer.
                    let run_start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote || b == b'&' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.input[run_start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in attribute value"))?;
                    owned.as_mut().expect("just set").push_str(run);
                }
                Some(_) => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Pulls the next event; `Ok(None)` at a well-formed end of input.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> XmlResult<Option<XmlEvent<'a>>> {
        loop {
            match self.state {
                State::Prolog => {
                    self.skip_misc()?;
                    if self.peek() != Some(b'<') {
                        return Err(self.err("expected root element"));
                    }
                    self.pos += 1;
                    let name = self.name()?;
                    self.stack.push(name);
                    self.state = State::InTag;
                    return Ok(Some(XmlEvent::start(name)));
                }
                State::InTag => {
                    if self.self_closing {
                        // The attributes of a self-closing tag are done;
                        // emit the synthetic end.
                        self.self_closing = false;
                        let name = self.stack.pop().expect("tag open");
                        self.state = if self.stack.is_empty() && self.inherited == 0 {
                            State::Epilog
                        } else {
                            State::Content
                        };
                        return Ok(Some(XmlEvent::end(name)));
                    }
                    self.skip_ws();
                    match self.peek() {
                        Some(b'/') => {
                            self.expect("/>")?;
                            self.self_closing = true;
                            // Loop around to emit the EndElement.
                        }
                        Some(b'>') => {
                            self.pos += 1;
                            self.state = State::Content;
                        }
                        Some(_) => {
                            let name = self.name()?;
                            self.skip_ws();
                            self.expect("=")?;
                            self.skip_ws();
                            let value = self.attr_value()?;
                            return Ok(Some(XmlEvent::Attribute {
                                name: Cow::Borrowed(name),
                                value,
                            }));
                        }
                        None => return Err(self.err("unterminated start tag")),
                    }
                }
                State::Content => match self.peek() {
                    None => {
                        if self.partial {
                            // Resume mode: between events is a valid
                            // chunk boundary.
                            return Ok(None);
                        }
                        return Err(self.err("unexpected end of input inside element"));
                    }
                    Some(b'<') => {
                        if self.starts_with("</") {
                            self.pos += 2;
                            let end_name = self.name()?;
                            match self.stack.last() {
                                Some(expected) if end_name != *expected => {
                                    return Err(self.err(format!(
                                        "mismatched end tag: expected </{expected}>, \
                                         found </{end_name}>"
                                    )));
                                }
                                Some(_) => {}
                                None => {
                                    // Closes an element opened by an
                                    // earlier chunk; the caller's
                                    // cross-chunk stack validates the
                                    // name.
                                    debug_assert!(self.partial);
                                    if self.inherited == 0 {
                                        return Err(
                                            self.err(format!("unbalanced end tag </{end_name}>"))
                                        );
                                    }
                                }
                            }
                            self.skip_ws();
                            self.expect(">")?;
                            if self.stack.pop().is_none() {
                                self.inherited -= 1;
                            }
                            if self.stack.is_empty() && self.inherited == 0 {
                                self.state = State::Epilog;
                            }
                            return Ok(Some(XmlEvent::end(end_name)));
                        } else if self.starts_with("<!--") {
                            self.skip_comment()?;
                        } else if self.starts_with("<![CDATA[") {
                            self.pos += "<![CDATA[".len();
                            let start = self.pos;
                            while self.pos < self.input.len() && !self.starts_with("]]>") {
                                self.pos += 1;
                            }
                            if self.pos >= self.input.len() {
                                return Err(self.err("unterminated CDATA section"));
                            }
                            let raw = std::str::from_utf8(&self.input[start..self.pos])
                                .map_err(|_| self.err("invalid UTF-8 in CDATA"))?;
                            self.pos += "]]>".len();
                            if !raw.is_empty() {
                                return Ok(Some(XmlEvent::text(raw)));
                            }
                        } else if self.starts_with("<?") {
                            self.skip_until("?>")?;
                        } else {
                            self.pos += 1;
                            let name = self.name()?;
                            self.stack.push(name);
                            self.state = State::InTag;
                            return Ok(Some(XmlEvent::start(name)));
                        }
                    }
                    Some(b'&') => {
                        let ch = self.entity()?;
                        let mut s = String::with_capacity(4);
                        s.push(ch);
                        return Ok(Some(XmlEvent::Text {
                            value: Cow::Owned(s),
                        }));
                    }
                    Some(_) => {
                        let start = self.pos;
                        while let Some(b) = self.peek() {
                            if b == b'<' || b == b'&' {
                                break;
                            }
                            self.pos += 1;
                        }
                        let raw = std::str::from_utf8(&self.input[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in text"))?;
                        return Ok(Some(XmlEvent::text(raw)));
                    }
                },
                State::Epilog => {
                    self.skip_misc()?;
                    if self.pos != self.input.len() {
                        return Err(self.err("trailing content after root element"));
                    }
                    return Ok(None);
                }
            }
        }
    }
}

impl<'a> Iterator for XmlTokenizer<'a> {
    type Item = XmlResult<XmlEvent<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        XmlTokenizer::next(self).transpose()
    }
}

/// A code point is an XML 1.0 `Char`: tab/LF/CR, the BMP minus
/// surrogates/FFFE/FFFF, and the supplementary planes. The old parser
/// accepted any `char` (including NUL and other control characters that
/// no XML document may contain); the tokenizer rejects them.
fn char_ref(code: Option<u32>) -> Option<char> {
    let c = char::from_u32(code?)?;
    let ok = matches!(c, '\u{9}' | '\u{A}' | '\u{D}')
        || ('\u{20}'..='\u{D7FF}').contains(&c)
        || ('\u{E000}'..='\u{FFFD}').contains(&c)
        || c >= '\u{10000}';
    ok.then_some(c)
}

/// Drives every event of `tok` into `sink`.
pub fn pump(tok: &mut XmlTokenizer<'_>, sink: &mut impl EventSink) -> XmlResult<()> {
    while let Some(ev) = tok.next()? {
        sink.event(&ev)?;
    }
    Ok(())
}

/// Checks well-formedness of `input` in O(element depth) memory, without
/// building a tree (the storage substrate's ingest-time validation).
pub fn validate(input: &str) -> XmlResult<()> {
    pump(&mut XmlTokenizer::new(input), &mut NullSink)
}

// ---------------------------------------------------------------------
// TreeBuilder
// ---------------------------------------------------------------------

/// Builds a [`Document`] from an event stream.
///
/// Text handling matches the historical tree parser exactly: adjacent
/// text events merge into one text node, and runs that are pure
/// whitespace (formatting noise between elements) are dropped.
pub struct TreeBuilder {
    doc: Option<Document>,
    stack: Vec<NodeId>,
    text: String,
}

impl Default for TreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        TreeBuilder {
            doc: None,
            stack: Vec::new(),
            text: String::new(),
        }
    }

    fn top(&self) -> XmlResult<NodeId> {
        self.stack
            .last()
            .copied()
            .ok_or_else(|| XmlError::InvalidTreeOp("event outside the root element".into()))
    }

    fn flush_text(&mut self) -> XmlResult<()> {
        if self.text.trim().is_empty() {
            self.text.clear();
            return Ok(());
        }
        let parent = self.top()?;
        let doc = self.doc.as_mut().expect("root open");
        doc.append_text(parent, std::mem::take(&mut self.text))?;
        Ok(())
    }

    /// Finishes the build; errors when the stream ended mid-element or
    /// never opened a root.
    pub fn finish(self) -> XmlResult<Document> {
        if !self.stack.is_empty() {
            return Err(XmlError::InvalidTreeOp(
                "event stream ended with open elements".into(),
            ));
        }
        self.doc
            .ok_or_else(|| XmlError::InvalidTreeOp("event stream contained no root".into()))
    }
}

impl EventSink for TreeBuilder {
    fn event(&mut self, ev: &XmlEvent<'_>) -> XmlResult<()> {
        match ev {
            XmlEvent::StartElement { name } => match self.doc {
                None => {
                    let doc = Document::new(name);
                    self.stack.push(doc.root());
                    self.doc = Some(doc);
                }
                Some(_) => {
                    self.flush_text()?;
                    let parent = self.top()?;
                    let doc = self.doc.as_mut().expect("root open");
                    let id = doc.append_element(parent, name)?;
                    self.stack.push(id);
                }
            },
            XmlEvent::Attribute { name, value } => {
                let parent = self.top()?;
                let doc = self
                    .doc
                    .as_mut()
                    .ok_or_else(|| XmlError::InvalidTreeOp("attribute before root".into()))?;
                doc.append_attribute(parent, name, value.clone().into_owned())?;
            }
            XmlEvent::Text { value } => {
                // Merge adjacent text; flushed (or dropped as whitespace)
                // at the next structural event.
                self.text.push_str(value);
            }
            XmlEvent::EndElement { .. } => {
                self.flush_text()?;
                self.stack
                    .pop()
                    .ok_or_else(|| XmlError::InvalidTreeOp("unbalanced EndElement".into()))?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// XmlWriter
// ---------------------------------------------------------------------

/// Serializes an event stream to compact XML text.
///
/// Writes the bytes [`crate::Serializer`] writes: empty elements
/// self-close (`<x/>`) and text and attribute values are escaped by the
/// serializer's own routine, so [`document_events`] into this sink gives
/// `to_xml()` exactly. Re-tokenizing the output yields the same events
/// back (modulo text-run splits).
pub struct XmlWriter {
    out: String,
    /// Names of open elements.
    stack: Vec<String>,
    /// The innermost start tag is still open (`<name` emitted, `>` not).
    tag_open: bool,
    /// The innermost element has content (decides `/>` vs `</name>`).
    has_content: Vec<bool>,
}

impl Default for XmlWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl XmlWriter {
    /// A writer with an empty buffer.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A writer whose buffer pre-allocates `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        XmlWriter {
            out: String::with_capacity(cap),
            stack: Vec::new(),
            tag_open: false,
            has_content: Vec::new(),
        }
    }

    fn close_tag_for_content(&mut self) {
        if self.tag_open {
            self.out.push('>');
            self.tag_open = false;
        }
        if let Some(hc) = self.has_content.last_mut() {
            *hc = true;
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Finishes and returns the XML text.
    pub fn finish(self) -> String {
        self.out
    }
}

impl EventSink for XmlWriter {
    fn event(&mut self, ev: &XmlEvent<'_>) -> XmlResult<()> {
        match ev {
            XmlEvent::StartElement { name } => {
                self.close_tag_for_content();
                self.out.push('<');
                self.out.push_str(name);
                self.stack.push(name.clone().into_owned());
                self.tag_open = true;
                self.has_content.push(false);
            }
            XmlEvent::Attribute { name, value } => {
                if !self.tag_open {
                    return Err(XmlError::InvalidTreeOp(
                        "attribute event after element content".into(),
                    ));
                }
                self.out.push(' ');
                self.out.push_str(name);
                self.out.push_str("=\"");
                escape_into(value, true, &mut self.out);
                self.out.push('"');
            }
            XmlEvent::Text { value } => {
                self.close_tag_for_content();
                escape_into(value, false, &mut self.out);
            }
            XmlEvent::EndElement { .. } => {
                let name = self.stack.pop().ok_or_else(|| {
                    XmlError::InvalidTreeOp("unbalanced EndElement in writer".into())
                })?;
                let had_content = self.has_content.pop().unwrap_or(false);
                if self.tag_open && !had_content {
                    self.out.push_str("/>");
                    self.tag_open = false;
                } else {
                    self.close_tag_for_content();
                    self.out.push_str("</");
                    self.out.push_str(&name);
                    self.out.push('>');
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Chunked streaming: ChunkedWriter / ChunkAssembler
// ---------------------------------------------------------------------

/// Serializes an event stream into **bounded chunks** of XML text,
/// handing each chunk to a callback as soon as it exceeds the target
/// size. Memory held at any moment is O(chunk size + element depth) — a
/// document of any length streams through without ever materializing as
/// one string.
///
/// Chunks split only at *event boundaries* (never inside a tag, an
/// attribute, or an escaped character), so each chunk re-tokenizes
/// independently with [`XmlTokenizer::resume`]; [`ChunkAssembler`] is the
/// receiving half. WAL document images travel this path: written from the
/// installed tree through [`document_events`], rebuilt at replay.
pub struct ChunkedWriter<F: FnMut(&str) -> XmlResult<()>> {
    inner: XmlWriter,
    /// A chunk is handed off once the buffer reaches this many bytes
    /// (and the writer is at a splittable point).
    chunk_size: usize,
    emit: F,
}

impl<F: FnMut(&str) -> XmlResult<()>> ChunkedWriter<F> {
    /// A writer that emits chunks of at least `chunk_size` bytes (the
    /// last chunk may be smaller) through `emit`.
    pub fn new(chunk_size: usize, emit: F) -> Self {
        ChunkedWriter {
            inner: XmlWriter::with_capacity(chunk_size.clamp(1, 1 << 20)),
            chunk_size: chunk_size.max(1),
            emit,
        }
    }

    /// Flushes the final partial chunk; errors if the event stream left
    /// elements open.
    pub fn finish(mut self) -> XmlResult<()> {
        if !self.inner.stack.is_empty() || self.inner.tag_open {
            return Err(XmlError::InvalidTreeOp(
                "chunked stream ended with open elements".into(),
            ));
        }
        if !self.inner.out.is_empty() {
            (self.emit)(&self.inner.out)?;
        }
        Ok(())
    }
}

impl<F: FnMut(&str) -> XmlResult<()>> EventSink for ChunkedWriter<F> {
    fn event(&mut self, ev: &XmlEvent<'_>) -> XmlResult<()> {
        self.inner.event(ev)?;
        // Split only when no start tag is dangling: `tag_open` means a
        // later event may still turn `<x ...` into `<x/>` or append
        // attributes, so the bytes are not yet final.
        if self.inner.out.len() >= self.chunk_size && !self.inner.tag_open {
            (self.emit)(&self.inner.out)?;
            self.inner.out.clear();
        }
        Ok(())
    }
}

/// Rebuilds a [`Document`] from the chunks a [`ChunkedWriter`] produced,
/// re-tokenizing each chunk in O(chunk size + depth) memory. The
/// assembler owns the cross-chunk open-element stack, so end tags that
/// close an element opened in an earlier chunk are validated here (the
/// per-chunk tokenizer cannot see those names).
pub struct ChunkAssembler {
    builder: TreeBuilder,
    /// Elements currently open across chunk boundaries.
    open: Vec<String>,
    /// Set once the root element has closed.
    complete: bool,
    started: bool,
}

impl Default for ChunkAssembler {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkAssembler {
    /// An assembler awaiting the first chunk.
    pub fn new() -> Self {
        ChunkAssembler {
            builder: TreeBuilder::new(),
            open: Vec::new(),
            complete: false,
            started: false,
        }
    }

    /// Feeds the next chunk in order.
    pub fn chunk(&mut self, xml: &str) -> XmlResult<()> {
        if self.complete {
            return Err(XmlError::InvalidTreeOp(
                "chunk after the document completed".into(),
            ));
        }
        let mut tok = XmlTokenizer::resume(xml, self.open.len());
        while let Some(ev) = tok.next()? {
            match &ev {
                XmlEvent::StartElement { name } => {
                    self.open.push(name.clone().into_owned());
                    self.started = true;
                }
                XmlEvent::EndElement { name } => {
                    let expected = self.open.pop().ok_or_else(|| {
                        XmlError::InvalidTreeOp(format!("unbalanced end tag </{name}>"))
                    })?;
                    if *name != expected {
                        return Err(XmlError::InvalidTreeOp(format!(
                            "mismatched cross-chunk end tag: expected </{expected}>, \
                             found </{name}>"
                        )));
                    }
                    if self.open.is_empty() {
                        self.complete = true;
                    }
                }
                _ => {}
            }
            self.builder.event(&ev)?;
        }
        Ok(())
    }

    /// Elements still open (0 once the root closed).
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// True when the root element has closed (no more chunks expected).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Finishes the build; errors if chunks stopped mid-document.
    pub fn finish(self) -> XmlResult<Document> {
        if !self.complete || !self.started {
            return Err(XmlError::InvalidTreeOp(
                "chunk stream ended before the document completed".into(),
            ));
        }
        self.builder.finish()
    }
}

/// Streams the events of an existing document subtree into `sink`
/// (pre-order; the inverse of [`TreeBuilder`]). WAL document images are
/// written this way, straight from the tree into a [`ChunkedWriter`].
pub fn document_events(doc: &Document, root: NodeId, sink: &mut impl EventSink) -> XmlResult<()> {
    use crate::node::NodeKind;
    enum Walk {
        Enter(NodeId),
        Leave(NodeId),
    }
    let mut stack = vec![Walk::Enter(root)];
    while let Some(step) = stack.pop() {
        match step {
            Walk::Enter(id) => {
                let node = doc.node(id)?;
                match &node.kind {
                    NodeKind::Element { label } => {
                        let name = doc.interner().resolve(*label);
                        sink.event(&XmlEvent::start(name))?;
                        stack.push(Walk::Leave(id));
                        // Attribute events must precede content events
                        // (the serializer partitions the same way), so
                        // push content first, attributes last (LIFO).
                        for &c in node.children.iter().rev() {
                            if !doc.node(c)?.is_attribute() {
                                stack.push(Walk::Enter(c));
                            }
                        }
                        for &c in node.children.iter().rev() {
                            if doc.node(c)?.is_attribute() {
                                stack.push(Walk::Enter(c));
                            }
                        }
                    }
                    NodeKind::Attribute { label, value } => {
                        let name = doc.interner().resolve(*label);
                        sink.event(&XmlEvent::attr(name, value.as_str()))?;
                    }
                    NodeKind::Text { value } => {
                        sink.event(&XmlEvent::text(value.as_str()))?;
                    }
                }
            }
            Walk::Leave(id) => {
                let name = doc.label_str(id)?;
                sink.event(&XmlEvent::end(name.to_owned()))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_of(xml: &str) -> Vec<XmlEvent<'_>> {
        let mut tok = XmlTokenizer::new(xml);
        let mut out = Vec::new();
        while let Some(ev) = tok.next().unwrap() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn tokenizes_minimal_document() {
        assert_eq!(
            events_of("<r/>"),
            vec![XmlEvent::start("r"), XmlEvent::end("r")]
        );
    }

    #[test]
    fn tokenizes_attributes_and_text() {
        let evs = events_of(r#"<item id="13">Mouse</item>"#);
        assert_eq!(
            evs,
            vec![
                XmlEvent::start("item"),
                XmlEvent::attr("id", "13"),
                XmlEvent::text("Mouse"),
                XmlEvent::end("item"),
            ]
        );
    }

    #[test]
    fn borrowed_where_possible() {
        let xml = r#"<a b="plain">text</a>"#;
        for ev in events_of(xml) {
            match ev {
                XmlEvent::Attribute { value, .. } => {
                    assert!(matches!(value, Cow::Borrowed(_)))
                }
                XmlEvent::Text { value } => assert!(matches!(value, Cow::Borrowed(_))),
                _ => {}
            }
        }
    }

    #[test]
    fn entities_decode_as_separate_events() {
        let evs = events_of("<t>a&amp;b</t>");
        assert_eq!(
            evs,
            vec![
                XmlEvent::start("t"),
                XmlEvent::text("a"),
                XmlEvent::text("&"),
                XmlEvent::text("b"),
                XmlEvent::end("t"),
            ]
        );
    }

    #[test]
    fn attribute_entities_fold_into_one_event() {
        let evs = events_of(r#"<t a="x&quot;y&apos;z"/>"#);
        assert_eq!(evs[1], XmlEvent::attr("a", "x\"y'z"));
    }

    #[test]
    fn cdata_is_a_text_event() {
        let evs = events_of("<t><![CDATA[<not><parsed>&amp;]]></t>");
        assert_eq!(evs[1], XmlEvent::text("<not><parsed>&amp;"));
    }

    #[test]
    fn comments_with_dash_adjacent_text() {
        // `--`-adjacent comment content terminates at the first `-->`.
        assert_eq!(
            events_of("<t><!--a--b-->x</t>"),
            vec![
                XmlEvent::start("t"),
                XmlEvent::text("x"),
                XmlEvent::end("t")
            ]
        );
        // Trailing extra dashes are comment content up to the first
        // `-->`; what follows the close is document text.
        let evs = events_of("<t><!--a---->y</t>");
        assert_eq!(evs[1], XmlEvent::text("y"));
        // A dash run that never closes is an unterminated comment.
        assert!(validate("<t><!--a--- </t>").is_err());
    }

    #[test]
    fn numeric_char_refs_decode() {
        let evs = events_of("<t>&#65;&#x42;&#xA;</t>");
        assert_eq!(evs[1], XmlEvent::text("A"));
        assert_eq!(evs[2], XmlEvent::text("B"));
        assert_eq!(evs[3], XmlEvent::text("\n"));
    }

    #[test]
    fn invalid_char_refs_are_errors() {
        for bad in [
            "<t>&#0;</t>",       // NUL is not an XML Char
            "<t>&#x1F;</t>",     // C0 control
            "<t>&#xFFFF;</t>",   // non-character
            "<t>&#xD800;</t>",   // surrogate
            "<t>&#x110000;</t>", // beyond Unicode
            "<t>&#xZZ;</t>",     // malformed
        ] {
            assert!(validate(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn self_closing_emits_balanced_end() {
        assert_eq!(
            events_of("<r><a/><b x='1'/></r>"),
            vec![
                XmlEvent::start("r"),
                XmlEvent::start("a"),
                XmlEvent::end("a"),
                XmlEvent::start("b"),
                XmlEvent::attr("x", "1"),
                XmlEvent::end("b"),
                XmlEvent::end("r"),
            ]
        );
    }

    #[test]
    fn mismatched_end_tag_is_error() {
        let err = validate("<a><b></a></b>").unwrap_err();
        assert!(err.to_string().contains("mismatched end tag"));
    }

    #[test]
    fn validate_is_o_depth() {
        // A long flat document validates without building anything; the
        // only state is the (depth-1) stack.
        let mut xml = String::from("<r>");
        for i in 0..10_000 {
            xml.push_str(&format!("<x i=\"{i}\">v</x>"));
        }
        xml.push_str("</r>");
        validate(&xml).unwrap();
    }

    #[test]
    fn writer_round_trips_through_tokenizer() {
        let src = r#"<site a="1"><p>x &amp; y</p><empty/></site>"#;
        let mut w = XmlWriter::new();
        pump(&mut XmlTokenizer::new(src), &mut w).unwrap();
        let written = w.finish();
        // Round-trip: same document once text runs are merged.
        let d1 = crate::parser::parse(src).unwrap();
        let d2 = crate::parser::parse(&written).unwrap();
        assert_eq!(d1.to_xml(), d2.to_xml());
    }

    #[test]
    fn tee_feeds_both_sinks() {
        let mut a = XmlWriter::new();
        let mut b = TreeBuilder::new();
        {
            let mut tee = Tee::new(&mut a, &mut b);
            let mut tok = XmlTokenizer::new("<r><x>1</x></r>");
            pump(&mut tok, &mut tee).unwrap();
        }
        assert_eq!(a.finish(), "<r><x>1</x></r>");
        assert_eq!(b.finish().unwrap().node_count(), 3);
    }

    #[test]
    fn document_events_round_trip() {
        let src = r#"<r a="v"><x>1</x><y/>tail</r>"#;
        let doc = crate::parser::parse(src).unwrap();
        let mut tb = TreeBuilder::new();
        document_events(&doc, doc.root(), &mut tb).unwrap();
        let rebuilt = tb.finish().unwrap();
        assert_eq!(rebuilt.to_xml(), doc.to_xml());
    }

    #[test]
    fn chunked_round_trip_preserves_document() {
        // A deep-ish document streamed through tiny chunks must rebuild
        // byte-identically, and every chunk must stay near the target
        // size (bounded memory).
        let mut xml = String::from("<site>");
        for i in 0..50 {
            xml.push_str(&format!(
                "<item id=\"{i}\"><name>n{i}</name><desc>d &amp; {i}</desc></item>"
            ));
        }
        xml.push_str("</site>");
        let doc = crate::parser::parse(&xml).unwrap();
        let mut chunks: Vec<String> = Vec::new();
        {
            let mut w = ChunkedWriter::new(64, |c: &str| {
                chunks.push(c.to_owned());
                Ok(())
            });
            document_events(&doc, doc.root(), &mut w).unwrap();
            w.finish().unwrap();
        }
        assert!(chunks.len() > 10, "small chunks: {}", chunks.len());
        for c in &chunks[..chunks.len() - 1] {
            assert!(c.len() >= 64 && c.len() < 64 + 128, "chunk len {}", c.len());
        }
        let mut asm = ChunkAssembler::new();
        for c in &chunks {
            asm.chunk(c).unwrap();
        }
        assert!(asm.is_complete());
        let rebuilt = asm.finish().unwrap();
        assert_eq!(rebuilt.to_xml(), doc.to_xml());
    }

    #[test]
    fn chunk_boundaries_fall_between_events() {
        // Attributes never straddle a boundary: a chunk ending right
        // after a StartElement would leave `<x` dangling, which the
        // writer refuses to split on.
        let src = r#"<r><a k="vvvvvvvvvvvvvvvvvvvvvvvv" j="w">t</a><b/></r>"#;
        let mut chunks: Vec<String> = Vec::new();
        let mut w = ChunkedWriter::new(4, |c: &str| {
            chunks.push(c.to_owned());
            Ok(())
        });
        pump(&mut XmlTokenizer::new(src), &mut w).unwrap();
        w.finish().unwrap();
        for c in &chunks {
            // Every chunk re-tokenizes on its own (resume mode).
            let mut tok = XmlTokenizer::resume(c, 8);
            while tok.next().unwrap().is_some() {}
        }
        let mut asm = ChunkAssembler::new();
        for c in &chunks {
            asm.chunk(c).unwrap();
        }
        assert_eq!(
            asm.finish().unwrap().to_xml(),
            crate::parser::parse(src).unwrap().to_xml()
        );
    }

    #[test]
    fn assembler_rejects_cross_chunk_mismatch_and_truncation() {
        let mut asm = ChunkAssembler::new();
        asm.chunk("<a><b>").unwrap();
        assert_eq!(asm.depth(), 2);
        // Wrong cross-chunk close: tokenizer can't know, assembler must.
        assert!(asm.chunk("</c>").is_err());

        let mut trunc = ChunkAssembler::new();
        trunc.chunk("<a><b>x</b>").unwrap();
        assert!(!trunc.is_complete());
        assert!(trunc.finish().is_err(), "root never closed");
    }

    #[test]
    fn resume_mode_rejects_overclosing() {
        let mut tok = XmlTokenizer::resume("</x></y>", 1);
        assert_eq!(tok.next().unwrap(), Some(XmlEvent::end("x")));
        assert!(tok.next().is_err(), "closed more than was ever open");
    }

    #[test]
    fn tokenizer_depth_and_offset_track_progress() {
        let mut tok = XmlTokenizer::new("<a><b/></a>");
        assert_eq!(tok.depth(), 0);
        tok.next().unwrap(); // <a>
        assert_eq!(tok.depth(), 1);
        assert!(tok.offset() > 0);
    }
}

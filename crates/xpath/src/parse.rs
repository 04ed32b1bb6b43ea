//! Recursive-descent parser for the DTX query subset.
//!
//! Grammar (whitespace insignificant except inside string literals):
//!
//! ```text
//! query      := step+
//! step       := ("/" | "//") ("@"? nametest) predicate?
//! nametest   := NAME | "*" | "text()"
//! predicate  := "[" or-expr "]"
//! or-expr    := and-expr ("or" and-expr)*
//! and-expr   := unary ("and" unary)*
//! unary      := "not" "(" or-expr ")" | "(" or-expr ")" | comparison
//! comparison := relpath (cmpop literal)?
//! relpath    := nametest (("/" | "//") "@"? nametest)*   -- also "@name"
//! cmpop      := "=" | "!=" | "<" | "<=" | ">" | ">="
//! literal    := NUMBER | STRING
//! ```
//!
//! Each `[`, `(` and `not(` opens one level of predicate nesting; past
//! [`MAX_PREDICATE_DEPTH`] levels the parse fails instead of recursing
//! further, so query text that arrives off the wire cannot overflow the
//! decoding thread's stack.

use crate::ast::{Axis, CmpOp, Literal, NodeTest, Predicate, Query, Step};
use std::fmt;

/// Error raised when query text does not conform to the DTX subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Description of what was expected.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest predicate nesting the parser accepts. Real queries nest a few
/// levels; the bound matches the wire decoder's fragment depth bound.
pub const MAX_PREDICATE_DEPTH: usize = 256;

/// Parses an absolute query. See the module-level grammar.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let mut p = P {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    if p.peek() != Some(b'/') {
        return Err(p.err("queries must be absolute (start with '/')"));
    }
    let q = p.location_path(true)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing characters after query"));
    }
    if q.steps.is_empty() {
        return Err(p.err("empty query"));
    }
    Ok(q)
}

struct P<'a> {
    input: &'a [u8],
    pos: usize,
    /// Open `[`, `(` and `not(` levels around the current position.
    depth: usize,
}

impl<'a> P<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.input[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Consumes a keyword only when it is not a prefix of a longer name.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.input[self.pos..].starts_with(kw.as_bytes()) {
            let next = self.input.get(self.pos + kw.len()).copied();
            let boundary =
                !matches!(next, Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
            if boundary {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .expect("ascii")
            .to_owned())
    }

    /// Parses a location path. `absolute` paths require a leading axis
    /// token; relative paths (inside predicates) start with a name test.
    fn location_path(&mut self, absolute: bool) -> Result<Query, ParseError> {
        let mut steps = Vec::new();
        if !absolute {
            steps.push(self.bare_step()?);
        }
        loop {
            self.skip_ws();
            let axis = if self.eat("//") {
                Axis::Descendant
            } else if self.eat("/") {
                Axis::Child
            } else {
                break;
            };
            let mut step = self.bare_step()?;
            // `//name` and `/name` differ only in axis; `/@name` was handled
            // inside bare_step by upgrading the axis.
            if step.axis != Axis::Attribute {
                step.axis = axis;
            } else if axis == Axis::Descendant {
                return Err(self.err("'//@name' is outside the DTX subset"));
            }
            steps.push(step);
        }
        Ok(Query { steps })
    }

    /// Parses `@name`, `name`, `*`, or `text()` plus an optional predicate,
    /// with a default child axis.
    fn bare_step(&mut self) -> Result<Step, ParseError> {
        self.skip_ws();
        let axis = if self.eat("@") {
            Axis::Attribute
        } else {
            Axis::Child
        };
        let test = if self.eat("*") {
            NodeTest::Wildcard
        } else {
            let before = self.pos;
            if self.eat_kw("text") && {
                self.skip_ws();
                self.eat("()")
            } {
                NodeTest::Text
            } else {
                // Not `text()`; backtrack and read a plain name (which may
                // itself be "text").
                self.pos = before;
                NodeTest::Name(self.name()?)
            }
        };
        if axis == Axis::Attribute && !matches!(test, NodeTest::Name(_)) {
            return Err(self.err("attribute steps require a name"));
        }
        self.skip_ws();
        let predicate = if self.eat("[") {
            let p = self.or_expr()?;
            self.skip_ws();
            if !self.eat("]") {
                return Err(self.err("expected ']'"));
            }
            Some(p)
        } else {
            None
        };
        Ok(Step {
            axis,
            test,
            predicate,
        })
    }

    /// One nesting level: every `[`, `(` and `not(` parses its content
    /// here, so this is where the depth bound is kept. (An error ends the
    /// whole parse, so only the `Ok` path needs to restore `depth`.)
    fn or_expr(&mut self) -> Result<Predicate, ParseError> {
        if self.depth == MAX_PREDICATE_DEPTH {
            return Err(self.err("predicates nested too deep"));
        }
        self.depth += 1;
        let mut left = self.and_expr()?;
        loop {
            self.skip_ws();
            if self.eat_kw("or") {
                let right = self.and_expr()?;
                left = Predicate::Or(Box::new(left), Box::new(right));
            } else {
                self.depth -= 1;
                return Ok(left);
            }
        }
    }

    fn and_expr(&mut self) -> Result<Predicate, ParseError> {
        let mut left = self.unary()?;
        loop {
            self.skip_ws();
            if self.eat_kw("and") {
                let right = self.unary()?;
                left = Predicate::And(Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn unary(&mut self) -> Result<Predicate, ParseError> {
        self.skip_ws();
        if self.eat_kw("not") {
            self.skip_ws();
            if !self.eat("(") {
                return Err(self.err("expected '(' after 'not'"));
            }
            let inner = self.or_expr()?;
            self.skip_ws();
            if !self.eat(")") {
                return Err(self.err("expected ')'"));
            }
            return Ok(Predicate::Not(Box::new(inner)));
        }
        if self.eat("(") {
            let inner = self.or_expr()?;
            self.skip_ws();
            if !self.eat(")") {
                return Err(self.err("expected ')'"));
            }
            return Ok(inner);
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Predicate, ParseError> {
        let path = self.location_path(false)?;
        self.skip_ws();
        let op = if self.eat("!=") {
            Some(CmpOp::Ne)
        } else if self.eat("<=") {
            Some(CmpOp::Le)
        } else if self.eat(">=") {
            Some(CmpOp::Ge)
        } else if self.eat("=") {
            Some(CmpOp::Eq)
        } else if self.eat("<") {
            Some(CmpOp::Lt)
        } else if self.eat(">") {
            Some(CmpOp::Gt)
        } else {
            None
        };
        match op {
            None => Ok(Predicate::Exists(path)),
            Some(op) => {
                let value = self.literal()?;
                Ok(Predicate::Cmp { path, op, value })
            }
        }
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == q {
                        let s = std::str::from_utf8(&self.input[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in string literal"))?
                            .to_owned();
                        self.pos += 1;
                        return Ok(Literal::Str(s));
                    }
                    self.pos += 1;
                }
                Err(self.err("unterminated string literal"))
            }
            Some(b) if b.is_ascii_digit() || b == b'-' || b == b'.' => {
                let start = self.pos;
                if b == b'-' {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.') {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii");
                text.parse::<f64>()
                    .map(Literal::Number)
                    .map_err(|_| self.err(format!("invalid number {text:?}")))
            }
            _ => Err(self.err("expected a literal")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(s: &str) -> Query {
        parse_query(s).unwrap_or_else(|e| panic!("parse {s:?}: {e}"))
    }

    #[test]
    fn simple_child_path() {
        let query = q("/products/product/id");
        assert_eq!(query.steps.len(), 3);
        assert!(query.steps.iter().all(|s| s.axis == Axis::Child));
    }

    #[test]
    fn descendant_axis() {
        let query = q("//product");
        assert_eq!(query.steps.len(), 1);
        assert_eq!(query.steps[0].axis, Axis::Descendant);
        let query = q("/site//item/name");
        assert_eq!(query.steps[1].axis, Axis::Descendant);
    }

    #[test]
    fn attribute_step() {
        let query = q("/site/people/person/@id");
        assert_eq!(query.steps[3].axis, Axis::Attribute);
        assert_eq!(query.steps[3].test, NodeTest::Name("id".into()));
    }

    #[test]
    fn wildcard_and_text() {
        let query = q("/a/*/text()");
        assert_eq!(query.steps[1].test, NodeTest::Wildcard);
        assert_eq!(query.steps[2].test, NodeTest::Text);
    }

    #[test]
    fn numeric_predicate() {
        let query = q("/products/product[id=4]");
        match query.steps[1].predicate.as_ref().unwrap() {
            Predicate::Cmp { path, op, value } => {
                assert_eq!(path.to_string(), "/id");
                assert_eq!(*op, CmpOp::Eq);
                assert_eq!(*value, Literal::Number(4.0));
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn string_predicate_with_attribute_path() {
        let query = q("/site/people/person[@id=\"p12\"]/name");
        match query.steps[2].predicate.as_ref().unwrap() {
            Predicate::Cmp { path, value, .. } => {
                assert_eq!(path.steps[0].axis, Axis::Attribute);
                assert_eq!(*value, Literal::Str("p12".into()));
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn boolean_predicates() {
        let query = q("/a[b=1 and c=2]");
        assert!(matches!(
            query.steps[0].predicate,
            Some(Predicate::And(_, _))
        ));
        let query = q("/a[b=1 or c=2 and d=3]"); // and binds tighter
        match query.steps[0].predicate.as_ref().unwrap() {
            Predicate::Or(_, rhs) => assert!(matches!(**rhs, Predicate::And(_, _))),
            other => panic!("unexpected {other:?}"),
        }
        let query = q("/a[not(b) and (c or d)]");
        assert!(matches!(
            query.steps[0].predicate,
            Some(Predicate::And(_, _))
        ));
    }

    #[test]
    fn exists_predicate() {
        let query = q("/people/person[phone]");
        assert!(matches!(
            query.steps[1].predicate,
            Some(Predicate::Exists(_))
        ));
    }

    #[test]
    fn relative_predicate_paths_with_depth() {
        let query = q("/site/open_auctions/open_auction[bidder/increase>10]");
        match query.steps[2].predicate.as_ref().unwrap() {
            Predicate::Cmp { path, op, .. } => {
                assert_eq!(path.steps.len(), 2);
                assert_eq!(*op, CmpOp::Gt);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_comparison_operators() {
        for (src, op) in [
            ("/a[b=1]", CmpOp::Eq),
            ("/a[b!=1]", CmpOp::Ne),
            ("/a[b<1]", CmpOp::Lt),
            ("/a[b<=1]", CmpOp::Le),
            ("/a[b>1]", CmpOp::Gt),
            ("/a[b>=1]", CmpOp::Ge),
        ] {
            let query = q(src);
            match query.steps[0].predicate.as_ref().unwrap() {
                Predicate::Cmp { op: parsed, .. } => assert_eq!(*parsed, op, "for {src}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let query = q("/a[ b = 1 and  c = \"x y\" ]");
        assert!(query.steps[0].predicate.is_some());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "relative/path",
            "/a[",
            "/a[]",
            "/a[b=]",
            "/a[b~1]",
            "/a]",
            "/a[not b]",
            "//@id",
            "/a/@*",
            "/a[b=1] trailing",
        ] {
            assert!(parse_query(bad).is_err(), "expected error for {bad:?}");
        }
        // 'text' as a plain element name (no parens) is a valid name test.
        let q = parse_query("/text").unwrap();
        assert_eq!(q.steps[0].test, NodeTest::Name("text".into()));
    }

    #[test]
    fn keyword_prefix_names_parse() {
        // Names beginning with 'and'/'or'/'not' must not be eaten as keywords.
        let query = q("/address[orders=1 and android=2]");
        assert!(query.steps[0].predicate.is_some());
        let query = q("/notes/note");
        assert_eq!(query.steps.len(), 2);
    }

    /// `/a[` + `open` repeated `levels - 1` times + `b` + closers + `]`:
    /// exactly `levels` nesting levels.
    fn nested(levels: usize, open: &str, close: &str) -> String {
        let inner = levels - 1;
        format!("/a[{}b{}]", open.repeat(inner), close.repeat(inner))
    }

    #[test]
    fn predicate_nesting_is_bounded() {
        for (open, close) in [("(", ")"), ("not(", ")"), ("b[", "]")] {
            let at_cap = nested(MAX_PREDICATE_DEPTH, open, close);
            assert!(
                parse_query(&at_cap).is_ok(),
                "{open}: the cap itself parses"
            );
            let past = nested(MAX_PREDICATE_DEPTH + 1, open, close);
            let err = parse_query(&past).unwrap_err();
            assert_eq!(err.message, "predicates nested too deep", "{open}");
        }
        // Far past the cap the parse stops at the cap: no stack overflow.
        assert!(parse_query(&nested(50_000, "(", ")")).is_err());
    }
}

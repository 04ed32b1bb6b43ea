//! Abstract syntax of the DTX query language (XPath subset).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A location path: a sequence of steps, evaluated left to right from the
/// document root. All queries in the DTX subset are absolute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// The steps of the path, outermost first.
    pub steps: Vec<Step>,
}

impl Query {
    /// Parses the textual form; see [`crate::parse`].
    pub fn parse(input: &str) -> Result<Self, crate::parse::ParseError> {
        crate::parse::parse_query(input)
    }

    /// A query made of child-axis name steps only (helper for generated
    /// workloads): `Query::path(&["site", "people", "person"])` is
    /// `/site/people/person`.
    pub fn path(names: &[&str]) -> Self {
        Query {
            steps: names
                .iter()
                .map(|n| Step {
                    axis: Axis::Child,
                    test: NodeTest::Name((*n).to_owned()),
                    predicate: None,
                })
                .collect(),
        }
    }

    /// The label names mentioned on the main spine of the query (excluding
    /// predicate paths), used for coarse conflict estimation in baselines.
    pub fn spine_names(&self) -> Vec<&str> {
        self.steps
            .iter()
            .filter_map(|s| match &s.test {
                NodeTest::Name(n) => Some(n.as_str()),
                _ => None,
            })
            .collect()
    }

    /// True when any step uses the descendant axis — such queries fan out
    /// over the DataGuide.
    pub fn has_descendant_axis(&self) -> bool {
        self.steps.iter().any(|s| s.axis == Axis::Descendant)
    }

    /// All predicates appearing in the query, with the index of the step
    /// carrying them. The XDGL rules lock predicate target paths with ST.
    pub fn predicates(&self) -> impl Iterator<Item = (usize, &Predicate)> {
        self.steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.predicate.as_ref().map(|p| (i, p)))
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

/// One step of a location path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Step {
    /// The axis relating this step to the previous one.
    pub axis: Axis,
    /// Node test applied along the axis.
    pub test: NodeTest,
    /// Optional predicate filtering the step's result set.
    pub predicate: Option<Predicate>,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.axis {
            Axis::Child => write!(f, "/")?,
            Axis::Descendant => write!(f, "//")?,
            Axis::Attribute => write!(f, "/@")?,
        }
        write!(f, "{}", self.test)?;
        if let Some(p) = &self.predicate {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

/// Axes in the DTX subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Axis {
    /// `child::` — written `/name`.
    Child,
    /// `descendant-or-self::node()/child::` — written `//name`.
    Descendant,
    /// `attribute::` — written `/@name`.
    Attribute,
}

/// Node tests in the DTX subset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeTest {
    /// Match elements (or attributes, on the attribute axis) with this name.
    Name(String),
    /// Match any element (`*`).
    Wildcard,
    /// Match text nodes (`text()`).
    Text,
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Name(n) => write!(f, "{n}"),
            NodeTest::Wildcard => write!(f, "*"),
            NodeTest::Text => write!(f, "text()"),
        }
    }
}

/// Predicates: boolean combinations of path/literal comparisons and path
/// existence tests. Paths inside predicates are *relative* to the step's
/// context node and use the same restricted step grammar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// `path op literal`, e.g. `id=4`, `name="Patricia"`, `price>10`.
    Cmp {
        /// Relative path whose string-value is compared.
        path: Query,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        value: Literal,
    },
    /// Bare relative path: true when non-empty, e.g. `[phone]`.
    Exists(Query),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation, written `not(...)`.
    Not(Box<Predicate>),
}

impl Predicate {
    /// All relative paths referenced by the predicate (targets of ST locks
    /// in the XDGL rules).
    pub fn paths(&self) -> Vec<&Query> {
        let mut out = Vec::new();
        self.collect_paths(&mut out);
        out
    }

    fn collect_paths<'a>(&'a self, out: &mut Vec<&'a Query>) {
        match self {
            Predicate::Cmp { path, .. } => out.push(path),
            Predicate::Exists(path) => out.push(path),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_paths(out);
                b.collect_paths(out);
            }
            Predicate::Not(p) => p.collect_paths(out),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Cmp { path, op, value } => {
                // Relative paths print without their leading '/'.
                let p = path.to_string();
                write!(f, "{}{op}{value}", p.strip_prefix('/').unwrap_or(&p))
            }
            Predicate::Exists(path) => {
                let p = path.to_string();
                write!(f, "{}", p.strip_prefix('/').unwrap_or(&p))
            }
            // The parser folds `and`/`or` chains to the left, so a right
            // operand of the same strength needs parentheses as well.
            Predicate::And(a, b) => {
                operand(f, a, 1)?;
                f.write_str(" and ")?;
                operand(f, b, 2)
            }
            Predicate::Or(a, b) => {
                operand(f, a, 0)?;
                f.write_str(" or ")?;
                operand(f, b, 1)
            }
            Predicate::Not(p) => write!(f, "not({p})"),
        }
    }
}

/// Writes `p`, parenthesized when it binds more loosely than `min`
/// (`or` binds at 0, `and` at 1, everything else at 2), so that the
/// text parses back to the same tree.
fn operand(f: &mut fmt::Formatter<'_>, p: &Predicate, min: u8) -> fmt::Result {
    let strength = match p {
        Predicate::Or(..) => 0,
        Predicate::And(..) => 1,
        _ => 2,
    };
    if strength < min {
        write!(f, "({p})")
    } else {
        write!(f, "{p}")
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Literals in predicates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    /// Numeric literal; comparisons coerce the node's string-value to f64.
    Number(f64),
    /// String literal; compared textually.
    Str(String),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            // The grammar has no escapes: a string holding `"` is written
            // with `'` (one holding both quote kinds has no literal form).
            Literal::Str(s) if s.contains('"') => write!(f, "'{s}'"),
            Literal::Str(s) => write!(f, "\"{s}\""),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_simple_paths() {
        for src in [
            "/products/product",
            "//person",
            "/site/people/person/@id",
            "/products/product[id=4]",
            "/site//item[name=\"Mouse\"]/price",
            "/a/*[b>10 and not(c)]",
            "/r/x[a and (b or c)]",
            "/r/x[(a or b) and c]",
            "/r/x[a or (b or c)]",
            "/r/x[a and (b and c)]",
            "/r/x[a or b and c]",
            "/r/x[t='say \"hi\"']",
        ] {
            let q = Query::parse(src).unwrap();
            assert_eq!(q.to_string(), src, "display mismatch for {src}");
        }
    }

    #[test]
    fn path_helper_builds_child_steps() {
        let q = Query::path(&["site", "people"]);
        assert_eq!(q.to_string(), "/site/people");
        assert!(!q.has_descendant_axis());
        assert_eq!(q.spine_names(), vec!["site", "people"]);
    }

    #[test]
    fn predicate_paths_collects_all() {
        let q = Query::parse("/a[b=1 and (c=2 or not(d))]/e").unwrap();
        let (idx, pred) = q.predicates().next().unwrap();
        assert_eq!(idx, 0);
        let paths: Vec<String> = pred.paths().iter().map(|p| p.to_string()).collect();
        assert_eq!(paths, vec!["/b", "/c", "/d"]);
    }

    #[test]
    fn literal_display() {
        assert_eq!(Literal::Number(4.0).to_string(), "4");
        assert_eq!(Literal::Number(10.3).to_string(), "10.3");
        assert_eq!(Literal::Str("x".into()).to_string(), "\"x\"");
        assert_eq!(Literal::Str("x\"y".into()).to_string(), "'x\"y'");
    }

    /// xorshift64* — the same seed always generates the same trees.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// A relative path of one or two steps, the first a child or
    /// attribute step (the only starts the grammar has for them).
    fn gen_path(next: &mut impl FnMut() -> u64, depth: u32) -> Query {
        const NAMES: [&str; 4] = ["a", "b", "item", "text"];
        let mut steps = vec![Step {
            axis: if next().is_multiple_of(4) {
                Axis::Attribute
            } else {
                Axis::Child
            },
            test: NodeTest::Name(NAMES[(next() % 4) as usize].into()),
            predicate: None,
        }];
        if steps[0].axis == Axis::Child && next().is_multiple_of(3) {
            steps.push(Step {
                axis: if next().is_multiple_of(2) {
                    Axis::Child
                } else {
                    Axis::Descendant
                },
                test: match next() % 3 {
                    0 => NodeTest::Wildcard,
                    1 => NodeTest::Text,
                    _ => NodeTest::Name(NAMES[(next() % 4) as usize].into()),
                },
                predicate: (depth > 0 && next().is_multiple_of(4))
                    .then(|| gen_pred(next, depth - 1)),
            });
        }
        Query { steps }
    }

    fn gen_pred(next: &mut impl FnMut() -> u64, depth: u32) -> Predicate {
        let leaf = depth == 0 || next().is_multiple_of(3);
        match if leaf { next() % 2 } else { 2 + next() % 3 } {
            0 => Predicate::Exists(gen_path(next, depth)),
            1 => Predicate::Cmp {
                path: gen_path(next, depth),
                op: [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ][(next() % 6) as usize],
                value: match next() % 4 {
                    0 => Literal::Number((next() % 2000) as f64 / 8.0 - 100.0),
                    1 => Literal::Str("say \"hi\"".into()),
                    2 => Literal::Str("it's".into()),
                    _ => Literal::Str(String::new()),
                },
            },
            2 => Predicate::And(
                Box::new(gen_pred(next, depth - 1)),
                Box::new(gen_pred(next, depth - 1)),
            ),
            3 => Predicate::Or(
                Box::new(gen_pred(next, depth - 1)),
                Box::new(gen_pred(next, depth - 1)),
            ),
            _ => Predicate::Not(Box::new(gen_pred(next, depth - 1))),
        }
    }

    #[test]
    fn seeded_predicate_trees_survive_display_and_parse() {
        let mut next = rng(0xD7C5_2009);
        for _ in 0..2000 {
            let q = Query {
                steps: vec![Step {
                    axis: Axis::Child,
                    test: NodeTest::Name("r".into()),
                    predicate: Some(gen_pred(&mut next, 5)),
                }],
            };
            let text = q.to_string();
            let back = Query::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, q, "{text}");
        }
    }
}

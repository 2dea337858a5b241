//! A minimal, dependency-free TOML subset parser in the spirit of
//! `imobif_obs::json`: a positioned document model, line/column errors, and
//! nothing the scenario grammar doesn't need.
//!
//! Supported subset (DESIGN.md §14 is the grammar reference):
//! `# comments`, bare keys, basic `"strings"` with escapes, integers (with
//! `_` separators), floats (including exponent notation), booleans,
//! single-line arrays with optional trailing comma (nested at most 128
//! levels), `[table]` / `[dotted.table]` headers, and `[[array.of.tables]]`
//! headers. Every entry records the line/column of its key, so semantic
//! errors raised later ("unknown key", "expected integer") still point at
//! the offending source position.

use std::fmt;

/// A 1-based source position. `Pos::NONE` (line 0) marks entries that came
/// from a positionless source such as a converted JSON document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number (0 = unknown).
    pub line: u32,
    /// 1-based column number (0 = unknown).
    pub col: u32,
}

impl Pos {
    /// The "no position" marker used for JSON-derived documents.
    pub const NONE: Pos = Pos { line: 0, col: 0 };
}

/// A parse or spec-building error carrying the source position it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line (0 if unknown).
    pub line: u32,
    /// 1-based column (0 if unknown).
    pub col: u32,
    /// Human-readable description.
    pub msg: String,
}

impl ParseError {
    /// An error at a known position.
    #[must_use]
    pub fn at(pos: Pos, msg: impl Into<String>) -> Self {
        ParseError { line: pos.line, col: pos.col, msg: msg.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}, column {}: {}", self.line, self.col, self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

/// A scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic string.
    Str(String),
    /// An integer (underscore separators removed).
    Int(i64),
    /// A float (`1.5`, `1e-7`, …).
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array.
    Array(Vec<TomlValue>),
}

/// One table slot: a value, a sub-table, or an array of tables.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `key = value`.
    Value(TomlValue),
    /// `[table]` (or a table implicitly created by a deeper header).
    Table(Table),
    /// `[[array.of.tables]]`.
    ArrayOfTables(Vec<Table>),
}

/// An ordered table. Entries keep document order; each remembers where its
/// key appeared.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// `(key, key position, contents)` in document order.
    pub entries: Vec<(String, Pos, Item)>,
}

impl Table {
    /// Looks up a direct child.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<(&Pos, &Item)> {
        self.entries.iter().find(|(k, _, _)| k == key).map(|(_, p, i)| (p, i))
    }

    /// Inserts, assuming the caller checked for duplicates.
    pub fn insert(&mut self, key: impl Into<String>, pos: Pos, item: Item) {
        self.entries.push((key.into(), pos, item));
    }
}

/// Parses a TOML-subset document into a [`Table`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the exact line/column of the first problem.
pub fn parse(text: &str) -> Result<Table, ParseError> {
    let mut root = Table::default();
    // The table the next `key = value` lines land in, as a path from root.
    let mut path: Vec<String> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = u32::try_from(i + 1).unwrap_or(u32::MAX);
        let mut cur = Cursor::new(raw, line_no);
        cur.skip_ws();
        match cur.peek() {
            None | Some('#') => {}
            Some('[') => path = parse_header(&mut cur, &mut root)?,
            Some(_) => parse_key_value(&mut cur, &mut root, &path)?,
        }
    }
    Ok(root)
}

/// Parses a `[table]` or `[[array.of.tables]]` header line and registers it
/// in `root`; returns the new current path.
fn parse_header(cur: &mut Cursor<'_>, root: &mut Table) -> Result<Vec<String>, ParseError> {
    let header_pos = cur.pos();
    cur.bump(); // '['
    let aot = cur.peek() == Some('[');
    if aot {
        cur.bump();
    }
    let mut segments = Vec::new();
    loop {
        cur.skip_ws();
        let seg_pos = cur.pos();
        let seg = cur.bare_key()?;
        if seg.is_empty() {
            return Err(ParseError::at(seg_pos, "expected a key inside table header"));
        }
        segments.push(seg);
        cur.skip_ws();
        match cur.peek() {
            Some('.') => {
                cur.bump();
            }
            Some(']') => break,
            _ => return Err(ParseError::at(cur.pos(), "expected `.` or `]` in table header")),
        }
    }
    cur.bump(); // ']'
    if aot {
        if cur.peek() != Some(']') {
            return Err(ParseError::at(cur.pos(), "expected `]]` to close array-of-tables header"));
        }
        cur.bump();
    }
    cur.skip_ws();
    if !matches!(cur.peek(), None | Some('#')) {
        return Err(ParseError::at(cur.pos(), "unexpected characters after table header"));
    }
    // Navigate to the parent, creating intermediate tables as needed.
    let (last, parents) = segments.split_last().expect("at least one segment");
    let parent = descend(root, parents, header_pos)?;
    match parent.entries.iter_mut().find(|(k, _, _)| k == last) {
        None => {
            let item = if aot {
                Item::ArrayOfTables(vec![Table::default()])
            } else {
                Item::Table(Table::default())
            };
            parent.insert(last.clone(), header_pos, item);
        }
        Some((_, _, Item::ArrayOfTables(tables))) if aot => tables.push(Table::default()),
        Some((_, _, Item::Table(_))) if !aot => {
            return Err(ParseError::at(header_pos, format!("table `{last}` defined twice")));
        }
        Some(_) => {
            return Err(ParseError::at(
                header_pos,
                format!("`{last}` is already defined with a different shape"),
            ));
        }
    }
    Ok(segments)
}

fn parse_key_value(
    cur: &mut Cursor<'_>,
    root: &mut Table,
    path: &[String],
) -> Result<(), ParseError> {
    let key_pos = cur.pos();
    let key = cur.bare_key()?;
    if key.is_empty() {
        return Err(ParseError::at(key_pos, "expected a key"));
    }
    cur.skip_ws();
    if cur.peek() != Some('=') {
        return Err(ParseError::at(cur.pos(), format!("expected `=` after key `{key}`")));
    }
    cur.bump();
    cur.skip_ws();
    let value = cur.value(0)?;
    cur.skip_ws();
    if !matches!(cur.peek(), None | Some('#')) {
        return Err(ParseError::at(cur.pos(), "unexpected characters after value"));
    }
    let table = descend(root, path, key_pos)?;
    if table.get(&key).is_some() {
        return Err(ParseError::at(key_pos, format!("duplicate key `{key}`")));
    }
    table.insert(key, key_pos, Item::Value(value));
    Ok(())
}

/// Walks `path` from `root`, creating empty tables for missing segments and
/// entering the *last* element of any array-of-tables on the way (TOML's
/// rule for `[[variant]]` followed by `[variant.energy]`).
fn descend<'a>(
    root: &'a mut Table,
    path: &[String],
    pos: Pos,
) -> Result<&'a mut Table, ParseError> {
    let mut current = root;
    for seg in path {
        if current.get(seg).is_none() {
            current.insert(seg.clone(), pos, Item::Table(Table::default()));
        }
        let (_, _, item) =
            current.entries.iter_mut().find(|(k, _, _)| k == seg).expect("just ensured");
        current = match item {
            Item::Table(t) => t,
            Item::ArrayOfTables(tables) => tables.last_mut().expect("headers insert one table"),
            Item::Value(_) => {
                return Err(ParseError::at(pos, format!("key `{seg}` is not a table")));
            }
        };
    }
    Ok(current)
}

/// Deepest inline-array nesting [`parse`] accepts. The value parser
/// recurses once per level; the shipped specs use only flat arrays.
const MAX_DEPTH: usize = 128;

/// A single-line character cursor with 1-based column tracking.
struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(line_text: &'a str, line: u32) -> Self {
        Cursor { chars: line_text.chars().peekable(), line, col: 1 }
    }

    fn pos(&mut self) -> Pos {
        Pos { line: self.line, col: self.col }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c.is_some() {
            self.col += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.bump();
        }
    }

    fn bare_key(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
        Ok(out)
    }

    /// Parses the value under the cursor, nested inside `depth` arrays.
    fn value(&mut self, depth: usize) -> Result<TomlValue, ParseError> {
        match self.peek() {
            None => Err(ParseError::at(self.pos(), "expected a value")),
            Some('"') => self.string().map(TomlValue::Str),
            Some('[') if depth == MAX_DEPTH => Err(ParseError::at(
                self.pos(),
                format!("arrays nested deeper than {MAX_DEPTH} levels"),
            )),
            Some('[') => self.array(depth),
            Some('t' | 'f') => self.boolean(),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        let start = self.pos();
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(ParseError::at(start, "unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => {
                    let esc_pos = self.pos();
                    match self.bump() {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('u') => {
                            let mut hex = String::new();
                            for _ in 0..4 {
                                hex.push(self.bump().ok_or_else(|| {
                                    ParseError::at(esc_pos, "truncated \\u escape")
                                })?);
                            }
                            let code = u32::from_str_radix(&hex, 16).map_err(|_| {
                                ParseError::at(esc_pos, format!("bad \\u escape `{hex}`"))
                            })?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(ParseError::at(
                                esc_pos,
                                format!(
                                    "unknown escape `\\{}`",
                                    other.map_or_else(String::new, String::from)
                                ),
                            ));
                        }
                    }
                }
                Some(c) => out.push(c),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<TomlValue, ParseError> {
        self.bump(); // '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(ParseError::at(self.pos(), "expected `]` to close array")),
                Some(']') => {
                    self.bump();
                    return Ok(TomlValue::Array(items));
                }
                _ => {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => {
                            self.bump();
                        }
                        Some(']') => {}
                        _ => {
                            return Err(ParseError::at(self.pos(), "expected `,` or `]` in array"));
                        }
                    }
                }
            }
        }
    }

    fn boolean(&mut self) -> Result<TomlValue, ParseError> {
        let pos = self.pos();
        let word = self.bare_key()?;
        match word.as_str() {
            "true" => Ok(TomlValue::Bool(true)),
            "false" => Ok(TomlValue::Bool(false)),
            _ => Err(ParseError::at(pos, format!("expected a value, found `{word}`"))),
        }
    }

    fn number(&mut self) -> Result<TomlValue, ParseError> {
        let pos = self.pos();
        let mut raw = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, '+' | '-' | '.' | 'e' | 'E' | '_') {
                raw.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if raw.is_empty() {
            return Err(ParseError::at(pos, "expected a value"));
        }
        let cleaned: String = raw.chars().filter(|&c| c != '_').collect();
        if !cleaned.contains(['.', 'e', 'E']) {
            if let Ok(i) = cleaned.parse::<i64>() {
                return Ok(TomlValue::Int(i));
            }
        }
        cleaned
            .parse::<f64>()
            .map(TomlValue::Float)
            .map_err(|_| ParseError::at(pos, format!("invalid number `{raw}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = parse(
            "# a comment\n\
             name = \"demo\"\n\
             flows = 1_00\n\
             rate = 2.5 # trailing comment\n\
             exp = 1e-7\n\
             on = true\n\
             xs = [1, 2.5, \"s\",]\n\
             \n\
             [base]\n\
             seed = 42\n\
             [base.energy]\n\
             kind = \"fixed\"\n",
        )
        .unwrap();
        assert_eq!(doc.get("name").unwrap().1, &Item::Value(TomlValue::Str("demo".into())));
        assert_eq!(doc.get("flows").unwrap().1, &Item::Value(TomlValue::Int(100)));
        assert_eq!(doc.get("rate").unwrap().1, &Item::Value(TomlValue::Float(2.5)));
        assert_eq!(doc.get("exp").unwrap().1, &Item::Value(TomlValue::Float(1e-7)));
        assert_eq!(doc.get("on").unwrap().1, &Item::Value(TomlValue::Bool(true)));
        let Some((_, Item::Value(TomlValue::Array(xs)))) = doc.get("xs") else {
            panic!("xs should be an array");
        };
        assert_eq!(xs.len(), 3);
        let Some((_, Item::Table(base))) = doc.get("base") else { panic!("base table") };
        assert_eq!(base.get("seed").unwrap().1, &Item::Value(TomlValue::Int(42)));
        let Some((_, Item::Table(energy))) = base.get("energy") else { panic!("energy table") };
        assert_eq!(energy.get("kind").unwrap().1, &Item::Value(TomlValue::Str("fixed".into())));
    }

    #[test]
    fn array_of_tables_with_subtables() {
        let doc = parse(
            "[[variant]]\nlabel = \"a\"\n[variant.energy]\nkind = \"fixed\"\njoules = 5.0\n\
             [[variant]]\nlabel = \"b\"\n",
        )
        .unwrap();
        let Some((_, Item::ArrayOfTables(vs))) = doc.get("variant") else { panic!("aot") };
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].get("label").unwrap().1, &Item::Value(TomlValue::Str("a".into())));
        assert!(matches!(vs[0].get("energy"), Some((_, Item::Table(_)))));
        assert!(vs[1].get("energy").is_none());
    }

    #[test]
    fn positions_point_at_the_problem() {
        // Missing `=` on line 2, column 6 (after the key and a space).
        let err = parse("a = 1\nbad 2\n").unwrap_err();
        assert_eq!((err.line, err.col), (2, 5));
        assert!(err.to_string().starts_with("line 2, column 5:"), "{err}");

        // Unterminated string: points at the opening quote.
        let err = parse("s = \"oops\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 5));

        // Duplicate key: points at the second definition.
        let err = parse("x = 1\nx = 2\n").unwrap_err();
        assert_eq!((err.line, err.col), (2, 1));
        assert!(err.msg.contains("duplicate key `x`"));

        // Bad array separator.
        let err = parse("xs = [1 2]\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 9));
    }

    #[test]
    fn header_errors_are_positioned() {
        let err = parse("[base\nseed = 1\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse("[base]\n[base]\n").unwrap_err();
        assert!(err.msg.contains("defined twice"));
        let err = parse("[[v]]\n[v]\n").unwrap_err();
        assert!(err.msg.contains("different shape"));
    }

    #[test]
    fn array_nesting_is_bounded_with_a_positioned_error() {
        let nested = |depth: usize| format!("v = {}1{}\n", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        // The first bracket past the limit: after `v = ` and 128 `[`.
        assert_eq!((err.line, err.col), (1, 5 + MAX_DEPTH as u32));
        assert_eq!(err.msg, format!("arrays nested deeper than {MAX_DEPTH} levels"));
    }

    #[test]
    fn underscored_integers_and_signed_numbers() {
        let doc = parse("a = 8_000_000\nb = -0.5\nc = +3\n").unwrap();
        assert_eq!(doc.get("a").unwrap().1, &Item::Value(TomlValue::Int(8_000_000)));
        assert_eq!(doc.get("b").unwrap().1, &Item::Value(TomlValue::Float(-0.5)));
        assert_eq!(doc.get("c").unwrap().1, &Item::Value(TomlValue::Int(3)));
    }
}

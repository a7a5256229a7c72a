//! Offline drop-in stand-in for the `serde_json` crate.
//!
//! Provides the two entry points the workspace uses — [`to_string`] and
//! [`from_str`] — over the `serde` shim's [`Value`] tree. The emitted
//! JSON follows serde_json's conventions for this workspace's types:
//! externally-tagged enums, `null` for `None`, shortest-round-trip
//! float formatting (so `f32` values survive a round trip bit-exactly)
//! and `null` for non-finite floats.

use serde::{Deserialize, Serialize, Value};
use std::fmt::Write;

/// Parse or serialisation error: a message with position context.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.to_string())
    }
}

/// Serialises `value` to a compact JSON string.
///
/// # Errors
/// Never fails for this workspace's types; the `Result` mirrors the
/// real crate's signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Deserialises a value from a JSON string.
///
/// # Errors
/// Returns an error on malformed JSON, trailing input, or a structural
/// mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(T::from_value(&v)?)
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => write!(out, "{i}").expect("writing to a String cannot fail"),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        // serde_json's lossy behaviour for non-finite numbers.
        out.push_str("null");
        return;
    }
    // Rust's shortest-round-trip formatting, straight into `out`; add a
    // decimal point when the digits just written have none, so the value
    // reads back as a float, matching serde_json.
    let start = out.len();
    write!(out, "{f}").expect("writing to a String cannot fail");
    if !out.as_bytes()[start..]
        .iter()
        .any(|b| matches!(b, b'.' | b'e' | b'E'))
    {
        out.push_str(".0");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so cutting `s` around
    // one always lands on a char boundary; the escape-free runs between
    // them are copied whole (the mirror of `parse_string`'s fast path).
    let escaped = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
    let mut rest = s;
    while let Some(i) = find_byte(rest.as_bytes(), escaped) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Index of the first byte `stops` accepts. Whole blocks are tested
/// without an early exit first, which the compiler vectorises: a long
/// run with no such byte (a packed plane is megabytes of hex digits) is
/// scanned at memory speed.
fn find_byte(bytes: &[u8], stops: impl Fn(u8) -> bool) -> Option<usize> {
    let skipped = bytes
        .chunks_exact(32)
        .take_while(|block| !block.iter().fold(false, |any, &b| any | stops(b)))
        .count()
        * 32;
    bytes[skipped..]
        .iter()
        .position(|&b| stops(b))
        .map(|i| skipped + i)
}

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_seq(),
            Some(b'{') => self.parse_map(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn parse_seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path over the unescaped run.
            let rest = &self.bytes[start..];
            self.pos += find_byte(rest, |b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            let c = char::from_u32(cp).ok_or_else(|| {
                                Error::new("unsupported \\u escape (surrogates not handled)")
                            })?;
                            out.push(c);
                        }
                        other => {
                            return Err(Error::new(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&3u64).unwrap(), "3");
        assert_eq!(to_string(&1.5f32).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f32).unwrap(), "2.0");
        assert_eq!(from_str::<u64>("3").unwrap(), 3);
        assert_eq!(from_str::<f32>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<f32>("7").unwrap(), 7.0);
        assert!(from_str::<bool>(" true ").unwrap());
    }

    #[test]
    fn numbers_are_written_byte_for_byte() {
        let doc = Value::Seq(vec![
            Value::Float(2.0),
            Value::Float(-0.0),
            Value::Float(0.1f32 as f64),
            Value::Float(1e21),
            Value::Float(1.5e-7),
            Value::Float(-123456.75),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Int(0),
            Value::Int(-17),
            Value::Int(i128::from(u64::MAX)),
        ]);
        let mut out = String::from("x");
        write_value(&doc, &mut out);
        assert_eq!(
            out,
            "x[2.0,-0.0,0.10000000149011612,1000000000000000000000.0,0.00000015,\
             -123456.75,null,null,0,-17,18446744073709551615]"
        );
    }

    #[test]
    fn f32_values_survive_bit_exactly() {
        for bits in [0x3f80_0001u32, 0x0000_0001, 0x7f7f_ffff, 0xc2c8_0000] {
            let x = f32::from_bits(bits);
            let s = to_string(&x).unwrap();
            let back: f32 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), bits, "{x} → {s} → {back}");
        }
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<Option<usize>> = vec![Some(1), None, Some(2)];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,null,2]");
        assert_eq!(from_str::<Vec<Option<usize>>>(&s).unwrap(), v);
        let nested: Vec<Vec<usize>> = vec![vec![1, 2], vec![], vec![3]];
        let s = to_string(&nested).unwrap();
        assert_eq!(from_str::<Vec<Vec<usize>>>(&s).unwrap(), nested);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = String::from("a \"b\"\n\\c\td");
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(from_str::<String>("\"\\u0041\"").unwrap(), "A");
    }

    /// The writer as it was before escape-free runs were copied whole:
    /// one `char` at a time.
    fn write_string_per_char(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn long_strings_are_written_like_the_per_char_writer() {
        // Longer than several scan blocks, with multi-byte characters so
        // a cut inside one would panic, and escapes at the start, in the
        // middle (on and off a block boundary), back to back and at the
        // end.
        let clean = "0123456789abcdef-é-日本-".repeat(9);
        let cases = [
            String::new(),
            clean.clone(),
            format!("\"{clean}"),
            format!("{clean}\\"),
            format!("{}\n{}", &clean[..32], &clean[32..]),
            format!("{}\u{1}\u{1f}{}", &clean[..46], &clean[46..]),
            format!("\t{clean}\r\"{clean}\\\\{clean}\u{0}"),
            "\"\\\n\r\t\u{8}\u{c}".to_string(),
        ];
        for s in &cases {
            let (mut fast, mut reference) = (String::from("x"), String::from("x"));
            write_string(s, &mut fast);
            write_string_per_char(s, &mut reference);
            assert_eq!(fast, reference);
            assert_eq!(&from_str::<String>(&fast[1..]).unwrap(), s);
        }
    }

    #[test]
    fn malformed_input_errors() {
        assert!(from_str::<u64>("").is_err());
        assert!(from_str::<u64>("1 2").is_err());
        assert!(from_str::<Vec<u64>>("[1,").is_err());
        assert!(from_str::<String>("\"open").is_err());
        assert!(from_str::<bool>("truth").is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v: Vec<u64> = from_str(" [ 1 , 2 ,\n3 ] ").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }
}

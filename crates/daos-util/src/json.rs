//! A small JSON library: value type, writer, parser, line-oriented
//! reader, and the [`ToJson`]/[`FromJson`] conversion traits with
//! impl-generating macros for plain structs and fieldless enums.
//!
//! Numbers are kept in three lanes (`U64`, `I64`, `F64`) so 64-bit
//! addresses and byte counts round-trip exactly — a plain `f64` number
//! type would silently corrupt addresses above 2⁵³.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (unsigned 64-bit lane).
    U64(u64),
    /// A negative integer (signed lane; only used when < 0).
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// An error from parsing or converting JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// Build an error from any displayable message.
    pub fn msg(m: impl Into<String>) -> Self {
        JsonError(m.into())
    }
}

impl Json {
    /// Object field by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field decoded as `T`; errors mention the key.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        let v = self
            .get(key)
            .ok_or_else(|| JsonError::msg(format!("missing field '{key}'")))?;
        T::from_json(v).map_err(|e| JsonError::msg(format!("field '{key}': {}", e.0)))
    }

    /// The value as an array, or an error.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(xs) => Ok(xs),
            other => Err(JsonError::msg(format!("expected array, got {other:?}"))),
        }
    }

    /// The value as a string slice, or an error.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::msg(format!("expected string, got {other:?}"))),
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::I64(n) => out.push_str(&n.to_string()),
            Json::F64(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        // JSON has no Inf/NaN; encode as null like serde_json does.
        out.push_str("null");
        return;
    }
    // Shortest representation that round-trips (Rust's float Display).
    let s = format!("{x}");
    out.push_str(&s);
    // Keep the float lane on re-parse: `1.0` must not come back as `U64(1)`.
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so unbounded input depth would be unbounded stack;
/// the deepest document this workspace writes (`/snapshot`) nests < 10.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document (surrounding whitespace allowed). Nesting
/// beyond [`MAX_DEPTH`] is an error, not a stack overflow.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::msg(format!(
            "trailing garbage at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::msg(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(JsonError::msg(format!("bad literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::msg(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(JsonError::msg(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(out));
                }
                _ => return Err(JsonError::msg(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect_byte(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(out));
                }
                _ => {
                    return Err(JsonError::msg(format!("bad object at byte {}", self.pos)))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError::msg("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError::msg("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::msg("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(JsonError::msg(format!(
                                "bad escape {:?}",
                                other.map(|c| c as char)
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let Some(c) = s.chars().next() else {
                        return Err(JsonError::msg("unterminated string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::msg("bad number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError::msg(format!("bad number '{text}'")))
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Encode `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decode from `v`.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::msg(format!("expected bool, got {other:?}"))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string)
    }
}

macro_rules! json_uint {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let u = match v {
                    Json::U64(u) => *u,
                    Json::F64(x) if x.fract() == 0.0 && *x >= 0.0 => *x as u64,
                    other => {
                        return Err(JsonError::msg(format!(
                            "expected unsigned integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(u)
                    .map_err(|_| JsonError::msg(format!("{u} out of range for {}", stringify!($t))))
            }
        }
    )+};
}

json_uint!(u8, u16, u32, u64, usize);

impl ToJson for u128 {
    /// 128-bit counters are encoded as decimal strings: they do not fit
    /// the `u64` lane and would lose precision as `f64`.
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for u128 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => s
                .parse()
                .map_err(|_| JsonError::msg(format!("bad u128 '{s}'"))),
            Json::U64(u) => Ok(*u as u128),
            other => Err(JsonError::msg(format!("expected u128, got {other:?}"))),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::F64(x) => Ok(*x),
            Json::U64(u) => Ok(*u as f64),
            Json::I64(i) => Ok(*i as f64),
            other => Err(JsonError::msg(format!("expected number, got {other:?}"))),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(x) => x.to_json(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()?.iter().map(T::from_json).collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let xs = v.as_array()?;
        if xs.len() != 2 {
            return Err(JsonError::msg(format!("expected pair, got {} items", xs.len())));
        }
        Ok((A::from_json(&xs[0])?, B::from_json(&xs[1])?))
    }
}

impl<K: ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.to_string(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
                .collect(),
            other => Err(JsonError::msg(format!("expected object, got {other:?}"))),
        }
    }
}

/// Generate [`ToJson`]/[`FromJson`] for a struct with named fields, all
/// of which are themselves `ToJson + FromJson`:
///
/// ```ignore
/// json_struct!(Quota { sz_limit, reset_interval });
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Object(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    ),)+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok(Self { $($field: v.field(stringify!($field))?,)+ })
            }
        }
    };
}

/// Generate [`ToJson`]/[`FromJson`] for a fieldless enum, encoded as the
/// variant name string:
///
/// ```ignore
/// json_enum!(ThpMode { Never, Always, Madvise });
/// ```
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let name = match self {
                    $(Self::$variant => stringify!($variant),)+
                };
                $crate::json::Json::Str(name.to_string())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                match v.as_str()? {
                    $(stringify!($variant) => Ok(Self::$variant),)+
                    other => Err($crate::json::JsonError::msg(format!(
                        "unknown {} variant '{other}'",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

/// Build a `{"Variant": payload}` single-key object — the encoding this
/// workspace uses for enum variants that carry data.
pub fn tagged(variant: &str, payload: Json) -> Json {
    Json::Object(vec![(variant.to_string(), payload)])
}

/// Split a `{"Variant": payload}` single-key object into its tag and
/// payload.
pub fn untag(v: &Json) -> Result<(&str, &Json), JsonError> {
    match v {
        Json::Object(fields) if fields.len() == 1 => {
            Ok((fields[0].0.as_str(), &fields[0].1))
        }
        other => Err(JsonError::msg(format!(
            "expected single-key variant object, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        for text in ["null", "true", "false", "0", "-7", "18446744073709551615", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text);
        }
    }

    #[test]
    fn u64_precision_survives() {
        let v = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v, Json::U64(u64::MAX));
        assert_eq!(u64::from_json(&v).unwrap(), u64::MAX);
    }

    #[test]
    fn float_lane_is_sticky() {
        let v = Json::F64(1.0);
        let back = parse(&v.to_string_compact()).unwrap();
        assert_eq!(back, v, "1.0 must stay F64 through a roundtrip");
    }

    #[test]
    fn nested_roundtrip() {
        let v = Json::Object(vec![
            ("a".into(), Json::Array(vec![Json::U64(1), Json::Null])),
            ("b \"q\"".into(), Json::Str("line\nbreak".into())),
            ("c".into(), Json::F64(-0.25)),
        ]);
        let text = v.to_string_compact();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        // 200 000 levels overflowed a 2 MiB test thread's stack before
        // the bound; now the error names where the limit was crossed.
        for unit in ["[", "{\"a\":"] {
            let deep = unit.repeat(200_000);
            let err = parse(&deep).unwrap_err();
            let at = unit.len() * MAX_DEPTH;
            assert_eq!(err.0, format!("nesting deeper than {MAX_DEPTH} levels at byte {at}"));
        }
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        // Siblings do not accumulate depth.
        assert!(parse(&format!("[{}]", vec![nested(MAX_DEPTH - 1); 3].join(","))).is_ok());
    }

    #[test]
    fn tagged_helpers() {
        let v = tagged("Zram", Json::U64(4));
        let (tag, payload) = untag(&v).unwrap();
        assert_eq!(tag, "Zram");
        assert_eq!(payload, &Json::U64(4));
        assert!(untag(&Json::Null).is_err());
    }

    const JSON_SEEDS: &[&str] = &[
        "",
        r#"{"k":[1,-2,3.5,"s\u00e9\ud83d\ude00\n",null,true],"o":{},"a":[]}"#,
        "[18446744073709551615,-9223372036854775808,1e308,0.0]\n{\"line\":2}\n# comment\n",
        " \"plain\" ",
    ];

    macro_rules! x16 {
        ($s:expr) => {
            concat!($s, $s, $s, $s, $s, $s, $s, $s, $s, $s, $s, $s, $s, $s, $s, $s)
        };
    }

    /// 65 536 open brackets: one level of recursion each, were there no
    /// depth bound — more than a 2 MiB test thread's stack holds.
    const BRACKET_RUN: &str = x16!(x16!(x16!(x16!("["))));

    const JSON_TOKENS: &[&str] = &[
        "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "d83d", "\\ude00", "\"k\":", "null",
        "true", "false", "-", "0", ".", "e", "1e999", "18446744073709551616", " ", "\n", "#",
        BRACKET_RUN,
    ];

    /// Nodes plus string bytes: what a parsed document holds.
    fn weight(v: &Json) -> usize {
        1 + match v {
            Json::Str(s) => s.len(),
            Json::Array(items) => items.iter().map(weight).sum(),
            Json::Object(fields) => fields.iter().map(|(k, v)| k.len() + weight(v)).sum(),
            _ => 0,
        }
    }

    // Whatever text arrives — a real document, one with token soup and
    // arbitrary bytes spliced in, or soup alone — the parser answers
    // `Ok` or a `JsonError`, never panic, and a parsed document holds no
    // more than the text that spelt it.
    crate::proptest! {
        cases = 512;

        fn parse_survives_arbitrary_bytes(
            seed in crate::prop::select(JSON_SEEDS.to_vec()),
            noise in crate::prop::fuzz_bytes(JSON_TOKENS),
            at in 0usize..4096,
            intact in crate::prop::any_bool(),
        ) {
            let mut raw = seed.as_bytes().to_vec();
            if !intact {
                let at = at % (raw.len() + 1);
                raw.splice(at..at, noise);
            }
            let text = String::from_utf8_lossy(&raw);
            match parse(&text) {
                Ok(v) => crate::prop_assert!(weight(&v) <= text.len(), "{v:?}"),
                Err(e) => crate::prop_assert!(e.0.len() <= text.len() + 128, "{e}"),
            }
        }
    }
}

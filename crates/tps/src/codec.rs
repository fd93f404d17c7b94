//! The event codec: a small self-describing (JSON-compatible) text format.
//!
//! The paper relies on Java serialization of event objects. Here an event
//! lists its fields with [`event_fields!`](crate::event_fields), each of a
//! [`Field`] type. The reader streams over the borrowed input and skips an
//! unknown field, still validated and depth-bounded: that is what lets a
//! subscriber to a supertype decode an instance of a subtype (the structural
//! projection behind the Figure 7 delivery semantics).

use crate::event::TpsEvent;
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Errors raised by the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<fmt::Error> for CodecError {
    fn from(_: fmt::Error) -> Self {
        CodecError("formatting failed".into())
    }
}

/// Serialises an event to the codec's bytes.
///
/// # Errors
///
/// Returns [`CodecError`] if a field cannot be represented (a non-finite
/// float).
pub fn to_vec<T: TpsEvent>(event: &T) -> Result<Vec<u8>, CodecError> {
    // Room for a typical event in one allocation; a longer one grows.
    let mut writer = Writer(String::with_capacity(128));
    writer.0.push('{');
    event.write_fields(&mut writer)?;
    writer.0.push('}');
    Ok(writer.0.into_bytes())
}

/// Deserialises an event from bytes.
///
/// Unknown fields are ignored, which is what allows projecting a subtype's
/// payload onto a supertype. A missing field is an error, an `Option` one
/// included; when a key repeats, the last value wins.
///
/// # Errors
///
/// Returns [`CodecError`] on invalid UTF-8, syntax errors, type mismatches,
/// missing fields or trailing bytes.
pub fn from_slice<T: TpsEvent>(bytes: &[u8]) -> Result<T, CodecError> {
    let text = std::str::from_utf8(bytes).map_err(|e| CodecError(format!("invalid utf-8: {e}")))?;
    let mut input = Reader {
        text,
        pos: 0,
        depth: 0,
    };
    let event = T::read_fields(&mut input)?;
    input.skip_ws();
    match input.byte() {
        None => Ok(event),
        Some(_) => Err(input.error("trailing characters")),
    }
}

/// Unwraps a field [`event_fields!`](crate::event_fields) read, or names it.
pub fn required<T>(value: Option<T>, name: &str) -> Result<T, CodecError> {
    value.ok_or_else(|| CodecError(format!("missing field `{name}`")))
}

/// The value types an event's fields may have.
pub trait Field: Sized {
    /// Appends the value's text.
    fn write(&self, out: &mut String) -> Result<(), CodecError>;

    /// Reads one value.
    fn read(input: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// An event being written: an object's opening brace and the fields so far.
#[derive(Debug)]
pub struct Writer(String);

impl Writer {
    /// Appends `"name":value`, after a comma unless it is the first field.
    pub fn field<F: Field>(&mut self, name: &str, value: &F) -> Result<(), CodecError> {
        // Anything past the opening brace is an earlier field.
        if self.0.len() > 1 {
            self.0.push(',');
        }
        write_str(&mut self.0, name)?;
        self.0.push(':');
        value.write(&mut self.0)
    }
}

fn write_str(out: &mut String, s: &str) -> Result<(), CodecError> {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c))?,
            c => out.push(c),
        }
    }
    out.push('"');
    Ok(())
}

/// How deep arrays and objects may nest, the event's own object included.
/// The reader recurses per level: without a bound, one datagram of `[`s
/// overflows the stack and aborts the whole simulation.
const MAX_DEPTH: usize = 64;

/// A streaming reader over one borrowed document.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// Reads one object, calling `each` to consume the value after each key.
    pub fn object(
        &mut self,
        mut each: impl FnMut(&mut Self, &str) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        self.nested(b'{', b'}', |input| {
            let key = input.str()?;
            input.expect(b':')?;
            each(input, &key)
        })
    }

    /// Consumes one value of any type, validating it as it goes.
    pub fn skip(&mut self) -> Result<(), CodecError> {
        match self.peek()? {
            b'{' => self.object(|input, _| input.skip()),
            b'[' => self.nested(b'[', b']', Self::skip),
            b'"' => self.str().map(drop),
            b't' => self.keyword("true"),
            b'f' => self.keyword("false"),
            b'n' => self.keyword("null"),
            _ => f64::read(self).map(drop),
        }
    }

    /// Reads `open`, then `each` item up to `close`, comma-separated.
    fn nested(
        &mut self,
        open: u8,
        close: u8,
        mut each: impl FnMut(&mut Self) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        if self.peek()? != close {
            each(self)?;
            while self.peek()? == b',' {
                self.pos += 1;
                each(self)?;
            }
        }
        self.expect(close)?;
        self.depth -= 1;
        Ok(())
    }

    fn error(&self, what: &str) -> CodecError {
        CodecError(format!("{what} at offset {}", self.pos))
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\r' | b'\n') = self.byte() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, CodecError> {
        self.skip_ws();
        self.byte().ok_or_else(|| self.error("unexpected end of input"))
    }

    fn expect(&mut self, byte: u8) -> Result<(), CodecError> {
        if self.peek()? != byte {
            return Err(self.error(&format!("expected '{}'", byte as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn keyword(&mut self, word: &str) -> Result<(), CodecError> {
        self.skip_ws();
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("invalid literal"));
        }
        self.pos += word.len();
        Ok(())
    }

    /// Reads a string: a view of the input unless it holds an escape.
    fn str(&mut self) -> Result<Cow<'a, str>, CodecError> {
        self.expect(b'"')?;
        let text = self.text;
        let mut unescaped: Option<String> = None;
        let mut run = self.pos;
        // `"` and `\` are ASCII, so every run ends on a char boundary.
        loop {
            let byte = self.byte().ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            if byte == b'"' {
                let tail = &text[run..self.pos - 1];
                let Some(mut out) = unescaped else {
                    return Ok(Cow::Borrowed(tail));
                };
                out.push_str(tail);
                return Ok(Cow::Owned(out));
            }
            if byte == b'\\' {
                let out = unescaped.get_or_insert_with(String::new);
                out.push_str(&text[run..self.pos - 1]);
                out.push(self.escape()?);
                run = self.pos;
            }
        }
    }

    /// Reads the rest of an escape whose backslash was just consumed.
    fn escape(&mut self) -> Result<char, CodecError> {
        let byte = self.byte().ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'u' => {
                // Four hex digits: `from_str_radix` alone also takes a sign.
                let code = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| self.error("a \\u escape takes four hex digits"))?;
                self.pos += 4;
                // A lone surrogate has no char of its own.
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            _ => return Err(self.error("unknown escape")),
        })
    }

    /// The text of one number, unchecked.
    fn number(&mut self) -> &'a str {
        self.skip_ws();
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.byte() {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) -> Result<(), CodecError> {
        out.push_str(if *self { "true" } else { "false" });
        Ok(())
    }

    fn read(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        let value = input.peek()? == b't';
        input.keyword(if value { "true" } else { "false" })?;
        Ok(value)
    }
}

macro_rules! integer_fields {
    ($($int:ty),*) => {$(
        impl Field for $int {
            fn write(&self, out: &mut String) -> Result<(), CodecError> {
                Ok(write!(out, "{self}")?)
            }

            /// Integer text is tried as `i64`, then `u64`; a float is an error.
            fn read(input: &mut Reader<'_>) -> Result<Self, CodecError> {
                let text = input.number();
                let value = match text.parse::<i64>() {
                    Ok(int) => Self::try_from(int).ok(),
                    Err(_) => text.parse::<u64>().ok().and_then(|uint| Self::try_from(uint).ok()),
                };
                value.ok_or_else(|| input.error(concat!("expected ", stringify!($int))))
            }
        }
    )*};
}
integer_fields!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! float_fields {
    ($($float:ty),*) => {$(
        impl Field for $float {
            /// Widened to `f64`, written as `Display` does plus `.0` when
            /// that has no `.` or exponent, so it reads back as a float.
            fn write(&self, out: &mut String) -> Result<(), CodecError> {
                let value = f64::from(*self);
                if !value.is_finite() {
                    return Err(CodecError("cannot serialise non-finite float".into()));
                }
                let start = out.len();
                write!(out, "{value}")?;
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
                Ok(())
            }

            /// Integer text is tried as `i64`, then `u64`, and cast straight to
            /// the field's type, not through `f64`.
            fn read(input: &mut Reader<'_>) -> Result<Self, CodecError> {
                let text = input.number();
                if let Ok(int) = text.parse::<i64>() {
                    return Ok(int as $float);
                }
                if let Ok(uint) = text.parse::<u64>() {
                    return Ok(uint as $float);
                }
                text.parse::<f64>().map(|float| float as $float).map_err(|_| input.error("invalid number"))
            }
        }
    )*};
}
float_fields!(f32, f64);

impl Field for String {
    fn write(&self, out: &mut String) -> Result<(), CodecError> {
        write_str(out, self)
    }

    fn read(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        input.str().map(Cow::into_owned)
    }
}

/// `None` is `null`.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) -> Result<(), CodecError> {
        let Some(value) = self else {
            out.push_str("null");
            return Ok(());
        };
        value.write(out)
    }

    fn read(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        if input.peek()? != b'n' {
            return T::read(input).map(Some);
        }
        input.keyword("null").map(|()| None)
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) -> Result<(), CodecError> {
        out.push('[');
        for (index, item) in self.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            item.write(out)?;
        }
        out.push(']');
        Ok(())
    }

    fn read(input: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut items = Vec::new();
        input.nested(b'[', b']', |input| T::read(input).map(|item| items.push(item)))?;
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct SkiRental {
        shop: String,
        price: f32,
        brand: String,
        number_of_days: f32,
    }
    impl TpsEvent for SkiRental {
        const TYPE_NAME: &'static str = "SkiRental";
        crate::event_fields!(shop, price, brand, number_of_days);
    }

    #[derive(Debug, Clone, PartialEq)]
    struct RentalOffer {
        shop: String,
        price: f32,
    }
    impl TpsEvent for RentalOffer {
        const TYPE_NAME: &'static str = "RentalOffer";
        crate::event_fields!(shop, price);
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Nested {
        id: u64,
        tags: Vec<String>,
        maybe: Option<i32>,
        grid: Vec<Vec<u8>>,
    }
    impl TpsEvent for Nested {
        const TYPE_NAME: &'static str = "Nested";
        crate::event_fields!(id, tags, maybe, grid);
    }

    /// A one-field event, for values of any field type.
    #[derive(Debug, Clone, PartialEq)]
    struct One<T> {
        value: T,
    }
    impl<T: Field + Clone + 'static> TpsEvent for One<T> {
        const TYPE_NAME: &'static str = "One";
        crate::event_fields!(value);
    }

    fn ski() -> SkiRental {
        SkiRental {
            shop: "XTremShop \"the best\"".into(),
            price: 14.0,
            brand: "Salomon".into(),
            number_of_days: 100.0,
        }
    }

    fn roundtrip<T: Field + Clone + 'static>(value: T) -> T {
        let bytes = to_vec(&One { value }).unwrap();
        from_slice::<One<T>>(&bytes).unwrap().value
    }

    /// `{"shop":"X","extra":<extra>,"price":1}`: an unknown field the reader
    /// must skip.
    fn with_unknown(extra: &str) -> Vec<u8> {
        format!(r#"{{"shop":"X","extra":{extra},"price":1}}"#).into_bytes()
    }

    fn nested(open: &str, close: &str, depth: usize) -> String {
        format!("{}{}", open.repeat(depth), close.repeat(depth))
    }

    #[test]
    fn struct_roundtrip() {
        let original = ski();
        let bytes = to_vec(&original).unwrap();
        assert_eq!(
            bytes,
            br#"{"shop":"XTremShop \"the best\"","price":14.0,"brand":"Salomon","number_of_days":100.0}"#
        );
        let back: SkiRental = from_slice(&bytes).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn options_and_seqs_roundtrip() {
        let original = Nested {
            id: u64::MAX,
            tags: vec!["p2p".into(), "tps".into()],
            maybe: None,
            grid: vec![vec![], vec![1, 2], vec![255]],
        };
        let back: Nested = from_slice(&to_vec(&original).unwrap()).unwrap();
        assert_eq!(back, original);

        let with_some = Nested {
            maybe: Some(-5),
            ..original
        };
        let back: Nested = from_slice(&to_vec(&with_some).unwrap()).unwrap();
        assert_eq!(back.maybe, Some(-5));
    }

    #[test]
    fn unknown_fields_are_ignored_enabling_structural_upcast() {
        // A subtype payload (SkiRental) projects onto the supertype (RentalOffer).
        let bytes = to_vec(&ski()).unwrap();
        let upcast: RentalOffer = from_slice(&bytes).unwrap();
        assert_eq!(upcast.shop, ski().shop);
        assert_eq!(upcast.price, 14.0);
        // Whatever the unknown field holds.
        for extra in [
            "null",
            "-1.5e3",
            r#""a\"b""#,
            r#"[1,[true],{}]"#,
            r#"{"a":{"b":[]}}"#,
        ] {
            let upcast: RentalOffer = from_slice(&with_unknown(extra)).unwrap();
            assert_eq!(upcast.shop, "X", "{extra}");
        }
    }

    #[test]
    fn missing_fields_are_an_error() {
        #[derive(Debug, Clone, PartialEq)]
        struct Wants {
            shop: String,
            discount: Option<f32>,
        }
        impl TpsEvent for Wants {
            const TYPE_NAME: &'static str = "Wants";
            crate::event_fields!(shop, discount);
        }
        let bytes = to_vec(&ski()).unwrap();
        let error = from_slice::<Wants>(&bytes).unwrap_err();
        assert!(error.to_string().contains("missing field `discount`"), "{error}");
        let null = from_slice::<Wants>(br#"{"shop":"X","discount":null}"#).unwrap();
        assert_eq!(null.discount, None);
    }

    #[test]
    fn scalars_strings_and_escapes_roundtrip() {
        let text = "line\nbreak\t\"quoted\" \\slash\u{1}\r/";
        assert_eq!(roundtrip(text.to_owned()), text);
        assert!(roundtrip(true));
        assert!(!roundtrip(false));
        assert_eq!(roundtrip(-42i64), -42);
        assert_eq!(roundtrip(i64::MIN), i64::MIN);
        assert_eq!(roundtrip(u64::MAX), u64::MAX);
        assert_eq!(roundtrip(1.25f64), 1.25);
        assert_eq!(roundtrip(14.1f32), 14.1);
        assert_eq!(roundtrip(Some(7u8)), Some(7));
        assert_eq!(roundtrip(None::<u8>), None);
        assert_eq!(roundtrip(vec![1u8, 2, 3]), vec![1, 2, 3]);
        assert_eq!(
            to_vec(&One {
                value: "\u{1}\u{1f}\u{7f}".to_owned()
            })
            .unwrap(),
            b"{\"value\":\"\\u0001\\u001f\x7f\"}"
        );
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let text = "höhenmeter ⛷ 山 😀";
        assert_eq!(roundtrip(text.to_owned()), text);
        let escaped: One<String> = from_slice(br#"{"value":"\u0068\u00f6\u5c71\ud800"}"#).unwrap();
        assert_eq!(escaped.value, "hö山\u{FFFD}");
    }

    /// `u32::from_str_radix` takes a leading sign, so `\u+041` used to read
    /// as `A`.
    #[test]
    fn a_unicode_escape_takes_exactly_four_hex_digits() {
        for bad in [r"\u+041", r"\u-041", r"\u 041", r"\u004", r"\u00g1", r"\u"] {
            let doc = format!(r#"{{"value":"{bad}"}}"#);
            assert!(from_slice::<One<String>>(doc.as_bytes()).is_err(), "{bad}");
            // Skipped strings are validated the same way.
            assert!(
                from_slice::<RentalOffer>(&with_unknown(&format!("\"{bad}\""))).is_err(),
                "{bad}"
            );
        }
        let good: One<String> = from_slice(br#"{"value":"\u0041\u00C9"}"#).unwrap();
        assert_eq!(good.value, "AÉ");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(from_slice::<SkiRental>(b"{").is_err());
        assert!(from_slice::<SkiRental>(b"{}{}").is_err());
        assert!(from_slice::<SkiRental>(b"not json").is_err());
        assert!(from_slice::<SkiRental>(b"{\"shop\":}").is_err());
        assert!(from_slice::<One<u8>>(b"{\"value\":\"unterminated}").is_err());
        assert!(from_slice::<One<f64>>(b"{\"value\":1.2.3}").is_err());
        assert!(from_slice::<One<String>>(&[b'{', 0xFF, 0xFE, b'}']).is_err());
        assert!(from_slice::<RentalOffer>(b"{\"shop\":\"X\",\"price\":1}x").is_err());
        assert!(from_slice::<RentalOffer>(&with_unknown("[1,]")).is_err());
        assert!(from_slice::<RentalOffer>(&with_unknown("{\"a\":1,}")).is_err());
        assert!(from_slice::<RentalOffer>(&with_unknown("nul")).is_err());
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        assert!(to_vec(&One { value: f64::NAN }).is_err());
        assert!(to_vec(&One { value: f32::INFINITY }).is_err());
        assert!(to_vec(&One {
            value: vec![1.0, f64::NEG_INFINITY]
        })
        .is_err());
    }

    #[test]
    fn numbers_coerce_into_float_fields() {
        // An integer literal must still deserialise into a float field,
        // since the wire format does not distinguish 14 from 14.0.
        let p: One<f32> = from_slice(b"{\"value\":14}").unwrap();
        assert_eq!(p.value, 14.0);
        // Cast straight from the integer, not through `f64`.
        let p: One<f32> = from_slice(b"{\"value\":9007199254740993}").unwrap();
        assert_eq!(p.value, 9_007_199_254_740_993_i64 as f32);
        // Not the other way round, and not out of range.
        assert!(from_slice::<One<u8>>(b"{\"value\":1.5}").is_err());
        assert!(from_slice::<One<u8>>(b"{\"value\":256}").is_err());
        assert!(from_slice::<One<u32>>(b"{\"value\":1e2}").is_err());
    }

    #[test]
    fn nesting_is_accepted_up_to_the_depth_limit_and_rejected_past_it() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            // The innermost object needs a value; arrays may be empty. The
            // event's own object is the first level.
            let leaf = if open == "[" { "" } else { "0" };
            let value = |depth: usize| format!("{}{leaf}{}", open.repeat(depth - 1), close.repeat(depth - 1));
            assert!(
                from_slice::<RentalOffer>(&with_unknown(&value(MAX_DEPTH))).is_ok(),
                "{open}: depth {MAX_DEPTH} parses"
            );
            let error = from_slice::<RentalOffer>(&with_unknown(&value(MAX_DEPTH + 1))).unwrap_err();
            assert!(error.to_string().contains("nesting deeper than 64"), "{error}");
        }
        // Siblings do not add up: the bound is on depth, not on count.
        let wide = format!("[{}]", vec![nested("[", "]", MAX_DEPTH - 2); 100].join(","));
        assert!(from_slice::<RentalOffer>(&with_unknown(&wide)).is_ok());
        // Known fields count the same levels.
        let grid: One<Vec<Vec<u8>>> = from_slice(b"{\"value\":[[1],[]]}").unwrap();
        assert_eq!(grid.value, vec![vec![1], vec![]]);
    }

    /// One datagram of 200 000 opening brackets (a fifth of the datagram
    /// limit) used to overflow the stack — an abort, not a catchable panic.
    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let brackets = "[".repeat(200_000);
        let value = |text: &str| format!("{{\"value\":{text}}}");
        assert!(from_slice::<One<Vec<u8>>>(value(&brackets).as_bytes()).is_err());
        assert!(from_slice::<One<Vec<u8>>>(value(&nested("[", "]", 200_000)).as_bytes()).is_err());
        assert!(from_slice::<SkiRental>("{\"shop\":".repeat(200_000).as_bytes()).is_err());
        // The same inside a field the reader skips.
        assert!(from_slice::<RentalOffer>(&with_unknown(&brackets)).is_err());
        assert!(from_slice::<RentalOffer>(&with_unknown(&nested("[", "]", 200_000))).is_err());
        assert!(from_slice::<RentalOffer>(&with_unknown(&"{\"k\":".repeat(200_000))).is_err());
    }
}

//! The event codec: a small self-describing (JSON-compatible) serde data
//! format used to marshal application-defined event types into wire messages.
//!
//! The paper relies on Java serialization of event objects; here events are
//! any `serde`-serialisable Rust type. The format is *self-describing* and
//! *tolerant*: unknown fields are ignored when deserialising, which is what
//! lets a subscriber to a supertype decode an instance of a subtype (the
//! structural projection behind the Figure 7 delivery semantics).

use serde::de::{self, DeserializeOwned, Deserializer as _, IntoDeserializer, Visitor};
use serde::ser::{self, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Errors raised by the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl CodecError {
    fn new(msg: impl Into<String>) -> Self {
        CodecError(msg.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

impl ser::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

/// Serialises a value to the codec's textual representation.
///
/// # Errors
///
/// Returns [`CodecError`] if the value cannot be represented (e.g. a map with
/// non-string keys).
pub fn to_string<T: Serialize>(value: &T) -> Result<String, CodecError> {
    let mut serializer = Serializer { out: String::new() };
    value.serialize(&mut serializer)?;
    Ok(serializer.out)
}

/// Serialises a value to bytes (UTF-8 of [`to_string`]).
///
/// # Errors
///
/// Returns [`CodecError`] if the value cannot be represented.
pub fn to_vec<T: Serialize>(value: &T) -> Result<Vec<u8>, CodecError> {
    to_string(value).map(String::into_bytes)
}

/// Deserialises a value from the codec's textual representation.
///
/// Unknown fields are ignored, which is what allows projecting a subtype's
/// payload onto a supertype.
///
/// # Errors
///
/// Returns [`CodecError`] on syntax errors or type mismatches.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T, CodecError> {
    let value = Parser {
        input: text.as_bytes(),
        pos: 0,
        depth: 0,
    }
    .parse_document()?;
    T::deserialize(ValueDeserializer(value))
}

/// Deserialises a value from bytes.
///
/// # Errors
///
/// Returns [`CodecError`] on invalid UTF-8, syntax errors or type mismatches.
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    let text = std::str::from_utf8(bytes).map_err(|e| CodecError::new(format!("invalid utf-8: {e}")))?;
    from_str(text)
}

// ---------------------------------------------------------------------------
// value model + parser
// ---------------------------------------------------------------------------

/// A parsed self-describing value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / null.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer too large for `i64`.
    UInt(u64),
    /// A floating point number.
    Float(f64),
    /// A string.
    String(String),
    /// An ordered list.
    Array(Vec<Value>),
    /// A string-keyed object (sorted for determinism).
    Object(BTreeMap<String, Value>),
}

/// How deep arrays and objects may nest. Events nest a handful of levels;
/// the parser recurses per level, so without a bound one datagram of `[`s
/// (well under the 1 MiB datagram limit) overflows the stack and aborts the
/// whole simulation.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn parse_document(mut self) -> Result<Value, CodecError> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(CodecError::new("trailing characters after document"));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while matches!(self.input.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, CodecError> {
        self.skip_ws();
        self.input
            .get(self.pos)
            .copied()
            .ok_or_else(|| CodecError::new("unexpected end of input"))
    }

    fn expect(&mut self, byte: u8) -> Result<(), CodecError> {
        if self.peek()? != byte {
            return Err(CodecError::new(format!(
                "expected '{}' at offset {}",
                byte as char, self.pos
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, CodecError> {
        match self.peek()? {
            b'n' => self.parse_keyword("null", Value::Null),
            b't' => self.parse_keyword("true", Value::Bool(true)),
            b'f' => self.parse_keyword("false", Value::Bool(false)),
            b'"' => Ok(Value::String(self.parse_string()?)),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(CodecError::new(format!(
                        "nesting deeper than {MAX_DEPTH} at offset {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            _ => self.parse_number(),
        }
    }

    fn parse_keyword(&mut self, keyword: &str, value: Value) -> Result<Value, CodecError> {
        self.skip_ws();
        if self.input[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(CodecError::new(format!("invalid literal at offset {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String, CodecError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let byte = *self
                .input
                .get(self.pos)
                .ok_or_else(|| CodecError::new("unterminated string"))?;
            self.pos += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let escape = *self
                        .input
                        .get(self.pos)
                        .ok_or_else(|| CodecError::new("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .input
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| CodecError::new("truncated unicode escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| CodecError::new("bad escape"))?,
                                16,
                            )
                            .map_err(|_| CodecError::new("bad unicode escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(CodecError::new(format!("unknown escape \\{}", other as char))),
                    }
                }
                _ => {
                    // Re-borrow as UTF-8: collect the full multi-byte sequence.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.input.len() && (self.input[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.input[start..end])
                        .map_err(|_| CodecError::new("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, CodecError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                }
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(CodecError::new("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, CodecError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            match self.peek()? {
                b',' => {
                    self.pos += 1;
                }
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(CodecError::new("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, CodecError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.input.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| CodecError::new("invalid number"))?;
        if text.is_empty() {
            return Err(CodecError::new(format!("unexpected character at offset {start}")));
        }
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| CodecError::new(format!("invalid number '{text}'")))
    }
}

// ---------------------------------------------------------------------------
// serializer
// ---------------------------------------------------------------------------

struct Serializer {
    out: String,
}

impl Serializer {
    fn write_escaped(&mut self, s: &str) {
        self.out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\t' => self.out.push_str("\\t"),
                '\r' => self.out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

struct Compound<'a> {
    ser: &'a mut Serializer,
    first: bool,
}

impl<'a> Compound<'a> {
    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.ser.out.push(',');
        }
    }
}

impl<'a> ser::Serializer for &'a mut Serializer {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeTupleStruct = Compound<'a>;
    type SerializeTupleVariant = Compound<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), CodecError> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i16(self, v: i16) -> Result<(), CodecError> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i32(self, v: i32) -> Result<(), CodecError> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i64(self, v: i64) -> Result<(), CodecError> {
        self.out.push_str(&v.to_string());
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), CodecError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u16(self, v: u16) -> Result<(), CodecError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u32(self, v: u32) -> Result<(), CodecError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u64(self, v: u64) -> Result<(), CodecError> {
        self.out.push_str(&v.to_string());
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), CodecError> {
        self.serialize_f64(v as f64)
    }
    fn serialize_f64(self, v: f64) -> Result<(), CodecError> {
        if v.is_finite() {
            let mut text = format!("{v}");
            if !text.contains(['.', 'e', 'E']) {
                text.push_str(".0");
            }
            self.out.push_str(&text);
            Ok(())
        } else {
            Err(CodecError::new("cannot serialise non-finite float"))
        }
    }
    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        self.write_escaped(&v.to_string());
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.write_escaped(v);
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        use serde::ser::SerializeSeq;
        let mut seq = self.serialize_seq(Some(v.len()))?;
        for byte in v {
            seq.serialize_element(byte)?;
        }
        seq.end()
    }
    fn serialize_none(self) -> Result<(), CodecError> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CodecError> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), CodecError> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CodecError> {
        self.serialize_unit()
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<(), CodecError> {
        self.serialize_str(variant)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.out.push('{');
        self.write_escaped(variant);
        self.out.push(':');
        value.serialize(&mut *self)?;
        self.out.push('}');
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>, CodecError> {
        self.out.push('[');
        Ok(Compound {
            ser: self,
            first: true,
        })
    }
    fn serialize_tuple(self, len: usize) -> Result<Compound<'a>, CodecError> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_struct(self, _name: &'static str, len: usize) -> Result<Compound<'a>, CodecError> {
        self.serialize_seq(Some(len))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, CodecError> {
        self.out.push('{');
        self.write_escaped(variant);
        self.out.push_str(":[");
        Ok(Compound {
            ser: self,
            first: true,
        })
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>, CodecError> {
        self.out.push('{');
        Ok(Compound {
            ser: self,
            first: true,
        })
    }
    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<Compound<'a>, CodecError> {
        self.serialize_map(Some(len))
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, CodecError> {
        self.out.push('{');
        self.write_escaped(variant);
        self.out.push_str(":{");
        Ok(Compound {
            ser: self,
            first: true,
        })
    }
}

impl<'a> ser::SerializeSeq for Compound<'a> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        self.sep();
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), CodecError> {
        self.ser.out.push(']');
        Ok(())
    }
}

impl<'a> ser::SerializeTuple for Compound<'a> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), CodecError> {
        ser::SerializeSeq::end(self)
    }
}

impl<'a> ser::SerializeTupleStruct for Compound<'a> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<(), CodecError> {
        ser::SerializeSeq::end(self)
    }
}

impl<'a> ser::SerializeTupleVariant for Compound<'a> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        self.sep();
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), CodecError> {
        self.ser.out.push_str("]}");
        Ok(())
    }
}

impl<'a> ser::SerializeMap for Compound<'a> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CodecError> {
        self.sep();
        // Keys must serialise to strings.
        let mut key_ser = Serializer { out: String::new() };
        key.serialize(&mut key_ser)?;
        if !key_ser.out.starts_with('"') {
            return Err(CodecError::new("map keys must be strings"));
        }
        self.ser.out.push_str(&key_ser.out);
        self.ser.out.push(':');
        Ok(())
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), CodecError> {
        self.ser.out.push('}');
        Ok(())
    }
}

impl<'a> ser::SerializeStruct for Compound<'a> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.sep();
        self.ser.write_escaped(key);
        self.ser.out.push(':');
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), CodecError> {
        self.ser.out.push('}');
        Ok(())
    }
}

impl<'a> ser::SerializeStructVariant for Compound<'a> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.sep();
        self.ser.write_escaped(key);
        self.ser.out.push(':');
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), CodecError> {
        self.ser.out.push_str("}}");
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// deserializer
// ---------------------------------------------------------------------------

struct ValueDeserializer(Value);

impl<'de> de::Deserializer<'de> for ValueDeserializer {
    type Error = CodecError;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.0 {
            Value::Null => visitor.visit_unit(),
            Value::Bool(b) => visitor.visit_bool(b),
            Value::Int(i) => visitor.visit_i64(i),
            Value::UInt(u) => visitor.visit_u64(u),
            Value::Float(f) => visitor.visit_f64(f),
            Value::String(s) => visitor.visit_string(s),
            Value::Array(items) => {
                let mut seq = SeqAccess {
                    iter: items.into_iter(),
                };
                visitor.visit_seq(&mut seq)
            }
            Value::Object(map) => {
                let mut access = MapAccess {
                    iter: map.into_iter(),
                    value: None,
                };
                visitor.visit_map(&mut access)
            }
        }
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.0 {
            Value::Null => visitor.visit_none(),
            other => visitor.visit_some(ValueDeserializer(other)),
        }
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        match self.0 {
            Value::String(variant) => visitor.visit_enum(EnumAccess { variant, value: None }),
            Value::Object(map) => {
                let mut iter = map.into_iter();
                let (variant, value) = iter
                    .next()
                    .ok_or_else(|| CodecError::new("empty object cannot be an enum"))?;
                if iter.next().is_some() {
                    return Err(CodecError::new("enum object must have exactly one key"));
                }
                visitor.visit_enum(EnumAccess {
                    variant,
                    value: Some(value),
                })
            }
            _ => Err(CodecError::new("expected string or object for enum")),
        }
    }

    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.0 {
            Value::Int(i) => visitor.visit_f32(i as f32),
            Value::UInt(u) => visitor.visit_f32(u as f32),
            Value::Float(f) => visitor.visit_f32(f as f32),
            other => ValueDeserializer(other).deserialize_any(visitor),
        }
    }

    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.0 {
            Value::Int(i) => visitor.visit_f64(i as f64),
            Value::UInt(u) => visitor.visit_f64(u as f64),
            other => ValueDeserializer(other).deserialize_any(visitor),
        }
    }

    serde::forward_to_deserialize_any! {
        bool i8 i16 i32 i64 i128 u8 u16 u32 u64 u128 char str string
        bytes byte_buf unit unit_struct seq tuple
        tuple_struct map struct identifier ignored_any
    }
}

struct SeqAccess {
    iter: std::vec::IntoIter<Value>,
}

impl<'de> de::SeqAccess<'de> for SeqAccess {
    type Error = CodecError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, CodecError> {
        match self.iter.next() {
            Some(value) => seed.deserialize(ValueDeserializer(value)).map(Some),
            None => Ok(None),
        }
    }
}

struct MapAccess {
    iter: std::collections::btree_map::IntoIter<String, Value>,
    value: Option<Value>,
}

impl<'de> de::MapAccess<'de> for MapAccess {
    type Error = CodecError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, CodecError> {
        match self.iter.next() {
            Some((key, value)) => {
                self.value = Some(value);
                seed.deserialize(ValueDeserializer(Value::String(key))).map(Some)
            }
            None => Ok(None),
        }
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value, CodecError> {
        let value = self
            .value
            .take()
            .ok_or_else(|| CodecError::new("value requested before key"))?;
        seed.deserialize(ValueDeserializer(value))
    }
}

struct EnumAccess {
    variant: String,
    value: Option<Value>,
}

impl<'de> de::EnumAccess<'de> for EnumAccess {
    type Error = CodecError;
    type Variant = VariantAccess;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, VariantAccess), CodecError> {
        let variant = seed.deserialize(self.variant.clone().into_deserializer())?;
        Ok((variant, VariantAccess { value: self.value }))
    }
}

struct VariantAccess {
    value: Option<Value>,
}

impl<'de> de::VariantAccess<'de> for VariantAccess {
    type Error = CodecError;

    fn unit_variant(self) -> Result<(), CodecError> {
        match self.value {
            None | Some(Value::Null) => Ok(()),
            Some(_) => Err(CodecError::new("unexpected payload for unit variant")),
        }
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value, CodecError> {
        let value = self
            .value
            .ok_or_else(|| CodecError::new("missing payload for newtype variant"))?;
        seed.deserialize(ValueDeserializer(value))
    }

    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, visitor: V) -> Result<V::Value, CodecError> {
        let value = self
            .value
            .ok_or_else(|| CodecError::new("missing payload for tuple variant"))?;
        ValueDeserializer(value).deserialize_any(visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        let value = self
            .value
            .ok_or_else(|| CodecError::new("missing payload for struct variant"))?;
        ValueDeserializer(value).deserialize_any(visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap as Map;

    #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
    struct SkiRental {
        shop: String,
        price: f32,
        brand: String,
        number_of_days: f32,
    }

    #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
    struct Nested {
        id: u64,
        tags: Vec<String>,
        maybe: Option<i32>,
        inner: SkiRental,
        table: Map<String, u8>,
    }

    #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
    enum Mixed {
        Unit,
        One(i32),
        Pair(i32, String),
        Rec { a: bool, b: f64 },
    }

    fn ski() -> SkiRental {
        SkiRental {
            shop: "XTremShop \"the best\"".into(),
            price: 14.0,
            brand: "Salomon".into(),
            number_of_days: 100.0,
        }
    }

    #[test]
    fn struct_roundtrip() {
        let original = ski();
        let text = to_string(&original).unwrap();
        let back: SkiRental = from_str(&text).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn nested_roundtrip_with_options_maps_and_seqs() {
        let mut table = Map::new();
        table.insert("a".to_owned(), 1);
        table.insert("b".to_owned(), 2);
        let original = Nested {
            id: u64::MAX,
            tags: vec!["p2p".into(), "tps".into()],
            maybe: None,
            inner: ski(),
            table,
        };
        let back: Nested = from_slice(&to_vec(&original).unwrap()).unwrap();
        assert_eq!(back, original);

        let with_some = Nested {
            maybe: Some(-5),
            ..original
        };
        let back: Nested = from_str(&to_string(&with_some).unwrap()).unwrap();
        assert_eq!(back.maybe, Some(-5));
    }

    #[test]
    fn enum_variants_roundtrip() {
        for value in [
            Mixed::Unit,
            Mixed::One(7),
            Mixed::Pair(1, "x".into()),
            Mixed::Rec { a: true, b: 2.5 },
        ] {
            let text = to_string(&value).unwrap();
            let back: Mixed = from_str(&text).unwrap();
            assert_eq!(back, value);
        }
    }

    #[test]
    fn unknown_fields_are_ignored_enabling_structural_upcast() {
        #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
        struct RentalOffer {
            shop: String,
            price: f32,
        }
        // A subtype payload (SkiRental) projects onto the supertype (RentalOffer).
        let text = to_string(&ski()).unwrap();
        let upcast: RentalOffer = from_str(&text).unwrap();
        assert_eq!(upcast.shop, ski().shop);
        assert_eq!(upcast.price, 14.0);
    }

    #[test]
    fn missing_fields_are_an_error() {
        #[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
        struct Wants {
            shop: String,
            discount: f32,
        }
        let text = to_string(&ski()).unwrap();
        assert!(from_str::<Wants>(&text).is_err());
    }

    #[test]
    fn scalars_strings_and_escapes_roundtrip() {
        let text = to_string(&"line\nbreak\t\"quoted\" \\slash\u{1}").unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, "line\nbreak\t\"quoted\" \\slash\u{1}");

        assert!(from_str::<bool>(&to_string(&true).unwrap()).unwrap());
        assert_eq!(from_str::<i64>(&to_string(&-42i64).unwrap()).unwrap(), -42);
        assert_eq!(from_str::<u64>(&to_string(&u64::MAX).unwrap()).unwrap(), u64::MAX);
        assert_eq!(from_str::<f64>(&to_string(&1.25f64).unwrap()).unwrap(), 1.25);
        assert_eq!(from_str::<char>(&to_string(&'é').unwrap()).unwrap(), 'é');
        assert_eq!(from_str::<Option<u8>>("null").unwrap(), None);
        assert_eq!(
            from_str::<Vec<u8>>(&to_string(&vec![1u8, 2, 3]).unwrap()).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let text = to_string(&"höhenmeter ⛷ 山").unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, "höhenmeter ⛷ 山");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(from_str::<SkiRental>("{").is_err());
        assert!(from_str::<SkiRental>("{}{}").is_err());
        assert!(from_str::<SkiRental>("not json").is_err());
        assert!(from_str::<SkiRental>("{\"shop\":}").is_err());
        assert!(from_str::<u8>("\"unterminated").is_err());
        assert!(from_str::<f64>("1.2.3").is_err());
        assert!(from_slice::<String>(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn non_finite_floats_and_non_string_keys_are_rejected() {
        assert!(to_string(&f64::NAN).is_err());
        let mut bad_keys = Map::new();
        bad_keys.insert(3u32, "x");
        assert!(to_string(&bad_keys).is_err());
    }

    #[test]
    fn numbers_coerce_into_float_fields() {
        #[derive(Debug, Deserialize)]
        struct P {
            price: f32,
        }
        // An integer literal must still deserialise into a float field,
        // since the wire format does not distinguish 14 from 14.0.
        let p: P = from_str("{\"price\":14}").unwrap();
        assert_eq!(p.price, 14.0);
    }
    fn nested(open: &str, close: &str, depth: usize) -> String {
        format!("{}{}", open.repeat(depth), close.repeat(depth))
    }

    fn parse(text: &str) -> Result<Value, CodecError> {
        let parser = Parser {
            input: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.parse_document()
    }

    #[test]
    fn nesting_is_accepted_up_to_the_depth_limit_and_rejected_past_it() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            // The innermost object needs a value; arrays may be empty.
            let leaf = if open == "[" { "" } else { "0" };
            let doc = |depth| format!("{}{leaf}{}", open.repeat(depth), close.repeat(depth));
            assert!(parse(&doc(MAX_DEPTH)).is_ok(), "{open}: depth {MAX_DEPTH} parses");
            let error = parse(&doc(MAX_DEPTH + 1)).unwrap_err();
            assert!(error.to_string().contains("nesting deeper than 64"), "{error}");
        }
        // Siblings do not add up: the bound is on depth, not on count.
        let wide = format!("[{}]", vec![nested("[", "]", MAX_DEPTH - 1); 100].join(","));
        assert!(parse(&wide).is_ok());
    }

    /// One datagram of 200 000 opening brackets (a fifth of the datagram
    /// limit) used to overflow the stack — an abort, not a catchable panic.
    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        assert!(from_str::<Vec<u8>>(&"[".repeat(200_000)).is_err());
        assert!(from_str::<Vec<u8>>(&nested("[", "]", 200_000)).is_err());
        assert!(from_slice::<SkiRental>("{\"shop\":".repeat(200_000).as_bytes()).is_err());
    }
}

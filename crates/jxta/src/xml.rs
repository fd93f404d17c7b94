//! A minimal XML document model.
//!
//! JXTA advertisements are XML documents; peers exchange them inside messages
//! and store them in their local cache. The reproduction only needs a small,
//! well-defined subset of XML: elements, attributes, text content and
//! escaping — no namespaces, comments, CDATA, processing instructions or
//! doctypes. The writer always produces documents the parser accepts
//! (round-trip property-tested in the crate's test-suite).

use std::fmt;

/// An XML element: name, attributes, text and child elements.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlElement {
    /// The element (tag) name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Concatenated character data directly inside this element.
    pub text: String,
    /// Child elements in document order.
    pub children: Vec<XmlElement>,
}

impl XmlElement {
    /// Creates an empty element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Creates an element containing only text.
    pub fn with_text(name: impl Into<String>, text: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            text: text.into(),
            ..Default::default()
        }
    }

    /// Adds an attribute (builder style).
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Adds a child element (builder style).
    pub fn child(mut self, child: XmlElement) -> Self {
        self.children.push(child);
        self
    }

    /// Adds a child element holding only text (builder style).
    pub fn text_child(self, name: impl Into<String>, text: impl Into<String>) -> Self {
        self.child(XmlElement::with_text(name, text))
    }

    /// Appends a child element in place.
    pub fn push_child(&mut self, child: XmlElement) {
        self.children.push(child);
    }

    /// Looks up an attribute value by key.
    pub fn attribute(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The first child with the given tag name, if any.
    pub fn first_child(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All children with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// The text of the first child with the given name (trimmed), if any.
    pub fn child_text(&self, name: &str) -> Option<&str> {
        self.first_child(name).map(|c| c.text.trim())
    }

    /// The text of the first child with the given name, or an empty string.
    pub fn child_text_or_empty(&self, name: &str) -> &str {
        self.child_text(name).unwrap_or("")
    }

    /// Serialises the element (and its subtree) to an XML string.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v));
            out.push('"');
        }
        if self.text.is_empty() && self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        out.push_str(&escape(&self.text));
        for child in &self.children {
            child.write(out);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    /// Parses a single XML document from a string.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] on malformed input (mismatched tags, bad
    /// attribute syntax, trailing content, unknown entities).
    pub fn parse(input: &str) -> Result<XmlElement, XmlError> {
        let mut parser = Parser {
            input: input.as_bytes(),
            pos: 0,
            depth: 1, // the root element
        };
        parser.skip_whitespace_and_prolog()?;
        let element = parser.parse_element()?;
        parser.skip_whitespace();
        if parser.pos != parser.input.len() {
            return Err(XmlError::TrailingContent(parser.pos));
        }
        Ok(element)
    }
}

impl fmt::Display for XmlElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

/// Escapes text for inclusion in element content or attribute values.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// Unescapes the five predefined XML entities.
pub fn unescape(text: &str) -> Result<String, XmlError> {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let semi = rest.find(';').ok_or(XmlError::BadEntity)?;
        let entity = &rest[1..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => return Err(XmlError::BadEntity),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Errors produced by [`XmlElement::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Input ended before the document was complete.
    UnexpectedEof,
    /// An unexpected byte was found at the given offset.
    Unexpected(usize),
    /// A closing tag did not match the open tag.
    MismatchedTag { expected: String, found: String },
    /// Content remained after the root element closed.
    TrailingContent(usize),
    /// An unknown or malformed `&...;` entity.
    BadEntity,
    /// Elements nest deeper than the parser's limit (at the given offset).
    TooDeep(usize),
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof => f.write_str("unexpected end of xml input"),
            XmlError::Unexpected(pos) => write!(f, "unexpected character at offset {pos}"),
            XmlError::MismatchedTag { expected, found } => {
                write!(
                    f,
                    "mismatched closing tag: expected </{expected}>, found </{found}>"
                )
            }
            XmlError::TrailingContent(pos) => write!(f, "trailing content after document at offset {pos}"),
            XmlError::BadEntity => f.write_str("unknown or malformed xml entity"),
            XmlError::TooDeep(pos) => write!(f, "elements nest deeper than {MAX_DEPTH} at offset {pos}"),
        }
    }
}

impl std::error::Error for XmlError {}

/// How deep elements may nest. Advertisements and protocol bodies nest a
/// handful of levels; the parser recurses per level, so without a bound one
/// datagram of `<a>`s (well under the 1 MiB datagram limit) overflows the
/// stack and aborts the whole simulation.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, XmlError> {
        let b = self.peek().ok_or(XmlError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_whitespace_and_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_whitespace();
        // Accept an optional `<?xml ... ?>` prolog.
        if self.input[self.pos..].starts_with(b"<?") {
            while !self.input[self.pos..].starts_with(b"?>") {
                if self.pos >= self.input.len() {
                    return Err(XmlError::UnexpectedEof);
                }
                self.pos += 1;
            }
            self.pos += 2;
            self.skip_whitespace();
        }
        Ok(())
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b':' || b == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(XmlError::Unexpected(self.pos));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn expect(&mut self, byte: u8) -> Result<(), XmlError> {
        if self.bump()? != byte {
            return Err(XmlError::Unexpected(self.pos - 1));
        }
        Ok(())
    }

    fn parse_attribute_value(&mut self) -> Result<String, XmlError> {
        let quote = self.bump()?;
        if quote != b'"' && quote != b'\'' {
            return Err(XmlError::Unexpected(self.pos - 1));
        }
        let start = self.pos;
        while self.peek().ok_or(XmlError::UnexpectedEof)? != quote {
            self.pos += 1;
        }
        let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
        self.pos += 1; // closing quote
        unescape(&raw)
    }

    fn parse_element(&mut self) -> Result<XmlElement, XmlError> {
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut element = XmlElement::new(name.clone());
        loop {
            self.skip_whitespace();
            match self.peek().ok_or(XmlError::UnexpectedEof)? {
                b'/' => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(element);
                }
                b'>' => {
                    self.pos += 1;
                    break;
                }
                _ => {
                    let key = self.parse_name()?;
                    self.skip_whitespace();
                    self.expect(b'=')?;
                    self.skip_whitespace();
                    let value = self.parse_attribute_value()?;
                    element.attributes.push((key, value));
                }
            }
        }
        // Content: text and children until the matching close tag.
        loop {
            match self.peek().ok_or(XmlError::UnexpectedEof)? {
                b'<' => {
                    if self.input[self.pos..].starts_with(b"</") {
                        self.pos += 2;
                        let close = self.parse_name()?;
                        self.skip_whitespace();
                        self.expect(b'>')?;
                        if close != name {
                            return Err(XmlError::MismatchedTag {
                                expected: name,
                                found: close,
                            });
                        }
                        element.text = element.text.trim().to_owned();
                        return Ok(element);
                    }
                    if self.depth == MAX_DEPTH {
                        return Err(XmlError::TooDeep(self.pos));
                    }
                    self.depth += 1;
                    let child = self.parse_element()?;
                    self.depth -= 1;
                    element.children.push(child);
                }
                _ => {
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'<') {
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                    element.text.push_str(&unescape(&raw)?);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_serialise() {
        let doc = XmlElement::new("PipeAdvertisement")
            .attr("type", "JxtaWire")
            .text_child("Id", "urn:jxta:pipe-abc")
            .text_child("Name", "SkiRental");
        let xml = doc.to_xml();
        assert_eq!(
            xml,
            "<PipeAdvertisement type=\"JxtaWire\"><Id>urn:jxta:pipe-abc</Id><Name>SkiRental</Name></PipeAdvertisement>"
        );
    }

    #[test]
    fn parse_roundtrip() {
        let doc = XmlElement::new("A")
            .attr("k", "v with \"quotes\" & <angles>")
            .text_child("B", "text & more")
            .child(XmlElement::new("C").attr("x", "1").text_child("D", "deep"));
        let parsed = XmlElement::parse(&doc.to_xml()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_accepts_prolog_and_whitespace() {
        let xml = "  <?xml version=\"1.0\"?>\n  <Root><Leaf>x</Leaf></Root>  ";
        let parsed = XmlElement::parse(xml).unwrap();
        assert_eq!(parsed.name, "Root");
        assert_eq!(parsed.child_text("Leaf"), Some("x"));
    }

    #[test]
    fn parse_self_closing_and_empty() {
        let parsed = XmlElement::parse("<Empty/>").unwrap();
        assert_eq!(parsed, XmlElement::new("Empty"));
        let parsed = XmlElement::parse("<Empty></Empty>").unwrap();
        assert_eq!(parsed.name, "Empty");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(XmlElement::parse("<A><B></A></B>").is_err());
        assert!(XmlElement::parse("<A>").is_err());
        assert!(XmlElement::parse("<A/><B/>").is_err());
        assert!(XmlElement::parse("<A attr=unquoted/>").is_err());
        assert!(XmlElement::parse("plain text").is_err());
        assert!(XmlElement::parse("<A>&unknown;</A>").is_err());
    }

    #[test]
    fn escaping_roundtrips() {
        let nasty = "a & b < c > d \" e ' f";
        assert_eq!(unescape(&escape(nasty)).unwrap(), nasty);
        assert!(unescape("&bogus;").is_err());
        assert!(unescape("& no semicolon").is_err());
    }

    #[test]
    fn accessors_find_children_and_attributes() {
        let doc = XmlElement::new("Adv")
            .attr("age", "30")
            .text_child("Name", "ps-SkiRental")
            .text_child("Name", "second")
            .text_child("Gid", "urn:jxta:group-1");
        assert_eq!(doc.attribute("age"), Some("30"));
        assert_eq!(doc.attribute("missing"), None);
        assert_eq!(doc.child_text("Name"), Some("ps-SkiRental"));
        assert_eq!(doc.children_named("Name").count(), 2);
        assert_eq!(doc.child_text_or_empty("Missing"), "");
    }

    #[test]
    fn mixed_text_is_trimmed_but_preserved() {
        let parsed = XmlElement::parse("<A>  hello  <B/>  </A>").unwrap();
        assert_eq!(parsed.text, "hello");
        assert_eq!(parsed.children.len(), 1);
    }
    fn nested(depth: usize) -> String {
        format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth))
    }

    #[test]
    fn nesting_is_accepted_up_to_the_depth_limit_and_rejected_past_it() {
        assert!(XmlElement::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(matches!(
            XmlElement::parse(&nested(MAX_DEPTH + 1)),
            Err(XmlError::TooDeep(_))
        ));
        // Siblings do not add up: the bound is on depth, not on count.
        let wide = format!("<r>{}</r>", nested(MAX_DEPTH - 1).repeat(100));
        assert!(XmlElement::parse(&wide).is_ok());
    }

    /// One datagram of 200 000 opening tags (well under the datagram limit)
    /// used to overflow the stack — an abort, not a catchable panic.
    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        assert!(matches!(
            XmlElement::parse(&"<a>".repeat(200_000)),
            Err(XmlError::TooDeep(_))
        ));
        assert!(XmlElement::parse(&nested(200_000)).is_err());
    }
}

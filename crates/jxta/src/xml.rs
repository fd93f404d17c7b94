//! A minimal XML document model.
//!
//! JXTA advertisements are XML documents; peers exchange them inside messages
//! and store them in their local cache. The reproduction only needs a small,
//! well-defined subset of XML: elements, attributes, text content and
//! escaping — no namespaces, comments, CDATA, processing instructions or
//! doctypes. The writer always produces documents the parser accepts
//! (round-trip property-tested in the crate's test-suite).
//!
//! An [`XmlElement`] borrows: a parsed tree points into the text it was
//! parsed from, a built tree into the value it describes, and only what
//! cannot be a view — text that held an entity, a rendered number, a nested
//! document — is owned. Copy out what must outlive the source.

use std::borrow::Cow;
use std::fmt;

/// An XML element: name, attributes, text and child elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlElement<'a> {
    /// The element (tag) name.
    pub name: &'a str,
    /// Attributes in document order.
    pub attributes: Vec<(&'a str, Cow<'a, str>)>,
    /// Concatenated character data directly inside this element.
    pub text: Cow<'a, str>,
    /// Child elements in document order.
    pub children: Vec<XmlElement<'a>>,
}

impl<'a> XmlElement<'a> {
    /// Creates an empty element with the given tag name.
    pub fn new(name: &'a str) -> Self {
        XmlElement {
            name,
            attributes: Vec::new(),
            text: Cow::Borrowed(""),
            children: Vec::new(),
        }
    }

    /// Creates an element containing only text.
    pub fn with_text(name: &'a str, text: impl Into<Cow<'a, str>>) -> Self {
        XmlElement {
            text: text.into(),
            ..XmlElement::new(name)
        }
    }

    /// Adds an attribute (builder style).
    pub fn attr(mut self, key: &'a str, value: impl Into<Cow<'a, str>>) -> Self {
        self.attributes.push((key, value.into()));
        self
    }

    /// Adds a child element (builder style).
    pub fn child(mut self, child: XmlElement<'a>) -> Self {
        self.children.push(child);
        self
    }

    /// Adds a child element holding only text (builder style).
    pub fn text_child(self, name: &'a str, text: impl Into<Cow<'a, str>>) -> Self {
        self.child(XmlElement::with_text(name, text))
    }

    /// Appends a child element in place.
    pub fn push_child(&mut self, child: XmlElement<'a>) {
        self.children.push(child);
    }

    /// Looks up an attribute value by key.
    pub fn attribute(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_ref())
    }

    /// The first child with the given tag name, if any.
    pub fn first_child(&self, name: &str) -> Option<&XmlElement<'a>> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All children with the given tag name.
    pub fn children_named<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s XmlElement<'a>> + 's {
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
        out.push_str(self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
        if self.text.is_empty() && self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        escape_into(&self.text, out);
        for child in &self.children {
            child.write(out);
        }
        out.push_str("</");
        out.push_str(self.name);
        out.push('>');
    }

    /// Parses a single XML document from a string; the tree borrows from it.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] on malformed input (mismatched tags, bad
    /// attribute syntax, trailing content, unknown entities).
    pub fn parse(input: &'a str) -> Result<XmlElement<'a>, XmlError> {
        let mut parser = Parser {
            input,
            pos: 0,
            depth: 1, // the root element
        };
        parser.skip_whitespace_and_prolog()?;
        let element = parser.parse_element()?;
        parser.skip_whitespace();
        if parser.pos != input.len() {
            return Err(XmlError::TrailingContent(parser.pos));
        }
        Ok(element)
    }
}

impl fmt::Display for XmlElement<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

/// Escapes text for inclusion in element content or attribute values.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_into(text, &mut out);
    out
}

/// Appends `text` to `out`, escaped. The five escaped characters are ASCII,
/// so every cut between runs is a char boundary.
fn escape_into(text: &str, out: &mut String) {
    let mut copied = 0;
    for (at, byte) in text.bytes().enumerate() {
        let entity = match byte {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&apos;",
            _ => continue,
        };
        out.push_str(&text[copied..at]);
        out.push_str(entity);
        copied = at + 1;
    }
    out.push_str(&text[copied..]);
}

/// Unescapes the five predefined XML entities; text without an `&` comes
/// back as the view it was given.
pub fn unescape(text: &str) -> Result<Cow<'_, str>, XmlError> {
    let Some(mut next) = text.find('&') else {
        return Ok(Cow::Borrowed(text));
    };
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    loop {
        out.push_str(&rest[..next]);
        rest = &rest[next..];
        // Everything up to the first `;` must be one of the five names.
        let (ch, len) = match rest.as_bytes() {
            [b'&', b'l', b't', b';', ..] => ('<', 4),
            [b'&', b'g', b't', b';', ..] => ('>', 4),
            [b'&', b'a', b'm', b'p', b';', ..] => ('&', 5),
            [b'&', b'q', b'u', b'o', b't', b';', ..] => ('"', 6),
            [b'&', b'a', b'p', b'o', b's', b';', ..] => ('\'', 6),
            _ => return Err(XmlError::BadEntity),
        };
        out.push(ch);
        rest = &rest[len..];
        // Entities come in runs (a nested document is mostly `&lt;`): on the
        // short gaps between them a byte loop beats setting up a search.
        match rest.bytes().position(|b| b == b'&') {
            Some(at) => next = at,
            None => {
                out.push_str(rest);
                return Ok(Cow::Owned(out));
            }
        }
    }
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

/// What a child list is sized for when its first child arrives: the widest
/// element the crate writes (a service advertisement) has eight, so a list is
/// allocated once; a longer one grows as any vector does.
const USUAL_FAN_OUT: usize = 8;

/// Scans bytes but cuts `input` only next to an ASCII delimiter (`<`, `>`,
/// `/`, `=`, a quote, whitespace, a name byte) or at its end, so every slice
/// it takes starts and ends on a char boundary.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, XmlError> {
        let b = self.peek().ok_or(XmlError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_whitespace_and_prolog(&mut self) -> Result<(), XmlError> {
        self.skip_whitespace();
        // Accept an optional `<?xml ... ?>` prolog.
        if self.rest().starts_with("<?") {
            let end = self.rest().find("?>").ok_or(XmlError::UnexpectedEof)?;
            self.pos += end + 2;
            self.skip_whitespace();
        }
        Ok(())
    }

    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
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
        Ok(&self.input[start..self.pos])
    }

    fn expect(&mut self, byte: u8) -> Result<(), XmlError> {
        if self.bump()? != byte {
            return Err(XmlError::Unexpected(self.pos - 1));
        }
        Ok(())
    }

    fn parse_attribute_value(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let quote = self.bump()?;
        if quote != b'"' && quote != b'\'' {
            return Err(XmlError::Unexpected(self.pos - 1));
        }
        let rest = self.rest();
        let len = rest.find(char::from(quote)).ok_or(XmlError::UnexpectedEof)?;
        self.pos += len + 1; // the value and its closing quote
        unescape(&rest[..len])
    }

    fn parse_element(&mut self) -> Result<XmlElement<'a>, XmlError> {
        self.expect(b'<')?;
        let mut element = XmlElement::new(self.parse_name()?);
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
            let rest = self.rest();
            if rest.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                self.skip_whitespace();
                self.expect(b'>')?;
                if close != element.name {
                    return Err(XmlError::MismatchedTag {
                        expected: element.name.to_owned(),
                        found: close.to_owned(),
                    });
                }
                element.text = trimmed(element.text);
                return Ok(element);
            }
            if rest.starts_with('<') {
                if self.depth == MAX_DEPTH {
                    return Err(XmlError::TooDeep(self.pos));
                }
                self.depth += 1;
                let child = self.parse_element()?;
                self.depth -= 1;
                if element.children.is_empty() {
                    element.children.reserve_exact(USUAL_FAN_OUT);
                }
                element.children.push(child);
                continue;
            }
            if rest.is_empty() {
                return Err(XmlError::UnexpectedEof);
            }
            let len = rest.find('<').unwrap_or(rest.len());
            self.pos += len;
            let run = unescape(&rest[..len])?;
            if element.text.is_empty() {
                element.text = run;
            } else {
                element.text.to_mut().push_str(&run);
            }
        }
    }
}

/// `text` without its surrounding whitespace, keeping the storage it has.
fn trimmed(text: Cow<'_, str>) -> Cow<'_, str> {
    match text {
        Cow::Borrowed(text) => Cow::Borrowed(text.trim()),
        Cow::Owned(text) if text.trim().len() == text.len() => Cow::Owned(text),
        Cow::Owned(text) => Cow::Owned(text.trim().to_owned()),
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
        let written = doc.to_xml();
        assert_eq!(XmlElement::parse(&written).unwrap(), doc);
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

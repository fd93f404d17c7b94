//! JXTA messages.
//!
//! A JXTA message is an ordered collection of named elements, each carrying a
//! MIME type and an opaque body. Protocols add their own elements (a resolver
//! query, a wire header, a serialized event ...). Where the paper's
//! `WireServiceFinder.publish()` copies a message (`myOutputPipe.send(msg.dup())`),
//! this crate clones it: elements share their immutable bodies.

use bytes::Bytes;
use std::fmt;

/// A single named element of a [`Message`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageElement {
    /// The namespace of the element (`"jxta"` for protocol elements,
    /// application-chosen otherwise).
    pub namespace: String,
    /// The element name.
    pub name: String,
    /// The MIME type of the body.
    pub mime_type: String,
    /// The element body.
    pub body: Bytes,
}

impl MessageElement {
    /// Creates an element with an explicit MIME type.
    pub fn new(
        namespace: impl Into<String>,
        name: impl Into<String>,
        mime_type: impl Into<String>,
        body: impl Into<Bytes>,
    ) -> Self {
        MessageElement {
            namespace: namespace.into(),
            name: name.into(),
            mime_type: mime_type.into(),
            body: body.into(),
        }
    }

    /// Creates a UTF-8 text element (`text/plain`).
    pub fn text(namespace: impl Into<String>, name: impl Into<String>, body: impl Into<String>) -> Self {
        MessageElement::new(
            namespace,
            name,
            "text/plain",
            Bytes::from(body.into().into_bytes()),
        )
    }

    /// Creates an XML element (`text/xml`).
    pub fn xml(namespace: impl Into<String>, name: impl Into<String>, body: impl Into<String>) -> Self {
        MessageElement::new(namespace, name, "text/xml", Bytes::from(body.into().into_bytes()))
    }

    /// Creates a binary element (`application/octet-stream`).
    pub fn binary(namespace: impl Into<String>, name: impl Into<String>, body: impl Into<Bytes>) -> Self {
        MessageElement::new(namespace, name, "application/octet-stream", body)
    }

    /// The body interpreted as UTF-8 text (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The size of the element when encoded on the wire.
    pub fn wire_size(&self) -> usize {
        // 3 length-prefixed strings + 1 length-prefixed body + fixed header
        self.namespace.len() + self.name.len() + self.mime_type.len() + self.body.len() + 16
    }
}

/// A JXTA message: an ordered list of named [`MessageElement`]s.
///
/// # Examples
///
/// ```
/// use jxta::message::{Message, MessageElement};
///
/// let mut msg = Message::new();
/// msg.add(MessageElement::text("jxta", "SrcPeer", "urn:jxta:peer-1234"));
/// msg.add(MessageElement::binary("app", "payload", vec![1u8, 2, 3]));
/// assert_eq!(msg.element("jxta", "SrcPeer").unwrap().body_text(), "urn:jxta:peer-1234");
///
/// let bytes = msg.to_bytes();
/// let decoded = Message::from_bytes(&bytes).unwrap();
/// assert_eq!(decoded, msg);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    elements: Vec<MessageElement>,
}

impl Message {
    /// Creates an empty message.
    pub fn new() -> Self {
        Message { elements: Vec::new() }
    }

    /// Adds an element to the end of the message.
    pub fn add(&mut self, element: MessageElement) -> &mut Self {
        self.elements.push(element);
        self
    }

    /// Builder-style [`Message::add`].
    pub fn with(mut self, element: MessageElement) -> Self {
        self.elements.push(element);
        self
    }

    /// Removes all elements with the given namespace and name, returning how
    /// many were removed.
    pub fn remove(&mut self, namespace: &str, name: &str) -> usize {
        let before = self.elements.len();
        self.elements
            .retain(|e| !(e.namespace == namespace && e.name == name));
        before - self.elements.len()
    }

    /// The first element matching namespace and name.
    pub fn element(&self, namespace: &str, name: &str) -> Option<&MessageElement> {
        self.elements
            .iter()
            .find(|e| e.namespace == namespace && e.name == name)
    }

    /// The text body of the first matching element, if present.
    pub fn element_text(&self, namespace: &str, name: &str) -> Option<String> {
        self.element(namespace, name).map(MessageElement::body_text)
    }

    /// All elements, in order.
    pub fn elements(&self) -> &[MessageElement] {
        &self.elements
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the message has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The total encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        8 + self.elements.iter().map(MessageElement::wire_size).sum::<usize>()
    }

    /// Encodes the message to its wire representation.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.wire_size());
        out.extend_from_slice(b"JXM1");
        out.extend_from_slice(&(self.elements.len() as u32).to_be_bytes());
        for element in &self.elements {
            write_string(&mut out, &element.namespace);
            write_string(&mut out, &element.name);
            write_string(&mut out, &element.mime_type);
            out.extend_from_slice(&(element.body.len() as u32).to_be_bytes());
            out.extend_from_slice(&element.body);
        }
        Bytes::from(out)
    }

    /// Decodes a message from its wire representation. Element bodies are
    /// views into `bytes` (see [`Bytes::slice_ref`]): decoding copies no
    /// payload, and the decoded message keeps the input allocation alive.
    ///
    /// # Errors
    ///
    /// Returns [`MessageDecodeError`] if the magic, counts or lengths are
    /// inconsistent with the buffer.
    pub fn from_bytes(bytes: &Bytes) -> Result<Message, MessageDecodeError> {
        let mut reader = ElementReader::new(bytes)?;
        let mut elements = Vec::with_capacity(reader.max_elements());
        while let Some(element) = reader.next_element()? {
            elements.push(MessageElement {
                namespace: element.namespace.to_owned(),
                name: element.name.to_owned(),
                mime_type: element.mime_type.to_owned(),
                body: bytes.slice_ref(element.body),
            });
        }
        Ok(Message { elements })
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Message[{} elements, {} bytes]",
            self.elements.len(),
            self.wire_size()
        )
    }
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The encoded size of an element with empty strings and an empty body: four
/// length prefixes.
const MIN_ELEMENT_SIZE: usize = 16;

/// One element of an encoded message, borrowed from the buffer it was read
/// from.
#[derive(Debug)]
pub(crate) struct ElementRef<'a> {
    pub(crate) namespace: &'a str,
    pub(crate) name: &'a str,
    pub(crate) mime_type: &'a str,
    pub(crate) body: &'a [u8],
}

/// The one parser of the message wire format: validates the framing and
/// yields each element as borrowed `&str` / `&[u8]` views of the input,
/// allocating nothing. [`Message::from_bytes`] and
/// [`crate::endpoint::WireMessage::from_bytes`] are both built on it.
///
/// A buffer is a valid message only if [`ElementReader::next_element`] has
/// been driven to `Ok(None)`: the check for trailing bytes happens there.
#[derive(Debug)]
pub(crate) struct ElementReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Elements the header declared that have not been read yet.
    remaining: usize,
}

impl<'a> ElementReader<'a> {
    /// Reads the message header (magic and element count).
    ///
    /// # Errors
    ///
    /// [`MessageDecodeError::BadMagic`], [`MessageDecodeError::Truncated`]
    /// or [`MessageDecodeError::TooManyElements`].
    pub(crate) fn new(buf: &'a [u8]) -> Result<Self, MessageDecodeError> {
        let mut reader = ElementReader {
            buf,
            pos: 0,
            remaining: 0,
        };
        if reader.take(4)? != b"JXM1" {
            return Err(MessageDecodeError::BadMagic);
        }
        let count = reader.read_u32()? as usize;
        if count > 0xFFFF {
            return Err(MessageDecodeError::TooManyElements(count));
        }
        reader.remaining = count;
        Ok(reader)
    }

    /// An upper bound on the elements still to come: the declared count,
    /// capped by how many minimum-size elements fit in the unread bytes, so
    /// that a hostile count cannot size an allocation.
    pub(crate) fn max_elements(&self) -> usize {
        self.remaining.min((self.buf.len() - self.pos) / MIN_ELEMENT_SIZE)
    }

    /// Reads the next element, or returns `Ok(None)` once every declared
    /// element has been read and the buffer ends exactly there.
    ///
    /// # Errors
    ///
    /// [`MessageDecodeError::Truncated`], [`MessageDecodeError::BadUtf8`],
    /// or [`MessageDecodeError::TrailingBytes`] after the last element.
    pub(crate) fn next_element(&mut self) -> Result<Option<ElementRef<'a>>, MessageDecodeError> {
        if self.remaining == 0 {
            return if self.pos == self.buf.len() {
                Ok(None)
            } else {
                Err(MessageDecodeError::TrailingBytes)
            };
        }
        let namespace = self.read_str()?;
        let name = self.read_str()?;
        let mime_type = self.read_str()?;
        let len = self.read_u32()? as usize;
        let body = self.take(len)?;
        self.remaining -= 1;
        Ok(Some(ElementRef {
            namespace,
            name,
            mime_type,
            body,
        }))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], MessageDecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(MessageDecodeError::Truncated)?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn read_u32(&mut self) -> Result<u32, MessageDecodeError> {
        let bytes = self.take(4)?;
        Ok(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn read_str(&mut self) -> Result<&'a str, MessageDecodeError> {
        let len = self.read_u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| MessageDecodeError::BadUtf8)
    }
}

/// Errors produced by [`Message::from_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageDecodeError {
    /// The 4-byte magic prefix was not `JXM1`.
    BadMagic,
    /// The buffer ended before the declared content.
    Truncated,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The element count is implausibly large.
    TooManyElements(usize),
    /// Bytes remained after the last declared element.
    TrailingBytes,
}

impl fmt::Display for MessageDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessageDecodeError::BadMagic => f.write_str("bad message magic"),
            MessageDecodeError::Truncated => f.write_str("truncated message"),
            MessageDecodeError::BadUtf8 => f.write_str("message string is not valid utf-8"),
            MessageDecodeError::TooManyElements(n) => write!(f, "implausible element count {n}"),
            MessageDecodeError::TrailingBytes => f.write_str("trailing bytes after message"),
        }
    }
}

impl std::error::Error for MessageDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Message {
        Message::new()
            .with(MessageElement::text("jxta", "SrcPeer", "urn:jxta:peer-1"))
            .with(MessageElement::xml("jxta", "Adv", "<Adv><Name>x</Name></Adv>"))
            .with(MessageElement::binary("app", "payload", vec![0u8, 1, 2, 255]))
    }

    #[test]
    fn roundtrip_encoding() {
        let msg = sample();
        let decoded = Message::from_bytes(&msg.to_bytes()).unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(decoded.len(), 3);
    }

    #[test]
    fn element_lookup_and_removal() {
        let mut msg = sample();
        assert!(msg.element("jxta", "SrcPeer").is_some());
        assert!(msg.element("jxta", "missing").is_none());
        assert_eq!(msg.element_text("jxta", "SrcPeer").unwrap(), "urn:jxta:peer-1");
        assert_eq!(msg.remove("jxta", "SrcPeer"), 1);
        assert_eq!(msg.remove("jxta", "SrcPeer"), 0);
        assert_eq!(msg.len(), 2);
    }

    #[test]
    fn decode_rejects_corruption() {
        let msg = sample();
        let bytes = msg.to_bytes().to_vec();
        assert_eq!(
            Message::from_bytes(&Bytes::from_static(b"nope")),
            Err(MessageDecodeError::BadMagic)
        );
        assert_eq!(
            Message::from_bytes(&Bytes::from(&bytes[..bytes.len() - 1])),
            Err(MessageDecodeError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            Message::from_bytes(&Bytes::from(trailing)),
            Err(MessageDecodeError::TrailingBytes)
        );
        let mut huge_count = bytes.clone();
        huge_count[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            Message::from_bytes(&Bytes::from(huge_count)),
            Err(MessageDecodeError::TooManyElements(u32::MAX as usize))
        );
        let mut bad_name = bytes;
        // First byte of the first element's namespace ("jxta").
        bad_name[12] = 0xFF;
        assert_eq!(
            Message::from_bytes(&Bytes::from(bad_name)),
            Err(MessageDecodeError::BadUtf8)
        );
    }

    #[test]
    fn hostile_element_count_reserves_nothing() {
        // 12 bytes claiming the largest accepted count: the reservation is
        // bounded by what the buffer could hold (no element fits in 4
        // bytes), not by the claim (65 535 elements would be ~5 MB).
        let mut hostile = b"JXM1".to_vec();
        hostile.extend_from_slice(&0xFFFFu32.to_be_bytes());
        hostile.extend_from_slice(&[0u8; 4]);
        assert_eq!(hostile.len(), 12);
        let reader = ElementReader::new(&hostile).unwrap();
        assert_eq!(reader.max_elements(), 0);
        assert_eq!(
            Message::from_bytes(&Bytes::from(hostile)),
            Err(MessageDecodeError::Truncated)
        );
        // A length field near `usize::MAX` must not wrap the cursor.
        let mut reader = ElementReader {
            buf: b"abcd",
            pos: 2,
            remaining: 0,
        };
        assert_eq!(reader.take(usize::MAX), Err(MessageDecodeError::Truncated));
        assert_eq!(reader.take(2), Ok(&b"cd"[..]));
    }

    #[test]
    fn wire_size_matches_encoding_length_roughly() {
        let msg = sample();
        let encoded = msg.to_bytes().len();
        // wire_size is an upper-bound estimate used for charging CPU/bandwidth.
        assert!(msg.wire_size() >= encoded);
        assert!(msg.wire_size() < encoded + 64);
    }

    #[test]
    fn empty_message_roundtrips() {
        let msg = Message::new();
        assert!(msg.is_empty());
        assert_eq!(Message::from_bytes(&msg.to_bytes()).unwrap(), msg);
    }
}

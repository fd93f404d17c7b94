//! Differential tests of the control plane's XML parser and writer.
//!
//! `XmlElement::parse` slices names, attribute values and character data out
//! of its input. The oracle in [`reference`] is the parser it replaced, kept
//! here in its original shape: every name, value and text run is copied into
//! an owned `String` (through `from_utf8_lossy`), and text is escaped and
//! unescaped through fresh `String`s. On every input — every advertisement
//! and protocol payload the crate can build, a three-level resolver query and
//! response unwrapped level by level, their truncations and bit flips,
//! arbitrary bytes, generated trees and hostile nesting — the live parser
//! must return what the oracle returns: the same tree, or the same
//! [`XmlError`] down to its offset. The writer is held to the oracle's writer
//! on generated trees, and to `golden/xml_writer.txt`, recorded before the
//! parser and writer were replaced, on one value of every type.

use jxta::adv::{MembershipPolicy, RouteAdvertisement};
use jxta::protocols::pbp::{PipeBindQuery, PipeBindResponse};
use jxta::protocols::pdp::{DiscoveryQuery, DiscoveryResponse};
use jxta::protocols::prp::{ResolverQuery, ResolverResponse};
use jxta::protocols::{handlers, ProtocolPayload};
use jxta::xml::{XmlElement, XmlError};
use jxta::{
    AdvKind, Advertisement, AnyAdvertisement, PeerAdvertisement, PeerGroup, PeerGroupAdvertisement,
    PeerGroupId, PeerId, PipeAdvertisement, PipeId, PipeType, QueryId, SearchFilter, ServiceAdvertisement,
};
use proptest::prelude::*;
use simnet::{SimAddress, TransportKind};

/// The owned, copying parser and writer, as the oracle.
mod reference {
    use jxta::xml::XmlError;

    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct Element {
        pub name: String,
        pub attributes: Vec<(String, String)>,
        pub text: String,
        pub children: Vec<Element>,
    }

    pub fn write(element: &Element, out: &mut String) {
        out.push('<');
        out.push_str(&element.name);
        for (k, v) in &element.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v));
            out.push('"');
        }
        if element.text.is_empty() && element.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        out.push_str(&escape(&element.text));
        for child in &element.children {
            write(child, out);
        }
        out.push_str("</");
        out.push_str(&element.name);
        out.push('>');
    }

    pub fn parse(input: &str) -> Result<Element, XmlError> {
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

    pub const MAX_DEPTH: usize = 64;

    struct Parser<'a> {
        input: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl Parser<'_> {
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

        fn parse_element(&mut self) -> Result<Element, XmlError> {
            self.expect(b'<')?;
            let name = self.parse_name()?;
            let mut element = Element {
                name: name.clone(),
                ..Default::default()
            };
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
}

/// The live tree, copied into the oracle's shape for comparison.
fn owned(element: &XmlElement<'_>) -> reference::Element {
    reference::Element {
        name: element.name.to_string(),
        attributes: element
            .attributes
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        text: element.text.to_string(),
        children: element.children.iter().map(owned).collect(),
    }
}

/// The oracle's tree as a live one (for the writer).
fn live(element: &reference::Element) -> XmlElement<'_> {
    let mut out = XmlElement::new(element.name.as_str());
    for (k, v) in &element.attributes {
        out = out.attr(k.as_str(), v.as_str());
    }
    out.text = element.text.as_str().into();
    for child in &element.children {
        out.push_child(live(child));
    }
    out
}

/// Holds the live parser against the oracle on one input; returns the
/// verdict they agreed on.
fn assert_agrees(input: &str) -> Result<reference::Element, XmlError> {
    let expected = reference::parse(input);
    let got = XmlElement::parse(input).map(|tree| owned(&tree));
    assert_eq!(got, expected, "XmlElement::parse on {input:?}");
    expected
}

/// [`assert_agrees`], then the same for every nested document (resolver
/// bodies and discovery `<Adv>`s are XML carried as escaped text); returns
/// how many levels deep the documents went.
fn assert_agrees_through_all_levels(input: &str) -> usize {
    fn nested(element: &reference::Element, levels: &mut usize) {
        if element.text.starts_with('<') {
            *levels = (*levels).max(assert_agrees_through_all_levels(&element.text));
        }
        for child in &element.children {
            nested(child, levels);
        }
    }
    let mut levels = 0;
    if let Ok(tree) = assert_agrees(input) {
        nested(&tree, &mut levels);
    }
    levels + 1
}

fn address(host: u32, port: u16) -> SimAddress {
    SimAddress::new(TransportKind::Tcp, host, port)
}

fn peer_adv(name: &str) -> PeerAdvertisement {
    let mut adv = PeerAdvertisement::new(PeerId::derive(name), name, PeerGroupId::world())
        .with_endpoints(vec![
            address(0x0A00_0001, 9701),
            SimAddress::new(TransportKind::Http, 0x0A00_0001, 9702),
        ])
        .with_rendezvous(name.starts_with("rdv"));
    adv.description = format!("peer <{name}> & \"friends\"");
    adv
}

fn group_adv() -> PeerGroupAdvertisement {
    PeerGroup::for_event_type("SkiRental", PeerId::derive("creator"))
        .advertisement()
        .clone()
}

/// One of every advertisement type, named.
fn advertisements() -> Vec<(&'static str, AnyAdvertisement)> {
    let mut service = ServiceAdvertisement::new("jxta.service.wire")
        .with_pipe(PipeAdvertisement::new(
            PipeId::derive("ski"),
            "SkiRental",
            PipeType::JxtaWire,
        ))
        .with_keywords("Ski & Rental");
    service.push_param("first");
    service.push_param("<second>");
    vec![
        ("peer", peer_adv("alice").into()),
        ("group", group_adv().into()),
        (
            "group-password",
            PeerGroupAdvertisement::new(PeerGroupId::derive("g"), "locked", PeerId::derive("x"))
                .with_membership(MembershipPolicy::Password("hunter2 'n \"more\" <&>".into()))
                .into(),
        ),
        (
            "pipe",
            PipeAdvertisement::new(PipeId::derive("p"), "SkiRental", PipeType::JxtaUnicast).into(),
        ),
        ("service", service.into()),
        (
            "route-direct",
            RouteAdvertisement::direct(PeerId::derive("carol"), vec![address(7, 80)]).into(),
        ),
        (
            "route-relayed",
            RouteAdvertisement::via_relay(PeerId::derive("carol"), PeerId::derive("rdv"), Vec::new()).into(),
        ),
    ]
}

/// The resolver query a finder round sends: a discovery query (with the
/// requester's advertisement inside) as the escaped body.
fn three_level_query() -> ResolverQuery {
    let dq = DiscoveryQuery::new(
        AdvKind::Group,
        SearchFilter::by_name("ps-*"),
        10,
        peer_adv("alice"),
    );
    ResolverQuery::new(
        handlers::PDP,
        QueryId(41),
        PeerId::derive("alice"),
        dq.to_xml_string(),
    )
}

/// The answer to it: `ResolverResponse` ⊃ escaped `DiscoveryResponse` ⊃
/// escaped `PeerGroupAdvertisement`.
fn three_level_response() -> ResolverResponse {
    let dr = DiscoveryResponse::new(AdvKind::Group, vec![group_adv().into()], peer_adv("rdv-0"));
    ResolverResponse::answering(&three_level_query(), PeerId::derive("rdv-0"), dr.to_xml_string())
}

/// One of every protocol payload (every variant of the enums inside), named.
fn payloads() -> Vec<(&'static str, String)> {
    let discovery_response = DiscoveryResponse::new(
        AdvKind::Adv,
        advertisements().into_iter().map(|(_, adv)| adv).collect(),
        peer_adv("rdv-0"),
    );
    vec![
        ("resolver-query", three_level_query().to_xml_string()),
        ("resolver-response", three_level_response().to_xml_string()),
        (
            "discovery-query-any",
            DiscoveryQuery::new(AdvKind::Peer, SearchFilter::any(), 5, peer_adv("alice")).to_xml_string(),
        ),
        ("discovery-response-all-advs", discovery_response.to_xml_string()),
        (
            "pipe-bind-query",
            PipeBindQuery {
                pipe_id: PipeId::derive("ski"),
                requester: PeerId::derive("alice"),
            }
            .to_xml_string(),
        ),
        (
            "pipe-bind-response",
            PipeBindResponse {
                pipe_id: PipeId::derive("ski"),
                peer: PeerId::derive("bob"),
                endpoints: vec![address(3, 9701), address(4, 9701)],
            }
            .to_xml_string(),
        ),
    ]
}

/// Every document above, named: what the writer fixture records and what the
/// parser is compared on.
fn documents() -> Vec<(&'static str, String)> {
    let mut documents: Vec<_> = advertisements()
        .into_iter()
        .map(|(name, adv)| (name, adv.to_xml_string()))
        .collect();
    documents.extend(payloads());
    documents
}

fn element_count(element: &reference::Element) -> usize {
    1 + element.children.iter().map(element_count).sum::<usize>()
}

#[test]
fn every_advertisement_and_payload_parses_as_the_reference_does() {
    for (name, document) in documents() {
        assert!(assert_agrees(&document).is_ok(), "{name} is well-formed");
        assert_agrees_through_all_levels(&document);
    }
}

/// The writer's bytes, one value of every type, as recorded on the tree
/// before `jxta::xml` was rewritten. A mismatch prints the actual lines.
#[test]
fn the_writer_emits_the_recorded_bytes() {
    let actual: String = documents()
        .iter()
        .map(|(name, document)| format!("{name}\t{document}\n"))
        .collect();
    let recorded = include_str!("golden/xml_writer.txt");
    if actual != recorded {
        println!("{actual}");
        panic!(
            "to_xml_string() no longer emits the bytes recorded in golden/xml_writer.txt; actual lines above"
        );
    }
}

#[test]
fn the_three_level_documents_unwrap_level_by_level() {
    let query = three_level_query().to_xml_string();
    let response = three_level_response().to_xml_string();
    // Query: resolver envelope ⊃ discovery query. Response: resolver envelope
    // ⊃ discovery response ⊃ group advertisement.
    assert_eq!(assert_agrees_through_all_levels(&query), 2);
    assert_eq!(assert_agrees_through_all_levels(&response), 3);

    // By hand, so that the recursion above is itself checked once.
    let envelope = assert_agrees(&response).unwrap();
    let body = &envelope.children.iter().find(|c| c.name == "Body").unwrap().text;
    let discovery = assert_agrees(body).unwrap();
    assert_eq!(discovery.name, "jxta:DiscoveryResponse");
    let advs = discovery.children.iter().find(|c| c.name == "Advs").unwrap();
    let group = assert_agrees(&advs.children[0].text).unwrap();
    assert_eq!(group.name, "jxta:PeerGroupAdvertisement");
    // The sizes the allocation bound in `zero_copy.rs` is stated against.
    assert_eq!(
        element_count(&envelope) + element_count(&discovery) + element_count(&group),
        47
    );
    // Escaping twice is what the nesting costs on the wire.
    let group_len = group_adv().to_xml().to_xml().len();
    assert!(group_len < 1_100 && response.len() > 2 * group_len);

    // The typed decoders, which sit on the live parser, get back what went in.
    let decoded = ResolverResponse::from_xml_string(&response).unwrap();
    assert_eq!(decoded, three_level_response());
    let inner = DiscoveryResponse::from_xml_string(&decoded.body).unwrap();
    assert_eq!(inner.advertisements, vec![group_adv().into()]);
    assert_eq!(
        DiscoveryQuery::from_xml_string(&ResolverQuery::from_xml_string(&query).unwrap().body)
            .unwrap()
            .requester,
        peer_adv("alice")
    );
}

/// Every truncation and every single-bit flip of the three-level query and
/// response (read back the way the wire reads a text body: lossily), each
/// followed down through whatever levels still parse. Exhaustive, so every
/// verdict class below is certain to have been compared.
#[test]
fn every_truncation_and_bit_flip_agrees_with_the_reference() {
    let mut verdicts = std::collections::BTreeSet::new();
    let mut check = |bytes: &[u8]| {
        let input = String::from_utf8_lossy(bytes);
        assert_agrees_through_all_levels(&input);
        verdicts.insert(match reference::parse(&input) {
            Ok(_) => "ok",
            Err(XmlError::UnexpectedEof) => "eof",
            Err(XmlError::Unexpected(_)) => "unexpected",
            Err(XmlError::MismatchedTag { .. }) => "mismatched",
            Err(XmlError::TrailingContent(_)) => "trailing",
            Err(XmlError::BadEntity) => "bad-entity",
            Err(XmlError::TooDeep(_)) => "too-deep",
        });
    };
    for document in [
        three_level_query().to_xml_string(),
        three_level_response().to_xml_string(),
    ] {
        let bytes = document.as_bytes();
        for cut in 0..bytes.len() {
            check(&bytes[..cut]);
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped);
        }
    }
    // (No single flip of these documents leaves content after the root; the
    // hand-written cases cover that verdict.)
    let expected = ["bad-entity", "eof", "mismatched", "ok", "unexpected"];
    assert_eq!(verdicts.into_iter().collect::<Vec<_>>(), expected);
}

#[test]
fn handwritten_corner_cases_agree_with_the_reference() {
    for input in [
        "",
        "   ",
        "plain text",
        "<",
        "<A",
        "<A>",
        "<A/>",
        "<A />",
        "<A/ >",
        "<A></A>",
        "<A></A >",
        "<A></ A>",
        "<A></B>",
        "<A><B></A></B>",
        "<A/><B/>",
        "<A/> trailing",
        "  <?xml version=\"1.0\"?>\n  <Root><Leaf>x</Leaf></Root>  ",
        "<?xml never closed",
        "<?",
        "<?><A/>",
        "<?xml?><?xml?><A/>",
        "<A k=\"v\" k2='single \"inside\"'/>",
        "<A k = \"spaced\"\tj\n=\n'x'/>",
        "<A k=\"a &amp; b &lt; c &gt; d &quot; e &apos; f\"/>",
        "<A k=unquoted/>",
        "<A k=\"unterminated/>",
        "<A k/>",
        "<A k=\"&bogus;\"/>",
        "<A k=\"& no semicolon\"/>",
        "<A>&unknown;</A>",
        "<A>&amp</A>",
        "<A>&;</A>",
        "<A>&amp;&amp;&lt;&lt;</A>",
        "<A>a;b &amp; c;d</A>",
        "<A>  hello  <B/>  </A>",
        "<A>  hello  <B/>  world &amp; <C>x</C> more  </A>",
        "<A> \u{a0}\u{2003}padded by unicode spaces\u{3000} </A>",
        "<A>\u{a0}<B/>\u{a0}</A>",
        "<A>é→山 𝛼</A>",
        "<é/>",
        "<A é=\"1\"/>",
        "<A k=\"é→山\">\u{FFFD}</A>",
        "<A><![CDATA[x]]></A>",
        "<A><!-- comment --></A>",
        "<a:b.c-d_e x:y.z-w_v=\"1\"/>",
        "<1/>",
        "<A>text</A><",
        "<A>></A>",
        "<A>\"quotes' in text</A>",
    ] {
        let _ = assert_agrees(input);
    }
}

fn nested(depth: usize) -> String {
    format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth))
}

#[test]
fn the_depth_limit_and_hostile_nesting_agree_with_the_reference() {
    let limit = reference::MAX_DEPTH;
    assert!(assert_agrees(&nested(limit)).is_ok());
    assert_eq!(
        assert_agrees(&nested(limit + 1)),
        Err(XmlError::TooDeep(3 * limit))
    );
    assert!(matches!(
        assert_agrees(&"<a>".repeat(200_000)),
        Err(XmlError::TooDeep(_))
    ));
    assert!(matches!(
        assert_agrees(&nested(200_000)),
        Err(XmlError::TooDeep(_))
    ));
    assert_eq!(assert_agrees(&"<a>".repeat(limit)), Err(XmlError::UnexpectedEof));
    // Siblings do not add up: the bound is on depth, not on count.
    let wide = format!("<r>{}</r>", nested(limit - 1).repeat(100));
    assert!(assert_agrees(&wide).is_ok());
}

/// One generated node: level, name, attributes, text.
type NodeSpec = (u8, String, Vec<(String, String)>, String);

/// Builds a tree from a flat pre-order list: each entry hangs under the most
/// recent entry one level up (levels clamp, so any list is a tree).
fn tree_of(nodes: &[NodeSpec]) -> reference::Element {
    fn attach(path: &mut Vec<reference::Element>) {
        let child = path.pop().expect("only called with a child on the path");
        path.last_mut()
            .expect("the root stays on the path")
            .children
            .push(child);
    }
    let mut path = vec![reference::Element {
        name: "root".to_owned(),
        ..Default::default()
    }];
    for (level, name, attributes, text) in nodes {
        let level = 1 + (*level as usize % 4).min(path.len() - 1);
        while path.len() > level {
            attach(&mut path);
        }
        path.push(reference::Element {
            name: name.clone(),
            attributes: attributes.clone(),
            text: text.clone(),
            children: Vec::new(),
        });
    }
    while path.len() > 1 {
        attach(&mut path);
    }
    path.pop().expect("the root")
}

proptest! {
    /// Arbitrary bytes, read lossily as the wire reads a text body, bare and
    /// inside an element so that the content loop is reached.
    #[test]
    fn arbitrary_bytes_never_panic_and_agree(noise in proptest::collection::vec(any::<u8>(), 0..192)) {
        let noise = String::from_utf8_lossy(&noise);
        let _ = assert_agrees(&noise);
        let _ = assert_agrees(&format!("<A k=\"{noise}\">{noise}</A>"));
    }

    /// Strings over the alphabet the grammar cares about reach far more
    /// parser states than uniform bytes do.
    #[test]
    fn markup_soup_never_panics_and_agrees(soup in "[<>/=\"'&;? \na-c:é]{0,48}") {
        let _ = assert_agrees(&soup);
        let _ = assert_agrees(&format!("<a>{soup}</a>"));
        let _ = assert_agrees(&format!("<a b=\"{soup}\"/>"));
    }

    /// Generated trees with `& < > " '` (and non-ASCII) in text and attribute
    /// values: the live writer emits the oracle writer's bytes, both parsers
    /// agree on them, and what comes back is what went in.
    #[test]
    fn generated_trees_write_and_parse_as_the_reference_does(
        nodes in proptest::collection::vec(
            (
                any::<u8>(),
                "[A-Za-z][A-Za-z0-9_:.-]{0,8}",
                proptest::collection::vec(("[A-Za-z][A-Za-z0-9]{0,5}", "[&<>\"' a-zé€;]{0,12}"), 0..3),
                "[&<>\"'a-z山;]{0,16}",
            ),
            0..12,
        ),
    ) {
        let tree = tree_of(&nodes);
        let mut expected = String::new();
        reference::write(&tree, &mut expected);
        let written = live(&tree).to_xml();
        prop_assert_eq!(&written, &expected);
        prop_assert_eq!(assert_agrees(&written), Ok(tree));
    }

    /// One to three stacked truncations / bit flips of the three-level
    /// response, followed through every level that still parses.
    #[test]
    fn stacked_mutations_never_panic_and_agree(
        mutations in proptest::collection::vec((any::<bool>(), any::<u64>()), 1..4),
    ) {
        let mut input = three_level_response().to_xml_string().into_bytes();
        for &(truncate, pick) in &mutations {
            if truncate {
                input.truncate(pick as usize % (input.len() + 1));
            } else if !input.is_empty() {
                let bit = pick as usize % (input.len() * 8);
                input[bit / 8] ^= 1 << (bit % 8);
            }
        }
        assert_agrees_through_all_levels(&String::from_utf8_lossy(&input));
    }

    /// `escape` and `unescape` against the oracle's, on any string.
    #[test]
    fn escaping_agrees_with_the_reference(s in "\\PC*", soup in "[&;a-z]{0,24}") {
        prop_assert_eq!(jxta::xml::escape(&s).to_string(), reference::escape(&s));
        let escaped = reference::escape(&s);
        prop_assert_eq!(
            jxta::xml::unescape(&escaped).map(|text| text.to_string()),
            reference::unescape(&escaped)
        );
        prop_assert_eq!(
            jxta::xml::unescape(&soup).map(|text| text.to_string()),
            reference::unescape(&soup)
        );
    }
}

//! Pins the event codec's bytes and verdicts across commits.
//!
//! Every event type in the repository is declared here by shape (types that
//! share a shape, such as the several two-field `SkiRental`s, appear once),
//! plus three test-only shapes that carry the scalar extremes. Each *encode*
//! row is the exact text `to_vec` writes; each *decode* row is what
//! `from_slice` makes of a hand-written document: `Ok(<Debug>)`, or `Err`
//! (the verdict only, so error messages may change). The whole text is
//! compared byte for byte with `golden/codec.txt`. A change that means to
//! move a row re-records the file (paste the printed text) and lists the
//! rows it moved.

use std::fmt::Write as _;
use tps::codec::{from_slice, to_vec};
use tps::TpsEvent;

const GOLDEN: &str = include_str!("golden/codec.txt");

/// Declares one event shape: a plain struct and its `TpsEvent` impl.
macro_rules! event {
    ($name:ident { $($field:ident: $ty:ty),+ $(,)? }) => {
        #[derive(Debug, Clone, PartialEq)]
        struct $name {
            $($field: $ty),+
        }
        impl TpsEvent for $name {
            const TYPE_NAME: &'static str = stringify!($name);
            tps::event_fields!($($field),+);
        }
    };
}

// ski-rental's types; `SkiRental` is also quickstart's and `tps::host`'s, and
// `RentalOffer` is also the two-field `SkiRental` of `tps::engine` and
// `tps::interface` and the `Offer` of `tests/integration.rs`.
event!(RentalOffer {
    shop: String,
    price: f32
});
event!(SkiRental {
    shop: String,
    price: f32,
    brand: String,
    number_of_days: f32
});
event!(SnowboardRental {
    shop: String,
    price: f32,
    board_length_cm: u16
});
// `tests/integration.rs`.
event!(LastMinuteOffer {
    shop: String,
    price: f32,
    hours_left: u8
});
// The examples.
event!(ChatMessage {
    from: String,
    body: String
});
event!(NewsItem {
    headline: String,
    importance: u8
});
event!(SportsNews {
    headline: String,
    importance: u8,
    discipline: String
});
event!(SkiRaceResult {
    headline: String,
    importance: u8,
    discipline: String,
    winner: String
});
// `tps/tests/mailbox_wake.rs` (`Ping`, and `Pong` of the same shape) and the
// `Offer` of `tps::session`.
event!(Ping { seq: u32 });
event!(PriceOnly { price: f32 });
// `tps::event`'s Figure 7 hierarchy.
event!(A { common: u32 });
event!(B {
    common: u32,
    extra_b: String
});
event!(C {
    common: u32,
    extra_c: bool
});
event!(D {
    common: u32,
    extra_b: String,
    extra_c: bool,
    extra_d: f64
});
// `tps/tests/proptests.rs`.
event!(Offer { shop: String, price: f64, days: u32, tags: Vec<String>, note: Option<String> });
event!(Super {
    shop: String,
    price: f64
});
// Test-only shapes for the scalar extremes.
event!(Ints {
    a: i8,
    b: i16,
    c: i32,
    d: i64,
    e: u8,
    f: u16,
    g: u32,
    h: u64
});
event!(Floats {
    single: f32,
    double: f64
});
event!(Text { s: String });

/// Appends `encode <label> = <bytes>` (or `= Err`), and checks that what was
/// written reads back as the value it came from.
macro_rules! encode {
    ($out:expr, $label:expr, $value:expr) => {{
        let value = $value;
        match to_vec(&value) {
            Ok(bytes) => {
                let back = from_slice(&bytes);
                assert_eq!(back.as_ref().ok(), Some(&value), "{} does not round trip", $label);
                let text = String::from_utf8(bytes).expect("the codec writes UTF-8");
                writeln!($out, "encode {} = {text}", $label).unwrap();
            }
            Err(_) => writeln!($out, "encode {} = Err", $label).unwrap(),
        }
    }};
}

/// Appends `decode <label> = Ok(<Debug>)` or `= Err`.
macro_rules! decode {
    ($out:expr, $ty:ty, $label:expr, $input:expr) => {{
        let owned = $input;
        let input: &[u8] = owned.as_ref();
        let verdict = match from_slice::<$ty>(input) {
            Ok(event) => format!("Ok({event:?})"),
            Err(_) => "Err".to_owned(),
        };
        writeln!($out, "decode {} = {verdict}", $label).unwrap();
    }};
}

fn ski() -> SkiRental {
    SkiRental {
        shop: "XTremShop".into(),
        price: 14.0,
        brand: "Salomon".into(),
        number_of_days: 100.0,
    }
}

fn offer(tags: &[&str], note: Option<&str>) -> Offer {
    Offer {
        shop: "XTremShop".into(),
        price: 14.5,
        days: 7,
        tags: tags.iter().map(|t| (*t).to_owned()).collect(),
        note: note.map(str::to_owned),
    }
}

fn text(s: impl Into<String>) -> Text {
    Text { s: s.into() }
}

fn floats(single: f32, double: f64) -> Floats {
    Floats { single, double }
}

fn encode_rows(out: &mut String) {
    // Every event type.
    encode!(
        out,
        "RentalOffer",
        RentalOffer {
            shop: "XTremShop".into(),
            price: 14.1
        }
    );
    encode!(out, "SkiRental", ski());
    let board = SnowboardRental {
        shop: "Board & Co".into(),
        price: 21.5,
        board_length_cm: 158,
    };
    encode!(out, "SnowboardRental", board);
    let last_minute = LastMinuteOffer {
        shop: "Alpina".into(),
        price: 9.99,
        hours_left: 255,
    };
    encode!(out, "LastMinuteOffer", last_minute);
    let chat = ChatMessage {
        from: "alice".into(),
        body: "hi \"bob\"\n".into(),
    };
    encode!(out, "ChatMessage", chat);
    encode!(
        out,
        "NewsItem",
        NewsItem {
            headline: "Snow!".into(),
            importance: 3
        }
    );
    let sports = SportsNews {
        headline: "Final".into(),
        importance: 0,
        discipline: "slalom".into(),
    };
    encode!(out, "SportsNews", sports);
    let race = SkiRaceResult {
        headline: "Wengen".into(),
        importance: 9,
        discipline: "downhill".into(),
        winner: "Odermatt".into(),
    };
    encode!(out, "SkiRaceResult", race);
    encode!(out, "Ping", Ping { seq: 42 });
    encode!(out, "PriceOnly", PriceOnly { price: 2.0 });
    encode!(out, "A", A { common: 1 });
    encode!(
        out,
        "B",
        B {
            common: 2,
            extra_b: "b".into()
        }
    );
    encode!(
        out,
        "C",
        C {
            common: 3,
            extra_c: true
        }
    );
    encode!(
        out,
        "C/false",
        C {
            common: 3,
            extra_c: false
        }
    );
    let d = D {
        common: 4,
        extra_b: "d".into(),
        extra_c: false,
        extra_d: -2.5,
    };
    encode!(out, "D", d);
    encode!(
        out,
        "Offer/tags+some-note",
        offer(&["p2p", "tps"], Some("half price"))
    );
    encode!(out, "Offer/tags+none-note", offer(&["p2p"], None));
    encode!(out, "Offer/no-tags+some-note", offer(&[], Some("")));
    encode!(out, "Offer/no-tags+none-note", offer(&[], None));
    encode!(
        out,
        "Super",
        Super {
            shop: "s".into(),
            price: 0.5
        }
    );

    // Integer extremes.
    let min = Ints {
        a: i8::MIN,
        b: i16::MIN,
        c: i32::MIN,
        d: i64::MIN,
        e: u8::MIN,
        f: u16::MIN,
        g: u32::MIN,
        h: u64::MIN,
    };
    encode!(out, "Ints/min", min);
    let max = Ints {
        a: i8::MAX,
        b: i16::MAX,
        c: i32::MAX,
        d: i64::MAX,
        e: u8::MAX,
        f: u16::MAX,
        g: u32::MAX,
        h: u64::MAX,
    };
    encode!(out, "Ints/max", max);

    // Floats: an `f32` is widened to `f64` before it is written.
    encode!(out, "Floats/0.1", floats(0.1, 0.1));
    encode!(out, "Floats/14.1", floats(14.1, 14.1));
    encode!(out, "Floats/1e-7", floats(1e-7, 1e-7));
    encode!(out, "Floats/3.4e38", floats(3.4e38, 3.4e38));
    encode!(out, "Floats/-0.0", floats(-0.0, -0.0));
    encode!(out, "Floats/integral", floats(100.0, -3.0));
    encode!(out, "Floats/f64-1e300", floats(0.0, 1e300));
    encode!(out, "Floats/f64-5e-324", floats(0.0, 5e-324));
    encode!(
        out,
        "Floats/f32-min-positive",
        floats(f32::MIN_POSITIVE, f64::MIN_POSITIVE)
    );
    encode!(out, "Floats/f32-max", floats(f32::MAX, f64::MAX));
    encode!(out, "Floats/nan-f32", floats(f32::NAN, 0.0));
    encode!(out, "Floats/inf-f64", floats(0.0, f64::INFINITY));
    encode!(out, "Floats/-inf-f32", floats(f32::NEG_INFINITY, 0.0));

    // Strings.
    encode!(out, "Text/empty", text(""));
    let controls: String = (0u8..0x20).map(char::from).collect();
    encode!(out, "Text/every-control-character", text(controls));
    encode!(out, "Text/del", text("\u{7f}"));
    encode!(
        out,
        "Text/quotes-and-backslashes",
        text(r#""\"\\" \ "" \\n / \/"#)
    );
    encode!(
        out,
        "Text/non-ascii",
        text("höhenmeter ⛷ 山 😀 \u{2028} \u{feff}")
    );
    encode!(out, "Text/mixed", text("line\nbreak\t\"quoted\" \\slash\u{1}\r"));
}

/// `{"extra":<depth - 1 levels>,...}`: an unknown field whose value takes
/// the document to `depth` levels of nesting.
fn deep_unknown(open: &str, close: &str, leaf: &str, depth: usize) -> String {
    let levels = depth - 1;
    format!(
        r#"{{"shop":"X","extra":{}{leaf}{},"price":1.0}}"#,
        open.repeat(levels),
        close.repeat(levels)
    )
}

fn decode_rows(out: &mut String) {
    let paper = r#"{"shop":"XTremShop","price":14.0,"brand":"Salomon","number_of_days":100.0}"#;
    decode!(out, SkiRental, "SkiRental/paper", paper);
    decode!(out, RentalOffer, "RentalOffer/projected-from-SkiRental", paper);
    decode!(
        out,
        SnowboardRental,
        "SnowboardRental/from-SkiRental-is-missing-a-field",
        paper
    );

    // Key order and whitespace.
    let reordered = " {\n\t\"number_of_days\" : 100 ,\r\n \"brand\":\"Salomon\",\"price\" :14.0 , \"shop\":\"XTremShop\"}\n ";
    decode!(
        out,
        SkiRental,
        "SkiRental/reordered-keys-and-whitespace",
        reordered
    );
    decode!(out, RentalOffer, "RentalOffer/empty-object", "{}");
    decode!(
        out,
        RentalOffer,
        "RentalOffer/escaped-key",
        r#"{"sh\u006fp":"X","price":1}"#
    );

    // Unknown fields are skipped, whatever they hold.
    let unknown = [
        ("scalar", r#"{"shop":"X","extra":1,"price":1.5}"#),
        ("negative-float", r#"{"shop":"X","extra":-1.5e-3,"price":1.5}"#),
        ("string", r#"{"shop":"X","extra":"a\"b\\c\u0041","price":1.5}"#),
        (
            "literals",
            r#"{"a":true,"b":false,"c":null,"shop":"X","price":1.5}"#,
        ),
        (
            "array",
            r#"{"shop":"X","extra":[1,"a",null,true,[],{}],"price":1.5}"#,
        ),
        (
            "object",
            r#"{"shop":"X","extra":{"a":{"b":[1,{"c":"d"}]},"e":{}},"price":1.5}"#,
        ),
        ("bad-number", r#"{"shop":"X","extra":1.2.3,"price":1.5}"#),
        ("bad-literal", r#"{"shop":"X","extra":nul,"price":1.5}"#),
        ("bad-escape", r#"{"shop":"X","extra":"\q","price":1.5}"#),
        ("unterminated-array", r#"{"shop":"X","extra":[1,2"#),
        ("array-trailing-comma", r#"{"shop":"X","extra":[1,],"price":1.5}"#),
        (
            "object-trailing-comma",
            r#"{"shop":"X","extra":{"a":1,},"price":1.5}"#,
        ),
        (
            "object-non-string-key",
            r#"{"shop":"X","extra":{1:2},"price":1.5}"#,
        ),
    ];
    for (label, doc) in unknown {
        decode!(out, RentalOffer, format!("RentalOffer/unknown-{label}"), doc);
    }
    for depth in [63, 64, 65] {
        let arrays = deep_unknown("[", "]", "", depth);
        decode!(
            out,
            RentalOffer,
            format!("RentalOffer/unknown-arrays-depth-{depth}"),
            arrays
        );
        let objects = deep_unknown("{\"k\":", "}", "0", depth);
        decode!(
            out,
            RentalOffer,
            format!("RentalOffer/unknown-objects-depth-{depth}"),
            objects
        );
    }

    // Missing fields (an `Option` included) and `null`.
    let ski_no_brand = r#"{"shop":"XTremShop","price":14.0,"number_of_days":100.0}"#;
    decode!(out, SkiRental, "SkiRental/missing-brand", ski_no_brand);
    let no_note = r#"{"shop":"s","price":1.0,"days":1,"tags":[]}"#;
    decode!(out, Offer, "Offer/missing-option", no_note);
    let null_note = r#"{"shop":"s","price":1.0,"days":1,"tags":[],"note":null}"#;
    decode!(out, Offer, "Offer/null-into-option", null_note);
    let some_note = r#"{"shop":"s","price":1.0,"days":1,"tags":["a","b"],"note":"n"}"#;
    decode!(out, Offer, "Offer/some-note", some_note);
    decode!(
        out,
        RentalOffer,
        "RentalOffer/null-into-string",
        r#"{"shop":null,"price":1.0}"#
    );
    decode!(
        out,
        RentalOffer,
        "RentalOffer/null-into-f32",
        r#"{"shop":"X","price":null}"#
    );
    let tags = [
        ("tags-string", r#""a""#),
        ("tags-of-numbers", "[1]"),
        ("tags-null", "null"),
        ("tags-object", "{}"),
        ("tags-nested", r#"[["a"]]"#),
        ("tags-trailing-comma", r#"["a",]"#),
    ];
    for (label, value) in tags {
        let doc = format!(r#"{{"shop":"s","price":1.0,"days":1,"tags":{value},"note":null}}"#);
        decode!(out, Offer, format!("Offer/{label}"), doc);
    }
    decode!(
        out,
        Offer,
        "Offer/note-number",
        r#"{"shop":"s","price":1.0,"days":1,"tags":[],"note":5}"#
    );

    // Repeated keys: the last value wins.
    decode!(
        out,
        RentalOffer,
        "RentalOffer/repeated-key",
        r#"{"shop":"A","price":1.0,"shop":"B"}"#
    );
    let later_wrong = r#"{"shop":"A","price":1.0,"shop":7}"#;
    decode!(
        out,
        RentalOffer,
        "RentalOffer/repeated-key-later-wrong-type",
        later_wrong
    );
    let earlier_wrong = r#"{"shop":7,"price":1.0,"shop":"B"}"#;
    decode!(
        out,
        RentalOffer,
        "RentalOffer/repeated-key-earlier-wrong-type",
        earlier_wrong
    );
    let null_then_some = r#"{"shop":"s","price":1.0,"days":1,"tags":[],"note":null,"note":"x"}"#;
    decode!(out, Offer, "Offer/repeated-option-null-then-some", null_then_some);

    // Numbers.
    let price = |value: &str| format!(r#"{{"shop":"X","price":{value}}}"#);
    let prices = [
        "14",
        "-0",
        "-0.0",
        ".5",
        "5.",
        "1E2",
        "1e-2",
        "+5",
        "1e400",
        "9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-",
        "1.2.3",
        "1e",
        "0x10",
        "\"14\"",
        "true",
    ];
    for value in prices {
        decode!(
            out,
            RentalOffer,
            format!("RentalOffer/price-{value}"),
            price(value)
        );
    }
    let importance = |value: &str| format!(r#"{{"headline":"h","importance":{value}}}"#);
    for value in ["0", "255", "1.5", "256", "-1", "+5", "1e2", "5.0", "007", "\"5\""] {
        decode!(out, NewsItem, format!("NewsItem/u8-{value}"), importance(value));
    }
    for value in ["4294967295", "4294967296", "1e2", "-0"] {
        let doc = format!(r#"{{"seq":{value}}}"#);
        decode!(out, Ping, format!("Ping/u32-{value}"), doc);
    }
    let ints = |d: &str, h: &str| format!(r#"{{"a":0,"b":0,"c":0,"d":{d},"e":0,"f":0,"g":0,"h":{h}}}"#);
    let int_cases = [
        ("i64-min-u64-max", "-9223372036854775808", "18446744073709551615"),
        ("i64-below-min", "-9223372036854775809", "0"),
        ("i64-from-u64-range", "9223372036854775808", "0"),
        ("u64-above-max", "0", "18446744073709551616"),
        ("u64-negative", "0", "-1"),
    ];
    for (label, d, h) in int_cases {
        decode!(out, Ints, format!("Ints/{label}"), ints(d, h));
    }
    let double = |value: &str| format!(r#"{{"single":0,"double":{value}}}"#);
    for value in [
        "-7",
        "18446744073709551615",
        "18446744073709551616",
        "5e-324",
        "1e300",
    ] {
        decode!(out, Floats, format!("Floats/f64-{value}"), double(value));
    }
    let flag = |value: &str| format!(r#"{{"common":1,"extra_c":{value}}}"#);
    for value in ["true", "false", "1", "\"true\"", "null", "tru", "truex"] {
        decode!(out, C, format!("C/bool-{value}"), flag(value));
    }

    // Strings and escapes.
    let text_doc = |value: &str| format!(r#"{{"s":{value}}}"#);
    let strings = [
        ("plain", r#""abc""#),
        ("empty", r#""""#),
        ("escapes", r#""\"\\\/\n\t\r""#),
        ("unicode-escape", r#""\u0041\u00e9\u5c71""#),
        ("unicode-escape-upper-hex", r#""\u00C9""#),
        ("lone-high-surrogate", r#""\ud800""#),
        ("surrogate-pair", r#""\ud83d\ude00""#),
        ("unicode-escape-plus-sign", r#""\u+041""#),
        ("unicode-escape-minus-sign", r#""\u-041""#),
        ("unicode-escape-short", r#""\u004""#),
        ("unicode-escape-non-hex", r#""\uZZZZ""#),
        ("unicode-escape-at-end", r#""\u00"#),
        ("backspace-escape", r#""\b""#),
        ("formfeed-escape", r#""\f""#),
        ("unknown-escape", r#""\x""#),
        ("escape-at-end", r#""\"#),
        ("raw-control-characters", "\"a\u{1}\tb\nc\""),
        ("raw-non-ascii", "\"höhenmeter ⛷ 山\""),
        ("unterminated", r#""abc"#),
        ("number", "5"),
        ("array", r#"["a"]"#),
    ];
    for (label, value) in strings {
        decode!(out, Text, format!("Text/{label}"), text_doc(value));
    }

    // Malformed documents.
    for cut in [0, 1, 8, 9, 20, 36, 73] {
        let label = format!("SkiRental/truncated-to-{cut}");
        decode!(out, SkiRental, label, &paper.as_bytes()[..cut]);
    }
    let malformed: [(&str, &[u8]); 19] = [
        ("trailing-bytes", br#"{"shop":"X","price":1.0}x"#),
        ("two-documents", br#"{"shop":"X","price":1.0}{}"#),
        (
            "trailing-whitespace-then-bytes",
            b"{\"shop\":\"X\",\"price\":1.0} \n,",
        ),
        ("whitespace-only", b" \n\t "),
        ("array", b"[]"),
        ("string", br#""shop""#),
        ("null", b"null"),
        ("number", b"1"),
        ("missing-colon", br#"{"shop" "X","price":1.0}"#),
        ("missing-comma", br#"{"shop":"X" "price":1.0}"#),
        ("trailing-comma", br#"{"shop":"X","price":1.0,}"#),
        ("unquoted-key", br#"{shop:"X","price":1.0}"#),
        ("single-quotes", br#"{'shop':'X','price':1.0}"#),
        ("missing-value", br#"{"shop":,"price":1.0}"#),
        ("invalid-utf8-in-value", b"{\"shop\":\"\xff\",\"price\":1.0}"),
        (
            "invalid-utf8-in-unknown-field",
            b"{\"shop\":\"X\",\"x\":\"\xc3\",\"price\":1.0}",
        ),
        (
            "invalid-utf8-outside-strings",
            b"{\"shop\":\"X\",\"price\":1.0}\xfe",
        ),
        ("overlong-utf8", b"{\"shop\":\"\xc0\xaf\",\"price\":1.0}"),
        ("nul-byte-outside-strings", b"{\"shop\":\"X\",\0\"price\":1.0}"),
    ];
    for (label, doc) in malformed {
        decode!(out, RentalOffer, format!("RentalOffer/{label}"), doc);
    }
}

#[test]
fn codec_bytes_and_verdicts_match_the_recorded_corpus() {
    let mut actual = String::new();
    encode_rows(&mut actual);
    decode_rows(&mut actual);
    assert!(
        actual == GOLDEN,
        "the event codec drifted from crates/tps/tests/golden/codec.txt.\n\
         --- committed ---\n{GOLDEN}--- this build (paste to re-record) ---\n{actual}"
    );
}

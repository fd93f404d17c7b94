//! Property-based tests of the TPS codec and the type registry, and the
//! event decoder against hostile bytes.

use proptest::prelude::*;
use tps::codec::{self, Field};
use tps::{TpsEvent, TypeRegistry};

#[derive(Debug, Clone, PartialEq)]
struct Offer {
    shop: String,
    price: f64,
    days: u32,
    tags: Vec<String>,
    note: Option<String>,
}
impl TpsEvent for Offer {
    const TYPE_NAME: &'static str = "Offer";
    tps::event_fields!(shop, price, days, tags, note);
}

#[derive(Debug, Clone, PartialEq)]
struct Super {
    shop: String,
    price: f64,
}
impl TpsEvent for Super {
    const TYPE_NAME: &'static str = "Super";
    tps::event_fields!(shop, price);
}

/// A one-field event, for the scalar round trips.
#[derive(Debug, Clone, PartialEq)]
struct One<T> {
    value: T,
}
impl<T: Field + Clone + 'static> TpsEvent for One<T> {
    const TYPE_NAME: &'static str = "One";
    tps::event_fields!(value);
}

#[derive(Debug, Clone, PartialEq)]
struct SkiRental {
    shop: String,
    price: f32,
    brand: String,
    number_of_days: f32,
}
impl TpsEvent for SkiRental {
    const TYPE_NAME: &'static str = "SkiRental";
    tps::event_fields!(shop, price, brand, number_of_days);
}

#[derive(Debug, Clone, PartialEq)]
struct RentalOffer {
    shop: String,
    price: f32,
}
impl TpsEvent for RentalOffer {
    const TYPE_NAME: &'static str = "RentalOffer";
    tps::event_fields!(shop, price);
}

/// Decodes `input` as every event type these tests know; a panic fails the
/// test, either verdict passes.
fn decode_as_every_type(input: &[u8]) {
    let _ = codec::from_slice::<SkiRental>(input);
    let _ = codec::from_slice::<RentalOffer>(input);
    let _ = codec::from_slice::<Offer>(input);
}

/// Fragments the hostile documents are built from: structure, the known
/// keys, every value kind, and escapes good and bad.
const TOKENS: [&str; 26] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "\"",
    "\\",
    r#""shop""#,
    r#""price""#,
    r#""tags""#,
    r#""note""#,
    r#""x""#,
    "1",
    "-1.5e3",
    "18446744073709551616",
    "null",
    "true",
    "fals",
    r#""\u00e9""#,
    r#""\u+041""#,
    r#""\ud800""#,
    r"\u0",
    "u",
    "\u{e9}",
];

/// Every truncation and every single-bit flip of an encoded `SkiRental` and
/// of an encoded `Offer`, decoded as each type: exhaustive.
#[test]
fn every_truncation_and_bit_flip_of_an_event_decodes_without_panicking() {
    let ski = SkiRental {
        shop: "XTremShop".into(),
        price: 14.0,
        brand: "Salomon".into(),
        number_of_days: 100.0,
    };
    let offer = Offer {
        shop: "Alpina \"Sport\"".into(),
        price: -2.5,
        days: 7,
        tags: vec!["p2p".into(), "h\u{f6}he".into()],
        // Written as `\n` and `\u0001`: truncations cut inside both escapes.
        note: Some("half\nprice\u{1}".into()),
    };
    for encoded in [codec::to_vec(&ski).unwrap(), codec::to_vec(&offer).unwrap()] {
        for cut in 0..encoded.len() {
            // A strict prefix of a document is never a document.
            assert!(codec::from_slice::<RentalOffer>(&encoded[..cut]).is_err());
            decode_as_every_type(&encoded[..cut]);
        }
        for bit in 0..encoded.len() * 8 {
            let mut flipped = encoded.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            decode_as_every_type(&flipped);
        }
    }
}

proptest! {
    /// Any offer survives a marshal/unmarshal round trip unchanged.
    #[test]
    fn codec_roundtrips_arbitrary_offers(
        shop in ".{0,40}",
        price in -1.0e6f64..1.0e6,
        days in 0u32..10_000,
        tags in proptest::collection::vec(".{0,12}", 0..6),
        note in proptest::option::of(".{0,20}"),
    ) {
        let offer = Offer { shop, price, days, tags, note };
        let bytes = codec::to_vec(&offer).unwrap();
        let back: Offer = codec::from_slice(&bytes).unwrap();
        prop_assert_eq!(back, offer);
    }

    /// Strings with arbitrary unicode and control characters round trip.
    #[test]
    fn codec_roundtrips_arbitrary_strings(s in "\\PC*") {
        let bytes = codec::to_vec(&One { value: s.clone() }).unwrap();
        let back: One<String> = codec::from_slice(&bytes).unwrap();
        prop_assert_eq!(back.value, s);
    }

    /// Scalars round trip across the full integer range.
    #[test]
    fn codec_roundtrips_integers(value in proptest::num::i64::ANY) {
        let bytes = codec::to_vec(&One { value }).unwrap();
        let back: One<i64> = codec::from_slice(&bytes).unwrap();
        prop_assert_eq!(back.value, value);
    }

    /// A subtype payload always projects onto a supertype sharing a subset of
    /// its fields (structural upcast never fails).
    #[test]
    fn structural_upcast_never_fails(shop in ".{0,20}", price in 0.0f64..1000.0, days in 0u32..100) {
        let sub = Offer { shop: shop.clone(), price, days, tags: vec![], note: None };
        let bytes = codec::to_vec(&sub).unwrap();
        let projected: Super = codec::from_slice(&bytes).unwrap();
        prop_assert_eq!(projected.shop, shop);
        prop_assert!((projected.price - price).abs() < 1e-9);
    }

    /// Arbitrary bytes, and documents stitched together from JSON fragments,
    /// never panic the event decoder.
    #[test]
    fn hostile_bytes_never_panic_the_event_decoder(
        noise in proptest::collection::vec(any::<u8>(), 0..192),
        fragments in proptest::collection::vec(0usize..TOKENS.len(), 0..48),
    ) {
        decode_as_every_type(&noise);
        let stitched: String = fragments.iter().map(|&token| TOKENS[token]).collect();
        decode_as_every_type(stitched.as_bytes());
    }

    /// The subtype relation is reflexive and respects registered edges, and
    /// `ancestors_of` always contains the type itself and all its parents.
    #[test]
    fn registry_subtyping_invariants(
        edges in proptest::collection::vec((0usize..8, 0usize..8), 0..16)
    ) {
        let name = |i: usize| format!("T{i}");
        let mut registry = TypeRegistry::new();
        for (child, parent) in &edges {
            registry.register_raw(&name(*child), vec![name(*parent)]);
        }
        for i in 0..8 {
            prop_assert!(registry.is_subtype_of(&name(i), &name(i)));
            let ancestors = registry.ancestors_of(&name(i));
            prop_assert!(ancestors.contains(&name(i)));
            for ancestor in &ancestors {
                prop_assert!(registry.is_subtype_of(&name(i), ancestor));
            }
        }
        for (child, parent) in &edges {
            prop_assert!(registry.is_subtype_of(&name(*child), &name(*parent)));
        }
    }
}

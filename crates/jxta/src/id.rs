//! JXTA identifiers.
//!
//! Every JXTA resource this stack names — peer, peer group, pipe — carries a
//! UUID-flavoured identifier rendered as a `urn:jxta:` URN. Identity is
//! deliberately divorced from network addresses: a peer keeps its id across
//! reboots, DHCP changes and network moves, and the Pipe Binding Protocol
//! re-associates pipes with the peer's *current* addresses.

use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// A 128-bit universally unique identifier.
///
/// Generation is driven by the caller-provided RNG so that simulations remain
/// deterministic for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Uuid(pub u128);

impl Uuid {
    /// Generates a fresh UUID from `rng`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Uuid(rng.gen())
    }

    /// Derives a UUID deterministically from a string seed (FNV-1a folded to
    /// 128 bits). Used for well-known ids such as the World peer group.
    pub fn derive(seed: &str) -> Self {
        let mut hash_lo: u64 = 0xcbf2_9ce4_8422_2325;
        let mut hash_hi: u64 = 0x6c62_272e_07bb_0142;
        for byte in seed.bytes() {
            hash_lo ^= byte as u64;
            hash_lo = hash_lo.wrapping_mul(0x0000_0100_0000_01B3);
            hash_hi ^= (byte as u64).rotate_left(17);
            hash_hi = hash_hi.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Uuid(((hash_hi as u128) << 64) | hash_lo as u128)
    }

    /// Renders the UUID as 32 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses 32 hex digits.
    pub fn from_hex(s: &str) -> Result<Self, ParseIdError> {
        if s.len() != 32 {
            return Err(ParseIdError(s.to_owned()));
        }
        u128::from_str_radix(s, 16)
            .map(Uuid)
            .map_err(|_| ParseIdError(s.to_owned()))
    }
}

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Error returned when an id string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIdError(String);

impl fmt::Display for ParseIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid jxta id: {}", self.0)
    }
}

impl std::error::Error for ParseIdError {}

macro_rules! jxta_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub Uuid);

        impl $name {
            /// Generates a fresh id from `rng`.
            pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
                $name(Uuid::generate(rng))
            }

            /// Derives a well-known id deterministically from a seed string.
            pub fn derive(seed: &str) -> Self {
                $name(Uuid::derive(concat!($tag, ":").to_owned().as_str()))
                    .mixed_with(seed)
            }

            fn mixed_with(self, seed: &str) -> Self {
                let mixed = Uuid::derive(&format!("{}:{}", self.0.to_hex(), seed));
                $name(mixed)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "urn:jxta:{}-{}", $tag, self.0.to_hex())
            }
        }

        impl FromStr for $name {
            type Err = ParseIdError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                let err = || ParseIdError(s.to_owned());
                let rest = s.strip_prefix("urn:jxta:").ok_or_else(err)?;
                let (tag, hex) = rest.split_once('-').ok_or_else(err)?;
                if tag != $tag {
                    return Err(err());
                }
                Uuid::from_hex(hex).map($name).map_err(|_| err())
            }
        }
    };
}

jxta_id! {
    /// Identifies a peer (a device running JXTA).
    PeerId, "peer"
}
jxta_id! {
    /// Identifies a peer group.
    PeerGroupId, "group"
}
jxta_id! {
    /// Identifies a pipe (a virtual communication channel).
    PipeId, "pipe"
}

impl PeerGroupId {
    /// The well-known "World" peer group that every peer implicitly belongs
    /// to; discovery of other groups starts here.
    pub fn world() -> Self {
        PeerGroupId::derive("jxta-world-group")
    }

    /// The well-known default "Net" peer group.
    pub fn net() -> Self {
        PeerGroupId::derive("jxta-net-group")
    }
}

/// A query identifier used by the resolver to correlate responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueryId(pub u64);

impl QueryId {
    /// Returns the next query id after this one.
    pub fn next(self) -> QueryId {
        QueryId(self.0.wrapping_add(1))
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uuid_hex_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let id = Uuid::generate(&mut rng);
        assert_eq!(Uuid::from_hex(&id.to_hex()).unwrap(), id);
        assert_eq!(id.to_hex().len(), 32);
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        assert_eq!(Uuid::derive("abc"), Uuid::derive("abc"));
        assert_ne!(Uuid::derive("abc"), Uuid::derive("abd"));
        assert_eq!(PeerGroupId::world(), PeerGroupId::world());
        assert_ne!(PeerGroupId::world(), PeerGroupId::net());
    }

    #[test]
    fn id_display_and_parse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let peer = PeerId::generate(&mut rng);
        let parsed: PeerId = peer.to_string().parse().unwrap();
        assert_eq!(parsed, peer);
        assert!(peer.to_string().starts_with("urn:jxta:peer-"));

        let pipe = PipeId::generate(&mut rng);
        let parsed: PipeId = pipe.to_string().parse().unwrap();
        assert_eq!(parsed, pipe);
    }

    #[test]
    fn parse_rejects_wrong_tag_and_garbage() {
        let mut rng = StdRng::seed_from_u64(3);
        let peer = PeerId::generate(&mut rng);
        assert!(peer.to_string().parse::<PipeId>().is_err());
        assert!("urn:jxta:peer-zz".parse::<PeerId>().is_err());
        assert!("not-a-urn".parse::<PeerId>().is_err());
        assert!("urn:jxta:peernohex".parse::<PeerId>().is_err());
    }

    #[test]
    fn different_kinds_derive_different_ids_for_same_seed() {
        assert_ne!(PeerId::derive("x").0, PipeId::derive("x").0);
    }

    #[test]
    fn query_id_increments() {
        let q = QueryId(41);
        assert_eq!(q.next(), QueryId(42));
        assert_eq!(q.next().to_string(), "query-42");
    }

    #[test]
    fn generated_ids_are_unique_in_practice() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(PeerId::generate(&mut rng)));
        }
    }
}

//! Link characteristics: latency, jitter, bandwidth and loss.
//!
//! The paper's testbed was a 100 Mbit/s FastEthernet LAN running a notoriously
//! slow and unreliable JXTA 1.0 stack; the defaults below are calibrated so
//! that the reproduced figures land in the same order of magnitude (hundreds
//! of milliseconds per message, ~20-30% standard deviation, occasional loss).

use crate::address::TransportKind;
use crate::id::SubnetId;
use crate::time::SimDuration;
use std::collections::HashMap;

/// Propagation and reliability characteristics of one directed subnet pair.
///
/// `Copy` on purpose: the kernel reads a spec per delivery, and a 100k-member
/// fan-out must not allocate per member just to look at link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Fixed one-way propagation delay.
    pub latency: SimDuration,
    /// Maximum extra random delay added on top of `latency` (uniform).
    pub jitter: SimDuration,
    /// Link bandwidth in bytes per second; `0` means "infinite".
    pub bandwidth_bytes_per_sec: u64,
    /// Probability in `[0.0, 1.0]` that a datagram is silently dropped.
    pub loss_probability: f64,
}

impl LinkSpec {
    /// A perfect link: zero latency, infinite bandwidth, no loss.
    ///
    /// Useful in unit tests where timing is irrelevant.
    pub fn perfect() -> Self {
        LinkSpec {
            latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            bandwidth_bytes_per_sec: 0,
            loss_probability: 0.0,
        }
    }

    /// A local-area link comparable to the paper's FastEthernet segment.
    pub fn lan() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(300),
            jitter: SimDuration::from_micros(200),
            bandwidth_bytes_per_sec: 12_500_000, // 100 Mbit/s
            loss_probability: 0.0,
        }
    }

    /// A lossy link, useful for failure-injection tests.
    pub fn lossy(loss_probability: f64) -> Self {
        LinkSpec {
            loss_probability: loss_probability.clamp(0.0, 1.0),
            ..LinkSpec::lan()
        }
    }

    /// Sets the loss probability (clamped to `[0, 1]`), returning the spec.
    pub fn with_loss(mut self, loss_probability: f64) -> Self {
        self.loss_probability = loss_probability.clamp(0.0, 1.0);
        self
    }

    /// Sets the bandwidth in bytes per second (`0` = infinite).
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bandwidth_bytes_per_sec = bytes_per_sec;
        self
    }

    /// The serialisation ("transmission") delay of `size` bytes on this link.
    pub fn transmission_delay(&self, size_bytes: usize) -> SimDuration {
        if self.bandwidth_bytes_per_sec == 0 {
            return SimDuration::ZERO;
        }
        let micros = (size_bytes as u128 * 1_000_000u128) / self.bandwidth_bytes_per_sec as u128;
        SimDuration::from_micros(micros as u64)
    }

    /// The extra penalty a transport adds on this link (HTTP relaying is
    /// slower than raw TCP, multicast/bluetooth are LAN technologies).
    pub fn transport_penalty(&self, transport: TransportKind) -> SimDuration {
        match transport {
            TransportKind::Tcp => SimDuration::ZERO,
            TransportKind::Http => SimDuration::from_millis(4),
            TransportKind::Multicast => SimDuration::from_micros(100),
            TransportKind::Bluetooth => SimDuration::from_millis(10),
        }
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::lan()
    }
}

/// The script form of a link spec, as used by `ChurnDriver` fault scripts:
/// `latency=300us jitter=200us bandwidth=12500000 loss=0.25`. All four
/// fields are always printed; the `FromStr` impl parses the same shape
/// back exactly (`f64`'s shortest-round-trip `Display` keeps the loss
/// probability lossless).
impl std::fmt::Display for LinkSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "latency={} jitter={} bandwidth={} loss={}",
            self.latency.to_compact_string(),
            self.jitter.to_compact_string(),
            self.bandwidth_bytes_per_sec,
            self.loss_probability
        )
    }
}

impl std::str::FromStr for LinkSpec {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = LinkSpec::perfect();
        let mut seen = [false; 4];
        for field in s.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("link field '{field}' is not key=value"))?;
            match key {
                "latency" => {
                    spec.latency = value.parse()?;
                    seen[0] = true;
                }
                "jitter" => {
                    spec.jitter = value.parse()?;
                    seen[1] = true;
                }
                "bandwidth" => {
                    spec.bandwidth_bytes_per_sec =
                        value.parse().map_err(|_| format!("bad bandwidth '{value}'"))?;
                    seen[2] = true;
                }
                "loss" => {
                    spec.loss_probability = value.parse().map_err(|_| format!("bad loss '{value}'"))?;
                    if !(0.0..=1.0).contains(&spec.loss_probability) {
                        return Err(format!("loss '{value}' outside [0, 1]"));
                    }
                    seen[3] = true;
                }
                other => return Err(format!("unknown link field '{other}'")),
            }
        }
        if seen.iter().all(|&s| s) {
            Ok(spec)
        } else {
            Err(format!(
                "link spec '{s}' must name latency, jitter, bandwidth and loss"
            ))
        }
    }
}

/// A table of link specs keyed by directed subnet pair, with a default used
/// for pairs that have no explicit entry.
#[derive(Debug, Clone, Default)]
pub struct LinkTable {
    default: LinkSpec,
    overrides: HashMap<(SubnetId, SubnetId), LinkSpec>,
}

impl LinkTable {
    /// Creates a table whose default link is `default`.
    pub fn new(default: LinkSpec) -> Self {
        LinkTable {
            default,
            overrides: HashMap::new(),
        }
    }

    /// Sets the link spec between two subnets in **both** directions.
    pub fn set_symmetric(&mut self, a: SubnetId, b: SubnetId, spec: LinkSpec) {
        self.overrides.insert((a, b), spec);
        self.overrides.insert((b, a), spec);
    }

    /// The spec that governs traffic from `from` to `to`.
    pub fn spec(&self, from: SubnetId, to: SubnetId) -> &LinkSpec {
        self.overrides.get(&(from, to)).unwrap_or(&self.default)
    }

    /// Replaces the default link spec.
    pub fn set_default(&mut self, spec: LinkSpec) {
        self.default = spec;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A DSL-era wide-area path: every field differs from `lan()`.
    fn wan() -> LinkSpec {
        LinkSpec {
            latency: SimDuration::from_millis(40),
            jitter: SimDuration::from_millis(15),
            bandwidth_bytes_per_sec: 125_000,
            loss_probability: 0.01,
        }
    }

    #[test]
    fn transmission_delay_scales_with_size() {
        let spec = LinkSpec::perfect().with_bandwidth(1_000_000); // 1 MB/s
        assert_eq!(spec.transmission_delay(1_000_000), SimDuration::from_secs(1));
        assert_eq!(spec.transmission_delay(0), SimDuration::ZERO);
        let infinite = LinkSpec::perfect();
        assert_eq!(infinite.transmission_delay(10_000_000), SimDuration::ZERO);
    }

    #[test]
    fn loss_probability_is_clamped() {
        assert_eq!(LinkSpec::lossy(2.0).loss_probability, 1.0);
        assert_eq!(LinkSpec::lossy(-1.0).loss_probability, 0.0);
        assert_eq!(LinkSpec::lan().with_loss(0.5).loss_probability, 0.5);
    }

    #[test]
    fn link_table_uses_overrides_then_default() {
        let mut table = LinkTable::new(LinkSpec::lan());
        let a = SubnetId(0);
        let b = SubnetId(1);
        table.set_symmetric(a, b, wan());
        assert_eq!(table.spec(a, b), &wan());
        assert_eq!(table.spec(b, a), &wan());
        assert_eq!(table.spec(a, a), &LinkSpec::lan());

        table.set_symmetric(a, a, LinkSpec::perfect());
        assert_eq!(table.spec(a, a), &LinkSpec::perfect());
    }

    #[test]
    fn link_spec_script_form_roundtrips() {
        for spec in [
            LinkSpec::perfect(),
            LinkSpec::lan(),
            wan(),
            LinkSpec::lossy(0.25),
            LinkSpec::lan().with_loss(1.0 / 3.0), // not representable in decimal
        ] {
            assert_eq!(spec.to_string().parse::<LinkSpec>().as_ref(), Ok(&spec));
        }
        assert_eq!(
            LinkSpec::lan().with_loss(0.25).to_string(),
            "latency=300us jitter=200us bandwidth=12500000 loss=0.25"
        );
        assert!("latency=1s".parse::<LinkSpec>().is_err(), "all fields required");
        assert!("latency=1s jitter=0s bandwidth=0 loss=7"
            .parse::<LinkSpec>()
            .is_err());
        assert!("latency=1s jitter=0s bandwidth=0 loss=0 x=1"
            .parse::<LinkSpec>()
            .is_err());
    }

    #[test]
    fn http_costs_more_than_tcp() {
        let spec = LinkSpec::lan();
        assert!(spec.transport_penalty(TransportKind::Http) > spec.transport_penalty(TransportKind::Tcp));
    }
}

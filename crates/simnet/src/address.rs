//! Simulated network addresses and transports.
//!
//! JXTA peers are *not* addressed by IP: they carry stable UUIDs and learn
//! each other's volatile transport addresses through advertisements. To
//! exercise that machinery faithfully, the simulator addresses datagrams by
//! [`SimAddress`] (transport + host + port), and the kernel maps addresses to
//! nodes. When a node's address is re-assigned (simulating a DHCP change or a
//! laptop moving networks), packets sent to the stale address are dropped —
//! exactly the failure the Pipe Binding Protocol must recover from.

use std::fmt;
use std::str::FromStr;

/// The physical transport a datagram travels over.
///
/// JXTA peers may expose several network interfaces (TCP, HTTP, IP-multicast,
/// Bluetooth, ...); rendezvous/router peers bridge peers that have no
/// transport in common or that sit behind firewalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransportKind {
    /// Plain TCP: point to point, blocked by firewalls for inbound traffic.
    Tcp,
    /// HTTP: point to point, can traverse firewalls (outbound and polled
    /// inbound), at a latency penalty.
    Http,
    /// IP multicast: reaches every node on the same subnet only.
    Multicast,
    /// Short-range transport (the paper's "any device with an electronic
    /// pulse"); only reaches nodes on the same subnet.
    Bluetooth,
}

impl TransportKind {
    /// All transports known to the simulator, in a stable order.
    pub const ALL: [TransportKind; 4] = [
        TransportKind::Tcp,
        TransportKind::Http,
        TransportKind::Multicast,
        TransportKind::Bluetooth,
    ];

    /// The URI scheme used when rendering addresses (`tcp://...`).
    const fn scheme(self) -> &'static str {
        match self {
            TransportKind::Tcp => "tcp",
            TransportKind::Http => "http",
            TransportKind::Multicast => "mcast",
            TransportKind::Bluetooth => "bt",
        }
    }

    /// Whether the transport is inherently point-to-point (as opposed to a
    /// broadcast domain transport).
    pub const fn is_point_to_point(self) -> bool {
        matches!(self, TransportKind::Tcp | TransportKind::Http)
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.scheme())
    }
}

impl FromStr for TransportKind {
    type Err = ParseTransportError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tcp" => Ok(TransportKind::Tcp),
            "http" => Ok(TransportKind::Http),
            "mcast" => Ok(TransportKind::Multicast),
            "bt" => Ok(TransportKind::Bluetooth),
            _ => Err(ParseTransportError),
        }
    }
}

/// Error returned when parsing an unknown transport scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseTransportError;

impl fmt::Display for ParseTransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("unknown transport scheme")
    }
}

impl std::error::Error for ParseTransportError {}

/// A transport-level address of one network interface of a node.
///
/// `host` plays the role of an IPv4 address (an opaque 32-bit value handed
/// out by the kernel and re-assignable at runtime), `port` the role of a TCP
/// or HTTP port.
///
/// # Examples
///
/// ```
/// use simnet::address::{SimAddress, TransportKind};
///
/// let a = SimAddress::new(TransportKind::Tcp, 0x0a00_0001, 9701);
/// assert_eq!(a.to_string(), "tcp://10.0.0.1:9701");
/// let parsed: SimAddress = "tcp://10.0.0.1:9701".parse().unwrap();
/// assert_eq!(parsed, a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimAddress {
    /// The transport this address belongs to.
    pub transport: TransportKind,
    /// The host part (rendered dotted-quad like an IPv4 address).
    pub host: u32,
    /// The port part.
    pub port: u16,
}

impl SimAddress {
    /// The well-known multicast group address used by peer discovery.
    pub const DISCOVERY_MULTICAST: SimAddress = SimAddress {
        transport: TransportKind::Multicast,
        host: 0xE000_00C9, // 224.0.0.201
        port: 1234,
    };

    /// Creates an address.
    pub const fn new(transport: TransportKind, host: u32, port: u16) -> Self {
        SimAddress {
            transport,
            host,
            port,
        }
    }

    /// Renders the host as a dotted quad.
    fn host_string(&self) -> String {
        let h = self.host;
        format!(
            "{}.{}.{}.{}",
            (h >> 24) & 0xff,
            (h >> 16) & 0xff,
            (h >> 8) & 0xff,
            h & 0xff
        )
    }

    /// Whether this is a multicast group address rather than a unicast one.
    pub fn is_multicast(&self) -> bool {
        self.transport == TransportKind::Multicast
    }
}

impl fmt::Display for SimAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}://{}:{}",
            self.transport.scheme(),
            self.host_string(),
            self.port
        )
    }
}

/// Error returned when a string is not a valid [`SimAddress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddressError(String);

impl fmt::Display for ParseAddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid simulated address: {}", self.0)
    }
}

impl std::error::Error for ParseAddressError {}

impl FromStr for SimAddress {
    type Err = ParseAddressError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseAddressError(s.to_owned());
        let (scheme, rest) = s.split_once("://").ok_or_else(err)?;
        let transport: TransportKind = scheme.parse().map_err(|_| err())?;
        let (host_str, port_str) = rest.rsplit_once(':').ok_or_else(err)?;
        let port: u16 = port_str.parse().map_err(|_| err())?;
        let mut host: u32 = 0;
        let mut octets = 0;
        for part in host_str.split('.') {
            let octet: u8 = part.parse().map_err(|_| err())?;
            host = (host << 8) | octet as u32;
            octets += 1;
        }
        if octets != 4 {
            return Err(err());
        }
        Ok(SimAddress {
            transport,
            host,
            port,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_scheme_roundtrip() {
        for t in TransportKind::ALL {
            assert_eq!(t.scheme().parse::<TransportKind>().unwrap(), t);
        }
        assert!("carrier-pigeon".parse::<TransportKind>().is_err());
    }

    #[test]
    fn address_display_and_parse_roundtrip() {
        let addr = SimAddress::new(TransportKind::Http, 0xC0A8_0102, 8080);
        assert_eq!(addr.to_string(), "http://192.168.1.2:8080");
        let parsed: SimAddress = addr.to_string().parse().unwrap();
        assert_eq!(parsed, addr);
    }

    #[test]
    fn address_parse_rejects_garbage() {
        assert!("tcp//1.2.3.4:1".parse::<SimAddress>().is_err());
        assert!("tcp://1.2.3:1".parse::<SimAddress>().is_err());
        assert!("tcp://1.2.3.4.5:1".parse::<SimAddress>().is_err());
        assert!("tcp://1.2.3.4:notaport".parse::<SimAddress>().is_err());
        assert!("warp://1.2.3.4:1".parse::<SimAddress>().is_err());
        assert!("tcp://300.2.3.4:1".parse::<SimAddress>().is_err());
    }

    #[test]
    fn multicast_detection() {
        assert!(SimAddress::DISCOVERY_MULTICAST.is_multicast());
        assert!(!SimAddress::new(TransportKind::Tcp, 1, 1).is_multicast());
    }

    #[test]
    fn point_to_point_classification() {
        assert!(TransportKind::Tcp.is_point_to_point());
        assert!(TransportKind::Http.is_point_to_point());
        assert!(!TransportKind::Multicast.is_point_to_point());
        assert!(!TransportKind::Bluetooth.is_point_to_point());
    }
}

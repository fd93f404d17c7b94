//! The unit of data exchanged between simulated nodes.

use crate::address::{SimAddress, TransportKind};
use crate::id::NodeId;
use bytes::Bytes;
use std::fmt;

/// A datagram as seen by the **receiving** node.
///
/// The payload is an opaque byte string; the JXTA layer encodes its
/// [`Message`](https://spec.jxta.org) framing inside it. `src_node` is the
/// *physical* origin — protocol layers must not rely on it for identity
/// (peers are identified by UUIDs carried inside the payload), but it is
/// invaluable for traces and tests.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// The node the datagram physically originated from.
    pub src_node: NodeId,
    /// The source address the datagram was sent from.
    pub src_addr: SimAddress,
    /// The destination address the datagram was sent to (may be a multicast
    /// group address).
    pub dst_addr: SimAddress,
    /// The transport the datagram travelled over.
    pub transport: TransportKind,
    /// The opaque payload.
    pub payload: Bytes,
}

impl Datagram {
    /// Total size used for bandwidth accounting: payload plus a fixed
    /// per-datagram framing overhead (IP/TCP/HTTP headers).
    pub fn wire_size(&self) -> usize {
        self.payload.len() + Self::framing_overhead(self.transport)
    }

    /// The framing overhead charged for a given transport.
    fn framing_overhead(transport: TransportKind) -> usize {
        match transport {
            TransportKind::Tcp => 66,
            TransportKind::Http => 280,
            TransportKind::Multicast => 42,
            TransportKind::Bluetooth => 30,
        }
    }
}

impl fmt::Display for Datagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} ({} bytes over {})",
            self.src_addr,
            self.dst_addr,
            self.payload.len(),
            self.transport
        )
    }
}

/// Reasons a send can be rejected synchronously by the kernel.
///
/// Asynchronous losses (random drops, firewalls, stale addresses) are *not*
/// reported to the sender — exactly like UDP or an unreliable JXTA pipe — so
/// upper layers must implement their own retries if they need reliability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The sending node has no interface bound to the requested transport.
    NoLocalInterface(TransportKind),
    /// The destination address is a multicast group but the transport is
    /// point-to-point, or vice versa.
    TransportMismatch,
    /// The payload exceeds the maximum datagram size accepted by the kernel.
    PayloadTooLarge { size: usize, limit: usize },
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::NoLocalInterface(t) => {
                write!(f, "node has no local interface for transport {t}")
            }
            SendError::TransportMismatch => f.write_str("address kind does not match transport"),
            SendError::PayloadTooLarge { size, limit } => {
                write!(
                    f,
                    "payload of {size} bytes exceeds the {limit} byte datagram limit"
                )
            }
        }
    }
}

impl std::error::Error for SendError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(transport: TransportKind) -> Datagram {
        Datagram {
            src_node: NodeId::from_raw(0),
            src_addr: SimAddress::new(transport, 1, 1),
            dst_addr: SimAddress::new(transport, 2, 2),
            transport,
            payload: Bytes::from_static(b"hello world"),
        }
    }

    #[test]
    fn wire_size_includes_framing() {
        let dg = sample(TransportKind::Tcp);
        assert_eq!(dg.wire_size(), 11 + 66);
        let dg = sample(TransportKind::Http);
        assert_eq!(dg.wire_size(), 11 + 280);
    }

    #[test]
    fn display_mentions_endpoints_and_size() {
        let dg = sample(TransportKind::Tcp);
        let s = dg.to_string();
        assert!(s.contains("11 bytes"));
        assert!(s.contains("tcp://"));
    }

    #[test]
    fn send_error_messages_are_meaningful() {
        let e = SendError::NoLocalInterface(TransportKind::Http);
        assert!(e.to_string().contains("http"));
        let e = SendError::PayloadTooLarge { size: 10, limit: 5 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("5"));
    }
}

//! Firewall modelling.
//!
//! JXTA's Endpoint Routing Protocol exists chiefly because peers behind
//! firewalls cannot accept inbound TCP connections: they must be reached
//! through rendezvous/router peers over HTTP. The simulator models that with
//! a per-node [`FirewallPolicy`] evaluated on the *receiving* side of every
//! point-to-point datagram.

use crate::address::TransportKind;

/// Per-node firewall policy applied to inbound point-to-point traffic.
///
/// Broadcast transports (multicast, bluetooth) are confined to the local
/// subnet and are never filtered; this mirrors a typical corporate NAT/firewall
/// that breaks inbound TCP but leaves the LAN alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirewallPolicy {
    /// Whether inbound TCP connections are accepted.
    pub allow_inbound_tcp: bool,
    /// Whether inbound HTTP (long-poll style, as JXTA's HTTP transport uses)
    /// is accepted.
    pub allow_inbound_http: bool,
}

impl FirewallPolicy {
    /// A completely open node (the default).
    pub const fn open() -> Self {
        FirewallPolicy {
            allow_inbound_tcp: true,
            allow_inbound_http: true,
        }
    }

    /// A node behind a restrictive firewall: no inbound TCP, but HTTP polling
    /// still works (the classic JXTA "peer behind a firewall" scenario of the
    /// paper's Figure 6).
    pub const fn behind_firewall() -> Self {
        FirewallPolicy {
            allow_inbound_tcp: false,
            allow_inbound_http: true,
        }
    }

    /// Whether an inbound datagram on `transport` is admitted.
    pub fn admits_inbound(&self, transport: TransportKind) -> bool {
        match transport {
            TransportKind::Tcp => self.allow_inbound_tcp,
            TransportKind::Http => self.allow_inbound_http,
            TransportKind::Multicast | TransportKind::Bluetooth => true,
        }
    }
}

impl Default for FirewallPolicy {
    fn default() -> Self {
        FirewallPolicy::open()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_admits_everything() {
        let fw = FirewallPolicy::open();
        for t in TransportKind::ALL {
            assert!(fw.admits_inbound(t));
        }
    }

    #[test]
    fn firewalled_blocks_tcp_but_not_http() {
        let fw = FirewallPolicy::behind_firewall();
        assert!(!fw.admits_inbound(TransportKind::Tcp));
        assert!(fw.admits_inbound(TransportKind::Http));
        assert!(fw.admits_inbound(TransportKind::Multicast));
    }

    #[test]
    fn sealed_blocks_all_point_to_point() {
        let fw = FirewallPolicy {
            allow_inbound_tcp: false,
            allow_inbound_http: false,
        };
        assert!(!fw.admits_inbound(TransportKind::Tcp));
        assert!(!fw.admits_inbound(TransportKind::Http));
        assert!(fw.admits_inbound(TransportKind::Bluetooth));
    }
}

//! Counters collected by the simulation kernel.

use std::fmt;

/// Why a datagram never reached its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Random loss on the link (the link's `loss_probability` fired).
    RandomLoss,
    /// The destination's firewall rejected the inbound transport.
    Firewall,
    /// No node currently owns the destination address (stale address after a
    /// re-assignment, or the address never existed).
    UnknownAddress,
    /// The destination node exists but has been shut down.
    NodeDown,
    /// A multicast datagram found no recipient on the subnet.
    EmptyMulticastGroup,
    /// A fault-injection rule (blocked node pair) swallowed the datagram.
    FaultInjected,
    /// The payload exceeded the network's 1 MiB datagram limit and was
    /// rejected on the send path.
    OversizedPayload,
}

impl DropReason {
    /// Every drop reason, in a stable reporting order.
    pub const ALL: [DropReason; 7] = [
        DropReason::RandomLoss,
        DropReason::Firewall,
        DropReason::UnknownAddress,
        DropReason::NodeDown,
        DropReason::EmptyMulticastGroup,
        DropReason::FaultInjected,
        DropReason::OversizedPayload,
    ];

    /// A short machine-friendly label (used as a metric-name suffix).
    pub fn label(self) -> &'static str {
        match self {
            DropReason::RandomLoss => "random_loss",
            DropReason::Firewall => "firewall",
            DropReason::UnknownAddress => "unknown_address",
            DropReason::NodeDown => "node_down",
            DropReason::EmptyMulticastGroup => "empty_multicast",
            DropReason::FaultInjected => "fault_injected",
            DropReason::OversizedPayload => "oversized_payload",
        }
    }

    /// This reason's position in [`DropReason::ALL`] — the dense index used
    /// by per-reason count arrays ([`DropSummary`], the kernel's drop
    /// counters). Keeping counts in `ALL`-ordered arrays instead of hash
    /// maps is part of the determinism contract: export order never depends
    /// on insertion or hash order.
    pub const fn index(self) -> usize {
        match self {
            DropReason::RandomLoss => 0,
            DropReason::Firewall => 1,
            DropReason::UnknownAddress => 2,
            DropReason::NodeDown => 3,
            DropReason::EmptyMulticastGroup => 4,
            DropReason::FaultInjected => 5,
            DropReason::OversizedPayload => 6,
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropReason::RandomLoss => "random loss",
            DropReason::Firewall => "blocked by firewall",
            DropReason::UnknownAddress => "unknown destination address",
            DropReason::NodeDown => "destination node is down",
            DropReason::EmptyMulticastGroup => "no member in multicast group",
            DropReason::FaultInjected => "dropped by fault injection",
            DropReason::OversizedPayload => "payload exceeds the datagram size limit",
        };
        f.write_str(s)
    }
}

/// Network-wide drop counts broken down by [`DropReason`] — the summary the
/// churn and fault tests assert exact causes on, instead of inferring them
/// from aggregate loss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropSummary {
    /// Counts indexed like [`DropReason::ALL`].
    counts: [u64; DropReason::ALL.len()],
}

impl DropSummary {
    /// Builds a summary from `(reason, count)` pairs (missing reasons count
    /// zero; duplicate reasons sum).
    pub fn from_counts(pairs: impl IntoIterator<Item = (DropReason, u64)>) -> Self {
        let mut summary = DropSummary::default();
        for (reason, count) in pairs {
            summary.add(reason, count);
        }
        summary
    }

    /// Adds `count` drops of the given reason.
    pub fn add(&mut self, reason: DropReason, count: u64) {
        self.counts[reason.index()] += count;
    }

    /// Drops recorded for one reason.
    pub fn of(&self, reason: DropReason) -> u64 {
        self.counts[reason.index()]
    }

    /// Total drops across all reasons.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(reason, count)` rows for every reason with at least one drop, in
    /// [`DropReason::ALL`] order.
    fn nonzero(&self) -> Vec<(DropReason, u64)> {
        DropReason::ALL
            .into_iter()
            .zip(self.counts)
            .filter(|&(_, count)| count > 0)
            .collect()
    }
}

impl fmt::Display for DropSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.total() == 0 {
            return f.write_str("no drops");
        }
        let mut first = true;
        for (reason, count) in self.nonzero() {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{}={count}", reason.label())?;
            first = false;
        }
        Ok(())
    }
}

/// Traffic counters for one node (or, summed, for the whole network).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Datagrams handed to the kernel for sending.
    pub datagrams_sent: u64,
    /// Datagrams delivered to this node's handler.
    pub datagrams_delivered: u64,
    /// Datagrams addressed to this node that were dropped (any reason).
    pub datagrams_dropped: u64,
    /// Payload bytes sent (excluding framing).
    pub bytes_sent: u64,
    /// Payload bytes delivered (excluding framing).
    pub bytes_delivered: u64,
    /// Timers fired on this node.
    pub timers_fired: u64,
}

impl TrafficStats {
    /// Merges `other` into `self` (used to compute network-wide totals).
    pub fn merge(&mut self, other: &TrafficStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_delivered += other.datagrams_delivered;
        self.datagrams_dropped += other.datagrams_dropped;
        self.bytes_sent += other.bytes_sent;
        self.bytes_delivered += other.bytes_delivered;
        self.timers_fired += other.timers_fired;
    }

    /// The fraction of sent datagrams that were eventually delivered
    /// somewhere, or `1.0` when nothing was sent.
    pub fn delivery_ratio(&self) -> f64 {
        if self.datagrams_sent == 0 {
            1.0
        } else {
            self.datagrams_delivered as f64 / self.datagrams_sent as f64
        }
    }
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped={} bytes_sent={} bytes_delivered={} timers={}",
            self.datagrams_sent,
            self.datagrams_delivered,
            self.datagrams_dropped,
            self.bytes_sent,
            self.bytes_delivered,
            self.timers_fired
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = TrafficStats {
            datagrams_sent: 1,
            bytes_sent: 10,
            ..Default::default()
        };
        let b = TrafficStats {
            datagrams_sent: 2,
            datagrams_delivered: 2,
            bytes_delivered: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.datagrams_sent, 3);
        assert_eq!(a.datagrams_delivered, 2);
        assert_eq!(a.bytes_sent, 10);
        assert_eq!(a.bytes_delivered, 5);
    }

    #[test]
    fn delivery_ratio_handles_zero_sends() {
        assert_eq!(TrafficStats::default().delivery_ratio(), 1.0);
        let s = TrafficStats {
            datagrams_sent: 4,
            datagrams_delivered: 1,
            ..Default::default()
        };
        assert!((s.delivery_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn drop_reasons_have_readable_messages() {
        assert_eq!(DropReason::Firewall.to_string(), "blocked by firewall");
        assert!(DropReason::UnknownAddress.to_string().contains("address"));
    }

    #[test]
    fn drop_reason_labels_are_unique_and_exhaustive() {
        let labels: std::collections::HashSet<_> = DropReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), DropReason::ALL.len());
    }

    #[test]
    fn drop_reason_index_matches_all_order() {
        for (i, reason) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(reason.index(), i);
        }
    }

    #[test]
    fn drop_summary_accumulates_per_reason() {
        let mut summary = DropSummary::default();
        assert_eq!(summary.to_string(), "no drops");
        summary.add(DropReason::FaultInjected, 2);
        summary.add(DropReason::NodeDown, 1);
        summary.add(DropReason::FaultInjected, 1);
        assert_eq!(summary.of(DropReason::FaultInjected), 3);
        assert_eq!(summary.of(DropReason::NodeDown), 1);
        assert_eq!(summary.of(DropReason::RandomLoss), 0);
        assert_eq!(summary.total(), 4);
        assert_eq!(
            summary.nonzero(),
            vec![(DropReason::NodeDown, 1), (DropReason::FaultInjected, 3)]
        );
        assert_eq!(summary.to_string(), "node_down=1 fault_injected=3");
        let rebuilt = DropSummary::from_counts(summary.nonzero());
        assert_eq!(rebuilt, summary);
    }
}

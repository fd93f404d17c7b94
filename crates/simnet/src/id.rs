//! Identifiers used by the simulator: nodes, subnets and timers.

use std::fmt;

/// Identifies a simulated node (a "peer machine") inside a [`crate::Network`].
///
/// Node ids are dense indices handed out by the network builder in creation
/// order, which keeps event ordering deterministic and lets the kernel store
/// nodes in a plain vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from its raw index.
    ///
    /// This is mostly useful in tests; real ids are handed out by
    /// [`crate::NetworkBuilder::add_node`].
    pub const fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw index as a `usize`, convenient for vector indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Identifies a broadcast domain ("subnet"/LAN segment).
///
/// IP-multicast only reaches nodes within the same subnet, and link
/// characteristics can be specified per subnet pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SubnetId(pub u16);

impl fmt::Display for SubnetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "subnet-{}", self.0)
    }
}

/// A handle to a pending timer, returned by
/// [`crate::NodeContext::set_timer`] and usable to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub(crate) u64);

impl fmt::Display for TimerToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_raw(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "node-7");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(NodeId::from_raw(1) < NodeId::from_raw(2));
        assert!(SubnetId(0) < SubnetId(3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SubnetId(4).to_string(), "subnet-4");
        assert_eq!(TimerToken(9).to_string(), "timer-9");
    }
}

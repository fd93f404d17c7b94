//! Drop forensics: the join between the span trace and the kernel's drop
//! log.
//!
//! The tracing plane records what every *instrumented* hop did to every copy
//! of every traced event ([`telemetry::trace`]); the simulation kernel
//! records, in its own ring, every datagram it dropped and why
//! ([`simnet::DropRecord`]). [`TraceJoin`] holds the one piece of state that
//! connects the two — which kernel node is which trace handle — so a harness
//! can ask "where did this subscriber's copy of this event end up, and if the
//! wire ate it, for what transport-level reason?".

use crate::peer::SharedTraceCollector;
use simnet::{DropReason, Network, NodeId};
use std::cell::RefCell;
use std::rc::Rc;
use telemetry::trace::{DeliveryVerdict, TraceCollector, TraceId};

/// A shared span collector plus the kernel-node ↔ trace-handle table.
#[derive(Debug)]
pub struct TraceJoin {
    collector: SharedTraceCollector,
    nodes: Vec<(NodeId, u64)>,
}

impl TraceJoin {
    /// Turns on the kernel's drop log and creates a span collector, each
    /// keeping the newest `capacity` records. Install [`TraceJoin::collector`]
    /// on every peer to be traced and register each with
    /// [`TraceJoin::add_node`].
    pub fn enable(net: &mut Network, capacity: usize) -> Self {
        net.enable_drop_log(capacity);
        TraceJoin {
            collector: Rc::new(RefCell::new(TraceCollector::with_capacity(capacity))),
            nodes: Vec::new(),
        }
    }

    /// The shared span collector.
    pub fn collector(&self) -> &SharedTraceCollector {
        &self.collector
    }

    /// Registers a traced peer: simulation node `node` records its spans
    /// under `handle` (see [`crate::JxtaPeer::trace_node`]).
    pub fn add_node(&mut self, node: NodeId, handle: u64) {
        self.nodes.push((node, handle));
    }

    /// The trace handle of a simulation node, if it was registered.
    pub fn handle_of(&self, node: NodeId) -> Option<u64> {
        self.nodes.iter().find(|(id, _)| *id == node).map(|(_, h)| *h)
    }

    /// Every event trace id the collector currently knows about, in id order.
    pub fn traced_ids(&self) -> Vec<TraceId> {
        self.collector.borrow().known_ids()
    }

    /// Where `subscriber`'s copy of event `id` ended up, reconstructed from
    /// the span trace (see [`TraceCollector::why_missing`]).
    ///
    /// # Panics
    ///
    /// Panics if `subscriber` was never registered.
    pub fn why_missing(&self, subscriber: NodeId, id: TraceId) -> DeliveryVerdict {
        let handle = self.handle_of(subscriber).expect("node is not traced");
        self.collector.borrow().why_missing(handle, id)
    }

    /// Joins a [`DeliveryVerdict::LostOnWire`] verdict against the kernel's
    /// drop log: the transport-level [`DropReason`] of the first kernel drop
    /// originating at the verdict's last instrumented hop at-or-after the
    /// send span's timestamp. `None` for other verdicts (their causes are
    /// already named by the span itself) or when the kernel record was
    /// evicted from its ring.
    pub fn kernel_drop_reason(&self, net: &Network, verdict: &DeliveryVerdict) -> Option<DropReason> {
        let DeliveryVerdict::LostOnWire { last_send } = verdict else {
            return None;
        };
        let (sender, _) = self.nodes.iter().find(|(_, h)| *h == last_send.node)?;
        net.drop_log()
            .records()
            .iter()
            .find(|record| record.from == *sender && record.at.as_micros() >= last_send.at_us)
            .map(|record| record.reason)
    }
}

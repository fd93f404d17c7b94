//! Tracing glue: the shared span collector, the peer-id → trace-handle fold
//! and the span-recording helpers every hop calls.

use super::JxtaPeer;
use crate::id::PeerId;
use simnet::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use telemetry::trace::{DropCause, SpanKind, TraceCollector, TraceId, TraceSpan, BROADCAST};

/// The trace collector shared by every instrumented layer of one simulated
/// deployment. The simulator is single-threaded, so plain `Rc<RefCell<..>>`
/// sharing is enough; a peer holding `None` pays nothing for tracing.
pub type SharedTraceCollector = Rc<RefCell<TraceCollector>>;

/// Folds a 128-bit peer id into the 64-bit trace handle used by
/// [`telemetry::trace`] spans. Deterministic, and never the reserved
/// [`BROADCAST`] handle.
pub fn trace_handle(peer: PeerId) -> u64 {
    let raw = peer.0 .0;
    let folded = ((raw >> 64) as u64) ^ (raw as u64);
    if folded == BROADCAST {
        1
    } else {
        folded
    }
}

/// Records one `kind` span at `peer` for each traced event id — the one
/// span-writing routine of every instrumented layer (this peer, the TPS
/// engine above it).
pub fn record_spans(
    tracer: &SharedTraceCollector,
    peer: PeerId,
    now: SimTime,
    ids: &[TraceId],
    kind: SpanKind,
) {
    let node = trace_handle(peer);
    let mut tracer = tracer.borrow_mut();
    for id in ids {
        tracer.record(TraceSpan {
            id: *id,
            at_us: now.as_micros(),
            node,
            kind,
        });
    }
}

impl JxtaPeer {
    /// Installs a shared [`TraceCollector`] so every copy of every wire
    /// message this peer touches records causal [`TraceSpan`]s. Off by
    /// default; a peer without a collector skips all span bookkeeping.
    ///
    /// With `defer_delivery` set, the peer records every hop span *except*
    /// the terminal `Delivered` / duplicate-drop spans: a layer above (the
    /// TPS engine, which runs its own cross-pipe event-id dedup) takes over
    /// that responsibility so each copy gets exactly one verdict span.
    pub fn set_trace_collector(&mut self, tracer: SharedTraceCollector, defer_delivery: bool) {
        tracer
            .borrow_mut()
            .register_node(trace_handle(self.peer_id), self.config.name.clone());
        self.tracer = Some(tracer);
        self.defer_delivery_spans = defer_delivery;
    }

    /// This peer's 64-bit trace handle (see [`trace_handle`]).
    pub fn trace_node(&self) -> u64 {
        trace_handle(self.peer_id)
    }

    /// Records one span for each traced event id, if tracing is on.
    pub(super) fn record_spans(&self, now: SimTime, ids: &[TraceId], kind: SpanKind) {
        if let Some(tracer) = &self.tracer {
            record_spans(tracer, self.peer_id, now, ids, kind);
        }
    }

    /// Records that this copy of each traced event died here, and why.
    pub(super) fn record_drop(&self, now: SimTime, ids: &[TraceId], cause: DropCause) {
        self.record_spans(now, ids, SpanKind::Dropped { cause });
    }

    /// Classifies a unicast wire copy headed for `peer`: across the
    /// rendezvous mesh, down a client lease, or a plain point-to-point hop.
    pub(super) fn classify_send(&self, peer: PeerId) -> SpanKind {
        let to = trace_handle(peer);
        if self.rendezvous.has_mesh_link(peer) {
            SpanKind::MeshRelay { to }
        } else if self.rendezvous.is_rendezvous() && self.rendezvous.has_client(peer) {
            SpanKind::FanDown { to }
        } else {
            SpanKind::WireOut { to }
        }
    }
}

//! The node abstraction: what a simulated peer implements, and the context
//! handed to its handlers.
//!
//! Handlers never touch the kernel directly. Instead they record *commands*
//! (send a datagram, set a timer, ...) in the [`NodeContext`]; the kernel
//! applies them once the handler returns. This keeps the programming model
//! single-threaded and deterministic, and side-steps borrow-checker contortions
//! that would otherwise arise from nodes calling back into the network that
//! owns them.

use crate::address::{SimAddress, TransportKind};
use crate::datagram::{Datagram, SendError};
use crate::firewall::FirewallPolicy;
use crate::id::{NodeId, SubnetId, TimerToken};
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use rand::rngs::StdRng;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Behaviour of a simulated node.
///
/// Implementations are event-driven state machines: the kernel calls the
/// handlers below, each of which may queue commands on the [`NodeContext`].
///
/// The `as_any` methods exist so that test harnesses and applications can
/// recover the concrete node type from the kernel (e.g. to inspect received
/// events); they are boilerplate but keep the kernel entirely generic.
pub trait SimNode: Any {
    /// Called once, at the node's start time, before any other handler.
    fn on_start(&mut self, _ctx: &mut NodeContext<'_>) {}

    /// Called for every datagram delivered to one of the node's interfaces.
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, datagram: Datagram);

    /// Called when a timer previously set with [`NodeContext::set_timer`]
    /// fires. `tag` is the caller-chosen discriminator passed at `set_timer`
    /// time.
    fn on_timer(&mut self, _ctx: &mut NodeContext<'_>, _token: TimerToken, _tag: u64) {}

    /// Called when the harness re-assigns one of the node's addresses
    /// (simulating a DHCP lease change or a device moving networks).
    fn on_address_changed(&mut self, _ctx: &mut NodeContext<'_>, _old: SimAddress, _new: SimAddress) {}

    /// Upcast used by [`crate::Network::node_ref`].
    fn as_any(&self) -> &dyn Any;

    /// Upcast used by [`crate::Network::node_mut`] / [`crate::Network::invoke`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Static configuration of a node, supplied when it is added to the network.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The broadcast domain the node lives in.
    pub subnet: SubnetId,
    /// The transports the node has interfaces for. At least one is required;
    /// the kernel assigns one address per transport.
    pub transports: Vec<TransportKind>,
    /// The node's firewall policy for inbound point-to-point traffic.
    pub firewall: FirewallPolicy,
    /// Fixed processing delay charged for every datagram the node receives
    /// before its handler runs (models OS + JVM dispatch cost).
    pub rx_overhead: SimDuration,
    /// Fixed processing delay charged for every datagram the node sends.
    pub tx_overhead: SimDuration,
}

impl NodeConfig {
    /// A node on `subnet` with TCP, HTTP and multicast interfaces, no
    /// firewall, and small fixed processing overheads.
    pub fn lan_peer(subnet: SubnetId) -> Self {
        NodeConfig {
            subnet,
            transports: vec![TransportKind::Tcp, TransportKind::Http, TransportKind::Multicast],
            firewall: FirewallPolicy::open(),
            rx_overhead: SimDuration::from_micros(150),
            tx_overhead: SimDuration::from_micros(150),
        }
    }

    /// Builder-style firewall override.
    pub fn with_firewall(mut self, firewall: FirewallPolicy) -> Self {
        self.firewall = firewall;
        self
    }

    /// Builder-style transport override.
    pub fn with_transports(mut self, transports: Vec<TransportKind>) -> Self {
        self.transports = transports;
        self
    }
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig::lan_peer(SubnetId(0))
    }
}

/// Wakes raised by [`Waker`]s since the kernel last looked, in raise order.
/// `pending` lets the kernel test for "none" with one load per event.
#[derive(Debug, Default)]
pub(crate) struct WakeQueue {
    pending: Cell<bool>,
    wakes: RefCell<Vec<(NodeId, u64)>>,
}

impl WakeQueue {
    /// Whether any wake was raised since the last [`WakeQueue::swap`].
    #[inline]
    pub(crate) fn is_pending(&self) -> bool {
        self.pending.get()
    }

    /// Exchanges the raised wakes for `buffer` (which the caller passes in
    /// empty), so both vectors keep their capacity across drains.
    pub(crate) fn swap(&self, buffer: &mut Vec<(NodeId, u64)>) {
        std::mem::swap(&mut *self.wakes.borrow_mut(), buffer);
        self.pending.set(false);
    }
}

/// A cloneable handle that makes the kernel call one node's
/// [`SimNode::on_timer`] with a fixed tag at the current virtual instant.
///
/// Obtained from [`NodeContext::waker`]. Unlike the context, a waker holds no
/// borrow of the kernel, so it can live outside the simulation: code that
/// holds it between `Network::run_*` calls wakes the node exactly when it has
/// something for it, instead of the node polling on a timer. Each
/// [`Waker::wake`] becomes one zero-delay timer event, dispatched in wake
/// order before the kernel takes its next event; a wake for a node that has
/// been shut down is dropped like any timer of a dead node.
#[derive(Clone, Debug)]
pub struct Waker {
    node: NodeId,
    tag: u64,
    queue: Rc<WakeQueue>,
}

impl Waker {
    /// Schedules `on_timer(tag)` on the node at the current virtual instant.
    pub fn wake(&self) {
        self.queue.wakes.borrow_mut().push((self.node, self.tag));
        self.queue.pending.set(true);
    }
}

/// A command queued by a handler, applied by the kernel afterwards.
#[derive(Debug)]
pub(crate) enum Command {
    Send {
        /// Virtual CPU time already consumed in this handler when the send
        /// was issued; the departure is delayed by this much.
        local_delay: SimDuration,
        dst: SimAddress,
        payload: Bytes,
    },
    SetTimer {
        token: TimerToken,
        at: SimTime,
        tag: u64,
    },
    CancelTimer {
        token: TimerToken,
    },
    Trace {
        text: String,
    },
}

/// The per-invocation context handed to every [`SimNode`] handler.
///
/// It exposes the node's identity, addresses and a deterministic RNG, and
/// collects the commands the handler wants executed.
pub struct NodeContext<'a> {
    pub(crate) node_id: NodeId,
    pub(crate) now: SimTime,
    pub(crate) subnet: SubnetId,
    pub(crate) interfaces: &'a [SimAddress],
    pub(crate) rng: &'a mut StdRng,
    pub(crate) next_timer: &'a mut u64,
    pub(crate) wakes: &'a Rc<WakeQueue>,
    pub(crate) charged: SimDuration,
    pub(crate) commands: Vec<Command>,
}

impl<'a> NodeContext<'a> {
    /// The identity of the node whose handler is running.
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// The current virtual time, *including* any CPU time charged so far in
    /// this handler invocation.
    pub fn now(&self) -> SimTime {
        self.now + self.charged
    }

    /// The virtual time at which the handler was entered.
    pub fn invocation_time(&self) -> SimTime {
        self.now
    }

    /// The broadcast domain this node belongs to.
    pub fn subnet(&self) -> SubnetId {
        self.subnet
    }

    /// All local interface addresses (one per configured transport).
    pub fn local_addresses(&self) -> &[SimAddress] {
        self.interfaces
    }

    /// The local address bound to `transport`, if the node has one.
    pub fn local_address(&self, transport: TransportKind) -> Option<SimAddress> {
        self.interfaces.iter().copied().find(|a| a.transport == transport)
    }

    /// Charges `amount` of virtual CPU time to the current handler.
    ///
    /// Subsequent sends depart later by the accumulated amount, and
    /// [`NodeContext::now`] advances accordingly. This is how protocol layers
    /// model per-message processing cost (serialisation, duplicate detection,
    /// advertisement management, ...) without blocking a real thread.
    pub fn charge(&mut self, amount: SimDuration) {
        self.charged += amount;
    }

    /// The total CPU time charged so far in this handler invocation.
    pub fn charged(&self) -> SimDuration {
        self.charged
    }

    /// A deterministic random number generator private to this node.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queues a datagram for transmission to `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::NoLocalInterface`] if the node has no interface
    /// for the destination's transport. Delivery itself is *not* guaranteed:
    /// like UDP, losses and firewall rejections are silent.
    pub fn send(&mut self, dst: SimAddress, payload: Bytes) -> Result<(), SendError> {
        if self.local_address(dst.transport).is_none() {
            return Err(SendError::NoLocalInterface(dst.transport));
        }
        self.commands.push(Command::Send {
            local_delay: self.charged,
            dst,
            payload,
        });
        Ok(())
    }

    /// Queues a datagram to the well-known discovery multicast group of the
    /// local subnet.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::NoLocalInterface`] if the node has no multicast
    /// interface.
    pub fn send_multicast(&mut self, payload: Bytes) -> Result<(), SendError> {
        self.send(SimAddress::DISCOVERY_MULTICAST, payload)
    }

    /// Sets a one-shot timer to fire `delay` from now; `tag` is returned to
    /// [`SimNode::on_timer`] so a node can multiplex many logical timers.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerToken {
        *self.next_timer += 1;
        let token = TimerToken(*self.next_timer);
        let at = self.now + self.charged + delay;
        self.commands.push(Command::SetTimer { token, at, tag });
        token
    }

    /// Cancels a previously set timer. Cancelling an already-fired or unknown
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.commands.push(Command::CancelTimer { token });
    }

    /// A [`Waker`] that, whenever woken, fires this node's
    /// [`SimNode::on_timer`] with `tag` at the virtual instant of the wake.
    pub fn waker(&self, tag: u64) -> Waker {
        Waker {
            node: self.node_id,
            tag,
            queue: Rc::clone(self.wakes),
        }
    }

    /// Emits a free-form trace annotation (kept only if tracing is enabled).
    pub fn trace(&mut self, text: impl Into<String>) {
        self.commands.push(Command::Trace { text: text.into() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx<'a>(
        interfaces: &'a [SimAddress],
        rng: &'a mut StdRng,
        next_timer: &'a mut u64,
        wakes: &'a Rc<WakeQueue>,
    ) -> NodeContext<'a> {
        NodeContext {
            node_id: NodeId::from_raw(3),
            now: SimTime::from_millis(10),
            subnet: SubnetId(1),
            interfaces,
            rng,
            next_timer,
            wakes,
            charged: SimDuration::ZERO,
            commands: Vec::new(),
        }
    }

    #[test]
    fn send_requires_matching_interface() {
        let interfaces = [SimAddress::new(TransportKind::Tcp, 1, 1)];
        let mut rng = StdRng::seed_from_u64(1);
        let mut next = 0;
        let wakes = Rc::default();
        let mut c = ctx(&interfaces, &mut rng, &mut next, &wakes);
        assert!(c
            .send(SimAddress::new(TransportKind::Tcp, 2, 2), Bytes::new())
            .is_ok());
        assert_eq!(
            c.send(SimAddress::new(TransportKind::Http, 2, 2), Bytes::new()),
            Err(SendError::NoLocalInterface(TransportKind::Http))
        );
        assert_eq!(c.commands.len(), 1);
    }

    #[test]
    fn charge_advances_now_and_delays_sends() {
        let interfaces = [SimAddress::new(TransportKind::Tcp, 1, 1)];
        let mut rng = StdRng::seed_from_u64(1);
        let mut next = 0;
        let wakes = Rc::default();
        let mut c = ctx(&interfaces, &mut rng, &mut next, &wakes);
        c.charge(SimDuration::from_millis(5));
        assert_eq!(c.now(), SimTime::from_millis(15));
        assert_eq!(c.invocation_time(), SimTime::from_millis(10));
        c.send(SimAddress::new(TransportKind::Tcp, 2, 2), Bytes::new())
            .unwrap();
        match &c.commands[0] {
            Command::Send { local_delay, .. } => assert_eq!(*local_delay, SimDuration::from_millis(5)),
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn timers_get_unique_tokens_and_absolute_deadlines() {
        let interfaces = [SimAddress::new(TransportKind::Tcp, 1, 1)];
        let mut rng = StdRng::seed_from_u64(1);
        let mut next = 0;
        let wakes = Rc::default();
        let mut c = ctx(&interfaces, &mut rng, &mut next, &wakes);
        let t1 = c.set_timer(SimDuration::from_millis(1), 7);
        let t2 = c.set_timer(SimDuration::from_millis(2), 8);
        assert_ne!(t1, t2);
        match &c.commands[1] {
            Command::SetTimer { at, tag, .. } => {
                assert_eq!(*at, SimTime::from_millis(12));
                assert_eq!(*tag, 8);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn local_address_lookup_by_transport() {
        let interfaces = [
            SimAddress::new(TransportKind::Tcp, 1, 1),
            SimAddress::new(TransportKind::Multicast, 9, 9),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let mut next = 0;
        let wakes = Rc::default();
        let c = ctx(&interfaces, &mut rng, &mut next, &wakes);
        assert_eq!(c.local_address(TransportKind::Tcp), Some(interfaces[0]));
        assert_eq!(c.local_address(TransportKind::Http), None);
        assert_eq!(c.local_addresses().len(), 2);
        assert_eq!(c.subnet(), SubnetId(1));
        assert_eq!(c.node_id(), NodeId::from_raw(3));
    }
}

//! A single simulation-node type covering the three implementation flavours
//! compared in the paper's evaluation, so that the measurement harness can
//! drive any of them uniformly.

use crate::jxta_app::{JxtaSkiApp, Role};
use crate::tps_app::TpsSkiApp;
use crate::types::SkiRental;
use jxta::peer::{CostModel, PeerConfig};
use jxta::{FlyweightEdge, PeerId, PipeId};
use simnet::{Datagram, NodeContext, SimAddress, SimTime, TimerToken};
use tps::TpsConfig;

/// The three implementations compared in Section 5 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// The bare JXTA-WIRE service (lower-bound reference point).
    JxtaWire,
    /// The ski-rental application written directly over JXTA with the same
    /// functionality as TPS (SR-JXTA).
    SrJxta,
    /// The ski-rental application written over the TPS layer (SR-TPS).
    SrTps,
}

impl Flavor {
    /// All flavours, in the order the paper's figures list them.
    pub const ALL: [Flavor; 3] = [Flavor::JxtaWire, Flavor::SrJxta, Flavor::SrTps];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Flavor::JxtaWire => "JXTA-WIRE",
            Flavor::SrJxta => "SR-JXTA",
            Flavor::SrTps => "SR-TPS",
        }
    }
}

impl std::fmt::Display for Flavor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One ski-rental peer of a given flavour and role.
///
/// The full peers are boxed so that the enum is sized by the flyweight: the
/// kernel boxes every node at `size_of::<SkiNode>()`, and a flyweight
/// population pays that size once per subscriber.
#[derive(Debug)]
pub enum SkiNode {
    /// Raw JXTA-WIRE peer.
    Wire(Box<JxtaSkiApp>),
    /// SR-JXTA peer.
    SrJxta(Box<JxtaSkiApp>),
    /// SR-TPS peer.
    SrTps(Box<TpsSkiApp>),
    /// A flyweight subscriber: lease + subscription + mailbox, no full JXTA
    /// stack. The mega-scale population representation (see
    /// [`jxta::FlyweightEdge`]); subscribe-only.
    Flyweight(FlyweightEdge),
}

impl SkiNode {
    /// Boxed flyweight-subscriber constructor: a [`jxta::FlyweightEdge`]
    /// leasing with the `shards`-way rendezvous mesh behind `seeds` and
    /// subscribed to the `SkiRental` wire pipe. Costs nothing per idle node
    /// and cannot publish.
    pub fn boxed_flyweight(name: &str, seeds: Vec<SimAddress>, shards: usize) -> Box<Self> {
        Box::new(SkiNode::Flyweight(FlyweightEdge::new(
            name,
            seeds,
            shards,
            PipeId::derive(<SkiRental as tps::TpsEvent>::TYPE_NAME),
        )))
    }

    /// Boxed constructor of a full peer of the given flavour and role,
    /// running the given dissemination strategy (the paper baseline is
    /// [`jxta::DisseminationConfig::direct_fanout`]). `costs` is the virtual
    /// CPU model of the underlying JXTA peer ([`CostModel::jxta_1_0`] for
    /// the paper's figures, [`CostModel::free`] for functional tests).
    pub fn boxed_with_dissemination(
        flavor: Flavor,
        role: Role,
        name: &str,
        seeds: Vec<SimAddress>,
        costs: CostModel,
        dissemination: jxta::DisseminationConfig,
    ) -> Box<Self> {
        let peer_config = PeerConfig::edge(name)
            .with_seeds(seeds)
            .with_costs(costs)
            .with_dissemination(dissemination);
        Box::new(match flavor {
            Flavor::JxtaWire => SkiNode::Wire(Box::new(JxtaSkiApp::new(peer_config, role, false))),
            Flavor::SrJxta => SkiNode::SrJxta(Box::new(JxtaSkiApp::new(peer_config, role, true))),
            Flavor::SrTps => {
                let config = TpsConfig::new(name).with_peer(peer_config);
                SkiNode::SrTps(Box::new(TpsSkiApp::new(config, role)))
            }
        })
    }

    /// Publishes one offer.
    ///
    /// # Errors
    ///
    /// Returns a readable error if the underlying layer rejects the publish.
    pub fn publish_offer(&mut self, ctx: &mut NodeContext<'_>, offer: &SkiRental) -> Result<(), String> {
        match self {
            SkiNode::Wire(app) | SkiNode::SrJxta(app) => app.publish_offer(ctx, offer),
            SkiNode::SrTps(app) => app.publish_offer(ctx, offer),
            SkiNode::Flyweight(_) => Err("flyweight peers are subscribe-only".to_owned()),
        }
    }

    /// Publishes several offers at once. The SR-TPS flavour marshals them
    /// into **one** wire message (`Publisher::publish_batch`); the JXTA
    /// flavours have no batching support and fall back to one message per
    /// offer, which is exactly the per-event cost the batch path removes.
    ///
    /// # Errors
    ///
    /// Returns a readable error if the underlying layer rejects the publish.
    pub fn publish_offer_batch(
        &mut self,
        ctx: &mut NodeContext<'_>,
        offers: &[SkiRental],
    ) -> Result<(), String> {
        match self {
            SkiNode::Wire(app) | SkiNode::SrJxta(app) => {
                for offer in offers {
                    app.publish_offer(ctx, offer)?;
                }
                Ok(())
            }
            SkiNode::SrTps(app) => app.publish_offer_batch(ctx, offers),
            SkiNode::Flyweight(_) => Err("flyweight peers are subscribe-only".to_owned()),
        }
    }

    /// The underlying JXTA peer, whatever the flavour.
    ///
    /// # Panics
    ///
    /// Panics for the flyweight variant, which carries no JXTA stack — use
    /// [`SkiNode::peer_opt`] when flyweights may be in the population.
    pub fn peer_ref(&self) -> &jxta::JxtaPeer {
        self.peer_opt()
            .expect("flyweight peers carry no JXTA stack; use peer_opt")
    }

    /// The underlying JXTA peer, or `None` for the flyweight variant.
    pub fn peer_opt(&self) -> Option<&jxta::JxtaPeer> {
        match self {
            SkiNode::Wire(app) | SkiNode::SrJxta(app) => Some(app.peer()),
            SkiNode::SrTps(app) => Some(app.engine().peer()),
            SkiNode::Flyweight(_) => None,
        }
    }

    /// The rendezvous peer this node currently leases with, whatever the
    /// flavour (flyweights included), or `None` while unconnected.
    pub fn leased_rendezvous(&self) -> Option<PeerId> {
        let lease = match self {
            SkiNode::Flyweight(fly) => fly.lease(),
            _ => self.peer_ref().rendezvous().connection(),
        };
        lease.map(|lease| lease.rdv)
    }

    /// The flyweight edge, for the flyweight variant only.
    pub fn flyweight_ref(&self) -> Option<&FlyweightEdge> {
        match self {
            SkiNode::Flyweight(fly) => Some(fly),
            _ => None,
        }
    }

    /// Installs a shared trace collector, whatever the flavour: the TPS
    /// flavour traces through the engine (which owns the terminal delivery
    /// verdicts), the JXTA flavours directly through the peer.
    pub fn set_trace_collector(&mut self, tracer: jxta::SharedTraceCollector) {
        match self {
            SkiNode::Wire(app) | SkiNode::SrJxta(app) => app.set_trace_collector(tracer),
            SkiNode::SrTps(app) => app.set_trace_collector(tracer),
            // Flyweights are deliberately outside the tracing plane: per-copy
            // spans at 100k subscribers would dwarf the population itself.
            SkiNode::Flyweight(_) => {}
        }
    }

    /// The TPS engine, for the SR-TPS flavour only (the JXTA flavours have
    /// no engine-level metrics surface).
    pub fn engine_ref(&self) -> Option<&tps::TpsEngine> {
        match self {
            SkiNode::SrTps(app) => Some(app.engine()),
            SkiNode::Wire(_) | SkiNode::SrJxta(_) | SkiNode::Flyweight(_) => None,
        }
    }

    /// Virtual arrival times of every offer received so far.
    pub fn received_times(&self) -> Vec<SimTime> {
        match self {
            SkiNode::Wire(app) | SkiNode::SrJxta(app) => app.received().iter().map(|(t, _)| *t).collect(),
            SkiNode::SrTps(app) => app.received().iter().map(|(t, _)| *t).collect(),
            SkiNode::Flyweight(fly) => fly.mailbox().iter().map(|&(t, _)| t).collect(),
        }
    }

    /// How many offers were received.
    pub fn received_count(&self) -> usize {
        match self {
            SkiNode::Wire(app) | SkiNode::SrJxta(app) => app.received().len(),
            SkiNode::SrTps(app) => app.received().len(),
            SkiNode::Flyweight(fly) => fly.received_count(),
        }
    }
}

impl simnet::SimNode for SkiNode {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        match self {
            SkiNode::Wire(app) | SkiNode::SrJxta(app) => simnet::SimNode::on_start(app.as_mut(), ctx),
            SkiNode::SrTps(app) => simnet::SimNode::on_start(app.as_mut(), ctx),
            SkiNode::Flyweight(fly) => simnet::SimNode::on_start(fly, ctx),
        }
    }

    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, datagram: Datagram) {
        match self {
            SkiNode::Wire(app) | SkiNode::SrJxta(app) => app.on_datagram(ctx, datagram),
            SkiNode::SrTps(app) => app.on_datagram(ctx, datagram),
            SkiNode::Flyweight(fly) => simnet::SimNode::on_datagram(fly, ctx, datagram),
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, token: TimerToken, tag: u64) {
        match self {
            SkiNode::Wire(app) | SkiNode::SrJxta(app) => app.on_timer(ctx, token, tag),
            SkiNode::SrTps(app) => app.on_timer(ctx, token, tag),
            SkiNode::Flyweight(fly) => simnet::SimNode::on_timer(fly, ctx, token, tag),
        }
    }

    fn on_address_changed(&mut self, ctx: &mut NodeContext<'_>, old: SimAddress, new: SimAddress) {
        match self {
            SkiNode::Wire(app) | SkiNode::SrJxta(app) => app.on_address_changed(ctx, old, new),
            SkiNode::SrTps(app) => app.on_address_changed(ctx, old, new),
            SkiNode::Flyweight(fly) => simnet::SimNode::on_address_changed(fly, ctx, old, new),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(Flavor::JxtaWire.label(), "JXTA-WIRE");
        assert_eq!(Flavor::SrJxta.label(), "SR-JXTA");
        assert_eq!(Flavor::SrTps.to_string(), "SR-TPS");
        assert_eq!(Flavor::ALL.len(), 3);
    }

    #[test]
    fn nodes_construct_for_every_flavor_and_role() {
        for flavor in Flavor::ALL {
            for role in [Role::Publisher, Role::Subscriber] {
                let node = SkiNode::boxed_with_dissemination(
                    flavor,
                    role,
                    "peer",
                    vec![],
                    CostModel::free(),
                    jxta::DisseminationConfig::default(),
                );
                assert_eq!(node.received_count(), 0);
                assert!(node.received_times().is_empty());
            }
        }
    }

    #[test]
    fn a_node_is_sized_by_the_flyweight() {
        // The kernel boxes every node at the enum's size, so a full peer's
        // inline state would be paid by every flyweight subscriber.
        assert!(std::mem::size_of::<SkiNode>() <= std::mem::size_of::<FlyweightEdge>() + 16);
    }
}

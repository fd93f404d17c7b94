//! A ready-made simulation node hosting a TPS engine.
//!
//! Applications that need custom behaviour implement [`simnet::SimNode`]
//! themselves and embed a [`TpsEngine`]; for examples, tests and the
//! measurement harness, `TpsHost` is the "just give me a peer running TPS"
//! node: it forwards every lifecycle hook to the engine and exposes it as a
//! public field so that scenarios drive it through
//! [`simnet::Network::invoke`].

use crate::engine::{TpsConfig, TpsEngine};
use simnet::{Datagram, NodeContext, SimAddress, SimNode, TimerToken};

/// A simulation node that runs a single [`TpsEngine`].
#[derive(Debug)]
pub struct TpsHost {
    /// The hosted engine.
    pub engine: TpsEngine,
}

impl TpsHost {
    /// Creates a host from a TPS configuration.
    pub fn new(config: TpsConfig) -> Self {
        TpsHost {
            engine: TpsEngine::new(config),
        }
    }

    /// Creates a boxed host, convenient for `NetworkBuilder::add_node`.
    pub fn boxed(config: TpsConfig) -> Box<Self> {
        Box::new(Self::new(config))
    }

    /// A session for minting owned [`crate::session::Publisher`] /
    /// [`crate::session::Subscriber`] handles; the handles may be moved out
    /// of the simulation (e.g. returned from `Network::invoke`) and used
    /// between `run_for` calls.
    pub fn session(&self) -> crate::session::Session {
        self.engine.session()
    }
}

impl SimNode for TpsHost {
    fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
        self.engine.on_start(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, datagram: Datagram) {
        self.engine.on_datagram(ctx, &datagram);
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _token: TimerToken, tag: u64) {
        self.engine.on_timer(ctx, tag);
    }

    fn on_address_changed(&mut self, ctx: &mut NodeContext<'_>, old: SimAddress, new: SimAddress) {
        self.engine.on_address_changed(ctx, old, new);
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
    use crate::event::TpsEvent;
    use jxta::peer::{CostModel, PeerConfig};
    use simnet::{NetworkBuilder, NodeConfig, SimDuration, SubnetId};

    #[derive(Debug, Clone, PartialEq)]
    struct SkiRental {
        shop: String,
        price: f32,
        brand: String,
        number_of_days: f32,
    }
    impl TpsEvent for SkiRental {
        const TYPE_NAME: &'static str = "SkiRental";
        crate::event_fields!(shop, price, brand, number_of_days);
    }

    fn config(name: &str, seeds: Vec<simnet::SimAddress>) -> TpsConfig {
        TpsConfig::new(name).with_peer(
            PeerConfig::edge(name)
                .with_seeds(seeds)
                .with_costs(CostModel::free()),
        )
    }

    #[test]
    fn publish_subscribe_end_to_end_on_a_simulated_network() {
        let mut builder = NetworkBuilder::new(7);
        let rdv_config =
            TpsConfig::new("rdv").with_peer(PeerConfig::rendezvous("rdv").with_costs(CostModel::free()));
        let _rdv = builder.add_node(TpsHost::boxed(rdv_config), NodeConfig::lan_peer(SubnetId(0)));
        let rdv_addr = jxta::peer::lan_address(0);
        let publisher = builder.add_node(
            TpsHost::boxed(config("shop", vec![rdv_addr])),
            NodeConfig::lan_peer(SubnetId(0)),
        );
        let subscriber = builder.add_node(
            TpsHost::boxed(config("skier", vec![rdv_addr])),
            NodeConfig::lan_peer(SubnetId(0)),
        );
        let mut net = builder.build();
        net.run_for(SimDuration::from_secs(2));

        // v2 handles: mint them inside the simulation, hold them outside it.
        let inbox =
            net.invoke::<TpsHost, _>(subscriber, |host, _ctx| host.session().subscriber::<SkiRental>());
        let _guard = inbox.subscribe_pull();
        net.run_for(SimDuration::from_secs(15));
        let offers =
            net.invoke::<TpsHost, _>(publisher, |host, _ctx| host.session().publisher::<SkiRental>());
        offers
            .publish(&SkiRental {
                shop: "XTremShop".into(),
                price: 14.0,
                brand: "Salomon".into(),
                number_of_days: 100.0,
            })
            .unwrap();
        net.run_for(SimDuration::from_secs(10));

        let received = inbox.drain();
        assert_eq!(
            received.len(),
            1,
            "the subscriber should have received exactly one offer"
        );
        assert_eq!(received[0].shop, "XTremShop");
        let sent = net
            .node_ref::<TpsHost>(publisher)
            .unwrap()
            .engine
            .objects_sent::<SkiRental>();
        assert_eq!(sent.len(), 1);
    }
}

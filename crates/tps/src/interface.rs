//! The v1 typed facade over the engine: the paper's `TPSInterface<Type>`,
//! kept as a **paper-fidelity adapter** over the v2 core.
//!
//! ```text
//! public interface TPSInterface<Type> {
//!     void publish(Type type);                                   // (1)
//!     void subscribe(cb, exh);                                   // (2)
//!     void subscribe(cb[], exh[]);                               // (3)
//!     void unsubscribe(cb, exh);                                 // (4)
//!     void unsubscribe();                                        // (5)
//!     Vector objectsReceived();                                  // (6)
//!     Vector objectsSent();                                      // (7)
//! }
//! ```
//!
//! The Rust rendition is a short-lived typed view borrowed from the
//! [`TpsEngine`] (obtained with [`TpsEngine::interface`] via
//! [`TpsInterfaceExt`]); subscriptions are identified by the
//! [`SubscriptionId`] returned at subscribe time. Because the view borrows
//! the engine mutably, only one interface can exist at a time — that
//! restriction (absent from the Java original, which hands out callback
//! objects) is exactly what the owned-handle session API
//! ([`crate::session`]) removes. New code should prefer
//! [`TpsEngine::session`](crate::engine::TpsEngine::session); this facade
//! stays for literal method-by-method correspondence with the published API
//! and routes through the same publish/subscribe core as the handles.

use crate::callback::{TpsCallBack, TpsExceptionHandler};
use crate::criteria::Criteria;
use crate::engine::{SubscriptionId, TpsEngine};
use crate::error::PsException;
use crate::event::TpsEvent;
use simnet::NodeContext;
use std::marker::PhantomData;

/// A boxed call-back / exception-handler pair with an optional content
/// filter, as accepted by [`TpsInterface::subscribe_many`] (`None` filters
/// nothing, like the paper's `null` criteria).
pub type CallbackPair<T> = (
    Box<dyn TpsCallBack<T>>,
    Box<dyn TpsExceptionHandler<T>>,
    Option<Criteria<T>>,
);

/// A typed view over a [`TpsEngine`] for one event type.
pub struct TpsInterface<'e, T: TpsEvent> {
    engine: &'e mut TpsEngine,
    _marker: PhantomData<T>,
}

/// Extension trait providing the `interface::<T>()` constructor (kept as a
/// trait so the engine's inherent API stays free of type parameters that only
/// matter to the facade).
pub trait TpsInterfaceExt {
    /// A typed interface for event type `T` (the paper's
    /// `TPSEngine.newInterface`).
    fn interface<T: TpsEvent>(&mut self) -> TpsInterface<'_, T>;
}

impl TpsInterfaceExt for TpsEngine {
    fn interface<T: TpsEvent>(&mut self) -> TpsInterface<'_, T> {
        self.register_type::<T>();
        TpsInterface {
            engine: self,
            _marker: PhantomData,
        }
    }
}

impl<'e, T: TpsEvent> TpsInterface<'e, T> {
    /// Publishes an instance of the type as an event to the subscribers
    /// (method (1) of the paper's API).
    ///
    /// # Errors
    ///
    /// Returns [`PsException`] when marshalling or the underlying pipes fail.
    pub fn publish(&mut self, ctx: &mut NodeContext<'_>, event: T) -> Result<(), PsException> {
        self.engine.publish(ctx, &event)
    }

    /// Subscribes with a call-back object and an exception handler
    /// (method (2)).
    pub fn subscribe(
        &mut self,
        ctx: &mut NodeContext<'_>,
        callback: impl TpsCallBack<T>,
        exception_handler: impl TpsExceptionHandler<T>,
    ) -> SubscriptionId {
        self.engine
            .subscribe(ctx, callback, exception_handler, Criteria::any())
    }

    /// Subscribes with an additional content filter (the `Criteria` parameter
    /// of the paper's `newInterface`).
    // detlint::allow(D007, reason = "paper API (2): subscribe with the criteria of newInterface")
    pub fn subscribe_with(
        &mut self,
        ctx: &mut NodeContext<'_>,
        callback: impl TpsCallBack<T>,
        exception_handler: impl TpsExceptionHandler<T>,
        criteria: Criteria<T>,
    ) -> SubscriptionId {
        self.engine.subscribe(ctx, callback, exception_handler, criteria)
    }

    /// Registers several call-back objects at once, "to handle the events in
    /// different ways" (method (3): console + GUI in the paper's example).
    /// Each pair carries its own optional content filter.
    // detlint::allow(D007, reason = "paper API (3): several call-back objects at once")
    pub fn subscribe_many(
        &mut self,
        ctx: &mut NodeContext<'_>,
        pairs: Vec<CallbackPair<T>>,
    ) -> Vec<SubscriptionId> {
        pairs
            .into_iter()
            .map(|(cb, exh, criteria)| {
                self.engine.subscribe(
                    ctx,
                    BoxedCallback(cb),
                    BoxedHandler(exh),
                    criteria.unwrap_or_default(),
                )
            })
            .collect()
    }

    /// Removes one subscription (method (4)).
    ///
    /// # Errors
    ///
    /// Returns [`PsException::UnknownSubscription`] if the id is not live.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), PsException> {
        self.engine.unsubscribe(id)
    }

    /// Removes every subscription of this type (method (5), scoped to `T`).
    // detlint::allow(D007, reason = "paper API (5): the parameterless unsubscribe")
    pub fn unsubscribe_all(&mut self) {
        self.engine.unsubscribe_type::<T>();
    }

    /// The events of this type received so far (method (6); a bounded view
    /// of the newest 1 024).
    pub fn objects_received(&self) -> Vec<T> {
        self.engine.objects_received::<T>()
    }

    /// The events of this type sent so far (method (7); a bounded view).
    pub fn objects_sent(&self) -> Vec<T> {
        self.engine.objects_sent::<T>()
    }
}

struct BoxedCallback<T>(Box<dyn TpsCallBack<T>>);

impl<T: 'static> TpsCallBack<T> for BoxedCallback<T> {
    fn handle(&mut self, event: T) -> Result<(), crate::error::CallBackException> {
        self.0.handle(event)
    }
}

struct BoxedHandler<T>(Box<dyn TpsExceptionHandler<T>>);

impl<T: 'static> TpsExceptionHandler<T> for BoxedHandler<T> {
    fn handle(&mut self, error: &PsException) {
        self.0.handle(error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TpsConfig;

    #[derive(Debug, Clone, PartialEq)]
    struct SkiRental {
        shop: String,
        price: f32,
    }
    impl TpsEvent for SkiRental {
        const TYPE_NAME: &'static str = "SkiRental";
        crate::event_fields!(shop, price);
    }

    #[test]
    fn interface_registers_the_type() {
        let mut engine = TpsEngine::new(TpsConfig::new("alice"));
        {
            let _facade: TpsInterface<'_, SkiRental> = engine.interface::<SkiRental>();
        }
        assert!(engine.registry().knows("SkiRental"));
    }

    #[test]
    fn objects_logs_start_empty() {
        let mut engine = TpsEngine::new(TpsConfig::new("alice"));
        let facade = engine.interface::<SkiRental>();
        assert!(facade.objects_received().is_empty());
        assert!(facade.objects_sent().is_empty());
    }
}

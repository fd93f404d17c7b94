//! # tps — Type-based Publish/Subscribe over JXTA
//!
//! This crate is the reproduction of the core contribution of *"OS Support
//! for P2P Programming: a Case for TPS"* (Baehni, Eugster, Guerraoui —
//! ICDCS 2002): a **Type-based Publish/Subscribe** layer offering RPC-grade
//! simplicity, type safety and encapsulation, while preserving the time,
//! space and flow decoupling of P2P applications. It sits on the from-scratch
//! [`jxta`] substrate, which in turn runs on the [`simnet`] discrete-event
//! network simulator.
//!
//! * The **subject** of a publication is the event's Rust type
//!   ([`TpsEvent::TYPE_NAME`]); the **content** is the state of the instance.
//! * Subscribers to a type also receive instances of its declared subtypes
//!   (the paper's Figure 7), structurally projected onto the supertype by the
//!   event codec ([`codec`]), which skips the fields the supertype lacks.
//! * The programmer-facing API is the v2 **session** layer: owned, cloneable
//!   typed handles ([`Publisher`], [`Subscriber`]) minted from
//!   [`TpsEngine::session`], with callback *and* pull-mode consumption,
//!   drop-to-unsubscribe [`SubscriptionGuard`]s and batched publication
//!   ([`Publisher::publish_batch`]).
//!
//! ## The four phases of a TPS application (paper Figure 14, v2 handles)
//!
//! 1. **Type definition** — define a plain struct and implement
//!    [`TpsEvent`], listing its fields with [`event_fields!`].
//! 2. **Initialisation** — create a [`TpsEngine`] (one per peer) and take a
//!    [`Session`] from it; mint as many [`Publisher<T>`] and
//!    [`Subscriber<T>`] handles as the application needs. Handles do not
//!    borrow the engine: they enqueue commands into the engine's mailbox,
//!    which wakes the engine's node and is drained at the same virtual
//!    instant, so they can be held alongside one another and across
//!    simulation steps.
//! 3. **Subscription** — `subscriber.subscribe(callback, exception_handler)`
//!    for the paper's push style, or `subscriber.subscribe_pull()` to
//!    consume events at the application's own pace with
//!    [`Subscriber::drain`]. Both return a
//!    [`SubscriptionGuard`]: dropping it unsubscribes, and
//!    `pause()`/`resume()` suspend delivery without losing the subscription.
//! 4. **Publication** — `publisher.publish(&instance)`, or
//!    `publisher.publish_batch(&instances)` to marshal many events into one
//!    wire message.
//!
//! The paper's original `TPSEngine`/`TPSInterface` borrow-based pair is kept
//! verbatim as a thin **paper-fidelity adapter** over the same core:
//! [`TpsInterface`] (via [`TpsInterfaceExt::interface`]) exposes methods
//! (1)–(7) of the published API and routes them through the identical
//! publish/subscribe internals the session handles use.
//!
//! See `examples/quickstart.rs` at the workspace root for the full runnable
//! version of the paper's ski-rental walk-through on the v2 handles.
#![warn(rust_2018_idioms)]

pub mod callback;
pub mod codec;
pub mod criteria;
pub mod engine;
pub mod error;
pub mod event;
pub mod host;
pub mod interface;
pub mod session;

pub use jxta::{DisseminationConfig, StrategyKind};

pub use callback::{
    CallbackFn, CollectingCallback, CountingExceptionHandler, IgnoreExceptions, TpsCallBack,
    TpsExceptionHandler,
};
pub use criteria::Criteria;
pub use engine::{SubscriptionId, TpsConfig, TpsCounters, TpsEngine, TIMER_FINDER, TIMER_MAILBOX};
pub use error::{CallBackException, PsException};
pub use event::{TpsEvent, TypeRegistry};
pub use host::TpsHost;
pub use interface::{CallbackPair, TpsInterface, TpsInterfaceExt};
pub use session::{MailboxPolicy, OverflowPolicy, Publisher, Session, Subscriber, SubscriptionGuard};

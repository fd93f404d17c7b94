//! The v2 programmer-facing TPS API: owned, cloneable typed handles.
//!
//! The paper's `TPSInterface<Type>` (kept in [`crate::interface`] as a
//! paper-fidelity adapter) is a short-lived borrow of the engine, which makes
//! it impossible to hold a publisher and a subscriber at the same time or to
//! keep a handle across simulation steps. The session API removes that
//! restriction:
//!
//! * [`TpsEngine::session`] yields a cloneable [`Session`];
//! * [`Session::publisher`] / [`Session::subscriber`] yield owned typed
//!   handles — [`Publisher<T>`] and [`Subscriber<T>`] — that do **not**
//!   borrow the engine, so any number of them can coexist per node and they
//!   may live outside the simulation (application code can keep them across
//!   `Network::run_for` calls);
//! * handles communicate with the engine through a command mailbox. The
//!   first command into an empty mailbox wakes the engine's node through a
//!   `simnet::Waker`, and the engine drains the mailbox at that same virtual
//!   instant; every lifecycle hook drains it as well, and
//!   [`TpsEngine::pump`] drains it at once when a `NodeContext` is at hand;
//! * [`Subscriber<T>`] supports classic **callback mode** and a **pull
//!   mode** ([`Subscriber::drain`] over a bounded
//!   typed mailbox with a configurable [`OverflowPolicy`]);
//! * subscribing returns a [`SubscriptionGuard`] that unsubscribes on drop
//!   and supports [`SubscriptionGuard::pause`] /
//!   [`SubscriptionGuard::resume`];
//! * [`Publisher::publish_batch`] marshals a slice of events into **one**
//!   multi-event wire message, unwrapped at the subscriber edge — the first
//!   step of the roadmap's batching/aggregation item.
//!
//! [`TpsEngine::session`]: crate::engine::TpsEngine::session
//! [`TpsEngine::pump`]: crate::engine::TpsEngine::pump

use crate::callback::{TpsCallBack, TpsExceptionHandler};
use crate::codec;
use crate::criteria::Criteria;
use crate::engine::SubscriptionId;
use crate::error::PsException;
use crate::event::TpsEvent;
use simnet::Waker;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::rc::Rc;

/// First id handed out to session subscriptions. The v1 facade allocates ids
/// from the engine's own counter starting at 1, so the two spaces never
/// collide.
pub(crate) const SESSION_ID_BASE: u64 = 1 << 32;

/// A boxed delivery closure, identical to the engine's internal one:
/// `(actual_type_name, payload)`.
pub(crate) type DeliveryFn = Box<dyn FnMut(&str, &[u8])>;

/// A command enqueued by a handle, executed when the engine drains its
/// mailbox.
pub(crate) enum SessionCommand {
    /// Register a type's supertype edges with the engine registry.
    RegisterType {
        type_name: &'static str,
        supertypes: &'static [&'static str],
    },
    /// Eagerly open the output channel for a type (handle creation).
    PreparePublisher { type_name: &'static str },
    /// Publish the marshalled payloads as **one** wire message (a single
    /// event when `payloads.len() == 1`, a batch otherwise).
    Publish {
        type_name: &'static str,
        payloads: Vec<Vec<u8>>,
    },
    /// Install a subscription under a pre-allocated id.
    Subscribe {
        id: SubscriptionId,
        type_name: &'static str,
        deliver: DeliveryFn,
    },
    /// Remove a subscription (guard drop or explicit unsubscribe).
    Unsubscribe { id: SubscriptionId },
    /// Suspend delivery to a subscription without removing it.
    Pause { id: SubscriptionId },
    /// Resume delivery to a paused subscription.
    Resume { id: SubscriptionId },
}

impl std::fmt::Debug for SessionCommand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionCommand::RegisterType { type_name, .. } => {
                f.debug_struct("RegisterType").field("type", type_name).finish()
            }
            SessionCommand::PreparePublisher { type_name } => f
                .debug_struct("PreparePublisher")
                .field("type", type_name)
                .finish(),
            SessionCommand::Publish { type_name, payloads } => f
                .debug_struct("Publish")
                .field("type", type_name)
                .field("events", &payloads.len())
                .finish(),
            SessionCommand::Subscribe { id, type_name, .. } => f
                .debug_struct("Subscribe")
                .field("id", id)
                .field("type", type_name)
                .finish(),
            SessionCommand::Unsubscribe { id } => f.debug_struct("Unsubscribe").field("id", id).finish(),
            SessionCommand::Pause { id } => f.debug_struct("Pause").field("id", id).finish(),
            SessionCommand::Resume { id } => f.debug_struct("Resume").field("id", id).finish(),
        }
    }
}

/// State shared between an engine and every handle of its session: the
/// command mailbox, the waker that gets it drained, the session-side id
/// allocator and the deferred-error log.
#[derive(Debug, Default)]
pub(crate) struct SessionShared {
    commands: RefCell<VecDeque<SessionCommand>>,
    waker: RefCell<Option<Waker>>,
    next_id: Cell<u64>,
    errors: RefCell<Vec<PsException>>,
}

impl SessionShared {
    pub(crate) fn new() -> Rc<Self> {
        Rc::new(SessionShared {
            commands: RefCell::new(VecDeque::new()),
            waker: RefCell::new(None),
            next_id: Cell::new(SESSION_ID_BASE),
            errors: RefCell::new(Vec::new()),
        })
    }

    /// Installs the waker [`SessionShared::push`] rings (the engine's, once
    /// its node has started; commands pushed before that are drained by the
    /// start-up pump).
    pub(crate) fn set_waker(&self, waker: Waker) {
        *self.waker.borrow_mut() = Some(waker);
    }

    /// Enqueues a command and, if it is the first one waiting, wakes the
    /// engine: a burst of commands between two drains costs one wake.
    fn push(&self, command: SessionCommand) {
        let mut commands = self.commands.borrow_mut();
        commands.push_back(command);
        if commands.len() == 1 {
            if let Some(waker) = &*self.waker.borrow() {
                waker.wake();
            }
        }
    }

    fn allocate_id(&self) -> SubscriptionId {
        let id = self.next_id.get() + 1;
        self.next_id.set(id);
        SubscriptionId(id)
    }

    /// Moves every pending command out (the engine's drain step).
    pub(crate) fn take_commands(&self) -> VecDeque<SessionCommand> {
        std::mem::take(&mut *self.commands.borrow_mut())
    }

    /// Number of commands waiting for the next drain.
    pub(crate) fn pending(&self) -> usize {
        self.commands.borrow().len()
    }

    /// Records an error raised while executing a command (surfaced through
    /// [`Session::take_errors`], since the enqueuing call already returned).
    pub(crate) fn record_error(&self, error: PsException) {
        self.errors.borrow_mut().push(error);
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// A cloneable capability to mint typed handles for one engine.
///
/// Obtained from [`TpsEngine::session`](crate::engine::TpsEngine::session);
/// every clone (and every handle minted from any clone) feeds the same
/// engine-owned command mailbox.
#[derive(Clone, Debug)]
pub struct Session {
    shared: Rc<SessionShared>,
}

impl Session {
    pub(crate) fn new(shared: Rc<SessionShared>) -> Self {
        Session { shared }
    }

    /// An owned publisher handle for events of type `T`. Creating the handle
    /// eagerly opens the type's output channel at the next drain (the paper
    /// publisher's initialisation phase), so the first publish finds resolved
    /// listeners.
    pub fn publisher<T: TpsEvent>(&self) -> Publisher<T> {
        self.register::<T>();
        self.shared.push(SessionCommand::PreparePublisher {
            type_name: T::TYPE_NAME,
        });
        Publisher {
            shared: Rc::clone(&self.shared),
            _marker: PhantomData,
        }
    }

    /// An owned subscriber handle for events of type `T` (and its subtypes).
    /// The handle is inert until one of its `subscribe*` methods is called.
    pub fn subscriber<T: TpsEvent>(&self) -> Subscriber<T> {
        self.register::<T>();
        Subscriber {
            shared: Rc::clone(&self.shared),
            mailbox: Rc::new(RefCell::new(Mailbox::new(MailboxPolicy::default()))),
            _marker: PhantomData,
        }
    }

    /// Registers `T`'s supertype edges with the engine registry without
    /// publishing or subscribing (needed when a peer should recognise subtype
    /// relationships of types it neither publishes nor subscribes itself).
    pub fn register<T: TpsEvent>(&self) {
        self.shared.push(SessionCommand::RegisterType {
            type_name: T::TYPE_NAME,
            supertypes: T::SUPERTYPES,
        });
    }

    /// Commands enqueued but not yet executed by the engine.
    pub fn pending_commands(&self) -> usize {
        self.shared.pending()
    }

    /// Errors raised while executing previously enqueued commands (publish
    /// failures surface here because the enqueuing call has already
    /// returned). Draining is destructive.
    pub fn take_errors(&self) -> Vec<PsException> {
        std::mem::take(&mut *self.shared.errors.borrow_mut())
    }
}

// ---------------------------------------------------------------------------
// Publisher
// ---------------------------------------------------------------------------

/// An owned, cloneable publishing handle for events of type `T`.
///
/// `publish` marshals immediately (so type errors surface synchronously) and
/// enqueues the payload; the engine sends it at the same virtual instant,
/// when the wake the enqueue raised drains the mailbox.
pub struct Publisher<T: TpsEvent> {
    shared: Rc<SessionShared>,
    _marker: PhantomData<fn(T)>,
}

impl<T: TpsEvent> Clone for Publisher<T> {
    fn clone(&self) -> Self {
        Publisher {
            shared: Rc::clone(&self.shared),
            _marker: PhantomData,
        }
    }
}

impl<T: TpsEvent> std::fmt::Debug for Publisher<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher").field("type", &T::TYPE_NAME).finish()
    }
}

impl<T: TpsEvent> Publisher<T> {
    /// Publishes one event (one wire message per type channel).
    ///
    /// # Errors
    ///
    /// Returns [`PsException::Marshal`] if the event cannot be serialised.
    /// Errors raised later, while the engine executes the command, are
    /// surfaced through [`Session::take_errors`].
    pub fn publish(&self, event: &T) -> Result<(), PsException> {
        let payload = codec::to_vec(event).map_err(|e| PsException::Marshal(e.to_string()))?;
        self.shared.push(SessionCommand::Publish {
            type_name: T::TYPE_NAME,
            payloads: vec![payload],
        });
        Ok(())
    }

    /// Publishes a batch of events as **one** multi-event wire message per
    /// type channel. Subscribers observe the same event sequence as `len()`
    /// single publishes, but the publisher pays the per-message costs
    /// (connection service, padding, fan-out copies) once per batch instead
    /// of once per event.
    ///
    /// # Errors
    ///
    /// Returns [`PsException::Marshal`] if any event cannot be serialised
    /// (the whole batch is then withheld).
    pub fn publish_batch(&self, events: &[T]) -> Result<(), PsException> {
        if events.is_empty() {
            return Ok(());
        }
        let payloads = events
            .iter()
            .map(|event| codec::to_vec(event).map_err(|e| PsException::Marshal(e.to_string())))
            .collect::<Result<Vec<_>, _>>()?;
        self.shared.push(SessionCommand::Publish {
            type_name: T::TYPE_NAME,
            payloads,
        });
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Subscriber + pull-mode mailbox
// ---------------------------------------------------------------------------

/// What a full pull-mode mailbox does with the next event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Evict the oldest queued event to make room (keep the freshest data).
    #[default]
    DropOldest,
    /// Reject the incoming event (keep the oldest backlog intact).
    DropNewest,
}

/// Capacity and overflow behaviour of a pull-mode mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxPolicy {
    /// Maximum number of events held; beyond it, `overflow` applies.
    pub capacity: usize,
    /// What to do with an event arriving at a full mailbox.
    pub overflow: OverflowPolicy,
}

impl Default for MailboxPolicy {
    fn default() -> Self {
        MailboxPolicy {
            capacity: 1024,
            overflow: OverflowPolicy::DropOldest,
        }
    }
}

impl MailboxPolicy {
    /// A bounded policy with the given capacity and the default
    /// (`DropOldest`) overflow behaviour.
    pub fn bounded(capacity: usize) -> Self {
        MailboxPolicy {
            capacity,
            ..MailboxPolicy::default()
        }
    }

    /// Builder-style override of the overflow policy.
    pub fn with_overflow(mut self, overflow: OverflowPolicy) -> Self {
        self.overflow = overflow;
        self
    }
}

#[derive(Debug)]
struct Mailbox<T> {
    queue: VecDeque<T>,
    policy: MailboxPolicy,
    overflow_dropped: u64,
}

impl<T> Mailbox<T> {
    fn new(policy: MailboxPolicy) -> Self {
        Mailbox {
            queue: VecDeque::new(),
            policy,
            overflow_dropped: 0,
        }
    }

    fn push(&mut self, event: T) {
        if self.policy.capacity == 0 {
            // A zero-capacity mailbox rejects everything.
            self.overflow_dropped += 1;
            return;
        }
        if self.queue.len() >= self.policy.capacity {
            self.overflow_dropped += 1;
            match self.policy.overflow {
                OverflowPolicy::DropOldest => {
                    self.queue.pop_front();
                }
                OverflowPolicy::DropNewest => return,
            }
        }
        self.queue.push_back(event);
    }

    /// Installs a new policy and immediately enforces the (possibly smaller)
    /// capacity on the queued backlog, counting evictions as overflow.
    fn set_policy(&mut self, policy: MailboxPolicy) {
        self.policy = policy;
        while self.queue.len() > self.policy.capacity {
            match self.policy.overflow {
                OverflowPolicy::DropOldest => self.queue.pop_front(),
                OverflowPolicy::DropNewest => self.queue.pop_back(),
            };
            self.overflow_dropped += 1;
        }
    }
}

/// An owned, cloneable subscribing handle for events of type `T` (and its
/// subtypes, per the paper's Figure 7 semantics).
///
/// Two consumption modes, freely mixable on one handle:
///
/// * **callback mode** — [`subscribe`](Subscriber::subscribe) delivers
///   through a call-back object as in the paper;
/// * **pull mode** — [`subscribe_pull`](Subscriber::subscribe_pull) routes
///   events into this handle's bounded typed mailbox, consumed with
///   [`drain`](Subscriber::drain).
///
/// Clones share the pull mailbox. Every `subscribe*` call returns a
/// [`SubscriptionGuard`] that unsubscribes when dropped.
pub struct Subscriber<T: TpsEvent> {
    shared: Rc<SessionShared>,
    mailbox: Rc<RefCell<Mailbox<T>>>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: TpsEvent> Clone for Subscriber<T> {
    fn clone(&self) -> Self {
        Subscriber {
            shared: Rc::clone(&self.shared),
            mailbox: Rc::clone(&self.mailbox),
            _marker: PhantomData,
        }
    }
}

impl<T: TpsEvent> std::fmt::Debug for Subscriber<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber")
            .field("type", &T::TYPE_NAME)
            .field("pending", &self.pending())
            .finish()
    }
}

impl<T: TpsEvent> Subscriber<T> {
    /// Callback-mode subscription: the paper's `subscribe(cb, exh)`.
    pub fn subscribe(
        &self,
        callback: impl TpsCallBack<T>,
        exception_handler: impl TpsExceptionHandler<T>,
    ) -> SubscriptionGuard {
        let mut callback = callback;
        let mut exception_handler = exception_handler;
        self.install(Box::new(move |_actual, payload| {
            match codec::from_slice::<T>(payload) {
                Ok(event) => {
                    if let Err(e) = callback.handle(event) {
                        exception_handler.handle(&PsException::Callback(e));
                    }
                }
                Err(e) => exception_handler.handle(&PsException::Unmarshal(e.to_string())),
            }
        }))
    }

    /// Pull-mode subscription with the default [`MailboxPolicy`]: delivered
    /// events queue in this handle's mailbox until consumed with
    /// [`drain`](Subscriber::drain).
    pub fn subscribe_pull(&self) -> SubscriptionGuard {
        self.subscribe_pull_with(MailboxPolicy::default(), Criteria::any())
    }

    /// Pull-mode subscription with an explicit mailbox policy and content
    /// filter.
    ///
    /// The mailbox — and therefore the policy — is shared by every clone of
    /// this handle: the most recent `subscribe_pull_with` call wins, and a
    /// backlog exceeding the new capacity is trimmed immediately (counted in
    /// [`overflow_dropped`](Subscriber::overflow_dropped)).
    pub fn subscribe_pull_with(&self, policy: MailboxPolicy, criteria: Criteria<T>) -> SubscriptionGuard {
        self.mailbox.borrow_mut().set_policy(policy);
        let mailbox = Rc::clone(&self.mailbox);
        self.install(Box::new(move |_actual, payload| {
            if let Ok(event) = codec::from_slice::<T>(payload) {
                if criteria.accepts(&event) {
                    mailbox.borrow_mut().push(event);
                }
            }
        }))
    }

    fn install(&self, deliver: DeliveryFn) -> SubscriptionGuard {
        let id = self.shared.allocate_id();
        self.shared.push(SessionCommand::Subscribe {
            id,
            type_name: T::TYPE_NAME,
            deliver,
        });
        SubscriptionGuard {
            shared: Rc::clone(&self.shared),
            id,
            armed: true,
        }
    }

    /// Drains every queued event, oldest first (pull mode).
    pub fn drain(&self) -> Vec<T> {
        self.mailbox.borrow_mut().queue.drain(..).collect()
    }

    /// Number of events queued in the pull mailbox.
    pub fn pending(&self) -> usize {
        self.mailbox.borrow().queue.len()
    }

    /// Events lost to the mailbox overflow policy so far.
    pub fn overflow_dropped(&self) -> u64 {
        self.mailbox.borrow().overflow_dropped
    }
}

// ---------------------------------------------------------------------------
// SubscriptionGuard
// ---------------------------------------------------------------------------

/// Owns one live subscription: dropping the guard unsubscribes (at the next
/// drain). [`pause`](SubscriptionGuard::pause) /
/// [`resume`](SubscriptionGuard::resume) suspend delivery without giving up
/// the subscription; [`detach`](SubscriptionGuard::detach) leaks it
/// (subscribe-forever, the v1 facade's behaviour).
#[derive(Debug)]
pub struct SubscriptionGuard {
    shared: Rc<SessionShared>,
    id: SubscriptionId,
    armed: bool,
}

impl SubscriptionGuard {
    /// The subscription's engine-wide id.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Suspends delivery: events arriving while paused are **not** queued or
    /// delivered to this subscription (they are still received by the engine
    /// and visible in `objects_received`).
    pub fn pause(&self) {
        self.shared.push(SessionCommand::Pause { id: self.id });
    }

    /// Resumes delivery after [`pause`](SubscriptionGuard::pause). Events
    /// published during the pause window are not replayed.
    pub fn resume(&self) {
        self.shared.push(SessionCommand::Resume { id: self.id });
    }

    /// Explicitly unsubscribes now (equivalent to dropping the guard).
    pub fn unsubscribe(mut self) {
        self.disarm_and_unsubscribe();
    }

    /// Keeps the subscription alive forever, consuming the guard without
    /// unsubscribing.
    pub fn detach(mut self) {
        self.armed = false;
    }

    fn disarm_and_unsubscribe(&mut self) {
        if self.armed {
            self.armed = false;
            self.shared.push(SessionCommand::Unsubscribe { id: self.id });
        }
    }
}

impl Drop for SubscriptionGuard {
    fn drop(&mut self) {
        self.disarm_and_unsubscribe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Offer {
        price: f32,
    }
    impl TpsEvent for Offer {
        const TYPE_NAME: &'static str = "Offer";
        crate::event_fields!(price);
    }

    fn session() -> (Session, Rc<SessionShared>) {
        let shared = SessionShared::new();
        (Session::new(Rc::clone(&shared)), shared)
    }

    #[test]
    fn handles_enqueue_commands_without_an_engine() {
        let (session, shared) = session();
        let publisher = session.publisher::<Offer>();
        publisher.publish(&Offer { price: 1.0 }).unwrap();
        publisher
            .publish_batch(&[Offer { price: 2.0 }, Offer { price: 3.0 }])
            .unwrap();
        publisher.publish_batch(&[]).unwrap(); // empty batches are dropped
                                               // register + prepare + single + batch
        assert_eq!(session.pending_commands(), 4);
        let commands = shared.take_commands();
        assert!(matches!(
            &commands[3],
            SessionCommand::Publish { payloads, .. } if payloads.len() == 2
        ));
        assert_eq!(session.pending_commands(), 0);
    }

    #[test]
    fn guard_drop_enqueues_unsubscribe_and_detach_does_not() {
        let (session, shared) = session();
        let subscriber = session.subscriber::<Offer>();
        let _ = shared.take_commands();
        let first = subscriber.subscribe_pull();
        let second = subscriber.subscribe_pull();
        let (first_id, second_id) = (first.id(), second.id());
        assert_ne!(first_id, second_id);
        assert!(first_id.0 >= SESSION_ID_BASE);
        drop(first);
        second.detach();
        let commands = shared.take_commands();
        // two subscribes, then exactly one unsubscribe (for the dropped guard)
        assert_eq!(commands.len(), 3);
        assert!(matches!(
            &commands[2],
            SessionCommand::Unsubscribe { id } if *id == first_id
        ));
    }

    #[test]
    fn pull_mailbox_overflow_policies() {
        let (session, _shared) = session();
        let subscriber = session.subscriber::<Offer>();
        let guard = subscriber.subscribe_pull_with(MailboxPolicy::bounded(2), Criteria::any());
        for price in [1.0, 2.0, 3.0] {
            subscriber.mailbox.borrow_mut().push(Offer { price });
        }
        // DropOldest keeps the freshest two.
        assert_eq!(subscriber.pending(), 2);
        assert_eq!(subscriber.overflow_dropped(), 1);
        let kept: Vec<f32> = subscriber.drain().iter().map(|o| o.price).collect();
        assert_eq!(kept, vec![2.0, 3.0]);
        assert_eq!(subscriber.pending(), 0);
        guard.detach();

        let drop_newest = session.subscriber::<Offer>();
        let guard = drop_newest.subscribe_pull_with(
            MailboxPolicy::bounded(2).with_overflow(OverflowPolicy::DropNewest),
            Criteria::any(),
        );
        for price in [1.0, 2.0, 3.0] {
            drop_newest.mailbox.borrow_mut().push(Offer { price });
        }
        // DropNewest keeps the oldest two.
        let kept = drop_newest.drain();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].price, 1.0);
        assert_eq!(drop_newest.overflow_dropped(), 1);
        guard.detach();
    }

    #[test]
    fn zero_capacity_mailbox_rejects_everything() {
        let (session, _shared) = session();
        let subscriber = session.subscriber::<Offer>();
        let guard = subscriber.subscribe_pull_with(MailboxPolicy::bounded(0), Criteria::any());
        for price in [1.0, 2.0] {
            subscriber.mailbox.borrow_mut().push(Offer { price });
        }
        assert_eq!(subscriber.pending(), 0, "a zero-capacity mailbox stores nothing");
        assert_eq!(subscriber.overflow_dropped(), 2);
        guard.detach();
    }

    #[test]
    fn policy_change_trims_the_existing_backlog() {
        let (session, _shared) = session();
        let subscriber = session.subscriber::<Offer>();
        let first = subscriber.subscribe_pull(); // default capacity 1024
        for price in [1.0, 2.0, 3.0, 4.0] {
            subscriber.mailbox.borrow_mut().push(Offer { price });
        }
        assert_eq!(subscriber.pending(), 4);
        // A later pull subscription with a smaller bound trims immediately.
        let second = subscriber.subscribe_pull_with(MailboxPolicy::bounded(2), Criteria::any());
        assert_eq!(subscriber.pending(), 2, "backlog must shrink to the new capacity");
        assert_eq!(subscriber.overflow_dropped(), 2);
        assert_eq!(subscriber.drain()[0].price, 3.0, "DropOldest evicts the front");
        first.detach();
        second.detach();
    }

    #[test]
    fn clones_share_the_mailbox_and_the_command_queue() {
        let (session, shared) = session();
        let subscriber = session.subscriber::<Offer>();
        let twin = subscriber.clone();
        twin.mailbox.borrow_mut().push(Offer { price: 9.0 });
        assert_eq!(subscriber.pending(), 1);
        let publisher = session.publisher::<Offer>();
        let publisher_twin = publisher.clone();
        publisher_twin.publish(&Offer { price: 1.0 }).unwrap();
        assert!(shared.pending() > 0);
    }
}

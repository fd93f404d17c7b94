//! Call-back objects and exception handlers — the paper's
//! `TPSCallBackInterface` and `TPSExceptionHandler`.

use crate::error::{CallBackException, PsException};
use std::cell::RefCell;
use std::rc::Rc;

/// Handles events delivered for a subscription (the paper's
/// `TPSCallBackInterface<Type>.handle(Type)`).
///
/// Implementations are owned by the TPS engine; closures are accepted through
/// [`CallbackFn`].
pub trait TpsCallBack<T>: 'static {
    /// Handles one delivered event.
    ///
    /// # Errors
    ///
    /// Returning [`CallBackException`] routes the failure to the subscription's
    /// [`TpsExceptionHandler`] instead of the publisher.
    fn handle(&mut self, event: T) -> Result<(), CallBackException>;
}

/// Handles exceptions raised while delivering events for a subscription (the
/// paper's `TPSExceptionHandler<Type>.handle(Throwable)`).
pub trait TpsExceptionHandler<T>: 'static {
    /// Handles a delivery failure.
    fn handle(&mut self, error: &PsException);
}

/// Adapts a closure into a [`TpsCallBack`].
pub struct CallbackFn<F>(pub F);

impl<T, F> TpsCallBack<T> for CallbackFn<F>
where
    F: FnMut(T) -> Result<(), CallBackException> + 'static,
{
    fn handle(&mut self, event: T) -> Result<(), CallBackException> {
        (self.0)(event)
    }
}

/// A callback that appends every delivered event to a shared vector; the
/// bread-and-butter consumer of examples and tests (the console printer of
/// the paper's `MyCBInterface`).
pub struct CollectingCallback<T> {
    sink: Rc<RefCell<Vec<T>>>,
}

impl<T> CollectingCallback<T> {
    /// Creates the callback and the shared sink it appends to.
    pub fn new() -> (Self, Rc<RefCell<Vec<T>>>) {
        let sink = Rc::new(RefCell::new(Vec::new()));
        (
            CollectingCallback {
                sink: Rc::clone(&sink),
            },
            sink,
        )
    }
}

impl<T: 'static> TpsCallBack<T> for CollectingCallback<T> {
    fn handle(&mut self, event: T) -> Result<(), CallBackException> {
        self.sink.borrow_mut().push(event);
        Ok(())
    }
}

/// An exception handler that counts the failures it sees; useful both in
/// tests and as a default "log and continue" policy.
pub struct CountingExceptionHandler {
    count: Rc<RefCell<u64>>,
}

impl CountingExceptionHandler {
    /// Creates the handler and the shared failure counter.
    pub fn new() -> (Self, Rc<RefCell<u64>>) {
        let count = Rc::new(RefCell::new(0));
        (
            CountingExceptionHandler {
                count: Rc::clone(&count),
            },
            count,
        )
    }
}

impl<T> TpsExceptionHandler<T> for CountingExceptionHandler {
    fn handle(&mut self, _error: &PsException) {
        *self.count.borrow_mut() += 1;
    }
}

/// An exception handler that silently swallows failures (the minimal
/// `MyExHandler` of the paper's example).
#[derive(Debug, Clone, Copy, Default)]
pub struct IgnoreExceptions;

impl<T> TpsExceptionHandler<T> for IgnoreExceptions {
    fn handle(&mut self, _error: &PsException) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_callback_and_handler_adapt() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen_in_cb = Rc::clone(&seen);
        let mut cb = CallbackFn(move |x: u32| {
            if x == 13 {
                Err(CallBackException::new("unlucky"))
            } else {
                seen_in_cb.borrow_mut().push(x);
                Ok(())
            }
        });
        assert!(cb.handle(1).is_ok());
        assert!(cb.handle(13).is_err());
        assert_eq!(*seen.borrow(), vec![1]);
    }

    #[test]
    fn collecting_callback_accumulates() {
        let (mut cb, sink) = CollectingCallback::<String>::new();
        cb.handle("a".to_owned()).unwrap();
        cb.handle("b".to_owned()).unwrap();
        assert_eq!(*sink.borrow(), vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn counting_handler_counts() {
        let (mut handler, count) = CountingExceptionHandler::new();
        TpsExceptionHandler::<u8>::handle(&mut handler, &PsException::UnknownSubscription(2));
        TpsExceptionHandler::<u8>::handle(&mut handler, &PsException::UnknownSubscription(3));
        assert_eq!(*count.borrow(), 2);
        let mut ignore = IgnoreExceptions;
        TpsExceptionHandler::<u8>::handle(&mut ignore, &PsException::UnknownSubscription(4));
    }
}

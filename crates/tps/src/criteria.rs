//! Content-based filtering criteria.
//!
//! "Subscription operations of the type can be used for content-based
//! filtering (encapsulation). So one can easily implement content-based
//! publish/subscribe (hence subject-based) using TPS." A [`Criteria`] is a
//! predicate over the event type, evaluated at the subscriber before the
//! call-back runs; it corresponds to the `Criteria` parameter of the paper's
//! `TPSEngine.newInterface`.

/// A boxed content predicate over events of type `T`.
type Predicate<T> = Box<dyn Fn(&T) -> bool + 'static>;

/// A content filter over events of type `T`.
pub struct Criteria<T> {
    predicate: Option<Predicate<T>>,
    description: String,
}

impl<T> Criteria<T> {
    /// Accepts every event (the `null` criteria of the paper's example).
    pub fn any() -> Self {
        Criteria {
            predicate: None,
            description: "any".to_owned(),
        }
    }

    /// Accepts only events satisfying `predicate`.
    pub fn filter(description: impl Into<String>, predicate: impl Fn(&T) -> bool + 'static) -> Self {
        Criteria {
            predicate: Some(Box::new(predicate)),
            description: description.into(),
        }
    }

    /// Whether an event passes the filter.
    pub fn accepts(&self, event: &T) -> bool {
        match &self.predicate {
            Some(predicate) => predicate(event),
            None => true,
        }
    }

    /// A human-readable description of the filter.
    pub fn description(&self) -> &str {
        &self.description
    }
}

impl<T> Default for Criteria<T> {
    fn default() -> Self {
        Criteria::any()
    }
}

impl<T> std::fmt::Debug for Criteria<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Criteria")
            .field("description", &self.description)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_accepts_everything() {
        let c = Criteria::<i32>::any();
        assert!(c.accepts(&1));
        assert!(c.accepts(&-100));
        assert_eq!(c.description(), "any");
        assert!(Criteria::<i32>::default().accepts(&7));
    }

    #[test]
    fn filter_applies_predicate() {
        let cheap = Criteria::filter("price under 20", |price: &f32| *price < 20.0);
        assert!(cheap.accepts(&14.0));
        assert!(!cheap.accepts(&25.0));
        assert_eq!(cheap.description(), "price under 20");
        assert!(format!("{cheap:?}").contains("price under 20"));
    }
}

//! Event types and the nominal type registry.
//!
//! In TPS "the subject is the event object type and the content is the state
//! of instances of that type". Application-defined event types implement
//! [`TpsEvent`]; the [`TypeRegistry`] records the declared subtype hierarchy
//! (the paper's Figure 7) so that a subscription to a type also receives
//! instances of its subtypes, and the tolerant codec projects those instances
//! onto the supertype's fields.

use crate::codec::{CodecError, Reader, Writer};
use std::collections::{HashMap, HashSet};

/// An application-defined event type.
///
/// The two field methods are what the [`codec`](crate::codec) marshals;
/// [`event_fields!`](crate::event_fields) writes both from the field list.
///
/// # Examples
///
/// ```
/// use tps::TpsEvent;
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct SkiRental { shop: String, price: f32, brand: String, number_of_days: f32 }
///
/// impl TpsEvent for SkiRental {
///     const TYPE_NAME: &'static str = "SkiRental";
///     tps::event_fields!(shop, price, brand, number_of_days);
/// }
///
/// assert_eq!(SkiRental::TYPE_NAME, "SkiRental");
/// assert!(SkiRental::SUPERTYPES.is_empty());
///
/// let offer = SkiRental { shop: "XTremShop".into(), price: 14.0, brand: "Salomon".into(), number_of_days: 100.0 };
/// let bytes = tps::codec::to_vec(&offer).unwrap();
/// assert_eq!(bytes, br#"{"shop":"XTremShop","price":14.0,"brand":"Salomon","number_of_days":100.0}"#);
/// assert_eq!(tps::codec::from_slice::<SkiRental>(&bytes).unwrap(), offer);
/// ```
pub trait TpsEvent: Clone + 'static {
    /// The nominal type name, used as the publish/subscribe subject.
    const TYPE_NAME: &'static str;

    /// The names of the *direct* supertypes of this type (defaults to none).
    ///
    /// Subscribers to any reflexive-transitive supertype receive instances of
    /// this type (structurally projected onto the supertype's fields).
    const SUPERTYPES: &'static [&'static str] = &[];

    /// Writes every field as `"name":value`, in declaration order.
    fn write_fields(&self, out: &mut Writer) -> Result<(), CodecError>;

    /// Reads an instance from one object, skipping fields it does not have.
    fn read_fields(input: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Implements [`TpsEvent::write_fields`] and [`TpsEvent::read_fields`] from
/// a struct's field names, written inside the `impl TpsEvent` block. Every
/// field's type must implement [`codec::Field`](crate::codec::Field).
#[macro_export]
macro_rules! event_fields {
    ($($field:ident),+ $(,)?) => {
        fn write_fields(
            &self,
            out: &mut $crate::codec::Writer,
        ) -> ::core::result::Result<(), $crate::codec::CodecError> {
            $(out.field(::core::stringify!($field), &self.$field)?;)+
            ::core::result::Result::Ok(())
        }

        fn read_fields(
            input: &mut $crate::codec::Reader<'_>,
        ) -> ::core::result::Result<Self, $crate::codec::CodecError> {
            $(let mut $field = ::core::option::Option::None;)+
            input.object(|input, key| {
                match key {
                    $(::core::stringify!($field) =>
                        $field = ::core::option::Option::Some($crate::codec::Field::read(input)?),)+
                    _ => input.skip()?,
                }
                ::core::result::Result::Ok(())
            })?;
            ::core::result::Result::Ok(Self {
                $($field: $crate::codec::required($field, ::core::stringify!($field))?,)+
            })
        }
    };
}

/// The nominal subtype hierarchy known to one TPS engine.
///
/// Registration is idempotent; the subtype relation is reflexive and
/// transitive, and multiple supertypes per type are allowed (the paper's
/// Figure 7 has `D` below both `B` and `C`).
#[derive(Debug, Clone, Default)]
pub struct TypeRegistry {
    supertypes: HashMap<String, Vec<String>>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        TypeRegistry::default()
    }

    /// Registers an event type and its declared supertype edges.
    pub fn register<T: TpsEvent>(&mut self) {
        self.register_raw(
            T::TYPE_NAME,
            T::SUPERTYPES
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
        );
    }

    /// Registers a type by name (used when only the name is known, e.g. for
    /// types seen on the wire but not linked into this peer).
    pub fn register_raw(&mut self, type_name: &str, declared: Vec<String>) {
        let entry = self.supertypes.entry(type_name.to_owned()).or_default();
        for sup in declared {
            if !entry.contains(&sup) {
                entry.push(sup);
            }
        }
    }

    /// Whether the type has been registered (directly or as a supertype).
    pub fn knows(&self, type_name: &str) -> bool {
        self.supertypes.contains_key(type_name)
            || self
                .supertypes
                .values()
                .any(|sups| sups.iter().any(|s| s == type_name))
    }

    /// Whether `candidate` is `ancestor` or a (transitive) subtype of it.
    pub fn is_subtype_of(&self, candidate: &str, ancestor: &str) -> bool {
        if candidate == ancestor {
            return true;
        }
        let mut visited = HashSet::new();
        let mut stack = vec![candidate.to_owned()];
        while let Some(current) = stack.pop() {
            if !visited.insert(current.clone()) {
                continue;
            }
            if let Some(parents) = self.supertypes.get(&current) {
                for parent in parents {
                    if parent == ancestor {
                        return true;
                    }
                    stack.push(parent.clone());
                }
            }
        }
        false
    }

    /// All ancestors of a type, including the type itself, in deterministic
    /// order (the set of subjects an instance of `type_name` is published
    /// under).
    pub fn ancestors_of(&self, type_name: &str) -> Vec<String> {
        let mut result = vec![type_name.to_owned()];
        let mut visited: HashSet<String> = result.iter().cloned().collect();
        let mut index = 0;
        while index < result.len() {
            let current = result[index].clone();
            if let Some(parents) = self.supertypes.get(&current) {
                for parent in parents {
                    if visited.insert(parent.clone()) {
                        result.push(parent.clone());
                    }
                }
            }
            index += 1;
        }
        let (head, tail) = result.split_at_mut(1);
        tail.sort();
        let _ = head;
        result
    }

    /// The number of registered types.
    pub fn len(&self) -> usize {
        self.supertypes.len()
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.supertypes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct A {
        common: u32,
    }
    impl TpsEvent for A {
        const TYPE_NAME: &'static str = "A";
        crate::event_fields!(common);
    }

    #[derive(Debug, Clone)]
    struct B {
        common: u32,
        extra_b: String,
    }
    impl TpsEvent for B {
        const TYPE_NAME: &'static str = "B";
        crate::event_fields!(common, extra_b);
        const SUPERTYPES: &'static [&'static str] = &["A"];
    }

    #[derive(Debug, Clone)]
    struct C {
        common: u32,
        extra_c: bool,
    }
    impl TpsEvent for C {
        const TYPE_NAME: &'static str = "C";
        crate::event_fields!(common, extra_c);
        const SUPERTYPES: &'static [&'static str] = &["A"];
    }

    #[derive(Debug, Clone)]
    struct D {
        common: u32,
        extra_b: String,
        extra_c: bool,
        extra_d: f64,
    }
    impl TpsEvent for D {
        const TYPE_NAME: &'static str = "D";
        crate::event_fields!(common, extra_b, extra_c, extra_d);
        const SUPERTYPES: &'static [&'static str] = &["B", "C"];
    }

    fn figure7() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        reg.register::<A>();
        reg.register::<B>();
        reg.register::<C>();
        reg.register::<D>();
        reg
    }

    #[test]
    fn subtype_relation_is_reflexive_and_transitive() {
        let reg = figure7();
        assert!(reg.is_subtype_of("A", "A"));
        assert!(reg.is_subtype_of("B", "A"));
        assert!(reg.is_subtype_of("D", "A"));
        assert!(reg.is_subtype_of("D", "B"));
        assert!(reg.is_subtype_of("D", "C"));
        assert!(!reg.is_subtype_of("A", "B"));
        assert!(!reg.is_subtype_of("B", "C"));
    }

    #[test]
    fn ancestors_match_figure_7_flows() {
        let reg = figure7();
        assert_eq!(
            reg.ancestors_of("D"),
            vec!["D".to_owned(), "A".into(), "B".into(), "C".into()]
        );
        assert_eq!(reg.ancestors_of("B"), vec!["B".to_owned(), "A".into()]);
        assert_eq!(reg.ancestors_of("A"), vec!["A".to_owned()]);
        // Unknown types are their own only ancestor.
        assert_eq!(reg.ancestors_of("Z"), vec!["Z".to_owned()]);
    }

    #[test]
    fn registration_is_idempotent() {
        let mut reg = figure7();
        let before = reg.len();
        reg.register::<D>();
        reg.register::<D>();
        assert_eq!(reg.len(), before);
        assert!(reg.knows("D"));
        assert!(reg.knows("A"));
        assert!(!reg.knows("Z"));
    }

    #[test]
    fn cycles_do_not_hang_lookup() {
        let mut reg = TypeRegistry::new();
        reg.register_raw("X", vec!["Y".into()]);
        reg.register_raw("Y", vec!["X".into()]);
        assert!(reg.is_subtype_of("X", "Y"));
        assert!(reg.is_subtype_of("Y", "X"));
        assert!(!reg.is_subtype_of("X", "Z"));
        let ancestors = reg.ancestors_of("X");
        assert!(ancestors.contains(&"Y".to_owned()));
    }
}

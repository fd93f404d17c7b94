//! The application event types of the evaluation.
//!
//! `SkiRental` is the paper's type (Section 4.3.1): shop name, price, brand
//! and rental duration. For the subtype-delivery experiments (Figure 7) the
//! reproduction adds a small hierarchy around it: a generic `RentalOffer`
//! supertype and a `SnowboardRental` sibling.

use tps::TpsEvent;

/// The generic rental offer supertype (`A` in the paper's Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct RentalOffer {
    /// The shop making the offer.
    pub shop: String,
    /// The price in CHF per day.
    pub price: f32,
}

impl TpsEvent for RentalOffer {
    const TYPE_NAME: &'static str = "RentalOffer";
    tps::event_fields!(shop, price);
}

/// The paper's ski-rental offer type.
#[derive(Debug, Clone, PartialEq)]
pub struct SkiRental {
    /// The shop making the offer.
    pub shop: String,
    /// The price in CHF per day.
    pub price: f32,
    /// The ski brand on offer.
    pub brand: String,
    /// The rental duration the offer is valid for, in days.
    pub number_of_days: f32,
}

impl SkiRental {
    /// Creates an offer (same argument order as the paper's constructor).
    pub fn new(shop: impl Into<String>, brand: impl Into<String>, price: f32, number_of_days: f32) -> Self {
        SkiRental {
            shop: shop.into(),
            price,
            brand: brand.into(),
            number_of_days,
        }
    }
}

impl TpsEvent for SkiRental {
    const TYPE_NAME: &'static str = "SkiRental";
    tps::event_fields!(shop, price, brand, number_of_days);
}

impl std::fmt::Display for SkiRental {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} offers {} skis at {:.2} CHF/day for {} days",
            self.shop, self.brand, self.price, self.number_of_days
        )
    }
}

/// A sibling subtype used by the hierarchy examples and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct SnowboardRental {
    /// The shop making the offer.
    pub shop: String,
    /// The price in CHF per day.
    pub price: f32,
    /// The board length in centimetres.
    pub board_length_cm: u16,
}

impl TpsEvent for SnowboardRental {
    const TYPE_NAME: &'static str = "SnowboardRental";
    const SUPERTYPES: &'static [&'static str] = &["RentalOffer"];
    tps::event_fields!(shop, price, board_length_cm);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps::TypeRegistry;

    #[test]
    fn hierarchy_is_declared() {
        let mut registry = TypeRegistry::new();
        registry.register::<RentalOffer>();
        registry.register::<SkiRental>();
        registry.register::<SnowboardRental>();
        assert!(registry.is_subtype_of("SnowboardRental", "RentalOffer"));
        assert!(!registry.is_subtype_of("RentalOffer", "SnowboardRental"));
        // The paper's SkiRental type is flat (static flavour of TPS).
        assert!(!registry.is_subtype_of("SkiRental", "SnowboardRental"));
    }

    #[test]
    fn ski_rental_projects_onto_rental_offer() {
        let offer = SkiRental::new("XTremShop", "Salomon", 14.0, 100.0);
        let bytes = tps::codec::to_vec(&offer).unwrap();
        let supertype: RentalOffer = tps::codec::from_slice(&bytes).unwrap();
        assert_eq!(supertype.shop, "XTremShop");
        assert_eq!(supertype.price, 14.0);
    }

    #[test]
    fn display_is_readable() {
        let offer = SkiRental::new("XTremShop", "Salomon", 14.0, 100.0);
        let text = offer.to_string();
        assert!(text.contains("XTremShop"));
        assert!(text.contains("Salomon"));
    }
}

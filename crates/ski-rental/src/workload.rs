//! Deterministic workload generation: streams of ski-rental offers.

use crate::types::SkiRental;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The ski brands the generator draws from.
const BRANDS: [&str; 6] = ["Salomon", "Rossignol", "Atomic", "Head", "Fischer", "Völkl"];
/// The shops the generator draws from.
const SHOPS: [&str; 5] = [
    "XTremShop",
    "AlpinCenter",
    "GlacierSports",
    "PowderPro",
    "EdgeWorks",
];

/// A deterministic generator of ski-rental offers.
#[derive(Debug)]
pub struct OfferGenerator {
    rng: StdRng,
    counter: u64,
}

impl OfferGenerator {
    /// Creates a generator; equal seeds produce equal offer streams.
    pub fn new(seed: u64) -> Self {
        OfferGenerator {
            rng: StdRng::seed_from_u64(seed),
            counter: 0,
        }
    }

    /// The next offer in the stream.
    pub fn next_offer(&mut self) -> SkiRental {
        self.counter += 1;
        let shop = SHOPS[self.rng.gen_range(0..SHOPS.len())];
        let brand = BRANDS[self.rng.gen_range(0..BRANDS.len())];
        let price = (self.rng.gen_range(80..400) as f32) / 10.0;
        let days = self.rng.gen_range(1..15) as f32;
        SkiRental::new(format!("{shop}-{}", self.counter), brand, price, days)
    }

    /// Generates a batch of offers.
    pub fn batch(&mut self, count: usize) -> Vec<SkiRental> {
        (0..count).map(|_| self.next_offer()).collect()
    }
}

impl Iterator for OfferGenerator {
    type Item = SkiRental;
    fn next(&mut self) -> Option<SkiRental> {
        Some(self.next_offer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a: Vec<_> = OfferGenerator::new(1).batch(10);
        let b: Vec<_> = OfferGenerator::new(1).batch(10);
        let c: Vec<_> = OfferGenerator::new(2).batch(10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn offers_are_plausible() {
        let mut generator = OfferGenerator::new(3);
        for offer in generator.by_ref().take(100) {
            assert!(offer.price >= 8.0 && offer.price <= 40.0);
            assert!(offer.number_of_days >= 1.0 && offer.number_of_days < 15.0);
            assert!(!offer.shop.is_empty());
        }
        assert_eq!(generator.counter, 100);
    }
}

//! Shared data types of the boutique, mirroring the Online Boutique demo's
//! protobuf messages.
//!
//! Every type derives `WeaverData`, the non-versioned encoding the
//! prototype path speaks. The types the microservices baseline carries also
//! derive `TaggedData`, its protobuf-shaped encoding of the *same* structs,
//! so the two formats are compared on identical data.

use weaver_macros::{TaggedData, WeaverData};

/// An amount of money, protobuf `Money`-style: whole `units` plus `nanos`
/// (1e-9) of the unit, both same-signed.
#[derive(Debug, Clone, Default, PartialEq, Eq, WeaverData, TaggedData)]
pub struct Money {
    /// ISO 4217 currency code, e.g. `"USD"`.
    pub currency_code: String,
    /// Whole currency units.
    pub units: i64,
    /// Nano-units, `|nanos| < 1_000_000_000`, same sign as `units`.
    pub nanos: i32,
}

impl Money {
    /// Builds a money value, normalizing nano overflow and sign.
    pub fn new(currency_code: impl Into<String>, units: i64, nanos: i32) -> Money {
        let mut m = Money {
            currency_code: currency_code.into(),
            units,
            nanos,
        };
        m.normalize();
        m
    }

    /// Total value in nano-units.
    pub fn total_nanos(&self) -> i128 {
        i128::from(self.units) * 1_000_000_000 + i128::from(self.nanos)
    }

    /// Rebuilds from nano-units.
    pub fn from_total_nanos(currency_code: impl Into<String>, total: i128) -> Money {
        Money {
            currency_code: currency_code.into(),
            units: (total / 1_000_000_000) as i64,
            nanos: (total % 1_000_000_000) as i32,
        }
    }

    fn normalize(&mut self) {
        let total = self.total_nanos();
        let normalized = Money::from_total_nanos(std::mem::take(&mut self.currency_code), total);
        *self = normalized;
    }

    /// Adds two amounts of the same currency.
    ///
    /// Returns `None` when the currencies differ — silently mixing
    /// currencies is exactly the bug class this type exists to prevent.
    pub fn checked_add(&self, other: &Money) -> Option<Money> {
        if self.currency_code != other.currency_code {
            return None;
        }
        Some(Money::from_total_nanos(
            self.currency_code.clone(),
            self.total_nanos() + other.total_nanos(),
        ))
    }

    /// Multiplies by an integer quantity.
    pub fn times(&self, quantity: u32) -> Money {
        Money::from_total_nanos(
            self.currency_code.clone(),
            self.total_nanos() * i128::from(quantity),
        )
    }

    /// Value as a float (display/metrics only; never for arithmetic).
    pub fn as_f64(&self) -> f64 {
        self.total_nanos() as f64 / 1e9
    }
}

/// A catalog product.
#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData)]
pub struct Product {
    /// Stable product id, e.g. `"OLJCESPC7Z"`.
    pub id: String,
    /// Display name.
    pub name: String,
    /// Long description.
    pub description: String,
    /// Picture URL.
    pub picture: String,
    /// Base price (catalog currency).
    pub price: Money,
    /// Category tags.
    pub categories: Vec<String>,
}

/// One cart line.
#[derive(Debug, Clone, Default, PartialEq, Eq, WeaverData, TaggedData)]
pub struct CartItem {
    /// Product id.
    pub product_id: String,
    /// Quantity.
    pub quantity: u32,
}

/// A postal address.
#[derive(Debug, Clone, Default, PartialEq, Eq, WeaverData, TaggedData)]
pub struct Address {
    /// Street line.
    pub street_address: String,
    /// City.
    pub city: String,
    /// State/region.
    pub state: String,
    /// Country.
    pub country: String,
    /// Postal code.
    pub zip_code: u32,
}

/// Credit card details for the payment service.
#[derive(Debug, Clone, Default, PartialEq, Eq, WeaverData, TaggedData)]
pub struct CreditCard {
    /// Card number (digits).
    pub number: String,
    /// Verification code.
    pub cvv: u16,
    /// Expiration year.
    pub expiration_year: u32,
    /// Expiration month (1–12).
    pub expiration_month: u32,
}

/// A priced line item in an order.
#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData)]
pub struct OrderItem {
    /// The cart line.
    pub item: CartItem,
    /// Unit cost in the order currency.
    pub cost: Money,
}

/// A shipping quote plus tracking once shipped.
#[derive(Debug, Clone, Default, PartialEq, WeaverData)]
pub struct ShipQuote {
    /// Cost of shipping.
    pub cost: Money,
    /// Tracking id ("" until shipped).
    pub tracking_id: String,
}

/// The result of a completed checkout.
#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData)]
pub struct OrderResult {
    /// Order id.
    pub order_id: String,
    /// Shipping tracking id.
    pub shipping_tracking_id: String,
    /// What shipping cost.
    pub shipping_cost: Money,
    /// Where it ships.
    pub shipping_address: Address,
    /// Priced items.
    pub items: Vec<OrderItem>,
    /// Grand total charged.
    pub total: Money,
}

/// An advertisement.
#[derive(Debug, Clone, Default, PartialEq, Eq, WeaverData, TaggedData)]
pub struct Ad {
    /// Click-through URL.
    pub redirect_url: String,
    /// Ad copy.
    pub text: String,
}

/// The request placed by the frontend at checkout.
#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData)]
pub struct PlaceOrderRequest {
    /// User placing the order.
    pub user_id: String,
    /// Currency the user pays in.
    pub user_currency: String,
    /// Destination.
    pub address: Address,
    /// Contact email.
    pub email: String,
    /// Payment instrument.
    pub credit_card: CreditCard,
}

/// The rendered home page (frontend → browser).
#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData)]
pub struct HomeView {
    /// Catalog products with prices in the user's currency.
    pub products: Vec<Product>,
    /// A banner ad.
    pub ad: Option<Ad>,
    /// Number of items in the user's cart.
    pub cart_size: u32,
    /// Currency the prices are shown in.
    pub currency: String,
}

/// The rendered product page.
#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData)]
pub struct ProductView {
    /// The product, priced in the user's currency.
    pub product: Product,
    /// Recommendations for this user in this context.
    pub recommendations: Vec<Product>,
    /// A contextual ad.
    pub ad: Option<Ad>,
}

/// The rendered cart page.
#[derive(Debug, Clone, Default, PartialEq, WeaverData, TaggedData)]
pub struct CartView {
    /// Priced cart lines.
    pub items: Vec<OrderItem>,
    /// Estimated shipping cost.
    pub shipping_cost: Money,
    /// Order total (items + shipping).
    pub total: Money,
    /// Recommendations based on cart contents.
    pub recommendations: Vec<Product>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_codec::prelude::*;

    #[test]
    fn money_normalization() {
        let m = Money::new("USD", 1, 1_500_000_000);
        assert_eq!(m.units, 2);
        assert_eq!(m.nanos, 500_000_000);
        let m = Money::new("USD", -1, -1_500_000_000);
        assert_eq!(m.units, -2);
        assert_eq!(m.nanos, -500_000_000);
    }

    #[test]
    fn money_arithmetic() {
        let a = Money::new("USD", 19, 990_000_000);
        let b = Money::new("USD", 0, 10_000_000);
        assert_eq!(a.checked_add(&b).unwrap(), Money::new("USD", 20, 0));
        assert_eq!(a.times(3), Money::new("USD", 59, 970_000_000));
        assert!((a.as_f64() - 19.99).abs() < 1e-9);
    }

    #[test]
    fn cross_currency_add_refused() {
        let usd = Money::new("USD", 1, 0);
        let eur = Money::new("EUR", 1, 0);
        assert_eq!(usd.checked_add(&eur), None);
    }

    #[test]
    fn types_roundtrip_all_codecs() {
        let order = OrderResult {
            order_id: "o-1".into(),
            shipping_tracking_id: "t-9".into(),
            shipping_cost: Money::new("USD", 4, 990_000_000),
            shipping_address: Address {
                street_address: "1 Main St".into(),
                city: "Springfield".into(),
                state: "IL".into(),
                country: "USA".into(),
                zip_code: 62701,
            },
            items: vec![OrderItem {
                item: CartItem {
                    product_id: "P1".into(),
                    quantity: 2,
                },
                cost: Money::new("USD", 10, 0),
            }],
            total: Money::new("USD", 24, 990_000_000),
        };
        // Non-versioned.
        let back: OrderResult = decode_from_slice(&encode_to_vec(&order)).unwrap();
        assert_eq!(back, order);
        // Tagged.
        let bytes = weaver_codec::tagged::encode_message(&order);
        let back: OrderResult = weaver_codec::tagged::decode_message(&bytes).unwrap();
        assert_eq!(back, order);
    }

    #[test]
    fn wire_encoding_is_smallest() {
        let product = Product {
            id: "OLJCESPC7Z".into(),
            name: "Sunglasses".into(),
            description: "Add a modern touch to your outfits.".into(),
            picture: "/static/img/products/sunglasses.jpg".into(),
            price: Money::new("USD", 19, 990_000_000),
            categories: vec!["accessories".into()],
        };
        let wire = encode_to_vec(&product).len();
        let tagged = weaver_codec::tagged::encode_message(&product).len();
        assert!(wire < tagged, "wire {wire} vs tagged {tagged}");
    }
}

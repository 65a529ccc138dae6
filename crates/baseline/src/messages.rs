//! Per-method request/response messages — what `protoc` would generate.
//!
//! gRPC services take exactly one request message and return one response
//! message; multi-argument calls become structs. All messages derive
//! `TaggedData` only: the baseline encodes them with the **tagged** format
//! (`TaggedEncode`/`TaggedDecode`) — protobuf semantics: field numbers from
//! declaration order, defaults elided, unknown fields skipped.

use boutique::types::{
    Ad, Address, CartItem, CartView, CreditCard, HomeView, Money, OrderResult, PlaceOrderRequest,
    Product, ProductView,
};
use weaver_macros::TaggedData;

/// `ProductCatalog.ListProducts` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct ListProductsRequest {}

/// `ProductCatalog.ListProducts` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct ListProductsResponse {
    /// The whole catalog.
    pub products: Vec<Product>,
}

/// `ProductCatalog.GetProduct` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct GetProductRequest {
    /// Product id.
    pub id: String,
}

/// `ProductCatalog.GetProduct` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct GetProductResponse {
    /// The product.
    pub product: Product,
}

/// `Currency.GetSupported` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct GetSupportedRequest {}

/// `Currency.GetSupported` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct GetSupportedResponse {
    /// Currency codes.
    pub codes: Vec<String>,
}

/// `Currency.Convert` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct ConvertRequest {
    /// Source amount.
    pub from: Money,
    /// Target currency code.
    pub to_code: String,
}

/// `Currency.Convert` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct ConvertResponse {
    /// Converted amount.
    pub money: Money,
}

/// `Cart.AddItem` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct AddItemRequest {
    /// User id.
    pub user_id: String,
    /// Item to add.
    pub item: CartItem,
}

/// Empty response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct Empty {}

/// `Cart.GetCart` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct GetCartRequest {
    /// User id.
    pub user_id: String,
}

/// `Cart.GetCart` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct GetCartResponse {
    /// Cart lines.
    pub items: Vec<CartItem>,
}

/// `Recommendation.List` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct ListRecommendationsRequest {
    /// User id.
    pub user_id: String,
    /// Context products.
    pub product_ids: Vec<String>,
}

/// `Recommendation.List` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct ListRecommendationsResponse {
    /// Recommended products.
    pub products: Vec<Product>,
}

/// `Shipping.GetQuote` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct GetQuoteRequest {
    /// Destination.
    pub address: Address,
    /// Items to ship.
    pub items: Vec<CartItem>,
}

/// `Shipping.GetQuote` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct GetQuoteResponse {
    /// Quoted cost.
    pub cost: Money,
}

/// `Shipping.ShipOrder` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct ShipOrderRequest {
    /// Destination.
    pub address: Address,
    /// Items to ship.
    pub items: Vec<CartItem>,
}

/// `Shipping.ShipOrder` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct ShipOrderResponse {
    /// Tracking id.
    pub tracking_id: String,
}

/// `Payment.Charge` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct ChargeRequest {
    /// Amount to charge.
    pub amount: Money,
    /// Card to charge.
    pub credit_card: CreditCard,
}

/// `Payment.Charge` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct ChargeResponse {
    /// Transaction id.
    pub transaction_id: String,
}

/// `Email.SendConfirmation` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct SendConfirmationRequest {
    /// Recipient.
    pub email: String,
    /// The order.
    pub order: OrderResult,
}

/// `Email.SendConfirmation` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct SendConfirmationResponse {
    /// Rendered body.
    pub body: String,
}

/// `Ads.GetAds` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct GetAdsRequest {
    /// Context categories.
    pub categories: Vec<String>,
}

/// `Ads.GetAds` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct GetAdsResponse {
    /// Selected ads.
    pub ads: Vec<Ad>,
}

/// `Checkout.PlaceOrder` request (wraps the shared request type).
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct PlaceOrderRpcRequest {
    /// The order request.
    pub request: PlaceOrderRequest,
}

/// `Checkout.PlaceOrder` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct PlaceOrderResponse {
    /// The completed order.
    pub order: OrderResult,
}

/// `Frontend.Home` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct HomeRequest {
    /// User id.
    pub user_id: String,
    /// Display currency.
    pub currency: String,
}

/// `Frontend.Home` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct HomeResponse {
    /// The page.
    pub view: HomeView,
}

/// `Frontend.BrowseProduct` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct BrowseProductRequest {
    /// User id.
    pub user_id: String,
    /// Product id.
    pub product_id: String,
    /// Display currency.
    pub currency: String,
}

/// `Frontend.BrowseProduct` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct BrowseProductResponse {
    /// The page.
    pub view: ProductView,
}

/// `Frontend.AddToCart` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct AddToCartRequest {
    /// User id.
    pub user_id: String,
    /// Product id.
    pub product_id: String,
    /// Quantity.
    pub quantity: u32,
}

/// `Frontend.ViewCart` request.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct ViewCartRequest {
    /// User id.
    pub user_id: String,
    /// Display currency.
    pub currency: String,
}

/// `Frontend.ViewCart` response.
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct ViewCartResponse {
    /// The page.
    pub view: CartView,
}

/// A gRPC-style error payload (`google.rpc.Status`-shaped).
#[derive(Debug, Clone, Default, PartialEq, TaggedData)]
pub struct RpcStatus {
    /// Status code (2 = UNKNOWN, 3 = INVALID_ARGUMENT, 5 = NOT_FOUND…).
    pub code: u32,
    /// Error message.
    pub message: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_codec::tagged::{decode_message, encode_message};

    #[test]
    fn tagged_roundtrip_of_nested_messages() {
        let request = ChargeRequest {
            amount: Money::new("USD", 12, 500_000_000),
            credit_card: boutique::logic::payment::test_card(),
        };
        let bytes = encode_message(&request);
        let back: ChargeRequest = decode_message(&bytes).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn defaults_elide_to_empty_bytes() {
        assert!(encode_message(&Empty {}).is_empty());
        assert!(encode_message(&ListProductsRequest {}).is_empty());
    }

    #[test]
    fn unknown_fields_tolerated_like_protobuf() {
        // Simulate a newer sender: extra field 99 appended.
        let mut bytes = encode_message(&GetProductRequest { id: "P1".into() });
        weaver_codec::tagged::write_key(&mut bytes, 99, weaver_codec::tagged::WireType::Varint);
        weaver_codec::varint::write_uvarint(&mut bytes, 7);
        let back: GetProductRequest = decode_message(&bytes).unwrap();
        assert_eq!(back.id, "P1");
    }

    #[test]
    fn status_roundtrip() {
        let status = RpcStatus {
            code: 5,
            message: "no product".into(),
        };
        let back: RpcStatus = decode_message(&encode_message(&status)).unwrap();
        assert_eq!(back, status);
    }
}

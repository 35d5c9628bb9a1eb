//! Derives that accept `#[serde(...)]` attributes and expand to nothing.

use proc_macro::TokenStream;

/// No-op `Serialize` derive.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

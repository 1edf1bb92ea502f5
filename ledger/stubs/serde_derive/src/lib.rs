//! Offline stand-in for `serde_derive`: the repository derives
//! `Serialize`/`Deserialize` on its config types but never serializes
//! through serde (its JSON is `hfl_telemetry::Json`), so the derives
//! expand to nothing.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn serialize(_: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn deserialize(_: TokenStream) -> TokenStream {
    TokenStream::new()
}

//! The JSON envelope: one object whose only key holds the lowercase hex
//! of the binary codec's bytes.
//!
//! There is no second field codec: the version check, the truncation
//! handling and bit-exact floats all come from [`crate::binary`].

use hfl_telemetry::Json;

use crate::{EngineSnapshot, SnapshotError};

const KEY: &str = "snapshot";
const HEX: &[u8; 16] = b"0123456789abcdef";

pub(crate) fn to_json(snap: &EngineSnapshot) -> String {
    let bytes = snap.to_bytes();
    let mut hex = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        hex.push(HEX[(b >> 4) as usize] as char);
        hex.push(HEX[(b & 0xf) as usize] as char);
    }
    Json::Obj(vec![(KEY.into(), Json::Str(hex))]).to_string()
}

pub(crate) fn from_json(text: &str) -> Result<EngineSnapshot, SnapshotError> {
    let root = Json::parse(text).map_err(|e| SnapshotError::new(format!("bad JSON: {e}")))?;
    let hex = root
        .get(KEY)
        .and_then(Json::as_str)
        .ok_or_else(|| SnapshotError::new(format!("missing string key `{KEY}`")))?;
    if !hex.len().is_multiple_of(2) {
        return Err(SnapshotError::new(format!(
            "snapshot hex length {} is odd",
            hex.len()
        )));
    }
    let bytes = hex
        .as_bytes()
        .chunks(2)
        .map(|pair| Ok(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect::<Result<Vec<u8>, SnapshotError>>()?;
    EngineSnapshot::from_bytes(&bytes)
}

/// The value of one lowercase hex digit.
fn nibble(c: u8) -> Result<u8, SnapshotError> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        _ => Err(SnapshotError::new(format!(
            "bad snapshot hex digit {:?}",
            c as char
        ))),
    }
}

//! Offline stand-in for `bytes`: exactly the surface `hfl_simnet::wire`
//! uses. `Bytes` is an `Arc<[u8]>` window (cheap clone and `slice`, like
//! the real crate); `BytesMut` is a `Vec<u8>`.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from(bytes.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-window sharing the same allocation.
    ///
    /// # Panics
    /// When the range is out of bounds (as the real crate does).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Self {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        Self(Vec::with_capacity(capacity))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Read cursor over a byte window. The `get_*` methods panic when fewer
/// bytes remain than asked, as in the real crate.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn copy_to_array<const N: usize>(&mut self) -> [u8; N] {
        let out: [u8; N] = self.chunk()[..N]
            .try_into()
            .expect("slice of length N converts to [u8; N]");
        self.advance(N);
        out
    }

    fn get_u8(&mut self) -> u8 {
        self.copy_to_array::<1>()[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.copy_to_array())
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.copy_to_array())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.copy_to_array())
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.copy_to_array())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past the end");
        self.start += cnt;
    }
}

/// Append-only writer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_bytes(&mut self, val: u8, cnt: usize);

    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    fn put_u16_le(&mut self, n: u16) {
        self.put_slice(&n.to_le_bytes());
    }

    fn put_u32_le(&mut self, n: u32) {
        self.put_slice(&n.to_le_bytes());
    }

    fn put_u64_le(&mut self, n: u64) {
        self.put_slice(&n.to_le_bytes());
    }

    fn put_f32_le(&mut self, n: f32) {
        self.put_slice(&n.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.0.resize(self.0.len() + cnt, val);
    }
}

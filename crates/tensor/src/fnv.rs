//! FNV-1a 64-bit, fed bytes as they come. The input fingerprints a
//! checkpoint stores ([`crate::DenseTensor::fingerprint`],
//! [`crate::SparseTensor::fingerprint`]) hash a tensor where it lies with
//! it, and the PPCK checksum hashes its payload with it, so its values are
//! part of that format.

/// An FNV-1a 64-bit state.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The offset basis: the hash of no bytes.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hash `bytes` in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash `v`'s little-endian bytes, as a checkpoint lays a `u64` out.
    pub fn u64_(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of every byte fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

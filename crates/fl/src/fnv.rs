//! Crate-private 64-bit FNV-1a hashing.
//!
//! In-tree because the offline container has no hashing crates; the
//! constants are the standard FNV-1a parameters, so digests are stable
//! across platforms and runs. Shared by the canonical
//! [`MetricsReport::digest`](crate::MetricsReport::digest) and the
//! frame and checkpoint checksum [`wire::fnv64`](crate::wire::fnv64) so
//! the two cannot drift.

pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        let hash = |s: &str| {
            let mut h = Fnv1a::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x85944171f73967e8);
    }
}

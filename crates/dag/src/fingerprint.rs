//! Stable 64-bit fingerprints for instances and experiment configs.
//!
//! Campaign journals (`catbatch-journal/v1`) must recognise "same
//! scenario" across *processes and machines*, so the standard library's
//! randomized `DefaultHasher` is out. [`StableHasher`] is FNV-1a over a
//! length-prefixed byte stream: dead simple, endian-independent, and
//! frozen — changing it would orphan every journal ever written, so
//! treat the algorithm as part of the journal schema.

use crate::graph::Instance;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An order-sensitive FNV-1a 64-bit stream hasher. Variable-length
/// inputs are length-prefixed so concatenations cannot collide
/// (`"ab" + "c"` hashes differently from `"a" + "bc"`).
#[derive(Clone, Copy, Debug)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher(FNV_OFFSET)
    }

    /// Feeds raw bytes (no length prefix).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` as eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u32` as four little-endian bytes.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprints an instance: the platform size plus the canonical
/// `.rigid` serialization (task order, labels, exact rational times,
/// processor demands, and every edge). Two instances fingerprint equal
/// iff [`crate::format::write`] renders them identically.
pub fn instance_fingerprint(inst: &Instance) -> u64 {
    let mut h = StableHasher::new();
    h.write_u32(inst.procs());
    h.write_str(&crate::format::write(inst));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagBuilder;
    use rigid_time::Time;

    fn sample(time: i64, procs: u32) -> Instance {
        DagBuilder::new()
            .task("a", Time::from_int(time), 2)
            .task("b", Time::from_int(1), 1)
            .edge("a", "b")
            .build(procs)
    }

    #[test]
    fn fingerprint_is_deterministic() {
        assert_eq!(
            instance_fingerprint(&sample(3, 4)),
            instance_fingerprint(&sample(3, 4))
        );
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let base = instance_fingerprint(&sample(3, 4));
        assert_ne!(
            base,
            instance_fingerprint(&sample(2, 4)),
            "time change unseen"
        );
        assert_ne!(
            base,
            instance_fingerprint(&sample(3, 5)),
            "platform change unseen"
        );
        let no_edge = DagBuilder::new()
            .task("a", Time::from_int(3), 2)
            .task("b", Time::from_int(1), 1)
            .build(4);
        assert_ne!(base, instance_fingerprint(&no_edge), "edge change unseen");
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    /// The algorithm is part of the journal schema: this golden value
    /// must never change (an intentional break requires a schema bump).
    #[test]
    fn fnv_golden_value_is_frozen() {
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        // FNV-1a 64 of "a", the published test vector.
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}

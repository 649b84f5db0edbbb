//! A per-instance keyed hash for maps keyed by addresses and lines.
//!
//! The tracer's store-timestamp FIFO and the Hydra solver's slot maps
//! look up a small integer key on every heap event, where std's
//! SipHash costs more than the rest of the lookup. [`KeyedState`]
//! draws a fresh random key from std's [`RandomState`] for every map
//! and mixes each word of input with one folded multiply (the full
//! 128-bit product of two 64-bit words, high half XORed into the low
//! half). Keys stay unpredictable per instance, as std's are, so no
//! fixed input can make every run's map degenerate; only iteration
//! order would differ between runs, and no caller iterates.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` hashed by a [`KeyedState`].
pub type KeyedMap<K, V> = HashMap<K, V, KeyedState>;

/// Creates an empty [`KeyedMap`] with a fresh key.
pub fn keyed_map<K, V>() -> KeyedMap<K, V> {
    HashMap::with_hasher(KeyedState::new())
}

/// The 128-bit product of `a` and `b`, folded to 64 bits.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A [`BuildHasher`] with a random per-instance key.
#[derive(Debug, Clone, Copy)]
pub struct KeyedState {
    seed: u64,
    mul: u64,
}

impl KeyedState {
    /// A state with a fresh key drawn from [`RandomState`].
    pub fn new() -> KeyedState {
        let random = RandomState::new();
        let word = |n: u64| {
            let mut h = random.build_hasher();
            h.write_u64(n);
            h.finish()
        };
        // an odd multiplier keeps the low half of the product a
        // bijection of the input
        KeyedState {
            seed: word(0),
            mul: word(1) | 1,
        }
    }
}

impl Default for KeyedState {
    fn default() -> KeyedState {
        KeyedState::new()
    }
}

impl BuildHasher for KeyedState {
    type Hasher = KeyedHasher;

    #[inline]
    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher {
            state: self.seed,
            mul: self.mul,
        }
    }
}

/// The [`Hasher`] a [`KeyedState`] builds.
#[derive(Debug, Clone, Copy)]
pub struct KeyedHasher {
    state: u64,
    mul: u64,
}

impl Hasher for KeyedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = folded_multiply(self.state ^ n, self.mul);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_state_hashes_deterministically() {
        let s = KeyedState::new();
        assert_eq!(s.hash_one(0x40u32), s.hash_one(0x40u32));
        assert_ne!(s.hash_one(0x40u32), s.hash_one(0x60u32));
    }

    #[test]
    fn every_state_draws_its_own_key() {
        let (a, b) = (KeyedState::new(), KeyedState::new());
        let keys = (0u32..8).map(|k| k * 32);
        let ha: Vec<u64> = keys.clone().map(|k| a.hash_one(k)).collect();
        let hb: Vec<u64> = keys.map(|k| b.hash_one(k)).collect();
        assert_ne!(ha, hb);
    }
}

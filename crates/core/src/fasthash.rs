//! A keyed fast hasher for the in-process tables that are only probed.
//!
//! The anonymizer's hash memo and journal images, the pass-list and the
//! leak scanner's views are looked up once or more per token, and std's
//! default SipHash-1-3 costs more per short key than the lookups
//! themselves. [`FastState`] hashes a key of up to 16 bytes with one
//! folded 64×64→128-bit multiply of two overlapping reads, and a longer
//! one with one more multiply per 16 bytes, under a key drawn per table
//! from std's `RandomState`, so:
//!
//! * which keys collide depends on a key an input cannot see, as with
//!   SipHash, so a crafted config (say, one sent to a serve tenant)
//!   cannot precompute a flood of colliding tokens;
//! * iteration order differs per table and per process, as it does
//!   today. No table built on it is iterated, and no output, document or
//!   count may depend on it (the determinism suites pin released bytes
//!   and documents at every job count).

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` under [`FastState`].
pub(crate) type FastMap<K, V> = HashMap<K, V, FastState>;

/// A `HashSet` under [`FastState`].
pub(crate) type FastSet<T> = HashSet<T, FastState>;

/// The per-table key of a [`FastHasher`]: two random words drawn from a
/// fresh `RandomState` (std keys each one apart).
#[derive(Clone)]
pub(crate) struct FastState {
    keys: [u64; 2],
}

impl Default for FastState {
    fn default() -> FastState {
        let seed = RandomState::new();
        FastState {
            keys: [seed.hash_one(0u8), seed.hash_one(1u8)],
        }
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher {
            acc: self.keys[0],
            key: self.keys[1],
        }
    }
}

/// One hash in progress (see the module doc): the state, which starts
/// at the table's first key, and the second key.
pub(crate) struct FastHasher {
    acc: u64,
    key: u64,
}

/// The high and low halves of the full product, folded by xor.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The little-endian word at the start of `b` (at least 8 bytes).
fn word(b: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&b[..8]);
    u64::from_le_bytes(w)
}

/// The little-endian half-word at the start of `b` (at least 4 bytes).
fn half(b: &[u8]) -> u64 {
    let mut h = [0u8; 4];
    h.copy_from_slice(&b[..4]);
    u64::from(u32::from_le_bytes(h))
}

impl Hasher for FastHasher {
    /// A write of at most 16 bytes is read as two words that cover it,
    /// overlapping when it is shorter (its first and last 8 or 4 bytes;
    /// its first, middle and last byte under 4), so two writes of one
    /// length read alike only when they are equal. A longer write folds
    /// each 16-byte block but the last into the state first, and its last
    /// 16 bytes are the two words. The state becomes one folded multiply
    /// of the first word mixed with the state by the second mixed with
    /// the key scaled by the length, so writes of two lengths differ by a
    /// key-dependent amount no input can aim at. A `str` key is its bytes
    /// and then the byte `0xff` (std's `write_str`); integer keys arrive
    /// as their bytes.
    fn write(&mut self, bytes: &[u8]) {
        let n = bytes.len();
        let mut acc = self.acc;
        let (lo, hi) = if n > 16 {
            let mut rest = bytes;
            while rest.len() > 16 {
                acc = folded_multiply(word(rest) ^ acc, word(&rest[8..]) ^ self.key);
                rest = &rest[16..];
            }
            (word(&bytes[n - 16..]), word(&bytes[n - 8..]))
        } else if n >= 8 {
            (word(bytes), word(&bytes[n - 8..]))
        } else if n >= 4 {
            (half(bytes), half(&bytes[n - 4..]))
        } else if n > 0 {
            let (first, mid, last) = (bytes[0], bytes[n / 2], bytes[n - 1]);
            (u64::from(first), u64::from(mid) << 8 | u64::from(last))
        } else {
            (0, 0)
        };
        self.acc = folded_multiply(lo ^ acc, hi ^ self.key.wrapping_mul(n as u64 + 1));
    }

    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORDS: [&str; 12] = [
        "",
        "a",
        "ab",
        "ab\0",
        "abc",
        "abcd",
        "abcdefg",
        "abcdefg\x07",
        "abcdefgh",
        "abcdefghi",
        "GigabitEthernet0/1",
        "192.168.255.255/32",
    ];

    #[test]
    fn equal_keys_hash_equal_and_tables_find_them() {
        let state = FastState::default();
        assert_eq!(
            state.hash_one("GigabitEthernet"),
            state.hash_one("GigabitEthernet")
        );
        let mut set: FastSet<String> = FastSet::default();
        for w in WORDS {
            assert!(set.insert(w.to_string()), "{w:?}");
        }
        for w in WORDS {
            assert!(set.contains(w), "{w:?}");
        }
        assert!(!set.contains("abce"));
        let mut map: FastMap<u128, u32> = FastMap::default();
        map.insert(1 << 64, 1);
        map.insert(1, 2);
        assert_eq!((map.get(&(1 << 64)), map.get(&1)), (Some(&1), Some(&2)));
    }

    #[test]
    fn every_read_path_tells_its_inputs_apart() {
        // All keys of up to two bytes, and keys of every length up to
        // 40 (each read path and block count) with one byte changed at
        // every position or one byte appended: no two hash alike under
        // one key. A collision here would be structural (two inputs read
        // as the same words), not the 2^-64 chance of the multiply.
        let state = FastState::default();
        let mut keys: Vec<Vec<u8>> = vec![Vec::new()];
        keys.extend((0..=255u8).map(|a| vec![a]));
        keys.extend((0..=255u8).flat_map(|a| (0..=255u8).map(move |b| vec![a, b])));
        for n in 3..=40usize {
            let base: Vec<u8> = (0..n).map(|i| b'a' + (i % 26) as u8).collect();
            for i in 0..n {
                let mut k = base.clone();
                k[i] = b'#';
                keys.push(k);
            }
            let mut longer = base.clone();
            longer.push(0);
            keys.extend([base, longer]);
        }
        let mut hashes: Vec<u64> = keys
            .iter()
            .map(|k| {
                let mut h = state.build_hasher();
                h.write(k);
                h.finish()
            })
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), keys.len());
    }

    #[test]
    fn each_table_draws_its_own_key() {
        let (a, b) = (FastState::default(), FastState::default());
        assert_ne!(a.keys, b.keys);
        assert_ne!(a.hash_one("uunet"), b.hash_one("uunet"));
        // A clone probes the same table layout.
        assert_eq!(a.clone().hash_one("uunet"), a.hash_one("uunet"));
    }
}

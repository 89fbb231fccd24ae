//! HMAC-SHA1 (RFC 2104), the keyed function underneath salting and PRFs.
//!
//! The paper salts digests "with a secret chosen by the network owner";
//! we realize the salt as an HMAC key, which is the standard construction
//! for turning a hash into a keyed function and strictly stronger than
//! prefixing the salt.

use crate::sha1::{compress, digest_bytes, Sha1, INIT};

const BLOCK: usize = 64;

/// The longest message whose inner hash fits one block after the ipad
/// block: 55 bytes, then the 0x80 pad byte and the 8-byte length.
const ONE_BLOCK_MSG: usize = BLOCK - 1 - 8;

/// HMAC-SHA1 with cached key midstates and fixed single-block finishes.
///
/// The ipad/opad blocks depend only on the key, so their SHA-1
/// compressions run once at construction and every [`HmacSha1::mac`]
/// call starts from the stored midstate words. The outer hash is then
/// always one block (the 20-byte inner digest, padding, and the bit
/// length of 84 bytes), and so is the inner hash for a message of at
/// most 55 bytes — every trie bit, Feistel round and short token — so
/// such a MAC costs exactly two compressions and no streaming state.
/// Longer messages stream from the inner midstate. The digests are
/// bit-identical to the naive construction (same function, same values).
#[derive(Clone)]
pub struct HmacSha1 {
    /// SHA-1 state after absorbing `key ^ ipad`.
    inner: [u32; 5],
    /// SHA-1 state after absorbing `key ^ opad`.
    outer: [u32; 5],
}

impl HmacSha1 {
    /// Creates an HMAC instance for `key` (any length).
    pub fn new(key: &[u8]) -> HmacSha1 {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..20].copy_from_slice(&Sha1::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut state = INIT;
            compress(&mut state, &key_block.map(|b| b ^ pad));
            state
        };
        HmacSha1 {
            inner: midstate(0x36),
            outer: midstate(0x5C),
        }
    }

    /// Computes `HMAC(key, msg)`.
    pub fn mac(&self, msg: &[u8]) -> [u8; 20] {
        self.mac_parts(&[msg])
    }

    /// Computes `HMAC(key, parts[0] || parts[1] || …)` without the caller
    /// having to concatenate into a temporary buffer. Equivalent to
    /// [`HmacSha1::mac`] on the concatenation.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; 20] {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let inner_digest = if len <= ONE_BLOCK_MSG {
            let mut block = [0u8; BLOCK];
            let mut at = 0;
            for part in parts {
                block[at..at + part.len()].copy_from_slice(part);
                at += part.len();
            }
            one_block_digest(self.inner, block, len)
        } else {
            let mut inner = Sha1::from_midstate(self.inner, BLOCK as u64);
            for part in parts {
                inner.update(part);
            }
            inner.finalize()
        };
        let mut block = [0u8; BLOCK];
        block[..20].copy_from_slice(&inner_digest);
        one_block_digest(self.outer, block, 20)
    }

    /// Convenience: `HMAC(key, msg)` without keeping the instance.
    pub fn mac_once(key: &[u8], msg: &[u8]) -> [u8; 20] {
        HmacSha1::new(key).mac(msg)
    }
}

/// The digest of a key block followed by the first `len` (≤ 55) bytes of
/// `block`: pads `block` in place and compresses it once from the key
/// block's `midstate`.
fn one_block_digest(mut midstate: [u32; 5], mut block: [u8; BLOCK], len: usize) -> [u8; 20] {
    block[len] = 0x80;
    let bit_len = ((BLOCK + len) as u64) * 8;
    block[BLOCK - 8..].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut midstate, &block);
    digest_bytes(&midstate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8; 20]) -> String {
        Sha1::to_hex(d)
    }

    #[test]
    fn rfc2202_case1() {
        let key = [0x0bu8; 20];
        let d = HmacSha1::mac_once(&key, b"Hi There");
        assert_eq!(hex(&d), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn rfc2202_case2() {
        let d = HmacSha1::mac_once(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&d), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn rfc2202_case3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let d = HmacSha1::mac_once(&key, &msg);
        assert_eq!(hex(&d), "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
    }

    #[test]
    fn rfc2202_case4() {
        let key: Vec<u8> = (1..=25).collect();
        let msg = [0xcdu8; 50];
        let d = HmacSha1::mac_once(&key, &msg);
        assert_eq!(hex(&d), "4c9007f4026250c6bc8414f9bf50c86c2d7235da");
    }

    #[test]
    fn rfc2202_case5() {
        let key = [0x0cu8; 20];
        let d = HmacSha1::mac_once(&key, b"Test With Truncation");
        assert_eq!(hex(&d), "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04");
    }

    #[test]
    fn rfc2202_case6_long_key() {
        // Key longer than block size exercises the hash-the-key path.
        let key = [0xaau8; 80];
        let d = HmacSha1::mac_once(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(hex(&d), "aa4ae5e15272d00e95705637ce8a3b55ed402112");
    }

    #[test]
    fn rfc2202_case7_long_key_long_data() {
        let key = [0xaau8; 80];
        let d = HmacSha1::mac_once(
            &key,
            b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data",
        );
        assert_eq!(hex(&d), "e8e99d0f45237d786d6bbaa7965c7808bbff1a91");
    }

    /// RFC 2104 as written: stream the padded key block and the message,
    /// then the other padded key block and the inner digest.
    fn streaming_hmac(key: &[u8], msg: &[u8]) -> [u8; 20] {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..20].copy_from_slice(&Sha1::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha1::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        inner.update(msg);
        let mut outer = Sha1::new();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        outer.update(&inner.finalize());
        outer.finalize()
    }

    #[test]
    fn one_block_and_streamed_macs_match_rfc2104_at_every_length() {
        // Lengths 0..=55 take the one-block inner hash, longer ones
        // stream from the midstate; the outer hash is always one block.
        let data: Vec<u8> = (0..200u32).map(|i| (i * 13 + 5) as u8).collect();
        for key in [&b"owner-secret"[..], &[0x5au8; 80][..]] {
            let h = HmacSha1::new(key);
            for n in 0..=200 {
                let msg = &data[..n];
                let want = streaming_hmac(key, msg);
                assert_eq!(h.mac(msg), want, "key length {}, length {n}", key.len());
                let (a, rest) = msg.split_at(n / 3);
                let (b, c) = rest.split_at(rest.len() / 2);
                assert_eq!(
                    h.mac_parts(&[a, b, c]),
                    want,
                    "key length {}, length {n}",
                    key.len()
                );
            }
        }
    }

    #[test]
    fn different_keys_different_macs() {
        let m1 = HmacSha1::mac_once(b"owner-secret-1", b"route-map-name");
        let m2 = HmacSha1::mac_once(b"owner-secret-2", b"route-map-name");
        assert_ne!(m1, m2);
    }

    #[test]
    fn instance_reuse_is_consistent() {
        let h = HmacSha1::new(b"salt");
        assert_eq!(h.mac(b"x"), h.mac(b"x"));
        assert_ne!(h.mac(b"x"), h.mac(b"y"));
    }

    #[test]
    fn mac_parts_matches_concatenation() {
        let h = HmacSha1::new(b"salt");
        assert_eq!(h.mac_parts(&[b"ab", b"", b"cd"]), h.mac(b"abcd"));
        assert_eq!(h.mac_parts(&[]), h.mac(b""));
        // Across the 64-byte block boundary too.
        let long = [0x41u8; 100];
        assert_eq!(h.mac_parts(&[&long[..37], &long[37..]]), h.mac(&long));
    }
}

//! SHA-1 (RFC 3174 / FIPS 180-1) implemented from scratch.
//!
//! The paper anonymizes strings "using SHA1 digests \[2\]" where \[2\] is
//! RFC 3174, so we implement exactly that algorithm. SHA-1 is no longer
//! collision resistant, but for this application the threat model is
//! *preimage* resistance of salted digests of short identifiers, for which
//! it remains adequate — and fidelity to the paper matters more here.
//!
//! One block compression, `compress`, serves every caller. On x86-64
//! CPUs with the SHA extensions it runs on them (chosen at run time by
//! std's cached feature detection, no build setting); everywhere else,
//! and as the test reference, it runs the scalar rounds.

/// The standard initial state (FIPS 180-1 §7).
pub(crate) const INIT: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Streaming SHA-1 hasher.
///
/// ```
/// use confanon_crypto::Sha1;
/// let digest = Sha1::digest(b"abc");
/// assert_eq!(Sha1::to_hex(&digest), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes (fits u64 for our workloads).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the standard initial state.
    pub fn new() -> Sha1 {
        Sha1::from_midstate(INIT, 0)
    }

    /// A hasher that has already absorbed `len` bytes (a multiple of 64)
    /// and reached `state`: HMAC resumes its keyed midstates this way.
    pub(crate) fn from_midstate(state: [u32; 5], len: u64) -> Sha1 {
        debug_assert_eq!(len % 64, 0, "a midstate sits on a block boundary");
        Sha1 {
            state,
            len,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// One-shot convenience: digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            compress(&mut self.state, block.try_into().expect("64-byte block"));
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Applies padding and returns the 160-bit digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len * 8;
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length —
        // written in bulk straight into the block buffer rather than one
        // `update(&[0])` at a time.
        self.buf[self.buf_len] = 0x80;
        if self.buf_len >= 56 {
            // No room for the length field: pad out this block, compress,
            // and start a fresh one.
            self.buf[self.buf_len + 1..].fill(0);
            compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        } else {
            self.buf[self.buf_len + 1..56].fill(0);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        digest_bytes(&self.state)
    }

    /// Lowercase hex of a digest.
    pub fn to_hex(digest: &[u8; 20]) -> String {
        let mut s = String::with_capacity(40);
        for b in digest {
            use std::fmt::Write;
            write!(s, "{b:02x}").expect("write to String");
        }
        s
    }
}

/// The digest bytes of a final state: its words, big-endian.
pub(crate) fn digest_bytes(state: &[u32; 5]) -> [u8; 20] {
    let mut out = [0u8; 20];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Absorbs one 64-byte block into `state`: the SHA extensions when this
/// CPU has them, the scalar rounds otherwise. Both compute the same
/// function (the differential tests below pin that), so the choice never
/// moves an output bit.
pub(crate) fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("sha")
        && std::is_x86_feature_detected!("ssse3")
        && std::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `compress_sha_ni` requires the `sha`, `ssse3` and
        // `sse4.1` target features, and all three were just detected on
        // the running CPU.
        unsafe { compress_sha_ni(state, block) };
        return;
    }
    compress_scalar(state, block);
}

/// The portable compression: FIPS 180-1's 80 rounds over an expanded
/// 80-word schedule. It serves CPUs without the SHA extensions and is the
/// reference the hardware path is tested against.
fn compress_scalar(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    for t in 16..80 {
        w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;
    // One loop per round group so `f` and `k` are loop constants
    // instead of a branch taken 80 times per block. `round!` is the
    // standard a..e rotation with the choice/parity/majority functions
    // in branch-free form.
    macro_rules! round {
        ($f:expr, $k:expr, $wt:expr) => {
            let temp = a
                .rotate_left(5)
                .wrapping_add($f)
                .wrapping_add(e)
                .wrapping_add($wt)
                .wrapping_add($k);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        };
    }
    for &wt in &w[0..20] {
        round!(d ^ (b & (c ^ d)), 0x5A827999, wt);
    }
    for &wt in &w[20..40] {
        round!(b ^ c ^ d, 0x6ED9EBA1, wt);
    }
    for &wt in &w[40..60] {
        round!((b & c) | (d & (b | c)), 0x8F1BBCDC, wt);
    }
    for &wt in &w[60..80] {
        round!(b ^ c ^ d, 0xCA62C1D6, wt);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// The compression on the x86 SHA extensions (Intel SHA-NI): the same
/// 80 rounds, four per `sha1rnds4`, with the message schedule extended
/// four words at a time by `sha1msg1`/`sha1msg2`.
///
/// A vector holds four words with the *first* in the high lane: `abcd` is
/// `[a, b, c, d]` from lane 3 down, and `w[k % 4]` holds `W[4k..4k + 4]`.
/// `sha1rnds4` expects `e` already added to the first word of its
/// message operand: rounds 0..4 add the input `e`, and every later group
/// gets it from `sha1nexte`, which adds `rol30(a)` of the `abcd` four
/// rounds back (what `e` has become by then).
///
/// # Safety
///
/// The running CPU must support the `sha`, `ssse3` and `sse4.1` target
/// features (`sse2` is part of the x86-64 baseline).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn compress_sha_ni(state: &mut [u32; 5], block: &[u8; 64]) {
    use std::arch::x86_64::*;

    // Reverses all 16 bytes: each big-endian word becomes a native one,
    // and the first word lands in the high lane.
    let be_words = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    macro_rules! load {
        ($i:literal) => {{
            let chunk = &block[16 * $i..16 * $i + 16];
            // SAFETY: `chunk` is 16 readable bytes and `loadu` has no
            // alignment requirement.
            _mm_shuffle_epi8(unsafe { _mm_loadu_si128(chunk.as_ptr().cast()) }, be_words)
        }};
    }
    // The next four schedule words from the four vectors before them:
    // W[t] = rol1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]).
    macro_rules! schedule {
        ($w16:expr, $w12:expr, $w8:expr, $w4:expr) => {
            _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w16, $w12), $w8), $w4)
        };
    }

    let abcd_in = _mm_set_epi32(
        state[0] as i32,
        state[1] as i32,
        state[2] as i32,
        state[3] as i32,
    );
    let e_in = _mm_set_epi32(state[4] as i32, 0, 0, 0);
    let mut w = [load!(0), load!(1), load!(2), load!(3)];
    // `prev` is `abcd` as it stood before the latest group of 4 rounds.
    let mut prev = abcd_in;
    let mut abcd = _mm_sha1rnds4_epu32::<0>(abcd_in, _mm_add_epi32(e_in, w[0]));
    // Rounds 4k..4k + 4 with round function `$f`; from group 4 on, the
    // group first replaces the oldest schedule vector with its own words.
    macro_rules! rounds4 {
        ($k:literal, $f:literal) => {
            let e = _mm_sha1nexte_epu32(prev, w[$k % 4]);
            prev = abcd;
            abcd = _mm_sha1rnds4_epu32::<$f>(abcd, e);
        };
        ($k:literal, $f:literal, scheduled) => {
            w[$k % 4] = schedule!(w[$k % 4], w[($k + 1) % 4], w[($k + 2) % 4], w[($k + 3) % 4]);
            rounds4!($k, $f);
        };
    }
    rounds4!(1, 0);
    rounds4!(2, 0);
    rounds4!(3, 0);
    rounds4!(4, 0, scheduled);
    rounds4!(5, 1, scheduled);
    rounds4!(6, 1, scheduled);
    rounds4!(7, 1, scheduled);
    rounds4!(8, 1, scheduled);
    rounds4!(9, 1, scheduled);
    rounds4!(10, 2, scheduled);
    rounds4!(11, 2, scheduled);
    rounds4!(12, 2, scheduled);
    rounds4!(13, 2, scheduled);
    rounds4!(14, 2, scheduled);
    rounds4!(15, 3, scheduled);
    rounds4!(16, 3, scheduled);
    rounds4!(17, 3, scheduled);
    rounds4!(18, 3, scheduled);
    rounds4!(19, 3, scheduled);

    let abcd = _mm_add_epi32(abcd_in, abcd);
    // After round 80, `e` is `rol30(a)` of four rounds back, plus the
    // input `e`.
    let e = _mm_sha1nexte_epu32(prev, e_in);
    state[0] = _mm_extract_epi32::<3>(abcd) as u32;
    state[1] = _mm_extract_epi32::<2>(abcd) as u32;
    state[2] = _mm_extract_epi32::<1>(abcd) as u32;
    state[3] = _mm_extract_epi32::<0>(abcd) as u32;
    state[4] = _mm_extract_epi32::<3>(e) as u32;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        Sha1::to_hex(&Sha1::digest(data))
    }

    #[test]
    fn rfc3174_test_vectors() {
        // TEST1 and TEST2a from RFC 3174 §7.3, plus the empty string and
        // the standard one-million-a vector from FIPS 180-1.
        assert_eq!(hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            Sha1::to_hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha1::digest(&data);
        // Feed in awkward chunk sizes to exercise buffering.
        for chunk in [1usize, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha1::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64 padding boundaries must all work.
        for n in 50..70usize {
            let data = vec![0xABu8; n];
            let d1 = Sha1::digest(&data);
            let mut h = Sha1::new();
            h.update(&data[..n / 2]);
            h.update(&data[n / 2..]);
            assert_eq!(h.finalize(), d1, "length {n}");
        }
    }

    #[test]
    fn rfc3174_test4_spans_ten_blocks() {
        assert_eq!(
            hex("01234567".repeat(80).as_bytes()),
            "dea356a2cddd90c7a7ecedc5ebb563934f460452"
        );
    }

    /// xorshift64: enough seeded randomness for differential tests.
    fn next(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn dispatched_compression_matches_scalar() {
        // On a CPU with the SHA extensions `compress` runs them, so this
        // pins the hardware rounds to the scalar reference; elsewhere both
        // sides are scalar.
        let mut seed = 0x5EED_5A1F_u64;
        for _ in 0..4096 {
            let state: [u32; 5] = std::array::from_fn(|_| next(&mut seed) as u32);
            let mut block = [0u8; 64];
            for chunk in block.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next(&mut seed).to_le_bytes());
            }
            let (mut fast, mut reference) = (state, state);
            compress(&mut fast, &block);
            compress_scalar(&mut reference, &block);
            assert_eq!(fast, reference, "state {state:08x?} block {block:02x?}");
        }
    }

    /// SHA-1 by the book: pad the whole message, then run the scalar
    /// rounds block by block.
    fn scalar_digest(data: &[u8]) -> [u8; 20] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = INIT;
        for block in padded.chunks_exact(64) {
            compress_scalar(&mut state, block.try_into().expect("64-byte block"));
        }
        digest_bytes(&state)
    }

    #[test]
    fn every_length_streams_to_the_reference_digest() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        for n in 0..=200 {
            let msg = &data[..n];
            let oneshot = Sha1::digest(msg);
            assert_eq!(oneshot, scalar_digest(msg), "length {n}");
            for chunk in [1usize, 3, 63, 64, 65] {
                let mut h = Sha1::new();
                for c in msg.chunks(chunk) {
                    h.update(c);
                }
                assert_eq!(h.finalize(), oneshot, "length {n}, chunk size {chunk}");
            }
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha1::digest(b"UUNET-import"), Sha1::digest(b"UUNET-export"));
    }
}

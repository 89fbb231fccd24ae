//! The `Ip` newtype: a 32-bit IPv4 address with strict dotted-quad parsing.

use std::fmt;
use std::str::FromStr;

use crate::class::AddrClass;
use crate::error::ParseError;

/// An IPv4 address.
///
/// Stored in host integer order (the numerically natural order: `10.0.0.1`
/// is `0x0A000001`), which makes prefix arithmetic simple shifts and masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ip(pub u32);

impl Ip {
    /// `0.0.0.0`.
    pub const ZERO: Ip = Ip(0);
    /// `255.255.255.255`.
    pub const BROADCAST: Ip = Ip(u32::MAX);

    /// Builds an address from its four octets, most significant first.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Ip {
        Ip(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Returns the four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// The raw 32-bit value.
    pub const fn to_u32(self) -> u32 {
        self.0
    }

    /// The classful addressing class of this address (A–E).
    pub const fn class(self) -> AddrClass {
        AddrClass::of(self)
    }

    /// Returns the bit at position `i`, where bit 0 is the *most*
    /// significant bit. Prefix-preserving anonymization walks addresses
    /// MSB-first, so this is the natural indexing for the whole workspace.
    ///
    /// # Panics
    /// Panics if `i >= 32`.
    pub const fn bit(self, i: u8) -> bool {
        assert!(i < 32);
        (self.0 >> (31 - i)) & 1 == 1
    }

    /// Returns a copy with bit `i` (MSB-first indexing) set to `v`.
    pub const fn with_bit(self, i: u8, v: bool) -> Ip {
        assert!(i < 32);
        let mask = 1u32 << (31 - i);
        if v {
            Ip(self.0 | mask)
        } else {
            Ip(self.0 & !mask)
        }
    }

    /// Length of the longest common prefix of two addresses, in bits
    /// (0..=32). Used by the property tests that verify the
    /// prefix-preserving guarantee end to end.
    pub const fn common_prefix_len(self, other: Ip) -> u8 {
        (self.0 ^ other.0).leading_zeros() as u8
    }

    /// [`Ip::from_str`] without the error: one pass over the bytes and no
    /// allocation, for callers that only ask whether a token is an
    /// address.
    pub fn parse_quad(s: &str) -> Option<Ip> {
        let mut v = 0u32;
        let mut octet = 0u32;
        let mut digits = 0;
        let mut dots = 0;
        for &b in s.as_bytes() {
            if b.is_ascii_digit() && digits < 3 {
                octet = octet * 10 + u32::from(b - b'0');
                digits += 1;
            } else if b == b'.' && digits > 0 && octet <= 255 && dots < 3 {
                v = (v << 8) | octet;
                octet = 0;
                digits = 0;
                dots += 1;
            } else {
                return None;
            }
        }
        (dots == 3 && digits > 0 && octet <= 255).then_some(Ip((v << 8) | octet))
    }
}

impl fmt::Display for Ip {
    /// The dotted quad, built in a stack buffer and handed over in one
    /// `write_str`: no `fmt` machinery per octet. Width and fill are
    /// ignored, as they always were.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; 15];
        let mut n = 0;
        for (i, o) in self.octets().into_iter().enumerate() {
            if i > 0 {
                buf[n] = b'.';
                n += 1;
            }
            if o >= 100 {
                buf[n] = b'0' + o / 100;
                n += 1;
            }
            if o >= 10 {
                buf[n] = b'0' + o / 10 % 10;
                n += 1;
            }
            buf[n] = b'0' + o % 10;
            n += 1;
        }
        f.write_str(std::str::from_utf8(&buf[..n]).expect("ASCII digits and dots"))
    }
}

impl FromStr for Ip {
    type Err = ParseError;

    /// Parses a strict dotted quad: exactly four decimal components, each in
    /// `0..=255`, no leading `+`, no whitespace. Leading zeros are accepted
    /// (`010.1.1.1`) because they appear in real configs, but a component
    /// longer than 3 digits is rejected so tokens like `1234.5.6.7` are
    /// *not* mistaken for addresses.
    fn from_str(s: &str) -> Result<Ip, ParseError> {
        Ip::parse_quad(s).ok_or_else(|| quad_error(s))
    }
}

/// Why `s`, which [`Ip::parse_quad`] refused, is no dotted quad: a wrong
/// component count first, else the first component that is empty, not
/// one to three ASCII digits, or above 255.
#[cold]
fn quad_error(s: &str) -> ParseError {
    let parts = s.bytes().filter(|&b| b == b'.').count() + 1;
    if parts != 4 {
        return ParseError::WrongComponentCount(parts);
    }
    for p in s.split('.') {
        if p.is_empty() || p.len() > 3 || !p.bytes().all(|b| b.is_ascii_digit()) {
            return ParseError::BadOctet(p.to_string());
        }
        let o: u32 = p.parse().expect("one to three digits");
        if o > 255 {
            return ParseError::OctetOutOfRange(o);
        }
    }
    unreachable!("four components of one to three digits, each at most 255, parse")
}

impl From<u32> for Ip {
    fn from(v: u32) -> Ip {
        Ip(v)
    }
}

impl From<Ip> for u32 {
    fn from(ip: Ip) -> u32 {
        ip.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0.0.0.0", "10.1.2.3", "255.255.255.255", "192.168.0.1"] {
            let ip: Ip = s.parse().unwrap();
            assert_eq!(ip.to_string(), s);
        }
    }

    #[test]
    fn parse_accepts_leading_zeros() {
        let ip: Ip = "010.001.002.003".parse().unwrap();
        assert_eq!(ip, Ip::from_octets(10, 1, 2, 3));
    }

    #[test]
    fn parse_rejects_bad_forms() {
        for s in [
            "1.2.3",
            "1.2.3.4.5",
            "1.2.3.256",
            "1.2.3.4444",
            "a.b.c.d",
            "1.2.3.",
            "",
            "1.2.3.-4",
            " 1.2.3.4",
        ] {
            assert!(s.parse::<Ip>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn octet_round_trip() {
        let ip = Ip::from_octets(192, 0, 2, 17);
        assert_eq!(ip.octets(), [192, 0, 2, 17]);
        assert_eq!(ip.to_u32(), 0xC0000211);
    }

    #[test]
    fn bit_indexing_is_msb_first() {
        let ip: Ip = "128.0.0.1".parse().unwrap();
        assert!(ip.bit(0));
        assert!(!ip.bit(1));
        assert!(ip.bit(31));
    }

    #[test]
    fn with_bit_sets_and_clears() {
        let ip = Ip::ZERO.with_bit(0, true).with_bit(31, true);
        assert_eq!(ip.to_string(), "128.0.0.1");
        assert_eq!(ip.with_bit(0, false).to_string(), "0.0.0.1");
    }

    /// The parse this module shipped before [`Ip::parse_quad`]: the
    /// oracle both parses are checked against.
    fn split_parse(s: &str) -> Result<Ip, ParseError> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(ParseError::WrongComponentCount(parts.len()));
        }
        let mut v: u32 = 0;
        for p in parts {
            if p.is_empty() || p.len() > 3 || !p.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseError::BadOctet(p.to_string()));
            }
            let o: u32 = p.parse().expect("digits only");
            if o > 255 {
                return Err(ParseError::OctetOutOfRange(o));
            }
            v = (v << 8) | o;
        }
        Ok(Ip(v))
    }

    /// One string near the dotted-quad grammar: three to five parts of
    /// digits (up to four, leading zeros and values past 255 included),
    /// with now and then an empty part, a sign, whitespace, a letter or a
    /// non-ASCII digit in place of a part or beside one.
    fn quad_like(src: &mut confanon_testkit::props::Source) -> String {
        use confanon_testkit::rng::Rng;
        const ODD: [&str; 10] = [
            "", "+1", "-4", " 1", "1 ", "a", "\u{663}", "1\u{663}", "0x1", "\t",
        ];
        let parts: Vec<String> = (0..src.gen_range(3usize..6))
            .map(|_| match src.gen_range(0u32..10) {
                0 => ODD[src.gen_range(0usize..ODD.len())].to_string(),
                1 => format!("{:03}", src.gen_range(0u32..300)),
                2 => src.gen_range(0u32..10_000).to_string(),
                3 => ["0", "9", "10", "99", "100", "255", "256"][src.gen_range(0usize..7)]
                    .to_string(),
                _ => src.gen_range(0u32..256).to_string(),
            })
            .collect();
        parts.join(".")
    }

    confanon_testkit::props! {
        cases = 2048;

        /// Both parses give the old split parse's answer, down to the
        /// error variant and its payload.
        fn parses_equal_the_split_parse(s in confanon_testkit::props::from_fn(quad_like)) {
            let want = split_parse(&s);
            assert_eq!(s.parse::<Ip>(), want, "{s:?}");
            assert_eq!(Ip::parse_quad(&s), want.ok(), "{s:?}");
        }

        /// The stack-buffer formatter writes what `write!` wrote.
        fn display_equals_write(v in confanon_testkit::props::any::<u32>()) {
            let [a, b, c, d] = Ip(v).octets();
            assert_eq!(Ip(v).to_string(), format!("{a}.{b}.{c}.{d}"));
        }
    }

    #[test]
    fn parses_equal_the_split_parse_on_edge_shapes() {
        for s in [
            "",
            ".",
            "...",
            "....",
            "1.2.3",
            "1.2.3.4.5",
            "1..2.3",
            ".1.2.3",
            "1.2.3.",
            "256.1.1.1",
            "1.2.3.256",
            "999.1.1.1",
            "1.2.3.0255",
            "0001.1.1.1",
            "01.02.03.04",
            "1.2.3.4/24",
            "1.2.3.4 ",
            "+1.2.3.4",
            "1.2.-3.4",
            "1.2.3.\u{663}",
            "a.b.c.d",
            "300.a.1.1",
            "1.a.300.1",
            "1.2.3.4a",
            "12.1.1.1:100",
        ] {
            let want = split_parse(s);
            assert_eq!(s.parse::<Ip>(), want, "{s:?}");
            assert_eq!(Ip::parse_quad(s), want.ok(), "{s:?}");
        }
    }

    #[test]
    fn display_equals_write_at_every_octet_boundary() {
        let edges = [0u8, 9, 10, 99, 100, 255];
        for a in edges {
            for b in edges {
                for (c, d) in edges.iter().zip(edges.iter().rev()) {
                    let ip = Ip::from_octets(a, b, *c, *d);
                    assert_eq!(ip.to_string(), format!("{a}.{b}.{c}.{d}"));
                }
            }
        }
        // Width and fill are ignored, as with the old `write!`.
        assert_eq!(format!("{:>20}", Ip::from_octets(1, 2, 3, 4)), "1.2.3.4");
    }

    #[test]
    fn common_prefix_len_cases() {
        let a: Ip = "10.0.0.0".parse().unwrap();
        let b: Ip = "10.0.0.1".parse().unwrap();
        assert_eq!(a.common_prefix_len(b), 31);
        assert_eq!(a.common_prefix_len(a), 32);
        let c: Ip = "138.0.0.0".parse().unwrap();
        assert_eq!(a.common_prefix_len(c), 0);
    }
}

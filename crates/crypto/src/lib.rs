//! # confanon-crypto — cryptographic primitives for the anonymizer
//!
//! The paper hashes every non-pass-list string "using SHA1 digests … salted
//! with a secret chosen by the network owner" (§4.1, §6.1), drives the
//! Crypto-PAn-style baseline IP scheme with a keyed pseudo-random function
//! (§4.3), and anonymizes public AS numbers with a keyed random permutation
//! (§4.4). This crate provides all of those from scratch:
//!
//! * [`sha1::Sha1`] — RFC 3174 SHA-1, tested against the RFC vectors. Its
//!   block compression runs on the x86-64 SHA extensions when the running
//!   CPU has them (std's run-time detection) and on portable scalar rounds
//!   otherwise; the scalar rounds are also the test reference;
//! * [`hmac::HmacSha1`] — RFC 2104 HMAC over our SHA-1, tested against the
//!   RFC 2202 vectors. It keeps the key's ipad/opad midstates, so a
//!   message of at most 55 bytes costs two single-block compressions;
//! * [`hasher::TokenHasher`] — the salted, consistent token-to-digest map
//!   that keeps referential integrity (`UUNET-import` hashes to the same
//!   string at its definition and every use);
//! * [`prf::Prf`] — a keyed bit-oracle used by the stateless IP scheme;
//! * [`permute::FeistelPermutation`] — a keyed bijection on `u16`, the
//!   "random permutation" the paper applies to public ASNs, made
//!   deterministic from the owner secret so that re-running the anonymizer
//!   maps a network consistently.
//!
//! None of this is meant to compete with audited crypto crates; it exists
//! so the reproduction is fully self-contained, and it is bit-for-bit
//! standard SHA-1/HMAC so digests can be checked externally. The only
//! `unsafe` code is the SHA-extension compression in [`sha1`] and its one
//! call site.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod hasher;
pub mod hmac;
pub mod permute;
pub mod prf;
pub mod sha1;

pub use hasher::TokenHasher;
pub use hmac::HmacSha1;
pub use permute::{FeistelPermutation, FeistelPermutation32};
pub use prf::Prf;
pub use sha1::Sha1;

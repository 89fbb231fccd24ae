//! Std-only testing toolkit for the confanon workspace.
//!
//! The build environment is hermetic: no registry, no external crates.
//! This crate supplies, from scratch, the capabilities the workspace
//! previously imported, and the test harnesses built on them:
//!
//! * [`rng`] — a deterministic xorshift64\* PRNG behind `rand`-shaped
//!   traits (`Rng`, `SeedableRng`, `SliceRandom`), so the corpus
//!   generator keeps its generic `<R: Rng>` signatures.
//! * [`mod@props`] — a property-test harness (`props!` macro) with random
//!   case generation, integrated shrinking over the recorded choice
//!   stream, and a `TESTKIT_SEED` / `TESTKIT_CASES` env override.
//! * [`json`] — a tiny JSON value type with a writer *and* parser,
//!   replacing `serde_json` for stats/report emission and the
//!   `confanon scan --record` input path.
//! * [`chaos`] — a seeded corpus mutator (truncation, invalid UTF-8
//!   splices, control characters, unterminated banners, oversized
//!   lines, deep nesting) for hostile-input hardening tests.
//! * [`faultfs`] — a seeded fault-injecting filesystem (torn writes,
//!   transient/permanent errors, rename failures, a switchable ENOSPC
//!   mode) for the durable-write crash-consistency properties.
//! * [`netchaos`] — seeded network chaos: deterministic hostile-wire
//!   delivery schedules (dribble, duplication, garbage, mid-frame
//!   disconnects) and a fault-injecting TCP proxy, the wire-level
//!   sibling of `faultfs` for serve-daemon hardening tests.
//! * [`serveclient`] — an independent `CONFANON/1` wire client for the
//!   serve daemon, implementing the framing from the DESIGN §14 spec
//!   (not from the server's code) so round-trip tests double as an
//!   interoperability check.
//!
//! Everything here is deterministic by default: property tests derive
//! their seed from the test name so CI runs are reproducible, and the
//! PRNG is a fixed algorithm with no platform entropy.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod chaos;
pub mod faultfs;
pub mod json;
pub mod netchaos;
pub mod props;
pub mod rng;
pub mod serveclient;

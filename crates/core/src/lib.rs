//! # confanon-core — the structure-preserving configuration anonymizer
//!
//! This crate is the paper's primary contribution (§4): a fully automated
//! pipeline that removes everything connecting a router configuration to
//! the identity of the network that owns it, while preserving the
//! structure researchers need — subnet containment, referential
//! integrity of identifiers, classful addressing, and the languages of
//! policy regexps.
//!
//! The pipeline deliberately avoids a grammar. Its behaviour is the
//! composition of:
//!
//! * a **pass-list** of tokens known to be innocuous ([`PassList`]),
//!   modelled on the paper's web-walker over the Cisco command-reference
//!   guides (§4.1);
//! * **28 contextual rules** ([`rules`]) — 2 word-segmentation rules, 3
//!   comment/banner strippers, 12 ASN locators, 4 miscellaneous-identity
//!   rules, and 7 address/identifier rules (§4.2–§4.5);
//! * salted **SHA-1 token hashing** for everything not on the pass-list;
//! * the **prefix-preserving IP mapper** and **ASN/community
//!   permutations** from the sibling crates;
//! * a **leak recorder** and the §6.1 *iterative methodology*: after a
//!   pass, lines that still contain a previously seen public ASN or
//!   address are highlighted for the operator, and rule ablations can be
//!   closed iteratively ([`iterate`]).
//!
//! ## Quickstart
//!
//! ```
//! use confanon_core::{Anonymizer, AnonymizerConfig};
//!
//! let cfg = AnonymizerConfig::new(b"foo-corp-secret".to_vec());
//! let mut anon = Anonymizer::new(cfg);
//! let out = anon.anonymize_config("router bgp 1111\n neighbor 12.126.236.17 remote-as 701\n");
//! assert!(!out.text.contains("12.126.236.17"));
//! assert!(!out.text.contains("701"));
//! assert!(out.text.contains("router bgp"));
//! ```

// Fail-closed: library code must never abort on input-derived data. Test
// modules keep the ergonomic forms.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod anonymizer;
pub mod batch;
pub mod discover;
pub mod error;
pub mod figure1;
pub mod fsx;
pub mod input;
pub mod iterate;
pub mod leak;
#[cfg(test)]
mod locator_tests;
pub mod manifest;
pub mod passlist;
pub mod publish;
pub mod rules;
pub mod serve;
pub mod signals;
pub mod state;
pub mod stats;
pub mod tenant;

pub use anonymizer::{AnonymizedConfig, Anonymizer, AnonymizerConfig, IpScheme};
pub use batch::{BatchInput, BatchOutput, BatchPipeline, BatchReport, FileDiscovery};
pub use discover::{ObservationLog, ObservedIp};
pub use error::{AnonError, BatchFailure, BatchPhase, StateErrorKind};
pub use state::{AnonState, FileMark, WarmStart, STATE_FILE_NAME, STATE_SCHEMA};
pub use fsx::{write_atomic, DurabilityStats, FileBytes, Fs, StdFs, MMAP_MIN_LEN};
pub use input::{sanitize_bytes, InputSanitation, MAX_LINE_LEN};
pub use iterate::{iterate_to_closure, IterationTrace};
pub use leak::{LeakRecord, LeakReport, LeakScanner};
pub use manifest::{FileEntry, FileStatus, RunManifest, RUN_MANIFEST_NAME, RUN_MANIFEST_SCHEMA};
pub use passlist::PassList;
pub use publish::{CommitGroup, Publisher};
pub use rules::{LineClass, Prefilter, PrefilterStats, RuleCategory, RuleId, ALL_RULES};
pub use serve::{
    run_daemon, ServeConfig, ServeOptions, ServeSummary, Status, Verb, MAX_PAYLOAD, PROTOCOL,
};
pub use stats::{AnonymizationStats, RewriteStats};
pub use tenant::{FlushMode, Tenant, TenantHealth, TenantSpec};

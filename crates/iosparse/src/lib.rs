//! # confanon-iosparse — a tolerant token/line model of IOS configurations
//!
//! The paper is explicit that a grammar-driven parser is the *wrong* tool:
//! no complete public grammar exists, 200+ IOS versions coexist in one
//! network, and only a small fraction of commands matter for research
//! (§3.1). The anonymizer therefore works on a token stream. This crate
//! provides:
//!
//! * [`token`] — whitespace-preserving line tokenization plus the paper's
//!   two *word segmentation* rules (§4.2): `Ethernet0/0` splits into the
//!   alphabetic token `Ethernet` (checked against the pass-list) and the
//!   non-alphabetic remainder `0/0` (never anonymized);
//! * [`line`](mod@line) — line classification with the stateful banner scanner
//!   (multi-line `banner motd ^C … ^C` blocks, `!` comments,
//!   `description`/`remark` free text);
//! * [`config`] — the config as a list of classified lines plus an
//!   indentation-based section view;
//! * [`commands`] — typed recognizers for the commands the *validation*
//!   suites need (interfaces, addresses, routing processes, BGP neighbors,
//!   route-maps, filter lists). The anonymizer itself never requires these;
//!   they exist so pre/post comparisons can be computed the same way the
//!   paper's colleague-run test suites did (§5).

#![deny(rustdoc::broken_intra_doc_links)]

pub mod commands;
pub mod config;
pub mod line;
pub mod token;

pub use commands::{parse_command, Action, Command, Direction};
pub use config::{Config, Section};
pub use line::{banner_delimiter, banner_self_closes, classify_lines, LineKind};
pub use token::{
    rebuild_sparse, segment, tokenize, Segment, Token, BYTE_CLASS, CLASS_ALPHA, CLASS_DIGIT,
    CLASS_WS,
};

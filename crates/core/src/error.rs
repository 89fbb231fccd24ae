//! Structured errors for the fail-closed pipeline.
//!
//! The paper's §6.1 defense is an *iterative human loop*; a production
//! sharing tool additionally needs machine-checkable failure taxonomy so
//! that automation can distinguish "the disk is broken" from "a worker
//! panicked on one hostile file" from "the leak gate refused to release
//! output". [`AnonError`] is that taxonomy, and [`BatchFailure`] is the
//! per-file record the batch pipeline emits instead of crashing.

use std::fmt;

/// The phase of the batch pipeline in which a per-file failure occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BatchPhase {
    /// Identifier-discovery pass.
    Discover,
    /// Emit pass (rewrite workers).
    Rewrite,
    /// Post-emission §6.1 leak scan.
    Scan,
}

impl BatchPhase {
    /// Stable lowercase name, used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            BatchPhase::Discover => "discover",
            BatchPhase::Rewrite => "rewrite",
            BatchPhase::Scan => "scan",
        }
    }

    /// Parses the name produced by [`BatchPhase::name`].
    pub fn parse(name: &str) -> Option<BatchPhase> {
        match name {
            "discover" => Some(BatchPhase::Discover),
            "rewrite" => Some(BatchPhase::Rewrite),
            "scan" => Some(BatchPhase::Scan),
            _ => None,
        }
    }
}

impl fmt::Display for BatchPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Renders a contained panic payload: the batch pipeline's per-file
/// failure cause, and a serve tenant's per-request one.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One file the batch pipeline could not process. The file's output is
/// withheld (fail closed); every other file of the corpus still emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchFailure {
    /// The input's display name.
    pub name: String,
    /// Where the failure happened.
    pub phase: BatchPhase,
    /// Human-readable cause (typically a contained panic message).
    pub cause: String,
}

impl fmt::Display for BatchFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.name, self.phase, self.cause)
    }
}

/// Why a persisted state directory was refused. Each kind carries its
/// own stable name so CLI regression tests (and operators) can tell a
/// stale-format state from a wrong-secret one from a corrupted one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateErrorKind {
    /// The state file's schema tag is not the supported version.
    VersionMismatch,
    /// The state was written under a different owner secret (or its
    /// permutation parameters no longer match).
    FingerprintMismatch,
    /// The state file is truncated, unparseable, structurally invalid,
    /// or its journal replay failed the trie structure check.
    Corrupted,
}

impl StateErrorKind {
    /// Stable lowercase name, used in error messages and tests.
    pub fn name(self) -> &'static str {
        match self {
            StateErrorKind::VersionMismatch => "state version mismatch",
            StateErrorKind::FingerprintMismatch => "state fingerprint mismatch",
            StateErrorKind::Corrupted => "state corrupted",
        }
    }
}

impl fmt::Display for StateErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Structured pipeline error. Each variant maps to one distinct CLI exit
/// code (see the `confanon` binary): automation can branch on the class
/// without parsing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnonError {
    /// Reading an input or writing an output failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// One or more files died inside panic containment; their outputs
    /// were withheld and the rest of the corpus completed.
    PanicContained {
        /// Per-file failure records, in input order.
        failures: Vec<BatchFailure>,
    },
    /// The §6.1 gate found residual recorded identifiers in some
    /// outputs; those files were quarantined, not emitted.
    LeakGated {
        /// Number of files quarantined.
        files: usize,
        /// Total flagged lines across them.
        leaks: usize,
    },
    /// A machine-readable input (leak record, report) failed to parse.
    InvalidInput {
        /// What was wrong.
        message: String,
    },
    /// A durable write failed *after* the run journal was safely on
    /// disk: nothing released is torn, the manifest accounts for every
    /// published byte, and the run can continue with `--resume` instead
    /// of restarting.
    ResumableInterrupted {
        /// The path whose write failed.
        path: String,
        /// The underlying OS error message.
        message: String,
    },
    /// A persisted anonymizer state (`--state DIR`) was present but
    /// unusable: wrong schema version, wrong owner secret, or corrupted.
    /// Refusing is fail-closed — silently starting cold would fork the
    /// mapping history the state exists to keep stable.
    StateInvalid {
        /// The state file involved.
        path: String,
        /// Which precondition failed.
        kind: StateErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// The serve daemon could not bind its listen endpoint (TCP address
    /// or Unix socket path). Nothing was served; no tenant state was
    /// touched.
    BindFailed {
        /// The endpoint as given (`host:port` or `unix:PATH`).
        addr: String,
        /// The underlying OS error message.
        message: String,
    },
    /// A machine-readable configuration file (`confanon.toml`) failed
    /// to parse or violated a structural requirement (duplicate tenant,
    /// missing secret, no endpoint).
    ConfigInvalid {
        /// The config file involved.
        path: String,
        /// What was wrong, with a line number where applicable.
        message: String,
    },
    /// `--require-clean-state`: a tenant's persisted state directory
    /// was present but unusable, and the operator asked for refusal at
    /// startup instead of the default per-tenant quarantine.
    TenantStateRefused {
        /// The tenant whose state was refused.
        tenant: String,
        /// The underlying state defect.
        message: String,
    },
}

impl fmt::Display for AnonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnonError::Io { path, message } => write!(f, "I/O error on {path}: {message}"),
            AnonError::PanicContained { failures } => write!(
                f,
                "{} file(s) failed inside panic containment (outputs withheld)",
                failures.len()
            ),
            AnonError::LeakGated { files, leaks } => write!(
                f,
                "leak gate: {leaks} residual hit(s) across {files} file(s) quarantined"
            ),
            AnonError::InvalidInput { message } => write!(f, "invalid input: {message}"),
            AnonError::ResumableInterrupted { path, message } => write!(
                f,
                "run interrupted (manifest intact): {path}: {message}; \
                 re-run with --resume to continue"
            ),
            AnonError::StateInvalid { path, kind, message } => {
                write!(f, "{kind} at {path}: {message}")
            }
            AnonError::BindFailed { addr, message } => {
                write!(f, "bind failed on {addr}: {message}")
            }
            AnonError::ConfigInvalid { path, message } => {
                write!(f, "invalid config {path}: {message}")
            }
            AnonError::TenantStateRefused { tenant, message } => {
                write!(f, "tenant {tenant:?} state refused: {message}")
            }
        }
    }
}

impl std::error::Error for AnonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for p in [BatchPhase::Discover, BatchPhase::Rewrite, BatchPhase::Scan] {
            assert_eq!(BatchPhase::parse(p.name()), Some(p));
        }
        assert_eq!(BatchPhase::parse("explode"), None);
    }

    #[test]
    fn display_is_informative() {
        let f = BatchFailure {
            name: "r1.cfg".into(),
            phase: BatchPhase::Rewrite,
            cause: "index out of bounds".into(),
        };
        assert_eq!(f.to_string(), "r1.cfg [rewrite]: index out of bounds");
        let e = AnonError::LeakGated { files: 2, leaks: 7 };
        assert!(e.to_string().contains("quarantined"));
        let io = AnonError::Io {
            path: "x".into(),
            message: "denied".into(),
        };
        assert!(io.to_string().contains("denied"));
        let r = AnonError::ResumableInterrupted {
            path: "out/a.anon".into(),
            message: "no space left on device".into(),
        };
        assert!(r.to_string().contains("--resume"));
        assert!(r.to_string().contains("manifest intact"));
    }

    #[test]
    fn serve_error_messages_are_distinct() {
        let bind = AnonError::BindFailed {
            addr: "127.0.0.1:4040".into(),
            message: "address in use".into(),
        };
        assert!(bind.to_string().contains("bind failed"));
        assert!(bind.to_string().contains("127.0.0.1:4040"));
        let cfgerr = AnonError::ConfigInvalid {
            path: "confanon.toml".into(),
            message: "line 3: expected `key = value`".into(),
        };
        assert!(cfgerr.to_string().contains("invalid config"));
        assert!(cfgerr.to_string().contains("confanon.toml"));
        let refused = AnonError::TenantStateRefused {
            tenant: "alpha".into(),
            message: "state corrupted at alpha/state.json".into(),
        };
        assert!(refused.to_string().contains("state refused"));
        assert!(refused.to_string().contains("alpha"));
    }

    #[test]
    fn state_error_kinds_have_distinct_names() {
        let kinds = [
            StateErrorKind::VersionMismatch,
            StateErrorKind::FingerprintMismatch,
            StateErrorKind::Corrupted,
        ];
        let names: std::collections::BTreeSet<&str> =
            kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
        let e = AnonError::StateInvalid {
            path: "state/state.json".into(),
            kind: StateErrorKind::VersionMismatch,
            message: "schema \"confanon-state-v0\"".into(),
        };
        assert!(e.to_string().contains("state version mismatch"));
        assert!(e.to_string().contains("state/state.json"));
    }
}

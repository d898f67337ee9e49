//! The unified error surface of the query and persistence paths.
//!
//! PRs 1–6 grew the engine behind `Option`s and panics: `neighbors`
//! indexes out of bounds on an unknown user, `predict_rating` returns
//! `None` for three distinct reasons, and graph loading has its own
//! one-off error enum. A serving daemon cannot panic on a bad request,
//! so the query path, the wire handlers, and snapshot/WAL recovery all
//! report through one [`KiffError`] — and the CLI maps its variants to
//! stable process exit codes.

use std::fmt;

/// Errors surfaced by the engine query path, the wire protocol, and the
/// persistence layer.
#[derive(Debug)]
pub enum KiffError {
    /// A user id at or beyond the engine's user count.
    UnknownUser {
        /// The offending user id.
        user: u32,
        /// Number of users the engine currently tracks.
        num_users: usize,
    },
    /// An item id the dataset has never seen.
    UnknownItem {
        /// The offending item id.
        item: u32,
        /// Number of items the dataset currently tracks.
        num_items: usize,
    },
    /// The user exists but has no ratings, so profile-based operations
    /// (recommendation, prediction, similarity) are undefined.
    EmptyProfile {
        /// The profile-less user.
        user: u32,
    },
    /// A search query carried no items.
    EmptyQuery,
    /// An underlying I/O failure (WAL append, snapshot write, socket).
    Io(std::io::Error),
    /// Persisted state failed validation: bad magic, unsupported
    /// version, CRC mismatch, or internally inconsistent sections.
    Corrupt {
        /// Which artifact is corrupt (e.g. `"snapshot"`, `"wal record"`).
        what: String,
        /// Human-readable detail of the failed check.
        detail: String,
    },
    /// Two components that must agree disagree on a dimension — e.g. a
    /// KNN graph paired with a dataset built over a different number of
    /// users.
    Mismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A malformed or unsupported wire-protocol request.
    Protocol(String),
    /// The daemon is in read-only degraded mode (its WAL is failing):
    /// queries keep serving, but the named write operation was refused.
    /// Retryable — a background task keeps probing the WAL and flips
    /// the daemon back to healthy once fsync succeeds again.
    Unavailable {
        /// The refused operation (e.g. `"update"`, `"snapshot"`).
        op: String,
        /// Why the daemon is degraded (the original WAL failure).
        detail: String,
    },
    /// The daemon shed this request because its bounded in-flight limit
    /// was already saturated. Retryable after backoff.
    Overloaded {
        /// In-flight requests at the moment of shedding.
        inflight: usize,
        /// The configured in-flight limit.
        limit: usize,
    },
    /// A write was sent to a replica. Replicas serve reads but refuse
    /// mutations; the carried leader hint (the primary's client
    /// address, when the replica knows it) lets a failover-aware client
    /// re-route instead of blindly retrying the same endpoint.
    NotPrimary {
        /// Client address of the current primary, when known.
        leader: Option<String>,
    },
    /// An error reported by a remote `kiff-serve` daemon, carrying the
    /// wire `kind` tag of the server-side variant and the failing op so
    /// callers can branch on `unavailable` vs `overloaded` vs `corrupt`.
    Remote {
        /// The server-side [`KiffError::kind`] tag.
        kind: String,
        /// The wire op that failed (e.g. `"update"`), when known.
        op: String,
        /// The server-side error message.
        message: String,
    },
}

impl KiffError {
    /// Shorthand for a [`KiffError::Corrupt`] with owned strings.
    pub fn corrupt(what: impl Into<String>, detail: impl Into<String>) -> Self {
        KiffError::Corrupt {
            what: what.into(),
            detail: detail.into(),
        }
    }

    /// A short machine-readable tag for the variant, used as the
    /// `error.kind` field of wire-protocol error responses.
    pub fn kind(&self) -> &'static str {
        match self {
            KiffError::UnknownUser { .. } => "unknown_user",
            KiffError::UnknownItem { .. } => "unknown_item",
            KiffError::EmptyProfile { .. } => "empty_profile",
            KiffError::EmptyQuery => "empty_query",
            KiffError::Io(_) => "io",
            KiffError::Corrupt { .. } => "corrupt",
            KiffError::Mismatch { .. } => "mismatch",
            KiffError::Protocol(_) => "protocol",
            KiffError::Unavailable { .. } => "unavailable",
            KiffError::Overloaded { .. } => "overloaded",
            KiffError::NotPrimary { .. } => "not_primary",
            KiffError::Remote { .. } => "remote",
        }
    }

    /// Whether retrying the same operation (after backoff, possibly on
    /// a fresh connection) can plausibly succeed.
    ///
    /// `Io` covers torn connections and transient disk errors;
    /// `Unavailable` clears when the daemon's WAL recovers;
    /// `Overloaded` clears when in-flight load drains; `NotPrimary`
    /// clears by retrying against the hinted leader (the retrying
    /// client re-routes rather than re-sending blindly). A `Remote`
    /// error is retryable exactly when its server-side class is — so
    /// the retrying client applies one policy on both sides of the
    /// wire. Everything else (bad request, corruption, protocol
    /// violation) would fail identically on retry.
    pub fn is_retryable(&self) -> bool {
        match self {
            KiffError::Io(_)
            | KiffError::Unavailable { .. }
            | KiffError::Overloaded { .. }
            | KiffError::NotPrimary { .. } => true,
            KiffError::Remote { kind, .. } => {
                matches!(
                    kind.as_str(),
                    "io" | "unavailable" | "overloaded" | "not_primary"
                )
            }
            _ => false,
        }
    }

    /// The process exit code the CLI uses for this variant.
    ///
    /// `1` stays reserved for usage/argument errors; the query and
    /// persistence failures get stable distinct codes so scripts can
    /// branch on them:
    ///
    /// | code | variants |
    /// |------|----------|
    /// | 2    | [`UnknownUser`](KiffError::UnknownUser), [`UnknownItem`](KiffError::UnknownItem) |
    /// | 3    | [`EmptyProfile`](KiffError::EmptyProfile), [`EmptyQuery`](KiffError::EmptyQuery) |
    /// | 4    | [`Io`](KiffError::Io) |
    /// | 5    | [`Corrupt`](KiffError::Corrupt), [`Mismatch`](KiffError::Mismatch) |
    /// | 6    | [`Protocol`](KiffError::Protocol) |
    /// | 7    | [`Remote`](KiffError::Remote) |
    /// | 8    | [`Unavailable`](KiffError::Unavailable) |
    /// | 9    | [`Overloaded`](KiffError::Overloaded) |
    /// | 10   | [`NotPrimary`](KiffError::NotPrimary) |
    pub fn exit_code(&self) -> u8 {
        match self {
            KiffError::UnknownUser { .. } | KiffError::UnknownItem { .. } => 2,
            KiffError::EmptyProfile { .. } | KiffError::EmptyQuery => 3,
            KiffError::Io(_) => 4,
            KiffError::Corrupt { .. } | KiffError::Mismatch { .. } => 5,
            KiffError::Protocol(_) => 6,
            KiffError::Remote { .. } => 7,
            KiffError::Unavailable { .. } => 8,
            KiffError::Overloaded { .. } => 9,
            KiffError::NotPrimary { .. } => 10,
        }
    }
}

impl fmt::Display for KiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KiffError::UnknownUser { user, num_users } => {
                write!(f, "unknown user {user} (engine has {num_users} users)")
            }
            KiffError::UnknownItem { item, num_items } => {
                write!(f, "unknown item {item} (dataset has {num_items} items)")
            }
            KiffError::EmptyProfile { user } => {
                write!(f, "user {user} has an empty profile")
            }
            KiffError::EmptyQuery => write!(f, "query profile is empty"),
            KiffError::Io(e) => write!(f, "i/o error: {e}"),
            KiffError::Corrupt { what, detail } => {
                write!(f, "corrupt {what}: {detail}")
            }
            KiffError::Mismatch { detail } => write!(f, "mismatch: {detail}"),
            KiffError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            KiffError::Unavailable { op, detail } => {
                write!(f, "{op} unavailable (daemon degraded): {detail}")
            }
            KiffError::Overloaded { inflight, limit } => {
                write!(
                    f,
                    "overloaded: {inflight} requests in flight (limit {limit})"
                )
            }
            KiffError::NotPrimary { leader } => match leader {
                Some(addr) => write!(f, "not primary: writes go to the leader at {addr}"),
                None => write!(f, "not primary: leader unknown, rediscover via health"),
            },
            KiffError::Remote { kind, op, message } => {
                if op.is_empty() {
                    write!(f, "server error ({kind}): {message}")
                } else {
                    write!(f, "server error ({kind}) on {op}: {message}")
                }
            }
        }
    }
}

impl std::error::Error for KiffError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KiffError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for KiffError {
    fn from(e: std::io::Error) -> Self {
        // Codecs in kiff-dataset/kiff-graph report corruption as
        // `InvalidData` because they sit below this crate; lift those
        // back into the structured variant here.
        if e.kind() == std::io::ErrorKind::InvalidData {
            KiffError::Corrupt {
                what: "stream".into(),
                detail: e.to_string(),
            }
        } else {
            KiffError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_stable_and_distinct_per_class() {
        let unknown = KiffError::UnknownUser {
            user: 7,
            num_users: 3,
        };
        assert_eq!(unknown.exit_code(), 2);
        assert_eq!(KiffError::EmptyQuery.exit_code(), 3);
        assert_eq!(
            KiffError::Io(std::io::Error::other("disk on fire")).exit_code(),
            4
        );
        assert_eq!(KiffError::corrupt("snapshot", "bad magic").exit_code(), 5);
        assert_eq!(KiffError::Protocol("nope".into()).exit_code(), 6);
        let unavailable = KiffError::Unavailable {
            op: "update".into(),
            detail: "wal fsync failing".into(),
        };
        assert_eq!(unavailable.exit_code(), 8);
        assert_eq!(unavailable.kind(), "unavailable");
        let overloaded = KiffError::Overloaded {
            inflight: 64,
            limit: 64,
        };
        assert_eq!(overloaded.exit_code(), 9);
        assert_eq!(overloaded.kind(), "overloaded");
        let not_primary = KiffError::NotPrimary {
            leader: Some("127.0.0.1:7407".into()),
        };
        assert_eq!(not_primary.exit_code(), 10);
        assert_eq!(not_primary.kind(), "not_primary");
        assert!(not_primary.to_string().contains("127.0.0.1:7407"));
    }

    #[test]
    fn retryability_tracks_the_error_class_across_the_wire() {
        assert!(KiffError::Io(std::io::Error::other("torn")).is_retryable());
        assert!(KiffError::Unavailable {
            op: "update".into(),
            detail: "degraded".into(),
        }
        .is_retryable());
        assert!(KiffError::Overloaded {
            inflight: 9,
            limit: 8,
        }
        .is_retryable());
        assert!(!KiffError::EmptyQuery.is_retryable());
        assert!(!KiffError::corrupt("wal record", "crc").is_retryable());

        let remote = |kind: &str| KiffError::Remote {
            kind: kind.into(),
            op: "update".into(),
            message: "m".into(),
        };
        assert!(KiffError::NotPrimary { leader: None }.is_retryable());
        assert!(remote("unavailable").is_retryable());
        assert!(remote("overloaded").is_retryable());
        assert!(remote("io").is_retryable());
        assert!(remote("not_primary").is_retryable());
        assert!(!remote("unknown_user").is_retryable());
        assert!(!remote("corrupt").is_retryable());
    }

    #[test]
    fn invalid_data_io_errors_lift_to_corrupt() {
        let e = std::io::Error::new(std::io::ErrorKind::InvalidData, "crc mismatch");
        let lifted = KiffError::from(e);
        assert!(matches!(lifted, KiffError::Corrupt { .. }));
        assert_eq!(lifted.exit_code(), 5);
        let plain = KiffError::from(std::io::Error::other("boom"));
        assert!(matches!(plain, KiffError::Io(_)));
    }

    #[test]
    fn display_names_the_offender() {
        let e = KiffError::UnknownUser {
            user: 9,
            num_users: 4,
        };
        assert!(e.to_string().contains("user 9"));
        assert_eq!(e.kind(), "unknown_user");
    }
}

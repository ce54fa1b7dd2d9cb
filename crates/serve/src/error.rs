//! Typed serving errors.

use std::fmt;

/// Why a request was not answered by the serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The request queue was full and the request was shed at admission
    /// (backpressure instead of unbounded buffering). Clients should retry
    /// with backoff or route to a replica.
    Overloaded,
    /// The runtime is draining: no new requests are admitted, but requests
    /// already queued will still be answered.
    ShuttingDown,
    /// The worker that owned this request disappeared before producing an
    /// answer (its response channel was dropped). Should not happen in a
    /// healthy runtime.
    WorkerLost,
    /// The task panicked while serving the batch this request was part of.
    /// The worker survives (the panic is caught) and the whole batch is
    /// failed with this error.
    TaskPanicked,
    /// The query is outside what the served structure can answer — empty,
    /// or naming an element id past the tenant's vocabulary — so it was
    /// refused before admission. The rest of its frame is answered.
    InvalidQuery,
}

impl ServeError {
    /// Stable snake_case name used as the `reason` metric label.
    pub fn label(self) -> &'static str {
        match self {
            ServeError::Overloaded => "overloaded",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::WorkerLost => "worker_lost",
            ServeError::TaskPanicked => "task_panicked",
            ServeError::InvalidQuery => "invalid_query",
        }
    }

    /// Stable one-byte wire code, so remote clients can distinguish shed
    /// from panic from worker-lost without parsing strings. Codes 1–15 are
    /// reserved for serve errors; the `SLP1` protocol layer uses 16+ for its
    /// own errors.
    pub fn code(self) -> u8 {
        match self {
            ServeError::Overloaded => 1,
            ServeError::ShuttingDown => 2,
            ServeError::WorkerLost => 3,
            ServeError::TaskPanicked => 4,
            ServeError::InvalidQuery => 5,
        }
    }

    /// Decodes a wire code written by [`ServeError::code`].
    pub fn from_code(code: u8) -> Option<ServeError> {
        match code {
            1 => Some(ServeError::Overloaded),
            2 => Some(ServeError::ShuttingDown),
            3 => Some(ServeError::WorkerLost),
            4 => Some(ServeError::TaskPanicked),
            5 => Some(ServeError::InvalidQuery),
            _ => None,
        }
    }

    /// The closest [`std::io::ErrorKind`]; used by
    /// the `From<ServeError> for std::io::Error` conversion so callers that
    /// must speak `io::Error` keep a machine-checkable kind instead of a
    /// stringified message.
    pub fn io_kind(self) -> std::io::ErrorKind {
        match self {
            // A shed request should be retried (with backoff) — the closest
            // stable kind is WouldBlock: "try again later".
            ServeError::Overloaded => std::io::ErrorKind::WouldBlock,
            ServeError::ShuttingDown => std::io::ErrorKind::ConnectionAborted,
            ServeError::WorkerLost => std::io::ErrorKind::BrokenPipe,
            ServeError::TaskPanicked => std::io::ErrorKind::Other,
            ServeError::InvalidQuery => std::io::ErrorKind::InvalidInput,
        }
    }
}

impl From<ServeError> for std::io::Error {
    /// Structured conversion: the kind is mapped per variant and the typed
    /// error rides along as the source, so `io::Error::downcast` (or
    /// `get_ref`) recovers the exact [`ServeError`] instead of a string.
    fn from(e: ServeError) -> Self {
        std::io::Error::new(e.io_kind(), e)
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "request shed: queue full (overloaded)"),
            ServeError::ShuttingDown => write!(f, "runtime is shutting down"),
            ServeError::WorkerLost => write!(f, "serving worker lost before answering"),
            ServeError::TaskPanicked => write!(f, "task panicked while serving the batch"),
            ServeError::InvalidQuery => {
                write!(f, "query refused: empty or outside the collection's vocabulary")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(ServeError::Overloaded.label(), "overloaded");
        assert_eq!(ServeError::ShuttingDown.label(), "shutting_down");
        assert_eq!(ServeError::WorkerLost.label(), "worker_lost");
        assert_eq!(ServeError::TaskPanicked.label(), "task_panicked");
        assert_eq!(ServeError::InvalidQuery.label(), "invalid_query");
    }

    #[test]
    fn wire_codes_roundtrip_and_io_conversion_keeps_the_variant() {
        for e in [
            ServeError::Overloaded,
            ServeError::ShuttingDown,
            ServeError::WorkerLost,
            ServeError::TaskPanicked,
            ServeError::InvalidQuery,
        ] {
            assert_eq!(ServeError::from_code(e.code()), Some(e));
            assert!(e.code() < 16, "serve codes stay below the protocol range");
            let io: std::io::Error = e.into();
            assert_eq!(io.kind(), e.io_kind());
            let recovered = io
                .get_ref()
                .and_then(|inner| inner.downcast_ref::<ServeError>())
                .copied();
            assert_eq!(recovered, Some(e), "typed source survives the conversion");
        }
        assert_eq!(ServeError::from_code(0), None);
        assert_eq!(ServeError::from_code(99), None);
    }

    #[test]
    fn displays_mention_the_cause() {
        assert!(ServeError::Overloaded.to_string().contains("queue full"));
        assert!(ServeError::TaskPanicked.to_string().contains("panicked"));
    }
}

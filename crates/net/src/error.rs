//! Client-side error type: transport faults and server-sent protocol
//! errors, kept distinct so callers can branch on retryability.

use crate::frame::FrameError;
use crate::proto::ErrorCode;
use std::io;

/// What went wrong on a [`Client`](crate::Client) call.
#[derive(Debug)]
pub enum ClientError {
    /// A socket-level failure.
    Io(io::Error),
    /// A framing failure (truncated, oversized, closed).
    Frame(FrameError),
    /// The server sent something this client cannot interpret (undecodable
    /// payload, or a response type that does not fit the pending request).
    Protocol(String),
    /// The server answered with a typed protocol error.
    Server {
        /// The machine-readable code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
        /// Back-off hint for retryable codes.
        retry_after_ms: Option<u64>,
    },
}

impl ClientError {
    /// The server-sent error code, when this is a [`ClientError::Server`].
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// True when retrying the same request later may succeed (the server
    /// said `overloaded` or `draining`).
    pub fn is_retryable(&self) -> bool {
        self.code().is_some_and(ErrorCode::is_retryable)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server {
                code,
                message,
                retry_after_ms,
            } => {
                write!(f, "server error [{code}]: {message}")?;
                if let Some(ms) = retry_after_ms {
                    write!(f, " (retry after {ms} ms)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_follows_the_code() {
        let overloaded = ClientError::Server {
            code: ErrorCode::Overloaded,
            message: "busy".into(),
            retry_after_ms: Some(5),
        };
        assert!(overloaded.is_retryable());
        assert_eq!(overloaded.code(), Some(ErrorCode::Overloaded));
        assert!(overloaded.to_string().contains("retry after 5 ms"));

        let parse = ClientError::Server {
            code: ErrorCode::Parse,
            message: "bad".into(),
            retry_after_ms: None,
        };
        assert!(!parse.is_retryable());
        assert!(ClientError::Protocol("x".into()).code().is_none());
    }
}

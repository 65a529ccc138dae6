//! Transport-level errors.

use std::fmt;
use std::io;

/// Errors raised by the transport layer itself (distinct from application
/// errors, which travel inside successful responses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The underlying socket failed or closed.
    Io(String),
    /// The peer sent bytes that do not parse as the expected protocol.
    Protocol(String),
    /// The call did not complete before its deadline.
    DeadlineExceeded,
    /// The connection was shut down while calls were in flight.
    ConnectionClosed,
    /// No connection could be established to the target address.
    Unreachable(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Protocol(e) => write!(f, "protocol error: {e}"),
            TransportError::DeadlineExceeded => write!(f, "deadline exceeded"),
            TransportError::ConnectionClosed => write!(f, "connection closed"),
            TransportError::Unreachable(addr) => write!(f, "unreachable: {addr}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => TransportError::DeadlineExceeded,
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe => TransportError::ConnectionClosed,
            _ => TransportError::Io(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_error_mapping() {
        let e: TransportError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert_eq!(e, TransportError::ConnectionClosed);
        let e: TransportError = io::Error::new(io::ErrorKind::TimedOut, "t").into();
        assert_eq!(e, TransportError::DeadlineExceeded);
        let e: TransportError = io::Error::other("x").into();
        assert!(matches!(e, TransportError::Io(_)));
    }

    #[test]
    fn display() {
        assert!(TransportError::Unreachable("1.2.3.4:5".into())
            .to_string()
            .contains("1.2.3.4:5"));
    }
}

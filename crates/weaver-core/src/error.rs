//! The error type carried by every component method.

use std::fmt;

use weaver_codec::error::DecodeError;
use weaver_macros::WeaverData;
use weaver_transport::TransportError;

/// The error type of component method calls.
///
/// `WeaverError` crosses process boundaries: it is encoded into RPC replies
/// (hence the `WeaverData` derive) so a caller sees the same error whether
/// the callee was co-located or three machines away — the transparency the
/// programming model promises.
#[derive(Debug, Clone, PartialEq, Eq, WeaverData)]
pub enum WeaverError {
    /// An application-level failure raised by component code.
    App {
        /// Application-defined error code.
        code: u32,
        /// Human-readable description.
        message: String,
    },
    /// No healthy replica of the target component is reachable.
    Unavailable {
        /// What was tried.
        detail: String,
    },
    /// The call's deadline passed before a reply arrived.
    DeadlineExceeded,
    /// The caller cancelled the call.
    Cancelled,
    /// Arguments or reply failed to decode.
    Codec {
        /// Underlying decode failure.
        detail: String,
    },
    /// A transport-level failure (connection reset, protocol error).
    Network {
        /// Underlying transport failure.
        detail: String,
    },
    /// The callee runs a different deployment version (the atomic-rollout
    /// backstop, §4.4: this should never fire when the manager routes
    /// correctly, and the A5 experiment counts exactly these).
    VersionMismatch {
        /// Version the caller runs.
        caller_version: u64,
        /// Version the callee runs.
        callee_version: u64,
    },
    /// No component with this name exists in the registry.
    UnknownComponent {
        /// The requested name.
        name: String,
    },
    /// The method id is out of range for the component.
    UnknownMethod {
        /// Component name.
        component: String,
        /// Offending method id.
        method: u32,
    },
    /// A dependency cycle was hit while starting components.
    InitCycle {
        /// Component whose start re-entered itself.
        component: String,
    },
    /// Anything else.
    Internal {
        /// Description.
        detail: String,
    },
    /// The callee refused the call without running it: a migration fences
    /// the call's key or component there, or the callee's routing names
    /// another owner for the key. The router re-sends such a call; this
    /// error never reaches application code.
    Fenced {
        /// The callee's routing epoch when it refused.
        epoch: u64,
    },
}

impl WeaverError {
    /// Convenience constructor for application errors.
    pub fn app(message: impl Into<String>) -> Self {
        WeaverError::App {
            code: 0,
            message: message.into(),
        }
    }

    /// Convenience constructor for internal errors.
    pub fn internal(detail: impl Into<String>) -> Self {
        WeaverError::Internal {
            detail: detail.into(),
        }
    }

    /// True when a retry could plausibly succeed.
    ///
    /// Application errors, codec errors and version mismatches are
    /// deterministic — retrying them only amplifies load.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            WeaverError::Unavailable { .. } | WeaverError::Network { .. }
        )
    }
}

impl fmt::Display for WeaverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeaverError::App { code, message } => write!(f, "application error {code}: {message}"),
            WeaverError::Unavailable { detail } => write!(f, "unavailable: {detail}"),
            WeaverError::DeadlineExceeded => write!(f, "deadline exceeded"),
            WeaverError::Cancelled => write!(f, "cancelled"),
            WeaverError::Codec { detail } => write!(f, "codec error: {detail}"),
            WeaverError::Network { detail } => write!(f, "network error: {detail}"),
            WeaverError::VersionMismatch {
                caller_version,
                callee_version,
            } => write!(
                f,
                "version mismatch: caller v{caller_version}, callee v{callee_version}"
            ),
            WeaverError::UnknownComponent { name } => write!(f, "unknown component {name:?}"),
            WeaverError::UnknownMethod { component, method } => {
                write!(f, "unknown method {method} on {component}")
            }
            WeaverError::InitCycle { component } => {
                write!(f, "dependency cycle while starting {component}")
            }
            WeaverError::Internal { detail } => write!(f, "internal error: {detail}"),
            WeaverError::Fenced { epoch } => write!(f, "fenced by its owner at epoch {epoch}"),
        }
    }
}

impl std::error::Error for WeaverError {}

impl From<DecodeError> for WeaverError {
    fn from(e: DecodeError) -> Self {
        WeaverError::Codec {
            detail: e.to_string(),
        }
    }
}

impl From<TransportError> for WeaverError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::DeadlineExceeded => WeaverError::DeadlineExceeded,
            TransportError::Unreachable(d) => WeaverError::Unavailable { detail: d },
            other => WeaverError::Network {
                detail: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_codec::prelude::*;

    #[test]
    fn errors_cross_the_wire() {
        let cases = vec![
            WeaverError::app("out of stock"),
            WeaverError::DeadlineExceeded,
            WeaverError::VersionMismatch {
                caller_version: 1,
                callee_version: 2,
            },
            WeaverError::UnknownMethod {
                component: "Cart".into(),
                method: 9,
            },
        ];
        for e in cases {
            let back: WeaverError = decode_from_slice(&encode_to_vec(&e)).unwrap();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn retryability() {
        assert!(WeaverError::Unavailable {
            detail: String::new()
        }
        .is_retryable());
        assert!(WeaverError::Network {
            detail: String::new()
        }
        .is_retryable());
        assert!(!WeaverError::app("x").is_retryable());
        assert!(!WeaverError::DeadlineExceeded.is_retryable());
        assert!(!WeaverError::VersionMismatch {
            caller_version: 1,
            callee_version: 2
        }
        .is_retryable());
    }

    #[test]
    fn transport_error_mapping() {
        assert_eq!(
            WeaverError::from(TransportError::DeadlineExceeded),
            WeaverError::DeadlineExceeded
        );
        assert!(matches!(
            WeaverError::from(TransportError::ConnectionClosed),
            WeaverError::Network { .. }
        ));
        assert!(matches!(
            WeaverError::from(TransportError::Unreachable("x".into())),
            WeaverError::Unavailable { .. }
        ));
    }

    #[test]
    fn display_mentions_detail() {
        let e = WeaverError::app("boom");
        assert!(e.to_string().contains("boom"));
    }
}

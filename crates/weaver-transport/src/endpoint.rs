//! Data-plane addresses: where a server listens and where a connection
//! dials.
//!
//! An [`Endpoint`] is a TCP socket address or a Linux abstract-namespace
//! unix socket name. The transport never chooses between them: the
//! deployer that placed a component does. Only the runtime that spawned
//! both sides of a call knows they share a host, so a proclet listens on a
//! fresh abstract name, while a server handed `host:port` (the gRPC-like
//! baseline) stays on TCP. A dial follows the endpoint's kind; there is no
//! fallback from one kind to the other.
//!
//! Abstract names live in the kernel, not the file system: nothing is left
//! on disk, and a name disappears with the last socket bound to it, so a
//! killed proclet's name cannot outlive it.
//!
//! The name is stored inline, so an `Endpoint` is `Copy`: a router copies
//! one out of its routing table on every call without allocating.
//!
//! Text form: `tcp:127.0.0.1:4000` or `unix:@name`. On the wire it is a tag
//! byte (0 TCP, 1 unix) and then the address (`SocketAddr`'s own encoding)
//! or the length-prefixed name.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{SocketAddr as UnixAddr, UnixListener, UnixStream};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

use weaver_codec::varint::{uvarint_len, write_uvarint};
use weaver_codec::{Decode, DecodeError, Encode, Reader};

use crate::error::TransportError;
use crate::fault::DuplexStream;

/// Longest abstract name an [`Endpoint`] holds, in bytes.
pub(crate) const MAX_UNIX_NAME: usize = 32;

/// A Linux abstract-namespace socket name: 1 to 32 bytes of UTF-8, stored
/// inline.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct UnixName {
    len: u8,
    /// The name, then zeros: bytes past `len` are always zero, so the
    /// derived equality compares names.
    bytes: [u8; MAX_UNIX_NAME],
}

impl UnixName {
    /// Checks `name`: empty or longer than `MAX_UNIX_NAME` bytes is an
    /// error.
    fn new(name: &str) -> Result<Self, DecodeError> {
        let len = name.len();
        if len == 0 || len > MAX_UNIX_NAME {
            return Err(DecodeError::InvalidLength(len as u64));
        }
        let mut bytes = [0; MAX_UNIX_NAME];
        bytes[..len].copy_from_slice(name.as_bytes());
        Ok(UnixName {
            len: len as u8,
            bytes,
        })
    }

    /// The name.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..usize::from(self.len)])
            .expect("a UnixName is built from a str")
    }

    fn socket_addr(&self) -> io::Result<UnixAddr> {
        UnixAddr::from_abstract_name(self.as_str())
    }
}

impl Hash for UnixName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for UnixName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:?}", self.as_str())
    }
}

/// Where a data-plane server listens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A TCP socket address.
    Tcp(SocketAddr),
    /// A Linux abstract-namespace unix socket.
    Unix(UnixName),
}

impl Endpoint {
    /// The unix endpoint named `name`: 1 to 32 bytes, or an error.
    pub fn unix(name: &str) -> Result<Endpoint, DecodeError> {
        UnixName::new(name).map(Endpoint::Unix)
    }

    /// A unix endpoint no live socket holds: `weaver-<pid>-<n>`, where `n`
    /// counts this process's calls. A process id is unique among live
    /// processes, and an abstract name dies with its process, so a
    /// restarted proclet gets a different name from its predecessor.
    pub fn fresh_unix() -> Endpoint {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        Endpoint::unix(&format!("weaver-{:x}-{n:x}", std::process::id()))
            .expect("a pid and a counter in hex fit in MAX_UNIX_NAME")
    }

    /// Opens a blocking stream to the endpoint. A TCP stream gets
    /// `TCP_NODELAY`: the protocol's messages are small and latency-bound,
    /// and Nagle would hold them behind ACKs.
    pub fn dial(&self) -> Result<Box<dyn DuplexStream>, TransportError> {
        let unreachable = |e: io::Error| TransportError::Unreachable(format!("{self}: {e}"));
        match self {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr).map_err(unreachable)?;
                stream.set_nodelay(true)?;
                Ok(Box::new(stream))
            }
            Endpoint::Unix(name) => {
                let stream = UnixStream::connect_addr(&name.socket_addr()?).map_err(unreachable)?;
                Ok(Box::new(stream))
            }
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(name) => write!(f, "unix:@{}", name.as_str()),
        }
    }
}

impl FromStr for Endpoint {
    type Err = DecodeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let malformed = DecodeError::JsonType {
            expected: "an endpoint: tcp:<address> or unix:@<name>",
        };
        if let Some(addr) = s.strip_prefix("tcp:") {
            addr.parse().map(Endpoint::Tcp).map_err(|_| malformed)
        } else if let Some(name) = s.strip_prefix("unix:@") {
            Endpoint::unix(name)
        } else {
            Err(malformed)
        }
    }
}

/// What [`crate::Server::bind`] and [`crate::Connection::connect`] take: an
/// [`Endpoint`], or a TCP address in any form `std` resolves
/// (`"127.0.0.1:0"`, a `SocketAddr`, …), which names its first address.
pub trait ToEndpoint {
    /// Resolves to one endpoint.
    fn to_endpoint(&self) -> io::Result<Endpoint>;
}

impl ToEndpoint for Endpoint {
    fn to_endpoint(&self) -> io::Result<Endpoint> {
        Ok(*self)
    }
}

impl<A: ToSocketAddrs + ?Sized> ToEndpoint for A {
    fn to_endpoint(&self) -> io::Result<Endpoint> {
        self.to_socket_addrs()?
            .next()
            .map(Endpoint::Tcp)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))
    }
}

/// A listening socket of either kind; the reactor polls it and accepts.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Binds `endpoint`, returning the listener and the endpoint it holds
    /// (a TCP port 0 resolved to the port the kernel chose).
    pub(crate) fn bind(endpoint: Endpoint) -> Result<(Listener, Endpoint), TransportError> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let bound = Endpoint::Tcp(listener.local_addr()?);
                Ok((Listener::Tcp(listener), bound))
            }
            Endpoint::Unix(name) => {
                let listener = UnixListener::bind_addr(&name.socket_addr()?)?;
                Ok((Listener::Unix(listener), endpoint))
            }
        }
    }

    /// Accepts one connection. A TCP socket that cannot take
    /// `TCP_NODELAY` is dropped and reported as `Interrupted`, so the
    /// accept loop moves on to the next one.
    pub(crate) fn accept(&self) -> io::Result<Box<dyn DuplexStream>> {
        match self {
            Listener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                stream
                    .set_nodelay(true)
                    .map_err(|e| io::Error::new(io::ErrorKind::Interrupted, e))?;
                Ok(Box::new(stream))
            }
            Listener::Unix(listener) => Ok(Box::new(listener.accept()?.0)),
        }
    }

    pub(crate) fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(listener) => listener.set_nonblocking(true),
            Listener::Unix(listener) => listener.set_nonblocking(true),
        }
    }

    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(listener) => listener.as_raw_fd(),
            Listener::Unix(listener) => listener.as_raw_fd(),
        }
    }
}

/// One bindable endpoint of each kind, for tests that run over both: an
/// ephemeral loopback TCP port and a fresh abstract name.
#[cfg(test)]
pub(crate) fn test_endpoints() -> [Endpoint; 2] {
    [
        Endpoint::Tcp(SocketAddr::from(([127, 0, 0, 1], 0))),
        Endpoint::fresh_unix(),
    ]
}

const TCP_TAG: u8 = 0;
const UNIX_TAG: u8 = 1;

impl Encode for Endpoint {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Endpoint::Tcp(addr) => {
                buf.push(TCP_TAG);
                addr.encode(buf);
            }
            Endpoint::Unix(name) => {
                buf.push(UNIX_TAG);
                write_uvarint(buf, u64::from(name.len));
                buf.extend_from_slice(name.as_str().as_bytes());
            }
        }
    }
    fn size_hint(&self) -> usize {
        1 + match self {
            Endpoint::Tcp(addr) => addr.size_hint(),
            Endpoint::Unix(name) => uvarint_len(u64::from(name.len)) + usize::from(name.len),
        }
    }
}

impl Decode for Endpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            TCP_TAG => SocketAddr::decode(r).map(Endpoint::Tcp),
            UNIX_TAG => {
                let len = r.read_len()?;
                let name = std::str::from_utf8(r.read_bytes(len)?)
                    .map_err(|_| DecodeError::InvalidUtf8)?;
                Endpoint::unix(name)
            }
            tag => Err(DecodeError::UnknownVariant {
                type_name: "Endpoint",
                discriminant: tag.into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_codec::{decode_from_slice, encode_to_vec};

    fn both() -> [Endpoint; 2] {
        [
            Endpoint::Tcp("127.0.0.1:4000".parse().unwrap()),
            Endpoint::unix("weaver-test").unwrap(),
        ]
    }

    #[test]
    fn text_form_names_the_kind() {
        let [tcp, unix] = both();
        assert_eq!(tcp.to_string(), "tcp:127.0.0.1:4000");
        assert_eq!(unix.to_string(), "unix:@weaver-test");
        assert_eq!(
            "tcp:[::1]:9".parse(),
            Ok(Endpoint::Tcp("[::1]:9".parse().unwrap()))
        );
    }

    #[test]
    fn names_are_bounded() {
        assert!(Endpoint::unix("").is_err());
        assert!(Endpoint::unix(&"n".repeat(MAX_UNIX_NAME)).is_ok());
        assert_eq!(
            Endpoint::unix(&"n".repeat(MAX_UNIX_NAME + 1)),
            Err(DecodeError::InvalidLength(MAX_UNIX_NAME as u64 + 1))
        );
        let a = Endpoint::fresh_unix();
        assert_ne!(a, Endpoint::fresh_unix(), "fresh names repeat");
        assert!(a.to_string().starts_with("unix:@weaver-"));
    }

    /// Malformed input in every form is an error, never a panic.
    #[test]
    fn malformed_input_is_an_error() {
        for text in [
            "",
            "127.0.0.1:4000",
            "udp:127.0.0.1:4000",
            "tcp:",
            "tcp:localhost:80",
            "unix:name",
            "unix:@",
        ] {
            assert!(text.parse::<Endpoint>().is_err(), "{text:?} parsed");
        }
        let long = format!("unix:@{}", "x".repeat(MAX_UNIX_NAME + 1));
        assert!(long.parse::<Endpoint>().is_err());

        for endpoint in both() {
            let bytes = encode_to_vec(&endpoint);
            assert_eq!(endpoint.size_hint(), bytes.len());
            for len in 0..bytes.len() {
                assert!(decode_from_slice::<Endpoint>(&bytes[..len]).is_err());
            }
        }
        assert_eq!(
            decode_from_slice::<Endpoint>(&[7]),
            Err(DecodeError::UnknownVariant {
                type_name: "Endpoint",
                discriminant: 7
            })
        );
        // A name past the bound, and one that is not UTF-8.
        let mut over = vec![UNIX_TAG, MAX_UNIX_NAME as u8 + 1];
        over.extend(std::iter::repeat_n(b'x', MAX_UNIX_NAME + 1));
        assert!(decode_from_slice::<Endpoint>(&over).is_err());
        assert_eq!(
            decode_from_slice::<Endpoint>(&[UNIX_TAG, 1, 0xff]),
            Err(DecodeError::InvalidUtf8)
        );
    }

    #[test]
    fn endpoints_resolve_from_addresses() {
        let [tcp, unix] = both();
        assert_eq!("127.0.0.1:4000".to_endpoint().unwrap(), tcp);
        assert_eq!(unix.to_endpoint().unwrap(), unix);
        assert!("not an address".to_endpoint().is_err());
    }
}

//! Wire framings: the streamlined weaver protocol and the gRPC-like
//! baseline.
//!
//! The hot path is allocation-free in steady state: writers encode frames
//! *directly* into pooled buffers (no intermediate payload `Vec`), and
//! [`Framing::decode`] parses each frame the reactor cut out into
//! [`WireBuf`] slices of that frame — request args and response payloads
//! are zero-copy views, not copies.

use std::collections::HashMap;

use weaver_codec::prelude::*;
use weaver_macros::WeaverData;

use crate::buf::WireBuf;
use crate::error::TransportError;

/// Sanity bound on any single message (16 MiB), protecting against corrupt
/// or hostile length prefixes.
pub const MAX_MESSAGE_SIZE: usize = 16 << 20;

/// The per-call metadata carried with every request.
///
/// Everything is numeric: atomic rollouts guarantee caller and callee were
/// compiled from the same source, so component and method are identified by
/// their registration indices rather than by name strings.
#[derive(Debug, Clone, Default, PartialEq, WeaverData)]
pub struct RequestHeader {
    /// Component registration index in the (shared) registry.
    pub component: u32,
    /// Method index within the component's interface.
    pub method: u32,
    /// Deployment version id; callee rejects mismatches (§4.4 backstop).
    pub version: u64,
    /// Absolute deadline as nanoseconds remaining at send time (0 = none).
    pub deadline_nanos: u64,
    /// Trace id for distributed tracing (0 = untraced).
    pub trace_id: u64,
    /// Parent span id.
    pub span_id: u64,
    /// Affinity routing key, if the method is routed (§5.2).
    pub routing: Option<u64>,
    /// Idempotency key, if the caller wants at-most-once execution: a
    /// callee that has already executed a request with this key replays the
    /// recorded response instead of re-executing. `None` costs one byte on
    /// the wire. Trailing position keeps the prefix layout of older
    /// headers byte-identical (atomic rollouts recompile both sides, so
    /// both ends always agree on the full layout).
    pub idempotency: Option<u64>,
    /// Retry attempt counter (0 = first send). Diagnostic: lets the callee
    /// distinguish a replayed retry from a duplicate delivery.
    pub attempt: u32,
}

/// Response status discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Payload is the encoded application-level reply.
    Ok,
    /// Payload is an encoded application/runtime error.
    Error,
}

/// A complete response.
///
/// The payload is a [`WireBuf`]: on the server it is the encoded reply
/// handed to the writer without copying; on the client it is a zero-copy
/// slice of the receive buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseBody {
    /// Whether the payload is a reply or an error.
    pub status: Status,
    /// Encoded reply or error.
    pub payload: WireBuf,
}

/// One decoded protocol message. Byte payloads are zero-copy slices of the
/// decoded frame.
#[derive(Debug, PartialEq)]
pub enum Message {
    /// A call request.
    Request {
        /// Stream id chosen by the caller.
        stream: u64,
        /// Call metadata.
        header: RequestHeader,
        /// Marshaled arguments (borrowed view of the frame).
        args: WireBuf,
    },
    /// A call response.
    Response {
        /// Stream id of the request being answered.
        stream: u64,
        /// The response.
        body: ResponseBody,
    },
}

/// A wire protocol: how [`Message`]s become bytes and back.
///
/// Implementations may keep per-connection reader state (`&mut self` in
/// [`Framing::decode`]); one instance serves one connection direction.
/// The `write_*` methods append to any `Vec<u8>` — in the hot path that Vec
/// is a pooled buffer (`PooledBuf` dereferences to `Vec<u8>`), so encoding
/// allocates nothing once the pool is warm.
pub trait Framing: Default + Send + 'static {
    /// Human-readable protocol name (used in benchmark output).
    const NAME: &'static str;

    /// Appends an encoded request to `out`. Encodes the header directly
    /// into `out`; no intermediate payload buffer.
    fn write_request(out: &mut Vec<u8>, stream: u64, header: &RequestHeader, args: &[u8]);

    /// Appends an encoded response to `out`.
    fn write_response(out: &mut Vec<u8>, stream: u64, body: &ResponseBody);

    /// Appends a response as a frame prefix in `out` plus an optional
    /// borrowed payload tail to be written verbatim right after it.
    ///
    /// Framings whose layout ends with the raw payload override this to
    /// return `Some(payload)` (a refcount bump, no copy); the default
    /// copies the payload into `out` and returns `None`.
    fn write_response_parts(
        out: &mut Vec<u8>,
        stream: u64,
        body: &ResponseBody,
    ) -> Option<WireBuf> {
        Self::write_response(out, stream, body);
        None
    }

    /// Total byte length of the first complete wire frame at the start of
    /// `buf`, or `Ok(None)` if more bytes are needed to tell.
    ///
    /// This is the reassembly primitive of the reactor, which cuts out each
    /// frame it measures and hands it to [`Framing::decode`]. It is the one
    /// validator of length prefixes, so a corrupt or hostile prefix fails
    /// before any buffering.
    fn frame_extent(buf: &[u8]) -> Result<Option<usize>, TransportError>;

    /// Decodes one complete wire frame, exactly as [`Framing::frame_extent`]
    /// measured it. Returns `Ok(None)` for a frame that only advances the
    /// framing's pairing state (a stateful framing's HEADERS awaiting its
    /// DATA). A kind the protocol does not define is an error.
    fn decode(&mut self, frame: WireBuf) -> Result<Option<Message>, TransportError>;
}

fn short_frame() -> TransportError {
    TransportError::Protocol("short frame".into())
}

// ---------------------------------------------------------------------------
// Weaver framing
// ---------------------------------------------------------------------------

/// The streamlined protocol: `[len u32][kind u8][stream u64][payload]`.
///
/// * Request payload: `RequestHeader` (non-versioned encoding) + raw args.
/// * Response payload: status byte + reply/error bytes.
#[derive(Default)]
pub struct WeaverFraming;

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;

/// Bytes of frame payload preceding the length prefix: kind + stream.
const FRAME_META: usize = 1 + 8;

/// Bytes of a frame before its payload: length prefix, kind and stream.
const FRAME_HEAD: usize = 4 + FRAME_META;

impl WeaverFraming {
    /// Writes the fixed frame prelude with a length placeholder; returns
    /// the placeholder's offset for [`Self::end_frame`].
    fn begin_frame(out: &mut Vec<u8>, kind: u8, stream: u64) -> usize {
        let len_at = out.len();
        out.extend_from_slice(&[0u8; 4]);
        out.push(kind);
        out.extend_from_slice(&stream.to_le_bytes());
        len_at
    }

    /// Backfills the length prefix once the payload has been appended.
    fn end_frame(out: &mut [u8], len_at: usize) {
        let len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    }

    fn status_byte(status: Status) -> u8 {
        match status {
            Status::Ok => 0,
            Status::Error => 1,
        }
    }
}

impl Framing for WeaverFraming {
    const NAME: &'static str = "weaver";

    fn write_request(out: &mut Vec<u8>, stream: u64, header: &RequestHeader, args: &[u8]) {
        out.reserve(4 + FRAME_META + 40 + args.len());
        let len_at = Self::begin_frame(out, KIND_REQUEST, stream);
        header.encode(out);
        out.extend_from_slice(args);
        Self::end_frame(out, len_at);
    }

    fn write_response(out: &mut Vec<u8>, stream: u64, body: &ResponseBody) {
        out.reserve(4 + FRAME_META + 1 + body.payload.len());
        let len_at = Self::begin_frame(out, KIND_RESPONSE, stream);
        out.push(Self::status_byte(body.status));
        out.extend_from_slice(&body.payload);
        Self::end_frame(out, len_at);
    }

    fn write_response_parts(
        out: &mut Vec<u8>,
        stream: u64,
        body: &ResponseBody,
    ) -> Option<WireBuf> {
        // The weaver response layout ends with the raw payload, so the
        // payload rides along as a borrowed tail: no copy here at all.
        let len = (FRAME_META + 1 + body.payload.len()) as u32;
        out.reserve(4 + FRAME_META + 1);
        out.extend_from_slice(&len.to_le_bytes());
        out.push(KIND_RESPONSE);
        out.extend_from_slice(&stream.to_le_bytes());
        out.push(Self::status_byte(body.status));
        Some(body.payload.clone())
    }

    fn frame_extent(buf: &[u8]) -> Result<Option<usize>, TransportError> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if !(FRAME_META..=MAX_MESSAGE_SIZE).contains(&len) {
            return Err(TransportError::Protocol(format!("bad frame length {len}")));
        }
        Ok(Some(4 + len))
    }

    fn decode(&mut self, frame: WireBuf) -> Result<Option<Message>, TransportError> {
        let meta = frame.get(4..FRAME_HEAD).ok_or_else(short_frame)?;
        let kind = meta[0];
        let stream = u64::from_le_bytes(meta[1..].try_into().map_err(|_| short_frame())?);
        match kind {
            KIND_REQUEST => {
                let mut rd = Reader::new(&frame[FRAME_HEAD..]);
                let header = RequestHeader::decode(&mut rd)
                    .map_err(|e| TransportError::Protocol(e.to_string()))?;
                // Args are whatever follows the header: a zero-copy slice
                // of the frame, not a Vec.
                let args = frame.slice(FRAME_HEAD + rd.position()..);
                Ok(Some(Message::Request {
                    stream,
                    header,
                    args,
                }))
            }
            KIND_RESPONSE => {
                let status = match frame.get(FRAME_HEAD) {
                    Some(0) => Status::Ok,
                    Some(1) => Status::Error,
                    Some(other) => {
                        return Err(TransportError::Protocol(format!("bad status {other}")))
                    }
                    None => return Err(TransportError::Protocol("empty response".into())),
                };
                Ok(Some(Message::Response {
                    stream,
                    body: ResponseBody {
                        status,
                        payload: frame.slice(FRAME_HEAD + 1..),
                    },
                }))
            }
            other => Err(TransportError::Protocol(format!("bad frame kind {other}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// gRPC-like framing
// ---------------------------------------------------------------------------

/// HTTP/2 frame types used by the baseline.
const H2_DATA: u8 = 0x0;
const H2_HEADERS: u8 = 0x1;

const H2_FLAG_END_STREAM: u8 = 0x1;
const H2_FLAG_END_HEADERS: u8 = 0x4;

/// Bytes of an HTTP/2 frame header: u24 length, type, flags, stream id.
const H2_HEAD: usize = 9;

/// The status-quo baseline: HTTP/2-shaped frames with textual metadata.
///
/// A call is `HEADERS` (`:path`, `content-type`, timeout, tracing metadata
/// as literal text lines) followed by `DATA` carrying gRPC's 5-byte message
/// prefix plus the payload. A response is `HEADERS` (`:status`), `DATA`, and
/// a trailers `HEADERS` frame (`grpc-status`). The reader keeps per-stream
/// state to pair HEADERS with DATA, like a real HTTP/2 endpoint.
#[derive(Default)]
pub struct GrpcLikeFraming {
    /// Streams whose HEADERS arrived but DATA has not (requests).
    pending_requests: HashMap<u64, RequestHeader>,
    /// Streams whose response HEADERS arrived but DATA has not.
    pending_responses: HashMap<u64, Status>,
    /// Streams whose response DATA arrived but trailers have not.
    pending_trailers: HashMap<u64, ResponseBody>,
}

impl GrpcLikeFraming {
    fn write_h2_frame(out: &mut Vec<u8>, ty: u8, flags: u8, stream: u64, payload: &[u8]) {
        let len = payload.len() as u32;
        out.extend_from_slice(&len.to_be_bytes()[1..4]); // u24 length
        out.push(ty);
        out.push(flags);
        out.extend_from_slice(&(stream as u32).to_be_bytes());
        out.extend_from_slice(payload);
    }

    fn header_block_for_request(header: &RequestHeader) -> Vec<u8> {
        // Literal (uncompressed) text metadata, the shape gRPC puts on the
        // wire before HPACK. Component/method ids stand in for the path.
        let mut block = String::with_capacity(192);
        block.push_str(&format!(
            ":path: /weaver.c{}/m{}\r\n",
            header.component, header.method
        ));
        block.push_str(":method: POST\r\n:scheme: http\r\n");
        block.push_str("content-type: application/grpc+proto\r\n");
        block.push_str("te: trailers\r\n");
        block.push_str(&format!("weaver-version: {}\r\n", header.version));
        if header.deadline_nanos > 0 {
            block.push_str(&format!("grpc-timeout: {}n\r\n", header.deadline_nanos));
        }
        if header.trace_id != 0 || header.span_id != 0 {
            block.push_str(&format!(
                "trace-bin: {:016x}{:016x}\r\n",
                header.trace_id, header.span_id
            ));
        }
        if let Some(key) = header.routing {
            block.push_str(&format!("routing-key: {key}\r\n"));
        }
        if let Some(key) = header.idempotency {
            block.push_str(&format!("idempotency-key: {key}\r\n"));
        }
        if header.attempt > 0 {
            block.push_str(&format!("weaver-attempt: {}\r\n", header.attempt));
        }
        block.into_bytes()
    }

    fn parse_request_headers(block: &[u8]) -> Result<RequestHeader, TransportError> {
        let text = std::str::from_utf8(block)
            .map_err(|_| TransportError::Protocol("non-UTF-8 header block".into()))?;
        let mut header = RequestHeader::default();
        let mut saw_path = false;
        for line in text.split("\r\n").filter(|l| !l.is_empty()) {
            let (key, value) = line
                .split_once(": ")
                .ok_or_else(|| TransportError::Protocol(format!("bad header line {line:?}")))?;
            match key {
                ":path" => {
                    let rest = value
                        .strip_prefix("/weaver.c")
                        .ok_or_else(|| TransportError::Protocol(format!("bad path {value:?}")))?;
                    let (c, m) = rest
                        .split_once("/m")
                        .ok_or_else(|| TransportError::Protocol(format!("bad path {value:?}")))?;
                    header.component = c
                        .parse()
                        .map_err(|_| TransportError::Protocol("bad component id".into()))?;
                    header.method = m
                        .parse()
                        .map_err(|_| TransportError::Protocol("bad method id".into()))?;
                    saw_path = true;
                }
                "weaver-version" => {
                    header.version = value
                        .parse()
                        .map_err(|_| TransportError::Protocol("bad version".into()))?;
                }
                "grpc-timeout" => {
                    let digits = value.trim_end_matches('n');
                    header.deadline_nanos = digits
                        .parse()
                        .map_err(|_| TransportError::Protocol("bad timeout".into()))?;
                }
                "trace-bin" if value.len() == 32 => {
                    header.trace_id = u64::from_str_radix(&value[..16], 16)
                        .map_err(|_| TransportError::Protocol("bad trace id".into()))?;
                    header.span_id = u64::from_str_radix(&value[16..], 16)
                        .map_err(|_| TransportError::Protocol("bad span id".into()))?;
                }
                "routing-key" => {
                    header.routing = Some(
                        value
                            .parse()
                            .map_err(|_| TransportError::Protocol("bad routing key".into()))?,
                    );
                }
                "idempotency-key" => {
                    header.idempotency = Some(
                        value
                            .parse()
                            .map_err(|_| TransportError::Protocol("bad idempotency key".into()))?,
                    );
                }
                "weaver-attempt" => {
                    header.attempt = value
                        .parse()
                        .map_err(|_| TransportError::Protocol("bad attempt".into()))?;
                }
                _ => {}
            }
        }
        if !saw_path {
            return Err(TransportError::Protocol("missing :path".into()));
        }
        Ok(header)
    }

    fn write_grpc_message(out: &mut Vec<u8>, payload: &[u8]) {
        // gRPC length-prefixed message: 1-byte compressed flag + u32 length.
        out.push(0);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
    }

    /// Validates the 5-byte gRPC prefix of `data`; the message body is
    /// `data[5..]`.
    fn check_grpc_message(data: &[u8]) -> Result<(), TransportError> {
        if data.len() < 5 {
            return Err(TransportError::Protocol("short gRPC message".into()));
        }
        let len = u32::from_be_bytes(
            data[1..5]
                .try_into()
                .map_err(|_| TransportError::Protocol("short gRPC prefix".into()))?,
        ) as usize;
        if data.len() != 5 + len {
            return Err(TransportError::Protocol("gRPC length mismatch".into()));
        }
        Ok(())
    }
}

impl Framing for GrpcLikeFraming {
    const NAME: &'static str = "grpc-like";

    fn write_request(out: &mut Vec<u8>, stream: u64, header: &RequestHeader, args: &[u8]) {
        let block = Self::header_block_for_request(header);
        Self::write_h2_frame(out, H2_HEADERS, H2_FLAG_END_HEADERS, stream, &block);
        // DATA frame: h2 header, then the 5-byte gRPC prefix + args encoded
        // in place (no intermediate message Vec).
        let len = (5 + args.len()) as u32;
        out.extend_from_slice(&len.to_be_bytes()[1..4]);
        out.push(H2_DATA);
        out.push(H2_FLAG_END_STREAM);
        out.extend_from_slice(&(stream as u32).to_be_bytes());
        Self::write_grpc_message(out, args);
    }

    fn write_response(out: &mut Vec<u8>, stream: u64, body: &ResponseBody) {
        let head = b":status: 200\r\ncontent-type: application/grpc+proto\r\n";
        Self::write_h2_frame(out, H2_HEADERS, H2_FLAG_END_HEADERS, stream, head);
        let len = (5 + body.payload.len()) as u32;
        out.extend_from_slice(&len.to_be_bytes()[1..4]);
        out.push(H2_DATA);
        out.push(0);
        out.extend_from_slice(&(stream as u32).to_be_bytes());
        Self::write_grpc_message(out, &body.payload);
        let trailer: &[u8] = match body.status {
            Status::Ok => b"grpc-status: 0\r\n",
            Status::Error => b"grpc-status: 2\r\n",
        };
        Self::write_h2_frame(
            out,
            H2_HEADERS,
            H2_FLAG_END_HEADERS | H2_FLAG_END_STREAM,
            stream,
            trailer,
        );
    }

    fn frame_extent(buf: &[u8]) -> Result<Option<usize>, TransportError> {
        if buf.len() < H2_HEAD {
            return Ok(None);
        }
        let len = u32::from_be_bytes([0, buf[0], buf[1], buf[2]]) as usize;
        if len > MAX_MESSAGE_SIZE {
            return Err(TransportError::Protocol(format!("bad frame length {len}")));
        }
        Ok(Some(H2_HEAD + len))
    }

    fn decode(&mut self, frame: WireBuf) -> Result<Option<Message>, TransportError> {
        let head = frame.get(..H2_HEAD).ok_or_else(short_frame)?;
        let ty = head[3];
        let stream = u64::from(u32::from_be_bytes([head[5], head[6], head[7], head[8]]));
        let payload = &frame[H2_HEAD..];
        match ty {
            H2_HEADERS => {
                let text = std::str::from_utf8(payload)
                    .map_err(|_| TransportError::Protocol("non-UTF-8 headers".into()))?;
                if text.starts_with(":status") {
                    // Response headers: remember status, wait for DATA.
                    self.pending_responses.insert(stream, Status::Ok);
                } else if text.starts_with("grpc-status") {
                    // Trailers: finish the response.
                    let ok = text.contains("grpc-status: 0");
                    let mut body = self
                        .pending_trailers
                        .remove(&stream)
                        .ok_or_else(|| TransportError::Protocol("trailers without data".into()))?;
                    if !ok {
                        body.status = Status::Error;
                    }
                    return Ok(Some(Message::Response { stream, body }));
                } else {
                    // Request headers.
                    let header = Self::parse_request_headers(payload)?;
                    self.pending_requests.insert(stream, header);
                }
                Ok(None)
            }
            H2_DATA => {
                Self::check_grpc_message(payload)?;
                // Zero-copy: the message body is a slice of the frame,
                // past the 5-byte gRPC prefix.
                let msg = frame.slice(H2_HEAD + 5..);
                if let Some(header) = self.pending_requests.remove(&stream) {
                    return Ok(Some(Message::Request {
                        stream,
                        header,
                        args: msg,
                    }));
                }
                let status = self
                    .pending_responses
                    .remove(&stream)
                    .ok_or_else(|| TransportError::Protocol("DATA without HEADERS".into()))?;
                // Hold until trailers arrive, like a gRPC client.
                self.pending_trailers.insert(
                    stream,
                    ResponseBody {
                        status,
                        payload: msg,
                    },
                );
                Ok(None)
            }
            other => Err(TransportError::Protocol(format!("bad frame type {other}"))),
        }
    }
}

/// Reads frames from a blocking socket, cutting each with
/// [`Framing::frame_extent`] as the reactor does, until one decodes to a
/// message. Test peers that speak the protocol by hand use it.
#[cfg(test)]
pub(crate) fn recv_message<F: Framing>(
    framing: &mut F,
    r: &mut impl std::io::Read,
) -> Result<Message, TransportError> {
    loop {
        let mut frame = Vec::new();
        let extent = loop {
            if let Some(extent) = F::frame_extent(&frame)? {
                break extent;
            }
            let mut byte = [0u8];
            r.read_exact(&mut byte)?;
            frame.push(byte[0]);
        };
        let read = frame.len();
        frame.resize(extent, 0);
        r.read_exact(&mut frame[read..])?;
        if let Some(msg) = framing.decode(frame.into())? {
            return Ok(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::BufferPool;

    /// Cuts `wire` into frames with `frame_extent` and decodes each, the way
    /// the reactor feeds a connection's framing. A trailing partial frame
    /// is an error here: the reactor would wait for the rest of it.
    fn decode_all<F: Framing>(
        framing: &mut F,
        wire: &[u8],
    ) -> Result<Vec<Message>, TransportError> {
        let mut messages = Vec::new();
        let mut off = 0;
        while off < wire.len() {
            let extent = F::frame_extent(&wire[off..])?
                .filter(|&extent| off + extent <= wire.len())
                .ok_or(TransportError::ConnectionClosed)?;
            messages.extend(framing.decode(WireBuf::from(&wire[off..off + extent]))?);
            off += extent;
        }
        Ok(messages)
    }

    /// Decodes `wire`, which must hold exactly one message.
    fn decode_one<F: Framing>(wire: &[u8]) -> Message {
        let mut messages = decode_all(&mut F::default(), wire).unwrap();
        assert_eq!(messages.len(), 1, "{}", F::NAME);
        messages.remove(0)
    }

    fn sample_header() -> RequestHeader {
        RequestHeader {
            component: 3,
            method: 1,
            version: 42,
            deadline_nanos: 5_000_000,
            trace_id: 0xdead,
            span_id: 0xbeef,
            routing: Some(77),
            idempotency: Some(0x1234_5678_9abc_def0),
            attempt: 1,
        }
    }

    fn roundtrip_request<F: Framing>() {
        let header = sample_header();
        let args = vec![1u8, 2, 3, 4];
        let mut wire = Vec::new();
        F::write_request(&mut wire, 9, &header, &args);
        assert_eq!(
            decode_one::<F>(&wire),
            Message::Request {
                stream: 9,
                header,
                args: args.into(),
            }
        );
    }

    fn roundtrip_response<F: Framing>(status: Status) {
        let body = ResponseBody {
            status,
            payload: vec![9u8; 100].into(),
        };
        let mut wire = Vec::new();
        F::write_response(&mut wire, 4, &body);
        assert_eq!(
            decode_one::<F>(&wire),
            Message::Response { stream: 4, body }
        );
    }

    #[test]
    fn weaver_roundtrips() {
        roundtrip_request::<WeaverFraming>();
        roundtrip_response::<WeaverFraming>(Status::Ok);
        roundtrip_response::<WeaverFraming>(Status::Error);
    }

    #[test]
    fn grpc_like_roundtrips() {
        roundtrip_request::<GrpcLikeFraming>();
        roundtrip_response::<GrpcLikeFraming>(Status::Ok);
        roundtrip_response::<GrpcLikeFraming>(Status::Error);
    }

    #[test]
    fn response_parts_concatenate_to_whole_frame() {
        // write_response_parts(prefix) + payload tail must equal
        // write_response byte-for-byte, for any framing that opts in.
        let body = ResponseBody {
            status: Status::Error,
            payload: vec![5u8; 333].into(),
        };
        let mut whole = Vec::new();
        WeaverFraming::write_response(&mut whole, 21, &body);
        let mut prefix = Vec::new();
        let tail = WeaverFraming::write_response_parts(&mut prefix, 21, &body)
            .expect("weaver framing returns a tail");
        prefix.extend_from_slice(&tail);
        assert_eq!(whole, prefix);

        // The default implementation copies and returns no tail.
        let mut grpc_whole = Vec::new();
        GrpcLikeFraming::write_response(&mut grpc_whole, 21, &body);
        let mut grpc_parts = Vec::new();
        assert!(GrpcLikeFraming::write_response_parts(&mut grpc_parts, 21, &body).is_none());
        assert_eq!(grpc_whole, grpc_parts);
    }

    #[test]
    fn request_args_are_zero_copy_views() {
        // Decoding a request must not allocate a fresh args Vec: the args
        // WireBuf shares the pooled frame, which returns to the pool only
        // when the args are dropped.
        let p = BufferPool::new();
        let mut wire = Vec::new();
        WeaverFraming::write_request(&mut wire, 1, &sample_header(), &[7u8; 64]);
        let mut frame = p.get(wire.len());
        frame.extend_from_slice(&wire);
        let msg = WeaverFraming.decode(frame.freeze()).unwrap().unwrap();
        let Message::Request { args, .. } = msg else {
            panic!("expected request");
        };
        assert_eq!(p.stats().recycled, 0, "frame still referenced");
        drop(args);
        assert_eq!(p.stats().recycled, 1, "dropping args recycles the frame");
    }

    #[test]
    fn minimal_header_roundtrips_grpc_like() {
        // No deadline, no trace, no routing.
        let header = RequestHeader {
            component: 0,
            method: 0,
            version: 1,
            ..Default::default()
        };
        let mut wire = Vec::new();
        GrpcLikeFraming::write_request(&mut wire, 1, &header, &[]);
        match decode_one::<GrpcLikeFraming>(&wire) {
            Message::Request { header: h, .. } => assert_eq!(h, header),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn idempotency_key_rides_both_framings() {
        // A retried request keeps its key and bumps the attempt counter;
        // both framings must carry them faithfully — they are what makes
        // the retry safe to dedup on the far side.
        fn check<F: Framing>() {
            let mut header = sample_header();
            header.idempotency = Some(u64::MAX);
            header.attempt = 2;
            let mut wire = Vec::new();
            F::write_request(&mut wire, 7, &header, &[0xAB]);
            match decode_one::<F>(&wire) {
                Message::Request { header: h, .. } => assert_eq!(h, header, "{}", F::NAME),
                other => panic!("unexpected {other:?}"),
            }
        }
        check::<WeaverFraming>();
        check::<GrpcLikeFraming>();
    }

    #[test]
    fn weaver_request_is_much_smaller_than_grpc_like() {
        // The core of the A2 transport ablation, as a unit test.
        let header = sample_header();
        let args = vec![0u8; 64];
        let mut weaver = Vec::new();
        WeaverFraming::write_request(&mut weaver, 1, &header, &args);
        let mut grpc = Vec::new();
        GrpcLikeFraming::write_request(&mut grpc, 1, &header, &args);
        assert!(
            weaver.len() + 60 < grpc.len(),
            "weaver {} vs grpc-like {}",
            weaver.len(),
            grpc.len()
        );
    }

    #[test]
    fn multiple_messages_stream() {
        let mut wire = Vec::new();
        WeaverFraming::write_request(&mut wire, 1, &sample_header(), &[1]);
        WeaverFraming::write_request(&mut wire, 2, &sample_header(), &[2]);
        match &decode_all(&mut WeaverFraming, &wire).unwrap()[..] {
            [Message::Request { stream: 1, .. }, Message::Request { stream: 2, .. }] => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn frame_extent_matches_written_frames() {
        // For every message kind, frame_extent on the encoded bytes must
        // report exactly the encoded length — and every strict prefix must
        // report None or an earlier frame boundary, never an error.
        fn check<F: Framing>(wire: &[u8], frames: usize) {
            let mut off = 0;
            for _ in 0..frames {
                let ext = F::frame_extent(&wire[off..])
                    .expect("valid frame")
                    .expect("complete frame");
                assert!(off + ext <= wire.len());
                off += ext;
            }
            assert_eq!(off, wire.len(), "extents must tile the stream exactly");
        }

        let mut weaver = Vec::new();
        WeaverFraming::write_request(&mut weaver, 1, &sample_header(), &[7u8; 64]);
        WeaverFraming::write_response(
            &mut weaver,
            1,
            &ResponseBody {
                status: Status::Ok,
                payload: vec![1, 2, 3].into(),
            },
        );
        check::<WeaverFraming>(&weaver, 2);
        // Partial prefixes below the length prefix are indeterminate.
        assert_eq!(WeaverFraming::frame_extent(&weaver[..3]).unwrap(), None);

        let mut grpc = Vec::new();
        GrpcLikeFraming::write_request(&mut grpc, 1, &sample_header(), &[7u8; 64]);
        // A gRPC-like request is HEADERS + DATA: two wire frames.
        check::<GrpcLikeFraming>(&grpc, 2);
        assert_eq!(GrpcLikeFraming::frame_extent(&grpc[..8]).unwrap(), None);
    }

    #[test]
    fn frame_extent_rejects_corrupt_lengths() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        assert!(WeaverFraming::frame_extent(&wire).is_err());
        // Zero-length weaver frames are impossible (kind + stream = 9 bytes).
        assert!(WeaverFraming::frame_extent(&[0u8; 8]).is_err());
    }

    #[test]
    fn stateful_framing_consumes_frames_one_at_a_time() {
        // Each frame of a gRPC-like response is decoded on its own; the
        // framing retains pairing state across them and yields the message
        // on the trailers frame.
        let body = ResponseBody {
            status: Status::Error,
            payload: vec![9u8; 16].into(),
        };
        let mut wire = Vec::new();
        GrpcLikeFraming::write_response(&mut wire, 5, &body);
        let mut f = GrpcLikeFraming::default();
        let mut off = 0;
        let mut decoded = Vec::new();
        while off < wire.len() {
            let ext = GrpcLikeFraming::frame_extent(&wire[off..])
                .unwrap()
                .unwrap();
            decoded.push(f.decode(WireBuf::from(&wire[off..off + ext])).unwrap());
            off += ext;
        }
        assert_eq!(
            decoded,
            [None, None, Some(Message::Response { stream: 5, body })]
        );
    }

    #[test]
    fn a_truncated_frame_is_incomplete_not_an_error() {
        let mut wire = Vec::new();
        WeaverFraming::write_request(&mut wire, 1, &sample_header(), &[1, 2, 3]);
        let whole = wire.len();
        let ext = WeaverFraming::frame_extent(&wire[..whole - 2]).unwrap();
        assert_eq!(ext, Some(whole), "the reactor waits for the rest");
    }

    #[test]
    fn short_or_garbage_frames_are_errors_not_panics() {
        let wire: Vec<u8> = (0..64u8).collect();
        for len in 0..wire.len() {
            let _ = WeaverFraming.decode(WireBuf::from(&wire[..len]));
            let _ = GrpcLikeFraming::default().decode(WireBuf::from(&wire[..len]));
        }
        assert!(WeaverFraming.decode(WireBuf::from(&wire[..12])).is_err());
        assert!(GrpcLikeFraming::default()
            .decode(WireBuf::from(&wire[..8]))
            .is_err());
    }

    #[test]
    fn grpc_data_without_headers_is_protocol_error() {
        let mut wire = Vec::new();
        let mut msg = Vec::new();
        GrpcLikeFraming::write_grpc_message(&mut msg, &[1, 2, 3]);
        GrpcLikeFraming::write_h2_frame(&mut wire, H2_DATA, 0, 5, &msg);
        assert!(matches!(
            GrpcLikeFraming::default().decode(wire.into()),
            Err(TransportError::Protocol(_))
        ));
    }
}

//! Property tests: framing and endpoint round-trips, and robustness under
//! fuzz input.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr};

use proptest::prelude::*;
use weaver_codec::{decode_from_slice, encode_to_vec};
use weaver_transport::{
    Endpoint, Framing, GrpcLikeFraming, Message, RequestHeader, ResponseBody, Status,
    TransportError, WeaverFraming, WireBuf,
};

fn arbitrary_header() -> impl Strategy<Value = RequestHeader> {
    (
        (any::<u32>(), 0u32..64, any::<u64>(), any::<u64>()),
        (
            any::<u64>(),
            any::<u64>(),
            any::<Option<u64>>(),
            any::<Option<u64>>(),
            any::<u32>(),
        ),
    )
        .prop_map(
            |(
                (component, method, version, deadline_nanos),
                (trace_id, span_id, routing, idempotency, attempt),
            )| {
                RequestHeader {
                    component,
                    method,
                    version,
                    deadline_nanos,
                    trace_id,
                    span_id,
                    routing,
                    idempotency,
                    attempt,
                }
            },
        )
}

/// Both kinds: v4 and v6 TCP addresses, and abstract names of ASCII or of
/// multi-byte characters (at most eight of four bytes each fit the bound).
fn arbitrary_endpoint() -> impl Strategy<Value = Endpoint> {
    prop_oneof![
        (any::<u32>(), any::<u16>())
            .prop_map(|(ip, port)| Endpoint::Tcp(SocketAddr::from((Ipv4Addr::from(ip), port)))),
        (any::<u64>(), any::<u64>(), any::<u16>()).prop_map(|(hi, lo, port)| {
            let ip = Ipv6Addr::from((u128::from(hi) << 64) | u128::from(lo));
            Endpoint::Tcp(SocketAddr::from((ip, port)))
        }),
        "[a-z0-9._-]{1,32}".prop_map(|name| Endpoint::unix(&name).unwrap()),
        ".{1,8}".prop_map(|name| Endpoint::unix(&name).unwrap()),
    ]
}

/// Feeds `bytes` to a fresh framing the way the reactor does: each frame
/// `frame_extent` measures is cut out and decoded on its own. Stops at the
/// first error, or at a trailing partial frame (the reactor would wait for
/// the rest of it).
fn decode_stream<F: Framing>(bytes: &[u8]) -> Result<Vec<Message>, TransportError> {
    let mut framing = F::default();
    let mut messages = Vec::new();
    let mut off = 0;
    while let Some(ext) = F::frame_extent(&bytes[off..])? {
        if off + ext > bytes.len() {
            break;
        }
        messages.extend(framing.decode(WireBuf::from(&bytes[off..off + ext]))?);
        off += ext;
    }
    Ok(messages)
}

fn roundtrip_request<F: Framing>(header: &RequestHeader, args: &[u8]) -> Result<(), TestCaseError> {
    let mut wire = Vec::new();
    F::write_request(&mut wire, 42, header, args);
    prop_assert_eq!(
        decode_stream::<F>(&wire).expect("decode"),
        vec![Message::Request {
            stream: 42,
            header: header.clone(),
            args: args.into(),
        }]
    );
    Ok(())
}

proptest! {
    #[test]
    fn endpoint_roundtrips_every_form(endpoint in arbitrary_endpoint()) {
        prop_assert_eq!(endpoint.to_string().parse::<Endpoint>(), Ok(endpoint));
        prop_assert_eq!(decode_from_slice::<Endpoint>(&encode_to_vec(&endpoint)), Ok(endpoint));
    }

    #[test]
    fn fuzz_bytes_never_panic_endpoint_decode(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        text in ".{0,48}",
    ) {
        let _ = decode_from_slice::<Endpoint>(&bytes);
        let _ = text.parse::<Endpoint>();
    }

    #[test]
    fn weaver_request_roundtrip(
        header in arbitrary_header(),
        args in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        roundtrip_request::<WeaverFraming>(&header, &args)?;
    }

    #[test]
    fn grpc_like_request_roundtrip(
        header in arbitrary_header(),
        args in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        roundtrip_request::<GrpcLikeFraming>(&header, &args)?;
    }

    #[test]
    fn response_roundtrips_both_framings(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        ok in any::<bool>(),
        stream in any::<u32>(),
    ) {
        let body = ResponseBody {
            status: if ok { Status::Ok } else { Status::Error },
            payload: payload.into(),
        };
        let stream = u64::from(stream);

        let mut wire = Vec::new();
        WeaverFraming::write_response(&mut wire, stream, &body);
        let msgs = decode_stream::<WeaverFraming>(&wire).unwrap();
        prop_assert_eq!(msgs, vec![Message::Response { stream, body: body.clone() }]);

        let mut wire = Vec::new();
        GrpcLikeFraming::write_response(&mut wire, stream, &body);
        let msgs = decode_stream::<GrpcLikeFraming>(&wire).unwrap();
        prop_assert_eq!(msgs, vec![Message::Response { stream, body }]);
    }

    #[test]
    fn response_parts_equal_whole_frame(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        ok in any::<bool>(),
        stream in any::<u32>(),
    ) {
        // prefix + borrowed tail must be byte-identical to the monolithic
        // encoding, for every payload and status.
        let body = ResponseBody {
            status: if ok { Status::Ok } else { Status::Error },
            payload: payload.into(),
        };
        let stream = u64::from(stream);
        let mut whole = Vec::new();
        WeaverFraming::write_response(&mut whole, stream, &body);
        let mut parts = Vec::new();
        let tail = WeaverFraming::write_response_parts(&mut parts, stream, &body);
        if let Some(tail) = tail {
            parts.extend_from_slice(&tail);
        }
        prop_assert_eq!(whole, parts);
    }

    #[test]
    fn weaver_is_never_larger_on_the_wire(
        header in arbitrary_header(),
        args in proptest::collection::vec(any::<u8>(), 0..4096),
    ) {
        let mut weaver = Vec::new();
        WeaverFraming::write_request(&mut weaver, 1, &header, &args);
        let mut grpc = Vec::new();
        GrpcLikeFraming::write_request(&mut grpc, 1, &header, &args);
        prop_assert!(weaver.len() < grpc.len());
    }

    #[test]
    fn fuzz_bytes_never_panic_either_framing(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_stream::<WeaverFraming>(&bytes);
        let _ = decode_stream::<GrpcLikeFraming>(&bytes);

        // Straight to `decode`, uncut: it returns, and a slice too short
        // for a frame header is an error.
        let weaver = WeaverFraming.decode(WireBuf::from(&bytes[..]));
        let grpc = GrpcLikeFraming::default().decode(WireBuf::from(&bytes[..]));
        if bytes.len() < 13 {
            prop_assert!(weaver.is_err());
        }
        if bytes.len() < 9 {
            prop_assert!(grpc.is_err());
        }
    }

    #[test]
    fn interleaved_messages_all_arrive(
        headers in proptest::collection::vec(arbitrary_header(), 1..8),
    ) {
        let reply = |i: usize| ResponseBody {
            status: Status::Ok,
            payload: vec![i as u8; i].into(),
        };
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for (i, h) in headers.iter().enumerate() {
            WeaverFraming::write_request(&mut wire, i as u64, h, &[i as u8]);
            WeaverFraming::write_response(&mut wire, i as u64, &reply(i));
            expected.push(Message::Request {
                stream: i as u64,
                header: h.clone(),
                args: vec![i as u8].into(),
            });
            expected.push(Message::Response { stream: i as u64, body: reply(i) });
        }
        prop_assert_eq!(decode_stream::<WeaverFraming>(&wire).unwrap(), expected);
    }
}

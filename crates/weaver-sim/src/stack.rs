//! Per-RPC cost models: what each architecture pays per hop and per byte.

use crate::queue::SimTime;

/// The costs one RPC imposes, split into where they land.
///
/// * **Caller CPU** — serialize the request, deserialize the reply, plus a
///   fixed per-call cost (stub bookkeeping, framing, syscalls).
/// * **Callee CPU** — mirror image.
/// * **Wire latency** — propagation + switching per hop, plus bytes over
///   bandwidth.
///
/// For a co-located call every term is (near) zero: the paper's plain
/// method call.
#[derive(Debug, Clone, PartialEq)]
pub struct StackModel {
    /// Short name for reports.
    pub name: &'static str,
    /// Fixed CPU per call on each side, nanoseconds.
    pub per_call_cpu: SimTime,
    /// CPU to encode one payload byte, nanoseconds (×1000 for precision).
    pub encode_nanos_per_kb: SimTime,
    /// CPU to decode one payload byte, nanoseconds (×1000 for precision).
    pub decode_nanos_per_kb: SimTime,
    /// Extra bytes each call carries (headers/framing/trailers).
    pub overhead_bytes: u64,
    /// One-way network latency per hop, nanoseconds.
    pub hop_latency: SimTime,
    /// Wire bandwidth in bytes per nanosecond ×1024 (i.e. KiB/µs); 0 =
    /// infinite.
    pub bandwidth_kb_per_us: u64,
    /// Payload inflation factor ×100 relative to the non-versioned format
    /// (tagged ≈ 130, JSON ≈ 300).
    pub payload_factor_pct: u64,
}

impl StackModel {
    /// The prototype's stack: non-versioned encoding, streamlined framing
    /// over persistent TCP.
    ///
    /// Relative costs follow this repository's microbenchmarks: encoding is
    /// a near-memcpy (sub-ns/byte), framing adds ~21 bytes, hop latency is
    /// the irreducible kernel/NIC path.
    pub fn weaver() -> StackModel {
        StackModel {
            name: "weaver",
            per_call_cpu: 40_000,
            encode_nanos_per_kb: 300,
            decode_nanos_per_kb: 450,
            overhead_bytes: 40,
            hop_latency: 60_000,
            bandwidth_kb_per_us: 1_250, // ~10 GbE
            payload_factor_pct: 100,
        }
    }

    /// The status quo: protobuf-shaped encoding + HTTP/2 framing with
    /// textual metadata, per-message prefixes, and trailers.
    pub fn grpc_like() -> StackModel {
        StackModel {
            name: "grpc-like",
            per_call_cpu: 210_000,
            encode_nanos_per_kb: 1_200,
            decode_nanos_per_kb: 2_000,
            overhead_bytes: 400,
            hop_latency: 85_000,
            bandwidth_kb_per_us: 1_250,
            payload_factor_pct: 135,
        }
    }

    /// JSON-over-HTTP, the heaviest textual baseline.
    pub fn json_like() -> StackModel {
        StackModel {
            name: "json-like",
            per_call_cpu: 250_000,
            encode_nanos_per_kb: 4_000,
            decode_nanos_per_kb: 9_000,
            overhead_bytes: 500,
            hop_latency: 110_000,
            bandwidth_kb_per_us: 1_250,
            payload_factor_pct: 300,
        }
    }

    /// Co-located: a plain method call.
    pub fn colocated() -> StackModel {
        StackModel {
            name: "colocated",
            per_call_cpu: 0,
            encode_nanos_per_kb: 0,
            decode_nanos_per_kb: 0,
            overhead_bytes: 0,
            hop_latency: 0,
            bandwidth_kb_per_us: 0,
            payload_factor_pct: 100,
        }
    }

    fn wire_bytes(&self, payload: u64) -> u64 {
        payload * self.payload_factor_pct / 100 + self.overhead_bytes
    }

    /// Caller-side CPU for a call with the given payload sizes.
    pub fn caller_cpu(&self, request_bytes: u64, response_bytes: u64) -> SimTime {
        self.per_call_cpu
            + self.encode_nanos_per_kb * self.wire_bytes(request_bytes) / 1024
            + self.decode_nanos_per_kb * self.wire_bytes(response_bytes) / 1024
    }

    /// Callee-side CPU for a call with the given payload sizes.
    pub fn callee_cpu(&self, request_bytes: u64, response_bytes: u64) -> SimTime {
        self.per_call_cpu
            + self.decode_nanos_per_kb * self.wire_bytes(request_bytes) / 1024
            + self.encode_nanos_per_kb * self.wire_bytes(response_bytes) / 1024
    }

    /// One-way wire latency for a payload.
    pub fn wire_latency(&self, payload_bytes: u64) -> SimTime {
        if self.hop_latency == 0 {
            return 0;
        }
        let transfer = if self.bandwidth_kb_per_us == 0 {
            0
        } else {
            // bytes / (KiB/µs) → µs → ns.
            self.wire_bytes(payload_bytes) * 1_000
                / (self.bandwidth_kb_per_us * 1024 / 1_000)
                / 1_000
                * 1_000
        };
        self.hop_latency + transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weaver_is_cheaper_than_grpc_everywhere() {
        let w = StackModel::weaver();
        let g = StackModel::grpc_like();
        for (request, response) in [(100u64, 100u64), (1024, 4096), (64, 16384)] {
            assert!(w.caller_cpu(request, response) < g.caller_cpu(request, response));
            assert!(w.callee_cpu(request, response) < g.callee_cpu(request, response));
            assert!(w.wire_latency(request) < g.wire_latency(request));
            assert!(w.wire_latency(response) < g.wire_latency(response));
        }
    }

    #[test]
    fn colocated_is_free() {
        let c = StackModel::colocated();
        assert_eq!(c.caller_cpu(10_000, 10_000), 0);
        assert_eq!(c.callee_cpu(10_000, 10_000), 0);
        assert_eq!(c.wire_latency(10_000), 0);
    }

    #[test]
    fn bigger_payloads_cost_more() {
        let w = StackModel::weaver();
        assert!(w.caller_cpu(100, 100) < w.caller_cpu(100_000, 100));
        assert!(w.wire_latency(100) <= w.wire_latency(1_000_000));
    }

    #[test]
    fn json_is_heaviest() {
        let g = StackModel::grpc_like();
        let j = StackModel::json_like();
        assert!(j.caller_cpu(1024, 1024) > g.caller_cpu(1024, 1024));
    }

    #[test]
    fn payload_inflation_applies() {
        let g = StackModel::grpc_like();
        // 35% inflation plus fixed overhead.
        assert_eq!(g.wire_bytes(1000), 1350 + 400);
    }
}

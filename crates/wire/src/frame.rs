//! The `VRW1` wire protocol: length-prefixed, CRC-checked binary
//! frames.
//!
//! Every frame is a fixed 16-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "VRW1"
//!      4     1  protocol version (1)
//!      5     1  frame type (FrameType)
//!      6     2  flags, little-endian (reserved, must be zero)
//!      8     4  payload length, little-endian (<= MAX_PAYLOAD_BYTES)
//!     12     4  CRC-32 (IEEE) of the payload, little-endian
//!     16     n  payload
//! ```
//!
//! All multi-byte integers are little-endian. The CRC covers the
//! payload only — the header fields are individually validated, and a
//! corrupt length would desynchronize the stream regardless of any
//! checksum, which is why the length is bounded *before* the payload is
//! awaited: an adversarial length prefix can make the decoder wait for
//! at most [`MAX_PAYLOAD_BYTES`] bytes, never allocate unbounded
//! memory.
//!
//! Both sides sum every payload byte ([`crc32`], once in
//! [`encode_into`] and once in the decoder), so the checksum is a
//! per-byte cost of the serving path: it runs eight bytes a step over
//! eight compile-time tables (slicing-by-8, 8 KiB, safe Rust), about a
//! quarter of the one-byte-a-step loop's time per KiB.
//!
//! Payload layouts (`id` is a caller-chosen correlation id echoed in
//! the reply; counts are `u32`):
//!
//! | type              | payload |
//! |-------------------|---------|
//! | `LookupRequest`   | `id u64, count u32, count × (vnid u16, dst u32)` |
//! | `LookupResponse`  | `id u64, generation u64, count u32, count × nhi u16` (`0xFFFF` = no route) |
//! | `RouteUpdateBatch`| `id u64, count u32, count × (kind u8, vnid u16, addr u32, len u8, next_hop u8)` |
//! | `UpdateAck`       | `id u64, generation u64` |
//! | `ErrorReply`      | `id u64, code u8, len u16, len × utf-8` |
//! | `Overloaded`      | `id u64, reason u8, retry_after_ms u32` |
//! | `Ping` / `Pong`   | `id u64` |
//!
//! `LookupResponse` results preserve the request's packet order and are
//! tagged with the RCU snapshot generation the *whole batch* resolved
//! against — the same never-torn guarantee the in-process service
//! gives, made visible on the wire.

use vr_net::table::NextHop;
use vr_net::{Ipv4Prefix, RouteUpdate, VnId};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"VRW1";

/// Protocol version this implementation speaks.
pub const VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Upper bound on a frame payload. Big enough for a 64Ki-packet lookup
/// batch with headroom; small enough that a hostile length prefix can
/// never make the server buffer unbounded memory.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 20;

/// Sentinel for "no route" in a `LookupResponse` result slot
/// ([`NextHop`] is a `u8`, so the full `u16` range above 255 is free).
pub const NO_ROUTE: u16 = 0xFFFF;

/// Typed decode/protocol failures. Every adversarial input must map to
/// one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame-type byte.
    UnknownFrameType(u8),
    /// Reserved flags bits were set.
    NonZeroFlags(u16),
    /// Length prefix beyond [`MAX_PAYLOAD_BYTES`].
    Oversized {
        /// The length the header claimed.
        length: u32,
        /// The bound it violated.
        max: u32,
    },
    /// Payload checksum mismatch.
    BadCrc {
        /// CRC the header carried.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// Structurally invalid payload (truncated fields, bad counts,
    /// invalid prefix length, trailing bytes…).
    Malformed(&'static str),
    /// Socket-level failure, with the underlying error's rendering.
    Io(String),
    /// A well-formed frame that is wrong for the conversation state
    /// (e.g. a client receiving a `LookupRequest`).
    Protocol(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::NonZeroFlags(bits) => write!(f, "reserved flags set: {bits:#06x}"),
            WireError::Oversized { length, max } => {
                write!(f, "payload length {length} exceeds the {max}-byte bound")
            }
            WireError::BadCrc { expected, actual } => {
                write!(f, "payload CRC mismatch: header {expected:#010x}, computed {actual:#010x}")
            }
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// Machine-readable error class carried by an [`Message::ErrorReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was structurally valid but semantically unserviceable
    /// (empty batch, batch beyond the server's limit…).
    BadRequest,
    /// An update or lookup addressed a VN the service does not host.
    UnknownVn,
    /// The backend failed (audit rejection, merge failure…). The
    /// message carries the rendered reason.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::UnknownVn => 2,
            ErrorCode::Internal => 3,
        }
    }

    fn from_u8(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(ErrorCode::BadRequest),
            2 => Ok(ErrorCode::UnknownVn),
            3 => Ok(ErrorCode::Internal),
            _ => Err(WireError::Malformed("unknown error code")),
        }
    }
}

/// Why an [`Message::Overloaded`] reply was sent instead of a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadReason {
    /// The accept gate was full; the connection itself was shed.
    Connections,
    /// The connection's token bucket ran dry (per-connection rate
    /// limit). The request was *not* executed.
    RateLimited,
    /// The backend job queue hit its watermark. The request was *not*
    /// executed.
    QueueFull,
}

impl OverloadReason {
    fn to_u8(self) -> u8 {
        match self {
            OverloadReason::Connections => 1,
            OverloadReason::RateLimited => 2,
            OverloadReason::QueueFull => 3,
        }
    }

    fn from_u8(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(OverloadReason::Connections),
            2 => Ok(OverloadReason::RateLimited),
            3 => Ok(OverloadReason::QueueFull),
            _ => Err(WireError::Malformed("unknown overload reason")),
        }
    }
}

/// One decoded protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A batch of (VN, destination) lookups.
    LookupRequest {
        /// Correlation id echoed by the reply.
        id: u64,
        /// The packets, in the order results must come back.
        packets: Vec<(VnId, u32)>,
    },
    /// Results for one request, in request order, all resolved against
    /// one snapshot generation.
    LookupResponse {
        /// Correlation id of the request.
        id: u64,
        /// RCU generation the whole batch resolved against.
        generation: u64,
        /// Per-packet next hops (`None` = no route).
        results: Vec<Option<NextHop>>,
    },
    /// A batch of route updates for the control plane, applied
    /// atomically (one publish).
    RouteUpdateBatch {
        /// Correlation id echoed by the ack.
        id: u64,
        /// The updates, in application order (last-writer-wins).
        updates: Vec<RouteUpdate>,
    },
    /// Acknowledges an update batch with the generation it published.
    UpdateAck {
        /// Correlation id of the batch.
        id: u64,
        /// Generation now live.
        generation: u64,
    },
    /// Typed failure reply; the request was not (or only not) executed.
    ErrorReply {
        /// Correlation id of the failed request.
        id: u64,
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Explicit load-shed reply: the request was refused, the
    /// connection stays open, and the client should back off.
    Overloaded {
        /// Correlation id of the refused request (0 on connection shed).
        id: u64,
        /// Which admission stage refused it.
        reason: OverloadReason,
        /// Server's back-off hint in milliseconds.
        retry_after_ms: u32,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id echoed by the pong.
        id: u64,
    },
    /// Liveness reply.
    Pong {
        /// Correlation id of the ping.
        id: u64,
    },
}

impl Message {
    /// The frame-type byte of this message.
    #[must_use]
    pub fn frame_type(&self) -> u8 {
        match self {
            Message::LookupRequest { .. } => 0x01,
            Message::LookupResponse { .. } => 0x02,
            Message::RouteUpdateBatch { .. } => 0x03,
            Message::UpdateAck { .. } => 0x04,
            Message::ErrorReply { .. } => 0x05,
            Message::Overloaded { .. } => 0x06,
            Message::Ping { .. } => 0x07,
            Message::Pong { .. } => 0x08,
        }
    }

    /// The correlation id the message carries.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Message::LookupRequest { id, .. }
            | Message::LookupResponse { id, .. }
            | Message::RouteUpdateBatch { id, .. }
            | Message::UpdateAck { id, .. }
            | Message::ErrorReply { id, .. }
            | Message::Overloaded { id, .. }
            | Message::Ping { id }
            | Message::Pong { id } => *id,
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected) lookup tables for slicing-by-8,
/// generated at compile time — the protocol stays dependency-free.
/// `CRC_TABLES[0]` is the classic one-byte table; `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight lookups
/// advance the register over eight input bytes at once. 8 × 256 × 4 B
/// = 8 KiB, a quarter of a 32 KiB L1d.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`: eight bytes per step through
/// [`CRC_TABLES`], the classic bytewise step for the tail.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][usize::from(lo as u8)]
            ^ t[6][usize::from((lo >> 8) as u8)]
            ^ t[5][usize::from((lo >> 16) as u8)]
            ^ t[4][usize::from((lo >> 24) as u8)]
            ^ t[3][usize::from(hi as u8)]
            ^ t[2][usize::from((hi >> 8) as u8)]
            ^ t[1][usize::from((hi >> 16) as u8)]
            ^ t[0][usize::from((hi >> 24) as u8)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes `msg` as one complete frame (header + payload).
#[must_use]
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + 64);
    encode_into(msg, &mut frame);
    frame
}

/// Appends `msg`'s frame to `out` (the buffer-reusing form connection
/// writers use).
pub fn encode_into(msg: &Message, out: &mut Vec<u8>) {
    let header_at = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(msg.frame_type());
    put_u16(out, 0); // flags, reserved
    put_u32(out, 0); // payload length backpatched below
    put_u32(out, 0); // CRC backpatched below
    let payload_at = out.len();
    match msg {
        Message::LookupRequest { id, packets } => {
            put_u64(out, *id);
            put_u32(out, packets.len() as u32);
            for &(vnid, dst) in packets {
                put_u16(out, vnid);
                put_u32(out, dst);
            }
        }
        Message::LookupResponse {
            id,
            generation,
            results,
        } => {
            put_u64(out, *id);
            put_u64(out, *generation);
            put_u32(out, results.len() as u32);
            for nh in results {
                put_u16(out, nh.map_or(NO_ROUTE, u16::from));
            }
        }
        Message::RouteUpdateBatch { id, updates } => {
            put_u64(out, *id);
            put_u32(out, updates.len() as u32);
            for update in updates {
                match *update {
                    RouteUpdate::Announce {
                        vnid,
                        prefix,
                        next_hop,
                    } => {
                        out.push(0);
                        put_u16(out, vnid);
                        put_u32(out, prefix.addr());
                        out.push(prefix.len());
                        out.push(next_hop);
                    }
                    RouteUpdate::Withdraw { vnid, prefix } => {
                        out.push(1);
                        put_u16(out, vnid);
                        put_u32(out, prefix.addr());
                        out.push(prefix.len());
                        out.push(0);
                    }
                }
            }
        }
        Message::UpdateAck { id, generation } => {
            put_u64(out, *id);
            put_u64(out, *generation);
        }
        Message::ErrorReply { id, code, message } => {
            put_u64(out, *id);
            out.push(code.to_u8());
            let bytes = message.as_bytes();
            let len = bytes.len().min(usize::from(u16::MAX));
            put_u16(out, len as u16);
            out.extend_from_slice(&bytes[..len]);
        }
        Message::Overloaded {
            id,
            reason,
            retry_after_ms,
        } => {
            put_u64(out, *id);
            out.push(reason.to_u8());
            put_u32(out, *retry_after_ms);
        }
        Message::Ping { id } | Message::Pong { id } => {
            put_u64(out, *id);
        }
    }
    let payload_len = (out.len() - payload_at) as u32;
    debug_assert!(payload_len <= MAX_PAYLOAD_BYTES, "encoder produced an oversized frame");
    let crc = crc32(&out[payload_at..]);
    out[header_at + 8..header_at + 12].copy_from_slice(&payload_len.to_le_bytes());
    out[header_at + 12..header_at + 16].copy_from_slice(&crc.to_le_bytes());
}

/// A borrowing cursor over a payload slice: every read is
/// bounds-checked and maps a truncation to a typed error, never a
/// panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(WireError::Malformed("truncated payload"))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    /// A count field, sanity-bounded by what the remaining payload can
    /// actually hold at `min_item_bytes` per item — so a hostile count
    /// can never drive a huge allocation.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let remaining = self.bytes.len() - self.at;
        if n.checked_mul(min_item_bytes).is_none_or(|need| need > remaining) {
            return Err(WireError::Malformed("count exceeds payload"));
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing payload bytes"))
        }
    }
}

/// Decodes a payload of the given frame type. The slice borrows from
/// the decoder's buffer; only the message's own vectors allocate.
///
/// # Errors
/// [`WireError::UnknownFrameType`] / [`WireError::Malformed`] on
/// anything but a structurally exact payload.
pub fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Message, WireError> {
    let mut cur = Cursor::new(payload);
    let msg = match frame_type {
        0x01 => {
            let id = cur.u64()?;
            let n = cur.count(6)?;
            let mut packets = Vec::with_capacity(n);
            for _ in 0..n {
                let vnid = cur.u16()?;
                let dst = cur.u32()?;
                packets.push((vnid, dst));
            }
            Message::LookupRequest { id, packets }
        }
        0x02 => {
            let id = cur.u64()?;
            let generation = cur.u64()?;
            let n = cur.count(2)?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                let raw = cur.u16()?;
                results.push(match raw {
                    NO_ROUTE => None,
                    nh if nh <= u16::from(u8::MAX) => Some(nh as NextHop),
                    _ => return Err(WireError::Malformed("next hop out of range")),
                });
            }
            Message::LookupResponse {
                id,
                generation,
                results,
            }
        }
        0x03 => {
            let id = cur.u64()?;
            let n = cur.count(9)?;
            let mut updates = Vec::with_capacity(n);
            for _ in 0..n {
                let kind = cur.u8()?;
                let vnid = cur.u16()?;
                let addr = cur.u32()?;
                let len = cur.u8()?;
                let next_hop = cur.u8()?;
                let prefix = Ipv4Prefix::new(addr, len)
                    .map_err(|_| WireError::Malformed("prefix length beyond 32"))?;
                updates.push(match kind {
                    0 => RouteUpdate::Announce {
                        vnid,
                        prefix,
                        next_hop,
                    },
                    1 => RouteUpdate::Withdraw { vnid, prefix },
                    _ => return Err(WireError::Malformed("unknown update kind")),
                });
            }
            Message::RouteUpdateBatch { id, updates }
        }
        0x04 => Message::UpdateAck {
            id: cur.u64()?,
            generation: cur.u64()?,
        },
        0x05 => {
            let id = cur.u64()?;
            let code = ErrorCode::from_u8(cur.u8()?)?;
            let len = usize::from(cur.u16()?);
            let bytes = cur.take(len)?;
            let message = String::from_utf8(bytes.to_vec())
                .map_err(|_| WireError::Malformed("error message not utf-8"))?;
            Message::ErrorReply { id, code, message }
        }
        0x06 => Message::Overloaded {
            id: cur.u64()?,
            reason: OverloadReason::from_u8(cur.u8()?)?,
            retry_after_ms: cur.u32()?,
        },
        0x07 => Message::Ping { id: cur.u64()? },
        0x08 => Message::Pong { id: cur.u64()? },
        other => return Err(WireError::UnknownFrameType(other)),
    };
    cur.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_layout_is_exactly_as_documented() {
        let frame = encode(&Message::Ping { id: 0x0102_0304 });
        assert_eq!(&frame[..4], b"VRW1");
        assert_eq!(frame[4], VERSION);
        assert_eq!(frame[5], 0x07);
        assert_eq!(&frame[6..8], &[0, 0]);
        assert_eq!(u32::from_le_bytes(frame[8..12].try_into().unwrap()), 8);
        let crc = u32::from_le_bytes(frame[12..16].try_into().unwrap());
        assert_eq!(crc, crc32(&frame[16..]));
        assert_eq!(frame.len(), HEADER_LEN + 8);
    }

    #[test]
    fn every_message_kind_round_trips() {
        let msgs = vec![
            Message::LookupRequest {
                id: 7,
                packets: vec![(0, 0x0A00_0001), (3, 0xFFFF_FFFF), (65535, 0)],
            },
            Message::LookupResponse {
                id: 7,
                generation: 42,
                results: vec![Some(0), Some(255), None],
            },
            Message::RouteUpdateBatch {
                id: 9,
                updates: vec![
                    RouteUpdate::Announce {
                        vnid: 2,
                        prefix: Ipv4Prefix::must(0x0A01_0000, 16),
                        next_hop: 9,
                    },
                    RouteUpdate::Withdraw {
                        vnid: 0,
                        prefix: Ipv4Prefix::must(0, 0),
                    },
                ],
            },
            Message::UpdateAck {
                id: 9,
                generation: 43,
            },
            Message::ErrorReply {
                id: 1,
                code: ErrorCode::UnknownVn,
                message: "vn 9 not hosted".to_string(),
            },
            Message::Overloaded {
                id: 2,
                reason: OverloadReason::QueueFull,
                retry_after_ms: 25,
            },
            Message::Ping { id: u64::MAX },
            Message::Pong { id: 0 },
        ];
        for msg in msgs {
            let frame = encode(&msg);
            let decoded = decode_payload(frame[5], &frame[HEADER_LEN..]).expect("decodes");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn empty_batches_round_trip() {
        for msg in [
            Message::LookupRequest {
                id: 0,
                packets: vec![],
            },
            Message::RouteUpdateBatch {
                id: 0,
                updates: vec![],
            },
            Message::LookupResponse {
                id: 0,
                generation: 0,
                results: vec![],
            },
        ] {
            let frame = encode(&msg);
            assert_eq!(decode_payload(frame[5], &frame[HEADER_LEN..]).unwrap(), msg);
        }
    }

    #[test]
    fn hostile_count_is_rejected_not_allocated() {
        // A LookupRequest claiming u32::MAX packets in a 16-byte payload.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&[0u8; 4]);
        assert_eq!(
            decode_payload(0x01, &payload),
            Err(WireError::Malformed("count exceeds payload"))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode(&Message::Ping { id: 1 });
        frame.extend_from_slice(&[0u8; 3]);
        assert_eq!(
            decode_payload(0x07, &frame[HEADER_LEN..]),
            Err(WireError::Malformed("trailing payload bytes"))
        );
    }

    #[test]
    fn bad_update_kind_and_prefix_len_error() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&[9, 0, 0, 0, 0, 0, 0, 24, 1]); // kind 9
        assert!(matches!(
            decode_payload(0x03, &payload),
            Err(WireError::Malformed("unknown update kind"))
        ));
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 33, 1]); // /33
        assert!(matches!(
            decode_payload(0x03, &payload),
            Err(WireError::Malformed("prefix length beyond 32"))
        ));
    }
}

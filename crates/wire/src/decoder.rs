//! Incremental, zero-copy frame decoder.
//!
//! A socket read hands the decoder an arbitrary byte chunk — half a
//! header, three frames and a tail, anything. [`FrameDecoder::feed`]
//! appends it; [`FrameDecoder::next_message`] yields complete messages
//! until the buffer runs dry. Header fields are parsed in place and
//! the payload is handed to [`crate::frame::decode_payload`] as a
//! borrowed slice of the internal buffer — no per-frame intermediate
//! copy; only the decoded message's own vectors allocate.
//!
//! The decoder is *fail-stop*: any framing error (bad magic, bad
//! version, oversized length, CRC mismatch, malformed payload) poisons
//! it, and every subsequent call returns the same error. There is no
//! resynchronization — inside a TCP stream a framing error means the
//! peer is broken or hostile, and scanning for the next plausible magic
//! would happily resume in the middle of attacker-controlled payload
//! bytes. The connection is torn down instead.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::frame::{
    decode_payload, Message, WireError, HEADER_LEN, MAGIC, MAX_PAYLOAD_BYTES, VERSION,
};

/// Buffer compaction threshold: consumed bytes are shifted out once
/// they exceed this, amortizing the memmove over many frames.
const COMPACT_AT: usize = 64 * 1024;

/// Incremental decoder over a byte stream of `VRW1` frames.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    at: usize,
    /// First framing error seen; sticky.
    poisoned: Option<WireError>,
}

impl FrameDecoder {
    /// A fresh decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Bytes the decoder needs before the *next* frame can complete:
    /// the rest of the header, or the rest of the announced payload.
    /// `0` means a frame may already be decodable (or the buffer is
    /// exactly empty and a header is next).
    #[must_use]
    pub fn needed(&self) -> usize {
        let have = self.buffered();
        if have < HEADER_LEN {
            return HEADER_LEN - have;
        }
        let header = &self.buf[self.at..self.at + HEADER_LEN];
        let length = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
        (HEADER_LEN + length).saturating_sub(have)
    }

    /// Decodes the next complete message, or `Ok(None)` when more bytes
    /// are needed.
    ///
    /// # Errors
    /// Any framing or payload error; the decoder stays poisoned with it.
    pub fn next_message(&mut self) -> Result<Option<Message>, WireError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        match self.try_next() {
            Ok(msg) => Ok(msg),
            Err(err) => {
                self.poisoned = Some(err.clone());
                Err(err)
            }
        }
    }

    fn try_next(&mut self) -> Result<Option<Message>, WireError> {
        if self.buffered() < HEADER_LEN {
            return Ok(None);
        }
        let header = &self.buf[self.at..self.at + HEADER_LEN];
        // Validate the fixed header before trusting the length: a frame
        // with the wrong magic must fail *now*, not after the length
        // field makes us wait for a megabyte that never comes.
        if header[..4] != MAGIC {
            return Err(WireError::BadMagic([
                header[0], header[1], header[2], header[3],
            ]));
        }
        if header[4] != VERSION {
            return Err(WireError::BadVersion(header[4]));
        }
        let frame_type = header[5];
        let flags = u16::from_le_bytes([header[6], header[7]]);
        if flags != 0 {
            return Err(WireError::NonZeroFlags(flags));
        }
        let length = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if length > MAX_PAYLOAD_BYTES {
            return Err(WireError::Oversized {
                length,
                max: MAX_PAYLOAD_BYTES,
            });
        }
        let expected_crc = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        let total = HEADER_LEN + length as usize;
        if self.buffered() < total {
            return Ok(None);
        }
        let payload = &self.buf[self.at + HEADER_LEN..self.at + total];
        let actual_crc = crate::frame::crc32(payload);
        if actual_crc != expected_crc {
            return Err(WireError::BadCrc {
                expected: expected_crc,
                actual: actual_crc,
            });
        }
        let msg = decode_payload(frame_type, payload)?;
        self.at += total;
        if self.at >= COMPACT_AT {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode;

    fn ping(id: u64) -> Message {
        Message::Ping { id }
    }

    #[test]
    fn decodes_across_arbitrary_chunk_boundaries() {
        let stream: Vec<u8> = (0..10u64).flat_map(|i| encode(&ping(i))).collect();
        // Feed one byte at a time — the worst fragmentation possible.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.feed(&[b]);
            while let Some(msg) = dec.next_message().unwrap() {
                got.push(msg.id());
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn several_frames_in_one_feed() {
        let mut dec = FrameDecoder::new();
        let mut stream = encode(&ping(1));
        stream.extend(encode(&ping(2)));
        stream.extend(encode(&ping(3)));
        dec.feed(&stream);
        assert_eq!(dec.next_message().unwrap(), Some(ping(1)));
        assert_eq!(dec.next_message().unwrap(), Some(ping(2)));
        assert_eq!(dec.next_message().unwrap(), Some(ping(3)));
        assert_eq!(dec.next_message().unwrap(), None);
    }

    #[test]
    fn needed_reports_header_then_payload_deficit() {
        let frame = encode(&Message::LookupRequest {
            id: 1,
            packets: vec![(0, 9)],
        });
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.needed(), HEADER_LEN);
        dec.feed(&frame[..HEADER_LEN]);
        assert_eq!(dec.needed(), frame.len() - HEADER_LEN);
        assert_eq!(dec.next_message().unwrap(), None);
        dec.feed(&frame[HEADER_LEN..]);
        assert_eq!(dec.needed(), 0);
        assert!(dec.next_message().unwrap().is_some());
    }

    #[test]
    fn bad_magic_fails_immediately_and_poisons() {
        let mut frame = encode(&ping(1));
        frame[0] = b'X';
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        let err = dec.next_message().unwrap_err();
        assert!(matches!(err, WireError::BadMagic(_)));
        // Sticky: even after feeding a good frame the decoder stays dead.
        dec.feed(&encode(&ping(2)));
        assert_eq!(dec.next_message().unwrap_err(), err);
    }

    #[test]
    fn oversized_length_fails_before_buffering_the_payload() {
        let mut frame = encode(&ping(1));
        frame[8..12].copy_from_slice(&(MAX_PAYLOAD_BYTES + 1).to_le_bytes());
        let mut dec = FrameDecoder::new();
        // Header alone is enough to reject — no payload was ever sent.
        dec.feed(&frame[..HEADER_LEN]);
        assert!(matches!(
            dec.next_message(),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn crc_corruption_is_detected() {
        let mut frame = encode(&Message::LookupResponse {
            id: 3,
            generation: 5,
            results: vec![Some(1), None],
        });
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        assert!(matches!(dec.next_message(), Err(WireError::BadCrc { .. })));
    }

    #[test]
    fn buffer_compacts_after_many_frames() {
        let mut dec = FrameDecoder::new();
        let frame = encode(&Message::LookupRequest {
            id: 0,
            packets: vec![(1, 2); 500],
        });
        for _ in 0..40 {
            dec.feed(&frame);
            while dec.next_message().unwrap().is_some() {}
        }
        assert_eq!(dec.buffered(), 0);
        assert!(
            dec.at < COMPACT_AT,
            "consumed prefix must be compacted away"
        );
    }
}

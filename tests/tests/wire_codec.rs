//! Fuzz-style properties for the `VRW1` wire codec: every message
//! round-trips bit-identically through encode → arbitrary-chunk
//! incremental decode, and hostile bytes — truncations, corrupted
//! headers, flipped payload bits, random soup — produce typed
//! [`WireError`]s, never panics and never a silently-wrong message.

use proptest::prelude::*;
use vr_net::{Ipv4Prefix, RouteUpdate};
use vr_wire::frame::{
    crc32, decode_payload, encode, encode_lookup_request, encode_lookup_response,
    encode_update_batch, MAGIC, VERSION,
};
use vr_wire::{ErrorCode, FrameDecoder, Message, OverloadReason, WireError, HEADER_LEN, MAX_PAYLOAD_BYTES};

/// Strategy over every message kind with arbitrary contents. Raw
/// tuples are mapped into enum payloads so the vendored proptest's
/// small combinator set suffices.
fn arb_message() -> impl Strategy<Value = Message> {
    (
        (0u8..8, any::<u64>(), any::<u32>()),
        prop::collection::vec((any::<u16>(), any::<u32>()), 0..48),
        prop::collection::vec((any::<u16>(), any::<u8>()), 0..48),
        prop::collection::vec((0u8..2, any::<u16>(), any::<u32>(), 0u8..33, any::<u8>()), 0..24),
        prop::collection::vec(32u8..127, 0..48),
    )
        .prop_map(|((kind, id, word), packets, raw_results, raw_updates, text)| {
            let results: Vec<Option<u8>> = raw_results
                .iter()
                .map(|&(sel, nh)| if sel & 1 == 0 { None } else { Some(nh) })
                .collect();
            let updates: Vec<RouteUpdate> = raw_updates
                .into_iter()
                .map(|(k, vnid, addr, plen, next_hop)| {
                    let prefix = Ipv4Prefix::new(addr, plen).expect("plen <= 32");
                    if k == 0 {
                        RouteUpdate::Announce {
                            vnid,
                            prefix,
                            next_hop,
                        }
                    } else {
                        RouteUpdate::Withdraw { vnid, prefix }
                    }
                })
                .collect();
            match kind {
                0 => Message::LookupRequest { id, packets },
                1 => Message::LookupResponse {
                    id,
                    generation: u64::from(word),
                    results,
                },
                2 => Message::RouteUpdateBatch { id, updates },
                3 => Message::UpdateAck {
                    id,
                    generation: u64::from(word),
                },
                4 => Message::ErrorReply {
                    id,
                    code: match word % 3 {
                        0 => ErrorCode::BadRequest,
                        1 => ErrorCode::UnknownVn,
                        _ => ErrorCode::Internal,
                    },
                    message: String::from_utf8(text).expect("printable ascii"),
                },
                5 => Message::Overloaded {
                    id,
                    reason: match word % 3 {
                        0 => OverloadReason::Connections,
                        1 => OverloadReason::RateLimited,
                        _ => OverloadReason::QueueFull,
                    },
                    retry_after_ms: word,
                },
                6 => Message::Ping { id },
                _ => Message::Pong { id },
            }
        })
}

/// Strategy over lookup requests and responses of 500–1 100 records:
/// their payloads are past the CRC's four-lane threshold, which
/// [`arb_message`]'s at most 48 records never reach.
fn arb_bulk_lookup() -> impl Strategy<Value = Message> {
    (
        (any::<bool>(), any::<u64>(), any::<u64>()),
        prop::collection::vec((any::<u16>(), any::<u32>()), 500..1100),
        prop::collection::vec((any::<u16>(), any::<u8>()), 500..1100),
    )
        .prop_map(|((request, id, generation), packets, raw_results)| {
            if request {
                Message::LookupRequest { id, packets }
            } else {
                let results = raw_results
                    .iter()
                    .map(|&(sel, nh)| if sel % 5 == 0 { None } else { Some(nh) })
                    .collect();
                Message::LookupResponse {
                    id,
                    generation,
                    results,
                }
            }
        })
}

/// Decodes `stream` by feeding `chunk`-sized slices, collecting every
/// complete message.
fn decode_chunked(stream: &[u8], chunk: usize) -> Result<Vec<Message>, WireError> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    for piece in stream.chunks(chunk.max(1)) {
        dec.feed(piece);
        while let Some(msg) = dec.next_message()? {
            out.push(msg);
        }
    }
    assert_eq!(dec.buffered(), 0, "no residual bytes after whole frames");
    Ok(out)
}

/// `msg`'s frame decodes to `msg` when fed in `chunk`-sized pieces.
fn assert_round_trips(msg: &Message, chunk: usize) {
    let stream = encode(msg);
    let got = decode_chunked(&stream, chunk).expect("valid frame decodes");
    assert_eq!(got, vec![msg.clone()]);
}

/// A truncated stream is indistinguishable from a slow peer: the
/// decoder must park on Ok(None) for every cut point — no error, no
/// panic, no partial message.
fn assert_every_strict_prefix_waits(msg: &Message) {
    let stream = encode(msg);
    for cut in 0..stream.len() {
        let mut dec = FrameDecoder::new();
        dec.feed(&stream[..cut]);
        assert_eq!(dec.next_message().expect("prefix is not an error"), None);
    }
}

/// Flipping one byte of `msg`'s frame never decodes to `msg`.
fn assert_corruption_is_caught(msg: &Message, at_raw: u32, flip: u8) {
    let stream = encode(msg);
    let at = at_raw as usize % stream.len();
    let mut bad = stream.clone();
    bad[at] ^= flip;
    let mut dec = FrameDecoder::new();
    dec.feed(&bad);
    match dec.next_message() {
        // Header damage that inflates the length field legitimately
        // parks the decoder waiting for bytes that never come.
        Ok(None) => {}
        Ok(Some(got)) => assert_ne!(got, *msg, "corrupt byte {at} slipped through undetected"),
        Err(_) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn round_trips_through_arbitrary_chunking(
        msg in arb_message(),
        chunk in 1usize..64,
    ) {
        assert_round_trips(&msg, chunk);
    }

    #[test]
    fn message_sequences_round_trip(
        msgs in prop::collection::vec(arb_message(), 1..8),
        chunk in 1usize..96,
    ) {
        let stream: Vec<u8> = msgs.iter().flat_map(encode).collect();
        let got = decode_chunked(&stream, chunk).expect("valid frames decode");
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn every_strict_prefix_waits_without_error(msg in arb_message()) {
        assert_every_strict_prefix_waits(&msg);
    }

    #[test]
    fn single_byte_corruption_never_yields_the_original(
        msg in arb_message(),
        at_raw in any::<u32>(),
        flip in 1u8..=255,
    ) {
        assert_corruption_is_caught(&msg, at_raw, flip);
    }

    #[test]
    fn random_soup_never_panics(
        soup in prop::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..32,
    ) {
        let mut dec = FrameDecoder::new();
        'soup: for piece in soup.chunks(chunk) {
            dec.feed(piece);
            loop {
                match dec.next_message() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    // A typed error ends the stream (fail-stop); the
                    // property only demands "no panic".
                    Err(_) => break 'soup,
                }
            }
        }
    }

    #[test]
    fn crc_kernel_equals_the_bitwise_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..4097),
        skip in 0usize..8,
    ) {
        // `skip` moves the slice's start off the allocation's alignment.
        let bytes = &bytes[skip.min(bytes.len())..];
        prop_assert_eq!(crc32(bytes), crc32_bitwise(bytes));
    }
}

proptest! {
    // Every case moves kilobytes through every cut point; fewer cases
    // keep the debug run short.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bulk_lookups_round_trip_through_arbitrary_chunking(
        msg in arb_bulk_lookup(),
        chunk in 1usize..4096,
    ) {
        assert_round_trips(&msg, chunk);
    }

    #[test]
    fn bulk_lookups_every_strict_prefix_waits(msg in arb_bulk_lookup()) {
        assert_every_strict_prefix_waits(&msg);
    }

    #[test]
    fn bulk_lookups_single_byte_corruption_is_caught(
        msg in arb_bulk_lookup(),
        at_raw in any::<u32>(),
        flip in 1u8..=255,
    ) {
        assert_corruption_is_caught(&msg, at_raw, flip);
    }
}

/// CRC-32 (IEEE, reflected) one bit at a time, no table: the reference
/// the word-at-a-time kernel in `vr_wire::frame` must equal.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

#[test]
fn crc_kernel_equals_the_reference_at_every_length_and_offset() {
    // Every split between the 8-byte steps and the bytewise tail; the
    // lengths on both sides of the four-lane threshold (512 B); and
    // four-stripe splits with every 0..31-byte remainder, at the 3 084 B
    // of a 512-key request among them — each at every alignment of the
    // first word.
    let buffer: Vec<u8> =
        (0..3200u32).map(|i| (i.wrapping_mul(151) ^ (i >> 2) ^ (i >> 9)) as u8).collect();
    let lengths = (0..=64).chain(480..=576).chain(1024..1056).chain(3072..3104);
    for len in lengths {
        for start in 0..8 {
            let bytes = &buffer[start..start + len];
            assert_eq!(crc32(bytes), crc32_bitwise(bytes), "start {start}, len {len}");
        }
    }
}

#[test]
fn crc_fixed_vectors() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(&[0x00; 32]), 0x190A_55AD);
    assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
    let ramp: Vec<u8> = (0x00..=0x1F).collect();
    assert_eq!(crc32(&ramp), 0x9126_7E8A);
}

/// Frames written by the encoder as it stood before the CRC kernel
/// changed (bytewise table loop): a 42-byte and a 30-byte payload, so
/// both the word steps and the tail are on the path. They must decode
/// unchanged, and today's encoder must produce the same bytes — the
/// wire format did not move.
#[test]
fn frames_from_the_previous_encoder_still_decode() {
    const REQUEST: [u8; 58] = [
        0x56, 0x52, 0x57, 0x31, 0x01, 0x01, 0x00, 0x00, 0x2A, 0x00, 0x00, 0x00, //
        0x87, 0x33, 0xE0, 0x0B, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, //
        0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x0A, 0x03, 0x00, //
        0x01, 0x01, 0xA8, 0xC0, 0x0E, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, //
        0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x08, 0x08, 0x08, 0x08,
    ];
    const RESPONSE: [u8; 46] = [
        0x56, 0x52, 0x57, 0x31, 0x01, 0x02, 0x00, 0x00, 0x1E, 0x00, 0x00, 0x00, //
        0xE8, 0x75, 0xBE, 0xCD, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, //
        0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, //
        0x00, 0x00, 0xFF, 0x00, 0xFF, 0xFF, 0x09, 0x00, 0xFF, 0xFF,
    ];
    let request = Message::LookupRequest {
        id: 0x0102_0304_0506_0708,
        packets: vec![
            (0, 0x0A00_0001),
            (3, 0xC0A8_0101),
            (14, 0xFFFF_FFFF),
            (65535, 0),
            (7, 0x0808_0808),
        ],
    };
    let response = Message::LookupResponse {
        id: 0x0102_0304_0506_0708,
        generation: 42,
        results: vec![Some(0), Some(255), None, Some(9), None],
    };
    let mut stream = REQUEST.to_vec();
    stream.extend_from_slice(&RESPONSE);
    let got = decode_chunked(&stream, 7).expect("old frames decode");
    assert_eq!(got, vec![request.clone(), response.clone()]);
    assert_eq!(encode(&request), REQUEST);
    assert_eq!(encode(&response), RESPONSE);
}

/// The slice encoders the server and the client write with produce
/// exactly the bytes of the `Message` encoder, at record counts on both
/// sides of the CRC's lane threshold.
#[test]
fn slice_encoders_match_the_message_encoder() {
    for n in [0usize, 1, 512, 8192] {
        let results: Vec<Option<u8>> =
            (0..n).map(|i| if i % 7 == 3 { None } else { Some(i as u8) }).collect();
        let mut out = vec![0xAA]; // appends after what the buffer holds
        encode_lookup_response(9, 77, &results, &mut out);
        let msg = Message::LookupResponse {
            id: 9,
            generation: 77,
            results,
        };
        assert_eq!(out[1..], encode(&msg), "{n} results");

        let packets: Vec<(u16, u32)> =
            (0..n).map(|i| (i as u16, (i as u32).wrapping_mul(0x9E37_79B9))).collect();
        out.clear();
        encode_lookup_request(5, &packets, &mut out);
        assert_eq!(out, encode(&Message::LookupRequest { id: 5, packets }), "{n} keys");

        let updates: Vec<RouteUpdate> = (0..n.min(512))
            .map(|i| {
                let prefix = Ipv4Prefix::new((i as u32) << 8, (i % 33) as u8).expect("plen <= 32");
                if i % 3 == 0 {
                    RouteUpdate::Withdraw { vnid: i as u16, prefix }
                } else {
                    RouteUpdate::Announce { vnid: i as u16, prefix, next_hop: i as u8 }
                }
            })
            .collect();
        out.clear();
        encode_update_batch(3, &updates, &mut out);
        assert_eq!(out, encode(&Message::RouteUpdateBatch { id: 3, updates }), "{n} updates");
    }
}

/// An error message past the 65 535-byte field is cut at a character
/// boundary: a cut through a multi-byte character used to fail the
/// peer's utf-8 check and poison its decoder.
#[test]
fn long_error_message_is_cut_at_a_character_boundary() {
    let msg = Message::ErrorReply {
        id: 4,
        code: ErrorCode::Internal,
        message: "é".repeat(40_000),
    };
    let got = decode_chunked(&encode(&msg), 4096).expect("a cut message still decodes");
    let [Message::ErrorReply { id: 4, code: ErrorCode::Internal, message }] = got.as_slice() else {
        panic!("expected one ErrorReply, got {got:?}");
    };
    assert_eq!(message.len(), 65_534);
    assert_eq!(*message, "é".repeat(32_767));
}

/// Builds a valid frame for `msg`, then applies `tweak` to the bytes.
fn tampered(msg: &Message, tweak: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = encode(msg);
    tweak(&mut frame);
    frame
}

fn first_error(stream: &[u8]) -> WireError {
    let mut dec = FrameDecoder::new();
    dec.feed(stream);
    loop {
        match dec.next_message() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("expected an error, decoder is waiting"),
            Err(e) => return e,
        }
    }
}

#[test]
fn bad_magic_is_typed() {
    let frame = tampered(&Message::Ping { id: 7 }, |f| f[0] = b'Q');
    assert!(matches!(first_error(&frame), WireError::BadMagic(m) if m[0] == b'Q'));
}

#[test]
fn bad_version_is_typed() {
    let frame = tampered(&Message::Ping { id: 7 }, |f| f[4] = VERSION + 1);
    assert!(matches!(first_error(&frame), WireError::BadVersion(v) if v == VERSION + 1));
}

#[test]
fn unknown_frame_type_is_typed() {
    let frame = tampered(&Message::Ping { id: 7 }, |f| {
        f[5] = 0x6B;
        // Re-CRC is not needed: the type byte sits in the header, and
        // type dispatch happens after the CRC check passes.
    });
    assert!(matches!(first_error(&frame), WireError::UnknownFrameType(0x6B)));
}

#[test]
fn reserved_flags_are_rejected() {
    let frame = tampered(&Message::Ping { id: 7 }, |f| f[6] = 0x01);
    assert!(matches!(first_error(&frame), WireError::NonZeroFlags(1)));
}

#[test]
fn oversized_length_prefix_is_rejected_from_header_alone() {
    let huge = (MAX_PAYLOAD_BYTES + 1).to_le_bytes();
    let frame = tampered(&Message::Ping { id: 7 }, |f| {
        f[8..12].copy_from_slice(&huge);
        f.truncate(HEADER_LEN); // the payload never arrives
    });
    assert!(matches!(
        first_error(&frame),
        WireError::Oversized { length, .. } if length == MAX_PAYLOAD_BYTES + 1
    ));
}

#[test]
fn crc_corruption_is_rejected() {
    let msg = Message::LookupResponse {
        id: 1,
        generation: 3,
        results: vec![Some(9), None, Some(0)],
    };
    let frame = tampered(&msg, |f| {
        let last = f.len() - 1;
        f[last] ^= 0x80;
    });
    assert!(matches!(first_error(&frame), WireError::BadCrc { .. }));
}

#[test]
fn hostile_count_with_tiny_payload_is_rejected() {
    // A LookupRequest payload claiming u32::MAX packets but carrying
    // none: the count guard must refuse before any allocation.
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(0x01);
    frame.extend_from_slice(&0u16.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    assert!(matches!(first_error(&frame), WireError::Malformed(_)));
}

#[test]
fn bad_prefix_length_in_update_is_rejected() {
    // decode_payload is reachable directly, so a hand-rolled update
    // with plen 33 exercises the fallible prefix constructor path.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes()); // id
    payload.extend_from_slice(&1u32.to_le_bytes()); // count
    payload.push(0); // kind: announce
    payload.extend_from_slice(&2u16.to_le_bytes()); // vnid
    payload.extend_from_slice(&0x0A00_0000u32.to_le_bytes()); // addr
    payload.push(33); // plen: invalid
    payload.push(4); // next hop
    assert!(matches!(
        decode_payload(0x03, &payload),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn trailing_garbage_after_payload_is_rejected() {
    let mut payload = 9u64.to_le_bytes().to_vec();
    payload.push(0xEE); // one byte past a Ping's fixed-size payload
    assert!(matches!(
        decode_payload(0x07, &payload),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn poisoned_decoder_stays_poisoned() {
    let mut dec = FrameDecoder::new();
    let bad = tampered(&Message::Ping { id: 1 }, |f| f[0] = 0);
    dec.feed(&bad);
    let first = dec.next_message().expect_err("bad magic");
    dec.feed(&encode(&Message::Ping { id: 2 }));
    let second = dec.next_message().expect_err("still poisoned");
    assert_eq!(first, second);
}

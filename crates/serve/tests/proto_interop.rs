//! `SLP1` collection-addressing properties: frames round-trip their
//! length-prefixed collection id, a frame of any other protocol version
//! (the retired first revision included) is refused typed, and corruption
//! of the id region — truncation, oversized length, invalid bytes, bit
//! flips — fails typed, never with a panic or a hang.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setlearn::persist::crc32;
use setlearn::wire::{QueryRequest, MAX_COLLECTION_ID_LEN};
use setlearn_serve::proto::{
    decode_request_batch, encode_frame_v2, encode_request_batch, read_frame, ProtoError,
    DEFAULT_MAX_FRAME_BYTES, MAGIC, VERSION,
};

const ID_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";

fn random_name(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..=MAX_COLLECTION_ID_LEN);
    (0..len).map(|_| ID_CHARS[rng.gen_range(0..ID_CHARS.len())] as char).collect()
}

fn random_body(rng: &mut StdRng) -> Vec<u8> {
    let batch: Vec<QueryRequest> = (0..rng.gen_range(0..8))
        .map(|_| QueryRequest::new((0..rng.gen_range(0..16)).map(|_| rng.gen()).collect()))
        .collect();
    encode_request_batch(&batch)
}

#[test]
fn v2_frames_roundtrip_collection_id_and_body() {
    let mut rng = StdRng::seed_from_u64(0x52_01);
    for _ in 0..200 {
        let name = random_name(&mut rng);
        let body = random_body(&mut rng);
        let kind = rng.gen_range(0..3);
        let id = rng.gen::<u64>();
        let bytes = encode_frame_v2(kind, id, Some(&name), &body);
        assert_eq!(bytes[4], VERSION);
        let frame = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(frame.kind, kind);
        assert_eq!(frame.id, id);
        assert_eq!(frame.collection.as_deref(), Some(name.as_str()));
        // The id prefix is stripped: the remaining payload is the body,
        // bit for bit, and still decodes as the same batch.
        assert_eq!(frame.payload, body);
        assert_eq!(
            decode_request_batch(&frame.payload).unwrap(),
            decode_request_batch(&body).unwrap()
        );
    }
}

#[test]
fn a_version_1_frame_is_unsupported_version_1() {
    let mut rng = StdRng::seed_from_u64(0x52_02);
    for _ in 0..200 {
        // A first-revision frame: the header, then the body verbatim, with
        // no collection field. Nothing of it is parsed past the version.
        let body = random_body(&mut rng);
        let mut bytes = raw_frame(rng.gen_range(0..3), rng.gen::<u64>(), &body);
        bytes[4] = 1;
        match read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_BYTES) {
            Err(ProtoError::UnsupportedVersion(1)) => {}
            other => panic!("version-1 frame not refused typed: {other:?}"),
        }
    }
}

#[test]
fn empty_v2_collection_id_means_default_routing() {
    let body = encode_request_batch(&[QueryRequest::new(vec![1, 2, 3])]);
    let bytes = encode_frame_v2(0, 9, None, &body);
    let frame = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(frame.collection, None, "length-0 id routes to the default collection");
    assert_eq!(frame.payload, body);
}

/// Builds a structurally valid frame (magic, version, CRC) whose *payload*
/// is arbitrary bytes — where the collection field belongs included. The
/// CRC covers the payload, so this isolates the collection-id validation
/// layer from the CRC check.
fn raw_frame(kind: u8, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&[VERSION, kind]);
    bytes.extend_from_slice(&id.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn truncated_collection_ids_fail_typed() {
    // The length byte claims more id bytes than the payload holds.
    for claimed in [1usize, 5, 64] {
        let mut payload = vec![claimed as u8];
        payload.extend(std::iter::repeat_n(b'a', claimed.saturating_sub(1)));
        let bytes = raw_frame(0, 11, &payload);
        match read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_BYTES) {
            Err(ProtoError::BadPayload(_)) => {}
            other => panic!("truncated id (claimed {claimed}) not refused typed: {other:?}"),
        }
    }
}

#[test]
fn oversized_and_invalid_collection_ids_fail_typed() {
    // Length past the protocol cap.
    let mut oversized = vec![(MAX_COLLECTION_ID_LEN + 1) as u8];
    oversized.extend(std::iter::repeat_n(b'a', MAX_COLLECTION_ID_LEN + 1));
    // Bytes outside [A-Za-z0-9_-], and invalid UTF-8.
    let bad_char = vec![3u8, b'a', b'/', b'b'];
    let bad_utf8 = vec![2u8, 0xC3, 0x28];
    for payload in [oversized, bad_char, bad_utf8] {
        let bytes = raw_frame(0, 11, &payload);
        match read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_BYTES) {
            Err(ProtoError::BadPayload(_)) => {}
            other => panic!("invalid collection id not refused typed: {other:?}"),
        }
    }
}

#[test]
fn bit_flips_anywhere_in_a_frame_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x52_03);
    let body = encode_request_batch(&[QueryRequest::new(vec![7, 8, 9])]);
    let good = encode_frame_v2(0, 13, Some("tenant-a"), &body);
    for _ in 0..500 {
        let mut frame = good.clone();
        let idx = rng.gen_range(0..frame.len());
        frame[idx] ^= 1u8 << rng.gen_range(0u32..8);
        // A flip in the payload region (id prefix included) must trip the
        // CRC; a flip in the header must fail its own validation or —
        // rarely, e.g. the id byte of the frame — still decode. Either
        // way: return, never panic.
        match read_frame(&mut frame.as_slice(), 1 << 16) {
            Ok(_) | Err(_) => {}
        }
    }
}

#[test]
fn arbitrary_payloads_cannot_hang_or_panic() {
    // Whatever the payload bytes — here a bare batch body, whose first byte
    // the parser takes as an id length — the parser must return promptly:
    // either a typed error or a decoded frame whose body then fails batch
    // validation, never block or panic.
    let mut rng = StdRng::seed_from_u64(0x52_04);
    for _ in 0..300 {
        let body = random_body(&mut rng);
        let bytes = raw_frame(0, 11, &body);
        if let Ok(frame) = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_BYTES) {
            let _ = decode_request_batch(&frame.payload);
        }
    }
}

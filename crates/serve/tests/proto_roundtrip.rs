//! Property-style tests for the `SLP1` protocol: every request/response
//! variant round-trips bit-exactly, and random corruption — truncation,
//! oversize, bit flips, pure garbage — is rejected typed, never with a
//! panic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setlearn::tasks::QueryOutcome;
use setlearn::wire::{QueryRequest, QueryResponse, QueryValue};
use setlearn_serve::proto::{
    decode_request_batch, decode_response_batch, encode_frame_v2, encode_request_batch,
    encode_response_batch, read_frame, ErrorCode, ProtoError, WireOutcome,
    DEFAULT_MAX_FRAME_BYTES, HEADER_LEN,
};
use setlearn_serve::ServeError;

fn random_request(rng: &mut StdRng) -> QueryRequest {
    let len = rng.gen_range(0..64);
    QueryRequest::new((0..len).map(|_| rng.gen::<u32>()).collect())
}

fn random_response(rng: &mut StdRng) -> QueryResponse {
    let value = match rng.gen_range(0..5) {
        0 => QueryValue::Cardinality(f64::from_bits(rng.gen::<u64>() | 0x7ff8_0000_0000_0000)),
        1 => QueryValue::Cardinality(rng.gen::<f64>() * 1e6),
        2 => QueryValue::Position(None),
        3 => QueryValue::Position(Some(rng.gen::<u64>())),
        _ => QueryValue::Membership(rng.gen::<bool>()),
    };
    QueryResponse {
        value,
        fallback: setlearn::wire::fallback_from_code(rng.gen_range(0..3)).unwrap(),
        bound_miss: rng.gen::<bool>(),
    }
}

fn random_outcome(rng: &mut StdRng) -> WireOutcome {
    match rng.gen_range(0..6) {
        0 => Err(ErrorCode::Serve(ServeError::Overloaded)),
        1 => Err(ErrorCode::Serve(ServeError::TaskPanicked)),
        2 => Err(ErrorCode::Serve(ServeError::WorkerLost)),
        _ => Ok(random_response(rng)),
    }
}

#[test]
fn random_request_batches_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x51_b1);
    for _ in 0..200 {
        let n = rng.gen_range(0..32);
        let batch: Vec<QueryRequest> = (0..n).map(|_| random_request(&mut rng)).collect();
        let payload = encode_request_batch(&batch);
        assert_eq!(decode_request_batch(&payload).unwrap(), (batch, None));
    }
}

#[test]
fn random_response_batches_roundtrip_bit_exactly() {
    let mut rng = StdRng::seed_from_u64(0x51_b2);
    for _ in 0..200 {
        let n = rng.gen_range(0..32);
        let batch: Vec<WireOutcome> = (0..n).map(|_| random_outcome(&mut rng)).collect();
        let payload = encode_response_batch(&batch);
        let back = decode_response_batch(&payload).unwrap();
        assert_eq!(back.len(), batch.len());
        for (got, want) in back.iter().zip(&batch) {
            match (got, want) {
                (Ok(g), Ok(w)) => {
                    // Compare NaN payloads too: the wire carries raw bits.
                    match (&g.value, &w.value) {
                        (QueryValue::Cardinality(g), QueryValue::Cardinality(w)) => {
                            assert_eq!(g.to_bits(), w.to_bits());
                        }
                        (gv, wv) => assert_eq!(gv, wv),
                    }
                    assert_eq!(g.fallback, w.fallback);
                    assert_eq!(g.bound_miss, w.bound_miss);
                }
                (Err(g), Err(w)) => assert_eq!(g, w),
                _ => panic!("ok/err shape changed in transit"),
            }
        }
    }
}

#[test]
fn degraded_outcomes_keep_their_flags() {
    let degraded: QueryResponse = QueryOutcome {
        value: Some(42usize),
        fallback: Some(setlearn::hybrid::FallbackReason::NonFinite),
        bound_miss: true,
    }
    .into();
    let payload = encode_response_batch(&[Ok(degraded)]);
    let back = decode_response_batch(&payload).unwrap();
    assert_eq!(back, vec![Ok(degraded)]);
}

#[test]
fn truncated_frames_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x51_b3);
    for _ in 0..50 {
        let batch: Vec<QueryRequest> = (0..rng.gen_range(1..8)).map(|_| random_request(&mut rng)).collect();
        let frame = encode_frame_v2(
            rng.gen_range(0..3),
            rng.gen::<u64>(),
            None,
            &encode_request_batch(&batch),
        );
        let cut = rng.gen_range(0..frame.len());
        match read_frame(&mut &frame[..cut], DEFAULT_MAX_FRAME_BYTES) {
            Err(ProtoError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("truncated frame accepted: {other:?}"),
        }
    }
}

#[test]
fn flipped_payload_bits_fail_the_crc() {
    let mut rng = StdRng::seed_from_u64(0x51_b4);
    for _ in 0..100 {
        let batch: Vec<QueryRequest> =
            (0..rng.gen_range(1..8)).map(|_| random_request(&mut rng)).collect();
        let payload = encode_request_batch(&batch);
        let mut frame = encode_frame_v2(0, 7, None, &payload);
        // Flip one bit somewhere in the payload region.
        let idx = rng.gen_range(HEADER_LEN..frame.len());
        frame[idx] ^= 1u8 << rng.gen_range(0u32..8);
        match read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME_BYTES) {
            Err(ProtoError::BadCrc { .. }) => {}
            other => panic!("corrupted payload not caught: {other:?}"),
        }
    }
}

#[test]
fn mutated_headers_never_panic_and_oversize_is_refused_before_reading() {
    let mut rng = StdRng::seed_from_u64(0x51_b5);
    let payload = encode_request_batch(&[QueryRequest::new(vec![1, 2, 3])]);
    let good = encode_frame_v2(1, 9, None, &payload);
    for _ in 0..500 {
        let mut frame = good.clone();
        let idx = rng.gen_range(0..HEADER_LEN);
        frame[idx] ^= 1u8 << rng.gen_range(0u32..8);
        // Whatever the flip hit (magic, version, kind, id, length, crc), the
        // reader must return — typed error or a frame — never panic or
        // over-allocate. A flipped high length bit must be refused by the
        // size cap, not attempted.
        let _ = read_frame(&mut frame.as_slice(), 1 << 16);
    }
    // Deterministic oversize: declared length far past the cap.
    let mut oversized = good;
    oversized[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
    match read_frame(&mut oversized.as_slice(), 1 << 16) {
        Err(ProtoError::FrameTooLarge { max, .. }) => assert_eq!(max, 1 << 16),
        other => panic!("oversized frame not refused: {other:?}"),
    }
}

#[test]
fn random_garbage_is_rejected_without_panic() {
    let mut rng = StdRng::seed_from_u64(0x51_b6);
    for _ in 0..200 {
        let len = rng.gen_range(0..256);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        assert!(
            read_frame(&mut garbage.as_slice(), DEFAULT_MAX_FRAME_BYTES).is_err(),
            "random garbage decoded as a frame"
        );
        // Raw garbage fed to the payload decoders must also fail typed.
        let _ = decode_request_batch(&garbage);
        let _ = decode_response_batch(&garbage);
    }
}

#[test]
fn garbage_payload_in_a_valid_frame_is_rejected() {
    let mut rng = StdRng::seed_from_u64(0x51_b7);
    for _ in 0..100 {
        let len = rng.gen_range(1..128);
        // Valid framing (magic, version, CRC, collection id all correct)
        // around a body that is not a well-formed batch: the frame layer
        // accepts it, the body decoder refuses it.
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        let frame = encode_frame_v2(0, 3, None, &garbage);
        let decoded = read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(decoded.payload, garbage);
        // Either decode fails, or (rarely) the bytes happen to parse — both
        // are fine; a panic is not.
        let _ = decode_request_batch(&decoded.payload);
    }
}

//! Property tests for the length-prefixed frame codec.
//!
//! The chaos proxy can slice a byte stream at *any* boundary — inside
//! the 4-byte length prefix, mid-body, exactly between frames — and the
//! codec must not care: the sequence of decoded bodies depends only on
//! the bytes, never on how the OS happened to chunk them. These
//! properties drive the reader through adversarial chunkings and
//! truncations and assert exactly that.

use rigid_serve::protocol::{read_frame, write_frame, FrameError, MAX_FRAME};
use rigid_serve::Request;
use std::io::Read;

use proptest::prelude::*;

/// Yields a byte slice in caller-chosen chunk sizes (cycled), so every
/// `read` boundary is adversarial rather than whatever the OS picked.
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    sizes: Vec<usize>,
    next: usize,
}

impl<'a> Chunked<'a> {
    fn new(data: &'a [u8], sizes: Vec<usize>) -> Self {
        assert!(sizes.iter().all(|&s| s > 0), "chunk sizes must be positive");
        Chunked {
            data,
            pos: 0,
            sizes,
            next: 0,
        }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let take = size.min(buf.len()).min(self.data.len() - self.pos);
        buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

/// Hand-frames raw bodies: 4-byte big-endian length + body.
fn frame_stream(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for body in bodies {
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(body);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any chunking of the wire yields the same decoded bodies.
    #[test]
    fn decoding_is_independent_of_read_boundaries(
        bodies in prop::collection::vec(prop::collection::vec(0u8..=255, 0..300), 1..6),
        sizes in prop::collection::vec(1usize..64, 1..8),
    ) {
        let stream = frame_stream(&bodies);
        let mut r = Chunked::new(&stream, sizes);
        for body in &bodies {
            let got = read_frame(&mut r, MAX_FRAME, &|| false);
            match got {
                Ok(b) => prop_assert_eq!(&b, body),
                Err(e) => prop_assert!(false, "complete frame failed to decode: {e}"),
            }
        }
        // The stream ends exactly on a frame boundary: clean EOF.
        prop_assert!(matches!(
            read_frame(&mut r, MAX_FRAME, &|| false),
            Err(FrameError::Closed)
        ));
    }

    /// Truncating the wire anywhere never panics, never yields a
    /// corrupted body: frames wholly before the cut decode intact, then
    /// the reader fails typed — `Closed` on a frame boundary, `Io`
    /// mid-frame.
    #[test]
    fn truncation_is_typed_never_corrupt(
        bodies in prop::collection::vec(prop::collection::vec(0u8..=255, 0..120), 1..5),
        sizes in prop::collection::vec(1usize..32, 1..6),
        cut_sel in 0u64..1_000_000,
    ) {
        let stream = frame_stream(&bodies);
        let cut = (cut_sel as usize) % (stream.len() + 1);
        let mut r = Chunked::new(&stream[..cut], sizes);
        let mut consumed = 0usize;
        for body in &bodies {
            let frame_len = 4 + body.len();
            match read_frame(&mut r, MAX_FRAME, &|| false) {
                Ok(b) => {
                    prop_assert!(
                        consumed + frame_len <= cut,
                        "decoded a frame the cut should have torn"
                    );
                    prop_assert_eq!(&b, body);
                    consumed += frame_len;
                }
                Err(FrameError::Closed) => {
                    prop_assert_eq!(consumed, cut, "Closed must mean a frame boundary");
                    return Ok(());
                }
                Err(FrameError::Io(_)) => {
                    prop_assert!(
                        consumed < cut && cut < consumed + frame_len,
                        "Io must mean the cut landed mid-frame"
                    );
                    return Ok(());
                }
                Err(e) => prop_assert!(false, "unexpected error class: {e}"),
            }
        }
        prop_assert_eq!(consumed, cut, "every frame decoded, so nothing was cut");
    }

    /// An oversized frame is drained — whatever the chunking — and the
    /// next frame still decodes: framing survives the rejection.
    #[test]
    fn oversized_frames_drain_cleanly_under_any_chunking(
        big_len in 65u32..4096,
        tail in prop::collection::vec(0u8..=255, 0..64),
        sizes in prop::collection::vec(1usize..48, 1..6),
    ) {
        let cap = 64u32;
        let mut stream = Vec::new();
        stream.extend_from_slice(&big_len.to_be_bytes());
        stream.extend(std::iter::repeat_n(0xAAu8, big_len as usize));
        stream.extend_from_slice(&(tail.len() as u32).to_be_bytes());
        stream.extend_from_slice(&tail);
        let mut r = Chunked::new(&stream, sizes);
        match read_frame(&mut r, cap, &|| false) {
            Err(FrameError::Oversized { len, max }) => {
                prop_assert_eq!(len, big_len);
                prop_assert_eq!(max, cap);
            }
            other => prop_assert!(false, "expected Oversized, got {other:?}"),
        }
        match read_frame(&mut r, cap, &|| false) {
            Ok(b) => prop_assert_eq!(&b, &tail),
            Err(e) => prop_assert!(false, "follow-up frame lost after drain: {e}"),
        }
    }
}

/// The cap is inclusive: a body of exactly `MAX_FRAME` bytes is legal;
/// one byte more is rejected typed — and the stream stays framed so the
/// session survives. Regression guard for an off-by-one that once bit
/// the boundary in review.
#[test]
fn max_frame_boundary_is_inclusive() {
    let at_cap = vec![0x42u8; MAX_FRAME as usize];
    let stream = frame_stream(std::slice::from_ref(&at_cap));
    let body = read_frame(&mut stream.as_slice(), MAX_FRAME, &|| false)
        .expect("a frame of exactly MAX_FRAME bytes is accepted");
    assert_eq!(body.len(), MAX_FRAME as usize);

    // One byte over: rejected with the typed error, drained, and the
    // ping behind it still decodes.
    let over = vec![0x42u8; MAX_FRAME as usize + 1];
    let mut stream = frame_stream(&[over]);
    write_frame(&mut stream, &Request::Ping { payload: 7 }).expect("write ping");
    let mut r = stream.as_slice();
    match read_frame(&mut r, MAX_FRAME, &|| false) {
        Err(FrameError::Oversized { len, max }) => {
            assert_eq!(len, MAX_FRAME + 1);
            assert_eq!(max, MAX_FRAME);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
    let body = read_frame(&mut r, MAX_FRAME, &|| false).expect("framing survives");
    let req: Request =
        serde_json::from_str(std::str::from_utf8(&body).expect("utf8")).expect("parse");
    assert_eq!(req, Request::Ping { payload: 7 });
}

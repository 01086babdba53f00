//! The framed wire format shared by the socket-backed transports.
//!
//! [`TcpTransport`](super::TcpTransport) (blocking, thread-per-connection)
//! and [`ReactorTransport`](super::ReactorTransport) (nonblocking,
//! event-driven) speak the identical byte stream — the conformance suites
//! assert both backends are interchangeable — so the encoding lives here
//! once. Every frame is length-prefixed and little-endian:
//!
//! ```text
//! +--------+----------+-----------+------------+------------+----------+---------+
//! | opcode | link id  | slice idx | stripe id  | repair id  | len: u32 | payload |
//! | u8     | u64      | u64       | u64        | u64        |          | [u8]    |
//! +--------+----------+-----------+------------+------------+----------+---------+
//! ```
//!
//! Opcodes: `HELLO` (first frame on a connection, announcing the `(src,
//! dst)` node pair in the link/index fields), `DATA` (one
//! [`SliceMsg`](super::SliceMsg): slice index, stripe and repair-job ids,
//! payload), `EOS` (the sending half of a link was dropped).
//!
//! Both backends send a frame with [`write_frame`] — one vectored write
//! for header and payload, so a frame that fits the socket buffer leaves as
//! one segment — and so segment the stream identically.

use std::io::{ErrorKind, IoSlice, IoSliceMut, Read, Write};
use std::net::TcpStream;

use bytes::Bytes;

use crate::buf::{BufPool, PooledBuf};

/// First frame on a connection: announces the `(src, dst)` node pair.
pub(super) const OP_HELLO: u8 = 1;
/// One slice message.
pub(super) const OP_DATA: u8 = 2;
/// The sending half of a link was dropped.
pub(super) const OP_EOS: u8 = 3;

/// Header: opcode + link id + slice index + stripe id + repair id + length.
pub(super) const HEADER_LEN: usize = 1 + 8 + 8 + 8 + 8 + 4;

pub(super) fn encode_header(
    opcode: u8,
    link: u64,
    index: u64,
    stripe: u64,
    repair: u64,
    len: u32,
) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0] = opcode;
    h[1..9].copy_from_slice(&link.to_le_bytes());
    h[9..17].copy_from_slice(&index.to_le_bytes());
    h[17..25].copy_from_slice(&stripe.to_le_bytes());
    h[25..33].copy_from_slice(&repair.to_le_bytes());
    h[33..37].copy_from_slice(&len.to_le_bytes());
    h
}

/// Writes one frame, `header` then `payload`, with one vectored write per
/// attempt. Returns how many of the frame's bytes went out: all of them,
/// unless a nonblocking socket would block first (the caller queues the
/// rest). Interrupted writes are retried; a write of zero bytes is an
/// error.
pub(super) fn write_frame(
    mut out: impl Write,
    header: &[u8],
    payload: &[u8],
) -> std::io::Result<usize> {
    let total = header.len() + payload.len();
    let mut bufs = [IoSlice::new(header), IoSlice::new(payload)];
    let mut remaining = &mut bufs[..];
    let mut written = 0;
    while written < total {
        match out.write_vectored(remaining) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => {
                written += n;
                IoSlice::advance_slices(&mut remaining, n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}

/// One decoded frame.
pub(super) struct Frame {
    pub(super) opcode: u8,
    pub(super) link: u64,
    pub(super) index: u64,
    pub(super) stripe: u64,
    pub(super) repair: u64,
    pub(super) payload: Bytes,
}

fn payload_len(header: &[u8; HEADER_LEN]) -> usize {
    u32::from_le_bytes(header[33..37].try_into().unwrap()) as usize
}

fn decode(header: &[u8; HEADER_LEN], payload: Bytes) -> Frame {
    Frame {
        opcode: header[0],
        link: u64::from_le_bytes(header[1..9].try_into().unwrap()),
        index: u64::from_le_bytes(header[9..17].try_into().unwrap()),
        stripe: u64::from_le_bytes(header[17..25].try_into().unwrap()),
        repair: u64::from_le_bytes(header[25..33].try_into().unwrap()),
        payload,
    }
}

/// Blocking read of one complete frame (the `TcpTransport` reader-thread
/// path).
pub(super) fn read_frame(stream: &mut TcpStream) -> std::io::Result<Frame> {
    let mut h = [0u8; HEADER_LEN];
    stream.read_exact(&mut h)?;
    let mut payload = vec![0u8; payload_len(&h)];
    stream.read_exact(&mut payload)?;
    Ok(decode(&h, payload.into()))
}

/// A frame whose header is complete and whose payload is still arriving.
struct PartialFrame {
    header: [u8; HEADER_LEN],
    payload: PooledBuf,
    filled: usize,
}

/// Incremental frame reader for nonblocking sockets (the
/// `ReactorTransport` path). Each header is read into a fixed array; each
/// payload is read from the socket straight into a buffer taken from the
/// decoder's [`BufPool`], which then becomes the frame's [`Bytes`] without
/// a copy. While a payload is being read, the same read also fills the next
/// frame's header, so a stream of back-to-back frames costs one read per
/// frame. A partial frame stays buffered across calls.
pub(super) struct FrameDecoder {
    pool: BufPool,
    /// The next frame's header, `header_len` bytes of it read so far.
    header: [u8; HEADER_LEN],
    header_len: usize,
    /// The frame whose payload is being read, once its header is complete.
    partial: Option<PartialFrame>,
}

impl FrameDecoder {
    /// A decoder whose payload buffers come from (and return to) `pool`.
    pub(super) fn new(pool: BufPool) -> Self {
        FrameDecoder {
            pool,
            header: [0; HEADER_LEN],
            header_len: 0,
            partial: None,
        }
    }

    /// The pool payload buffers are taken from.
    #[cfg(test)]
    pub(super) fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// Reads from `src` until it would block or ends, appending every frame
    /// it completes to `frames`. Returns whether the stream is still open:
    /// `false` after end-of-stream or a read error, in which case a frame
    /// cut off mid-header or mid-payload is dropped, never emitted.
    pub(super) fn read_from(&mut self, mut src: impl Read, frames: &mut Vec<Frame>) -> bool {
        loop {
            let read = match &mut self.partial {
                None => src.read(&mut self.header[self.header_len..]),
                Some(partial) => {
                    debug_assert_eq!(self.header_len, 0);
                    src.read_vectored(&mut [
                        IoSliceMut::new(&mut partial.payload[partial.filled..]),
                        IoSliceMut::new(&mut self.header),
                    ])
                }
            };
            match read {
                Ok(0) => return false,
                Ok(n) => self.consume(n, frames),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Accounts for `n` freshly read bytes, emitting what they complete.
    fn consume(&mut self, mut n: usize, frames: &mut Vec<Frame>) {
        if let Some(partial) = &mut self.partial {
            let into_payload = n.min(partial.payload.len() - partial.filled);
            partial.filled += into_payload;
            n -= into_payload;
            if partial.filled == partial.payload.len() {
                let done = self.partial.take().expect("checked above");
                frames.push(decode(&done.header, done.payload.freeze()));
            }
        }
        self.header_len += n;
        if self.header_len == HEADER_LEN {
            self.header_len = 0;
            match payload_len(&self.header) {
                0 => frames.push(decode(&self.header, Bytes::new())),
                len => {
                    self.partial = Some(PartialFrame {
                        header: self.header,
                        // The payload reads overwrite every byte.
                        payload: self.pool.take_for_overwrite(len),
                        filled: 0,
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// A nonblocking byte source: delivers `data` in pieces cut at `cuts`,
    /// reporting `WouldBlock` once at every cut and, after the last byte,
    /// either end-of-stream or `WouldBlock` forever.
    struct ChoppedReader {
        data: Vec<u8>,
        pos: usize,
        cuts: VecDeque<usize>,
        blocked: bool,
        eof: bool,
    }

    impl ChoppedReader {
        fn new(data: Vec<u8>, cuts: &[usize], eof: bool) -> Self {
            let mut cuts: Vec<usize> = cuts.iter().copied().filter(|&c| c < data.len()).collect();
            cuts.sort_unstable();
            cuts.dedup();
            ChoppedReader {
                data,
                pos: 0,
                cuts: cuts.into(),
                blocked: false,
                eof,
            }
        }
    }

    impl Read for ChoppedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.read_vectored(&mut [IoSliceMut::new(buf)])
        }

        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> std::io::Result<usize> {
            if std::mem::take(&mut self.blocked) {
                return Err(ErrorKind::WouldBlock.into());
            }
            if self.pos == self.data.len() {
                return if self.eof {
                    Ok(0)
                } else {
                    Err(ErrorKind::WouldBlock.into())
                };
            }
            while self.cuts.front().is_some_and(|&c| c <= self.pos) {
                self.cuts.pop_front();
            }
            let end = self.cuts.front().copied().unwrap_or(self.data.len());
            let mut n = 0;
            for buf in bufs.iter_mut() {
                let take = buf.len().min(end - self.pos - n);
                buf[..take].copy_from_slice(&self.data[self.pos + n..self.pos + n + take]);
                n += take;
            }
            self.pos += n;
            self.blocked = self.pos == end;
            Ok(n)
        }
    }

    type Decoded = (u8, u64, u64, u64, u64, Vec<u8>);

    fn frame_bytes(frame: &Decoded) -> Vec<u8> {
        let (opcode, link, index, stripe, repair, payload) = frame;
        let mut out = encode_header(
            *opcode,
            *link,
            *index,
            *stripe,
            *repair,
            payload.len() as u32,
        )
        .to_vec();
        out.extend_from_slice(payload);
        out
    }

    /// Feeds `reader` through a decoder, one `read_from` per readiness
    /// event, until the stream ends.
    fn decode_all(mut reader: ChoppedReader) -> Vec<Decoded> {
        let mut decoder = FrameDecoder::new(BufPool::new());
        let mut frames = Vec::new();
        for _ in 0..100_000 {
            if !decoder.read_from(&mut reader, &mut frames) {
                return frames
                    .into_iter()
                    .map(|f| {
                        let payload = f.payload.to_vec();
                        (f.opcode, f.link, f.index, f.stripe, f.repair, payload)
                    })
                    .collect();
            }
        }
        panic!("decoder never reached end-of-stream");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn split_streams_decode_to_the_same_frames(
            lens in proptest::collection::vec(0usize..300, 1..12),
            cuts in proptest::collection::vec(0usize..4_000, 0..40),
        ) {
            // HELLO, then DATA frames (zero-length ones included) with an
            // EOS after every third.
            let mut expected: Vec<Decoded> = vec![(OP_HELLO, 4, 7, 0, 0, Vec::new())];
            for (i, &len) in lens.iter().enumerate() {
                let payload: Vec<u8> = (0..len).map(|b| (b * 31 + i) as u8).collect();
                expected.push((OP_DATA, i as u64, 2 * i as u64, 5, 6, payload));
                if i % 3 == 2 {
                    expected.push((OP_EOS, i as u64, 0, 0, 0, Vec::new()));
                }
            }
            let wire: Vec<u8> = expected.iter().flat_map(frame_bytes).collect();
            let decoded = decode_all(ChoppedReader::new(wire, &cuts, true));
            prop_assert_eq!(decoded, expected);
        }
    }

    #[test]
    fn decoder_handles_split_and_coalesced_frames() {
        let expected: Vec<Decoded> = vec![
            (OP_DATA, 7, 1, 2, 3, b"abc".to_vec()),
            (OP_EOS, 8, 0, 0, 0, Vec::new()),
            (OP_DATA, 9, 1, 2, 3, vec![0x5A; 70_000]),
        ];
        let wire: Vec<u8> = expected.iter().flat_map(frame_bytes).collect();
        let every_byte: Vec<usize> = (1..wire.len()).collect();
        assert_eq!(
            decode_all(ChoppedReader::new(wire.clone(), &every_byte, true)),
            expected
        );
        assert_eq!(decode_all(ChoppedReader::new(wire, &[], true)), expected);
    }

    #[test]
    fn eof_mid_frame_emits_no_partial_frame() {
        let whole = (OP_DATA, 1, 2, 3, 4, b"complete".to_vec());
        let cut = (OP_DATA, 5, 6, 7, 8, b"cut short".to_vec());
        let mut wire = frame_bytes(&whole);
        let second = frame_bytes(&cut);
        // End inside the second header, then inside its payload.
        for end in [3, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 4] {
            let mut stream = wire.clone();
            stream.extend_from_slice(&second[..end]);
            assert_eq!(
                decode_all(ChoppedReader::new(stream, &[end / 2], true)),
                vec![whole.clone()],
                "stream cut {end} bytes into the second frame"
            );
        }
        // A stream that merely stalls keeps the partial frame for later.
        let mut decoder = FrameDecoder::new(BufPool::new());
        let mut frames = Vec::new();
        wire.extend_from_slice(&second[..HEADER_LEN + 4]);
        assert!(decoder.read_from(ChoppedReader::new(wire, &[], false), &mut frames));
        assert_eq!(frames.len(), 1);
        assert!(decoder.partial.is_some());
    }

    #[test]
    fn golden_frames_pin_the_wire_format() {
        // Bytes produced by the original two-write encoder; they must keep
        // decoding, and encoding, exactly like this.
        let data: [u8; HEADER_LEN + 3] = [
            0x02, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x09, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x2a, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x61, 0x62, 0x63,
        ];
        let hello: [u8; HEADER_LEN] = [
            0x01, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        let eos: [u8; HEADER_LEN] = [
            0x03, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        let link = 0x0102_0304_0506_0708;
        assert_eq!(
            encode_header(OP_DATA, link, 9, 0x1122_3344_5566_7788, 42, 3),
            data[..HEADER_LEN]
        );
        assert_eq!(encode_header(OP_HELLO, 4, 7, 0, 0, 0), hello);
        assert_eq!(encode_header(OP_EOS, link, 0, 0, 0, 0), eos);

        let wire = [&hello[..], &data, &eos].concat();
        assert_eq!(
            decode_all(ChoppedReader::new(wire, &[HEADER_LEN + 5], true)),
            vec![
                (OP_HELLO, 4, 7, 0, 0, Vec::new()),
                (OP_DATA, link, 9, 0x1122_3344_5566_7788, 42, b"abc".to_vec()),
                (OP_EOS, link, 0, 0, 0, Vec::new()),
            ]
        );
    }

    #[test]
    fn write_frame_is_one_vectored_write_and_resumes_mid_header() {
        /// Accepts at most `limit` bytes per call and records each call.
        struct Trickle {
            out: Vec<u8>,
            calls: usize,
            limit: usize,
        }
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
                self.calls += 1;
                let before = self.out.len();
                for buf in bufs {
                    let room = self.limit - (self.out.len() - before);
                    self.out.extend_from_slice(&buf[..buf.len().min(room)]);
                }
                Ok(self.out.len() - before)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let header = encode_header(OP_DATA, 1, 2, 3, 4, 5);
        let payload = b"hello";
        let expected = [&header[..], payload].concat();

        let mut whole = Trickle {
            out: Vec::new(),
            calls: 0,
            limit: usize::MAX,
        };
        assert_eq!(write_frame(&mut whole, &header, payload).unwrap(), 42);
        assert_eq!((whole.out.as_slice(), whole.calls), (&expected[..], 1));

        let mut trickle = Trickle {
            out: Vec::new(),
            calls: 0,
            limit: 10,
        };
        assert_eq!(write_frame(&mut trickle, &header, payload).unwrap(), 42);
        assert_eq!(trickle.out, expected);
        assert_eq!(trickle.calls, 5);
    }
}

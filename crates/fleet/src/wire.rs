//! The binary envelope shared by the socket transport's frames and the
//! control plane's write-ahead log, and the frame codec over it: a
//! length-prefixed, CRC-checksummed record format that a client process
//! and the coordinator (or a WAL writer and its readers) agree on byte
//! for byte.
//!
//! The codec is deliberately tiny and self-contained (no serde, no
//! external crates). Every envelope is
//!
//! ```text
//! offset  size  field
//! 0       4     magic     little-endian; frames 0xB0F1_50C7
//! 4       1     kind      frames: 1=Data, 2=Ack, 3=Ping, 4=Pong
//! 5       4     len       payload length, little-endian
//! 9       len   payload   kind-specific, fixed layout
//! 9+len   4     crc       CRC-32 (IEEE) over bytes [4, 9+len)
//! ```
//!
//! [`encode_envelope`] seals one and [`split_envelope`] checks one; each
//! format brings its own magic, payload cap and kind-to-payload map
//! ([`encode_frame`]/[`decode_frame`] here, `bofl_control::wal`'s
//! records with magic 0xB0F1_A110). One [`StreamDecoder`] reads either
//! kind of stream incrementally.
//!
//! Data and Ack carry a [`WireMsg`]: `(round, client, copy)` identify the
//! update and `t_send_s` is its *virtual* send timestamp — the simulation
//! clock rides inside the frame, so real TCP transfer time never leaks
//! into a journal. Ping/Pong carry an opaque nonce; they are the
//! heartbeat a lane uses to detect a half-open connection before
//! trusting a pooled stream.
//!
//! Decoding is *incremental*: [`decode_frame`] reads from a byte buffer
//! and answers "not enough bytes yet" (`Ok(None)`) separately from "these
//! bytes can never be a frame" (`Err`), so a reader can accumulate bytes
//! from a non-blocking socket without ever desynchronizing on a torn
//! read.

use std::fmt;
use std::io;

/// Every frame starts with this little-endian magic.
const FRAME_MAGIC: u32 = 0xB0F1_50C7;

/// Frames never carry more payload than this; a larger length prefix is
/// corruption, not a big message.
const MAX_PAYLOAD: usize = 64 * 1024;

/// Fixed overhead around the payload: magic + kind + len + crc.
const ENVELOPE_OVERHEAD: usize = 4 + 1 + 4 + 4;

/// One update (or its acknowledgement) on the wire, stamped with its
/// virtual send time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireMsg {
    /// Federation round the update belongs to.
    pub round: u32,
    /// The sending client.
    pub client: u32,
    /// Duplicate index (0 = original).
    pub copy: u32,
    /// Virtual send time, simulated seconds since the run began.
    pub t_send_s: f64,
}

/// A decoded frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Frame {
    /// A client's finished update travelling to the coordinator.
    Data(WireMsg),
    /// The coordinator's receipt for one Data frame (payload echoed).
    Ack(WireMsg),
    /// Heartbeat probe on an idle connection.
    Ping(u64),
    /// Heartbeat reply (nonce echoed).
    Pong(u64),
}

/// Why a byte sequence was rejected by the decoder.
#[derive(Debug)]
pub enum WireError {
    /// The first four bytes are not the format's magic.
    BadMagic(u32),
    /// The checksum over kind + length + payload did not match.
    BadChecksum {
        /// CRC the frame claimed.
        expected: u32,
        /// CRC the received bytes actually hash to.
        actual: u32,
    },
    /// The length prefix exceeds the format's payload cap.
    Oversize(usize),
    /// The kind byte is not in the frame vocabulary.
    UnknownKind(u8),
    /// A known kind arrived with the wrong payload length.
    BadPayload {
        /// The frame kind byte.
        kind: u8,
        /// The payload length that does not fit it.
        len: usize,
    },
    /// An underlying socket/file error.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            WireError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: header says {expected:#010x}, bytes hash to {actual:#010x}"
                )
            }
            WireError::Oversize(len) => write!(f, "payload length {len} exceeds the cap"),
            WireError::UnknownKind(k) => write!(f, "unknown kind {k}"),
            WireError::BadPayload { kind, len } => {
                write!(f, "kind {kind} cannot carry a {len}-byte payload")
            }
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Bitwise — frames are
/// tens of bytes, a lookup table would be noise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Seal a payload, given as its fields in order, in the envelope that
/// wire frames and WAL records share: `magic`, `kind`, the payload
/// length, the payload, and a CRC-32 over kind, length and payload.
pub fn encode_envelope(magic: u32, kind: u8, fields: &[&[u8]]) -> Vec<u8> {
    let len: usize = fields.iter().map(|f| f.len()).sum();
    let mut out = Vec::with_capacity(ENVELOPE_OVERHEAD + len);
    out.extend_from_slice(&magic.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    for field in fields {
        out.extend_from_slice(field);
    }
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A whole envelope: its kind, its payload, and the bytes it spans.
type Split<'a> = (u8, &'a [u8], usize);

/// Split one envelope sealed by [`encode_envelope`] off the front of
/// `buf`, checking its magic, its length against `max_payload` and its
/// checksum.
///
/// - `Ok(Some((kind, payload, consumed)))` — a whole, checksummed
///   envelope; the caller interprets `kind` and `payload`.
/// - `Ok(None)` — the buffer holds a valid *prefix* of an envelope; read
///   more bytes and try again (this is how torn reads stay harmless).
/// - `Err(_)` — the bytes can never become a valid envelope.
pub fn split_envelope(
    buf: &[u8],
    magic: u32,
    max_payload: usize,
) -> Result<Option<Split<'_>>, WireError> {
    let head = &buf[..buf.len().min(4)];
    if !magic.to_le_bytes().starts_with(head) {
        let mut m = [0u8; 4];
        m[..head.len()].copy_from_slice(head);
        return Err(WireError::BadMagic(u32::from_le_bytes(m)));
    }
    if buf.len() < 9 {
        return Ok(None);
    }
    let kind = buf[4];
    let len = u32::from_le_bytes(buf[5..9].try_into().expect("4 bytes")) as usize;
    if len > max_payload {
        return Err(WireError::Oversize(len));
    }
    let total = ENVELOPE_OVERHEAD + len;
    if buf.len() < total {
        return Ok(None);
    }
    let claimed = u32::from_le_bytes(buf[9 + len..total].try_into().expect("4 bytes"));
    let actual = crc32(&buf[4..9 + len]);
    if claimed != actual {
        return Err(WireError::BadChecksum {
            expected: claimed,
            actual,
        });
    }
    Ok(Some((kind, &buf[9..9 + len], total)))
}

const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;
const KIND_PING: u8 = 3;
const KIND_PONG: u8 = 4;

fn encode_msg(kind: u8, msg: &WireMsg) -> Vec<u8> {
    encode_envelope(
        FRAME_MAGIC,
        kind,
        &[
            &msg.round.to_le_bytes(),
            &msg.client.to_le_bytes(),
            &msg.copy.to_le_bytes(),
            &msg.t_send_s.to_bits().to_le_bytes(),
        ],
    )
}

fn parse_msg(payload: &[u8]) -> Option<WireMsg> {
    if payload.len() != 20 {
        return None;
    }
    Some(WireMsg {
        round: u32::from_le_bytes(payload[0..4].try_into().ok()?),
        client: u32::from_le_bytes(payload[4..8].try_into().ok()?),
        copy: u32::from_le_bytes(payload[8..12].try_into().ok()?),
        t_send_s: f64::from_bits(u64::from_le_bytes(payload[12..20].try_into().ok()?)),
    })
}

/// Serialize one frame into its canonical byte layout.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Data(m) => encode_msg(KIND_DATA, m),
        Frame::Ack(m) => encode_msg(KIND_ACK, m),
        Frame::Ping(nonce) => encode_envelope(FRAME_MAGIC, KIND_PING, &[&nonce.to_le_bytes()]),
        Frame::Pong(nonce) => encode_envelope(FRAME_MAGIC, KIND_PONG, &[&nonce.to_le_bytes()]),
    }
}

/// Try to decode one frame from the front of `buf`, with the answers of
/// [`split_envelope`]: `Ok(Some((frame, consumed)))`, `Ok(None)` for a
/// valid prefix, `Err` for bytes that can never be a frame.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    let Some((kind, payload, consumed)) = split_envelope(buf, FRAME_MAGIC, MAX_PAYLOAD)? else {
        return Ok(None);
    };
    let bad = || WireError::BadPayload {
        kind,
        len: payload.len(),
    };
    let nonce = || {
        payload
            .try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| bad())
    };
    let frame = match kind {
        KIND_DATA => Frame::Data(parse_msg(payload).ok_or_else(bad)?),
        KIND_ACK => Frame::Ack(parse_msg(payload).ok_or_else(bad)?),
        KIND_PING => Frame::Ping(nonce()?),
        KIND_PONG => Frame::Pong(nonce()?),
        other => return Err(WireError::UnknownKind(other)),
    };
    Ok(Some((frame, consumed)))
}

/// What [`StreamDecoder::pull`] got from its source.
#[derive(Debug, PartialEq)]
pub enum Pulled<T> {
    /// The next whole item, in stream order.
    Item(T),
    /// No whole item yet, and the read timed out, would block or was
    /// interrupted.
    Idle,
    /// No whole item, and the source returned 0 bytes: a peer closed its
    /// socket, or a reader reached the current end of a file.
    End,
}

/// The one buffered decoder behind every stream reader: the socket
/// [`FrameReader`], and the WAL's recovery scan and live tail in
/// `bofl-control`. It accumulates reads, decodes whole items from the
/// front of its buffer and drops the bytes they used; a torn read is
/// just a prefix that waits for more bytes.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already decoded.
    used: usize,
    /// Stream offset of `buf[0]`.
    base: u64,
}

impl StreamDecoder {
    /// Stream offset of the first byte not yet decoded: where the next
    /// item starts.
    pub fn offset(&self) -> u64 {
        self.base + self.used as u64
    }

    /// Decode the next item with `decode` (called with the undecoded
    /// bytes and their stream offset), reading from `src` until one is
    /// whole or the source has nothing more. A decode error is returned
    /// as is; what [`Pulled::End`] means is the caller's.
    ///
    /// # Errors
    ///
    /// `decode`'s error, or a read error other than a timeout, a would-
    /// block or an interrupt.
    pub fn pull<T, E: From<io::Error>>(
        &mut self,
        src: &mut impl io::Read,
        decode: impl Fn(&[u8], u64) -> Result<Option<(T, usize)>, E>,
    ) -> Result<Pulled<T>, E> {
        loop {
            if let Some((item, consumed)) = decode(&self.buf[self.used..], self.offset())? {
                self.used += consumed;
                return Ok(Pulled::Item(item));
            }
            self.base += self.used as u64;
            self.buf.drain(..self.used);
            self.used = 0;
            let mut chunk = [0u8; 4096];
            match src.read(&mut chunk) {
                Ok(0) => return Ok(Pulled::End),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    return Ok(Pulled::Idle)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// An incremental frame reader over any [`io::Read`]: accumulates bytes
/// across torn reads and yields complete frames. Read timeouts surface as
/// `Ok(None)` from [`FrameReader::poll`], so a caller can interleave
/// shutdown checks with blocking reads without ever desynchronizing.
#[derive(Debug, Default)]
pub struct FrameReader(StreamDecoder);

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Read from `r` until a frame is whole or the read comes back empty.
    /// Returns:
    ///
    /// - `Ok(Some(frame))` — a complete frame is available;
    /// - `Ok(None)` — no complete frame yet (a timeout or would-block);
    /// - `Err(WireError::Io)` with `ErrorKind::UnexpectedEof` — the peer
    ///   closed the connection;
    /// - any other `Err` — corruption or a hard socket error.
    pub fn poll(&mut self, r: &mut impl io::Read) -> Result<Option<Frame>, WireError> {
        match self.0.pull(r, |buf, _| decode_frame(buf))? {
            Pulled::Item(frame) => Ok(Some(frame)),
            Pulled::Idle => Ok(None),
            Pulled::End => Err(WireError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> WireMsg {
        WireMsg {
            round: 7,
            client: 42,
            copy: 0,
            t_send_s: 123.456,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip() {
        for frame in [
            Frame::Data(msg()),
            Frame::Ack(msg()),
            Frame::Ping(0xDEAD_BEEF),
            Frame::Pong(1),
        ] {
            let bytes = encode_frame(&frame);
            let (decoded, consumed) = decode_frame(&bytes).unwrap().unwrap();
            assert_eq!(decoded, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn partial_prefixes_ask_for_more_bytes() {
        let bytes = encode_frame(&Frame::Data(msg()));
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut]).unwrap().is_none(),
                "cut at {cut} must be a valid prefix"
            );
        }
    }

    #[test]
    fn corruption_is_rejected_not_misread() {
        let mut bytes = encode_frame(&Frame::Data(msg()));
        // Flip a payload bit: checksum must catch it.
        bytes[12] ^= 0x40;
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::BadChecksum { .. })
        ));
        // Wrong magic is rejected on the first byte.
        assert!(matches!(
            decode_frame(&[0xFFu8, 0, 0, 0, 0]),
            Err(WireError::BadMagic(_))
        ));
        // An absurd length prefix is corruption, not a big frame.
        let mut oversize = encode_frame(&Frame::Ping(0));
        oversize[5..9].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&oversize),
            Err(WireError::Oversize(_))
        ));
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let mut stream = encode_frame(&Frame::Ping(1));
        stream.extend_from_slice(&encode_frame(&Frame::Data(msg())));
        let (first, n) = decode_frame(&stream).unwrap().unwrap();
        assert_eq!(first, Frame::Ping(1));
        let (second, _) = decode_frame(&stream[n..]).unwrap().unwrap();
        assert_eq!(second, Frame::Data(msg()));
    }

    #[test]
    fn frame_reader_survives_torn_reads() {
        struct Dribble {
            bytes: Vec<u8>,
            at: usize,
        }
        impl io::Read for Dribble {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.at >= self.bytes.len() {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "dry"));
                }
                out[0] = self.bytes[self.at]; // one byte at a time
                self.at += 1;
                Ok(1)
            }
        }
        let mut bytes = encode_frame(&Frame::Data(msg()));
        bytes.extend_from_slice(&encode_frame(&Frame::Pong(9)));
        let mut src = Dribble { bytes, at: 0 };
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for _ in 0..10_000 {
            match reader.poll(&mut src) {
                Ok(Some(f)) => got.push(f),
                Ok(None) => {}
                Err(e) => panic!("unexpected {e}"),
            }
            if got.len() == 2 {
                break;
            }
        }
        assert_eq!(got, vec![Frame::Data(msg()), Frame::Pong(9)]);
    }
}

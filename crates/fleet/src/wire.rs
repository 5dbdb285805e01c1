//! The binary frame codec shared by every socket-backed carrier: a
//! length-prefixed, CRC-checksummed frame format that a client process
//! and the coordinator agree on byte for byte.
//!
//! The codec is deliberately tiny and self-contained (no serde, no
//! external crates): every frame is
//!
//! ```text
//! offset  size  field
//! 0       4     magic     0xB0F1_50C7, little-endian
//! 4       1     kind      1=Data, 2=Ack, 3=Ping, 4=Pong
//! 5       4     len       payload length, little-endian
//! 9       len   payload   kind-specific, fixed layout
//! 9+len   4     crc       CRC-32 (IEEE) over bytes [4, 9+len)
//! ```
//!
//! Data and Ack carry a [`WireMsg`]: `(round, client, copy)` identify the
//! update and `t_send_s` is its *virtual* send timestamp — the simulation
//! clock rides inside the frame, so real TCP transfer time never leaks
//! into a journal. Ping/Pong carry an opaque nonce; they are the
//! heartbeat lane a connection supervisor uses to detect half-open
//! connections before trusting a pooled stream.
//!
//! Decoding is *incremental*: [`decode_frame`] reads from a byte buffer
//! and answers "not enough bytes yet" (`Ok(None)`) separately from "these
//! bytes can never be a frame" (`Err`), so a reader can accumulate bytes
//! from a non-blocking socket without ever desynchronizing on a torn
//! read.

use std::fmt;
use std::io;

/// Every frame starts with this little-endian magic.
pub(crate) const FRAME_MAGIC: u32 = 0xB0F1_50C7;

/// Frames never carry more payload than this; a larger length prefix is
/// corruption, not a big message.
pub(crate) const MAX_PAYLOAD: usize = 64 * 1024;

/// Fixed overhead around the payload: magic + kind + len + crc.
pub(crate) const FRAME_OVERHEAD: usize = 4 + 1 + 4 + 4;

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
    /// The first four bytes are not `FRAME_MAGIC`.
    BadMagic(u32),
    /// The checksum over kind + length + payload did not match.
    BadChecksum {
        /// CRC the frame claimed.
        expected: u32,
        /// CRC the received bytes actually hash to.
        actual: u32,
    },
    /// The length prefix exceeds `MAX_PAYLOAD`.
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
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadChecksum { expected, actual } => {
                write!(f, "frame checksum mismatch: header says {expected:#010x}, bytes hash to {actual:#010x}")
            }
            WireError::Oversize(len) => {
                write!(f, "frame payload length {len} exceeds {MAX_PAYLOAD}")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadPayload { kind, len } => {
                write!(f, "frame kind {kind} cannot carry a {len}-byte payload")
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

const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;
const KIND_PING: u8 = 3;
const KIND_PONG: u8 = 4;

fn msg_payload(msg: &WireMsg) -> Vec<u8> {
    let mut p = Vec::with_capacity(20);
    p.extend_from_slice(&msg.round.to_le_bytes());
    p.extend_from_slice(&msg.client.to_le_bytes());
    p.extend_from_slice(&msg.copy.to_le_bytes());
    p.extend_from_slice(&msg.t_send_s.to_bits().to_le_bytes());
    p
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
    let (kind, payload) = match frame {
        Frame::Data(m) => (KIND_DATA, msg_payload(m)),
        Frame::Ack(m) => (KIND_ACK, msg_payload(m)),
        Frame::Ping(nonce) => (KIND_PING, nonce.to_le_bytes().to_vec()),
        Frame::Pong(nonce) => (KIND_PONG, nonce.to_le_bytes().to_vec()),
    };
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Try to decode one frame from the front of `buf`.
///
/// - `Ok(Some((frame, consumed)))` — a complete, checksummed frame; the
///   caller should drain `consumed` bytes.
/// - `Ok(None)` — the buffer holds a valid *prefix* of a frame; read more
///   bytes and try again (this is how torn reads stay harmless).
/// - `Err(_)` — the bytes can never become a valid frame; the connection
///   (or file tail) is corrupt.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.len() < 4 {
        if FRAME_MAGIC.to_le_bytes().starts_with(buf) {
            return Ok(None);
        }
        return Err(WireError::BadMagic(u32::from_le_bytes({
            let mut m = [0u8; 4];
            m[..buf.len()].copy_from_slice(buf);
            m
        })));
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    if magic != FRAME_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if buf.len() < 9 {
        return Ok(None);
    }
    let kind = buf[4];
    let len = u32::from_le_bytes(buf[5..9].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize(len));
    }
    let total = FRAME_OVERHEAD + len;
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
    let payload = &buf[9..9 + len];
    let frame = match kind {
        KIND_DATA => Frame::Data(parse_msg(payload).ok_or(WireError::BadPayload { kind, len })?),
        KIND_ACK => Frame::Ack(parse_msg(payload).ok_or(WireError::BadPayload { kind, len })?),
        KIND_PING => Frame::Ping(u64::from_le_bytes(
            payload
                .try_into()
                .map_err(|_| WireError::BadPayload { kind, len })?,
        )),
        KIND_PONG => Frame::Pong(u64::from_le_bytes(
            payload
                .try_into()
                .map_err(|_| WireError::BadPayload { kind, len })?,
        )),
        other => return Err(WireError::UnknownKind(other)),
    };
    Ok(Some((frame, total)))
}

/// An incremental frame reader over any [`io::Read`]: accumulates bytes
/// across torn reads and yields complete frames. Read timeouts surface as
/// `Ok(None)` from [`FrameReader::poll`], so a caller can interleave
/// shutdown checks with blocking reads without ever desynchronizing.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    scratch: [u8; 4096],
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader {
            buf: Vec::new(),
            scratch: [0u8; 4096],
        }
    }

    /// If the buffer already holds a complete frame, pop it without
    /// touching the socket.
    pub(crate) fn pop(&mut self) -> Result<Option<Frame>, WireError> {
        match decode_frame(&self.buf)? {
            Some((frame, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    /// Read once from `r` and try to pop a frame. Returns:
    ///
    /// - `Ok(Some(frame))` — a complete frame is available;
    /// - `Ok(None)` — no complete frame yet (timeout, or a partial read);
    /// - `Err(WireError::Io)` with `ErrorKind::UnexpectedEof` — the peer
    ///   closed the connection cleanly;
    /// - any other `Err` — corruption or a hard socket error.
    pub fn poll(&mut self, r: &mut impl io::Read) -> Result<Option<Frame>, WireError> {
        if let Some(frame) = self.pop()? {
            return Ok(Some(frame));
        }
        match r.read(&mut self.scratch) {
            Ok(0) => Err(WireError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed the connection",
            ))),
            Ok(n) => {
                self.buf.extend_from_slice(&self.scratch[..n]);
                self.pop()
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(WireError::Io(e)),
        }
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
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

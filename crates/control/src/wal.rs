//! The control plane's write-ahead log: crash-safe journal persistence
//! plus a follow-mode tail reader.
//!
//! [`JournalWal`] is an append-only file of binary records, one per
//! journalled transition ([`EventEntry`]) or round close ([`RoundClose`]).
//! A record is the envelope the socket frames use
//! ([`bofl_fleet::wire::encode_envelope`]): magic, kind, length prefix,
//! payload, CRC-32 over everything after the magic, with the WAL's own
//! magic and a 256-byte payload cap —
//!
//! ```text
//! offset  size  field
//! 0       4     magic     0xB0F1_A110, little-endian
//! 4       1     kind      1=Event, 2=Close
//! 5       4     len       payload length, little-endian
//! 9       len   payload   kind-specific, fixed layout (see below)
//! 9+len   4     crc       CRC-32 (IEEE) over bytes [4, 9+len)
//! ```
//!
//! Event payload (27 bytes, little-endian): `seq: u64`, `round: u32`,
//! `client: u32`, `from: u8`, `to: u8`, `cause: u8`, `t_s: f64` (IEEE-754
//! bits). Close payload (29 bytes): `round: u32`, `t_s: f64` bits,
//! `accepted: u32`, `quorum: u32`, `flags: u8` (bit 0 `quorum_met`, bit 1
//! `closed_early`, bit 2 `degraded`), `shards: u32`,
//! `shard_shortfalls: u32`. Wire statistics are *not* logged — they are
//! derived observability, reproduced by re-running the round.
//!
//! # Durability: group commit
//!
//! This is the one statement of the log's contract; the control plane,
//! engine and simulation builder point here.
//!
//! - An Event record is **visible** to readers ([`JournalTail`], a
//!   concurrent `journal_tail --follow`) as soon as
//!   `JournalWal::write_event` returns: it is written, not fsync'd.
//! - A round is **durable** once its Close record is:
//!   `JournalWal::append_close` writes the Close and fsyncs the file,
//!   which makes every Event record written before it durable too. One
//!   fsync per round, not one per record.
//! - [`JournalWal::append`] keeps write + fsync for a single record of
//!   either kind; [`JournalWal::open`] and `JournalWal::truncate_to`
//!   fsync the truncations they make.
//!
//! Nothing recoverable is lost by this: resume already discards every
//! record after the last Close (below), so an Event record that a crash
//! catches before its round's Close was never going to survive.
//!
//! # Crash semantics
//!
//! A coordinator killed mid-append leaves a torn record at the tail.
//! [`JournalWal::open`] truncates the file back to the last whole record
//! (anything after the first invalid or incomplete record is discarded
//! and counted), so recovery always starts from a clean prefix. On top of
//! that, `ControlPlane::resume` treats the **last Close record as the
//! round commit marker**: whole event records from a round that never
//! closed are also discarded (and truncated away), so the resumed run
//! re-executes that round from its start and appends byte-identical
//! records in its place.
//!
//! [`JournalTail`] is the read side: it polls the same file without ever
//! writing to it, decoding incrementally so a half-written record at the
//! tail reads as "no more records yet", never as corruption. That is what
//! makes `journal_tail --follow` safe against a live writer. Recovery and
//! the tail read through the same [`StreamDecoder`] as the socket's frame
//! reader; they differ only in what the end of the file means.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

use bofl_fleet::wire::{encode_envelope, split_envelope, Pulled, StreamDecoder, WireError};

use crate::journal::{EventCause, EventEntry, RoundClose};
use crate::state::ClientState;

/// Every WAL record starts with this little-endian magic (distinct from
/// the socket frame magic, so a WAL can never be mistaken for a capture
/// of wire traffic).
const WAL_MAGIC: u32 = 0xB0F1_A110;

const KIND_EVENT: u8 = 1;
const KIND_CLOSE: u8 = 2;
const EVENT_PAYLOAD: usize = 27;
const CLOSE_PAYLOAD: usize = 29;
/// Records never carry more payload than this; a larger length prefix is
/// corruption, not a big record.
const MAX_PAYLOAD: usize = 256;

/// One record in the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalRecord {
    /// A journalled client transition.
    Event(EventEntry),
    /// A round-close commit marker.
    Close(RoundClose),
}

impl WalRecord {
    /// The record's virtual timestamp (seconds since the run began).
    pub(crate) fn t_s(&self) -> f64 {
        match self {
            WalRecord::Event(e) => e.t_s,
            WalRecord::Close(c) => c.t_s,
        }
    }
}

/// Why the WAL could not be read.
#[derive(Debug)]
pub enum WalError {
    /// An underlying file error.
    Io(io::Error),
    /// Bytes at `offset` can never decode to a record.
    Corrupt {
        /// Byte offset of the record that failed to decode.
        offset: u64,
        /// Human-readable description of the defect.
        detail: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { offset, detail } => {
                write!(f, "wal corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Serialize one record into its canonical byte layout.
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    match record {
        WalRecord::Event(e) => encode_envelope(
            WAL_MAGIC,
            KIND_EVENT,
            &[
                &e.seq.to_le_bytes(),
                &e.round.to_le_bytes(),
                &e.client.to_le_bytes(),
                &[e.from as u8, e.to as u8, e.cause as u8],
                &e.t_s.to_bits().to_le_bytes(),
            ],
        ),
        WalRecord::Close(c) => {
            let flags =
                (c.quorum_met as u8) | ((c.closed_early as u8) << 1) | ((c.degraded as u8) << 2);
            encode_envelope(
                WAL_MAGIC,
                KIND_CLOSE,
                &[
                    &c.round.to_le_bytes(),
                    &c.t_s.to_bits().to_le_bytes(),
                    &(c.accepted as u32).to_le_bytes(),
                    &(c.quorum as u32).to_le_bytes(),
                    &[flags],
                    &(c.shards as u32).to_le_bytes(),
                    &(c.shard_shortfalls as u32).to_le_bytes(),
                ],
            )
        }
    }
}

fn corrupt(offset: u64, detail: impl Into<String>) -> WalError {
    WalError::Corrupt {
        offset,
        detail: detail.into(),
    }
}

fn parse_event(payload: &[u8], offset: u64) -> Result<EventEntry, WalError> {
    let from = ClientState::from_u8(payload[16])
        .ok_or_else(|| corrupt(offset, format!("unknown from-state {}", payload[16])))?;
    let to = ClientState::from_u8(payload[17])
        .ok_or_else(|| corrupt(offset, format!("unknown to-state {}", payload[17])))?;
    let cause = EventCause::from_u8(payload[18])
        .ok_or_else(|| corrupt(offset, format!("unknown cause {}", payload[18])))?;
    Ok(EventEntry {
        seq: u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes")),
        round: u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")),
        client: u32::from_le_bytes(payload[12..16].try_into().expect("4 bytes")),
        from,
        to,
        cause,
        t_s: f64::from_bits(u64::from_le_bytes(
            payload[19..27].try_into().expect("8 bytes"),
        )),
    })
}

fn parse_close(payload: &[u8]) -> RoundClose {
    let flags = payload[20];
    RoundClose {
        round: u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")),
        t_s: f64::from_bits(u64::from_le_bytes(
            payload[4..12].try_into().expect("8 bytes"),
        )),
        accepted: u32::from_le_bytes(payload[12..16].try_into().expect("4 bytes")) as usize,
        quorum: u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes")) as usize,
        quorum_met: flags & 1 != 0,
        closed_early: flags & 2 != 0,
        degraded: flags & 4 != 0,
        shards: u32::from_le_bytes(payload[21..25].try_into().expect("4 bytes")) as usize,
        shard_shortfalls: u32::from_le_bytes(payload[25..29].try_into().expect("4 bytes")) as usize,
    }
}

/// Try to decode one record from the front of `buf` (which starts at byte
/// `offset` of the file, for error reporting).
///
/// - `Ok(Some((record, consumed)))` — a complete, checksummed record.
/// - `Ok(None)` — the buffer holds a valid *prefix* of a record; more
///   bytes may complete it (a live writer mid-append, or a torn tail).
/// - `Err(_)` — the bytes can never become a valid record.
pub fn decode_record(buf: &[u8], offset: u64) -> Result<Option<(WalRecord, usize)>, WalError> {
    let envelope = |e: WireError| corrupt(offset, e.to_string());
    let Some((kind, payload, consumed)) =
        split_envelope(buf, WAL_MAGIC, MAX_PAYLOAD).map_err(envelope)?
    else {
        return Ok(None);
    };
    let record = match (kind, payload.len()) {
        (KIND_EVENT, EVENT_PAYLOAD) => WalRecord::Event(parse_event(payload, offset)?),
        (KIND_CLOSE, CLOSE_PAYLOAD) => WalRecord::Close(parse_close(payload)),
        (KIND_EVENT | KIND_CLOSE, len) => {
            return Err(envelope(WireError::BadPayload { kind, len }))
        }
        (other, _) => return Err(envelope(WireError::UnknownKind(other))),
    };
    Ok(Some((record, consumed)))
}

/// The append side of the write-ahead log: an open file plus its logical
/// length. Every call writes whole records; which calls also `fsync` is
/// the group-commit contract in the [module docs](self).
#[derive(Debug)]
pub struct JournalWal {
    file: File,
    len: u64,
}

/// What [`JournalWal::open`] recovers: the writer positioned at the
/// clean tail, the committed records with their byte offsets, and how
/// many torn-tail bytes were truncated away.
pub(crate) type RecoveredWal = (JournalWal, Vec<(u64, WalRecord)>, u64);

impl JournalWal {
    /// Create a fresh, empty WAL at `path` (truncating any existing
    /// file), creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file error.
    pub fn create(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(JournalWal { file, len: 0 })
    }

    /// Open an existing WAL for recovery: decode every whole record and
    /// truncate away the torn tail (anything after the first invalid or
    /// incomplete record). Returns the writer positioned at the clean
    /// end, the decoded records with their byte offsets, and how many
    /// torn-tail bytes were discarded.
    ///
    /// # Errors
    ///
    /// Only file errors are fatal here — corruption at the tail is
    /// *recovered from*, not reported, because a torn final write is the
    /// expected crash signature.
    pub fn open(path: &Path) -> Result<RecoveredWal, WalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut decoder = StreamDecoder::default();
        let mut records = Vec::new();
        loop {
            let offset = decoder.offset();
            match decoder.pull(&mut file, decode_record) {
                Ok(Pulled::Item(record)) => records.push((offset, record)),
                // An interrupted read: read again.
                Ok(Pulled::Idle) => {}
                // The end of the file behind a valid prefix that never
                // completed, or bytes that can never decode: both are the
                // crash's torn tail. Stop at the last whole record and
                // cut the rest away.
                Ok(Pulled::End) | Err(WalError::Corrupt { .. }) => break,
                Err(e @ WalError::Io(_)) => return Err(e),
            }
        }
        let clean = decoder.offset();
        let torn = file.metadata()?.len() - clean;
        file.set_len(clean)?;
        file.seek(SeekFrom::End(0))?;
        if torn > 0 {
            file.sync_data()?;
        }
        Ok((JournalWal { file, len: clean }, records, torn))
    }

    /// Write one record without `fsync`: readers see it at once, and it
    /// becomes durable with the next `fsync` of the file.
    fn write(&mut self, record: &WalRecord) -> io::Result<()> {
        let bytes = encode_record(record);
        self.file.write_all(&bytes)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Append one record and `fsync` it (with every record written
    /// before it).
    ///
    /// # Errors
    ///
    /// Propagates the underlying file error; on error the record must be
    /// considered *not* durable.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.write(record)?;
        self.file.sync_data()
    }

    /// Write one journalled transition, without `fsync`: it is durable
    /// once the Close record of its round is appended.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file error.
    pub(crate) fn write_event(&mut self, entry: &EventEntry) -> io::Result<()> {
        self.write(&WalRecord::Event(*entry))
    }

    /// Append one round-close commit marker and `fsync`, making the
    /// round's Event records durable with it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file error.
    pub(crate) fn append_close(&mut self, close: &RoundClose) -> io::Result<()> {
        self.append(&WalRecord::Close(*close))
    }

    /// Truncate the log to `offset` bytes (used by resume to discard
    /// whole-but-uncommitted records of a round that never closed).
    ///
    /// # Errors
    ///
    /// Propagates the underlying file error.
    pub(crate) fn truncate_to(&mut self, offset: u64) -> io::Result<()> {
        self.file.set_len(offset)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.sync_data()?;
        self.len = offset;
        Ok(())
    }

    /// Logical length in bytes: the clean prefix written so far.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }
}

/// The read side of the WAL: a follow-mode reader that polls the file
/// for new records without ever writing to it.
///
/// Decoding is incremental, so a record the writer is mid-way through
/// appending reads as `Ok(None)` ("no more records yet") rather than
/// corruption — polling a live WAL is always safe and never blocks or
/// perturbs the writer.
#[derive(Debug)]
pub struct JournalTail {
    file: File,
    decoder: StreamDecoder,
}

impl JournalTail {
    /// Open `path` read-only for tailing.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file error.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).open(path)?;
        Ok(JournalTail {
            file,
            decoder: StreamDecoder::default(),
        })
    }

    /// Pop the next whole record, reading newly appended bytes as needed.
    ///
    /// - `Ok(Some(record))` — the next record, in append order.
    /// - `Ok(None)` — caught up: no complete record is available *yet*.
    ///   Poll again later (the writer may still be appending).
    /// - `Err(_)` — a record in the durable prefix is genuinely corrupt,
    ///   or the file went away.
    pub fn poll(&mut self) -> Result<Option<WalRecord>, WalError> {
        match self.decoder.pull(&mut self.file, decode_record)? {
            Pulled::Item(record) => Ok(Some(record)),
            Pulled::Idle | Pulled::End => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::EventCause as C;
    use crate::state::ClientState as S;

    fn event(seq: u64) -> EventEntry {
        EventEntry {
            seq,
            round: 3,
            client: 7,
            from: S::Reporting,
            to: S::Aggregated,
            cause: C::UploadDelivered,
            t_s: 12.5 + seq as f64,
        }
    }

    fn close() -> RoundClose {
        RoundClose {
            round: 3,
            t_s: 99.25,
            accepted: 5,
            quorum: 4,
            quorum_met: true,
            closed_early: true,
            degraded: false,
            shards: 2,
            shard_shortfalls: 1,
        }
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bofl-wal-{}-{name}.wal", std::process::id()))
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        for record in [
            WalRecord::Event(event(42)),
            WalRecord::Close(close()),
            WalRecord::Event(EventEntry {
                t_s: f64::from_bits(0x3FF0_0000_0000_0001), // not representable in %.6f
                ..event(0)
            }),
        ] {
            let bytes = encode_record(&record);
            let (decoded, consumed) = decode_record(&bytes, 0).unwrap().unwrap();
            assert_eq!(decoded, record);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn partial_prefixes_ask_for_more_bytes() {
        let bytes = encode_record(&WalRecord::Event(event(1)));
        for cut in 0..bytes.len() {
            assert!(
                decode_record(&bytes[..cut], 0).unwrap().is_none(),
                "cut at {cut} must be a valid prefix"
            );
        }
    }

    #[test]
    fn corruption_is_rejected_not_misread() {
        let mut bytes = encode_record(&WalRecord::Event(event(1)));
        bytes[12] ^= 0x40;
        assert!(matches!(
            decode_record(&bytes, 0),
            Err(WalError::Corrupt { .. })
        ));
        // Unknown state byte: checksum passes (re-stamped), decode rejects.
        let mut bad_state = encode_record(&WalRecord::Event(event(1)));
        bad_state[9 + 16] = 200;
        let crc = bofl_fleet::wire::crc32(&bad_state[4..bad_state.len() - 4]);
        let at = bad_state.len() - 4;
        bad_state[at..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_record(&bad_state, 0),
            Err(WalError::Corrupt { .. })
        ));
        assert!(matches!(
            decode_record(&[0xFFu8, 0, 0, 0, 0], 7),
            Err(WalError::Corrupt { offset: 7, .. })
        ));
    }

    #[test]
    fn open_truncates_the_torn_tail() {
        let path = temp("torn");
        let mut wal = JournalWal::create(&path).unwrap();
        wal.write_event(&event(0)).unwrap();
        wal.write_event(&event(1)).unwrap();
        wal.append_close(&close()).unwrap();
        let clean_len = wal.len();
        drop(wal);
        // Simulate a crash mid-append: half a record, then garbage.
        let mut torn = encode_record(&WalRecord::Event(event(2)));
        torn.truncate(torn.len() / 2);
        torn.extend_from_slice(&[0xAB; 5]);
        let torn_len = torn.len() as u64;
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&torn).unwrap();
        }
        let (wal, records, discarded) = JournalWal::open(&path).unwrap();
        assert_eq!(discarded, torn_len);
        assert_eq!(wal.len(), clean_len);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].1, WalRecord::Event(event(0)));
        assert_eq!(records[2].1, WalRecord::Close(close()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_after_recovery_continues_the_clean_prefix() {
        let path = temp("resume-append");
        let mut wal = JournalWal::create(&path).unwrap();
        wal.write_event(&event(0)).unwrap();
        drop(wal);
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x12, 0x34]).unwrap(); // torn garbage
        }
        let (mut wal, records, discarded) = JournalWal::open(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(discarded, 2);
        wal.write_event(&event(1)).unwrap();
        drop(wal);
        let (_, records, discarded) = JournalWal::open(&path).unwrap();
        assert_eq!(discarded, 0);
        let events: Vec<u64> = records
            .iter()
            .map(|(_, r)| match r {
                WalRecord::Event(e) => e.seq,
                WalRecord::Close(_) => panic!("no closes appended"),
            })
            .collect();
        assert_eq!(events, vec![0, 1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_reads_everything_and_waits_at_a_partial_record() {
        let path = temp("tail");
        let mut wal = JournalWal::create(&path).unwrap();
        wal.write_event(&event(0)).unwrap();
        wal.append_close(&close()).unwrap();

        let mut tail = JournalTail::open(&path).unwrap();
        assert_eq!(tail.poll().unwrap(), Some(WalRecord::Event(event(0))));
        assert_eq!(tail.poll().unwrap(), Some(WalRecord::Close(close())));
        assert_eq!(tail.poll().unwrap(), None);

        // The writer appends while the tail is open: the tail catches up.
        wal.write_event(&event(1)).unwrap();
        assert_eq!(tail.poll().unwrap(), Some(WalRecord::Event(event(1))));

        // A half-written record is "not yet", not corruption.
        let half = encode_record(&WalRecord::Event(event(2)));
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&half[..10]).unwrap();
        }
        assert_eq!(tail.poll().unwrap(), None);
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&half[10..]).unwrap();
        }
        assert_eq!(tail.poll().unwrap(), Some(WalRecord::Event(event(2))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drain_collects_in_append_order() {
        let path = temp("drain");
        let mut wal = JournalWal::create(&path).unwrap();
        for seq in 0..5 {
            wal.write_event(&event(seq)).unwrap();
        }
        let mut tail = JournalTail::open(&path).unwrap();
        let mut records = Vec::new();
        while let Some(record) = tail.poll().unwrap() {
            records.push(record);
        }
        let seqs: Vec<u64> = records
            .iter()
            .map(|r| match r {
                WalRecord::Event(e) => e.seq,
                WalRecord::Close(_) => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        std::fs::remove_file(&path).ok();
    }
}

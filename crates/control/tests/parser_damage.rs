//! The two byte parsers under damage. WAL records (`decode_record`) and
//! wire frames (`bofl_fleet::wire::decode_frame`) share one layout:
//! magic (4), kind (1), length (4), payload, CRC-32 (4). For any valid
//! encoding, every truncation must ask for more bytes, and every
//! single-bit flip and lying length field must get `Ok(None)`, a typed
//! error, or the exact original back — never a panic, never a different
//! record.

use bofl_control::prelude::*;
use bofl_control::wal::{decode_record, encode_record};
use bofl_fleet::wire::{crc32, decode_frame, encode_frame, Frame, WireError, WireMsg};
use proptest::prelude::*;

/// Header bytes before the payload: magic (4) + kind (1) + length (4).
const HEADER: usize = 9;

/// A parser's answer; a decoded value is kept as its canonical
/// re-encoding (so NaN timestamps compare by bits) and bytes consumed.
#[derive(Debug, PartialEq)]
enum Answer {
    More,
    Refused,
    Decoded(Vec<u8>, usize),
}

fn wal(buf: &[u8]) -> Answer {
    match decode_record(buf, 0) {
        Ok(None) => Answer::More,
        Err(WalError::Corrupt { .. }) => Answer::Refused,
        Err(WalError::Io(e)) => panic!("a byte parser reported i/o: {e}"),
        Ok(Some((record, used))) => Answer::Decoded(encode_record(&record), used),
    }
}

fn wire(buf: &[u8]) -> Answer {
    match decode_frame(buf) {
        Ok(None) => Answer::More,
        Err(WireError::Io(e)) => panic!("a byte parser reported i/o: {e}"),
        Err(_) => Answer::Refused,
        Ok(Some((frame, used))) => Answer::Decoded(encode_frame(&frame), used),
    }
}

/// Runs every damage against `bytes`, a valid encoding. The stale lie
/// writes `raw_len` over the length field; the sealed lie claims
/// `sealed_len`, cuts or zero-pads the payload to it and recomputes the
/// checksum, so only the length and kind checks can catch it.
fn damage(bytes: &[u8], parse: fn(&[u8]) -> Answer, raw_len: u32, sealed_len: usize) {
    let original = Answer::Decoded(bytes.to_vec(), bytes.len());
    assert_eq!(parse(bytes), original);
    for cut in 0..bytes.len() {
        assert_eq!(parse(&bytes[..cut]), Answer::More, "{cut}-byte prefix");
    }
    let mut damaged: Vec<(String, Vec<u8>)> = (0..bytes.len() * 8)
        .map(|bit| {
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            (format!("bit {bit} flipped"), flipped)
        })
        .collect();
    let mut stale = bytes.to_vec();
    stale[5..HEADER].copy_from_slice(&raw_len.to_le_bytes());
    damaged.push((format!("stale length {raw_len}"), stale));
    let payload = &bytes[HEADER..bytes.len() - 4];
    let mut sealed = bytes[..5].to_vec();
    sealed.extend_from_slice(&(sealed_len as u32).to_le_bytes());
    sealed.extend_from_slice(&payload[..payload.len().min(sealed_len)]);
    sealed.resize(HEADER + sealed_len, 0);
    sealed.extend_from_slice(&crc32(&sealed[4..]).to_le_bytes());
    damaged.push((format!("sealed length {sealed_len}"), sealed));
    for (what, buf) in &damaged {
        let answer = parse(buf);
        assert!(
            matches!(answer, Answer::More | Answer::Refused) || answer == original,
            "{what}: {answer:?}"
        );
    }
}

/// The `N` bytes of `seed` from `i` on.
fn at<const N: usize>(seed: &[u8], i: usize) -> [u8; N] {
    seed[i..i + N].try_into().unwrap()
}

/// A valid WAL record of either kind from 32 random bytes, `t_s` from
/// raw bits (NaNs and infinities included).
fn record(seed: &[u8]) -> WalRecord {
    let state = |b: u8| ClientState::ALL[b as usize % ClientState::ALL.len()];
    let (t_s, flags) = (f64::from_bits(u64::from_le_bytes(at(seed, 2))), seed[1]);
    if flags & 8 == 0 {
        WalRecord::Event(EventEntry {
            seq: u64::from_le_bytes(at(seed, 10)),
            round: u32::from_le_bytes(at(seed, 18)),
            client: u32::from_le_bytes(at(seed, 22)),
            from: state(seed[26]),
            to: state(seed[27]),
            cause: EventCause::ALL[seed[28] as usize % EventCause::ALL.len()],
            t_s,
        })
    } else {
        WalRecord::Close(RoundClose {
            round: u32::from_le_bytes(at(seed, 10)),
            t_s,
            accepted: u32::from_le_bytes(at(seed, 14)) as usize,
            quorum: u32::from_le_bytes(at(seed, 18)) as usize,
            quorum_met: flags & 1 != 0,
            closed_early: flags & 2 != 0,
            degraded: flags & 4 != 0,
            shards: u32::from_le_bytes(at(seed, 22)) as usize,
            shard_shortfalls: u32::from_le_bytes(at(seed, 26)) as usize,
        })
    }
}

/// A valid wire frame of any kind from 32 random bytes.
fn frame(seed: &[u8]) -> Frame {
    let msg = WireMsg {
        round: u32::from_le_bytes(at(seed, 10)),
        client: u32::from_le_bytes(at(seed, 14)),
        copy: u32::from_le_bytes(at(seed, 18)),
        t_send_s: f64::from_bits(u64::from_le_bytes(at(seed, 2))),
    };
    [
        Frame::Data(msg),
        Frame::Ack(msg),
        Frame::Ping(u64::from_le_bytes(at(seed, 22))),
        Frame::Pong(u64::from_le_bytes(at(seed, 22))),
    ][seed[1] as usize % 4]
}

proptest! {
    #[test]
    fn wal_records_survive_every_damage(
        seed in collection::vec(0u8..=255, 32),
        raw_len in 0u64..(1 << 32),
        sealed_len in 0usize..320,
    ) {
        damage(&encode_record(&record(&seed)), wal, raw_len as u32, sealed_len);
    }

    #[test]
    fn wire_frames_survive_every_damage(
        seed in collection::vec(0u8..=255, 32),
        raw_len in 0u64..(1 << 32),
        sealed_len in (0usize..64, 0usize..(1 << 16) + 64, prop::bool::ANY)
            .prop_map(|(small, large, pick_small)| if pick_small { small } else { large }),
    ) {
        damage(&encode_frame(&frame(&seed)), wire, raw_len as u32, sealed_len);
    }
}

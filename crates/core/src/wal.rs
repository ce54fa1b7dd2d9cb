//! Append-only, segment-based write-ahead log for mutable collections.
//!
//! The WAL makes `insert`/`delete` durable before they are acknowledged:
//! every record is appended to the active segment file and fsync'd before
//! [`Wal::append`] returns, so a `kill -9` at any point loses no
//! acknowledged write. Recovery replays surviving segments against the last
//! checkpoint; a torn tail (partial append, bit flip, zero-length segment)
//! is truncated at the first bad record — with a `wal_truncated_tail`
//! telemetry event — instead of refusing to start.
//!
//! ## Segment format (little-endian)
//!
//! ```text
//! magic   "SLG1"   4 bytes   segment identity
//! version u8       1 byte    format revision (currently 1)
//! crc32   u32      4 bytes   CRC-32 (IEEE) over the 8 header bytes below
//! base_seq u64     8 bytes   global sequence of the first record
//! records…
//! ```
//!
//! Each record is length-prefixed and individually checksummed, reusing
//! [`crate::persist::crc32`] (the SLP1 frame checksum — no second CRC
//! implementation):
//!
//! ```text
//! len     u32      payload bytes
//! crc32   u32      CRC-32 over the payload
//! payload          op u8 (0 insert / 1 delete), count u32, count × u32 ids
//! ```
//!
//! ## Manifest
//!
//! `MANIFEST` in the WAL directory records `applied_seq`: records with
//! sequence below it are folded into the persisted checkpoint and are
//! skipped on replay. It is written through [`crate::persist::write_atomic`]
//! (tmp + fsync + rename) with an embedded CRC, so readers observe either
//! the old generation or the new one, never a torn file:
//!
//! ```text
//! magic "SLM1"  4 bytes · crc32 u32 over the payload · applied_seq u64
//! ```
//!
//! ## Recovery ordering
//!
//! Segments are scanned in id order. Scanning stops at the first bad byte —
//! a corrupt header, a record whose CRC or framing fails, or a gap in the
//! sequence numbering — and everything from that point on (the rest of the
//! segment *and* all later segments) is discarded: records after a
//! corruption cannot be trusted to be the records that were acknowledged.
//! The torn segment is truncated in place to its last valid record, later
//! segments are deleted, and the damage is reported through telemetry —
//! never a panic, never a startup failure.

use crate::persist::{crc32, write_atomic, PersistError};
use crate::telemetry::wal_tele;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const SEGMENT_MAGIC: &[u8; 4] = b"SLG1";
const SEGMENT_VERSION: u8 = 1;
/// Bytes before the first record of a segment.
pub const SEGMENT_HEADER_LEN: usize = 17;
const MANIFEST_MAGIC: &[u8; 4] = b"SLM1";
const MANIFEST_FILE: &str = "MANIFEST";
/// Cap on a single record's payload, so a garbage length prefix in a
/// corrupted segment cannot drive an unbounded allocation.
pub const MAX_RECORD_BYTES: usize = 1 << 24;

/// WAL failure. `Corrupt` is reserved for the *manifest* (which is written
/// atomically and should never be damaged short of disk corruption);
/// segment damage is handled by truncation, not errors.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(io::Error),
    /// The manifest exists but fails its integrity checks.
    Corrupt(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<PersistError> for WalError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Io(e) => WalError::Io(e),
            other => WalError::Corrupt(other.to_string()),
        }
    }
}

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Insert a set (raw ids; canonicalized when applied).
    Insert(Vec<u32>),
    /// Delete one occurrence of a set.
    Delete(Vec<u32>),
}

impl WalOp {
    /// The op's element ids as logged.
    pub fn elements(&self) -> &[u32] {
        match self {
            WalOp::Insert(ids) | WalOp::Delete(ids) => ids,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let (tag, ids) = match self {
            WalOp::Insert(ids) => (0u8, ids),
            WalOp::Delete(ids) => (1u8, ids),
        };
        let mut out = Vec::with_capacity(5 + ids.len() * 4);
        out.push(tag);
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for &id in ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out
    }

    fn decode(payload: &[u8]) -> Option<WalOp> {
        if payload.len() < 5 {
            return None;
        }
        let tag = payload[0];
        let count = u32::from_le_bytes(payload[1..5].try_into().ok()?) as usize;
        let body = &payload[5..];
        if body.len() != count.checked_mul(4)? {
            return None;
        }
        let ids: Vec<u32> = body
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
            .collect();
        match tag {
            0 => Some(WalOp::Insert(ids)),
            1 => Some(WalOp::Delete(ids)),
            _ => None,
        }
    }
}

/// One replayed record: the op plus its global sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Global, gapless sequence number (the commit order).
    pub seq: u64,
    /// The logged mutation.
    pub op: WalOp,
}

/// WAL tuning.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the active one exceeds this many
    /// bytes (checked before each append; a segment always holds at least
    /// one record).
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { segment_bytes: 1 << 20 }
    }
}

/// What [`Wal::open`] recovered.
#[derive(Debug)]
pub struct WalRecovery {
    /// The opened log, positioned on a fresh active segment.
    pub wal: Wal,
    /// Surviving records with `seq >= applied_seq`, in commit order — the
    /// delta that must be replayed against the checkpoint.
    pub records: Vec<WalRecord>,
    /// Sequence watermark below which records are already checkpointed.
    pub applied_seq: u64,
    /// Whether any tail damage was found (and truncated away).
    pub truncated: bool,
}

#[derive(Debug)]
struct SealedSegment {
    id: u64,
    /// Sequence one past the segment's last record.
    end_seq: u64,
}

/// The append-only log: an active segment receiving fsync'd appends, plus
/// sealed (rotated or recovered) segments awaiting compaction.
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    active: File,
    active_id: u64,
    active_len: u64,
    active_records: u64,
    next_seq: u64,
    applied_seq: u64,
    sealed: Vec<SealedSegment>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("next_seq", &self.next_seq)
            .field("applied_seq", &self.applied_seq)
            .field("sealed", &self.sealed.len())
            .finish_non_exhaustive()
    }
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:012}.wal"))
}

fn segment_id(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("seg-")?.strip_suffix(".wal")?.parse().ok()
}

/// Fsyncs a directory so entry creations/removals survive a crash.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn encode_manifest(applied_seq: u64) -> Vec<u8> {
    let payload = applied_seq.to_le_bytes();
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn decode_manifest(bytes: &[u8]) -> Result<u64, WalError> {
    if bytes.len() != 16 || &bytes[0..4] != MANIFEST_MAGIC {
        return Err(WalError::Corrupt(format!(
            "manifest is {} bytes with magic {:?} (want 16 bytes, \"SLM1\")",
            bytes.len(),
            String::from_utf8_lossy(&bytes[..bytes.len().min(4)])
        )));
    }
    let declared = u32::from_le_bytes(bytes[4..8].try_into().expect("fixed slice"));
    let payload = &bytes[8..16];
    let actual = crc32(payload);
    if declared != actual {
        return Err(WalError::Corrupt(format!(
            "manifest checksum mismatch: stored {declared:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(u64::from_le_bytes(payload.try_into().expect("fixed slice")))
}

/// Result of scanning one segment file's bytes.
struct SegmentScan {
    base_seq: u64,
    ops: Vec<WalOp>,
    /// Byte length of the valid prefix (header + intact records).
    valid_len: u64,
    /// Why record scanning stopped early, if it did.
    torn: Option<String>,
}

/// Scans a segment. `Err` means the header itself is unusable (the file
/// carries nothing recoverable); a damaged record tail comes back as
/// `torn: Some(reason)` with every record before the damage intact.
fn scan_segment(bytes: &[u8]) -> Result<SegmentScan, String> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(format!("header truncated at {} bytes", bytes.len()));
    }
    if &bytes[0..4] != SEGMENT_MAGIC {
        return Err("bad segment magic".to_string());
    }
    if bytes[4] != SEGMENT_VERSION {
        return Err(format!("unsupported segment version {}", bytes[4]));
    }
    let declared = u32::from_le_bytes(bytes[5..9].try_into().expect("fixed slice"));
    let meta = &bytes[9..17];
    if crc32(meta) != declared {
        return Err("segment header checksum mismatch".to_string());
    }
    let base_seq = u64::from_le_bytes(meta.try_into().expect("fixed slice"));
    let mut ops = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN;
    let mut torn = None;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            torn = Some(format!("partial record header at byte {pos}"));
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("fixed slice")) as usize;
        let declared = u32::from_le_bytes(rest[4..8].try_into().expect("fixed slice"));
        if len > MAX_RECORD_BYTES || rest.len() - 8 < len {
            torn = Some(format!("record at byte {pos} claims {len} payload bytes"));
            break;
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != declared {
            torn = Some(format!("record checksum mismatch at byte {pos}"));
            break;
        }
        let Some(op) = WalOp::decode(payload) else {
            torn = Some(format!("undecodable record payload at byte {pos}"));
            break;
        };
        ops.push(op);
        pos += 8 + len;
    }
    Ok(SegmentScan { base_seq, ops, valid_len: pos as u64, torn })
}

impl Wal {
    /// Opens (or creates) the log at `dir` with default tuning and replays
    /// surviving records. See [`Wal::open_with`].
    pub fn open(dir: &Path) -> Result<WalRecovery, WalError> {
        Self::open_with(dir, WalConfig::default())
    }

    /// Opens (or creates) the log at `dir`: reads the manifest, scans every
    /// segment in id order truncating at the first bad record, deletes
    /// fully-applied or unrecoverable segments, and starts a fresh active
    /// segment. Damage degrades to truncation plus a `wal_truncated_tail`
    /// telemetry event — the only hard errors are I/O failures and a
    /// corrupt manifest.
    pub fn open_with(dir: &Path, config: WalConfig) -> Result<WalRecovery, WalError> {
        let replay_started = std::time::Instant::now();
        std::fs::create_dir_all(dir)?;
        let applied_seq = match std::fs::read(dir.join(MANIFEST_FILE)) {
            Ok(bytes) => decode_manifest(&bytes)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            Err(e) => return Err(WalError::Io(e)),
        };

        let mut segment_paths: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)?
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                segment_id(&path).map(|id| (id, path))
            })
            .collect();
        segment_paths.sort_by_key(|(id, _)| *id);

        let mut records: Vec<WalRecord> = Vec::new();
        let mut sealed: Vec<SealedSegment> = Vec::new();
        let mut next_seq = applied_seq;
        let mut max_id = 0u64;
        let mut truncated = false;
        let mut expected_seq: Option<u64> = None;
        let mut damage_at: Option<usize> = None;

        for (i, (id, path)) in segment_paths.iter().enumerate() {
            max_id = (*id).max(max_id);
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            let scan = match scan_segment(&bytes) {
                Ok(scan) => scan,
                Err(reason) => {
                    // Header damage (including a zero-length file from a
                    // crash between create and header write): the segment
                    // carries nothing recoverable.
                    truncated = true;
                    wal_tele().record_truncated_tail(*id, 0, &reason);
                    std::fs::remove_file(path)?;
                    damage_at = Some(i + 1);
                    break;
                }
            };
            if let Some(expected) = expected_seq {
                if scan.base_seq != expected {
                    truncated = true;
                    wal_tele().record_truncated_tail(
                        *id,
                        0,
                        &format!(
                            "sequence gap: segment starts at {}, expected {expected}",
                            scan.base_seq
                        ),
                    );
                    std::fs::remove_file(path)?;
                    damage_at = Some(i + 1);
                    break;
                }
            }
            let end_seq = scan.base_seq + scan.ops.len() as u64;
            for (j, op) in scan.ops.into_iter().enumerate() {
                let seq = scan.base_seq + j as u64;
                if seq >= applied_seq {
                    records.push(WalRecord { seq, op });
                }
            }
            next_seq = end_seq;
            expected_seq = Some(end_seq);
            if let Some(reason) = scan.torn {
                // Truncate the damage away in place; the valid prefix
                // remains a well-formed sealed segment.
                truncated = true;
                wal_tele().record_truncated_tail(*id, scan.valid_len, &reason);
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(scan.valid_len)?;
                file.sync_all()?;
                if end_seq > applied_seq {
                    sealed.push(SealedSegment { id: *id, end_seq });
                } else {
                    std::fs::remove_file(path)?;
                }
                damage_at = Some(i + 1);
                break;
            }
            if end_seq > applied_seq {
                sealed.push(SealedSegment { id: *id, end_seq });
            } else {
                // Every record is already checkpointed: reclaim the space.
                std::fs::remove_file(path)?;
            }
        }

        // Anything after a damage site is untrustworthy (its records were
        // ordered after bytes that are now gone): discard it.
        if let Some(from) = damage_at {
            for (id, path) in &segment_paths[from..] {
                wal_tele().record_truncated_tail(*id, 0, "discarded after damaged segment");
                std::fs::remove_file(path)?;
            }
        }
        fsync_dir(dir)?;

        // Never hand out a sequence below the checkpoint watermark: replay
        // skips those, so an append there would be silently droppable.
        next_seq = next_seq.max(applied_seq);

        // A fresh active segment: recovery never appends to a file whose
        // tail it just judged.
        let active_id = max_id + 1;
        let (active, active_len) = create_segment(dir, active_id, next_seq)?;

        let wal = Wal {
            dir: dir.to_path_buf(),
            config,
            active,
            active_id,
            active_len,
            active_records: 0,
            next_seq,
            applied_seq,
            sealed,
        };
        wal_tele().record_replay(records.len(), truncated, replay_started.elapsed());
        Ok(WalRecovery { wal, records, applied_seq, truncated })
    }

    /// Appends one op, fsyncing before returning: once this returns the
    /// record survives `kill -9`. Returns the record's sequence number.
    pub fn append(&mut self, op: &WalOp) -> Result<u64, WalError> {
        let payload = op.encode();
        let framed_len = 8 + payload.len() as u64;
        if self.active_records > 0 && self.active_len + framed_len > self.config.segment_bytes {
            self.rotate()?;
        }
        let mut buf = Vec::with_capacity(framed_len as usize);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        self.active.write_all(&buf)?;
        self.active.sync_data()?;
        self.active_len += framed_len;
        self.active_records += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        wal_tele().record_append();
        Ok(seq)
    }

    /// Seals the active segment and starts a fresh one. A no-op when the
    /// active segment is empty.
    pub fn rotate(&mut self) -> Result<(), WalError> {
        if self.active_records == 0 {
            return Ok(());
        }
        self.active.sync_all()?;
        self.sealed.push(SealedSegment { id: self.active_id, end_seq: self.next_seq });
        let id = self.active_id + 1;
        let (active, active_len) = create_segment(&self.dir, id, self.next_seq)?;
        self.active = active;
        self.active_id = id;
        self.active_len = active_len;
        self.active_records = 0;
        wal_tele().record_seal();
        Ok(())
    }

    /// Advances the applied watermark: persists the manifest atomically,
    /// then deletes sealed segments whose every record is now checkpointed.
    /// The manifest write is the commit point — a crash before it replays
    /// the records again, a crash after it finds them already gone.
    pub fn mark_applied(&mut self, seq: u64) -> Result<(), WalError> {
        if seq <= self.applied_seq {
            return Ok(());
        }
        assert!(seq <= self.next_seq, "cannot apply past the log end");
        write_atomic(&self.dir.join(MANIFEST_FILE), &encode_manifest(seq))?;
        self.applied_seq = seq;
        let mut kept = Vec::new();
        for segment in self.sealed.drain(..) {
            if segment.end_seq <= seq {
                std::fs::remove_file(segment_path(&self.dir, segment.id))?;
            } else {
                kept.push(segment);
            }
        }
        self.sealed = kept;
        fsync_dir(&self.dir)?;
        Ok(())
    }

    /// Sequence the next append will receive (one past the last record).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Watermark below which records are checkpointed.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Number of sealed (rotated, not yet compacted) segments.
    pub fn sealed_segments(&self) -> usize {
        self.sealed.len()
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Creates a segment file, writes its checksummed header, fsyncs the file
/// and the directory entry.
fn create_segment(dir: &Path, id: u64, base_seq: u64) -> Result<(File, u64), WalError> {
    let path = segment_path(dir, id);
    let mut file = File::create(&path)?;
    let meta = base_seq.to_le_bytes();
    let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
    header.extend_from_slice(SEGMENT_MAGIC);
    header.push(SEGMENT_VERSION);
    header.extend_from_slice(&crc32(&meta).to_le_bytes());
    header.extend_from_slice(&meta);
    file.write_all(&header)?;
    file.sync_all()?;
    fsync_dir(dir)?;
    Ok((file, SEGMENT_HEADER_LEN as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("setlearn-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn ops(n: u64) -> Vec<WalOp> {
        (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    WalOp::Delete(vec![i as u32])
                } else {
                    WalOp::Insert(vec![i as u32, i as u32 + 1])
                }
            })
            .collect()
    }

    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                segment_id(&p).map(|_| p)
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn append_then_reopen_replays_in_commit_order() {
        let dir = tmp_dir("roundtrip");
        let mut rec = Wal::open(&dir).unwrap();
        assert!(rec.records.is_empty());
        let written = ops(7);
        for (i, op) in written.iter().enumerate() {
            assert_eq!(rec.wal.append(op).unwrap(), i as u64);
        }
        drop(rec);

        let rec = Wal::open(&dir).unwrap();
        assert!(!rec.truncated);
        assert_eq!(rec.applied_seq, 0);
        let replayed: Vec<WalOp> = rec.records.iter().map(|r| r.op.clone()).collect();
        assert_eq!(replayed, written);
        assert_eq!(rec.records.iter().map(|r| r.seq).collect::<Vec<_>>(), (0..7).collect::<Vec<u64>>());
        assert_eq!(rec.wal.next_seq(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mark_applied_skips_replay_and_deletes_consumed_segments() {
        let dir = tmp_dir("applied");
        let mut rec = Wal::open_with(&dir, WalConfig { segment_bytes: 64 }).unwrap();
        for op in ops(20) {
            rec.wal.append(&op).unwrap();
        }
        assert!(rec.wal.sealed_segments() > 1, "tiny segments must have rotated");
        rec.wal.rotate().unwrap();
        let before = segment_files(&dir).len();
        rec.wal.mark_applied(12).unwrap();
        assert!(segment_files(&dir).len() < before, "consumed segments deleted");
        drop(rec);

        let rec = Wal::open(&dir).unwrap();
        assert_eq!(rec.applied_seq, 12);
        assert_eq!(rec.records.first().map(|r| r.seq), Some(12));
        assert_eq!(rec.records.len(), 8);
        assert_eq!(rec.wal.next_seq(), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fully_applied_log_reopens_empty() {
        let dir = tmp_dir("fully-applied");
        let mut rec = Wal::open(&dir).unwrap();
        for op in ops(5) {
            rec.wal.append(&op).unwrap();
        }
        let end = rec.wal.next_seq();
        rec.wal.rotate().unwrap();
        rec.wal.mark_applied(end).unwrap();
        drop(rec);

        let rec = Wal::open(&dir).unwrap();
        assert!(rec.records.is_empty());
        assert!(!rec.truncated);
        assert_eq!(rec.wal.next_seq(), end);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmp_dir("torn");
        let mut rec = Wal::open(&dir).unwrap();
        for op in ops(4) {
            rec.wal.append(&op).unwrap();
        }
        drop(rec);
        // Simulate a crash mid-append: half a record at the tail of the
        // newest segment.
        let last = segment_files(&dir).pop().unwrap();
        let mut f = OpenOptions::new().append(true).open(&last).unwrap();
        f.write_all(&[0x21, 0x00, 0x00]).unwrap();
        drop(f);

        // Damage is telemetered: the truncation counter moves (the registry
        // is process-global and other tests may truncate too, hence `>=`).
        setlearn_obs::set_level(setlearn_obs::TelemetryLevel::Metrics);
        let truncations =
            setlearn_obs::metrics().counter_with("setlearn_wal_truncated_tail_total", &[]);
        let before = truncations.get();
        let rec = Wal::open(&dir).unwrap();
        assert!(rec.truncated, "damage reported");
        assert_eq!(rec.records.len(), 4, "all complete records survive");
        assert!(
            truncations.get() > before,
            "wal_truncated_tail telemetry recorded the damage site"
        );
        drop(rec);
        // The damage was truncated away: a third open is clean.
        let rec = Wal::open(&dir).unwrap();
        assert!(!rec.truncated);
        assert_eq!(rec.records.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_mid_segment_truncates_from_the_flip() {
        let dir = tmp_dir("bitflip");
        let mut rec = Wal::open(&dir).unwrap();
        for op in ops(6) {
            rec.wal.append(&op).unwrap();
        }
        drop(rec);
        let last = segment_files(&dir).pop().unwrap();
        let mut bytes = std::fs::read(&last).unwrap();
        // Flip one bit roughly in the middle of the record area.
        let mid = SEGMENT_HEADER_LEN + (bytes.len() - SEGMENT_HEADER_LEN) / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&last, &bytes).unwrap();

        let rec = Wal::open(&dir).unwrap();
        assert!(rec.truncated);
        assert!(rec.records.len() < 6, "records from the flip on are gone");
        // Survivors are an exact prefix.
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        drop(rec);
        let rec = Wal::open(&dir).unwrap();
        assert!(!rec.truncated, "truncation is persistent, not re-reported");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_length_trailing_segment_is_dropped() {
        let dir = tmp_dir("zerolen");
        let mut rec = Wal::open(&dir).unwrap();
        for op in ops(3) {
            rec.wal.append(&op).unwrap();
        }
        drop(rec);
        // A crash between segment creation and header write leaves an empty
        // file with the next id.
        File::create(segment_path(&dir, 999_999)).unwrap();

        let rec = Wal::open(&dir).unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.records.len(), 3);
        assert!(!segment_path(&dir, 999_999).exists(), "empty segment removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error() {
        let dir = tmp_dir("badmanifest");
        drop(Wal::open(&dir).unwrap());
        std::fs::write(dir.join(MANIFEST_FILE), b"SLM1garbagegarb!").unwrap();
        assert!(matches!(Wal::open(&dir), Err(WalError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn op_encoding_roundtrips_and_rejects_garbage() {
        for op in [WalOp::Insert(vec![]), WalOp::Insert(vec![7, 1, 7]), WalOp::Delete(vec![u32::MAX])] {
            assert_eq!(WalOp::decode(&op.encode()), Some(op));
        }
        assert_eq!(WalOp::decode(&[]), None);
        assert_eq!(WalOp::decode(&[2, 0, 0, 0, 0]), None, "unknown tag");
        assert_eq!(WalOp::decode(&[0, 2, 0, 0, 0, 1, 0, 0, 0]), None, "count/body mismatch");
    }
}

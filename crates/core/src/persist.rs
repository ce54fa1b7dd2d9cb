//! Model persistence: human-readable JSON dumps of whole structures, plus a
//! compact binary weight format (the analogue of the paper's weights-only
//! pickle files used for its memory measurements).
//!
//! Current binary layout, `SLW2` (little-endian):
//!
//! ```text
//! magic  "SLW2"            4 bytes
//! version: u8              format revision within SLW2 (currently 2)
//! crc32: u32               CRC-32 (IEEE) over the payload below
//! payload:
//!   precision: u8          serve precision: 0 = f32, 2 = q8 (1 was the
//!                          retired f16 and is refused)
//!   json_len: u32          length of the config JSON
//!   config JSON            model architecture (to rebuild the skeleton)
//!   num_bufs: u32
//!   per buffer: len: u32, then len * f32 weights
//! ```
//!
//! The checksum covers both the config and every weight byte, so truncation
//! and bit flips surface as [`PersistError::Corrupt`] instead of silently
//! loading garbage weights. Any other magic or revision — the retired `SLW1`
//! layout and `SLW2` revision 1 included — is a [`PersistError::Format`].
//!
//! Saves are atomic: bytes are written to a sibling `*.tmp` file, synced, and
//! renamed over the destination, so a crash mid-save can never leave a
//! half-written model at the target path.

use crate::kernel::{Precision, F16_REMOVED};
use crate::model::{DeepSets, DeepSetsConfig};
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

/// Persistence errors.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// Structural mismatch in a binary weight file.
    Format(String),
    /// The file is recognizably a weight file but its contents fail
    /// integrity checks (truncation, bit flip, checksum mismatch).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Json(e) => write!(f, "json error: {e}"),
            PersistError::Format(m) => write!(f, "format error: {m}"),
            PersistError::Corrupt(m) => write!(f, "corrupt weight file: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

const MAGIC: &[u8; 4] = b"SLW2";
/// The one revision this build reads and writes (leading precision byte).
const FORMAT_VERSION: u8 = 2;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

// const-evaluated once; the table lives in rodata.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 checksum as used by the `SLW2` weight format.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Atomic file writes
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: the data lands in a sibling temp
/// file, is flushed and fsynced, then renamed over the destination. Readers
/// observe either the old file or the complete new one, never a partial
/// write. Public so other sinks (e.g. telemetry artifacts) share the same
/// crash-safe write path as model files.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

// ---------------------------------------------------------------------------
// JSON persistence
// ---------------------------------------------------------------------------

/// Saves any serializable structure as JSON (atomic write).
pub fn save_json<T: Serialize>(value: &T, path: &Path) -> Result<(), PersistError> {
    let bytes = serde_json::to_vec(value)?;
    write_atomic(path, &bytes)
}

/// Loads a JSON-persisted structure.
pub fn load_json<T: DeserializeOwned>(path: &Path) -> Result<T, PersistError> {
    let file = std::io::BufReader::new(std::fs::File::open(path)?);
    Ok(serde_json::from_reader(file)?)
}

// ---------------------------------------------------------------------------
// Binary weight format
// ---------------------------------------------------------------------------

/// Little-endian reader over a byte slice, with descriptive underrun errors.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Corrupt(format!(
                "truncated {what}: need {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, PersistError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f32(&mut self) -> Result<f32, PersistError> {
        let b = self.take(4, "weight value")?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

fn encode_payload(model: &DeepSets) -> Result<Vec<u8>, PersistError> {
    let config_json = serde_json::to_vec(model.config())?;
    let bufs = model.weight_buffers();
    let mut out = Vec::with_capacity(
        8 + config_json.len() + bufs.iter().map(|b| 4 + b.len() * 4).sum::<usize>(),
    );
    out.extend_from_slice(&(config_json.len() as u32).to_le_bytes());
    out.extend_from_slice(&config_json);
    out.extend_from_slice(&(bufs.len() as u32).to_le_bytes());
    for b in bufs {
        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
        for &w in b {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    Ok(out)
}

fn decode_payload(payload: &[u8]) -> Result<DeepSets, PersistError> {
    let mut cur = Cursor::new(payload);
    let json_len = cur.u32("config length")? as usize;
    let config_bytes = cur.take(json_len, "config JSON")?;
    let config: DeepSetsConfig = serde_json::from_slice(config_bytes)?;
    let mut model = DeepSets::new(config);
    let num_bufs = cur.u32("buffer count")? as usize;
    let mut weights: Vec<Vec<f32>> = Vec::with_capacity(num_bufs.min(1024));
    for _ in 0..num_bufs {
        let len = cur.u32("buffer length")? as usize;
        if cur.remaining() < len.saturating_mul(4) {
            return Err(PersistError::Corrupt(format!(
                "truncated weights: buffer claims {len} floats, {} bytes left",
                cur.remaining()
            )));
        }
        let mut buf = Vec::with_capacity(len);
        for _ in 0..len {
            buf.push(cur.f32()?);
        }
        weights.push(buf);
    }
    if cur.remaining() > 0 {
        return Err(PersistError::Corrupt(format!(
            "{} trailing bytes after final weight buffer",
            cur.remaining()
        )));
    }
    model.load_weight_buffers(&weights).map_err(PersistError::Corrupt)?;
    Ok(model)
}

/// Encodes a DeepSets model into the checksummed `SLW2` binary format at
/// [`Precision::F32`].
pub fn encode_weights(model: &DeepSets) -> Result<Vec<u8>, PersistError> {
    encode_weights_with_precision(model, Precision::F32)
}

/// Encodes a DeepSets model into the checksummed `SLW2` binary format,
/// recording the serve precision in the revision-2 payload so loaders can
/// rebuild the same inference kernel.
pub fn encode_weights_with_precision(
    model: &DeepSets,
    precision: Precision,
) -> Result<Vec<u8>, PersistError> {
    let body = encode_payload(model)?;
    let mut payload = Vec::with_capacity(1 + body.len());
    payload.push(match precision {
        Precision::F32 => 0,
        Precision::Q8 => 2,
    });
    payload.extend_from_slice(&body);
    let mut out = Vec::with_capacity(9 + payload.len());
    out.extend_from_slice(MAGIC);
    out.push(FORMAT_VERSION);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Decodes a model from the binary weight format, discarding the recorded
/// precision. See [`decode_weights_with_precision`].
pub fn decode_weights(data: &[u8]) -> Result<DeepSets, PersistError> {
    decode_weights_with_precision(data).map(|(model, _)| model)
}

/// Decodes a model and its recorded serve precision from the binary weight
/// format: verifies the checksum, rebuilds the skeleton from the embedded
/// config, then overwrites every weight buffer.
pub fn decode_weights_with_precision(
    data: &[u8],
) -> Result<(DeepSets, Precision), PersistError> {
    let mut cur = Cursor::new(data);
    let magic = cur.take(4, "header").map_err(|_| {
        PersistError::Format(format!("not a weight file: {} bytes, need at least 4", data.len()))
    })?;
    if magic != MAGIC {
        return Err(PersistError::Format(format!(
            "bad magic {:?}: not a setlearn weight file",
            String::from_utf8_lossy(magic)
        )));
    }
    let version = cur.u8("format version")?;
    if version != FORMAT_VERSION {
        return Err(PersistError::Format(format!(
            "unsupported SLW2 revision {version} (this build reads revision {FORMAT_VERSION})"
        )));
    }
    let stored_crc = cur.u32("checksum")?;
    let payload = &data[cur.pos..];
    let actual_crc = crc32(payload);
    if stored_crc != actual_crc {
        return Err(PersistError::Corrupt(format!(
            "checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x} \
             (file truncated or bits flipped)"
        )));
    }
    let mut body = Cursor::new(payload);
    let precision = match body.u8("precision")? {
        0 => Precision::F32,
        2 => Precision::Q8,
        1 => return Err(PersistError::Format(F16_REMOVED.to_string())),
        b => {
            let why = format!("unknown precision code {b} (this build knows f32/q8)");
            return Err(PersistError::Format(why));
        }
    };
    Ok((decode_payload(&payload[body.pos..])?, precision))
}

/// Saves a model's weights in the `SLW2` binary format (atomic write).
pub fn save_weights(model: &DeepSets, path: &Path) -> Result<(), PersistError> {
    let bytes = encode_weights(model)?;
    write_atomic(path, &bytes)
}

/// Loads a model from the `SLW2` binary weight format.
pub fn load_weights(path: &Path) -> Result<DeepSets, PersistError> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut data = Vec::new();
    file.read_to_end(&mut data)?;
    decode_weights(&data)
}

// ---------------------------------------------------------------------------
// Collections root layout
// ---------------------------------------------------------------------------

/// Conventional file names inside one collection directory under a
/// collections root: `<root>/<name>/` holds a [`COLLECTION_MANIFEST`]
/// describing the task, a `model.json` structure checkpoint (the JSON form
/// of the task structure, embedding its SLW2-equivalent weights), an
/// optional `collection.json` with the training sets (needed for mutable
/// serving and compaction rebuilds), and an optional `wal/` directory that
/// makes the collection mutable.
pub const COLLECTION_MANIFEST: &str = "manifest.json";
/// Structure checkpoint file name inside a collection directory.
pub const COLLECTION_MODEL: &str = "model.json";
/// Training-set snapshot file name inside a collection directory.
pub const COLLECTION_SETS: &str = "collection.json";
/// WAL subdirectory name inside a collection directory.
pub const COLLECTION_WAL: &str = "wal";

/// Per-collection manifest stored at `<root>/<name>/manifest.json`. Kept
/// deliberately small: the registry needs only enough to pick the right
/// loader before touching the (much larger) checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, serde::Deserialize)]
pub struct CollectionManifest {
    /// Task label: `cardinality` | `index` | `bloom`.
    pub task: String,
    /// Shard count when the checkpoint is a sharded structure (absent or
    /// `None` for single-model collections).
    #[serde(default)]
    pub shards: Option<usize>,
    /// Routing policy of the sharded structure (`hash` | `range`); absent
    /// defaults to `hash`, matching [`crate::shard::ShardBy`]'s default.
    #[serde(default)]
    pub shard_by: Option<String>,
}

/// One collection found under a collections root.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionEntry {
    /// Directory name == collection id.
    pub name: String,
    /// The collection's directory.
    pub dir: std::path::PathBuf,
    /// Its manifest.
    pub manifest: CollectionManifest,
    /// Whether a `wal/` subdirectory exists (collection is mutable).
    pub has_wal: bool,
    /// Total bytes of the regular files in the directory (one level deep,
    /// plus the WAL directory) — the registry's resident-size proxy.
    pub disk_bytes: u64,
}

/// The directory a named collection lives in under `root`.
pub fn collection_dir(root: &Path, name: &str) -> std::path::PathBuf {
    root.join(name)
}

/// Loads `<dir>/manifest.json`.
pub fn load_manifest(dir: &Path) -> Result<CollectionManifest, PersistError> {
    load_json(&dir.join(COLLECTION_MANIFEST))
}

/// Saves `<dir>/manifest.json` (atomic write), creating `dir` if needed.
pub fn save_manifest(dir: &Path, manifest: &CollectionManifest) -> Result<(), PersistError> {
    std::fs::create_dir_all(dir)?;
    save_json(manifest, &dir.join(COLLECTION_MANIFEST))
}

/// The two files that hold a collection's trained state: the structure
/// checkpoint and the sets it was trained on.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFiles {
    /// The structure checkpoint (JSON).
    pub model: std::path::PathBuf,
    /// The sets that checkpoint was trained on (JSON).
    pub sets: std::path::PathBuf,
}

/// Where a retrain of the mutable collection in `dir` publishes: inside its
/// `wal/`, next to the log whose records the retrain folded in. Background
/// compaction and an offline `train` both write here — model first, then
/// sets, then the WAL watermark.
pub fn retrain_files(dir: &Path) -> CheckpointFiles {
    let wal = dir.join(COLLECTION_WAL);
    CheckpointFiles { model: wal.join("model.json"), sets: wal.join("checkpoint.json") }
}

/// The files holding the current model and sets of the collection in `dir`:
/// what the last retrain published ([`retrain_files`]) where it exists, else
/// the files the collection was first trained into. Every reader — the
/// serving registry, `train`'s WAL fold, the CLI's workload enumeration —
/// asks here, so none of them can serve or extend a superseded checkpoint.
pub fn current_files(dir: &Path) -> CheckpointFiles {
    let CheckpointFiles { model, sets } = retrain_files(dir);
    CheckpointFiles {
        model: if model.exists() { model } else { dir.join(COLLECTION_MODEL) },
        sets: if sets.exists() { sets } else { dir.join(COLLECTION_SETS) },
    }
}

fn dir_file_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    total += meta.len();
                }
            }
        }
    }
    total
}

/// Inspects one collection directory: reads its manifest and sizes its
/// files. Errors if the manifest is missing or malformed.
pub fn inspect_collection(root: &Path, name: &str) -> Result<CollectionEntry, PersistError> {
    if !crate::wire::valid_collection_name(name) {
        return Err(PersistError::Format(format!(
            "invalid collection name {name:?} (want [A-Za-z0-9_-], at most {} bytes)",
            crate::wire::MAX_COLLECTION_ID_LEN
        )));
    }
    let dir = collection_dir(root, name);
    let manifest = load_manifest(&dir)?;
    let wal_dir = dir.join(COLLECTION_WAL);
    let has_wal = wal_dir.is_dir();
    let mut disk_bytes = dir_file_bytes(&dir);
    if has_wal {
        disk_bytes += dir_file_bytes(&wal_dir);
    }
    Ok(CollectionEntry { name: name.to_string(), dir, manifest, has_wal, disk_bytes })
}

/// Scans a collections root: every direct subdirectory whose name is a
/// valid collection id *and* which contains a readable manifest becomes an
/// entry, sorted by name. Subdirectories without a manifest are skipped
/// silently (the root may hold unrelated files); an unreadable root errors.
pub fn discover_collections(root: &Path) -> Result<Vec<CollectionEntry>, PersistError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let Some(name) = entry.file_name().to_str().map(str::to_string) else { continue };
        if !crate::wire::valid_collection_name(&name) {
            continue;
        }
        if let Ok(e) = inspect_collection(root, &name) {
            out.push(e);
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DeepSetsConfig;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("setlearn-persist-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(CRC32_TABLE[255], 0x2D02_EF8D);
    }

    #[test]
    fn binary_roundtrip_preserves_predictions() {
        let model = DeepSets::new(DeepSetsConfig::clsm(5_000));
        let bytes = encode_weights(&model).unwrap();
        let back = decode_weights(&bytes).unwrap();
        for q in [&[1u32, 2][..], &[4_999u32][..], &[7u32, 70, 700][..]] {
            assert_eq!(model.predict_one(q), back.predict_one(q));
        }
    }

    #[test]
    fn file_roundtrip_json_and_binary() {
        let model = DeepSets::new(DeepSetsConfig::lsm(200));
        let jpath = tmp("model.json");
        let bpath = tmp("model.slw");
        save_json(&model, &jpath).unwrap();
        save_weights(&model, &bpath).unwrap();
        let via_json: DeepSets = load_json(&jpath).unwrap();
        let via_bin = load_weights(&bpath).unwrap();
        assert_eq!(model.predict_one(&[3, 7]), via_json.predict_one(&[3, 7]));
        assert_eq!(model.predict_one(&[3, 7]), via_bin.predict_one(&[3, 7]));
        // The binary format is the compact one.
        let jlen = std::fs::metadata(&jpath).unwrap().len();
        let blen = std::fs::metadata(&bpath).unwrap().len();
        assert!(blen < jlen, "binary {blen} vs json {jlen}");
        let _ = std::fs::remove_file(jpath);
        let _ = std::fs::remove_file(bpath);
    }

    #[test]
    fn corrupted_inputs_are_rejected() {
        assert!(matches!(decode_weights(b"nope"), Err(PersistError::Format(_))));
        // A valid-looking SLW2 header whose checksum doesn't match.
        assert!(matches!(
            decode_weights(b"SLW2\x02\xff\xff\xff\xff\x00\x00\x00\x00"),
            Err(PersistError::Corrupt(_))
        ));
        let model = DeepSets::new(DeepSetsConfig::lsm(50));
        let mut bytes = encode_weights(&model).unwrap();
        bytes.truncate(bytes.len() - 3);
        assert!(matches!(decode_weights(&bytes), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let model = DeepSets::new(DeepSetsConfig::lsm(50));
        let clean = encode_weights(&model).unwrap();
        // Flip one bit in several positions across the payload.
        for &pos in &[9, clean.len() / 2, clean.len() - 1] {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x40;
            assert!(
                matches!(decode_weights(&bytes), Err(PersistError::Corrupt(_))),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn precision_roundtrips_and_unknown_codes_are_refused() {
        let model = DeepSets::new(DeepSetsConfig::lsm(60));
        for p in Precision::ALL {
            let bytes = encode_weights_with_precision(&model, p).unwrap();
            let (back, got) = decode_weights_with_precision(&bytes).unwrap();
            assert_eq!(got, p);
            assert_eq!(model.predict_one(&[3, 9]), back.predict_one(&[3, 9]));
        }
        // An unknown precision code, and the retired f16 code 1, are refused
        // even when the checksum holds (header is magic 4 + version 1 +
        // crc 4 = 9 bytes).
        for (code, hint) in [(7u8, "f32/q8"), (1, "f32|q8")] {
            let mut bad = encode_weights_with_precision(&model, Precision::F32).unwrap();
            bad[9] = code;
            let crc = crc32(&bad[9..]);
            bad[5..9].copy_from_slice(&crc.to_le_bytes());
            let err = decode_weights_with_precision(&bad).unwrap_err();
            assert!(matches!(&err, PersistError::Format(why) if why.contains(hint)), "{err}");
        }
    }

    /// Only the revision this build writes is read: a future revision, the
    /// retired revision 1 (same payload minus the precision byte, valid
    /// checksum) and the retired checksum-less `SLW1` layout are all typed
    /// format errors, never a guess at the payload.
    #[test]
    fn unsupported_future_revision_is_refused() {
        let model = DeepSets::new(DeepSetsConfig::lsm(50));
        let current = encode_weights(&model).unwrap();
        let mut future = current.clone();
        future[4] = 99;
        let body = &current[10..];
        let mut rev1 = b"SLW2\x01".to_vec();
        rev1.extend_from_slice(&crc32(body).to_le_bytes());
        rev1.extend_from_slice(body);
        let mut slw1 = b"SLW1".to_vec();
        slw1.extend_from_slice(body);
        for (what, bytes) in [("revision 99", future), ("revision 1", rev1), ("SLW1", slw1)] {
            assert!(
                matches!(decode_weights(&bytes), Err(PersistError::Format(_))),
                "{what} was not refused as a format error"
            );
        }
    }

    #[test]
    fn collections_root_discovery_finds_manifests_and_sizes() {
        let root = tmp("collections-root");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        // Two real collections, one mutable, plus clutter to be skipped.
        let a = CollectionManifest { task: "cardinality".into(), shards: None, shard_by: None };
        save_manifest(&collection_dir(&root, "tenant-a"), &a).unwrap();
        std::fs::write(collection_dir(&root, "tenant-a").join(COLLECTION_MODEL), b"{}")
            .unwrap();
        let b = CollectionManifest {
            task: "bloom".into(),
            shards: Some(4),
            shard_by: Some("hash".into()),
        };
        save_manifest(&collection_dir(&root, "tenant-b"), &b).unwrap();
        let wal = collection_dir(&root, "tenant-b").join(COLLECTION_WAL);
        std::fs::create_dir_all(&wal).unwrap();
        std::fs::write(wal.join("wal.log"), vec![0u8; 128]).unwrap();
        std::fs::create_dir_all(root.join("no-manifest-here")).unwrap();
        std::fs::write(root.join("stray-file"), b"x").unwrap();

        let found = discover_collections(&root).unwrap();
        assert_eq!(
            found.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["tenant-a", "tenant-b"]
        );
        assert_eq!(found[0].manifest, a);
        assert!(!found[0].has_wal);
        assert!(found[0].disk_bytes > 0);
        assert_eq!(found[1].manifest.shards, Some(4));
        assert!(found[1].has_wal);
        assert!(found[1].disk_bytes >= 128, "wal bytes counted");
        // Direct inspection agrees with the scan; invalid names are refused.
        assert_eq!(inspect_collection(&root, "tenant-b").unwrap(), found[1]);
        assert!(inspect_collection(&root, "../escape").is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn atomic_save_leaves_no_temp_file() {
        let model = DeepSets::new(DeepSetsConfig::lsm(50));
        let path = tmp("atomic.slw");
        save_weights(&model, &path).unwrap();
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        assert!(!std::path::Path::new(&tmp_name).exists());
        assert!(path.exists());
        let _ = std::fs::remove_file(path);
    }
}

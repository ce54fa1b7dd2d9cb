//! Model persistence: human-readable JSON dumps of whole structures, and
//! the collections-root layout the registry serves from.
//!
//! Saves are atomic: bytes are written to a sibling `*.tmp` file, synced, and
//! renamed over the destination, so a crash mid-save can never leave a
//! half-written model at the target path.

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Persistence errors.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// A file or name that does not fit the collections-root layout.
    Format(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Json(e) => write!(f, "json error: {e}"),
            PersistError::Format(m) => write!(f, "format error: {m}"),
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

/// CRC-32 (IEEE) checksum, as the SLP1 frames and the WAL records use it.
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

/// Conventional file names inside one collection directory under a
/// collections root: `<root>/<name>/` holds a [`COLLECTION_MANIFEST`]
/// describing the task, a `model.json` structure checkpoint (the JSON form
/// of the task structure, weights included), an
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
    use crate::model::{DeepSets, DeepSetsConfig};

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
    fn file_roundtrip_json() {
        let model = DeepSets::new(DeepSetsConfig::lsm(200));
        let jpath = tmp("model.json");
        save_json(&model, &jpath).unwrap();
        let via_json: DeepSets = load_json(&jpath).unwrap();
        assert_eq!(model.predict_one(&[3, 7]), via_json.predict_one(&[3, 7]));
        let _ = std::fs::remove_file(jpath);
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
        let path = tmp("atomic.json");
        save_json(&model, &path).unwrap();
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        assert!(!std::path::Path::new(&tmp_name).exists());
        assert!(path.exists());
        let _ = std::fs::remove_file(path);
    }
}

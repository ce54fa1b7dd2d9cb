//! WAL-backed mutable collections: a durable write path over any learned
//! structure.
//!
//! [`MutableCollection<S>`] wraps a trained [`LearnedSetStructure`] built on
//! a base [`SetCollection`] and accepts `insert`/`delete` at serve time.
//! Every mutation is appended to a [`Wal`] and fsync'd **before** it is
//! acknowledged, then applied to an in-memory exact *delta overlay*. Queries
//! fold the learned model's [`QueryOutcome`] with the overlay's exact
//! answer through the task's [`Fold`] — the rule shards are folded with:
//!
//! - **cardinality** — sum-correction (`model + delta`), clamped at 0: the
//!   `LogMinMaxScaler`-backed estimate is non-negative but a delta with
//!   deletes can push the sum below zero, which no count ever is;
//! - **index** — first/last fold of the model position and the overlay's
//!   exact position for appended rows (appends live at positions
//!   `base_len + slot`, so coordinates stay stable until compaction). Base
//!   deletes are not read: a deleted base row's position is served until
//!   compaction;
//! - **bloom** — OR: an inserted member must be found immediately. Deletes
//!   cannot *unlearn* base membership until compaction (a Bloom filter has
//!   no deletion), which only costs false positives — never a false
//!   negative.
//!
//! Crash recovery ([`MutableCollection::open`]) replays surviving WAL
//! records against the checkpointed base, rebuilding the exact overlay —
//! no acknowledged write is lost. Compaction
//! ([`MutableCollection::begin_compaction`] /
//! [`MutableCollection::complete_compaction`]) folds the delta into a new
//! base, retrains, and advances the WAL's applied watermark so replayed
//! segments are deleted.
//!
//! Lock order is WAL mutex → state lock, everywhere: mutations hold the WAL
//! lock across the overlay apply so overlay slot order always equals
//! sequence order; queries take only the state read lock.

use crate::tasks::{Fold, LearnedSetStructure, QueryOutcome};
use crate::telemetry::wal_tele;
use crate::wal::{Wal, WalConfig, WalError, WalOp, WalRecord};
use setlearn_data::{is_subset, normalize, ElementSet, SetCollection};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Why a mutation was rejected. WAL failures surface as-is; validation
/// failures are rejected *before* anything is logged, so a rejected
/// mutation leaves no trace on disk.
#[derive(Debug)]
pub enum MutateError {
    /// The durability layer failed; the mutation was not acknowledged.
    Wal(WalError),
    /// The set is empty after canonicalization.
    EmptySet,
    /// An element id falls outside the collection's vocabulary.
    OutOfVocab {
        /// The offending element id.
        id: u32,
        /// The exclusive vocabulary bound (`num_elements`).
        bound: u32,
    },
}

impl fmt::Display for MutateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutateError::Wal(e) => write!(f, "mutation not durable: {e}"),
            MutateError::EmptySet => write!(f, "empty set after canonicalization"),
            MutateError::OutOfVocab { id, bound } => {
                write!(f, "element {id} outside vocabulary 0..{bound}")
            }
        }
    }
}

impl std::error::Error for MutateError {}

impl From<WalError> for MutateError {
    fn from(e: WalError) -> Self {
        MutateError::Wal(e)
    }
}

/// Acknowledgement of a durable mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationAck {
    /// The WAL sequence the mutation committed at.
    pub seq: u64,
    /// Whether the mutation changed the logical collection (`false` for a
    /// delete of a set that has no remaining occurrence — logged and
    /// durable, but a no-op on replay too).
    pub applied: bool,
}

/// What recovery found when opening a mutable collection.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// WAL records replayed into the overlay.
    pub replayed: usize,
    /// Replayed records skipped as invalid against the current base
    /// (wrong vocabulary, empty set) — counted, never a panic.
    pub skipped: usize,
    /// Whether WAL damage was truncated away during recovery.
    pub truncated: bool,
    /// The checkpoint watermark recovery replayed on top of.
    pub applied_seq: u64,
    /// The sequence the next mutation will receive.
    pub next_seq: u64,
}

/// Size/age of the pending delta, for compaction triggers.
#[derive(Debug, Clone, Copy)]
pub struct DeltaStats {
    /// WAL records not yet folded into a checkpoint.
    pub pending_ops: usize,
    /// Appended rows currently live (inserted, not re-deleted).
    pub live_inserts: usize,
    /// Base rows logically deleted.
    pub deleted_base_rows: usize,
    /// Age of the oldest pending mutation.
    pub oldest_pending: Option<Duration>,
    /// Rows in the checkpointed base.
    pub base_len: usize,
}

/// The overlay's exact answer for one query, produced by a linear scan of
/// the (small, pre-compaction) delta.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlayAnswer {
    /// Net change to the query's subset count: `+1` per live inserted
    /// superset, `-1` per deleted base-row occurrence that contains it.
    pub cardinality_delta: i64,
    /// First (lowest) appended position containing the query, in stable
    /// `base_len + slot` coordinates.
    pub first: Option<usize>,
    /// Last (highest) appended position containing the query.
    pub last: Option<usize>,
    /// Whether any live appended row contains the query.
    pub contains: bool,
}

/// Exact in-memory delta between the checkpointed base and the logical
/// collection: appended rows (with tombstones) plus per-set base delete
/// counts. Positions are stable — an appended row keeps position
/// `base_len + slot` even after later deletes — so index answers never
/// shift under a reader until compaction rebases everything at once.
#[derive(Debug)]
struct DeltaOverlay {
    base_len: usize,
    /// Appended rows in commit order; `false` marks a tombstone.
    inserts: Vec<(ElementSet, bool)>,
    live_inserts: usize,
    /// Canonical set → occurrences logically deleted from the base.
    base_deletes: HashMap<ElementSet, usize>,
    deleted_base_rows: usize,
}

impl DeltaOverlay {
    fn new(base_len: usize) -> Self {
        DeltaOverlay {
            base_len,
            inserts: Vec::new(),
            live_inserts: 0,
            base_deletes: HashMap::new(),
            deleted_base_rows: 0,
        }
    }

    fn insert(&mut self, set: ElementSet) {
        self.inserts.push((set, true));
        self.live_inserts += 1;
    }

    /// Deletes one occurrence: the most recent live appended copy first
    /// (exact undo), otherwise one more base occurrence — capped at how
    /// many the base actually holds. Returns whether anything was deleted.
    fn delete(&mut self, set: &[u32], base_occurrences: usize) -> bool {
        if let Some(slot) =
            self.inserts.iter().rposition(|(s, live)| *live && s.as_ref() == set)
        {
            self.inserts[slot].1 = false;
            self.live_inserts -= 1;
            return true;
        }
        let count = self.base_deletes.entry(set.to_vec().into_boxed_slice()).or_insert(0);
        if *count < base_occurrences {
            *count += 1;
            self.deleted_base_rows += 1;
            return true;
        }
        false
    }

    fn answer(&self, q: &[u32]) -> OverlayAnswer {
        let mut ans = OverlayAnswer::default();
        for (slot, (set, live)) in self.inserts.iter().enumerate() {
            if *live && is_subset(q, set) {
                let pos = self.base_len + slot;
                ans.cardinality_delta += 1;
                ans.first.get_or_insert(pos);
                ans.last = Some(pos);
                ans.contains = true;
            }
        }
        for (set, count) in &self.base_deletes {
            if is_subset(q, set) {
                ans.cardinality_delta -= *count as i64;
            }
        }
        ans
    }
}

/// Snapshot handed from [`MutableCollection::begin_compaction`] to the
/// retrainer and back into [`MutableCollection::complete_compaction`].
pub struct CompactionSnapshot {
    /// The merged logical collection (base minus deletes plus live
    /// appends, in commit order) to retrain on and checkpoint.
    pub merged: SetCollection,
    /// The sequence watermark this snapshot covers: every record below it
    /// is folded into `merged`.
    watermark: u64,
}

impl CompactionSnapshot {
    /// The sequence watermark this snapshot covers.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }
}

/// Object-safe ingest surface, so the wire layer can accept mutations
/// without knowing the structure type.
pub trait MutableSink: Send + Sync {
    /// Applies one durable mutation (`delete == false` inserts).
    fn ingest(&self, delete: bool, ids: &[u32]) -> Result<MutationAck, MutateError>;

    /// Mutations applied but not yet folded into the base collection by a
    /// compaction — the compactor's lag, surfaced by health probes. `0` for
    /// sinks without a pending delta.
    fn pending_ops(&self) -> u64 {
        0
    }
}

struct MutableState<S> {
    structure: Arc<S>,
    base: Arc<SetCollection>,
    overlay: DeltaOverlay,
    /// Pending records (`seq >= applied watermark`), the replay source for
    /// the next compaction's overlay rebuild.
    tail: Vec<WalRecord>,
    first_op_at: Option<Instant>,
}

/// A learned structure plus a durable, queryable delta: the full mutable
/// collection. See the module docs for semantics and locking.
pub struct MutableCollection<S> {
    vocab: u32,
    wal: Mutex<Wal>,
    state: RwLock<MutableState<S>>,
}

impl<S> fmt::Debug for MutableCollection<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.delta_stats();
        f.debug_struct("MutableCollection")
            .field("vocab", &self.vocab)
            .field("base_len", &stats.base_len)
            .field("pending_ops", &stats.pending_ops)
            .finish_non_exhaustive()
    }
}

impl<S> MutableCollection<S> {
    /// Opens the WAL at `wal_dir` with default tuning and replays pending
    /// records against `base`. See [`MutableCollection::open_with`].
    pub fn open(
        structure: S,
        base: Arc<SetCollection>,
        wal_dir: &Path,
    ) -> Result<(Self, RecoveryReport), WalError> {
        Self::open_with(structure, base, wal_dir, WalConfig::default())
    }

    /// Opens the WAL and rebuilds the exact overlay by replaying every
    /// surviving record above the checkpoint watermark. `structure` must be
    /// the model trained on `base` (the checkpoint the WAL's manifest
    /// refers to). Records invalid against `base`'s vocabulary are skipped
    /// and counted — a vocabulary mismatch is a configuration error that
    /// must not brick startup.
    pub fn open_with(
        structure: S,
        base: Arc<SetCollection>,
        wal_dir: &Path,
        config: WalConfig,
    ) -> Result<(Self, RecoveryReport), WalError> {
        let recovery = Wal::open_with(wal_dir, config)?;
        let vocab = base.num_elements();
        let mut overlay = DeltaOverlay::new(base.len());
        let mut tail = Vec::with_capacity(recovery.records.len());
        let mut skipped = 0usize;
        for record in recovery.records {
            match apply_op(&mut overlay, &base, &record.op, vocab) {
                Some(_) => tail.push(record),
                None => skipped += 1,
            }
        }
        let report = RecoveryReport {
            replayed: tail.len(),
            skipped,
            truncated: recovery.truncated,
            applied_seq: recovery.applied_seq,
            next_seq: recovery.wal.next_seq(),
        };
        let first_op_at = if tail.is_empty() { None } else { Some(Instant::now()) };
        let collection = MutableCollection {
            vocab,
            wal: Mutex::new(recovery.wal),
            state: RwLock::new(MutableState {
                structure: Arc::new(structure),
                base,
                overlay,
                tail,
                first_op_at,
            }),
        };
        Ok((collection, report))
    }

    /// Durably inserts a set. The record is fsync'd in the WAL before this
    /// returns: an acknowledged insert survives `kill -9`.
    pub fn insert(&self, ids: &[u32]) -> Result<MutationAck, MutateError> {
        self.mutate(WalOp::Insert(self.canonical(ids)?))
    }

    /// Durably deletes one occurrence of a set — the most recently
    /// appended live copy if any, otherwise one base occurrence. Deleting a
    /// set with no remaining occurrence is acknowledged with
    /// `applied: false`.
    pub fn delete(&self, ids: &[u32]) -> Result<MutationAck, MutateError> {
        self.mutate(WalOp::Delete(self.canonical(ids)?))
    }

    fn canonical(&self, ids: &[u32]) -> Result<Vec<u32>, MutateError> {
        let canonical = normalize(ids.to_vec());
        if canonical.is_empty() {
            return Err(MutateError::EmptySet);
        }
        if let Some(&id) = canonical.iter().find(|&&id| id >= self.vocab) {
            return Err(MutateError::OutOfVocab { id, bound: self.vocab });
        }
        Ok(canonical.into_vec())
    }

    fn mutate(&self, op: WalOp) -> Result<MutationAck, MutateError> {
        // WAL lock first, held across the overlay apply: overlay slot order
        // is exactly sequence order, which replay reproduces.
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        let seq = wal.append(&op)?;
        let mut state = self.state.write().unwrap_or_else(|e| e.into_inner());
        let state = &mut *state;
        let applied = apply_op(&mut state.overlay, &state.base, &op, self.vocab)
            .expect("validated before append");
        state.tail.push(WalRecord { seq, op });
        state.first_op_at.get_or_insert_with(Instant::now);
        Ok(MutationAck { seq, applied })
    }

    /// Size and age of the pending delta.
    pub fn delta_stats(&self) -> DeltaStats {
        let state = self.state.read().unwrap_or_else(|e| e.into_inner());
        DeltaStats {
            pending_ops: state.tail.len(),
            live_inserts: state.overlay.live_inserts,
            deleted_base_rows: state.overlay.deleted_base_rows,
            oldest_pending: state.first_op_at.map(|t| t.elapsed()),
            base_len: state.base.len(),
        }
    }

    /// Starts a compaction: rotates the WAL and snapshots the merged
    /// logical collection. Returns `None` when there is nothing pending.
    /// Mutations keep flowing while the caller retrains on the snapshot;
    /// they land above the snapshot's watermark and survive
    /// [`MutableCollection::complete_compaction`] in the overlay.
    pub fn begin_compaction(&self) -> Result<Option<CompactionSnapshot>, WalError> {
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        let state = self.state.read().unwrap_or_else(|e| e.into_inner());
        if state.tail.is_empty() {
            return Ok(None);
        }
        wal.rotate()?;
        let watermark = wal.next_seq();
        let merged = merged_collection(&state.base, &state.overlay, self.vocab);
        Ok(Some(CompactionSnapshot { merged, watermark }))
    }

    /// Finishes a compaction: `structure` is the model retrained on
    /// `snapshot.merged`, which the caller has already checkpointed
    /// durably. Advances the WAL watermark (deleting replayed segments),
    /// installs the new base, and rebuilds the overlay from the records
    /// that arrived during the retrain.
    ///
    /// The WAL manifest write inside is the commit point: a crash *before*
    /// it recovers on the old checkpoint and replays the full tail; a
    /// crash *after* it recovers on the new one and replays only the
    /// post-watermark records. Either way no acknowledged write is lost.
    pub fn complete_compaction(
        &self,
        structure: S,
        snapshot: CompactionSnapshot,
    ) -> Result<(), WalError> {
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        wal.mark_applied(snapshot.watermark)?;
        let mut state = self.state.write().unwrap_or_else(|e| e.into_inner());
        let base = Arc::new(snapshot.merged);
        let mut overlay = DeltaOverlay::new(base.len());
        let mut tail = Vec::new();
        let mut applied = 0u64;
        for record in state.tail.drain(..) {
            if record.seq < snapshot.watermark {
                applied += 1;
                continue;
            }
            // Ops that raced the retrain replay cleanly against the new
            // base: an insert-then-compact row is now a base row, so a
            // subsequent delete lands in `base_deletes` as it should.
            if apply_op(&mut overlay, &base, &record.op, self.vocab).is_some() {
                tail.push(record);
            }
        }
        state.first_op_at = if tail.is_empty() { None } else { state.first_op_at };
        state.structure = Arc::new(structure);
        state.base = base;
        state.overlay = overlay;
        state.tail = tail;
        wal_tele().record_compaction(applied);
        Ok(())
    }

    /// The currently installed learned structure.
    pub fn structure(&self) -> Arc<S> {
        Arc::clone(&self.state.read().unwrap_or_else(|e| e.into_inner()).structure)
    }

    /// The checkpointed base collection the structure was trained on.
    pub fn base(&self) -> Arc<SetCollection> {
        Arc::clone(&self.state.read().unwrap_or_else(|e| e.into_inner()).base)
    }
}

impl<S: Send + Sync> MutableSink for MutableCollection<S> {
    fn ingest(&self, delete: bool, ids: &[u32]) -> Result<MutationAck, MutateError> {
        if delete {
            self.delete(ids)
        } else {
            self.insert(ids)
        }
    }

    fn pending_ops(&self) -> u64 {
        self.delta_stats().pending_ops as u64
    }
}

impl<S: Fold> LearnedSetStructure for MutableCollection<S> {
    type Output = S::Output;
    const NAME: &'static str = S::NAME;

    fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<S::Output>> {
        // Structure and overlay answers are captured under one read lock (a
        // consistent snapshot); the model forward pass runs outside it.
        let (structure, answers) = {
            let state = self.state.read().unwrap_or_else(|e| e.into_inner());
            let answers: Vec<OverlayAnswer> =
                queries.iter().map(|q| state.overlay.answer(q.as_ref())).collect();
            (Arc::clone(&state.structure), answers)
        };
        structure
            .query_batch(queries)
            .into_iter()
            .zip(&answers)
            .map(|(model, ans)| structure.fold(model, structure.overlay(ans)))
            .collect()
    }

    /// The vocabulary bound (`num_elements`) mutations are validated
    /// against, which is the served structure's.
    fn vocab(&self) -> Option<u32> {
        Some(self.vocab)
    }
}

/// Applies one validated op to the overlay. `None` means the op is invalid
/// against this base (empty or out-of-vocab) — replay skips it.
fn apply_op(
    overlay: &mut DeltaOverlay,
    base: &SetCollection,
    op: &WalOp,
    vocab: u32,
) -> Option<bool> {
    let canonical = normalize(op.elements().to_vec());
    if canonical.is_empty() || canonical.iter().any(|&id| id >= vocab) {
        return None;
    }
    Some(match op {
        WalOp::Insert(_) => {
            overlay.insert(canonical);
            true
        }
        WalOp::Delete(_) => {
            let base_occurrences =
                base.sets().iter().filter(|s| s.as_ref() == canonical.as_ref()).count();
            overlay.delete(&canonical, base_occurrences)
        }
    })
}

/// Materializes the logical collection: base rows minus deleted
/// occurrences (earliest occurrences removed first), then live appended
/// rows in commit order. Row order — and therefore every index position —
/// is deterministic.
fn merged_collection(base: &SetCollection, overlay: &DeltaOverlay, vocab: u32) -> SetCollection {
    let mut remaining: HashMap<&[u32], usize> =
        overlay.base_deletes.iter().map(|(s, &c)| (s.as_ref(), c)).collect();
    let mut rows: Vec<Vec<u32>> =
        Vec::with_capacity(base.len() + overlay.live_inserts - overlay.deleted_base_rows);
    for set in base.sets() {
        if let Some(count) = remaining.get_mut(set.as_ref()) {
            if *count > 0 {
                *count -= 1;
                continue;
            }
        }
        rows.push(set.to_vec());
    }
    for (set, live) in &overlay.inserts {
        if *live {
            rows.push(set.to_vec());
        }
    }
    SetCollection::new(rows, vocab)
}

/// Replays WAL records over `base` into a fresh merged collection — the
/// offline (train-time) counterpart of the serve-side overlay. Returns the
/// merged collection and how many records were skipped as invalid.
pub fn replay_into(base: &SetCollection, records: &[WalRecord]) -> (SetCollection, usize) {
    let vocab = base.num_elements();
    let mut overlay = DeltaOverlay::new(base.len());
    let mut skipped = 0usize;
    for record in records {
        if apply_op(&mut overlay, base, &record.op, vocab).is_none() {
            skipped += 1;
        }
    }
    (merged_collection(base, &overlay, vocab), skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::FallbackReason;
    use crate::tasks::cardinality::sum_clamped;
    use crate::tasks::index::fold_positions;
    use crate::tasks::PositionTarget;

    fn base() -> Arc<SetCollection> {
        Arc::new(SetCollection::new(
            vec![vec![0, 1], vec![1, 2], vec![0, 1, 2], vec![1, 2]],
            5,
        ))
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("setlearn-mutable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    /// Exact-oracle cardinality "model" over a frozen collection: makes the
    /// merge path testable without training.
    struct ExactCard(Arc<SetCollection>);
    impl LearnedSetStructure for ExactCard {
        type Output = f64;
        const NAME: &'static str = "cardinality";
        fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<f64>> {
            let count = |q: &Q| QueryOutcome::clean(self.0.cardinality(q.as_ref()) as f64);
            queries.iter().map(count).collect()
        }
    }
    /// The oracles fold with the task structures' own rules.
    impl Fold for ExactCard {
        fn fold(&self, acc: QueryOutcome<f64>, part: QueryOutcome<f64>) -> QueryOutcome<f64> {
            sum_clamped(acc, part)
        }
        fn overlay(&self, d: &OverlayAnswer) -> QueryOutcome<f64> {
            QueryOutcome::clean(d.cardinality_delta as f64)
        }
    }

    /// Constant model, for the clamp regression.
    struct ConstCard(f64);
    impl LearnedSetStructure for ConstCard {
        type Output = f64;
        const NAME: &'static str = "cardinality";
        fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<f64>> {
            vec![QueryOutcome::clean(self.0); queries.len()]
        }
    }
    impl Fold for ConstCard {
        fn fold(&self, acc: QueryOutcome<f64>, part: QueryOutcome<f64>) -> QueryOutcome<f64> {
            sum_clamped(acc, part)
        }
        fn overlay(&self, d: &OverlayAnswer) -> QueryOutcome<f64> {
            QueryOutcome::clean(d.cardinality_delta as f64)
        }
    }

    struct ExactFirst(Arc<SetCollection>);
    impl LearnedSetStructure for ExactFirst {
        type Output = Option<usize>;
        const NAME: &'static str = "index";
        fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<Option<usize>>> {
            let answer = |q: &[u32]| {
                let pos = self.0.first_position(q);
                QueryOutcome { value: pos, fallback: None, bound_miss: pos.is_none() }
            };
            queries.iter().map(|q| answer(q.as_ref())).collect()
        }
    }
    impl Fold for ExactFirst {
        fn fold(
            &self,
            acc: QueryOutcome<Option<usize>>,
            part: QueryOutcome<Option<usize>>,
        ) -> QueryOutcome<Option<usize>> {
            fold_positions(PositionTarget::First, acc, part)
        }
        fn overlay(&self, d: &OverlayAnswer) -> QueryOutcome<Option<usize>> {
            QueryOutcome::clean(d.first)
        }
    }

    struct ExactBloom(Arc<SetCollection>);
    impl LearnedSetStructure for ExactBloom {
        type Output = bool;
        const NAME: &'static str = "bloom";
        fn query_batch<Q: AsRef<[u32]>>(&self, queries: &[Q]) -> Vec<QueryOutcome<bool>> {
            let holds = |q: &Q| QueryOutcome::clean(self.0.contains_subset(q.as_ref()));
            queries.iter().map(holds).collect()
        }
    }
    impl Fold for ExactBloom {
        fn fold(&self, acc: QueryOutcome<bool>, part: QueryOutcome<bool>) -> QueryOutcome<bool> {
            acc.folded(&part, acc.value || part.value)
        }
        fn overlay(&self, d: &OverlayAnswer) -> QueryOutcome<bool> {
            QueryOutcome::clean(d.contains)
        }
    }

    #[test]
    fn cardinality_merge_tracks_the_exact_oracle() {
        let dir = tmp_dir("card-oracle");
        let base = base();
        let (mc, _) = MutableCollection::open(ExactCard(Arc::clone(&base)), base, &dir).unwrap();
        assert!(mc.insert(&[1, 2, 3]).unwrap().applied);
        assert!(mc.insert(&[0, 3]).unwrap().applied);
        assert!(mc.delete(&[1, 2]).unwrap().applied);

        // Oracle: retrain-equivalent — the exact merged collection.
        let merged = merged_collection(&mc.base(), &mc.state.read().unwrap().overlay, mc.vocab);
        for q in [vec![1u32], vec![1, 2], vec![3], vec![0], vec![4]] {
            let got = mc.query(&q).value;
            let want = merged.cardinality(&q) as f64;
            assert_eq!(got, want, "query {q:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cardinality_clamps_at_zero_after_delete_heavy_delta() {
        let dir = tmp_dir("card-clamp");
        let base = base();
        // Model over-estimates slightly (1.3); both [1,2] base rows get
        // deleted, so the raw sum would be 1.3 - 2 = -0.7.
        let (mc, _) = MutableCollection::open(ConstCard(1.3), base, &dir).unwrap();
        assert!(mc.delete(&[1, 2]).unwrap().applied);
        assert!(mc.delete(&[1, 2]).unwrap().applied);
        assert!(!mc.delete(&[1, 2]).unwrap().applied, "no third occurrence");
        let got = mc.query(&[1, 2]);
        assert_eq!(got.value, 0.0, "sum-correction clamps at 0, not -0.7");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_and_bloom_merges_are_exact_for_appends() {
        let dir = tmp_dir("idx-bloom");
        let base = base();
        let (mc, _) =
            MutableCollection::open(ExactFirst(Arc::clone(&base)), Arc::clone(&base), &dir)
                .unwrap();
        // [3] exists nowhere in the base; append two supersets.
        assert!(mc.query(&[3]).value.is_none());
        assert!(mc.query(&[3]).bound_miss);
        mc.insert(&[3, 4]).unwrap();
        mc.insert(&[0, 3]).unwrap();
        let got = mc.query(&[3]);
        assert_eq!(got.value, Some(4), "first appended position, base_len + slot");
        assert!(!got.bound_miss, "an overlay hit clears the expected base miss");
        // Base hits still win the first-fold.
        assert_eq!(mc.query(&[0, 1]).value, Some(0));
        // The merge does not read base deletes: a deleted base row's
        // position is served until compaction renumbers the collection.
        assert!(mc.delete(&[0, 1]).unwrap().applied);
        assert_eq!(mc.query(&[0, 1]).value, Some(0), "stale until compaction");

        let dir2 = tmp_dir("bloom-or");
        let (mb, _) =
            MutableCollection::open(ExactBloom(Arc::clone(&base)), base, &dir2).unwrap();
        assert!(!mb.query(&[3]).value);
        mb.insert(&[3, 4]).unwrap();
        assert!(mb.query(&[3]).value, "inserted member found immediately");
        // Deleting a base row does not unlearn membership until compaction.
        mb.delete(&[0, 1]).unwrap();
        assert!(mb.query(&[0, 1]).value);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn merge_keeps_model_degradation_flags() {
        let d = OverlayAnswer { cardinality_delta: 2, ..Default::default() };
        let model = QueryOutcome {
            value: 5.0,
            fallback: Some(FallbackReason::NonFinite),
            bound_miss: false,
        };
        let merged = ConstCard(5.0).fold(model, ConstCard(5.0).overlay(&d));
        assert_eq!(merged.value, 7.0);
        assert_eq!(merged.fallback, Some(FallbackReason::NonFinite));
    }

    #[test]
    fn recovery_rebuilds_the_exact_overlay() {
        let dir = tmp_dir("recover");
        let base_c = base();
        {
            let (mc, report) =
                MutableCollection::open(ExactCard(Arc::clone(&base_c)), Arc::clone(&base_c), &dir)
                    .unwrap();
            assert_eq!(report.replayed, 0);
            mc.insert(&[1, 2, 3]).unwrap();
            mc.insert(&[3, 4]).unwrap();
            mc.delete(&[0, 1]).unwrap();
            // Dropped without compaction: everything lives in the WAL.
        }
        let (mc, report) =
            MutableCollection::open(ExactCard(Arc::clone(&base_c)), base_c, &dir).unwrap();
        assert_eq!(report.replayed, 3);
        assert_eq!(report.skipped, 0);
        assert_eq!(mc.query(&[3]).value, 2.0, "both appended supersets of [3] survive");
        assert_eq!(mc.query(&[0, 1]).value, 1.0, "delete of one of two [0,*] rows survives");
        let stats = mc.delta_stats();
        assert_eq!(stats.pending_ops, 3);
        assert_eq!(stats.live_inserts, 2);
        assert_eq!(stats.deleted_base_rows, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_prefers_the_latest_live_insert_then_caps_at_base_occurrences() {
        let dir = tmp_dir("delete-order");
        let base = base();
        let (mc, _) = MutableCollection::open(ExactCard(Arc::clone(&base)), base, &dir).unwrap();
        mc.insert(&[1, 2]).unwrap();
        // Supersets of {1,2}: two exact base copies, [0,1,2], and the
        // appended copy = 4. Only exact-set occurrences are deletable
        // (1 appended + 2 base), so three deletes apply and [0,1,2] stays.
        assert_eq!(mc.query(&[1, 2]).value, 4.0);
        for expect in [3.0, 2.0, 1.0] {
            assert!(mc.delete(&[1, 2]).unwrap().applied);
            assert_eq!(mc.query(&[1, 2]).value, expect);
        }
        let ack = mc.delete(&[1, 2]).unwrap();
        assert!(!ack.applied, "fourth delete is a durable no-op");
        assert_eq!(mc.query(&[1, 2]).value, 1.0, "[0,1,2] still contains the subset");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_the_delta_and_prunes_the_wal() {
        let dir = tmp_dir("compact");
        let base_c = base();
        let (mc, _) =
            MutableCollection::open(ExactCard(Arc::clone(&base_c)), base_c, &dir).unwrap();
        mc.insert(&[3, 4]).unwrap();
        mc.delete(&[1, 2]).unwrap();
        let before = mc.query(&[1]).value;

        let snapshot = mc.begin_compaction().unwrap().expect("delta pending");
        assert_eq!(snapshot.merged.len(), 4, "4 base - 1 delete + 1 insert");
        // A mutation racing the retrain: must survive the swap.
        mc.insert(&[2, 3]).unwrap();
        let retrained = ExactCard(Arc::new(SetCollection::new(
            snapshot.merged.sets().iter().map(|s| s.to_vec()).collect(),
            5,
        )));
        mc.complete_compaction(retrained, snapshot).unwrap();

        assert_eq!(mc.query(&[1]).value, before, "answers unchanged across the fold");
        assert_eq!(mc.query(&[2, 3]).value, 1.0, "the racing [2,3] insert survived the swap");
        let stats = mc.delta_stats();
        assert_eq!(stats.pending_ops, 1, "only the racing insert is still pending");
        assert_eq!(stats.base_len, 4);

        // The WAL dropped the replayed segments: a fresh open replays only
        // the racing insert.
        drop(mc);
        let reopened_base = Arc::new(SetCollection::new(
            vec![vec![0, 1], vec![0, 1, 2], vec![1, 2], vec![3, 4]],
            5,
        ));
        let (_mc, report) =
            MutableCollection::open(ExactCard(Arc::clone(&reopened_base)), reopened_base, &dir)
                .unwrap();
        assert_eq!(report.replayed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_compaction_is_a_noop_and_validation_rejects_before_logging() {
        let dir = tmp_dir("noop");
        let base = base();
        let (mc, _) = MutableCollection::open(ExactCard(Arc::clone(&base)), base, &dir).unwrap();
        assert!(mc.begin_compaction().unwrap().is_none());
        assert!(matches!(mc.insert(&[]), Err(MutateError::EmptySet)));
        assert!(matches!(
            mc.insert(&[1, 99]),
            Err(MutateError::OutOfVocab { id: 99, bound: 5 })
        ));
        assert_eq!(mc.delta_stats().pending_ops, 0, "rejected mutations never hit the WAL");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_into_matches_the_serve_side_merge() {
        let base = base();
        let records = vec![
            WalRecord { seq: 0, op: WalOp::Insert(vec![3, 4]) },
            WalRecord { seq: 1, op: WalOp::Delete(vec![1, 2]) },
            WalRecord { seq: 2, op: WalOp::Insert(vec![0, 4]) },
            WalRecord { seq: 3, op: WalOp::Insert(vec![9, 9]) }, // out of vocab
        ];
        let (merged, skipped) = replay_into(&base, &records);
        assert_eq!(skipped, 1);
        assert_eq!(merged.len(), 5);
        assert_eq!(merged.cardinality(&[4]), 2);
        assert_eq!(merged.cardinality(&[1, 2]), 2, "one of three [1,2]-supersets deleted");
    }

    #[test]
    fn sink_is_object_safe() {
        let dir = tmp_dir("sink");
        let base = base();
        let (mc, _) = MutableCollection::open(ExactCard(Arc::clone(&base)), base, &dir).unwrap();
        let sink: Arc<dyn MutableSink> = Arc::new(mc);
        assert!(sink.ingest(false, &[2, 3]).unwrap().applied);
        assert!(sink.ingest(true, &[2, 3]).unwrap().applied);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

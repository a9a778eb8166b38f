//! The inference engine: a [`ServableModel`] plus the neighbor path the
//! snapshot's `IndexKind` selects.
//!
//! * `IndexKind::Exact` — read-only exact search over the frozen corpus.
//!   Requests share the engine with no locking and the output is a pure
//!   function of (snapshot, request row): bitwise repeatable across
//!   reruns, thread counts, and request order.
//! * `IndexKind::Hnsw` — an owned-storage HNSW rebuilt deterministically
//!   from the snapshot corpus. Each request *inserts* its row (incremental
//!   update, the online path ISSUE 7 is about) and queries the updated
//!   index, filtering the result back to corpus ids so the prediction
//!   still conditions on the frozen training graph. Recall is bounded by
//!   `ef_search`, and because inserts mutate the link graph, neighbor sets
//!   are a function of the *request history* — the determinism contract
//!   for this path is "same snapshot + same request sequence → same
//!   responses", which the chaos suite exercises.
//!
//! # Bounding retained request rows
//!
//! Retained rows are bounded by the request cap either way, but what
//! happens at the bound depends on durability:
//!
//! * **Ephemeral** ([`Engine::new`] / [`Engine::with_request_cap`]): at
//!   [`DEFAULT_REQUEST_CAP`] the index is rebuilt from the frozen corpus
//!   snapshot — retained rows are simply shed (`serve.index_rebuilds`).
//!   This is the pre-durability behavior, byte-identical to PR 7/8.
//! * **Durable** ([`Engine::durable`]): every accepted row is first
//!   appended to a checksummed WAL (see [`crate::wal`]) and replayed on
//!   restart; at the cap the retained rows are *folded into the corpus*
//!   as a new snapshot generation ([`Engine::compact`], driven by
//!   [`EngineSlot::compact_if_needed`]) instead of thrown away.
//!
//! # Hot reload
//!
//! [`EngineSlot`] is the server's handle: an `Arc<Engine>` behind an
//! `RwLock`. In-flight requests keep the `Arc` they fetched and finish on
//! the old engine; a swap (compaction or `/admin/reload`) is one pointer
//! store. A snapshot that fails checksum/validation never swaps — the old
//! generation keeps serving.
//!
//! Either way the prediction itself is `predict_local_batch`: a
//! message-flow block over each row's `layers`-hop neighborhood in the
//! extended graph, so per-request cost is O(neighborhood), not O(corpus).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

use gnn4tdl::servable::{LocalPrediction, ServableModel};
use gnn4tdl_construct::{HnswIndex, IndexKind, NeighborIndex};
use gnn4tdl_tensor::{fault, obs, GnnError, Matrix};

use crate::wal::{StateDir, Wal};

/// Default for [`Engine::with_request_cap`]: how many request rows the
/// Hnsw index retains before it is rebuilt (ephemeral) or compacted into
/// the next snapshot generation (durable). Bounds server memory under
/// sustained traffic — without a cap every `/predict` permanently grows
/// the index.
pub const DEFAULT_REQUEST_CAP: usize = 4096;

/// The Hnsw-side mutable state, all behind one mutex: the index plus the
/// parallel record of accepted rows and the corpus neighbors each was
/// served with (the compaction fold set; left empty on ephemeral engines).
struct HnswState {
    index: HnswIndex<'static>,
    retained_rows: Vec<Vec<f32>>,
    retained_neighbors: Vec<Vec<usize>>,
}

/// Shared durable-state handles. The WAL mutex is the serialization point
/// for everything that touches disk state: appends hold it across the
/// index insert (lock order: wal → hnsw), and compaction/reload hold it
/// across snapshot install + WAL reset — so a row can never be acked
/// without being durable, and a snapshot can never be installed while a
/// row is halfway in.
struct Durability {
    state: StateDir,
    wal: Mutex<Wal>,
    /// Mirror of `Wal::records` readable without the mutex (healthz).
    wal_records: AtomicU64,
}

/// What [`Engine::durable`] found on startup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Generation of the snapshot serving resumed from.
    pub generation: u64,
    /// WAL rows replayed into the index.
    pub replayed: usize,
    /// 1 if a torn WAL tail was truncated.
    pub torn: u64,
    /// True when the WAL belonged to an older generation and was discarded
    /// (crash between snapshot install and WAL reset).
    pub stale: bool,
    /// Corrupt snapshot generations skipped before one loaded.
    pub snapshots_skipped: usize,
}

pub struct Engine {
    model: ServableModel,
    /// Present only under `IndexKind::Hnsw`; the mutex serializes inserts,
    /// and queries ride along. The insert + query held under it costs about
    /// twice a request's block forward (gnnbench serve-single: 0.36 vs 0.16
    /// of request time), so concurrent Hnsw requests queue on this lock,
    /// not on the forward.
    hnsw: Option<Mutex<HnswState>>,
    corpus_len: usize,
    /// Retained-request bound; see the module docs for the two behaviors.
    request_cap: usize,
    /// Requests answered (monotone; mirrors the `serve.requests` counter
    /// but survives `obs::reset`). Carried across compaction/reload swaps.
    served: AtomicU64,
    durability: Option<Arc<Durability>>,
    /// Unix seconds of the last compaction in this lineage (0 = never).
    last_compaction: AtomicU64,
}

impl Engine {
    /// Builds an ephemeral engine, reconstructing the approximate index
    /// from the snapshot corpus when the config asks for one. The rebuild
    /// is deterministic (seeded level draws), so two engines from the same
    /// snapshot start bitwise-identical.
    pub fn new(model: ServableModel) -> Result<Self, GnnError> {
        Self::with_request_cap(model, DEFAULT_REQUEST_CAP)
    }

    /// [`Self::new`] with an explicit bound on retained request rows.
    pub fn with_request_cap(model: ServableModel, request_cap: usize) -> Result<Self, GnnError> {
        Self::from_parts(model, request_cap, None)
    }

    /// Opens (or resumes) durable serving state: loads the newest valid
    /// snapshot generation from `state`, replays the WAL through the same
    /// insert path live requests take (bitwise-identical index, seeded
    /// level draws), and returns the engine plus what recovery found. A
    /// torn WAL tail is truncated and counted, never fatal; only an
    /// unreadable state dir or an empty one errors.
    pub fn durable(state: StateDir, request_cap: usize) -> Result<(Self, RecoveryStats), GnnError> {
        let (model, snapshots_skipped) = state.load_newest()?;
        Self::recover_with(model, state, request_cap, snapshots_skipped)
    }

    /// [`Self::durable`] with the snapshot already loaded (bootstrap path:
    /// install a fresh generation-0 snapshot, then recover against it).
    pub fn recover_with(
        model: ServableModel,
        state: StateDir,
        request_cap: usize,
        snapshots_skipped: usize,
    ) -> Result<(Self, RecoveryStats), GnnError> {
        let generation = model.generation;
        let in_dim = model.config.in_dim;
        let recovery = Wal::recover(&state.wal_path(), generation, in_dim)?;
        let durability = Arc::new(Durability {
            state,
            wal_records: AtomicU64::new(recovery.wal.records()),
            wal: Mutex::new(recovery.wal),
        });
        let engine = Self::from_parts(model, request_cap, Some(durability))?;
        let mut replayed = 0usize;
        if let Some(hnsw) = &engine.hnsw {
            let mut state = lock(hnsw);
            for row in &recovery.rows {
                // Re-attach exactly as the live path did. A row whose
                // neighbor query came up empty still mutated the index
                // when it was first accepted, so the error is ignored —
                // the insert is the part replay must reproduce.
                let _ = engine.attach_locked(&mut state, row, true);
                replayed += 1;
            }
        }
        let stats = RecoveryStats {
            generation,
            replayed,
            torn: recovery.torn,
            stale: recovery.stale,
            snapshots_skipped,
        };
        Ok((engine, stats))
    }

    fn from_parts(
        model: ServableModel,
        request_cap: usize,
        durability: Option<Arc<Durability>>,
    ) -> Result<Self, GnnError> {
        model.config.validate()?;
        let corpus_len = model.corpus_len();
        let hnsw = Self::build_hnsw(&model).map(|index| {
            Mutex::new(HnswState { index, retained_rows: Vec::new(), retained_neighbors: Vec::new() })
        });
        Ok(Engine {
            model,
            hnsw,
            corpus_len,
            request_cap: request_cap.max(1),
            served: AtomicU64::new(0),
            durability,
            last_compaction: AtomicU64::new(0),
        })
    }

    /// The owned-storage approximate index over the snapshot corpus, or
    /// `None` under `IndexKind::Exact`.
    fn build_hnsw(model: &ServableModel) -> Option<HnswIndex<'static>> {
        match model.config.index {
            IndexKind::Exact => None,
            IndexKind::Hnsw { m, ef_construction, ef_search, seed } => Some(HnswIndex::build_owned(
                &model.features,
                model.config.similarity,
                m,
                ef_construction,
                ef_search,
                seed,
            )),
        }
    }

    pub fn model(&self) -> &ServableModel {
        &self.model
    }

    pub fn in_dim(&self) -> usize {
        self.model.config.in_dim
    }

    pub fn num_classes(&self) -> usize {
        self.model.config.num_classes
    }

    pub fn corpus_len(&self) -> usize {
        self.corpus_len
    }

    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Snapshot generation this engine serves (0 for a fresh fit).
    pub fn generation(&self) -> u64 {
        self.model.generation
    }

    /// True when this engine persists accepted rows to a WAL.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Rows currently in the WAL (0 for ephemeral engines).
    pub fn wal_records(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.wal_records.load(Ordering::Relaxed))
    }

    /// Unix seconds of the last compaction in this serving lineage, 0 if
    /// none has happened yet.
    pub fn last_compaction(&self) -> u64 {
        self.last_compaction.load(Ordering::Relaxed)
    }

    /// Request rows currently retained in the Hnsw index (always 0 under
    /// `IndexKind::Exact`); bounded by the request cap (ephemeral: rebuild
    /// before the insert that would exceed it; durable: compacted right
    /// after the response that reached it).
    pub fn retained_requests(&self) -> usize {
        self.hnsw.as_ref().map_or(0, |m| lock(m).index.len() - self.corpus_len)
    }

    /// Rejects a request row before it can touch any engine state: wrong
    /// arity and non-finite values (a finite JSON number like 1e300 casts
    /// to `f32::INFINITY`) must never reach the index — an inserted
    /// non-finite row would poison link-graph pruning for every later
    /// request on this long-lived index.
    fn check_row(&self, row: &[f32]) -> Result<(), GnnError> {
        if row.len() != self.model.config.in_dim {
            return Err(GnnError::InvalidConfig {
                detail: format!(
                    "request row has {} features, model expects {}",
                    row.len(),
                    self.model.config.in_dim
                ),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(GnnError::NonFiniteFeature { column: "<request>".into(), row: 0 });
        }
        Ok(())
    }

    /// Corpus neighbor ids for one request row: the row check and the
    /// attachment `predict_batch` runs, for a batch of one (durable engines
    /// append the row to the WAL first).
    pub fn neighbors(&self, row: &[f32]) -> Result<Vec<usize>, GnnError> {
        self.check_row(row)?;
        Ok(self.attach(&[row.to_vec()])?.remove(0))
    }

    /// Corpus neighbor ids for already-checked request rows. Exact path:
    /// one read-only batch query. Hnsw path: insert-then-query per row with
    /// the just-inserted id excluded and earlier inserted rows filtered out
    /// (they are requests, not corpus). Durable engines first append the
    /// whole batch to the WAL — one write, one fsync, all or nothing — so an
    /// acked row is always recoverable and a failed batch leaves no row
    /// behind. Every row is attached even when one comes back without
    /// neighbors, because replay re-inserts every WAL row.
    fn attach(&self, rows: &[Vec<f32>]) -> Result<Vec<Vec<usize>>, GnnError> {
        let Some(hnsw) = &self.hnsw else {
            return Ok(self
                .model
                .exact_neighbors_batch(rows)
                .into_iter()
                .map(|hits| hits.into_iter().map(|(i, _)| i).collect())
                .collect());
        };
        // Lock order wal → hnsw: holding the WAL across the inserts means
        // compaction (which also takes the WAL first) can never observe a
        // row that is durable but not yet in the index, or vice versa.
        let _wal = match &self.durability {
            None => None,
            Some(durability) => {
                let mut wal = lock(&durability.wal);
                if wal.generation() != self.generation() {
                    // A compaction/reload swapped the slot after this
                    // request fetched its engine; its WAL stamp now belongs
                    // to a newer snapshot. Typed + retryable — the retry
                    // lands on the new engine.
                    return Err(GnnError::Io {
                        detail: "engine generation superseded mid-request; retry".into(),
                    });
                }
                wal.append_all(rows)?;
                durability.wal_records.store(wal.records(), Ordering::Relaxed);
                Some(wal)
            }
        };
        let record = self.durability.is_some();
        let mut state = lock(hnsw);
        let sets: Vec<Result<Vec<usize>, GnnError>> = rows
            .iter()
            .map(|row| {
                if !record && state.index.len() - self.corpus_len >= self.request_cap {
                    // Ephemeral memory bound: shed the accumulated request
                    // rows by rebuilding from the frozen corpus snapshot.
                    // Seeded level draws make the rebuilt index identical
                    // to the engine's starting one.
                    obs::counter_add("serve.index_rebuilds", 1);
                    state.index = Self::build_hnsw(&self.model).expect("hnsw engine has an Hnsw config");
                }
                self.attach_locked(&mut state, row, record)
            })
            .collect();
        sets.into_iter().collect()
    }

    /// Insert-then-query against the locked Hnsw state; `record` keeps the
    /// row + its served neighbors for the compaction fold set.
    fn attach_locked(
        &self,
        state: &mut HnswState,
        row: &[f32],
        record: bool,
    ) -> Result<Vec<usize>, GnnError> {
        let k = self.model.config.k;
        let id = state.index.insert(row)?;
        let inserted = id + 1 - self.corpus_len;
        let q = Matrix::from_vec(1, row.len(), row.to_vec());
        // Widen the beam so earlier request rows occupying the top of the
        // result list cannot starve the corpus ids; capped at k extra for
        // the common case.
        let mut beam = k + inserted.min(k);
        let hits = state.index.query_k(&q, 0, beam, Some(id));
        let mut ids = Self::corpus_hits(hits, self.corpus_len, k);
        // More retained request rows than the widened beam can absorb
        // (e.g. a flood of near-duplicates): retry with the beam doubled,
        // up to room for *all* of them, so k corpus ids must survive the
        // filter whenever the beam finds that many nodes. A query costs
        // O(beam), so doubling keeps a crowded index's retries cheap where
        // asking for every retained row at once cost O(retained rows).
        while ids.len() < k && beam < k + inserted {
            obs::counter_add("serve.neighbor_retries", 1);
            beam = (2 * beam).min(k + inserted);
            let hits = state.index.query_k(&q, 0, beam, Some(id));
            ids = Self::corpus_hits(hits, self.corpus_len, k);
        }
        if ids.is_empty() {
            obs::counter_add("serve.neighbors_empty", 1);
            return Err(GnnError::Io {
                detail: "no corpus neighbors survived the request-row filter; retry".into(),
            });
        }
        if record {
            state.retained_rows.push(row.to_vec());
            state.retained_neighbors.push(ids.clone());
        }
        Ok(ids)
    }

    /// Hnsw hits → at most `k` corpus ids (request rows filtered out).
    fn corpus_hits(hits: Vec<(usize, f32)>, corpus_len: usize, k: usize) -> Vec<usize> {
        hits.into_iter().map(|(i, _)| i).filter(|&i| i < corpus_len).take(k).collect()
    }

    /// One request row → local-subgraph prediction: [`Self::predict_batch`]
    /// of one row.
    pub fn predict(&self, row: &[f32]) -> Result<LocalPrediction, GnnError> {
        Ok(self.predict_batch(&[row.to_vec()])?.remove(0))
    }

    /// Batch request: rows are independent (each attaches to the corpus on
    /// its own; batch rows never edge to each other). Every row passes the
    /// per-request fault site (the chaos suite fails requests there; the
    /// server maps the error to a typed 503) and the row check before any
    /// engine state changes. Neighbor attachment then stays sequential —
    /// insert order is part of the Hnsw determinism contract — and the
    /// forward passes are fused into one block-diagonal
    /// `predict_local_batch` call, which is bitwise-identical to the
    /// row-by-row passes while letting the batched kernels tile the work.
    pub fn predict_batch(&self, rows: &[Vec<f32>]) -> Result<Vec<LocalPrediction>, GnnError> {
        for row in rows {
            fault::io_failpoint("serve.request")
                .map_err(|e| GnnError::Io { detail: format!("injected request fault: {e}") })?;
            self.check_row(row)?;
        }
        let neighbor_sets = self.attach(rows)?;
        let predictions = self.model.predict_local_batch(rows, &neighbor_sets)?;
        self.served.fetch_add(rows.len() as u64, Ordering::Relaxed);
        obs::counter_add("serve.predictions", rows.len() as u64);
        Ok(predictions)
    }

    /// True when a durable engine's retained rows have reached the cap and
    /// should be folded into the next snapshot generation.
    pub fn needs_compaction(&self) -> bool {
        self.durability.is_some() && self.retained_requests() >= self.request_cap
    }

    /// Folds the retained rows into a new snapshot generation: write +
    /// verify `snapshot-{gen+1}.gsrv` (the old generation stays until the
    /// new one proves readable), truncate the WAL, and return the
    /// next-generation engine for the slot to swap in. Holds the WAL lock
    /// throughout, so no accepted row can fall between the fold set and
    /// the reset; requests that arrive mid-compaction block on the WAL
    /// mutex and land in the *new* WAL era (or get a typed retryable error
    /// if their engine handle is already stale).
    pub fn compact(&self) -> Result<Engine, GnnError> {
        let durability = self.durability.clone().ok_or_else(|| GnnError::InvalidConfig {
            detail: "compaction requires a durable engine".into(),
        })?;
        let _span = gnn4tdl_tensor::span!("serve.compact");
        let mut wal = lock(&durability.wal);
        if wal.generation() != self.generation() {
            return Err(GnnError::Io { detail: "engine generation superseded; compaction skipped".into() });
        }
        let (rows, neighbors) = {
            let state = lock(self.hnsw.as_ref().expect("durable compaction implies an Hnsw index"));
            (state.retained_rows.clone(), state.retained_neighbors.clone())
        };
        let folded = if rows.is_empty() {
            // Degenerate: the index grew only by rows whose neighbor query
            // failed (nothing servable to fold). Shed them like the
            // ephemeral rebuild would, under a fresh WAL era.
            let mut model = clone_via_bytes(&self.model)?;
            model.generation = self.generation() + 1;
            model
        } else {
            self.model.compacted(&rows, &neighbors)?
        };
        durability.state.install(&folded)?;
        wal.reset(folded.generation)?;
        durability.wal_records.store(0, Ordering::Relaxed);
        drop(wal);
        let engine = Engine::from_parts(folded, self.request_cap, Some(durability))?;
        engine.served.store(self.served(), Ordering::Relaxed);
        engine.last_compaction.store(unix_now(), Ordering::Relaxed);
        obs::counter_add("serve.compactions", 1);
        Ok(engine)
    }

    fn request_cap(&self) -> usize {
        self.request_cap
    }
}

/// Mutex helper: a poisoned lock means another request panicked mid-use;
/// the guarded structures stay structurally valid (links and vecs are
/// appended monotonically), so serving continues.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn unix_now() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

/// Snapshot-container round trip as a deep clone (ServableModel holds a
/// parameter store + bound encoder that have no plain `Clone`).
fn clone_via_bytes(model: &ServableModel) -> Result<ServableModel, GnnError> {
    ServableModel::from_bytes(&model.to_bytes())
}

/// The server's engine handle: hot-swappable behind an `RwLock<Arc<_>>`.
///
/// Readers ([`EngineSlot::current`]) take the read lock for one `Arc`
/// clone — nanoseconds — and keep using their engine even if a swap lands
/// mid-request. Writers (compaction, `/admin/reload`) build and validate
/// the replacement *before* taking the write lock, so the swap itself is
/// a pointer store and failures leave the old generation serving.
pub struct EngineSlot {
    current: RwLock<Arc<Engine>>,
    /// Serializes administrative transitions (compaction and reload), so
    /// two concurrent `/admin/reload`s cannot interleave install/reset.
    admin: Mutex<()>,
}

impl EngineSlot {
    pub fn new(engine: Engine) -> Arc<Self> {
        Arc::new(EngineSlot { current: RwLock::new(Arc::new(engine)), admin: Mutex::new(()) })
    }

    /// The engine serving new requests right now.
    pub fn current(&self) -> Arc<Engine> {
        Arc::clone(&self.current.read().unwrap_or_else(|p| p.into_inner()))
    }

    fn swap(&self, next: Engine) -> Arc<Engine> {
        let next = Arc::new(next);
        *self.current.write().unwrap_or_else(|p| p.into_inner()) = Arc::clone(&next);
        next
    }

    /// Runs a compaction if the current engine has reached its cap.
    /// Returns whether a new generation was installed. Called by the
    /// server after each response (cheap when below the cap) and once at
    /// startup (a restarted server may recover already-at-cap).
    pub fn compact_if_needed(&self) -> Result<bool, GnnError> {
        let _admin = lock(&self.admin);
        let current = self.current();
        if !current.needs_compaction() {
            return Ok(false);
        }
        let next = current.compact()?;
        self.swap(next);
        Ok(true)
    }

    /// Hot reload. With a path: load + validate that snapshot (checksum
    /// failures are typed errors that leave the old generation serving),
    /// stamp it as the next generation, persist it as the new durable
    /// state (durable engines), and swap. Without a path: rescan the
    /// state dir for a generation newer than the serving one (the
    /// "retrained and redeployed" flow — drop the new snapshot into the
    /// state dir, then POST /admin/reload).
    ///
    /// Returns the generation now serving. In-flight requests finish on
    /// the engine they started with; only new requests see the swap.
    pub fn reload(&self, snapshot: Option<&Path>) -> Result<u64, GnnError> {
        let _admin = lock(&self.admin);
        let current = self.current();
        let next = match snapshot {
            Some(path) => {
                let mut model = ServableModel::load(path)?;
                // Monotone lineage: an external snapshot (often generation
                // 0 straight from `fit`) must still flip the visible
                // generation.
                model.generation = model.generation.max(current.generation() + 1);
                match &current.durability {
                    Some(durability) => {
                        let mut wal = lock(&durability.wal);
                        durability.state.install(&model)?;
                        wal.reset(model.generation)?;
                        durability.wal_records.store(0, Ordering::Relaxed);
                        drop(wal);
                        Engine::from_parts(model, current.request_cap(), Some(durability.clone()))?
                    }
                    None => Engine::from_parts(model, current.request_cap(), None)?,
                }
            }
            None => {
                let durability = current.durability.clone().ok_or_else(|| GnnError::InvalidConfig {
                    detail: "reload without a snapshot path requires a durable engine (--state-dir)".into(),
                })?;
                let (model, _skipped) = durability.state.load_newest()?;
                if model.generation <= current.generation() {
                    return Err(GnnError::InvalidConfig {
                        detail: format!(
                            "no snapshot newer than serving generation {} in the state dir",
                            current.generation()
                        ),
                    });
                }
                let mut wal = lock(&durability.wal);
                wal.reset(model.generation)?;
                durability.wal_records.store(0, Ordering::Relaxed);
                drop(wal);
                Engine::from_parts(model, current.request_cap(), Some(durability))?
            }
        };
        next.served.store(current.served(), Ordering::Relaxed);
        next.last_compaction.store(current.last_compaction(), Ordering::Relaxed);
        let generation = next.generation();
        self.swap(next);
        obs::counter_add("serve.reloads", 1);
        Ok(generation)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! Every test that reaches an io failpoint (`serve.request`,
    //! `wal.append`, `servable.load`, or the `atomic_write` trip) takes
    //! `fault::TEST_MUTEX`: the fault plan is process-global, so a
    //! concurrent test arming io-fail would otherwise fail its requests.

    use super::*;
    use gnn4tdl::servable::{ServableConfig, ServableModel};
    use gnn4tdl::EncoderSpec;
    use gnn4tdl_construct::Similarity;
    use gnn4tdl_data::synth::{gaussian_clusters, ClustersConfig};
    use gnn4tdl_data::{encode_all, Split, Target};
    use gnn4tdl_train::TrainConfig;
    use rand::{rngs::StdRng, SeedableRng};

    pub(crate) fn fitted(index: IndexKind) -> ServableModel {
        let mut rng = StdRng::seed_from_u64(5);
        let ds = gaussian_clusters(
            &ClustersConfig {
                n: 80,
                informative: 6,
                noise_features: 2,
                classes: 3,
                cluster_std: 0.7,
                ..ClustersConfig::default()
            },
            &mut rng,
        );
        let labels = match &ds.target {
            Target::Classification { labels, .. } => labels.clone(),
            _ => unreachable!(),
        };
        let features = encode_all(&ds.table).features;
        let split = Split::stratified(&labels, 0.6, 0.2, &mut rng);
        let config = ServableConfig {
            encoder: EncoderSpec::Gcn,
            in_dim: features.cols(),
            hidden: 8,
            layers: 2,
            num_classes: 3,
            dropout: 0.0,
            k: 5,
            similarity: Similarity::Euclidean,
            index,
        };
        ServableModel::fit(
            features,
            labels,
            &split,
            config,
            &TrainConfig { epochs: 10, ..TrainConfig::default() },
        )
        .unwrap()
    }

    fn hnsw_kind() -> IndexKind {
        IndexKind::Hnsw { m: 8, ef_construction: 32, ef_search: 24, seed: 7 }
    }

    fn state_dir(name: &str) -> StateDir {
        let dir = std::env::temp_dir().join(format!("gnn4tdl-engine-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StateDir::new(&dir).unwrap()
    }

    fn req_row(engine: &Engine, step: usize) -> Vec<f32> {
        (0..engine.in_dim()).map(|i| ((i + step) as f32 * 0.23).sin()).collect()
    }

    #[test]
    fn exact_engine_is_stateless_and_repeatable() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let engine = Engine::new(fitted(IndexKind::Exact)).unwrap();
        let row: Vec<f32> = (0..engine.in_dim()).map(|i| (i as f32 * 0.37).sin()).collect();
        let a = engine.predict(&row).unwrap();
        let b = engine.predict(&row).unwrap();
        assert_eq!(a, b, "exact path must be bitwise repeatable");
        assert_eq!(a.proba.len(), 3);
        assert!((a.proba.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(engine.served(), 2);
    }

    #[test]
    fn hnsw_engine_inserts_and_filters_to_corpus_ids() {
        let engine = Engine::new(fitted(hnsw_kind())).unwrap();
        let corpus = engine.corpus_len();
        for step in 0..4 {
            let row: Vec<f32> = (0..engine.in_dim()).map(|i| ((i + step) as f32 * 0.21).cos()).collect();
            let neighbors = engine.neighbors(&row).unwrap();
            assert!(!neighbors.is_empty());
            assert!(neighbors.iter().all(|&i| i < corpus), "request rows must never become neighbors");
            engine.model().predict_local(&row, &neighbors).unwrap();
        }
    }

    #[test]
    fn bad_rows_are_rejected_before_index_mutation() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let engine = Engine::new(fitted(hnsw_kind())).unwrap();
        let mut row = vec![0.5f32; engine.in_dim()];
        row[1] = f32::INFINITY; // what a finite JSON 1e300 becomes after the f32 cast
        assert!(engine.predict(&row).is_err());
        row[1] = f32::NAN;
        assert!(engine.predict(&row).is_err());
        assert!(engine.predict(&vec![0.0f32; engine.in_dim() + 1]).is_err());
        assert_eq!(engine.retained_requests(), 0, "rejected rows must never enter the index");
    }

    #[test]
    fn request_cap_bounds_retained_rows_via_rebuild() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let engine = Engine::with_request_cap(fitted(hnsw_kind()), 8).unwrap();
        for step in 0..30 {
            let row = req_row(&engine, step);
            let p = engine.predict(&row).unwrap();
            assert_eq!(p.proba.len(), 3);
            assert!(engine.retained_requests() <= 8, "memory bound must hold under sustained traffic");
        }
    }

    #[test]
    fn near_duplicate_floods_still_yield_corpus_neighbors() {
        // Cap far above the flood so the retry path (not the rebuild) is
        // what keeps corpus ids in the result.
        let engine = Engine::with_request_cap(fitted(hnsw_kind()), 256).unwrap();
        let base: Vec<f32> = (0..engine.in_dim()).map(|i| (i as f32 * 0.31).cos()).collect();
        for step in 0..40 {
            let mut row = base.clone();
            row[0] += step as f32 * 1e-4;
            let neighbors = engine.neighbors(&row).unwrap();
            assert!(!neighbors.is_empty(), "request rows crowding the beam must not empty the result");
            assert!(neighbors.iter().all(|&i| i < engine.corpus_len()));
        }
    }

    #[test]
    fn batch_matches_singles() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let engine = Engine::new(fitted(IndexKind::Exact)).unwrap();
        let rows: Vec<Vec<f32>> = (0..3)
            .map(|r| (0..engine.in_dim()).map(|i| ((i * (r + 2)) as f32 * 0.11).sin()).collect())
            .collect();
        let batch = engine.predict_batch(&rows).unwrap();
        for (row, out) in rows.iter().zip(&batch) {
            assert_eq!(&engine.predict(row).unwrap(), out);
        }
    }

    #[test]
    fn hnsw_batch_matches_singles_on_twin_engines() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        // Two engines from the same snapshot start bitwise-identical; one
        // serves the rows as a batch, the other one by one. The Hnsw
        // contract is per-sequence, so equality must hold row for row.
        let model = fitted(hnsw_kind());
        let twin = clone_via_bytes(&model).unwrap();
        let batch_engine = Engine::new(model).unwrap();
        let single_engine = Engine::new(twin).unwrap();
        let rows: Vec<Vec<f32>> = (0..6).map(|s| req_row(&batch_engine, s)).collect();
        let batch = batch_engine.predict_batch(&rows).unwrap();
        for (row, out) in rows.iter().zip(&batch) {
            assert_eq!(&single_engine.predict(row).unwrap(), out, "batch vs singles diverged");
        }
    }

    #[test]
    fn durable_engine_replays_wal_bitwise() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let state = state_dir("replay");
        let model = fitted(hnsw_kind());
        state.install(&model).unwrap();
        let (engine, stats) = Engine::durable(state, 64).unwrap();
        assert_eq!(
            stats,
            RecoveryStats { generation: 0, replayed: 0, torn: 0, stale: false, snapshots_skipped: 0 }
        );

        // Serve some rows, then "crash" (drop without compaction).
        let mut responses = Vec::new();
        for step in 0..6 {
            responses.push(engine.predict(&req_row(&engine, step)).unwrap());
        }
        assert_eq!(engine.wal_records(), 6);
        let dir = engine.durability.as_ref().unwrap().state.path().to_path_buf();
        drop(engine);

        // A restarted engine replays the WAL and continues identically to
        // an uninterrupted twin.
        let (restarted, stats) = Engine::durable(StateDir::new(&dir).unwrap(), 64).unwrap();
        assert_eq!(stats.replayed, 6);
        assert_eq!(stats.torn, 0);
        let state2 = state_dir("replay-twin");
        state2.install(&fitted(hnsw_kind())).unwrap();
        let (uninterrupted, _) = Engine::durable(state2, 64).unwrap();
        for step in 0..6 {
            uninterrupted.predict(&req_row(&uninterrupted, step)).unwrap();
        }
        for step in 6..10 {
            let row = req_row(&restarted, step);
            assert_eq!(
                restarted.predict(&row).unwrap(),
                uninterrupted.predict(&row).unwrap(),
                "recovered engine diverged at step {step}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(uninterrupted.durability.as_ref().unwrap().state.path());
    }

    #[test]
    fn compaction_folds_and_restarts_identically() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let state = state_dir("compact");
        let model = fitted(hnsw_kind());
        state.install(&model).unwrap();
        let dir = state.path().to_path_buf();
        let slot = EngineSlot::new(Engine::recover_with(model, state, 4, 0).unwrap().0);

        for step in 0..4 {
            slot.current().predict(&req_row(&slot.current(), step)).unwrap();
            slot.compact_if_needed().unwrap();
        }
        let compacted = slot.current();
        assert_eq!(compacted.generation(), 1, "cap of 4 must have triggered one compaction");
        assert_eq!(compacted.corpus_len(), 84, "4 retained rows folded into 80 corpus rows");
        assert_eq!(compacted.wal_records(), 0);
        assert!(compacted.last_compaction() > 0);

        // Post-crash restart resumes from the compacted generation …
        let (restarted, stats) = Engine::durable(StateDir::new(&dir).unwrap(), 4).unwrap();
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.replayed, 0);
        // … and serves identically to the live compacted engine.
        for step in 10..13 {
            let row = req_row(&restarted, step);
            assert_eq!(restarted.predict(&row).unwrap(), compacted.predict(&row).unwrap());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_swaps_generation_and_rejects_corrupt_snapshots() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let slot = EngineSlot::new(Engine::new(fitted(hnsw_kind())).unwrap());
        assert_eq!(slot.current().generation(), 0);

        let dir = std::env::temp_dir().join(format!("gnn4tdl-reload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("next.gsrv");
        fitted(hnsw_kind()).save(&good).unwrap();

        // Corrupt snapshot: typed rejection, old generation untouched.
        let bad = dir.join("bad.gsrv");
        let mut bytes = std::fs::read(&good).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&bad, &bytes).unwrap();
        let before = slot.current();
        assert!(slot.reload(Some(&bad)).is_err());
        assert!(Arc::ptr_eq(&before, &slot.current()), "failed reload must not swap");

        // Valid snapshot: generation flips, old Arc keeps working for
        // in-flight holders.
        let old = slot.current();
        let generation = slot.reload(Some(&good)).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(slot.current().generation(), 1);
        let row = req_row(&old, 3);
        old.predict(&row).unwrap(); // in-flight request on the pre-swap engine
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_append_fault_is_typed_and_keeps_serving() {
        let _guard = fault::TEST_MUTEX.lock().unwrap_or_else(|p| p.into_inner());
        let state = state_dir("append-fault");
        let model = fitted(hnsw_kind());
        state.install(&model).unwrap();
        let dir = state.path().to_path_buf();
        let (engine, _) = Engine::durable(state, 64).unwrap();
        engine.predict(&req_row(&engine, 0)).unwrap();
        {
            // Drive `neighbors` directly: `predict` would trip its own
            // `serve.request` failpoint before the WAL is ever reached.
            let _fault = fault::arm_guard(fault::FaultKind::IoFail, 7, 1.0);
            let err = engine.neighbors(&req_row(&engine, 1)).unwrap_err();
            assert!(matches!(err, GnnError::Io { .. }), "append fault must be a typed 503-class error");
        }
        // The failed row is neither durable nor in the index; serving
        // continues and the next row lands cleanly.
        assert_eq!(engine.wal_records(), 1);
        assert_eq!(engine.retained_requests(), 1);
        engine.predict(&req_row(&engine, 2)).unwrap();
        assert_eq!(engine.wal_records(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Unified neighbor-search API: every kNN-shaped construction path
//! (`knn_edges`, `knn_distances`, `candidate_edges`, `metric_graph`, the
//! baselines kNN predictor) goes through one [`NeighborIndex`] trait, so the
//! exact blocked-GEMM search and the sub-quadratic approximate HNSW index
//! are interchangeable at every call site.
//!
//! Two backends, selected by [`IndexKind`]:
//!
//! - [`IndexKind::Exact`] — the O(n²) blocked-GEMM search from PR 3,
//!   bit-for-bit identical to the historical `knn_edges`/`knn_distances`
//!   output (same panel blocking, same `select_nth_unstable_by` partial
//!   selection, same tie behavior). The default everywhere.
//! - [`IndexKind::Hnsw`] — a from-scratch deterministic HNSW
//!   (Malkov & Yashunin 2016): a layered skip-list-style proximity graph
//!   with geometric level draws. Construction is sequential and seeded;
//!   queries are read-only greedy searches with fixed tie-breaking, so
//!   results are bitwise identical at any thread count and across
//!   identically-seeded rebuilds.
//!
//! # Determinism contract
//!
//! Level draws are [`gnn4tdl_tensor::splitmix64`] hash streams keyed
//! `(seed, node)` — the generator `NeighborSampler` and `tensor::fault` use, so a
//! rebuild with the same seed over the same rows reproduces the identical
//! layer assignment with no mutable RNG state. Every comparison inside the
//! search breaks similarity ties by ascending node id via `f32::total_cmp`,
//! so the greedy frontier (and with it the returned neighbor lists) is a
//! pure function of `(features, m, ef, seed)`.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use gnn4tdl_tensor::{kernel, obs, parallel, splitmix64, GnnError, Matrix};

use crate::similarity::{row_sq_norms, Similarity};

/// Neighbor-search backend selector, threaded through
/// `PipelineConfig::builder().knn_index(..)` and the `*_with` construction
/// entry points.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IndexKind {
    /// Exact blocked-GEMM all-pairs search (O(n²); bitwise-compatible with
    /// the pre-index `knn_edges`).
    Exact,
    /// Approximate hierarchical navigable small world index (sub-quadratic
    /// construction, recall gated by `ef_search`).
    Hnsw {
        /// Max links per node on the upper layers (layer 0 keeps `2m`).
        m: usize,
        /// Beam width of the candidate search during insertion.
        ef_construction: usize,
        /// Beam width of the candidate search at query time (clamped up to
        /// the requested `k`).
        ef_search: usize,
        /// Seed of the splitmix64 level-draw stream.
        seed: u64,
    },
}

impl IndexKind {
    /// A human-readable backend name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Exact => "exact",
            IndexKind::Hnsw { .. } => "hnsw",
        }
    }

    /// Validates the backend parameters against the `k` that will be
    /// queried. Returns a typed [`GnnError::InvalidConfig`] for unusable
    /// settings: `m = 0` (no links — the graph cannot be navigated),
    /// a zero beam width, or `ef_search < k` (the search can never return
    /// the `k` neighbors the caller asked for).
    pub fn validate(&self, k: usize) -> Result<(), GnnError> {
        match *self {
            IndexKind::Exact => Ok(()),
            IndexKind::Hnsw { m, ef_construction, ef_search, .. } => {
                if m == 0 {
                    return Err(GnnError::InvalidConfig {
                        detail: "hnsw index needs m >= 1 (links per node)".into(),
                    });
                }
                if ef_construction == 0 {
                    return Err(GnnError::InvalidConfig {
                        detail: "hnsw index needs ef_construction >= 1".into(),
                    });
                }
                if ef_search == 0 {
                    return Err(GnnError::InvalidConfig { detail: "hnsw index needs ef_search >= 1".into() });
                }
                if ef_search < k {
                    return Err(GnnError::InvalidConfig {
                        detail: format!("hnsw ef_search ({ef_search}) must be >= k ({k})"),
                    });
                }
                Ok(())
            }
        }
    }
}

/// A built neighbor index over the rows of one feature matrix.
///
/// Both query methods return `(corpus_row, similarity)` pairs sorted by
/// descending similarity with ascending-id tie-breaks, never more than `k`
/// of them, and never the excluded id. The similarity values are computed
/// through the same GEMM identity (`finish_dot`) on both backends, so an
/// exact and an approximate result for the same pair are bitwise equal.
pub trait NeighborIndex: Sync {
    /// Number of indexed corpus rows.
    fn len(&self) -> usize;

    /// True when the index holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Backend name (`"exact"` / `"hnsw"`) for reports.
    fn kind_name(&self) -> &'static str;

    /// The `k` most similar corpus rows to row `qrow` of `q` (an external
    /// query matrix — `q` need not be the indexed corpus), optionally
    /// excluding one corpus id (used for self-queries).
    fn query_k(&self, q: &Matrix, qrow: usize, k: usize, exclude: Option<usize>) -> Vec<(usize, f32)>;

    /// Self-query of every corpus row: row `i` of the result holds the `k`
    /// nearest *other* corpus rows of row `i`. This is the bulk path behind
    /// `knn_edges`/`knn_distances`; backends parallelize it over row chunks
    /// whose boundaries depend only on `n`.
    fn query_all(&self, k: usize) -> Vec<Vec<(usize, f32)>>;
}

/// Builds the requested index over the rows of `features`. The returned
/// trait object borrows `features`; building is O(n·d) for
/// [`IndexKind::Exact`] (row norms only) and O(n · ef_construction · m · d)
/// for [`IndexKind::Hnsw`].
pub fn build_index<'a>(
    features: &'a Matrix,
    similarity: Similarity,
    kind: &IndexKind,
) -> Box<dyn NeighborIndex + 'a> {
    let _span = gnn4tdl_tensor::span!("construct.index.build");
    match *kind {
        IndexKind::Exact => Box::new(ExactIndex::new(features, similarity)),
        IndexKind::Hnsw { m, ef_construction, ef_search, seed } => {
            Box::new(HnswIndex::build(features, similarity, m, ef_construction, ef_search, seed))
        }
    }
}

// ---------------------------------------------------------------------------
// Exact backend
// ---------------------------------------------------------------------------

/// Splits `0..n` into row blocks of ~`per_block` similarity evaluations,
/// sized from `n` only so block boundaries (and with them the flattened
/// edge order) never depend on the worker count.
pub(crate) fn row_blocks(n: usize, per_block: usize) -> Vec<(usize, usize)> {
    let rows_per_block = per_block.div_ceil(n.max(1)).clamp(1, n.max(1));
    (0..n).step_by(rows_per_block).map(|r0| (r0, (r0 + rows_per_block).min(n))).collect()
}

/// Element budget of one kNN score panel (`block_rows x n`): bounds the
/// working memory of the GEMM-based neighbor search at ~256 KiB per panel
/// while keeping each matmul large enough to parallelize well. Blocks are
/// sized from `n` only, never from the worker count.
const KNN_PANEL_ELEMS: usize = 1 << 16;

/// Copies rows `r0..r1` of `x` into a fresh matrix — the left-hand panel
/// of one blocked GEMM.
fn row_panel(x: &Matrix, r0: usize, r1: usize) -> Matrix {
    let w = x.cols();
    let mut out = Matrix::zeros(r1 - r0, w);
    out.data_mut().copy_from_slice(&x.data()[r0 * w..r1 * w]);
    out
}

/// Partial-selects the top `take` pairs by descending similarity in place
/// (ties compare `Equal`, exactly like the historical `knn_edges`), then
/// sorts the kept head by descending similarity with ascending-id
/// tie-breaks — the [`NeighborIndex`] row contract.
fn select_top_k(scored: &mut [(usize, f32)], k: usize) -> Vec<(usize, f32)> {
    let take = k.min(scored.len());
    if take == 0 {
        return Vec::new();
    }
    let pivot = take - 1;
    scored.select_nth_unstable_by(pivot, |a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
    let top = &mut scored[..take];
    top.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    top.to_vec()
}

/// The exact blocked-GEMM backend: the PR 3 neighbor search behind the
/// [`NeighborIndex`] trait. `query_all` reproduces the historical
/// `knn_edges` selection bit for bit (same panel loop, same comparator,
/// same per-chunk parallel map).
pub struct ExactIndex<'a> {
    features: &'a Matrix,
    similarity: Similarity,
    sq: Vec<f32>,
}

impl<'a> ExactIndex<'a> {
    pub fn new(features: &'a Matrix, similarity: Similarity) -> Self {
        let sq = row_sq_norms(features);
        Self { features, similarity, sq }
    }
}

impl NeighborIndex for ExactIndex<'_> {
    fn len(&self) -> usize {
        self.features.rows()
    }

    fn kind_name(&self) -> &'static str {
        "exact"
    }

    fn query_k(&self, q: &Matrix, qrow: usize, k: usize, exclude: Option<usize>) -> Vec<(usize, f32)> {
        let n = self.features.rows();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let qv = q.row(qrow);
        // Accumulate the query norm in the same sequential order as the
        // matmul reduction so self-similarity is exact.
        let sq_q = qv.iter().map(|&a| a * a).sum::<f32>();
        let mut scored: Vec<(usize, f32)> = Vec::with_capacity(n);
        // Four rows per step: `dot4` interleaves four independent
        // ascending-k chains, so each dot is bitwise identical to the plain
        // sequential sum while the adds overlap.
        let mut j = 0;
        while j + 4 <= n {
            let f = self.features;
            let dots = kernel::dot4(qv, f.row(j), f.row(j + 1), f.row(j + 2), f.row(j + 3));
            for (off, &dot) in dots.iter().enumerate() {
                if exclude != Some(j + off) {
                    scored.push((j + off, self.similarity.finish_dot(sq_q, self.sq[j + off], dot)));
                }
            }
            j += 4;
        }
        for j in j..n {
            if exclude == Some(j) {
                continue;
            }
            let dot = qv.iter().zip(self.features.row(j)).map(|(&a, &b)| a * b).sum::<f32>();
            scored.push((j, self.similarity.finish_dot(sq_q, self.sq[j], dot)));
        }
        select_top_k(&mut scored, k)
    }

    fn query_all(&self, k: usize) -> Vec<Vec<(usize, f32)>> {
        let _span = gnn4tdl_tensor::span!("construct.index.query_all");
        let n = self.features.rows();
        if n == 0 || k == 0 {
            return vec![Vec::new(); n];
        }
        let xt = self.features.transpose();
        let sq = &self.sq;
        let mut out: Vec<Vec<(usize, f32)>> = Vec::with_capacity(n);
        for &(r0, r1) in &row_blocks(n, KNN_PANEL_ELEMS) {
            let panel = row_panel(self.features, r0, r1);
            let scores = panel.matmul(&xt);
            let chunks = row_blocks(r1 - r0, 1 << 14);
            let per_chunk = parallel::par_map(&chunks, |_, &(c0, c1)| {
                let mut rows = Vec::with_capacity(c1 - c0);
                let mut scored: Vec<(usize, f32)> = Vec::with_capacity(n.saturating_sub(1));
                for local in c0..c1 {
                    let i = r0 + local;
                    let dots = scores.row(local);
                    scored.clear();
                    for j in 0..n {
                        if i != j {
                            scored.push((j, self.similarity.finish_dot(sq[i], sq[j], dots[j])));
                        }
                    }
                    rows.push(select_top_k(&mut scored, k));
                }
                rows
            });
            out.extend(per_chunk.into_iter().flatten());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// HNSW backend
// ---------------------------------------------------------------------------

/// Geometric level draw keyed `(seed, node)`: `floor(-ln(U) · 1/ln(m))`
/// with `U` uniform in (0, 1) from the hash stream — the standard HNSW
/// layer distribution, reproducible with no RNG state.
fn draw_level(seed: u64, node: usize, m: usize) -> usize {
    let h = splitmix64(seed ^ splitmix64(node as u64));
    // 53 high bits -> uniform (0, 1), never exactly 0
    let u = ((h >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0);
    let ml = 1.0 / (m.max(2) as f64).ln();
    ((-u.ln() * ml) as usize).min(MAX_LEVEL)
}

/// Hard cap on the layer count (fits u8 storage; ~m^24 nodes would be
/// needed to populate more).
const MAX_LEVEL: usize = 24;

/// Search-frontier entry ordered "nearest first": greater = more similar,
/// similarity ties broken toward the smaller node id so every heap
/// operation is a total, deterministic order.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Cand {
    sim_bits: u32,
    id: u32,
}

impl Cand {
    fn new(sim: f32, id: u32) -> Self {
        Self { sim_bits: sim.to_bits(), id }
    }

    fn sim(&self) -> f32 {
        f32::from_bits(self.sim_bits)
    }
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sim().total_cmp(&other.sim()).then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable per-worker search state: the visited stamps, both beam heaps,
/// and the batched-similarity buffers survive across queries (clearing a
/// heap or vec keeps its allocation), so a bulk `query_all` pays no
/// per-query allocator traffic.
struct SearchScratch {
    visited: Visited,
    frontier: BinaryHeap<Cand>,
    best: BinaryHeap<Reverse<Cand>>,
    /// Neighbor ids of the node being expanded (post-visited filter).
    batch: Vec<u32>,
    /// Gathered neighbor rows in k-major layout (`panel[k*b + t]`).
    panel: Vec<f32>,
    /// One dot-product accumulator per batched neighbor.
    acc: Vec<f32>,
    /// Finished similarities, parallel to `batch`.
    sims: Vec<f32>,
}

/// Hints the prefetcher at `ptr` (no-op off x86_64). The beam search is
/// bound by the latency of scattered feature-row reads, not by compute:
/// issuing the loads for a whole neighbor batch before the visited filter
/// runs lets the misses resolve in parallel instead of one per dot product.
#[inline(always)]
fn prefetch<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a pure performance hint; it cannot fault even on
    // a dangling address and never dereferences `ptr` architecturally.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

impl SearchScratch {
    fn new(n: usize) -> Self {
        Self {
            visited: Visited::new(n),
            frontier: BinaryHeap::new(),
            best: BinaryHeap::new(),
            batch: Vec::new(),
            panel: Vec::new(),
            acc: Vec::new(),
            sims: Vec::new(),
        }
    }

    /// Grows the visited set to cover `n` nodes. New stamps start at 0,
    /// which can never equal a live epoch (epochs are bumped to >= 1 before
    /// any lookup), so growing mid-life preserves query semantics.
    fn ensure(&mut self, n: usize) {
        if self.visited.stamp.len() < n {
            self.visited.stamp.resize(n, 0);
        }
    }
}

impl Default for SearchScratch {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Epoch-stamped visited set: clearing is one counter bump, not an O(n)
/// wipe, so per-query overhead stays flat.
struct Visited {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Visited {
    fn new(n: usize) -> Self {
        Self { stamp: vec![0; n], epoch: 0 }
    }

    fn next_query(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `id`; returns true the first time it is seen this query.
    fn insert(&mut self, id: u32) -> bool {
        let s = &mut self.stamp[id as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }
}

/// Feature storage of an [`HnswIndex`]: either a borrowed corpus matrix
/// (the zero-copy construction path used everywhere at build time) or an
/// owned row-major buffer that can grow — the storage behind the public
/// post-build [`HnswIndex::insert`]. Both variants expose the same
/// `rows`/`cols`/`row` accessors, so every search routine is agnostic to
/// which one backs the index.
enum FeatStore<'a> {
    Borrowed(&'a Matrix),
    Owned { data: Vec<f32>, rows: usize, cols: usize },
}

impl FeatStore<'_> {
    fn rows(&self) -> usize {
        match self {
            FeatStore::Borrowed(m) => m.rows(),
            FeatStore::Owned { rows, .. } => *rows,
        }
    }

    fn cols(&self) -> usize {
        match self {
            FeatStore::Borrowed(m) => m.cols(),
            FeatStore::Owned { cols, .. } => *cols,
        }
    }

    fn row(&self, i: usize) -> &[f32] {
        match self {
            FeatStore::Borrowed(m) => m.row(i),
            FeatStore::Owned { data, cols, .. } => &data[i * cols..(i + 1) * cols],
        }
    }

    /// Appends one row; only the owned variant can grow.
    fn push_row(&mut self, row: &[f32]) {
        match self {
            FeatStore::Borrowed(_) => unreachable!("push_row on borrowed feature storage"),
            FeatStore::Owned { data, rows, .. } => {
                data.extend_from_slice(row);
                *rows += 1;
            }
        }
    }

    /// Squared row norms in the exact per-row reduction order of
    /// `row_sq_norms`, so owned and borrowed builds stay bitwise equal.
    fn sq_norms(&self) -> Vec<f32> {
        (0..self.rows()).map(|i| self.row(i).iter().map(|&a| a * a).sum::<f32>()).collect()
    }
}

/// From-scratch deterministic HNSW index. Construction inserts rows in
/// ascending id order (sequential — the insertion loop mutates the layered
/// graph); queries are read-only and parallelize over row chunks.
pub struct HnswIndex<'a> {
    features: FeatStore<'a>,
    similarity: Similarity,
    sq: Vec<f32>,
    m: usize,
    /// Layer-0 link budget (`2m`, per the HNSW paper).
    m0: usize,
    /// Beam width used at construction time; post-build [`Self::insert`]
    /// reuses it so an incrementally grown index is indistinguishable from
    /// one built over the full corpus.
    ef_construction: usize,
    ef_search: usize,
    seed: u64,
    /// Per-node top layer.
    levels: Vec<u8>,
    /// Flat layer-0 adjacency: node `i` owns
    /// `layer0[i*m0 .. i*m0 + count0[i]]`.
    layer0: Vec<u32>,
    count0: Vec<u32>,
    /// Sparse upper-layer adjacency: `upper[upper_ids[i]][l-1]` holds node
    /// `i`'s links at layer `l` (only nodes with `levels[i] > 0` appear).
    upper_ids: Vec<u32>,
    upper: Vec<Vec<Vec<u32>>>,
    entry: u32,
    max_level: usize,
    /// Reused by [`Self::insert`] so a long-lived owned index pays no
    /// per-insert allocation for the beam-search state (the visited stamps
    /// alone are O(corpus + inserted)).
    insert_scratch: SearchScratch,
}

impl<'a> HnswIndex<'a> {
    /// Builds the index by inserting every row of `features` in id order.
    /// Records one `construct.hnsw.insert` count per row and the total
    /// greedy-frontier expansions under `construct.hnsw.hops`. The index
    /// borrows `features`; see [`Self::build_owned`] for an index that can
    /// grow after construction.
    pub fn build(
        features: &'a Matrix,
        similarity: Similarity,
        m: usize,
        ef_construction: usize,
        ef_search: usize,
        seed: u64,
    ) -> Self {
        Self::build_impl(FeatStore::Borrowed(features), similarity, m, ef_construction, ef_search, seed)
    }

    fn build_impl(
        features: FeatStore<'a>,
        similarity: Similarity,
        m: usize,
        ef_construction: usize,
        ef_search: usize,
        seed: u64,
    ) -> Self {
        let _span = gnn4tdl_tensor::span!("construct.hnsw.build");
        assert!(m >= 1, "hnsw m must be positive");
        assert!(ef_construction >= 1, "hnsw ef_construction must be positive");
        assert!(ef_search >= 1, "hnsw ef_search must be positive");
        let n = features.rows();
        let m0 = m * 2;
        let sq = features.sq_norms();
        let mut index = Self {
            features,
            similarity,
            sq,
            m,
            m0,
            ef_construction,
            ef_search,
            seed,
            levels: vec![0; n],
            layer0: vec![u32::MAX; n * m0],
            count0: vec![0; n],
            upper_ids: vec![u32::MAX; n],
            upper: Vec::new(),
            entry: 0,
            max_level: 0,
            insert_scratch: SearchScratch::default(),
        };
        let mut scratch = SearchScratch::new(n);
        let mut hops: u64 = 0;
        for i in 0..n {
            index.insert_node(i as u32, ef_construction, &mut scratch, &mut hops);
        }
        obs::counter_add("construct.hnsw.insert", n as u64);
        obs::counter_add("construct.hnsw.hops", hops);
        // Hand the warmed-up scratch to post-build inserts.
        index.insert_scratch = scratch;
        index
    }

    /// Builds an index that *owns* a copy of `features` and can therefore
    /// keep growing after construction via [`Self::insert`] — the online
    /// serving path, where unseen rows are folded into the proximity graph
    /// as they arrive. Bitwise-identical to [`Self::build`] over the same
    /// rows and parameters.
    pub fn build_owned(
        features: &Matrix,
        similarity: Similarity,
        m: usize,
        ef_construction: usize,
        ef_search: usize,
        seed: u64,
    ) -> HnswIndex<'static> {
        let store =
            FeatStore::Owned { data: features.data().to_vec(), rows: features.rows(), cols: features.cols() };
        HnswIndex::build_impl(store, similarity, m, ef_construction, ef_search, seed)
    }

    /// Appends one row to the corpus and links it into the layered graph —
    /// the incremental update behind online serving. Because construction
    /// is itself a sequence of these inserts and level draws are keyed
    /// `(seed, node)`, an index grown by `insert` is bitwise identical to
    /// one built from scratch over the concatenated rows with the same
    /// parameters. Returns the id of the new row.
    ///
    /// Only available on an index that owns its storage
    /// ([`Self::build_owned`]); a borrowing index returns a typed
    /// [`GnnError::InvalidConfig`].
    pub fn insert(&mut self, row: &[f32]) -> Result<usize, GnnError> {
        if matches!(self.features, FeatStore::Borrowed(_)) {
            return Err(GnnError::InvalidConfig {
                detail: "hnsw index borrows its corpus; build with build_owned for incremental inserts"
                    .into(),
            });
        }
        if row.len() != self.features.cols() {
            return Err(GnnError::InvalidConfig {
                detail: format!(
                    "insert row has {} features, index corpus has {}",
                    row.len(),
                    self.features.cols()
                ),
            });
        }
        let node = self.features.rows();
        self.features.push_row(row);
        self.sq.push(row.iter().map(|&a| a * a).sum::<f32>());
        self.levels.push(0);
        self.layer0.extend(std::iter::repeat_n(u32::MAX, self.m0));
        self.count0.push(0);
        self.upper_ids.push(u32::MAX);
        // Reuse the persistent scratch (taken out to satisfy the borrow
        // checker — `insert_node` needs `&mut self` alongside it).
        let mut scratch = std::mem::take(&mut self.insert_scratch);
        scratch.ensure(self.features.rows());
        let mut hops: u64 = 0;
        self.insert_node(node as u32, self.ef_construction, &mut scratch, &mut hops);
        self.insert_scratch = scratch;
        obs::counter_add("construct.hnsw.insert", 1);
        obs::counter_add("construct.hnsw.hops", hops);
        Ok(node)
    }

    /// Similarity between corpus rows `i` and `j`, through the same
    /// `finish_dot` identity as the exact backend (bitwise-equal values).
    fn sim_rows(&self, i: u32, j: u32) -> f32 {
        let (i, j) = (i as usize, j as usize);
        let dot = self.features.row(i).iter().zip(self.features.row(j)).map(|(&a, &b)| a * b).sum::<f32>();
        self.similarity.finish_dot(self.sq[i], self.sq[j], dot)
    }

    /// Similarity of an external query row to corpus row `j`.
    fn sim_query(&self, qv: &[f32], sq_q: f32, j: u32) -> f32 {
        let dot = qv.iter().zip(self.features.row(j as usize)).map(|(&a, &b)| a * b).sum::<f32>();
        self.similarity.finish_dot(sq_q, self.sq[j as usize], dot)
    }

    fn neighbors(&self, node: u32, layer: usize) -> &[u32] {
        if layer == 0 {
            let base = node as usize * self.m0;
            &self.layer0[base..base + self.count0[node as usize] as usize]
        } else {
            let uid = self.upper_ids[node as usize] as usize;
            &self.upper[uid][layer - 1]
        }
    }

    /// Similarities of `scratch.batch` corpus rows to the query, left in
    /// `scratch.sims`. The rows are gathered into a k-major panel
    /// (`panel[k*b + t]`) so the multiply loop vectorizes across the batch
    /// instead of serializing on one accumulator's add-latency chain —
    /// while each pair's accumulator still sums in ascending-k order, the
    /// exact reduction order of [`Self::sim_query`] and the GEMM path, so
    /// every value stays bitwise identical.
    fn sim_batch(&self, qv: &[f32], sq_q: f32, scratch: &mut SearchScratch) {
        let b = scratch.batch.len();
        if b == 0 {
            scratch.sims.clear();
            return;
        }
        let d = self.features.cols();
        if scratch.panel.len() < b * d {
            scratch.panel.resize(b * d, 0.0);
        }
        // Transpose the candidate rows into a k-major panel (`panel[k*b+t]`
        // holds feature `k` of lane `t`). Every `(k, t)` cell is written
        // below, so the panel never needs zero-filling.
        for (t, &j) in scratch.batch.iter().enumerate() {
            for (k, &x) in self.features.row(j as usize).iter().enumerate() {
                scratch.panel[k * b + t] = x;
            }
        }
        scratch.acc.clear();
        scratch.acc.resize(b, 0.0);
        // k-outer accumulation over contiguous lanes through the selected
        // micro-kernel: each lane `acc[t]` still sums in ascending-k order
        // (bitwise identical to the scalar dot and the blocked GEMM), but
        // the inner loop runs 8 lanes per vector instead of one
        // accumulator's add-latency chain.
        kernel::dot_kmajor(kernel::select(), qv, &scratch.panel[..d * b], b, &mut scratch.acc);
        scratch.sims.clear();
        for (t, &j) in scratch.batch.iter().enumerate() {
            scratch.sims.push(self.similarity.finish_dot(sq_q, self.sq[j as usize], scratch.acc[t]));
        }
    }

    /// Greedy hill-climb at one layer: moves to the best neighbor until no
    /// neighbor improves on the current `(similarity, id)` key.
    fn greedy(
        &self,
        qv: &[f32],
        sq_q: f32,
        mut ep: u32,
        layer: usize,
        scratch: &mut SearchScratch,
        hops: &mut u64,
    ) -> u32 {
        let mut best = self.sim_query(qv, sq_q, ep);
        loop {
            *hops += 1;
            scratch.batch.clear();
            scratch.batch.extend_from_slice(self.neighbors(ep, layer));
            for &v in &scratch.batch {
                prefetch(self.features.row(v as usize).as_ptr());
                prefetch(&self.sq[v as usize]);
            }
            self.sim_batch(qv, sq_q, scratch);
            let mut improved = false;
            for t in 0..scratch.batch.len() {
                let (v, s) = (scratch.batch[t], scratch.sims[t]);
                // v wins on higher similarity, or equal similarity and a
                // smaller id (monotone key: the climb cannot cycle).
                if s.total_cmp(&best).then_with(|| ep.cmp(&v)) == Ordering::Greater {
                    best = s;
                    ep = v;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// Beam search at one layer (algorithm 2 of the HNSW paper): expands
    /// the nearest unexpanded candidate until the frontier is provably
    /// worse than the `ef` best found. Returns the best `<= ef` nodes
    /// sorted nearest-first.
    #[allow(clippy::too_many_arguments)]
    fn search_layer(
        &self,
        qv: &[f32],
        sq_q: f32,
        ep: u32,
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch,
        hops: &mut u64,
    ) -> Vec<(u32, f32)> {
        scratch.visited.next_query();
        scratch.visited.insert(ep);
        let ep_sim = self.sim_query(qv, sq_q, ep);
        scratch.frontier.clear();
        scratch.best.clear();
        scratch.frontier.push(Cand::new(ep_sim, ep));
        scratch.best.push(Reverse(Cand::new(ep_sim, ep)));
        self.run_beam(qv, sq_q, ef, layer, scratch, hops)
    }

    /// The shared beam loop behind [`Self::search_layer`] and the
    /// self-seeded [`NeighborIndex::query_all`] fast path. Expects
    /// `scratch.visited`/`frontier`/`best` to be pre-seeded.
    fn run_beam(
        &self,
        qv: &[f32],
        sq_q: f32,
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch,
        hops: &mut u64,
    ) -> Vec<(u32, f32)> {
        while let Some(c) = scratch.frontier.pop() {
            // The worst of the best: once the nearest frontier node cannot
            // beat it, no reachable node can either.
            let worst = scratch.best.peek().expect("best set never empty").0.sim();
            if scratch.best.len() == ef && c.sim().total_cmp(&worst) == Ordering::Less {
                break;
            }
            *hops += 1;
            scratch.batch.clear();
            for &v in self.neighbors(c.id, layer) {
                if scratch.visited.insert(v) {
                    prefetch(self.features.row(v as usize).as_ptr());
                    prefetch(&self.sq[v as usize]);
                    scratch.batch.push(v);
                }
            }
            self.sim_batch(qv, sq_q, scratch);
            for t in 0..scratch.batch.len() {
                let (v, s) = (scratch.batch[t], scratch.sims[t]);
                let worst = scratch.best.peek().expect("best set never empty").0;
                if scratch.best.len() < ef
                    || s.total_cmp(&worst.sim()).then_with(|| worst.id.cmp(&v)) == Ordering::Greater
                {
                    scratch.frontier.push(Cand::new(s, v));
                    scratch.best.push(Reverse(Cand::new(s, v)));
                    if scratch.best.len() > ef {
                        scratch.best.pop();
                    }
                }
            }
        }
        let mut out: Vec<(u32, f32)> = scratch.best.drain().map(|Reverse(c)| (c.id, c.sim())).collect();
        out.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// The HNSW select-neighbors heuristic (algorithm 4): walk candidates
    /// nearest-first and keep one only if it is closer to the base point
    /// than to every already-kept neighbor — this preserves links across
    /// cluster gaps that plain closest-`m` truncation would drop. Skipped
    /// candidates backfill remaining slots in order.
    fn select_neighbors(&self, cands: &[(u32, f32)], m: usize) -> Vec<u32> {
        let mut selected: Vec<(u32, f32)> = Vec::with_capacity(m);
        let mut skipped: Vec<u32> = Vec::new();
        for &(v, sim_qv) in cands {
            if selected.len() >= m {
                break;
            }
            let dominated =
                selected.iter().any(|&(s, _)| self.sim_rows(v, s).total_cmp(&sim_qv) == Ordering::Greater);
            if dominated {
                skipped.push(v);
            } else {
                selected.push((v, sim_qv));
            }
        }
        let mut out: Vec<u32> = selected.into_iter().map(|(v, _)| v).collect();
        for v in skipped {
            if out.len() >= m {
                break;
            }
            out.push(v);
        }
        out
    }

    fn set_neighbors(&mut self, node: u32, layer: usize, links: &[u32]) {
        if layer == 0 {
            let base = node as usize * self.m0;
            let count = links.len().min(self.m0);
            self.layer0[base..base + count].copy_from_slice(&links[..count]);
            self.count0[node as usize] = count as u32;
        } else {
            let uid = self.upper_ids[node as usize] as usize;
            let list = &mut self.upper[uid][layer - 1];
            list.clear();
            list.extend_from_slice(&links[..links.len().min(self.m)]);
        }
    }

    /// Adds the reverse link `v -> node`; when `v`'s list overflows the
    /// layer budget it is re-selected with the same heuristic as forward
    /// links (plain closest-`budget` truncation would drop the bridge links
    /// between clusters and measurably hurt recall). Deterministic: the
    /// candidate order is (descending similarity, ascending id).
    fn link_back(&mut self, v: u32, node: u32, layer: usize) {
        let budget = if layer == 0 { self.m0 } else { self.m };
        if layer == 0 {
            let count = self.count0[v as usize] as usize;
            if count < budget {
                self.layer0[v as usize * self.m0 + count] = node;
                self.count0[v as usize] = (count + 1) as u32;
                return;
            }
        } else {
            let uid = self.upper_ids[v as usize] as usize;
            let list = &mut self.upper[uid][layer - 1];
            if list.len() < budget {
                list.push(node);
                return;
            }
        }
        // Overflow: re-run the select-neighbors heuristic over the current
        // links plus the newcomer, nearest-first.
        for &u in self.neighbors(v, layer) {
            prefetch(self.features.row(u as usize).as_ptr());
        }
        let mut scored: Vec<(u32, f32)> =
            self.neighbors(v, layer).iter().map(|&u| (u, self.sim_rows(v, u))).collect();
        scored.push((node, self.sim_rows(v, node)));
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let keep = self.select_neighbors(&scored, budget);
        self.set_neighbors(v, layer, &keep);
    }

    fn insert_node(
        &mut self,
        node: u32,
        ef_construction: usize,
        scratch: &mut SearchScratch,
        hops: &mut u64,
    ) {
        let level = draw_level(self.seed, node as usize, self.m);
        self.levels[node as usize] = level as u8;
        if level > 0 {
            self.upper_ids[node as usize] = self.upper.len() as u32;
            self.upper.push(vec![Vec::with_capacity(self.m); level]);
        }
        if node == 0 {
            self.entry = 0;
            self.max_level = level;
            return;
        }
        let mut ep = self.entry;
        // Copy the inserted row out: with owned storage the row borrows
        // `self`, which the link mutations below need mutably. One d-float
        // copy per insert is noise next to the beam search.
        let qv = self.features.row(node as usize).to_vec();
        let qv = qv.as_slice();
        let sq_q = self.sq[node as usize];
        // Zoom down through layers above the node's level with greedy hops.
        for l in ((level + 1)..=self.max_level).rev() {
            ep = self.greedy(qv, sq_q, ep, l, scratch, hops);
        }
        // Insert with a beam search per layer from the node's level down.
        for l in (0..=level.min(self.max_level)).rev() {
            let cands = self.search_layer(qv, sq_q, ep, ef_construction, l, scratch, hops);
            // New nodes get `m` forward links on every layer (per the paper;
            // hnswlib does the same) — the layer-0 cap of `2m` only bounds
            // how far reverse links can accumulate afterwards.
            let links = self.select_neighbors(&cands, self.m);
            self.set_neighbors(node, l, &links);
            for &v in &links {
                self.link_back(v, node, l);
            }
            ep = cands.first().map_or(ep, |&(v, _)| v);
        }
        if level > self.max_level {
            self.entry = node;
            self.max_level = level;
        }
    }

    /// Self-query fast path for corpus rows: seeds the layer-0 beam with
    /// the node's own links instead of descending from the global entry.
    /// The stored links already are (approximately) the node's nearest
    /// neighbors, so the beam starts saturated with strong candidates and
    /// terminates after far fewer expansions than a top-down search — and
    /// with better entries, not worse ones. The row itself is marked
    /// visited up front so it can never enter the result set.
    fn query_self(
        &self,
        i: usize,
        k: usize,
        scratch: &mut SearchScratch,
        hops: &mut u64,
    ) -> Vec<(usize, f32)> {
        let qv = self.features.row(i);
        let sq_q = self.sq[i];
        let ef = self.ef_search.max(k);
        scratch.visited.next_query();
        scratch.visited.insert(i as u32);
        scratch.frontier.clear();
        scratch.best.clear();
        scratch.batch.clear();
        for &v in self.neighbors(i as u32, 0) {
            if scratch.visited.insert(v) {
                prefetch(self.features.row(v as usize).as_ptr());
                prefetch(&self.sq[v as usize]);
                scratch.batch.push(v);
            }
        }
        if scratch.batch.is_empty() {
            // Linkless node (degenerate corpus): top-down search instead.
            return self.search(qv, sq_q, k, ef + 1, Some(i), scratch, hops);
        }
        self.sim_batch(qv, sq_q, scratch);
        for t in 0..scratch.batch.len() {
            let (v, s) = (scratch.batch[t], scratch.sims[t]);
            let accept = scratch.best.len() < ef || {
                let worst = scratch.best.peek().expect("best set never empty").0;
                s.total_cmp(&worst.sim()).then_with(|| worst.id.cmp(&v)) == Ordering::Greater
            };
            if accept {
                scratch.frontier.push(Cand::new(s, v));
                scratch.best.push(Reverse(Cand::new(s, v)));
                if scratch.best.len() > ef {
                    scratch.best.pop();
                }
            }
        }
        let found = self.run_beam(qv, sq_q, ef, 0, scratch, hops);
        found.into_iter().take(k).map(|(v, s)| (v as usize, s)).collect()
    }

    /// One full top-down query against the built graph. `ef` is clamped up
    /// to `k` by the callers via [`IndexKind::validate`]; self-queries pass
    /// `exclude` and an ef one larger so the excluded row cannot crowd out
    /// a real neighbor.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        qv: &[f32],
        sq_q: f32,
        k: usize,
        ef: usize,
        exclude: Option<usize>,
        scratch: &mut SearchScratch,
        hops: &mut u64,
    ) -> Vec<(usize, f32)> {
        let mut ep = self.entry;
        for l in (1..=self.max_level).rev() {
            ep = self.greedy(qv, sq_q, ep, l, scratch, hops);
        }
        let found = self.search_layer(qv, sq_q, ep, ef, 0, scratch, hops);
        let mut out: Vec<(usize, f32)> = Vec::with_capacity(k);
        for (v, s) in found {
            if exclude == Some(v as usize) {
                continue;
            }
            out.push((v as usize, s));
            if out.len() == k {
                break;
            }
        }
        out
    }

    /// Rows per parallel query chunk: fixed (never derived from the worker
    /// count) so `query_all` output and obs counters are thread-invariant.
    const QUERY_CHUNK_ROWS: usize = 2048;
}

impl NeighborIndex for HnswIndex<'_> {
    fn len(&self) -> usize {
        self.features.rows()
    }

    fn kind_name(&self) -> &'static str {
        "hnsw"
    }

    fn query_k(&self, q: &Matrix, qrow: usize, k: usize, exclude: Option<usize>) -> Vec<(usize, f32)> {
        let n = self.features.rows();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let qv = q.row(qrow);
        let sq_q = qv.iter().map(|&a| a * a).sum::<f32>();
        let ef = self.ef_search.max(k) + usize::from(exclude.is_some());
        let mut scratch = SearchScratch::new(n);
        let mut hops = 0u64;
        let out = self.search(qv, sq_q, k, ef, exclude, &mut scratch, &mut hops);
        obs::counter_add("construct.hnsw.hops", hops);
        out
    }

    fn query_all(&self, k: usize) -> Vec<Vec<(usize, f32)>> {
        let _span = gnn4tdl_tensor::span!("construct.index.query_all");
        let n = self.features.rows();
        if n == 0 || k == 0 {
            return vec![Vec::new(); n];
        }
        let chunks: Vec<(usize, usize)> = (0..n)
            .step_by(Self::QUERY_CHUNK_ROWS)
            .map(|r0| (r0, (r0 + Self::QUERY_CHUNK_ROWS).min(n)))
            .collect();
        let per_chunk = parallel::par_map(&chunks, |_, &(r0, r1)| {
            let mut scratch = SearchScratch::new(n);
            let mut hops = 0u64;
            let mut rows = Vec::with_capacity(r1 - r0);
            for i in r0..r1 {
                rows.push(self.query_self(i, k, &mut scratch, &mut hops));
            }
            obs::counter_add("construct.hnsw.hops", hops);
            rows
        });
        per_chunk.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random features without an RNG dependency.
    fn synthetic(n: usize, d: usize) -> Matrix {
        let mut m = Matrix::zeros(n, d);
        for i in 0..n {
            for j in 0..d {
                m.set(i, j, ((i * 31 + j * 17 + 3) as f32 * 0.7311).sin() * 2.0);
            }
        }
        m
    }

    #[test]
    fn validate_rejects_bad_hnsw_params() {
        let bad_m = IndexKind::Hnsw { m: 0, ef_construction: 10, ef_search: 10, seed: 0 };
        assert!(bad_m.validate(5).is_err());
        let bad_ef = IndexKind::Hnsw { m: 8, ef_construction: 10, ef_search: 3, seed: 0 };
        assert!(bad_ef.validate(5).is_err());
        let zero_efc = IndexKind::Hnsw { m: 8, ef_construction: 0, ef_search: 10, seed: 0 };
        assert!(zero_efc.validate(5).is_err());
        let ok = IndexKind::Hnsw { m: 8, ef_construction: 10, ef_search: 10, seed: 0 };
        assert!(ok.validate(5).is_ok());
        assert!(IndexKind::Exact.validate(1_000_000).is_ok());
    }

    #[test]
    fn exact_query_k_matches_query_all() {
        let x = synthetic(47, 5);
        let idx = ExactIndex::new(&x, Similarity::Euclidean);
        let all = idx.query_all(4);
        for (i, bulk) in all.iter().enumerate() {
            let single = idx.query_k(&x, i, 4, Some(i));
            assert_eq!(*bulk, single, "row {i} differs between bulk and single query");
        }
    }

    #[test]
    fn hnsw_exact_recall_on_small_corpus() {
        // With ef well above n the beam search degenerates to exhaustive:
        // recall must be 1 and similarity values bitwise-equal to exact.
        let x = synthetic(60, 4);
        let exact = ExactIndex::new(&x, Similarity::Euclidean).query_all(3);
        let hnsw = HnswIndex::build(&x, Similarity::Euclidean, 8, 128, 128, 7).query_all(3);
        assert_eq!(exact, hnsw);
    }

    #[test]
    fn hnsw_rebuild_is_bitwise_identical() {
        let x = synthetic(200, 6);
        let a = HnswIndex::build(&x, Similarity::Euclidean, 8, 32, 24, 42).query_all(5);
        let b = HnswIndex::build(&x, Similarity::Euclidean, 8, 32, 24, 42).query_all(5);
        assert_eq!(a, b);
    }

    #[test]
    fn hnsw_seed_changes_layers_not_quality() {
        let x = synthetic(150, 4);
        for seed in [0u64, 1, 99] {
            let idx = HnswIndex::build(&x, Similarity::Euclidean, 8, 48, 32, seed);
            let rows = idx.query_all(4);
            assert_eq!(rows.len(), 150);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row.len(), 4);
                assert!(row.iter().all(|&(j, _)| j != i), "seed {seed}: self in row {i}");
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = Matrix::zeros(0, 3);
        assert!(build_index(&empty, Similarity::Euclidean, &IndexKind::Exact).query_all(2).is_empty());
        let hnsw = IndexKind::Hnsw { m: 4, ef_construction: 8, ef_search: 8, seed: 0 };
        assert!(build_index(&empty, Similarity::Euclidean, &hnsw).query_all(2).is_empty());
        let single = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let idx = build_index(&single, Similarity::Euclidean, &hnsw);
        assert_eq!(idx.query_all(3), vec![Vec::<(usize, f32)>::new()]);
        assert_eq!(idx.query_k(&single, 0, 0, None), Vec::new());
    }

    #[test]
    fn insert_then_query_matches_rebuild_from_scratch() {
        // Construction is a sequence of inserts with (seed, node)-keyed
        // level draws, so growing an owned index by one row must reproduce
        // the from-scratch build over the concatenated corpus exactly.
        let full = synthetic(201, 6);
        let head = Matrix::from_vec(200, 6, full.data()[..200 * 6].to_vec());
        let mut grown = HnswIndex::build_owned(&head, Similarity::Euclidean, 8, 32, 24, 42);
        let id = grown.insert(full.row(200)).expect("insert on owned index");
        assert_eq!(id, 200);
        let rebuilt = HnswIndex::build(&full, Similarity::Euclidean, 8, 32, 24, 42);
        assert_eq!(
            grown.query_k(&full, 200, 5, Some(200)),
            rebuilt.query_k(&full, 200, 5, Some(200)),
            "inserted row's neighbors differ from the from-scratch build"
        );
        // The whole layered graph matches, not just the new row's links.
        assert_eq!(grown.query_all(5), rebuilt.query_all(5));
    }

    #[test]
    fn build_owned_matches_borrowed_build() {
        let x = synthetic(120, 5);
        let borrowed = HnswIndex::build(&x, Similarity::Cosine, 6, 24, 16, 9).query_all(4);
        let owned = HnswIndex::build_owned(&x, Similarity::Cosine, 6, 24, 16, 9).query_all(4);
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn insert_is_rejected_on_borrowed_index_and_bad_dims() {
        let x = synthetic(30, 4);
        let mut borrowed = HnswIndex::build(&x, Similarity::Euclidean, 4, 16, 8, 1);
        assert!(matches!(borrowed.insert(&[0.0; 4]), Err(GnnError::InvalidConfig { .. })));
        let mut owned = HnswIndex::build_owned(&x, Similarity::Euclidean, 4, 16, 8, 1);
        assert!(matches!(owned.insert(&[0.0; 3]), Err(GnnError::InvalidConfig { .. })));
        assert_eq!(owned.insert(&[0.5, 0.25, -1.0, 2.0]).unwrap(), 30);
        assert_eq!(owned.len(), 31);
    }

    #[test]
    fn level_draws_are_geometric_ish() {
        // Most nodes land on layer 0; the entry layer stays small.
        let counts = (0..10_000).map(|i| draw_level(3, i, 16)).collect::<Vec<_>>();
        let at0 = counts.iter().filter(|&&l| l == 0).count();
        assert!(at0 > 9_000, "expected ~93.75% of nodes at layer 0, got {at0}");
        assert!(counts.iter().all(|&l| l <= MAX_LEVEL));
    }
}

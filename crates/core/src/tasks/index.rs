//! Learned set index (paper §4.1) with the hybrid search of §6/Algorithm 2.
//!
//! The model regresses a query subset to its first position in the
//! (arbitrarily ordered) collection; per-range local error bounds turn the
//! estimate into a bounded scan window, and an auxiliary B+ tree answers the
//! outliers the model could not fit.

use crate::hybrid::{
    guided_train_hardened, FallbackReason, GuidedConfig, GuidedOutcome, LocalErrorBounds,
    ServeGuard,
};
use crate::kernel::{FrozenModel, KernelCell, Precision};
use crate::model::{DeepSets, DeepSetsConfig};
use crate::tasks::{LearnedSetStructure, QueryOutcome};
use serde::{Deserialize, Serialize};
use setlearn_baselines::{set_hash, BPlusTree};
use setlearn_data::{ElementSet, SetCollection, SubsetIndex, SupersetProbe};
use setlearn_nn::{Loss, LogMinMaxScaler, TrainPolicy, TrainReport};
use std::sync::Arc;

/// Which occurrence the index targets (paper §4.1 supports either).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PositionTarget {
    /// The first position containing the query subset.
    #[default]
    First,
    /// The last position containing the query subset.
    Last,
}

/// Training configuration for the learned set index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndexConfig {
    /// DeepSets hyper-parameters.
    pub model: DeepSetsConfig,
    /// Guided-learning schedule (`percentile = 1.0` = "No Removal").
    pub guided: GuidedConfig,
    /// Subset-enumeration cap. The paper generates *all* subsets for the
    /// index task to guarantee findability; the cap bounds that guarantee to
    /// queries of at most this many elements.
    pub max_subset_size: usize,
    /// Width of the local-error buckets (the paper uses 100).
    pub range_length: f64,
    /// Which occurrence to index.
    pub target: PositionTarget,
}

impl IndexConfig {
    /// Defaults: given model, 90th-percentile hybrid, subsets ≤ 4, range 100.
    pub fn new(model: DeepSetsConfig) -> Self {
        IndexConfig {
            model,
            guided: GuidedConfig::default(),
            max_subset_size: 4,
            range_length: 100.0,
            target: PositionTarget::First,
        }
    }
}

/// Result of a profiled lookup: the answer plus the work done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupProfile {
    /// First matching position, if found.
    pub position: Option<usize>,
    /// Window rows passed over by the local scan, up to and including the
    /// hit (the whole window on a miss; 0 when the auxiliary structure
    /// answered). Rows the signature check rejects count too.
    pub scanned: usize,
    /// Whether the auxiliary structure answered.
    pub from_aux: bool,
    /// Set when the model's estimate was rejected by the serve guard and the
    /// lookup degraded to an exact path (full scan for non-finite estimates,
    /// clamped window for out-of-bound ones).
    pub fallback: Option<FallbackReason>,
}

/// The hybrid learned set index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearnedSetIndex {
    model: DeepSets,
    scaler: LogMinMaxScaler,
    /// Outlier subsets (and §7.2 updates), keyed by set hash.
    aux: BPlusTree,
    bounds: LocalErrorBounds,
    max_subset_size: usize,
    target: PositionTarget,
    /// Serve-time guard over position estimates; absent in files persisted
    /// before guards existed (falls back to non-finite-only).
    #[serde(default)]
    guard: ServeGuard,
    /// Serve precision, recorded in checkpoints; files persisted before
    /// precision-aware kernels default to full precision.
    #[serde(default)]
    precision: Precision,
    /// Lazily frozen serving kernel (reset on any weight mutation).
    #[serde(skip)]
    kernel: KernelCell,
}

/// Build artifacts for reporting.
#[derive(Debug, Clone)]
pub struct IndexBuildReport {
    /// Loss per epoch.
    pub loss_history: Vec<f32>,
    /// Number of training subsets.
    pub training_subsets: usize,
    /// Subsets moved to the auxiliary tree.
    pub outliers: usize,
    /// Global max absolute error of the retained model predictions.
    pub global_error: f64,
    /// Mean local bound (what the scan actually pays, §8.3.3).
    pub mean_local_error: f64,
    /// Structured summary of the harnessed training run (recoveries,
    /// skipped batches, stop reason).
    pub train: TrainReport,
}

impl LearnedSetIndex {
    /// Enumerates subsets, trains with guided learning, exiles outliers to a
    /// B+ tree and computes local error bounds over the retained subsets.
    pub fn build(collection: &SetCollection, cfg: &IndexConfig) -> (Self, IndexBuildReport) {
        let subsets = SubsetIndex::build(collection, cfg.max_subset_size);
        Self::build_from_subsets(collection, &subsets, cfg)
    }

    /// Builds from pre-enumerated subset statistics.
    pub fn build_from_subsets(
        collection: &SetCollection,
        subsets: &SubsetIndex,
        cfg: &IndexConfig,
    ) -> (Self, IndexBuildReport) {
        let pairs = match cfg.target {
            PositionTarget::First => subsets.index_pairs(),
            PositionTarget::Last => subsets.index_pairs_last(),
        };
        assert!(!pairs.is_empty(), "no training subsets enumerated");
        let scaler = LogMinMaxScaler::from_range(0.0, collection.len().saturating_sub(1) as f64);
        let data: Vec<(ElementSet, f32)> =
            pairs.iter().map(|(s, p)| (s.clone(), scaler.scale(*p))).collect();

        let mut model = DeepSets::new(cfg.model.clone());
        let loss = Loss::QError { span: scaler.span() };
        let (GuidedOutcome { outlier_indices, loss_history }, train) =
            guided_train_hardened(&mut model, &data, loss, &cfg.guided, &TrainPolicy::default());

        // Exile outliers into the auxiliary B+ tree.
        let mut aux = BPlusTree::new(100);
        let outlier_set: std::collections::HashSet<usize> =
            outlier_indices.iter().copied().collect();
        for &i in &outlier_indices {
            aux.insert(set_hash(&pairs[i].0), pairs[i].1 as u32);
        }

        // Error bounds over the *retained* subsets: outliers are answered by
        // the tree, so they must not widen the scan windows.
        let retained: Vec<(f64, f64)> = pairs
            .iter()
            .enumerate()
            .filter(|(i, _)| !outlier_set.contains(i))
            .map(|(_, (s, p))| (scaler.unscale(model.predict_one(s)), *p))
            .collect();
        let bounds = if retained.is_empty() {
            // Degenerate hybrid: everything is in the tree.
            LocalErrorBounds::compute(&[(0.0, 0.0)], cfg.range_length)
        } else {
            LocalErrorBounds::compute(&retained, cfg.range_length)
        };

        let report = IndexBuildReport {
            loss_history,
            training_subsets: pairs.len(),
            outliers: outlier_indices.len(),
            global_error: bounds.global_bound(),
            mean_local_error: bounds.mean_bound(),
            train,
        };
        (
            LearnedSetIndex {
                model,
                scaler,
                aux,
                bounds,
                max_subset_size: cfg.max_subset_size,
                target: cfg.target,
                // Positions live in [0, len-1]; estimates outside are
                // clamped, non-finite ones trigger an exact full scan.
                guard: ServeGuard::new(0.0, collection.len().saturating_sub(1) as f64),
                precision: Precision::default(),
                kernel: KernelCell::new(),
            },
            report,
        )
    }

    /// Algorithm 2: auxiliary structure first, then model estimate + bounded
    /// local scan for the first position containing `q`.
    pub fn lookup(&self, collection: &SetCollection, q: &[u32]) -> Option<usize> {
        self.lookup_profiled(collection, q).position
    }

    fn aux_position(&self, q: &[u32]) -> Option<u32> {
        match self.target {
            PositionTarget::First => self.aux.first_position(set_hash(q)),
            PositionTarget::Last => self.aux.last_position(set_hash(q)),
        }
    }

    /// Scan window for a guarded estimate: `[lo, hi]` positions plus the
    /// fallback reason (if the guard rejected the raw estimate). A
    /// non-finite estimate widens the window to the whole collection — the
    /// exact, model-free degradation; an out-of-bound estimate is clamped
    /// into the position domain first.
    fn scan_window(&self, collection: &SetCollection, raw_est: f64) -> (usize, usize, Option<FallbackReason>) {
        let last = collection.len().saturating_sub(1);
        let (est, reason) = self.guard.admit_or_clamp(raw_est);
        if reason == Some(FallbackReason::NonFinite) {
            return (0, last, reason);
        }
        let e_r = self.bounds.bound_for(est);
        let lo = ((est - e_r).floor().max(0.0)) as usize;
        let hi = ((est + e_r).ceil() as usize).min(last);
        (lo, hi, reason)
    }

    /// [`LearnedSetIndex::lookup`] with scan-effort accounting.
    pub fn lookup_profiled(&self, collection: &SetCollection, q: &[u32]) -> LookupProfile {
        let start = crate::telemetry::query_start();
        let profile = self.lookup_profiled_inner(collection, q);
        let tele = crate::telemetry::index_tele();
        tele.record_query(start, profile.fallback);
        // A scan that exhausted its window without a hit means the local
        // error bound did not cover the answer (or the subset is absent).
        if profile.position.is_none() && !profile.from_aux {
            tele.record_bound_miss();
        }
        profile
    }

    fn lookup_profiled_inner(&self, collection: &SetCollection, q: &[u32]) -> LookupProfile {
        self.profile_from_score(collection, q, self.score_one(q))
    }

    /// The frozen serving kernel, freezing the current weights at
    /// [`LearnedSetIndex::precision`] on first use.
    pub fn kernel(&self) -> &FrozenModel {
        self.kernel.get_or_freeze(&self.model, self.precision)
    }

    /// One raw model score through the frozen kernel.
    fn score_one(&self, q: &[u32]) -> f32 {
        let kernel = self.kernel();
        let s = kernel.predict_one(q);
        crate::telemetry::index_tele().record_kernel(self.precision, kernel.take_blocks());
        s
    }

    /// The precision lookups are served at (recorded in checkpoints).
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Selects the serve precision; the kernel re-freezes from the current
    /// weights on the next lookup.
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
        self.kernel.reset();
    }

    /// The shared tail of every lookup path: auxiliary structure first
    /// (Algorithm 2 line 2), then guarded estimate + bounded local scan
    /// (lines 4–7). `score` is the model's raw (scaled) output for `q`,
    /// which lets the batch paths reuse a batched forward pass.
    fn profile_from_score(
        &self,
        collection: &SetCollection,
        q: &[u32],
        score: f32,
    ) -> LookupProfile {
        if let Some(pos) = self.aux_position(q) {
            return LookupProfile {
                position: Some(pos as usize),
                scanned: 0,
                from_aux: true,
                fallback: None,
            };
        }
        let (lo, hi, fallback) = self.scan_window(collection, self.scaler.unscale(score));
        let (position, scanned) = scan_rows(collection.superset_probe(q), lo, hi, self.target);
        LookupProfile { position, scanned, from_aux: false, fallback }
    }

    /// Maps pre-computed batch scores through the scan tail, recording batch
    /// telemetry once. Shared by the sequential and parallel batch paths so
    /// they agree bit-for-bit.
    fn profiles_for_scores<S: AsRef<[u32]>>(
        &self,
        collection: &SetCollection,
        queries: &[S],
        scores: Vec<f32>,
    ) -> Vec<LookupProfile> {
        let mut fallbacks = Vec::new();
        let profiles: Vec<LookupProfile> = queries
            .iter()
            .zip(scores)
            .map(|(q, s)| {
                let profile = self.profile_from_score(collection, q.as_ref(), s);
                fallbacks.extend(profile.fallback);
                profile
            })
            .collect();
        crate::telemetry::index_tele().record_batch(queries.len(), &fallbacks);
        profiles
    }

    /// Batched lookup with scan-effort accounting: one model forward pass
    /// for all queries, followed by per-query bounded scans.
    pub fn lookup_batch_profiled<S: AsRef<[u32]>>(
        &self,
        collection: &SetCollection,
        queries: &[S],
    ) -> Vec<LookupProfile> {
        if queries.is_empty() {
            return Vec::new();
        }
        let kernel = self.kernel();
        let scores = kernel.predict_batch(queries);
        crate::telemetry::index_tele().record_kernel(self.precision, kernel.take_blocks());
        self.profiles_for_scores(collection, queries, scores)
    }

    /// Raw model estimate of the position (no scan) — for accuracy metrics.
    pub fn estimate_position(&self, q: &[u32]) -> f64 {
        self.model_estimate_or_aux(q)
    }

    fn model_estimate_or_aux(&self, q: &[u32]) -> f64 {
        if let Some(pos) = self.aux_position(q) {
            return pos as f64;
        }
        self.scaler.unscale(self.score_one(q))
    }

    /// Registers a §7.2 update: the set now (also) appears at `pos`. Queries
    /// consult the auxiliary tree first, so the new position wins.
    pub fn record_update(&mut self, set: &[u32], pos: usize) {
        setlearn_data::set::for_each_subset(set, self.max_subset_size, |sub| {
            self.aux.insert(set_hash(sub), pos as u32);
        });
    }

    /// Fraction of known subsets served by the auxiliary tree; near 1.0 the
    /// hybrid has degenerated to a traditional index and should be rebuilt.
    pub fn aux_fraction(&self, training_subsets: usize) -> f64 {
        if training_subsets == 0 {
            return 1.0;
        }
        self.aux.len() as f64 / training_subsets as f64
    }

    /// The underlying model.
    pub fn model(&self) -> &DeepSets {
        &self.model
    }

    /// Mutable access to the underlying model, for weight hot-swapping
    /// (e.g. loading weights restored via [`crate::persist`]) and fault
    /// injection in tests. Serve-time guards keep answers finite even if the
    /// swapped weights are corrupt.
    pub fn model_mut(&mut self) -> &mut DeepSets {
        self.kernel.reset();
        &mut self.model
    }

    /// The local error bounds.
    pub fn bounds(&self) -> &LocalErrorBounds {
        &self.bounds
    }

    /// Which occurrence (first/last) this index was trained to return.
    pub fn target(&self) -> PositionTarget {
        self.target
    }

    /// The serve-time guard (fallback counters and bounds).
    pub fn serve_guard(&self) -> &ServeGuard {
        &self.guard
    }

    /// Number of entries in the auxiliary tree.
    pub fn aux_len(&self) -> usize {
        self.aux.len()
    }

    /// Model weight bytes.
    pub fn model_size_bytes(&self) -> usize {
        self.model.size_bytes()
    }

    /// Auxiliary-tree bytes.
    pub fn aux_size_bytes(&self) -> usize {
        self.aux.size_bytes()
    }

    /// Error-bound table bytes.
    pub fn bounds_size_bytes(&self) -> usize {
        self.bounds.size_bytes()
    }

    /// Total structure bytes (Table 7's Model + Aux.Str. + Err).
    pub fn size_bytes(&self) -> usize {
        self.model_size_bytes() + self.aux_size_bytes() + self.bounds_size_bytes()
    }
}

/// The last mile of Algorithm 2: the row in `[lo, hi]` nearest the
/// target's end of the window whose set contains the probe's query, plus
/// the number of window rows passed over to find it (the whole window on a
/// miss). First-occurrence queries scan upward, last-occurrence queries
/// downward; in both directions the first match is the true endpoint
/// whenever it lies inside the window (nothing beyond the endpoint
/// matches, by definition).
fn scan_rows(
    probe: SupersetProbe<'_>,
    lo: usize,
    hi: usize,
    target: PositionTarget,
) -> (Option<usize>, usize) {
    let found = match target {
        PositionTarget::First => (lo..=hi).find(|&i| probe.matches(i)),
        PositionTarget::Last => (lo..=hi).rev().find(|&i| probe.matches(i)),
    };
    let scanned = match (found, target) {
        (Some(i), PositionTarget::First) => i - lo + 1,
        (Some(i), PositionTarget::Last) => hi - i + 1,
        (None, _) => (hi + 1).saturating_sub(lo),
    };
    (found, scanned)
}

fn outcome_from_profile(p: LookupProfile) -> QueryOutcome<Option<usize>> {
    QueryOutcome {
        value: p.position,
        fallback: p.fallback,
        // A window exhausted without a hit: the local bound did not cover
        // the answer, or the subset is genuinely absent.
        bound_miss: p.position.is_none() && !p.from_aux,
    }
}

/// A [`LearnedSetIndex`] bound to its collection. Lookups need the
/// collection to scan, so the [`LearnedSetStructure`] surface lives on this
/// adapter rather than on the bare index.
#[derive(Debug, Clone)]
pub struct IndexStructure {
    /// The hybrid learned index.
    pub index: LearnedSetIndex,
    /// The collection it indexes.
    pub collection: Arc<SetCollection>,
}

impl LearnedSetStructure for IndexStructure {
    type Output = Option<usize>;
    const NAME: &'static str = "index";

    fn query(&self, q: &[u32]) -> QueryOutcome<Option<usize>> {
        outcome_from_profile(self.index.lookup_profiled(&self.collection, q))
    }

    fn query_batch(&self, queries: &[ElementSet]) -> Vec<QueryOutcome<Option<usize>>> {
        self.index
            .lookup_batch_profiled(&self.collection, queries)
            .into_iter()
            .map(outcome_from_profile)
            .collect()
    }

    fn query_batch_parallel(
        &self,
        queries: &[ElementSet],
        threads: usize,
    ) -> Vec<QueryOutcome<Option<usize>>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let kernel = self.index.kernel();
        let scores = kernel.predict_batch_parallel(queries, threads);
        crate::telemetry::index_tele().record_kernel(self.index.precision, kernel.take_blocks());
        self.index
            .profiles_for_scores(&self.collection, queries, scores)
            .into_iter()
            .map(outcome_from_profile)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CompressionKind;
    use proptest::prelude::*;
    use setlearn_data::collection::signature;
    use setlearn_data::{is_subset, normalize, GeneratorConfig};

    /// Maps a small pool index onto a large, sparse id: rows share elements
    /// often, and distinct ids still collide on signature bits.
    fn large_id(k: u32) -> u32 {
        u32::MAX - 1 - k.wrapping_mul(104_729)
    }

    /// The unfiltered reference for [`scan_rows`]: the exact subset test on
    /// every row of the same window, in the same direction.
    fn reference_scan(
        c: &SetCollection,
        q: &[u32],
        lo: usize,
        hi: usize,
        target: PositionTarget,
    ) -> (Option<usize>, usize) {
        let rows: Vec<usize> = match target {
            PositionTarget::First => (lo..=hi).collect(),
            PositionTarget::Last => (lo..=hi).rev().collect(),
        };
        for (n, &i) in rows.iter().enumerate() {
            if is_subset(q, c.get(i)) {
                return (Some(i), n + 1);
            }
        }
        (None, rows.len())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The signature-filtered last mile returns the same row and the same
        /// `scanned` count as the unfiltered scan, for both targets, on
        /// collections with duplicate rows and ids near `u32::MAX`.
        #[test]
        fn filtered_scan_matches_the_unfiltered_reference(
            raw in proptest::collection::vec(proptest::collection::vec(0u32..24, 1..7), 1..40),
            dups in proptest::collection::vec((0usize..64, 0usize..64), 0..16),
            raw_q in proptest::collection::vec(0u32..24, 1..4),
            lo in 0usize..64,
            width in 0usize..64,
        ) {
            let mut rows: Vec<Vec<u32>> =
                raw.iter().map(|r| r.iter().map(|&k| large_id(k)).collect()).collect();
            for &(from, to) in &dups {
                let copy = rows[from % rows.len()].clone();
                let at = to % (rows.len() + 1);
                rows.insert(at, copy);
            }
            let c = SetCollection::new(rows, u32::MAX);
            let q = normalize(raw_q.iter().map(|&k| large_id(k)).collect());
            let lo = lo % c.len();
            let hi = (lo + width).min(c.len() - 1);
            for target in [PositionTarget::First, PositionTarget::Last] {
                prop_assert_eq!(
                    scan_rows(c.superset_probe(&q), lo, hi, target),
                    reference_scan(&c, &q, lo, hi, target)
                );
            }
            let whole = reference_scan(&c, &q, 0, c.len() - 1, PositionTarget::First);
            prop_assert_eq!(c.first_position(&q), whole.0);
            let count = c.sets().iter().filter(|s| is_subset(&q, s)).count() as u64;
            prop_assert_eq!(c.cardinality(&q), count);
        }
    }

    #[test]
    fn signature_false_positives_are_rechecked_exactly() {
        // Two distinct ids that set the same signature bit.
        let a = 0u32;
        let b = (1..).find(|&e| signature(&[e]) == signature(&[a])).unwrap();
        let c = SetCollection::new(vec![vec![a], vec![b], vec![a]], b + 1);
        // Every row passes the signature check of {b} (and of {a, b}), but
        // only row 1 contains b and no row contains both.
        for row in 0..c.len() {
            assert_eq!(signature(c.get(row)) & signature(&[b]), signature(&[b]));
        }
        let cases = [
            (vec![b], PositionTarget::First, (Some(1), 2)),
            (vec![b], PositionTarget::Last, (Some(1), 2)),
            (vec![a], PositionTarget::Last, (Some(2), 1)),
            (vec![a, b], PositionTarget::First, (None, 3)),
        ];
        for (q, target, want) in cases {
            assert_eq!(scan_rows(c.superset_probe(&q), 0, 2, target), want, "{q:?} {target:?}");
            assert_eq!(reference_scan(&c, &q, 0, 2, target), want, "{q:?} {target:?}");
        }
        assert_eq!(c.cardinality(&[b]), 1);
        assert_eq!(c.first_position(&[b]), Some(1));
    }

    fn quick_cfg(vocab: u32, compression: CompressionKind) -> IndexConfig {
        let mut model = DeepSetsConfig::lsm(vocab);
        model.compression = compression;
        IndexConfig {
            model,
            guided: GuidedConfig {
                warmup_epochs: 25,
                rounds: 1,
                epochs_per_round: 15,
                percentile: 0.9,
                batch_size: 64,
                learning_rate: 5e-3,
                seed: 5,
            },
            max_subset_size: 3,
            range_length: 16.0,
            target: PositionTarget::First,
        }
    }

    #[test]
    fn every_trained_subset_is_found_at_its_true_first_position() {
        let collection = GeneratorConfig::rw(300, 21).generate();
        let (index, report) =
            LearnedSetIndex::build(&collection, &quick_cfg(collection.num_elements(), CompressionKind::None));
        assert!(report.training_subsets > 0);
        let subsets = SubsetIndex::build(&collection, 3);
        for (s, info) in subsets.iter() {
            let got = index.lookup(&collection, s);
            assert_eq!(
                got,
                Some(info.first_pos as usize),
                "subset {s:?}: expected {} got {got:?}",
                info.first_pos
            );
        }
    }

    #[test]
    fn local_bounds_cut_scanning_versus_global() {
        let collection = GeneratorConfig::rw(400, 2).generate();
        let (_index, report) =
            LearnedSetIndex::build(&collection, &quick_cfg(collection.num_elements(), CompressionKind::None));
        assert!(
            report.mean_local_error <= report.global_error,
            "mean {} vs global {}",
            report.mean_local_error,
            report.global_error
        );
    }

    #[test]
    fn aux_answers_have_zero_scan_cost() {
        let collection = GeneratorConfig::rw(300, 8).generate();
        let (index, _) =
            LearnedSetIndex::build(&collection, &quick_cfg(collection.num_elements(), CompressionKind::None));
        assert!(index.aux_len() > 0, "expected some outliers");
        let subsets = SubsetIndex::build(&collection, 3);
        let mut aux_hits = 0;
        for (s, _) in subsets.iter() {
            let prof = index.lookup_profiled(&collection, s);
            if prof.from_aux {
                assert_eq!(prof.scanned, 0);
                aux_hits += 1;
            }
        }
        assert!(aux_hits > 0);
    }

    #[test]
    fn updates_take_precedence() {
        let collection = GeneratorConfig::rw(200, 5).generate();
        let (mut index, _) =
            LearnedSetIndex::build(&collection, &quick_cfg(collection.num_elements(), CompressionKind::None));
        let q: Vec<u32> = collection.get(50)[..2].to_vec();
        index.record_update(&q, 3);
        let prof = index.lookup_profiled(&collection, &q);
        assert!(prof.from_aux);
        assert_eq!(prof.position, Some(3));
    }

    #[test]
    fn nan_model_lookups_stay_correct_via_full_scan_fallback() {
        let collection = GeneratorConfig::rw(150, 21).generate();
        let (mut index, _) = LearnedSetIndex::build(
            &collection,
            &quick_cfg(collection.num_elements(), CompressionKind::None),
        );
        let poisoned: Vec<Vec<f32>> = index
            .model
            .snapshot_weights()
            .into_iter()
            .map(|b| vec![f32::NAN; b.len()])
            .collect();
        index.model.load_weight_buffers(&poisoned).unwrap();

        let subsets = SubsetIndex::build(&collection, 2);
        let mut fallbacks = 0;
        for (s, info) in subsets.iter().take(100) {
            let prof = index.lookup_profiled(&collection, s);
            assert_eq!(
                prof.position,
                Some(info.first_pos as usize),
                "subset {s:?} answered wrong under a poisoned model"
            );
            if prof.fallback == Some(FallbackReason::NonFinite) {
                fallbacks += 1;
            }
        }
        assert!(fallbacks > 0, "expected non-finite fallbacks from a NaN model");
        assert_eq!(index.serve_guard().non_finite_fallbacks(), fallbacks);
        // Batched lookups degrade identically.
        let queries: Vec<&[u32]> = subsets.iter().take(20).map(|(s, _)| &**s).collect();
        let batch = index.lookup_batch_profiled(&collection, &queries);
        for (q, got) in queries.iter().zip(&batch) {
            assert_eq!(got.position, index.lookup(&collection, q));
        }
    }

    #[test]
    fn parallel_batch_lookups_equal_sequential() {
        let collection = GeneratorConfig::rw(300, 21).generate();
        let (index, _) = LearnedSetIndex::build(
            &collection,
            &quick_cfg(collection.num_elements(), CompressionKind::None),
        );
        let subsets = SubsetIndex::build(&collection, 3);
        let queries: Vec<ElementSet> = subsets.iter().map(|(s, _)| s.clone()).collect();
        let sequential: Vec<Option<usize>> = index
            .lookup_batch_profiled(&collection, &queries)
            .into_iter()
            .map(|p| p.position)
            .collect();
        // The trait surface agrees with the profiled path, sequentially and
        // across worker counts.
        let structure = IndexStructure { index, collection: Arc::new(collection) };
        let outcomes = structure.query_batch(&queries);
        for (outcome, want) in outcomes.iter().zip(&sequential) {
            assert_eq!(outcome.value, *want);
        }
        for threads in [1, 2, 5] {
            let outcomes_par = structure.query_batch_parallel(&queries, threads);
            assert_eq!(outcomes, outcomes_par, "threads={threads}");
        }
    }

    #[test]
    fn compressed_index_is_smaller_and_still_sound() {
        let collection = GeneratorConfig::rw(250, 13).generate();
        // Compression pays off for large vocabularies (the paper's SD
        // discussion: small vocabularies don't need it). Declare a large id
        // space; the collection only uses a prefix of it.
        let vocab = collection.num_elements().max(50_000);
        let (lsm, _) = LearnedSetIndex::build(&collection, &quick_cfg(vocab, CompressionKind::None));
        let (clsm, _) =
            LearnedSetIndex::build(&collection, &quick_cfg(vocab, CompressionKind::Optimal { ns: 2 }));
        assert!(clsm.model_size_bytes() < lsm.model_size_bytes());
        let subsets = SubsetIndex::build(&collection, 3);
        for (s, info) in subsets.iter() {
            assert_eq!(clsm.lookup(&collection, s), Some(info.first_pos as usize));
        }
    }
}

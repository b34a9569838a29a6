//! Fast lookup structures over a dataset, plus the deterministic pairwise
//! comparison layer every figure shares.
//!
//! Building an [`ObsIndex`] enumerates every (treatment, control) and
//! (treatment, treatment) comparison the figures will need, computes each
//! one **once** over interned [`UrlId`]s via [`DetPool::map_indexed`], and
//! caches the [`PairStat`]s. Figures then look comparisons up instead of
//! recomputing them. Because URL interning is a bijection (equal string ⇔
//! equal id), the id-based Jaccard/edit/attribution values equal the
//! string-based `geoserp_metrics` kernels (asserted pair by pair in
//! `tests/paper_figures.rs`), and reports are byte-identical across every
//! worker count.

use crate::options::AnalysisOptions;
use geoserp_corpus::QueryCategory;
use geoserp_crawler::{Dataset, Observation, Role, UrlId};
use geoserp_geo::{Granularity, LocationId};
use geoserp_metrics::edit_distance;
use geoserp_obs::ObsHub;
use geoserp_pool::DetPool;
use geoserp_serp::ResultType;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Cell key: one (day-in-block, granularity, location, term, role) slot.
type CellKey<'a> = (u32, Granularity, LocationId, &'a str, Role);

/// One cached pairwise page comparison: everything any figure derives from
/// a pair of SERPs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairStat {
    /// Jaccard index of the URL sets.
    pub jaccard: f64,
    /// Edit distance between the full URL lists.
    pub total: usize,
    /// Edit distances of the type-filtered sublists, parallel to
    /// [`ResultType::META`]: `meta[0]` is Maps, `meta[1]` is News, then the
    /// rich components (local pack, answer box, knowledge panel, ads). On a
    /// `Paper`-component dataset the rich entries are all zero, so the
    /// Maps/News figures are unchanged bit for bit.
    pub meta: [usize; ResultType::META.len()],
    /// `total - maps - news`, clamped at zero — the legacy Figure-7
    /// residual. The full-taxonomy residual is derived on demand as
    /// `total - sum(meta)`.
    pub other: usize,
}

/// Per-thread scratch buffers for [`PairStat::of`] — the cache build runs
/// hundreds of thousands of comparisons per worker, so the id lists are
/// reused across calls instead of reallocated.
#[derive(Default)]
struct PairScratch {
    ids_a: Vec<UrlId>,
    ids_b: Vec<UrlId>,
    sub_a: Vec<UrlId>,
    sub_b: Vec<UrlId>,
    set_a: Vec<UrlId>,
    set_b: Vec<UrlId>,
}

/// Jaccard of two id lists as *sets*, via sort-merge over scratch buffers.
///
/// Computes exactly `geoserp_metrics::jaccard`'s value — the intersection
/// and union counts of the distinct elements are the same integers, so the
/// final division is bit-identical — without building hash sets.
fn sorted_jaccard(
    ids_a: &[UrlId],
    ids_b: &[UrlId],
    set_a: &mut Vec<UrlId>,
    set_b: &mut Vec<UrlId>,
) -> f64 {
    let distinct = |src: &[UrlId], dst: &mut Vec<UrlId>| {
        dst.clear();
        dst.extend_from_slice(src);
        dst.sort_unstable();
        dst.dedup();
    };
    distinct(ids_a, set_a);
    distinct(ids_b, set_b);
    let (sa, sb) = (&*set_a, &*set_b);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(&sb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

impl PairStat {
    /// Compute one comparison over interned URL ids. The full id lists are
    /// collected once and shared by the Jaccard and the total edit distance;
    /// the type-filtered sublists follow `geoserp_metrics::attribution`'s
    /// definition exactly (`other` is the residual, floored at zero), so the
    /// values match the string-based kernels bit for bit.
    fn of(a: &Observation, b: &Observation) -> PairStat {
        use std::cell::RefCell;
        thread_local! {
            static SCRATCH: RefCell<PairScratch> = RefCell::new(PairScratch::default());
        }
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let fill = |src: &Observation, dst: &mut Vec<UrlId>, only: Option<ResultType>| {
                dst.clear();
                dst.extend(
                    src.results
                        .iter()
                        .filter(|(_, ty)| only.is_none_or(|t| *ty == t))
                        .map(|(id, _)| *id),
                );
            };
            fill(a, &mut scratch.ids_a, None);
            fill(b, &mut scratch.ids_b, None);
            let total = edit_distance(&scratch.ids_a, &scratch.ids_b);
            let mut meta = [0usize; ResultType::META.len()];
            for (slot, ty) in meta.iter_mut().zip(ResultType::META) {
                fill(a, &mut scratch.sub_a, Some(ty));
                fill(b, &mut scratch.sub_b, Some(ty));
                *slot = edit_distance(&scratch.sub_a, &scratch.sub_b);
            }
            let jaccard = sorted_jaccard(
                &scratch.ids_a,
                &scratch.ids_b,
                &mut scratch.set_a,
                &mut scratch.set_b,
            );
            PairStat {
                jaccard,
                total,
                meta,
                other: total.saturating_sub(meta[0] + meta[1]),
            }
        })
    }
}

/// Noise-pair key: treatment vs control at one (granularity, day, location,
/// term) cell.
type NoiseKey<'a> = (Granularity, u32, LocationId, &'a str);
/// Treatment-pair key: two locations (in crawl order) at one (granularity,
/// day, term) cell.
type TreatKey<'a> = (Granularity, u32, LocationId, LocationId, &'a str);

/// Every pairwise comparison the report needs, computed once.
#[derive(Default)]
struct PairCache<'a> {
    noise: HashMap<NoiseKey<'a>, PairStat>,
    treatment: HashMap<TreatKey<'a>, PairStat>,
}

/// Index over a dataset's observations.
pub struct ObsIndex<'a> {
    ds: &'a Dataset,
    by_cell: HashMap<CellKey<'a>, &'a Observation>,
    terms_by_category: BTreeMap<QueryCategory, Vec<&'a str>>,
    days_by_granularity: BTreeMap<Granularity, BTreeSet<u32>>,
    locations_by_granularity: BTreeMap<Granularity, Vec<LocationId>>,
    pool: DetPool,
    cache: PairCache<'a>,
}

impl<'a> ObsIndex<'a> {
    /// Build the index and its pair cache inline on the calling thread: the
    /// `Workers::Fixed(1)` case of [`Self::with_options`].
    pub fn new(ds: &'a Dataset) -> Self {
        Self::with_options(ds, &AnalysisOptions::fixed(1), None)
    }

    /// Build the index under an [`AnalysisOptions`] policy. After one pass
    /// over the observations for the lookup tables, every pairwise
    /// comparison any figure will need is computed up front — exactly once,
    /// over interned URL ids, sharded across the pool by stable task index —
    /// and figures consume the cache through the `pair_*` accessors. Output
    /// values are identical for every worker count.
    pub fn with_options(ds: &'a Dataset, options: &AnalysisOptions, obs: Option<&ObsHub>) -> Self {
        let mut idx = ObsIndex::lookups(ds, DetPool::new(options.workers));
        let started = std::time::Instant::now();
        // Enumerate every comparison in the fixed consumer orientation:
        // noise pairs as (treatment, control), treatment pairs as
        // (earlier location, later location) in crawl order.
        let mut tasks: Vec<(&'a Observation, &'a Observation)> = Vec::new();
        for gran in idx.granularities() {
            for category in idx.categories() {
                idx.for_each_noise_pair(gran, category, |t, c| tasks.push((t, c)));
                idx.for_each_treatment_pair(gran, category, |a, b| tasks.push((a, b)));
            }
        }
        let stats = idx
            .pool
            .map_indexed("analysis.pairs", obs, &tasks, |_, (a, b)| {
                PairStat::of(a, b)
            });
        let mut cache = PairCache {
            noise: HashMap::with_capacity(tasks.len() / 4),
            treatment: HashMap::with_capacity(tasks.len()),
        };
        for ((a, b), stat) in tasks.into_iter().zip(stats) {
            if a.location == b.location {
                cache.noise.insert(
                    (a.granularity, a.block_day, a.location, a.term.as_str()),
                    stat,
                );
            } else {
                cache.treatment.insert(
                    (
                        a.granularity,
                        a.block_day,
                        a.location,
                        b.location,
                        a.term.as_str(),
                    ),
                    stat,
                );
            }
        }
        idx.cache = cache;
        if let Some(hub) = obs {
            hub.metrics()
                .gauge("analysis.pair_cache_wall_us")
                .set(started.elapsed().as_micros() as i64);
        }
        idx
    }

    /// The lookup tables (one pass over the observations), with an empty
    /// pair cache.
    fn lookups(ds: &'a Dataset, pool: DetPool) -> Self {
        let mut by_cell = HashMap::new();
        let mut terms_by_category: BTreeMap<QueryCategory, Vec<&'a str>> = BTreeMap::new();
        let mut days_by_granularity: BTreeMap<Granularity, BTreeSet<u32>> = BTreeMap::new();
        let mut locations_by_granularity: BTreeMap<Granularity, Vec<LocationId>> = BTreeMap::new();

        for obs in ds.observations() {
            by_cell.insert(
                (
                    obs.block_day,
                    obs.granularity,
                    obs.location,
                    obs.term.as_str(),
                    obs.role,
                ),
                obs,
            );
            let terms = terms_by_category.entry(obs.category).or_default();
            if !terms.contains(&obs.term.as_str()) {
                terms.push(obs.term.as_str());
            }
            days_by_granularity
                .entry(obs.granularity)
                .or_default()
                .insert(obs.block_day);
            let locs = locations_by_granularity.entry(obs.granularity).or_default();
            if !locs.contains(&obs.location) {
                locs.push(obs.location);
            }
        }

        ObsIndex {
            ds,
            by_cell,
            terms_by_category,
            days_by_granularity,
            locations_by_granularity,
            pool,
            cache: PairCache::default(),
        }
    }

    /// The deterministic pool analyses shard their work through.
    pub fn pool(&self) -> &DetPool {
        &self.pool
    }

    /// One pair's comparison. Pairs the cache enumerates are looked up in
    /// either orientation (all pair statistics are symmetric); any other
    /// pair — only an ad-hoc caller asks for one — is computed on the spot
    /// by the same id kernel.
    fn stat(&self, a: &Observation, b: &Observation) -> PairStat {
        let (gran, day, term) = (a.granularity, a.block_day, a.term.as_str());
        let same_cell = (b.granularity, b.block_day, b.term.as_str()) == (gran, day, term);
        let cached = match (a.role, b.role) {
            _ if !same_cell => None,
            (Role::Treatment, Role::Control) | (Role::Control, Role::Treatment)
                if a.location == b.location =>
            {
                self.cache.noise.get(&(gran, day, a.location, term))
            }
            (Role::Treatment, Role::Treatment) => self
                .cache
                .treatment
                .get(&(gran, day, a.location, b.location, term))
                .or_else(|| {
                    self.cache
                        .treatment
                        .get(&(gran, day, b.location, a.location, term))
                }),
            _ => None,
        };
        cached.copied().unwrap_or_else(|| PairStat::of(a, b))
    }

    /// Jaccard and edit distance of a pair's URL lists.
    pub fn pair_urls_stat(&self, a: &'a Observation, b: &'a Observation) -> (f64, f64) {
        let s = self.stat(a, b);
        (s.jaccard, s.total as f64)
    }

    /// Edit distance of a pair's URL lists.
    pub fn pair_edit(&self, a: &'a Observation, b: &'a Observation) -> f64 {
        self.stat(a, b).total as f64
    }

    /// Jaccard of a pair's URL sets.
    pub fn pair_jaccard(&self, a: &'a Observation, b: &'a Observation) -> f64 {
        self.stat(a, b).jaccard
    }

    /// Result-type attribution `(total, maps, news, other)` of a pair.
    pub fn pair_attribution(
        &self,
        a: &'a Observation,
        b: &'a Observation,
    ) -> (usize, usize, usize, usize) {
        let s = self.stat(a, b);
        (s.total, s.meta[0], s.meta[1], s.other)
    }

    /// Full-taxonomy attribution of a pair: `(total, per-type edit
    /// distances parallel to [`ResultType::META`], residual)`, where the
    /// residual is `total - sum(per-type)` floored at zero (the organic
    /// remainder).
    pub fn pair_attribution_meta(
        &self,
        a: &'a Observation,
        b: &'a Observation,
    ) -> (usize, [usize; ResultType::META.len()], usize) {
        let s = self.stat(a, b);
        let residual = s.total.saturating_sub(s.meta.iter().sum());
        (s.total, s.meta, residual)
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &'a Dataset {
        self.ds
    }

    /// One observation, if collected.
    pub fn get(
        &self,
        day: u32,
        gran: Granularity,
        loc: LocationId,
        term: &str,
        role: Role,
    ) -> Option<&'a Observation> {
        self.by_cell.get(&(day, gran, loc, term, role)).copied()
    }

    /// The categories present in the dataset.
    pub fn categories(&self) -> Vec<QueryCategory> {
        self.terms_by_category.keys().copied().collect()
    }

    /// Terms of one category, in crawl order.
    pub fn terms(&self, category: QueryCategory) -> &[&'a str] {
        self.terms_by_category
            .get(&category)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Granularities present.
    pub fn granularities(&self) -> Vec<Granularity> {
        self.locations_by_granularity.keys().copied().collect()
    }

    /// Block-days present for a granularity, ascending.
    pub fn days(&self, gran: Granularity) -> Vec<u32> {
        self.days_by_granularity
            .get(&gran)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Locations crawled at a granularity, in crawl order.
    pub fn locations(&self, gran: Granularity) -> &[LocationId] {
        self.locations_by_granularity
            .get(&gran)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Ordered URL list of an observation.
    pub fn urls(&self, obs: &Observation) -> Vec<&'a str> {
        obs.results.iter().map(|(id, _)| self.ds.url(*id)).collect()
    }

    /// Ordered `(url, type)` list of an observation.
    pub fn typed(&self, obs: &Observation) -> Vec<(&'a str, geoserp_serp::ResultType)> {
        obs.results
            .iter()
            .map(|(id, t)| (self.ds.url(*id), *t))
            .collect()
    }

    /// Visit every (treatment, control) pair: the *noise* comparisons.
    pub fn for_each_noise_pair(
        &self,
        gran: Granularity,
        category: QueryCategory,
        mut f: impl FnMut(&'a Observation, &'a Observation),
    ) {
        for &term in self.terms(category) {
            for day in self.days(gran) {
                for &loc in self.locations(gran) {
                    if let (Some(t), Some(c)) = (
                        self.get(day, gran, loc, term, Role::Treatment),
                        self.get(day, gran, loc, term, Role::Control),
                    ) {
                        f(t, c);
                    }
                }
            }
        }
    }

    /// Visit every pair of treatments at *different* locations: the
    /// *personalization* comparisons.
    pub fn for_each_treatment_pair(
        &self,
        gran: Granularity,
        category: QueryCategory,
        mut f: impl FnMut(&'a Observation, &'a Observation),
    ) {
        for &term in self.terms(category) {
            for day in self.days(gran) {
                let locs = self.locations(gran);
                for i in 0..locs.len() {
                    for j in (i + 1)..locs.len() {
                        if let (Some(a), Some(b)) = (
                            self.get(day, gran, locs[i], term, Role::Treatment),
                            self.get(day, gran, locs[j], term, Role::Treatment),
                        ) {
                            f(a, b);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoserp_crawler::{Crawler, ExperimentPlan};
    use geoserp_geo::Seed;

    fn dataset() -> Dataset {
        let plan = ExperimentPlan {
            days: 2,
            queries_per_category: Some(2),
            locations_per_granularity: Some(3),
            ..ExperimentPlan::quick()
        };
        Crawler::new(Seed::new(2015)).run(&plan)
    }

    #[test]
    fn index_reflects_plan_shape() {
        let ds = dataset();
        let idx = ObsIndex::new(&ds);
        assert_eq!(idx.categories().len(), 3);
        assert_eq!(idx.terms(QueryCategory::Local).len(), 2);
        assert_eq!(idx.granularities().len(), 3);
        for gran in idx.granularities() {
            assert_eq!(idx.days(gran), vec![0, 1]);
            assert_eq!(idx.locations(gran).len(), 3);
        }
    }

    #[test]
    fn noise_pairs_count() {
        let ds = dataset();
        let idx = ObsIndex::new(&ds);
        let mut n = 0;
        idx.for_each_noise_pair(Granularity::County, QueryCategory::Local, |_, _| n += 1);
        // 2 terms × 2 days × 3 locations.
        assert_eq!(n, 12);
    }

    #[test]
    fn treatment_pairs_count() {
        let ds = dataset();
        let idx = ObsIndex::new(&ds);
        let mut n = 0;
        idx.for_each_treatment_pair(Granularity::State, QueryCategory::Controversial, |_, _| {
            n += 1
        });
        // 2 terms × 2 days × C(3,2)=3 location pairs.
        assert_eq!(n, 12);
    }

    #[test]
    fn noise_pairs_share_cell_but_not_role() {
        let ds = dataset();
        let idx = ObsIndex::new(&ds);
        idx.for_each_noise_pair(Granularity::County, QueryCategory::Local, |t, c| {
            assert_eq!(t.term, c.term);
            assert_eq!(t.location, c.location);
            assert_eq!(t.block_day, c.block_day);
            assert_eq!(t.role, Role::Treatment);
            assert_eq!(c.role, Role::Control);
        });
    }

    #[test]
    fn treatment_pairs_differ_in_location_only() {
        let ds = dataset();
        let idx = ObsIndex::new(&ds);
        idx.for_each_treatment_pair(Granularity::County, QueryCategory::Local, |a, b| {
            assert_eq!(a.term, b.term);
            assert_ne!(a.location, b.location);
            assert_eq!(a.block_day, b.block_day);
        });
    }

    #[test]
    fn pairs_outside_the_cache_fall_back_to_the_id_kernel() {
        // Each pair shares a cached key's coordinates without being a cached
        // comparison: across days, treatment vs control at two locations,
        // and a page against itself.
        let ds = dataset();
        let idx = ObsIndex::new(&ds);
        let (gran, term) = (Granularity::County, idx.terms(QueryCategory::Local)[0]);
        let locs = idx.locations(gran);
        let at = |day, loc, role| idx.get(day, gran, loc, term, role).unwrap();
        let treat = Role::Treatment;
        for (a, b) in [
            (at(0, locs[0], treat), at(1, locs[1], treat)),
            (at(0, locs[0], treat), at(0, locs[1], Role::Control)),
            (at(0, locs[0], treat), at(0, locs[0], treat)),
        ] {
            let (ua, ub) = (idx.urls(a), idx.urls(b));
            let expected = (
                geoserp_metrics::jaccard(&ua, &ub),
                edit_distance(&ua, &ub) as f64,
            );
            assert_eq!(idx.pair_urls_stat(a, b), expected);
        }
    }
}

//! Fast lookup structures over a dataset, plus the deterministic pairwise
//! comparison layer every figure shares.
//!
//! [`ObsIndex`] addresses everything by ordinals. Terms, and each
//! granularity's block days and locations, are interned into small tables
//! sized from the values present, so a `block_day` of 4,000,000,000 or a
//! large [`LocationId`] costs one table entry. A (granularity, term, day,
//! location, role) cell is one position in a flat `Vec<u32>` of observation
//! indices; when two observations claim a cell, the later one wins.
//!
//! Every comparison the figures need has a *pair ordinal*. Within each
//! granularity, term and day come the noise pairs — (treatment, control)
//! at each location, in crawl order — and then every pair of treatments at
//! locations `i < j`, in `(i, j)` order. Building the index computes each
//! comparison present **once** over interned [`UrlId`]s, one
//! [`DetPool::map_indexed`] task per comparison in pair-ordinal order, and
//! stores it at its ordinal as exact integer counts in 9 bytes: the Jaccard
//! intersection and union, the total edit distance, and the per-type edit
//! distances. The `pair_*` accessors find a pair's ordinal from its two
//! observations' own fields and derive every value on read; the Jaccard is
//! the same `inter as f64 / union as f64` division as before, so the bits
//! match. A comparison whose counts overflow a byte (only a hand-made page
//! of hundreds of results can) is stored as a marker, and like any pair the
//! store does not hold, it is recomputed on the spot by the same id kernel.
//!
//! Because URL interning is a bijection (equal string ⇔ equal id), the
//! id-based Jaccard/edit/attribution values equal the string-based
//! `geoserp_metrics` kernels (asserted pair by pair in
//! `tests/paper_figures.rs` and in the edge-shape tests below), and reports
//! are byte-identical across every worker count.

use crate::options::AnalysisOptions;
use geoserp_corpus::QueryCategory;
use geoserp_crawler::{Dataset, Observation, Role, UrlId};
use geoserp_geo::{Granularity, LocationId};
use geoserp_metrics::edit_distance;
use geoserp_obs::ObsHub;
use geoserp_pool::DetPool;
use geoserp_serp::ResultType;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Number of type-filtered edit distances a comparison carries.
const META: usize = ResultType::META.len();

/// One pairwise page comparison: everything any figure derives from a pair
/// of SERPs.
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
    pub meta: [usize; META],
    /// `total - maps - news`, clamped at zero — the legacy Figure-7
    /// residual. The full-taxonomy residual is derived on demand as
    /// `total - sum(meta)`.
    pub other: usize,
}

/// The exact integer counts of one comparison, from which [`PairStat`] is
/// derived.
struct PairCounts {
    /// Distinct URLs on both pages.
    inter: usize,
    /// Distinct URLs on either page.
    union: usize,
    total: usize,
    meta: [usize; META],
}

impl From<PairCounts> for PairStat {
    fn from(c: PairCounts) -> PairStat {
        PairStat {
            // Two empty pages have union 0 and are identical.
            jaccard: if c.union == 0 {
                1.0
            } else {
                c.inter as f64 / c.union as f64
            },
            total: c.total,
            meta: c.meta,
            other: c.total.saturating_sub(c.meta[0] + c.meta[1]),
        }
    }
}

/// Per-thread scratch buffers for [`PairCounts::of`] — the index build runs
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

/// Intersection and union sizes of two id lists as *sets*, via sort-merge
/// over scratch buffers: the same integers `geoserp_metrics::jaccard`
/// divides, without building hash sets.
fn set_overlap(
    ids_a: &[UrlId],
    ids_b: &[UrlId],
    set_a: &mut Vec<UrlId>,
    set_b: &mut Vec<UrlId>,
) -> (usize, usize) {
    let distinct = |src: &[UrlId], dst: &mut Vec<UrlId>| {
        dst.clear();
        dst.extend_from_slice(src);
        dst.sort_unstable();
        dst.dedup();
    };
    distinct(ids_a, set_a);
    distinct(ids_b, set_b);
    let (sa, sb) = (&*set_a, &*set_b);
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
    (inter, sa.len() + sb.len() - inter)
}

impl PairCounts {
    /// Compute one comparison over interned URL ids. The full id lists are
    /// collected once and shared by the Jaccard and the total edit distance;
    /// the type-filtered sublists follow `geoserp_metrics::attribution`'s
    /// definition exactly, so the derived values match the string-based
    /// kernels bit for bit.
    fn of(a: &Observation, b: &Observation) -> PairCounts {
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
            let mut meta = [0usize; META];
            for (slot, ty) in meta.iter_mut().zip(ResultType::META) {
                fill(a, &mut scratch.sub_a, Some(ty));
                fill(b, &mut scratch.sub_b, Some(ty));
                *slot = edit_distance(&scratch.sub_a, &scratch.sub_b);
            }
            let (inter, union) = set_overlap(
                &scratch.ids_a,
                &scratch.ids_b,
                &mut scratch.set_a,
                &mut scratch.set_b,
            );
            PairCounts {
                inter,
                union,
                total,
                meta,
            }
        })
    }
}

/// One stored comparison: [`PairCounts`] narrowed to bytes. The largest
/// edit distance at paper scale is 21, so every real comparison fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packed {
    inter: u8,
    union: u8,
    total: u8,
    meta: [u8; META],
}

const _: () = assert!(std::mem::size_of::<Packed>() <= 10);

impl Packed {
    /// "Not stored": a comparison absent from the dataset, or one whose
    /// counts do not fit a byte. Real counts never have `inter > union`.
    const NONE: Packed = Packed {
        inter: 1,
        union: 0,
        total: 0,
        meta: [0; META],
    };

    fn pack(c: &PairCounts) -> Packed {
        let narrow = || -> Option<Packed> {
            let byte = |n: usize| u8::try_from(n).ok();
            let mut meta = [0u8; META];
            for (m, &n) in meta.iter_mut().zip(&c.meta) {
                *m = byte(n)?;
            }
            Some(Packed {
                inter: byte(c.inter)?,
                union: byte(c.union)?,
                total: byte(c.total)?,
                meta,
            })
        };
        narrow().unwrap_or(Packed::NONE)
    }

    fn unpack(self) -> Option<PairStat> {
        (self != Packed::NONE).then(|| {
            PairStat::from(PairCounts {
                inter: self.inter.into(),
                union: self.union.into(),
                total: self.total.into(),
                meta: self.meta.map(usize::from),
            })
        })
    }
}

/// Cell marker: no observation collected.
const EMPTY: u32 = u32::MAX;

/// One granularity's ordinal tables, and where its cells and comparisons
/// start in the index's flat arrays.
struct GranTable {
    gran: Granularity,
    /// Block days present, ascending: a day's ordinal is its position.
    days: Vec<u32>,
    /// Locations in crawl order: a location's ordinal is its position.
    locations: Vec<LocationId>,
    /// `(location, ordinal)` sorted by location, for lookups.
    location_ords: Vec<(LocationId, u32)>,
    cell_base: usize,
    pair_base: usize,
}

impl GranTable {
    fn day_ord(&self, day: u32) -> Option<usize> {
        self.days.binary_search(&day).ok()
    }

    fn location_ord(&self, loc: LocationId) -> Option<usize> {
        let at = self
            .location_ords
            .binary_search_by_key(&loc, |&(l, _)| l)
            .ok()?;
        Some(self.location_ords[at].1 as usize)
    }

    /// Cells of one term: every (day, location, role).
    fn cells_per_term(&self) -> usize {
        self.days.len() * self.locations.len() * 2
    }

    /// Comparisons of one (term, day): one noise pair per location, then
    /// every location pair.
    fn pairs_per_block(&self) -> usize {
        let l = self.locations.len();
        l * (l + 1) / 2
    }

    fn cell(&self, term: usize, day: usize, loc: usize, role: Role) -> usize {
        let role = match role {
            Role::Treatment => 0,
            Role::Control => 1,
        };
        self.cell_base + ((term * self.days.len() + day) * self.locations.len() + loc) * 2 + role
    }

    fn block(&self, term: usize, day: usize) -> usize {
        self.pair_base + (term * self.days.len() + day) * self.pairs_per_block()
    }

    fn noise_pair(&self, term: usize, day: usize, loc: usize) -> usize {
        self.block(term, day) + loc
    }

    /// The treatment pair of locations `i < j`.
    fn treatment_pair(&self, term: usize, day: usize, i: usize, j: usize) -> usize {
        let l = self.locations.len();
        self.block(term, day) + l + i * (2 * l - i - 1) / 2 + (j - i - 1)
    }
}

/// Index over a dataset's observations.
pub struct ObsIndex<'a> {
    ds: &'a Dataset,
    /// Term ordinals, in first-seen crawl order.
    term_ords: HashMap<&'a str, u32>,
    terms_by_category: BTreeMap<QueryCategory, Vec<&'a str>>,
    /// Present granularities, ascending.
    grans: Vec<GranTable>,
    /// Observation index of every (granularity, term, day, location, role)
    /// cell, or [`EMPTY`].
    cells: Vec<u32>,
    /// Every comparison, by pair ordinal.
    stats: Vec<Packed>,
    pool: DetPool,
}

impl<'a> ObsIndex<'a> {
    /// Build the index and its comparisons inline on the calling thread:
    /// the `Workers::Fixed(1)` case of [`Self::with_options`].
    pub fn new(ds: &'a Dataset) -> Self {
        Self::with_options(ds, &AnalysisOptions::fixed(1), None)
    }

    /// Build the index under an [`AnalysisOptions`] policy. After two passes
    /// over the observations for the ordinal tables and cells, every
    /// pairwise comparison any figure will need is computed up front —
    /// exactly once, over interned URL ids, sharded across the pool by
    /// stable task index — and figures read them through the `pair_*`
    /// accessors. Output values are identical for every worker count.
    pub fn with_options(ds: &'a Dataset, options: &AnalysisOptions, obs: Option<&ObsHub>) -> Self {
        let mut idx = ObsIndex::lookups(ds, DetPool::new(options.workers));
        let started = std::time::Instant::now();
        // Noise pairs as (treatment, control), treatment pairs as (earlier
        // location, later location) in crawl order.
        let mut tasks: Vec<(u32, u32)> = Vec::new();
        idx.for_each_present_pair(|_, a, b| tasks.push((a, b)));
        let observations = ds.observations();
        let packed = idx
            .pool
            .map_indexed("analysis.pairs", obs, &tasks, |_, &(a, b)| {
                Packed::pack(&PairCounts::of(
                    &observations[a as usize],
                    &observations[b as usize],
                ))
            });
        drop(tasks);
        let mut packed = packed.into_iter();
        let mut stats = vec![Packed::NONE; idx.pair_ordinals()];
        idx.for_each_present_pair(|ordinal, _, _| {
            stats[ordinal] = packed.next().expect("one result per task");
        });
        idx.stats = stats;
        if let Some(hub) = obs {
            hub.metrics()
                .gauge("analysis.pair_cache_wall_us")
                .set(started.elapsed().as_micros() as i64);
        }
        idx
    }

    /// The ordinal tables and the cells (two passes over the observations),
    /// with no comparisons stored yet.
    fn lookups(ds: &'a Dataset, pool: DetPool) -> Self {
        let mut term_ords: HashMap<&'a str, u32> = HashMap::new();
        let mut terms_by_category: BTreeMap<QueryCategory, Vec<&'a str>> = BTreeMap::new();
        let mut term_categories: HashSet<(QueryCategory, u32)> = HashSet::new();
        let mut grans: BTreeMap<Granularity, (BTreeSet<u32>, Vec<LocationId>)> = BTreeMap::new();
        let mut seen_locations: HashSet<(Granularity, LocationId)> = HashSet::new();
        for obs in ds.observations() {
            let next = term_ords.len() as u32;
            let term = *term_ords.entry(obs.term.as_str()).or_insert(next);
            if term_categories.insert((obs.category, term)) {
                terms_by_category
                    .entry(obs.category)
                    .or_default()
                    .push(obs.term.as_str());
            }
            let (days, locations) = grans.entry(obs.granularity).or_default();
            days.insert(obs.block_day);
            if seen_locations.insert((obs.granularity, obs.location)) {
                locations.push(obs.location);
            }
        }

        // Lay the granularities out back to back in both flat arrays.
        let terms = term_ords.len();
        let (mut cell_base, mut pair_base) = (0usize, 0usize);
        let grans: Vec<GranTable> = grans
            .into_iter()
            .map(|(gran, (days, locations))| {
                let mut location_ords: Vec<(LocationId, u32)> =
                    locations.iter().zip(0..).map(|(&l, i)| (l, i)).collect();
                location_ords.sort_unstable();
                let table = GranTable {
                    gran,
                    days: days.into_iter().collect(),
                    locations,
                    location_ords,
                    cell_base,
                    pair_base,
                };
                let grid = |per_term: usize| {
                    terms
                        .checked_mul(per_term)
                        .expect("the analysis grid fits in memory")
                };
                cell_base += grid(table.cells_per_term());
                pair_base += grid(table.days.len() * table.pairs_per_block());
                table
            })
            .collect();

        let mut idx = ObsIndex {
            ds,
            term_ords,
            terms_by_category,
            grans,
            cells: vec![EMPTY; cell_base],
            stats: Vec::new(),
            pool,
        };
        for (i, obs) in ds.observations().iter().enumerate() {
            let (g, term, day, loc) = idx
                .coords(obs)
                .expect("every observation's coordinates are interned");
            let cell = g.cell(term, day, loc, obs.role);
            idx.cells[cell] = u32::try_from(i).expect("fewer than 2^32 observations");
        }
        idx
    }

    /// Total pair ordinals: every comparison the full grid could hold.
    fn pair_ordinals(&self) -> usize {
        self.grans.last().map_or(0, |g| {
            g.pair_base + self.term_ords.len() * g.days.len() * g.pairs_per_block()
        })
    }

    fn gran(&self, gran: Granularity) -> Option<&GranTable> {
        self.grans.iter().find(|g| g.gran == gran)
    }

    /// An observation's coordinates: its granularity's table and its term,
    /// day and location ordinals.
    fn coords(&self, obs: &Observation) -> Option<(&GranTable, usize, usize, usize)> {
        let g = self.gran(obs.granularity)?;
        let term = *self.term_ords.get(obs.term.as_str())? as usize;
        Some((
            g,
            term,
            g.day_ord(obs.block_day)?,
            g.location_ord(obs.location)?,
        ))
    }

    fn observation(&self, i: u32) -> &'a Observation {
        &self.ds.observations()[i as usize]
    }

    /// The observation a cell holds.
    fn held(&self, cell: usize) -> Option<&'a Observation> {
        let i = self.cells[cell];
        (i != EMPTY).then(|| self.observation(i))
    }

    /// Visit one (term, day) block's comparisons — its noise pairs when
    /// `noise`, else its treatment pairs — in pair-ordinal order, as
    /// `(ordinal, first, second)` observation indices. Pairs with a side
    /// missing are skipped.
    fn for_each_in_block(
        &self,
        g: &GranTable,
        (term, day): (usize, usize),
        noise: bool,
        mut f: impl FnMut(usize, u32, u32),
    ) {
        let cell = |loc, role| self.cells[g.cell(term, day, loc, role)];
        let locs = g.locations.len();
        if noise {
            for loc in 0..locs {
                let (t, c) = (cell(loc, Role::Treatment), cell(loc, Role::Control));
                if t != EMPTY && c != EMPTY {
                    f(g.noise_pair(term, day, loc), t, c);
                }
            }
            return;
        }
        for i in 0..locs {
            let a = cell(i, Role::Treatment);
            if a == EMPTY {
                continue;
            }
            for j in (i + 1)..locs {
                let b = cell(j, Role::Treatment);
                if b != EMPTY {
                    f(g.treatment_pair(term, day, i, j), a, b);
                }
            }
        }
    }

    /// Visit every comparison the dataset holds, in pair-ordinal order.
    fn for_each_present_pair(&self, mut f: impl FnMut(usize, u32, u32)) {
        for g in &self.grans {
            for term in 0..self.term_ords.len() {
                for day in 0..g.days.len() {
                    self.for_each_in_block(g, (term, day), true, &mut f);
                    self.for_each_in_block(g, (term, day), false, &mut f);
                }
            }
        }
    }

    /// Visit one kind of comparison over a category's terms at one
    /// granularity, term by term and day by day.
    fn for_each_pair_of_kind(
        &self,
        gran: Granularity,
        category: QueryCategory,
        noise: bool,
        mut f: impl FnMut(&'a Observation, &'a Observation),
    ) {
        let Some(g) = self.gran(gran) else { return };
        for term in self.terms(category) {
            let term = self.term_ords[term] as usize;
            for day in 0..g.days.len() {
                self.for_each_in_block(g, (term, day), noise, |_, a, b| {
                    f(self.observation(a), self.observation(b))
                });
            }
        }
    }

    /// The deterministic pool analyses shard their work through.
    pub fn pool(&self) -> &DetPool {
        &self.pool
    }

    /// A pair's stored comparison, found from the two observations' own
    /// fields: both must be the observations their cells hold, at one
    /// (granularity, day, term), as a noise pair or two treatments at
    /// different locations (in either orientation — every pair statistic is
    /// symmetric).
    fn stored(&self, a: &Observation, b: &Observation) -> Option<PairStat> {
        if (a.granularity, a.block_day, &a.term) != (b.granularity, b.block_day, &b.term) {
            return None;
        }
        let (g, term, day, la) = self.coords(a)?;
        let lb = g.location_ord(b.location)?;
        let holds = |obs: &Observation, loc| {
            self.held(g.cell(term, day, loc, obs.role))
                .is_some_and(|held| std::ptr::eq(held, obs))
        };
        if !holds(a, la) || !holds(b, lb) {
            return None;
        }
        let ordinal = match (a.role, b.role) {
            (Role::Treatment, Role::Control) | (Role::Control, Role::Treatment) if la == lb => {
                g.noise_pair(term, day, la)
            }
            (Role::Treatment, Role::Treatment) if la != lb => {
                g.treatment_pair(term, day, la.min(lb), la.max(lb))
            }
            _ => return None,
        };
        self.stats[ordinal].unpack()
    }

    /// One pair's comparison: the stored one, or — for a pair the store
    /// does not hold, or one it could not pack — the same id kernel on the
    /// spot.
    fn stat(&self, a: &Observation, b: &Observation) -> PairStat {
        self.stored(a, b)
            .unwrap_or_else(|| PairCounts::of(a, b).into())
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
    ) -> (usize, [usize; META], usize) {
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
        let g = self.gran(gran)?;
        let term = *self.term_ords.get(term)? as usize;
        self.held(g.cell(term, g.day_ord(day)?, g.location_ord(loc)?, role))
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
        self.grans.iter().map(|g| g.gran).collect()
    }

    /// Block-days present for a granularity, ascending.
    pub fn days(&self, gran: Granularity) -> Vec<u32> {
        self.gran(gran).map(|g| g.days.clone()).unwrap_or_default()
    }

    /// Locations crawled at a granularity, in crawl order.
    pub fn locations(&self, gran: Granularity) -> &[LocationId] {
        self.gran(gran).map_or(&[], |g| &g.locations)
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
        f: impl FnMut(&'a Observation, &'a Observation),
    ) {
        self.for_each_pair_of_kind(gran, category, true, f);
    }

    /// Visit every pair of treatments at *different* locations: the
    /// *personalization* comparisons.
    pub fn for_each_treatment_pair(
        &self,
        gran: Granularity,
        category: QueryCategory,
        f: impl FnMut(&'a Observation, &'a Observation),
    ) {
        self.for_each_pair_of_kind(gran, category, false, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoserp_crawler::{Crawler, DatasetMeta, ExperimentPlan};
    use geoserp_geo::{Seed, UsGeography, VantagePoints};

    fn dataset() -> Dataset {
        let plan = ExperimentPlan {
            days: 2,
            queries_per_category: Some(2),
            locations_per_granularity: Some(3),
            ..ExperimentPlan::quick()
        };
        Crawler::new(Seed::new(2015)).run(&plan)
    }

    fn empty_dataset() -> Dataset {
        let geo = UsGeography::generate(Seed::new(1));
        let vantage = VantagePoints::paper_defaults(&geo, Seed::new(1).derive("vp"));
        Dataset::new(vantage, DatasetMeta::default())
    }

    /// A hand-made county SERP for "pizza": URLs `{prefix}{i}`, every
    /// fifth one a Maps result and every seventh a News result.
    fn page(
        ds: &mut Dataset,
        (block_day, location, role): (u32, LocationId, Role),
        prefix: &str,
        len: usize,
    ) -> Observation {
        let results = (0..len)
            .map(|i| {
                let ty = match i {
                    _ if i % 5 == 0 => ResultType::Maps,
                    _ if i % 7 == 0 => ResultType::News,
                    _ => ResultType::Organic,
                };
                (ds.intern(&format!("https://{prefix}{i}/")), ty)
            })
            .collect();
        Observation {
            day: block_day,
            block_day,
            granularity: Granularity::County,
            location,
            term: "pizza".into(),
            category: QueryCategory::Local,
            role,
            results,
            datacenter: "dc0".into(),
            reported_location: "Cleveland, OH".into(),
        }
    }

    /// Every accessor's answer for one pair equals the string kernels of
    /// `geoserp_metrics` over the same pages' URL lists.
    fn assert_matches_kernels(idx: &ObsIndex<'_>, a: &Observation, b: &Observation) {
        let (ua, ub) = (idx.urls(a), idx.urls(b));
        let (jaccard, edit) = (geoserp_metrics::jaccard(&ua, &ub), edit_distance(&ua, &ub));
        assert_eq!(idx.pair_urls_stat(a, b), (jaccard, edit as f64));
        assert_eq!(idx.pair_edit(a, b), edit as f64);
        assert_eq!(idx.pair_jaccard(a, b), jaccard);
        let (ta, tb) = (idx.typed(a), idx.typed(b));
        let two = geoserp_metrics::attribution(&ta, &tb, &ResultType::Maps, &ResultType::News);
        assert_eq!(
            idx.pair_attribution(a, b),
            (two.total, two.maps, two.news, two.other)
        );
        let by = geoserp_metrics::attribution_by(&ta, &tb, &ResultType::META);
        let (total, meta, residual) = idx.pair_attribution_meta(a, b);
        assert_eq!(
            (total, &meta[..], residual),
            (by.total, &by.by_type[..], by.other)
        );
    }

    /// Visit every pair the figures see, checking each against the kernels
    /// and demanding it is held by the store; returns the pair count.
    fn check_all_pairs(idx: &ObsIndex<'_>) -> usize {
        let mut pairs = 0;
        for gran in idx.granularities() {
            for category in idx.categories() {
                let mut check = |a: &Observation, b: &Observation| {
                    assert!(idx.stored(a, b).is_some(), "a visited pair is stored");
                    assert_matches_kernels(idx, a, b);
                    pairs += 1;
                };
                idx.for_each_noise_pair(gran, category, &mut check);
                idx.for_each_treatment_pair(gran, category, &mut check);
            }
        }
        pairs
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
        // A complete plan fills every cell and every pair ordinal.
        assert_eq!(idx.cells.len(), ds.observations().len());
        assert!(idx.cells.iter().all(|&i| i != EMPTY));
        assert!(idx.stats.iter().all(|&p| p != Packed::NONE));
        assert_eq!(check_all_pairs(&idx), idx.stats.len());
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
    fn pairs_outside_the_store_fall_back_to_the_id_kernel() {
        // Each pair shares a stored pair's coordinates without being a
        // stored comparison: across days, treatment vs control at two
        // locations, and a page against itself.
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
            assert!(idx.stored(a, b).is_none());
            assert_matches_kernels(&idx, a, b);
        }
        // Stored pairs answer in either orientation.
        let (t, c) = (at(1, locs[2], treat), at(1, locs[2], Role::Control));
        assert_eq!(idx.stored(c, t), idx.stored(t, c));
        assert_matches_kernels(&idx, c, t);
    }

    #[test]
    fn a_300_result_page_is_stored_as_a_marker_and_answered_exactly() {
        let mut ds = empty_dataset();
        let (l0, l1) = (ds.vantage.county[0].id, ds.vantage.county[1].id);
        for (cell, prefix, len) in [
            ((0, l0, Role::Treatment), "u", 300),
            ((0, l0, Role::Control), "u", 12),
            ((0, l1, Role::Treatment), "v", 9),
            ((0, l1, Role::Control), "v", 9),
        ] {
            let obs = page(&mut ds, cell, prefix, len);
            ds.push(obs);
        }
        let idx = ObsIndex::new(&ds);
        let at = |loc, role| idx.get(0, Granularity::County, loc, "pizza", role).unwrap();
        let big = at(l0, Role::Treatment);
        assert_eq!(big.results.len(), 300);
        // Both comparisons with the big page overflow a byte; the other
        // noise pair fits.
        for other in [at(l0, Role::Control), at(l1, Role::Treatment)] {
            assert!(idx.stored(big, other).is_none());
            assert_matches_kernels(&idx, big, other);
        }
        assert_eq!(idx.pair_edit(big, at(l0, Role::Control)), 288.0);
        assert!(idx
            .stored(at(l1, Role::Treatment), at(l1, Role::Control))
            .is_some());
        assert_eq!(idx.stats.iter().filter(|&&p| p == Packed::NONE).count(), 2);
    }

    #[test]
    fn missing_observations_drop_exactly_their_pairs() {
        // Rebuild the crawl with every fifth observation missing, as failed
        // jobs leave it; URL ids are interned in the same order.
        let full = dataset();
        let mut ds = Dataset::new(full.vantage.clone(), full.meta.clone());
        for i in 0..full.distinct_urls() {
            ds.intern(full.url(UrlId(i as u32)));
        }
        let kept: Vec<&Observation> = full
            .observations()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 5 != 3)
            .map(|(_, o)| o)
            .collect();
        for o in &kept {
            ds.push((*o).clone());
        }

        // Brute force: a pair is present iff both sides were kept.
        let has = |o: &Observation, loc: LocationId, role: Role| {
            kept.iter().any(|k| {
                (k.granularity, k.block_day, &k.term, k.location, k.role)
                    == (o.granularity, o.block_day, &o.term, loc, role)
            })
        };
        let mut expected = 0;
        for t in kept.iter().filter(|o| o.role == Role::Treatment) {
            expected += has(t, t.location, Role::Control) as usize;
            // Each treatment pair once, from its earlier location.
            let locs = &full.vantage.at(t.granularity);
            let pos = |id| locs.iter().position(|l| l.id == id);
            expected += locs
                .iter()
                .filter(|l| pos(l.id) > pos(t.location) && has(t, l.id, Role::Treatment))
                .count();
        }

        let hub = ObsHub::new();
        let idx = ObsIndex::with_options(&ds, &AnalysisOptions::fixed(2), Some(&hub));
        assert!(expected > 0 && expected < ObsIndex::new(&full).stats.len());
        assert_eq!(check_all_pairs(&idx), expected);
        let tasks = hub.snapshot().counters["pool.analysis.pairs.tasks"];
        assert_eq!(tasks, expected as u64, "one pool task per present pair");
        let stored = idx.stats.iter().filter(|&&p| p != Packed::NONE).count();
        assert_eq!(stored, expected);
    }

    #[test]
    fn the_last_observation_of_a_cell_wins() {
        let mut ds = empty_dataset();
        let l0 = ds.vantage.county[0].id;
        for (cell, prefix, len) in [
            ((0, l0, Role::Treatment), "first", 8),
            ((0, l0, Role::Control), "c", 10),
            ((0, l0, Role::Treatment), "second", 6),
        ] {
            let obs = page(&mut ds, cell, prefix, len);
            ds.push(obs);
        }
        let idx = ObsIndex::new(&ds);
        let winner = idx
            .get(0, Granularity::County, l0, "pizza", Role::Treatment)
            .unwrap();
        assert!(std::ptr::eq(winner, &ds.observations()[2]));
        let mut visited = Vec::new();
        idx.for_each_noise_pair(Granularity::County, QueryCategory::Local, |t, c| {
            visited.push((t, c))
        });
        assert_eq!(visited.len(), 1);
        assert!(std::ptr::eq(visited[0].0, winner));
        assert_eq!(check_all_pairs(&idx), 1);
        // The overwritten observation is no stored pair's side; its
        // comparisons are still exact.
        let (loser, control) = (&ds.observations()[0], &ds.observations()[1]);
        assert!(idx.stored(loser, control).is_none());
        assert_matches_kernels(&idx, loser, control);
    }

    #[test]
    fn tables_are_sized_from_the_values_present() {
        let mut ds = empty_dataset();
        let (far_day, far_loc) = (4_000_000_000, LocationId(u32::MAX - 1));
        let near_loc = ds.vantage.county[0].id;
        for day in [far_day, 0] {
            for loc in [far_loc, near_loc] {
                for role in Role::BOTH {
                    let obs = page(&mut ds, (day, loc, role), &format!("{day}{loc}"), 7);
                    ds.push(obs);
                }
            }
        }
        let idx = ObsIndex::new(&ds);
        assert_eq!(idx.days(Granularity::County), vec![0, far_day]);
        assert_eq!(idx.locations(Granularity::County), &[far_loc, near_loc]);
        assert_eq!(idx.cells.len(), 8);
        // Per day: two noise pairs and one treatment pair.
        assert_eq!(idx.stats.len(), 6);
        assert_eq!(check_all_pairs(&idx), 6);
        let far = idx
            .get(
                far_day,
                Granularity::County,
                far_loc,
                "pizza",
                Role::Control,
            )
            .unwrap();
        assert_eq!((far.block_day, far.location), (far_day, far_loc));
    }
}

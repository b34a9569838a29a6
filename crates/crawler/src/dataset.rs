//! The collected dataset: observations with interned URLs.
//!
//! A full paper-scale crawl stores ~280k SERPs × ~17 links; interning URLs
//! keeps that tractable (a URL string is stored once, observations hold
//! `u32` ids). The analysis crate works directly on this structure.

use geoserp_corpus::QueryCategory;
use geoserp_geo::{Granularity, Location, LocationId, VantagePoints};
use geoserp_serp::ResultType;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Interned URL id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UrlId(pub u32);

/// Whether an observation is the treatment or its simultaneous control
/// (§2.2: "for each search term and location, we send two identical queries
/// at the same time").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// Treatment.
    Treatment,
    /// Control.
    Control,
}

impl Role {
    /// Both.
    pub const BOTH: [Role; 2] = [Role::Treatment, Role::Control];
}

/// One collected SERP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Absolute simulation day.
    pub day: u32,
    /// Day within the (batch, granularity) block, 0-based — what the
    /// paper's Figure 8 x-axis calls "Day 1..5".
    pub block_day: u32,
    /// The granularity.
    pub granularity: Granularity,
    /// The location.
    pub location: LocationId,
    /// The term.
    pub term: String,
    /// The category.
    pub category: QueryCategory,
    /// The role.
    pub role: Role,
    /// Extracted results in page order (paper's extraction rule).
    pub results: Vec<(UrlId, ResultType)>,
    /// Which datacenter served the page.
    pub datacenter: String,
    /// The location label the engine reported in the SERP footer.
    pub reported_location: String,
}

/// Crawl-level metadata.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DatasetMeta {
    /// World seed the study ran under.
    pub seed: u64,
    /// Jobs that failed permanently (after retries) and were skipped.
    pub failed_jobs: u64,
    /// Two requests per fetch attempt (homepage plus search): always
    /// `2 × attempts`. This is not every exchange: `Browser::load` re-sends
    /// dropped requests within an attempt, and an attempt whose homepage
    /// load fails never sends its search. The network's `net.requests`
    /// counts every exchange.
    pub requests_issued: u64,
    /// Fetch attempts, including retries (at least one per job).
    pub attempts: u64,
    /// Attempts beyond a job's first — retry pressure under faults.
    pub retries: u64,
    /// Attempts whose body arrived but failed SERP parsing (corruption).
    pub parse_failures: u64,
    /// Attempts that failed at the transport layer (drops, resets).
    pub net_errors: u64,
    /// Attempts rejected by the service's per-IP rate limiter (HTTP 429).
    /// A subset of `net_errors` — each 429 is also counted there, so the
    /// accounting identity over retries and failed jobs is unchanged.
    pub rate_limited: u64,
    /// Total ghost-time retry backoff across all jobs, virtual ms (see
    /// `RetryPolicy`; never advances the shared clock).
    pub backoff_ms: u64,
    /// Retries abandoned because their backoff would exceed the round
    /// deadline (each also shows up as a failed job).
    pub deadline_giveups: u64,
    /// The largest ghost backoff any single job accumulated, virtual ms —
    /// the per-round worst case the retry budget bounds.
    pub max_job_backoff_ms: u64,
}

impl DatasetMeta {
    /// The crawl counters under their metrics-registry names — the one
    /// table the live registry and `geoserp report <dataset>` share. The
    /// backoff fields are not in it: the registry records backoff as the
    /// `crawler.backoff_ms` histogram instead.
    pub fn counters(&self) -> [(&'static str, u64); 8] {
        [
            // Two per fetch attempt, not every exchange (`net.requests`).
            ("crawler.requests_issued", self.requests_issued),
            ("crawler.attempts", self.attempts),
            ("crawler.retries", self.retries),
            ("crawler.parse_failures", self.parse_failures),
            ("crawler.net_errors", self.net_errors),
            ("crawler.rate_limited", self.rate_limited),
            ("crawler.failed_jobs", self.failed_jobs),
            ("crawler.deadline_giveups", self.deadline_giveups),
        ]
    }
}

/// FNV-1a, 64-bit — the stable digest used for plan hashes and dataset
/// golden tests (dependency-free and identical across platforms).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.0
}

/// A running FNV-1a hash that is also an `io::Write` sink, so a digest can
/// be taken over a serializer's stream without holding the text.
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::io::Write for Fnv1a {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// FNV-1a over `value`'s compact JSON, streamed: equal to
/// `fnv1a64(serde_json::to_string(value).as_bytes())`.
pub(crate) fn json_digest<T: Serialize + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv1a::default();
    serde_json::to_writer(&mut h, value).expect("hashing cannot fail");
    h.0
}

/// The full collected dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    urls: Vec<String>,
    #[serde(skip)]
    url_index: HashMap<String, UrlId>,
    observations: Vec<Observation>,
    /// The vantage points the study used (location metadata for analysis).
    pub vantage: VantagePoints,
    /// The meta.
    pub meta: DatasetMeta,
}

impl Dataset {
    /// An empty dataset over the given vantage points.
    pub fn new(vantage: VantagePoints, meta: DatasetMeta) -> Self {
        Dataset {
            urls: Vec::new(),
            url_index: HashMap::new(),
            observations: Vec::new(),
            vantage,
            meta,
        }
    }

    /// Intern a URL.
    pub fn intern(&mut self, url: &str) -> UrlId {
        if let Some(&id) = self.url_index.get(url) {
            return id;
        }
        let id = UrlId(self.urls.len() as u32);
        self.urls.push(url.to_string());
        self.url_index.insert(url.to_string(), id);
        id
    }

    /// The string for an interned id.
    pub fn url(&self, id: UrlId) -> &str {
        &self.urls[id.0 as usize]
    }

    /// Number of distinct URLs observed.
    pub fn distinct_urls(&self) -> usize {
        self.urls.len()
    }

    /// Append an observation.
    pub fn push(&mut self, obs: Observation) {
        self.observations.push(obs);
    }

    /// All observations in crawl order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// The (treatment, control) pair for one cell, if both were collected.
    pub fn pair(
        &self,
        block_day: u32,
        granularity: Granularity,
        location: LocationId,
        term: &str,
    ) -> Option<(&Observation, &Observation)> {
        let mut t = None;
        let mut c = None;
        for o in &self.observations {
            if o.block_day == block_day
                && o.granularity == granularity
                && o.location == location
                && o.term == term
            {
                match o.role {
                    Role::Treatment => t = Some(o),
                    Role::Control => c = Some(o),
                }
            }
        }
        Some((t?, c?))
    }

    /// Location metadata by id.
    pub fn location(&self, id: LocationId) -> Option<&Location> {
        self.vantage
            .national
            .iter()
            .chain(self.vantage.state.iter())
            .chain(self.vantage.county.iter())
            .find(|l| l.id == id)
    }

    /// Rebuild the (serde-skipped) URL index after deserialization.
    pub fn rebuild_index(&mut self) {
        self.url_index = self
            .urls
            .iter()
            .enumerate()
            .map(|(i, u)| (u.clone(), UrlId(i as u32)))
            .collect();
    }

    /// Check what analysis relies on and the JSON types cannot express:
    /// every observation names one of the dataset's vantage points and only
    /// URL ids its table holds. Both loaders run this, so a hand-edited file
    /// is refused with a message instead of panicking in a later lookup.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let mut vantage: Vec<LocationId> = [
            &self.vantage.national,
            &self.vantage.state,
            &self.vantage.county,
        ]
        .into_iter()
        .flatten()
        .map(|l| l.id)
        .collect();
        vantage.sort_unstable();
        for (i, obs) in self.observations.iter().enumerate() {
            if vantage.binary_search(&obs.location).is_err() {
                return Err(format!(
                    "observation {i} names location {}, which is not one of the dataset's vantage points",
                    obs.location.0
                ));
            }
            if let Some((id, _)) = obs
                .results
                .iter()
                .find(|(id, _)| id.0 as usize >= self.urls.len())
            {
                return Err(format!(
                    "observation {i} names URL id {}, but the dataset holds {} URLs",
                    id.0,
                    self.urls.len()
                ));
            }
        }
        Ok(())
    }

    /// Check that the meta balances the way every crawl the crawler writes
    /// does after `jobs` scheduled jobs of at most `max_attempts` attempts
    /// each: every job is an observation or a failed job; every attempt is
    /// a job's first or a retry and issues two requests; every failed
    /// attempt but a failed job's last provoked a retry; 429s are net
    /// errors, deadline give-ups are failed jobs, and no job's backoff
    /// exceeds the total.
    pub(crate) fn check_accounting(&self, jobs: u64, max_attempts: u64) -> Result<(), String> {
        let m = &self.meta;
        let observed = self.observations.len() as u64;
        let causes = m.parse_failures.checked_add(m.net_errors);
        let broken = if observed.checked_add(m.failed_jobs) != Some(jobs) {
            format!(
                "{observed} observations + {} failed jobs ≠ {jobs} jobs",
                m.failed_jobs
            )
        } else if jobs.checked_add(m.retries) != Some(m.attempts) {
            format!(
                "{} attempts ≠ {jobs} jobs + {} retries",
                m.attempts, m.retries
            )
        } else if jobs
            .checked_mul(max_attempts)
            .is_none_or(|cap| m.attempts > cap)
        {
            format!(
                "{} attempts exceed {jobs} jobs × {max_attempts} attempts",
                m.attempts
            )
        } else if m.attempts.checked_mul(2) != Some(m.requests_issued) {
            format!(
                "{} requests ≠ 2 × {} attempts",
                m.requests_issued, m.attempts
            )
        } else if causes.is_none() || causes != m.retries.checked_add(m.failed_jobs) {
            format!(
                "{} parse failures + {} net errors ≠ {} retries + {} failed jobs",
                m.parse_failures, m.net_errors, m.retries, m.failed_jobs
            )
        } else if m.rate_limited > m.net_errors {
            format!("{} 429s > {} net errors", m.rate_limited, m.net_errors)
        } else if m.deadline_giveups > m.failed_jobs {
            format!(
                "{} deadline give-ups > {} failed jobs",
                m.deadline_giveups, m.failed_jobs
            )
        } else if m.max_job_backoff_ms > m.backoff_ms {
            format!(
                "{} ms max job backoff > {} ms total",
                m.max_job_backoff_ms, m.backoff_ms
            )
        } else {
            return Ok(());
        };
        Err(format!("crawl accounting does not balance: {broken}"))
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("dataset serializes")
    }

    /// Stable digest of the exported dataset (FNV-1a over the JSON form).
    /// Two datasets are byte-identical iff their digests match; the golden
    /// determinism tests commit these values so a silent perturbation of
    /// the crawl's determinism fails a named test.
    pub fn digest(&self) -> u64 {
        json_digest(self)
    }

    /// Deserialize from JSON (restores the URL index). A document whose
    /// observations name a location outside its vantage points, or a URL id
    /// outside its table, is an error.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        Self::checked(serde_json::from_str(s)?)
    }

    /// [`Dataset::from_json`] over a reader (a saved dataset file),
    /// streamed through one 64 KiB buffer.
    pub fn from_reader(reader: impl std::io::Read) -> Result<Self, serde_json::Error> {
        Self::checked(serde_json::from_reader(reader)?)
    }

    fn checked(mut d: Dataset) -> Result<Self, serde_json::Error> {
        d.validate().map_err(serde_json::Error::custom)?;
        d.rebuild_index();
        Ok(d)
    }

    /// Ordered URL list of one observation.
    pub fn urls_of(&self, obs: &Observation) -> Vec<&str> {
        obs.results.iter().map(|(id, _)| self.url(*id)).collect()
    }

    /// Ordered `(url, type)` list of one observation.
    pub fn typed_urls_of(&self, obs: &Observation) -> Vec<(&str, ResultType)> {
        obs.results
            .iter()
            .map(|(id, t)| (self.url(*id), *t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoserp_geo::{Seed, UsGeography};

    fn empty_dataset() -> Dataset {
        let geo = UsGeography::generate(Seed::new(1));
        let vantage = VantagePoints::paper_defaults(&geo, Seed::new(1).derive("vp"));
        Dataset::new(vantage, DatasetMeta::default())
    }

    fn obs(
        ds: &mut Dataset,
        day: u32,
        loc: u32,
        term: &str,
        role: Role,
        urls: &[&str],
    ) -> Observation {
        Observation {
            day,
            block_day: day,
            granularity: Granularity::County,
            location: LocationId(loc),
            term: term.to_string(),
            category: QueryCategory::Local,
            role,
            results: urls
                .iter()
                .map(|u| (ds.intern(u), ResultType::Organic))
                .collect(),
            datacenter: "dc0".into(),
            reported_location: "Cleveland, OH".into(),
        }
    }

    #[test]
    fn interning_dedups() {
        let mut ds = empty_dataset();
        let a = ds.intern("https://x/");
        let b = ds.intern("https://x/");
        let c = ds.intern("https://y/");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(ds.distinct_urls(), 2);
        assert_eq!(ds.url(a), "https://x/");
    }

    #[test]
    fn pair_lookup() {
        let mut ds = empty_dataset();
        let t = obs(&mut ds, 0, 101, "bank", Role::Treatment, &["u1", "u2"]);
        let c = obs(&mut ds, 0, 101, "bank", Role::Control, &["u1", "u3"]);
        ds.push(t);
        ds.push(c);
        let (t, c) = ds
            .pair(0, Granularity::County, LocationId(101), "bank")
            .expect("pair exists");
        assert_eq!(t.role, Role::Treatment);
        assert_eq!(c.role, Role::Control);
        assert!(ds
            .pair(1, Granularity::County, LocationId(101), "bank")
            .is_none());
    }

    #[test]
    fn json_roundtrip_restores_index() {
        let mut ds = empty_dataset();
        let loc = ds.vantage.county[0].id.0;
        let o = obs(&mut ds, 0, loc, "park", Role::Treatment, &["a", "b", "c"]);
        ds.push(o);
        let json = ds.to_json();
        let mut back = Dataset::from_json(&json).unwrap();
        assert_eq!(back.observations().len(), 1);
        assert_eq!(
            back.urls_of(&back.observations()[0].clone()),
            vec!["a", "b", "c"]
        );
        // The rebuilt index keeps interning consistent.
        let id = back.intern("a");
        assert_eq!(back.url(id), "a");
        assert_eq!(back.distinct_urls(), 3);
    }

    #[test]
    fn from_json_rejects_unknown_locations_and_url_ids() {
        let mut ds = empty_dataset();
        let loc = ds.vantage.county[0].id.0;
        let o = obs(&mut ds, 0, loc, "park", Role::Treatment, &["a", "b"]);
        ds.push(o);
        assert!(Dataset::from_json(&ds.to_json()).is_ok());

        let mut stray = ds.clone();
        stray.observations[0].location = LocationId(u32::MAX);
        let err = Dataset::from_json(&stray.to_json()).unwrap_err();
        assert!(err.to_string().contains("location 4294967295"), "{err}");

        let mut dangling = ds.clone();
        dangling.observations[0].results[1].0 = UrlId(2);
        let err = Dataset::from_json(&dangling.to_json()).unwrap_err();
        assert!(err.to_string().contains("URL id 2"), "{err}");
    }

    #[test]
    fn location_lookup_spans_all_granularities() {
        let ds = empty_dataset();
        for gran in [
            Granularity::County,
            Granularity::State,
            Granularity::National,
        ] {
            let l = &ds.vantage.at(gran)[0];
            assert_eq!(ds.location(l.id).unwrap().id, l.id);
        }
        assert!(ds.location(LocationId(9999)).is_none());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest_tracks_content() {
        let mut a = empty_dataset();
        let mut b = empty_dataset();
        assert_eq!(a.digest(), b.digest());
        let o = obs(&mut a, 0, 1, "bank", Role::Treatment, &["u"]);
        a.push(o);
        assert_ne!(a.digest(), b.digest());
        let o = obs(&mut b, 0, 1, "bank", Role::Treatment, &["u"]);
        b.push(o);
        assert_eq!(a.digest(), b.digest());
        // The streamed digest is FNV-1a over exactly the JSON text.
        assert_eq!(a.digest(), fnv1a64(a.to_json().as_bytes()));
    }

    #[test]
    fn typed_urls_keep_order_and_types() {
        let mut ds = empty_dataset();
        let mut o = obs(&mut ds, 0, 1, "x", Role::Treatment, &["u1", "u2"]);
        o.results[1].1 = ResultType::Maps;
        ds.push(o);
        let typed = ds.typed_urls_of(&ds.observations()[0].clone());
        assert_eq!(typed[0], ("u1", ResultType::Organic));
        assert_eq!(typed[1], ("u2", ResultType::Maps));
    }
}

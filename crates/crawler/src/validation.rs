//! The §2.2 validation experiment.
//!
//! "We issued identical controversial queries with the same exact GPS
//! coordinate from 50 different PlanetLab machines across the US, and
//! observe that 94% of the search results received by the machines are
//! identical. This confirms that Google Search personalizes search results
//! largely based on the provided GPS coordinates rather than the IP
//! address."
//!
//! [`run_validation`] reproduces the experiment twice: once with the spoofed
//! GPS (results should agree up to noise) and once with geolocation denied
//! (the engine falls back to IP geolocation and results scatter with the
//! machines' physical locations) — the contrast *is* the validation.

use crate::machines::MachinePool;
use geoserp_browser::Browser;
use geoserp_corpus::{QueryCategory, WebCorpus};
use geoserp_engine::{EngineConfig, SearchEngine, SearchService, SEARCH_HOST};
use geoserp_geo::{Coord, Seed, UsGeography};
use geoserp_net::SimNet;
use geoserp_serp::SerpPage;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Outcome of the validation experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// The machines.
    pub machines: usize,
    /// The queries.
    pub queries: usize,
    /// Mean pairwise Jaccard of result sets when all machines present the
    /// same GPS fix (the paper's "94 % of the search results … identical").
    pub gps_mean_pairwise_jaccard: f64,
    /// Fraction of machine pairs whose ordered result lists are *exactly*
    pub gps_identical_pair_fraction: f64,
    /// Fraction of machines whose SERP footer reported the spoofed location.
    pub gps_reported_location_agreement: f64,
    /// Mean pairwise Jaccard when geolocation is denied (IP fallback):
    /// low, because the machines are physically scattered.
    pub ip_mean_pairwise_jaccard: f64,
    /// Identical-pair fraction under IP fallback.
    pub ip_identical_pair_fraction: f64,
}

fn mean_pairwise<T, F: Fn(&T, &T) -> f64>(items: &[T], f: F) -> f64 {
    let n = items.len();
    if n < 2 {
        return 1.0;
    }
    let mut total = 0.0;
    let mut pairs = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            total += f(&items[i], &items[j]);
            pairs += 1;
        }
    }
    total / pairs as f64
}

/// Run the validation experiment.
///
/// `machine_count` PlanetLab-style machines (physically spread over the US
/// states, each in its own /24, each registered in the engine's GeoIP
/// database at its true site) issue the first `query_count` controversial
/// queries, all presenting the Cuyahoga-centroid GPS fix, all at the same
/// virtual instant per query, 11 minutes apart across queries.
pub fn run_validation(
    seed: Seed,
    config: EngineConfig,
    machine_count: usize,
    query_count: usize,
) -> ValidationReport {
    let geo = Arc::new(UsGeography::generate(seed));
    let corpus = Arc::new(WebCorpus::generate(&geo, seed.derive("corpus")));
    let engine = Arc::new(
        SearchEngine::builder(Arc::clone(&corpus), &geo, seed.derive("engine"))
            .config(config)
            .build()
            .expect("validation engine config must be valid"),
    );
    let net = Arc::new(SimNet::builder(seed.derive("net")).build());
    let addrs = SearchService::install(&net, Arc::clone(&engine));
    net.dns().pin(SEARCH_HOST, addrs[0]);

    // Machines physically scattered over the state centroids (cycled).
    let sites: Vec<Coord> = (0..machine_count)
        .map(|i| {
            let st = &geo.states[i % geo.states.len()];
            // Nudge repeats so no two machines share an exact coordinate.
            st.coord
                .destination(37.0, 3.0 * (i / geo.states.len()) as f64)
        })
        .collect();
    let pool = MachinePool::planetlab(&sites);
    for (ip, site) in pool.entries() {
        if let Some(site) = site {
            engine.geoip().register(*ip, *site);
        }
    }

    let spoofed = geoserp_geo::us::CUYAHOGA_CENTROID;
    let terms: Vec<&str> = corpus
        .queries
        .of(QueryCategory::Controversial)
        .iter()
        .take(query_count)
        .map(|q| q.term.as_str())
        .collect();

    let fetch = |machine: std::net::Ipv4Addr, term: &str, gps: Option<Coord>| -> SerpPage {
        let mut b = Browser::new(Arc::clone(&net), machine);
        match gps {
            Some(c) => b.set_geolocation(c),
            None => b.deny_geolocation(),
        }
        b.load(SEARCH_HOST, "/", &[]).expect("homepage loads");
        let body = b
            .load(SEARCH_HOST, "/search", &[("q", term)])
            .expect("search loads")
            .body;
        geoserp_serp::parse(&body).expect("page parses")
    };

    let mut gps_jaccards = Vec::new();
    let mut gps_identicals = Vec::new();
    let mut gps_agreements = Vec::new();
    let mut ip_jaccards = Vec::new();
    let mut ip_identicals = Vec::new();

    let expected_label = "Cleveland, OH";
    for term in &terms {
        // GPS condition: all machines, same instant, same spoofed fix.
        let pages: Vec<SerpPage> = pool
            .ips()
            .iter()
            .map(|&m| fetch(m, term, Some(spoofed)))
            .collect();
        let urls: Vec<Vec<String>> = pages.iter().map(|p| p.urls()).collect();
        gps_jaccards.push(mean_pairwise(&urls, |a, b| geoserp_metrics::jaccard(a, b)));
        gps_identicals.push(mean_pairwise(&urls, |a, b| f64::from(u8::from(a == b))));
        gps_agreements.push(
            pages
                .iter()
                .filter(|p| p.reported_location == expected_label)
                .count() as f64
                / pages.len() as f64,
        );
        net.clock().advance_minutes(11);

        // IP condition: geolocation denied; the engine falls back to GeoIP.
        let urls: Vec<Vec<String>> = pool
            .ips()
            .iter()
            .map(|&m| fetch(m, term, None).urls())
            .collect();
        ip_jaccards.push(mean_pairwise(&urls, |a, b| geoserp_metrics::jaccard(a, b)));
        ip_identicals.push(mean_pairwise(&urls, |a, b| f64::from(u8::from(a == b))));
        net.clock().advance_minutes(11);
    }

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    ValidationReport {
        machines: machine_count,
        queries: terms.len(),
        gps_mean_pairwise_jaccard: mean(&gps_jaccards),
        gps_identical_pair_fraction: mean(&gps_identicals),
        gps_reported_location_agreement: mean(&gps_agreements),
        ip_mean_pairwise_jaccard: mean(&ip_jaccards),
        ip_identical_pair_fraction: mean(&ip_identicals),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gps_dominates_ip_geolocation() {
        let report = run_validation(Seed::new(2015), EngineConfig::paper_defaults(), 12, 4);
        assert_eq!(report.machines, 12);
        assert_eq!(report.queries, 4);
        // The paper's 94%: under shared GPS, results agree far beyond the
        // IP-fallback condition.
        assert!(
            report.gps_mean_pairwise_jaccard > 0.85,
            "gps jaccard {}",
            report.gps_mean_pairwise_jaccard
        );
        // Controversial queries barely personalize, so the IP condition is
        // only moderately worse — but strictly worse it must be.
        assert!(
            report.gps_mean_pairwise_jaccard > report.ip_mean_pairwise_jaccard,
            "gps {} vs ip {}",
            report.gps_mean_pairwise_jaccard,
            report.ip_mean_pairwise_jaccard
        );
        // Every machine's footer reported the spoofed location.
        assert_eq!(report.gps_reported_location_agreement, 1.0);
    }

    #[test]
    fn noiseless_engine_gives_perfect_gps_agreement() {
        let report = run_validation(Seed::new(3), EngineConfig::noiseless(), 8, 3);
        assert_eq!(report.gps_mean_pairwise_jaccard, 1.0);
        assert_eq!(report.gps_identical_pair_fraction, 1.0);
    }

    #[test]
    fn mean_pairwise_of_singleton_is_one() {
        assert_eq!(mean_pairwise(&[1], |_, _| 0.0), 1.0);
    }
}

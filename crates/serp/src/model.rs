//! Typed model of a mobile SERP.

use crate::registry::{ComponentRegistry, ExtractionRule};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The type of an extracted search result — the dimension along which the
/// paper attributes noise and personalization (Figures 4 and 7), extended
/// past the paper's Maps/News pair to the full component taxonomy.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResultType {
    /// A "typical" organic result.
    Organic,
    /// A link inside a Maps meta-card.
    Maps,
    /// A link inside an "In the News" meta-card.
    News,
    /// A link inside a local pack (distance-ranked establishments).
    LocalPack,
    /// The link carried by an answer box pinned above the organics.
    AnswerBox,
    /// The entity link carried by a footer knowledge panel.
    KnowledgePanel,
    /// A link inside an ads card.
    Ads,
    /// A link inside a component this parser has no spec for.
    Unknown,
}

impl ResultType {
    /// The full taxonomy, organic first.
    pub const ALL: [ResultType; 8] = [
        ResultType::Organic,
        ResultType::Maps,
        ResultType::News,
        ResultType::LocalPack,
        ResultType::AnswerBox,
        ResultType::KnowledgePanel,
        ResultType::Ads,
        ResultType::Unknown,
    ];

    /// The meta-component types: every link-bearing type except plain
    /// organic results. This is the axis the per-component attribution
    /// decomposes over (Maps and News first — the paper's original pair).
    pub const META: [ResultType; 6] = [
        ResultType::Maps,
        ResultType::News,
        ResultType::LocalPack,
        ResultType::AnswerBox,
        ResultType::KnowledgePanel,
        ResultType::Ads,
    ];
}

impl fmt::Display for ResultType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResultType::Organic => "organic",
            ResultType::Maps => "maps",
            ResultType::News => "news",
            ResultType::LocalPack => "local_pack",
            ResultType::AnswerBox => "answer_box",
            ResultType::KnowledgePanel => "knowledge_panel",
            ResultType::Ads => "ads",
            ResultType::Unknown => "unknown",
        })
    }
}

/// The type of a card on the SERP. All per-type behavior (wire name,
/// extraction rule, position class, result type) lives in the card's
/// [`ComponentSpec`](crate::registry::ComponentSpec) in the built-in
/// registry; the methods here are lookups into it.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CardType {
    /// Organic.
    Organic,
    /// Maps.
    Maps,
    /// News.
    News,
    /// Local pack: distance-ranked nearby establishments.
    LocalPack,
    /// Answer box pinned above the organic results.
    AnswerBox,
    /// Knowledge panel pinned below the organic results.
    KnowledgePanel,
    /// Ads interleaved at a fixed organic slot.
    Ads,
    /// A card type the lenient parser had no spec for.
    Unknown,
}

impl CardType {
    /// Every card type, in registry order.
    pub const ALL: [CardType; 8] = [
        CardType::Organic,
        CardType::Maps,
        CardType::News,
        CardType::LocalPack,
        CardType::AnswerBox,
        CardType::KnowledgePanel,
        CardType::Ads,
        CardType::Unknown,
    ];

    /// This card type's spec in the built-in registry.
    pub(crate) fn builtin_spec(self) -> &'static crate::registry::ComponentSpec {
        ComponentRegistry::builtin()
            .spec(self)
            .expect("builtin registry covers every card type")
    }

    /// The `type="…"` attribute value this card renders with.
    pub fn wire_name(self) -> &'static str {
        self.builtin_spec().wire_name
    }

    /// The card type registered for a wire name, if any.
    pub fn from_wire(s: &str) -> Option<CardType> {
        ComponentRegistry::builtin()
            .by_wire(s)
            .map(|spec| spec.ctype)
    }
}

/// One card: a result or a meta-result with several links.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Card {
    /// The ctype.
    pub ctype: CardType,
    /// `(url, title)` entries in display order. Never empty on a rendered
    /// page.
    pub entries: Vec<(String, String)>,
    /// The organic slot an ads card is interleaved at. `None` for every
    /// other card type (and never rendered for them).
    pub slot: Option<u32>,
}

impl Card {
    /// An empty card of the given type.
    pub fn new(ctype: CardType) -> Self {
        Card {
            ctype,
            entries: Vec::new(),
            slot: None,
        }
    }

    /// A single-result card.
    pub fn single(ctype: CardType, url: impl Into<String>, title: impl Into<String>) -> Self {
        let mut c = Card::new(ctype);
        c.push(url, title);
        c
    }

    /// An empty ads card carrying its interleave slot.
    pub fn ad(slot: u32) -> Self {
        let mut c = Card::new(CardType::Ads);
        c.slot = Some(slot);
        c
    }

    /// Append an entry.
    pub fn push(&mut self, url: impl Into<String>, title: impl Into<String>) {
        self.entries.push((url.into(), title.into()));
    }

    /// Number of links this card contributes under the extraction rule in
    /// its registry spec.
    pub fn extracted_len(&self) -> usize {
        match self.ctype.builtin_spec().extraction {
            ExtractionRule::AllLinks => self.entries.len(),
            ExtractionRule::FirstLink => 1.min(self.entries.len()),
            ExtractionRule::NoLinks => 0,
        }
    }
}

/// One extracted search result, in page order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SerpResult {
    /// 0-based position in the extracted list (the ordering edit distance
    /// operates on).
    pub rank: usize,
    /// The url.
    pub url: String,
    /// The title.
    pub title: String,
    /// The rtype.
    pub rtype: ResultType,
}

/// A full page of mobile search results.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SerpPage {
    /// The query as the engine received it.
    pub query: String,
    /// The GPS fix the engine personalized for, if one was provided
    /// (`"lat,lon"` with 6 decimals).
    pub gps: Option<String>,
    /// Identifier of the datacenter/replica that served the page.
    pub datacenter: String,
    /// The human-readable location the engine reports at the bottom of the
    /// page ("Google Search reports the user's precise location", §2.2).
    pub reported_location: String,
    /// The cards.
    pub cards: Vec<Card>,
}

impl SerpPage {
    /// An empty page.
    pub fn new(
        query: impl Into<String>,
        gps: Option<&str>,
        datacenter: impl Into<String>,
        reported_location: impl Into<String>,
    ) -> Self {
        SerpPage {
            query: query.into(),
            gps: gps.map(str::to_owned),
            datacenter: datacenter.into(),
            reported_location: reported_location.into(),
            cards: Vec::new(),
        }
    }

    /// Append a card.
    pub fn push_card(&mut self, card: Card) {
        self.cards.push(card);
    }

    /// Apply the extraction rule of each card's registry spec: first link
    /// of first-link cards, all links of all-links cards, nothing from
    /// no-links cards; ranks assigned in page order.
    pub fn extract_results(&self) -> Vec<SerpResult> {
        let mut out = Vec::new();
        for card in &self.cards {
            let spec = card.ctype.builtin_spec();
            let take = match spec.extraction {
                ExtractionRule::AllLinks => card.entries.len(),
                ExtractionRule::FirstLink => 1.min(card.entries.len()),
                ExtractionRule::NoLinks => 0,
            };
            for (url, title) in card.entries.iter().take(take) {
                out.push(SerpResult {
                    rank: out.len(),
                    url: url.clone(),
                    title: title.clone(),
                    rtype: spec.rtype,
                });
            }
        }
        out
    }

    /// Extracted URLs only, in order (what the comparison metrics consume).
    pub fn urls(&self) -> Vec<String> {
        self.extract_results().into_iter().map(|r| r.url).collect()
    }

    /// Total extracted-link count (the paper observes 12–22 per page).
    pub fn result_count(&self) -> usize {
        self.cards.iter().map(Card::extracted_len).sum()
    }

    /// Whether the page contains a card of the given type.
    pub fn has_card(&self, ctype: CardType) -> bool {
        self.cards.iter().any(|c| c.ctype == ctype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> SerpPage {
        let mut p = SerpPage::new("school", Some("41.0,-81.0"), "dc0", "Cleveland, OH");
        p.push_card(Card::single(CardType::Organic, "u1", "t1"));
        let mut maps = Card::new(CardType::Maps);
        maps.push("m1", "p1");
        maps.push("m2", "p2");
        maps.push("m3", "p3");
        p.push_card(maps);
        p.push_card(Card::single(CardType::Organic, "u2", "t2"));
        let mut news = Card::new(CardType::News);
        news.push("n1", "a1");
        news.push("n2", "a2");
        p.push_card(news);
        p
    }

    #[test]
    fn extraction_order_and_ranks() {
        let res = page().extract_results();
        let urls: Vec<&str> = res.iter().map(|r| r.url.as_str()).collect();
        assert_eq!(urls, vec!["u1", "m1", "m2", "m3", "u2", "n1", "n2"]);
        for (i, r) in res.iter().enumerate() {
            assert_eq!(r.rank, i);
        }
    }

    #[test]
    fn result_types_follow_cards() {
        let res = page().extract_results();
        assert_eq!(res[0].rtype, ResultType::Organic);
        assert_eq!(res[1].rtype, ResultType::Maps);
        assert_eq!(res[5].rtype, ResultType::News);
    }

    #[test]
    fn result_count_matches_extraction() {
        let p = page();
        assert_eq!(p.result_count(), p.extract_results().len());
        assert_eq!(p.result_count(), 7);
    }

    #[test]
    fn organic_card_contributes_one_even_with_sitelinks() {
        let mut c = Card::single(CardType::Organic, "u", "t");
        c.push("u-sub", "sub");
        assert_eq!(c.extracted_len(), 1);
        let mut m = Card::new(CardType::Maps);
        assert_eq!(m.extracted_len(), 0);
        m.push("a", "b");
        m.push("c", "d");
        assert_eq!(m.extracted_len(), 2);
    }

    #[test]
    fn rich_components_follow_their_extraction_rules() {
        let mut p = SerpPage::new("kfc", None, "dc0", "USA");
        p.push_card(Card::single(CardType::AnswerBox, "a1", "answer"));
        let mut pack = Card::new(CardType::LocalPack);
        pack.push("l1", "near");
        pack.push("l2", "nearer");
        p.push_card(pack);
        let mut ad = Card::ad(2);
        ad.push("ad1", "sponsored");
        p.push_card(ad);
        let mut unk = Card::new(CardType::Unknown);
        unk.push("x1", "mystery");
        p.push_card(unk);
        p.push_card(Card::single(CardType::KnowledgePanel, "k1", "entity"));

        let res = p.extract_results();
        let urls: Vec<&str> = res.iter().map(|r| r.url.as_str()).collect();
        // The unknown card contributes nothing; everything else extracts.
        assert_eq!(urls, vec!["a1", "l1", "l2", "ad1", "k1"]);
        assert_eq!(res[0].rtype, ResultType::AnswerBox);
        assert_eq!(res[1].rtype, ResultType::LocalPack);
        assert_eq!(res[3].rtype, ResultType::Ads);
        assert_eq!(res[4].rtype, ResultType::KnowledgePanel);
        assert_eq!(p.result_count(), 5);
    }

    #[test]
    fn has_card_lookup() {
        let p = page();
        assert!(p.has_card(CardType::Maps));
        assert!(p.has_card(CardType::News));
        let empty = SerpPage::new("x", None, "dc0", "USA");
        assert!(!empty.has_card(CardType::Maps));
        assert_eq!(empty.result_count(), 0);
    }

    #[test]
    fn card_type_wire_roundtrip() {
        for t in CardType::ALL {
            assert_eq!(CardType::from_wire(t.wire_name()), Some(t));
        }
        assert_eq!(CardType::from_wire("bogus"), None);
    }

    #[test]
    fn meta_types_exclude_organic_and_unknown() {
        assert!(!ResultType::META.contains(&ResultType::Organic));
        assert!(!ResultType::META.contains(&ResultType::Unknown));
        for t in ResultType::META {
            assert!(ResultType::ALL.contains(&t));
        }
    }

    #[test]
    fn urls_helper() {
        assert_eq!(page().urls()[0], "u1");
    }
}

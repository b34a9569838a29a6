//! Inverted index over the synthetic web.
//!
//! Conjunctive (AND) retrieval with a disjunctive (OR) fallback: real search
//! engines fill thin result sets with partial matches, and the fallback is
//! what puts "other people named James" on a politician's SERP — the
//! ambiguity tail the paper observes for common names.
//!
//! Two interchangeable backends implement the same retrieval contract:
//!
//! * [`InvertedIndex`] — the exact reference: a `HashMap` of uncompressed
//!   posting vectors, evaluated exhaustively. Simple, obviously correct,
//!   linear in corpus size per query.
//! * [`CompressedIndex`] — a sorted term dictionary over delta/varint
//!   posting blocks ([`crate::postings`]) with skip pointers and max-score
//!   metadata, evaluated document-at-a-time with MaxScore-style top-k
//!   early termination.
//!
//! The two are **byte-identical** by contract, not merely "equivalent":
//! every candidate list, partial score, tie-break, and spell suggestion the
//! compressed backend produces reproduces the exact backend bit for bit.
//! `tests/index_equivalence.rs` pins full served SERPs across corpus
//! scales and topologies to a golden digest, and the in-crate differential
//! tests below cover the retrieval layer directly. [`SearchIndex`]
//! dispatches between them on [`IndexBackend`].

use crate::config::IndexBackend;
use crate::postings::{PostingCursor, PostingList};
use geoserp_corpus::{tokenize, PageId, WebCorpus};
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// A retrieved candidate before ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The page.
    pub page: PageId,
    /// Lexical score in `(0, 1]`: 1.0 for full (AND) matches, lower for
    /// partial matches (scaled by matched-token fraction).
    pub lexical: f64,
}

/// Token → postings map over a corpus.
#[derive(Debug)]
pub struct InvertedIndex {
    postings: HashMap<String, Vec<PageId>>,
    /// Vocabulary sorted by (length, token) for the spell-correction scan.
    vocabulary: Vec<String>,
    page_count: usize,
}

impl InvertedIndex {
    /// Build the index (token set per page; multiplicity is ignored, titles
    /// already weight head terms by construction).
    pub fn build(corpus: &WebCorpus) -> Self {
        Self::build_range(corpus, 0..corpus.pages.len() as u32)
    }

    /// Build an index over only the pages whose id falls in `range` — one
    /// shard's slice of the corpus. Every page's tokens are indexed whole
    /// within its owning shard, so shard-local full/partial classification
    /// and matched-token counts agree exactly with the global index.
    pub fn build_range(corpus: &WebCorpus, range: std::ops::Range<u32>) -> Self {
        let mut postings: HashMap<String, Vec<PageId>> = HashMap::new();
        let mut page_count = 0usize;
        for page in &corpus.pages {
            if !range.contains(&page.id.0) {
                continue;
            }
            page_count += 1;
            let mut seen = std::collections::HashSet::new();
            for token in &page.tokens {
                if seen.insert(token.as_str()) {
                    postings.entry(token.clone()).or_default().push(page.id);
                }
            }
        }
        let mut vocabulary: Vec<String> = postings.keys().cloned().collect();
        vocabulary.sort_by(|a, b| a.len().cmp(&b.len()).then(a.cmp(b)));
        // Postings are naturally sorted by page id (pages are in id order).
        InvertedIndex {
            postings,
            vocabulary,
            page_count,
        }
    }

    /// Number of indexed pages.
    pub fn page_count(&self) -> usize {
        self.page_count
    }

    /// Document frequency of a token.
    pub fn df(&self, token: &str) -> usize {
        self.postings.get(token).map_or(0, Vec::len)
    }

    /// Bytes of raw posting storage (dictionary strings + 4-byte ids) —
    /// the uncompressed baseline the bench's compression ratio divides by.
    pub fn postings_bytes(&self) -> usize {
        self.postings
            .iter()
            .map(|(t, l)| t.len() + l.len() * std::mem::size_of::<PageId>())
            .sum()
    }

    /// Retrieve candidates for a query.
    ///
    /// All pages containing *every* query token score `lexical = 1.0`; if
    /// fewer than `min_candidates` such pages exist, pages matching a strict
    /// subset of tokens are added with
    /// `lexical = partial_score × matched/total`, rarest-token-first so the
    /// fallback stays cheap.
    pub fn retrieve(
        &self,
        query: &str,
        min_candidates: usize,
        partial_score: f64,
    ) -> Vec<Candidate> {
        let tokens = tokenize(query);
        if tokens.is_empty() {
            return Vec::new();
        }

        // AND set: intersect postings, starting from the rarest token.
        let mut lists: Vec<&Vec<PageId>> = Vec::with_capacity(tokens.len());
        for t in &tokens {
            match self.postings.get(t) {
                Some(l) => lists.push(l),
                None => {
                    lists.clear();
                    break;
                }
            }
        }
        let mut out: Vec<Candidate> = Vec::new();
        if !lists.is_empty() {
            lists.sort_by_key(|l| l.len());
            let mut acc: Vec<PageId> = lists[0].clone();
            for l in &lists[1..] {
                let set: std::collections::HashSet<PageId> = l.iter().copied().collect();
                acc.retain(|id| set.contains(id));
                if acc.is_empty() {
                    break;
                }
            }
            out.extend(acc.into_iter().map(|page| Candidate { page, lexical: 1.0 }));
        }

        if out.len() >= min_candidates || tokens.len() < 2 && !out.is_empty() {
            return out;
        }

        // OR fallback: count matched tokens per page.
        let mut matched: HashMap<PageId, usize> = HashMap::new();
        for t in &tokens {
            if let Some(l) = self.postings.get(t) {
                for &id in l {
                    *matched.entry(id).or_insert(0) += 1;
                }
            }
        }
        let full: std::collections::HashSet<PageId> = out.iter().map(|c| c.page).collect();
        let total = tokens.len() as f64;
        let mut partial: Vec<Candidate> = matched
            .into_iter()
            .filter(|(id, n)| *n < tokens.len() && !full.contains(id))
            .map(|(page, n)| Candidate {
                page,
                lexical: partial_score * n as f64 / total,
            })
            .collect();
        // Deterministic order: score desc, then id.
        partial.sort_by(|a, b| b.lexical.total_cmp(&a.lexical).then(a.page.cmp(&b.page)));
        let deficit = min_candidates.saturating_sub(out.len()) * 4; // headroom for ranking
        partial.truncate(deficit);
        out.extend(partial);
        out
    }

    /// Shard-local retrieval: the integer-only data a shard ships to the
    /// router. Returns the AND-set page ids (id-ascending, like
    /// [`InvertedIndex::retrieve`]'s full matches) and the top
    /// `max_partials` partial matches as `(page, matched tokens)` ordered
    /// by (count desc, id asc) — the same order `retrieve` sorts partials
    /// in, since the lexical score is monotone in the matched count.
    ///
    /// `max_partials` must be at least the global deficit ceiling
    /// (`min_candidates × 4`): the global top-deficit partials that live in
    /// this shard are then always inside the returned prefix.
    pub fn shard_retrieve(
        &self,
        query: &str,
        max_partials: usize,
    ) -> (Vec<PageId>, Vec<(PageId, usize)>) {
        let tokens = tokenize(query);
        if tokens.is_empty() {
            return (Vec::new(), Vec::new());
        }

        let mut lists: Vec<&Vec<PageId>> = Vec::with_capacity(tokens.len());
        for t in &tokens {
            match self.postings.get(t) {
                Some(l) => lists.push(l),
                None => {
                    lists.clear();
                    break;
                }
            }
        }
        let mut fulls: Vec<PageId> = Vec::new();
        if !lists.is_empty() {
            lists.sort_by_key(|l| l.len());
            let mut acc: Vec<PageId> = lists[0].clone();
            for l in &lists[1..] {
                let set: std::collections::HashSet<PageId> = l.iter().copied().collect();
                acc.retain(|id| set.contains(id));
                if acc.is_empty() {
                    break;
                }
            }
            fulls = acc;
        }
        fulls.sort();

        let mut matched: HashMap<PageId, usize> = HashMap::new();
        for t in &tokens {
            if let Some(l) = self.postings.get(t) {
                for &id in l {
                    *matched.entry(id).or_insert(0) += 1;
                }
            }
        }
        let full_set: std::collections::HashSet<PageId> = fulls.iter().copied().collect();
        let mut partials: Vec<(PageId, usize)> = matched
            .into_iter()
            .filter(|(id, n)| *n < tokens.len() && !full_set.contains(id))
            .collect();
        partials.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        partials.truncate(max_partials);
        (fulls, partials)
    }

    /// Shard-local spell-correction data: per query token its local df,
    /// and — for tokens unknown to this shard — every vocabulary word
    /// within edit distance 2 as `(word, distance, local df)`. The router
    /// sums dfs across shards (each page indexes in exactly one shard, so
    /// the sum is the global df) and applies the same best-candidate
    /// comparator [`InvertedIndex::suggest`] uses.
    #[allow(clippy::type_complexity)]
    pub fn spell_data(&self, query: &str) -> (Vec<u64>, Vec<Vec<(String, usize, u64)>>) {
        let tokens = tokenize(query);
        let mut dfs = Vec::with_capacity(tokens.len());
        let mut corrections = Vec::with_capacity(tokens.len());
        for token in &tokens {
            let df = self.df(token);
            dfs.push(df as u64);
            if df > 0 {
                corrections.push(Vec::new());
                continue;
            }
            let mut cands = Vec::new();
            for cand in &self.vocabulary {
                if cand.len() > token.len() + 2 {
                    break;
                }
                if cand.len() + 2 < token.len() {
                    continue;
                }
                if let Some(d) = char_distance_within(token, cand, 2) {
                    cands.push((cand.clone(), d, self.df(cand) as u64));
                }
            }
            corrections.push(cands);
        }
        (dfs, corrections)
    }
}

/// Character-level Levenshtein distance with an early-out bound (the spell
/// corrector only cares about distances ≤ 2).
fn char_distance_within(a: &str, b: &str, bound: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > bound {
        return None;
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for i in 1..=a.len() {
        curr[0] = i;
        let mut row_min = curr[0];
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            curr[j] = (prev[j] + 1).min(curr[j - 1] + 1).min(prev[j - 1] + cost);
            row_min = row_min.min(curr[j]);
        }
        if row_min > bound {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    (prev[b.len()] <= bound).then_some(prev[b.len()])
}

impl InvertedIndex {
    /// "Did you mean": correct unknown query tokens to the most-frequent
    /// vocabulary token within character edit distance 2 (distance-1 hits
    /// are preferred). Returns the corrected query only if every unknown
    /// token found a correction and at least one token changed.
    pub fn suggest(&self, query: &str) -> Option<String> {
        let tokens = tokenize(query);
        if tokens.is_empty() {
            return None;
        }
        let mut corrected = Vec::with_capacity(tokens.len());
        let mut changed = false;
        for token in &tokens {
            if self.df(token) > 0 {
                corrected.push(token.clone());
                continue;
            }
            // Best candidate: minimal distance, then maximal document
            // frequency, then lexicographic (deterministic).
            let mut best: Option<(usize, usize, &String)> = None;
            for cand in &self.vocabulary {
                // Vocabulary is sorted by length; stop once candidates are
                // too long to be within distance 2.
                if cand.len() > token.len() + 2 {
                    break;
                }
                if cand.len() + 2 < token.len() {
                    continue;
                }
                if let Some(d) = char_distance_within(token, cand, 2) {
                    let df = self.df(cand);
                    let better = match &best {
                        None => true,
                        Some((bd, bdf, bc)) => {
                            d < *bd || (d == *bd && (df > *bdf || (df == *bdf && cand < *bc)))
                        }
                    };
                    if better {
                        best = Some((d, df, cand));
                    }
                }
            }
            let (_, _, replacement) = best?;
            corrected.push(replacement.clone());
            changed = true;
        }
        changed.then(|| corrected.join(" "))
    }
}

/// Compressed inverted index: sorted term dictionary over delta/varint
/// posting blocks with skip pointers and block max-score metadata, queried
/// document-at-a-time with MaxScore-style top-k early termination.
///
/// Byte-identical to [`InvertedIndex`] on every public method — the
/// pruning machinery only ever skips work whose outcome is provably
/// outside the returned prefix, and whenever the score function is not
/// provably monotone in the matched-token count it falls back to
/// exhaustive evaluation with the reference comparator.
#[derive(Debug)]
pub struct CompressedIndex {
    /// Lexicographically sorted dictionary; `lists[i]` belongs to
    /// `terms[i]`.
    terms: Vec<String>,
    lists: Vec<PostingList>,
    /// Permutation of `terms` indices in (length, token) order — the
    /// spell-correction scan order the exact backend's `vocabulary` uses.
    len_order: Vec<u32>,
    page_count: usize,
}

impl CompressedIndex {
    /// Build over the whole corpus.
    pub fn build(corpus: &WebCorpus) -> Self {
        Self::build_range(corpus, 0..corpus.pages.len() as u32)
    }

    /// Build over the pages whose id falls in `range` (one shard's slice),
    /// with the same per-page token-set semantics as
    /// [`InvertedIndex::build_range`].
    pub fn build_range(corpus: &WebCorpus, range: std::ops::Range<u32>) -> Self {
        let mut postings: HashMap<String, Vec<u32>> = HashMap::new();
        let mut page_count = 0usize;
        for page in &corpus.pages {
            if !range.contains(&page.id.0) {
                continue;
            }
            page_count += 1;
            let mut seen = std::collections::HashSet::new();
            for token in &page.tokens {
                if seen.insert(token.as_str()) {
                    postings.entry(token.clone()).or_default().push(page.id.0);
                }
            }
        }
        let mut entries: Vec<(String, Vec<u32>)> = postings.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut terms = Vec::with_capacity(entries.len());
        let mut lists = Vec::with_capacity(entries.len());
        for (term, ids) in entries {
            terms.push(term);
            // Pages are visited in id order, so ids are already strictly
            // increasing.
            lists.push(PostingList::build(&ids));
        }
        let mut len_order: Vec<u32> = (0..terms.len() as u32).collect();
        len_order.sort_by(|&a, &b| {
            let (a, b) = (&terms[a as usize], &terms[b as usize]);
            a.len().cmp(&b.len()).then(a.cmp(b))
        });
        CompressedIndex {
            terms,
            lists,
            len_order,
            page_count,
        }
    }

    /// Number of indexed pages.
    pub fn page_count(&self) -> usize {
        self.page_count
    }

    /// Document frequency of a token.
    pub fn df(&self, token: &str) -> usize {
        self.list(token).map_or(0, PostingList::len)
    }

    /// Bytes of compressed posting data plus skip tables plus dictionary —
    /// the resident index cost the bench reports.
    pub fn postings_bytes(&self) -> usize {
        self.lists
            .iter()
            .map(PostingList::heap_bytes)
            .sum::<usize>()
            + self.terms.iter().map(String::len).sum::<usize>()
    }

    fn list(&self, token: &str) -> Option<&PostingList> {
        self.terms
            .binary_search_by(|t| t.as_str().cmp(token))
            .ok()
            .map(|i| &self.lists[i])
    }

    /// The AND set: ids containing every query token, ascending. Any token
    /// absent from the dictionary empties the set (mirroring the exact
    /// backend's `lists.clear()`). Leapfrog intersection: the rarest list
    /// drives, the others are sought through their skip tables.
    fn and_set(&self, tokens: &[String]) -> Vec<u32> {
        let mut lists: Vec<&PostingList> = Vec::with_capacity(tokens.len());
        for t in tokens {
            match self.list(t) {
                Some(l) => lists.push(l),
                None => return Vec::new(),
            }
        }
        let Some(min_at) = (0..lists.len()).min_by_key(|&i| lists[i].len()) else {
            return Vec::new();
        };
        lists.swap(0, min_at);
        let mut driver = lists[0].cursor();
        let mut others: Vec<PostingCursor<'_>> = lists[1..].iter().map(|l| l.cursor()).collect();
        let mut out = Vec::new();
        'driver: while let Some(id) = driver.current() {
            let mut bar = id;
            for c in others.iter_mut() {
                c.seek(id);
                match c.current() {
                    None => break 'driver,
                    Some(at) => bar = bar.max(at),
                }
            }
            if bar == id {
                out.push(id);
                driver.next();
            } else {
                // Some list has no posting below `bar`; leapfrog to it.
                driver.seek(bar);
            }
        }
        out
    }

    /// Top-`k` partial matches as `(id, matched-token count)` ordered by
    /// (count desc, id asc) — exactly the prefix the exact backend's
    /// sort-then-truncate keeps. MaxScore-style document-at-a-time
    /// evaluation: one cursor per query-token occurrence (duplicate tokens
    /// count with multiplicity, as the exact accumulation does); once the
    /// heap holds `k` entries whose worst count is `θ`, the `θ` longest
    /// lists become non-essential — a document found only in them cannot
    /// beat the worst — and are only probed through their skip tables.
    /// Because documents arrive in ascending id and ties break toward
    /// smaller ids, a new document must *strictly* beat `θ` to enter, so
    /// when `θ` reaches the best count any future partial could achieve
    /// (`min(live lists, tokens−1)`) evaluation stops early.
    fn top_partials(&self, tokens: &[String], k: usize) -> Vec<(u32, usize)> {
        let l = tokens.len();
        if l < 2 || k == 0 {
            // A partial match requires count < l, impossible for l ≤ 1.
            return Vec::new();
        }
        let mut cursors: Vec<PostingCursor<'_>> = tokens
            .iter()
            .filter_map(|t| self.list(t))
            .filter(|pl| !pl.is_empty())
            .map(PostingList::cursor)
            .collect();
        // Longest lists first: the non-essential prefix skips the big ones.
        cursors.sort_by_key(|c| std::cmp::Reverse(c.len()));
        let cap = l - 1;
        // Min-heap on (count, Reverse(id)): the root is the worst kept
        // entry — lowest count, then largest id.
        let mut heap: BinaryHeap<std::cmp::Reverse<(usize, std::cmp::Reverse<u32>)>> =
            BinaryHeap::new();
        loop {
            cursors.retain(|c| c.current().is_some());
            let live = cursors.len();
            if live == 0 {
                break;
            }
            let theta = if heap.len() >= k {
                heap.peek().map_or(0, |std::cmp::Reverse((c, _))| *c)
            } else {
                0
            };
            if theta >= cap.min(live) {
                break;
            }
            let ness = theta; // theta < live here, so essentials exist
            let pivot = cursors[ness..]
                .iter()
                .filter_map(PostingCursor::current)
                .min()
                .expect("essential cursors are live");
            let mut count = 0usize;
            for c in cursors[ness..].iter_mut() {
                if c.current() == Some(pivot) {
                    count += 1;
                    c.next();
                }
            }
            for c in cursors[..ness].iter_mut() {
                c.seek(pivot);
                if c.current() == Some(pivot) {
                    count += 1;
                    c.next();
                }
            }
            // count == l means an AND match — never a partial. Ascending
            // ids make count == theta a guaranteed tie-break loss.
            if count < l && count > theta {
                heap.push(std::cmp::Reverse((count, std::cmp::Reverse(pivot))));
                if heap.len() > k {
                    heap.pop();
                }
            }
        }
        let mut out: Vec<(u32, usize)> = heap
            .into_iter()
            .map(|std::cmp::Reverse((n, std::cmp::Reverse(id)))| (id, n))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Retrieve candidates for a query — byte-identical to
    /// [`InvertedIndex::retrieve`], with top-k early termination standing
    /// in for the exhaustive OR accumulation whenever the partial score is
    /// strictly monotone in the matched-token count.
    pub fn retrieve(
        &self,
        query: &str,
        min_candidates: usize,
        partial_score: f64,
    ) -> Vec<Candidate> {
        let tokens = tokenize(query);
        if tokens.is_empty() {
            return Vec::new();
        }
        let mut out: Vec<Candidate> = self
            .and_set(&tokens)
            .into_iter()
            .map(|id| Candidate {
                page: PageId(id),
                lexical: 1.0,
            })
            .collect();
        if out.len() >= min_candidates || tokens.len() < 2 && !out.is_empty() {
            return out;
        }
        let total = tokens.len() as f64;
        let deficit = min_candidates.saturating_sub(out.len()) * 4; // headroom for ranking
                                                                    // Count-ordered top-k only equals score-ordered top-k when the
                                                                    // score strictly increases with the count; degenerate scores
                                                                    // (zero, negative, subnormal collapse, NaN) take the exhaustive
                                                                    // path and the reference comparator decides.
        let k = if count_score_strictly_monotone(partial_score, tokens.len()) {
            deficit
        } else {
            usize::MAX
        };
        let mut partial: Vec<Candidate> = self
            .top_partials(&tokens, k)
            .into_iter()
            .map(|(id, n)| Candidate {
                page: PageId(id),
                lexical: partial_score * n as f64 / total,
            })
            .collect();
        partial.sort_by(|a, b| b.lexical.total_cmp(&a.lexical).then(a.page.cmp(&b.page)));
        partial.truncate(deficit);
        out.extend(partial);
        out
    }

    /// Shard-local retrieval — byte-identical to
    /// [`InvertedIndex::shard_retrieve`]. Partial ordering is by integer
    /// matched-token count, so top-k pruning is unconditionally sound
    /// here.
    pub fn shard_retrieve(
        &self,
        query: &str,
        max_partials: usize,
    ) -> (Vec<PageId>, Vec<(PageId, usize)>) {
        let tokens = tokenize(query);
        if tokens.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let fulls: Vec<PageId> = self.and_set(&tokens).into_iter().map(PageId).collect();
        let partials: Vec<(PageId, usize)> = self
            .top_partials(&tokens, max_partials)
            .into_iter()
            .map(|(id, n)| (PageId(id), n))
            .collect();
        (fulls, partials)
    }

    /// Shard-local spell-correction data — byte-identical to
    /// [`InvertedIndex::spell_data`] (the dictionary is scanned in the
    /// same (length, token) order through `len_order`).
    #[allow(clippy::type_complexity)]
    pub fn spell_data(&self, query: &str) -> (Vec<u64>, Vec<Vec<(String, usize, u64)>>) {
        let tokens = tokenize(query);
        let mut dfs = Vec::with_capacity(tokens.len());
        let mut corrections = Vec::with_capacity(tokens.len());
        for token in &tokens {
            let df = self.df(token);
            dfs.push(df as u64);
            if df > 0 {
                corrections.push(Vec::new());
                continue;
            }
            let mut cands = Vec::new();
            for &ti in &self.len_order {
                let cand = &self.terms[ti as usize];
                if cand.len() > token.len() + 2 {
                    break;
                }
                if cand.len() + 2 < token.len() {
                    continue;
                }
                if let Some(d) = char_distance_within(token, cand, 2) {
                    cands.push((cand.clone(), d, self.lists[ti as usize].len() as u64));
                }
            }
            corrections.push(cands);
        }
        (dfs, corrections)
    }

    /// "Did you mean" — byte-identical to [`InvertedIndex::suggest`].
    pub fn suggest(&self, query: &str) -> Option<String> {
        let tokens = tokenize(query);
        if tokens.is_empty() {
            return None;
        }
        let mut corrected = Vec::with_capacity(tokens.len());
        let mut changed = false;
        for token in &tokens {
            if self.df(token) > 0 {
                corrected.push(token.clone());
                continue;
            }
            let mut best: Option<(usize, usize, &String)> = None;
            for &ti in &self.len_order {
                let cand = &self.terms[ti as usize];
                if cand.len() > token.len() + 2 {
                    break;
                }
                if cand.len() + 2 < token.len() {
                    continue;
                }
                if let Some(d) = char_distance_within(token, cand, 2) {
                    let df = self.lists[ti as usize].len();
                    let better = match &best {
                        None => true,
                        Some((bd, bdf, bc)) => {
                            d < *bd || (d == *bd && (df > *bdf || (df == *bdf && cand < *bc)))
                        }
                    };
                    if better {
                        best = Some((d, df, cand));
                    }
                }
            }
            let (_, _, replacement) = best?;
            corrected.push(replacement.clone());
            changed = true;
        }
        changed.then(|| corrected.join(" "))
    }
}

/// True when `partial_score × n / total` strictly increases with the
/// matched count `n` over `1..total` — the precondition for replacing the
/// exhaustive score sort with count-ordered top-k selection.
fn count_score_strictly_monotone(partial_score: f64, total_tokens: usize) -> bool {
    let total = total_tokens as f64;
    let mut prev = None;
    for n in 1..total_tokens {
        let s = partial_score * n as f64 / total;
        if let Some(p) = prev {
            if s <= p {
                return false;
            }
        }
        if s.is_nan() {
            return false;
        }
        prev = Some(s);
    }
    true
}

/// Backend-dispatching index: the exact reference or the compressed
/// top-k engine, behind one retrieval surface. Built from
/// [`IndexBackend`], which [`crate::EngineConfig`] carries and the CLI's
/// `--index` flag selects.
#[derive(Debug)]
pub enum SearchIndex {
    /// Exhaustive `HashMap` reference backend.
    Exact(InvertedIndex),
    /// Compressed posting blocks with top-k early termination.
    Compressed(CompressedIndex),
}

impl SearchIndex {
    /// Build the chosen backend over the whole corpus.
    pub fn build(corpus: &WebCorpus, backend: IndexBackend) -> Self {
        Self::build_range(corpus, 0..corpus.pages.len() as u32, backend)
    }

    /// Build the chosen backend over one shard's id range.
    pub fn build_range(
        corpus: &WebCorpus,
        range: std::ops::Range<u32>,
        backend: IndexBackend,
    ) -> Self {
        match backend {
            IndexBackend::Exact => SearchIndex::Exact(InvertedIndex::build_range(corpus, range)),
            IndexBackend::Compressed => {
                SearchIndex::Compressed(CompressedIndex::build_range(corpus, range))
            }
        }
    }

    /// Number of indexed pages.
    pub fn page_count(&self) -> usize {
        match self {
            SearchIndex::Exact(i) => i.page_count(),
            SearchIndex::Compressed(i) => i.page_count(),
        }
    }

    /// Document frequency of a token.
    pub fn df(&self, token: &str) -> usize {
        match self {
            SearchIndex::Exact(i) => i.df(token),
            SearchIndex::Compressed(i) => i.df(token),
        }
    }

    /// See [`InvertedIndex::retrieve`].
    pub fn retrieve(
        &self,
        query: &str,
        min_candidates: usize,
        partial_score: f64,
    ) -> Vec<Candidate> {
        match self {
            SearchIndex::Exact(i) => i.retrieve(query, min_candidates, partial_score),
            SearchIndex::Compressed(i) => i.retrieve(query, min_candidates, partial_score),
        }
    }

    /// See [`InvertedIndex::shard_retrieve`].
    pub fn shard_retrieve(
        &self,
        query: &str,
        max_partials: usize,
    ) -> (Vec<PageId>, Vec<(PageId, usize)>) {
        match self {
            SearchIndex::Exact(i) => i.shard_retrieve(query, max_partials),
            SearchIndex::Compressed(i) => i.shard_retrieve(query, max_partials),
        }
    }

    /// See [`InvertedIndex::spell_data`].
    #[allow(clippy::type_complexity)]
    pub fn spell_data(&self, query: &str) -> (Vec<u64>, Vec<Vec<(String, usize, u64)>>) {
        match self {
            SearchIndex::Exact(i) => i.spell_data(query),
            SearchIndex::Compressed(i) => i.spell_data(query),
        }
    }

    /// See [`InvertedIndex::suggest`].
    pub fn suggest(&self, query: &str) -> Option<String> {
        match self {
            SearchIndex::Exact(i) => i.suggest(query),
            SearchIndex::Compressed(i) => i.suggest(query),
        }
    }

    /// Resident posting-storage bytes (dictionary + postings + skip
    /// metadata); the bench's compression-ratio numerator/denominator.
    pub fn postings_bytes(&self) -> usize {
        match self {
            SearchIndex::Exact(i) => i.postings_bytes(),
            SearchIndex::Compressed(i) => i.postings_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoserp_geo::{Seed, UsGeography};

    fn corpus() -> WebCorpus {
        let geo = UsGeography::generate(Seed::new(2015));
        WebCorpus::generate(&geo, Seed::new(2015))
    }

    #[test]
    fn index_covers_all_pages() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        assert_eq!(idx.page_count(), c.pages.len());
        assert!(idx.df("school") > 100, "df(school) = {}", idx.df("school"));
        assert_eq!(idx.df("zzzznonexistent"), 0);
    }

    #[test]
    fn and_retrieval_requires_all_tokens() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let full: Vec<Candidate> = idx
            .retrieve("Elementary School", 0, 0.3)
            .into_iter()
            .filter(|cand| cand.lexical == 1.0)
            .collect();
        assert!(!full.is_empty());
        for cand in full {
            let page = c.page(cand.page);
            assert!(
                page.tokens.iter().any(|t| t == "elementary"),
                "{}",
                page.title
            );
            assert!(page.tokens.iter().any(|t| t == "school"), "{}", page.title);
        }
    }

    #[test]
    fn fallback_fills_thin_queries() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        // A politician's full name has few AND matches; fallback must extend
        // the pool.
        let name = &c.roster.all()[0].name;
        let cands = idx.retrieve(name, 30, 0.35);
        assert!(
            cands.len() >= 12,
            "only {} candidates for {name}",
            cands.len()
        );
        assert!(cands.iter().any(|x| x.lexical == 1.0), "own pages present");
        assert!(cands.iter().any(|x| x.lexical < 1.0), "partials present");
        // Partials score strictly below fulls.
        for x in &cands {
            if x.lexical < 1.0 {
                assert!(x.lexical <= 0.35 / 2.0 + 0.35, "{}", x.lexical);
            }
        }
    }

    #[test]
    fn empty_and_unknown_queries() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        assert!(idx.retrieve("", 10, 0.3).is_empty());
        assert!(idx.retrieve("!!!", 10, 0.3).is_empty());
        assert!(idx.retrieve("qqqxyzzy", 10, 0.3).is_empty());
    }

    #[test]
    fn retrieval_is_deterministic() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let a = idx.retrieve("Coffee", 30, 0.35);
        let b = idx.retrieve("Coffee", 30, 0.35);
        assert_eq!(a, b);
    }

    #[test]
    fn suggest_corrects_typos() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        assert_eq!(idx.suggest("starbuks").as_deref(), Some("starbucks"));
        assert_eq!(
            idx.suggest("hospitel near me")
                .as_deref()
                .map(|s| s.starts_with("hospital")),
            Some(true)
        );
        // Known queries need no correction.
        assert_eq!(idx.suggest("school"), None);
        assert_eq!(idx.suggest(""), None);
        // Hopeless garbage gets no suggestion.
        assert_eq!(idx.suggest("qqqqqqqqqqqqqq"), None);
    }

    #[test]
    fn suggest_is_deterministic() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        assert_eq!(idx.suggest("coffe"), idx.suggest("coffe"));
    }

    #[test]
    fn char_distance_bound_behaviour() {
        assert_eq!(char_distance_within("kitten", "sitten", 2), Some(1));
        assert_eq!(char_distance_within("kitten", "sitting", 3), Some(3));
        assert_eq!(char_distance_within("kitten", "sitting", 2), None);
        assert_eq!(char_distance_within("abc", "abc", 0), Some(0));
        assert_eq!(
            char_distance_within("a", "abcd", 2),
            None,
            "length gap exceeds bound"
        );
    }

    #[test]
    fn brand_query_finds_brand_home() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let cands = idx.retrieve("Starbucks", 30, 0.35);
        let has_home = cands.iter().any(|cand| {
            let p = c.page(cand.page);
            p.url == "https://www.starbucks.example.com/"
        });
        assert!(has_home);
    }

    /// Queries that exercise every retrieval regime: AND-rich, AND-thin
    /// with OR fallback, single-token, misspelled, unknown, empty, and
    /// duplicate-token.
    const DIFF_QUERIES: &[&str] = &[
        "Coffee",
        "Elementary School",
        "Starbucks",
        "Gay Marriage",
        "Joe Biden",
        "Hospital near me",
        "cheap gas",
        "school school",
        "starbuks",
        "hospitel near me",
        "qqqxyzzy",
        "the",
        "",
        "!!!",
    ];

    #[test]
    fn compressed_retrieve_is_byte_identical_to_exact() {
        let c = corpus();
        let exact = InvertedIndex::build(&c);
        let comp = CompressedIndex::build(&c);
        assert_eq!(exact.page_count(), comp.page_count());
        for q in DIFF_QUERIES {
            for (min_c, score) in [(36, 0.35), (0, 0.35), (5, 0.2), (500, 0.9)] {
                assert_eq!(
                    exact.retrieve(q, min_c, score),
                    comp.retrieve(q, min_c, score),
                    "retrieve({q:?}, {min_c}, {score})"
                );
            }
        }
    }

    /// Bit-level view of a candidate list: `PartialEq` on `f64` treats
    /// NaN ≠ NaN, but byte-identity is about the bits.
    fn bits(cands: &[Candidate]) -> Vec<(PageId, u64)> {
        cands
            .iter()
            .map(|c| (c.page, c.lexical.to_bits()))
            .collect()
    }

    #[test]
    fn compressed_retrieve_matches_exact_for_degenerate_scores() {
        let c = corpus();
        let exact = InvertedIndex::build(&c);
        let comp = CompressedIndex::build(&c);
        // Scores where count-order and score-order disagree (or collapse):
        // the compressed backend must detect non-monotonicity and fall
        // back to exhaustive evaluation.
        for score in [0.0, -0.35, f64::MIN_POSITIVE, f64::NAN, f64::INFINITY] {
            for q in ["Hospital near me", "Joe Biden", "Elementary School"] {
                assert_eq!(
                    bits(&exact.retrieve(q, 36, score)),
                    bits(&comp.retrieve(q, 36, score)),
                    "retrieve({q:?}, 36, {score})"
                );
            }
        }
    }

    #[test]
    fn compressed_shard_retrieve_is_byte_identical_to_exact() {
        let c = corpus();
        let half = c.pages.len() as u32 / 2;
        for range in [0..c.pages.len() as u32, 0..half, half..c.pages.len() as u32] {
            let exact = InvertedIndex::build_range(&c, range.clone());
            let comp = CompressedIndex::build_range(&c, range.clone());
            for q in DIFF_QUERIES {
                for max_p in [0, 1, 144, usize::MAX] {
                    assert_eq!(
                        exact.shard_retrieve(q, max_p),
                        comp.shard_retrieve(q, max_p),
                        "shard_retrieve({q:?}, {max_p}) over {range:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn compressed_spell_surface_is_byte_identical_to_exact() {
        let c = corpus();
        let exact = InvertedIndex::build(&c);
        let comp = CompressedIndex::build(&c);
        for q in DIFF_QUERIES {
            assert_eq!(exact.spell_data(q), comp.spell_data(q), "spell_data({q:?})");
            assert_eq!(exact.suggest(q), comp.suggest(q), "suggest({q:?})");
        }
    }

    #[test]
    fn search_index_dispatches_both_backends() {
        let c = corpus();
        let exact = SearchIndex::build(&c, IndexBackend::Exact);
        let comp = SearchIndex::build(&c, IndexBackend::Compressed);
        assert!(matches!(exact, SearchIndex::Exact(_)));
        assert!(matches!(comp, SearchIndex::Compressed(_)));
        assert_eq!(exact.page_count(), comp.page_count());
        assert_eq!(exact.df("school"), comp.df("school"));
        assert_eq!(
            exact.retrieve("Coffee", 36, 0.35),
            comp.retrieve("Coffee", 36, 0.35)
        );
        assert_eq!(exact.suggest("starbuks"), comp.suggest("starbuks"));
        // Compression earns its name on this corpus.
        assert!(
            comp.postings_bytes() * 2 < exact.postings_bytes(),
            "compressed {} vs raw {}",
            comp.postings_bytes(),
            exact.postings_bytes()
        );
    }
}

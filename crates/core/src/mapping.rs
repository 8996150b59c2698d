//! Entity and property extraction (paper §2.2).
//!
//! Maps the slots of each candidate triple onto the knowledge base:
//!
//! - subjects/objects → entities (with graph-centrality disambiguation,
//!   §2.2.5) or ontology classes (§2.2.4);
//! - verb predicates → object properties by string similarity (§2.2.1),
//!   expanded with WordNet similar-property pairs, plus relational-pattern
//!   candidates with frequency scores (§2.2.3);
//! - noun/adjective predicates → data properties via string similarity and
//!   the WordNet adjective list (§2.2.2).
//!
//! Every candidate records its provenance so ablations can switch sources
//! off and the ranking step can weight them.

use relpat_kb::{normalize_label, KnowledgeBase};
use relpat_patterns::PatternStore;
use relpat_rdf::Iri;
use relpat_wordnet::{derived_noun, WnPos, WordNet};
use relpat_obs::fx::FxHashMap;

use crate::similarity::{lcs_score, lcs_score_pre, property_name_score_pre, LcsScratch};
use crate::triples::{PatternTriple, PredKind, PredicateSlot, QuestionAnalysis, SlotTerm};

/// Where a property candidate came from (drives weights and ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateSource {
    /// §2.2.1 / §2.2.2: greatest-common-subsequence similarity.
    StringSimilarity,
    /// §2.2.1: WordNet Lin/Wu–Palmer similar-property pairs.
    WordNetPair,
    /// §2.2.2: adjective → attribute noun (tall → height).
    AdjectiveAttribute,
    /// WordNet derivational link (born → birth → birthDate).
    DerivedNoun,
    /// §2.2.3: relational pattern frequency.
    RelationalPattern,
}

/// One property candidate for a predicate slot.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyCandidate {
    /// Property local name (`deathPlace`).
    pub property: String,
    /// True for data properties.
    pub is_data: bool,
    /// Direction hint from pattern evidence: `Some(true)` means the
    /// textual subject/object order is inverted relative to the RDF fact.
    pub preferred_inverse: Option<bool>,
    /// Ranking weight (pattern frequency or scaled similarity).
    pub weight: f64,
    pub source: CandidateSource,
}

/// A resolved entity mention.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedEntity {
    pub iri: Iri,
    pub label: String,
    pub score: f64,
}

/// A mapped slot.
#[derive(Debug, Clone, PartialEq)]
pub enum MappedSlot {
    Var,
    Entity(ResolvedEntity),
}

/// A fully mapped triple pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum MappedTriple {
    /// `?x rdf:type <Class>`
    Type { class: String },
    /// A relation triple with its candidate properties.
    Relation { subject: MappedSlot, object: MappedSlot, candidates: Vec<PropertyCandidate> },
}

/// Output of the mapping stage.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedQuestion {
    pub triples: Vec<MappedTriple>,
}

/// Knobs for the mapping stage (ablation switches live here).
#[derive(Debug, Clone)]
pub struct MappingConfig {
    pub use_relational_patterns: bool,
    /// Consult *data-property* patterns mined from entity–literal text
    /// (extended system only; the paper's PATTY has object patterns only).
    pub use_data_patterns: bool,
    pub use_wordnet_expansion: bool,
    pub use_centrality: bool,
    /// Acceptance threshold for string similarity (paper normalizes LCS by
    /// word length; we sweep this in ablation A4).
    pub string_sim_threshold: f64,
    /// Fuzzy entity-label acceptance threshold.
    pub entity_sim_threshold: f64,
    /// Keep at most this many pattern candidates per predicate.
    pub max_pattern_candidates: usize,
}

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig {
            use_relational_patterns: true,
            use_data_patterns: false,
            use_wordnet_expansion: true,
            use_centrality: true,
            string_sim_threshold: 0.7,
            entity_sim_threshold: 0.85,
            max_pattern_candidates: 5,
        }
    }
}

/// The mapper: borrows the KB, the lexical database, the pattern store and
/// the precomputed similar-property pairs.
pub struct Mapper<'a> {
    pub kb: &'a KnowledgeBase,
    pub wordnet: &'static WordNet,
    pub patterns: &'a PatternStore,
    pub similar_pairs: &'a FxHashMap<String, Vec<(String, f64)>>,
    pub config: MappingConfig,
}

/// Precomputes the §2.2.1 similar-property list: object-property pairs whose
/// label head words score Lin ≥ 0.75 and Wu–Palmer ≥ 0.85 (the paper's
/// thresholds), with compound modifiers required to match too (so
/// `birth place` ≁ `death place`).
pub fn similar_property_pairs(
    kb: &KnowledgeBase,
    wordnet: &WordNet,
) -> FxHashMap<String, Vec<(String, f64)>> {
    let mut out: FxHashMap<String, Vec<(String, f64)>> = FxHashMap::default();
    let props = &kb.ontology.object_properties;
    // Lin/Wu–Palmer and the modifier check are symmetric, so each unordered
    // pair is scored once and recorded in both directions. Partners still
    // arrive in ascending ontology order for every entry: pairs with a
    // lower-indexed partner are pushed while the outer loop is on that
    // partner, before the entry's own outer iteration pushes the rest.
    for (i, a) in props.iter().enumerate() {
        for b in &props[i + 1..] {
            if let Some(score) = label_pair_similarity(a.label, b.label, wordnet) {
                out.entry(a.name.to_string()).or_default().push((b.name.to_string(), score));
                out.entry(b.name.to_string()).or_default().push((a.name.to_string(), score));
            }
        }
    }
    out
}

fn label_pair_similarity(a: &str, b: &str, wordnet: &WordNet) -> Option<f64> {
    let wa: Vec<&str> = a.split_whitespace().collect();
    let wb: Vec<&str> = b.split_whitespace().collect();
    let (ha, hb) = (*wa.last()?, *wb.last()?);
    let lin = wordnet.lin(ha, hb, WnPos::Noun)?;
    let wup = wordnet.wup(ha, hb, WnPos::Noun)?;
    if lin < 0.75 || wup < 0.85 {
        return None;
    }
    // Modifier compatibility: both compound or both simple, and compound
    // modifiers must themselves pass the thresholds.
    match (wa.len(), wb.len()) {
        (1, 1) => Some(lin),
        (x, y) if x >= 2 && y >= 2 => {
            let (ma, mb) = (wa[wa.len() - 2], wb[wb.len() - 2]);
            if ma == mb {
                return Some(lin);
            }
            let mlin = wordnet.lin(ma, mb, WnPos::Noun)?;
            let mwup = wordnet.wup(ma, mb, WnPos::Noun)?;
            if mlin >= 0.75 && mwup >= 0.85 {
                Some(lin * mlin)
            } else {
                None
            }
        }
        _ => None,
    }
}

impl Mapper<'_> {
    /// Maps an analyzed question. `None` = some slot could not be resolved
    /// (the question is abandoned, paper §3's unprocessed bucket).
    pub fn map(&self, analysis: &QuestionAnalysis) -> Option<MappedQuestion> {
        // Gather all mention texts for cross-mention centrality.
        let mention_pools: Vec<Vec<Iri>> = analysis
            .triples
            .iter()
            .flat_map(|t| [&t.subject, &t.object])
            .filter_map(|s| match s {
                SlotTerm::Mention { text } => Some(self.entity_pool(text)),
                SlotTerm::Var => None,
            })
            .collect();

        let mut triples = Vec::with_capacity(analysis.triples.len());
        for t in &analysis.triples {
            triples.push(self.map_triple(t, &mention_pools)?);
        }
        Some(MappedQuestion { triples })
    }

    fn map_triple(
        &self,
        triple: &PatternTriple,
        pools: &[Vec<Iri>],
    ) -> Option<MappedTriple> {
        if let Some(class_word) = triple.class_word() {
            let class = self.resolve_class(class_word)?;
            return Some(MappedTriple::Type { class: class.to_string() });
        }
        let subject = self.map_slot(&triple.subject, pools)?;
        let object = self.map_slot(&triple.object, pools)?;
        let candidates = match &triple.predicate {
            PredicateSlot::RdfType => return None, // class word was not a mention
            PredicateSlot::Word { text, lemma, kind } => {
                self.property_candidates(text, lemma, *kind)
            }
        };
        if candidates.is_empty() {
            return None;
        }
        Some(MappedTriple::Relation { subject, object, candidates })
    }

    fn map_slot(&self, slot: &SlotTerm, pools: &[Vec<Iri>]) -> Option<MappedSlot> {
        match slot {
            SlotTerm::Var => Some(MappedSlot::Var),
            SlotTerm::Mention { text } => {
                self.resolve_entity(text, pools).map(MappedSlot::Entity)
            }
        }
    }

    // ---------------------------------------------------------------- classes

    /// §2.2.4: class by label, with a fuzzy fallback.
    pub fn resolve_class(&self, word: &str) -> Option<&'static str> {
        if let Some(c) = self.kb.class_with_label(word) {
            return Some(c);
        }
        self.kb
            .ontology
            .classes
            .iter()
            .map(|c| (c.name, lcs_score(word, c.label)))
            .filter(|(_, s)| *s >= 0.8)
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(name, _)| name)
    }

    // --------------------------------------------------------------- entities

    /// Candidate entities for a mention (exact normalized label, then fuzzy).
    /// The fuzzy path rescores the KB lexical index's candidates with the
    /// exact LCS; the query is normalized (hence lowercased) once and scored
    /// with a shared DP scratch. Each entity appears once, at the score of
    /// its best-matching label.
    pub fn entity_pool(&self, text: &str) -> Vec<Iri> {
        let exact = self.kb.entities_with_label(text);
        if !exact.is_empty() {
            return exact.to_vec();
        }
        let norm = normalize_label(text);
        let threshold = self.config.entity_sim_threshold;
        let mut scratch = LcsScratch::default();
        let mut scored: Vec<(f64, &Iri)> = Vec::new();
        for (label, iris) in self.kb.lexical().entity_candidates(&norm, threshold) {
            let s = lcs_score_pre(&norm, label, &mut scratch);
            if s >= threshold {
                scored.extend(iris.iter().map(|iri| (s, iri)));
            }
        }
        // Best score first; equal-score ties break on the IRI so the top-5
        // truncation is stable. An entity's first entry is then its
        // best-scoring label, so later repeats are dropped.
        scored.sort_by(|(sa, ia), (sb, ib)| sb.total_cmp(sa).then_with(|| ia.cmp(ib)));
        let mut pool: Vec<Iri> = Vec::with_capacity(5);
        for (_, iri) in scored {
            if pool.len() == 5 {
                break;
            }
            if !pool.contains(iri) {
                pool.push(iri.clone());
            }
        }
        pool
    }

    /// §2.2.5: disambiguation by string similarity + page-link centrality.
    /// The centrality terms are (a) links to candidates of the *other*
    /// mentions in the question and (b) a global page-degree prior.
    pub fn resolve_entity(&self, text: &str, pools: &[Vec<Iri>]) -> Option<ResolvedEntity> {
        let candidates = self.entity_pool(text);
        relpat_obs::counter!("qa.map.entity_lookups");
        relpat_obs::counter!("qa.map.entity_candidates", candidates.len() as u64);
        if candidates.is_empty() {
            return None;
        }
        let norm = normalize_label(text);
        let max_degree = candidates
            .iter()
            .map(|c| self.kb.page_degree(c))
            .max()
            .unwrap_or(0)
            .max(1) as f64;
        let mut best: Option<ResolvedEntity> = None;
        for iri in &candidates {
            let label = self.kb.label_of(iri).unwrap_or_default().to_string();
            let sim = lcs_score(&norm, &normalize_label(&label));
            let mut score = sim;
            if self.config.use_centrality {
                let degree = self.kb.page_degree(iri) as f64 / max_degree;
                let linked = pools
                    .iter()
                    .filter(|pool| !pool.iter().any(|p| p == iri)) // other mentions
                    .any(|pool| pool.iter().any(|p| self.kb.are_linked(iri, p)));
                score += 0.3 * degree + 0.5 * f64::from(linked);
            }
            if best.as_ref().is_none_or(|b| score > b.score) {
                best = Some(ResolvedEntity { iri: iri.clone(), label, score });
            }
        }
        best
    }

    // -------------------------------------------------------------- properties

    /// All property candidates for a predicate word, per §2.2.1–§2.2.3.
    pub fn property_candidates(
        &self,
        text: &str,
        lemma: &str,
        kind: PredKind,
    ) -> Vec<PropertyCandidate> {
        let mut out: Vec<PropertyCandidate> = Vec::new();
        match kind {
            PredKind::Verb => {
                self.string_sim_object_properties(text, lemma, &mut out);
                self.wordnet_expansion(&mut out);
                self.derived_noun_data_properties(lemma, &mut out);
                self.pattern_candidates(lemma, &mut out);
            }
            PredKind::Noun => {
                self.string_sim_data_properties(text, lemma, &mut out);
                self.string_sim_object_properties(text, lemma, &mut out);
                self.wordnet_expansion(&mut out);
                self.wordnet_noun_properties(lemma, &mut out);
                self.pattern_candidates(lemma, &mut out);
            }
            PredKind::Adjective => {
                if let Some(attr) = self.wordnet.attribute_noun(lemma) {
                    self.data_properties_matching(attr, 10.0, CandidateSource::AdjectiveAttribute, &mut out);
                }
                self.string_sim_data_properties(text, lemma, &mut out);
                // Mined data patterns ("$v meter tall" → height) cover
                // adjectives the curated attribute list misses.
                self.pattern_candidates(lemma, &mut out);
            }
        }
        let out = dedup_candidates(out);
        relpat_obs::counter!("qa.map.slots");
        relpat_obs::counter!("qa.map.candidates", out.len() as u64);
        out
    }

    /// §2.2.1: verbs against object properties by LCS score.
    fn string_sim_object_properties(
        &self,
        text: &str,
        lemma: &str,
        out: &mut Vec<PropertyCandidate>,
    ) {
        self.string_sim_properties(text, lemma, false, out);
    }

    /// §2.2.2: nouns against data properties by LCS score.
    fn string_sim_data_properties(
        &self,
        text: &str,
        lemma: &str,
        out: &mut Vec<PropertyCandidate>,
    ) {
        self.string_sim_properties(text, lemma, true, out);
    }

    /// Shared §2.2.1/§2.2.2 scan: both the word and its lemma against one
    /// property family. The word pair is lowercased once; the lexical index
    /// narrows the family to entries that can clear the threshold, and
    /// survivors are rescored exactly, in ontology order.
    fn string_sim_properties(
        &self,
        text: &str,
        lemma: &str,
        is_data: bool,
        out: &mut Vec<PropertyCandidate>,
    ) {
        let threshold = self.config.string_sim_threshold;
        let (text_l, lemma_l) = (text.to_lowercase(), lemma.to_lowercase());
        let mut scratch = LcsScratch::default();
        for (name, label) in self.indexed_properties(is_data, &[&lemma_l, &text_l], threshold) {
            let s = property_name_score_pre(&lemma_l, name, label, &mut scratch)
                .max(property_name_score_pre(&text_l, name, label, &mut scratch));
            if s >= threshold {
                out.push(PropertyCandidate {
                    property: name.to_string(),
                    is_data,
                    preferred_inverse: None,
                    weight: s * 10.0,
                    source: CandidateSource::StringSimilarity,
                });
            }
        }
    }

    /// `(name, label)` of the object or data properties the lexical index
    /// keeps for the lowercased `words` at `threshold`, in ontology order.
    fn indexed_properties(
        &self,
        is_data: bool,
        words: &[&str],
        threshold: f64,
    ) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        let lexical = self.kb.lexical();
        let hits = if is_data {
            lexical.data_property_candidates(words, threshold)
        } else {
            lexical.object_property_candidates(words, threshold)
        };
        let ontology = &self.kb.ontology;
        hits.into_iter().map(move |i| {
            if is_data {
                (ontology.data_properties[i].name, ontology.data_properties[i].label)
            } else {
                (ontology.object_properties[i].name, ontology.object_properties[i].label)
            }
        })
    }

    /// Data properties whose name/label matches a given noun near-exactly.
    fn data_properties_matching(
        &self,
        noun: &str,
        weight: f64,
        source: CandidateSource,
        out: &mut Vec<PropertyCandidate>,
    ) {
        let noun_l = noun.to_lowercase();
        let mut scratch = LcsScratch::default();
        for (name, label) in self.indexed_properties(true, &[&noun_l], 0.9) {
            if property_name_score_pre(&noun_l, name, label, &mut scratch) >= 0.9 {
                out.push(PropertyCandidate {
                    property: name.to_string(),
                    is_data: true,
                    preferred_inverse: None,
                    weight,
                    source,
                });
            }
        }
    }

    /// WordNet derivational link: verb → event noun → data property
    /// (`born` → `birth` → `birthDate`). Covers the date questions the
    /// pattern store cannot (it holds object properties only, paper §5).
    fn derived_noun_data_properties(&self, lemma: &str, out: &mut Vec<PropertyCandidate>) {
        if let Some(noun) = derived_noun(lemma) {
            self.data_properties_matching(noun, 8.0, CandidateSource::DerivedNoun, out);
        }
    }

    /// §2.2.1: expand string-similarity seeds with the precomputed
    /// similar-meaning property pairs (writer → author).
    fn wordnet_expansion(&self, out: &mut Vec<PropertyCandidate>) {
        if !self.config.use_wordnet_expansion {
            return;
        }
        let seeds: Vec<(String, f64)> = out
            .iter()
            .filter(|c| !c.is_data && c.source == CandidateSource::StringSimilarity)
            .map(|c| (c.property.clone(), c.weight))
            .collect();
        for (seed, weight) in seeds {
            if let Some(similar) = self.similar_pairs.get(&seed) {
                for (other, score) in similar {
                    out.push(PropertyCandidate {
                        property: other.clone(),
                        is_data: false,
                        preferred_inverse: None,
                        weight: weight * score * 0.8,
                        source: CandidateSource::WordNetPair,
                    });
                }
            }
        }
    }

    /// Noun predicates matched to object-property label heads through
    /// WordNet (wife → spouse) using the paper's thresholds.
    fn wordnet_noun_properties(&self, lemma: &str, out: &mut Vec<PropertyCandidate>) {
        if !self.config.use_wordnet_expansion {
            return;
        }
        for p in &self.kb.ontology.object_properties {
            let head = p.label.split_whitespace().last().unwrap_or(p.label);
            if head == lemma {
                continue; // string similarity already found it
            }
            let (Some(lin), Some(wup)) = (
                self.wordnet.lin(lemma, head, WnPos::Noun),
                self.wordnet.wup(lemma, head, WnPos::Noun),
            ) else {
                continue;
            };
            if lin >= 0.75 && wup >= 0.85 {
                out.push(PropertyCandidate {
                    property: p.name.to_string(),
                    is_data: false,
                    preferred_inverse: None,
                    weight: lin * 8.0,
                    source: CandidateSource::WordNetPair,
                });
            }
        }
    }

    /// §2.2.3: relational-pattern candidates, frequency-weighted.
    fn pattern_candidates(&self, lemma: &str, out: &mut Vec<PropertyCandidate>) {
        if !self.config.use_relational_patterns {
            return;
        }
        let mut taken = 0usize;
        for c in self.patterns.candidates_for_word(lemma) {
            if c.is_data && !self.config.use_data_patterns {
                continue;
            }
            if taken >= self.config.max_pattern_candidates {
                break;
            }
            taken += 1;
            out.push(PropertyCandidate {
                property: c.property.clone(),
                is_data: c.is_data,
                // Data patterns have a forced orientation (entity → literal);
                // object patterns carry their observed direction.
                preferred_inverse: if c.is_data { None } else { Some(c.inverse) },
                weight: c.freq as f64,
                source: CandidateSource::RelationalPattern,
            });
        }
    }
}

/// Merges duplicate `(property, is_data, preferred_inverse)` candidates,
/// keeping the maximum weight, and sorts by weight descending.
fn dedup_candidates(candidates: Vec<PropertyCandidate>) -> Vec<PropertyCandidate> {
    let mut merged: Vec<PropertyCandidate> = Vec::new();
    for c in candidates {
        match merged.iter_mut().find(|m| {
            m.property == c.property
                && m.is_data == c.is_data
                && m.preferred_inverse == c.preferred_inverse
        }) {
            Some(existing) => {
                if c.weight > existing.weight {
                    existing.weight = c.weight;
                    existing.source = c.source;
                }
            }
            None => merged.push(c),
        }
    }
    merged.sort_by(|a, b| b.weight.total_cmp(&a.weight));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_kb::{generate, KbConfig};
    use relpat_patterns::{mine, CorpusConfig};
    use relpat_wordnet::embedded;
    use std::sync::OnceLock;

    struct Fixture {
        kb: KnowledgeBase,
        patterns: PatternStore,
        pairs: FxHashMap<String, Vec<(String, f64)>>,
    }

    fn fixture() -> &'static Fixture {
        static F: OnceLock<Fixture> = OnceLock::new();
        F.get_or_init(|| {
            let kb = generate(&KbConfig::tiny());
            let mined = mine(&kb, &CorpusConfig::default());
            let pairs = similar_property_pairs(&kb, embedded());
            Fixture { kb, patterns: mined.store, pairs }
        })
    }

    fn mapper() -> Mapper<'static> {
        let f = fixture();
        Mapper {
            kb: &f.kb,
            wordnet: embedded(),
            patterns: &f.patterns,
            similar_pairs: &f.pairs,
            config: MappingConfig::default(),
        }
    }

    #[test]
    fn similar_pairs_match_naive_double_loop() {
        // The i<j halving must reproduce the full (a,b)+(b,a) grid exactly,
        // including partner order within each entry.
        let f = fixture();
        let wordnet = embedded();
        let mut naive: FxHashMap<String, Vec<(String, f64)>> = FxHashMap::default();
        let props = &f.kb.ontology.object_properties;
        for a in props {
            for b in props {
                if a.name == b.name {
                    continue;
                }
                if let Some(score) = label_pair_similarity(a.label, b.label, wordnet) {
                    naive
                        .entry(a.name.to_string())
                        .or_default()
                        .push((b.name.to_string(), score));
                }
            }
        }
        assert_eq!(similar_property_pairs(&f.kb, wordnet), naive);
    }

    #[test]
    fn similar_pairs_contain_writer_author_but_not_birth_death() {
        let f = fixture();
        let writer = f.pairs.get("writer").map(Vec::as_slice).unwrap_or(&[]);
        assert!(writer.iter().any(|(p, _)| p == "author"), "{writer:?}");
        let birth = f.pairs.get("birthPlace").map(Vec::as_slice).unwrap_or(&[]);
        assert!(!birth.iter().any(|(p, _)| p == "deathPlace"), "{birth:?}");
    }

    #[test]
    fn written_maps_to_writer_and_author() {
        // Paper §2.2.1: Pt("written") = {dbont:writer, dbont:author}.
        let m = mapper();
        let cands = m.property_candidates("written", "write", PredKind::Verb);
        let props: Vec<&str> = cands.iter().map(|c| c.property.as_str()).collect();
        assert!(props.contains(&"writer"), "{props:?}");
        assert!(props.contains(&"author"), "{props:?}");
    }

    #[test]
    fn die_maps_to_death_birth_residence_ranked() {
        // Paper §2.2.3: Pt("die") = {deathPlace, birthPlace, residence} with
        // deathPlace ranked highest by pattern frequency.
        let m = mapper();
        let cands = m.property_candidates("die", "die", PredKind::Verb);
        let top_pattern = cands
            .iter()
            .filter(|c| c.source == CandidateSource::RelationalPattern)
            .max_by(|a, b| a.weight.total_cmp(&b.weight))
            .unwrap();
        assert_eq!(top_pattern.property, "deathPlace");
    }

    #[test]
    fn tall_maps_to_height_via_adjective_list() {
        // Paper §2.2.2: "tall" → dbont:height.
        let m = mapper();
        let cands = m.property_candidates("tall", "tall", PredKind::Adjective);
        assert_eq!(cands[0].property, "height");
        assert!(cands[0].is_data);
        assert_eq!(cands[0].source, CandidateSource::AdjectiveAttribute);
    }

    #[test]
    fn height_noun_maps_to_height_data_property() {
        let m = mapper();
        let cands = m.property_candidates("height", "height", PredKind::Noun);
        assert_eq!(cands[0].property, "height");
        assert!(cands[0].is_data);
    }

    #[test]
    fn population_maps_to_population_total() {
        let m = mapper();
        let cands = m.property_candidates("population", "population", PredKind::Noun);
        assert!(cands.iter().any(|c| c.property == "populationTotal" && c.is_data));
    }

    #[test]
    fn wife_maps_to_spouse_via_wordnet() {
        let m = mapper();
        let cands = m.property_candidates("wife", "wife", PredKind::Noun);
        assert!(
            cands
                .iter()
                .any(|c| c.property == "spouse" && c.source == CandidateSource::WordNetPair),
            "{cands:?}"
        );
    }

    #[test]
    fn born_maps_to_birth_date_via_derivation() {
        let m = mapper();
        let cands = m.property_candidates("born", "bear", PredKind::Verb);
        assert!(
            cands
                .iter()
                .any(|c| c.property == "birthDate" && c.source == CandidateSource::DerivedNoun),
            "{cands:?}"
        );
        // And birthPlace via patterns.
        assert!(cands.iter().any(|c| c.property == "birthPlace"));
    }

    #[test]
    fn alive_has_no_candidates() {
        // Paper §5: neither the property list nor the patterns contain
        // "alive" — the polar question dies here.
        let m = mapper();
        assert!(m.property_candidates("is", "be", PredKind::Verb).is_empty());
        assert!(m.property_candidates("alive", "alive", PredKind::Adjective).is_empty());
    }

    #[test]
    fn entity_resolution_exact_label() {
        let m = mapper();
        let e = m.resolve_entity("Orhan Pamuk", &[]).unwrap();
        assert!(e.iri.as_str().ends_with("Orhan_Pamuk"));
        assert_eq!(e.label, "Orhan Pamuk");
    }

    #[test]
    fn entity_pool_lists_each_entity_once() {
        // A second label that also clears the threshold must not give the
        // entity a second top-5 slot.
        use relpat_kb::Ontology;
        use relpat_rdf::{vocab::rdfs, GraphBuilder, Literal, Term};
        let pamuk = Iri::new(relpat_rdf::vocab::res::iri("Orhan Pamuk"));
        let mut builder = GraphBuilder::new();
        for t in fixture().kb.graph.iter() {
            builder.insert(&t);
        }
        builder.add(pamuk.clone(), Term::iri(rdfs::LABEL), Literal::plain("Orhan Pamuka"));
        let kb = KnowledgeBase::from_graph(builder.build(), Ontology::dbpedia());
        let m = Mapper { kb: &kb, ..mapper() };
        assert_eq!(m.entity_pool("orhan pamukx"), vec![pamuk]);
    }

    #[test]
    fn michael_jordan_disambiguates_to_athlete_by_centrality() {
        let m = mapper();
        let e = m.resolve_entity("Michael Jordan", &[]).unwrap();
        assert!(m.kb.is_instance_of(&e.iri, "Athlete"), "picked {}", e.iri.as_str());
    }

    #[test]
    fn centrality_off_changes_nothing_for_unambiguous_mentions() {
        let f = fixture();
        let m = Mapper {
            config: MappingConfig { use_centrality: false, ..MappingConfig::default() },
            kb: &f.kb,
            wordnet: embedded(),
            patterns: &f.patterns,
            similar_pairs: &f.pairs,
        };
        let e = m.resolve_entity("Abraham Lincoln", &[]).unwrap();
        assert!(e.iri.as_str().ends_with("Abraham_Lincoln"));
    }

    #[test]
    fn unknown_mention_resolves_to_none() {
        let m = mapper();
        assert!(m.resolve_entity("Zorblax the Unknowable", &[]).is_none());
    }

    #[test]
    fn class_resolution() {
        let m = mapper();
        assert_eq!(m.resolve_class("book"), Some("Book"));
        assert_eq!(m.resolve_class("film"), Some("Film"));
        assert_eq!(m.resolve_class("city"), Some("City"));
        assert_eq!(m.resolve_class("spaceship"), None);
    }

    #[test]
    fn end_to_end_mapping_of_figure1() {
        let m = mapper();
        let analysis =
            crate::triples::extract(&relpat_nlp::parse_sentence("Which book is written by Orhan Pamuk?"))
                .unwrap();
        let mapped = m.map(&analysis).unwrap();
        assert_eq!(mapped.triples.len(), 2);
        assert!(matches!(&mapped.triples[0], MappedTriple::Type { class } if class == "Book"));
        match &mapped.triples[1] {
            MappedTriple::Relation { subject, object, candidates } => {
                assert_eq!(subject, &MappedSlot::Var);
                assert!(matches!(object, MappedSlot::Entity(e) if e.label == "Orhan Pamuk"));
                assert!(candidates.iter().any(|c| c.property == "author"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mapping_fails_cleanly_for_unknown_entity() {
        let m = mapper();
        let analysis = crate::triples::extract(&relpat_nlp::parse_sentence(
            "Who directed Zorblax?",
        ))
        .unwrap();
        assert!(m.map(&analysis).is_none());
    }

    #[test]
    fn patterns_off_drops_pattern_candidates() {
        let f = fixture();
        let m = Mapper {
            config: MappingConfig {
                use_relational_patterns: false,
                ..MappingConfig::default()
            },
            kb: &f.kb,
            wordnet: embedded(),
            patterns: &f.patterns,
            similar_pairs: &f.pairs,
        };
        let cands = m.property_candidates("die", "die", PredKind::Verb);
        assert!(cands
            .iter()
            .all(|c| c.source != CandidateSource::RelationalPattern));
    }

    #[test]
    fn dedup_keeps_max_weight() {
        let c = |w: f64, src| PropertyCandidate {
            property: "author".into(),
            is_data: false,
            preferred_inverse: None,
            weight: w,
            source: src,
        };
        let merged = dedup_candidates(vec![
            c(3.0, CandidateSource::StringSimilarity),
            c(9.0, CandidateSource::WordNetPair),
        ]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].weight, 9.0);
        assert_eq!(merged[0].source, CandidateSource::WordNetPair);
    }
}

//! Soundness gate for the lexical candidate index (CI-enforced), checked
//! against a brute-force oracle that scores every entry with the exact
//! scorer.
//!
//! The mapper rescores every index candidate with that same exact scorer
//! (`lcs_score_pre` for entity labels, `property_name_score_pre` for
//! properties) and keeps those that clear the threshold. So the mapper's
//! output equals a full scan exactly when
//! `LexicalIndex::{entity,object_property,data_property}_candidates` return
//! a *superset* of the entries whose exact score clears the threshold. They
//! must also return it in ascending order with no duplicates, so the mapper
//! sees entries in the KB's label order and in ontology order.
//!
//! The sweep covers every ontology property name, label, label word and
//! camel constituent, every entity label in the tiny KB and a fuzzed copy of
//! it, threshold-boundary scores, empty/unicode queries, and a seeded
//! random-string sweep across the threshold regimes (including 0.5, below
//! the bigram-recall guarantee, which exercises the index's full-scan
//! fallback). Property lookups are checked in both the one-word form
//! (`data_properties_matching`, always also at its fixed 0.9 cut) and the
//! two-word `[lemma, text]` form of the §2.2.1/§2.2.2 scans.

use relpat_kb::{generate, normalize_label, split_camel_case, KbConfig, KnowledgeBase};
use relpat_obs::fx::FxHashMap;
use relpat_obs::Rng;
use relpat_patterns::{mine, CorpusConfig, PatternStore};
use relpat_qa::{
    lcs_score_pre, property_name_score_pre, similar_property_pairs, LcsScratch, Mapper,
    MappingConfig, PredKind,
};
use relpat_rdf::Iri;
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

fn mapper_with(config: MappingConfig) -> Mapper<'static> {
    let f = fixture();
    Mapper { kb: &f.kb, wordnet: embedded(), patterns: &f.patterns, similar_pairs: &f.pairs, config }
}

/// Every lexical form the ontology itself can produce: property names,
/// whole labels, label words and camel-split constituents.
fn ontology_vocabulary(kb: &KnowledgeBase) -> Vec<String> {
    let mut words: Vec<String> = Vec::new();
    for (name, label) in kb
        .ontology
        .object_properties
        .iter()
        .map(|p| (p.name, p.label))
        .chain(kb.ontology.data_properties.iter().map(|p| (p.name, p.label)))
    {
        words.push(name.to_string());
        words.push(label.to_string());
        words.extend(split_camel_case(name));
        words.extend(label.split_whitespace().map(str::to_string));
    }
    words.sort();
    words.dedup();
    words
}

fn assert_ascending_unique<T: PartialOrd + std::fmt::Debug>(items: &[T], context: &str) {
    for pair in items.windows(2) {
        assert!(pair[0] < pair[1], "not ascending/unique at {pair:?} ({context})");
    }
}

/// Oracle: indices of the `(name, label)` entries whose best exact score
/// over `words` clears `threshold`.
fn property_oracle(props: &[(&str, &str)], words: &[&str], threshold: f64) -> Vec<usize> {
    let mut scratch = LcsScratch::default();
    (0..props.len())
        .filter(|&i| {
            let (name, label) = props[i];
            words
                .iter()
                .any(|w| property_name_score_pre(w, name, label, &mut scratch) >= threshold)
        })
        .collect()
}

/// Checks both property families for one lowercased word list.
fn assert_property_index_sound(
    kb: &KnowledgeBase,
    words: &[&str],
    threshold: f64,
    context: &str,
) {
    let object: Vec<(&str, &str)> =
        kb.ontology.object_properties.iter().map(|p| (p.name, p.label)).collect();
    let data: Vec<(&str, &str)> =
        kb.ontology.data_properties.iter().map(|p| (p.name, p.label)).collect();
    for (family, props, hits) in [
        ("object", &object, kb.lexical().object_property_candidates(words, threshold)),
        ("data", &data, kb.lexical().data_property_candidates(words, threshold)),
    ] {
        let context = format!("{family} properties for {words:?} @ {threshold} ({context})");
        assert_ascending_unique(&hits, &context);
        assert!(hits.iter().all(|&i| i < props.len()), "index out of range ({context})");
        for i in property_oracle(props, words, threshold) {
            assert!(hits.contains(&i), "index dropped {:?} ({context})", props[i].0);
        }
    }
}

/// Oracle: every `(label, entities)` KB entry whose exact LCS score against
/// the normalized query clears `threshold`.
fn entity_oracle<'k>(
    kb: &'k KnowledgeBase,
    norm: &str,
    threshold: f64,
) -> Vec<(&'k str, &'k [Iri])> {
    let mut scratch = LcsScratch::default();
    kb.labels_iter()
        .filter(|(label, _)| lcs_score_pre(norm, label, &mut scratch) >= threshold)
        .collect()
}

fn assert_entity_index_sound(kb: &KnowledgeBase, text: &str, threshold: f64, context: &str) {
    let norm = normalize_label(text);
    let context = format!("entities for {norm:?} @ {threshold} ({context})");
    let hits: Vec<(&str, &[Iri])> = kb.lexical().entity_candidates(&norm, threshold).collect();
    let labels: Vec<&str> = hits.iter().map(|(label, _)| *label).collect();
    assert_ascending_unique(&labels, &context);
    for entry in entity_oracle(kb, &norm, threshold) {
        assert!(hits.contains(&entry), "index dropped {entry:?} ({context})");
    }
}

/// Oracle for `Mapper::entity_pool`: exact label first, else a full fuzzy
/// scan keeping each entity once at its best score, top 5 by score then IRI.
fn oracle_entity_pool(kb: &KnowledgeBase, text: &str, threshold: f64) -> Vec<Iri> {
    let exact = kb.entities_with_label(text);
    if !exact.is_empty() {
        return exact.to_vec();
    }
    let norm = normalize_label(text);
    let mut scratch = LcsScratch::default();
    let mut best: FxHashMap<&Iri, f64> = FxHashMap::default();
    for (label, iris) in kb.labels_iter() {
        let s = lcs_score_pre(&norm, label, &mut scratch);
        if s >= threshold {
            for iri in iris {
                let slot = best.entry(iri).or_insert(s);
                *slot = slot.max(s);
            }
        }
    }
    let mut scored: Vec<(f64, &Iri)> = best.into_iter().map(|(iri, s)| (s, iri)).collect();
    scored.sort_by(|(sa, ia), (sb, ib)| sb.total_cmp(sa).then_with(|| ia.cmp(ib)));
    scored.into_iter().take(5).map(|(_, iri)| iri.clone()).collect()
}

/// Every check for one query word at one threshold: both property families
/// (one-word form, plus the 0.9 `data_properties_matching` cut), the entity
/// index, and the mapper's entity pool against the full-scan oracle.
fn assert_sound_for_word(word: &str, threshold: f64, context: &str) {
    let kb = &fixture().kb;
    let lower = word.to_lowercase();
    assert_property_index_sound(kb, &[&lower], threshold, context);
    assert_property_index_sound(kb, &[&lower], 0.9, context);
    assert_entity_index_sound(kb, word, threshold, context);
    let mapper = mapper_with(MappingConfig {
        string_sim_threshold: threshold,
        entity_sim_threshold: threshold,
        ..MappingConfig::default()
    });
    assert_eq!(
        mapper.entity_pool(word),
        oracle_entity_pool(kb, word, threshold),
        "entity pool for {word:?} @ {threshold} ({context})"
    );
}

/// The two-word `[lemma, text]` form of the property scans.
fn assert_sound_for_pair(lemma: &str, text: &str, threshold: f64, context: &str) {
    let (lemma, text) = (lemma.to_lowercase(), text.to_lowercase());
    assert_property_index_sound(&fixture().kb, &[&lemma, &text], threshold, context);
}

#[test]
fn all_ontology_words_are_kept_by_the_index() {
    let threshold = MappingConfig::default().string_sim_threshold;
    let vocabulary = ontology_vocabulary(&fixture().kb);
    for word in &vocabulary {
        assert_sound_for_word(word, threshold, "ontology vocabulary");
    }
    for pair in vocabulary.windows(2) {
        assert_sound_for_pair(&pair[0], &pair[1], threshold, "ontology vocabulary pair");
    }
}

#[test]
fn all_entity_labels_are_kept_by_the_index() {
    let kb = &fixture().kb;
    let threshold = MappingConfig::default().entity_sim_threshold;
    let labels: Vec<String> = kb.labels_iter().map(|(l, _)| l.to_string()).collect();
    for label in labels {
        // The exact label short-circuits the mapper's fuzzy path; a mutated
        // copy (drop the middle character) forces it.
        assert_entity_index_sound(kb, &label, threshold, "exact label");
        let chars: Vec<char> = label.chars().collect();
        if chars.len() > 2 {
            let mut fuzzed: String = chars[..chars.len() / 2].iter().collect();
            fuzzed.extend(&chars[chars.len() / 2 + 1..]);
            assert_sound_for_word(&fuzzed, threshold, &format!("fuzzed from {label:?}"));
        }
    }
}

#[test]
fn threshold_boundary_scores_are_kept() {
    // lcs_score("write", "writer") = 5/6 and ("written","writer") = 5/7:
    // pin the thresholds exactly there so `s >= threshold` sits on the
    // boundary, the regime where a sloppy pruning bound would drop entries.
    for threshold in [5.0 / 6.0, 5.0 / 7.0, 0.95, 0.9, 1.0] {
        let context = format!("threshold {threshold}");
        for word in ["write", "written", "writer", "height", "population", "orhan pamuk"] {
            assert_sound_for_word(word, threshold, &context);
        }
        assert_sound_for_pair("write", "written", threshold, &context);
        assert_sound_for_pair("bear", "born", threshold, &context);
    }
}

#[test]
fn empty_and_unicode_queries_are_sound() {
    let threshold = MappingConfig::default().string_sim_threshold;
    for word in ["", " ", "é", "naïveté", "höhe", "北京", "a", "-", "🦀"] {
        assert_sound_for_word(word, threshold, "edge-case query");
    }
    assert_sound_for_pair("", "höhe", threshold, "edge-case pair");
}

#[test]
fn random_sweep_is_sound_across_threshold_regimes() {
    // Random ASCII-ish strings at thresholds covering all three index
    // regimes: 0.5 (below 2/3 → full-scan fallback), 0.7 (default, bigram
    // guarantee active), 0.9/0.95 (short bound, heavy pruning).
    let alphabet: Vec<char> = "abcdefghilmnoprstuwé ".chars().collect();
    for threshold in [0.5f64, 0.7, 0.9, 0.95] {
        let mut rng = Rng::seed_from_u64(0x1E81CA1 ^ threshold.to_bits());
        let mut previous = String::new();
        for case in 0..150 {
            let len = rng.gen_range(0usize..16);
            let word: String =
                (0..len).map(|_| alphabet[rng.gen_range(0usize..alphabet.len())]).collect();
            let context = format!("random case {case} @ {threshold}");
            assert_sound_for_word(&word, threshold, &context);
            assert_sound_for_pair(&previous, &word, threshold, &context);
            previous = word;
        }
    }
}

#[test]
fn index_prunes_but_scores_everything_it_keeps() {
    // Sanity on the stats contract: probed = pruned + kept-units, and the
    // fuzzy lookups below mean at least something was probed and pruned.
    let f = fixture();
    let before = f.kb.lexical().lookup_stats();
    let mapper = mapper_with(MappingConfig::default());
    mapper.entity_pool("orhan pamukk");
    mapper.property_candidates("written", "write", PredKind::Verb);
    let delta = f.kb.lexical().lookup_stats().delta_since(&before);
    assert!(delta.probed > 0, "{delta:?}");
    assert!(delta.scored > 0, "{delta:?}");
    assert!(delta.probed >= delta.pruned, "{delta:?}");
}

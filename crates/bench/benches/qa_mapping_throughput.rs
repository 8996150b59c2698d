//! Perf P6: lexical candidate lookup throughput — entity-pool and
//! property-candidate lookups/second through the mapper (and so through the
//! KB's lexical index) on the Table-2 KB. Also reports the index's
//! pruned-vs-scored ratio. The index's soundness against a brute-force
//! oracle is a CI test (`crates/core/tests/lexical_equivalence.rs`), not a
//! bench concern. The numbers land in EXPERIMENTS.md ("Mapping lookup
//! throughput").
//!
//! Run with: `cargo bench -p relpat-bench --bench qa_mapping_throughput`
//!
//! Flags:
//! - `--smoke` — tiny KB and a single round (CI-friendly); without it, the
//!   default KB and best-of-5 rounds.

use relpat_kb::{generate, qald_questions, KbConfig, KnowledgeBase};
use relpat_obs::fx::FxHashMap;
use relpat_obs::Rng;
use relpat_patterns::{mine, CorpusConfig};
use relpat_qa::{similar_property_pairs, Mapper, MappingConfig, PredKind};
use relpat_wordnet::embedded;
use std::time::Instant;

/// Fuzzy entity mentions: KB labels with one character dropped, so the
/// exact-label fast path misses and the similarity scan really runs.
fn fuzzy_mentions(kb: &KnowledgeBase, n: usize, rng: &mut Rng) -> Vec<String> {
    let mut labels: Vec<&str> = kb.labels_iter().map(|(l, _)| l).collect();
    labels.sort_unstable();
    let mut mentions = Vec::with_capacity(n);
    for i in 0..n {
        let label = labels[(i * 7919) % labels.len()];
        let chars: Vec<char> = label.chars().collect();
        if chars.len() < 3 {
            mentions.push(label.to_string());
            continue;
        }
        let drop = rng.gen_range(0usize..chars.len());
        mentions.push(
            chars
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != drop)
                .map(|(_, c)| c)
                .collect(),
        );
    }
    mentions
}

/// Predicate-word workload: every ontology name/label word plus the
/// alphabetic tokens of the QALD questions.
fn predicate_words(kb: &KnowledgeBase) -> Vec<String> {
    let mut words: Vec<String> = Vec::new();
    for (name, label) in kb
        .ontology
        .object_properties
        .iter()
        .map(|p| (p.name, p.label))
        .chain(kb.ontology.data_properties.iter().map(|p| (p.name, p.label)))
    {
        words.push(name.to_string());
        words.extend(label.split_whitespace().map(str::to_string));
    }
    for q in qald_questions(kb) {
        words.extend(
            q.text
                .split(|c: char| !c.is_alphabetic())
                .filter(|w| w.len() > 2)
                .map(str::to_lowercase),
        );
    }
    words.sort();
    words.dedup();
    words
}

/// One full pass over both workloads: entity pools for the mentions, then
/// verb and noun property candidates for every word.
fn run_workload(mapper: &Mapper<'_>, mentions: &[String], words: &[String]) {
    for m in mentions {
        std::hint::black_box(mapper.entity_pool(m));
    }
    for w in words {
        for kind in [PredKind::Verb, PredKind::Noun] {
            std::hint::black_box(mapper.property_candidates(w, w, kind));
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (config, rounds) = if smoke { (KbConfig::tiny(), 1) } else { (KbConfig::default(), 5) };

    println!("=== QA mapping lookup throughput ({}) ===\n", if smoke { "smoke" } else { "full" });
    let kb = generate(&config);
    let mined = mine(&kb, &CorpusConfig::default());
    let pairs: FxHashMap<String, Vec<(String, f64)>> = similar_property_pairs(&kb, embedded());
    let mapper = Mapper {
        kb: &kb,
        wordnet: embedded(),
        patterns: &mined.store,
        similar_pairs: &pairs,
        config: MappingConfig::default(),
    };

    let mut rng = Rng::seed_from_u64(0x10CA1);
    let mentions = fuzzy_mentions(&kb, if smoke { 40 } else { 400 }, &mut rng);
    let words = predicate_words(&kb);
    let lookups = mentions.len() + 2 * words.len();
    let ix = kb.lexical().stats();
    println!(
        "Knowledge base: {} labeled entities; workload: {} fuzzy mentions + {} predicate words ({lookups} lookups/round)",
        kb.entity_count(),
        mentions.len(),
        words.len()
    );
    println!(
        "Index: {} entity + {} property entries, {} units, {} bigram postings, {} exact words\n",
        ix.entity_entries, ix.property_entries, ix.units, ix.bigram_postings, ix.exact_words
    );

    let stats_before = kb.lexical().lookup_stats();
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        run_workload(&mapper, &mentions, &words);
        best = best.min(start.elapsed().as_secs_f64());
    }
    let per_sec = lookups as f64 / best;
    println!("lexical index best of {rounds}: {best:>8.3} s  {per_sec:>10.0} lookups/s");
    let d = kb.lexical().lookup_stats().delta_since(&stats_before);
    println!(
        "               index: {} units probed, {} pruned by bounds ({:.1}%), {} entries scored",
        d.probed,
        d.pruned,
        d.prune_rate() * 100.0,
        d.scored
    );
}

//! Seeded input generators. The workload seed picks orders and constants;
//! the system under test only ever sees the generated texts.

use relpat_kb::KnowledgeBase;
use relpat_obs::Rng;
use relpat_rdf::Term;
use relpat_sparql::QueryResult;

/// Fisher–Yates shuffle driven by the in-tree PRNG.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// A question with the SPARQL query whose answers are its gold answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Templated {
    pub shape: &'static str,
    pub text: String,
    pub gold: String,
}

/// Question shapes taken from the answerable QALD questions: `(name,
/// question with {} for the entity label, query listing the entities that
/// have the fact, gold query with {} for the entity IRI)`.
const SHAPES: &[(&str, &str, &str, &str)] = &[
    (
        "book_by_writer",
        "Which book is written by {}?",
        "SELECT DISTINCT ?e { ?b rdf:type dbont:Book . ?b dbont:author ?e }",
        "SELECT ?x { ?x rdf:type dbont:Book . ?x dbont:author {} }",
    ),
    (
        "writer_of_book",
        "Who wrote {}?",
        "SELECT DISTINCT ?e { ?e rdf:type dbont:Book . ?e dbont:author ?a }",
        "SELECT ?x { {} dbont:author ?x }",
    ),
    (
        "author_of_book",
        "Who is the author of {}?",
        "SELECT DISTINCT ?e { ?e rdf:type dbont:Book . ?e dbont:author ?a }",
        "SELECT ?x { {} dbont:author ?x }",
    ),
    (
        "birth_place",
        "Where was {} born?",
        "SELECT DISTINCT ?e { ?e dbont:birthPlace ?p }",
        "SELECT ?p { {} dbont:birthPlace ?p }",
    ),
    (
        "birth_date",
        "When was {} born?",
        "SELECT DISTINCT ?e { ?e dbont:birthDate ?d }",
        "SELECT ?d { {} dbont:birthDate ?d }",
    ),
    (
        "death_place",
        "Where did {} die?",
        "SELECT DISTINCT ?e { ?e dbont:deathPlace ?p }",
        "SELECT ?p { {} dbont:deathPlace ?p }",
    ),
    (
        "film_director",
        "Who directed {}?",
        "SELECT DISTINCT ?e { ?e rdf:type dbont:Film . ?e dbont:director ?d }",
        "SELECT ?x { {} dbont:director ?x }",
    ),
    (
        "films_by_director",
        "Which films did {} direct?",
        "SELECT DISTINCT ?e { ?f rdf:type dbont:Film . ?f dbont:director ?e }",
        "SELECT ?x { ?x rdf:type dbont:Film . ?x dbont:director {} }",
    ),
];

/// Every (shape, entity) question the KB supports, in a fixed order.
/// Entities whose label names more than one entity are skipped, so each
/// question has exactly one gold reading.
pub fn templated_pool(kb: &KnowledgeBase) -> Vec<Templated> {
    let mut out = Vec::new();
    for &(shape, question, list, gold) in SHAPES {
        for term in column(kb, list) {
            let Some(iri) = term.as_iri() else { continue };
            let Some(label) = kb.label_of(iri) else {
                continue;
            };
            if kb.entities_with_label(label).len() != 1 {
                continue;
            }
            out.push(Templated {
                shape,
                text: question.replace("{}", label),
                gold: gold.replace("{}", &format!("<{}>", iri.as_str())),
            });
        }
    }
    out
}

/// The first column of a SELECT, run past the query cache.
pub fn column(kb: &KnowledgeBase, sparql: &str) -> Vec<Term> {
    match kb.query_uncached(sparql) {
        Ok(QueryResult::Solutions(sols)) => sols
            .rows
            .into_iter()
            .filter_map(|row| row.into_iter().next().flatten())
            .collect(),
        other => panic!("generator query {sparql} failed: {other:?}"),
    }
}

/// Gold answers of a query: every distinct cell, or the boolean as a
/// literal (the form `relpat_eval::judge` compares against).
pub fn gold_terms(kb: &KnowledgeBase, sparql: &str) -> Vec<Term> {
    match kb.query_uncached(sparql) {
        Ok(QueryResult::Solutions(sols)) => {
            let mut out: Vec<Term> = Vec::new();
            for cell in sols.rows.into_iter().flatten().flatten() {
                if !out.contains(&cell) {
                    out.push(cell);
                }
            }
            out
        }
        Ok(QueryResult::Boolean(b)) => vec![Term::Literal(relpat_rdf::Literal::boolean(b))],
        Err(e) => panic!("gold query {sparql} failed: {e}"),
    }
}

/// One generated store query.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreQuery {
    pub shape: &'static str,
    pub text: String,
}

fn iri(t: &Term) -> String {
    format!(
        "<{}>",
        t.as_iri().expect("generator pools hold IRIs").as_str()
    )
}

fn pick<'a, T>(rng: &mut Rng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Constants the store-query generator samples from, listed once per KB.
pub struct StorePools {
    writers: Vec<Term>,
    books: Vec<Term>,
    tall: Vec<Term>,
    /// The largest tenth of city populations: a filter threshold drawn
    /// from them keeps at most a tenth of the cities.
    top_populations: Vec<i64>,
}

impl StorePools {
    pub fn new(kb: &KnowledgeBase) -> Self {
        let mut populations: Vec<i64> = column(
            kb,
            "SELECT ?p { ?c rdf:type dbont:City . ?c dbont:populationTotal ?p }",
        )
        .iter()
        .filter_map(|t| t.as_literal().and_then(|l| l.as_i64()))
        .collect();
        populations.sort_unstable_by(|a, b| b.cmp(a));
        populations.truncate(populations.len().div_ceil(10));
        StorePools {
            writers: column(
                kb,
                "SELECT DISTINCT ?a { ?b rdf:type dbont:Book . ?b dbont:author ?a }",
            ),
            books: column(kb, "SELECT ?b { ?b rdf:type dbont:Book }"),
            tall: column(kb, "SELECT DISTINCT ?e { ?e dbont:height ?h }"),
            top_populations: populations,
        }
    }
}

/// The query shapes of `relpat_bench::scaling::QUERIES`, in its order.
/// [`store_queries`] writes each shape's text as the scaling bench does,
/// with its constants (author, entity, threshold, book) replaced by sampled
/// ones. The three fan-out joins have none and run as written. `class_scan`
/// keeps the bench's class: the KB's classes range from 1 to 17,971
/// members, and a run's hundred or so class scans would cover a
/// seed-dependent part of a pass over them, which moved the shape's median
/// by 45% between seeds. The texts are copied rather than imported so that a change to the
/// scaling bench does not change this workload.
pub const STORE_SHAPES: &[&str] = &[
    "class_scan",
    "paper_join",
    "subject_lookup",
    "filtered",
    "ask",
    "merge_join",
    "chain_join",
    "agg_join",
];

/// A seeded stream of `n` store queries, uniform over [`STORE_SHAPES`]:
/// the shapes repeat in a fixed order, so any prefix of the stream holds
/// each shape equally often (±1) and each shape always follows the same
/// one. The order is fixed because a query that follows a large result
/// pays part of the cost of freeing it: in a seeded order, a cheap shape's
/// median jumped with the share of its runs that followed a fan-out query.
/// The seed draws the constants, uniformly.
pub fn store_queries(pools: &StorePools, rng: &mut Rng, n: usize) -> Vec<StoreQuery> {
    (0..n)
        .map(|i| {
            let shape = STORE_SHAPES[i % STORE_SHAPES.len()];
            let text = match shape {
                "class_scan" => "SELECT ?x { ?x rdf:type dbont:Book }".to_string(),
                "paper_join" => format!(
                    "SELECT ?x {{ ?x rdf:type dbont:Book . ?x dbont:author {} }}",
                    iri(pick(rng, &pools.writers))
                ),
                "subject_lookup" => format!(
                    "SELECT ?h {{ {} dbont:height ?h }}",
                    iri(pick(rng, &pools.tall))
                ),
                "filtered" => format!(
                    "SELECT ?c {{ ?c rdf:type dbont:City . ?c dbont:populationTotal ?p \
                     FILTER(?p > {}) }}",
                    pick(rng, &pools.top_populations)
                ),
                "ask" => {
                    let book = pick(rng, &pools.books);
                    let writer = pick(rng, &pools.writers);
                    format!("ASK {{ {} dbont:author {} }}", iri(book), iri(writer))
                }
                "merge_join" => {
                    "SELECT ?b ?c { ?b dbont:author ?a . ?a dbont:birthPlace ?c }".to_string()
                }
                "chain_join" => "SELECT ?b ?c { ?a rdf:type dbont:Writer . ?b dbont:author ?a . \
                                 ?a dbont:birthPlace ?c }"
                    .to_string(),
                _ => "SELECT (COUNT(?c) AS ?n) { ?b dbont:author ?a . ?a dbont:birthPlace ?c }"
                    .to_string(),
            };
            StoreQuery { shape, text }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_kb::{generate, KbConfig};

    #[test]
    fn shuffle_is_seeded() {
        let base: Vec<u32> = (0..50).collect();
        let run = |seed| {
            let mut v = base.clone();
            shuffle(&mut v, &mut Rng::seed_from_u64(seed));
            v
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        let mut sorted = run(3);
        sorted.sort_unstable();
        assert_eq!(sorted, base, "a shuffle is a permutation");
    }

    #[test]
    fn store_queries_are_seeded_and_valid() {
        let kb = generate(&KbConfig::default());
        let pools = StorePools::new(&kb);
        let a = store_queries(&pools, &mut Rng::seed_from_u64(7), 300);
        let b = store_queries(&pools, &mut Rng::seed_from_u64(7), 300);
        let c = store_queries(&pools, &mut Rng::seed_from_u64(8), 300);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for q in &a {
            assert!(
                kb.query_uncached(&q.text).is_ok(),
                "{} does not run",
                q.text
            );
        }
        // 300 = 37 blocks of 8 + 4: every shape 37 or 38 times.
        for shape in STORE_SHAPES {
            let k = a.iter().filter(|q| q.shape == *shape).count();
            assert!((37..=38).contains(&k), "{shape} appears {k} times");
        }
    }

    #[test]
    fn templated_pool_has_gold_for_every_question() {
        let kb = generate(&KbConfig::default());
        let pool = templated_pool(&kb);
        assert!(pool.len() > 200, "pool has {} questions", pool.len());
        let mut texts: Vec<&str> = pool.iter().map(|t| t.text.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), pool.len(), "questions are distinct");
        assert!(pool
            .iter()
            .take(50)
            .all(|t| !gold_terms(&kb, &t.gold).is_empty()));
    }
}

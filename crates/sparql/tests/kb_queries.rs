//! SPARQL engine integration against a realistic store: the full algebra
//! (joins, FILTER, OPTIONAL, UNION, COUNT, ORDER BY) over the generated
//! knowledge base rather than toy fixtures.

use relpat_kb::{generate, KbConfig, KnowledgeBase};
use relpat_sparql::{query, QueryResult};
use std::sync::OnceLock;

fn kb() -> &'static KnowledgeBase {
    static KB: OnceLock<KnowledgeBase> = OnceLock::new();
    KB.get_or_init(|| generate(&KbConfig::tiny()))
}

fn rows(q: &str) -> usize {
    match query(&kb().graph, q).unwrap_or_else(|e| panic!("{q}: {e}")) {
        QueryResult::Solutions(s) => s.len(),
        QueryResult::Boolean(_) => panic!("{q}: expected solutions"),
    }
}

#[test]
fn three_way_join_over_generated_facts() {
    // Books → authors → birth places: every row is fully bound.
    let q = "SELECT ?b ?w ?p { ?b rdf:type dbont:Book . ?b dbont:author ?w . \
             ?w dbont:birthPlace ?p }";
    let n = rows(q);
    assert!(n > 0);
    // Adding an unsatisfiable constraint empties it.
    let q2 = "SELECT ?b { ?b rdf:type dbont:Book . ?b dbont:author ?w . \
              ?w dbont:birthPlace res:Nowhere_City }";
    assert_eq!(rows(q2), 0);
}

#[test]
fn optional_preserves_join_cardinality() {
    let base = rows("SELECT ?b { ?b rdf:type dbont:Book }");
    let with_optional =
        rows("SELECT ?b ?pub { ?b rdf:type dbont:Book OPTIONAL { ?b dbont:publisher ?pub } }");
    // Left join never loses rows (and each book has ≤1 publisher here).
    assert!(with_optional >= base);
}

#[test]
fn union_counts_add_up() {
    let writers = rows("SELECT DISTINCT ?x { ?x rdf:type dbont:Writer }");
    let actors = rows("SELECT DISTINCT ?x { ?x rdf:type dbont:Actor }");
    let both = rows(
        "SELECT DISTINCT ?x { { ?x rdf:type dbont:Writer } UNION { ?x rdf:type dbont:Actor } }",
    );
    // Classes are disjoint in the generator, so the union is the sum.
    assert_eq!(both, writers + actors);
}

#[test]
fn count_agrees_with_materialized_rows() {
    let n = rows("SELECT ?x { ?x rdf:type dbont:City }");
    let counted = match query(
        &kb().graph,
        "SELECT (COUNT(?x) AS ?n) { ?x rdf:type dbont:City }",
    )
    .unwrap()
    {
        QueryResult::Solutions(s) => {
            s.first().unwrap().as_literal().unwrap().as_i64().unwrap() as usize
        }
        _ => unreachable!(),
    };
    assert_eq!(n, counted);
}

#[test]
fn order_by_returns_extremes_first() {
    let result = query(
        &kb().graph,
        "SELECT ?c ?p { ?c rdf:type dbont:Country . ?c dbont:populationTotal ?p } \
         ORDER BY DESC(?p) LIMIT 3",
    )
    .unwrap()
    .into_solutions().unwrap();
    let pops: Vec<i64> = result
        .rows
        .iter()
        .map(|r| r[1].as_ref().unwrap().as_literal().unwrap().as_i64().unwrap())
        .collect();
    assert!(pops.windows(2).all(|w| w[0] >= w[1]), "{pops:?}");
}

#[test]
fn filters_compose_with_joins() {
    let q = "SELECT ?c { ?c rdf:type dbont:City . ?c dbont:country res:Turkey . \
             ?c dbont:populationTotal ?p FILTER(?p > 1000000) }";
    let big_turkish = rows(q);
    let all_turkish = rows("SELECT ?c { ?c rdf:type dbont:City . ?c dbont:country res:Turkey }");
    assert!(big_turkish <= all_turkish);
    assert!(big_turkish >= 1); // Istanbul qualifies
}

#[test]
fn ask_over_optional_union() {
    let t = query(
        &kb().graph,
        "ASK { { res:Snow dbont:author ?w } UNION { res:Snow dbont:writer ?w } }",
    )
    .unwrap()
    .into_boolean().unwrap();
    assert!(t);
    let f = query(
        &kb().graph,
        "ASK { res:Snow dbont:director ?d }",
    )
    .unwrap()
    .into_boolean().unwrap();
    assert!(!f);
}

#[test]
fn distinct_interacts_with_union_and_projection() {
    let raw = rows(
        "SELECT ?w { { ?b dbont:author ?w } UNION { ?b dbont:author ?w } }",
    );
    let distinct = rows(
        "SELECT DISTINCT ?w { { ?b dbont:author ?w } UNION { ?b dbont:author ?w } }",
    );
    assert_eq!(raw % 2, 0, "duplicated union must double rows");
    assert!(distinct <= raw / 2);
}

#[test]
fn order_by_over_every_object_kind_succeeds() {
    // The object column mixes IRIs, numbers, dates and language-tagged
    // strings; sorting it needs a total order across kinds.
    let q = "SELECT ?o { ?s ?p ?o } ORDER BY ?o";
    assert!(query(&kb().graph, q).is_ok());
    assert_eq!(rows(q), kb().len());
}

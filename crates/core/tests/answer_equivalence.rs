//! Property-style seeded sweep over answer extraction (in-tree RNG,
//! matching the workspace's `proptest` replacement style): early-terminated,
//! exhaustive, explained and cache-warm execution must all select the
//! identical `Answer` over randomized candidate sets — including batches
//! containing failing queries, and batches where every query fails. Early
//! termination and caching change cost, never answers; plan collection
//! changes neither.

use relpat_kb::{generate, KbConfig, KnowledgeBase};
use relpat_obs::Rng;
use relpat_qa::{
    extract_answer_explained, extract_answer_traced, AnswerConfig, BuiltQuery, ExpectedType,
};
use std::sync::OnceLock;

fn kb() -> &'static KnowledgeBase {
    static KB: OnceLock<KnowledgeBase> = OnceLock::new();
    KB.get_or_init(|| generate(&KbConfig::tiny()))
}

/// Candidate pool for `SELECT` batches: non-empty, empty, and malformed.
const SELECT_POOL: [&str; 6] = [
    "SELECT ?x { ?x dbont:author res:Orhan_Pamuk }",        // non-empty
    "SELECT ?x { res:Turkey dbont:capital ?x }",            // non-empty
    "SELECT ?x { res:Frank_Herbert dbont:birthPlace ?x }",  // empty
    "SELECT ?x { res:Frank_Herbert dbont:deathPlace ?x }",  // empty
    "SELECT ?x { broken",                                   // parse failure
    "SELECT ?x { ?x rdf:type dbont:Book }",                 // non-empty
];

/// Candidate pool for `ASK` batches: true, false, and malformed.
const ASK_POOL: [&str; 5] = [
    "ASK { res:Snow dbont:author res:Orhan_Pamuk . }",   // true
    "ASK { res:Dune dbont:author res:Orhan_Pamuk . }",   // false
    "ASK { res:Turkey dbont:capital res:Ankara . }",     // true
    "ASK { res:Ankara dbont:capital res:Turkey . }",     // false
    "ASK { also broken",                                 // parse failure
];

/// A randomized, descending-scored candidate batch drawn from `pool`.
fn arb_batch(rng: &mut Rng, pool: &[&str]) -> Vec<BuiltQuery> {
    let n = rng.gen_range(1usize..=12);
    let mut queries: Vec<BuiltQuery> = (0..n)
        .map(|_| BuiltQuery {
            sparql: pool[rng.gen_range(0usize..pool.len())].to_string(),
            score: (rng.gen_range(0u32..1000) as f64) / 10.0,
        })
        .collect();
    queries.sort_by(|a, b| b.score.total_cmp(&a.score));
    queries
}

/// The two execution strategies whose answers must coincide: ranked early
/// termination (the default) and the paper's exhaustive sweep.
fn configs() -> [AnswerConfig; 2] {
    let base = AnswerConfig::default();
    [base.clone(), AnswerConfig { exhaustive: true, ..base }]
}

fn sweep(pool: &[&str], ask: bool, expected: ExpectedType, seed: u64) {
    let kb = kb();
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(seed + case);
        let queries = arb_batch(&mut rng, pool);
        let (reference, ref_stats) =
            extract_answer_traced(kb, expected, ask, &queries, &configs()[1]);
        // Exhaustive mode really executes everything and accounts for it.
        assert_eq!(ref_stats.executed, queries.len() as u64, "case {case}");
        let expected_failed =
            queries.iter().filter(|q| q.sparql.contains("broken")).count() as u64;
        assert_eq!(ref_stats.failed, expected_failed, "case {case}");
        for (ci, config) in configs().iter().enumerate() {
            let (answer, stats) = extract_answer_traced(kb, expected, ask, &queries, config);
            assert_eq!(answer, reference, "case {case} config {ci}: {queries:#?}");
            assert!(stats.executed <= queries.len() as u64, "case {case} config {ci}");
            // No survivor anywhere → nothing can be skipped, by any strategy.
            if reference.is_none() {
                assert_eq!(stats, ref_stats, "case {case} config {ci}");
            }
            // The explained path runs the same sweep and only adds plans:
            // one per executed candidate that parsed.
            let mut plans = Vec::new();
            let explained =
                extract_answer_explained(kb, expected, ask, &queries, config, &mut plans);
            assert_eq!(explained, (answer, stats), "case {case} config {ci} explained");
            assert_eq!(plans.len() as u64, stats.executed - stats.failed, "case {case} config {ci}");
        }
        // Cache-warm rerun (every query text now cached in the KB): still
        // the identical answer and the identical stats.
        let warm = extract_answer_traced(kb, expected, ask, &queries, &configs()[0]);
        let cold_equivalent = extract_answer_traced(kb, expected, ask, &queries, &configs()[0]);
        assert_eq!(warm, cold_equivalent, "case {case} warm rerun drifted");
        assert_eq!(warm.0, reference, "case {case} warm vs exhaustive");
    }
}

#[test]
fn select_batches_agree_across_strategies() {
    sweep(&SELECT_POOL, false, ExpectedType::Unconstrained, 0x5E1EC7);
}

#[test]
fn select_batches_agree_under_type_checking() {
    // Place-typed: the author/book queries survive execution but die in the
    // type filter, exercising the Survivor/Empty boundary.
    sweep(&SELECT_POOL, false, ExpectedType::Place, 0x7A9E);
}

#[test]
fn ask_batches_agree_across_strategies() {
    sweep(&ASK_POOL, true, ExpectedType::Boolean, 0xA5C0FFEE);
}

#[test]
fn all_failing_batches_report_failures_not_answers() {
    let kb = kb();
    for case in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0xFA11 + case);
        let ask = rng.gen_bool(0.5);
        let n = rng.gen_range(1usize..=8);
        let queries: Vec<BuiltQuery> = (0..n)
            .map(|i| BuiltQuery {
                sparql: format!("{} ?x {{ broken {i}", if ask { "ASK" } else { "SELECT" }),
                score: (n - i) as f64,
            })
            .collect();
        for config in configs() {
            let expected = if ask { ExpectedType::Boolean } else { ExpectedType::Unconstrained };
            let (answer, stats) = extract_answer_traced(kb, expected, ask, &queries, &config);
            assert!(answer.is_none(), "case {case}");
            assert_eq!(stats.executed, n as u64, "case {case}");
            assert_eq!(stats.failed, n as u64, "case {case}");
            assert_eq!(stats.survived, 0, "case {case}");
        }
    }
}

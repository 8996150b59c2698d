//! Determinism guarantees: every number the repository reports must be
//! reproducible bit-for-bit from the seeds. Two independent builds of the
//! whole stack must agree on the benchmark outcome.

use relpat::eval::run_benchmark;
use relpat::kb::{generate, qald_questions, KbConfig};
use relpat::patterns::{mine, CorpusConfig};
use relpat::qa::Pipeline;

#[test]
fn full_stack_is_deterministic() {
    let run = || {
        let kb = generate(&KbConfig::tiny());
        let pipeline = Pipeline::new(&kb);
        let questions = qald_questions(&kb);
        let report = run_benchmark(&pipeline, &questions);
        // Run-local aggregates only: the process-global deltas
        // (`planner.misestimates`, `sparql.join.*`, `prof.*`) also see the
        // other tests in this binary, which run concurrently.
        let run_local = ["queries.", "qa.plan.", "patterns.", "sparql.cache.", "map.index."];
        let counters: Vec<(String, u64)> = report
            .stats
            .counters
            .iter()
            .filter(|(name, _)| run_local.iter().any(|prefix| name.starts_with(prefix)))
            .cloned()
            .collect();
        let stage_counts: Vec<(String, u64)> =
            report.stats.stage_latencies.iter().map(|h| (h.name.clone(), h.count)).collect();
        (
            kb.len(),
            report.counts,
            report
                .results
                .iter()
                .map(|r| (r.id, r.answered, r.correct, r.answer.clone()))
                .collect::<Vec<_>>(),
            counters,
            stage_counts,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "KB size must be seed-stable");
    assert_eq!(a.1, b.1, "Table-2 counts must be seed-stable");
    assert_eq!(a.2, b.2, "per-question outcomes must be seed-stable");
    assert_eq!(a.3.len(), 16, "every run-local counter is reported: {:?}", a.3);
    assert!(a.3.iter().any(|(name, v)| name == "sparql.cache.misses" && *v > 0));
    assert_eq!(a.3, b.3, "run-local aggregate counters must be seed-stable");
    assert!(!a.4.is_empty() && a.4.iter().all(|(_, n)| *n > 0), "{:?}", a.4);
    assert_eq!(a.4, b.4, "every stage histogram must see the same sample count");
}

#[test]
fn mining_is_deterministic() {
    let kb = generate(&KbConfig::tiny());
    let a = mine(&kb, &CorpusConfig::default());
    let b = mine(&kb, &CorpusConfig::default());
    assert_eq!(a.sentences, b.sentences);
    assert_eq!(a.occurrences, b.occurrences);
    assert_eq!(a.store.pattern_count(), b.store.pattern_count());
    // Candidate lists for key words must agree element-wise.
    for word in ["die", "bear", "write", "capital"] {
        assert_eq!(
            a.store.candidates_for_word(word),
            b.store.candidates_for_word(word),
            "{word}"
        );
    }
}

#[test]
fn seeds_control_the_world() {
    let a = generate(&KbConfig::tiny());
    let b = generate(&KbConfig { seed: 7, ..KbConfig::tiny() });
    // Different seed → different bulk content (famous entities excepted).
    assert_ne!(a.len(), b.len());
    // But the paper-example facts are seed-independent.
    for kb in [&a, &b] {
        let sols = kb
            .query("SELECT ?x { ?x dbont:author res:Orhan_Pamuk }")
            .unwrap()
            .into_solutions().unwrap();
        assert_eq!(sols.len(), 3);
    }
}

#[test]
fn answer_is_stable_across_repeated_calls() {
    let kb = generate(&KbConfig::tiny());
    let pipeline = Pipeline::new(&kb);
    let first = pipeline.answer("Where did Abraham Lincoln die?");
    for _ in 0..3 {
        let again = pipeline.answer("Where did Abraham Lincoln die?");
        assert_eq!(first.stage, again.stage);
        assert_eq!(
            first.answer.as_ref().map(|a| &a.sparql),
            again.answer.as_ref().map(|a| &a.sparql)
        );
    }
}

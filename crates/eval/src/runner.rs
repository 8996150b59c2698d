//! QALD benchmark runner: execute the pipeline over the evaluated subset,
//! judge answers against gold, aggregate Table-2 counts.

use relpat_kb::{evaluated_subset, KnowledgeBase, QaldQuestion};
use relpat_obs::{HistogramSummary, Json, MetricsRegistry};
use relpat_qa::{AnswerValue, Pipeline, Stage};
use relpat_rdf::Term;

use crate::metrics::Counts;

/// Per-question outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuestionResult {
    pub id: u32,
    pub text: String,
    /// Which pipeline stage the question reached.
    pub stage: String,
    pub answered: bool,
    pub correct: bool,
    /// Human-readable produced answer (empty if none).
    pub answer: String,
    /// Human-readable gold answer.
    pub gold: String,
    /// The winning SPARQL query, if any.
    pub query: Option<String>,
}

/// Aggregated observability over one benchmark run: per-stage latency
/// percentiles plus pipeline counters, built from the per-question
/// [`relpat_obs::QuestionTrace`]s (so parallel test runs cannot bleed into
/// each other through the global registry).
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Latency digest per pipeline stage, in pipeline order
    /// (`extract`, `map`, `build`, `answer`, `total`). Units: nanoseconds.
    pub stage_latencies: Vec<HistogramSummary>,
    /// Summed pipeline counters (`queries.built`, `patterns.phrase_hits`, ...).
    pub counters: Vec<(String, u64)>,
}

impl RunStats {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    pub fn stage(&self, name: &str) -> Option<&HistogramSummary> {
        self.stage_latencies.iter().find(|h| h.name == name)
    }

    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, value) in &self.counters {
            counters = counters.set(name, *value);
        }
        Json::obj().set("counters", counters).set(
            "stage_latency_ns",
            Json::Arr(self.stage_latencies.iter().map(HistogramSummary::to_json).collect()),
        )
    }

    /// Renders the profile table (stage | count | min | p50 | p90 | p99 |
    /// max, µs).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| stage | n | min µs | p50 µs | p90 µs | p99 µs | max µs |\n|---|---|---|---|---|---|---|"
        );
        let us = |ns: u64| ns as f64 / 1_000.0;
        for h in &self.stage_latencies {
            let _ = writeln!(
                out,
                "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |",
                h.name,
                h.count,
                us(h.min),
                us(h.p50),
                us(h.p90),
                us(h.p99),
                us(h.max)
            );
        }
        let _ = writeln!(out, "\nCounters:");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
        out
    }
}

/// Full evaluation report.
#[derive(Debug, Clone)]
pub struct Report {
    pub counts: Counts,
    pub results: Vec<QuestionResult>,
    /// Stage-latency percentiles and counters aggregated over the run.
    pub stats: RunStats,
}

/// Aggregated failure breakdown (see [`Report::error_analysis`]).
#[derive(Debug, Clone)]
pub struct ErrorAnalysis {
    pub unanswered_by_stage: Vec<(String, usize)>,
    pub wrong_by_question_word: Vec<(String, usize)>,
}

impl Report {
    /// Writes the full report as JSON (for archiving runs and diffing
    /// configurations), including the observability block.
    pub fn to_json(&self) -> String {
        let results = self
            .results
            .iter()
            .map(|r| {
                Json::obj()
                    .set("id", r.id)
                    .set("text", r.text.as_str())
                    .set("stage", r.stage.as_str())
                    .set("answered", r.answered)
                    .set("correct", r.correct)
                    .set("answer", r.answer.as_str())
                    .set("gold", r.gold.as_str())
                    .set(
                        "query",
                        match &r.query {
                            Some(q) => Json::from(q.as_str()),
                            None => Json::Null,
                        },
                    )
            })
            .collect();
        Json::obj()
            .set("counts", self.counts.to_json())
            .set("observability", self.stats.to_json())
            .set("results", Json::Arr(results))
            .to_pretty()
    }

    /// Error analysis: `(stage, count)` over unanswered questions plus
    /// `(first word, count)` over all answered-wrong questions — the
    /// breakdown behind EXPERIMENTS.md's recall-loss discussion.
    pub fn error_analysis(&self) -> ErrorAnalysis {
        let mut by_stage: Vec<(String, usize)> = Vec::new();
        for r in self.unanswered() {
            match by_stage.iter_mut().find(|(s, _)| s == &r.stage) {
                Some((_, n)) => *n += 1,
                None => by_stage.push((r.stage.clone(), 1)),
            }
        }
        by_stage.sort_by(|(_, a), (_, b)| b.cmp(a));
        let mut wrong_by_word: Vec<(String, usize)> = Vec::new();
        for r in self.wrong() {
            let word = r
                .text
                .split_whitespace()
                .next()
                .unwrap_or("?")
                .to_lowercase();
            match wrong_by_word.iter_mut().find(|(w, _)| w == &word) {
                Some((_, n)) => *n += 1,
                None => wrong_by_word.push((word, 1)),
            }
        }
        wrong_by_word.sort_by(|(_, a), (_, b)| b.cmp(a));
        ErrorAnalysis { unanswered_by_stage: by_stage, wrong_by_question_word: wrong_by_word }
    }

    /// Paper-style Table 2 (plus the strict-accuracy column).
    pub fn table2(&self) -> String {
        let mut out = String::new();
        out.push_str("|  | Precision | Recall | F1 |\n");
        out.push_str("|---|---|---|---|\n");
        out.push_str(&self.counts.table2_row("Our method"));
        out.push('\n');
        out
    }

    /// Questions that were answered but judged wrong (precision losses).
    pub fn wrong(&self) -> Vec<&QuestionResult> {
        self.results.iter().filter(|r| r.answered && !r.correct).collect()
    }

    /// Questions never answered (recall losses), by stage.
    pub fn unanswered(&self) -> Vec<&QuestionResult> {
        self.results.iter().filter(|r| !r.answered).collect()
    }
}

/// Judges a produced answer against the gold answer set.
///
/// Term answers must match the gold set exactly (order-insensitive);
/// boolean answers must match the gold boolean.
pub fn judge(value: &AnswerValue, gold: &[Term]) -> bool {
    match value {
        AnswerValue::Boolean(b) => {
            gold.len() == 1
                && gold[0]
                    .as_literal()
                    .is_some_and(|l| l.lexical_form() == if *b { "true" } else { "false" })
        }
        AnswerValue::Terms(terms) => {
            !gold.is_empty()
                && terms.len() == gold.len()
                && gold.iter().all(|g| terms.contains(g))
        }
    }
}

fn render_terms(kb: &KnowledgeBase, terms: &[Term]) -> String {
    terms
        .iter()
        .map(|t| match t {
            Term::Iri(iri) => kb.label_of(iri).unwrap_or(iri.local_name()).to_string(),
            Term::Literal(l) => l.lexical_form().to_string(),
            other => other.to_string(),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The per-question trace counters every run reports, in render order,
/// summed from each response's trace.
const TRACE_COUNTERS: [&str; 11] = [
    "queries.built",
    "queries.executed",
    "queries.survived",
    "queries.failed",
    "qa.plan.expanded",
    "qa.plan.pruned",
    "qa.plan.emitted",
    "patterns.phrase_hits",
    "patterns.phrase_misses",
    "patterns.word_hits",
    "patterns.word_misses",
];

/// Records one response trace into a run-local registry: per-stage latency
/// histograms plus the `queries.*`, `qa.plan.*` and trace-attributed
/// `patterns.*` counters. `stage_order` accumulates the first-seen
/// histogram order for rendering.
fn record_trace(
    local: &MetricsRegistry,
    stage_order: &mut Vec<String>,
    trace: &relpat_obs::QuestionTrace,
) {
    for s in &trace.stages {
        let key = format!("stage.{}", s.name);
        if !stage_order.contains(&key) {
            stage_order.push(key.clone());
        }
        local.histogram(&key).record(s.nanos);
    }
    let total_key = "stage.total".to_string();
    if !stage_order.contains(&total_key) {
        stage_order.push(total_key.clone());
    }
    local.histogram(&total_key).record(trace.total_nanos());
    local.counter("queries.built").add(trace.queries_built);
    local.counter("queries.executed").add(trace.queries_executed);
    local.counter("queries.survived").add(trace.queries_survived);
    local.counter("queries.failed").add(trace.queries_failed);
    local.counter("qa.plan.expanded").add(trace.plan_expanded);
    local.counter("qa.plan.pruned").add(trace.plan_pruned);
    local.counter("qa.plan.emitted").add(trace.plan_emitted);
    local.counter("patterns.phrase_hits").add(trace.pattern_lookups.phrase_hits);
    local.counter("patterns.phrase_misses").add(trace.pattern_lookups.phrase_misses);
    local.counter("patterns.word_hits").add(trace.pattern_lookups.word_hits);
    local.counter("patterns.word_misses").add(trace.pattern_lookups.word_misses);
}

/// Judges one response against a question's gold answers.
fn judge_question(
    kb: &KnowledgeBase,
    q: &QaldQuestion,
    response: &relpat_qa::Response,
) -> QuestionResult {
    let gold = q.gold_answers(kb);
    let (is_answered, is_correct, answer_text, query) = match (&response.answer, response.stage) {
        (Some(ans), Stage::Answered) => {
            let ok = judge(&ans.value, &gold);
            let text = match &ans.value {
                AnswerValue::Terms(ts) => render_terms(kb, ts),
                AnswerValue::Boolean(b) => b.to_string(),
            };
            (true, ok, text, Some(ans.sparql.clone()))
        }
        _ => (false, false, String::new(), None),
    };
    QuestionResult {
        id: q.id,
        text: q.text.clone(),
        stage: format!("{:?}", response.stage),
        answered: is_answered,
        correct: is_correct,
        answer: answer_text,
        gold: render_terms(kb, &gold),
        query,
    }
}

/// Join-operator totals (`sparql.join.*`) sampled from the process-global
/// registry. Like `planner.misestimates`, these are attributed to a run by
/// a before/after delta — the executor bumps one of the three per join
/// step, so the split shows how often the sorted operators actually fired.
#[derive(Debug, Clone, Copy, Default)]
struct JoinCounters {
    merge: u64,
    gallop: u64,
    nested: u64,
}

impl JoinCounters {
    fn sample() -> Self {
        let global = relpat_obs::global();
        JoinCounters {
            merge: global.counter_value("sparql.join.merge"),
            gallop: global.counter_value("sparql.join.gallop"),
            nested: global.counter_value("sparql.join.nested"),
        }
    }

    fn delta_since(self, before: JoinCounters) -> JoinCounters {
        JoinCounters {
            merge: self.merge.saturating_sub(before.merge),
            gallop: self.gallop.saturating_sub(before.gallop),
            nested: self.nested.saturating_sub(before.nested),
        }
    }
}

/// Runs the pipeline over the evaluated (non-excluded) questions, one at a
/// time, aggregating each question's trace into the report's `RunStats`.
///
/// Trace aggregates go into a run-local registry, so several benchmarks in
/// one process never mix their `queries.*`/`patterns.*` counters or stage
/// histograms. The KB-level counters (`sparql.cache.*`, `map.index.*`) are
/// before/after deltas of this pipeline's KB. The process-global counters
/// (`planner.misestimates` — join steps whose actual scan cost blew past
/// the planner's score; `sparql.join.*`; `prof.*`, the sampling profiler's
/// samples/dropped) are before/after deltas too, so concurrent activity
/// elsewhere in the process can bleed into them; within `relpat-eval` and
/// the CLIs nothing else executes queries while a benchmark runs.
pub fn run_benchmark(pipeline: &Pipeline<'_>, questions: &[QaldQuestion]) -> Report {
    let kb = pipeline.kb();
    let evaluated = evaluated_subset(questions);
    let cache_before = kb.cache_stats();
    let index_before = kb.lexical().lookup_stats();
    let misestimates_before = relpat_obs::global().counter_value("planner.misestimates");
    let joins_before = JoinCounters::sample();
    let prof_before = relpat_obs::profiler().counters();

    let local = MetricsRegistry::new();
    let mut stage_order: Vec<String> = Vec::new();
    let mut results = Vec::with_capacity(evaluated.len());
    for q in &evaluated {
        let response = pipeline.answer(&q.text);
        record_trace(&local, &mut stage_order, &response.trace);
        results.push(judge_question(kb, q, &response));
    }

    let cache = kb.cache_stats().delta_since(&cache_before);
    let index = kb.lexical().lookup_stats().delta_since(&index_before);
    let misestimates = relpat_obs::global()
        .counter_value("planner.misestimates")
        .saturating_sub(misestimates_before);
    let joins = JoinCounters::sample().delta_since(joins_before);
    let (samples, dropped) = relpat_obs::profiler().counters();

    let answered = results.iter().filter(|r| r.answered).count();
    let correct = results.iter().filter(|r| r.correct).count();
    let mut counters: Vec<(String, u64)> = TRACE_COUNTERS
        .iter()
        .map(|name| (name.to_string(), local.counter_value(name)))
        .collect();
    counters.extend(
        [
            ("sparql.cache.hits", cache.hits),
            ("sparql.cache.misses", cache.misses),
            ("planner.misestimates", misestimates),
            ("sparql.join.merge", joins.merge),
            ("sparql.join.gallop", joins.gallop),
            ("sparql.join.nested", joins.nested),
            ("map.index.probed", index.probed),
            ("map.index.pruned", index.pruned),
            ("map.index.scored", index.scored),
            ("prof.samples", samples.saturating_sub(prof_before.0)),
            ("prof.dropped", dropped.saturating_sub(prof_before.1)),
        ]
        .map(|(name, value)| (name.to_string(), value)),
    );
    let stats = RunStats {
        stage_latencies: stage_order.iter().map(|key| local.histogram(key).summary()).collect(),
        counters,
    };
    Report { counts: Counts::new(results.len(), answered, correct), results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relpat_kb::{generate, qald_questions, KbConfig};
    use relpat_rdf::Literal;
    use std::sync::OnceLock;

    fn report() -> &'static Report {
        static KB: OnceLock<KnowledgeBase> = OnceLock::new();
        static R: OnceLock<Report> = OnceLock::new();
        R.get_or_init(|| {
            let kb = KB.get_or_init(|| generate(&KbConfig::tiny()));
            let pipeline = Pipeline::new(kb);
            let questions = qald_questions(kb);
            run_benchmark(&pipeline, &questions)
        })
    }

    #[test]
    fn judge_boolean() {
        let t = Term::Literal(Literal::boolean(true));
        let f = Term::Literal(Literal::boolean(false));
        assert!(judge(&AnswerValue::Boolean(true), std::slice::from_ref(&t)));
        assert!(!judge(&AnswerValue::Boolean(true), std::slice::from_ref(&f)));
        assert!(judge(&AnswerValue::Boolean(false), std::slice::from_ref(&f)));
        assert!(!judge(&AnswerValue::Boolean(true), &[]));
    }

    #[test]
    fn judge_terms_set_equality() {
        let a = Term::iri("http://e/a");
        let b = Term::iri("http://e/b");
        let answer = AnswerValue::Terms(vec![b.clone(), a.clone()]);
        assert!(judge(&answer, &[a.clone(), b.clone()]));
        assert!(!judge(&answer, std::slice::from_ref(&a)));
        assert!(!judge(&AnswerValue::Terms(vec![a.clone()]), &[a, b]));
        assert!(!judge(&AnswerValue::Terms(vec![]), &[]));
    }

    #[test]
    fn benchmark_covers_all_55_questions() {
        let r = report();
        assert_eq!(r.counts.total, 55);
        assert_eq!(r.results.len(), 55);
    }

    #[test]
    fn shape_matches_paper_high_precision_low_recall() {
        let r = report();
        let p = r.counts.precision();
        let rec = r.counts.recall();
        assert!(
            r.counts.answered >= 12 && r.counts.answered <= 30,
            "answered {} of 55",
            r.counts.answered
        );
        assert!(p >= 0.70, "precision {p:.2} too low: wrong = {:#?}", r.wrong());
        assert!((0.2..=0.55).contains(&rec), "recall {rec:.2} out of band");
        assert!(p > rec, "paper shape requires precision >> recall");
    }

    #[test]
    fn figure1_question_is_correct() {
        let r = report();
        let q1 = r.results.iter().find(|r| r.id == 1).unwrap();
        assert!(q1.answered, "stage: {}", q1.stage);
        assert!(q1.correct, "answer: {} gold: {}", q1.answer, q1.gold);
    }

    #[test]
    fn alive_question_is_unanswered() {
        let r = report();
        let q = r.results.iter().find(|r| r.text.contains("still alive")).unwrap();
        assert!(!q.answered);
    }

    #[test]
    fn report_accessors_partition_results() {
        let r = report();
        let wrong = r.wrong().len();
        let un = r.unanswered().len();
        assert_eq!(r.counts.answered - r.counts.correct, wrong);
        assert_eq!(r.counts.total - r.counts.answered, un);
    }

    #[test]
    fn table2_renders() {
        let r = report();
        let t = r.table2();
        assert!(t.contains("Precision"));
        assert!(t.contains("Our method"));
    }

    #[test]
    fn error_analysis_accounts_for_every_failure() {
        let r = report();
        let ea = r.error_analysis();
        let unanswered: usize = ea.unanswered_by_stage.iter().map(|(_, n)| n).sum();
        assert_eq!(unanswered, r.unanswered().len());
        let wrong: usize = ea.wrong_by_question_word.iter().map(|(_, n)| n).sum();
        assert_eq!(wrong, r.wrong().len());
        // Counts sorted descending.
        for w in ea.unanswered_by_stage.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn json_round_trips_counts() {
        let r = report();
        let json = r.to_json();
        let value = Json::parse(&json).unwrap();
        assert_eq!(
            value.get("counts").and_then(|c| c.get("total")).and_then(Json::as_u64).unwrap()
                as usize,
            r.counts.total
        );
        assert_eq!(
            value.get("results").and_then(Json::as_array).unwrap().len(),
            r.results.len()
        );
    }

    #[test]
    fn report_serializes_to_json() {
        let r = report();
        let json = r.to_json();
        assert!(json.contains("\"counts\""));
        assert!(json.contains("\"observability\""));
    }

    #[test]
    fn report_surfaces_lexical_index_counters() {
        let r = report();
        let probed = r.stats.counter("map.index.probed");
        let pruned = r.stats.counter("map.index.pruned");
        let scored = r.stats.counter("map.index.scored");
        assert!(probed > 0, "mapping never consulted the lexical index");
        assert!(probed >= pruned, "pruned {pruned} > probed {probed}");
        assert!(scored > 0, "index pruned every candidate");
        let value = Json::parse(&r.to_json()).unwrap();
        let counters = value.get("observability").and_then(|o| o.get("counters")).unwrap();
        assert_eq!(counters.get("map.index.probed").and_then(Json::as_u64), Some(probed));
    }

    #[test]
    fn report_surfaces_planner_misestimates() {
        let r = report();
        // The tiny KB's scans are small enough that the 64-row floor keeps
        // the detector quiet; what matters is that the counter is present
        // and flows into the JSON view.
        let value = Json::parse(&r.to_json()).unwrap();
        let counters = value.get("observability").and_then(|o| o.get("counters")).unwrap();
        assert_eq!(
            counters.get("planner.misestimates").and_then(Json::as_u64),
            Some(r.stats.counter("planner.misestimates"))
        );
        assert!(r.stats.render().contains("planner.misestimates"));
    }

    #[test]
    fn report_surfaces_join_operator_split() {
        let r = report();
        // Every BGP step bumps exactly one of the three operators; the run
        // executes plenty of queries, and its two-pattern joins (type +
        // property) ride the sorted-merge path on the KB.
        let (merge, gallop, nested) = (
            r.stats.counter("sparql.join.merge"),
            r.stats.counter("sparql.join.gallop"),
            r.stats.counter("sparql.join.nested"),
        );
        assert!(nested > 0, "first steps always scan nested");
        assert!(merge > 0, "no query took the sort-merge path");
        let value = Json::parse(&r.to_json()).unwrap();
        let counters = value.get("observability").and_then(|o| o.get("counters")).unwrap();
        assert_eq!(counters.get("sparql.join.merge").and_then(Json::as_u64), Some(merge));
        assert_eq!(counters.get("sparql.join.gallop").and_then(Json::as_u64), Some(gallop));
        assert_eq!(counters.get("sparql.join.nested").and_then(Json::as_u64), Some(nested));
        assert!(r.stats.render().contains("sparql.join.merge"));
    }

    #[test]
    fn early_termination_cuts_executed_below_built() {
        // With ranked early termination (the default), a full QALD run must
        // send measurably fewer queries than it builds.
        let r = report();
        let built = r.stats.counter("queries.built");
        let executed = r.stats.counter("queries.executed");
        assert!(built > 0);
        assert!(
            executed < built,
            "early termination should skip queries: executed {executed} >= built {built}"
        );
    }

    #[test]
    fn report_surfaces_stage_latencies_and_counters() {
        let r = report();
        // Every question was traced, so each stage histogram holds at least
        // one sample and p50 <= p99.
        let total = r.stats.stage("stage.total").expect("total stage present");
        assert_eq!(total.count as usize, r.counts.total);
        assert!(total.p50 > 0, "zero p50 latency");
        assert!(total.p50 <= total.p90 && total.p90 <= total.p99);
        let extract = r.stats.stage("stage.extract").expect("extract stage present");
        assert_eq!(extract.count as usize, r.counts.total);
        // The benchmark executes queries and hits the pattern store.
        assert!(r.stats.counter("queries.built") > 0);
        assert!(r.stats.counter("queries.executed") > 0);
        assert!(
            r.stats.counter("patterns.phrase_hits") + r.stats.counter("patterns.word_hits") > 0
        );
        // The JSON view carries the same numbers.
        let value = Json::parse(&r.to_json()).unwrap();
        let obs = value.get("observability").unwrap();
        assert_eq!(
            obs.get("counters")
                .and_then(|c| c.get("queries.built"))
                .and_then(Json::as_u64)
                .unwrap(),
            r.stats.counter("queries.built")
        );
        let stages = obs.get("stage_latency_ns").and_then(Json::as_array).unwrap();
        assert!(stages.iter().any(|s| s.get("name").and_then(Json::as_str)
            == Some("stage.total")));
        // Text rendering contains the percentile table.
        let text = r.stats.render();
        assert!(text.contains("p99"));
        assert!(text.contains("queries.built"));
    }
}

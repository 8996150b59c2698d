//! The in-process workloads: `qald_paper`, `templated_100k` and
//! `sparql_1m`. Each calls the system's public API in a closed loop with one
//! client; the traced variants replay the same operations stage by stage
//! inside spans.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use relpat_eval::judge;
use relpat_kb::{evaluated_subset, generate, qald_questions, KbConfig, KnowledgeBase};
use relpat_obs::Rng;
use relpat_qa::{
    build_queries_planned, extract, extract_answer_traced, similar_property_pairs, AnswerValue,
    Mapper, Pipeline, PipelineConfig, Stage,
};
use relpat_sparql::{PlanTrace, QueryResult};

use crate::gen::{self, StoreQuery};
use crate::report::{Layers, Outcome};
use crate::spans::{both_ways, self_time_by_name, Tracer};
use crate::stats::{geomean, mean, percentile, ratio, sorted, Histogram};
use crate::{alloc, Args};

/// Table 2 of the paper: evaluated, answered, correct.
const TABLE2: (usize, usize, usize) = (55, 21, 20);
/// Store queries per `sparql_1m` run (100 blocks of the eight shapes),
/// cycled if the loop gets through them all.
const STORE_QUERIES: usize = 800;

/// What a question came back with, reduced to the parts a check compares.
type Reply = (Stage, Option<AnswerValue>);

fn reply(r: relpat_qa::Response) -> Reply {
    (r.stage, r.answer.map(|a| a.value))
}

/// Builds the KB (and, for question workloads, the pipeline) `reps` times,
/// timing each build from its start until an operation can be served.
/// Returns the last KB with the build times; `with_pipeline` adds the
/// pipeline construction to every timed build but the last, whose pipeline
/// the caller builds (and times) itself because it borrows the KB.
fn build_kb(factor: usize, reps: usize, with_pipeline: bool) -> (KnowledgeBase, Vec<f64>, f64) {
    let mut times = Vec::new();
    for _ in 1..reps {
        let start = Instant::now();
        let kb = generate(&KbConfig::scaled(factor));
        if with_pipeline {
            black_box(Pipeline::new(&kb));
        }
        times.push(start.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let kb = generate(&KbConfig::scaled(factor));
    let gen_s = start.elapsed().as_secs_f64();
    (kb, times, gen_s)
}

/// The pipeline stages replayed from outside, one span per public call.
struct Replay<'a> {
    pipeline: &'a Pipeline<'a>,
    mapper: Mapper<'a>,
}

struct ReplayStats {
    parse_ns: u64,
    plan_expanded: u64,
    executed: u64,
    survived: u64,
}

impl<'a> Replay<'a> {
    fn new(
        pipeline: &'a Pipeline<'a>,
        similar: &'a relpat_obs::fx::FxHashMap<String, Vec<(String, f64)>>,
    ) -> Self {
        let mapper = Mapper {
            kb: pipeline.kb(),
            wordnet: relpat_wordnet::embedded(),
            patterns: pipeline.patterns(),
            similar_pairs: similar,
            config: pipeline.config().mapping.clone(),
        };
        Replay { pipeline, mapper }
    }

    /// parse_sentence → extract → Mapper::map → build_queries_planned →
    /// extract_answer_traced, each in its own span under `qa.replay`.
    fn run(&self, t: &mut Tracer, question: &str) -> (Reply, ReplayStats) {
        let kb = self.pipeline.kb();
        let config = self.pipeline.config();
        let mut stats = ReplayStats {
            parse_ns: 0,
            plan_expanded: 0,
            executed: 0,
            survived: 0,
        };
        let root = t.enter("qa.replay");
        let span = t.enter("nlp.parse");
        let graph = relpat_nlp::parse_sentence(question);
        stats.parse_ns = t.exit(span);
        let out = (|| {
            let Some(analysis) = t.span("qa.extract", || extract(&graph)) else {
                return (Stage::ExtractionFailed, None);
            };
            let Some(mapped) = t.span("qa.map", || self.mapper.map(&analysis)) else {
                return (Stage::MappingFailed, None);
            };
            let (queries, plan) = t.span("qa.build", || {
                build_queries_planned(
                    kb,
                    &analysis,
                    &mapped,
                    config.max_queries.max(1),
                    config.planner,
                )
            });
            stats.plan_expanded = plan.expanded;
            if queries.is_empty() {
                return (Stage::MappingFailed, None);
            }
            let (answer, exec) = t.span("qa.answer", || {
                extract_answer_traced(
                    kb,
                    analysis.expected,
                    analysis.ask,
                    &queries,
                    &config.answer,
                )
            });
            stats.executed = exec.executed;
            stats.survived = exec.survived;
            match answer {
                Some(a) => (Stage::Answered, Some(a.value)),
                None => (Stage::NoAnswer, None),
            }
        })();
        t.exit(root);
        (out, stats)
    }
}

/// A question workload's operations: the question texts in the order the
/// closed loop sends them (cycled), and what each reply is checked against.
struct Questions {
    texts: Vec<String>,
    /// The reply each question got in the pass before the timed loop.
    reference: Vec<Reply>,
    /// Questions whose reference answer is wrong against their gold
    /// answers (templated questions only).
    wrong: Vec<bool>,
}

impl Questions {
    fn text(&self, i: usize) -> &str {
        &self.texts[i % self.texts.len()]
    }

    /// Checks the reply to operation `i`: one that differs from the
    /// reference, or a wrong answer, is a failed operation; an unanswered
    /// question only lowers the answered share, judged before the loop.
    fn check(&self, i: usize, r: &Reply) -> bool {
        let k = i % self.texts.len();
        r == &self.reference[k] && !self.wrong[k]
    }
}

pub fn run_questions(args: &Args, out: &mut Outcome) {
    let templated = args.workload == "templated_100k";
    let (factor, reps) = if templated { (12, 2) } else { (1, 5) };
    let (kb, mut setup, gen_s) = build_kb(factor, reps, true);

    // Setup of the instance under test; the traced run splits it by layer.
    let mut similar = Default::default();
    let start = Instant::now();
    let pipeline = if args.trace {
        let t = Instant::now();
        let mined = relpat_patterns::mine(&kb, &relpat_patterns::CorpusConfig::default());
        out.layer("patterns.mine_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        similar = similar_property_pairs(&kb, relpat_wordnet::embedded());
        out.layer("wordnet.similar_pairs_s", t.elapsed().as_secs_f64());
        out.layer("kb.generate_s", gen_s);
        Pipeline::with_pattern_store(&kb, mined.store, PipelineConfig::standard())
    } else {
        Pipeline::new(&kb)
    };
    setup.push(gen_s + start.elapsed().as_secs_f64());
    out.setup(&setup);
    out.provenance_kb(factor, &kb);

    // Quality is judged outside the timed loop: the paper's Table 2 for
    // the QALD questions, every question of the pool for templated ones.
    let mut rng = Rng::seed_from_u64(args.seed);
    let (questions, answered, correct) = if templated {
        let mut pool = gen::templated_pool(&kb);
        gen::shuffle(&mut pool, &mut rng);
        templated_reference(&kb, &pipeline, pool, out)
    } else {
        let qald = qald_questions(&kb);
        table2_check(&kb, &pipeline, &qald, out);
        let mut order: Vec<usize> = (0..qald.len()).collect();
        gen::shuffle(&mut order, &mut rng);
        let texts: Vec<String> = order.iter().map(|&i| qald[i].text.clone()).collect();
        let reference = texts.iter().map(|q| reply(pipeline.answer(q))).collect();
        let wrong = vec![false; texts.len()];
        let (_, a, c) = out.table2;
        (
            Questions {
                texts,
                reference,
                wrong,
            },
            a as f64 / TABLE2.0 as f64,
            c as f64 / TABLE2.0 as f64,
        )
    };

    let cache0 = kb.cache_stats();
    let index0 = kb.lexical().lookup_stats();
    let (mut ops, mut failed) = (0u64, 0u64);
    let (hist, elapsed) = closed_loop(args.seconds, |i| {
        let q = questions.text(i);
        let start = Instant::now();
        let r = pipeline.answer(q);
        let d = start.elapsed();
        ops += 1;
        failed += u64::from(!questions.check(i, &reply(r)));
        d
    });
    let cache = kb.cache_stats().delta_since(&cache0);
    let index = kb.lexical().lookup_stats().delta_since(&index0);
    out.latencies(&hist, elapsed);
    out.quality(ops, failed, answered, correct);
    let n = ops as f64;

    if args.trace {
        // The query cache's hits and misses over the untraced loop.
        let mut layers = Layers::default();
        layers.set("kb.cache_hits", cache.hits as f64);
        layers.set("kb.cache_misses", cache.misses as f64);
        layers.set(
            "kb.cache_hit_ratio",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        );
        layers.set(
            "qa.map.index_prune_ratio",
            ratio(index.pruned as f64, index.probed as f64),
        );
        layers.set("qa.map.index_probed_per_q", index.probed as f64 / n);
        traced_questions(args, &pipeline, &similar, &questions, &mut layers, out);
        out.layers(layers);
    }
}

/// Answers every templated question once, outside the timed loop. The
/// replies are the timed loop's reference; the quality ratios are judged
/// over the whole pool, each answer against its shape's gold query.
/// Returns the questions with the answered and correct shares.
fn templated_reference(
    kb: &KnowledgeBase,
    pipeline: &Pipeline<'_>,
    pool: Vec<gen::Templated>,
    out: &mut Outcome,
) -> (Questions, f64, f64) {
    // Per shape: (asked, answered, correct).
    let mut shapes: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    let mut reference = Vec::with_capacity(pool.len());
    let mut wrong = Vec::with_capacity(pool.len());
    for t in &pool {
        let r = reply(pipeline.answer(&t.text));
        let shape = shapes.entry(t.shape).or_default();
        shape.0 += 1;
        let mut bad = false;
        if let (Stage::Answered, Some(v)) = &r {
            let ok = judge(v, &gen::gold_terms(kb, &t.gold));
            shape.1 += 1;
            shape.2 += u64::from(ok);
            bad = !ok;
        }
        reference.push(r);
        wrong.push(bad);
    }
    let (mut answered, mut correct) = (0, 0);
    for (name, (asked, a, c)) in &shapes {
        out.note(format!(
            "shape {name}: {asked} asked, {a} answered, {c} correct"
        ));
        answered += a;
        correct += c;
    }
    let n = pool.len() as f64;
    out.note(format!("templated pool: {} distinct questions", pool.len()));
    let texts = pool.into_iter().map(|t| t.text).collect();
    (
        Questions {
            texts,
            reference,
            wrong,
        },
        answered as f64 / n,
        correct as f64 / n,
    )
}

/// Checks Table 2 exactly: 55 evaluated, 21 answered, 20 correct.
fn table2_check(
    kb: &KnowledgeBase,
    pipeline: &Pipeline<'_>,
    qald: &[relpat_kb::QaldQuestion],
    out: &mut Outcome,
) {
    let evaluated = evaluated_subset(qald);
    let (mut answered, mut correct) = (0, 0);
    for q in &evaluated {
        let r = pipeline.answer(&q.text);
        if let (Stage::Answered, Some(a)) = (r.stage, &r.answer) {
            answered += 1;
            correct += usize::from(judge(&a.value, &q.gold_answers(kb)));
        }
    }
    out.table2 = (evaluated.len(), answered, correct);
    if out.table2 != TABLE2 {
        out.fail_check(format!("Table 2 is {:?}, expected {TABLE2:?}", out.table2));
    }
}

fn traced_questions(
    args: &Args,
    pipeline: &Pipeline<'_>,
    similar: &relpat_obs::fx::FxHashMap<String, Vec<(String, f64)>>,
    questions: &Questions,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let replay = Replay::new(pipeline, similar);
    let mut t = Tracer::default();
    let mut residual_ns = Vec::new();
    let (mut allocs, mut bytes) = (0u64, 0u64);
    let (mut expanded, mut executed, mut survived) = (0u64, 0u64, 0u64);
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let mut matched = 0u64;
    closed_loop(args.seconds, |i| {
        let q = questions.text(i);
        t.begin_request();
        let (replayed, stats) = replay.run(&mut t, q);
        let (response, in_span, u, s) = both_ways(&mut t, i, "qa.pipeline", || pipeline.answer(q));
        untraced_ns += u;
        traced_ns += s;
        // The pipeline records its four stages but not the parse, which
        // the replay timed for the same question.
        let staged_ns = response.trace.total_nanos() + stats.parse_ns;
        residual_ns.push(u as f64 - staged_ns as f64);
        // Counted on a call of its own, so no span bookkeeping is counted.
        let (_, a, b) = alloc::count(|| pipeline.answer(q));
        allocs += a;
        bytes += b;
        expanded += stats.plan_expanded;
        executed += stats.executed;
        survived += stats.survived;
        matched += u64::from(reply(response) == replayed && reply(in_span) == replayed);
        Duration::ZERO
    });
    let by_name = self_time_by_name(t.spans());
    let n = by_name.get("qa.replay").map_or(0, |e| e.0) as f64;
    let per_q_us = |name: &str| by_name.get(name).map_or(0.0, |e| e.1 as f64 / 1e3 / n);
    for (layer, span) in [
        ("nlp.parse_us", "nlp.parse"),
        ("qa.extract_us", "qa.extract"),
        ("qa.map_us", "qa.map"),
        ("qa.build_us", "qa.build"),
        ("qa.answer_us", "qa.answer"),
    ] {
        layers.set(layer, per_q_us(span));
    }
    layers.set("qa.pipeline_residual_us", mean(&residual_ns) / 1e3);
    layers.set("qa.allocs_per_q", allocs as f64 / n);
    layers.set("qa.alloc_bytes_per_q", bytes as f64 / n);
    layers.set("qa.plan.expanded_per_q", expanded as f64 / n);
    layers.set("qa.queries_executed_per_q", executed as f64 / n);
    layers.set(
        "qa.exec_useful_ratio",
        ratio(survived as f64, executed as f64),
    );
    layers.set(
        "obs.trace_overhead_ratio",
        ratio(untraced_ns as f64, traced_ns as f64),
    );
    decomposition(matched, n, layers, out);
}

fn decomposition(matched: u64, n: f64, layers: &mut Layers, out: &mut Outcome) {
    layers.set("trace.decomposition_ok", ratio(matched as f64, n));
    if matched as f64 != n {
        out.fail_check(format!(
            "per-layer split invalid: replay matched the system on {matched} of {n} operations"
        ));
    }
}

/// Runs `op(0), op(1), …` back to back for `seconds`; `op` returns the
/// duration of the call it timed. Returns those durations and the loop's
/// wall time in seconds.
fn closed_loop(seconds: f64, mut op: impl FnMut(usize) -> Duration) -> (Histogram, f64) {
    let start = Instant::now();
    let mut hist = Histogram::default();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        hist.record(op(i).as_nanos() as u64);
        i += 1;
    }
    (hist, start.elapsed().as_secs_f64())
}

/// Compares two results as bags of rows: the oracle may emit rows in
/// another order, which SPARQL without ORDER BY allows.
fn same_result(a: &QueryResult, b: &QueryResult) -> bool {
    match (a, b) {
        (QueryResult::Boolean(x), QueryResult::Boolean(y)) => x == y,
        (QueryResult::Solutions(x), QueryResult::Solutions(y)) => {
            if x.variables != y.variables || x.rows.len() != y.rows.len() {
                return false;
            }
            let key = |rows: &[Vec<Option<relpat_rdf::Term>>]| {
                let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
                v.sort_unstable();
                v
            };
            x.rows == y.rows || key(&x.rows) == key(&y.rows)
        }
        _ => false,
    }
}

fn non_empty(r: &QueryResult) -> bool {
    match r {
        QueryResult::Boolean(b) => *b,
        QueryResult::Solutions(s) => !s.rows.is_empty(),
    }
}

/// What the oracle pass found for one distinct store query.
struct Verdict {
    /// The system's result equals the nested-loop oracle's.
    agrees: bool,
    non_empty: bool,
    /// Rows (1 for ASK): the timed loop checks every result against it.
    size: usize,
}

fn result_size(r: &QueryResult) -> usize {
    match r {
        QueryResult::Boolean(_) => 1,
        QueryResult::Solutions(s) => s.rows.len(),
    }
}

pub fn run_store(args: &Args, out: &mut Outcome) {
    let factor = 119;
    let (kb, mut setup, gen_s) = build_kb(factor, 3, false);
    setup.push(gen_s);
    out.setup(&setup);
    out.provenance_kb(factor, &kb);
    if args.trace {
        out.layer("kb.generate_s", gen_s);
    }

    let pools = gen::StorePools::new(&kb);
    let stream = gen::store_queries(&pools, &mut Rng::seed_from_u64(args.seed), STORE_QUERIES);

    // Oracle check, once per distinct query, outside the timed loop; the
    // quality ratios are judged over the whole stream from it.
    let mut verdicts: HashMap<&str, Verdict> = HashMap::new();
    for q in &stream {
        verdicts.entry(&q.text).or_insert_with(|| {
            match (
                kb.query_uncached(&q.text),
                relpat_sparql::query_nested(&kb.graph, &q.text),
            ) {
                (Ok(fast), Ok(oracle)) => Verdict {
                    agrees: same_result(&fast, &oracle),
                    non_empty: non_empty(&fast),
                    size: result_size(&fast),
                },
                _ => Verdict {
                    agrees: false,
                    non_empty: false,
                    size: 0,
                },
            }
        });
    }
    let wrong = verdicts.values().filter(|v| !v.agrees).count();
    if wrong > 0 {
        out.fail_check(format!(
            "{wrong} store queries disagree with the nested-loop oracle"
        ));
    }
    out.note(format!(
        "{} distinct of {} store queries",
        verdicts.len(),
        stream.len()
    ));
    let share = |f: fn(&Verdict) -> bool| {
        stream
            .iter()
            .filter(|q| f(&verdicts[q.text.as_str()]))
            .count() as f64
            / stream.len() as f64
    };
    let (answered, correct) = (share(|v| v.non_empty), share(|v| v.agrees));

    // Every query runs past the query cache: the fan-out shapes have no
    // constants, so through the cache they would be answered from memory.
    let (mut ops, mut failed) = (0u64, 0u64);
    let mut by_shape: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (hist, elapsed) = closed_loop(args.seconds, |i| {
        let q: &StoreQuery = &stream[i % stream.len()];
        let start = Instant::now();
        let r = kb.query_uncached(&q.text);
        let d = start.elapsed();
        let v = &verdicts[q.text.as_str()];
        ops += 1;
        failed += u64::from(!v.agrees || r.map_or(true, |r| result_size(&r) != v.size));
        by_shape
            .entry(q.shape)
            .or_default()
            .push(d.as_secs_f64() * 1e6);
        d
    });
    out.latencies(&hist, elapsed);
    // Each shape is an eighth of the stream, so the median over all
    // operations sits on the boundary between the fourth and fifth
    // cheapest shapes and jumps between them from run to run. The reported
    // median is the geometric mean of the per-shape medians instead.
    let shape_p50: Vec<f64> = by_shape
        .iter()
        .map(|(shape, us)| {
            let p50 = percentile(&sorted(us), 50.0);
            out.extra(format!("shape_{shape}_p50_us"), p50, "us");
            p50
        })
        .collect();
    out.extra("latency_p50_all_us", hist.percentile(50.0) / 1e3, "us");
    out.set("latency_p50_us", geomean(&shape_p50));
    out.quality(ops, failed, answered, correct);

    if args.trace {
        let mut layers = Layers::default();
        traced_store(args, &kb, &stream, &mut layers, out);
        out.layers(layers);
    }
}

fn traced_store(
    args: &Args,
    kb: &KnowledgeBase,
    stream: &[StoreQuery],
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let mut t = Tracer::default();
    let (mut join_ns, mut materialize_ns, mut scanned, mut cells) = (0u64, 0u64, 0u64, 0u64);
    let (mut merge, mut gallop, mut nested) = (0u64, 0u64, 0u64);
    let (mut allocs, mut bytes, mut matched) = (0u64, 0u64, 0u64);
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    closed_loop(args.seconds, |i| {
        let text = &stream[i % stream.len()].text;
        t.begin_request();
        let root = t.enter("sparql.query");
        let parsed = t
            .span("sparql.parse", || relpat_sparql::parse_query(text))
            .expect("parses");
        let plan_span = t.enter("sparql.plan");
        black_box(relpat_sparql::algebra::lower(&kb.graph, &parsed, None));
        let plan_ns = t.exit(plan_span);
        let exec_span = t.enter("sparql.execute");
        let (result, trace): (QueryResult, PlanTrace) =
            relpat_sparql::execute_traced(&kb.graph, &parsed).expect("executes");
        let exec_ns = t.exit(exec_span);
        t.exit(root);
        let steps_ns: u64 = trace.steps.iter().map(|s| s.nanos).sum();
        join_ns += steps_ns;
        materialize_ns += exec_ns.saturating_sub(steps_ns + plan_ns);
        scanned += trace.rows_scanned();
        for s in &trace.steps {
            match s.join_algo {
                relpat_obs::JoinAlgo::Merge => merge += 1,
                relpat_obs::JoinAlgo::Gallop => gallop += 1,
                relpat_obs::JoinAlgo::Nested => nested += 1,
            }
        }
        cells += match &result {
            QueryResult::Boolean(_) => 1,
            QueryResult::Solutions(s) => (s.rows.len() * s.variables.len()) as u64,
        };
        let (system, in_span, u, s) = both_ways(&mut t, i, "kb.query", || kb.query_uncached(text));
        untraced_ns += u;
        traced_ns += s;
        let (_, a, b) = alloc::count(|| kb.query_uncached(text));
        allocs += a;
        bytes += b;
        let same = |r: Result<QueryResult, _>| r.is_ok_and(|r| same_result(&r, &result));
        matched += u64::from(same(system) && same(in_span));
        Duration::ZERO
    });
    let by_name = self_time_by_name(t.spans());
    let n = by_name.get("sparql.query").map_or(0, |e| e.0) as f64;
    let self_us = |name: &str| by_name.get(name).map_or(0.0, |e| e.1 as f64 / 1e3 / n);
    layers.set("sparql.parse_us", self_us("sparql.parse"));
    layers.set("sparql.plan_us", self_us("sparql.plan"));
    layers.set("sparql.join_us", join_ns as f64 / 1e3 / n);
    layers.set("sparql.materialize_us", materialize_ns as f64 / 1e3 / n);
    layers.set("sparql.rows_scanned_per_q", scanned as f64 / n);
    layers.set("sparql.cells_out_per_q", cells as f64 / n);
    layers.set("rdf.scan_ns_per_row", ratio(join_ns as f64, scanned as f64));
    layers.set(
        "sparql.materialize_ns_per_cell",
        ratio(materialize_ns as f64, cells as f64),
    );
    let steps = (merge + gallop + nested) as f64;
    layers.set("sparql.join_merge_share", ratio(merge as f64, steps));
    layers.set("sparql.join_gallop_share", ratio(gallop as f64, steps));
    layers.set("sparql.join_nested_share", ratio(nested as f64, steps));
    layers.set("sparql.allocs_per_q", allocs as f64 / n);
    layers.set("sparql.alloc_bytes_per_q", bytes as f64 / n);
    layers.set(
        "obs.trace_overhead_ratio",
        ratio(untraced_ns as f64, traced_ns as f64),
    );
    decomposition(matched, n, layers, out);
}

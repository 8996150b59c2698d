//! Differential equivalence suite for the flat permutation indexes.
//!
//! The [`Graph`] under test keeps three sorted `Vec<[u32; 3]>` permutations
//! built once by a [`GraphBuilder`]; the reference model here is the
//! simplest possible store — one `BTreeSet` of index triples with linear
//! filtering. Seeded random multisets (duplicates included, in random
//! order) feed both, and all eight pattern shapes must agree, `estimate`
//! must equal the exact scan cardinality, `scan_iter` must match the
//! materialized scan, and term ids must follow first-seen order. Sizes run
//! from empty and singleton to well past 4096 entries.

use std::collections::BTreeSet;

use relpat_obs::Rng;
use relpat_rdf::{Graph, GraphBuilder, IdPattern, Term, Triple};

/// Shared entity universe: subjects and objects draw from the same pool so
/// OSP ranges interleave IRIs that also occur as subjects.
const ENTITIES: u32 = 40;
const PREDICATES: u32 = 6;

fn entity(i: u32) -> Term {
    Term::iri(format!("http://t/e{i}"))
}

fn predicate(j: u32) -> Term {
    Term::iri(format!("http://t/p{j}"))
}

fn triple(s: u32, p: u32, o: u32) -> Triple {
    Triple::new(entity(s), predicate(p), entity(o))
}

/// Reference store: index triples, linear filtering, no indexes.
type Model = BTreeSet<(u32, u32, u32)>;

fn model_matching(
    model: &Model,
    s: Option<u32>,
    p: Option<u32>,
    o: Option<u32>,
) -> BTreeSet<Triple> {
    model
        .iter()
        .filter(|&&(ts, tp, to)| {
            s.is_none_or(|v| v == ts) && p.is_none_or(|v| v == tp) && o.is_none_or(|v| v == to)
        })
        .map(|&(ts, tp, to)| triple(ts, tp, to))
        .collect()
}

/// Compares graph and model on all 8 shapes anchored at probe `(s, p, o)`,
/// and checks `estimate`/`scan_iter`/`scan` consistency at the id level.
fn check_probe(g: &Graph, model: &Model, s: u32, p: u32, o: u32) {
    let (st, pt, ot) = (entity(s), predicate(p), entity(o));
    for mask in 0..8u32 {
        let sq = (mask & 1 != 0).then_some(());
        let pq = (mask & 2 != 0).then_some(());
        let oq = (mask & 4 != 0).then_some(());
        let want = model_matching(model, sq.map(|_| s), pq.map(|_| p), oq.map(|_| o));
        let got: BTreeSet<Triple> = g
            .triples_matching(sq.map(|_| &st), pq.map(|_| &pt), oq.map(|_| &ot))
            .into_iter()
            .collect();
        assert_eq!(got, want, "shape {mask:03b} probe ({s},{p},{o})");

        // Id-level checks need every bound term to resolve; a miss means the
        // term occurs nowhere, which the term-level comparison covered.
        let ids = (
            sq.map(|_| g.term_id(&st)),
            pq.map(|_| g.term_id(&pt)),
            oq.map(|_| g.term_id(&ot)),
        );
        let (Some(si), Some(pi), Some(oi)) = (
            ids.0.map_or(Some(None), |id| id.map(Some)),
            ids.1.map_or(Some(None), |id| id.map(Some)),
            ids.2.map_or(Some(None), |id| id.map(Some)),
        ) else {
            continue;
        };
        let pat = IdPattern { subject: si, predicate: pi, object: oi };
        let scanned = g.scan(pat);
        assert_eq!(scanned.len(), want.len(), "scan cardinality, shape {mask:03b}");
        assert_eq!(g.estimate(pat), want.len(), "estimate exactness, shape {mask:03b}");
        let streamed: Vec<_> = g.scan_iter(pat).collect();
        assert_eq!(streamed, scanned, "scan_iter vs scan, shape {mask:03b}");
    }
}

/// Full check: cardinality, whole-graph scan, and probe points drawn both
/// from present triples and from the raw universe (absent positions).
fn checkpoint(g: &Graph, model: &Model, rng: &mut Rng) {
    assert_eq!(g.len(), model.len(), "triple count");
    let all: BTreeSet<Triple> = g.iter().collect();
    let want: BTreeSet<Triple> =
        model.iter().map(|&(s, p, o)| triple(s, p, o)).collect();
    assert_eq!(all, want, "full scan");

    for _ in 0..4 {
        let (s, p, o) = if !model.is_empty() && rng.gen_bool(0.5) {
            let nth = rng.gen_range(0..model.len());
            *model.iter().nth(nth).expect("in range")
        } else {
            (
                rng.gen_range(0..ENTITIES),
                rng.gen_range(0..PREDICATES),
                rng.gen_range(0..ENTITIES),
            )
        };
        check_probe(g, model, s, p, o);
    }
}

/// A random multiset of `n` draws from the universe: with 40 × 6 × 40
/// possible triples, larger draws repeat many of them.
fn random_multiset(rng: &mut Rng, n: usize) -> Vec<(u32, u32, u32)> {
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..ENTITIES),
                rng.gen_range(0..PREDICATES),
                rng.gen_range(0..ENTITIES),
            )
        })
        .collect()
}

/// Builds the graph from `draws` in order and the model from the same
/// draws, then checks the two agree everywhere.
fn build_and_check(draws: &[(u32, u32, u32)], rng: &mut Rng) -> Graph {
    let mut builder = GraphBuilder::new();
    for &(s, p, o) in draws {
        builder.insert(&triple(s, p, o));
    }
    let g = builder.build();
    let model: Model = draws.iter().copied().collect();
    checkpoint(&g, &model, rng);

    // Term ids follow first-seen order across the whole insertion stream.
    let mut first_seen: Vec<Term> = Vec::new();
    for &(s, p, o) in draws {
        for term in [entity(s), predicate(p), entity(o)] {
            if !first_seen.contains(&term) {
                first_seen.push(term);
            }
        }
    }
    let interned: Vec<&Term> = g.interner().iter().map(|(_, t)| t).collect();
    assert_eq!(interned, first_seen.iter().collect::<Vec<_>>(), "first-seen interning");
    g
}

#[test]
fn builder_matches_reference_at_every_size() {
    // Empty, singleton, small, 4096 entries and one past it, and about 6k
    // draws; several seeds each.
    for &n in &[0usize, 1, 2, 50, 1000, 4096, 4097, 6000] {
        for seed in 0..3u64 {
            let mut rng = Rng::seed_from_u64(n as u64 * 31 + seed);
            let draws = random_multiset(&mut rng, n);
            build_and_check(&draws, &mut rng);
        }
    }
}

#[test]
fn builder_is_order_independent_at_the_term_level() {
    // The same multiset in shuffled orders, with every triple repeated:
    // ids differ, but every term-level scan sees the same set.
    let mut rng = Rng::seed_from_u64(77);
    let mut draws = random_multiset(&mut rng, 6000);
    let repeats = draws.clone();
    draws.extend(repeats);
    let reference = build_and_check(&draws, &mut rng);
    let want: BTreeSet<Triple> = reference.iter().collect();
    for _ in 0..3 {
        for i in (1..draws.len()).rev() {
            draws.swap(i, rng.gen_range(0..=i));
        }
        let g = build_and_check(&draws, &mut rng);
        assert_eq!(g.iter().collect::<BTreeSet<Triple>>(), want);
    }
}

#[test]
fn predicates_agree_with_reference() {
    for &n in &[0usize, 1, 10, 800] {
        let mut rng = Rng::seed_from_u64(5150 + n as u64);
        let draws = random_multiset(&mut rng, n);
        let g = build_and_check(&draws, &mut rng);
        let want: BTreeSet<Term> = draws.iter().map(|&(_, p, _)| predicate(p)).collect();
        let got: Vec<Term> = g.predicates();
        assert_eq!(got.len(), want.len(), "predicates are distinct, n = {n}");
        assert_eq!(got.into_iter().collect::<BTreeSet<Term>>(), want, "n = {n}");
    }
}

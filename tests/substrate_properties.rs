//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning the substrates the pipeline composes.
//!
//! Determinism: the vendored proptest runner derives every test's input
//! stream from a fixed workspace seed (`PROPTEST_RNG_SEED` overrides it,
//! `PROPTEST_CASES` overrides the case count), so CI runs are exactly
//! reproducible — a failure report's case index replays by itself.

use giant::mining::qtig::Qtig;
use giant::ontology::{NodeKind, Ontology, Phrase};
use giant::text::Annotator;
use giant::tsp::{held_karp_path, lin_kernighan_path, solve_path, CostMatrix};
use proptest::prelude::*;

fn arb_cost_matrix(n: usize) -> impl Strategy<Value = CostMatrix> {
    proptest::collection::vec(1.0f64..100.0, n * n).prop_map(move |mut v| {
        for i in 0..n {
            v[i * n + i] = 0.0;
        }
        CostMatrix::from_rows(v.chunks(n).map(|c| c.to_vec()).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The heuristic never beats the exact solver, and both return valid
    /// permutations with matching reported costs.
    #[test]
    fn heuristic_dominated_by_exact(costs in arb_cost_matrix(8)) {
        let (exact_cost, exact_path) = held_karp_path(&costs, 0, 7);
        let (heur_cost, heur_path) = lin_kernighan_path(&costs, 0, 7);
        prop_assert!(heur_cost + 1e-9 >= exact_cost);
        for path in [&exact_path, &heur_path] {
            let mut sorted = path.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        }
        prop_assert!((costs.path_cost(&exact_path) - exact_cost).abs() < 1e-9);
        prop_assert!((costs.path_cost(&heur_path) - heur_cost).abs() < 1e-9);
        // The dispatcher agrees with the exact solver in the small regime.
        let (dispatch_cost, _) = solve_path(&costs, 0, 7);
        prop_assert!((dispatch_cost - exact_cost).abs() < 1e-9);
    }

    /// QTIG construction on arbitrary word soup: node/edge invariants.
    #[test]
    fn qtig_invariants(words in proptest::collection::vec("[a-z]{1,8}", 1..24)) {
        let ann = Annotator::default();
        let half = words.len() / 2;
        let q = words[..half.max(1)].join(" ");
        let t = words[half.max(1).min(words.len() - 1)..].join(" ");
        let inputs = vec![ann.annotate(&q), ann.annotate(&t)];
        let g = Qtig::build(&inputs);
        // sos/eos present; every node token unique.
        prop_assert!(g.n_nodes() >= 2);
        let mut tokens: Vec<&str> = g.nodes.iter().map(|n| n.token.as_str()).collect();
        tokens.sort_unstable();
        let before = tokens.len();
        tokens.dedup();
        prop_assert_eq!(tokens.len(), before, "duplicate token nodes");
        // No duplicate directed edges; all endpoints in range.
        let mut seen = std::collections::HashSet::new();
        for &(s, d, _) in &g.edges {
            prop_assert!(s < g.n_nodes() && d < g.n_nodes());
            prop_assert!(seen.insert((s, d)), "duplicate directed edge");
            prop_assert!(s != d, "self loop");
        }
        // Every input sequence starts at sos and ends at eos.
        for seq in &g.inputs {
            prop_assert_eq!(*seq.first().unwrap(), giant::mining::qtig::SOS);
            prop_assert_eq!(*seq.last().unwrap(), giant::mining::qtig::EOS);
        }
    }

    /// The ontology never accepts an isA cycle, no matter the insertion
    /// order, and node counts stay consistent.
    #[test]
    fn ontology_isa_stays_acyclic(edges in proptest::collection::vec((0usize..12, 0usize..12), 0..60)) {
        let mut o = Ontology::new();
        let nodes: Vec<_> = (0..12)
            .map(|i| o.add_node(NodeKind::Concept, Phrase::from_text(&format!("c{i}")), 1.0))
            .collect();
        for (a, b) in edges {
            let _ = o.add_is_a(nodes[a], nodes[b], 1.0); // cycles rejected, fine
        }
        // Acyclicity: no node is its own ancestor.
        for &n in &nodes {
            let ancestors = o.ancestors(n);
            prop_assert!(ancestors.iter().all(|(a, _)| *a != n), "cycle via {n:?}");
        }
        // IO round trip preserves stats under arbitrary edge sets.
        let dumped = giant::ontology::io::dump(&o);
        let loaded = giant::ontology::io::load(&dumped).unwrap();
        prop_assert_eq!(loaded.stats(), o.stats());
    }

    /// Tokenize → join → tokenize is a fixed point (idempotent pipeline).
    #[test]
    fn tokenize_is_idempotent_on_join(text in "[a-zA-Z0-9,.!? ]{0,60}") {
        let once = giant::text::tokenize(&text);
        let twice = giant::text::tokenize(&once.join(" "));
        prop_assert_eq!(once, twice);
    }

    /// Phrase mining metrics stay in [0, 1] for arbitrary predictions.
    #[test]
    fn metrics_bounded(
        pred in proptest::collection::vec("[a-c]{1,2}", 0..6),
        gold in proptest::collection::vec("[a-c]{1,2}", 1..6),
    ) {
        let f1 = giant_baselines::token_f1(&pred, &gold);
        prop_assert!((0.0..=1.0).contains(&f1));
        let em = giant_baselines::exact_match(&pred, &gold);
        prop_assert!(em == 0.0 || em == 1.0);
        if em == 1.0 {
            prop_assert!((f1 - 1.0).abs() < 1e-12, "EM=1 implies F1=1");
        }
    }
}

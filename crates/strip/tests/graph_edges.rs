//! Additional edge-case coverage for the distance graph and edge counters.

use bprc_strip::{shrink_k, DistanceGraph, EdgeCounters, ShrunkenGame};

#[test]
fn single_node_graph_is_trivial() {
    let g = DistanceGraph::new(1, 2);
    assert!(g.is_leader(0));
    assert_eq!(g.dist(0, 0), Some(0));
    assert!(g.leaders().eq([0]));
    g.validate().unwrap();
}

#[test]
fn equal_positions_give_zero_weight_double_edges() {
    let g = DistanceGraph::from_positions(&[5, 5, 5], 2);
    for i in 0..3 {
        for j in 0..3 {
            assert!(g.has_edge(i, j), "({i},{j}) must be an edge");
            assert_eq!(g.weight(i, j), Some(0));
        }
    }
    assert!(g.leaders().eq(0..3));
}

#[test]
fn dist_none_only_upward() {
    let g = DistanceGraph::from_positions(&[0, 1, 2], 1);
    // Paths only go downhill.
    assert_eq!(g.dist(2, 0), Some(2), "chain through the middle");
    assert_eq!(g.dist(0, 2), None);
    assert_eq!(g.dist(1, 0), Some(1));
    assert_eq!(g.dist(0, 1), None);
}

#[test]
fn negative_positions_are_fine() {
    let g = DistanceGraph::from_positions(&[-10, -12, -11], 2);
    assert!(g.is_leader(0));
    assert_eq!(g.delta(0, 1), 2);
    assert_eq!(g.delta(0, 2), 1);
    g.validate().unwrap();
}

#[test]
fn shrink_with_duplicates_and_reverse_order() {
    assert_eq!(shrink_k(&[7, 7, 7], 1), vec![7, 7, 7]);
    assert_eq!(shrink_k(&[9, 5, 1], 2), vec![5, 3, 1]);
}

#[test]
fn counters_validate_after_long_adversarial_runs() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(77);
    for k in [2u32, 3] {
        let n = 5;
        let mut game = ShrunkenGame::new(n, k);
        let mut counters = EdgeCounters::new(n, k);
        // Adversarial pattern: long solo runs then catch-up stampedes.
        for phase in 0..40 {
            let runner = phase % n;
            for _ in 0..rng.gen_range(1..30) {
                game.move_token(runner);
                counters.inc_graph(runner);
            }
            let g = counters.make_graph();
            g.validate()
                .unwrap_or_else(|e| panic!("k={k} phase={phase}: {e}"));
            assert_eq!(g, DistanceGraph::from_game(&game));
        }
    }
}

#[test]
fn leaders_after_total_domination() {
    // One process laps the field thousands of times: still exactly one
    // leader, all distances capped at K.
    let (n, k) = (4, 2u32);
    let mut counters = EdgeCounters::new(n, k);
    for _ in 0..5_000 {
        counters.inc_graph(2);
    }
    let g = counters.make_graph();
    assert!(g.leaders().eq([2]));
    for j in [0usize, 1, 3] {
        assert_eq!(g.delta(2, j), k as i64);
        assert_eq!(g.dist(2, j), Some(k as i64));
    }
    g.validate().unwrap();
}

#[test]
fn catch_up_goes_through_every_intermediate_distance() {
    let (n, k) = (2, 3u32);
    let mut counters = EdgeCounters::new(n, k);
    for _ in 0..10 {
        counters.inc_graph(0);
    }
    assert_eq!(counters.decode_checked(0, 1), Ok(k as i64));
    // The trailing process catches up one round at a time.
    for expected in (0..k as i64).rev() {
        counters.inc_graph(1);
        assert_eq!(counters.decode_checked(0, 1), Ok(expected));
    }
    // And can take the lead.
    counters.inc_graph(1);
    assert_eq!(counters.decode_checked(1, 0), Ok(1));
}

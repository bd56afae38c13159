//! Differential test of the flat strip kernels (`DistanceGraph::decode_rows`,
//! `decode_row_with`, `closure_into`, `should_advance`, `inc_row` and their
//! allocating wrappers) against the naive reference below: the `%`-based pair
//! decode, the `Vec<Vec<Option<i64>>>` Floyd–Warshall and the per-`j`
//! consistency check the kernels replaced. `closure_into` reads a position
//! graph's closure off its token positions and gives any other graph to
//! Floyd–Warshall; every state sequential play reaches must take the first
//! path, and every counter matrix at three small sizes checks both.

use std::collections::HashSet;

use bprc_strip::{inc_row, Closure, DistanceGraph, EdgeCounters};
use rand::{rngs::SmallRng, Rng, SeedableRng};

type Rows = Vec<Vec<u32>>;

const NEG_INF: i64 = i64::MIN / 4;

fn naive_decode(rows: &Rows, k: u32, i: usize, j: usize) -> i64 {
    if i == j {
        return 0;
    }
    let m = 3 * k;
    let d = (rows[i][j] + m - rows[j][i]) % m;
    if d <= k {
        d as i64
    } else if d >= 2 * k {
        d as i64 - m as i64
    } else if d - k <= 2 * k - d {
        k as i64
    } else {
        -(k as i64)
    }
}

fn naive_graph(rows: &Rows, k: u32) -> Vec<Vec<i64>> {
    let n = rows.len();
    (0..n)
        .map(|i| (0..n).map(|j| naive_decode(rows, k, i, j)).collect())
        .collect()
}

/// Floyd–Warshall exactly as it stood: every `d[a][mid]` and `d[mid][b]` is
/// read inside the `b` loop. With `hoist` it instead loads `d[a][mid]` once
/// per `(mid, a)` — the micro-optimisation the kernel must not make.
fn naive_closure(delta: &[Vec<i64>], hoist: bool) -> Vec<Vec<Option<i64>>> {
    let n = delta.len();
    let mut d = vec![vec![NEG_INF; n]; n];
    for i in 0..n {
        d[i][i] = 0;
        for j in 0..n {
            if i != j && delta[i][j] >= 0 {
                d[i][j] = delta[i][j];
            }
        }
    }
    for mid in 0..n {
        for a in 0..n {
            let hoisted = d[a][mid];
            for b in 0..n {
                let left = if hoist { hoisted } else { d[a][mid] };
                let via = left.saturating_add(d[mid][b]);
                if via > d[a][b] {
                    d[a][b] = via;
                }
            }
        }
    }
    d.into_iter()
        .map(|row| {
            row.into_iter()
                .map(|v| (v > NEG_INF / 2).then_some(v))
                .collect()
        })
        .collect()
}

fn naive_should_advance(
    delta: &[Vec<i64>],
    closure: &[Vec<Option<i64>>],
    k: u32,
    i: usize,
    j: usize,
) -> bool {
    let dji = delta[j][i];
    let consistent = (0..delta.len()).all(|v| closure[v][v] == Some(0));
    let catching_up = if consistent {
        dji >= 0 && Some(dji) == closure[j][i]
    } else {
        dji >= 0
    };
    catching_up || (delta[i][j] >= 0 && delta[i][j] < k as i64)
}

/// The row process `i` publishes next, with its increment and wrap counts.
fn naive_next_row(rows: &Rows, k: u32, i: usize) -> (Vec<u32>, u64, u64) {
    let delta = naive_graph(rows, k);
    let closure = naive_closure(&delta, false);
    let m = 3 * k;
    let mut row = rows[i].clone();
    let (mut incs, mut wraps) = (0, 0);
    for (j, slot) in row.iter_mut().enumerate() {
        if j != i && naive_should_advance(&delta, &closure, k, i, j) {
            incs += 1;
            if *slot == m - 1 {
                wraps += 1;
            }
            *slot = (*slot + 1) % m;
        }
    }
    (row, incs, wraps)
}

/// Scratch that outlives one state, as the consensus core's does: a stale
/// decode or closure surviving into the next state would show here. `rows`
/// and `by_row` are the consensus core's scan cache: the rows of the previous
/// state, and the graph `decode_row_with` keeps by re-decoding only the rows
/// that moved since.
struct Scratch {
    graph: DistanceGraph,
    closure: Closure,
    rows: Rows,
    by_row: DistanceGraph,
}

/// Checks every kernel and wrapper on one strip state; returns whether the
/// state is consistent and whether its closure was read off token positions.
fn check_state(rows: &Rows, k: u32, scratch: &mut Scratch) -> (bool, bool) {
    let n = rows.len();
    let delta = naive_graph(rows, k);
    let closure = naive_closure(&delta, false);
    let consistent = (0..n).all(|v| closure[v][v] == Some(0));

    let counters = EdgeCounters::from_rows(rows, k);
    let graph = counters.make_graph();
    scratch.graph.decode_rows(rows.iter().map(|r| &r[..]));
    assert_eq!(scratch.graph, graph, "in-place decode of {rows:?}");
    assert_eq!(
        graph,
        DistanceGraph::from_rows(rows.iter().map(|r| &r[..]), k)
    );
    // The same decode with each row written by the caller, over the deltas
    // the scratch graph now holds.
    scratch.graph.decode_rows_with(n, |i, row| {
        for (d, &c) in row.iter_mut().zip(&rows[i]) {
            *d = c as i64;
        }
    });
    assert_eq!(scratch.graph, graph, "caller-filled decode of {rows:?}");
    if scratch.rows.len() != n {
        // A new size starts over from all-zero counters.
        scratch.rows = vec![vec![0; n]; n];
        scratch.by_row = DistanceGraph::new(n, k);
    }
    for (i, (row, last)) in rows.iter().zip(&mut scratch.rows).enumerate() {
        if row != last {
            scratch.by_row.decode_row_with(i, |out| {
                for (d, &c) in out.iter_mut().zip(row) {
                    *d = c as i64;
                }
            });
            last.clone_from(row);
        }
    }
    assert_eq!(scratch.by_row, graph, "row-by-row decode of {rows:?}");
    let flat = graph.closure();
    scratch.graph.closure_into(&mut scratch.closure);
    assert_eq!(flat.is_consistent(), consistent, "consistency of {rows:?}");
    assert_eq!(scratch.closure.is_consistent(), consistent);
    assert_eq!(flat.by_positions(), scratch.closure.by_positions());
    assert!(
        consistent || !flat.by_positions(),
        "{rows:?} is no position graph"
    );
    for i in 0..n {
        for j in 0..n {
            assert_eq!(graph.delta(i, j), delta[i][j], "δ({i},{j}) of {rows:?}");
            match counters.decode_checked(i, j) {
                Ok(d) => assert_eq!(d, delta[i][j]),
                Err(e) => assert!(e.diff > k && e.diff < 2 * k, "{e} is no desync"),
            }
            assert_eq!(flat.get(i, j), closure[i][j], "dist({i},{j}) of {rows:?}");
            assert_eq!(scratch.closure.get(i, j), closure[i][j]);
            if i != j {
                assert_eq!(
                    graph.should_advance(&flat, i, j),
                    naive_should_advance(&delta, &closure, k, i, j),
                    "should_advance({i},{j}) of {rows:?}"
                );
            }
        }
        assert_eq!(graph.dist(i, 0), closure[i][0]);
        let expected = naive_next_row(rows, k, i);
        let mut row = rows[i].clone();
        let counts = inc_row(&scratch.graph, &scratch.closure, i, &mut row);
        assert_eq!(
            (row, counts.0, counts.1),
            expected,
            "inc_row({i}) of {rows:?}"
        );
        assert_eq!(counters.next_row(i, &graph), expected.0);
        let mut moved = counters.clone();
        moved.inc_graph(i);
        assert_eq!(moved.row(i), expected.0);
    }
    let leaders: Vec<usize> = (0..n)
        .filter(|&i| delta[i].iter().all(|&d| d >= 0))
        .collect();
    assert!(graph.leaders().eq(leaders));
    (consistent, flat.by_positions())
}

fn new_scratch(k: u32) -> Scratch {
    Scratch {
        graph: DistanceGraph::new(0, k),
        closure: Closure::default(),
        rows: Vec::new(),
        by_row: DistanceGraph::new(0, k),
    }
}

fn rows_of(counters: &EdgeCounters) -> Rows {
    (0..counters.n())
        .map(|i| counters.row(i).to_vec())
        .collect()
}

#[test]
fn every_state_within_12_moves_of_zero_matches_the_reference() {
    for k in [2, 3] {
        let mut scratch = new_scratch(k);
        for n in 1..=4 {
            let mut seen: HashSet<Rows> = HashSet::new();
            let mut frontier = vec![EdgeCounters::new(n, k)];
            seen.insert(rows_of(&frontier[0]));
            for depth in 0..=12 {
                let mut next = Vec::new();
                for state in &frontier {
                    // A legal game state, and its closure off positions.
                    let checked = check_state(&rows_of(state), k, &mut scratch);
                    assert_eq!(checked, (true, true), "sequential play");
                    if depth == 12 {
                        continue;
                    }
                    for i in 0..n {
                        let mut moved = state.clone();
                        moved.inc_graph(i);
                        if seen.insert(rows_of(&moved)) {
                            next.push(moved);
                        }
                    }
                }
                frontier = next;
            }
            assert!(n == 1 || seen.len() > 12, "n={n} K={k}: {}", seen.len());
        }
    }
}

#[test]
fn seeded_random_plays_at_n8_match_the_reference() {
    let mut rng = SmallRng::seed_from_u64(0x5712);
    for k in [2, 3] {
        let mut scratch = new_scratch(k);
        for _ in 0..8 {
            let mut counters = EdgeCounters::new(8, k);
            for step in 0..160 {
                // Skewed picks let some tokens race ahead and saturate.
                let i = rng.gen_range(0..8usize).min(rng.gen_range(0..8));
                counters.inc_graph(i);
                if step % 4 == 0 {
                    let checked = check_state(&rows_of(&counters), k, &mut scratch);
                    assert_eq!(checked, (true, true));
                }
            }
        }
    }
}

/// Arbitrary in-range rows: desynchronized pairs (the clamped decode and its
/// `+K`/`+K` tie) and positive cycles, the states the degraded-mode gate
/// exists for.
#[test]
fn seeded_inconsistent_rows_match_the_reference() {
    let mut rng = SmallRng::seed_from_u64(0xC1C1E);
    let (mut inconsistent, mut reread_matters, mut ties) = (0, 0, 0);
    for case in 0..600 {
        let k = [2, 3][case % 2];
        let n = [3, 4, 8][case % 3];
        let rows: Rows = (0..n)
            .map(|_| (0..n).map(|_| rng.gen_range(0..3 * k)).collect())
            .collect();
        // A scratch sized by another state must not leak into this one.
        let mut scratch = new_scratch(k);
        check_state(&vec![vec![0; n + 1]; n + 1], k, &mut scratch);
        if !check_state(&rows, k, &mut scratch).0 {
            inconsistent += 1;
        }
        let delta = naive_graph(&rows, k);
        if naive_closure(&delta, true) != naive_closure(&delta, false) {
            reread_matters += 1;
        }
        ties += (0..n)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .filter(|&(i, j)| delta[i][j] == k as i64 && delta[j][i] == k as i64)
            .count();
    }
    // Non-vacuity: the seeds reach positive cycles, inputs on which loading
    // `d[a][mid]` once per row of the closure gives another answer (so the
    // kernel provably does not do that), and the antisymmetry-breaking tie.
    assert!(inconsistent > 100, "{inconsistent} inconsistent states");
    assert!(
        reread_matters > 20,
        "{reread_matters} states need the re-read"
    );
    assert!(ties > 20, "{ties} tie pairs");
}

/// Every counter matrix of one size: each off-diagonal counter takes each
/// of its 3K values (the diagonal is unused and stays 0), so position
/// graphs, consistent graphs that are not position graphs, desynchronized
/// pairs and positive cycles all occur. Each matrix's closure, consistency
/// and every process's next row are checked against the reference. Returns
/// (matrices, closures read off positions, refusals of consistent graphs,
/// inconsistent graphs).
fn every_counter_matrix(n: usize, k: u32) -> (u64, u64, u64, u64) {
    let m = 3 * k;
    let mut rows: Rows = vec![vec![0; n]; n];
    let (mut graph, mut closure) = (DistanceGraph::new(n, k), Closure::default());
    let (mut cases, mut accepted, mut refused_consistent, mut inconsistent) = (0, 0, 0, 0);
    loop {
        let delta = naive_graph(&rows, k);
        let reference = naive_closure(&delta, false);
        let consistent = (0..n).all(|v| reference[v][v] == Some(0));
        graph.decode_rows(rows.iter().map(|r| &r[..]));
        graph.closure_into(&mut closure);
        assert_eq!(
            closure.is_consistent(),
            consistent,
            "consistency of {rows:?}"
        );
        for (a, row) in reference.iter().enumerate() {
            for (b, &dist) in row.iter().enumerate() {
                assert_eq!(closure.get(a, b), dist, "dist({a},{b}) of {rows:?}");
            }
        }
        for i in 0..n {
            let mut want = rows[i].clone();
            for (j, slot) in want.iter_mut().enumerate() {
                if j != i && naive_should_advance(&delta, &reference, k, i, j) {
                    *slot = (*slot + 1) % m;
                }
            }
            let mut row = rows[i].clone();
            inc_row(&graph, &closure, i, &mut row);
            assert_eq!(row, want, "inc_row({i}) of {rows:?}");
        }
        cases += 1;
        accepted += u64::from(closure.by_positions());
        refused_consistent += u64::from(consistent && !closure.by_positions());
        inconsistent += u64::from(!consistent);
        // The next matrix: count up over the off-diagonal counters.
        let mut carried = true;
        for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
            if i != j && carried {
                rows[i][j] = (rows[i][j] + 1) % m;
                carried = rows[i][j] == 0;
            }
        }
        if carried {
            return (cases, accepted, refused_consistent, inconsistent);
        }
    }
}

/// The position certificate of `closure_into`, exhaustively: at (n, K) =
/// (3, 1), (3, 2) and (4, 1) every counter matrix gets the reference's
/// closure, and both branches are taken — graphs accepted as position
/// graphs, consistent graphs refused (Floyd–Warshall's, not a degraded
/// mode's) and inconsistent ones.
#[test]
fn every_small_counter_matrix_matches_the_reference() {
    for (n, k, matrices) in [(3, 1, 729), (3, 2, 46_656), (4, 1, 531_441)] {
        let (cases, accepted, refused_consistent, inconsistent) = every_counter_matrix(n, k);
        let at = format!("n = {n}, K = {k}");
        assert_eq!(cases, matrices, "{at}");
        assert!(accepted > 0 && inconsistent > 0, "{at}");
        assert_eq!(accepted + refused_consistent + inconsistent, cases, "{at}");
        // At K = 1 an unsaturated edge weighs 0, and no consistent graph has
        // a longer path beside it: consistent means position graph. At K = 2
        // an edge of weight 1 can understate a two-step path of weight 2 in a
        // graph with no positive cycle, and the certificate refuses that.
        assert_eq!(refused_consistent > 0, k > 1, "{at}: consistent refusals");
    }
}

#[test]
#[should_panic(expected = "edge counter out of range")]
fn out_of_range_counters_are_rejected() {
    let _ = DistanceGraph::from_rows([&[0u32, 6][..], &[0, 0][..]], 2);
}

#[test]
fn caller_filled_counters_out_of_range_are_rejected() {
    for bad in [6, -1, i64::MIN] {
        let caught = std::panic::catch_unwind(|| {
            let mut g = DistanceGraph::new(0, 2);
            g.decode_rows_with(2, |i, row| {
                row.copy_from_slice(&[0, if i == 0 { bad } else { 0 }])
            });
        });
        assert!(caught.is_err(), "counter {bad} was accepted");
    }
}

#[test]
#[should_panic(expected = "n × n")]
fn ragged_rows_are_rejected() {
    let _ = DistanceGraph::from_rows([&[0u32, 1][..], &[0][..]], 2);
}

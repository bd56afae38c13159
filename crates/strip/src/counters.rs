//! Cyclic edge counters (§4.3) — the bounded wire format of the distance
//! graph.
//!
//! Each ordered pair `(i,j)` has a counter `e_i[j] ∈ {0, …, 3K−1}` written
//! only by process `i` (it lives in `i`'s register in the scannable memory).
//! The pair `(e_i[j], e_j[i])` represents two pointers on a cycle of size
//! `3K`; their clockwise difference encodes the capped signed distance
//! `δ(i,j)`:
//!
//! * `d = (e_i[j] − e_j[i]) mod 3K ∈ {0..K}` ⇒ `δ(i,j) = d`;
//! * `d ∈ {2K..3K−1}` ⇒ `δ(i,j) = d − 3K` (i.e. `j` leads by `3K − d`);
//! * `d ∈ {K+1..2K−1}` never occurs — the increment rule keeps each pair
//!   within K of each other on the cycle (checked by
//!   [`EdgeCounters::decode_checked`]).
//!
//! The paper's `inc_graph(i)` increments `e_i[j]` exactly when
//! [`DistanceGraph::should_advance`] says so — "a process does not increment
//! `e_i[j]` unless it is the trailing pointer, or it leads by less than K".

use crate::graph::{Closure, DistanceGraph};

/// Decodes one counter pair `(a, b) = (e_i[j], e_j[i])`, both below `3K`,
/// into `(δ(i,j), δ(j,i))`. Never fails: an (illegal) desynchronized pair is
/// clamped, each side toward its nearest representable value — so a pair
/// exactly halfway round the cycle reads `+K` from both sides.
pub(crate) fn decode_pair(a: u32, b: u32, k: u32) -> (i64, i64) {
    let (k, m) = (k as i64, 3 * k as i64);
    let d = a as i64 - b as i64;
    let d = if d < 0 { d + m } else { d };
    if d <= k {
        (d, -d)
    } else if d >= 2 * k {
        (d - m, m - d)
    } else {
        let toward = |near: bool| if near { k } else { -k };
        (toward(2 * d <= m), toward(2 * d >= m))
    }
}

/// The paper's `inc_graph` on process `i`'s own row, in place: increments
/// `row[j]` (mod 3K) for every `j` that `graph`, decoded from a scan and with
/// `closure` its closure, says `i` should advance against. Returns the number
/// of increments and how many of them wrapped from `3K − 1` back to `0`.
pub fn inc_row(graph: &DistanceGraph, closure: &Closure, i: usize, row: &mut [u32]) -> (u64, u64) {
    assert_eq!(row.len(), graph.n(), "row has wrong length");
    let m = 3 * graph.k();
    let (mut incs, mut wraps) = (0, 0);
    for (j, slot) in row.iter_mut().enumerate() {
        if j != i && graph.should_advance(closure, i, j) {
            incs += 1;
            *slot += 1;
            if *slot == m {
                *slot = 0;
                wraps += 1;
            }
        }
    }
    (incs, wraps)
}

/// The full matrix of edge counters (sequential form; the consensus protocol
/// distributes row `i` into process `i`'s register and reassembles the
/// matrix from a scan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeCounters {
    n: usize,
    k: u32,
    /// Row-major: `e[i*n + j] = e_i[j]`. The diagonal is unused (always 0).
    e: Vec<u32>,
}

/// Error from [`EdgeCounters::decode_checked`]: the two pointers of a pair
/// are more than K apart on the cycle, which no legal execution produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDesyncError {
    /// The pair that desynchronized.
    pub pair: (usize, usize),
    /// The clockwise difference found.
    pub diff: u32,
}

impl std::fmt::Display for CounterDesyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "edge counters e_{}[{}] / e_{}[{}] desynchronized (clockwise diff {})",
            self.pair.0, self.pair.1, self.pair.1, self.pair.0, self.diff
        )
    }
}

impl std::error::Error for CounterDesyncError {}

impl EdgeCounters {
    /// All-zero counters (everyone level), the initial configuration.
    pub fn new(n: usize, k: u32) -> Self {
        assert!(n >= 1, "need at least one process");
        assert!(k >= 1, "K must be positive");
        EdgeCounters {
            n,
            k,
            e: vec![0; n * n],
        }
    }

    /// Reassembles a matrix from per-process rows (as read out of a scan).
    ///
    /// # Panics
    ///
    /// Panics if the rows do not form an `n × n` matrix of counters below
    /// `3K`.
    pub fn from_rows(rows: impl IntoIterator<Item = impl AsRef<[u32]>>, k: u32) -> Self {
        let mut e = Vec::new();
        let mut n = 0;
        for row in rows {
            e.extend_from_slice(row.as_ref());
            n += 1;
            assert_eq!(e.len(), n * row.as_ref().len(), "ragged rows");
        }
        assert!(
            n >= 1 && e.len() == n * n,
            "rows do not form an n × n matrix"
        );
        assert!(e.iter().all(|&c| c < 3 * k), "edge counter out of range");
        EdgeCounters { n, k, e }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The cycle size `3K`.
    pub fn modulus(&self) -> u32 {
        3 * self.k
    }

    /// The raw counter `e_i[j]`.
    pub fn counter(&self, i: usize, j: usize) -> u32 {
        self.e[i * self.n + j]
    }

    /// Process `i`'s row (what it stores in its register).
    pub fn row(&self, i: usize) -> &[u32] {
        &self.e[i * self.n..(i + 1) * self.n]
    }

    /// Decodes the capped signed distance `δ(i,j)` from the counter pair, as
    /// [`make_graph`](Self::make_graph) does but reporting desynchronization
    /// instead of clamping it.
    ///
    /// # Errors
    ///
    /// Returns [`CounterDesyncError`] when the pair's clockwise difference
    /// lies in the impossible band `(K, 2K)`.
    pub fn decode_checked(&self, i: usize, j: usize) -> Result<i64, CounterDesyncError> {
        let m = self.modulus();
        let d = (self.counter(i, j) + m - self.counter(j, i)) % m;
        if i == j || d <= self.k || d >= 2 * self.k {
            Ok(decode_pair(self.counter(i, j), self.counter(j, i), self.k).0)
        } else {
            Err(CounterDesyncError {
                pair: (i, j),
                diff: d,
            })
        }
    }

    /// The paper's `make_graph`: decode every pair into a [`DistanceGraph`].
    pub fn make_graph(&self) -> DistanceGraph {
        DistanceGraph::from_rows(self.e.chunks_exact(self.n), self.k)
    }

    /// The paper's `inc_graph(e_1[1..n], …, e_n[1..n])` for process `i`:
    /// increments `e_i[j]` (mod 3K) for every `j` the graph says `i` should
    /// advance against.
    pub fn inc_graph(&mut self, i: usize) {
        let (graph, n) = (self.make_graph(), self.n);
        inc_row(&graph, &graph.closure(), i, &mut self.e[i * n..(i + 1) * n]);
    }

    /// The pure form of `inc_graph`: given a graph decoded from a scan,
    /// the new row process `i` should publish ([`inc_row`] on a copy).
    pub fn next_row(&self, i: usize, graph: &DistanceGraph) -> Vec<u32> {
        let mut row = self.row(i).to_vec();
        inc_row(graph, &graph.closure(), i, &mut row);
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::ShrunkenGame;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn fresh_counters_decode_to_level() {
        let e = EdgeCounters::new(3, 2);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(e.decode_checked(i, j), Ok(0));
            }
        }
        assert_eq!(e.modulus(), 6);
    }

    #[test]
    fn decode_positive_and_negative() {
        let e = EdgeCounters::from_rows([[0, 2], [0, 0]], 2); // δ(0,1) = 2 − 0
        assert_eq!(e.decode_checked(0, 1), Ok(2));
        assert_eq!(e.decode_checked(1, 0), Ok(-2));
        let e = EdgeCounters::from_rows([[0, 2], [5, 0]], 2); // (2 − 5) mod 6 = 3: desync band
        assert!(e.decode_checked(0, 1).is_err());
    }

    #[test]
    fn decode_wraps_modulo_3k() {
        let e = EdgeCounters::from_rows([[0, 1], [5, 0]], 2); // (1 − 5) mod 6 = 2
        assert_eq!(e.decode_checked(0, 1), Ok(2));
        assert_eq!(e.make_graph().delta(0, 1), 2);
    }

    #[test]
    fn inc_row_reports_incs_and_wraps() {
        // Modulus 6; p0's counter against p1 sits at the top of it, which
        // decodes to δ(0,1) = −1: p0 trails, advances, and wraps to 0.
        let e = EdgeCounters::from_rows([[0, 5], [0, 0]], 2);
        let g = e.make_graph();
        assert_eq!(g.delta(0, 1), -1);
        let mut row = e.row(0).to_vec();
        assert_eq!(inc_row(&g, &g.closure(), 0, &mut row), (1, 1));
        assert_eq!(row, [0, 0], "5 + 1 wraps to 0 mod 6");
        // The allocating wrapper agrees on the row itself.
        assert_eq!(row, e.next_row(0, &g));
        // A fresh strip advances against everyone and never wraps.
        let f = EdgeCounters::new(3, 2);
        let gf = f.make_graph();
        let mut row = f.row(0).to_vec();
        assert_eq!(inc_row(&gf, &gf.closure(), 0, &mut row), (2, 0));
    }

    #[test]
    fn inc_graph_tracks_shrunken_game() {
        let mut rng = SmallRng::seed_from_u64(11);
        for trial in 0..20 {
            let n = rng.gen_range(2..=5);
            let k = rng.gen_range(1..=3);
            let mut game = ShrunkenGame::new(n, k);
            let mut counters = EdgeCounters::new(n, k);
            for step in 0..300 {
                let i = rng.gen_range(0..n);
                game.move_token(i);
                counters.inc_graph(i);
                let from_counters = counters.make_graph();
                let from_game = crate::graph::DistanceGraph::from_game(&game);
                assert_eq!(
                    from_counters,
                    from_game,
                    "trial {trial} step {step}: counters diverged at {:?}",
                    game.positions()
                );
                // Counters remain within their cyclic range by construction;
                // decode_checked must never report desync on legal plays.
                for a in 0..n {
                    for b in 0..n {
                        counters.decode_checked(a, b).unwrap();
                        assert!(counters.counter(a, b) < counters.modulus());
                    }
                }
            }
        }
    }

    #[test]
    fn next_row_is_pure_and_matches_inc_graph() {
        let mut a = EdgeCounters::new(3, 2);
        for i in [0usize, 1, 1, 2, 0, 1, 2, 2, 2, 0] {
            let (before, row) = (a.clone(), a.next_row(i, &a.make_graph()));
            assert_eq!(a, before, "next_row leaves the counters alone");
            a.inc_graph(i);
            assert_eq!(a.row(i), row);
            for j in (0..3).filter(|&j| j != i) {
                assert_eq!(a.row(j), before.row(j), "inc_graph({i}) touched row {j}");
            }
        }
    }

    #[test]
    fn rows_roundtrip() {
        let mut e = EdgeCounters::new(3, 2);
        e.inc_graph(1);
        e.inc_graph(1);
        e.inc_graph(2);
        let rebuilt = EdgeCounters::from_rows((0..3).map(|i| e.row(i)), 2);
        assert_eq!(rebuilt, e);
    }

    #[test]
    fn counters_stay_bounded_forever() {
        // The whole point: a process can advance millions of rounds and the
        // counters stay in {0..3K−1}.
        let mut e = EdgeCounters::new(2, 2);
        for _ in 0..100_000 {
            e.inc_graph(0);
        }
        assert!(e.counter(0, 1) < 6);
        assert_eq!(e.decode_checked(0, 1), Ok(2), "lead capped at K");
        // The trailing process catches up by exactly the capped distance.
        e.inc_graph(1);
        assert_eq!(e.decode_checked(0, 1), Ok(1));
        e.inc_graph(1);
        assert_eq!(e.decode_checked(0, 1), Ok(0));
    }
}

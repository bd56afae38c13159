//! The distance graph `G(S)` (§4.2).
//!
//! Nodes are processes; conceptually there is an edge `(i,j)` whenever `i`'s
//! token is at-or-above `j`'s, weighted by their distance capped at K. We
//! store the equivalent *capped signed difference* matrix
//! `δ(i,j) = clamp(r_i − r_j, −K, K)` (so `(i,j) ∈ G ⇔ δ(i,j) ≥ 0` and
//! `w(i,j) = δ(i,j)`), which makes the paper's two `inc` branches collapse
//! into one: *advance `i` against `j`* is `δ(i,j) += 1` in both.
//!
//! The graph properties (1)–(5) from the paper are implemented as a
//! [`DistanceGraph::validate`] pass, and **Claim 4.1** (the `inc`-evolved
//! graph equals the graph of the shrunken game) is property-tested here and
//! exhaustively verified for small `n`, `K`.

use crate::counters::decode_pair;
use crate::game::ShrunkenGame;

const NEG_INF: i64 = i64::MIN / 4;

/// The max-plus closure of a [`DistanceGraph`]: the flat `n × n` matrix of
/// maximal path weights and whether the graph is consistent, both computed
/// once by [`DistanceGraph::closure_into`] (which also sizes the buffer).
#[derive(Debug, Clone, Default)]
pub struct Closure {
    n: usize,
    /// Row-major; entries below `NEG_INF / 2` mean "no path".
    d: Vec<i64>,
    consistent: bool,
    by_positions: bool,
}

impl Closure {
    /// The paper's `dist(i,j)`: maximal weight of a directed path `i → j`
    /// (edges with `δ ≥ 0` only), or `None` if no path exists.
    pub fn get(&self, i: usize, j: usize) -> Option<i64> {
        let v = self.d[i * self.n + j];
        (v > NEG_INF / 2).then_some(v)
    }

    /// True iff the graph has no positive cycle: `dist(v,v) = 0` for all `v`.
    pub fn is_consistent(&self) -> bool {
        self.consistent
    }

    /// True iff the closure was read off token positions (the graph is a
    /// position graph), false if Floyd–Warshall computed it.
    pub fn by_positions(&self) -> bool {
        self.by_positions
    }
}

/// The distance graph over `n` processes with window constant `K`.
///
/// A graph decoded from edge counters keeps them, row by row, so that a row
/// that moves is re-decoded alone ([`decode_row_with`](Self::decode_row_with)).
/// Two graphs are equal when their `δ` are: the counters are how a graph was
/// reached, not what it is.
#[derive(Debug, Clone)]
pub struct DistanceGraph {
    n: usize,
    k: u32,
    /// Row-major `δ(i,j) ∈ [−K, K]`, antisymmetric.
    delta: Vec<i64>,
    /// Row-major `e_i[j]`, row `i` as process `i` published it: what `delta`
    /// was decoded from. Empty for a graph built from token positions.
    counters: Vec<i64>,
}

impl PartialEq for DistanceGraph {
    fn eq(&self, other: &Self) -> bool {
        (self.n, self.k, &self.delta) == (other.n, other.k, &other.delta)
    }
}

impl Eq for DistanceGraph {}

impl DistanceGraph {
    /// The graph of the initial configuration (all tokens level), decoded
    /// from all-zero counters; `n = 0` allocates nothing and waits for
    /// [`decode_rows`](Self::decode_rows).
    pub fn new(n: usize, k: u32) -> Self {
        assert!(k >= 1, "K must be positive");
        let mut graph = DistanceGraph {
            n: 0,
            k,
            delta: Vec::new(),
            counters: Vec::new(),
        };
        graph.reset(n);
        graph
    }

    /// [`new`](Self::new) in place, keeping `K` and the buffers: allocates
    /// only when `n` outgrows them.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        for matrix in [&mut self.delta, &mut self.counters] {
            matrix.clear();
            matrix.resize(n * n, 0);
        }
    }

    /// The paper's `make_graph` over borrowed edge-counter rows, row `i` being
    /// what process `i` published (wire format: [`crate::counters`]).
    pub fn from_rows<'a>(rows: impl IntoIterator<Item = &'a [u32]>, k: u32) -> Self {
        let mut g = DistanceGraph::new(0, k);
        g.decode_rows(rows);
        g
    }

    /// [`from_rows`](Self::from_rows) in place: takes `n` from the rows and
    /// allocates only when it grows. Panics unless the rows form an `n × n`
    /// matrix of counters below `3K`.
    pub fn decode_rows<'a>(&mut self, rows: impl IntoIterator<Item = &'a [u32]>) {
        let mut rows = rows.into_iter().peekable();
        let n = rows.peek().map_or(0, |row| row.len());
        self.decode_rows_with(n, |_, out| {
            let row = rows.next().filter(|row| row.len() == n);
            let row = row.expect("rows must be n × n");
            for (d, &c) in out.iter_mut().zip(row) {
                *d = c as i64;
            }
        });
        assert!(rows.next().is_none(), "rows must be n × n");
    }

    /// [`decode_rows`](Self::decode_rows) for rows that are not slices —
    /// counters packed inside registers: `fill(i, row)` writes the `n`
    /// counters process `i` published into `row`, in order. Panics if one is
    /// not below `3K`.
    ///
    /// This is [`decode_row_with`](Self::decode_row_with) with every row
    /// moved, except that row `i` decodes only its pairs with the rows
    /// before it, so that each pair is decoded once.
    pub fn decode_rows_with(&mut self, n: usize, mut fill: impl FnMut(usize, &mut [i64])) {
        assert!(n >= 1, "rows must be n × n");
        self.n = n;
        self.delta.resize(n * n, 0);
        self.counters.resize(n * n, 0);
        for i in 0..n {
            self.load_row(i, |row| fill(i, row));
            self.delta[i * n + i] = 0;
            self.decode_pairs(i, 0..i);
        }
    }

    /// Re-decodes row `i` alone: `fill` writes the `n` counters process `i`
    /// published into `row`, as for [`decode_rows_with`](Self::decode_rows_with),
    /// and the `n − 1` pairs through row `i` are decoded against the counters
    /// the graph holds for the other rows. Calling it for every row that
    /// moved since the last decode gives the graph a full decode would (a
    /// pair between two moved rows is decoded twice, the second time right).
    /// The graph must hold counters: [`new`](Self::new) or a decode sized
    /// it. Panics if a counter of row `i` is not below `3K`.
    pub fn decode_row_with(&mut self, i: usize, fill: impl FnOnce(&mut [i64])) {
        self.load_row(i, fill);
        self.decode_pairs(i, 0..i);
        self.decode_pairs(i, i + 1..self.n);
    }

    /// Writes row `i` of the counters with `fill` and range-checks it.
    fn load_row(&mut self, i: usize, fill: impl FnOnce(&mut [i64])) {
        let n = self.n;
        let row = &mut self.counters[i * n..(i + 1) * n];
        fill(row);
        // One unsigned compare per counter: a negative one reads as huge.
        let m = 3 * self.k as u64;
        assert!(
            row.iter().all(|&c| (c as u64) < m),
            "edge counter out of range"
        );
    }

    /// Decodes the pairs `(i, j)`, `j ∈ js` (which skips `i`), from the
    /// counters: the one decode step every entry point shares.
    fn decode_pairs(&mut self, i: usize, js: std::ops::Range<usize>) {
        let n = self.n;
        for j in js {
            let (a, b) = (self.counters[i * n + j], self.counters[j * n + i]);
            (self.delta[i * n + j], self.delta[j * n + i]) =
                decode_pair(a as u32, b as u32, self.k);
        }
    }

    /// Derives the graph from (shrunken) token positions.
    pub fn from_positions(positions: &[i64], k: u32) -> Self {
        assert!(k >= 1, "K must be positive");
        let cap = move |d: i64| d.clamp(-(k as i64), k as i64);
        DistanceGraph {
            n: positions.len(),
            k,
            delta: positions
                .iter()
                .flat_map(|&pi| positions.iter().map(move |&pj| cap(pi - pj)))
                .collect(),
            counters: Vec::new(),
        }
    }

    /// Derives the graph from a shrunken game state.
    pub fn from_game(game: &ShrunkenGame) -> Self {
        Self::from_positions(game.positions(), game.k())
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The window constant K.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The capped signed difference `δ(i,j)`.
    pub fn delta(&self, i: usize, j: usize) -> i64 {
        self.delta[i * self.n + j]
    }

    fn set_delta(&mut self, i: usize, j: usize, v: i64) {
        debug_assert!(v.abs() <= self.k as i64, "delta {v} out of range");
        self.delta[i * self.n + j] = v;
        self.delta[j * self.n + i] = -v;
    }

    /// Is the edge `(i,j)` present (is `i` at-or-above `j`)?
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        self.delta(i, j) >= 0
    }

    /// The weight `w(i,j)` of the edge `(i,j)`, if present.
    pub fn weight(&self, i: usize, j: usize) -> Option<i64> {
        let d = self.delta(i, j);
        (d >= 0).then_some(d)
    }

    /// Is `i` a leader — at-or-above every other process (the paper: `(i,j)
    /// ∈ G` for all `j`)?
    pub fn is_leader(&self, i: usize) -> bool {
        (0..self.n).all(|j| self.has_edge(i, j))
    }

    /// All leaders, ascending.
    pub fn leaders(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(|&i| self.is_leader(i))
    }

    /// Max-plus closure over the edges with `δ ≥ 0`. For consistent states it
    /// recovers the *exact* shrunken distance even across saturated direct
    /// edges: sorted-consecutive tokens are at most K apart.
    pub fn closure(&self) -> Closure {
        let mut c = Closure::default();
        self.closure_into(&mut c);
        c
    }

    /// [`closure`](Self::closure) into a reused buffer.
    ///
    /// A graph the token game reaches is `from_positions(p)` with its sorted
    /// gaps at most K, and its closure is `p_a − p_b` where `p_a ≥ p_b`, with
    /// no path otherwise. So the positions are tried first, in O(n²): each
    /// pid's rank is how many tokens it is strictly above, and each rank's
    /// position is the rank below's plus the δ of that pair. They are
    /// accepted only if every `δ(a,b)` equals `clamp(p_a − p_b, −K, K)`:
    /// then the graph *is* that position graph, whatever the ranks were, and
    /// the closure is exact ([`Closure::by_positions`] says so). Any graph the
    /// check refuses — degraded mode, or a consistent graph that is not a
    /// position graph — gets the O(n³) Floyd–Warshall.
    pub fn closure_into(&self, out: &mut Closure) {
        let nn = self.n * self.n;
        out.n = self.n;
        out.d.clear();
        // A debug build keeps room for the cross-check's Floyd–Warshall
        // beside the closure, so that checking allocates nothing the
        // release build does not.
        out.d
            .reserve(if cfg!(debug_assertions) { 2 * nn } else { nn });
        out.d.resize(nn, 0);
        out.by_positions = self.positions_closure(&mut out.d);
        out.consistent = out.by_positions || self.floyd_warshall(&mut out.d);
        if cfg!(debug_assertions) && out.by_positions {
            out.d.resize(2 * nn, 0);
            let (closure, oracle) = out.d.split_at_mut(nn);
            let path = |v: &i64| (*v > NEG_INF / 2).then_some(*v);
            assert!(
                self.floyd_warshall(oracle) && closure.iter().map(path).eq(oracle.iter().map(path)),
                "the position closure must equal Floyd–Warshall's"
            );
            out.d.truncate(nn);
        }
    }

    /// The closure read off token positions into `d` (n × n), if the graph
    /// is a position graph; false, with `d` scribbled on, if it is not.
    fn positions_closure(&self, d: &mut [i64]) -> bool {
        let (n, k) = (self.n, self.k as i64);
        if n < 2 {
            // One token, or none: its own position graph, with no path but
            // the empty one.
            d.fill(0);
            return true;
        }
        let delta = &self.delta[..];
        // Row 0 of `d` holds the positions and row 1 the ranks until the
        // closure overwrites them, row 0 last and in place.
        let (pos, rest) = d.split_at_mut(n);
        let rank = &mut rest[..n];
        for (a, r) in rank.iter_mut().enumerate() {
            *r = delta[a * n..(a + 1) * n].iter().filter(|&&v| v > 0).count() as i64;
        }
        // Rank by rank upward: `below` is a pid of the last rank placed.
        let (mut below, mut placed) = (None, 0);
        for r in 0..n as i64 {
            let mut first = None;
            for a in 0..n {
                if rank[a] == r {
                    pos[a] = below.map_or(0, |b| pos[b] + delta[a * n + b]);
                    first.get_or_insert(a);
                    placed += 1;
                }
            }
            below = first.or(below);
            if placed == n {
                break;
            }
        }
        // The certificate: every pair, not only the consecutive ones.
        for a in 0..n {
            for b in 0..n {
                if delta[a * n + b] != (pos[a] - pos[b]).clamp(-k, k) {
                    return false;
                }
            }
        }
        let (pos, rest) = d.split_at_mut(n);
        let path = |from: i64, to: i64| if from >= to { from - to } else { NEG_INF };
        for (a, row) in rest.chunks_exact_mut(n).enumerate() {
            let pa = pos[a + 1];
            for (v, &pb) in row.iter_mut().zip(pos.iter()) {
                *v = path(pa, pb);
            }
        }
        let p0 = pos[0];
        for v in pos.iter_mut() {
            *v = path(p0, *v);
        }
        true
    }

    /// Floyd–Warshall over the edges with `δ ≥ 0` into `d` (n × n); returns
    /// whether the graph is consistent.
    fn floyd_warshall(&self, d: &mut [i64]) -> bool {
        let n = self.n;
        for (v, &w) in d.iter_mut().zip(&self.delta) {
            *v = if w >= 0 { w } else { NEG_INF };
        }
        // A positive cycle makes `d[mid][mid] > 0`, so pass `mid` rewrites
        // row and column `mid` while reading them: every entry is re-read
        // where it is used, never hoisted (the differential test shows a
        // hoisted `d[a][mid]` gives other distances).
        for mid in 0..n {
            for a in 0..n {
                for b in 0..n {
                    let via = d[a * n + mid].saturating_add(d[mid * n + b]);
                    if via > d[a * n + b] {
                        d[a * n + b] = via;
                    }
                }
            }
        }
        (0..n).all(|v| d[v * n + v] == 0)
    }

    /// The paper's `dist(i,j)`: maximal path weight `i → j`, if a path
    /// exists.
    pub fn dist(&self, i: usize, j: usize) -> Option<i64> {
        self.closure().get(i, j)
    }

    /// The paper's `inc` condition for updating `e_i[j]` / `δ(i,j)`: process
    /// `i`, having moved one round, advances against `j` iff
    ///
    /// * `j` is at-or-above `i` along an exact (max-path) edge — `i` is
    ///   catching up; or
    /// * `i` is at-or-above `j` by less than K — `i` extends its lead
    ///   (a lead of exactly K is *not* extended: that is the shrink).
    ///
    /// **Degraded mode.** Concurrent scans can race: a process may advance
    /// its row based on a scan in which a laggard had not yet caught up,
    /// and the combined rows then decode to a configuration that is no
    /// legal token-game state (a positive cycle). In such a state the
    /// max-path gate misfires — cyclically inflated distances make every
    /// direct edge look saturated, freezing catch-up forever (a livelock
    /// this repository reproduced; the paper's preliminary version omits
    /// the concurrency proofs that would have to address it). When the
    /// scanned graph contains a positive cycle, the gate therefore falls
    /// back to the direct-edge rule — catch up against anyone at-or-above —
    /// which monotonically drives the configuration back to a consistent
    /// one. Consistent graphs are unaffected.
    pub fn should_advance(&self, closure: &Closure, i: usize, j: usize) -> bool {
        let dji = self.delta(j, i);
        let catching_up = if closure.is_consistent() {
            dji >= 0 && Some(dji) == closure.get(j, i)
        } else {
            dji >= 0
        };
        if catching_up {
            true
        } else {
            let dij = self.delta(i, j);
            dij >= 0 && dij < self.k as i64
        }
    }

    /// The paper's `inc(i, G)`: the image of `move_token_i` on the graph
    /// (Claim 4.1: equals re-deriving the graph from the shrunken game).
    /// It moves `δ` only; counters the graph was decoded from stay as they
    /// were.
    pub fn inc(&mut self, i: usize) {
        let closure = self.closure();
        for j in 0..self.n {
            if j != i && self.should_advance(&closure, i, j) {
                let d = self.delta(i, j);
                self.set_delta(i, j, d + 1);
            }
        }
    }

    /// Verifies the paper's graph properties (1)–(5):
    ///
    /// 1. antisymmetry / totality: `δ(i,j) = −δ(j,i)` with `|δ| ≤ K` (so at
    ///    least one direction is an edge, both iff weight 0);
    /// 2. no positive cycles;
    /// 3. all path weights within `[0, K·n]`;
    /// 4. unsaturated edges are exact (`δ(i,j) < K ⇒ δ(i,j) = dist(i,j)`);
    /// 5. the at-or-above relation is a total preorder (transitive).
    ///
    /// # Errors
    ///
    /// Returns a description of the first property violated.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n;
        let k = self.k as i64;
        for i in 0..n {
            for j in 0..n {
                let d = self.delta(i, j);
                if d != -self.delta(j, i) {
                    return Err(format!("antisymmetry broken at ({i},{j})"));
                }
                if d.abs() > k {
                    return Err(format!("|δ({i},{j})| = {} > K", d.abs()));
                }
            }
        }
        let c = self.closure();
        for i in 0..n {
            if c.get(i, i) != Some(0) {
                return Err(format!("positive cycle through {i}: {:?}", c.get(i, i)));
            }
            for j in 0..n {
                let cij = c.get(i, j);
                if let Some(d) = cij {
                    if !(0..=k * n as i64).contains(&d) {
                        return Err(format!("dist({i},{j}) = {d} outside [0, K·n]"));
                    }
                }
                let dd = self.delta(i, j);
                if (0..k).contains(&dd) && cij != Some(dd) {
                    return Err(format!(
                        "unsaturated edge ({i},{j}) weight {dd} != dist {:?}",
                        cij
                    ));
                }
            }
        }
        for a in 0..n {
            for b in 0..n {
                for d in 0..n {
                    if self.has_edge(a, b) && self.has_edge(b, d) && !self.has_edge(a, d) {
                        return Err(format!(
                            "at-or-above not transitive: {a}≥{b}≥{d} but {a}<{d}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn initial_graph_is_all_zero() {
        let g = DistanceGraph::new(3, 2);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g.delta(i, j), 0);
                assert!(g.has_edge(i, j));
                assert_eq!(g.weight(i, j), Some(0));
            }
        }
        assert!(g.leaders().eq(0..3));
        g.validate().unwrap();
    }

    #[test]
    fn from_positions_caps_at_k() {
        let g = DistanceGraph::from_positions(&[0, 5, 1], 2);
        assert_eq!(g.delta(1, 0), 2, "5-0 capped at K=2");
        assert_eq!(g.delta(0, 1), -2);
        assert_eq!(g.delta(2, 0), 1);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(g.leaders().eq([1]));
    }

    #[test]
    fn closure_recovers_exact_distance_through_chain() {
        // Shrunken positions 0, 2, 4 with K=2: direct edge (2→0) saturates
        // at 2, but the chain through the middle token recovers 4.
        let g = DistanceGraph::from_positions(&[0, 2, 4], 2);
        assert_eq!(g.delta(2, 0), 2);
        assert_eq!(g.dist(2, 0), Some(4));
        assert_eq!(
            g.dist(1, 0),
            Some(g.delta(1, 0)),
            "unsaturated edges are exact"
        );
        assert_eq!(g.dist(2, 1), Some(g.delta(2, 1)));
        g.validate().unwrap();
    }

    #[test]
    fn dist_is_none_without_a_path() {
        let g = DistanceGraph::from_positions(&[0, 3], 1);
        assert_eq!(g.dist(0, 1), None, "trailing token has no path up");
        assert_eq!(g.dist(1, 0), Some(1));
    }

    /// Claim 4.1, exhaustively: every move sequence of length ≤ `depth` on
    /// the shrunken game produces the same graph via `inc` as via
    /// `from_game`.
    fn claim_4_1_exhaustive(n: usize, k: u32, depth: usize) {
        fn recurse(n: usize, game: &ShrunkenGame, graph: &DistanceGraph, depth: usize) {
            let derived = DistanceGraph::from_game(game);
            assert_eq!(
                graph,
                &derived,
                "Claim 4.1 violated at positions {:?}",
                game.positions()
            );
            graph.validate().unwrap();
            if depth == 0 {
                return;
            }
            for i in 0..n {
                let mut g2 = game.clone();
                let mut gr2 = graph.clone();
                g2.move_token(i);
                gr2.inc(i);
                recurse(n, &g2, &gr2, depth - 1);
            }
        }
        let game = ShrunkenGame::new(n, k);
        let graph = DistanceGraph::from_game(&game);
        recurse(n, &game, &graph, depth);
    }

    #[test]
    fn claim_4_1_exhaustive_n2_k1() {
        claim_4_1_exhaustive(2, 1, 7);
    }

    #[test]
    fn claim_4_1_exhaustive_n2_k2() {
        claim_4_1_exhaustive(2, 2, 7);
    }

    #[test]
    fn claim_4_1_exhaustive_n3_k2() {
        claim_4_1_exhaustive(3, 2, 5);
    }

    #[test]
    fn claim_4_1_randomized_larger() {
        let mut rng = SmallRng::seed_from_u64(42);
        for trial in 0..30 {
            let n = rng.gen_range(2..=6);
            let k = rng.gen_range(1..=3);
            let mut game = ShrunkenGame::new(n, k);
            let mut graph = DistanceGraph::from_game(&game);
            for step in 0..200 {
                let i = rng.gen_range(0..n);
                game.move_token(i);
                graph.inc(i);
                let derived = DistanceGraph::from_game(&game);
                assert_eq!(
                    graph,
                    derived,
                    "trial {trial} step {step}: inc diverged at {:?}",
                    game.positions()
                );
            }
            graph.validate().unwrap();
        }
    }

    #[test]
    fn leaders_match_game_leaders() {
        let mut rng = SmallRng::seed_from_u64(9);
        let (n, k) = (4, 2);
        let mut game = ShrunkenGame::new(n, k);
        let mut graph = DistanceGraph::from_game(&game);
        for _ in 0..300 {
            let i = rng.gen_range(0..n);
            game.move_token(i);
            graph.inc(i);
            assert!(graph.leaders().eq(game.leaders()));
        }
    }

    #[test]
    fn validate_rejects_corrupt_graphs() {
        let mut g = DistanceGraph::new(2, 2);
        g.delta[1] = 1; // break antisymmetry by hand: entry (0,1)
        assert!(g.validate().is_err());
    }
}

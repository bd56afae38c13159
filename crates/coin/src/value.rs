//! The pure decision rules of the coin (paper §3 pseudocode).

use crate::params::CoinParams;

/// Outcome of evaluating the shared coin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoinValue {
    /// The walk crossed `+b·n` (or the caller's counter overflowed).
    Heads,
    /// The walk crossed `−b·n`.
    Tails,
    /// Neither barrier crossed: take another walk step.
    Undecided,
}

impl CoinValue {
    /// Converts heads/tails to a bit (`heads = true`).
    ///
    /// # Panics
    ///
    /// Panics on [`CoinValue::Undecided`].
    pub fn as_bool(&self) -> bool {
        match self {
            CoinValue::Heads => true,
            CoinValue::Tails => false,
            CoinValue::Undecided => panic!("coin is undecided"),
        }
    }
}

impl From<bool> for CoinValue {
    fn from(heads: bool) -> Self {
        if heads {
            CoinValue::Heads
        } else {
            CoinValue::Tails
        }
    }
}

/// The paper's `coin_value(ē)` function for process `i`:
///
/// 1. if `c_i ∉ {−m..m}` → *heads* (the bounded-counter escape hatch);
/// 2. if `Σ c_j > b·n` → *heads*;
/// 3. if `Σ c_j < −b·n` → *tails*;
/// 4. otherwise → *undecided*.
///
/// `own` is the caller's own counter (from its local copy), `counters` the
/// values it read for everyone (including slot `i`; the caller substitutes
/// its local copy there before calling).
pub fn coin_value(params: &CoinParams, own: i64, counters: &[i64]) -> CoinValue {
    debug_assert_eq!(counters.len(), params.n());
    coin_value_total(params, own, counters.iter().sum())
}

/// [`coin_value`] when the walk value `Σ c_j` is already summed.
pub fn coin_value_total(params: &CoinParams, own: i64, total: i64) -> CoinValue {
    if params.overflowed(own) {
        return CoinValue::Heads;
    }
    if total > params.barrier() {
        CoinValue::Heads
    } else if total < -params.barrier() {
        CoinValue::Tails
    } else {
        CoinValue::Undecided
    }
}

/// The paper's `walk_step`: move a counter by ±1, saturating at `±(m+1)`.
/// Returns the new counter value.
pub fn walk_step(params: &CoinParams, counter: i64, heads: bool) -> i64 {
    params.clamp_counter(counter + if heads { 1 } else { -1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> CoinParams {
        CoinParams::new(3, 2, 10) // barrier 6, counters in ±11
    }

    #[test]
    fn barrier_crossings() {
        assert_eq!(coin_value(&p(), 0, &[3, 3, 1]), CoinValue::Heads);
        assert_eq!(coin_value(&p(), 0, &[-3, -3, -1]), CoinValue::Tails);
        assert_eq!(coin_value(&p(), 0, &[3, 3, 0]), CoinValue::Undecided);
        assert_eq!(coin_value(&p(), 0, &[-6, 0, 0]), CoinValue::Undecided);
    }

    #[test]
    fn own_overflow_forces_heads_even_if_walk_says_tails() {
        // own = 11 > m = 10: deterministic heads regardless of the sum.
        assert_eq!(coin_value(&p(), 11, &[-9, -9, 11]), CoinValue::Heads);
        assert_eq!(coin_value(&p(), -11, &[-9, -9, -11]), CoinValue::Heads);
    }

    #[test]
    fn walk_step_moves_and_saturates() {
        assert_eq!(walk_step(&p(), 0, true), 1);
        assert_eq!(walk_step(&p(), 0, false), -1);
        assert_eq!(walk_step(&p(), 11, true), 11, "saturates at m+1");
        assert_eq!(walk_step(&p(), -11, false), -11);
    }

    #[test]
    fn value_helpers() {
        assert!(CoinValue::Heads.as_bool());
        assert!(!CoinValue::Tails.as_bool());
        assert_eq!(CoinValue::from(true), CoinValue::Heads);
        assert_eq!(CoinValue::from(false), CoinValue::Tails);
    }

    #[test]
    #[should_panic(expected = "undecided")]
    fn undecided_as_bool_panics() {
        let _ = CoinValue::Undecided.as_bool();
    }
}

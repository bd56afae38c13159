//! The packed register encoding: `pack`/`unpack` round-trip over the whole
//! domain, the packed width is `register_bits`, padding is zero, equality on
//! words is equality on fields (and on the edge tails, of edge rows), an
//! out-of-domain field is a typed error, and the composed payloads survive
//! `clone`/`clone_from` into any destination. An in-place counter write
//! equals a full pack, inline and on the heap, and so does every register a
//! core publishes.
//!
//! Cases are seeded loops over `stream_rng(SEED, case)`; every assertion
//! names the case, so a failure replays with that one stream.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use bprc_coin::CoinParams;
use bprc_core::bounded::{BoundedCore, ConsensusParams};
use bprc_core::multishot::{LogCore, LogMsg, StaticProposals};
use bprc_core::multivalued::{MvCore, MvState};
use bprc_core::state::{PackError, Pref, ProcParts, ProcState, RegisterLayout};
use bprc_sim::rng::stream_rng;
use bprc_sim::sched::{RandomStrategy, RoundRobin, Strategy};
use bprc_sim::turn::{Turn, TurnBsp, TurnDriver, TurnProcess, TurnStep};
use bprc_sim::{Counter, ProcMetrics};
use rand::Rng;

const SEED: u64 = 23;
const CASES: u64 = 40;

/// Every layout of the issue's grid.
fn layouts() -> Vec<RegisterLayout> {
    let mut out = Vec::new();
    for n in [1, 2, 3, 8, 33] {
        for k in [2, 3, 4] {
            for m in [1, 10, 1_000_000, CoinParams::recommended(8, 3).m()] {
                out.push(RegisterLayout::new(n, k, m));
            }
        }
    }
    out
}

/// Bits needed to write `max`.
fn bits(max: u64) -> u64 {
    (64 - max.leading_zeros()).max(1) as u64
}

/// Uniform parts, with each counter pushed to a saturation value and each
/// edge and the pointer to its maximum one time in four.
fn random_parts(layout: &RegisterLayout, rng: &mut impl Rng) -> ProcParts {
    let (cap, k) = (layout.m() + 1, layout.k());
    let coins = (0..layout.coin_slots())
        .map(|_| match rng.gen_range(0..8) {
            0 => cap,
            1 => -cap,
            _ => rng.gen_range(-cap..=cap),
        })
        .collect();
    let edges = (0..layout.n())
        .map(|_| {
            if rng.gen_range(0..4) == 0 {
                3 * k - 1
            } else {
                rng.gen_range(0..3 * k)
            }
        })
        .collect();
    ProcParts {
        pref: [Pref::Bottom, Pref::Val(false), Pref::Val(true)][rng.gen_range(0..3)],
        coins,
        current_coin: if rng.gen_range(0..4) == 0 {
            k as usize
        } else {
            rng.gen_range(0..=k as usize)
        },
        edges,
    }
}

fn hash_of(s: &ProcState) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

#[test]
fn pack_unpack_round_trips_at_the_declared_width() {
    for layout in layouts() {
        // One formula: the packed width is `register_bits`, field by field.
        let (n, k, m) = (layout.n() as u64, layout.k() as u64, layout.m() as u64);
        let want_bits = 2 + bits(k) + (k + 1) * bits(2 * m + 3) + n * bits(3 * k - 1);
        assert_eq!(layout.bits(), want_bits, "{layout:?}");
        assert_eq!(layout.words() as u64, want_bits.div_ceil(64), "{layout:?}");

        // Both saturation values, the pointer at K, edges at 3K − 1.
        let cap = layout.m() + 1;
        for c in [cap, -cap] {
            let extreme = ProcParts {
                pref: Pref::Val(true),
                coins: vec![c; layout.coin_slots()],
                current_coin: layout.k() as usize,
                edges: vec![3 * layout.k() - 1; layout.n()],
            };
            let packed = ProcState::pack(layout, &extreme).unwrap();
            assert_eq!(packed.unpack(), extreme, "{layout:?} extreme {c}");
        }

        for case in 0..CASES {
            let at = format!("seed {SEED} case {case} {layout:?}");
            let mut rng = stream_rng(SEED, case);
            let parts = random_parts(&layout, &mut rng);
            let packed = ProcState::pack(layout, &parts).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(packed.unpack(), parts, "{at}");
            assert_eq!(packed.register_bits(), want_bits, "{at}");

            // The accessors agree with the unpacked fields one by one.
            let r = packed.fields();
            assert_eq!(r.pref(), parts.pref, "{at}");
            assert_eq!(r.current_coin(), parts.current_coin, "{at}");
            assert_eq!(r.next_coin_slot(), parts.next_coin_slot(), "{at}");
            for (slot, &c) in parts.coins.iter().enumerate() {
                assert_eq!(r.coin(slot), c, "{at} coin {slot}");
            }
            let mut row = vec![-1i64; layout.n()];
            r.edges_into(&mut row);
            for (j, &e) in parts.edges.iter().enumerate() {
                assert_eq!(r.edge(j), e, "{at} edge {j}");
                assert_eq!(row[j], e as i64, "{at} edge {j} (bulk)");
            }
            assert!(r == parts, "{at}: field-wise comparison");

            // Padding bits are zero.
            let words = r.words();
            assert_eq!(words.len(), layout.words(), "{at}");
            let used = (want_bits % 64) as u32;
            if used != 0 {
                assert_eq!(words[words.len() - 1] >> used, 0, "{at}: padding");
            }

            // Two states are `==` (and hash alike) iff their parts are.
            let mut other = if rng.gen() {
                parts.clone()
            } else {
                random_parts(&layout, &mut rng)
            };
            if rng.gen_range(0..4) == 0 {
                other.edges[0] = (other.edges[0] + 1) % (3 * layout.k());
            }
            let other_packed = ProcState::pack(layout, &other).unwrap();
            assert_eq!(packed == other_packed, parts == other, "{at}");
            if parts == other {
                assert_eq!(hash_of(&packed), hash_of(&other_packed), "{at}");
            }

            // From `edge_tail`'s word on, the first word masked, a register
            // is its edge row, ⌈log₂ 3K⌉ bits a counter from the row's
            // offset, and zero around it — so equal iff the rows are — and
            // blind to every other field.
            let (from, mask) = layout.edge_tail();
            let tail = |s: &ProcState| {
                let mut words = s.fields().words()[from..].to_vec();
                words[0] &= mask;
                words
            };
            let (row_words, width) = (tail(&packed), bits(3 * k - 1) as usize);
            let edges_at = (want_bits - n * width as u64) as usize;
            assert_eq!((from, mask), (edges_at / 64, !0 << (edges_at % 64)), "{at}");
            let base = edges_at % 64;
            let bit = |at: usize| row_words[at / 64] >> (at % 64) & 1;
            for (j, &e) in parts.edges.iter().enumerate() {
                let got = (0..width).fold(0, |v, b| v | bit(base + j * width + b) << b);
                assert_eq!(got, e as u64, "{at}: edge tail field {j}");
            }
            let mut pad = (0..base).chain(base + layout.n() * width..64 * row_words.len());
            assert!(pad.all(|at| bit(at) == 0), "{at}: edge tail padding");
            let same_row = ProcParts {
                edges: parts.edges.clone(),
                ..random_parts(&layout, &mut rng)
            };
            let same_row = ProcState::pack(layout, &same_row).unwrap();
            assert_eq!(tail(&same_row), tail(&packed), "{at}: same row");

            // `clone` and `clone_from` (into a narrower and a wider buffer).
            assert_eq!(packed.clone(), packed, "{at}");
            for other_n in [1, 70] {
                let mut dst = ProcState::phantom(RegisterLayout::new(other_n, 2, 10));
                dst.clone_from(&packed);
                assert_eq!(dst, packed, "{at}: clone_from n = {other_n}");
                assert_eq!(dst.unpack(), parts, "{at}: clone_from n = {other_n}");
            }
        }
    }
}

#[test]
fn an_out_of_domain_field_is_a_typed_error() {
    for layout in layouts() {
        let (cap, k) = (layout.m() + 1, layout.k());
        let ok = ProcParts::phantom(&layout);
        let with = |f: &dyn Fn(&mut ProcParts)| {
            let mut parts = ok.clone();
            f(&mut parts);
            ProcState::pack(layout, &parts).unwrap_err()
        };
        let last = layout.coin_slots() - 1;
        for value in [cap + 1, -cap - 1, i64::MAX, i64::MIN] {
            assert_eq!(
                with(&|p| p.coins[last] = value),
                PackError::Counter {
                    slot: last,
                    value,
                    cap
                },
                "{layout:?}"
            );
        }
        let j = layout.n() - 1;
        for value in [3 * k, u32::MAX] {
            assert_eq!(
                with(&|p| p.edges[j] = value),
                PackError::Edge {
                    j,
                    value,
                    modulus: 3 * k
                },
                "{layout:?}"
            );
        }
        assert_eq!(
            with(&|p| p.current_coin = k as usize + 1),
            PackError::Pointer {
                value: k as usize + 1,
                max: k as usize
            },
            "{layout:?}"
        );
        assert_eq!(
            with(&|p| p.coins.push(0)),
            PackError::CoinsLen {
                len: k as usize + 2,
                want: k as usize + 1
            },
            "{layout:?}"
        );
        assert_eq!(
            with(&|p| {
                p.edges.pop();
            }),
            PackError::EdgesLen {
                len: layout.n() - 1,
                want: layout.n()
            },
            "{layout:?}"
        );
        // The message names the field.
        for (err, field) in [
            (with(&|p| p.coins[0] = cap + 1), "coin counter"),
            (with(&|p| p.edges[0] = 3 * k), "edge counter"),
            (with(&|p| p.current_coin = 99), "coin pointer"),
        ] {
            assert!(err.to_string().contains(field), "{err}");
        }
    }
}

/// Everything `proc` publishes while it runs alone to its decision.
fn solo_messages<P: TurnProcess>(proc: P) -> Vec<P::Msg> {
    let mut seen = Vec::new();
    let report = TurnDriver::new(vec![proc]).run_observed(&mut RoundRobin::new(), 100_000, |d| {
        seen.push(d.shared()[0].clone())
    });
    assert!(report.completed);
    seen
}

/// `src` survives `clone` and `clone_from` into each of `dsts`.
fn assert_clones<T: Clone + PartialEq + std::fmt::Debug>(src: &T, dsts: &[&T]) {
    assert_eq!(&src.clone(), src);
    for &dst in dsts {
        let mut dst = dst.clone();
        dst.clone_from(src);
        assert_eq!(&dst, src);
    }
}

#[test]
fn composed_payloads_round_trip_through_clone_from() {
    let width = 8;
    let params = ConsensusParams::quick(1);
    let layout = params.layout();

    // MvStates with 0, 1, …, `width` levels.
    let mut by_levels = vec![MvState::phantom(layout)];
    for s in solo_messages(MvCore::new(params.clone(), 0, 0xA5, width, 3)) {
        if s.level_count() == by_levels.len() {
            by_levels.push(s);
        }
    }
    assert_eq!(by_levels.len(), width as usize + 1);
    let (none, one, full) = (&by_levels[0], &by_levels[1], &by_levels[width as usize]);
    assert_eq!((none.level_count(), none.levels().len()), (0, 0));
    assert!(none.level(0).is_none());
    assert_eq!(full.levels().len(), width as usize);
    for src in [none, one, full] {
        // Into a longer and a shorter destination (and an equal one).
        assert_clones(src, &[none, one, full]);
        let copy = src.clone();
        assert_eq!(copy.candidate(), src.candidate());
        for (a, b) in copy.levels().zip(src.levels()) {
            assert_eq!(a.unpack(), b.unpack());
        }
        assert!(copy.level(src.level_count()).is_none());
    }

    // LogMsgs of 0..=4 slots, and one with a phantom slot in the middle.
    let logs = solo_messages(LogCore::new(
        params,
        0,
        4,
        width,
        StaticProposals(vec![1, 2, 3, 4]),
        5,
    ));
    let empty = LogMsg { slots: Vec::new() };
    let first = logs.first().unwrap();
    let last = logs.last().unwrap();
    assert_eq!((first.slots.len(), last.slots.len()), (1, 4));
    let mut holed = last.clone();
    holed.slots[1] = MvState::phantom(layout);
    for src in [&empty, first, last, &holed] {
        assert_clones(src, &[&empty, first, last, &holed]);
    }
    assert_eq!(holed.slots[1].level_count(), 0);
    assert_ne!(&holed, last);
}

/// Layouts for the in-place counter write: K ∈ {2, 3}, n on each side of the
/// inline/heap edge (20 and 21 under `ConsensusParams::quick`), and counter
/// widths that put some counter across a 64-bit word boundary.
fn patch_layouts() -> Vec<RegisterLayout> {
    let mut out = Vec::new();
    for n in [1, 20, 21] {
        for k in [2, 3] {
            for m in [1, 10, 1_000_000] {
                out.push(RegisterLayout::new(n, k, m));
            }
        }
    }
    out
}

#[test]
fn an_in_place_counter_write_equals_a_full_pack() {
    let (mut straddled, mut inline, mut heap) = (false, false, false);
    for layout in patch_layouts() {
        let (k, cap) = (layout.k() as u64, layout.m() + 1);
        let width = bits(2 * layout.m() as u64 + 3);
        let coins_at = 2 + bits(k);
        if layout.words() <= 2 {
            inline = true;
        } else {
            heap = true;
        }
        for case in 0..CASES / 4 {
            let mut rng = stream_rng(SEED, 1000 + case);
            let parts = random_parts(&layout, &mut rng);
            for slot in 0..layout.coin_slots() {
                let at = coins_at + slot as u64 * width;
                straddled |= at / 64 != (at + width - 1) / 64;
                let mut values = vec![-cap, -cap + 1, -1, 0, 1, cap - 1, cap];
                values.push(rng.gen_range(-cap..=cap));
                for value in values {
                    let at = format!("seed {SEED} case {case} {layout:?} slot {slot} = {value}");
                    let mut want = parts.clone();
                    want.coins[slot] = value;
                    let want = ProcState::pack(layout, &want).unwrap();

                    // On a `ProcState`, inline or on the heap.
                    let mut patched = ProcState::pack(layout, &parts).unwrap();
                    patched.set_coin(slot, value).unwrap();
                    assert_eq!(patched, want, "{at}");
                    assert_eq!(hash_of(&patched), hash_of(&want), "{at}");

                    // On bare words.
                    let mut words = ProcState::pack(layout, &parts)
                        .unwrap()
                        .fields()
                        .words()
                        .to_vec();
                    layout.set_coin(&mut words, slot, value).unwrap();
                    assert_eq!(words, want.fields().words(), "{at}: words");
                }

                // Out of domain: refused, and nothing is written.
                let before = ProcState::pack(layout, &parts).unwrap();
                for value in [cap + 1, -cap - 1, i64::MAX, i64::MIN] {
                    let mut patched = before.clone();
                    assert_eq!(
                        patched.set_coin(slot, value),
                        Err(PackError::Counter { slot, value, cap }),
                        "{layout:?} slot {slot} = {value}"
                    );
                    assert_eq!(patched, before, "{layout:?} slot {slot} = {value}");
                }
            }
        }
    }
    assert!(straddled, "no layout put a counter across a word boundary");
    assert!(inline && heap, "both representations are covered");
}

#[test]
#[should_panic(expected = "coin slot out of range")]
fn an_in_place_write_past_the_last_slot_panics() {
    let layout = RegisterLayout::new(2, 2, 10);
    let _ = ProcState::phantom(layout).set_coin(3, 0);
}

/// Checks every register `inner` publishes against a full pack of the
/// fields the core computed it from.
struct Packed {
    inner: BoundedCore,
    writes: Rc<Cell<u64>>,
}

impl Packed {
    fn check(&self, msg: &ProcState) {
        let layout = self.inner.params().layout();
        let want = ProcState::pack(layout, self.inner.parts()).unwrap();
        assert_eq!(
            msg,
            &want,
            "pid {} write {}",
            self.inner.pid(),
            self.writes.get()
        );
        self.writes.set(self.writes.get() + 1);
    }
}

impl TurnProcess for Packed {
    type Msg = ProcState;
    type Out = bool;

    fn initial_msg(&mut self) -> ProcState {
        let msg = self.inner.initial_msg();
        self.check(&msg);
        msg
    }

    fn on_scan(&mut self, view: &[ProcState]) -> TurnStep<ProcState, bool> {
        let step = self.inner.on_scan(view);
        if let TurnStep::Write(msg) = &step {
            self.check(msg);
        }
        step
    }

    fn publish_telemetry(&self, m: &ProcMetrics<'_>) {
        self.inner.publish_telemetry(m);
    }
}

type Adversary = Box<dyn Strategy<Turn<ProcState>>>;

/// The release-mode twin of the core's `debug_assert`: every register a
/// core publishes, whether a walk step patched one counter into it or a
/// write repacked it, equals `ProcState::pack` of its parts.
#[test]
fn every_published_register_equals_a_full_pack() {
    for n in [1, 2, 3, 8, 21] {
        for seed in 0..2 {
            let adversaries: [(&str, Adversary); 2] = [
                ("random", Box::new(RandomStrategy::new(seed))),
                ("bsp", Box::new(TurnBsp::new())),
            ];
            for (name, mut adversary) in adversaries {
                let at = format!("n={n} seed={seed} {name}");
                let writes = Rc::default();
                let params = ConsensusParams::quick(n);
                let procs = (0..n)
                    .map(|p| Packed {
                        inner: BoundedCore::new(
                            params.clone(),
                            p,
                            p % 2 == 0,
                            seed * 100 + p as u64,
                        ),
                        writes: Rc::clone(&writes),
                    })
                    .collect();
                let report = TurnDriver::new(procs).run(&mut *adversary, 10_000_000);
                assert!(report.completed, "{at}: did not complete");
                assert_eq!(report.distinct_outputs().len(), 1, "{at}: disagreement");
                assert!(writes.get() > n as u64, "{at}: {} writes", writes.get());
                // Mixed inputs at n > 1 take walk steps: the patch is exercised.
                let flips = report.telemetry.total(Counter::CoinFlips);
                assert!(n == 1 || flips > 0, "{at}: no walk step");
            }
        }
    }
}

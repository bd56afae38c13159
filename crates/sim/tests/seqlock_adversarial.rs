//! Adversarial coverage for the lock-free register backings.
//!
//! `fast_reg` and `lane_reg` replace the `RwLock` cell with a word-packed
//! seqlock lane (`reg.rs`): `fast_reg` a lane of its own one-lane slab,
//! `lane_reg` a lane of a slab shared with its neighbours. `bit_reg` packs
//! a boolean into one bit of a shared word, written by an RMW. The lane's
//! one safety obligation is atomicity of the visible value: a reader must
//! never observe a mix of two different writes. A bit's is that neighbours
//! in one word never disturb each other and that a two-writer bit (an
//! arrow) shows the last write before each read. The locked cell `reg`
//! allocates carries a version token too, and its obligation is that a
//! current token never hides a write that has returned. These tests attack
//! them from three directions — real OS-thread races in free mode (on one
//! lane, across the adjacent version words of a shared slab, on the locked
//! cell's token, and across the bits of one word, arrow included),
//! adversarial lockstep schedules across many seeds, and a cross-backing
//! equivalence check (one-lane slab, shared-slab lane and packed bit, each
//! against the locked cell `reg` allocates) that the backing is invisible
//! to scheduling, telemetry, and history recording.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bprc_sim::sched::{RandomStrategy, RoundRobin};
use bprc_sim::world::{Mode, ProcBody, World};
use bprc_sim::{Counter, Reg, NO_VERSION};

/// A value whose two halves must always agree: the writer only ever stores
/// `(k, 3k)`, so any observed pair with `b != 3a` is a torn read.
fn pair(k: u64) -> (u64, u64) {
    (k, k.wrapping_mul(3))
}

fn assert_untorn(v: (u64, u64)) {
    assert_eq!(
        v.1,
        v.0.wrapping_mul(3),
        "torn read: observed ({}, {}) which is not of the form (k, 3k)",
        v.0,
        v.1
    );
}

/// Free-mode (real OS threads): one writer bursts pair-invariant values while
/// three readers hammer the register. Repeated across 100+ seeds so the
/// thread interleavings get many chances to line up badly.
#[test]
fn free_threads_never_observe_torn_pairs_across_seeds() {
    for seed in 0..110u64 {
        let mut w = World::builder(4)
            .mode(Mode::Free)
            .step_limit(u64::MAX)
            .build();
        let r = w.fast_reg("pair", pair(0));
        assert!(r.is_fast(), "(u64,u64) must take a seqlock lane");
        let writer = {
            let r = r.clone();
            let b: ProcBody<()> = Box::new(move |ctx| {
                for k in 1..=60u64 {
                    r.write(ctx, pair(seed.wrapping_mul(1000) + k))?;
                }
                Ok(())
            });
            b
        };
        let readers = (0..3).map(|_| {
            let r = r.clone();
            let b: ProcBody<()> = Box::new(move |ctx| {
                for _ in 0..60 {
                    assert_untorn(r.read(ctx)?);
                }
                Ok(())
            });
            b
        });
        let mut bodies = vec![writer];
        bodies.extend(readers);
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.decided_count(), 4, "seed {seed}: all bodies finish");
        assert_untorn(r.peek());
    }
}

/// Free-mode races across one shared slab, laid out as the snapshot layer
/// lays out its value registers: pids 0 and 1 each publish increasing
/// `pair(k)` to their own lane of `value_slab(4, 2)` (so two writers bump
/// adjacent version words), while pids 2 and 3 sweep all four lanes,
/// alternating plain reads with version-token reads. Every pair read must
/// be untorn, each lane's `k` must never go backwards within one reader,
/// and a token read that skips its closure must hand back the cached token.
#[test]
fn free_threads_race_a_shared_slab_without_tearing_or_regressing() {
    const LANES: usize = 4;
    const WRITES: u64 = 300;
    for seed in 0..110u64 {
        let mut w = World::builder(4)
            .mode(Mode::Free)
            .step_limit(u64::MAX)
            .build();
        let slab = w.value_slab(LANES, 2);
        let regs: Vec<Reg<(u64, u64)>> = (0..LANES)
            .map(|lane| w.lane_reg(&slab, lane, format!("V_{lane}"), pair(0)))
            .collect();
        let last_k = seed * 1000 + WRITES;
        let bodies: Vec<ProcBody<()>> = (0..4)
            .map(|pid| {
                let regs = regs.clone();
                let b: ProcBody<()> = if pid < 2 {
                    Box::new(move |ctx| {
                        for k in seed * 1000 + 1..=last_k {
                            regs[pid].write(ctx, pair(k))?;
                        }
                        Ok(())
                    })
                } else {
                    // Sweep until both writers' last values show, so the
                    // readers overlap the writers however the OS starts them.
                    Box::new(move |ctx| {
                        let mut seen_k = [0u64; LANES];
                        let mut token = [NO_VERSION; LANES];
                        for sweep in 0.. {
                            if seen_k[..2] == [last_k; 2] {
                                break;
                            }
                            for (lane, r) in regs.iter().enumerate() {
                                let seen = if sweep % 2 == 0 {
                                    Some(r.read(ctx)?)
                                } else {
                                    let mut got = None;
                                    let t = r.read_changed(ctx, token[lane], |v| got = Some(*v))?;
                                    if got.is_none() {
                                        assert_eq!(t, token[lane], "a skip must keep the token");
                                    }
                                    token[lane] = t;
                                    got
                                };
                                if let Some(v) = seen {
                                    assert_untorn(v);
                                    assert!(
                                        v.0 >= seen_k[lane],
                                        "lane {lane} went back from k = {} to {}",
                                        seen_k[lane],
                                        v.0
                                    );
                                    seen_k[lane] = v.0;
                                }
                            }
                        }
                        Ok(())
                    })
                };
                b
            })
            .collect();
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.decided_count(), 4, "seed {seed}: {:?}", rep.panics);
        for (lane, r) in regs.iter().enumerate() {
            let want = if lane < 2 { last_k } else { 0 };
            assert_eq!(r.peek(), pair(want), "seed {seed}: lane {lane}");
        }
    }
}

/// Free-mode race on the locked cell's version token. Pid 0 waits until
/// every reader holds a token, then writes `1..=WRITES` to a `World::reg`
/// (locked) register and, after each write returns, stores the value to a
/// `SeqCst` counter. Pids 1–3 read with
/// cached tokens, keeping the last value a read handed them as a collect
/// keeps its buffer. A write is published by its version bump, so a reader
/// that has loaded `k` from the counter must then hold at least `k`: a
/// stale token that still matched would leave it an older value. No
/// reader's values may go backwards, and a skip hands back the cached
/// token. Readers report the first violation and stop, so a broken cell
/// cannot leave one spinning.
#[test]
fn free_threads_race_the_locked_cells_version_token() {
    const WRITES: u64 = 2_000;
    for seed in 0..20u64 {
        let mut w = World::builder(4)
            .mode(Mode::Free)
            .step_limit(u64::MAX)
            .build();
        let r = w.reg("V", 0u64);
        assert!(!r.is_fast(), "World::reg must take the locked cell");
        let published = Arc::new(AtomicU64::new(0));
        let ready = Arc::new(AtomicU64::new(0));
        let bodies: Vec<ProcBody<Option<String>>> = (0..4)
            .map(|pid| {
                let (r, published) = (r.clone(), Arc::clone(&published));
                let ready = Arc::clone(&ready);
                let b: ProcBody<Option<String>> = if pid == 0 {
                    Box::new(move |ctx| {
                        while ready.load(Ordering::SeqCst) < 3 {
                            std::thread::yield_now();
                        }
                        for k in 1..=WRITES {
                            r.write(ctx, k)?;
                            published.store(k, Ordering::SeqCst);
                        }
                        Ok(None)
                    })
                } else {
                    Box::new(move |ctx| {
                        let mut held = 0u64;
                        let mut token = r.read_changed(ctx, NO_VERSION, |v| held = *v)?;
                        ready.fetch_add(1, Ordering::SeqCst);
                        while held < WRITES {
                            let k = published.load(Ordering::SeqCst);
                            let mut got = None;
                            let t = r.read_changed(ctx, token, |v| got = Some(*v))?;
                            let v = match got {
                                Some(v) => v,
                                None if t != token => {
                                    return Ok(Some(format!(
                                        "a skip changed the token {token} to {t}"
                                    )))
                                }
                                None => held,
                            };
                            if v < k || v < held {
                                return Ok(Some(format!(
                                    "read {v} after loading {k} from the counter, holding {held}"
                                )));
                            }
                            (held, token) = (v, t);
                        }
                        Ok(None)
                    })
                };
                b
            })
            .collect();
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.decided_count(), 4, "seed {seed}: {:?}", rep.panics);
        for (pid, out) in rep.outputs.iter().enumerate() {
            let bad = out.as_ref().expect("every body finished");
            assert_eq!(*bad, None, "seed {seed}, pid {pid}");
        }
        assert_eq!(r.peek(), WRITES, "seed {seed}");
    }
}

/// Free-mode races on the packed bits, all on one 64-bit word (a world's
/// first 64 `bit_reg`s share word 0 of its first chunk). Bit 2 is a
/// two-writer arrow as `bprc-registers`' `DirectArrow` builds it (raise =
/// write `true`, lower = write `false`, check = read): pid 0 lowers and
/// checks, pid 1 raises. Pids 2 and 3 own bits 0–1 and 3–4 and rewrite them
/// for as long as the arrow traffic lasts, repeating a value every other
/// write, so writes that flip a bit and writes that keep it both race the
/// arrow's. Each epoch:
///
/// - pid 0 lowers (every third epoch twice, the second a lower of a
///   lowered arrow), checks, and publishes the epoch; the lower began after
///   pid 1's raises of the last epoch returned, so the arrow must read
///   lowered;
/// - pid 1 waits for that epoch, raises 0, 1 or 2 times (the second a
///   raise of a raised arrow) and acknowledges;
/// - pid 0 waits for the acknowledgement and checks again: a raise that
///   began after the lower returned must be seen.
///
/// Neighbours read back every write of their own bits. Bodies report
/// violations instead of panicking, so a failure cannot leave a peer
/// waiting on an epoch forever.
#[test]
fn free_threads_race_packed_bits_on_one_word() {
    const EPOCHS: u64 = 40;
    for seed in 0..110u64 {
        let mut w = World::builder(4)
            .mode(Mode::Free)
            .step_limit(u64::MAX)
            .build();
        let bits: Vec<Reg<bool>> = (0..5).map(|b| w.bit_reg(format!("b{b}"), false)).collect();
        let arrow = bits[2].clone();
        let lowered = w.fast_reg("lowered", 0u64);
        let acked = w.fast_reg("acked", 0u64);
        let scanner: ProcBody<Vec<String>> = {
            let (arrow, lowered, acked) = (arrow.clone(), lowered.clone(), acked.clone());
            Box::new(move |ctx| {
                let mut bad = Vec::new();
                for e in 1..=EPOCHS {
                    arrow.write(ctx, false)?;
                    if e % 3 == 0 {
                        arrow.write(ctx, false)?;
                    }
                    if arrow.read(ctx)? {
                        bad.push(format!(
                            "epoch {e}: a lower after a raise left the arrow raised"
                        ));
                    }
                    lowered.write(ctx, e)?;
                    let raises = loop {
                        let a = acked.read(ctx)?;
                        if a >> 2 == e {
                            break a & 3;
                        }
                        std::thread::yield_now();
                    };
                    if arrow.read(ctx)? != (raises > 0) {
                        bad.push(format!(
                            "epoch {e}: {raises} raise(s) after the lower, check disagrees"
                        ));
                    }
                }
                Ok(bad)
            })
        };
        let writer: ProcBody<Vec<String>> = {
            let (arrow, lowered, acked) = (arrow.clone(), lowered.clone(), acked.clone());
            Box::new(move |ctx| {
                for e in 1..=EPOCHS {
                    while lowered.read(ctx)? != e {
                        std::thread::yield_now();
                    }
                    let raises = (seed + e) % 3;
                    for _ in 0..raises {
                        arrow.write(ctx, true)?;
                    }
                    acked.write(ctx, e << 2 | raises)?;
                }
                Ok(Vec::new())
            })
        };
        let neighbour = |own: [usize; 2]| -> ProcBody<Vec<String>> {
            let (bits, acked) = (bits.clone(), acked.clone());
            Box::new(move |ctx| {
                let mut bad = Vec::new();
                for t in 0u64.. {
                    for (i, &b) in own.iter().enumerate() {
                        let v = (t + i as u64 + seed) / 2 % 2 == 1;
                        bits[b].write(ctx, v)?;
                        if bits[b].read(ctx)? != v {
                            bad.push(format!("bit {b} lost its owner's write at round {t}"));
                        }
                    }
                    if acked.read(ctx)? >> 2 == EPOCHS {
                        break;
                    }
                    std::thread::yield_now();
                }
                Ok(bad)
            })
        };
        let bodies = vec![scanner, writer, neighbour([0, 1]), neighbour([3, 4])];
        let rep = w.run(bodies, Box::new(RoundRobin::new()));
        assert_eq!(rep.decided_count(), 4, "seed {seed}: {:?}", rep.panics);
        for (pid, out) in rep.outputs.iter().enumerate() {
            let bad = out.as_ref().expect("every body finished");
            assert!(bad.is_empty(), "seed {seed}, pid {pid}: {bad:?}");
        }
        let last_raises = (seed + EPOCHS) % 3;
        assert_eq!(arrow.peek(), last_raises > 0, "seed {seed}: final arrow");
    }
}

/// Lockstep with a randomized adversary across 100+ seeds: the writer bursts
/// mid-run while readers interleave at every granted step. Lockstep grants
/// ops one at a time, so this checks the seqlock lane preserves per-op
/// atomicity under every schedule the adversary picks — and that `peek`
/// (which bypasses scheduling entirely) also never sees a torn pair.
#[test]
fn random_lockstep_schedules_never_observe_torn_pairs() {
    for seed in 0..120u64 {
        let mut w = World::builder(3).build();
        let r = w.fast_reg("pair", pair(0));
        let writer = {
            let r = r.clone();
            let b: ProcBody<()> = Box::new(move |ctx| {
                for k in 1..=20u64 {
                    r.write(ctx, pair(k))?;
                }
                Ok(())
            });
            b
        };
        let readers = (0..2).map(|_| {
            let r = r.clone();
            let b: ProcBody<()> = Box::new(move |ctx| {
                for _ in 0..20 {
                    assert_untorn(r.read(ctx)?);
                }
                Ok(())
            });
            b
        });
        let mut bodies = vec![writer];
        bodies.extend(readers);
        let rep = w.run(bodies, Box::new(RandomStrategy::new(seed)));
        assert_eq!(rep.decided_count(), 3, "seed {seed}");
        assert_untorn(r.peek());
    }
}

/// The backing is a memory representation only: the same seeded run on a
/// seqlock lane (`fast_reg`) and on the locked cell (`reg`) must produce
/// identical outputs, step counts, telemetry counters, and recorded
/// histories.
#[test]
fn seqlock_and_locked_cells_are_observationally_identical() {
    let run = |alloc: fn(&World) -> Reg<(u64, u64)>, seed: u64| {
        let mut w = World::builder(3).build();
        let r = alloc(&w);
        let bodies: Vec<ProcBody<u64>> = (0..3)
            .map(|i| {
                let r = r.clone();
                let b: ProcBody<u64> = Box::new(move |ctx| {
                    for k in 1..=12u64 {
                        r.write(ctx, pair(i as u64 * 100 + k))?;
                        let v = r.read(ctx)?;
                        assert_untorn(v);
                    }
                    Ok(r.read(ctx)?.0)
                });
                b
            })
            .collect();
        let rep = w.run(bodies, Box::new(RandomStrategy::new(seed)));
        let ops: Vec<_> = rep.history.as_ref().unwrap().ops().collect();
        let reads: Vec<u64> = (0..3)
            .map(|p| rep.telemetry.counter(p, Counter::RegReads))
            .collect();
        let writes: Vec<u64> = (0..3)
            .map(|p| rep.telemetry.counter(p, Counter::RegWrites))
            .collect();
        (rep.outputs.clone(), rep.steps, ops, reads, writes)
    };
    for seed in [0, 1, 7, 42, 99] {
        let fast = run(|w| w.fast_reg("pair", pair(0)), seed);
        let locked = run(|w| w.reg("pair", pair(0)), seed);
        assert_eq!(
            fast, locked,
            "seed {seed}: backing changed observable behaviour"
        );
    }
}

/// Per-schedule observables of one explored run: outputs, step count,
/// recorded history.
type Fingerprint = (Vec<Option<u64>>, u64, String);

/// Enumerates every interleaving of a writer storing `vals[1..]` into the
/// register `alloc` makes (initially `vals[0]`) against a reader reading it
/// three times (n=2 DFS via `bprc_sim::explore`). `encode` flattens a read
/// value to a digit — and may assert it untorn — so the reader's output
/// spells out everything it saw.
fn explore_cell<T: Clone + Send + Sync + 'static>(
    what: &str,
    alloc: impl Fn(&World, T) -> Reg<T>,
    vals: [T; 4],
    encode: fn(T) -> u64,
) -> (Vec<Fingerprint>, u64) {
    use bprc_sim::explore::{explore, ExploreConfig};

    let factory = || {
        let w = World::builder(2).build();
        let r = alloc(&w, vals[0].clone());
        let writer = {
            let r = r.clone();
            let stores = vals[1..].to_vec();
            let b: ProcBody<u64> = Box::new(move |ctx| {
                for v in stores {
                    r.write(ctx, v)?;
                }
                Ok(0)
            });
            b
        };
        let reader: ProcBody<u64> = Box::new(move |ctx| {
            let mut seen = 0;
            for _ in 0..3 {
                seen = seen * 10 + encode(r.read(ctx)?);
            }
            Ok(seen)
        });
        (w, vec![writer, reader])
    };
    let mut fingerprints: Vec<Fingerprint> = Vec::new();
    let rep = explore(&ExploreConfig::default(), factory, |r| {
        fingerprints.push((
            r.outputs.clone(),
            r.steps,
            r.history.as_ref().unwrap().to_jsonl(),
        ));
        None
    });
    assert!(rep.exhausted, "{what}: space must be enumerated");
    assert!(rep.violation.is_none());
    (fingerprints, rep.schedules)
}

/// Exhaustive schedule exploration of every lock-free backing against the
/// locked cell: along *all* schedules of the bounded workload — not just
/// sampled seeds — a one-lane slab (`fast_reg`), a shared-slab lane
/// (`lane_reg`) and a packed bit (`bit_reg`) yield untorn reads and
/// per-schedule observables identical to `reg`'s, schedule by schedule.
/// The arrows are always bit-packed and `alloc_fast` always takes lanes, so
/// this is where those two backings meet their locked oracle.
#[test]
fn exhaustive_exploration_is_backing_invariant() {
    let pairs = [pair(0), pair(1), pair(2), pair(3)];
    let pair_digit = |v: (u64, u64)| {
        assert_untorn(v);
        v.0
    };
    let (locked, locked_n) = explore_cell("reg", |w, v| w.reg("cell", v), pairs, pair_digit);
    // 3 writes vs 3 reads of one register: C(6,3) = 20 interleavings, all
    // dependent (no pruning applies between a write and anything).
    assert_eq!(locked_n, 20, "writer/reader pair has C(6,3) schedules");
    let (fast, fast_n) = explore_cell(
        "fast_reg",
        |w, v| {
            let r = w.fast_reg("cell", v);
            assert!(r.is_fast() && !r.is_bit());
            r
        },
        pairs,
        pair_digit,
    );
    let (lane, lane_n) = explore_cell(
        "lane_reg",
        |w, v| {
            let r = w.lane_reg(&w.value_slab(2, 2), 1, "cell", v);
            assert!(r.is_fast() && !r.is_bit());
            r
        },
        pairs,
        pair_digit,
    );
    assert_eq!((fast_n, lane_n), (locked_n, locked_n));
    assert_eq!(fast, locked, "some schedule tells a one-lane slab from reg");
    assert_eq!(lane, locked, "some schedule tells a slab lane from reg");

    let bits = [false, true, false, true];
    let (locked_bit, locked_bit_n) =
        explore_cell("reg<bool>", |w, v| w.reg("cell", v), bits, u64::from);
    let (bit, bit_n) = explore_cell(
        "bit_reg",
        |w, v| {
            let r = w.bit_reg("cell", v);
            assert!(r.is_bit());
            r
        },
        bits,
        u64::from,
    );
    assert_eq!(bit_n, locked_bit_n);
    assert_eq!(bit, locked_bit, "some schedule tells a packed bit from reg");
}

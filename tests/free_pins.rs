//! Pins of solo free-mode runs: one live process makes its updates and
//! scans on free threads while the others return at once, so nothing races
//! and every figure is a pure function of the code. Each case pins every
//! counter total, the steps (world and per process) and the flight ring,
//! as an event count plus an FNV-1a digest of each event's
//! `(pid, step, kind, arg)` — the step stamps included, so a change in how
//! a process leases its steps or where it stamps its ring events shows
//! here even when every count holds.

use bprc::core::bounded::ConsensusParams;
use bprc::core::multishot::{LogCore, LogMsg, StaticProposals};
use bprc::core::threaded::over_snapshot;
use bprc::registers::{ArrowCell, DirectArrow, HandshakeArrow};
use bprc::sim::sched::RoundRobin;
use bprc::sim::world::{ProcBody, RunReport};
use bprc::sim::{Counter, Mode, World};
use bprc::snapshot::ScannableMemory;

/// What a case pins: every counter total (in `Counter::ALL` order), the
/// world's steps, the steps per process, the ring's event count and its
/// digest.
type Pinned = (Vec<u64>, u64, Vec<u64>, usize, u64);

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

fn pinned<T>(rep: &RunReport<T>) -> Pinned {
    let totals = Counter::ALL
        .iter()
        .map(|&c| rep.telemetry.total(c))
        .collect();
    let mut digest = 0xcbf29ce484222325u64;
    let mut events = 0;
    for pid in 0..rep.per_proc_steps.len() {
        assert_eq!(rep.flight.overflow(pid), 0, "the ring kept every event");
        for e in rep.flight.events(pid) {
            events += 1;
            for word in [e.pid as u64, e.step, e.kind as u64, e.arg] {
                digest = fnv1a(digest, &word.to_le_bytes());
            }
        }
    }
    (
        totals,
        rep.steps,
        rep.per_proc_steps.clone(),
        events,
        digest,
    )
}

/// Process 0 alone makes three rounds of one update and two scans; the
/// rest return at once.
fn solo_scans<A: ArrowCell>(n: usize, lanes: bool) -> Pinned {
    let mut world = World::builder(n)
        .mode(Mode::Free)
        .step_limit(u64::MAX)
        .build();
    let mem = if lanes {
        ScannableMemory::<u64, A>::new_fast(&world, n, 0)
    } else {
        ScannableMemory::<u64, A>::new(&world, n, 0)
    };
    let mut port = mem.port(0);
    let mut bodies: Vec<ProcBody<Vec<u64>>> = vec![Box::new(move |ctx| {
        let mut view = Vec::new();
        for v in 1..=3 {
            port.update(ctx, v * 10)?;
            port.scan_into(ctx, &mut view)?;
            port.scan_into(ctx, &mut view)?;
        }
        Ok(view)
    })];
    bodies.extend((1..n).map(|_| -> ProcBody<Vec<u64>> { Box::new(|_| Ok(Vec::new())) }));
    let rep = world.run(bodies, Box::new(RoundRobin::new()));
    let mut want = vec![0; n];
    want[0] = 30;
    assert_eq!(rep.outputs[0], Some(want));
    pinned(&rep)
}

/// Replica 0 of a two-replica log appends its four slots alone through
/// the register-level bridge; replica 1 returns at once.
fn solo_log() -> Pinned {
    let mut world = World::builder(2)
        .mode(Mode::Free)
        .step_limit(u64::MAX)
        .build();
    let procs: Vec<LogCore<StaticProposals>> = (0..2)
        .map(|p| {
            let mine = (0..4)
                .map(|s| (p * 37 + s * 11 + 5) as u64 & 0xFF)
                .collect();
            LogCore::new(
                ConsensusParams::quick(2),
                p,
                4,
                8,
                StaticProposals(mine),
                90 + p as u64,
            )
        })
        .collect();
    let (_mem, mut bodies) = over_snapshot::<_, ScannableMemory<_, DirectArrow>>(
        &world,
        procs,
        LogMsg { slots: Vec::new() },
    );
    bodies.truncate(1);
    bodies.push(Box::new(|_| Ok(Vec::new())));
    let rep = world.run(bodies, Box::new(RoundRobin::new()));
    assert_eq!(rep.outputs[0], Some(vec![5, 16, 27, 38]));
    pinned(&rep)
}

#[test]
fn solo_free_scans_are_pinned() {
    let cases: Vec<(&str, usize, bool, Pinned)> = vec![
        (
            "direct",
            2,
            true,
            (
                vec![
                    18, 12, 6, 6, 12, 0, 0, 3, 3, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                ],
                30,
                vec![30, 0],
                33,
                17927983208437628763,
            ),
        ),
        (
            "handshake",
            2,
            true,
            (
                vec![
                    33, 12, 6, 6, 12, 0, 0, 3, 3, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                ],
                45,
                vec![45, 0],
                33,
                14035231207861462720,
            ),
        ),
        (
            "direct",
            2,
            false,
            (
                vec![
                    18, 12, 6, 6, 12, 0, 0, 3, 3, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                ],
                30,
                vec![30, 0],
                33,
                17927983208437628763,
            ),
        ),
        (
            "handshake",
            2,
            false,
            (
                vec![
                    33, 12, 6, 6, 12, 0, 0, 3, 3, 6, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                ],
                45,
                vec![45, 0],
                33,
                14035231207861462720,
            ),
        ),
        (
            "direct",
            3,
            true,
            (
                vec![
                    36, 21, 6, 6, 24, 0, 0, 3, 6, 12, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0,
                ],
                57,
                vec![57, 0, 0],
                42,
                12311048029111426544,
            ),
        ),
        (
            "handshake",
            3,
            true,
            (
                vec![
                    66, 21, 6, 6, 24, 0, 0, 3, 6, 12, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0,
                ],
                87,
                vec![87, 0, 0],
                42,
                15294010365646038622,
            ),
        ),
        (
            "direct",
            3,
            false,
            (
                vec![
                    36, 21, 6, 6, 24, 0, 0, 3, 6, 12, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0,
                ],
                57,
                vec![57, 0, 0],
                42,
                12311048029111426544,
            ),
        ),
        (
            "handshake",
            3,
            false,
            (
                vec![
                    66, 21, 6, 6, 24, 0, 0, 3, 6, 12, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0,
                ],
                87,
                vec![87, 0, 0],
                42,
                15294010365646038622,
            ),
        ),
        (
            "direct",
            32,
            true,
            (
                vec![
                    558, 282, 6, 6, 372, 0, 0, 3, 93, 186, 186, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0, 0, 0,
                ],
                840,
                vec![
                    840, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0, 0, 0, 0, 0, 0,
                ],
                303,
                6005693883374804680,
            ),
        ),
        (
            "handshake",
            32,
            true,
            (
                vec![
                    1023, 282, 6, 6, 372, 0, 0, 3, 93, 186, 186, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0, 0, 0, 0,
                ],
                1305,
                vec![
                    1305, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0, 0, 0, 0, 0, 0, 0,
                ],
                303,
                17359855183474991596,
            ),
        ),
        (
            "direct",
            32,
            false,
            (
                vec![
                    558, 282, 6, 6, 372, 0, 0, 3, 93, 186, 186, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0, 0, 0,
                ],
                840,
                vec![
                    840, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0, 0, 0, 0, 0, 0,
                ],
                303,
                6005693883374804680,
            ),
        ),
        (
            "handshake",
            32,
            false,
            (
                vec![
                    1023, 282, 6, 6, 372, 0, 0, 3, 93, 186, 186, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0, 0, 0, 0,
                ],
                1305,
                vec![
                    1305, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                    0, 0, 0, 0, 0, 0, 0,
                ],
                303,
                17359855183474991596,
            ),
        ),
    ];
    for (arrow, n, lanes, want) in cases {
        let got = match arrow {
            "direct" => solo_scans::<DirectArrow>(n, lanes),
            _ => solo_scans::<HandshakeArrow>(n, lanes),
        };
        assert_eq!(
            got, want,
            "{arrow} n = {n}, lanes = {lanes}: pinned figures changed"
        );
    }
}

#[test]
fn a_solo_free_log_is_pinned() {
    let want: Pinned = (
        vec![
            288, 288, 96, 96, 192, 0, 0, 96, 96, 96, 96, 0, 0, 64, 0, 64, 0, 0, 1, 0, 0, 0, 0, 0,
            0, 0,
        ],
        576,
        vec![576, 0],
        738,
        11407353838538028152,
    );
    assert_eq!(solo_log(), want, "pinned figures changed");
}

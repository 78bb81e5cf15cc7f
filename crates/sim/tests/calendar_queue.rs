//! Differential proptests: the dyadic radix [`CalendarQueue`] must pop
//! **byte-identical** event sequences to the comparison-based
//! [`EventHeap`] oracle on adversarial streams — duplicate timestamps,
//! off-grid rationals that take the overflow heap, extreme exponents
//! that stress the high radix buckets, and arbitrary push/pop
//! interleavings (including pushes behind the popped frontier, which
//! the engine never produces but the queue must survive).
//!
//! Because the `(at, seq, id)` key is unique per event, any correct
//! priority queue pops the same sequence; these tests are what lets the
//! engine swap queue implementations without a bit of output changing.

use proptest::prelude::*;
use rigid_dag::TaskId;
use rigid_sim::calendar::{CalendarQueue, Event, EventHeap};
use rigid_time::Time;

/// One element of a generated stream: push event #k, or pop once.
#[derive(Clone, Debug)]
enum Op {
    Push(Event),
    Pop,
}

/// Builds one adversarial `Time` from a drawn `(kind, m, e, d)` tuple:
/// duplicate-prone dense dyadic grids, wide exponent ranges, the key's
/// coverage edges, oversized mantissas, and off-grid rationals.
fn mixed_time(kind: u8, m: i64, e: i32, d: i64) -> Time {
    match kind {
        // Dense dyadic grid — many duplicate timestamps.
        0 | 1 => Time::from_ratio(m % 16, 1i64 << (e.unsigned_abs() % 4)),
        // Wide exponent range, stressing bucket settling.
        2 => Time::from_dyadic(m, e % 50),
        // Extreme exponents at the key's coverage edge.
        3 => Time::from_dyadic(1 + m % 3, [-126, -125, 120][e.rem_euclid(3) as usize]),
        // 57-bit and oversized mantissas (the latter overflow the key
        // and take the exact overflow path despite being dyadic).
        4 => Time::from_dyadic((1i64 << 56) | (1 << (m % 8)), -30),
        5 => Time::from_dyadic(i64::MAX - m, 0),
        // Off-grid rationals — the exact-`Rational` overflow path.
        6 => Time::from_ratio(m % 1_000, d),
        _ => Time::ZERO,
    }
}

fn arb_times(max_len: usize) -> impl Strategy<Value = Vec<Time>> {
    prop::collection::vec(
        (0u8..8, 0i64..1_000_000, -126i32..121, 1i64..100),
        0..max_len,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, m, e, d)| mixed_time(kind, m, e, d))
            .collect()
    })
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // kind 8 and 9 are pops; the rest push a mixed-time event.
    prop::collection::vec((0u8..10, 0i64..1_000_000, -126i32..121, 1i64..100), 0..200).prop_map(
        |raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (kind, m, e, d))| {
                    if kind >= 8 {
                        Op::Pop
                    } else {
                        Op::Push(Event {
                            at: mixed_time(kind, m, e, d),
                            seq: i as u64,
                            id: TaskId(i as u32),
                            procs: 1 + (i as u32 % 7),
                            fails: i % 5 == 0,
                        })
                    }
                })
                .collect()
        },
    )
}

proptest! {
    /// Push-all-pop-all: the calendar's full drain equals the heap's.
    #[test]
    fn drain_order_identical(times in arb_times(300)) {
        let mut cal = CalendarQueue::new();
        let mut heap = EventHeap::default();
        for (i, &at) in times.iter().enumerate() {
            let e = Event {
                at,
                seq: i as u64,
                id: TaskId(i as u32),
                procs: 1,
                fails: false,
            };
            cal.push(e);
            heap.push(e);
        }
        prop_assert_eq!(cal.len(), times.len());
        loop {
            let want = heap.pop();
            prop_assert_eq!(cal.peek().copied(), want.clone());
            prop_assert_eq!(cal.pop(), want.clone());
            if want.is_none() {
                break;
            }
        }
        prop_assert!(cal.is_empty());
        prop_assert_eq!(cal.pushes(), times.len() as u64);
        prop_assert_eq!(cal.pops(), times.len() as u64);
    }

    /// Arbitrary interleavings of pushes and pops stay identical, and a
    /// reused (cleared) queue behaves exactly like a fresh one.
    #[test]
    fn interleaved_ops_identical(ops in arb_ops()) {
        let mut cal = CalendarQueue::new();
        cal.push(Event {
            at: Time::from_int(1_000_000),
            seq: u64::MAX,
            id: TaskId(u32::MAX),
            procs: 1,
            fails: false,
        });
        cal.clear();
        let mut heap = EventHeap::default();
        for op in &ops {
            match op {
                Op::Push(e) => {
                    cal.push(*e);
                    heap.push(*e);
                }
                Op::Pop => {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        while let Some(want) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(want));
        }
        prop_assert!(cal.is_empty());
    }

    /// Cohort draining partitions the stream by timestamp: each batch
    /// holds exactly the events at one instant, in `seq` order, and the
    /// concatenation equals the heap's pop order.
    #[test]
    fn cohorts_partition_by_timestamp(times in arb_times(200)) {
        let mut cal = CalendarQueue::new();
        let mut heap = EventHeap::default();
        for (i, &at) in times.iter().enumerate() {
            let e = Event {
                at,
                seq: i as u64,
                id: TaskId(i as u32),
                procs: 1,
                fails: false,
            };
            cal.push(e);
            heap.push(e);
        }
        let mut cohort = Vec::new();
        let mut last_at: Option<Time> = None;
        let mut drained = 0usize;
        while let Some(at) = cal.pop_cohort_into(&mut cohort) {
            // Strictly increasing batch timestamps.
            if let Some(prev) = last_at {
                prop_assert!(at > prev);
            }
            last_at = Some(at);
            prop_assert!(!cohort.is_empty());
            for e in &cohort {
                prop_assert_eq!(e.at, at);
                let want = heap.pop().expect("heap has the same events");
                prop_assert_eq!(*e, want);
            }
            drained += cohort.len();
        }
        prop_assert_eq!(drained, times.len());
        prop_assert!(heap.pop().is_none());
    }

    /// The fallback counter is exact: it equals the number of pushed
    /// timestamps without a dyadic key (the engine's pure-dyadic
    /// scenarios must therefore report zero).
    #[test]
    fn fallback_count_matches_unkeyable_times(times in arb_times(200)) {
        let mut cal = CalendarQueue::new();
        let unkeyable = times.iter().filter(|t| t.dyadic_key().is_none()).count();
        for (i, &at) in times.iter().enumerate() {
            cal.push(Event {
                at,
                seq: i as u64,
                id: TaskId(i as u32),
                procs: 1,
                fails: false,
            });
        }
        // Push-all-then-pop never retreats the frontier, so the only
        // fallbacks are the unkeyable timestamps themselves.
        prop_assert_eq!(cal.fallbacks(), unkeyable as u64);
    }
}

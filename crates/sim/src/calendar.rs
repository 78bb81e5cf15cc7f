//! The dyadic radix calendar queue: the engine's completion-event
//! priority queue.
//!
//! The paper's category machinery lives on dyadic grid points `λ·2^χ`,
//! and every workload generator snaps task lengths onto the `2^-20`
//! grid — so almost every timestamp the engine queues is an on-grid
//! [`Time`] with a monotone integer image ([`Time::dyadic_key`]).
//! Ordering those events through a comparison-based heap pays an exact
//! `Time` comparison per sift step; this queue instead **buckets** them
//! by key into a radix structure (a hierarchical timing wheel collapsed
//! onto the bits of the key) where push and pop are amortized O(1)
//! integer operations:
//!
//! * **push** computes the event's key once and drops the event into
//!   the bucket indexed by the highest bit in which the key differs
//!   from the last popped key (`key == last` lands in bucket 0, the
//!   current cohort);
//! * **pop** takes the front of bucket 0; when bucket 0 runs dry, the
//!   lowest non-empty bucket is *settled*: its minimum key becomes the
//!   new `last` and its entries redistribute into strictly lower
//!   buckets (the radix-heap invariant), so every event moves down a
//!   bounded number of times over its lifetime;
//! * **off-grid timestamps** — rational-variant times, negative times,
//!   oversized mantissas — go to a small exact-`Rational` overflow heap
//!   (the [`EventHeap`] this queue replaced) and merge back in at pop
//!   time by exact `Time` comparison.
//!
//! Because [`Time::dyadic_key`] is injective and monotone on its
//! coverage, and equal values always agree on keyed-ness (canonical
//! representation invariant), the merged pop order is **byte-identical**
//! to a comparison heap over the `(at, seq, id)` key — the differential
//! proptests in `tests/calendar_queue.rs` enforce exactly that on
//! adversarial mixed dyadic/rational streams.
//!
//! Same-timestamp events form a *cohort* (bucket 0): the engine drains
//! a whole cohort per decision instant through
//! [`CalendarQueue::pop_cohort_into`] and consults the scheduler once
//! per time point, which is CatBatch's natural batch grain.

use rigid_dag::TaskId;
use rigid_time::Time;

/// A queued attempt completion/failure. The derived order — `(at, seq,
/// id, …)` — is the queue key: `seq` (start order) reproduces the legacy
/// stepping engine's processing order for simultaneous events, and `id`
/// is the total-order fallback that keeps the key deterministic even
/// though `seq` is already unique.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// The instant the attempt leaves the machine.
    pub at: Time,
    /// Start order of the attempt (globally unique, ascending).
    pub seq: u64,
    /// The task the attempt belongs to.
    pub id: TaskId,
    /// Processors the attempt occupied.
    pub procs: u32,
    /// `true` if the attempt fail-stops at `at` instead of completing.
    pub fails: bool,
}

/// Index-based 4-ary min-heap of [`Event`]s in one flat `Vec`.
///
/// This was the engine's event queue before the radix calendar queue
/// replaced it; it remains as the calendar's exact-`Rational` overflow
/// heap for off-grid timestamps and as the comparison oracle for the
/// pop-order differential tests. Because the `(at, seq)` key is unique
/// per event, every correct min-heap pops the same sequence — swapping
/// the queue implementation cannot change engine output.
#[derive(Default)]
pub struct EventHeap {
    data: Vec<Event>,
}

impl EventHeap {
    /// Heap arity. 4 halves the depth of a binary heap while keeping
    /// each sift-down's child scan over adjacent elements.
    const D: usize = 4;

    /// Inserts an event.
    pub fn push(&mut self, e: Event) {
        self.data.push(e);
        let mut i = self.data.len() - 1;
        while i > 0 {
            let parent = (i - 1) / Self::D;
            if self.data[i] < self.data[parent] {
                self.data.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// The minimum event, if any.
    pub fn peek(&self) -> Option<&Event> {
        self.data.first()
    }

    /// Removes and returns the minimum event.
    pub fn pop(&mut self) -> Option<Event> {
        let n = self.data.len();
        if n == 0 {
            return None;
        }
        self.data.swap(0, n - 1);
        let top = self.data.pop();
        let n = self.data.len();
        let mut i = 0;
        loop {
            let first = i * Self::D + 1;
            if first >= n {
                break;
            }
            let mut best = first;
            for c in (first + 1)..(first + Self::D).min(n) {
                if self.data[c] < self.data[best] {
                    best = c;
                }
            }
            if self.data[best] < self.data[i] {
                self.data.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
        top
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if no events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Removes all events, keeping capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

/// A keyed entry in the radix buckets.
#[derive(Clone, Copy)]
struct Entry {
    key: u64,
    ev: Event,
}

/// Radix buckets: bucket 0 (the current cohort) plus one bucket per
/// possible highest-differing-bit position of a 64-bit key.
const BUCKETS: usize = 65;

/// The dyadic radix calendar queue (see the module docs for the design).
///
/// Pop order is byte-identical to [`EventHeap`] for any push/pop
/// interleaving: keyed events order by their monotone integer key,
/// off-grid events by exact `Time` in the overflow heap, and the two
/// fronts merge by exact `(at, seq, id)` comparison. A push whose key
/// precedes the already-popped frontier (impossible for the engine,
/// whose event times never precede the clock) safely degrades to the
/// overflow heap rather than corrupting the radix invariant.
pub struct CalendarQueue {
    /// Key of the last settled cohort; the radix frontier.
    last: u64,
    /// Bit `i-1` set ⟺ `buckets[i]` is non-empty, for `i >= 1`
    /// (bucket 0's occupancy is `front_pos < buckets[0].len()`).
    live: u64,
    /// `buckets[0]` is the settled cohort (sorted by `seq`, consumed
    /// from `front_pos`); higher buckets are unsorted.
    buckets: Vec<Vec<Entry>>,
    /// Read cursor into `buckets[0]`.
    front_pos: usize,
    /// Scratch vec for settling, to keep its allocation warm.
    spill: Vec<Entry>,
    /// Exact fallback for off-grid / out-of-coverage timestamps.
    overflow: EventHeap,
    len: usize,
    pushes: u64,
    pops: u64,
    fallbacks: u64,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue {
            last: 0,
            live: 0,
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            front_pos: 0,
            spill: Vec::new(),
            overflow: EventHeap::default(),
            len: 0,
            pushes: 0,
            pops: 0,
            fallbacks: 0,
        }
    }
}

impl CalendarQueue {
    /// A fresh, empty queue.
    #[must_use]
    pub fn new() -> Self {
        CalendarQueue::default()
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total pushes since the last [`clear`](Self::clear).
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Total pops since the last [`clear`](Self::clear).
    #[must_use]
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Pushes routed to the exact-`Rational` overflow heap since the
    /// last [`clear`](Self::clear): off-grid (rational-variant)
    /// timestamps, unkeyable dyadics, and behind-the-frontier keys.
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Removes all events and resets the frontier and the op counters,
    /// keeping every allocation.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.last = 0;
        self.live = 0;
        self.front_pos = 0;
        self.overflow.clear();
        self.len = 0;
        self.pushes = 0;
        self.pops = 0;
        self.fallbacks = 0;
    }

    /// Pre-sizes the cohort bucket and overflow heap for a platform
    /// that can hold up to `in_flight` concurrent attempts.
    pub fn reserve(&mut self, in_flight: usize) {
        let have = self.buckets[0].capacity();
        self.buckets[0].reserve(in_flight.saturating_sub(have));
        // Each radix bucket can transiently hold the whole in-flight
        // set; reserving a fraction keeps early regrowth off the hot
        // path without allocating 65 full-size buckets.
        for b in &mut self.buckets[1..] {
            if b.capacity() < 8 {
                b.reserve(8 - b.capacity());
            }
        }
    }

    /// The bucket index of `key` relative to the frontier `last`:
    /// 0 for the frontier itself, else one past the highest bit in
    /// which they differ.
    #[inline]
    fn bucket_of(key: u64, last: u64) -> usize {
        let x = key ^ last;
        if x == 0 {
            0
        } else {
            64 - x.leading_zeros() as usize
        }
    }

    /// Inserts an event.
    pub fn push(&mut self, ev: Event) {
        self.pushes += 1;
        self.len += 1;
        match ev.at.dyadic_key() {
            Some(key) if key >= self.last => {
                let b = Self::bucket_of(key, self.last);
                if b == 0 {
                    // Joins the settled cohort: keep the un-consumed
                    // tail sorted by `seq`. Engine pushes arrive in
                    // ascending `seq`, so the insert point is the tail
                    // and this is an O(1) append.
                    let tail = &self.buckets[0][self.front_pos..];
                    let at = tail.partition_point(|e| e.ev.seq < ev.seq) + self.front_pos;
                    self.buckets[0].insert(at, Entry { key, ev });
                } else {
                    self.buckets[b].push(Entry { key, ev });
                    self.live |= 1 << (b - 1);
                }
            }
            _ => {
                self.fallbacks += 1;
                self.overflow.push(ev);
            }
        }
    }

    /// Ensures bucket 0 holds the minimum-key cohort whenever any keyed
    /// event exists: drains the lowest live bucket, advances the
    /// frontier to its minimum key, and redistributes into strictly
    /// lower buckets (the min cohort lands in bucket 0, sorted).
    fn settle(&mut self) {
        if self.front_pos < self.buckets[0].len() || self.live == 0 {
            return;
        }
        self.buckets[0].clear();
        self.front_pos = 0;
        let i = self.live.trailing_zeros() as usize + 1;
        self.live &= !(1 << (i - 1));
        std::mem::swap(&mut self.spill, &mut self.buckets[i]);
        let min = self
            .spill
            .iter()
            .map(|e| e.key)
            .min()
            .expect("live bucket is non-empty");
        self.last = min;
        for entry in self.spill.drain(..) {
            // Every key here shares the bits above `i-1` with the new
            // frontier, so its new bucket index is strictly below `i`.
            let b = Self::bucket_of(entry.key, min);
            debug_assert!(b < i);
            if b == 0 {
                self.buckets[0].push(entry);
            } else {
                self.buckets[b].push(entry);
                self.live |= 1 << (b - 1);
            }
        }
        // Equal keys are equal times (the key is injective), so `seq`
        // alone orders the cohort.
        self.buckets[0].sort_unstable_by_key(|e| e.ev.seq);
    }

    /// The next event in pop order, if any. Settling may mutate the
    /// bucket structure, hence `&mut self`; the value order is
    /// unaffected.
    pub fn peek(&mut self) -> Option<&Event> {
        self.settle();
        let radix = self.buckets[0].get(self.front_pos).map(|e| &e.ev);
        // Merge with the overflow front by exact comparison. The
        // overflow is empty on pure-dyadic runs, so this is a single
        // branch on the hot path.
        match (radix, self.overflow.peek()) {
            (Some(r), Some(o)) => Some(if o < r { o } else { r }),
            (Some(r), None) => Some(r),
            (None, o) => o,
        }
    }

    /// Removes and returns the next event in `(at, seq, id)` order.
    pub fn pop(&mut self) -> Option<Event> {
        self.settle();
        self.pop_front_merged(None)
    }

    /// Pops the merged bucket-0/overflow front — only if its timestamp
    /// equals `only_at` when given. Deliberately does **not** settle:
    /// cohort draining uses the `only_at` form after the initial
    /// settling pop, and equal keys always live in bucket 0 (or the
    /// overflow) — never in an unsettled higher bucket — so skipping
    /// settle keeps the frontier at the cohort's own key instead of
    /// advancing it past `now` (which would force every event the
    /// current decision round starts onto the overflow path).
    fn pop_front_merged(&mut self, only_at: Option<Time>) -> Option<Event> {
        let same = |e: &Event| only_at.is_none_or(|t| e.at == t);
        let radix = self.buckets[0]
            .get(self.front_pos)
            .map(|e| e.ev)
            .filter(same);
        let over = self.overflow.peek().copied().filter(|e| same(e));
        let take_overflow = match (radix, over) {
            (Some(r), Some(o)) => o < r,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => return None,
        };
        self.pops += 1;
        self.len -= 1;
        if take_overflow {
            self.overflow.pop()
        } else {
            self.front_pos += 1;
            if self.front_pos == self.buckets[0].len() {
                self.buckets[0].clear();
                self.front_pos = 0;
            }
            radix
        }
    }

    /// Drains the full cohort of events sharing the minimum timestamp
    /// into `out` (cleared first), in `(at, seq, id)` order. Returns
    /// the cohort's timestamp, or `None` if the queue is empty.
    ///
    /// This is the engine's batch grain: one cohort per decision
    /// instant, then one `decide_into` call for the whole batch.
    pub fn pop_cohort_into(&mut self, out: &mut Vec<Event>) -> Option<Time> {
        out.clear();
        let first = self.pop()?;
        let at = first.at;
        out.push(first);
        while let Some(e) = self.pop_front_merged(Some(at)) {
            out.push(e);
        }
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: Time, seq: u64) -> Event {
        Event {
            at,
            seq,
            id: TaskId(seq as u32),
            procs: 1,
            fails: false,
        }
    }

    /// Pops everything from both queues and asserts identical order.
    fn assert_same_order(events: &[Event]) {
        let mut cal = CalendarQueue::new();
        let mut heap = EventHeap::default();
        for &e in events {
            cal.push(e);
            heap.push(e);
        }
        assert_eq!(cal.len(), events.len());
        for i in 0..events.len() {
            let want = heap.pop().expect("heap event");
            assert_eq!(cal.peek(), Some(&want), "peek diverged at {i}");
            assert_eq!(cal.pop(), Some(want), "pop diverged at {i}");
        }
        assert!(cal.pop().is_none());
        assert!(cal.is_empty());
    }

    #[test]
    fn pure_dyadic_stream_matches_heap() {
        let times = [0i64, 8, 3, 3, 1, 5, 8, 2, 13, 3];
        let events: Vec<Event> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| ev(Time::from_ratio(t, 4), i as u64))
            .collect();
        assert_same_order(&events);
    }

    #[test]
    fn mixed_rational_stream_matches_heap() {
        let times = [
            Time::from_ratio(1, 3),
            Time::from_ratio(1, 2),
            Time::from_ratio(2, 3),
            Time::ZERO,
            Time::from_millis(6, 800),
            Time::from_int(7),
            Time::from_ratio(5, 7),
            Time::from_ratio(3, 4),
        ];
        let events: Vec<Event> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| ev(t, i as u64))
            .collect();
        assert_same_order(&events);
    }

    #[test]
    fn fallback_counter_tracks_off_grid_pushes() {
        let mut cal = CalendarQueue::new();
        cal.push(ev(Time::from_ratio(1, 2), 0));
        cal.push(ev(Time::from_ratio(1, 3), 1));
        cal.push(ev(Time::from_int(2), 2));
        assert_eq!(cal.pushes(), 3);
        assert_eq!(cal.fallbacks(), 1);
        // Draining does not disturb the counters; clear resets them.
        while cal.pop().is_some() {}
        assert_eq!(cal.pops(), 3);
        cal.clear();
        assert_eq!((cal.pushes(), cal.pops(), cal.fallbacks()), (0, 0, 0));
    }

    #[test]
    fn behind_frontier_push_degrades_to_overflow() {
        let mut cal = CalendarQueue::new();
        cal.push(ev(Time::from_int(8), 0));
        assert_eq!(cal.pop().map(|e| e.seq), Some(0)); // frontier at 8
        cal.push(ev(Time::from_int(2), 1)); // behind the frontier
        cal.push(ev(Time::from_int(9), 2));
        assert_eq!(cal.fallbacks(), 1);
        assert_eq!(cal.pop().map(|e| e.seq), Some(1)); // 2 before 9
        assert_eq!(cal.pop().map(|e| e.seq), Some(2));
    }

    #[test]
    fn cohort_drain_returns_full_batch_in_seq_order() {
        let mut cal = CalendarQueue::new();
        let t = Time::from_ratio(3, 2);
        // Same instant pushed out of seq order, plus a later event.
        cal.push(ev(t, 5));
        cal.push(ev(Time::from_int(4), 9));
        cal.push(ev(t, 2));
        cal.push(ev(t, 7));
        let mut out = Vec::new();
        assert_eq!(cal.pop_cohort_into(&mut out), Some(t));
        let seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 5, 7]);
        assert_eq!(cal.pop_cohort_into(&mut out), Some(Time::from_int(4)));
        assert_eq!(out.len(), 1);
        assert_eq!(cal.pop_cohort_into(&mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_consistent() {
        let mut cal = CalendarQueue::new();
        let mut heap = EventHeap::default();
        let mut seq = 0u64;
        let mut push = |cal: &mut CalendarQueue, heap: &mut EventHeap, n: i64, d: i64| {
            let e = ev(Time::from_ratio(n, d), seq);
            seq += 1;
            cal.push(e);
            heap.push(e);
        };
        push(&mut cal, &mut heap, 1, 2);
        push(&mut cal, &mut heap, 1, 3);
        assert_eq!(cal.pop(), heap.pop());
        push(&mut cal, &mut heap, 5, 2);
        push(&mut cal, &mut heap, 1, 2);
        assert_eq!(cal.pop(), heap.pop());
        push(&mut cal, &mut heap, 7, 3);
        for _ in 0..3 {
            assert_eq!(cal.pop(), heap.pop());
        }
        assert!(cal.is_empty() && heap.is_empty());
    }

    #[test]
    fn extreme_exponent_keys_settle_correctly() {
        // Keys spanning the full biased-exponent range exercise the
        // high radix buckets and multi-level settling.
        let times = [
            Time::from_dyadic(1, -126),
            Time::from_dyadic(1, 100),
            Time::from_dyadic(3, -100),
            Time::from_dyadic((1 << 56) | 1, -20),
            Time::ZERO,
            Time::from_dyadic(1, 69),
            Time::from_dyadic(i64::MAX, 0), // 63-bit mantissa: overflow path
        ];
        let events: Vec<Event> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| ev(t, i as u64))
            .collect();
        assert_same_order(&events);
    }

    #[test]
    fn reserve_and_clear_preserve_behavior() {
        let mut cal = CalendarQueue::new();
        cal.reserve(64);
        for i in 0..32 {
            cal.push(ev(Time::from_int(i % 7), i as u64));
        }
        cal.clear();
        assert!(cal.is_empty());
        let events: Vec<Event> = (0..32)
            .map(|i| ev(Time::from_ratio(i % 11, 8), i as u64))
            .collect();
        assert_same_order(&{
            let mut cal2 = CalendarQueue::new();
            for &e in &events {
                cal2.push(e);
            }
            drop(cal2);
            events.clone()
        });
        // And the cleared queue behaves like new.
        for &e in &events {
            cal.push(e);
        }
        let mut heap = EventHeap::default();
        for &e in &events {
            heap.push(e);
        }
        for _ in 0..events.len() {
            assert_eq!(cal.pop(), heap.pop());
        }
    }
}

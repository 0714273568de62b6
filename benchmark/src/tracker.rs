//! The delivery-tap consumer's bookkeeping: unions every document's
//! deliveries across nodes, stamps the arrival that completed the
//! document's expected set, and checks delivered sets against the oracle.
//!
//! The engine delivers one `Delivery` per node that matched something, and
//! replicated or multi-term placements deliver the same filter from
//! several nodes, so "document done" is "the union of its deliveries
//! reached the reference count". The union is a bitmap over subscriber
//! ids held only while the document is in flight.

use move_types::FilterId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NO_SLOT: u32 = u32::MAX;
const DONE: u32 = u32::MAX - 1;
/// Tap gaps longer than this are kept (start, length) for the
/// refresh-stall metric.
const GAP_FLOOR_NS: u64 = 1_000_000;
const GAP_CAPACITY: usize = 1 << 16;

/// What the oracle expects of every document of the run.
#[derive(Debug, Default)]
pub struct Expectations {
    /// Post-union delivery count per document index.
    pub count: Vec<u32>,
    /// Full expected sets (sorted) of the checked sample; a cycle
    /// document checked in several phases shares one set.
    pub sets: HashMap<u32, Arc<Vec<FilterId>>>,
    /// One past the largest subscriber id any expected set can hold.
    pub id_width: u64,
}

/// Per-document and whole-run results of the tap.
#[derive(Debug)]
pub struct TapResult {
    /// Arrival (ns since the run epoch) that completed each document's
    /// expected set; 0 while incomplete.
    pub done_ns: Vec<u64>,
    /// `Delivery` messages consumed.
    pub messages: u64,
    /// Matched ids summed over messages (pre-union).
    pub ids_pre_union: u64,
    /// Distinct (document, subscriber) pairs delivered (post-union).
    pub ids_post_union: u64,
    /// Ids that arrived after their document was complete (replica
    /// duplicates; not checkable once the bitmap is released).
    pub late_ids: u64,
    /// Documents with a non-empty expected set that never completed.
    pub incomplete: u64,
    /// Documents that received an id outside the id space, more distinct
    /// ids than expected, or any id while expecting none.
    pub overdelivered: u64,
    /// Checked documents whose delivered set differs from the oracle's.
    pub mismatched: u64,
    /// Checked documents compared.
    pub checked: u64,
    /// `(start_ns, length_ns)` of every gap between consecutive arrivals
    /// longer than 1 ms, in arrival order.
    pub gaps: Vec<(u64, u64)>,
    /// High-water mark of documents in flight at the tap.
    pub in_flight_hwm: usize,
}

impl TapResult {
    /// Documents that fail the oracle.
    pub fn failed(&self) -> u64 {
        self.incomplete + self.overdelivered + self.mismatched
    }

    /// The run's `(correct, failed)`: failed documents plus shed or lost
    /// tasks (`bad_tasks`), capped at `attempted`; correct only when
    /// nothing failed, the consumer caught up after every phase, and the
    /// post-union delivery total equals the reference's.
    pub fn verdict(
        &self,
        expected_post_union: u64,
        bad_tasks: u64,
        caught_up: bool,
        attempted: u64,
    ) -> (bool, u64) {
        let failed = (self.failed() + bad_tasks + u64::from(!caught_up)).min(attempted);
        (
            failed == 0 && self.ids_post_union == expected_post_union,
            failed,
        )
    }
}

/// The consumer-side state. One thread owns it; the publisher only reads
/// [`Tracker::completed`].
#[derive(Debug)]
pub struct Tracker {
    expect: Arc<Expectations>,
    words: usize,
    slot_of: Vec<u32>,
    got: Vec<u32>,
    done_ns: Vec<u64>,
    slots: Vec<Vec<u64>>,
    free: Vec<u32>,
    in_use: usize,
    completed: Arc<AtomicU64>,
    last_arrival: u64,
    result: TapResult,
}

impl Tracker {
    /// A tracker for a run with the given expectations; `completed`
    /// counts documents whose expected set has fully arrived.
    pub fn new(expect: Arc<Expectations>, completed: Arc<AtomicU64>) -> Self {
        let docs = expect.count.len();
        let words = (expect.id_width as usize).div_ceil(64).max(1);
        Self {
            words,
            slot_of: vec![NO_SLOT; docs],
            got: vec![0; docs],
            done_ns: vec![0; docs],
            slots: Vec::new(),
            free: Vec::new(),
            in_use: 0,
            completed,
            last_arrival: 0,
            result: TapResult {
                done_ns: Vec::new(),
                messages: 0,
                ids_pre_union: 0,
                ids_post_union: 0,
                late_ids: 0,
                incomplete: 0,
                overdelivered: 0,
                mismatched: 0,
                checked: 0,
                gaps: Vec::with_capacity(GAP_CAPACITY),
                in_flight_hwm: 0,
            },
            expect,
        }
    }

    fn take_slot(&mut self) -> u32 {
        self.in_use += 1;
        self.result.in_flight_hwm = self.result.in_flight_hwm.max(self.in_use);
        if let Some(s) = self.free.pop() {
            return s;
        }
        self.slots.push(vec![0; self.words]);
        (self.slots.len() - 1) as u32
    }

    /// Accounts one delivery that arrived at `now_ns`.
    pub fn on_delivery(&mut self, doc: u64, matched: &[FilterId], now_ns: u64) {
        self.result.messages += 1;
        self.result.ids_pre_union += matched.len() as u64;
        let gap = now_ns - self.last_arrival;
        if self.last_arrival != 0 && gap > GAP_FLOOR_NS && self.result.gaps.len() < GAP_CAPACITY {
            self.result.gaps.push((self.last_arrival, gap));
        }
        self.last_arrival = now_ns;

        let Some(&expected) = usize::try_from(doc)
            .ok()
            .and_then(|i| self.expect.count.get(i))
        else {
            self.result.overdelivered += 1;
            return;
        };
        let idx = doc as usize;
        let mut slot = self.slot_of[idx];
        if slot == DONE {
            self.result.late_ids += matched.len() as u64;
            return;
        }
        if slot == NO_SLOT {
            slot = self.take_slot();
            self.slot_of[idx] = slot;
        }
        let bits = &mut self.slots[slot as usize];
        let mut fresh = 0u32;
        let mut outside = false;
        for id in matched {
            let (word, bit) = ((id.0 / 64) as usize, id.0 % 64);
            match bits.get_mut(word) {
                Some(w) if *w & (1 << bit) == 0 => {
                    *w |= 1 << bit;
                    fresh += 1;
                }
                Some(_) => {}
                None => outside = true,
            }
        }
        self.got[idx] += fresh;
        self.result.ids_post_union += u64::from(fresh);
        let over = outside || self.got[idx] > expected;
        if !over && self.got[idx] < expected {
            return;
        }
        // Complete (or beyond repair): stamp, check, release the bitmap.
        self.done_ns[idx] = now_ns.max(1);
        if over {
            self.result.overdelivered += 1;
        } else if let Some(want) = self.expect.sets.get(&(idx as u32)) {
            self.result.checked += 1;
            let bits = &self.slots[slot as usize];
            let delivered = bits.iter().enumerate().flat_map(|(w, &word)| {
                (0..64)
                    .filter(move |b| word & (1u64 << b) != 0)
                    .map(move |b| FilterId(w as u64 * 64 + b))
            });
            if !delivered.eq(want.iter().copied()) {
                self.result.mismatched += 1;
            }
        }
        self.slots[slot as usize].fill(0);
        self.free.push(slot);
        self.in_use -= 1;
        self.slot_of[idx] = DONE;
        self.completed.fetch_add(1, Ordering::Release);
    }

    /// Closes the books: every document that expected deliveries and did
    /// not complete counts as failed.
    pub fn finish(mut self) -> TapResult {
        self.result.incomplete = self
            .expect
            .count
            .iter()
            .zip(&self.slot_of)
            .filter(|(&want, &slot)| want > 0 && slot != DONE)
            .count() as u64;
        self.result.done_ns = self.done_ns;
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<FilterId> {
        v.iter().map(|&i| FilterId(i)).collect()
    }

    fn tracker(counts: &[u32], sets: &[(u32, &[u64])]) -> (Tracker, Arc<AtomicU64>) {
        let completed = Arc::new(AtomicU64::new(0));
        let expect = Expectations {
            count: counts.to_vec(),
            sets: sets.iter().map(|(i, s)| (*i, Arc::new(ids(s)))).collect(),
            id_width: 200,
        };
        (
            Tracker::new(Arc::new(expect), Arc::clone(&completed)),
            completed,
        )
    }

    #[test]
    fn union_across_nodes_completes_on_the_last_expected_arrival() {
        let (mut t, completed) = tracker(&[3, 0], &[(0, &[5, 70, 130])]);
        t.on_delivery(0, &ids(&[5, 70]), 1_000);
        assert_eq!(completed.load(Ordering::Acquire), 0);
        t.on_delivery(0, &ids(&[70]), 2_000); // replica duplicate
        t.on_delivery(0, &ids(&[70, 130]), 3_000);
        assert_eq!(completed.load(Ordering::Acquire), 1);
        t.on_delivery(0, &ids(&[5]), 4_000); // late duplicate
        let r = t.finish();
        assert_eq!(r.done_ns[0], 3_000, "stamped by the completing arrival");
        assert_eq!((r.ids_pre_union, r.ids_post_union, r.late_ids), (6, 3, 1));
        assert_eq!((r.checked, r.failed()), (1, 0));
    }

    #[test]
    fn a_dropped_delivery_is_a_failed_document() {
        // The test double loses the second node's delivery.
        let (mut t, completed) = tracker(&[3, 2], &[]);
        t.on_delivery(0, &ids(&[5, 70]), 1_000);
        t.on_delivery(1, &ids(&[1, 2]), 1_500);
        let r = t.finish();
        assert_eq!(completed.load(Ordering::Acquire), 1);
        assert_eq!(r.incomplete, 1);
        assert_eq!(r.done_ns[0], 0);
        assert_eq!(r.verdict(5, 0, true, 2), (false, 1), "correct flips");
        // The same books with nothing dropped are correct.
        let (mut t, _) = tracker(&[3, 2], &[]);
        t.on_delivery(0, &ids(&[5, 70]), 1_000);
        t.on_delivery(0, &ids(&[71]), 1_200);
        t.on_delivery(1, &ids(&[1, 2]), 1_500);
        let r = t.finish();
        assert_eq!(r.verdict(5, 0, true, 2), (true, 0));
        assert_eq!(
            r.verdict(5, 3, true, 2),
            (false, 2),
            "shed tasks fail the run"
        );
    }

    #[test]
    fn wrong_or_surplus_ids_fail_the_document() {
        let (mut t, _) = tracker(&[2, 1, 0, 1], &[(0, &[5, 70])]);
        t.on_delivery(0, &ids(&[5, 71]), 10); // right count, wrong set
        t.on_delivery(1, &ids(&[1, 2]), 20); // more than expected
        t.on_delivery(2, &ids(&[9]), 30); // expected nothing
        t.on_delivery(3, &ids(&[9_999]), 40); // outside the id space
        t.on_delivery(77, &ids(&[1]), 50); // unknown document
        let r = t.finish();
        assert_eq!(r.mismatched, 1);
        assert_eq!(r.overdelivered, 4);
        assert_eq!(r.incomplete, 0);
        assert_eq!(r.failed(), 5);
    }

    #[test]
    fn bitmaps_are_recycled_clean_and_gaps_recorded() {
        let (mut t, _) = tracker(&[1, 1], &[(1, &[8])]);
        t.on_delivery(0, &ids(&[7]), 1_000);
        t.on_delivery(1, &ids(&[8]), 5_000_000);
        let r = t.finish();
        assert_eq!(r.failed(), 0, "slot reused without the previous bit");
        assert_eq!(r.in_flight_hwm, 1);
        assert_eq!(r.gaps, vec![(1_000, 4_999_000)]);
    }
}

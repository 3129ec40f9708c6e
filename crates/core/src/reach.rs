//! The incremental reachability engine backing [`Dag`](crate::Dag)'s
//! `path` / `strong_path` / `causal_history` / `orphans_below` queries.
//!
//! Every inserted vertex carries two **closure bitsets** over compact
//! `(round, source)` slots: the vertices it reaches through strong edges
//! only (Algorithm 1's `strong_path`), and through strong *and* weak
//! edges (`path`). A closure is computed once, at insert time, by OR-ing
//! the closures of the referenced vertices plus their own slots —
//! O(edges · slots/64) word operations, amortized against every later
//! query — and it is immutable afterwards: a vertex's edges are fixed at
//! creation and causal closure (Claim 1) guarantees every referenced
//! vertex (and hence its finished closure) is present before insertion,
//! so nothing inserted later can extend what an existing vertex reaches.
//!
//! Reachability queries become single bit probes, causal histories become
//! bitset iterations, and the orphan scan of Algorithm 2 line 27 becomes
//! closure subtraction. Garbage collection truncates the slot space (see
//! [`SlotSpace`]) so long-lived DAGs do not accumulate dead bits.

use dagrider_types::{ProcessId, Round, Vertex, VertexRef};

/// A bitset over slot indices, stored as 64-bit words. Grows on demand;
/// absent high slots read as unset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Closure {
    words: Vec<u64>,
}

impl Closure {
    /// Whether `slot` is set.
    pub fn contains(&self, slot: usize) -> bool {
        self.words.get(slot / 64).is_some_and(|word| (word >> (slot % 64)) & 1 == 1)
    }

    /// Sets `slot`.
    pub fn insert(&mut self, slot: usize) {
        let word = slot / 64;
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (slot % 64);
    }

    /// Flips `slot` (test-only fault injection uses this to desynchronize
    /// the engine from the BFS oracle on purpose).
    pub fn toggle(&mut self, slot: usize) {
        let word = slot / 64;
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        self.words[word] ^= 1 << (slot % 64);
    }

    /// OR-s `other` into `self` — the closure-composition step of insert.
    pub fn union_with(&mut self, other: &Closure) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (mine, theirs) in self.words.iter_mut().zip(&other.words) {
            *mine |= theirs;
        }
    }

    /// Current width in 64-bit words.
    pub fn width_words(&self) -> usize {
        self.words.len()
    }

    /// Clones this closure at a width of at least `words` zero-filled
    /// entries, in one exact-sized allocation, so a following sequence of
    /// `union_with`/`insert` calls up to that width cannot reallocate.
    pub fn clone_with_width(&self, words: usize) -> Closure {
        let width = words.max(self.words.len());
        let mut out = Vec::with_capacity(width);
        out.extend_from_slice(&self.words);
        out.resize(width, 0);
        Closure { words: out }
    }

    /// Drops the `removed` slots from `genesis` up and moves every slot at
    /// or above `genesis + removed` down by `removed`, in place; slots
    /// below `genesis` keep their place. Words the move empties at the top
    /// are cut off. This is how a closure follows
    /// [`SlotSpace::advance_base`].
    pub fn rebase(&mut self, genesis: usize, removed: usize) {
        let bits = self.words.len() * 64;
        if removed == 0 || bits <= genesis {
            return;
        }
        let len = (bits - removed.min(bits)).max(genesis).div_ceil(64);
        let first = genesis / 64;
        // Destination word `w` takes the 64 bits that start `removed`
        // slots above it. Every word read lies at or above the one being
        // written, so ascending order reads each before it is overwritten.
        for w in first..len {
            let shifted = self.bits_from(w * 64 + removed);
            self.words[w] = if w == first {
                let keep = (1u64 << (genesis % 64)) - 1;
                (self.words[w] & keep) | (shifted & !keep)
            } else {
                shifted
            };
        }
        self.words.truncate(len);
    }

    /// The 64 slots from `start` up, as one word (absent slots unset).
    fn bits_from(&self, start: usize) -> u64 {
        let (index, offset) = (start / 64, start % 64);
        let low = self.words.get(index).copied().unwrap_or(0);
        if offset == 0 {
            return low;
        }
        let high = self.words.get(index + 1).copied().unwrap_or(0);
        (low >> offset) | (high << (64 - offset))
    }

    /// Unsets every slot below `end`.
    pub fn clear_below(&mut self, end: usize) {
        let full = (end / 64).min(self.words.len());
        self.words[..full].fill(0);
        if let Some(word) = self.words.get_mut(end / 64) {
            *word &= !((1u64 << (end % 64)) - 1);
        }
    }

    /// Iterates the set slots in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(index, &word)| WordBits { word, base: index * 64 })
    }

    /// Number of set slots.
    #[cfg(test)]
    pub fn count(&self) -> usize {
        self.words.iter().map(|word| word.count_ones() as usize).sum()
    }
}

/// Iterator over the set bits of one word, ascending.
struct WordBits {
    word: u64,
    base: usize,
}

impl Iterator for WordBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// The two per-vertex closures.
#[derive(Debug, Clone, Default)]
pub(crate) struct VertexClosures {
    /// Everything reachable through strong edges only (`strong_path`).
    pub strong: Closure,
    /// Everything reachable through strong and weak edges (`path`).
    pub all: Closure,
}

/// Composes the closures of `v` from its referenced vertices' closures:
/// every target that `lookup` resolves (i.e. is present) contributes its
/// own slot plus its whole closure; unresolved targets — garbage-collected
/// or missing — contribute nothing, matching the BFS oracle, which cannot
/// traverse absent vertices either.
pub(crate) fn compose<'a>(
    slots: &SlotSpace,
    v: &Vertex,
    lookup: impl Fn(VertexRef) -> Option<&'a VertexClosures>,
) -> VertexClosures {
    // Resolution is two array probes plus slot arithmetic — cheap enough
    // to run once per edge. A first sizing pass over the (short, in
    // sparse mode) strong-edge list finds the widest predecessor closure
    // and highest edge slot; the first resolved predecessor then *seeds*
    // each bitset by cloning and immediately growing to that final width,
    // so every later `union_with`/`insert` is pure word OR-ing with zero
    // reallocations. Per vertex: two allocations, no sizing churn.
    let mut max_words = 0usize;
    for &edge in v.strong_edges() {
        let (Some(slot), Some(pred)) = (slots.slot(edge), lookup(edge)) else { continue };
        max_words =
            max_words.max(slot / 64 + 1).max(pred.strong.width_words()).max(pred.all.width_words());
    }
    let mut closures: Option<VertexClosures> = None;
    for &edge in v.strong_edges() {
        let (Some(slot), Some(pred)) = (slots.slot(edge), lookup(edge)) else { continue };
        match &mut closures {
            None => {
                let mut seeded = VertexClosures {
                    strong: pred.strong.clone_with_width(max_words),
                    all: pred.all.clone_with_width(max_words),
                };
                seeded.strong.insert(slot);
                seeded.all.insert(slot);
                closures = Some(seeded);
            }
            Some(c) => {
                c.strong.union_with(&pred.strong);
                c.strong.insert(slot);
                c.all.union_with(&pred.all);
                c.all.insert(slot);
            }
        }
    }
    let mut closures = closures.unwrap_or_default();
    for &edge in v.weak_edges() {
        let (Some(slot), Some(pred)) = (slots.slot(edge), lookup(edge)) else { continue };
        closures.all.union_with(&pred.all);
        closures.all.insert(slot);
    }
    closures
}

/// The slot address space mapping `(round, source)` to bit indices.
///
/// Genesis vertices occupy the `n` front slots — they are never pruned
/// and every closure reaches them. Non-genesis rounds are addressed
/// relative to `base`, the lowest representable round:
/// `slot = n + (round - base)·n + source`. Garbage collection advances
/// `base` (and rebases every retained closure), so references below the
/// pruned floor have **no** slot and are rejected in O(1).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotSpace {
    n: usize,
    /// The lowest representable non-genesis round.
    base: u64,
}

impl SlotSpace {
    /// The slot space for an unpruned DAG over `n` processes.
    pub fn new(n: usize) -> Self {
        Self { n, base: 1 }
    }

    /// The lowest representable non-genesis round.
    #[cfg(test)]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The slot of `reference`, or `None` if its round was truncated by
    /// garbage collection.
    pub fn slot(&self, reference: VertexRef) -> Option<usize> {
        if reference.round == Round::GENESIS {
            return Some(reference.source.as_usize());
        }
        let round = reference.round.number();
        if round >= self.base {
            Some(self.n + (round - self.base) as usize * self.n + reference.source.as_usize())
        } else {
            None
        }
    }

    /// The reference occupying `slot` — the inverse of [`SlotSpace::slot`].
    pub fn reference(&self, slot: usize) -> VertexRef {
        if slot < self.n {
            return VertexRef::new(Round::GENESIS, ProcessId::new(slot as u32));
        }
        let offset = slot - self.n;
        VertexRef::new(
            Round::new(self.base + (offset / self.n) as u64),
            ProcessId::new((offset % self.n) as u32),
        )
    }

    /// Advances the base to `new_base` (a no-op if not higher), returning
    /// the number of slots every retained closure must drop.
    pub fn advance_base(&mut self, new_base: u64) -> usize {
        if new_base <= self.base {
            return 0;
        }
        let removed = (new_base - self.base) as usize * self.n;
        self.base = new_base;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_set_probe_and_count() {
        let mut c = Closure::default();
        assert!(!c.contains(0));
        assert!(!c.contains(1000));
        c.insert(3);
        c.insert(64);
        c.insert(130);
        assert!(c.contains(3) && c.contains(64) && c.contains(130));
        assert!(!c.contains(4));
        assert_eq!(c.count(), 3);
        assert_eq!(c.ones().collect::<Vec<_>>(), vec![3, 64, 130]);
    }

    #[test]
    fn closure_union_grows_to_fit() {
        let mut a = Closure::default();
        a.insert(1);
        let mut b = Closure::default();
        b.insert(200);
        a.union_with(&b);
        assert!(a.contains(1) && a.contains(200));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn closure_toggle_flips_both_ways() {
        let mut c = Closure::default();
        c.toggle(70);
        assert!(c.contains(70));
        c.toggle(70);
        assert!(!c.contains(70));
    }

    #[test]
    fn rebase_matches_a_bit_by_bit_shift() {
        // The reference: genesis slots stay, the removed slots go, and
        // every slot above them moves down by the removal.
        fn reference(slots: &[usize], genesis: usize, removed: usize) -> Vec<usize> {
            slots
                .iter()
                .filter_map(|&s| match s {
                    s if s < genesis => Some(s),
                    s if s >= genesis + removed => Some(s - removed),
                    _ => None,
                })
                .collect()
        }
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        for genesis in [4, 100] {
            for removed in [4, 60, 64, 68, 128, 1_000] {
                for width in [1, 2, 3, 5, 9] {
                    let mut slots = Vec::new();
                    for slot in 0..width * 64 {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        if seed.is_multiple_of(3) {
                            slots.push(slot);
                        }
                    }
                    let mut closure = Closure::default();
                    slots.iter().for_each(|&s| closure.insert(s));
                    closure.rebase(genesis, removed);
                    let case = format!("genesis {genesis}, removed {removed}, {width} words");
                    assert_eq!(
                        closure.ones().collect::<Vec<_>>(),
                        reference(&slots, genesis, removed),
                        "{case}"
                    );
                    let top = (width * 64).saturating_sub(removed).max(genesis);
                    assert!(
                        closure.width_words() <= top.div_ceil(64).max(1),
                        "{case}: emptied words stay"
                    );
                }
            }
        }
        // A removal at least as wide as the closure leaves genesis alone.
        let mut closure = Closure::default();
        [1, 3, 4, 40, 63].iter().for_each(|&s| closure.insert(s));
        closure.rebase(4, 64);
        assert_eq!(closure.ones().collect::<Vec<_>>(), [1, 3]);
        closure.clear_below(4);
        assert_eq!(closure.count(), 0);
    }

    #[test]
    fn slot_space_round_trips_every_reference() {
        let mut slots = SlotSpace::new(4);
        for round in [0u64, 1, 2, 9] {
            for source in 0u32..4 {
                let reference = VertexRef::new(Round::new(round), ProcessId::new(source));
                let slot = slots.slot(reference).unwrap();
                assert_eq!(slots.reference(slot), reference);
            }
        }
        // After a rebase, rounds below the base lose their slots; genesis
        // and retained rounds still round-trip.
        assert_eq!(slots.advance_base(3), 2 * 4);
        assert_eq!(slots.slot(VertexRef::new(Round::new(2), ProcessId::new(0))), None);
        let genesis = VertexRef::new(Round::GENESIS, ProcessId::new(2));
        assert_eq!(slots.reference(slots.slot(genesis).unwrap()), genesis);
        let kept = VertexRef::new(Round::new(5), ProcessId::new(3));
        assert_eq!(slots.reference(slots.slot(kept).unwrap()), kept);
    }

    #[test]
    fn advance_base_is_monotone() {
        let mut slots = SlotSpace::new(4);
        assert_eq!(slots.advance_base(5), 16);
        assert_eq!(slots.advance_base(4), 0, "lower base is a no-op");
        assert_eq!(slots.base(), 5);
    }
}

//! Flat fact storage: a set of equal-arity tuples kept in one
//! arity-strided column and indexed by an open-addressing table of `u32`
//! row numbers ([`Tuples`]), and the store of numbered facts built on it
//! ([`FactStore`]) that holds a `Database`'s EDB facts and a
//! `GroundedProgram`'s IDB facts alike.
//!
//! The table is hashed from a *borrowed* tuple (with [`FxHasher`]) and
//! compares candidates against the column, so no tuple is copied into a
//! key and interning allocates nothing per tuple: the column and the
//! table grow by doubling. Grounding also keeps a bare [`Tuples`] per
//! discovery task (its new heads) and per join-index slot (its keys).

use std::hash::Hasher;

use crate::fxhash::FxHasher;
use crate::symbols::{ConstId, PredId};

/// A vacant table slot, or the id of a retracted row.
const VACANT: u32 = u32::MAX;

/// The hash of one tuple: one hasher word per constant. The column fixes
/// the arity, so no length prefix is needed.
#[inline]
fn hash(tuple: &[ConstId]) -> usize {
    let mut h = FxHasher::default();
    for &c in tuple {
        h.write_u32(c);
    }
    h.finish() as usize
}

/// Distinct tuples of one arity, numbered `0, 1, …` in insertion order.
///
/// Row `k` is `data[k * arity .. (k + 1) * arity]`. The table holds row
/// numbers under linear probing; its size is a power of two kept at
/// least twice the row count. Arity 0 is allowed: its one possible tuple
/// is the empty one.
#[derive(Clone, Debug, Default)]
pub(crate) struct Tuples {
    arity: usize,
    rows: usize,
    data: Vec<ConstId>,
    table: Vec<u32>,
}

impl Tuples {
    /// An empty set of `arity`-tuples.
    pub(crate) fn new(arity: usize) -> Self {
        Tuples {
            arity,
            ..Tuples::default()
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// Row `k`.
    #[inline]
    pub(crate) fn row(&self, k: usize) -> &[ConstId] {
        &self.data[k * self.arity..(k + 1) * self.arity]
    }

    /// The row holding `tuple`, if any (`None` for a tuple of another
    /// arity).
    #[inline]
    pub(crate) fn get(&self, tuple: &[ConstId]) -> Option<u32> {
        if tuple.len() != self.arity || self.table.is_empty() {
            return None;
        }
        let row = self.table[self.slot_of(tuple)];
        (row != VACANT).then_some(row)
    }

    /// The row of `tuple`, appending it first if it is new; the flag says
    /// whether it was. Panics when the arity differs from the column's.
    pub(crate) fn insert(&mut self, tuple: &[ConstId]) -> (u32, bool) {
        assert_eq!(tuple.len(), self.arity, "tuple arity");
        if 2 * (self.rows + 1) > self.table.len() {
            self.grow();
        }
        let slot = self.slot_of(tuple);
        if self.table[slot] != VACANT {
            return (self.table[slot], false);
        }
        let row = u32::try_from(self.rows)
            .ok()
            .filter(|&r| r != VACANT)
            .expect("fewer than 2^32 - 1 tuples");
        self.table[slot] = row;
        self.data.extend_from_slice(tuple);
        self.rows += 1;
        (row, true)
    }

    /// Heap bytes of the column and the table (lengths, not capacities —
    /// the payload measure `CompactRules::heap_bytes` reports too).
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.data.len() + self.table.len()) * 4
    }

    /// The slot holding `tuple`'s row, or the vacant slot ending its probe
    /// sequence. The table must be non-empty.
    #[inline]
    fn slot_of(&self, tuple: &[ConstId]) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = hash(tuple) & mask;
        loop {
            let row = self.table[slot];
            if row == VACANT || self.row(row as usize) == tuple {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Double the table (at least 8 slots) and re-file every row.
    fn grow(&mut self) {
        let size = (2 * self.table.len()).max(8);
        let mask = size - 1;
        let mut table = vec![VACANT; size];
        for row in 0..self.rows {
            let mut slot = hash(self.row(row)) & mask;
            while table[slot] != VACANT {
                slot = (slot + 1) & mask;
            }
            table[slot] = row as u32;
        }
        self.table = table;
    }
}

/// Facts of many predicates, numbered `0, 1, …` as they are inserted:
/// per predicate a [`Tuples`] column and each row's current id, per id
/// its `(predicate, row)`. Each predicate holds one arity.
///
/// A retract marks the row's id vacant, but the id keeps its locator, so
/// [`fact`](FactStore::fact) still reads it. Re-inserting the tuple
/// revives the row under a fresh id. [`facts_of`](FactStore::facts_of)
/// is the row→id vector itself until the predicate's first retract, and
/// a materialized ascending list of its live ids after it, so a store
/// that never retracts pays nothing for retraction.
#[derive(Clone, Debug, Default)]
pub(crate) struct FactStore {
    /// Per predicate: its column and each row's id ([`VACANT`] while
    /// retracted); `None` while it has none.
    relations: Vec<Option<(Tuples, Vec<u32>)>>,
    /// Per id: its predicate and row.
    locs: Vec<(PredId, u32)>,
    /// Per predicate, once retracted from: its live ids, ascending.
    live: Vec<Option<Vec<u32>>>,
}

impl FactStore {
    /// Number of ids handed out, retracted ones included.
    pub(crate) fn len(&self) -> usize {
        self.locs.len()
    }

    /// `pred`'s column and row ids, if it has a column.
    #[inline]
    fn relation(&self, pred: PredId) -> Option<&(Tuples, Vec<u32>)> {
        self.relations.get(pred as usize)?.as_ref()
    }

    /// The arity of `pred`'s column, if it has one.
    pub(crate) fn arity(&self, pred: PredId) -> Option<usize> {
        Some(self.relation(pred)?.0.arity)
    }

    /// The id of a live fact, probed with the borrowed tuple.
    #[inline]
    pub(crate) fn id(&self, pred: PredId, tuple: &[ConstId]) -> Option<u32> {
        let (tuples, ids) = self.relation(pred)?;
        let id = ids[tuples.get(tuple)? as usize];
        (id != VACANT).then_some(id)
    }

    /// The fact with id `id`, retracted or not.
    #[inline]
    pub(crate) fn fact(&self, id: u32) -> (PredId, &[ConstId]) {
        let (pred, row) = self.locs[id as usize];
        let (tuples, _) = self.relation(pred).expect("a located fact's column");
        (pred, tuples.row(row as usize))
    }

    /// Whether `id` is live (not retracted).
    pub(crate) fn is_live(&self, id: u32) -> bool {
        let (pred, row) = self.locs[id as usize];
        self.relation(pred).expect("a located fact's column").1[row as usize] == id
    }

    /// The live ids of `pred`, ascending.
    #[inline]
    pub(crate) fn facts_of(&self, pred: PredId) -> &[u32] {
        match self.live.get(pred as usize) {
            Some(Some(live)) => live,
            _ => self.relation(pred).map_or(&[], |(_, ids)| ids),
        }
    }

    /// Give `pred` an empty column of `arity`-tuples unless it has one.
    pub(crate) fn declare(&mut self, pred: PredId, arity: usize) -> &mut (Tuples, Vec<u32>) {
        let p = pred as usize;
        if self.relations.len() <= p {
            self.relations.resize_with(p + 1, || None);
        }
        self.relations[p].get_or_insert_with(|| (Tuples::new(arity), Vec::new()))
    }

    /// The id of a fact: its live id, else a fresh one. Panics when
    /// `pred`'s column has another arity.
    pub(crate) fn insert(&mut self, pred: PredId, tuple: &[ConstId]) -> u32 {
        let id = u32::try_from(self.locs.len())
            .ok()
            .filter(|&i| i != VACANT)
            .expect("fewer than 2^32 - 1 facts");
        let (tuples, ids) = self.declare(pred, tuple.len());
        let (row, new) = tuples.insert(tuple);
        if new {
            ids.push(VACANT);
        }
        let slot = &mut ids[row as usize];
        if *slot != VACANT {
            return *slot;
        }
        *slot = id;
        self.locs.push((pred, row));
        if let Some(Some(live)) = self.live.get_mut(pred as usize) {
            live.push(id);
        }
        id
    }

    /// Retract a live fact, returning its id (`None` when absent).
    pub(crate) fn retract(&mut self, pred: PredId, tuple: &[ConstId]) -> Option<u32> {
        let p = pred as usize;
        let (tuples, ids) = self.relations.get_mut(p)?.as_mut()?;
        let row = tuples.get(tuple)? as usize;
        let id = std::mem::replace(&mut ids[row], VACANT);
        if id == VACANT {
            return None;
        }
        if self.live.len() <= p {
            self.live.resize_with(p + 1, || None);
        }
        let live = self.live[p]
            .get_or_insert_with(|| ids.iter().copied().filter(|&i| i != VACANT).collect());
        if let Ok(i) = live.binary_search(&id) {
            live.remove(i);
        }
        Some(id)
    }

    /// Heap bytes (lengths, not capacities, as `CompactRules::heap_bytes`
    /// counts): columns, tables, row ids, live lists and locators.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let relations = self.relations.iter().flatten();
        let columns = relations.map(|(t, ids)| t.heap_bytes() + size_of_val(&ids[..]));
        let live = self.live.iter().flatten().map(|l| size_of_val(&l[..]));
        columns.chain(live).sum::<usize>()
            + size_of_val(&self.relations[..])
            + size_of_val(&self.live[..])
            + size_of_val(&self.locs[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_numbered_in_insertion_order_and_deduplicated() {
        let mut t = Tuples::new(2);
        assert_eq!(t.get(&[1, 2]), None);
        assert_eq!(t.insert(&[1, 2]), (0, true));
        assert_eq!(t.insert(&[2, 1]), (1, true));
        assert_eq!(t.insert(&[1, 2]), (0, false));
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(1), &[2, 1]);
        assert_eq!(t.get(&[2, 1]), Some(1));
        assert_eq!(t.get(&[2, 2]), None);
    }

    #[test]
    fn tuples_sharing_their_first_constant_spread_over_the_table() {
        // 2-tuples with one first constant differ only in their second
        // word: the low-bit collision case `FxHasher::finish` guards
        // against. Every id is found, and probe sequences stay short.
        let mut t = Tuples::new(2);
        for y in 0..10_000u32 {
            assert_eq!(t.insert(&[7, y]), (y, true));
        }
        for y in 0..10_000u32 {
            assert_eq!(t.get(&[7, y]), Some(y));
        }
        let mask = t.table.len() - 1;
        let longest = (0..10_000u32)
            .map(|y| {
                let home = hash(&[7, y]) & mask;
                (t.slot_of(&[7, y]) + t.table.len() - home) & mask
            })
            .max()
            .unwrap();
        assert!(longest < 64, "longest probe run {longest}");
    }

    #[test]
    fn every_row_survives_repeated_growth() {
        let mut t = Tuples::new(3);
        let tuple = |i: u32| [i % 13, i / 13, i ^ 0x55];
        for i in 0..5_000u32 {
            assert_eq!(t.insert(&tuple(i)), (i, true));
            if i.is_power_of_two() {
                // Right after a rehash: everything inserted so far.
                assert!((0..=i).all(|j| t.get(&tuple(j)) == Some(j)), "after {i}");
            }
        }
        assert!(t.table.len() >= 2 * t.len());
        for i in 0..5_000u32 {
            assert_eq!(t.get(&tuple(i)), Some(i));
            assert_eq!(t.row(i as usize), &tuple(i));
            assert_eq!(t.insert(&tuple(i)), (i, false));
        }
        assert_eq!(t.len(), 5_000);
    }

    #[test]
    fn arities_zero_one_and_three() {
        let mut nullary = Tuples::new(0);
        assert_eq!(nullary.get(&[]), None);
        assert_eq!(nullary.insert(&[]), (0, true));
        assert_eq!(nullary.insert(&[]), (0, false));
        assert_eq!(nullary.get(&[]), Some(0));
        assert_eq!((nullary.len(), nullary.row(0)), (1, &[][..]));

        let mut unary = Tuples::new(1);
        for c in 0..100 {
            unary.insert(&[c]);
        }
        assert_eq!(unary.len(), 100);
        assert!((0..100).all(|c| unary.get(&[c]) == Some(c)));

        let mut ternary = Tuples::new(3);
        ternary.insert(&[1, 2, 3]);
        ternary.insert(&[3, 2, 1]);
        assert_eq!(ternary.get(&[3, 2, 1]), Some(1));
        assert_eq!(ternary.row(0), &[1, 2, 3]);
    }

    #[test]
    fn get_with_the_wrong_arity_is_none() {
        let mut t = Tuples::new(2);
        t.insert(&[1, 2]);
        assert_eq!(t.get(&[1]), None);
        assert_eq!(t.get(&[1, 2, 3]), None);
        assert_eq!(t.get(&[]), None);
        assert_eq!(Tuples::new(0).get(&[1]), None);
    }

    #[test]
    #[should_panic(expected = "tuple arity")]
    fn insert_with_the_wrong_arity_panics() {
        Tuples::new(2).insert(&[1]);
    }
}

//! Compact CSR storage for grounded rules — the one rule store.
//!
//! Every grounded rule of a [`GroundedProgram`] lives here: per-rule
//! scalars plus two shared body pools indexed by offset ranges (classic
//! compressed-sparse-row layout), six flat arrays in all. The boxed
//! alternative — one struct per rule owning two heap `Vec`s — costs two
//! allocations and two pointer-sized headers per rule and scatters the
//! body payloads across the heap; at 15M rules (TC on gnm(2000, 8000))
//! that was gigabytes. Grounding records each discovery task's rules
//! straight into a store of its own (a *fragment*) and the round merge
//! appends the fragments in task order. Incremental maintenance appends
//! delta rules and compacts retracted ones out in place. [`FactRules`],
//! the fact → rules indices the grounding keeps beside the store, share
//! the layout.
//!
//! [`GroundedProgram`]: crate::ground::GroundedProgram

use crate::database::FactId;
use crate::ground::BodyMatch;

/// Tag bit of a fragment head that is not an interned fact yet: the low
/// bits index the recording task's new-head list, and the round merge
/// resolves it to a fact index in [`CompactRules::append`]. Interned
/// heads never reach it — fact indices are `u32`-narrow and a grounding
/// with 2³¹ facts is far past the memory ceiling.
pub(crate) const PENDING_HEAD: u32 = 1 << 31;

/// Grounded rules in compressed-sparse-row form: six flat arrays instead
/// of one boxed struct per rule.
///
/// Scalars are narrowed to `u32` — a grounding with ≥ 2³² facts or rules
/// is far beyond the engine's memory ceiling, and the narrowing is half
/// the point: per-rule overhead is 16 bytes of scalars and offsets, body
/// entries 4 bytes each. Bodies keep **body-atom order** within each of
/// the two pools.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactRules {
    /// Per rule: index of the originating program rule.
    rule_index: Vec<u32>,
    /// Per rule: head fact (index into `GroundedProgram::idb_facts()`).
    head: Vec<u32>,
    /// Per rule + sentinel: start of its IDB body slice in `idb_bodies`.
    idb_start: Vec<u32>,
    /// Per rule + sentinel: start of its EDB body slice in `edb_bodies`.
    edb_start: Vec<u32>,
    /// Shared pool of IDB body fact indices.
    idb_bodies: Vec<u32>,
    /// Shared pool of EDB body fact ids.
    edb_bodies: Vec<FactId>,
}

impl Default for CompactRules {
    fn default() -> Self {
        Self::new()
    }
}

impl CompactRules {
    /// An empty store (just the two CSR sentinel rows).
    pub fn new() -> Self {
        CompactRules {
            rule_index: Vec::new(),
            head: Vec::new(),
            idb_start: vec![0],
            edb_start: vec![0],
            idb_bodies: Vec::new(),
            edb_bodies: Vec::new(),
        }
    }

    /// Number of rules stored.
    pub fn len(&self) -> usize {
        self.rule_index.len()
    }

    /// Whether the store holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rule_index.is_empty()
    }

    /// Total body atoms over all rules (IDB plus EDB).
    pub fn body_len(&self) -> usize {
        self.idb_bodies.len() + self.edb_bodies.len()
    }

    /// Append one rule straight from a join's per-atom matches (body-atom
    /// order), splitting them into the two pools. `head` may carry
    /// [`PENDING_HEAD`].
    pub(crate) fn push_matches(&mut self, rule_index: usize, head: u32, body: &[BodyMatch]) {
        for m in body {
            match *m {
                BodyMatch::Idb(i) => self.idb_bodies.push(i),
                BodyMatch::Edb(f) => self.edb_bodies.push(f),
            }
        }
        self.rule_index.push(rule_index as u32);
        self.head.push(head);
        self.idb_start.push(self.idb_bodies.len() as u32);
        self.edb_start.push(self.edb_bodies.len() as u32);
    }

    /// Append every rule of `other`, rebasing its body offsets onto this
    /// store's pools and resolving each [`PENDING_HEAD`]-tagged head `k`
    /// to `pending[k]`.
    pub(crate) fn append(&mut self, other: &CompactRules, pending: &[u32]) {
        let (ib, eb) = (self.idb_bodies.len() as u32, self.edb_bodies.len() as u32);
        self.rule_index.extend_from_slice(&other.rule_index);
        self.head.extend(other.head.iter().map(|&h| {
            if h & PENDING_HEAD == 0 {
                h
            } else {
                pending[(h & !PENDING_HEAD) as usize]
            }
        }));
        self.idb_start
            .extend(other.idb_start[1..].iter().map(|&s| s + ib));
        self.edb_start
            .extend(other.edb_start[1..].iter().map(|&s| s + eb));
        self.idb_bodies.extend_from_slice(&other.idb_bodies);
        self.edb_bodies.extend_from_slice(&other.edb_bodies);
    }

    /// Keep exactly the rules `r` for which `keep(r, head, EDB body)`
    /// holds, compacting in place in one pass: survivors keep their
    /// relative order and are renumbered densely. Each run of survivors
    /// moves down as one block per array, so the pass costs the predicate
    /// calls plus a memory copy of the rules after the first dropped one.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(usize, usize, &[FactId]) -> bool) {
        let n = self.len();
        // Rows `w..` are free; rows `run..r` are survivors still in place.
        // Moves only write below `run`, so every row is read intact.
        let (mut w, mut run) = (0usize, 0usize);
        for r in 0..=n {
            if r < n {
                let (elo, ehi) = (self.edb_start[r] as usize, self.edb_start[r + 1] as usize);
                if keep(r, self.head[r] as usize, &self.edb_bodies[elo..ehi]) {
                    continue;
                }
            }
            self.move_rows(run, r, w);
            w += r - run;
            run = r + 1;
        }
        let (wi, we) = (self.idb_start[w] as usize, self.edb_start[w] as usize);
        self.rule_index.truncate(w);
        self.head.truncate(w);
        self.idb_start.truncate(w + 1);
        self.edb_start.truncate(w + 1);
        self.idb_bodies.truncate(wi);
        self.edb_bodies.truncate(we);
    }

    /// Move rows `a..b` down to start at row `w <= a`, whose start
    /// offsets are already final.
    fn move_rows(&mut self, a: usize, b: usize, w: usize) {
        if a == b || a == w {
            return;
        }
        let (ilo, ihi) = (self.idb_start[a] as usize, self.idb_start[b] as usize);
        let (elo, ehi) = (self.edb_start[a] as usize, self.edb_start[b] as usize);
        let (wi, we) = (self.idb_start[w], self.edb_start[w]);
        self.rule_index.copy_within(a..b, w);
        self.head.copy_within(a..b, w);
        self.idb_bodies.copy_within(ilo..ihi, wi as usize);
        self.edb_bodies.copy_within(elo..ehi, we as usize);
        let (ishift, eshift) = (ilo as u32 - wi, elo as u32 - we);
        for k in 1..=b - a {
            self.idb_start[w + k] = self.idb_start[a + k] - ishift;
            self.edb_start[w + k] = self.edb_start[a + k] - eshift;
        }
    }

    /// Originating program-rule index of rule `i`.
    pub fn rule_index(&self, i: usize) -> usize {
        self.rule_index[i] as usize
    }

    /// Head fact of rule `i`.
    pub fn head(&self, i: usize) -> usize {
        self.head[i] as usize
    }

    /// IDB body facts of rule `i`, in body-atom order (indices into the
    /// grounded fact list, still `u32`-narrow — widen at the use site).
    pub fn body_idb(&self, i: usize) -> &[u32] {
        &self.idb_bodies[self.idb_start[i] as usize..self.idb_start[i + 1] as usize]
    }

    /// EDB body fact ids of rule `i`, in body-atom order.
    pub fn body_edb(&self, i: usize) -> &[FactId] {
        &self.edb_bodies[self.edb_start[i] as usize..self.edb_start[i + 1] as usize]
    }

    /// Heap bytes held by the six arrays (capacity not counted — this is
    /// the payload measure the bench reports).
    pub fn heap_bytes(&self) -> usize {
        self.rule_index.len() * 4
            + self.head.len() * 4
            + self.idb_start.len() * 4
            + self.edb_start.len() * 4
            + self.idb_bodies.len() * 4
            + self.edb_bodies.len() * std::mem::size_of::<FactId>()
    }

    /// Heap bytes the same rules would occupy as boxed structs — per rule
    /// a `usize` rule index and head plus two `Vec` headers, and each body
    /// entry widened to `usize` (IDB) or kept as a `FactId` (EDB). The
    /// bench reports the compaction ratio against it.
    pub fn boxed_bytes_equivalent(&self) -> usize {
        let per_rule = 2 * std::mem::size_of::<usize>() + 2 * std::mem::size_of::<Vec<usize>>();
        self.len() * per_rule
            + self.idb_bodies.len() * std::mem::size_of::<usize>()
            + self.edb_bodies.len() * std::mem::size_of::<FactId>()
    }
}

/// A fact → grounded-rules index in CSR form: `of(i)` lists the rules
/// filed under IDB fact `i`, ascending. [`GroundedProgram`] keeps two —
/// rules by head, and rules by body fact — in two flat arrays each
/// instead of one heap `Vec` per fact.
///
/// [`GroundedProgram`]: crate::ground::GroundedProgram
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FactRules {
    /// Per fact + sentinel: start of its slice in `rules`.
    start: Vec<u32>,
    /// The rule ids, grouped by fact.
    rules: Vec<u32>,
}

impl FactRules {
    /// The rules filed under fact `fact`, ascending.
    pub fn of(&self, fact: usize) -> &[u32] {
        &self.rules[self.start[fact] as usize..self.start[fact + 1] as usize]
    }

    /// Number of facts covered.
    pub fn len(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Whether no fact is covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Refill the index for `facts` facts from `num_rules` rules, where
    /// `keys(r)` yields the facts rule `r` is filed under (each at most
    /// once). A counting sort: one pass counts, one pass places (the
    /// bucket starts double as the write cursors and are shifted back
    /// afterwards), reusing both arrays' capacity — no allocation once
    /// the index has reached its size.
    pub(crate) fn rebuild<K, I>(&mut self, facts: usize, num_rules: usize, keys: K)
    where
        K: Fn(usize) -> I,
        I: IntoIterator<Item = usize>,
    {
        self.start.clear();
        self.start.resize(facts + 1, 0);
        for r in 0..num_rules {
            for f in keys(r) {
                self.start[f + 1] += 1;
            }
        }
        for f in 0..facts {
            self.start[f + 1] += self.start[f];
        }
        self.rules.clear();
        self.rules.resize(self.start[facts] as usize, 0);
        // Place each rule at its bucket's cursor; afterwards `start[f]`
        // holds the end of bucket `f`, i.e. the start of bucket `f + 1`.
        for r in 0..num_rules {
            for f in keys(r) {
                let at = &mut self.start[f];
                self.rules[*at as usize] = r as u32;
                *at += 1;
            }
        }
        self.start.copy_within(0..facts, 1);
        self.start[0] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::ground::{ground, Exec};
    use crate::parser::parse_program;
    use graphgen::generators;

    /// Append a rule given as parts (IDB matches first, then EDB).
    fn push(csr: &mut CompactRules, ri: usize, head: u32, idb: &[u32], edb: &[FactId]) {
        let body: Vec<BodyMatch> = idb
            .iter()
            .map(|&i| BodyMatch::Idb(i))
            .chain(edb.iter().map(|&f| BodyMatch::Edb(f)))
            .collect();
        csr.push_matches(ri, head, &body);
    }

    fn sample() -> CompactRules {
        let mut csr = CompactRules::new();
        push(&mut csr, 0, 3, &[], &[7]);
        push(&mut csr, 1, 4, &[3, 3], &[8]);
        push(&mut csr, 1, 5, &[4], &[]);
        push(&mut csr, 2, 3, &[5, 4], &[9, 10]);
        csr
    }

    #[test]
    fn empty_store_is_coherent() {
        let csr = CompactRules::default();
        assert_eq!(csr, CompactRules::new());
        assert!(csr.is_empty());
        assert_eq!(csr.len(), 0);
        assert_eq!(csr.body_len(), 0);
        assert!(csr.heap_bytes() >= 8); // the two sentinels
    }

    #[test]
    fn append_rebases_offsets_and_resolves_pending_heads() {
        let mut a = sample();
        let mut frag = CompactRules::new();
        push(&mut frag, 1, PENDING_HEAD | 1, &[2], &[11]);
        push(&mut frag, 0, 6, &[], &[12]);
        push(&mut frag, 1, PENDING_HEAD, &[6], &[13]);
        a.append(&frag, &[40, 41]);
        let mut want = sample();
        push(&mut want, 1, 41, &[2], &[11]);
        push(&mut want, 0, 6, &[], &[12]);
        push(&mut want, 1, 40, &[6], &[13]);
        assert_eq!(a, want);
    }

    #[test]
    fn retain_compacts_in_place() {
        for mask in 0..16u32 {
            let keep: Vec<bool> = (0..4).map(|i| mask & (1 << i) != 0).collect();
            let mut csr = sample();
            csr.retain(|r, head, edb| {
                let s = sample();
                assert_eq!((head, edb), (s.head(r), s.body_edb(r)));
                keep[r]
            });
            // The compacted store equals one built from the survivors.
            let mut want = CompactRules::new();
            for (r, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
                let s = sample();
                push(
                    &mut want,
                    s.rule_index(r),
                    s.head(r) as u32,
                    s.body_idb(r),
                    s.body_edb(r),
                );
            }
            assert_eq!(csr, want, "mask={mask:04b}");
        }
    }

    #[test]
    fn fact_rules_rebuild_matches_per_fact_lists() {
        // Rebuilding a used index (bigger, then smaller) must equal a
        // fresh build and the per-fact lists it replaces.
        let s = sample();
        let mut idx = FactRules::default();
        idx.rebuild(9, 3, |r| [r, r + 3].into_iter());
        for facts in [6usize, 12] {
            idx.rebuild(facts, s.len(), |r| std::iter::once(s.head(r)));
            let mut want = vec![Vec::new(); facts];
            for r in 0..s.len() {
                want[s.head(r)].push(r as u32);
            }
            assert_eq!(idx.len(), facts);
            for (f, rules) in want.iter().enumerate() {
                assert_eq!(idx.of(f), &rules[..], "facts={facts} f={f}");
            }
            let mut fresh = FactRules::default();
            fresh.rebuild(facts, s.len(), |r| std::iter::once(s.head(r)));
            assert_eq!(idx, fresh);
        }
    }

    #[test]
    fn csr_is_smaller_than_boxed() {
        let p = parse_program("T(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).").unwrap();
        let g = generators::gnm(30, 90, &["E"], 3);
        let mut p = p;
        let (db, _) = Database::from_graph(&mut p, &g);
        let gp = ground(&p, &db, &Exec::default()).unwrap();
        let csr = &gp.rules;
        assert!(
            csr.heap_bytes() * 2 < csr.boxed_bytes_equivalent(),
            "CSR {} bytes vs boxed {} bytes",
            csr.heap_bytes(),
            csr.boxed_bytes_equivalent()
        );
    }
}

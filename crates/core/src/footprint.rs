//! Paged-bitmap address sets for footprint tracking.
//!
//! Algorithm 3 tracks each reference's *footprint* — the count of distinct
//! addresses it touches — which naively costs one hash-set insert per
//! access, the single largest line item on the analyzer hot path. Real
//! reference footprints are extremely local (affine references walk
//! arrays), so this set stores membership as 64-address bitmap pages keyed
//! by `addr >> 6`. Every page lives in exactly one of three stores:
//!
//! * the **dense span**, a `Vec<u64>` of up to `DENSE_SPAN` consecutive
//!   pages, updated in place: an access inside it is one indexed `OR`;
//! * the **far page**, a one-page cache for the latest page outside the
//!   span, so a reference running past the span touches the hash map only
//!   when it changes page;
//! * the **spill**, a hash map holding every other page outside the span.
//!
//! A reference's first page is its far page, so a one-page footprint (a
//! scalar, a fixed address) never allocates; the next page outside the far
//! page anchors the span. The span grows toward a page up to `DENSE_SPAN`
//! pages above its base, or re-anchors below its base while the whole span
//! still fits; a page beyond that becomes the far page, and the previous
//! far page moves to the spill. Growing or re-anchoring adopts the far page
//! and every spilled page the span now covers, which keeps the three stores
//! disjoint.
//!
//! The representation is observationally identical to a `HashSet<u32>`:
//! only cardinality ([`Footprint::len`]), membership, unioning, and
//! (order-insensitive) equality are exposed, so swapping it in cannot
//! change analysis output bytes.

use crate::fasthash::FastMap;

/// Widest page span (in 64-address pages) the dense vector may cover —
/// 64 Ki addresses, an 8 KiB bitmap when fully grown. References that
/// stray farther from their anchor use the far page and the spill.
const DENSE_SPAN: usize = 1024;

/// Extra downward slack (in pages) taken when the span re-anchors below
/// `base`, so descending walks prepend in chunks instead of per page.
const DOWN_SLACK: usize = 64;

/// Marks "no far page"; page indices stop at `u32::MAX >> 6`.
const NO_PAGE: u32 = u32::MAX;

/// A set of `u32` addresses as 64-bit bitmap pages in a dense span, one far
/// page and a spill map (see the module docs).
#[derive(Debug, Clone)]
pub struct Footprint {
    /// First page of the dense span (meaningful once `dense` is
    /// non-empty).
    base: u32,
    /// Bitmaps for pages `base .. base + dense.len()`.
    dense: Vec<u64>,
    /// The far page ([`NO_PAGE`] if none); never inside the span.
    far_page: u32,
    /// The far page's bitmap.
    far_bits: u64,
    /// Every other page outside the span.
    spill: FastMap<u32, u64>,
    /// Exact cardinality, maintained on insert.
    len: u64,
}

impl Default for Footprint {
    fn default() -> Footprint {
        Footprint {
            base: 0,
            dense: Vec::new(),
            far_page: NO_PAGE,
            far_bits: 0,
            spill: FastMap::default(),
            len: 0,
        }
    }
}

impl Footprint {
    /// Creates an empty set.
    pub fn new() -> Footprint {
        Footprint::default()
    }

    /// Inserts an address. O(1); touches the hash map only when a page
    /// outside the span replaces the far page.
    #[inline]
    pub fn insert(&mut self, addr: u32) {
        let page = addr >> 6;
        let i = page.wrapping_sub(self.base) as usize;
        let bits = if i < self.dense.len() {
            &mut self.dense[i]
        } else if page == self.far_page {
            &mut self.far_bits
        } else {
            self.place(page)
        };
        let mask = 1u64 << (addr & 63);
        if *bits & mask == 0 {
            *bits |= mask;
            self.len += 1;
        }
    }

    /// The store for `page`, which is neither in the span nor the far page:
    /// the span, if it can cover `page`, else the far page, whose previous
    /// page moves to the spill.
    #[cold]
    fn place(&mut self, page: u32) -> &mut u64 {
        if let Some(i) = self.cover(page) {
            return &mut self.dense[i];
        }
        if self.far_page != NO_PAGE {
            self.spill.insert(self.far_page, self.far_bits);
        }
        self.far_page = page;
        self.far_bits = self.spill.remove(&page).unwrap_or(0);
        &mut self.far_bits
    }

    /// Grows or re-anchors the span to cover `page` (outside it) and
    /// returns its index there; `None` if `page` is out of reach, or is the
    /// first page, which goes to the far page.
    fn cover(&mut self, page: u32) -> Option<usize> {
        let i = if self.dense.is_empty() {
            if self.far_page == NO_PAGE {
                return None;
            }
            self.base = page;
            self.dense.resize(8.min(DENSE_SPAN), 0);
            0
        } else if page >= self.base {
            let i = (page - self.base) as usize;
            if i >= DENSE_SPAN {
                return None;
            }
            self.dense.resize((i + 1).next_power_of_two().min(DENSE_SPAN), 0);
            i
        } else {
            let shift = (self.base - page) as usize;
            if shift + self.dense.len() > DENSE_SPAN {
                return None;
            }
            // Re-anchor downward with slack so a descending walk prepends
            // in chunks, not per page.
            let slack = (DENSE_SPAN - shift - self.dense.len()).min(DOWN_SLACK).min(page as usize);
            self.dense.splice(0..0, std::iter::repeat_n(0, shift + slack));
            self.base -= (shift + slack) as u32;
            slack
        };
        self.adopt();
        Some(i)
    }

    /// Moves the far page and every spilled page the span covers into it.
    fn adopt(&mut self) {
        let span = self.base..self.base + self.dense.len() as u32;
        if span.contains(&self.far_page) {
            self.dense[(self.far_page - span.start) as usize] = self.far_bits;
            self.far_page = NO_PAGE;
            self.far_bits = 0;
        }
        if !self.spill.is_empty() {
            let dense = &mut self.dense;
            self.spill.retain(|&page, &mut bits| {
                let inside = span.contains(&page);
                if inside {
                    dense[(page - span.start) as usize] = bits;
                }
                !inside
            });
        }
    }

    /// The bitmap of `page`, from whichever store holds it.
    fn page_bits(&self, page: u32) -> u64 {
        let i = page.wrapping_sub(self.base) as usize;
        if i < self.dense.len() {
            self.dense[i]
        } else if page == self.far_page {
            self.far_bits
        } else {
            self.spill.get(&page).copied().unwrap_or(0)
        }
    }

    /// Every non-empty page with its bitmap, each page once.
    fn pages(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let base = self.base;
        let far = (self.far_page != NO_PAGE).then_some((self.far_page, self.far_bits));
        self.dense
            .iter()
            .enumerate()
            .map(move |(i, &bits)| (base + i as u32, bits))
            .chain(self.spill.iter().map(|(&page, &bits)| (page, bits)))
            .chain(far)
            .filter(|&(_, bits)| bits != 0)
    }

    /// Number of distinct addresses inserted.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    pub fn contains(&self, addr: u32) -> bool {
        self.page_bits(addr >> 6) & (1u64 << (addr & 63)) != 0
    }

    /// Iterates all member addresses (unordered across pages).
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.pages().flat_map(|(page, bits)| {
            (0u32..64).filter(move |b| bits & (1u64 << b) != 0).map(move |b| (page << 6) | b)
        })
    }

    /// ORs this set's pages into a page-map accumulator — the bulk union
    /// the Table III report rows build per reference class.
    pub fn union_into(&self, acc: &mut FastMap<u32, u64>) {
        for (page, bits) in self.pages() {
            *acc.entry(page).or_insert(0) |= bits;
        }
    }

    /// Cardinality of a [`Self::union_into`] accumulator.
    pub fn union_len(acc: &FastMap<u32, u64>) -> u64 {
        acc.values().map(|bits| u64::from(bits.count_ones())).sum()
    }
}

impl PartialEq for Footprint {
    fn eq(&self, other: &Footprint) -> bool {
        // Equal sets may keep a page in different stores (the span anchors
        // where each set's second page fell). Equal sizes plus every page
        // of `self` matching in `other` make the sets equal.
        self.len == other.len && self.pages().all(|(page, bits)| other.page_bits(page) == bits)
    }
}

impl Eq for Footprint {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn insert_len_contains_roundtrip() {
        let mut fp = Footprint::new();
        for addr in [0u32, 1, 63, 64, 1 << 20, u32::MAX, 0, 64] {
            fp.insert(addr);
        }
        assert_eq!(fp.len(), 6, "duplicates are not recounted");
        for addr in [0u32, 1, 63, 64, 1 << 20, u32::MAX] {
            assert!(fp.contains(addr), "{addr:#x} must be a member");
        }
        assert!(!fp.contains(2));
        assert!(!fp.contains(65));
        let mut got: Vec<u32> = fp.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 63, 64, 1 << 20, u32::MAX]);
    }

    #[test]
    fn page_zero_is_a_real_page() {
        // Page 0 is an ordinary page: inserting to another page first must
        // not materialize a phantom page-0 entry.
        let mut fp = Footprint::new();
        fp.insert(1000);
        assert_eq!(fp.iter().count(), 1);
        assert!(!fp.contains(0));

        let mut direct = Footprint::new();
        direct.insert(1000);
        assert_eq!(fp, direct);
    }

    #[test]
    fn equality_ignores_cache_state() {
        // Same members, different insertion order => different far pages
        // and span anchors, equal sets.
        let mut a = Footprint::new();
        let mut b = Footprint::new();
        for addr in [10u32, 1000, 10] {
            a.insert(addr);
        }
        for addr in [1000u32, 10, 1000] {
            b.insert(addr);
        }
        assert_eq!(a, b);
        b.insert(11);
        assert_ne!(a, b);
    }

    #[test]
    fn union_matches_per_set_members() {
        let mut a = Footprint::new();
        let mut b = Footprint::new();
        for addr in 0u32..100 {
            a.insert(addr * 4);
            b.insert(addr * 4 + 200);
        }
        let mut acc = FastMap::default();
        a.union_into(&mut acc);
        b.union_into(&mut acc);
        let mut want: Vec<u32> = a.iter().chain(b.iter()).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(Footprint::union_len(&acc), want.len() as u64);
    }

    #[test]
    fn spilled_and_reanchored_pages_agree_with_a_hash_set() {
        // Far jumps force far-page switches and spill entries, descending
        // runs force downward re-anchors, and revisits reload spilled
        // pages as the far page.
        let mut fp = Footprint::new();
        let mut reference = std::collections::HashSet::new();
        let mut ins = |fp: &mut Footprint, addr: u32| {
            fp.insert(addr);
            reference.insert(addr);
        };
        for i in 0..200u32 {
            ins(&mut fp, 0x4000_0000 + i * 64); // anchor region, ascending
            ins(&mut fp, 0x7fff_0000u32.wrapping_sub(i * 64)); // spill, descending
            ins(&mut fp, 0x4000_0000u32.wrapping_sub(i * 96)); // below anchor
        }
        for i in 0..200u32 {
            ins(&mut fp, 0x7fff_0000u32.wrapping_sub(i * 64)); // revisit spill
        }
        assert_eq!(fp.len(), reference.len() as u64);
        let mut got: Vec<u32> = fp.iter().collect();
        got.sort_unstable();
        let mut want: Vec<u32> = reference.iter().copied().collect();
        want.sort_unstable();
        assert_eq!(got, want);
        for &addr in &want {
            assert!(fp.contains(addr), "{addr:#x} must be a member");
        }
        let mut acc = FastMap::default();
        fp.union_into(&mut acc);
        assert_eq!(Footprint::union_len(&acc), want.len() as u64);
    }

    /// Address of byte `off` of page `n` above an arbitrary anchor region.
    fn at(n: u32, off: u32) -> u32 {
        ((0x4_0000 + n) << 6) | off
    }

    /// Checks `fp` against `want` through every reader, and that each page
    /// lives in exactly one store.
    fn assert_same_set(fp: &Footprint, want: &HashSet<u32>) {
        assert_eq!(fp.len(), want.len() as u64);
        let mut got: Vec<u32> = fp.iter().collect();
        got.sort_unstable();
        let mut sorted: Vec<u32> = want.iter().copied().collect();
        sorted.sort_unstable();
        assert_eq!(got, sorted);
        for &addr in &sorted {
            assert!(fp.contains(addr), "{addr:#x} must be a member");
            let next = addr.wrapping_add(1);
            assert_eq!(fp.contains(next), want.contains(&next), "{next:#x}");
        }
        let mut acc = FastMap::default();
        fp.union_into(&mut acc);
        assert_eq!(Footprint::union_len(&acc), want.len() as u64);
        // The same set built in another order lays its pages out
        // differently and is still equal; one more member breaks that.
        let mut other = Footprint::new();
        for &addr in sorted.iter().rev() {
            other.insert(addr);
        }
        assert_eq!(fp, &other);
        assert_eq!(&other, fp);
        other.insert((0..).find(|a| !want.contains(a)).unwrap());
        assert_ne!(fp, &other);
        // One store per page.
        let span = fp.base..fp.base + fp.dense.len() as u32;
        assert!(!span.contains(&fp.far_page), "far page {} inside the span", fp.far_page);
        for &page in fp.spill.keys() {
            assert!(!span.contains(&page), "spilled page {page} inside the span");
            assert_ne!(page, fp.far_page, "page {page} both far and spilled");
        }
    }

    /// Inserts into both sets.
    fn insert(fp: &mut Footprint, want: &mut HashSet<u32>, addr: u32) {
        fp.insert(addr);
        want.insert(addr);
    }

    #[test]
    fn span_growth_adopts_spilled_and_far_pages() {
        let (mut fp, mut want) = (Footprint::new(), HashSet::new());
        insert(&mut fp, &mut want, at(200, 5)); // the first page: far
        insert(&mut fp, &mut want, at(100, 0)); // anchors the span at 100
        insert(&mut fp, &mut want, at(5000, 0)); // out of reach: page 200 spills
        assert_eq!(fp.spill.get(&(0x4_0000 + 200)), Some(&(1 << 5)));
        assert_same_set(&fp, &want);
        insert(&mut fp, &mut want, at(300, 0)); // grows the span over 200
        assert!(fp.spill.is_empty(), "page 200 is adopted");
        assert_same_set(&fp, &want);
        insert(&mut fp, &mut want, at(200, 5)); // counted once
        insert(&mut fp, &mut want, at(200, 6));
        assert_same_set(&fp, &want);

        let (mut fp, mut want) = (Footprint::new(), HashSet::new());
        insert(&mut fp, &mut want, at(150, 2)); // far
        insert(&mut fp, &mut want, at(100, 0)); // anchors the span at 100
        insert(&mut fp, &mut want, at(120, 0)); // grows to 100..132
        assert_eq!(fp.far_page, 0x4_0000 + 150);
        insert(&mut fp, &mut want, at(140, 0)); // grows to 100..164
        assert_eq!(fp.far_page, NO_PAGE, "page 150 is adopted");
        insert(&mut fp, &mut want, at(150, 2)); // counted once
        assert_same_set(&fp, &want);
    }

    #[test]
    fn downward_reanchor_adopts_the_far_page() {
        let (mut fp, mut want) = (Footprint::new(), HashSet::new());
        insert(&mut fp, &mut want, at(100, 9)); // far
        insert(&mut fp, &mut want, at(110, 0)); // anchors the span at 110
        assert_eq!(fp.far_page, 0x4_0000 + 100);
        assert_same_set(&fp, &want);
        insert(&mut fp, &mut want, at(105, 0)); // re-anchors below 100
        assert_eq!(fp.far_page, NO_PAGE, "page 100 is adopted");
        assert_same_set(&fp, &want);
        insert(&mut fp, &mut want, at(100, 9));
        insert(&mut fp, &mut want, at(100, 63));
        assert_same_set(&fp, &want);
    }

    #[test]
    fn far_page_switch_and_revisit() {
        let (mut fp, mut want) = (Footprint::new(), HashSet::new());
        insert(&mut fp, &mut want, at(0, 1));
        insert(&mut fp, &mut want, at(1, 1)); // anchors the span at 1
        for round in 0..3 {
            for far in [3000, 9000, 3000, 20_000] {
                insert(&mut fp, &mut want, at(far, round));
                insert(&mut fp, &mut want, at(far, 40));
                assert_same_set(&fp, &want);
            }
            insert(&mut fp, &mut want, at(0, round + 7)); // the first far page, spilled
            assert_same_set(&fp, &want);
        }
    }

    #[test]
    fn sequential_sweep_runs_past_the_span() {
        let (mut fp, mut want) = (Footprint::new(), HashSet::new());
        let end = (DENSE_SPAN as u32 + 100) * 64;
        for pass in 0..2 {
            for off in (0..end).step_by(4) {
                insert(&mut fp, &mut want, at(0, 0) + off + pass);
            }
            assert_eq!(fp.dense.len(), DENSE_SPAN);
            assert!(!fp.spill.is_empty());
            assert_same_set(&fp, &want);
        }
    }

    #[test]
    fn matches_a_reference_hash_set() {
        // Pseudo-random walk: paged bitmaps must agree with a plain set.
        let mut fp = Footprint::new();
        let mut reference = std::collections::HashSet::new();
        let mut x = 0x1234_5678u32;
        for _ in 0..10_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let addr = x % 50_000;
            fp.insert(addr);
            reference.insert(addr);
        }
        assert_eq!(fp.len(), reference.len() as u64);
        let mut got: Vec<u32> = fp.iter().collect();
        got.sort_unstable();
        let mut want: Vec<u32> = reference.into_iter().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

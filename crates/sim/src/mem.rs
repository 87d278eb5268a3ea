//! Flat, sparse, byte-addressable memory with the segment layout of
//! [`minic_trace::layout`]: globals low, heap growing up, stack growing down
//! from just under `0x8000_0000` — the same flavour as the paper's
//! SimpleScalar runs (its Fig. 4 trace shows stack addresses `0x7fff_xxxx`).

use minic_trace::layout;
use std::collections::HashMap;

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Second-level fan-out: each directory node covers 4 MiB.
const NODE_LEN: usize = 1 << 10;
/// Top-level fan-out over the 32-bit space.
const DIR_LEN: usize = 1 << 10;

type Leaf = [u8; PAGE_SIZE];
type Node = [Option<Box<Leaf>>; NODE_LEN];

const NO_LEAF: Option<Box<Leaf>> = None;

/// Sparse byte memory. Any 32-bit address is readable/writable; untouched
/// bytes read as zero (the simulator zero-initializes, like a loader's BSS).
///
/// Storage is a two-level page directory (10 + 10 + 12 bit split): a load
/// or store is two array indexes and two pointer hops — no hashing — which
/// is what keeps both execution engines' `Memory` traffic cheap relative
/// to their own dispatch overhead.
#[derive(Debug, Clone)]
pub struct Memory {
    dir: Vec<Option<Box<Node>>>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory { dir: vec![None; DIR_LEN] }
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&Leaf> {
        let node = self.dir[(addr >> (PAGE_BITS + 10)) as usize].as_deref()?;
        node[((addr >> PAGE_BITS) as usize) & (NODE_LEN - 1)].as_deref()
    }

    fn page_mut(&mut self, addr: u32) -> &mut Leaf {
        let node = self.dir[(addr >> (PAGE_BITS + 10)) as usize]
            .get_or_insert_with(|| Box::new([NO_LEAF; NODE_LEN]));
        node[((addr >> PAGE_BITS) as usize) & (NODE_LEN - 1)]
            .get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads a little-endian u32 (no alignment requirement, as on the
    /// paper's PISA-like target accesses are byte-granular in the trace).
    /// Words within one page — the overwhelmingly common case — cost a
    /// single page walk.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 4 <= PAGE_SIZE {
            match self.page(addr) {
                Some(page) => {
                    u32::from_le_bytes(page[off..off + 4].try_into().expect("4-byte slice"))
                }
                None => 0,
            }
        } else {
            let mut bytes = [0u8; 4];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32));
            }
            u32::from_le_bytes(bytes)
        }
    }

    /// Writes a little-endian u32.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + 4 <= PAGE_SIZE {
            self.page_mut(addr)[off..off + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Reads a sign-extended i32.
    pub fn read_i32(&self, addr: u32) -> i64 {
        self.read_u32(addr) as i32 as i64
    }
}

/// Bump allocator over the heap segment, with simple free accounting.
///
/// `free` does not recycle memory (a bump allocator cannot); it only checks
/// that the pointer was live and counts the release. That is enough for the
/// reproduction: what matters is the *addresses* malloc hands out and the
/// library traffic it generates, not fragmentation behaviour.
#[derive(Debug, Clone)]
pub struct Heap {
    next: u32,
    live: HashMap<u32, u32>,
    /// Total bytes ever allocated.
    pub allocated_bytes: u64,
    /// Number of `malloc` calls.
    pub allocations: u64,
    /// Number of `free` calls.
    pub frees: u64,
}

impl Default for Heap {
    fn default() -> Self {
        Heap::new()
    }
}

impl Heap {
    /// Creates an empty heap starting at [`layout::HEAP_BASE`].
    pub fn new() -> Self {
        Heap {
            next: layout::HEAP_BASE,
            live: HashMap::new(),
            allocated_bytes: 0,
            allocations: 0,
            frees: 0,
        }
    }

    /// Allocates `size` bytes, 8-byte aligned, leaving a 4-byte metadata
    /// header before the returned block (the header address is what the
    /// library traffic touches).
    ///
    /// Returns `None` if the heap would collide with the stack ceiling.
    pub fn alloc(&mut self, size: u32) -> Option<HeapBlock> {
        let header = self.next;
        let user = header.checked_add(8)?;
        let end = user.checked_add(size.max(1))?;
        // Round the next pointer up to 8.
        let next = end.checked_add(7)? & !7;
        if next >= layout::STACK_TOP {
            return None;
        }
        self.next = next;
        self.live.insert(user, size);
        self.allocated_bytes += size as u64;
        self.allocations += 1;
        Some(HeapBlock { header, user })
    }

    /// Releases a block. Returns `false` for unknown/double frees.
    pub fn free(&mut self, user_addr: u32) -> bool {
        self.frees += 1;
        self.live.remove(&user_addr).is_some()
    }

    /// Number of live allocations.
    pub fn live_blocks(&self) -> usize {
        self.live.len()
    }
}

/// Result of a heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapBlock {
    /// Metadata header address (library-touched).
    pub header: u32,
    /// First usable byte handed to the program.
    pub user: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let mem = Memory::new();
        assert_eq!(mem.read_u8(0x1234_5678), 0);
        assert_eq!(mem.read_u32(layout::GLOBAL_BASE), 0);
    }

    #[test]
    fn byte_and_word_round_trip() {
        let mut mem = Memory::new();
        mem.write_u8(0x1000_0000, 0xab);
        assert_eq!(mem.read_u8(0x1000_0000), 0xab);
        mem.write_u32(0x1000_0010, 0xdead_beef);
        assert_eq!(mem.read_u32(0x1000_0010), 0xdead_beef);
    }

    #[test]
    fn word_crossing_page_boundary() {
        let mut mem = Memory::new();
        let addr = (1 << PAGE_BITS) - 2;
        mem.write_u32(addr as u32, 0x0102_0304);
        assert_eq!(mem.read_u32(addr as u32), 0x0102_0304);
    }

    #[test]
    fn sign_extension() {
        let mut mem = Memory::new();
        mem.write_u32(0x10, 0xffff_ffff);
        assert_eq!(mem.read_i32(0x10), -1);
    }

    #[test]
    fn heap_allocates_disjoint_aligned_blocks() {
        let mut heap = Heap::new();
        let a = heap.alloc(100).unwrap();
        let b = heap.alloc(100).unwrap();
        assert!(a.user >= layout::HEAP_BASE);
        assert_eq!(a.user % 8, 0);
        assert!(b.user >= a.user + 100);
        assert_eq!(heap.live_blocks(), 2);
        assert!(heap.free(a.user));
        assert!(!heap.free(a.user), "double free detected");
        assert_eq!(heap.live_blocks(), 1);
    }

    #[test]
    fn heap_zero_size_allocation_is_distinct() {
        let mut heap = Heap::new();
        let a = heap.alloc(0).unwrap();
        let b = heap.alloc(0).unwrap();
        assert_ne!(a.user, b.user);
    }

    #[test]
    fn heap_exhaustion() {
        let mut heap = Heap::new();
        assert!(heap.alloc(u32::MAX).is_none());
    }
}

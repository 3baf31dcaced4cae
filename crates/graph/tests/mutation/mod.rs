//! What the seeded snapshot fuzz suites share: an allocator that notes the
//! largest request, a seeded generator, the mutation of one payload, and
//! the container rewritten around it. `bgpq-graph`'s `snapshot_fuzz`
//! mutates the graph sections, `bgpq-access`'s the schema and indices.

use bgpq_graph::io::snapshot::{Section, SnapshotArchive, SnapshotWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, noting the largest request each thread makes.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// What a load may allocate at once beyond a few times the file: a page of
/// rows and the like, fixed sizes the file does not choose.
pub const FIXED_ALLOCATIONS: usize = 64 << 10;

/// Runs `load` on this thread, returning its result and the largest single
/// allocation it made.
pub fn largest_allocation<T>(load: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let result = load();
    (result, LARGEST.with(Cell::get))
}

/// A small seeded generator (an LCG).
pub struct Seeded(pub u64);

impl Seeded {
    pub fn below(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as usize % bound.max(1)
    }
}

/// One seeded mutation of `payload`: a bit flip, a word overwritten with a
/// value lengths and ids are made of, two words swapped, or bytes cut from
/// or added to the end.
pub fn mutate(rng: &mut Seeded, payload: &[u8], node_count: u32) -> Vec<u8> {
    let mut out = payload.to_vec();
    let at = rng.below(out.len());
    match rng.below(6) {
        0 => out[at] ^= 1 << rng.below(8),
        1 if out.len() >= 4 => {
            let at = rng.below(out.len() - 3);
            let words = [0, 1, node_count - 1, node_count, node_count + 1, u32::MAX];
            let word = match rng.below(words.len() + 1) {
                i if i < words.len() => words[i],
                _ => rng.below(1 << 20) as u32,
            };
            out[at..at + 4].copy_from_slice(&word.to_le_bytes());
        }
        2 if out.len() >= 8 => {
            let at = rng.below(out.len() - 7);
            let words = [0, u64::MAX, 1 << 40, u64::from(node_count) + 1];
            out[at..at + 8].copy_from_slice(&words[rng.below(words.len())].to_le_bytes());
        }
        3 if out.len() >= 8 => {
            let (a, b) = (rng.below(out.len() / 4), rng.below(out.len() / 4));
            let (a, b) = (4 * a.min(b), 4 * a.max(b));
            if a != b {
                let word: [u8; 4] = out[a..a + 4].try_into().unwrap();
                out.copy_within(b..b + 4, a);
                out[b..b + 4].copy_from_slice(&word);
            }
        }
        4 => out.truncate(out.len() - 1 - rng.below(8.min(out.len()))),
        _ => out.extend((0..1 + rng.below(8)).map(|_| rng.below(256) as u8)),
    }
    out
}

/// `bytes` with `section`'s payload replaced, every checksum recomputed.
pub fn with_payload(bytes: &[u8], section: Section, payload: &[u8]) -> Vec<u8> {
    let archive = SnapshotArchive::from_bytes(bytes.to_vec()).unwrap();
    let mut writer = SnapshotWriter::new();
    for (id, range) in archive.sections() {
        let body = if id == section {
            payload
        } else {
            &bytes[range]
        };
        writer.add_section(id, body.to_vec());
    }
    let mut out = Vec::new();
    writer.write_to(&mut out).unwrap();
    out
}

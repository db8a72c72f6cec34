//! `ResultStore::disk_usage` must account a store in constant memory.
//!
//! The whole binary runs under a counting global allocator that tracks
//! the peak of live heap bytes, so it holds exactly one test: nothing
//! else may allocate while the walk is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};

use dri_store::ResultStore;

struct PeakCounting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe sizes.
unsafe impl GlobalAlloc for PeakCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: PeakCounting = PeakCounting;

const RECORDS: u64 = 2_000;
const RECORD_BYTES: usize = 420;
/// Far below the ~180 B per record a collecting walk holds for 2,000
/// records (~350 KiB), far above a depth-bounded one's few hundred bytes.
const HEAP_BUDGET: usize = 64 * 1024;

#[test]
fn disk_usage_heap_does_not_grow_with_the_store() {
    let root = std::env::temp_dir().join(format!("dri-store-usage-alloc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let store = ResultStore::open(&root).expect("temp store");
    // Records and their sidecars written straight to disk (no fsync),
    // spread over every shard directory.
    for i in 0..RECORDS {
        let key = (u128::from(i % 256) << 120) | u128::from(i);
        let path = store.entry_path("dri", 1, key);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, [0xab; RECORD_BYTES]).unwrap();
        fs::write(path.with_extension("gen"), 7u64.to_le_bytes()).unwrap();
    }

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let usage = store.disk_usage();
    let growth = PEAK.load(Ordering::Relaxed) - before;

    assert_eq!(usage.records, RECORDS);
    assert_eq!(usage.bytes, RECORDS * RECORD_BYTES as u64);
    assert!(
        growth < HEAP_BUDGET,
        "disk_usage grew the heap by {growth} B over {RECORDS} records (budget {HEAP_BUDGET} B)"
    );
    let _ = fs::remove_dir_all(&root);
}

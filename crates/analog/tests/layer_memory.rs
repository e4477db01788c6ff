//! The memory of a layer cell: `LayerNetlist::simulate` measures while
//! the transient steps, so its peak live heap is set by the circuit's
//! size, not by the number of accepted steps. A counting global
//! allocator measures it. This file holds one test so that nothing
//! else in its binary allocates alongside the measured run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use neurofi_analog::{Engine, LayerNetlist};

/// The system allocator, counting live bytes and their high-water mark.
/// Both counters are statistics that publish no other data, so
/// `Relaxed` suffices.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` has non-zero size, as
        // `GlobalAlloc::alloc` requires of it.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (hence
        // `System`) returned for the same `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned for
        // `layout` and a non-zero `new_size` that does not overflow
        // when rounded to the alignment.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// An 8-neuron layer over 10 µs takes about 9.6k accepted steps of 44
/// unknowns: recording them would hold 3.4 MB of waveform. Measured
/// while stepping, the run's heap stays well under 1 MiB.
#[test]
fn a_layer_cell_holds_no_waveform() {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let response = LayerNetlist::paper_layer(8)
        .with_vdd(0.85)
        .simulate(Engine::Sparse, 10.0e-6, 20.0e-9)
        .expect("the layer simulates");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(response.total_spikes() > 0, "{response:?}");
    assert!(
        peak < 1 << 20,
        "simulate peaked at {peak} live heap bytes over {} accepted steps",
        response.stats.accepted_steps
    );
}

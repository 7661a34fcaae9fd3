//! A constant `LookupPolicy` (an empty table) prices a record without
//! allocating. The server, the load generator and the floored streaming
//! benches all evaluate constant policies, and each `prob` call used to
//! build the context's key first, only to look it up in the empty table.

use ddn_policy::{LookupPolicy, Policy};
use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---- allocation accounting --------------------------------------------

/// The system allocator, counting the allocations made on a thread while
/// that thread has armed [`COUNT`].
struct Counting;

thread_local! {
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// `note` touches only a const-initialized thread-local `Cell` (no
// allocation, no destructor), so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How many allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("armed above")
}

#[test]
fn a_constant_policy_decides_without_allocating() {
    let schema = ContextSchema::builder()
        .categorical("g", 3)
        .numeric("x")
        .build();
    let policy = LookupPolicy::constant(DecisionSpace::of(&["a", "b", "c"]), 1);
    let ctx = Context::build(&schema)
        .set_cat("g", 2)
        .set_numeric("x", 0.5)
        .finish();
    let mut probs = [f64::NAN; 3];
    let mut decided = None;
    let n = allocations(|| {
        for (d, p) in probs.iter_mut().enumerate() {
            *p = policy.prob(&ctx, Decision::from_index(d));
        }
        decided = Some(policy.decide(&ctx));
    });
    assert_eq!(n, 0, "prob and decide allocated");
    assert_eq!(probs, [0.0, 1.0, 0.0]);
    assert_eq!(decided, Some(Decision::from_index(1)));
}

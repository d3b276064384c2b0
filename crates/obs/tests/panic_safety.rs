//! Panic-safety of the span guard: an unwinding task must leave the
//! thread-local span stack balanced, or every later span on that thread
//! would record under the wrong path.

use std::panic::catch_unwind;
use std::sync::{Mutex, MutexGuard, PoisonError};

use svt_obs::{span, TraceMode};

/// Trace mode is process-global; tests flipping it serialize here.
fn mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn full_unwind_leaves_the_span_stack_balanced() {
    let _guard = mode_lock();
    svt_obs::set_mode(TraceMode::Summary);

    let caught = catch_unwind(|| {
        let _outer = span("t.ps.outer");
        let _inner = span("t.ps.inner");
        panic!("boom");
    });
    assert!(caught.is_err());

    // Both guards dropped during unwind: a fresh span roots at top level
    // instead of nesting under the unwound ones.
    {
        let _after = span("t.ps.after");
    }

    svt_obs::set_mode(TraceMode::Off);
    let snap = svt_obs::registry().snapshot();
    assert!(
        snap.spans.iter().any(|s| s.path == "t.ps.after"),
        "post-unwind span must root at top level: {:?}",
        snap.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );
    assert!(
        snap.spans.iter().any(|s| s.path == "t.ps.outer/t.ps.inner"),
        "unwound spans still record their timings"
    );
}

#[test]
fn caught_panic_resumes_under_the_enclosing_span() {
    let _guard = mode_lock();
    svt_obs::set_mode(TraceMode::Summary);

    {
        let _outer = span("t.ps.resume.outer");
        let caught = catch_unwind(|| {
            let _inner = span("t.ps.resume.inner");
            panic!("inner task died");
        });
        assert!(caught.is_err());
        let _leaf = span("t.ps.resume.leaf");
    }

    svt_obs::set_mode(TraceMode::Off);
    let snap = svt_obs::registry().snapshot();
    assert!(
        snap.spans
            .iter()
            .any(|s| s.path == "t.ps.resume.outer/t.ps.resume.leaf"),
        "a span opened after a caught panic nests under the survivor"
    );
}

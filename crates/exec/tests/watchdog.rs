//! End-to-end watchdog test: arm it, run a pool batch with one task that
//! blows the deadline, and assert the stall is detected by the live
//! monitor thread, surfaced through the registry, and cleared once the
//! batch drains; `status()` reports the armed flag and deadline before
//! and after.
//!
//! Single `#[test]`, and the only place that arms the watchdog: the armed
//! flag, heartbeat slots, and stall counters are process-global, and an
//! armed watchdog makes every pool task of a concurrent test claim a
//! slot (the crate's lib tests assert slot reuse, so they never arm it).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use svt_exec::{par_map_threads, watchdog};

#[test]
fn stalled_pool_task_trips_the_watchdog_and_recovers() {
    assert!(!watchdog::armed(), "watchdog must default to disarmed");
    assert!(
        watchdog::status().healthy(),
        "disarmed watchdog is always healthy"
    );

    // Fast tasks under a generous deadline never trip.
    watchdog::arm(Duration::from_secs(30));
    let armed = watchdog::status();
    assert!(armed.armed);
    assert_eq!(armed.deadline, Duration::from_secs(30));
    let items: Vec<u64> = (0..64).collect();
    let out = par_map_threads(4, &items, |&x| x + 1);
    assert_eq!(out, (1..65).collect::<Vec<u64>>());
    let baseline = watchdog::status();
    assert_eq!(baseline.stalled_now, 0);

    // One task wedges past a 20 ms deadline; the monitor thread (scanning
    // at quarter-deadline) must flag it *while the batch is running*.
    watchdog::arm(Duration::from_millis(20));
    let seen_stalled = AtomicBool::new(false);
    let out = par_map_threads(2, &[0u64, 1], |&x| {
        if x == 0 {
            // The wedged task: hold the heartbeat until the watchdog
            // verdict flips (bounded so a broken monitor fails the test
            // rather than hanging it).
            let hung_at = Instant::now();
            while watchdog::status().stalled_now == 0 && hung_at.elapsed() < Duration::from_secs(10)
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            seen_stalled.store(watchdog::status().stalled_now > 0, Ordering::Relaxed);
        }
        x * 10
    });
    assert_eq!(out, vec![0, 10], "results are unaffected by the detection");
    assert!(
        seen_stalled.load(Ordering::Relaxed),
        "monitor must flag the wedged task while it runs"
    );
    let tripped = watchdog::status();
    assert!(
        tripped.stall_events > baseline.stall_events,
        "cumulative stall counter must advance"
    );

    // Once the batch drains the next scan clears the gauge: stalled_now
    // is a live verdict, stall_events the durable record.
    let recovered_at = Instant::now();
    while watchdog::status().stalled_now > 0 && recovered_at.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let recovered = watchdog::status();
    assert_eq!(recovered.stalled_now, 0, "drained pool goes healthy again");
    assert!(recovered.healthy());
    assert_eq!(recovered.stall_events, tripped.stall_events);

    // The detection surfaced through the global registry too.
    let snap = svt_obs::registry().snapshot();
    let stall_counter = snap
        .counters
        .iter()
        .find(|(n, _)| n == "pool.stall_events")
        .map(|(_, v)| *v);
    assert!(
        stall_counter.is_some_and(|v| v >= 1),
        "pool.stall_events counter missing from snapshot: {:?}",
        snap.counters
    );
    assert!(
        snap.gauges.iter().any(|(n, _)| n == "pool.stalled"),
        "pool.stalled gauge missing from snapshot"
    );

    watchdog::disarm();
    let disarmed = watchdog::status();
    assert!(!disarmed.armed);
    assert_eq!(disarmed.stalled_now, 0);
    assert!(disarmed.healthy());
}

//! Dynamic atomics-discipline check, active only under `--cfg vr_model`
//! (the model-check CI job). The instrumented wrappers record every
//! operation with its ordering; this test drives the real primitives and
//! asserts no publication-side operation ever carries `Relaxed`.
#![cfg(vr_model)]

use vr_sync::trace;
use vr_sync::{Publish, SyncArc};

#[test]
fn wrapper_trace_records_orderings_and_discipline_holds() {
    let publish = Publish::new(0u64);

    let ((), ops) = trace::capture(|| {
        // One full publish/observe round through every wrapper.
        let pinned = publish.read();
        let _staged = pinned.clone();
        publish.store(SyncArc::new(*pinned + 1));
        assert_eq!(*publish.read(), 1);
        let _ = publish.update(|cur| (SyncArc::new(**cur), ()));
        publish.peek(|v| assert_eq!(*v, 1));
    });

    let recorded: Vec<&str> = ops.iter().map(|o| o.op).collect();
    for expected in [
        "publish.read",
        "arc.clone",
        "publish.store",
        "publish.update",
        "publish.peek",
    ] {
        assert!(
            recorded.contains(&expected),
            "wrapper op {expected} not recorded in {recorded:?}"
        );
    }
    // The discipline itself: no publication-side op may be Relaxed, and
    // the publish/observe sides carry the orderings the protocol needs.
    trace::assert_no_relaxed_publication(&ops);
    let ordering_of = |op: &str| ops.iter().find(|o| o.op == op).map(|o| o.ordering).unwrap();
    assert_eq!(ordering_of("publish.store"), "Release");
    assert_eq!(ordering_of("publish.update"), "AcqRel");
    assert_eq!(ordering_of("publish.read"), "Acquire");
}

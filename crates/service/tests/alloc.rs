//! Counting-allocator proof of the allocation budget of a broker
//! publish: once warm, `Broker::publish_shared` allocates at most once
//! per event — the receipt's `matched` list, sized exactly — and never
//! per notification (the subscriber queues keep their capacity, and a
//! send to a queue nobody waits on neither allocates nor wakes).
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test thread can disturb the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ens_service::{Broker, BrokerConfig};
use ens_types::Event;
use ens_workloads::{scenario, EventGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn publish_shared_allocates_only_the_receipt() {
    let schema = scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(14);
    let profiles = scenario::environmental_profiles(300, &mut rng).unwrap();
    // One shard, drift statistics off: the count covers match, delivery
    // and bookkeeping only.
    let broker = Broker::new(
        &schema,
        BrokerConfig {
            shards: 1,
            stats_sample: 0,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();
    let generator =
        EventGenerator::new(&schema, scenario::environmental_event_model().unwrap()).unwrap();
    let events: Vec<Arc<Event>> = (0..1_000)
        .map(|_| Arc::new(generator.sample(&mut rng)))
        .collect();
    let drain = || {
        for sub in &subs {
            while sub.try_recv().is_some() {}
        }
    };

    // Warm-up: grows every subscriber queue and the thread-local match
    // scratch to their working size.
    for event in &events {
        broker.publish_shared(Arc::clone(event)).unwrap();
    }
    drain();

    let mut publishes_with_matches = 0u64;
    let mut notifications = 0u64;
    for (i, event) in events.iter().enumerate() {
        let event = Arc::clone(event);
        let before = allocations();
        let receipt = broker.publish_shared(event).unwrap();
        let spent = allocations() - before;
        let expected = u64::from(!receipt.matched.is_empty());
        assert!(
            spent <= expected,
            "publish {i}: {spent} allocations for {} notifications (budget {expected})",
            receipt.matched.len()
        );
        publishes_with_matches += expected;
        notifications += receipt.matched.len() as u64;
        drain();
    }
    assert!(
        notifications > 10 * publishes_with_matches,
        "workload must fan out ({notifications} notifications over \
         {publishes_with_matches} matching publishes)"
    );
}

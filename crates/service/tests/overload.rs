//! Overload behaviour: slow consumers under bounded channels, dropped
//! consumers, and panic isolation in the batch fan-out.

use std::sync::Arc;

use ens_service::{Broker, BrokerConfig, OverflowPolicy};
use ens_types::{Domain, Event, Schema};

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 999))
        .expect("static schema")
        .build()
}

fn event(s: &Schema, x: i64) -> Event {
    Event::builder(s).value("x", x).expect("in domain").build()
}

fn broker(config: BrokerConfig) -> Broker {
    Broker::new(&schema(), config).expect("broker")
}

#[test]
fn slow_consumer_overflows_without_disturbing_the_fast_one() {
    let b = broker(BrokerConfig {
        notify_capacity: 4,
        overflow: OverflowPolicy::DropOldest,
        ..BrokerConfig::default()
    });
    let s = schema();
    // The "parked" consumer never drains; the healthy one drains fully.
    let parked = b.subscribe_parsed("profile(x >= 0)").unwrap();
    let healthy = b.subscribe_parsed("profile(x >= 0)").unwrap();
    // The healthy consumer drains as it goes; the parked one never does.
    let mut got: Vec<i64> = Vec::new();
    for x in 0..20 {
        b.publish(&event(&s, x)).unwrap();
        got.extend(
            healthy
                .drain()
                .iter()
                .map(|n| match n.event.value(s.require("x").unwrap()) {
                    Some(ens_types::Value::Int(i)) => *i,
                    other => panic!("unexpected value {other:?}"),
                }),
        );
    }
    // The healthy consumer saw every event, in publish order.
    assert_eq!(got, (0..20).collect::<Vec<_>>());
    // The parked one kept only the newest `capacity` notifications —
    // DropOldest sheds from the front — and knows how many it lost.
    assert_eq!(parked.pending(), 4);
    assert_eq!(parked.dropped(), 16);
    let kept: Vec<i64> = parked
        .drain()
        .iter()
        .map(|n| match n.event.value(s.require("x").unwrap()) {
            Some(ens_types::Value::Int(i)) => *i,
            other => panic!("unexpected value {other:?}"),
        })
        .collect();
    assert_eq!(kept, vec![16, 17, 18, 19]);
    // The shed notifications are visible in the broker metrics, and
    // both subscriptions are still live (overflow is not an error).
    let m = b.metrics();
    assert_eq!(m.overflow_dropped, 16);
    assert_eq!(m.subscriptions, 2);
    assert!(!parked.is_disconnected());
}

#[test]
fn drop_newest_sheds_the_incoming_notification() {
    let b = broker(BrokerConfig {
        notify_capacity: 4,
        overflow: OverflowPolicy::DropNewest,
        ..BrokerConfig::default()
    });
    let s = schema();
    let parked = b.subscribe_parsed("profile(x >= 0)").unwrap();
    for x in 0..20 {
        b.publish(&event(&s, x)).unwrap();
    }
    let kept: Vec<i64> = parked
        .drain()
        .iter()
        .map(|n| match n.event.value(s.require("x").unwrap()) {
            Some(ens_types::Value::Int(i)) => *i,
            other => panic!("unexpected value {other:?}"),
        })
        .collect();
    assert_eq!(kept, vec![0, 1, 2, 3]);
    assert_eq!(b.metrics().overflow_dropped, 16);
}

#[test]
fn disconnect_policy_prunes_the_overflowing_subscription() {
    let b = broker(BrokerConfig {
        notify_capacity: 2,
        overflow: OverflowPolicy::Disconnect,
        ..BrokerConfig::default()
    });
    let s = schema();
    let doomed = b.subscribe_parsed("profile(x >= 0)").unwrap();
    let healthy = b.subscribe_parsed("profile(x >= 0)").unwrap();
    // Two fills the channel; the third trips Disconnect, which closes
    // the channel — the *next* delivery attempt fails and the broker
    // garbage-collects the subscription.
    for x in 0..5 {
        b.publish(&event(&s, x)).unwrap();
        let _ = healthy.drain(); // keep the healthy channel from filling
    }
    assert!(doomed.is_disconnected());
    assert_eq!(b.metrics().subscriptions, 1, "doomed should be pruned");
    // Disconnect is fail-stop: the queue is discarded with the
    // channel, so the consumer sees a crisp cut, not a stale tail.
    assert!(doomed.drain().is_empty());
    // The healthy subscriber never missed an event.
    b.publish(&event(&s, 99)).unwrap();
    assert_eq!(healthy.drain().len(), 1);
}

#[test]
fn dropped_consumer_is_pruned_and_others_see_every_event() {
    let b = broker(BrokerConfig::default());
    let s = schema();
    let dead = b.subscribe_parsed("profile(x >= 0)").unwrap();
    let live = b.subscribe_parsed("profile(x >= 0)").unwrap();
    assert_eq!(b.metrics().subscriptions, 2);
    drop(dead);
    // First publish after the hang-up detects the dead channel,
    // counts it, and unsubscribes it.
    for x in 0..3 {
        b.publish(&event(&s, x)).unwrap();
    }
    let m = b.metrics();
    assert_eq!(m.subscriptions, 1);
    assert_eq!(m.dropped_notifications, 1);
    let got: Vec<u64> = live.drain().iter().map(|n| n.sequence).collect();
    assert_eq!(got.len(), 3);
    assert!(got.windows(2).all(|w| w[0] < w[1]), "in order: {got:?}");
}

#[test]
fn batch_worker_panic_is_isolated_to_its_shard() {
    let b = broker(BrokerConfig {
        shards: 2,
        ..BrokerConfig::default()
    });
    let s = schema();
    let sub = b.subscribe_parsed("profile(x >= 0)").unwrap();
    let batch: Vec<Arc<Event>> = (0..8).map(|x| Arc::new(event(&s, x))).collect();

    b.inject_batch_worker_panic(0);
    let receipts = b.publish_batch(&batch).expect("batch must survive");
    assert_eq!(receipts.len(), 8);
    assert_eq!(b.metrics().shard_panics, 1);

    // The subscription lives on shard 0 or 1; if its shard panicked
    // its deliveries for this batch are lost, otherwise all arrive.
    // Either way the broker itself stays consistent and usable.
    let first = sub.drain().len();
    assert!(first == 0 || first == 8, "got {first}");

    // Next batch runs clean: the fault was one-shot and nothing
    // poisoned the shard.
    let receipts = b.publish_batch(&batch).expect("second batch");
    assert_eq!(receipts.len(), 8);
    assert_eq!(b.metrics().shard_panics, 1);
    assert_eq!(sub.drain().len(), 8);
    assert_eq!(b.metrics().subscriptions, 1);

    // A single publish runs the same shard workers, isolation included.
    b.inject_batch_worker_panic(0);
    b.publish(&batch[0]).expect("publish must survive");
    assert_eq!(b.metrics().shard_panics, 2);
    assert!(sub.drain().len() <= 1);
    b.publish(&batch[0]).expect("next publish");
    assert_eq!(sub.drain().len(), 1);
}

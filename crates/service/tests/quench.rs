//! Quenching safety under churn: advice may only drop dead events.
//!
//! The invariant (paper §2, Elvin's quenching): an event may be
//! quenched only if *no* live subscription matches it. This must hold
//! at every instant of a churn-and-burst run — while subscriptions sit
//! in the overlay, after tombstoning, and across compactions — for
//! both the exported [`QuenchAdvice`] and the broker's inbound
//! pre-filter.

use std::sync::Arc;

use ens_filter::RebuildPolicy;
use ens_service::{Broker, BrokerConfig, PublishReceipt, Subscriber, SubscriptionId};
use ens_types::{Event, IndexedEvent, Predicate, Profile};
use ens_workloads::{churn_burst_plan, scenario::environmental_schema, ChurnOp};
use proptest::prelude::*;

/// Small thresholds so a short plan visits overlay growth, tombstone
/// accumulation, and full compaction.
fn churn_config() -> BrokerConfig {
    BrokerConfig {
        shards: 2,
        stats_sample: 0,
        quench_inbound: true,
        rebuild: RebuildPolicy {
            max_overlay: 3,
            max_removed: 2,
            ..RebuildPolicy::default()
        },
        ..BrokerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn advice_never_drops_a_matchable_event_under_churn(seed in 0u64..u64::MAX) {
        let plan = churn_burst_plan(seed, 5, 6, 3).unwrap();
        let broker = Broker::new(&plan.schema, churn_config()).unwrap();
        let mut live: Vec<(Subscriber, Profile)> = Vec::new();

        for op in &plan.ops {
            match op {
                ChurnOp::Subscribe(p) => {
                    let sub = broker.subscribe_profile(p.clone()).unwrap();
                    live.push((sub, p.clone()));
                }
                ChurnOp::Unsubscribe(k) => {
                    let (sub, _) = live.remove(*k);
                    broker.unsubscribe(sub.id()).unwrap();
                }
                ChurnOp::Burst(r) => {
                    // The advice exported at this instant must allow
                    // every event some live profile matches.
                    let advice = broker.quench_advice();
                    for event in &plan.events[r.clone()] {
                        let oracle: Vec<SubscriptionId> = {
                            let mut ids: Vec<SubscriptionId> = live
                                .iter()
                                .filter(|(_, p)| {
                                    p.matches(&plan.schema, event).unwrap()
                                })
                                .map(|(sub, _)| sub.id())
                                .collect();
                            ids.sort_unstable();
                            ids
                        };
                        let matchable = !oracle.is_empty();
                        if matchable {
                            prop_assert!(
                                advice.allows(event).unwrap(),
                                "advice dropped a matchable event (seed {})",
                                seed
                            );
                        }
                        // The hot-path form agrees with the checked one.
                        let indexed =
                            IndexedEvent::resolve(&plan.schema, event).unwrap();
                        prop_assert_eq!(
                            advice.allows(event).unwrap(),
                            advice.allows_indexed(&indexed)
                        );
                        // Broker-side inbound quenching obeys the same
                        // bound, and passed-through events still match
                        // exactly the oracle set.
                        let receipt = broker.publish(event).unwrap();
                        if receipt.quenched {
                            prop_assert!(receipt.matched.is_empty());
                            prop_assert!(
                                !matchable,
                                "inbound quench dropped a matchable event (seed {})",
                                seed
                            );
                        } else {
                            prop_assert_eq!(&receipt.matched, &oracle);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn advice_tracks_subscribe_and_unsubscribe() {
    let schema = environmental_schema();
    let broker = Broker::new(&schema, churn_config()).unwrap();
    let hot = broker
        .subscribe(|b| b.predicate("temperature", Predicate::ge(40)))
        .unwrap();
    let warm = broker
        .subscribe(|b| b.predicate("temperature", Predicate::ge(30)))
        .unwrap();

    let event = |t: i64| {
        Event::builder(&schema)
            .value("temperature", t)
            .unwrap()
            .build()
    };
    let advice = broker.quench_advice();
    assert!(advice.allows(&event(45)).unwrap());
    assert!(advice.allows(&event(35)).unwrap());
    assert!(!advice.allows(&event(20)).unwrap(), "nobody watches 20°");

    // Dropping the 30° subscription tightens the coverage…
    broker.unsubscribe(warm.id()).unwrap();
    let advice = broker.quench_advice();
    assert!(advice.allows(&event(45)).unwrap());
    assert!(!advice.allows(&event(35)).unwrap());

    // …and with no subscriptions left everything is quenchable.
    broker.unsubscribe(hot.id()).unwrap();
    let advice = broker.quench_advice();
    assert!(!advice.allows(&event(45)).unwrap());
}

/// Inbound quenching on the block path: a broker publishing in blocks
/// of `block` events must quench, match and count exactly like its twin
/// publishing one event at a time. A scripted prefix visits a settled
/// population, tombstones present and an overlay pending (quenching
/// paused); then the twins run a random churn plan.
fn batched_twin_agrees(block: usize) {
    let script = churn_burst_plan(0x9e3c, 3, 48, 14).unwrap();
    let plan = churn_burst_plan(0x9e3d, 6, 48, 3).unwrap();
    let single = Broker::new(&plan.schema, churn_config()).unwrap();
    let batched = Broker::new(&plan.schema, churn_config()).unwrap();
    let burst = |events: &[Event]| {
        let events: Vec<Arc<Event>> = events.iter().cloned().map(Arc::new).collect();
        let want: Vec<PublishReceipt> = events.iter().map(|e| single.publish(e).unwrap()).collect();
        let got: Vec<PublishReceipt> = events
            .chunks(block)
            .flat_map(|c| batched.publish_batch(c).unwrap())
            .collect();
        assert_eq!(got, want, "block {block}");
        let quenched: Vec<&PublishReceipt> = want.iter().filter(|r| r.quenched).collect();
        assert!(quenched.iter().all(|r| r.matched.is_empty() && r.ops == 0));
        quenched.len()
    };
    let profiles: Vec<Profile> = script
        .ops
        .iter()
        .filter_map(|op| match op {
            ChurnOp::Subscribe(p) => Some(p.clone()),
            _ => None,
        })
        .collect();
    let events = |k: usize| &script.events[48 * k..48 * (k + 1)];

    // Settled: both shards compiled, quenching active.
    let load = profiles[..12].to_vec();
    let mut live: Vec<(Subscriber, Subscriber)> = single
        .subscribe_many(load.clone())
        .unwrap()
        .into_iter()
        .zip(batched.subscribe_many(load).unwrap())
        .collect();
    let mut quenched = burst(events(0));
    // One tombstone per shard (below `max_removed`): still quenching.
    for _ in 0..2 {
        let (a, b) = live.remove(0);
        single.unsubscribe(a.id()).unwrap();
        batched.unsubscribe(b.id()).unwrap();
    }
    quenched += burst(events(1));
    assert!(quenched > 0, "the script must quench some events");
    // One overlay entry per shard: quenching paused.
    let before = single.metrics().overlay_ops;
    for p in &profiles[12..14] {
        live.push((
            single.subscribe_profile(p.clone()).unwrap(),
            batched.subscribe_profile(p.clone()).unwrap(),
        ));
    }
    assert_eq!(burst(events(2)), 0, "an overlay pending pauses quenching");
    assert!(
        single.metrics().overlay_ops > before,
        "the overlay was matched"
    );

    for op in &plan.ops {
        match op {
            ChurnOp::Subscribe(p) => live.push((
                single.subscribe_profile(p.clone()).unwrap(),
                batched.subscribe_profile(p.clone()).unwrap(),
            )),
            ChurnOp::Unsubscribe(k) => {
                let (a, b) = live.remove(*k);
                single.unsubscribe(a.id()).unwrap();
                batched.unsubscribe(b.id()).unwrap();
            }
            ChurnOp::Burst(r) => {
                burst(&plan.events[r.clone()]);
            }
        }
    }
    let (s, b) = (single.metrics(), batched.metrics());
    assert_eq!(s.quenched_events, b.quenched_events, "block {block}");
    assert_eq!(s.total_ops, b.total_ops, "block {block}");
}

#[test]
fn batched_publish_quenches_like_single_publish() {
    for block in [1, 7, 64] {
        batched_twin_agrees(block);
    }
}

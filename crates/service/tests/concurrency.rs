//! Concurrency oracle: N concurrent publishers plus
//! subscribe/unsubscribe churn must produce *exactly* the notifications
//! a single-threaded oracle replay produces — per-subscriber sequence
//! order, no loss and no duplicates while subscribed — across shard
//! counts, dispatch modes and aggressive compaction policies.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ens_filter::RebuildPolicy;
use ens_service::{Broker, BrokerConfig};
use ens_types::{Domain, Event, Predicate, Profile, ProfileId, Schema};
use ens_workloads::{churn_burst_plan, scenario, ChurnOp, EventGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `publishers` concurrent publisher threads over pre-sampled
/// events while a churn thread subscribes/unsubscribes, then checks
/// every stable subscriber against the oracle.
fn run_churn_scenario(config: BrokerConfig, publishers: usize, events_per: usize, seed: u64) {
    let schema = scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let stable_profiles: Vec<Profile> = scenario::environmental_profiles(12, &mut rng)
        .unwrap()
        .iter()
        .cloned()
        .collect();

    let broker = Arc::new(Broker::new(&schema, config).unwrap());
    let stable = broker
        .subscribe_many(stable_profiles.iter().cloned())
        .unwrap();

    let generator =
        EventGenerator::new(&schema, scenario::environmental_event_model().unwrap()).unwrap();
    let events: Vec<Arc<Event>> = (0..publishers * events_per)
        .map(|_| Arc::new(generator.sample(&mut rng)))
        .collect();

    // Churn source: the subscribe ops of a deterministic plan.
    let churn_profiles: Vec<Profile> = churn_burst_plan(seed ^ 0x5eed, 30, 0, 2)
        .unwrap()
        .ops
        .into_iter()
        .filter_map(|op| match op {
            ChurnOp::Subscribe(p) => Some(p),
            _ => None,
        })
        .collect();

    let seq_to_event: HashMap<u64, usize> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..publishers {
            let broker = Arc::clone(&broker);
            let slice = &events[t * events_per..(t + 1) * events_per];
            handles.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(slice.len());
                for (k, e) in slice.iter().enumerate() {
                    let receipt = broker.publish_shared(Arc::clone(e)).unwrap();
                    out.push((receipt.sequence, t * slice.len() + k));
                }
                out
            }));
        }
        let churn_broker = Arc::clone(&broker);
        let churn_profiles = &churn_profiles;
        let churner = scope.spawn(move || {
            for p in churn_profiles {
                let sub = churn_broker.subscribe_profile(p.clone()).unwrap();
                std::thread::yield_now();
                for n in sub.drain() {
                    // While subscribed, only matching events arrive.
                    assert!(
                        p.matches(churn_broker.schema(), &n.event).unwrap(),
                        "churn subscription received a non-matching event"
                    );
                }
                churn_broker.unsubscribe(sub.id()).unwrap();
            }
        });
        let mut map = HashMap::new();
        for h in handles {
            for (seq, idx) in h.join().unwrap() {
                assert!(map.insert(seq, idx).is_none(), "duplicate sequence {seq}");
            }
        }
        churner.join().unwrap();
        map
    });

    // Oracle: replay the events in sequence order, single-threaded.
    for (profile, sub) in stable_profiles.iter().zip(&stable) {
        let mut expected: Vec<u64> = seq_to_event
            .iter()
            .filter(|(_, idx)| profile.matches(&schema, &events[**idx]).unwrap())
            .map(|(seq, _)| *seq)
            .collect();
        expected.sort_unstable();
        let drained = sub.drain();
        let mut got: Vec<u64> = drained.iter().map(|n| n.sequence).collect();
        got.sort_unstable();
        got.dedup();
        assert_eq!(
            got.len(),
            drained.len(),
            "subscriber {} received duplicates",
            sub.id()
        );
        assert_eq!(
            got,
            expected,
            "subscriber {} lost or gained events",
            sub.id()
        );
        for n in &drained {
            assert_eq!(
                n.event.as_ref(),
                events[seq_to_event[&n.sequence]].as_ref(),
                "sequence {} delivered the wrong event payload",
                n.sequence
            );
        }
    }
    let m = broker.metrics();
    assert_eq!(m.events_published, (publishers * events_per) as u64);
}

#[test]
fn concurrent_publishers_and_churn_match_oracle_single_shard() {
    run_churn_scenario(BrokerConfig::default(), 4, 150, 41);
}

#[test]
fn concurrent_publishers_and_churn_match_oracle_sharded_dfsa() {
    run_churn_scenario(
        BrokerConfig {
            shards: 3,
            dfsa_dispatch: true,
            stats_sample: 8,
            ..BrokerConfig::default()
        },
        4,
        150,
        42,
    );
}

#[test]
fn concurrent_publishers_and_churn_match_oracle_aggressive_compaction() {
    // Tiny thresholds force constant compaction + drift rebuilds while
    // publishers are in flight.
    run_churn_scenario(
        BrokerConfig {
            rebuild: RebuildPolicy {
                max_overlay: 2,
                max_removed: 2,
                min_events: 40,
                drift_threshold: 0.15,
                decay_on_rebuild: true,
                drift_check_every: 1,
            },
            shards: 2,
            ..BrokerConfig::default()
        },
        3,
        120,
        43,
    );
}

#[test]
fn publish_batch_is_ordered_and_matches_oracle() {
    let schema = scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(9);
    let profiles: Vec<Profile> = scenario::environmental_profiles(50, &mut rng)
        .unwrap()
        .iter()
        .cloned()
        .collect();
    let broker = Broker::new(
        &schema,
        BrokerConfig {
            shards: 4,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();

    let generator =
        EventGenerator::new(&schema, scenario::environmental_event_model().unwrap()).unwrap();
    let events: Vec<Arc<Event>> = (0..400)
        .map(|_| Arc::new(generator.sample(&mut rng)))
        .collect();
    let receipts = broker.publish_batch(&events).unwrap();
    assert_eq!(receipts.len(), events.len());

    for (i, (receipt, event)) in receipts.iter().zip(&events).enumerate() {
        assert_eq!(receipt.sequence, i as u64, "receipts in input order");
        let expected: Vec<_> = profiles
            .iter()
            .zip(&subs)
            .filter(|(p, _)| p.matches(&schema, event).unwrap())
            .map(|(_, s)| s.id())
            .collect();
        assert_eq!(receipt.matched, expected, "event {i}");
    }

    // Batch delivery: every subscriber sees its notifications in strict
    // arrival == sequence order (not merely sortable).
    for (profile, sub) in profiles.iter().zip(&subs) {
        let drained = sub.drain();
        let arrival: Vec<u64> = drained.iter().map(|n| n.sequence).collect();
        let mut sorted = arrival.clone();
        sorted.sort_unstable();
        assert_eq!(arrival, sorted, "arrival order is sequence order");
        let expected: Vec<u64> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| profile.matches(&schema, e).unwrap())
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(arrival, expected, "subscriber {}", sub.id());
    }
}

/// The wake path: consumers parked in `recv_timeout` are woken by
/// concurrent publishers (a send wakes only a blocked receiver, so a
/// lost wake-up would leave a consumer asleep for its full 30 s
/// timeout — the time bound turns that into a failure, not a slow
/// pass), and an unsubscribe wakes a parked consumer with `None`.
#[test]
fn blocked_consumers_are_woken_by_concurrent_publishers() {
    let started = Instant::now();
    let park = Duration::from_secs(30);
    let schema = scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(14);
    let profiles: Vec<Profile> = scenario::environmental_profiles(6, &mut rng)
        .unwrap()
        .iter()
        .cloned()
        .collect();
    let broker = Broker::new(&schema, BrokerConfig::default()).unwrap();
    let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();
    let generator =
        EventGenerator::new(&schema, scenario::environmental_event_model().unwrap()).unwrap();
    let events: Vec<Arc<Event>> = (0..600)
        .map(|_| Arc::new(generator.sample(&mut rng)))
        .collect();
    let (first, second) = events.split_at(events.len() / 2);

    let (received, sequences) = std::thread::scope(|scope| {
        let consumers: Vec<_> = profiles
            .iter()
            .zip(&subs)
            .map(|(profile, sub)| {
                let want = events
                    .iter()
                    .filter(|e| profile.matches(&schema, e).unwrap())
                    .count();
                scope.spawn(move || {
                    (0..want)
                        .map(|k| match sub.recv_timeout(park) {
                            Some(n) => n,
                            None => panic!("subscriber {} timed out after {k}/{want}", sub.id()),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let publishers: Vec<_> = [first, second]
            .into_iter()
            .map(|slice| {
                let broker = &broker;
                scope.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(k, e)| {
                            // Pause now and then so consumers drain
                            // their queues and park again.
                            if k % 16 == 0 {
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            broker.publish_shared(Arc::clone(e)).unwrap().sequence
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let sequences: Vec<Vec<u64>> = publishers.into_iter().map(|h| h.join().unwrap()).collect();
        let received: Vec<_> = consumers.into_iter().map(|h| h.join().unwrap()).collect();
        (received, sequences)
    });

    let total: usize = received.iter().map(Vec::len).sum();
    assert!(
        total > 100,
        "too few notifications ({total}) to exercise the wake path"
    );
    // Which publisher sent each sequence number, and which event it was.
    let mut origin: HashMap<u64, (usize, &Arc<Event>)> = HashMap::new();
    for (t, (seqs, slice)) in sequences.iter().zip([first, second]).enumerate() {
        for (seq, e) in seqs.iter().zip(slice) {
            origin.insert(*seq, (t, e));
        }
    }
    for ((profile, sub), got) in profiles.iter().zip(&subs).zip(&received) {
        // Per publisher, notifications arrive in sequence order.
        for t in 0..2 {
            let from_t: Vec<u64> = got
                .iter()
                .map(|n| n.sequence)
                .filter(|s| origin[s].0 == t)
                .collect();
            assert!(
                from_t.windows(2).all(|w| w[0] < w[1]),
                "subscriber {}: publisher {t}'s events out of order",
                sub.id()
            );
        }
        let mut seqs: Vec<u64> = got.iter().map(|n| n.sequence).collect();
        seqs.sort_unstable();
        let mut expected: Vec<u64> = origin
            .iter()
            .filter(|(_, (_, e))| profile.matches(&schema, e).unwrap())
            .map(|(seq, _)| *seq)
            .collect();
        expected.sort_unstable();
        assert_eq!(seqs, expected, "subscriber {}", sub.id());
        for n in got {
            assert_eq!(n.event.as_ref(), origin[&n.sequence].1.as_ref());
        }
        assert!(sub.try_recv().is_none(), "no extra notifications");
    }

    // A consumer parked on a subscription that is cancelled under it
    // wakes with `None` promptly, not at the end of its timeout.
    for _ in 0..20 {
        let sub = broker.subscribe_profile(profiles[0].clone()).unwrap();
        let id = sub.id();
        std::thread::scope(|scope| {
            let parked = scope.spawn(move || {
                let woke = sub.recv_timeout(park);
                (woke.is_none(), Instant::now())
            });
            std::thread::sleep(Duration::from_millis(5));
            broker.unsubscribe(id).unwrap();
            let cancelled = Instant::now();
            let (none, returned) = parked.join().unwrap();
            assert!(none, "a cancelled subscription delivers nothing");
            assert!(
                returned.saturating_duration_since(cancelled) < Duration::from_secs(2),
                "consumer slept through its unsubscribe"
            );
        });
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "wake path too slow: {:?}",
        started.elapsed()
    );
}

// --- Property test: random profiles/events, concurrent replay ---------

fn small_schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .build()
}

fn arb_profile() -> impl Strategy<Value = (i64, i64)> {
    (0i64..100, 0i64..100).prop_map(|(a, b)| (a.min(b), a.max(b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two concurrent publishers plus a churn thread over random range
    /// profiles: stable subscribers receive exactly the oracle set.
    #[test]
    fn prop_concurrent_oracle(
        ranges in prop::collection::vec(arb_profile(), 1..6),
        churn in prop::collection::vec(arb_profile(), 0..5),
        xs in prop::collection::vec(0i64..100, 16..80),
    ) {
        let schema = small_schema();
        let broker = Arc::new(
            Broker::new(
                &schema,
                BrokerConfig {
                    rebuild: RebuildPolicy { max_overlay: 1, ..RebuildPolicy::default() },
                    shards: 2,
                    ..BrokerConfig::default()
                },
            )
            .unwrap(),
        );
        let profiles: Vec<Profile> = ranges
            .iter()
            .map(|(lo, hi)| {
                Profile::builder(&schema)
                    .predicate("x", Predicate::between(*lo, *hi))
                    .unwrap()
                    .build(ProfileId::new(0))
            })
            .collect();
        let stable = broker.subscribe_many(profiles.iter().cloned()).unwrap();
        let events: Vec<Arc<Event>> = xs
            .iter()
            .map(|x| Arc::new(Event::builder(&schema).value("x", *x).unwrap().build()))
            .collect();

        let seq_of: HashMap<u64, usize> = std::thread::scope(|scope| {
            let half = events.len() / 2;
            let mut handles = Vec::new();
            for (t, slice) in [&events[..half], &events[half..]].into_iter().enumerate() {
                let broker = Arc::clone(&broker);
                handles.push(scope.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(k, e)| {
                            let r = broker.publish_shared(Arc::clone(e)).unwrap();
                            (r.sequence, t * half + k)
                        })
                        .collect::<Vec<_>>()
                }));
            }
            let churn_broker = Arc::clone(&broker);
            let churn = &churn;
            let churner = scope.spawn(move || {
                for (lo, hi) in churn {
                    let sub = churn_broker
                        .subscribe(|b| b.predicate("x", Predicate::between(*lo, *hi)))
                        .unwrap();
                    std::thread::yield_now();
                    churn_broker.unsubscribe(sub.id()).unwrap();
                }
            });
            let mut map = HashMap::new();
            for h in handles {
                for (seq, idx) in h.join().unwrap() {
                    map.insert(seq, idx);
                }
            }
            churner.join().unwrap();
            map
        });

        for (profile, sub) in profiles.iter().zip(&stable) {
            let mut expected: Vec<u64> = seq_of
                .iter()
                .filter(|(_, idx)| profile.matches(&schema, &events[**idx]).unwrap())
                .map(|(seq, _)| *seq)
                .collect();
            expected.sort_unstable();
            let mut got: Vec<u64> = sub.drain().iter().map(|n| n.sequence).collect();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }
    }
}

//! Drift rebuilds recompile only what the event model shapes.
//!
//! A drift trigger on a shard whose tree ignores the event model
//! (natural orders, no tuning) is absorbed without recompiling: the
//! snapshot stays, the detector re-baselines and `drift_rebaselines`
//! counts it. Model-shaped trees (V1/V3 value orders) still rebuild,
//! reusing the population-fixed parts (containment index, expansion
//! plan, dispatch) — and must match exactly what a from-scratch
//! covering compile under the same model matches, with the same
//! operation counts.

use std::sync::Arc;

use ens_filter::{
    Direction, DriftTracker, FilterSnapshot, RebuildPolicy, SearchStrategy, SnapshotScratch,
    TreeConfig, ValueOrder,
};
use ens_service::{Broker, BrokerConfig, MetricsSnapshot, Subscriber, SubscriptionId};
use ens_types::parse::parse_profile;
use ens_types::{Domain, Event, IndexedEvent, Profile, ProfileId, ProfileSet, Schema};
use ens_workloads::drift::{drift_schema, hot_band_model_a, hot_band_model_b};
use ens_workloads::{covered_profiles, CoveredPopulationConfig, EventGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schema() -> Schema {
    Schema::builder()
        .attribute("temperature", Domain::int(-30, 50))
        .unwrap()
        .attribute("humidity", Domain::int(0, 100))
        .unwrap()
        .attribute("wind", Domain::int(0, 120))
        .unwrap()
        .build()
}

fn event(s: &Schema, t: i64, h: i64, w: i64) -> Event {
    Event::builder(s)
        .value("temperature", t)
        .unwrap()
        .value("humidity", h)
        .unwrap()
        .value("wind", w)
        .unwrap()
        .build()
}

/// Four phases alternating between a hot and a cold temperature band
/// (the traffic of `pipeline.rs::adaptive_rebuilds_do_not_lose_notifications`).
fn drifting_traffic(s: &Schema) -> Vec<Event> {
    let mut out = Vec::new();
    for phase in 0..4 {
        for k in 0..100i64 {
            let t = if phase % 2 == 0 {
                40 + (k % 5)
            } else {
                -20 - (k % 5)
            };
            out.push(event(s, t, 50 + (k % 7), 10 + k));
        }
    }
    out
}

fn population(s: &Schema) -> Vec<Profile> {
    [
        "profile(temperature >= 35)",
        "profile(temperature <= -15)",
        "profile(temperature >= 42; humidity <= 55)",
        "profile(temperature in [-25, -18])",
        "profile(wind >= 60)",
        "profile(humidity >= 52; wind <= 40)",
    ]
    .iter()
    .map(|src| parse_profile(s, src, ProfileId::new(0)).unwrap())
    .collect()
}

/// Runs the drifting traffic through a broker under `tree`, checking
/// every receipt and every delivery against a brute-force
/// `Profile::matches` oracle. `pending_overlay` leaves one subscription
/// in the overlay, so drift triggers are not pure.
fn run(tree: TreeConfig, pending_overlay: bool) -> MetricsSnapshot {
    let s = schema();
    let broker = Broker::new(
        &s,
        BrokerConfig {
            tree,
            rebuild: RebuildPolicy {
                min_events: 30,
                drift_threshold: 0.15,
                decay_on_rebuild: true,
                ..RebuildPolicy::default()
            },
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let profiles = population(&s);
    let mut subs: Vec<Subscriber> = broker.subscribe_many(profiles.clone()).unwrap();
    let mut live = profiles;
    if pending_overlay {
        let late = "profile(temperature in [0, 30])";
        subs.push(broker.subscribe_parsed(late).unwrap());
        live.push(parse_profile(&s, late, ProfileId::new(0)).unwrap());
    }
    let mut expected = vec![0usize; subs.len()];
    for e in drifting_traffic(&s) {
        let receipt = broker.publish(&e).unwrap();
        let want: Vec<SubscriptionId> = subs
            .iter()
            .zip(&live)
            .enumerate()
            .filter(|(_, (_, p))| p.matches(&s, &e).unwrap())
            .map(|(k, (sub, _))| {
                expected[k] += 1;
                sub.id()
            })
            .collect();
        assert_eq!(receipt.matched, want, "receipt for {e:?}");
    }
    for (sub, n) in subs.iter().zip(expected) {
        assert_eq!(sub.pending(), n, "deliveries to {}", sub.id());
    }
    broker.metrics()
}

#[test]
fn model_blind_drift_is_absorbed_without_a_rebuild() {
    let m = run(TreeConfig::default(), false);
    assert!(m.drift_rebaselines >= 1, "drift must fire: {m}");
    assert_eq!(m.tree_rebuilds, 0, "nothing to recompile: {m}");
    assert!(m.to_string().contains("rebaselines="), "{m}");
}

#[test]
fn model_shaped_trees_still_rebuild_on_drift() {
    let m = run(
        TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            ..TreeConfig::default()
        },
        false,
    );
    assert!(m.tree_rebuilds >= 1, "V1 trees follow the drift: {m}");
    assert_eq!(m.drift_rebaselines, 0, "{m}");
}

/// After traffic settles on one band, the rebuilt V1 tree scans that
/// band first: a hot event costs a single comparison.
#[test]
fn adapted_tree_scans_the_hot_band_first() {
    let s = Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .build();
    let broker = Broker::new(
        &s,
        BrokerConfig {
            tree: TreeConfig {
                search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
                ..TreeConfig::default()
            },
            rebuild: RebuildPolicy {
                min_events: 100,
                drift_threshold: 0.3,
                decay_on_rebuild: false,
                drift_check_every: 1,
                ..RebuildPolicy::default()
            },
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let profiles = ["profile(x in [10, 19])", "profile(x in [80, 89])"]
        .map(|src| parse_profile(&s, src, ProfileId::new(0)).unwrap());
    let subs = broker.subscribe_many(profiles).unwrap();
    let hot = Event::builder(&s).value("x", 85).unwrap().build();
    let cold = broker.publish(&hot).unwrap();
    assert!(
        cold.ops > 1,
        "the uniform prior does not favour the hot band"
    );
    for _ in 0..300 {
        assert_eq!(broker.publish(&hot).unwrap().matched, vec![subs[1].id()]);
    }
    assert!(broker.metrics().tree_rebuilds >= 1);
    assert_eq!(broker.publish(&hot).unwrap().ops, 1);
}

#[test]
fn drift_with_a_pending_overlay_still_compacts() {
    let m = run(TreeConfig::default(), true);
    assert!(m.tree_rebuilds >= 1, "the overlay must be folded in: {m}");
}

/// A pure drift rebuild of a covering V1 broker reuses the containment
/// index and expansion plan; its receipts must equal those of a
/// from-scratch `compile_covered` under the model the rebuild used
/// (mirrored by a test-side tracker fed the same events).
#[test]
fn reused_cover_rebuild_matches_a_fresh_covered_compile() {
    let schema = drift_schema();
    let mut rng = StdRng::seed_from_u64(0xd21f7);
    let population =
        covered_profiles(&schema, 600, &CoveredPopulationConfig::default(), &mut rng).unwrap();
    let tree = TreeConfig {
        search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        ..TreeConfig::default()
    };
    let policy = RebuildPolicy {
        min_events: 200,
        drift_threshold: 0.3,
        decay_on_rebuild: true,
        ..RebuildPolicy::default()
    };
    let broker = Broker::new(
        &schema,
        BrokerConfig {
            tree: tree.clone(),
            rebuild: policy,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let subs = broker
        .subscribe_many(population.iter().cloned().collect::<Vec<_>>())
        .unwrap();

    // The shard compiles the representative antichain; its tracker's
    // statistics start over exactly that set.
    let (_, cover) = FilterSnapshot::compile_covered(&population, &TreeConfig::default()).unwrap();
    assert!(
        cover.rep_count() < population.len(),
        "population must be covered"
    );
    let mut reps = ProfileSet::new(&schema);
    for &slot in cover.rep_slots() {
        reps.insert(population.get(ProfileId::new(slot)).unwrap().clone());
    }
    let mut mirror = DriftTracker::new(&reps, policy).unwrap();

    let mut events = Vec::new();
    for model in [hot_band_model_a().unwrap(), hot_band_model_b().unwrap()] {
        let gen = EventGenerator::new(&schema, model).unwrap();
        events.extend((0..600).map(|_| Arc::new(gen.sample(&mut rng))));
    }
    let mut stream = events.iter();
    let model = loop {
        let e = stream
            .next()
            .expect("the phase change must trigger a rebuild");
        broker.publish_shared(Arc::clone(e)).unwrap();
        if mirror.observe(e).unwrap() {
            let model = mirror.prepare_model(&reps, true).unwrap();
            mirror.finish_rebuild(true).unwrap();
            break model;
        }
    };
    assert_eq!(
        broker.metrics().tree_rebuilds,
        1,
        "rebuilt on the same event"
    );

    let fresh_config = TreeConfig {
        event_model: Some(model),
        ..tree
    };
    let (fresh, _) = FilterSnapshot::compile_covered(&population, &fresh_config).unwrap();
    let mut scratch = SnapshotScratch::new();
    // Fewer than `min_events` more events: no further rebuild.
    let checked: Vec<&Arc<Event>> = stream.take(150).collect();
    let mut total_ops = 0;
    for e in checked {
        let receipt = broker.publish_shared(Arc::clone(e)).unwrap();
        let indexed = IndexedEvent::resolve(&schema, e).unwrap();
        fresh.match_into(&indexed, &mut scratch, false);
        let want: Vec<SubscriptionId> = scratch
            .matched()
            .iter()
            .map(|&slot| subs[slot as usize].id())
            .collect();
        assert_eq!(receipt.matched, want, "matched slots");
        assert_eq!(receipt.ops, scratch.ops(), "comparison operations");
        let oracle: Vec<SubscriptionId> = population
            .iter()
            .zip(&subs)
            .filter(|(p, _)| p.matches(&schema, e).unwrap())
            .map(|(_, sub)| sub.id())
            .collect();
        assert_eq!(receipt.matched, oracle, "brute-force oracle");
        total_ops += receipt.ops;
    }
    assert!(total_ops > 0);
    assert_eq!(broker.metrics().tree_rebuilds, 1);
}

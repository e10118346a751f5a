//! Adaptive restructuring under distribution drift — the §5 scenario:
//! "the algorithm … has to maintain a history of events in order to
//! determine the event distribution". Traffic alternates between two
//! peaks; the broker's drift tracker notices the drift and the broker
//! rebuilds each node so the currently hot subrange is scanned first.
//!
//! Run with `cargo run --example adaptive_service`.

use ens::dist::{Density, DistOverDomain};
use ens::filter::{Direction, SearchStrategy, TreeConfig, ValueOrder};
use ens::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::builder()
        .attribute("reading", Domain::int(0, 99))?
        .build();
    let config = BrokerConfig {
        tree: TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            ..TreeConfig::default()
        },
        rebuild: RebuildPolicy {
            min_events: 300,
            drift_threshold: 0.25,
            decay_on_rebuild: true,
            drift_check_every: 1,
            ..RebuildPolicy::default()
        },
        ..BrokerConfig::default()
    };
    let broker = Broker::new(&schema, config)?;
    let mut profiles = ProfileSet::new(&schema);
    for v in (10..20).chain(80..90) {
        profiles.insert_with(|b| b.predicate("reading", Predicate::eq(v)))?;
    }
    let _subscribers = broker.subscribe_many(profiles.iter().cloned())?;

    let low = DistOverDomain::new(Density::peak(0.10, 0.10, 0.9)?, 100);
    let high = DistOverDomain::new(Density::peak(0.80, 0.10, 0.9)?, 100);
    let mut rng = StdRng::seed_from_u64(3);

    for (i, (name, dist)) in [("low-peak", &low), ("high-peak", &high), ("low-peak", &low)]
        .into_iter()
        .enumerate()
    {
        let mut ops = 0u64;
        let n = 3_000;
        for _ in 0..n {
            let idx = dist.sample_index(&mut rng);
            let e = Event::builder(&schema)
                .value("reading", idx as i64)?
                .build();
            ops += broker.publish(&e)?.ops;
        }
        println!(
            "phase {i} ({name:<9}): {:.3} ops/event, {} rebuild(s) so far",
            ops as f64 / n as f64,
            broker.metrics().tree_rebuilds,
        );
    }
    let hot = broker.publish(&Event::builder(&schema).value("reading", 15)?.build())?;
    println!(
        "final tree scans the currently hot band first: hot hit costs {} op(s)",
        hot.ops
    );
    Ok(())
}

//! The `types` and `filter` layers, measured on a mirror snapshot.
//!
//! The broker's match path is not reachable from outside, so the traced
//! run compiles the same profiles the way the broker compiles them by
//! default (`FilterSnapshot::compile_covered` with
//! `TreeConfig::default()`) and times the public resolve and match calls
//! on the same scheduled events. Every mirror match is checked against
//! the oracle too.

use std::collections::BTreeMap;
use std::time::Instant;

use ens_filter::{FilterSnapshot, SnapshotBlockScratch, SnapshotScratch, TreeConfig};
use ens_types::{Event, IndexedBatch, IndexedEvent, Profile, ProfileSet, Schema};

use crate::oracle::{BoxError, Oracle};
use crate::trace::{thread_allocs, Tracer};

/// Events matched per variant.
const EVENTS: u64 = 8192;
/// Block size of the `match_block` variant (the broker's batch size).
const BLOCK: usize = 64;

/// Fills the `types.*` and `filter.*` metrics; returns mirror matches
/// that disagree with the oracle. `batched` workloads report the
/// per-event cost of `IndexedBatch::resolve_into` as `types.resolve_ns`.
pub fn measure(
    schema: &Schema,
    profiles: &[Profile],
    oracle: &Oracle,
    k0: u64,
    batched: bool,
    layers: &mut BTreeMap<&'static str, f64>,
    tracer: &mut Tracer,
) -> Result<u64, BoxError> {
    let mut set = ProfileSet::new(schema);
    for p in profiles {
        set.insert(p.clone());
    }
    let base = tracer.totals();
    let config = TreeConfig::default();
    let t0 = Instant::now();
    let (covered, _) = FilterSnapshot::compile_covered(&set, &config)?;
    layers.insert("filter.compile_ms", t0.elapsed().as_secs_f64() * 1e3);
    layers.insert("filter.snapshot_bytes", covered.to_bytes().len() as f64);
    layers.insert(
        "filter.compiled_ratio",
        covered.compiled_len() as f64 / covered.live_len().max(1) as f64,
    );
    let uncovered = FilterSnapshot::compile(&set, &config)?;

    let events: Vec<&Event> = (k0..k0 + EVENTS)
        .map(|k| oracle.pool[oracle.event_of(k)].as_ref())
        .collect();
    let mut indexed = IndexedEvent::new();
    let mut scratch = SnapshotScratch::new();
    let (mut ops, mut matched, mut wrong, mut match_allocs) = (0u64, 0u64, 0u64, 0u64);
    for (k, e) in (k0..).zip(&events) {
        tracer.span("types.resolve", k, || indexed.resolve_into(schema, e))?;
        let a0 = thread_allocs();
        tracer.span("filter.match", k, || {
            covered.match_into(&indexed, &mut scratch, false)
        });
        match_allocs += thread_allocs() - a0;
        ops += scratch.ops();
        matched += scratch.matched().len() as u64;
        if scratch.matched() != oracle.expected_of(k) {
            wrong += 1;
        }
        tracer.span("filter.match_dfsa", k, || {
            covered.match_into(&indexed, &mut scratch, true)
        });
        if scratch.matched() != oracle.expected_of(k) {
            wrong += 1;
        }
        tracer.span("filter.match_uncovered", k, || {
            uncovered.match_into(&indexed, &mut scratch, false)
        });
        if scratch.matched() != oracle.expected_of(k) {
            wrong += 1;
        }
    }
    let mut batch = IndexedBatch::new();
    let mut block_scratch = SnapshotBlockScratch::new();
    for (b, chunk) in events.chunks(BLOCK).enumerate() {
        let k = k0 + (b * BLOCK) as u64;
        tracer.span("types.resolve_batch", k, || {
            batch.resolve_into(schema, chunk.iter().copied())
        })?;
        tracer.span("filter.match_block", k, || {
            covered.match_block(&batch, &mut block_scratch, false)
        });
        for i in 0..chunk.len() {
            if block_scratch.matched_of(i) != oracle.expected_of(k + i as u64) {
                wrong += 1;
            }
        }
    }
    let block = BLOCK as u64;
    let (resolve, per) = if batched {
        ("types.resolve_batch", block)
    } else {
        ("types.resolve", 1)
    };
    let mean = |name, per| tracer.since(&base, name).mean_ns(per);
    layers.insert("types.resolve_ns", mean(resolve, per));
    layers.insert("filter.match_ns", mean("filter.match", 1));
    layers.insert("filter.match_dfsa_ns", mean("filter.match_dfsa", 1));
    layers.insert(
        "filter.match_uncovered_ns",
        mean("filter.match_uncovered", 1),
    );
    layers.insert("filter.match_block_ns", mean("filter.match_block", block));
    layers.insert("filter.ops_per_event", ops as f64 / EVENTS as f64);
    layers.insert("filter.matched_per_event", matched as f64 / EVENTS as f64);
    layers.insert(
        "filter.allocs_per_event",
        match_allocs as f64 / EVENTS as f64,
    );
    Ok(wrong)
}

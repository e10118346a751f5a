//! Oracle tests for covering-pruned snapshots: match results must be
//! identical to the uncovered paths — against a plain
//! [`FilterSnapshot::compile`] and against the reference
//! `ProfileSet::matches` — including under randomized
//! subscribe/unsubscribe churn with tombstones, covered overlay
//! entries and periodic compaction (the broker lifecycle, mirrored at
//! the filter layer).

use ens_filter::{CoverPlan, FilterSnapshot, SnapshotBlockScratch, SnapshotScratch, TreeConfig};
use ens_types::{
    CoverOutcome, CoverSet, Domain, Event, IndexedBatch, IndexedEvent, Predicate, Profile,
    ProfileId, ProfileSet, Residual, Schema,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .attribute("y", Domain::int(0, 9))
        .unwrap()
        .attribute("kind", Domain::categorical(["a", "b", "c"]).unwrap())
        .unwrap()
        .build()
}

/// A random profile; with probability ~1/2 a duplicate or
/// single-attribute narrowing of one in `pool` (coverage-heavy, like a
/// real subscriber population).
fn random_profile(schema: &Schema, rng: &mut StdRng, pool: &[Profile]) -> Profile {
    if !pool.is_empty() && rng.gen_bool(0.5) {
        let root = &pool[rng.gen_range(0..pool.len())];
        let mut preds: Vec<Predicate> = root.predicates().to_vec();
        if rng.gen_bool(0.4) {
            // Exact duplicate.
        } else {
            // Narrow (or newly specify) exactly one attribute.
            match rng.gen_range(0..3) {
                0 => {
                    let lo = rng.gen_range(0..100);
                    let hi = rng.gen_range(lo..100);
                    preds[0] = Predicate::between(lo, hi);
                }
                1 => preds[1] = Predicate::eq(rng.gen_range(0..10)),
                _ => preds[2] = Predicate::eq(["a", "b", "c"][rng.gen_range(0..3)]),
            }
        }
        return Profile::from_predicates(schema, ProfileId::new(0), preds).unwrap();
    }
    let mut preds = vec![Predicate::DontCare; 3];
    if rng.gen_bool(0.7) {
        let lo = rng.gen_range(0..100);
        let hi = rng.gen_range(lo..100);
        preds[0] = Predicate::between(lo, hi);
    }
    if rng.gen_bool(0.3) {
        preds[1] = Predicate::le(rng.gen_range(0..10));
    }
    if rng.gen_bool(0.3) {
        preds[2] = Predicate::in_set(["a", "b", "c"][..rng.gen_range(1..4)].iter().copied());
    }
    if rng.gen_bool(0.02) {
        // Unsatisfiable: must never match and never cause misdelivery.
        preds[0] = Predicate::In(vec![]);
    }
    Profile::from_predicates(schema, ProfileId::new(0), preds).unwrap()
}

fn random_event(schema: &Schema, rng: &mut StdRng) -> Event {
    let mut b = Event::builder(schema);
    if rng.gen_bool(0.9) {
        b = b.value("x", rng.gen_range(0..100)).unwrap();
    }
    if rng.gen_bool(0.8) {
        b = b.value("y", rng.gen_range(0..10)).unwrap();
    }
    if rng.gen_bool(0.8) {
        b = b
            .value("kind", ["a", "b", "c"][rng.gen_range(0..3)])
            .unwrap();
    }
    b.build()
}

#[test]
fn covered_compile_matches_uncovered_compile() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(41);
    let mut pool: Vec<Profile> = Vec::new();
    let mut ps = ProfileSet::new(&schema);
    for _ in 0..120 {
        let p = random_profile(&schema, &mut rng, &pool);
        pool.push(p.clone());
        ps.insert(p);
    }
    let plain = FilterSnapshot::compile(&ps, &TreeConfig::default()).unwrap();
    let (covered, cover) = FilterSnapshot::compile_covered(&ps, &TreeConfig::default()).unwrap();
    assert_eq!(cover.rep_count() + cover.covered_count(), ps.len());
    assert!(
        covered.compiled_len() < ps.len(),
        "a coverage-heavy population must prune: {} reps for {} profiles",
        covered.compiled_len(),
        ps.len()
    );
    assert_eq!(covered.base_len(), ps.len());

    let mut sp = SnapshotScratch::new();
    let mut sc = SnapshotScratch::new();
    let events: Vec<Event> = (0..400).map(|_| random_event(&schema, &mut rng)).collect();
    for e in &events {
        let ie = IndexedEvent::resolve(&schema, e).unwrap();
        for use_dfsa in [false, true] {
            plain.match_into(&ie, &mut sp, use_dfsa);
            covered.match_into(&ie, &mut sc, use_dfsa);
            assert_eq!(sp.matched(), sc.matched(), "use_dfsa = {use_dfsa}");
        }
    }
    // Block path agrees too.
    let mut batch = IndexedBatch::new();
    batch.resolve_into(&schema, events.iter()).unwrap();
    for use_dfsa in [false, true] {
        let mut bp = SnapshotBlockScratch::new();
        let mut bc = SnapshotBlockScratch::new();
        plain.match_block(&batch, &mut bp, use_dfsa);
        covered.match_block(&batch, &mut bc, use_dfsa);
        for i in 0..events.len() {
            assert_eq!(bp.matched_of(i), bc.matched_of(i), "event {i}");
        }
    }
}

#[test]
fn covered_snapshot_round_trips_bytes_exactly() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(43);
    let mut pool: Vec<Profile> = Vec::new();
    let mut ps = ProfileSet::new(&schema);
    for _ in 0..60 {
        let p = random_profile(&schema, &mut rng, &pool);
        pool.push(p.clone());
        ps.insert(p);
    }
    let (snap, cover) = FilterSnapshot::compile_covered(&ps, &TreeConfig::default()).unwrap();
    // Add a covered + an uncovered overlay entry and a tombstone.
    let mut overlay = ProfileSet::new(&schema);
    let mut overlay_cover = Vec::new();
    for _ in 0..8 {
        let p = random_profile(&schema, &mut rng, &pool);
        overlay_cover.push(match cover.probe(&p).unwrap() {
            CoverOutcome::Covered { rep, residual } => {
                Some((cover.compiled_index_of(rep).unwrap(), residual))
            }
            CoverOutcome::Rep => None,
        });
        overlay.insert(p);
    }
    assert!(
        overlay_cover.iter().any(Option::is_some),
        "pool-derived overlay entries should include covered ones"
    );
    let mut removed = vec![false; snap.base_len()];
    removed[3] = true;
    let snap = snap
        .with_overlay_covered(&overlay, &overlay_cover)
        .unwrap()
        .with_removed(removed);

    let bytes = snap.to_bytes();
    let back = FilterSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(back.to_bytes(), bytes, "checkpoint must be byte-stable");
    assert_eq!(back.base_len(), snap.base_len());
    assert_eq!(back.compiled_len(), snap.compiled_len());
    assert_eq!(back.overlay_cover_entries(), snap.overlay_cover_entries());
    let plan: &CoverPlan = back.cover_plan().unwrap();
    assert_eq!(plan.rep_count(), cover.rep_count());
    assert_eq!(plan.covered_count(), cover.covered_count());

    // And it still matches identically.
    let mut sa = SnapshotScratch::new();
    let mut sb = SnapshotScratch::new();
    for _ in 0..200 {
        let e = random_event(&schema, &mut rng);
        let ie = IndexedEvent::resolve(&schema, &e).unwrap();
        snap.match_into(&ie, &mut sa, true);
        back.match_into(&ie, &mut sb, true);
        assert_eq!(sa.matched(), sb.matched());
    }
}

/// Mirror of the broker's shard lifecycle at the filter layer: base
/// population with tombstones, an overlay whose entries are probed
/// against the cover set (covered entries delivered by expansion), and
/// periodic compaction folding everything into a fresh covered
/// compile. After every operation the snapshot must agree with the
/// brute-force oracle over the live profiles, on both the per-event
/// and the block match path.
#[test]
fn covering_churn_agrees_with_profile_set_oracle() {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(47);
    let mut pool: Vec<Profile> = Vec::new();

    // Live state.
    let mut base: Vec<Profile> = (0..40)
        .map(|_| {
            let p = random_profile(&schema, &mut rng, &pool);
            pool.push(p.clone());
            p
        })
        .collect();
    let mut removed = vec![false; base.len()];
    let mut overlay: Vec<Profile> = Vec::new();
    let mut overlay_cover: Vec<Option<(u32, Vec<Residual>)>> = Vec::new();

    let compile = |base: &[Profile]| -> (FilterSnapshot, CoverSet) {
        let mut ps = ProfileSet::new(&schema);
        for p in base {
            ps.insert(p.clone());
        }
        FilterSnapshot::compile_covered(&ps, &TreeConfig::default()).unwrap()
    };
    let rebuild_overlay = |snap: &FilterSnapshot,
                           overlay: &[Profile],
                           overlay_cover: &[Option<(u32, Vec<Residual>)>]|
     -> FilterSnapshot {
        let mut ps = ProfileSet::new(&schema);
        for p in overlay {
            ps.insert(p.clone());
        }
        snap.with_overlay_covered(&ps, overlay_cover).unwrap()
    };

    let (mut snap, mut cover) = compile(&base);
    let mut saw_covered_overlay = false;
    for step in 0..300 {
        match rng.gen_range(0..100) {
            // Subscribe into the overlay, probing the cover set.
            0..=44 => {
                let p = random_profile(&schema, &mut rng, &pool);
                pool.push(p.clone());
                overlay_cover.push(match cover.probe(&p).unwrap() {
                    CoverOutcome::Covered { rep, residual } => {
                        saw_covered_overlay = true;
                        Some((cover.compiled_index_of(rep).unwrap(), residual))
                    }
                    CoverOutcome::Rep => None,
                });
                overlay.push(p);
                snap = rebuild_overlay(&snap, &overlay, &overlay_cover);
            }
            // Unsubscribe a base profile (tombstone) — representatives
            // included: their covered children must keep matching.
            45..=69 => {
                if !base.is_empty() {
                    let k = rng.gen_range(0..base.len());
                    removed[k] = true;
                    snap = snap.with_removed(removed.clone());
                }
            }
            // Unsubscribe an overlay profile (physical removal).
            70..=89 => {
                if !overlay.is_empty() {
                    let k = rng.gen_range(0..overlay.len());
                    overlay.remove(k);
                    overlay_cover.remove(k);
                    snap = rebuild_overlay(&snap, &overlay, &overlay_cover);
                }
            }
            // Compact: fold live base + overlay into a fresh covered
            // compile.
            _ => {
                let live: Vec<Profile> = base
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| !removed[*k])
                    .map(|(_, p)| p.clone())
                    .chain(overlay.iter().cloned())
                    .collect();
                base = live;
                removed = vec![false; base.len()];
                overlay.clear();
                overlay_cover.clear();
                let built = compile(&base);
                snap = built.0;
                cover = built.1;
            }
        }

        // Oracle: live base profiles keep their slots, overlay entries
        // follow at base_len + position. The step's events are matched
        // one by one and as one block; both must agree with the oracle,
        // and the block's per-event ops with the single path's.
        let events: Vec<Event> = (0..20).map(|_| random_event(&schema, &mut rng)).collect();
        let mut batch = IndexedBatch::new();
        batch.resolve_into(&schema, events.iter()).unwrap();
        let mut scratch = SnapshotScratch::new();
        let mut block = SnapshotBlockScratch::new();
        for use_dfsa in [false, true] {
            snap.match_block(&batch, &mut block, use_dfsa);
            for (i, e) in events.iter().enumerate() {
                let mut want: Vec<u32> = Vec::new();
                for (k, p) in base.iter().enumerate() {
                    if !removed[k] && p.matches(&schema, e).unwrap() {
                        want.push(k as u32);
                    }
                }
                for (j, p) in overlay.iter().enumerate() {
                    if p.matches(&schema, e).unwrap() {
                        want.push((base.len() + j) as u32);
                    }
                }
                let ie = IndexedEvent::resolve(&schema, e).unwrap();
                snap.match_into(&ie, &mut scratch, use_dfsa);
                let at = format!("step {step}, event {i}, use_dfsa = {use_dfsa}");
                assert_eq!(scratch.matched(), want.as_slice(), "{at}");
                assert_eq!(block.matched_of(i), want.as_slice(), "block, {at}");
                assert_eq!(block.ops_of(i), scratch.ops(), "{at}");
                assert_eq!(block.overlay_ops_of(i), scratch.overlay_ops(), "{at}");
            }
        }
    }
    assert!(
        saw_covered_overlay,
        "churn must exercise covered overlay entries"
    );
}

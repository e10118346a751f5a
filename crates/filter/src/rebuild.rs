//! The unified rebuild policy and drift tracker for the snapshot-swap
//! filter path.
//!
//! A filter service rebuilds its profile tree for two reasons: the
//! subscriptions changed, or the observed event distribution drifted
//! away from the one the tree was optimised for (the paper's adaptive
//! filter component, §1/§5). Both triggers are really the same decision — "is the compiled tree stale
//! enough to pay a rebuild?" — so [`RebuildPolicy`] unifies them:
//!
//! * **subscription churn**: new profiles enter a small overlay
//!   side-matcher immediately (see
//!   [`FilterSnapshot`](crate::FilterSnapshot)) and are only folded into
//!   the tree once the overlay reaches [`RebuildPolicy::max_overlay`]
//!   entries (tombstoned removals likewise, via
//!   [`RebuildPolicy::max_removed`]);
//! * **distribution drift**: [`DriftTracker`] keeps the event history
//!   statistics and an L1-drift detector (paper §4.2/§5) and fires when the empirical event distribution has moved
//!   [`RebuildPolicy::drift_threshold`] away from the one the tree was
//!   optimised for. Only a tree the event model shapes
//!   ([`TreeConfig::needs_event_model`](crate::TreeConfig::needs_event_model))
//!   is recompiled for that; any other tree would come out identical,
//!   so the caller absorbs the trigger with
//!   [`DriftTracker::absorb_drift`] instead.

use ens_dist::{JointDist, Pmf};
use ens_types::{AttrId, Event, ProfileSet};
use serde::{Deserialize, Serialize};

use crate::statistics::FilterStatistics;
use crate::FilterError;

/// When a compiled [`FilterSnapshot`](crate::FilterSnapshot) is rebuilt.
///
/// Unifies the adaptive drift trigger (the first three fields) with the
/// incremental-subscription compaction thresholds.
///
/// What a drift trigger recompiles depends on the tree configuration.
/// Trees the event model shapes — V1/V3 value orders, A2/A3 attribute
/// orders ([`TreeConfig::needs_event_model`](crate::TreeConfig::needs_event_model))
/// or an accepted retune — are rebuilt under the fresh estimate. Any
/// other tree compiles the same under every model, so when no churn is
/// pending the `ens-service` broker keeps its snapshot and only
/// re-baselines the detector ([`DriftTracker::absorb_drift`]); pending
/// overlay or tombstones are still folded in by a full compaction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebuildPolicy {
    /// Do not consider a drift rebuild before this many events were
    /// observed since the last rebuild.
    pub min_events: u64,
    /// Rebuild when some attribute's empirical cell distribution is at
    /// least this far (L1) from the distribution the tree assumes.
    pub drift_threshold: f64,
    /// After a pure drift rebuild, halve the history counters so the
    /// detector reacts to recent traffic.
    pub decay_on_rebuild: bool,
    /// Compact the subscription overlay into the tree once it holds more
    /// than this many profiles. `0` compacts on every subscribe — the
    /// seed's rebuild-per-subscribe behaviour.
    pub max_overlay: usize,
    /// Compact once more than this many tombstoned (unsubscribed but
    /// still compiled) profiles accumulate. `0` compacts on every
    /// unsubscribe.
    pub max_removed: usize,
    /// Once `min_events` is reached, evaluate the drift distance only
    /// every this-many observed events (`1` — or `0`, treated as `1` —
    /// checks on every event). The histogram update is O(1) per event,
    /// but the L1 drift evaluation is O(cells); on wide domains with
    /// large profile populations checking every event would tax the
    /// publish path for no detection benefit.
    pub drift_check_every: u64,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy {
            min_events: 500,
            drift_threshold: 0.25,
            decay_on_rebuild: true,
            max_overlay: 64,
            max_removed: 64,
            drift_check_every: 32,
        }
    }
}

impl RebuildPolicy {
    /// Whether an overlay of `len` profiles is due for compaction.
    #[must_use]
    pub fn overlay_full(&self, len: usize) -> bool {
        len > self.max_overlay
    }

    /// Whether `len` tombstoned profiles are due for compaction.
    #[must_use]
    pub fn removed_full(&self, len: usize) -> bool {
        len > self.max_removed
    }
}

/// The writer-side drift detector behind a snapshot-swapped filter.
///
/// Owns the [`FilterStatistics`] and the per-attribute PMFs the current
/// tree was optimised for, so a broker can keep them under its own
/// (briefly held) writer lock while the match path reads an immutable
/// snapshot lock-free.
///
/// Rebuild protocol: when [`DriftTracker::observe`] returns `true` (or
/// churn thresholds fire), call [`DriftTracker::prepare_model`] for the
/// event model to compile with, build the new snapshot, then
/// [`DriftTracker::finish_rebuild`].
#[derive(Debug)]
pub struct DriftTracker {
    stats: FilterStatistics,
    /// Statistics rebuilt for a new geometry by
    /// [`DriftTracker::prepare_model`], committed only by
    /// [`DriftTracker::finish_rebuild`] — so an abandoned rebuild (the
    /// caller's compile failed) leaves the live statistics untouched.
    pending: Option<FilterStatistics>,
    /// Per-attribute cell PMFs the current tree was optimised for.
    assumed: Vec<Pmf>,
    events_since_rebuild: u64,
    policy: RebuildPolicy,
}

impl DriftTracker {
    /// Creates a tracker over the compiled profile set.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering and distribution errors.
    pub fn new(profiles: &ProfileSet, policy: RebuildPolicy) -> Result<Self, FilterError> {
        let stats = FilterStatistics::new(profiles)?;
        let assumed = Self::assumed_pmfs(&stats)?;
        Ok(DriftTracker {
            stats,
            pending: None,
            assumed,
            events_since_rebuild: 0,
            policy,
        })
    }

    fn assumed_pmfs(stats: &FilterStatistics) -> Result<Vec<Pmf>, FilterError> {
        (0..stats.partitions().len())
            .map(|j| stats.event_drift_pmf(AttrId::new(j as u32)))
            .collect()
    }

    /// The policy this tracker applies.
    #[must_use]
    pub fn policy(&self) -> &RebuildPolicy {
        &self.policy
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn statistics(&self) -> &FilterStatistics {
        &self.stats
    }

    /// Records an observed event and reports whether the drift policy
    /// asks for a rebuild.
    ///
    /// Both the histogram update and the drift evaluation are
    /// allocation-free, so a broker can afford to call this on (a
    /// sampled subset of) the publish path.
    ///
    /// # Errors
    ///
    /// Propagates domain errors for ill-typed event values.
    pub fn observe(&mut self, event: &Event) -> Result<bool, FilterError> {
        self.stats.record_event(event)?;
        self.events_since_rebuild += 1;
        if self.events_since_rebuild < self.policy.min_events {
            return Ok(false);
        }
        let every = self.policy.drift_check_every.max(1);
        if (self.events_since_rebuild - self.policy.min_events) % every != 0 {
            return Ok(false);
        }
        Ok(self.current_drift()? >= self.policy.drift_threshold)
    }

    /// Events observed since the last completed (or declined) rebuild.
    #[must_use]
    pub fn events_since_rebuild(&self) -> u64 {
        self.events_since_rebuild
    }

    /// Maximum L1 distance, over attributes, between the empirical cell
    /// distribution and the one the tree assumes. Allocation-free.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn current_drift(&self) -> Result<f64, FilterError> {
        let mut worst: f64 = 0.0;
        for (j, assumed) in self.assumed.iter().enumerate() {
            worst = worst.max(self.stats.event_l1_drift(AttrId::new(j as u32), assumed)?);
        }
        Ok(worst)
    }

    /// Declines a drift trigger without rebuilding: re-baselines the
    /// assumed PMFs onto the current empirical estimate and resets the
    /// event counter. A cost-model-driven tuner calls this when the
    /// predicted improvement of a retune does not clear its threshold
    /// (see `TuningPolicy` in `tuning.rs`): the distribution that just
    /// fired has been *checked* and judged not worth a rebuild, so the
    /// detector should only speak up again when traffic moves away from
    /// that checked estimate — not keep re-billing the same verdict
    /// (each check prices every candidate configuration).
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn decline_rebuild(&mut self) -> Result<(), FilterError> {
        self.assumed = Self::assumed_pmfs(&self.stats)?;
        self.events_since_rebuild = 0;
        Ok(())
    }

    /// Absorbs a pure drift trigger without rebuilding, for a tree the
    /// event model does not shape
    /// ([`TreeConfig::needs_event_model`](crate::TreeConfig::needs_event_model)
    /// is false): recompiling it would reproduce the current snapshot.
    /// Leaves the tracker exactly as a pure drift rebuild
    /// ([`DriftTracker::prepare_model`] then
    /// [`DriftTracker::finish_rebuild`]) would — assumed PMFs
    /// re-derived, counter reset and, unlike
    /// [`DriftTracker::decline_rebuild`], the history decayed.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn absorb_drift(&mut self) -> Result<(), FilterError> {
        self.pending = None;
        self.finish_rebuild(true)
    }

    /// First rebuild phase: the event model the new tree should be
    /// optimised for.
    ///
    /// `live` is the full profile set about to be compiled. When it
    /// differs from the set the statistics were built for
    /// (`pure_drift = false`, i.e. overlay/tombstone compaction), the
    /// statistics are reset to the new partition geometry first — cells
    /// moved, so the old per-cell history no longer applies. A pure
    /// drift rebuild keeps the accumulated history.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn prepare_model(
        &mut self,
        live: &ProfileSet,
        pure_drift: bool,
    ) -> Result<JointDist, FilterError> {
        // A previous prepare whose rebuild never finished is stale.
        self.pending = None;
        if !pure_drift {
            // Staged, not committed: the caller's compile may still
            // fail, and the live statistics must keep describing the
            // currently compiled profile set.
            let stats = FilterStatistics::new(live)?;
            let model = stats.empirical_model()?;
            self.pending = Some(stats);
            return Ok(model);
        }
        self.stats.empirical_model()
    }

    /// Second rebuild phase, after the new snapshot was compiled:
    /// re-derives the assumed PMFs, resets the event counter and applies
    /// decay for pure drift rebuilds.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn finish_rebuild(&mut self, pure_drift: bool) -> Result<(), FilterError> {
        if let Some(stats) = self.pending.take() {
            self.stats = stats;
        }
        self.assumed = Self::assumed_pmfs(&self.stats)?;
        self.events_since_rebuild = 0;
        if pure_drift && self.policy.decay_on_rebuild {
            self.stats.decay();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::{Domain, Predicate, Schema};

    fn setup() -> (Schema, ProfileSet) {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))
            .unwrap();
        ps.insert_with(|b| b.predicate("x", Predicate::between(80, 89)))
            .unwrap();
        (schema, ps)
    }

    fn event(schema: &Schema, x: i64) -> Event {
        Event::builder(schema).value("x", x).unwrap().build()
    }

    #[test]
    fn default_drift_trigger() {
        let p = RebuildPolicy::default();
        assert_eq!(p.min_events, 500);
        assert_eq!(p.drift_threshold, 0.25);
        assert!(p.decay_on_rebuild);
    }

    #[test]
    fn thresholds() {
        let p = RebuildPolicy {
            max_overlay: 0,
            max_removed: 2,
            ..RebuildPolicy::default()
        };
        assert!(p.overlay_full(1), "max_overlay = 0 compacts immediately");
        assert!(!p.removed_full(2));
        assert!(p.removed_full(3));
    }

    #[test]
    fn drift_fires_after_min_events_under_skew() {
        let (schema, ps) = setup();
        let policy = RebuildPolicy {
            min_events: 20,
            drift_threshold: 0.3,
            decay_on_rebuild: false,
            ..RebuildPolicy::default()
        };
        let mut t = DriftTracker::new(&ps, policy).unwrap();
        let mut fired = false;
        for _ in 0..40 {
            fired = t.observe(&event(&schema, 85)).unwrap();
            if fired {
                break;
            }
        }
        assert!(fired, "concentrated traffic must trigger a rebuild");
        // Pure drift rebuild keeps (decayed) history; drift resets.
        let model = t.prepare_model(&ps, true).unwrap();
        assert_eq!(model.arity(), 1);
        t.finish_rebuild(true).unwrap();
        assert!(t.current_drift().unwrap() < 0.1);
    }

    #[test]
    fn decline_rebaselines_the_detector() {
        let (schema, ps) = setup();
        let policy = RebuildPolicy {
            min_events: 10,
            drift_threshold: 0.3,
            decay_on_rebuild: false,
            ..RebuildPolicy::default()
        };
        let mut t = DriftTracker::new(&ps, policy).unwrap();
        let mut fired = false;
        for _ in 0..40 {
            fired = t.observe(&event(&schema, 85)).unwrap();
            if fired {
                break;
            }
        }
        assert!(fired);
        t.decline_rebuild().unwrap();
        assert_eq!(t.events_since_rebuild(), 0);
        // The same (checked) traffic must not re-fire the detector…
        for _ in 0..40 {
            assert!(!t.observe(&event(&schema, 85)).unwrap());
        }
        // …but traffic moving away from the checked estimate must.
        let mut refired = false;
        for _ in 0..60 {
            refired = t.observe(&event(&schema, 15)).unwrap();
            if refired {
                break;
            }
        }
        assert!(refired, "new drift away from the declined estimate");
    }

    #[test]
    fn absorbed_drift_leaves_the_state_of_a_rebuild() {
        let (schema, ps) = setup();
        let policy = RebuildPolicy {
            min_events: 20,
            drift_threshold: 0.3,
            decay_on_rebuild: true,
            ..RebuildPolicy::default()
        };
        let mut rebuilt = DriftTracker::new(&ps, policy).unwrap();
        let mut absorbed = DriftTracker::new(&ps, policy).unwrap();
        let mut declined = DriftTracker::new(&ps, policy).unwrap();
        // A staged (abandoned) compaction must not leak into any.
        let mut bigger = ps.clone();
        bigger
            .insert_with(|b| b.predicate("x", Predicate::between(40, 59)))
            .unwrap();
        for t in [&mut rebuilt, &mut absorbed, &mut declined] {
            t.prepare_model(&bigger, false).unwrap();
            while !t.observe(&event(&schema, 85)).unwrap() {}
        }
        rebuilt.prepare_model(&ps, true).unwrap();
        rebuilt.finish_rebuild(true).unwrap();
        absorbed.absorb_drift().unwrap();
        declined.decline_rebuild().unwrap();
        let state = |t: &DriftTracker| {
            (
                t.events_since_rebuild(),
                t.statistics().events_posted(),
                t.statistics().empirical_model().unwrap(),
                t.current_drift().unwrap(),
            )
        };
        assert_eq!(state(&absorbed), state(&rebuilt));
        // The decay is what sets absorbing apart from declining.
        assert_ne!(state(&absorbed).2, state(&declined).2);
        for _ in 0..30 {
            let e = event(&schema, 15);
            assert_eq!(absorbed.observe(&e).unwrap(), rebuilt.observe(&e).unwrap());
        }
        assert_eq!(state(&absorbed), state(&rebuilt));
    }

    #[test]
    fn compaction_rebuild_resets_geometry() {
        let (schema, ps) = setup();
        let mut t = DriftTracker::new(&ps, RebuildPolicy::default()).unwrap();
        for _ in 0..10 {
            t.observe(&event(&schema, 85)).unwrap();
        }
        let mut bigger = ps.clone();
        bigger
            .insert_with(|b| b.predicate("x", Predicate::between(40, 59)))
            .unwrap();
        t.prepare_model(&bigger, false).unwrap();
        t.finish_rebuild(false).unwrap();
        assert_eq!(t.statistics().partitions()[0].cells().len(), 7);
        assert_eq!(t.statistics().events_posted(), 0, "history was reset");
    }
}

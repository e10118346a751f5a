//! The brute-force oracle every delivery is checked against.
//!
//! A run publishes events drawn from a fixed pool by a seeded schedule.
//! For each pool event the oracle holds the ascending indices of the
//! profiles that match it under `Profile::matches`, computed once, by
//! brute force, before anything is timed.

use std::collections::HashMap;
use std::sync::Arc;

use ens_service::Subscriber;
use ens_types::{Event, Profile, Schema};

use crate::trace::Tracer;

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// splitmix64: the schedule's stateless hash.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub struct Oracle {
    pub pool: Vec<Arc<Event>>,
    /// Per pool event: ascending indices of the matching profiles.
    pub expected: Vec<Vec<u32>>,
    seed: u64,
}

impl Oracle {
    /// Brute-forces `Profile::matches` for every (pool event, distinct
    /// profile) pair on two threads.
    pub fn build(
        schema: &Schema,
        profiles: &[Profile],
        pool: Vec<Event>,
        seed: u64,
    ) -> Result<Self, BoxError> {
        // Equal predicate lists match equally: test each once.
        let mut distinct: HashMap<String, Vec<u32>> = HashMap::new();
        let mut reps: Vec<&Profile> = Vec::new();
        for (i, p) in profiles.iter().enumerate() {
            let key = format!("{:?}", p.predicates());
            let group = distinct.entry(key).or_insert_with(|| {
                reps.push(p);
                Vec::new()
            });
            group.push(i as u32);
        }
        let groups: Vec<&Vec<u32>> = reps
            .iter()
            .map(|p| &distinct[&format!("{:?}", p.predicates())])
            .collect();
        let half = pool.len() / 2;
        let run = |events: &[Event]| -> Result<Vec<Vec<u32>>, BoxError> {
            let mut out = Vec::with_capacity(events.len());
            for e in events {
                let mut hit = Vec::new();
                for (r, p) in reps.iter().enumerate() {
                    if p.matches(schema, e)? {
                        hit.extend_from_slice(groups[r]);
                    }
                }
                hit.sort_unstable();
                out.push(hit);
            }
            Ok(out)
        };
        let (lo, hi) = std::thread::scope(|s| {
            let t = s.spawn(|| run(&pool[..half]));
            let hi = run(&pool[half..]);
            (t.join().expect("oracle thread"), hi)
        });
        let mut expected = lo?;
        expected.extend(hi?);
        Ok(Oracle {
            pool: pool.into_iter().map(Arc::new).collect(),
            expected,
            seed,
        })
    }

    /// Pool index of the `k`-th scheduled event.
    pub fn event_of(&self, k: u64) -> usize {
        (mix(self.seed ^ mix(k)) % self.pool.len() as u64) as usize
    }

    /// Expected subscriber indices of the `k`-th scheduled event.
    pub fn expected_of(&self, k: u64) -> &[u32] {
        &self.expected[self.event_of(k)]
    }

    /// Moves the profile matched by the most pool events to the end of
    /// `profiles` (renumbering the expectations to match) and returns
    /// its index. Subscribed last, it is the probe: the broker serves
    /// subscriptions in id order, so it waits for the whole fan-out of
    /// every event it matches, whichever profile the seed made busiest.
    pub fn busiest_last(&mut self, profiles: &mut [Profile]) -> usize {
        let n = profiles.len();
        let mut hits = vec![0u32; n];
        for e in &self.expected {
            for &i in e {
                hits[i as usize] += 1;
            }
        }
        let busiest = (0..n)
            .max_by_key(|&i| (hits[i], std::cmp::Reverse(i)))
            .unwrap_or(0);
        let last = n - 1;
        profiles.swap(busiest, last);
        let (a, b) = (busiest as u32, last as u32);
        for e in &mut self.expected {
            for i in e.iter_mut() {
                if *i == a {
                    *i = b;
                } else if *i == b {
                    *i = a;
                }
            }
            e.sort_unstable();
        }
        last
    }
}

/// No notification stashed.
const NONE: u64 = u64::MAX;

/// Checks each subscriber's stream against the sequence numbers it
/// should carry, in order.
#[derive(Default)]
pub struct Checker {
    /// Per subscriber, the sequence of a notification taken ahead of
    /// its turn (`NONE` if none).
    stash: Vec<u64>,
    /// Notifications expected so far.
    pub expected: u64,
    /// Missing, extra, duplicate or out-of-order notifications.
    pub failed: u64,
}

impl Checker {
    /// Takes subscriber `i`'s next notification, which must carry
    /// sequence `want`.
    pub fn expect(&mut self, i: usize, sub: &Subscriber, want: u64, tracer: &mut Tracer, req: u64) {
        self.expected += 1;
        if i >= self.stash.len() {
            self.stash.resize(i + 1, NONE);
        }
        let s = self.stash[i];
        if s != NONE {
            if s > want {
                self.failed += 1;
                return;
            }
            self.stash[i] = NONE;
            if s == want {
                return;
            }
            self.failed += 1;
        }
        loop {
            match tracer.span("channel.recv", req, || sub.try_recv()) {
                None => {
                    self.failed += 1;
                    return;
                }
                Some(n) if n.sequence == want => return,
                Some(n) if n.sequence < want => self.failed += 1,
                Some(n) => {
                    self.failed += 1;
                    self.stash[i] = n.sequence;
                    return;
                }
            }
        }
    }

    /// Counts anything still queued or stashed as unexpected.
    pub fn leftovers<'a>(&mut self, subs: impl IntoIterator<Item = &'a Subscriber>) {
        self.failed += self.stash.iter().filter(|&&s| s != NONE).count() as u64;
        self.stash.clear();
        for sub in subs {
            while sub.try_recv().is_some() {
                self.failed += 1;
            }
        }
    }
}

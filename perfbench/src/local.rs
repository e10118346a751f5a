//! The single-broker workloads, `fanout` (one event per
//! `Broker::publish_shared`) and `selective_batch` (blocks through
//! `Broker::publish_batch`).
//!
//! Two threads: the publisher (this thread) and a consumer that blocks
//! in `Subscriber::recv_timeout` on one probe subscriber of the
//! population and takes every other expected notification with
//! `try_recv`, checking each against the oracle as it goes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ens_service::{Broker, BrokerConfig, Subscriber};
use ens_types::{Event, Profile, Schema};

use crate::oracle::{BoxError, Checker, Oracle};
use crate::report::{Report, Round, Rounds, Samples, Timed};
use crate::trace::{self, Tracer};

/// Set-ups per run: at least `SETUPS` (`SETUPS + 1` in a traced run,
/// which alternates untraced and traced set-ups), more while they have
/// taken less than `SETUP_BUDGET_S` in all (at most `SETUPS_MAX`).
/// `setup_s` and `recover_s` are the fastest untraced ones.
const SETUPS: usize = 5;
const SETUPS_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;

/// Whether another set-up is due after `done`, and whether it is traced.
pub fn next_setup(done: &Timed, traced_run: bool) -> Option<bool> {
    let n = done.0.len();
    let least = SETUPS + usize::from(traced_run);
    let spent: f64 = done.0.iter().map(|t| t.1).sum();
    (n < least || (n < SETUPS_MAX && spent < SETUP_BUDGET_S)).then_some(traced_run && n % 2 == 1)
}
/// Seconds of measurement per round. A run of `--seconds s` makes
/// `s / ROUND_SECS` rounds, each a closed-loop then an open-loop phase;
/// the reported figures are medians over rounds.
const ROUND_SECS: f64 = 2.0;
/// Share of the measured time spent in closed-loop phases.
const CLOSED_SHARE: f64 = 0.4;

/// Rounds in a run of `seconds`, and each round's closed-loop and
/// open-loop seconds.
/// A traced run has at least one (untraced, traced) pair of rounds.
pub fn round_plan(seconds: f64, traced_run: bool) -> (usize, f64, f64) {
    let least = if traced_run { 2 } else { 1 };
    let n = ((seconds / ROUND_SECS).round() as usize).max(least);
    let per = seconds / n as f64;
    (n, per * CLOSED_SHARE, per * (1.0 - CLOSED_SHARE))
}

pub struct LocalSpec {
    pub schema: Schema,
    /// The initial population, subscribed in set-up.
    pub profiles: Vec<Profile>,
    /// Fresh profiles subscribed one by one after the publish phases.
    pub late: Vec<Profile>,
    pub oracle: Oracle,
    /// Index of the subscriber the consumer blocks on.
    pub probe: usize,
    /// Events per publish call: 1 uses `publish_shared`, more uses
    /// `publish_batch` on blocks of this size.
    pub block: usize,
    /// Open-loop rate, events/s.
    pub rate: f64,
    /// Warm-up events published in set-up.
    pub warmup: u64,
}

/// Sleeps, then spins, until `t`.
pub fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Publishes scheduled events `k..k + spec.block` in one call, checking
/// the receipts' sequence numbers and match counts.
fn publish(broker: &Broker, spec: &LocalSpec, k: u64, tracer: &mut Tracer, failed: &mut u64) {
    if spec.block == 1 {
        let event = Arc::clone(&spec.oracle.pool[spec.oracle.event_of(k)]);
        match tracer.span("broker.publish", k, || broker.publish_shared(event)) {
            Ok(r) if r.sequence == k && r.matched.len() == spec.oracle.expected_of(k).len() => {}
            _ => *failed += 1,
        }
    } else {
        let events: Vec<Arc<Event>> = (k..k + spec.block as u64)
            .map(|j| Arc::clone(&spec.oracle.pool[spec.oracle.event_of(j)]))
            .collect();
        match tracer.span("broker.publish_batch", k, || broker.publish_batch(&events)) {
            Ok(rs) => {
                for (j, r) in (k..).zip(&rs) {
                    if r.sequence != j || r.matched.len() != spec.oracle.expected_of(j).len() {
                        *failed += 1;
                    }
                }
            }
            Err(_) => *failed += spec.block as u64,
        }
    }
}

/// Builds the broker, subscribes the population and publishes the
/// warm-up. Returns the broker, its subscribers, and the seconds to
/// subscribed and to warm.
fn set_up(
    spec: &LocalSpec,
    checker: &mut Checker,
    failed: &mut u64,
    tracer: &mut Tracer,
) -> Result<(Broker, Vec<Subscriber>, f64, f64), BoxError> {
    tracer.enter("bench.setup", 0);
    let t0 = Instant::now();
    let broker = Broker::new(&spec.schema, BrokerConfig::default())?;
    let subs = tracer.span("broker.subscribe_many", 0, || {
        broker.subscribe_many(spec.profiles.iter().cloned())
    })?;
    let subscribed = t0.elapsed().as_secs_f64();
    let mut k = 0;
    while k < spec.warmup {
        publish(&broker, spec, k, tracer, failed);
        k += spec.block as u64;
    }
    let warm = t0.elapsed().as_secs_f64();
    tracer.exit();
    for j in 0..spec.warmup {
        for &i in spec.oracle.expected_of(j) {
            checker.expect(i as usize, &subs[i as usize], j, tracer, j);
        }
    }
    Ok((broker, subs, subscribed, warm))
}

/// Shared publisher → consumer progress.
struct Progress {
    /// Every event with index below this has been published.
    published: AtomicU64,
    /// Every notification of events below this has been checked.
    drained: AtomicU64,
    /// First event index of the open-loop phase (`u64::MAX` before).
    open_k: AtomicU64,
    /// Publishing is over; `published` is final.
    done: AtomicBool,
}

struct ConsumerOut {
    checker: Checker,
    /// (event index, µs from due to the probe's wake-up).
    notify_us: Vec<(u64, f64)>,
    depth_max: usize,
    tracer: Tracer,
}

/// The consumer: blocks on the probe, then checks every other expected
/// notification of each newly published event.
fn consume(
    spec: &LocalSpec,
    subs: &[Subscriber],
    probe: usize,
    progress: &Progress,
    due: &(dyn Fn(u64) -> Instant + Sync),
    mut drained: u64,
    mut tracer: Tracer,
) -> ConsumerOut {
    let oracle = &spec.oracle;
    let hits_probe = |k: u64| oracle.expected_of(k).binary_search(&(probe as u32)).is_ok();
    let block_of = |k: u64| k - (k - spec.warmup) % spec.block as u64;
    let mut checker = Checker::default();
    let mut notify_us = Vec::new();
    let mut depth_max = 0;
    // Next event index the probe has not yet been checked past.
    let mut probe_k = drained;
    loop {
        // Read progress before waiting: every event below `published`
        // was fully enqueued before the wait began, so a probe that then
        // stays silent for the whole timeout has lost its notification.
        let done = progress.done.load(Ordering::Acquire);
        let published = progress.published.load(Ordering::Acquire);
        let got = tracer.span("channel.recv_timeout", probe_k, || {
            subs[probe].recv_timeout(Duration::from_millis(1))
        });
        if let Some(n) = &got {
            let t = Instant::now();
            let s = n.sequence;
            // Anything the probe skipped, anything it should not see
            // and anything going backwards is a failure.
            if s < probe_k {
                checker.failed += 1;
            } else {
                let owed = (probe_k..s).filter(|&j| hits_probe(j)).count() as u64;
                checker.expected += owed;
                checker.failed += owed;
                checker.expected += 1;
                if !hits_probe(s) {
                    checker.failed += 1;
                }
                probe_k = s + 1;
                if s >= progress.open_k.load(Ordering::Acquire) {
                    notify_us.push((s, t.saturating_duration_since(due(s)).as_secs_f64() * 1e6));
                }
            }
        }
        tracer.enter("bench.drain", drained);
        while drained < published {
            // Never report an event drained before the probe has taken
            // its notification: the publisher moves to the next phase
            // on `drained`.
            if drained >= probe_k && hits_probe(drained) {
                if got.is_some() {
                    break;
                }
                checker.expected += 1;
                checker.failed += 1;
                probe_k = drained + 1;
            }
            let req = block_of(drained);
            for &i in oracle.expected_of(drained) {
                let i = i as usize;
                if i != probe {
                    if trace::active() && drained % 16 == 0 {
                        depth_max = depth_max.max(subs[i].pending());
                    }
                    checker.expect(i, &subs[i], drained, &mut tracer, req);
                }
            }
            drained += 1;
        }
        tracer.exit();
        progress.drained.store(drained, Ordering::Release);
        if done && drained == published {
            break;
        }
    }
    ConsumerOut {
        checker,
        notify_us,
        depth_max,
        tracer,
    }
}

/// Runs the workload: set-ups, rounds of a closed-loop and an
/// open-loop phase over `seconds` in all, then late subscribes. A
/// traced run alternates untraced and traced set-ups, rounds and late
/// subscribes.
pub fn run(
    spec: &LocalSpec,
    seconds: f64,
    traced_run: bool,
    tracer: &mut Tracer,
) -> Result<Report, BoxError> {
    let mut report = Report::default();
    let mut checker = Checker::default();
    let mut failed = 0u64;

    let mut setup_s = Timed::default();
    let mut recover_s = Timed::default();
    let mut live: Option<(Broker, Vec<Subscriber>)> = None;
    while let Some(traced) = next_setup(&setup_s, traced_run) {
        // Drop the previous broker before building the next one.
        drop(live.take());
        trace::set_active(traced);
        let (broker, subs, subscribed, warm) = set_up(spec, &mut checker, &mut failed, tracer)?;
        trace::set_active(false);
        recover_s.push(traced, subscribed);
        setup_s.push(traced, warm);
        checker.leftovers(&subs);
        live = Some((broker, subs));
    }
    let (broker, subs) = live.expect("at least one set-up");
    report.attempted += setup_s.0.len() as u64 * (spec.profiles.len() as u64 + spec.warmup);
    report.setups(&setup_s, &recover_s);

    let probe = spec.probe;
    let before = broker.metrics();
    let base = tracer.totals();
    let progress = Progress {
        published: AtomicU64::new(spec.warmup),
        drained: AtomicU64::new(spec.warmup),
        open_k: AtomicU64::new(u64::MAX),
        done: AtomicBool::new(false),
    };
    let block = spec.block as u64;
    let epoch = Instant::now();
    let open_t0 = AtomicU64::new(0);
    // Due time of event `k` in the current open-loop phase: its
    // block's slot.
    let due = |k: u64| {
        let k0 = progress.open_k.load(Ordering::Acquire);
        let b = (k - k0) / block;
        epoch
            + Duration::from_nanos(open_t0.load(Ordering::Acquire))
            + Duration::from_secs_f64((b * block) as f64 / spec.rate)
    };
    let mut rounds = Rounds::default();
    let mut open_ranges = Vec::new();
    let mut lateness_us = Samples::default();
    let mut backlog_max = 0u64;
    let (n_rounds, closed_secs, open_secs) = round_plan(seconds, traced_run);
    let consumer_tracer = Tracer::new(tracer.epoch());
    let out = std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            consume(
                spec,
                &subs,
                probe,
                &progress,
                &due,
                spec.warmup,
                consumer_tracer,
            )
        });
        let drained = |k: u64| {
            while progress.drained.load(Ordering::Acquire) < k {
                std::thread::sleep(Duration::from_micros(50));
            }
        };
        let mut k = spec.warmup;
        for r in 0..n_rounds {
            let traced = traced_run && r % 2 == 1;
            trace::set_active(traced);
            // Closed loop: back to back for `closed_secs`, then until
            // every notification has been checked.
            tracer.enter("bench.closed_loop", k);
            let k0 = k;
            let t0 = Instant::now();
            while t0.elapsed().as_secs_f64() < closed_secs {
                publish(&broker, spec, k, tracer, &mut failed);
                k += block;
                progress.published.store(k, Ordering::Release);
            }
            drained(k);
            let throughput = (k - k0) as f64 / t0.elapsed().as_secs_f64();
            tracer.exit();

            // Open loop at `rate`, timed from each block's due time.
            tracer.enter("bench.open_loop", k);
            let blocks = ((open_secs * spec.rate) / block as f64).ceil() as u64;
            let t_open = Instant::now() + Duration::from_millis(1);
            open_t0.store((t_open - epoch).as_nanos() as u64, Ordering::Release);
            progress.open_k.store(k, Ordering::Release);
            let mut publish_us = Samples::default();
            let k_open = k;
            for b in 0..blocks {
                let d = due(k);
                wait_until(d);
                let start = Instant::now();
                lateness_us.push((start - d).as_secs_f64() * 1e6);
                let due_events = ((start - t_open).as_secs_f64() * spec.rate) as u64 + 1;
                backlog_max = backlog_max.max(due_events.saturating_sub(b * block));
                publish(&broker, spec, k, tracer, &mut failed);
                publish_us.push(d.elapsed().as_secs_f64() * 1e6);
                k += block;
                progress.published.store(k, Ordering::Release);
            }
            drained(k);
            tracer.exit();
            progress.open_k.store(u64::MAX, Ordering::Release);
            rounds.0.push(Round {
                traced,
                throughput,
                publish: publish_us,
                notify: Samples::default(),
            });
            open_ranges.push(k_open..k);
        }
        trace::set_active(false);
        progress.done.store(true, Ordering::Release);
        consumer.join().expect("consumer thread")
    });
    let k_end = progress.published.load(Ordering::Acquire);
    let after = broker.metrics();
    let events = k_end - spec.warmup;
    report.attempted += events + out.checker.expected;
    failed += out.checker.failed;
    tracer.merge(out.tracer);
    for (round, range) in rounds.0.iter_mut().zip(open_ranges) {
        for &(k, us) in &out.notify_us {
            if range.contains(&k) {
                round.notify.push(us);
            }
        }
    }
    rounds.report(&mut report);
    report.info("open_loop.rate", spec.rate, "1/s");
    report.info("generator.lateness_us_p99", lateness_us.pct(99.0), "us");
    report.info("generator.lateness_us_max", lateness_us.max(), "us");
    report.info("generator.backlog_max", backlog_max as f64, "count");

    // Late subscribes, each one call against the loaded broker, then
    // their unsubscribes.
    let (mut subscribe_us, mut subscribe_traced_us) = (Samples::default(), Samples::default());
    let mut late = Vec::new();
    for (i, p) in spec.late.iter().enumerate() {
        let traced = traced_run && i % 2 == 1;
        trace::set_active(traced);
        let t0 = Instant::now();
        match tracer.span("broker.subscribe", 0, || {
            broker.subscribe_profile(p.clone())
        }) {
            Ok(sub) => late.push(sub),
            Err(_) => failed += 1,
        }
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if traced {
            subscribe_traced_us.push(us);
        } else {
            subscribe_us.push(us);
        }
    }
    trace::set_active(traced_run);
    for sub in &late {
        if tracer
            .span("broker.unsubscribe", 0, || broker.unsubscribe(sub.id()))
            .is_err()
        {
            failed += 1;
        }
    }
    trace::set_active(false);
    report.attempted += 2 * spec.late.len() as u64;
    report.subscribe_latency(&subscribe_us, &subscribe_traced_us);
    checker.leftovers(subs.iter().chain(&late));
    failed += checker.failed;
    report.attempted += checker.expected;
    report.failed = failed;

    report.broker_counters(&before, &after, events);
    let notes = report.layers["broker.notifications_per_event"];
    let l = &mut report.layers;
    l.insert("channel.depth_max", out.depth_max as f64);
    l.insert(
        "channel.dropped",
        subs.iter().map(Subscriber::dropped).sum::<u64>() as f64,
    );
    l.insert("generator.lateness_us_p99", lateness_us.pct(99.0));
    l.insert("generator.backlog_max", backlog_max as f64);
    let (metric, span) = if spec.block == 1 {
        ("broker.publish_ns", "broker.publish")
    } else {
        ("broker.publish_batch_ns", "broker.publish_batch")
    };
    let publishes = tracer.since(&base, span);
    l.insert(metric, publishes.mean_ns(block));
    l.insert(
        "broker.allocs_per_event",
        publishes.allocs as f64 / (publishes.count * block).max(1) as f64,
    );
    l.insert(
        "channel.recv_ns",
        tracer.since(&base, "channel.recv").mean_ns(1),
    );
    l.insert(
        "broker.unsubscribe_us",
        tracer.since(&base, "broker.unsubscribe").mean_ns(1) / 1e3,
    );
    report.info("probe.subscriber", probe as f64, "index");
    report.info("notifications_per_event", notes, "count");
    Ok(report)
}

//! The `federated_churn` workload: two federated brokers in one process
//! over one loopback TCP link, driven by a single thread.
//!
//! Broker A (node 1, in memory) is the publisher site. Broker B (node 2)
//! is the subscriber site, durable through `Broker::open`, holding the
//! stock population: long-lived subscriptions, which must receive every
//! matching A event exactly once and in order, and churnable ones, one
//! of which is replaced at a fixed rate during the open-loop phase and
//! which must never receive an event they do not match. The run ends
//! with a timed checkpoint of B and timed cold opens of its directory.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ens_service::federation::RemoteDelivery;
use ens_service::{
    Broker, BrokerConfig, DurabilityConfig, Federation, FederationConfig, Subscriber,
};
use ens_types::{Event, Profile, Schema};
use ens_workloads::scenario::{stock_event_model, stock_profiles, stock_schema};
use ens_workloads::EventGenerator;
use rand::rngs::StdRng;
use rand::Rng;

use crate::local::{next_setup, round_plan, wait_until};
use crate::oracle::{BoxError, Checker, Oracle};
use crate::report::{Report, Round, Rounds, Samples, Timed};
use crate::rng;
use crate::trace::{self, Tracer};

/// Long-lived subscriptions at B.
const LONG_LIVED: usize = 600;
/// Churnable subscriptions at B (the initial population is both).
const CHURNABLE: usize = 200;
/// Open-loop publish rate at A, events/s.
pub const RATE: f64 = 1_000.0;
/// Churn rate at B: each op subscribes a fresh profile and
/// unsubscribes a random churnable one.
pub const CHURN_RATE: f64 = 10.0;
/// Scheduled-event pool size.
const POOL: usize = 4096;
/// Warm-up events published in set-up.
const WARMUP: u64 = 1024;
/// Closed-loop window: expected-at-B events in flight.
const WINDOW: u64 = 64;
/// Give up waiting for stragglers after this long.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

struct Churned {
    profile: Profile,
    sub: Subscriber,
    /// Highest B sequence seen on this subscriber.
    last: Option<u64>,
}

/// One set-up's live state.
struct Pair {
    a: Federation,
    b: Federation,
    long: Vec<Subscriber>,
    churn: Vec<Churned>,
    clock: Instant,
    /// A's origin sequence of scheduled event 0.
    origin_base: u64,
    /// B's local sequence the next delivered row will get.
    next_b_seq: u64,
    /// Scheduled events published so far.
    published: u64,
    /// Highest scheduled event delivered at B so far.
    last_k: Option<u64>,
    /// Per scheduled event: delivered at B.
    delivered: Vec<bool>,
    /// Per pool event: matched by a live subscription at B, so A will
    /// forward it once B's interest has settled.
    live_hit: Vec<bool>,
    /// First event of the current closed-loop phase (`u64::MAX` when
    /// none is running).
    window_from: u64,
    /// Closed-loop events published but not yet delivered at B.
    outstanding: u64,
    /// Of those, the ones a long-lived subscription expects.
    owed_long: u64,
    backlog_max: usize,
}

struct Ctx<'a> {
    schema: &'a Schema,
    oracle: &'a Oracle,
    checker: Checker,
    failed: u64,
    /// Due time of each open-loop event (by scheduled index), once set.
    open: Option<(u64, Instant)>,
    remote_us: Samples,
    depth_max: usize,
}

impl Ctx<'_> {
    fn due(&self, k: u64) -> Option<Instant> {
        self.open
            .filter(|&(k0, _)| k >= k0)
            .map(|(k0, t0)| t0 + Duration::from_secs_f64((k - k0) as f64 / RATE))
    }

    /// Whether closed-loop event `k` will reach B.
    fn windowed(&self, pair: &Pair, k: u64) -> bool {
        k >= pair.window_from && pair.live_hit[self.oracle.event_of(k)]
    }
}

fn publish(pair: &mut Pair, ctx: &mut Ctx, tracer: &mut Tracer) {
    let k = pair.published;
    let event = &ctx.oracle.pool[ctx.oracle.event_of(k)];
    if tracer
        .span("federation.publish", k, || pair.a.publish(event))
        .is_err()
    {
        ctx.failed += 1;
    }
    pair.published += 1;
    pair.delivered.push(false);
    if ctx.windowed(pair, k) {
        pair.outstanding += 1;
    }
    if long_lived_of(ctx.oracle, k).next().is_some() {
        pair.owed_long += 1;
    }
}

/// The long-lived subscriptions scheduled event `k` must reach.
fn long_lived_of(oracle: &Oracle, k: u64) -> impl Iterator<Item = usize> + '_ {
    oracle
        .expected_of(k)
        .iter()
        .map(|&i| i as usize)
        .filter(|&i| i < LONG_LIVED)
}

/// Pumps both sides once and checks what B delivered.
fn pump(pair: &mut Pair, ctx: &mut Ctx, tracer: &mut Tracer) -> Result<(), BoxError> {
    let now = pair.clock.elapsed().as_millis() as u64;
    let req = pair.published;
    tracer.enter("bench.pump", req);
    tracer.span("federation.pump_a", req, || pair.a.pump(now))?;
    let report = tracer.span("federation.pump_b", req, || pair.b.pump(now))?;
    pair.backlog_max = pair.backlog_max.max(pair.a.backlog());
    let t = Instant::now();
    for d in &report.delivered {
        deliver(pair, ctx, d, t, tracer);
    }
    if !report.delivered.is_empty() {
        drain_churned(pair, ctx);
    }
    tracer.exit();
    Ok(())
}

fn deliver(pair: &mut Pair, ctx: &mut Ctx, d: &RemoteDelivery, t: Instant, tracer: &mut Tracer) {
    let b_seq = pair.next_b_seq;
    pair.next_b_seq += 1;
    let Some(k) = d.origin_seq.checked_sub(pair.origin_base) else {
        ctx.failed += 1;
        return;
    };
    let event = &ctx.oracle.pool[ctx.oracle.event_of(k)];
    if d.origin != 1
        || k >= pair.published
        || pair.last_k.is_some_and(|l| k <= l)
        || *d.event != **event
    {
        ctx.failed += 1;
        return;
    }
    pair.last_k = Some(k);
    pair.delivered[k as usize] = true;
    if ctx.windowed(pair, k) {
        pair.outstanding -= 1;
    }
    if long_lived_of(ctx.oracle, k).next().is_some() {
        pair.owed_long -= 1;
    }
    if let Some(due) = ctx.due(k) {
        ctx.remote_us
            .push(t.saturating_duration_since(due).as_secs_f64() * 1e6);
    }
    for i in long_lived_of(ctx.oracle, k) {
        if trace::active() && k % 16 == 0 {
            ctx.depth_max = ctx.depth_max.max(pair.long[i].pending());
        }
        ctx.checker.expect(i, &pair.long[i], b_seq, tracer, k);
    }
}

/// Churnable subscribers must only ever see events they match, in
/// sequence order, each once.
fn drain_one(c: &mut Churned, ctx: &mut Ctx, next_b_seq: u64) {
    while let Some(n) = c.sub.try_recv() {
        let ordered = c.last.is_none_or(|l| n.sequence > l) && n.sequence < next_b_seq;
        if !ordered || !c.profile.matches(ctx.schema, &n.event).unwrap_or(false) {
            ctx.failed += 1;
        }
        c.last = Some(n.sequence);
    }
}

fn drain_churned(pair: &mut Pair, ctx: &mut Ctx) {
    for c in &mut pair.churn {
        drain_one(c, ctx, pair.next_b_seq);
    }
}

/// Publishes and pumps with at most `WINDOW` events bound for B in
/// flight while `more` holds, then until all of them arrived. Call only
/// once B's interest has settled at A. Returns the number published
/// and the seconds from the first publish to the last delivery.
fn closed_loop(
    pair: &mut Pair,
    ctx: &mut Ctx,
    more: &dyn Fn(&Pair) -> bool,
    tracer: &mut Tracer,
) -> Result<(u64, f64), BoxError> {
    let k0 = pair.published;
    pair.live_hit = (0..ctx.oracle.pool.len())
        .map(|e| {
            let event = &ctx.oracle.pool[e];
            ctx.oracle.expected[e]
                .iter()
                .any(|&i| (i as usize) < LONG_LIVED)
                || pair
                    .churn
                    .iter()
                    .any(|c| c.profile.matches(ctx.schema, event).unwrap_or(false))
        })
        .collect();
    pair.window_from = k0;
    pair.outstanding = 0;
    tracer.enter("bench.closed_loop", k0);
    let t0 = Instant::now();
    while more(pair) {
        if pair.outstanding < WINDOW {
            publish(pair, ctx, tracer);
        }
        pump(pair, ctx, tracer)?;
    }
    let give_up = Instant::now() + DRAIN_TIMEOUT;
    while pair.outstanding > 0 && Instant::now() < give_up {
        pump(pair, ctx, tracer)?;
    }
    pair.window_from = u64::MAX;
    let secs = t0.elapsed().as_secs_f64();
    tracer.exit();
    Ok((pair.published - k0, secs))
}

fn fresh_dir(root: &Path, n: usize) -> Result<PathBuf, BoxError> {
    let dir = root.join(format!("durable-{}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    Ok(dir)
}

fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Builds both sites, subscribes B's population, waits for the link and
/// the interest to settle, and runs the warm-up. Returns the pair, the
/// seconds of set-up work (building, subscribing, warm-up) and the
/// seconds spent waiting for A to take in B's interest.
fn set_up(
    schema: &Schema,
    profiles: &[Profile],
    dir: &Path,
    ctx: &mut Ctx,
    tracer: &mut Tracer,
) -> Result<(Pair, f64, f64), BoxError> {
    tracer.enter("bench.setup", 0);
    let t0 = Instant::now();
    let fed = |node| FederationConfig {
        node,
        ..FederationConfig::default()
    };
    let a = Federation::new(
        Arc::new(Broker::new(schema, BrokerConfig::default())?),
        fed(1),
    );
    let recovered = tracer.span("broker.open", 0, || {
        Broker::open(schema, BrokerConfig::default(), DurabilityConfig::new(dir))
    })?;
    let b = Federation::new(Arc::new(recovered.broker), fed(2));
    let addr = b.bind("127.0.0.1:0".parse()?)?;
    b.add_tcp_peer(1, addr, 0);
    a.add_tcp_peer(2, addr, 0);
    let mut long = Vec::with_capacity(LONG_LIVED);
    let mut churn = Vec::with_capacity(CHURNABLE);
    for (i, p) in profiles.iter().enumerate() {
        let sub = tracer.span("federation.subscribe", 0, || b.subscribe_profile(p.clone()))?;
        if i < LONG_LIVED {
            long.push(sub);
        } else {
            churn.push(Churned {
                profile: p.clone(),
                sub,
                last: None,
            });
        }
    }
    let clock = Instant::now();
    let mut pair = Pair {
        origin_base: a.last_origin_seq() + 1,
        next_b_seq: b.broker().metrics().events_published,
        a,
        b,
        long,
        churn,
        clock,
        published: 0,
        last_k: None,
        delivered: Vec::new(),
        live_hit: Vec::new(),
        window_from: u64::MAX,
        outstanding: 0,
        owed_long: 0,
        backlog_max: 0,
    };
    let subscribed = t0.elapsed().as_secs_f64();
    let give_up = Instant::now() + DRAIN_TIMEOUT;
    while pair.a.metrics().peers_up != 1 || pair.a.interested_peers() != 1 || pair.b.backlog() > 0 {
        pump(&mut pair, ctx, tracer)?;
        if Instant::now() > give_up {
            return Err("federated_churn: link or interest never settled".into());
        }
    }
    let settle = t0.elapsed().as_secs_f64() - subscribed;
    closed_loop(&mut pair, ctx, &|p| p.published < WARMUP, tracer)?;
    let work = t0.elapsed().as_secs_f64() - settle;
    tracer.exit();
    Ok((pair, work, settle))
}

/// The open-loop phase's generator state, carried across rounds.
struct OpenLoop {
    fresh: std::vec::IntoIter<Profile>,
    victims: StdRng,
    /// Due → `Federation::subscribe_profile` returned, per churn op,
    /// untraced and traced.
    subscribe_us: Samples,
    subscribe_traced_us: Samples,
    lateness_us: Samples,
    backlog_max: u64,
}

impl OpenLoop {
    /// Events at `RATE` and `ops` churn ops at `CHURN_RATE` for `secs`,
    /// all timed from their due times, then until every long-lived
    /// expectation has arrived. Returns the due → publish latencies.
    fn round(
        &mut self,
        pair: &mut Pair,
        ctx: &mut Ctx,
        secs: f64,
        ops: usize,
        tracer: &mut Tracer,
    ) -> Result<Samples, BoxError> {
        let k_open = pair.published;
        tracer.enter("bench.open_loop", k_open);
        let t_open = Instant::now() + Duration::from_millis(1);
        ctx.open = Some((k_open, t_open));
        let events = (secs * RATE).ceil() as u64;
        let mut publish_us = Samples::default();
        let mut done_ops = 0;
        wait_until(t_open);
        while pair.published < k_open + events || done_ops < ops {
            let since = Instant::now() - t_open;
            let due_events = ((since.as_secs_f64() * RATE) as u64 + 1).min(events);
            self.backlog_max = self
                .backlog_max
                .max(due_events.saturating_sub(pair.published - k_open));
            while pair.published < k_open + due_events {
                let due = ctx.due(pair.published).expect("open phase");
                self.lateness_us
                    .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                publish(pair, ctx, tracer);
                publish_us.push(due.elapsed().as_secs_f64() * 1e6);
            }
            let due_ops = ((since.as_secs_f64() * CHURN_RATE) as usize + 1).min(ops);
            while done_ops < due_ops {
                let due = t_open + Duration::from_secs_f64(done_ops as f64 / CHURN_RATE);
                self.churn(pair, ctx, tracer);
                let us = due.elapsed().as_secs_f64() * 1e6;
                if trace::active() {
                    self.subscribe_traced_us.push(us);
                } else {
                    self.subscribe_us.push(us);
                }
                done_ops += 1;
            }
            pump(pair, ctx, tracer)?;
        }
        let give_up = Instant::now() + DRAIN_TIMEOUT;
        while (pair.owed_long > 0 || pair.a.backlog() > 0 || pair.b.backlog() > 0)
            && Instant::now() < give_up
        {
            pump(pair, ctx, tracer)?;
        }
        tracer.exit();
        Ok(publish_us)
    }

    /// Subscribes a fresh profile and unsubscribes a random churnable
    /// subscription (after checking what it still holds).
    fn churn(&mut self, pair: &mut Pair, ctx: &mut Ctx, tracer: &mut Tracer) {
        let profile = self.fresh.next().expect("one fresh profile per op");
        match tracer.span("federation.subscribe", 0, || {
            pair.b.subscribe_profile(profile.clone())
        }) {
            Ok(sub) => pair.churn.push(Churned {
                profile,
                sub,
                last: None,
            }),
            Err(_) => ctx.failed += 1,
        }
        let victim = self.victims.gen_range(0..pair.churn.len());
        let mut gone = pair.churn.swap_remove(victim);
        drain_one(&mut gone, ctx, pair.next_b_seq);
        let id = gone.sub.id();
        if tracer
            .span("federation.unsubscribe", 0, || pair.b.unsubscribe(id))
            .is_err()
        {
            ctx.failed += 1;
        }
    }
}

/// Runs the workload: set-ups, rounds of a closed-loop and an
/// open-loop phase (with churn) over `seconds` in all, then the timed
/// checkpoint and cold opens. A traced run alternates untraced and
/// traced set-ups, rounds and opens.
pub fn run(
    seed: u64,
    seconds: f64,
    traced_run: bool,
    out: &Path,
    tracer: &mut Tracer,
) -> Result<Report, BoxError> {
    let schema = stock_schema();
    let profiles: Vec<Profile> = stock_profiles(LONG_LIVED + CHURNABLE, &mut rng(seed, 1))?
        .iter()
        .cloned()
        .collect();
    let (n_rounds, closed_secs, open_secs) = round_plan(seconds, traced_run);
    let ops_per_round = (open_secs * CHURN_RATE).round() as usize;
    let fresh: Vec<Profile> = stock_profiles(n_rounds * ops_per_round, &mut rng(seed, 3))?
        .iter()
        .cloned()
        .collect();
    let generator = EventGenerator::new(&schema, stock_event_model()?)?;
    let mut r = rng(seed, 2);
    let pool: Vec<Event> = (0..POOL).map(|_| generator.sample(&mut r)).collect();
    let oracle = Oracle::build(&schema, &profiles, pool, seed)?;

    let mut ctx = Ctx {
        schema: &schema,
        oracle: &oracle,
        checker: Checker::default(),
        failed: 0,
        open: None,
        remote_us: Samples::default(),
        depth_max: 0,
    };
    let mut report = Report::default();
    std::fs::create_dir_all(out)?;

    let mut setup_s = Timed::default();
    let mut settle_s = Vec::new();
    let mut live: Option<(Pair, PathBuf)> = None;
    while let Some(traced) = next_setup(&setup_s, traced_run) {
        let n = setup_s.0.len();
        if let Some((old, dir)) = live.take() {
            ctx.checker
                .leftovers(old.long.iter().chain(old.churn.iter().map(|c| &c.sub)));
            drop(old);
            std::fs::remove_dir_all(dir)?;
        }
        let dir = fresh_dir(out, n)?;
        trace::set_active(traced);
        let (pair, work, settle) = set_up(&schema, &profiles, &dir, &mut ctx, tracer)?;
        trace::set_active(false);
        setup_s.push(traced, work);
        settle_s.push(settle);
        report.attempted += (profiles.len() as u64) + pair.published;
        live = Some((pair, dir));
    }
    let (mut pair, dir) = live.expect("at least one set-up");
    let settle_min = settle_s.iter().copied().fold(f64::INFINITY, f64::min);
    report.info("setup.interest_settle_s", settle_min, "s");

    let before_a = pair.a.metrics();
    let before_b = pair.b.metrics();
    let before = pair.b.broker().metrics();
    let base = tracer.totals();
    let k_start = pair.published;
    let wal0 = dir_bytes(&dir, "wal");
    let mut rounds = Rounds::default();
    let mut open = OpenLoop {
        fresh: fresh.into_iter(),
        victims: rng(seed, 4),
        subscribe_us: Samples::default(),
        subscribe_traced_us: Samples::default(),
        lateness_us: Samples::default(),
        backlog_max: 0,
    };
    for r in 0..n_rounds {
        let traced = traced_run && r % 2 == 1;
        trace::set_active(traced);
        // Closed loop: capacity with every expected event delivered.
        let until = Instant::now() + Duration::from_secs_f64(closed_secs);
        let (n, secs) = closed_loop(&mut pair, &mut ctx, &|_| Instant::now() < until, tracer)?;
        let publish = open.round(&mut pair, &mut ctx, open_secs, ops_per_round, tracer)?;
        rounds.0.push(Round {
            traced,
            throughput: n as f64 / secs,
            publish,
            notify: std::mem::take(&mut ctx.remote_us),
        });
        ctx.open = None;
    }
    trace::set_active(false);
    for k in k_start..pair.published {
        if !pair.delivered[k as usize] {
            let missing = long_lived_of(ctx.oracle, k).count() as u64;
            ctx.checker.expected += missing;
            ctx.checker.failed += missing;
        }
    }
    drain_churned(&mut pair, &mut ctx);
    let measured = pair.published - k_start;
    let churn_ops = n_rounds * ops_per_round;
    let wal1 = dir_bytes(&dir, "wal");
    rounds.report(&mut report);
    report.subscribe_latency(&open.subscribe_us, &open.subscribe_traced_us);
    let (lateness_us, backlog_max) = (open.lateness_us, open.backlog_max);
    // The remote latency under its own name as well.
    for (alias, of) in [
        ("remote_us_p50", "notify_us_p50"),
        ("remote_us_p99", "notify_us_p99"),
    ] {
        let v = report.info_value(of).unwrap_or(0.0);
        report.info(alias, v, "us");
    }
    report.info("open_loop.rate", RATE, "1/s");
    report.info("open_loop.churn_rate", CHURN_RATE, "1/s");
    report.info("generator.lateness_us_p99", lateness_us.pct(99.0), "us");
    report.info("generator.lateness_us_max", lateness_us.max(), "us");
    report.info("generator.backlog_max", backlog_max as f64, "count");

    let after_a = pair.a.metrics();
    let after_b = pair.b.metrics();
    let after = pair.b.broker().metrics();
    report.broker_counters(&before, &after, measured);
    let mean = |name| tracer.since(&base, name).mean_ns(1);
    let l = &mut report.layers;
    l.insert(
        "broker.unsubscribe_us",
        mean("federation.unsubscribe") / 1e3,
    );
    l.insert("channel.recv_ns", mean("channel.recv"));
    l.insert("channel.depth_max", ctx.depth_max as f64);
    l.insert(
        "channel.dropped",
        pair.long.iter().map(Subscriber::dropped).sum::<u64>() as f64,
    );
    l.insert(
        "durability.wal_bytes_per_op",
        wal1.saturating_sub(wal0) as f64 / (2 * churn_ops).max(1) as f64,
    );
    l.insert("federation.publish_ns", mean("federation.publish"));
    l.insert("federation.pump_us_a", mean("federation.pump_a") / 1e3);
    l.insert("federation.pump_us_b", mean("federation.pump_b") / 1e3);
    l.insert(
        "federation.forwarded_rows_per_event",
        (after_a.forwarded_rows - before_a.forwarded_rows) as f64 / measured as f64,
    );
    l.insert(
        "federation.forwarded_interest",
        pair.b.forwarded_interest(1) as f64,
    );
    l.insert(
        "federation.retransmits",
        (after_a.retransmits + after_b.retransmits - before_a.retransmits - before_b.retransmits)
            as f64,
    );
    l.insert(
        "federation.duplicates",
        (after_a.duplicates + after_b.duplicates - before_a.duplicates - before_b.duplicates)
            as f64,
    );
    l.insert("federation.backlog_max", pair.backlog_max as f64);
    l.insert("generator.lateness_us_p99", lateness_us.pct(99.0));
    l.insert("generator.backlog_max", backlog_max as f64);
    let retransmits = l["federation.retransmits"];
    report.info("federation.retransmits", retransmits, "count");

    // Checkpoint, then cold opens of B's directory.
    let t0 = Instant::now();
    pair.b.broker().checkpoint()?;
    let l = &mut report.layers;
    l.insert("durability.checkpoint_ms", t0.elapsed().as_secs_f64() * 1e3);
    l.insert(
        "durability.checkpoint_bytes",
        dir_bytes(&dir, "checkpoint") as f64,
    );
    let live_subs = pair.long.len() + pair.churn.len();
    ctx.checker
        .leftovers(pair.long.iter().chain(pair.churn.iter().map(|c| &c.sub)));
    drop(pair);
    let mut recover_s = Timed::default();
    while let Some(traced) = next_setup(&recover_s, traced_run) {
        trace::set_active(traced);
        let t0 = Instant::now();
        let recovered = tracer.span("broker.open", 0, || {
            Broker::open(
                &schema,
                BrokerConfig::default(),
                DurabilityConfig::new(&dir),
            )
        })?;
        recover_s.push(traced, t0.elapsed().as_secs_f64());
        trace::set_active(false);
        if recovered.subscribers.len() != live_subs {
            ctx.failed += 1;
        }
    }
    std::fs::remove_dir_all(&dir)?;
    report.attempted +=
        measured + 2 * churn_ops as u64 + recover_s.0.len() as u64 + ctx.checker.expected;
    report.setups(&setup_s, &recover_s);
    report.failed = ctx.failed + ctx.checker.failed;
    if traced_run {
        trace::set_active(true);
        report.failed += crate::mirror::measure(
            &schema,
            &profiles,
            &oracle,
            k_start,
            false,
            &mut report.layers,
            tracer,
        )?;
        trace::set_active(false);
    }
    Ok(report)
}

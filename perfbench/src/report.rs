//! Metric names, sample statistics and the per-run report.

use std::collections::BTreeMap;

use ens_service::MetricsSnapshot;

/// End-to-end metrics in the result line with tracing off: the same
/// list, in the same order, as `end_to_end` in `BENCHMARK.json`. The
/// other end-to-end figures (`throughput_eps`, publish, notify and
/// subscribe latencies, `recover_s`, sample counts, generator lateness)
/// are printed as lines of their own; README.md says why they are not
/// in the result line.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by the traced run (0 where a layer is
/// not on the workload's path).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("types.resolve_ns", "ns"),
    ("filter.match_ns", "ns"),
    ("filter.match_block_ns", "ns"),
    ("filter.match_dfsa_ns", "ns"),
    ("filter.match_uncovered_ns", "ns"),
    ("filter.ops_per_event", "count"),
    ("filter.matched_per_event", "count"),
    ("filter.compiled_ratio", "ratio"),
    ("filter.allocs_per_event", "count"),
    ("filter.compile_ms", "ms"),
    ("filter.snapshot_bytes", "bytes"),
    ("broker.publish_ns", "ns"),
    ("broker.publish_batch_ns", "ns"),
    ("broker.deliver_ns_per_notification", "ns"),
    ("broker.notifications_per_event", "count"),
    ("broker.allocs_per_event", "count"),
    ("broker.tree_rebuilds_per_1k", "count"),
    ("broker.overlay_compactions_per_1k", "count"),
    ("broker.retunes_per_1k", "count"),
    ("broker.unsubscribe_us", "us"),
    ("channel.recv_ns", "ns"),
    ("channel.depth_max", "count"),
    ("channel.dropped", "count"),
    ("durability.wal_bytes_per_op", "bytes"),
    ("durability.checkpoint_ms", "ms"),
    ("durability.checkpoint_bytes", "bytes"),
    ("federation.publish_ns", "ns"),
    ("federation.pump_us_a", "us"),
    ("federation.pump_us_b", "us"),
    ("federation.forwarded_rows_per_event", "count"),
    ("federation.forwarded_interest", "count"),
    ("federation.retransmits", "count"),
    ("federation.duplicates", "count"),
    ("federation.backlog_max", "count"),
    ("generator.lateness_us_p99", "us"),
    ("generator.backlog_max", "count"),
    ("trace_overhead.throughput_eps", "ratio"),
    ("trace_overhead.publish_us_p50", "ratio"),
    ("trace_overhead.publish_us_p99", "ratio"),
    ("trace_overhead.notify_us_p50", "ratio"),
    ("trace_overhead.notify_us_p99", "ratio"),
    ("trace_overhead.subscribe_us_p50", "ratio"),
    ("trace_overhead.subscribe_us_p99", "ratio"),
    ("trace_overhead.recover_s", "ratio"),
    ("trace_overhead.setup_s", "ratio"),
];

/// Latency (or duration) samples.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile (`p` in 0..=100); 0 without samples.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra lines for the human-readable output: name, value, unit.
    pub info: Vec<(String, f64, &'static str)>,
    /// Operations attempted: publishes, subscription calls and expected
    /// notifications.
    pub attempted: u64,
    /// Failed calls plus missing, extra, duplicate, out-of-order or
    /// wrong notifications.
    pub failed: u64,
}

impl Report {
    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push((name.into(), value, unit));
    }

    /// The value of the info line `name`, if there is one.
    pub fn info_value(&self, name: &str) -> Option<f64> {
        self.info.iter().find(|(n, _, _)| n == name).map(|i| i.1)
    }

    /// Reports subscription-call latencies: p50, p99 and sample count
    /// of the untraced calls as lines, and the tracing overhead from
    /// the traced ones when there are any.
    pub fn subscribe_latency(&mut self, untraced: &Samples, traced: &Samples) {
        self.info("subscribe_us_p50", untraced.median(), "us");
        self.info("subscribe_us_p99", untraced.pct(99.0), "us");
        self.info("subscribe_us.samples", untraced.len() as f64, "count");
        if traced.len() > 0 {
            let ratio = |a: f64, b: f64| if a > 0.0 { (b - a) / a } else { 0.0 };
            self.layers.insert(
                "trace_overhead.subscribe_us_p50",
                ratio(untraced.median(), traced.median()),
            );
            self.layers.insert(
                "trace_overhead.subscribe_us_p99",
                ratio(untraced.pct(99.0), traced.pct(99.0)),
            );
        }
    }

    /// Reports `setup_s` and `recover_s` as the fastest of the
    /// untraced set-ups (or recoveries), so that one slowed by outside
    /// interference does not move them, plus their tracing overhead.
    pub fn setups(&mut self, setup: &Timed, recover: &Timed) {
        self.info("setups", setup.0.len() as f64, "count");
        self.e2e.insert("setup_s", setup.fastest());
        self.info("setup_s.median", setup.median(), "s");
        self.info("recover_s", recover.fastest(), "s");
        self.info("recover_s.median", recover.median(), "s");
        let overheads = [
            ("trace_overhead.setup_s", setup),
            ("trace_overhead.recover_s", recover),
        ];
        for (key, t) in overheads {
            if let Some(o) = t.overhead() {
                self.layers.insert(key, o);
            }
        }
    }

    /// Per-1k-event rates of the broker's drift rebuilds, overlay
    /// compactions and retunes, and notifications per event, between
    /// two `Broker::metrics()` snapshots `events` events apart.
    pub fn broker_counters(
        &mut self,
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
        events: u64,
    ) {
        let per = |a: u64, b: u64, scale: f64| (b - a) as f64 * scale / events.max(1) as f64;
        let l = &mut self.layers;
        l.insert(
            "broker.notifications_per_event",
            per(before.notifications_sent, after.notifications_sent, 1.0),
        );
        l.insert(
            "broker.tree_rebuilds_per_1k",
            per(before.tree_rebuilds, after.tree_rebuilds, 1e3),
        );
        l.insert(
            "broker.overlay_compactions_per_1k",
            per(before.overlay_compactions, after.overlay_compactions, 1e3),
        );
        l.insert(
            "broker.retunes_per_1k",
            per(before.retunes, after.retunes, 1e3),
        );
        let v = l["broker.tree_rebuilds_per_1k"];
        self.info("broker.tree_rebuilds_per_1k", v, "count");
    }
}

/// Median over (untraced, traced) pairs of `(traced − untraced) /
/// untraced`, or `None` without a pair.
fn paired_overhead(pairs: impl Iterator<Item = (f64, f64)>) -> Option<f64> {
    let v: Vec<f64> = pairs
        .filter(|&(a, _)| a > 0.0)
        .map(|(a, b)| (b - a) / a)
        .collect();
    (!v.is_empty()).then(|| median_of(v))
}

/// Repeated timings of one step (seconds), each marked traced or not.
/// In a traced run they alternate untraced, traced, untraced, ...
#[derive(Debug, Default)]
pub struct Timed(pub Vec<(bool, f64)>);

impl Timed {
    pub fn push(&mut self, traced: bool, secs: f64) {
        self.0.push((traced, secs));
    }

    fn untraced(&self) -> Vec<f64> {
        self.0.iter().filter(|t| !t.0).map(|t| t.1).collect()
    }

    /// The fastest untraced timing.
    pub fn fastest(&self) -> f64 {
        self.untraced().into_iter().fold(f64::INFINITY, f64::min)
    }

    pub fn median(&self) -> f64 {
        median_of(self.untraced())
    }

    /// Tracing overhead over consecutive (untraced, traced) pairs.
    pub fn overhead(&self) -> Option<f64> {
        paired_overhead(
            self.0
                .chunks_exact(2)
                .filter(|p| !p[0].0 && p[1].0)
                .map(|p| (p[0].1, p[1].1)),
        )
    }
}

/// One measured round: a closed-loop phase, then an open-loop phase.
#[derive(Debug, Default)]
pub struct Round {
    /// Spans were recorded and allocations counted.
    pub traced: bool,
    /// Closed-loop events/s.
    pub throughput: f64,
    /// Open-loop due → publish returned.
    pub publish: Samples,
    /// Open-loop due → subscriber received.
    pub notify: Samples,
}

/// Per-round results of the measured phases. In a traced run rounds
/// alternate untraced and traced; the end-to-end figures come from the
/// untraced rounds.
#[derive(Debug, Default)]
pub struct Rounds(pub Vec<Round>);

impl Rounds {
    /// Reports the end-to-end figures: `throughput_eps` is the best
    /// round's and `publish_us_p50`/`notify_us_p50` the lowest round's
    /// p50, so that a round hit by outside interference (or by a host
    /// that was briefly slower) does not move them; the p99s are
    /// medians over rounds of each round's p99. Every
    /// round's figures are printed too, and in a traced run the tracing
    /// overhead of each figure is the median over (untraced, traced)
    /// round pairs.
    pub fn report(&self, report: &mut Report) {
        let plain: Vec<&Round> = self.0.iter().filter(|r| !r.traced).collect();
        let best = plain.iter().map(|r| r.throughput).fold(0.0, f64::max);
        report.info("throughput_eps", best, "1/s");
        type Get = fn(&Round) -> &Samples;
        let latencies: [(&str, Get); 2] =
            [("publish_us", |r| &r.publish), ("notify_us", |r| &r.notify)];
        for (name, get) in latencies {
            let p50 = plain
                .iter()
                .map(|r| get(r).median())
                .fold(f64::INFINITY, f64::min);
            report.info(
                format!("{name}_p50"),
                if p50.is_finite() { p50 } else { 0.0 },
                "us",
            );
            let p99 = median_of(plain.iter().map(|r| get(r).pct(99.0)).collect());
            report.info(format!("{name}_p99"), p99, "us");
            let fewest = plain.iter().map(|r| get(r).len()).min().unwrap_or(0);
            report.info(
                format!("{name}.samples_per_round_min"),
                fewest as f64,
                "count",
            );
            let max = plain.iter().map(|r| get(r).max()).fold(0.0, f64::max);
            report.info(format!("{name}.max"), max, "us");
        }
        for (i, r) in self.0.iter().enumerate() {
            let tag = if r.traced { "traced" } else { "untraced" };
            report.info(
                format!("round{i}.{tag}.throughput_eps"),
                r.throughput,
                "1/s",
            );
            for (name, get) in latencies {
                let s = get(r);
                report.info(format!("round{i}.{tag}.{name}_p50"), s.median(), "us");
                report.info(format!("round{i}.{tag}.{name}_p99"), s.pct(99.0), "us");
            }
        }
        let pairs: Vec<(&Round, &Round)> = self
            .0
            .chunks_exact(2)
            .filter(|p| !p[0].traced && p[1].traced)
            .map(|p| (&p[0], &p[1]))
            .collect();
        type Figure = fn(&Round) -> f64;
        let overheads: [(&str, Figure); 5] = [
            ("trace_overhead.throughput_eps", |r| r.throughput),
            ("trace_overhead.publish_us_p50", |r| r.publish.median()),
            ("trace_overhead.publish_us_p99", |r| r.publish.pct(99.0)),
            ("trace_overhead.notify_us_p50", |r| r.notify.median()),
            ("trace_overhead.notify_us_p99", |r| r.notify.pct(99.0)),
        ];
        for (key, f) in overheads {
            if let Some(o) = paired_overhead(pairs.iter().map(|(a, b)| (f(a), f(b)))) {
                report.layers.insert(key, o);
            }
        }
    }
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a few repeated measurements.
pub fn median_of(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        v[v.len() / 2]
    }
}

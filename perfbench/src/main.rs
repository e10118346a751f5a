//! End-to-end delivery benchmark for the ens workspace.
//!
//! ```text
//! perfbench --workload <fanout|selective_batch|federated_churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit and the oracle verdict,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics and the tracing overhead with `--trace 1`. See
//! README.md next to this crate.

mod federated;
mod local;
mod mirror;
mod oracle;
mod report;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ens_types::{Event, Profile};
use ens_workloads::{CoveredPopulationConfig, EventGenerator, ProfileGenConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use oracle::{mix, BoxError, Oracle};
use report::{Report, END_TO_END, PER_LAYER};
use trace::{CountingAlloc, Tracer};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WORKLOADS: [&str; 3] = ["fanout", "selective_batch", "federated_churn"];

/// `fanout` open-loop rate: about half the closed-loop capacity
/// measured at seed 1 on a 2-core x86-64 container (see README.md).
const FANOUT_RATE: f64 = 10_000.0;
/// `selective_batch` open-loop rate, events/s (blocks of 64), chosen
/// the same way.
const SELECTIVE_RATE: f64 = 60_000.0;
/// Profiles per independent covered population ("tenant") of
/// `selective_batch`.
const TENANT: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A seeded generator for one named input stream of the run.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed ^ mix(stream)))
}

fn env_events(n: usize, seed: u64) -> Result<Vec<Event>, BoxError> {
    let schema = ens_workloads::scenario::environmental_schema();
    let model = ens_workloads::scenario::environmental_event_model()?;
    let generator = EventGenerator::new(&schema, model)?;
    let mut r = rng(seed, 2);
    Ok((0..n).map(|_| generator.sample(&mut r)).collect())
}

fn fanout(seed: u64) -> Result<local::LocalSpec, BoxError> {
    use ens_workloads::scenario::{environmental_profiles, environmental_schema};
    let schema = environmental_schema();
    let mut profiles: Vec<Profile> = environmental_profiles(1000, &mut rng(seed, 1))?
        .iter()
        .cloned()
        .collect();
    let late = environmental_profiles(1000, &mut rng(seed, 3))?
        .iter()
        .cloned()
        .collect();
    let mut oracle = Oracle::build(&schema, &profiles, env_events(4096, seed)?, seed)?;
    let probe = oracle.busiest_last(&mut profiles);
    Ok(local::LocalSpec {
        schema,
        profiles,
        late,
        oracle,
        probe,
        block: 1,
        rate: FANOUT_RATE,
        warmup: 4096,
    })
}

fn selective(seed: u64) -> Result<local::LocalSpec, BoxError> {
    let schema = ens_workloads::scenario::environmental_schema();
    let config = CoveredPopulationConfig {
        coverage_density: 0.9,
        duplicate_frac: 0.4,
        zipf_exponent: 1.2,
        roots: ProfileGenConfig {
            dont_care_prob: 0.05,
            eq_prob: 0.8,
            range_width_frac: 0.02,
        },
    };
    // The population is made of independent covered populations of
    // `TENANT` profiles ("tenants"), each with its own Zipf-ranked roots. One
    // population of 100k hinges on whether its few most popular roots
    // are broad (two don't-cares), which moves notifications/event, and
    // every figure with it, several-fold from seed to seed; a thousand
    // tenants average that out.
    let population = |n: usize, stream: u64| -> Result<Vec<Profile>, BoxError> {
        let mut out = Vec::with_capacity(n);
        for g in 0..n / TENANT {
            let mut r = rng(seed, stream << 32 | g as u64);
            let group = ens_workloads::covered_profiles(&schema, TENANT, &config, &mut r)?;
            out.extend(group.iter().cloned());
        }
        Ok(out)
    };
    let mut profiles = population(100_000, 1)?;
    let late = population(200, 3)?;
    let mut oracle = Oracle::build(&schema, &profiles, env_events(1024, seed)?, seed)?;
    let probe = oracle.busiest_last(&mut profiles);
    Ok(local::LocalSpec {
        schema,
        profiles,
        late,
        oracle,
        probe,
        block: 64,
        rate: SELECTIVE_RATE,
        warmup: 4096,
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the workload, traced or not, and derives the per-layer
/// figures that combine layers.
fn measure(args: &Args) -> Result<(Report, Tracer), BoxError> {
    let mut tracer = Tracer::new(Instant::now());
    let mut report = match args.workload.as_str() {
        "fanout" | "selective_batch" => {
            let spec = if args.workload == "fanout" {
                fanout(args.seed)?
            } else {
                selective(args.seed)?
            };
            let mut r = local::run(&spec, args.seconds, args.trace, &mut tracer)?;
            if args.trace {
                trace::set_active(true);
                r.failed += mirror::measure(
                    &spec.schema,
                    &spec.profiles,
                    &spec.oracle,
                    spec.warmup,
                    spec.block > 1,
                    &mut r.layers,
                    &mut tracer,
                )?;
                trace::set_active(false);
            }
            r
        }
        _ => federated::run(args.seed, args.seconds, args.trace, &out_dir(), &mut tracer)?,
    };
    report.e2e.insert("peak_rss_mb", report::peak_rss_mb());
    if args.trace {
        let l = &mut report.layers;
        let get = |l: &std::collections::BTreeMap<&str, f64>, k| l.get(k).copied().unwrap_or(0.0);
        let publish = get(l, "broker.publish_ns") + get(l, "broker.publish_batch_ns");
        let matching = if get(l, "broker.publish_batch_ns") > 0.0 {
            get(l, "filter.match_block_ns")
        } else {
            get(l, "filter.match_ns")
        };
        let notes = get(l, "broker.notifications_per_event");
        if publish > 0.0 && notes > 0.0 {
            l.insert(
                "broker.deliver_ns_per_notification",
                (publish - get(l, "types.resolve_ns") - matching) / notes,
            );
        }
    }
    Ok((report, tracer))
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn run(args: &Args) -> Result<(), BoxError> {
    let (mut report, tracer) = measure(args)?;
    let tag = format!(
        "{}-seed{}{}",
        args.workload,
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    if args.trace {
        tracer.write(&out_dir().join(format!("{tag}.spans.jsonl")))?;
        for (name, a) in tracer.aggs() {
            report.info(format!("span.{name}.calls"), a.count as f64, "count");
            report.info(format!("span.{name}.self_ms"), a.self_ns as f64 / 1e6, "ms");
        }
    }
    report.attempted = report.attempted.max(1);
    let frac = report.failed as f64 / report.attempted as f64;
    let mut lines = Vec::new();
    for (name, unit) in END_TO_END {
        lines.push(format!(
            "{name} {} {unit}",
            json_number(report.e2e.get(name).copied().unwrap_or(0.0))
        ));
    }
    for (name, value, unit) in &report.info {
        lines.push(format!("{name} {} {unit}", json_number(*value)));
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            lines.push(format!(
                "{name} {} {unit}",
                json_number(report.layers.get(name).copied().unwrap_or(0.0))
            ));
        }
    }
    lines.push(format!("failed_ops_frac {} ratio", json_number(frac)));
    lines.push(format!(
        "oracle {} ({} failed of {} attempted)",
        if report.failed == 0 { "ok" } else { "FAILED" },
        report.failed,
        report.attempted
    ));
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(
        out_dir().join(format!("{tag}.txt")),
        lines.join("\n") + "\n",
    )?;
    for l in &lines {
        println!("{l}");
    }
    let (metrics, values) = if args.trace {
        (PER_LAYER, &report.layers)
    } else {
        (END_TO_END, &report.e2e)
    };
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

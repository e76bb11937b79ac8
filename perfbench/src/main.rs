//! Whole-path AdaEdge benchmark.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Each workload is set up [`SETUPS`] times from the seed (the median is
//! `setup_s`), runs one untimed warm-up round, then repeats rounds of fixed
//! work for the given seconds; throughput and egress are medians over
//! rounds. Every round checks the program's outputs. With `--trace 0` the
//! last line of output is the JSON result with the end-to-end metrics;
//! with `--trace 1` the first half of the time runs untraced and the
//! second half records spans, and the JSON carries the per-layer metrics,
//! the tracing overhead and the stage table's residual. The process exits
//! 1 when any output check fails and 2 on a usage error.
//!
//! The workloads, the layer each one stresses and bypasses, and the
//! mapping from layer metrics to end-to-end metrics are in `README.md`.

mod engine_shift;
mod fleet_gateway;
mod host;
mod offline_budget;
mod pool;
mod stats;
mod trace;
mod uplink_lossy;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Rounds a phase runs even when they outlast its time.
const MIN_ROUNDS: usize = 3;
/// Span budget of a traced phase.
const SPAN_CAP: usize = 600_000;
/// Where runs keep their spool, archive and trace files.
const OUT_DIR: &str = ".perfbench";

const WORKLOADS: [&str; 4] = [
    "engine_shift",
    "fleet_gateway",
    "uplink_lossy",
    "offline_budget",
];

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("records_per_s", "rec/s"),
    ("egress_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload
/// bypasses reads 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("datasets.fill_us_p50", "us"),
    ("engine.producer_wait_frac", "ratio"),
    ("engine.stolen_batches", "count"),
    ("engine.spills", "count"),
    ("engine.selector_syncs", "count"),
    ("engine.selector_lock_acquisitions", "count"),
    ("engine.codec_failures", "count"),
    ("engine.offline_recodes", "count"),
    ("engine.offline_recodes_per_record", "ratio"),
    ("engine.offline_drops", "count"),
    ("storage.utilization", "ratio"),
    ("fleet.restores", "count"),
    ("fleet.evictions", "count"),
    ("fleet.peak_resident", "count"),
    ("fleet.per_stream_state_bytes", "B"),
    ("fleet.stolen_batches", "count"),
    ("frame.frames", "count"),
    ("frame.fill_ratio", "ratio"),
    ("selector.select_us_p50", "us"),
    ("selector.report_us_p50", "us"),
    ("selector.degraded_pick_frac", "ratio"),
    ("codecs.compress_us_p50", "us"),
    ("codecs.compress_us_p99", "us"),
    ("codecs.decompress_us_p50", "us"),
    ("codecs.decompress_us_p99", "us"),
    ("spool.append_us_p50", "us"),
    ("spool.append_us_p99", "us"),
    ("spool.sync_us_p50", "us"),
    ("spool.syncs", "count"),
    ("spool.depth_max_records", "count"),
    ("spool.gc_segments", "count"),
    ("spool.replayed_records", "count"),
    ("uplink.offer_us_p50", "us"),
    ("uplink.tick_us_p50", "us"),
    ("uplink.tick_us_p99", "us"),
    ("uplink.retries", "count"),
    ("uplink.retry_ratio", "ratio"),
    ("uplink.timeouts", "count"),
    ("uplink.trips", "count"),
    ("uplink.requeues", "count"),
    ("uplink.backlog_max", "count"),
    ("uplink.rx_on_frame_us_p50", "us"),
    ("uplink.rx_duplicate_records", "count"),
    ("uplink.rx_frames_rejected", "count"),
    ("uplink.link_frames_dropped", "count"),
    ("uplink.goodput_raw_bytes_per_tick", "B/tick"),
    ("uplink.deliver_ticks_p50", "ticks"),
    ("uplink.deliver_ticks_p99", "ticks"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// Span-derived per-layer timings: `(metric, span name, quantile)`.
const SPAN_TIMINGS: [(&str, &str, f64); 14] = [
    ("datasets.fill_us_p50", "datasets.fill", 0.5),
    ("selector.select_us_p50", "selector.select", 0.5),
    ("selector.report_us_p50", "selector.report", 0.5),
    ("codecs.compress_us_p50", "codecs.compress", 0.5),
    ("codecs.compress_us_p99", "codecs.compress", 0.99),
    ("codecs.decompress_us_p50", "codecs.decompress", 0.5),
    ("codecs.decompress_us_p99", "codecs.decompress", 0.99),
    ("spool.append_us_p50", "spool.append", 0.5),
    ("spool.append_us_p99", "spool.append", 0.99),
    ("spool.sync_us_p50", "spool.sync", 0.5),
    ("uplink.offer_us_p50", "uplink.offer", 0.5),
    ("uplink.tick_us_p50", "uplink.tick", 0.5),
    ("uplink.tick_us_p99", "uplink.tick", 0.99),
    ("uplink.rx_on_frame_us_p50", "uplink.rx_on_frame", 0.5),
];

/// What the rounds of one phase measured and checked.
#[derive(Debug, Default)]
pub struct Measured {
    /// Records per wall second, one per round.
    pub rates: Vec<f64>,
    /// Compressed bytes out ÷ raw bytes in, one per round.
    pub egress: Vec<f64>,
    /// Records attempted.
    pub attempted: u64,
    /// Records failed: contained codec failures, records not delivered
    /// exactly once and byte-identical, offline budget drops.
    pub failed: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Per-layer values, one per round; reported as their mean.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values computed over the whole phase.
    pub fixed: BTreeMap<&'static str, f64>,
    /// The input property each workload was chosen for, as measured.
    pub notes: Vec<String>,
    /// Workload-specific end-to-end figures, printed as they are.
    pub lines: Vec<String>,
}

impl Measured {
    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Record a round that took `secs` for `records`.
    pub fn done(&mut self, records: u64, secs: f64) {
        self.rates.push(records as f64 / secs);
    }

    /// Add one round's value of a per-layer metric.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// One workload: fixed work per round, checked as it runs.
pub trait Workload {
    /// Run one round inside the current span, adding its figures to `out`.
    fn round(&mut self, tr: &mut Tracer, out: &mut Measured);
    /// Check the input property over the phase and record it in `out`.
    fn finish(&mut self, out: &mut Measured);
}

fn setup(name: &str, seed: u64, dir: &Path) -> Box<dyn Workload> {
    match name {
        "engine_shift" => Box::new(engine_shift::EngineShift::setup(seed)),
        "fleet_gateway" => Box::new(fleet_gateway::FleetGateway::setup(seed, dir)),
        "uplink_lossy" => Box::new(uplink_lossy::UplinkLossy::setup(seed, dir)),
        "offline_budget" => Box::new(offline_budget::OfflineBudget::setup(seed)),
        _ => unreachable!("workload names are validated"),
    }
}

/// Run rounds for `secs` and at least [`MIN_ROUNDS`], each inside a root
/// `round` span; a traced phase also stops when its span budget is nearly
/// spent.
fn phase(w: &mut dyn Workload, secs: f64, tr: &mut Tracer) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(secs);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || (start.elapsed() < budget && !tr.nearly_full()) {
        let root = tr.enter("round", 0);
        w.round(tr, &mut m);
        tr.exit(root);
        rounds += 1;
    }
    w.finish(&mut m);
    m
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn summary_line(name: &str, unit: &str, xs: &[f64], what: &str) -> f64 {
    let Some(s) = stats::summarize(xs) else {
        println!("{name:<16} no samples");
        return f64::NAN;
    };
    println!(
        "{name:<16} {:>14.6} {unit:<6} median of {} {what}; q1 {:.6} q3 {:.6} (spread {:.2}%)",
        s.median,
        s.n,
        s.q1,
        s.q3,
        s.spread() * 100.0
    );
    s.median
}

fn json_result(m: &Measured, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failures.is_empty(),
        m.attempted.max(1),
        m.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}"
            );
            std::process::exit(2);
        }
    };
    let dir = PathBuf::from(OUT_DIR).join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(setup(&args.workload, args.seed, &dir));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("set up at least once");
    println!(
        "host: nproc={} simd={} spool_fs={}",
        host::nproc(),
        adaedge_codecs::simd::active().name(),
        host::fs_type(&dir)
    );

    // Warm-up: one untimed round, so caches fill and lazy init finishes
    // before timing. Its output checks count; the input property is judged
    // over the measured rounds only, one round being too few.
    let mut warm = Measured::default();
    w.round(&mut Tracer::off(), &mut warm);
    w.finish(&mut Measured::default());
    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut m = phase(w.as_mut(), untraced_secs, &mut Tracer::off());
    m.attempted += warm.attempted;
    m.failed += warm.failed;
    m.failures.extend(warm.failures);
    for note in &m.notes {
        println!("input: {note}");
    }

    let rate = summary_line("records_per_s", "rec/s", &m.rates, "rounds");
    let egress = summary_line("egress_ratio", "ratio", &m.egress, "rounds");
    let setup_med = summary_line("setup_s", "s", &setup_s, "set-ups");
    let rss = host::peak_rss_mib().unwrap_or(0.0);
    println!(
        "{:<16} {rss:>14.3} MiB    VmHWM of this process",
        "peak_rss_mb"
    );
    for line in &m.lines {
        println!("{line}");
    }
    println!(
        "{:<16} {:>14.6} ratio  {} failed of {} attempted",
        "failure_ratio",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut tr = Tracer::on(SPAN_CAP);
        let t = phase(w.as_mut(), args.seconds / 2.0, &mut tr);
        m.attempted += t.attempted;
        m.failed += t.failed;
        m.failures.extend(t.failures.iter().cloned());
        layer_metrics(&args, &m, &t, &tr, rate)
    } else {
        let values = [rate, egress, setup_med, rss];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    drop(w);
    std::fs::remove_dir_all(&dir).ok();

    for (name, value, _) in &metrics {
        if !value.is_finite() {
            m.failures.push(format!("metric {name} is not finite"));
        }
    }
    if m.failures.is_empty() {
        println!("checks: all passed");
    }
    for f in &m.failures {
        println!("CHECK FAILED: {f}");
    }
    let metrics: Vec<(&str, f64, &str)> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    println!("{}", json_result(&m, &metrics));
    if !m.failures.is_empty() {
        std::process::exit(1);
    }
}

/// Per-layer metrics of a traced phase `t`, in [`PER_LAYER`] order.
fn layer_metrics(
    args: &Args,
    m: &Measured,
    t: &Measured,
    tr: &Tracer,
    untraced_rate: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, xs) in &t.samples {
        values.insert(name, xs.iter().sum::<f64>() / xs.len() as f64);
    }
    values.extend(t.fixed.iter().map(|(k, v)| (*k, *v)));
    let mut timed: Vec<&str> = SPAN_TIMINGS.iter().map(|t| t.1).collect();
    timed.dedup();
    for span in timed {
        let xs = tr.durations_us(span);
        if let (Some(p50), Some((p, tail))) = (stats::median(&xs), stats::tail(&xs)) {
            println!(
                "span {span:<24} n {:>8}  p50 {p50:>10.3} us  p{} {tail:>10.3} us",
                xs.len(),
                p * 100.0
            );
        }
    }
    for (metric, span, q) in SPAN_TIMINGS {
        let xs = tr.durations_us(span);
        if xs.is_empty() {
            continue;
        }
        match stats::percentile(&xs, q) {
            Some(v) => {
                values.insert(metric, v);
            }
            None => println!(
                "note: {metric} needs {} samples beyond it, {} {span} spans recorded",
                stats::TAIL_SAMPLES,
                xs.len()
            ),
        }
    }
    if let Some(frac) = producer_wait_frac(tr) {
        values.insert("engine.producer_wait_frac", frac);
    }
    let traced_rate = stats::median(&t.rates).unwrap_or(f64::NAN);
    values.insert("trace.overhead_frac", 1.0 - traced_rate / untraced_rate);
    let table = tr.stage_table();
    values.insert(
        "trace.unattributed_frac",
        table.unattributed_ns as f64 / table.wall_ns.max(1) as f64,
    );
    table.print(&format!(
        "{} over {} traced rounds ({} spans)",
        args.workload,
        t.rates.len(),
        tr.spans().len()
    ));
    println!(
        "tracing overhead: untraced {untraced_rate:.1} rec/s, traced {traced_rate:.1} rec/s, overhead {:.2}%",
        (1.0 - traced_rate / untraced_rate) * 100.0
    );
    println!(
        "untraced rounds {}, traced rounds {}",
        m.rates.len(),
        t.rates.len()
    );
    for (name, unit) in PER_LAYER {
        println!(
            "{name:<36} {:>16.6} {unit}",
            values.get(name).copied().unwrap_or(0.0)
        );
    }
    let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    match tr.write_tsv(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Share of the producer's time between its first and last source pull,
/// per engine call, that is not spent filling: enqueueing plus blocking
/// on a full shard queue. Pooled over every traced engine call.
fn producer_wait_frac(tr: &Tracer) -> Option<f64> {
    let spans = tr.spans();
    let mut between = 0u64;
    let mut filling = 0u64;
    for (i, call) in spans.iter().enumerate() {
        if !call.name.ends_with(".run_pipeline") && !call.name.ends_with(".run_offline_pipeline") {
            continue;
        }
        let fills: Vec<_> = spans
            .iter()
            .skip(i + 1)
            .take_while(|s| s.start < call.end)
            .filter(|s| s.parent as usize == i && s.name == "datasets.fill")
            .collect();
        if let (Some(first), Some(last)) = (fills.first(), fills.last()) {
            between += last.end - first.start;
            filling += fills.iter().map(|s| s.dur()).sum::<u64>();
        }
    }
    (between > 0).then(|| (between - filling) as f64 / between as f64)
}

//! The repository's benchmark: four seeded closed-loop workloads that
//! drive the stack only through its public APIs, check every output
//! against an in-process oracle, and report end-to-end metrics (plain
//! run) or per-layer metrics (traced run). See `perfbench/README.md`
//! for the metric catalogue and the reasons behind each workload.

pub mod batch;
pub mod dict;
pub mod ingest;
pub mod measure;
pub mod oracle;
pub mod rng;
pub mod serve;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, `(name, unit)`: every plain run reports all of
/// them. Figures every run also prints but that are not listed here:
/// `failed_ops_frac` reads 0 on a healthy run, so it travels as the
/// result's `failed`/`attempted` pair; the tail latencies
/// `latency_p90_us` and `latency_p99_us` move between runs by more
/// than any bound a listed metric may have on a shared 2-core host.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_mchar_s", "Mchar/s"),
    ("latency_p50_us", "us"),
    ("cpu_ns_per_char", "ns"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, `(name, unit)`: every traced run reports all of
/// them. A layer the workload never reaches reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.server.residual_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.session.handle_us", "us"),
    ("serve.session.busy_frac", "ratio"),
    ("serve.session.reply_bytes_per_input_byte", "ratio"),
    ("chip.dictionary.compile_s", "s"),
    ("chip.dictionary.feed_us", "us"),
    ("chip.dictionary.groups", "count"),
    ("chip.dictionary.occupancy", "ratio"),
    ("chip.dictionary.resident", "count"),
    ("chip.dictionary.single_thread_ratio", "ratio"),
    ("chip.ingest.window_us", "us"),
    ("chip.shard.run_refs_us", "us"),
    ("chip.shard.route_us", "us"),
    ("chip.shard.scan_amplification", "ratio"),
    ("chip.shard.skew", "ratio"),
    ("chip.shard.affinity_moves", "count"),
    ("chip.throughput.plan_us", "us"),
    ("chip.throughput.run_us", "us"),
    ("chip.throughput.lane_occupancy", "ratio"),
    ("chip.throughput.steals", "count"),
    ("chip.throughput.worker_busy_frac", "ratio"),
    ("chip.throughput.cache_hit_ratio", "ratio"),
    ("chip.throughput.resilience_cost_frac", "ratio"),
    ("chip.throughput.no_policy_mchar_s", "Mchar/s"),
    ("chip.throughput.retried_batches", "count"),
    ("chip.throughput.fallback_jobs", "count"),
    ("chip.throughput.scrub_mismatches", "count"),
    ("chip.throughput.ladder_words", "count"),
    ("driver.build_us", "us"),
    ("driver.merge_us", "us"),
    ("matchers.aho_corasick.mchar_s", "Mchar/s"),
    ("matchers.aho_corasick.ac_ratio", "ratio"),
    ("matchers.aho_corasick.build_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["serve", "ingest", "dict_10k", "batch"];

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seeds every generated input.
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a plain one.
    pub trace: bool,
    /// Small inputs, for the benchmark's own tests.
    pub short: bool,
    /// Where the run keeps its temporary corpus and writes its trace.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// The measured time as a `Duration`.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// How many times set-up is repeated; `setup_s` is read over them.
    pub fn setup_reps(&self) -> usize {
        if self.short {
            2
        } else {
            21
        }
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations checked against the oracle.
    pub attempted: u64,
    /// Operations that errored, were refused, or differed from the
    /// oracle.
    pub failed: u64,
    /// Metric values by name; units come from the catalogue.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Provenance and human-readable detail, printed before the
    /// result line.
    pub info: Vec<String>,
}

impl Report {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds one line of detail.
    pub fn note(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }

    /// True when every attempted operation matched the oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The catalogue this run reports from.
    pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`. Per-layer metrics a
    /// workload does not reach are reported as 0; a missing
    /// end-to-end metric is a bug in the workload.
    pub fn result_line(&self, trace: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in Self::catalogue(trace).iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("workload did not measure end-to-end metric {name}"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// `ThroughputReport` totals folded over the engine runs of a traced
/// phase: the `chip.throughput` layer metrics both engine-driven
/// workloads report.
#[derive(Debug, Default)]
pub struct EngineTotals {
    runs: u64,
    plan_micros: u64,
    elapsed: Duration,
    lanes_used: u64,
    lanes_total: u64,
    steals: u64,
    hits: u64,
    misses: u64,
    busy: Duration,
    capacity: Duration,
}

impl EngineTotals {
    /// Folds in one engine run.
    pub fn add(&mut self, r: &pm_chip::throughput::ThroughputReport) {
        self.runs += 1;
        self.plan_micros += r.plan_micros;
        self.elapsed += r.totals.elapsed;
        self.lanes_used += r.totals.lane_slots_used;
        self.lanes_total += r.totals.lane_slots_total;
        self.steals += r.totals.steals;
        self.hits += r.totals.cache_hits;
        self.misses += r.totals.cache_misses;
        self.busy += r.workers.iter().map(|w| w.elapsed).sum::<Duration>();
        self.capacity += r.totals.elapsed * r.workers.len() as u32;
    }

    /// Sets the `chip.throughput` metrics. `run_us` is the mean of the
    /// reports' own `totals.elapsed` over every engine run, on every
    /// workload; planning time and steals are per operation, over the
    /// `ops` operations the runs served.
    pub fn report(&self, report: &mut Report, ops: u64) {
        let ops = ops.max(1) as f64;
        report.set(
            "chip.throughput.run_us",
            self.elapsed.as_secs_f64() * 1e6 / self.runs.max(1) as f64,
        );
        report.set("chip.throughput.plan_us", self.plan_micros as f64 / ops);
        report.set(
            "chip.throughput.lane_occupancy",
            self.lanes_used as f64 / self.lanes_total.max(1) as f64,
        );
        report.set("chip.throughput.steals", self.steals as f64 / ops);
        report.set(
            "chip.throughput.worker_busy_frac",
            self.busy.as_secs_f64() / self.capacity.as_secs_f64().max(1e-9),
        );
        report.set(
            "chip.throughput.cache_hit_ratio",
            self.hits as f64 / (self.hits + self.misses).max(1) as f64,
        );
    }
}

/// Runs one workload by name.
///
/// # Errors
///
/// An unknown workload name, or an I/O failure of the benchmark's own
/// files.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let mut report = match name {
        "serve" => serve::run(cfg),
        "ingest" => ingest::run(cfg),
        "dict_10k" => dict::run(cfg),
        "batch" => batch::run(cfg),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    }?;
    if !cfg.trace {
        report.set("peak_rss_mib", measure::peak_rss_mib());
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.note(format!(
        "failed_ops_frac {failed_frac:?} ratio ({} of {} operations)",
        report.failed, report.attempted
    ));
    Ok(report)
}

/// Finishes a traced run: reports `trace.overhead_frac` (traced minus
/// untraced throughput over untraced, same process, same workload),
/// writes the spans to `<out_dir>/trace-<workload>-seed<seed>.tsv` and
/// adds each layer's self time to the report's detail lines.
///
/// # Errors
///
/// Failure writing the trace file.
pub fn trace_summary(
    report: &mut Report,
    cfg: &RunConfig,
    workload: &str,
    trace: &trace::Trace,
    plain: &measure::Phase,
    traced: &measure::Phase,
) -> Result<(), String> {
    let overhead = (traced.mchar_s() - plain.mchar_s()) / plain.mchar_s();
    report.set("trace.overhead_frac", overhead);
    let path = cfg
        .out_dir
        .join(format!("trace-{workload}-seed{}.tsv", cfg.seed));
    trace
        .write(&path, &format!("workload={workload} seed={}", cfg.seed))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.note(format!(
        "untraced {:.3} Mchar/s, traced {:.3} Mchar/s; spans in {} ({} not stored)",
        plain.mchar_s(),
        traced.mchar_s(),
        path.display(),
        trace.dropped()
    ));
    for (name, (count, self_ns)) in trace.self_time_by_name() {
        report.note(format!(
            "self time {name}: {:.3} ms over {count} stored spans ({:.3} us each; \
             {} spans in all)",
            self_ns as f64 / 1e6,
            self_ns as f64 / count.max(1) as f64 / 1e3,
            trace.count(name)
        ));
    }
    Ok(())
}

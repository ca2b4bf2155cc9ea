//! `batch`: E32's shape — 4096 jobs × 4096 characters over a 2-bit
//! alphabet, 4 literal patterns of length 12 — run by a
//! `ThroughputEngine` with 2 workers and `ResiliencePolicy::default()`
//! installed, no fault plan.
//!
//! Why: the only workload on the resilient scheduler (scrub, exit
//! known-answer test, buffered commits) at full lane occupancy. An
//! operation is one `run` of the whole job set.

use crate::measure::{alternate, median, repeated_setup, Meter, Phase};
use crate::rng::{symbols, Rng};
use crate::trace::{Trace, Tracer};
use crate::{EngineTotals, Report, RunConfig};
use pm_chip::throughput::{Job, ResiliencePolicy, ThroughputEngine, ThroughputReport};
use pm_systolic::spec::match_spec;
use pm_systolic::symbol::Alphabet;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const PATTERNS: usize = 4;
const PATTERN_LEN: usize = 12;
/// Pattern-cache entries per worker: room for every pattern twice
/// over, as E32 sizes it.
const CACHE: usize = 2 * PATTERNS;

/// `(jobs, characters per job)`.
fn scale(short: bool) -> (usize, usize) {
    if short {
        (64, 512)
    } else {
        (4096, 4096)
    }
}

fn engine(policy: Option<ResiliencePolicy>) -> ThroughputEngine {
    let mut e = ThroughputEngine::new(WORKERS, CACHE);
    e.set_resilience(policy);
    e
}

/// One run of every job; outputs are checked against the spec
/// outside the timing. Returns the engine's report when the run
/// itself succeeded.
fn run_once(
    engine: &ThroughputEngine,
    jobs: &[Job],
    expected: &[Vec<bool>],
    meter: &mut Meter,
    tracer: Option<&mut Tracer>,
    op: u64,
) -> Option<ThroughputReport> {
    let chars: u64 = jobs.iter().map(|j| j.text.len() as u64).sum();
    let start = Instant::now();
    let result = engine.run(jobs);
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record("chip.throughput.run", op, None, start, end);
    }
    meter.op(end - start, chars);
    let report = result.ok();
    let ok = meter.check(|| {
        report.as_ref().is_some_and(|r| {
            r.outputs.len() == expected.len()
                && r.outputs
                    .iter()
                    .zip(expected)
                    .all(|(out, want)| out.hits.bits() == want.as_slice())
        })
    });
    if !ok {
        meter.fail(true);
    }
    report
}

/// Per-run observations the traced phase folds into layer metrics.
#[derive(Default)]
struct Folded {
    /// Runs started, numbering their spans.
    ops: u64,
    engine: EngineTotals,
    retried: u64,
    fallback: u64,
    scrub: u64,
    ladder_words: usize,
}

impl Folded {
    fn add(&mut self, r: &ThroughputReport) {
        self.engine.add(r);
        if let Some(res) = &r.resilience {
            self.retried += res.retried_batches;
            self.fallback += res.fallback_jobs;
            self.scrub += res.scrub_mismatches;
            self.ladder_words = res.ladder_words;
        }
    }
}

fn measure(
    engine: &ThroughputEngine,
    jobs: &[Job],
    expected: &[Vec<bool>],
    dur: Duration,
    mut tracer: Option<&mut Tracer>,
    folded: &mut Folded,
) -> Phase {
    let mut meter = Meter::windowed(dur);
    while meter.busy() < dur {
        folded.ops += 1;
        let op = folded.ops;
        if let Some(r) = run_once(
            engine,
            jobs,
            expected,
            &mut meter,
            tracer.as_deref_mut(),
            op,
        ) {
            folded.add(&r);
        }
    }
    meter.finish()
}

/// Runs the workload.
///
/// # Errors
///
/// Failures writing the trace.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let (n_jobs, len) = scale(cfg.short);
    let alphabet = Alphabet::TWO_BIT;
    let patterns: Vec<_> = (0..PATTERNS)
        .map(|i| Rng::new(cfg.seed, 0xba7c + i as u64).literal(alphabet, PATTERN_LEN))
        .collect();
    let mut text_rng = Rng::new(cfg.seed, 0x7e47);
    let jobs: Vec<Job> = (0..n_jobs)
        .map(|i| {
            let text = symbols(&text_rng.bytes(alphabet, len));
            Job::new(i as u64, patterns[i % PATTERNS].clone(), text)
        })
        .collect();
    let expected: Vec<Vec<bool>> = jobs
        .iter()
        .map(|j| match_spec(&j.text, &j.pattern))
        .collect();

    let mut report = Report::default();
    report.note(format!(
        "shape: {n_jobs} jobs x {len} chars, {PATTERNS} literal patterns of {PATTERN_LEN}, \
         {WORKERS} worker threads, width {}, ResiliencePolicy::default(), 0 connections",
        pm_chip::throughput::SuperWidth::default()
    ));
    let resilient = Some(ResiliencePolicy::default());
    let (setup_s, resilient_engine, warm) = repeated_setup(cfg.setup_reps(), |meter| {
        let e = engine(resilient);
        run_once(&e, &jobs, &expected, meter, None, 0);
        Ok(e)
    })?;
    report.attempted += warm.attempted;
    report.failed += warm.failed;

    if !cfg.trace {
        report.set("setup_s", setup_s);
        let phase = measure(
            &resilient_engine,
            &jobs,
            &expected,
            cfg.duration(),
            None,
            &mut Folded::default(),
        );
        phase.report_end_to_end(&mut report);
        report.attempted += phase.attempted;
        report.failed += phase.failed;
        return Ok(report);
    }

    let third = cfg.duration() / 3;
    let mut tracer = Tracer::new(Instant::now());
    let mut folded = Folded::default();
    let (plain, traced) = alternate(third, |on, dur| {
        let e = &resilient_engine;
        Ok(if on {
            measure(e, &jobs, &expected, dur, Some(&mut tracer), &mut folded)
        } else {
            measure(e, &jobs, &expected, dur, None, &mut Folded::default())
        })
    })?;
    let trace = Trace::merge(vec![tracer]);

    // Baseline: the same jobs on an engine with no policy, in
    // alternating pairs with the resilient engine.
    let bare = engine(None);
    let mut ratios = Vec::new();
    let mut bare_rates = Vec::new();
    let mut pairs = Phase::default();
    let started = Instant::now();
    while started.elapsed() < third || ratios.is_empty() {
        let mut rates = [0.0; 2];
        for (rate, e) in rates.iter_mut().zip([&bare, &resilient_engine]) {
            let mut meter = Meter::start();
            run_once(e, &jobs, &expected, &mut meter, None, 0);
            let p = meter.finish();
            *rate = p.mchar_s();
            pairs.attempted += p.attempted;
            pairs.failed += p.failed;
        }
        ratios.push(rates[1] / rates[0]);
        bare_rates.push(rates[0]);
    }
    for p in [&plain, &traced, &pairs] {
        report.attempted += p.attempted;
        report.failed += p.failed;
    }

    let runs = traced.attempted;
    folded.engine.report(&mut report, runs);
    report.set(
        "chip.throughput.resilience_cost_frac",
        1.0 - median(&ratios),
    );
    report.set("chip.throughput.no_policy_mchar_s", median(&bare_rates));
    report.set(
        "chip.throughput.retried_batches",
        folded.retried as f64 / runs.max(1) as f64,
    );
    report.set(
        "chip.throughput.fallback_jobs",
        folded.fallback as f64 / runs.max(1) as f64,
    );
    report.set(
        "chip.throughput.scrub_mismatches",
        folded.scrub as f64 / runs.max(1) as f64,
    );
    report.set("chip.throughput.ladder_words", folded.ladder_words as f64);
    report.note(format!(
        "resilient/no-policy pairs: {} (median ratio {:.4})",
        ratios.len(),
        median(&ratios)
    ));
    crate::trace_summary(&mut report, cfg, "batch", &trace, &plain, &traced)?;
    Ok(report)
}

//! `dict_10k`: one `DictionaryMatcher` over 10,000 literal byte
//! patterns, fed a seeded byte text in 4 KiB chunks on one thread.
//!
//! Why: the chip farm at its worst point against Aho–Corasick. The
//! dictionary kernel is the only layer on the path (no router, no
//! sockets), so a change to it moves this workload by nearly its full
//! gain.

use crate::measure::{alternate, repeated_setup, Meter, Phase};
use crate::oracle::PeriodicOracle;
use crate::rng::{plant, symbols, Rng};
use crate::trace::{Trace, Tracer};
use crate::{Report, RunConfig};
use pm_chip::dictionary::{DictionaryMatcher, PatternDictionary};
use pm_chip::throughput::SuperWidth;
use pm_matchers::aho_corasick::AhoCorasick;
use pm_systolic::symbol::{Alphabet, Pattern, Symbol};
use std::time::{Duration, Instant};

/// Bytes per `feed` call.
const CHUNK: usize = 4096;

/// Input sizes: `(patterns, text bytes, warm-up chunks)`.
fn scale(short: bool) -> (usize, usize, usize) {
    if short {
        (500, 16 * CHUNK, 2)
    } else {
        (10_000, 256 * CHUNK, 16)
    }
}

/// E33's dictionary shape: literal byte patterns of lengths 8–15,
/// every 20th a duplicate of an earlier one.
fn dictionary(seed: u64, size: usize) -> Vec<Pattern> {
    let fresh: Vec<Pattern> = (0..size)
        .map(|i| Rng::new(seed, 0xd1c7 + i as u64).literal(Alphabet::EIGHT_BIT, 8 + i % 8))
        .collect();
    (0..size)
        .map(|i| fresh[if i % 20 == 19 { i / 2 } else { i }].clone())
        .collect()
}

/// Random bytes with a dictionary pattern planted every ~2 KiB and
/// one straddling the point where the text repeats.
fn text(seed: u64, len: usize, patterns: &[Pattern]) -> Vec<Symbol> {
    let mut rng = Rng::new(seed, 0x7e47);
    let mut bytes = rng.bytes(Alphabet::EIGHT_BIT, len);
    for slot in 0..len / 2048 {
        let p = &patterns[rng.below(patterns.len())];
        plant(&mut bytes, p, slot * 2048 + rng.below(2048 - 16), 0);
    }
    plant(&mut bytes, &patterns[0], len - 5, 0);
    symbols(&bytes)
}

struct Rig {
    dict: PatternDictionary,
    matcher: DictionaryMatcher,
    compile_s: f64,
}

/// Feeds the next chunk and checks its events against the oracle.
fn feed(
    rig: &mut Rig,
    text: &[Symbol],
    oracle: &PeriodicOracle,
    meter: &mut Meter,
    tracer: Option<&mut Tracer>,
) {
    let pos = rig.matcher.consumed();
    let at = pos % text.len();
    let chunk = &text[at..at + CHUNK];
    let start = Instant::now();
    let events = rig.matcher.feed(chunk);
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record(
            "chip.dictionary.feed",
            (pos / CHUNK) as u64,
            None,
            start,
            end,
        );
    }
    meter.op(end - start, CHUNK as u64);
    if !meter.check(|| events == oracle.expected(pos, pos + CHUNK)) {
        meter.fail(true);
    }
}

fn measure(
    rig: &mut Rig,
    text: &[Symbol],
    oracle: &PeriodicOracle,
    dur: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut meter = Meter::windowed(dur);
    while meter.busy() < dur {
        feed(rig, text, oracle, &mut meter, tracer.as_deref_mut());
    }
    meter.finish()
}

/// Runs the workload.
///
/// # Errors
///
/// Failures writing the trace.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let (size, len, warm) = scale(cfg.short);
    let patterns = dictionary(cfg.seed, size);
    let text = text(cfg.seed, len, &patterns);
    let ac = AhoCorasick::new(&patterns).expect("literal patterns");
    let oracle = PeriodicOracle::new(&text, |t| ac.find_all(t));

    let mut report = Report::default();
    report.note(format!(
        "shape: {size} patterns, {len}-byte text fed in {CHUNK}-byte chunks, \
         width {}, 1 thread, 0 connections",
        SuperWidth::default()
    ));
    let (setup_s, mut rig, warm_phase) = repeated_setup(cfg.setup_reps(), |meter| {
        let t = Instant::now();
        let dict = PatternDictionary::new(&patterns, SuperWidth::default());
        let compile_s = t.elapsed().as_secs_f64();
        let matcher = dict.matcher();
        let mut rig = Rig {
            dict,
            matcher,
            compile_s,
        };
        for _ in 0..warm {
            feed(&mut rig, &text, &oracle, meter, None);
        }
        Ok(rig)
    })?;
    report.attempted += warm_phase.attempted;
    report.failed += warm_phase.failed;

    if !cfg.trace {
        report.set("setup_s", setup_s);
        let phase = measure(&mut rig, &text, &oracle, cfg.duration(), None);
        phase.report_end_to_end(&mut report);
        report.attempted += phase.attempted;
        report.failed += phase.failed;
        return Ok(report);
    }

    let mut tracer = Tracer::new(Instant::now());
    let (plain, traced) = alternate(cfg.duration() / 2, |on, dur| {
        let tracer = on.then_some(&mut tracer);
        Ok(measure(&mut rig, &text, &oracle, dur, tracer))
    })?;
    let trace = Trace::merge(vec![tracer]);
    for p in [&plain, &traced] {
        report.attempted += p.attempted;
        report.failed += p.failed;
    }

    let stats = *rig.dict.stats();
    report.set("chip.dictionary.compile_s", rig.compile_s);
    report.set(
        "chip.dictionary.feed_us",
        trace.p50_us("chip.dictionary.feed"),
    );
    report.set("chip.dictionary.groups", stats.groups as f64);
    report.set("chip.dictionary.occupancy", stats.occupancy());
    report.set("chip.dictionary.resident", stats.resident as f64);

    let ac_base = crate::oracle::ac_baseline(&patterns, &text);
    report.set("matchers.aho_corasick.build_s", ac_base.build_s);
    report.set("matchers.aho_corasick.mchar_s", ac_base.mchar_s);
    report.set(
        "matchers.aho_corasick.ac_ratio",
        plain.mchar_s() / ac_base.mchar_s,
    );
    crate::trace_summary(&mut report, cfg, "dict_10k", &trace, &plain, &traced)?;
    Ok(report)
}

//! `ingest`: E36's shape resized to a small host — a seeded 2-bit
//! corpus in a file, paged at 128 KiB through `PagedCorpus` and
//! `OverlapChunker`, each window cut into 64 sub-lanes × 16 literal
//! patterns (lengths 4–12) as `JobRef`s, routed by
//! `Router::run_refs` over 2 shards of 1 worker, and the merged
//! events checked against Aho–Corasick on the whole corpus.
//!
//! Why: the only workload on the ingest → router → throughput-planner
//! → superplane path. It rescans the corpus once per pattern, so a
//! single-scan design shows here first. An operation is one window.

use crate::measure::{alternate, repeated_setup, Meter, Phase};
use crate::oracle::{ac_baseline, rate_of};
use crate::rng::Rng;
use crate::trace::{Trace, Tracer};
use crate::{EngineTotals, Report, RunConfig};
use pm_chip::dictionary::PatternDictionary;
use pm_chip::ingest::{OverlapChunker, PagedCorpus};
use pm_chip::shard::{Router, RouterConfig, RouterReport};
use pm_chip::throughput::{JobRef, SuperWidth};
use pm_matchers::aho_corasick::{AhoCorasick, DictMatch};
use pm_systolic::symbol::{Alphabet, Pattern, Symbol};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const PATTERNS: usize = 16;
const SUBLANES: usize = 64;
const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 1;

/// `(corpus bytes, page bytes)`.
fn scale(short: bool) -> (usize, usize) {
    if short {
        (40_000, 16 << 10)
    } else {
        (512 << 10, 128 << 10)
    }
}

/// Cuts `slice` into up to `lanes` sub-slices overlapping by
/// `overlap` symbols, as `(sub, min_end, offset)`: scan `sub`, keep
/// match ends ≥ `min_end`, report at `offset + position`.
fn lane_cuts(slice: &[Symbol], lanes: usize, overlap: usize) -> Vec<(&[Symbol], usize, usize)> {
    let len = slice.len();
    let step = len.div_ceil(lanes.max(1)).max(overlap + 1);
    let mut cuts = Vec::new();
    let mut at = 0;
    while at < len {
        let start = at.saturating_sub(overlap);
        let end = (at + step).min(len);
        cuts.push((&slice[start..end], at - start, start));
        at = end;
    }
    cuts
}

struct Inputs {
    path: PathBuf,
    page_bytes: usize,
    corpus: Vec<Symbol>,
    patterns: Vec<Pattern>,
    kmax: usize,
    /// AC events on the whole corpus, in `(end, pattern)` order.
    oracle: Vec<DictMatch>,
}

/// Report fields the traced phase folds into layer metrics.
#[derive(Default)]
struct Folded {
    /// Windows started, numbering the spans of each.
    ops: u64,
    windows: u64,
    corpus_chars: u64,
    scanned_chars: u64,
    route_micros: u64,
    skew: f64,
    moves: u64,
    /// Every shard engine's run, one per shard per window.
    engine: EngineTotals,
}

impl Folded {
    fn add(&mut self, window_chars: usize, r: &RouterReport) {
        self.windows += 1;
        self.corpus_chars += window_chars as u64;
        self.scanned_chars += r.total_chars();
        self.route_micros += r.route_micros;
        self.moves += r.affinity_moves;
        let chars: Vec<f64> = r
            .shard_reports
            .iter()
            .map(|s| s.totals.chars as f64)
            .collect();
        let mean = chars.iter().sum::<f64>() / chars.len().max(1) as f64;
        let max = chars.iter().copied().fold(0.0, f64::max);
        self.skew += if mean > 0.0 { max / mean } else { 1.0 };
        for s in &r.shard_reports {
            self.engine.add(s);
        }
    }
}

/// One pass over the corpus file, one operation per window.
fn pass(
    router: &Router,
    inputs: &Inputs,
    meter: &mut Meter,
    mut tracer: Option<&mut Tracer>,
    folded: &mut Folded,
) -> Result<(), String> {
    let source = PagedCorpus::open(&inputs.path, inputs.page_bytes)
        .map_err(|e| format!("cannot open corpus {}: {e}", inputs.path.display()))?;
    let mut chunker = OverlapChunker::new(source, inputs.kmax);
    let overlap = inputs.kmax - 1;
    loop {
        folded.ops += 1;
        let op = folded.ops;
        let t0 = Instant::now();
        let view = chunker
            .next_window()
            .map_err(|e| format!("corpus read failed: {e}"))?;
        let Some(view) = view else {
            return Ok(());
        };
        let t1 = Instant::now();
        let mut refs: Vec<JobRef<'_>> = Vec::new();
        let mut meta: Vec<(usize, usize, usize)> = Vec::new();
        for (slice, min_end, base) in view.regions() {
            for (sub, sub_min, off) in lane_cuts(slice, SUBLANES, overlap) {
                // Keep ends the window has not reported (min_end) and
                // the previous cut has not reported (sub_min).
                let keep_from = sub_min.max(min_end.saturating_sub(off));
                for (id, pattern) in inputs.patterns.iter().enumerate() {
                    refs.push(JobRef {
                        id: refs.len() as u64,
                        pattern,
                        text: sub,
                    });
                    meta.push((id, keep_from, base + off));
                }
            }
        }
        let t2 = Instant::now();
        let routed = router.run_refs(&refs);
        let t3 = Instant::now();
        let mut events: Vec<DictMatch> = Vec::new();
        if let Ok(report) = &routed {
            for (job, &(pattern, min_end, base)) in report.outputs.iter().zip(&meta) {
                for end in job.hits.ending_positions() {
                    if end >= min_end {
                        events.push(DictMatch {
                            pattern,
                            end: base + end,
                        });
                    }
                }
            }
            events.sort_unstable();
        }
        let t4 = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            let root = Some(t.record("op.window", op, None, t0, t4));
            t.record("chip.ingest.window", op, root, t0, t1);
            t.record("driver.build", op, root, t1, t2);
            t.record("chip.shard.run_refs", op, root, t2, t3);
            t.record("driver.merge", op, root, t3, t4);
        }
        let (lo, len) = (view.chunk_base, view.chunk.len());
        meter.op(t4 - t0, len as u64);
        let ok = meter.check(|| {
            let from = inputs.oracle.partition_point(|e| e.end < lo);
            let to = inputs.oracle.partition_point(|e| e.end < lo + len);
            routed.is_ok() && events == inputs.oracle[from..to]
        });
        if !ok {
            meter.fail(true);
        }
        if let Ok(report) = &routed {
            folded.add(len, report);
        }
    }
}

fn measure(
    router: &Router,
    inputs: &Inputs,
    dur: Duration,
    mut tracer: Option<&mut Tracer>,
    folded: &mut Folded,
) -> Result<Phase, String> {
    let mut meter = Meter::windowed(dur);
    while meter.busy() < dur {
        pass(router, inputs, &mut meter, tracer.as_deref_mut(), folded)?;
    }
    Ok(meter.finish())
}

fn router() -> Router {
    Router::new(RouterConfig {
        shards: SHARDS,
        workers_per_shard: WORKERS_PER_SHARD,
        ..RouterConfig::default()
    })
}

/// Deletes the corpus file when the run ends, however it ends.
struct Cleanup<'a>(&'a Path);

impl Drop for Cleanup<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.0);
    }
}

/// Runs the workload.
///
/// # Errors
///
/// I/O failures of the corpus file.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let alphabet = Alphabet::TWO_BIT;
    let (corpus_len, page_bytes) = scale(cfg.short);
    let bytes = Rng::new(cfg.seed, 0x1e57).bytes(alphabet, corpus_len);
    let corpus = crate::rng::symbols(&bytes);
    let patterns: Vec<Pattern> = (0..PATTERNS)
        .map(|i| Rng::new(cfg.seed, 0x9a7 + i as u64).literal(alphabet, 4 + i % 9))
        .collect();
    let kmax = patterns.iter().map(Pattern::len).max().unwrap_or(1);
    let path = cfg
        .out_dir
        .join(format!("ingest-corpus-{}.bin", std::process::id()));
    std::fs::write(&path, &bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let _cleanup = Cleanup(&path);
    let oracle = AhoCorasick::new(&patterns)
        .expect("literal patterns")
        .find_all(&corpus);
    let inputs = Inputs {
        path: path.clone(),
        page_bytes,
        corpus,
        patterns,
        kmax,
        oracle,
    };

    let mut report = Report::default();
    report.note(format!(
        "shape: {} corpus bytes in {page_bytes}-byte pages, {PATTERNS} patterns x \
         {SUBLANES} sub-lanes per window, {SHARDS} shards x {WORKERS_PER_SHARD} worker \
         threads, width {}, 0 connections",
        inputs.corpus.len(),
        SuperWidth::default()
    ));
    let (setup_s, router, warm) = repeated_setup(cfg.setup_reps(), |meter| {
        let r = router();
        pass(&r, &inputs, meter, None, &mut Folded::default())?;
        Ok(r)
    })?;
    report.attempted += warm.attempted;
    report.failed += warm.failed;

    if !cfg.trace {
        report.set("setup_s", setup_s);
        let phase = measure(
            &router,
            &inputs,
            cfg.duration(),
            None,
            &mut Folded::default(),
        )?;
        phase.report_end_to_end(&mut report);
        report.attempted += phase.attempted;
        report.failed += phase.failed;
        return Ok(report);
    }

    let mut tracer = Tracer::new(Instant::now());
    let mut f = Folded::default();
    let (plain, traced) = alternate(cfg.duration() / 2, |on, dur| {
        if on {
            measure(&router, &inputs, dur, Some(&mut tracer), &mut f)
        } else {
            measure(&router, &inputs, dur, None, &mut Folded::default())
        }
    })?;
    let trace = Trace::merge(vec![tracer]);
    for p in [&plain, &traced] {
        report.attempted += p.attempted;
        report.failed += p.failed;
    }

    let windows = f.windows.max(1) as f64;
    report.set("chip.ingest.window_us", trace.p50_us("chip.ingest.window"));
    report.set("driver.build_us", trace.p50_us("driver.build"));
    report.set(
        "chip.shard.run_refs_us",
        trace.p50_us("chip.shard.run_refs"),
    );
    report.set("driver.merge_us", trace.p50_us("driver.merge"));
    report.set("chip.shard.route_us", f.route_micros as f64 / windows);
    report.set(
        "chip.shard.scan_amplification",
        f.scanned_chars as f64 / f.corpus_chars.max(1) as f64,
    );
    report.set("chip.shard.skew", f.skew / windows);
    report.set("chip.shard.affinity_moves", f.moves as f64 / windows);
    f.engine.report(&mut report, f.windows);

    // In-process baselines on the same corpus.
    let corpus_rate = plain.mchar_s();
    let ac = ac_baseline(&inputs.patterns, &inputs.corpus);
    report.set("matchers.aho_corasick.build_s", ac.build_s);
    report.set("matchers.aho_corasick.mchar_s", ac.mchar_s);
    report.set("matchers.aho_corasick.ac_ratio", corpus_rate / ac.mchar_s);
    let single = PatternDictionary::new(&inputs.patterns, SuperWidth::default()).matcher();
    let single_rates: Vec<f64> = (0..3)
        .map(|_| rate_of(inputs.corpus.len(), || single.find_all(&inputs.corpus)))
        .collect();
    let single_rate = crate::measure::median(&single_rates);
    report.set(
        "chip.dictionary.single_thread_ratio",
        corpus_rate / single_rate,
    );
    report.note(format!(
        "baselines on the same corpus: Aho-Corasick {:.2} Mchar/s, one-thread \
         DictionaryMatcher {single_rate:.2} Mchar/s, routed path {corpus_rate:.2} Mchar/s",
        ac.mchar_s
    ));
    crate::trace_summary(&mut report, cfg, "ingest", &trace, &plain, &traced)?;
    Ok(report)
}

//! Metrics built on the workspace trace-event taxonomy: counters,
//! fixed-bucket histograms and the two exporters CI consumes.
//!
//! `pm_systolic::telemetry` defines *what can be observed* (the
//! [`TraceEvent`] taxonomy and the [`TraceSink`] contract); this module
//! defines *what is kept*: [`MetricsRegistry`] is a sink that folds the
//! event stream into monotonic [`Counter`]s and fixed-bucket
//! [`Histogram`]s — the same shared-atomic discipline as
//! [`crate::counters`] — and snapshots into a [`TelemetrySnapshot`]
//! with two exporters:
//!
//! * [`TelemetrySnapshot::to_prometheus`] — Prometheus text exposition
//!   (`pm_*_total` counters, `_bucket{le=…}/_sum/_count` histograms),
//!   for scraping a long-running scheduler;
//! * [`TelemetrySnapshot::to_json`] — the `BENCH_telemetry.json`
//!   snapshot the E30 figure writes and the CI `bench-smoke` gate
//!   reads (hand-rolled: the workspace is offline and carries no serde).
//!
//! ```
//! use pm_chip::telemetry::MetricsRegistry;
//! use pm_systolic::telemetry::{TraceEvent, TraceSink};
//!
//! let metrics = MetricsRegistry::new();
//! metrics.record(TraceEvent::JobCompleted { job: 0, worker: 0, chars: 4096, matches: 3 });
//! let snap = metrics.snapshot();
//! assert_eq!(snap.jobs_completed, 1);
//! assert!(snap.to_prometheus().contains("pm_chars_total 4096"));
//! ```

use crate::counters::Counter;
use pm_systolic::telemetry::{TraceEvent, TraceSink};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default occupancy buckets: lane slots carried per batch (≤ 64 for
/// the `u64` engine, up to 512 for a width-8 superplane batch).
pub const OCCUPANCY_BOUNDS: &[u64] = &[1, 8, 16, 32, 64, 128, 256, 512];

/// Default batch-latency buckets, in microseconds.
pub const LATENCY_BOUNDS_MICROS: &[u64] = &[10, 50, 100, 500, 1_000, 5_000, 10_000];

/// A fixed-bucket histogram of `u64` observations, shared between
/// threads with the same relaxed-atomic discipline as
/// [`Counter`]: statistics, not synchronisation.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending; one implicit +Inf bucket
    /// follows the last.
    bounds: Vec<u64>,
    /// One count per bound, plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending inclusive upper bounds.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time reading of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds (the final +Inf bucket is implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Appends this histogram in Prometheus exposition format
    /// (cumulative `_bucket{le=…}` rows, then `_sum` and `_count`).
    fn to_prometheus(&self, name: &str, help: &str, out: &mut String) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (bound, n) in self.bounds.iter().zip(&self.counts) {
            cum += n;
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
        }
        cum += self.counts.last().copied().unwrap_or(0);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
        let _ = writeln!(out, "{name}_sum {}", self.sum);
        let _ = writeln!(out, "{name}_count {}", self.count);
    }

    /// Appends this histogram as a JSON object.
    fn to_json(&self, out: &mut String) {
        out.push_str("{\"bounds\": [");
        for (i, b) in self.bounds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("], \"counts\": [");
        for (i, n) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{n}");
        }
        let _ = write!(out, "], \"sum\": {}, \"count\": {}}}", self.sum, self.count);
    }
}

/// A [`TraceSink`] that folds the event stream into counters and
/// histograms. Share one behind an `Arc` (wrapped in a
/// [`SinkHandle`](pm_systolic::telemetry::SinkHandle)) across workers;
/// recording is a handful of relaxed atomic adds per event.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Clock phases observed (2 per array beat).
    pub clock_phases: Counter,
    /// Text items injected into a beat-accurate array.
    pub texts_injected: Counter,
    /// Complete-window results that exited an array.
    pub comparator_fires: Counter,
    /// Matching lanes summed over comparator fires (= total matches on
    /// the beat-accurate path).
    pub match_lanes: Counter,
    /// Host watchdog stall declarations.
    pub host_stalls: Counter,
    /// Host retries after backoff.
    pub host_retries: Counter,
    /// Idle backoff beats summed over retries.
    pub backoff_beats: Counter,
    /// BIST scrubs that passed.
    pub scrubs_passed: Counter,
    /// BIST scrubs that failed.
    pub scrubs_failed: Counter,
    /// Array beats spent inside BIST programs.
    pub scrub_beats: Counter,
    /// Sockets condemned.
    pub condemned: Counter,
    /// Chain remaps performed.
    pub remaps: Counter,
    /// Characters replayed through healed chains.
    pub replayed_chars: Counter,
    /// Result-watermark commits.
    pub commits: Counter,
    /// Software-fallback engagements.
    pub fallbacks: Counter,
    /// Jobs handed to workers.
    pub jobs_started: Counter,
    /// Jobs whose results were recorded.
    pub jobs_completed: Counter,
    /// Text characters processed by completed jobs.
    pub chars: Counter,
    /// Matches found by completed jobs.
    pub matches: Counter,
    /// Word batches executed.
    pub batches: Counter,
    /// Engine steps summed over batches.
    pub batch_steps: Counter,
    /// Lane slots that carried a stream, summed over batches.
    pub lane_slots_used: Counter,
    /// Lane slots offered, summed over batches (64 per `u64` batch,
    /// `W × 64` per width-`W` superplane batch).
    pub lane_slots_total: Counter,
    /// Compiled-pattern cache hits.
    pub cache_hits: Counter,
    /// Compiled-pattern cache misses.
    pub cache_misses: Counter,
    /// Runs dispatched to the portable kernel.
    pub dispatch_portable: Counter,
    /// Runs dispatched to the AVX2 kernel.
    pub dispatch_avx2: Counter,
    /// Runs dispatched to the AVX-512 kernel.
    pub dispatch_avx512: Counter,
    /// Chaos-harness faults injected into scheduler workers.
    pub faults_injected: Counter,
    /// Sampled-lane scrubs whose lane disagreed with the scalar spec.
    pub scrub_mismatches: Counter,
    /// Scheduler workers quarantined (outputs voided, batches requeued).
    pub quarantined_workers: Counter,
    /// Degradation-ladder demotions (moves to a narrower rung).
    pub ladder_demotions: Counter,
    /// Degradation-ladder re-promotions after clean batches.
    pub ladder_promotions: Counter,
    /// Voided batches re-executed on a recovery rung.
    pub batches_retried: Counter,
    /// Patterns submitted to the dictionary compiler.
    pub dict_patterns: Counter,
    /// Patterns left resident after dictionary dedup (resident ÷
    /// submitted = dedup ratio).
    pub dict_resident_lanes: Counter,
    /// Superplane groups planned by the dictionary compiler.
    pub dict_groups: Counter,
    /// Lane slots across planned dictionary groups (resident ÷ slots =
    /// occupancy).
    pub dict_lane_slots: Counter,
    /// Front-door sessions admitted (`pm-serve`).
    pub sessions_opened: Counter,
    /// Front-door sessions closed normally.
    pub sessions_closed: Counter,
    /// Text characters streamed by closed sessions.
    pub session_chars: Counter,
    /// Admission-control rejections (session cap or byte budgets).
    pub sessions_rejected: Counter,
    /// Protocol frames received on front-door connections.
    pub frames: Counter,
    /// Payload bytes carried by received frames.
    pub frame_bytes: Counter,
    /// Match events delivered to front-door clients.
    pub events_delivered: Counter,
    /// Backpressure signals (SERVER_BUSY with a retry-after hint).
    pub backpressure_signals: Counter,
    /// Batches a worker stole from a sibling's deque.
    pub batch_steals: Counter,
    /// Routed batch runs completed by the shard router.
    pub router_runs: Counter,
    /// Jobs admitted through the shard router.
    pub router_jobs: Counter,
    /// Pattern groups the router planned.
    pub router_groups: Counter,
    /// Groups routed away from their affinity shard to balance load.
    pub router_affinity_moves: Counter,
    /// Microseconds the router spent grouping and assigning.
    pub router_micros: Counter,
    /// Jobs admitted to shards, summed over routing rounds.
    pub shard_jobs: Counter,
    /// High-water mark of jobs admitted to any one shard in a routing
    /// round — a gauge, not a counter.
    pub shard_queue_depth: AtomicU64,
    /// Superplane width (words) of the most recent dispatch — a gauge,
    /// not a counter.
    pub superplane_words: AtomicU64,
    /// Current degradation-ladder rung as a superplane width in words
    /// (0 = software fallback) — a gauge, not a counter.
    pub ladder_words: AtomicU64,
    /// Lanes-per-batch distribution.
    pub batch_occupancy: Histogram,
    /// Batch wall-clock distribution, microseconds (only batches the
    /// caller timed; untimed batches observe nothing).
    pub batch_micros: Histogram,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A fresh registry with the default bucket bounds.
    pub fn new() -> Self {
        MetricsRegistry {
            clock_phases: Counter::new(),
            texts_injected: Counter::new(),
            comparator_fires: Counter::new(),
            match_lanes: Counter::new(),
            host_stalls: Counter::new(),
            host_retries: Counter::new(),
            backoff_beats: Counter::new(),
            scrubs_passed: Counter::new(),
            scrubs_failed: Counter::new(),
            scrub_beats: Counter::new(),
            condemned: Counter::new(),
            remaps: Counter::new(),
            replayed_chars: Counter::new(),
            commits: Counter::new(),
            fallbacks: Counter::new(),
            jobs_started: Counter::new(),
            jobs_completed: Counter::new(),
            chars: Counter::new(),
            matches: Counter::new(),
            batches: Counter::new(),
            batch_steps: Counter::new(),
            lane_slots_used: Counter::new(),
            lane_slots_total: Counter::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            dispatch_portable: Counter::new(),
            dispatch_avx2: Counter::new(),
            dispatch_avx512: Counter::new(),
            faults_injected: Counter::new(),
            scrub_mismatches: Counter::new(),
            quarantined_workers: Counter::new(),
            ladder_demotions: Counter::new(),
            ladder_promotions: Counter::new(),
            batches_retried: Counter::new(),
            dict_patterns: Counter::new(),
            dict_resident_lanes: Counter::new(),
            dict_groups: Counter::new(),
            dict_lane_slots: Counter::new(),
            sessions_opened: Counter::new(),
            sessions_closed: Counter::new(),
            session_chars: Counter::new(),
            sessions_rejected: Counter::new(),
            frames: Counter::new(),
            frame_bytes: Counter::new(),
            events_delivered: Counter::new(),
            backpressure_signals: Counter::new(),
            batch_steals: Counter::new(),
            router_runs: Counter::new(),
            router_jobs: Counter::new(),
            router_groups: Counter::new(),
            router_affinity_moves: Counter::new(),
            router_micros: Counter::new(),
            shard_jobs: Counter::new(),
            shard_queue_depth: AtomicU64::new(0),
            superplane_words: AtomicU64::new(0),
            ladder_words: AtomicU64::new(0),
            batch_occupancy: Histogram::new(OCCUPANCY_BOUNDS),
            batch_micros: Histogram::new(LATENCY_BOUNDS_MICROS),
        }
    }

    /// Folds the current counts into an exportable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            clock_phases: self.clock_phases.get(),
            beats: self.clock_phases.get() / 2,
            texts_injected: self.texts_injected.get(),
            comparator_fires: self.comparator_fires.get(),
            match_lanes: self.match_lanes.get(),
            host_stalls: self.host_stalls.get(),
            host_retries: self.host_retries.get(),
            backoff_beats: self.backoff_beats.get(),
            scrubs_passed: self.scrubs_passed.get(),
            scrubs_failed: self.scrubs_failed.get(),
            scrub_beats: self.scrub_beats.get(),
            condemned: self.condemned.get(),
            remaps: self.remaps.get(),
            replayed_chars: self.replayed_chars.get(),
            commits: self.commits.get(),
            fallbacks: self.fallbacks.get(),
            jobs_started: self.jobs_started.get(),
            jobs_completed: self.jobs_completed.get(),
            chars: self.chars.get(),
            matches: self.matches.get(),
            batches: self.batches.get(),
            batch_steps: self.batch_steps.get(),
            lane_slots_used: self.lane_slots_used.get(),
            lane_slots_total: self.lane_slots_total.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            dispatch_portable: self.dispatch_portable.get(),
            dispatch_avx2: self.dispatch_avx2.get(),
            dispatch_avx512: self.dispatch_avx512.get(),
            faults_injected: self.faults_injected.get(),
            scrub_mismatches: self.scrub_mismatches.get(),
            quarantined_workers: self.quarantined_workers.get(),
            ladder_demotions: self.ladder_demotions.get(),
            ladder_promotions: self.ladder_promotions.get(),
            batches_retried: self.batches_retried.get(),
            dict_patterns: self.dict_patterns.get(),
            dict_resident_lanes: self.dict_resident_lanes.get(),
            dict_groups: self.dict_groups.get(),
            dict_lane_slots: self.dict_lane_slots.get(),
            sessions_opened: self.sessions_opened.get(),
            sessions_closed: self.sessions_closed.get(),
            session_chars: self.session_chars.get(),
            sessions_rejected: self.sessions_rejected.get(),
            frames: self.frames.get(),
            frame_bytes: self.frame_bytes.get(),
            events_delivered: self.events_delivered.get(),
            backpressure_signals: self.backpressure_signals.get(),
            batch_steals: self.batch_steals.get(),
            router_runs: self.router_runs.get(),
            router_jobs: self.router_jobs.get(),
            router_groups: self.router_groups.get(),
            router_affinity_moves: self.router_affinity_moves.get(),
            router_micros: self.router_micros.get(),
            shard_jobs: self.shard_jobs.get(),
            shard_queue_depth: self.shard_queue_depth.load(Ordering::Relaxed),
            superplane_words: self.superplane_words.load(Ordering::Relaxed),
            ladder_words: self.ladder_words.load(Ordering::Relaxed),
            batch_occupancy: self.batch_occupancy.snapshot(),
            batch_micros: self.batch_micros.snapshot(),
        }
    }
}

impl TraceSink for MetricsRegistry {
    fn record(&self, event: TraceEvent) {
        match event {
            TraceEvent::Clock { .. } => self.clock_phases.add(1),
            TraceEvent::TextInjected { .. } => self.texts_injected.add(1),
            TraceEvent::ComparatorFire { lanes, .. } => {
                self.comparator_fires.add(1);
                self.match_lanes.add(u64::from(lanes));
            }
            TraceEvent::HostStall { .. } => self.host_stalls.add(1),
            TraceEvent::HostRetry { backoff_beats, .. } => {
                self.host_retries.add(1);
                self.backoff_beats.add(backoff_beats);
            }
            TraceEvent::ScrubOutcome { passed, beats, .. } => {
                if passed {
                    self.scrubs_passed.add(1);
                } else {
                    self.scrubs_failed.add(1);
                }
                self.scrub_beats.add(beats);
            }
            TraceEvent::Condemned { .. } => self.condemned.add(1),
            TraceEvent::Remapped { replayed_chars, .. } => {
                self.remaps.add(1);
                self.replayed_chars.add(replayed_chars);
            }
            TraceEvent::Committed { .. } => self.commits.add(1),
            TraceEvent::FallbackEngaged => self.fallbacks.add(1),
            TraceEvent::JobStarted { .. } => self.jobs_started.add(1),
            TraceEvent::JobCompleted { chars, matches, .. } => {
                self.jobs_completed.add(1);
                self.chars.add(chars);
                self.matches.add(matches);
            }
            TraceEvent::BatchExecuted {
                lanes,
                slots,
                steps,
                micros,
                ..
            } => {
                self.batches.add(1);
                self.batch_steps.add(steps);
                self.lane_slots_used.add(u64::from(lanes));
                self.lane_slots_total.add(u64::from(slots));
                self.batch_occupancy.observe(u64::from(lanes));
                if micros > 0 {
                    self.batch_micros.observe(micros);
                }
            }
            TraceEvent::CacheLookup { hit } => {
                if hit {
                    self.cache_hits.add(1);
                } else {
                    self.cache_misses.add(1);
                }
            }
            TraceEvent::FaultInjected { .. } => self.faults_injected.add(1),
            TraceEvent::ScrubMismatch { .. } => self.scrub_mismatches.add(1),
            TraceEvent::WorkerQuarantined { .. } => self.quarantined_workers.add(1),
            TraceEvent::LadderMoved { words, down } => {
                if down {
                    self.ladder_demotions.add(1);
                } else {
                    self.ladder_promotions.add(1);
                }
                self.ladder_words.store(u64::from(words), Ordering::Relaxed);
            }
            TraceEvent::BatchRetried { .. } => self.batches_retried.add(1),
            TraceEvent::DictionaryPlanned {
                patterns,
                resident,
                groups,
                lane_slots,
            } => {
                self.dict_patterns.add(patterns);
                self.dict_resident_lanes.add(resident);
                self.dict_groups.add(u64::from(groups));
                self.dict_lane_slots.add(lane_slots);
            }
            TraceEvent::SessionOpened { .. } => self.sessions_opened.add(1),
            TraceEvent::SessionClosed { chars, .. } => {
                self.sessions_closed.add(1);
                self.session_chars.add(chars);
            }
            TraceEvent::SessionRejected { .. } => self.sessions_rejected.add(1),
            TraceEvent::FrameReceived { bytes, .. } => {
                self.frames.add(1);
                self.frame_bytes.add(bytes);
            }
            TraceEvent::EventsDelivered { events, .. } => self.events_delivered.add(events),
            TraceEvent::BackpressureSignalled { .. } => self.backpressure_signals.add(1),
            TraceEvent::BatchStolen { .. } => self.batch_steals.add(1),
            TraceEvent::RouterPlanned {
                jobs,
                groups,
                moves,
                micros,
                ..
            } => {
                self.router_runs.add(1);
                self.router_jobs.add(jobs);
                self.router_groups.add(groups);
                self.router_affinity_moves.add(moves);
                self.router_micros.add(micros);
            }
            TraceEvent::ShardAdmitted { jobs, depth, .. } => {
                self.shard_jobs.add(jobs);
                self.shard_queue_depth.fetch_max(depth, Ordering::Relaxed);
            }
            TraceEvent::DispatchSelected { words, level } => {
                use pm_systolic::superplane::SimdLevel;
                match level {
                    SimdLevel::Portable => self.dispatch_portable.add(1),
                    SimdLevel::Avx2 => self.dispatch_avx2.add(1),
                    SimdLevel::Avx512 => self.dispatch_avx512.add(1),
                }
                self.superplane_words
                    .store(u64::from(words), Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// One row of the counter table: `(metric name, help text, value)`.
type CounterRow<'a> = (&'a str, &'a str, u64);

/// A point-in-time reading of a [`MetricsRegistry`], ready to export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Clock phases observed.
    pub clock_phases: u64,
    /// Array beats (clock phases ÷ 2).
    pub beats: u64,
    /// Text items injected.
    pub texts_injected: u64,
    /// Complete-window results exited.
    pub comparator_fires: u64,
    /// Matching lanes summed over fires.
    pub match_lanes: u64,
    /// Host stalls declared.
    pub host_stalls: u64,
    /// Host retries after backoff.
    pub host_retries: u64,
    /// Backoff beats summed over retries.
    pub backoff_beats: u64,
    /// BIST scrubs passed.
    pub scrubs_passed: u64,
    /// BIST scrubs failed.
    pub scrubs_failed: u64,
    /// Beats spent in BIST programs.
    pub scrub_beats: u64,
    /// Sockets condemned.
    pub condemned: u64,
    /// Chain remaps.
    pub remaps: u64,
    /// Characters replayed through healed chains.
    pub replayed_chars: u64,
    /// Watermark commits.
    pub commits: u64,
    /// Fallback engagements.
    pub fallbacks: u64,
    /// Jobs started.
    pub jobs_started: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Characters processed.
    pub chars: u64,
    /// Matches found.
    pub matches: u64,
    /// Word batches executed.
    pub batches: u64,
    /// Engine steps summed over batches.
    pub batch_steps: u64,
    /// Lane slots carrying a stream.
    pub lane_slots_used: u64,
    /// Lane slots available.
    pub lane_slots_total: u64,
    /// Pattern-cache hits.
    pub cache_hits: u64,
    /// Pattern-cache misses.
    pub cache_misses: u64,
    /// Runs dispatched to the portable kernel.
    pub dispatch_portable: u64,
    /// Runs dispatched to the AVX2 kernel.
    pub dispatch_avx2: u64,
    /// Runs dispatched to the AVX-512 kernel.
    pub dispatch_avx512: u64,
    /// Chaos-harness faults injected.
    pub faults_injected: u64,
    /// Sampled-lane scrub mismatches.
    pub scrub_mismatches: u64,
    /// Workers quarantined.
    pub quarantined_workers: u64,
    /// Ladder demotions.
    pub ladder_demotions: u64,
    /// Ladder re-promotions.
    pub ladder_promotions: u64,
    /// Batches retried on a recovery rung.
    pub batches_retried: u64,
    /// Patterns submitted to the dictionary compiler.
    pub dict_patterns: u64,
    /// Patterns resident after dictionary dedup.
    pub dict_resident_lanes: u64,
    /// Dictionary superplane groups planned.
    pub dict_groups: u64,
    /// Lane slots across planned dictionary groups.
    pub dict_lane_slots: u64,
    /// Front-door sessions admitted.
    pub sessions_opened: u64,
    /// Front-door sessions closed normally.
    pub sessions_closed: u64,
    /// Characters streamed by closed sessions.
    pub session_chars: u64,
    /// Admission-control rejections.
    pub sessions_rejected: u64,
    /// Protocol frames received.
    pub frames: u64,
    /// Payload bytes carried by received frames.
    pub frame_bytes: u64,
    /// Match events delivered to clients.
    pub events_delivered: u64,
    /// Backpressure signals sent.
    pub backpressure_signals: u64,
    /// Batches stolen across worker deques.
    pub batch_steals: u64,
    /// Routed batch runs completed.
    pub router_runs: u64,
    /// Jobs admitted through the router.
    pub router_jobs: u64,
    /// Pattern groups the router planned.
    pub router_groups: u64,
    /// Groups moved off their affinity shard for load.
    pub router_affinity_moves: u64,
    /// Microseconds spent routing.
    pub router_micros: u64,
    /// Jobs admitted to shards.
    pub shard_jobs: u64,
    /// High-water mark of jobs on any one shard per round.
    pub shard_queue_depth: u64,
    /// Superplane width (words) of the most recent dispatch.
    pub superplane_words: u64,
    /// Current ladder rung in words (0 = software fallback).
    pub ladder_words: u64,
    /// Lanes-per-batch distribution.
    pub batch_occupancy: HistogramSnapshot,
    /// Batch latency distribution (µs).
    pub batch_micros: HistogramSnapshot,
}

impl TelemetrySnapshot {
    /// The counter table driving both exporters, so they cannot drift.
    fn counter_rows(&self) -> Vec<CounterRow<'_>> {
        vec![
            (
                "pm_clock_phases_total",
                "Clock phases observed (2 per array beat).",
                self.clock_phases,
            ),
            ("pm_beats_total", "Array beats executed.", self.beats),
            (
                "pm_texts_injected_total",
                "Text items injected into beat-accurate arrays.",
                self.texts_injected,
            ),
            (
                "pm_comparator_fires_total",
                "Complete-window results exited from arrays.",
                self.comparator_fires,
            ),
            (
                "pm_match_lanes_total",
                "Matching lanes summed over comparator fires.",
                self.match_lanes,
            ),
            (
                "pm_host_stalls_total",
                "Host watchdog stall declarations.",
                self.host_stalls,
            ),
            (
                "pm_host_retries_total",
                "Host retries after backoff.",
                self.host_retries,
            ),
            (
                "pm_backoff_beats_total",
                "Idle backoff beats summed over retries.",
                self.backoff_beats,
            ),
            (
                "pm_scrubs_passed_total",
                "BIST scrubs that passed.",
                self.scrubs_passed,
            ),
            (
                "pm_scrubs_failed_total",
                "BIST scrubs that failed.",
                self.scrubs_failed,
            ),
            (
                "pm_scrub_beats_total",
                "Array beats spent inside BIST programs.",
                self.scrub_beats,
            ),
            ("pm_condemned_total", "Sockets condemned.", self.condemned),
            ("pm_remaps_total", "Chain remaps performed.", self.remaps),
            (
                "pm_replayed_chars_total",
                "Characters replayed through healed chains.",
                self.replayed_chars,
            ),
            (
                "pm_commits_total",
                "Result-watermark commits.",
                self.commits,
            ),
            (
                "pm_fallbacks_total",
                "Software-fallback engagements.",
                self.fallbacks,
            ),
            (
                "pm_jobs_started_total",
                "Jobs handed to workers.",
                self.jobs_started,
            ),
            (
                "pm_jobs_completed_total",
                "Jobs whose results were recorded.",
                self.jobs_completed,
            ),
            ("pm_chars_total", "Text characters processed.", self.chars),
            ("pm_matches_total", "Matches found.", self.matches),
            ("pm_batches_total", "Word batches executed.", self.batches),
            (
                "pm_batch_steps_total",
                "Engine steps summed over batches.",
                self.batch_steps,
            ),
            (
                "pm_lane_slots_used_total",
                "Lane slots that carried a stream.",
                self.lane_slots_used,
            ),
            (
                "pm_lane_slots_total",
                "Lane slots offered (64 per u64 batch, W*64 per superplane batch).",
                self.lane_slots_total,
            ),
            (
                "pm_cache_hits_total",
                "Compiled-pattern cache hits.",
                self.cache_hits,
            ),
            (
                "pm_cache_misses_total",
                "Compiled-pattern cache misses.",
                self.cache_misses,
            ),
            (
                "pm_dispatch_portable_total",
                "Runs dispatched to the portable superplane kernel.",
                self.dispatch_portable,
            ),
            (
                "pm_dispatch_avx2_total",
                "Runs dispatched to the AVX2 superplane kernel.",
                self.dispatch_avx2,
            ),
            (
                "pm_dispatch_avx512_total",
                "Runs dispatched to the AVX-512 superplane kernel.",
                self.dispatch_avx512,
            ),
            (
                "pm_faults_injected_total",
                "Chaos-harness faults injected into scheduler workers.",
                self.faults_injected,
            ),
            (
                "pm_scrub_mismatches_total",
                "Sampled-lane scrubs that disagreed with the scalar spec.",
                self.scrub_mismatches,
            ),
            (
                "pm_quarantined_workers_total",
                "Scheduler workers quarantined.",
                self.quarantined_workers,
            ),
            (
                "pm_ladder_demotions_total",
                "Degradation-ladder demotions.",
                self.ladder_demotions,
            ),
            (
                "pm_ladder_promotions_total",
                "Degradation-ladder re-promotions.",
                self.ladder_promotions,
            ),
            (
                "pm_batches_retried_total",
                "Voided batches re-executed on a recovery rung.",
                self.batches_retried,
            ),
            (
                "pm_dict_patterns_total",
                "Patterns submitted to the dictionary compiler.",
                self.dict_patterns,
            ),
            (
                "pm_dict_resident_lanes_total",
                "Patterns resident after dictionary dedup (÷ submitted = dedup ratio).",
                self.dict_resident_lanes,
            ),
            (
                "pm_dict_groups_total",
                "Superplane groups planned by the dictionary compiler.",
                self.dict_groups,
            ),
            (
                "pm_dict_lane_slots_total",
                "Lane slots across planned dictionary groups (resident ÷ slots = occupancy).",
                self.dict_lane_slots,
            ),
            (
                "pm_sessions_opened_total",
                "Front-door sessions admitted by pm-serve.",
                self.sessions_opened,
            ),
            (
                "pm_sessions_closed_total",
                "Front-door sessions closed normally.",
                self.sessions_closed,
            ),
            (
                "pm_session_chars_total",
                "Text characters streamed by closed sessions.",
                self.session_chars,
            ),
            (
                "pm_sessions_rejected_total",
                "Admission-control rejections (session cap or byte budgets).",
                self.sessions_rejected,
            ),
            (
                "pm_frames_total",
                "Protocol frames received on front-door connections.",
                self.frames,
            ),
            (
                "pm_frame_bytes_total",
                "Payload bytes carried by received frames.",
                self.frame_bytes,
            ),
            (
                "pm_events_delivered_total",
                "Match events delivered to front-door clients.",
                self.events_delivered,
            ),
            (
                "pm_backpressure_signals_total",
                "SERVER_BUSY backpressure signals with a retry-after hint.",
                self.backpressure_signals,
            ),
            (
                "pm_batch_steals_total",
                "Batches a worker stole from a sibling's deque.",
                self.batch_steals,
            ),
            (
                "pm_router_runs_total",
                "Routed batch runs completed by the shard router.",
                self.router_runs,
            ),
            (
                "pm_router_jobs_total",
                "Jobs admitted through the shard router.",
                self.router_jobs,
            ),
            (
                "pm_router_groups_total",
                "Routing units (shared-text units plus pattern groups) the router planned.",
                self.router_groups,
            ),
            (
                "pm_router_affinity_moves_total",
                "Groups routed away from their affinity shard to balance load.",
                self.router_affinity_moves,
            ),
            (
                "pm_router_micros_total",
                "Microseconds the router spent grouping and assigning.",
                self.router_micros,
            ),
            (
                "pm_shard_jobs_total",
                "Jobs admitted to shards, summed over routing rounds.",
                self.shard_jobs,
            ),
        ]
    }

    /// Renders the snapshot in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, value) in self.counter_rows() {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        let _ = writeln!(
            out,
            "# HELP pm_superplane_words Superplane width (words) of the most recent dispatch."
        );
        let _ = writeln!(out, "# TYPE pm_superplane_words gauge");
        let _ = writeln!(out, "pm_superplane_words {}", self.superplane_words);
        let _ = writeln!(
            out,
            "# HELP pm_ladder_words Current degradation-ladder rung in words (0 = software)."
        );
        let _ = writeln!(out, "# TYPE pm_ladder_words gauge");
        let _ = writeln!(out, "pm_ladder_words {}", self.ladder_words);
        let _ = writeln!(
            out,
            "# HELP pm_shard_queue_depth High-water mark of jobs admitted to any one shard per routing round."
        );
        let _ = writeln!(out, "# TYPE pm_shard_queue_depth gauge");
        let _ = writeln!(out, "pm_shard_queue_depth {}", self.shard_queue_depth);
        self.batch_occupancy.to_prometheus(
            "pm_batch_occupancy",
            "Lane slots carried per word batch.",
            &mut out,
        );
        self.batch_micros.to_prometheus(
            "pm_batch_micros",
            "Word-batch wall clock, microseconds.",
            &mut out,
        );
        out
    }

    /// Renders the snapshot as the `BENCH_telemetry.json` document:
    /// `chars_per_sec` at top level (what the CI gate reads), then
    /// every counter and histogram.
    pub fn to_json(&self, chars_per_sec: f64) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"chars_per_sec\": {chars_per_sec:.1},");
        out.push_str("  \"counters\": {\n");
        let rows = self.counter_rows();
        for (name, _, value) in rows.iter() {
            let _ = writeln!(out, "    \"{name}\": {value},");
        }
        let _ = writeln!(
            out,
            "    \"pm_shard_queue_depth\": {},",
            self.shard_queue_depth
        );
        let _ = writeln!(out, "    \"pm_ladder_words\": {},", self.ladder_words);
        let _ = writeln!(
            out,
            "    \"pm_superplane_words\": {}",
            self.superplane_words
        );
        out.push_str("  },\n");
        out.push_str("  \"histograms\": {\n    \"pm_batch_occupancy\": ");
        self.batch_occupancy.to_json(&mut out);
        out.push_str(",\n    \"pm_batch_micros\": ");
        self.batch_micros.to_json(&mut out);
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(10); // inclusive upper bound
        h.observe(70);
        h.observe(1000); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1]);
        assert_eq!(s.sum, 1085);
        assert_eq!(s.count, 4);
    }

    #[test]
    fn registry_folds_events() {
        let m = MetricsRegistry::new();
        m.record(TraceEvent::Clock {
            beat: 0,
            phase: pm_systolic::telemetry::ClockPhase::Phi1,
        });
        m.record(TraceEvent::Clock {
            beat: 0,
            phase: pm_systolic::telemetry::ClockPhase::Phi2,
        });
        m.record(TraceEvent::ComparatorFire {
            beat: 5,
            seq: 2,
            lanes: 7,
        });
        m.record(TraceEvent::JobCompleted {
            job: 1,
            worker: 0,
            chars: 100,
            matches: 4,
        });
        m.record(TraceEvent::BatchExecuted {
            worker: 0,
            lanes: 48,
            slots: 64,
            steps: 4096,
            micros: 120,
        });
        m.record(TraceEvent::DispatchSelected {
            words: 8,
            level: pm_systolic::superplane::SimdLevel::Portable,
        });
        m.record(TraceEvent::CacheLookup { hit: true });
        m.record(TraceEvent::CacheLookup { hit: false });
        m.record(TraceEvent::ScrubOutcome {
            socket: 2,
            passed: false,
            beats: 30,
        });
        let s = m.snapshot();
        assert_eq!(s.beats, 1);
        assert_eq!(s.match_lanes, 7);
        assert_eq!(s.chars, 100);
        assert_eq!(s.matches, 4);
        assert_eq!(s.lane_slots_used, 48);
        assert_eq!(s.lane_slots_total, 64);
        assert_eq!(s.dispatch_portable, 1);
        assert_eq!(s.superplane_words, 8);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.scrubs_failed, 1);
        assert_eq!(s.scrub_beats, 30);
        assert_eq!(s.batch_occupancy.count, 1);
        assert_eq!(s.batch_micros.sum, 120);
    }

    #[test]
    fn registry_folds_fault_and_ladder_events() {
        let m = MetricsRegistry::new();
        m.record(TraceEvent::FaultInjected {
            worker: 1,
            label: "lane_upset",
        });
        m.record(TraceEvent::ScrubMismatch {
            worker: 1,
            batch: 3,
        });
        m.record(TraceEvent::WorkerQuarantined {
            worker: 1,
            label: "lane_upset",
        });
        m.record(TraceEvent::LadderMoved {
            words: 4,
            down: true,
        });
        m.record(TraceEvent::LadderMoved {
            words: 8,
            down: false,
        });
        m.record(TraceEvent::BatchRetried {
            batch: 3,
            attempt: 1,
            words: 4,
        });
        let s = m.snapshot();
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.scrub_mismatches, 1);
        assert_eq!(s.quarantined_workers, 1);
        assert_eq!(s.ladder_demotions, 1);
        assert_eq!(s.ladder_promotions, 1);
        assert_eq!(s.batches_retried, 1);
        assert_eq!(s.ladder_words, 8); // last move wins the gauge
        let prom = s.to_prometheus();
        assert!(prom.contains("pm_quarantined_workers_total 1"), "{prom}");
        assert!(prom.contains("pm_ladder_words 8"), "{prom}");
        let json = s.to_json(0.0);
        assert!(json.contains("\"pm_scrub_mismatches_total\": 1"), "{json}");
        assert!(json.contains("\"pm_ladder_words\": 8"), "{json}");
        assert!(!json.contains(",\n  }"), "{json}");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let m = MetricsRegistry::new();
        m.record(TraceEvent::BatchExecuted {
            worker: 0,
            lanes: 64,
            slots: 512,
            steps: 100,
            micros: 0, // untimed: no latency observation
        });
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE pm_batches_total counter"), "{text}");
        assert!(text.contains("pm_batches_total 1"), "{text}");
        assert!(
            text.contains("pm_batch_occupancy_bucket{le=\"64\"} 1"),
            "{text}"
        );
        assert!(text.contains("pm_batch_occupancy_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("pm_batch_micros_count 0"), "{text}");
    }

    #[test]
    fn json_snapshot_shape() {
        let m = MetricsRegistry::new();
        m.record(TraceEvent::JobCompleted {
            job: 0,
            worker: 0,
            chars: 42,
            matches: 1,
        });
        let json = m.snapshot().to_json(123456.7);
        assert!(json.contains("\"chars_per_sec\": 123456.7"), "{json}");
        assert!(json.contains("\"pm_chars_total\": 42"), "{json}");
        assert!(json.contains("\"pm_batch_occupancy\""), "{json}");
        // Crude but deliberate: balanced braces, no trailing commas.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(!json.contains(",\n  }"), "{json}");
    }
}

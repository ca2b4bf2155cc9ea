//! The memory system: shards owning a slice of the machine, and the
//! router that feeds them.
//!
//! §1 sells the chip on outrunning "the memory bandwidth of most
//! conventional computers"; the scaled-up reproduction eventually hits
//! the software analogue — one [`ThroughputEngine`] whose workers all
//! contend on one pattern index, one slot pool and one planner. This
//! module splits the machine the way §3.4 splits the array:
//!
//! * a [`Shard`] is a self-contained slice of the lane budget — its
//!   own worker pool, work-stealing deques, two-tier pattern cache,
//!   resilience ladder and byte-budget [`SlotPool`]. A fault
//!   quarantines *inside* its shard; the others keep their width.
//! * the [`Router`] is the front of the memory system: it admits a
//!   batch of jobs and routes it in two passes. First, jobs that share
//!   one text slice form a *text unit*, and each unit goes whole to
//!   the least-loaded shard (by characters), so every shared slice is
//!   scanned by exactly one shard, whose planner streams it once past
//!   its resident patterns (§3.4's chips on one text bus). Then the
//!   jobs left, each with a text of its own, are grouped by pattern
//!   (same-pattern jobs share compiled planes, so they belong
//!   together) and each group goes to its *affinity shard* — a
//!   deterministic hash of the pattern, so repeat traffic re-hits warm
//!   caches — spilling to the least-loaded shard when affinity would
//!   overload one. Every shard runs in parallel and the outputs are
//!   moved back into submission order.
//!
//! Routing cost is accounted, not assumed: [`RouterReport`] carries
//! `route_micros` plus every shard's `plan_micros`, and
//! [`RouterReport::planner_overhead_frac`] is the gated ratio the E36
//! ingest benchmark holds below 5 % of batch wall-clock.
//!
//! ```
//! use pm_chip::shard::{Router, RouterConfig};
//! use pm_chip::throughput::Job;
//! use pm_systolic::symbol::{text_from_letters, Pattern};
//!
//! let router = Router::new(RouterConfig {
//!     shards: 2,
//!     workers_per_shard: 2,
//!     ..RouterConfig::default()
//! });
//! let text = text_from_letters("ABRACADABRA").unwrap();
//! let jobs = vec![Job::new(0, Pattern::parse("ABRA").unwrap(), text)];
//! let report = router.run(&jobs).unwrap();
//! assert_eq!(report.outputs.len(), 1);
//! assert_eq!(report.outputs[0].hits.ending_positions(), vec![3, 10]);
//! ```
//!
//! [`ThroughputEngine`]: crate::throughput::ThroughputEngine

use crate::throughput::{
    group_by_pattern, group_by_text, Job, JobOutput, JobRef, ResiliencePolicy, SlotPool,
    SuperWidth, ThroughputEngine, ThroughputReport,
};
use pm_systolic::error::Error;
use pm_systolic::symbol::Pattern;
use pm_systolic::telemetry::{SinkHandle, TraceEvent};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Shape of the sharded memory system.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Independent shards (each a full engine); at least 1.
    pub shards: usize,
    /// Worker threads per shard; at least 1.
    pub workers_per_shard: usize,
    /// Compiled-pattern cache capacity per shard worker.
    pub cache_capacity: usize,
    /// Total in-flight byte budget, split across shard slot pools.
    pub budget_bytes: u64,
    /// Superplane width every shard starts at.
    pub width: SuperWidth,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 4,
            workers_per_shard: 4,
            cache_capacity: 256,
            budget_bytes: 8 << 20,
            width: SuperWidth::default(),
        }
    }
}

/// One slice of the machine: an engine plus the admission state the
/// router tracks for it.
#[derive(Debug)]
pub struct Shard {
    id: usize,
    engine: ThroughputEngine,
    pool: SlotPool,
    queue_depth: AtomicU64,
}

impl Shard {
    /// This shard's index within its router.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard's engine, for read-side inspection.
    pub fn engine(&self) -> &ThroughputEngine {
        &self.engine
    }

    /// The shard's engine, for configuration (width, faults, policy).
    pub fn engine_mut(&mut self) -> &mut ThroughputEngine {
        &mut self.engine
    }

    /// The shard's slice of the byte budget. [`SlotPool`] clones share
    /// state, so admission layers may hold their own handle.
    pub fn pool(&self) -> &SlotPool {
        &self.pool
    }

    /// Jobs admitted to this shard by the in-progress (or most recent)
    /// routing round; returns to 0 when the round completes.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }
}

/// The affinity hash: which shard a pattern's traffic prefers.
///
/// Plain `DefaultHasher` over the pattern — deterministic within a
/// process, which is all affinity needs (the property under test is
/// *stability*, so repeat traffic lands on warm caches).
fn pattern_shard(pattern: &Pattern) -> u64 {
    let mut h = DefaultHasher::new();
    pattern.hash(&mut h);
    h.finish()
}

/// Where one routed batch goes: job indices per shard, plus the
/// counts [`RouterReport`] carries.
#[derive(Debug)]
struct Routing {
    /// Global job indices admitted to each shard.
    assignment: Vec<Vec<usize>>,
    /// Text units plus pattern groups.
    groups: u64,
    /// Pattern groups routed away from their affinity shard.
    moves: u64,
}

/// The router's assignment, as documented on [`Router::run_refs`]:
/// shared-text units whole to the least-loaded shard (longest first),
/// then own-text pattern groups to their affinity shard, spilling past
/// ~1.25× the fair share of characters.
fn route(jobs: &[JobRef<'_>], n: usize) -> Routing {
    let (mut units, own) = group_by_text(jobs);
    let mut groups = group_by_pattern(jobs, &own);
    // Bucket groups by pattern length so each shard's own planner
    // receives length-sorted singles — the shared discipline of
    // `plan::bucket_by_len` applied one level up.
    crate::plan::bucket_by_len(&mut groups, |(p, _)| p.len());
    let group_count = (units.len() + groups.len()) as u64;

    let unit_chars = |unit: &[usize]| jobs[unit[0]].text.len();
    let total_chars: usize = units.iter().map(|u| unit_chars(u)).sum::<usize>()
        + own.iter().map(|&i| jobs[i].text.len()).sum::<usize>();
    // Fair share plus 25 % headroom: affinity wins until a shard
    // would exceed it, then the group spills to the least loaded.
    let cap = total_chars / n + total_chars / (4 * n) + 1;
    let mut load = vec![0usize; n];
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); n];
    let least_loaded = |load: &[usize]| (0..n).min_by_key(|&s| load[s]).unwrap_or(0);

    // Longest first (stable, so equal lengths keep first-seen order)
    // is the classic greedy for balancing by size.
    units.sort_by_key(|u| std::cmp::Reverse(unit_chars(u)));
    for unit in units {
        let target = least_loaded(&load);
        load[target] += unit_chars(&unit);
        assignment[target].extend_from_slice(&unit);
    }

    let mut moves = 0u64;
    for (pattern, members) in groups {
        let group_chars: usize = members.iter().map(|&i| jobs[i].text.len()).sum();
        let preferred = (pattern_shard(pattern) % n as u64) as usize;
        let target = if n > 1 && load[preferred] + group_chars > cap {
            let least = least_loaded(&load);
            if least != preferred {
                moves += 1;
            }
            least
        } else {
            preferred
        };
        load[target] += group_chars;
        assignment[target].extend_from_slice(&members);
    }
    Routing {
        assignment,
        groups: group_count,
        moves,
    }
}

/// The front of the memory system: admits jobs, balances them across
/// [`Shard`]s by load and pattern affinity, runs the shards in
/// parallel and merges results back into submission order.
#[derive(Debug)]
pub struct Router {
    shards: Vec<Shard>,
    sink: SinkHandle,
}

impl Router {
    /// A router with no trace sink.
    pub fn new(config: RouterConfig) -> Self {
        Self::with_sink(config, SinkHandle::null())
    }

    /// A router whose shards (and the router itself) emit trace events
    /// into `sink`.
    pub fn with_sink(config: RouterConfig, sink: SinkHandle) -> Self {
        let n = config.shards.max(1);
        let workers = config.workers_per_shard.max(1);
        // Split the byte budget exactly: the first `budget % n` shards
        // take one extra byte so the slices sum to the whole.
        let (base, extra) = (
            config.budget_bytes / n as u64,
            config.budget_bytes % n as u64,
        );
        let shards = (0..n)
            .map(|id| {
                let mut engine =
                    ThroughputEngine::with_sink(workers, config.cache_capacity, sink.clone());
                engine.set_width(config.width);
                let slice = base + u64::from((id as u64) < extra);
                Shard {
                    id,
                    engine,
                    pool: SlotPool::new(slice),
                    queue_depth: AtomicU64::new(0),
                }
            })
            .collect();
        Router { shards, sink }
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// One shard by index.
    pub fn shard(&self, id: usize) -> &Shard {
        &self.shards[id]
    }

    /// One shard by index, mutably — the hook chaos tests use to arm a
    /// fault plan on a single shard.
    pub fn shard_mut(&mut self, id: usize) -> &mut Shard {
        &mut self.shards[id]
    }

    /// The shard a session or stream key pins to: stable for the key's
    /// lifetime, uniform across keys.
    pub fn shard_for(&self, key: u64) -> &Shard {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Installs (or clears) the same resilience policy on every shard.
    pub fn set_resilience(&mut self, policy: Option<ResiliencePolicy>) {
        for shard in &mut self.shards {
            shard.engine.set_resilience(policy);
        }
    }

    /// Total in-flight byte budget across all shard pools.
    pub fn capacity(&self) -> u64 {
        self.shards.iter().map(|s| s.pool.capacity()).sum()
    }

    /// Bytes currently leased across all shard pools.
    pub fn in_flight(&self) -> u64 {
        self.shards.iter().map(|s| s.pool.in_flight()).sum()
    }

    /// As [`run_refs`](Self::run_refs), over owned jobs.
    ///
    /// # Errors
    ///
    /// As [`run_refs`](Self::run_refs).
    pub fn run(&self, jobs: &[Job]) -> Result<RouterReport, Error> {
        let refs: Vec<JobRef<'_>> = jobs.iter().map(Job::to_ref).collect();
        self.run_refs(&refs)
    }

    /// Routes a batch across the shards, runs them in parallel, and
    /// merges the shard reports into one [`RouterReport`] whose
    /// `outputs` are in submission order.
    ///
    /// Routing runs in two passes:
    ///
    /// 1. **Text units.** Jobs that share one text slice (the same
    ///    borrow, so the same memory) form a unit; each unit goes whole
    ///    to the least-loaded shard by characters, longest unit first,
    ///    so every shared slice is scanned by exactly one shard — and,
    ///    by that shard's planner, once per resident-pattern chunk.
    /// 2. **Pattern groups.** The jobs left, each with a text of its
    ///    own, are grouped by pattern: all jobs sharing a pattern go to
    ///    the pattern's affinity shard unless that shard is already
    ///    loaded past ~1.25× its fair share of characters, in which
    ///    case the group spills to the least-loaded shard (counted in
    ///    [`RouterReport::affinity_moves`]).
    ///
    /// Load is counted in characters to scan: a text unit weighs its
    /// slice length once, an own-text job its text length.
    ///
    /// # Errors
    ///
    /// A shard's error — e.g. [`Error::WorkerPanicked`] on the fast
    /// path, with `worker` carrying the *shard* index — after every
    /// shard thread has been joined.
    pub fn run_refs(&self, jobs: &[JobRef<'_>]) -> Result<RouterReport, Error> {
        let wall = Instant::now();
        let route_timer = Instant::now();
        let n = self.shards.len();
        let Routing {
            assignment,
            groups: group_count,
            moves,
        } = route(jobs, n);
        let route_micros = route_timer.elapsed().as_micros() as u64;

        self.sink.record(TraceEvent::RouterPlanned {
            shards: n as u32,
            jobs: jobs.len() as u64,
            groups: group_count,
            moves,
            micros: route_micros,
        });
        for (shard, admitted) in self.shards.iter().zip(&assignment) {
            let depth = admitted.len() as u64;
            shard.queue_depth.store(depth, Ordering::Relaxed);
            self.sink.record(TraceEvent::ShardAdmitted {
                shard: shard.id as u32,
                jobs: depth,
                depth,
            });
        }

        let shard_jobs: Vec<Vec<JobRef<'_>>> = assignment
            .iter()
            .map(|ids| ids.iter().map(|&i| jobs[i]).collect())
            .collect();
        let joined: Vec<std::thread::Result<Result<ThroughputReport, Error>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .zip(&shard_jobs)
                    .map(|(shard, sj)| scope.spawn(move || shard.engine.run_refs(sj)))
                    .collect();
                // Join every shard before inspecting any outcome, so
                // one failing shard never leaves siblings running.
                handles.into_iter().map(|h| h.join()).collect()
            });
        for shard in &self.shards {
            shard.queue_depth.store(0, Ordering::Relaxed);
        }

        let mut shard_reports = Vec::with_capacity(n);
        for (s, joined) in joined.into_iter().enumerate() {
            match joined {
                Ok(res) => shard_reports.push(res?),
                Err(_) => return Err(Error::WorkerPanicked { worker: s }),
            }
        }

        // Move, don't clone: each shard's outputs are drained into
        // submission order, leaving its report's `outputs` empty.
        let mut outputs: Vec<Option<JobOutput>> = vec![None; jobs.len()];
        for (ids, report) in assignment.iter().zip(&mut shard_reports) {
            for (&global, out) in ids.iter().zip(report.outputs.drain(..)) {
                outputs[global] = Some(out);
            }
        }
        let outputs = outputs
            .into_iter()
            .map(|o| o.expect("every routed job produces an output"))
            .collect();

        Ok(RouterReport {
            outputs,
            shard_reports,
            groups: group_count,
            affinity_moves: moves,
            route_micros,
            wall_micros: wall.elapsed().as_micros() as u64,
        })
    }
}

/// What one routed batch produced, merged across shards.
#[derive(Debug)]
pub struct RouterReport {
    /// One output per job, in submission order.
    pub outputs: Vec<JobOutput>,
    /// Each shard's own report, in shard order (idle shards report
    /// empty runs). The merge moves every output out into
    /// [`outputs`](Self::outputs), so each shard report's `outputs` is
    /// empty; its statistics (`workers`, `totals`, `plan_micros`,
    /// `resilience`) are intact.
    pub shard_reports: Vec<ThroughputReport>,
    /// Routing units the batch split into: shared-text units plus
    /// pattern groups of own-text jobs.
    pub groups: u64,
    /// Pattern groups routed away from their affinity shard to
    /// balance load (text units have no affinity to leave).
    pub affinity_moves: u64,
    /// Wall-clock the router spent grouping and assigning.
    pub route_micros: u64,
    /// Wall-clock of the whole routed run, routing included.
    pub wall_micros: u64,
}

impl RouterReport {
    /// Total planning cost: router assignment plus every shard
    /// planner's `plan_micros`.
    pub fn plan_micros(&self) -> u64 {
        self.route_micros
            + self
                .shard_reports
                .iter()
                .map(|r| r.plan_micros)
                .sum::<u64>()
    }

    /// The gated ratio: planning cost over batch wall-clock (0 for an
    /// instantaneous run). The E36 benchmark holds this below 0.05 at
    /// 64 workers.
    pub fn planner_overhead_frac(&self) -> f64 {
        if self.wall_micros == 0 {
            return 0.0;
        }
        self.plan_micros() as f64 / self.wall_micros as f64
    }

    /// Text characters processed, summed across shards. Characters
    /// are counted per job, so a slice shared by 16 patterns counts 16
    /// times even though its shard scans it once: a scan-amplification
    /// figure taken as this over the corpus length still reads ≈ the
    /// patterns per slice, and measures work requested, not text
    /// streamed.
    pub fn total_chars(&self) -> u64 {
        self.shard_reports.iter().map(|r| r.totals.chars).sum()
    }

    /// Batches stolen across worker deques, summed across shards.
    pub fn steals(&self) -> u64 {
        self.shard_reports.iter().map(|r| r.totals.steals).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_systolic::spec::match_spec;
    use pm_systolic::symbol::{text_from_letters, Symbol};

    fn letters(s: &str) -> Vec<Symbol> {
        text_from_letters(s).unwrap()
    }

    fn job_mix() -> Vec<Job> {
        let patterns = ["AB", "ABC", "CxT", "DEFG", "A"];
        let texts = [
            "ABCABCABQABCCABCABABC",
            "CATCOTCUTQQCAT",
            "AAAAABAAAB",
            "DEFGDEFGABDEFG",
        ];
        let mut jobs = Vec::new();
        for (i, p) in patterns.iter().enumerate() {
            for (j, t) in texts.iter().enumerate() {
                jobs.push(Job::new(
                    (i * texts.len() + j) as u64,
                    Pattern::parse(p).unwrap(),
                    letters(t),
                ));
            }
        }
        jobs
    }

    #[test]
    fn routed_outputs_match_the_scalar_spec_in_submission_order() {
        let jobs = job_mix();
        for shards in [1, 2, 3, 5] {
            let router = Router::new(RouterConfig {
                shards,
                workers_per_shard: 2,
                ..RouterConfig::default()
            });
            let report = router.run(&jobs).unwrap();
            assert_eq!(report.outputs.len(), jobs.len());
            for (job, out) in jobs.iter().zip(&report.outputs) {
                assert_eq!(out.id, job.id, "submission order broken");
                let spec = match_spec(&job.text, &job.pattern);
                assert_eq!(out.hits.bits(), &spec[..], "job {}", job.id);
            }
        }
    }

    #[test]
    fn single_shard_router_equals_the_plain_engine() {
        let jobs = job_mix();
        let router = Router::new(RouterConfig {
            shards: 1,
            workers_per_shard: 3,
            ..RouterConfig::default()
        });
        let engine = ThroughputEngine::new(3, 256);
        let routed = router.run(&jobs).unwrap();
        let plain = engine.run(&jobs).unwrap();
        for (a, b) in routed.outputs.iter().zip(&plain.outputs) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.hits.bits(), b.hits.bits());
        }
        assert_eq!(routed.affinity_moves, 0, "one shard has nowhere to move");
    }

    #[test]
    fn affinity_is_deterministic_and_depths_return_to_zero() {
        let jobs = job_mix();
        let router = Router::new(RouterConfig {
            shards: 4,
            workers_per_shard: 1,
            ..RouterConfig::default()
        });
        let a = router.run(&jobs).unwrap();
        let b = router.run(&jobs).unwrap();
        assert_eq!(a.affinity_moves, b.affinity_moves);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.groups, 5, "five distinct patterns");
        for shard in router.shards() {
            assert_eq!(shard.queue_depth(), 0, "shard {} still queued", shard.id());
        }
    }

    #[test]
    fn budget_splits_exactly_and_session_pinning_is_stable() {
        let router = Router::new(RouterConfig {
            shards: 3,
            budget_bytes: 10,
            ..RouterConfig::default()
        });
        let slices: Vec<u64> = router
            .shards()
            .iter()
            .map(|s| s.pool().capacity())
            .collect();
        assert_eq!(slices.iter().sum::<u64>(), 10);
        assert_eq!(slices, vec![4, 3, 3]);
        assert_eq!(router.capacity(), 10);
        assert_eq!(router.in_flight(), 0);
        let first = router.shard_for(42).id();
        assert_eq!(router.shard_for(42).id(), first);
        assert_eq!(router.shard(first).id(), first);
    }

    /// Eight 32-char slices of one buffer × four patterns (the ingest
    /// shape), plus the own-text jobs of `job_mix`.
    fn shared_and_own() -> (Vec<Symbol>, Vec<Pattern>, Vec<Job>) {
        let corpus = letters(&"ABCABBACABCCABABDEFGCATCOTCUTQQC".repeat(8));
        let patterns = ["AB", "CAB", "AXC", "DEFG"]
            .iter()
            .map(|p| Pattern::parse(p).unwrap())
            .collect();
        (corpus, patterns, job_mix())
    }

    fn refs_of<'a>(
        corpus: &'a [Symbol],
        patterns: &'a [Pattern],
        own: &'a [Job],
    ) -> Vec<JobRef<'a>> {
        let mut refs = Vec::new();
        for slice in corpus.chunks(32) {
            for pattern in patterns {
                refs.push(JobRef {
                    id: refs.len() as u64,
                    pattern,
                    text: slice,
                });
            }
        }
        refs.extend(own.iter().map(Job::to_ref));
        refs
    }

    #[test]
    fn every_job_of_one_slice_lands_on_one_shard() {
        let (corpus, patterns, own) = shared_and_own();
        let refs = refs_of(&corpus, &patterns, &own);
        for n in 1..=4 {
            let routing = route(&refs, n);
            let mut shard_of = vec![usize::MAX; refs.len()];
            for (s, ids) in routing.assignment.iter().enumerate() {
                for &i in ids {
                    assert_eq!(shard_of[i], usize::MAX, "job {i} routed twice");
                    shard_of[i] = s;
                }
            }
            assert!(shard_of.iter().all(|&s| s < n), "every job routed");
            for unit in refs[..8 * patterns.len()].chunks(patterns.len()) {
                let first = shard_of[unit[0].id as usize];
                assert!(
                    unit.iter().all(|j| shard_of[j.id as usize] == first),
                    "a slice split across shards at n = {n}"
                );
            }
            // Routed results are the spec, in submission order.
            let router = Router::new(RouterConfig {
                shards: n,
                workers_per_shard: 2,
                ..RouterConfig::default()
            });
            let report = router.run_refs(&refs).unwrap();
            for (job, out) in refs.iter().zip(&report.outputs) {
                assert_eq!(out.id, job.id);
                assert_eq!(out.hits.bits(), &match_spec(job.text, job.pattern)[..]);
            }
        }
    }

    #[test]
    fn text_units_balance_by_characters() {
        // Slices of 40, 30, 20 and 10 chars, each shared by 3 patterns:
        // longest-first onto the least loaded gives 40 | 30 | 20 + 10
        // on three shards, and 40 + 10 | 30 + 20 on two.
        let corpus = letters(&"ABCAB".repeat(20));
        let patterns: Vec<Pattern> = ["AB", "BC", "CA"]
            .iter()
            .map(|p| Pattern::parse(p).unwrap())
            .collect();
        let bounds = [(0, 10), (10, 30), (30, 60), (60, 100)];
        let mut refs = Vec::new();
        for &(lo, hi) in &bounds {
            for pattern in &patterns {
                refs.push(JobRef {
                    id: refs.len() as u64,
                    pattern,
                    text: &corpus[lo..hi],
                });
            }
        }
        let load = |routing: &Routing| -> Vec<usize> {
            routing
                .assignment
                .iter()
                .map(|ids| {
                    // Scanned characters: one slice length per unit.
                    let mut seen: Vec<(usize, usize)> = ids
                        .iter()
                        .map(|&i| (refs[i].text.as_ptr() as usize, refs[i].text.len()))
                        .collect();
                    seen.dedup();
                    seen.iter().map(|&(_, len)| len).sum()
                })
                .collect()
        };
        assert_eq!(load(&route(&refs, 3)), vec![40, 30, 30]);
        assert_eq!(load(&route(&refs, 2)), vec![50, 50]);
        let routing = route(&refs, 3);
        assert_eq!(routing.groups, 4, "four text units, no pattern groups");
        assert_eq!(routing.moves, 0, "text units have no affinity to leave");
    }

    #[test]
    fn pattern_groups_keep_affinity_and_count_their_moves() {
        let jobs = job_mix();
        let refs: Vec<JobRef<'_>> = jobs.iter().map(Job::to_ref).collect();
        for n in 1..=5 {
            let routing = route(&refs, n);
            let mut away = 0u64;
            for (s, ids) in routing.assignment.iter().enumerate() {
                for &i in ids {
                    let preferred = (pattern_shard(refs[i].pattern) % n as u64) as usize;
                    // Each group moves whole, so count it at its
                    // first-submitted job.
                    let first = refs.iter().position(|j| j.pattern == refs[i].pattern);
                    if s != preferred && first == Some(i) {
                        away += 1;
                    }
                }
            }
            assert_eq!(routing.moves, away, "n = {n}");
            assert_eq!(routing.groups, 5, "five patterns, no shared text");
            if n == 1 {
                assert_eq!(routing.moves, 0);
            }
        }
        // Affinity is a pure function of the batch: the same traffic
        // lands on the same shards every time.
        let (a, b) = (route(&refs, 4), route(&refs, 4));
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn groups_count_text_units_plus_pattern_groups() {
        let (corpus, patterns, own) = shared_and_own();
        let refs = refs_of(&corpus, &patterns, &own);
        let router = Router::new(RouterConfig {
            shards: 2,
            workers_per_shard: 1,
            ..RouterConfig::default()
        });
        let report = router.run_refs(&refs).unwrap();
        assert_eq!(report.groups, 8 + 5, "eight slices plus five patterns");
        assert_eq!(report.groups, route(&refs, 2).groups);
    }

    #[test]
    fn merge_moves_outputs_and_keeps_shard_stats() {
        let (corpus, patterns, own) = shared_and_own();
        let refs = refs_of(&corpus, &patterns, &own);
        let router = Router::new(RouterConfig {
            shards: 3,
            workers_per_shard: 2,
            ..RouterConfig::default()
        });
        let report = router.run_refs(&refs).unwrap();
        assert_eq!(report.outputs.len(), refs.len());
        for (job, out) in refs.iter().zip(&report.outputs) {
            assert_eq!(out.id, job.id);
            assert_eq!(out.hits.bits(), &match_spec(job.text, job.pattern)[..]);
        }
        // Drained into `outputs`; the statistics stay.
        assert!(report.shard_reports.iter().all(|r| r.outputs.is_empty()));
        let jobs: u64 = report.shard_reports.iter().map(|r| r.totals.jobs).sum();
        assert_eq!(jobs, refs.len() as u64);
        let chars: u64 = refs.iter().map(|j| j.text.len() as u64).sum();
        assert_eq!(report.total_chars(), chars, "characters counted per job");
    }

    #[test]
    fn empty_batch_reports_empty_everything() {
        let router = Router::new(RouterConfig::default());
        let report = router.run(&[]).unwrap();
        assert!(report.outputs.is_empty());
        assert_eq!(report.groups, 0);
        assert_eq!(report.total_chars(), 0);
        assert_eq!(report.shard_reports.len(), 4);
    }
}

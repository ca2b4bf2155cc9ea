//! Shared-text properties: jobs that borrow one text slice — planned
//! as one resident-pattern scan per slice — mixed with jobs that carry
//! a text of their own must return exactly what the executable spec
//! returns, job for job, through the `ThroughputEngine` (fast and
//! resilient, every width, 1–4 workers) and through the `Router`
//! (1–4 shards), and must stay spec-identical under a seeded fault
//! campaign.

use pm_chip::faults::FaultPlan;
use pm_chip::shard::{Router, RouterConfig};
use pm_chip::throughput::{JobOutput, JobRef, ResiliencePolicy, SuperWidth, ThroughputEngine};
use pm_systolic::prelude::*;
use proptest::prelude::*;

const WIDTHS: [SuperWidth; 3] = [SuperWidth::W1, SuperWidth::W4, SuperWidth::W8];

/// Slices of the shared buffer each workload cuts.
const SLICES: usize = 3;

/// One job: `(slice, pattern pick, own text)`. A slice index below
/// [`SLICES`] borrows that slice of the shared buffer; anything else
/// gives the job its own text.
type Entry = (usize, usize, Vec<u8>);

/// A pattern pool (`(byte alphabet?, symbols)`, `None` = wild card), a
/// byte buffer, the `(start, len)` of each shared slice, the jobs, and
/// how many extra patterns pile onto the whole buffer (0, 65 or 300).
type Workload = (
    Vec<(bool, Vec<Option<u8>>)>,
    Vec<u8>,
    Vec<(usize, usize)>,
    Vec<Entry>,
    usize,
);

/// Text symbols: mostly the 2-bit alphabet, so patterns match, with
/// bytes outside it mixed in — the symbols a 2-bit pattern must never
/// alias onto its own literals.
fn text_symbol() -> impl Strategy<Value = u8> {
    prop_oneof![6 => 0u8..=3, 1 => 4u8..=255]
}

fn workload() -> impl Strategy<Value = Workload> {
    let pat_sym = prop_oneof![
        4 => (0u8..=3).prop_map(Some),
        1 => Just(None), // wild card
    ];
    let pool = proptest::collection::vec(
        (
            proptest::option::weighted(0.2, Just(())).prop_map(|o| o.is_some()),
            proptest::collection::vec(pat_sym, 1..=8),
        ),
        1..=5,
    );
    let buffer = proptest::collection::vec(text_symbol(), 1..=120);
    (pool, buffer).prop_flat_map(|(pool, buffer)| {
        let picks = pool.len();
        let n = buffer.len();
        (
            Just(pool),
            Just(buffer),
            // Slices may be empty or shorter than every pattern.
            proptest::collection::vec((0..=n, 0usize..=40), SLICES..=SLICES).prop_map(
                move |cuts| {
                    cuts.into_iter()
                        .map(|(start, len)| (start, len.min(n - start)))
                        .collect()
                },
            ),
            proptest::collection::vec(
                (
                    0..SLICES + 2,
                    0..picks,
                    proptest::collection::vec(text_symbol(), 0..=30),
                ),
                0..=48,
            ),
            prop_oneof![6 => Just(0usize), 1 => Just(65usize), 1 => Just(300usize)],
        )
    })
}

fn build(byte_alphabet: bool, pat: &[Option<u8>]) -> Pattern {
    let syms: Vec<PatSym> = pat
        .iter()
        .map(|o| match o {
            Some(v) => PatSym::Lit(Symbol::new(*v)),
            None => PatSym::Wild,
        })
        .collect();
    let alphabet = if byte_alphabet {
        Alphabet::EIGHT_BIT
    } else {
        Alphabet::TWO_BIT
    };
    Pattern::new(syms, alphabet).unwrap()
}

fn symbols(bytes: &[u8]) -> Vec<Symbol> {
    bytes.iter().map(|&b| Symbol::new(b)).collect()
}

/// The owned inputs a workload's jobs borrow from.
struct Inputs {
    patterns: Vec<Pattern>,
    buffer: Vec<Symbol>,
    cuts: Vec<(usize, usize)>,
    /// `(slice or None, pattern index, own text)` per job.
    jobs: Vec<(Option<usize>, usize, Vec<Symbol>)>,
}

impl Inputs {
    fn new((pool, buffer, cuts, entries, extra): &Workload) -> Self {
        let patterns: Vec<Pattern> = pool.iter().map(|(wide, p)| build(*wide, p)).collect();
        let mut jobs: Vec<(Option<usize>, usize, Vec<Symbol>)> = entries
            .iter()
            .map(|(slice, pick, own)| ((*slice < SLICES).then_some(*slice), *pick, symbols(own)))
            .collect();
        // A pile of patterns (duplicates included) on one more slice,
        // the whole buffer, spread through the submission so the
        // planner must gather them.
        for i in 0..*extra {
            let at = (i * 7) % (jobs.len() + 1);
            jobs.insert(at, (Some(SLICES), i % patterns.len(), Vec::new()));
        }
        let mut cuts = cuts.clone();
        cuts.push((0, buffer.len()));
        Inputs {
            patterns,
            buffer: symbols(buffer),
            cuts,
            jobs,
        }
    }

    fn refs(&self) -> Vec<JobRef<'_>> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(id, (slice, pick, own))| JobRef {
                id: id as u64,
                pattern: &self.patterns[*pick],
                text: match slice {
                    Some(s) => {
                        let (start, len) = self.cuts[*s];
                        &self.buffer[start..start + len]
                    }
                    None => own,
                },
            })
            .collect()
    }
}

/// Every output belongs to its job, in submission order, and equals
/// the scalar spec.
fn check(refs: &[JobRef<'_>], outputs: &[JobOutput], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(outputs.len(), refs.len(), "{}", what);
    for (job, out) in refs.iter().zip(outputs) {
        prop_assert_eq!(out.id, job.id, "{}", what);
        prop_assert_eq!(
            out.hits.bits(),
            &match_spec(job.text, job.pattern)[..],
            "job {} ({}): {}",
            job.id,
            job.pattern,
            what
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Engine and router, fast and resilient, at every width: shared
    /// and own-text jobs alike equal the spec.
    #[test]
    fn shared_text_jobs_equal_the_spec(
        w in workload(),
        workers in 1usize..=4,
        shards in 1usize..=4,
    ) {
        let inputs = Inputs::new(&w);
        let refs = inputs.refs();
        for width in WIDTHS {
            let mut engine = ThroughputEngine::new(workers, 8);
            engine.set_width(width);
            for policy in [None, Some(ResiliencePolicy::default())] {
                engine.set_resilience(policy);
                let report = engine.run_refs(&refs).unwrap();
                check(&refs, &report.outputs, &format!(
                    "engine {} x{workers} resilient={}", width.label(), policy.is_some()
                ))?;
                let chars: u64 = refs.iter().map(|j| j.text.len() as u64).sum();
                prop_assert_eq!(report.totals.chars, chars, "chars count per job");
            }
            let mut router = Router::new(RouterConfig {
                shards,
                workers_per_shard: workers,
                width,
                ..RouterConfig::default()
            });
            for policy in [None, Some(ResiliencePolicy::default())] {
                router.set_resilience(policy);
                let report = router.run_refs(&refs).unwrap();
                check(&refs, &report.outputs, &format!(
                    "router {shards} shards {} resilient={}", width.label(), policy.is_some()
                ))?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A seeded fault campaign under the default policy: detection and
    /// the recovery ladder keep every shared-text output spec-identical.
    #[test]
    fn shared_text_stays_spec_identical_under_faults(
        w in workload(),
        seed in 0u64..1_000_000,
        permille in 0u32..=800,
        workers in 1usize..=4,
        burned in 0usize..2,
    ) {
        let inputs = Inputs::new(&w);
        let refs = inputs.refs();
        let plan = FaultPlan::new(seed)
            .with_worker_fault_permille(permille)
            .with_max_onset_batches(2)
            .with_rung_fail_permille(200)
            .with_stall_millis(1);
        for width in WIDTHS {
            let mut engine = ThroughputEngine::new(workers, 8);
            engine.set_width(width);
            engine.set_resilience(Some(ResiliencePolicy::default()));
            engine.set_fault_plan(Some(plan.clone()));
            let report = engine.run_refs(&refs).unwrap();
            check(&refs, &report.outputs, &format!(
                "engine {} x{workers} seed {seed}", width.label()
            ))?;

            let mut router = Router::new(RouterConfig {
                shards: 2,
                workers_per_shard: workers,
                width,
                ..RouterConfig::default()
            });
            router.set_resilience(Some(ResiliencePolicy::default()));
            router.shard_mut(burned).engine_mut().set_fault_plan(Some(plan.clone()));
            let report = router.run_refs(&refs).unwrap();
            check(&refs, &report.outputs, &format!(
                "router shard {burned} burned {} seed {seed}", width.label()
            ))?;
        }
    }
}

//! Clocks, CPU and memory readings, and the per-phase meter every
//! workload measures through.

use std::time::{Duration, Instant};

/// Linux reports `/proc/self/stat` CPU times in clock ticks of
/// `sysconf(_SC_CLK_TCK)`, which is 100 on every mainstream kernel
/// configuration (`getconf CLK_TCK`).
const CLK_TCK: u64 = 100;

/// Process user + system CPU time, all threads including exited ones.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; fields restart after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line, i.e.
    // 11 and 12 after the command name (0-based).
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_nanos(ticks * (1_000_000_000 / CLK_TCK))
}

/// CPU time the hypervisor gave other guests instead of this host,
/// summed over its cores (the `steal` column of `/proc/stat`); zero
/// where the kernel does not report it. Each figure is read at zero
/// steal ([`zero_steal`]).
pub fn host_steal() -> Duration {
    let ticks = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse::<u64>().ok()
        })
        .unwrap_or(0);
    Duration::from_nanos(ticks * (1_000_000_000 / CLK_TCK))
}

/// CPU time of the calling thread, in nanoseconds resolution.
pub fn thread_cpu() -> Duration {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let ns: u64 = s
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("schedstat starts with the run time in ns");
    Duration::from_nanos(ns)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kib / 1024.0
}

/// The value at `x = 0` of the Theil–Sen line through `points`
/// `(x, y)`: the slope is the median of the slopes between every pair
/// of points with distinct `x` (0 when there is none), the intercept
/// the median of `y − slope · x`. Half the points can be outliers
/// without moving it.
///
/// Each figure of a phase is this line of its per-window values
/// against the host's CPU steal in the window (the time the
/// hypervisor gave other guests while this one wanted to run). Steal
/// is not the program's cost, but on a shared host it comes in
/// episodes of minutes that slow a wake-up-bound workload by more than
/// their share: on `serve` each 1 % of steal took about 1.3 % of the
/// throughput, so a run at 25 % steal read a third slow. Reading the
/// line at zero steal leaves the program's own speed; a run the host
/// never stole from reads the median of its windows.
pub fn zero_steal(points: &[(f64, f64)]) -> f64 {
    let mut slopes = Vec::new();
    for (i, &(x0, y0)) in points.iter().enumerate() {
        for &(x1, y1) in &points[i + 1..] {
            if x1 != x0 {
                slopes.push((y1 - y0) / (x1 - x0));
            }
        }
    }
    let slope = median(&slopes);
    median(&points.iter().map(|&(x, y)| y - slope * x).collect::<Vec<_>>())
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nanoseconds in a duration, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Length of the windows a measured phase is cut into. Each
/// end-to-end figure is read from its per-window values at zero host
/// steal ([`zero_steal`]), a median-based estimate, so neither steal
/// nor another burst of noise from outside the process that covers
/// part of the run moves it.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Windows in a phase of `dur`: one per [`WINDOW`], at least 10.
pub fn windows_in(dur: Duration) -> u32 {
    ((dur.as_secs_f64() / WINDOW.as_secs_f64()) as u32).max(10)
}

/// Latency histogram with bounded memory whatever the run length:
/// exact below 128 ns, then 64 log-linear buckets per power of two
/// (each bucket under 1.6 % wide).
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

const EXACT: u64 = 128;
const SUB_BITS: u32 = 6;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; Self::index(u64::MAX) + 1],
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // ≥ 7
        let shift = e - SUB_BITS;
        let m = (v >> shift) - (1 << SUB_BITS);
        (EXACT + u64::from(e - 7) * (1 << SUB_BITS) + m) as usize
    }

    /// The values bucket `i` holds, as `(lowest, count)`.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < EXACT {
            return (i as f64, 1.0);
        }
        let e = (i - EXACT) / (1 << SUB_BITS) + 7;
        let m = (i - EXACT) % (1 << SUB_BITS) + (1 << SUB_BITS);
        let shift = e - u64::from(SUB_BITS);
        ((m << shift) as f64, (1u64 << shift) as f64)
    }

    /// Adds one sample.
    pub fn add(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile `p` (0–100), placed inside its bucket
    /// by the rank's position among the bucket's samples (so it moves
    /// smoothly with the data instead of snapping to bucket edges); 0
    /// for no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            let before = seen;
            seen += u64::from(c);
            if seen >= rank {
                let (low, width) = Self::bounds(i);
                let at = (rank - before) as f64 - 0.5;
                return low + (width - 1.0) * at / f64::from(c);
            }
        }
        unreachable!("rank {rank} is within the {} samples", self.n)
    }
}

/// What one window of a phase completed: characters and latencies.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Input characters completed.
    pub chars: u64,
    /// Latencies of the operations completed, ns.
    pub latency: Hist,
}

impl Tally {
    fn add(&mut self, latency: Duration, chars: u64) {
        self.chars += chars;
        self.latency.add(nanos(latency));
    }
}

/// Operations another thread completes during a phase of `dur`,
/// tallied into the phase's fixed windows by completion time.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    window: Duration,
    tallies: Vec<Tally>,
}

impl Recorder {
    /// A recorder for a phase of `dur` starting at `epoch` (one
    /// window when `dur` is zero).
    pub fn new(epoch: Instant, dur: Duration) -> Self {
        let n = if dur.is_zero() { 1 } else { windows_in(dur) };
        Recorder {
            epoch,
            window: dur / n,
            tallies: vec![Tally::default(); n as usize],
        }
    }

    /// Records one operation completing now; late completions (the
    /// drain after the deadline) count in the last window.
    pub fn op(&mut self, latency: Duration, chars: u64) {
        let at = self.epoch.elapsed().as_nanos() / self.window.as_nanos().max(1);
        let last = self.tallies.len() - 1;
        self.tallies[(at as usize).min(last)].add(latency, chars);
    }
}

/// The figures of one window of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Characters per second, in millions.
    pub mchar_s: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 90th-percentile latency, µs.
    pub p90_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Process CPU per character, ns.
    pub cpu_ns_per_char: f64,
    /// Host CPU steal during the window, as a share of the wall time
    /// of all cores.
    pub steal_frac: f64,
}

/// What one measured phase observed.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Input characters completed.
    pub chars: u64,
    /// Wall-clock time of the phase, oracle checks excluded.
    pub wall: Duration,
    /// Latency samples taken.
    pub samples: u64,
    /// Per-window figures, in time order.
    pub windows: Vec<Window>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Host CPU steal during the phase, as a share of the wall time of
    /// all cores.
    pub steal_frac: f64,
}

impl Phase {
    /// Folds in a later segment of the same phase.
    pub fn merge(&mut self, other: Phase) {
        let (a, b) = (self.wall.as_secs_f64(), other.wall.as_secs_f64());
        self.steal_frac = (self.steal_frac * a + other.steal_frac * b) / (a + b).max(1e-9);
        self.chars += other.chars;
        self.wall += other.wall;
        self.samples += other.samples;
        self.windows.extend(other.windows);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// A figure at zero host steal: the Theil–Sen line of the
    /// per-window figure against the per-window steal, read at steal 0.
    fn over_windows(&self, f: impl Fn(&Window) -> f64) -> f64 {
        let points: Vec<(f64, f64)> = self.windows.iter().map(|w| (w.steal_frac, f(w))).collect();
        zero_steal(&points)
    }

    /// Characters per second in millions, at zero host steal.
    pub fn mchar_s(&self) -> f64 {
        self.over_windows(|w| w.mchar_s)
    }

    /// Writes the end-to-end metrics this phase measured (everything
    /// but `setup_s` and `peak_rss_mib`) into `report`.
    pub fn report_end_to_end(&self, report: &mut crate::Report) {
        report.set("throughput_mchar_s", self.mchar_s());
        report.set("latency_p50_us", self.over_windows(|w| w.p50_us));

        report.set("cpu_ns_per_char", self.over_windows(|w| w.cpu_ns_per_char));
        report.note(format!(
            "measured {} chars in {:.3} s over {} operations ({} latency samples, \
             figures at zero steal over {} windows)",
            self.chars,
            self.wall.as_secs_f64(),
            self.attempted,
            self.samples,
            self.windows.len()
        ));
        report.note(format!(
            "host CPU steal during the phase: {:.2}% of all cores' time",
            self.steal_frac * 100.0
        ));
        report.note(format!(
            "latency_p90_us {:?} us, latency_p99_us {:?} us (printed, not listed: \
             too unsteady between runs)",
            self.over_windows(|w| w.p90_us),
            self.over_windows(|w| w.p99_us)
        ));
        let list = |f: fn(&Window) -> f64| {
            let v: Vec<String> = self
                .windows
                .iter()
                .map(|w| format!("{:.4}", f(w)))
                .collect();
            v.join(" ")
        };
        report.note(format!("windows mchar_s: {}", list(|w| w.mchar_s)));
        report.note(format!("windows p50_us: {}", list(|w| w.p50_us)));
        report.note(format!("windows p90_us: {}", list(|w| w.p90_us)));
        report.note(format!("windows p99_us: {}", list(|w| w.p99_us)));
        report.note(format!(
            "windows cpu_ns_per_char: {}",
            list(|w| w.cpu_ns_per_char)
        ));
        report.note(format!("windows steal_frac: {}", list(|w| w.steal_frac)));
    }
}

/// Where a window ended, counted from the start of its phase.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    /// Busy time (wall time minus oracle checks), ns.
    busy: u64,
    /// Process CPU, oracle checks excluded.
    cpu: Duration,
    /// Wall time, ns.
    wall: u64,
    /// Host CPU steal.
    steal: Duration,
}

/// Accumulates one phase: operations with their latencies and
/// characters, and oracle checks whose wall and CPU time are taken
/// out of the measurement. Windows end at marks, where process CPU is
/// sampled: a windowed meter marks at the first operation to complete
/// past each nominal boundary (so windows hold whole operations); a
/// multi-threaded phase marks at fixed instants with [`mark`](Self::mark).
#[derive(Debug)]
pub struct Meter {
    started: Instant,
    cpu0: Duration,
    steal0: Duration,
    excluded_wall: Duration,
    excluded_cpu: Duration,
    /// Nominal window length, ns (`None`: windows end only at marks).
    window: Option<u64>,
    /// Window ends.
    marks: Vec<Mark>,
    /// One tally per window, the last one still open.
    tallies: Vec<Tally>,
    attempted: u64,
    failed: u64,
}

impl Meter {
    /// Starts the clocks of a phase whose windows end only at marks
    /// (one window if it is never marked).
    pub fn start() -> Self {
        let cpu0 = process_cpu();
        Meter {
            started: Instant::now(),
            cpu0,
            steal0: host_steal(),
            excluded_wall: Duration::ZERO,
            excluded_cpu: Duration::ZERO,
            window: None,
            marks: Vec::new(),
            tallies: vec![Tally::default()],
            attempted: 0,
            failed: 0,
        }
    }

    /// Starts the clocks of a phase of `dur`, cut into
    /// [`windows_in`]`(dur)` windows.
    pub fn windowed(dur: Duration) -> Self {
        Meter {
            window: Some(nanos(dur / windows_in(dur)).max(1)),
            ..Self::start()
        }
    }

    /// The instant the phase started.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Busy time so far: wall time minus oracle checks.
    pub fn busy(&self) -> Duration {
        self.started.elapsed().saturating_sub(self.excluded_wall)
    }

    /// Ends the current window now.
    pub fn mark(&mut self) {
        let busy = nanos(self.busy());
        let cpu = process_cpu()
            .saturating_sub(self.cpu0)
            .saturating_sub(self.excluded_cpu);
        self.marks.push(Mark {
            busy,
            cpu,
            wall: nanos(self.started.elapsed()),
            steal: host_steal().saturating_sub(self.steal0),
        });
        self.tallies.push(Tally::default());
    }

    /// Records one completed operation.
    pub fn op(&mut self, latency: Duration, chars: u64) {
        self.attempted += 1;
        self.tallies
            .last_mut()
            .expect("a window is open")
            .add(latency, chars);
        if let Some(w) = self.window {
            if nanos(self.busy()) >= w * self.tallies.len() as u64 {
                self.mark();
            }
        }
    }

    /// Folds in a recorder's windows (one per mark, plus the open
    /// window) and `attempted`/`failed` counts from another thread.
    pub fn absorb(&mut self, recorder: &Recorder, attempted: u64, failed: u64) {
        for (mine, theirs) in self.tallies.iter_mut().zip(&recorder.tallies) {
            mine.chars += theirs.chars;
            mine.latency.merge(&theirs.latency);
        }
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records one failed operation (already counted by [`op`](Self::op)
    /// or not).
    pub fn fail(&mut self, counted: bool) {
        self.failed += 1;
        if !counted {
            self.attempted += 1;
        }
    }

    /// Runs an oracle check on this thread, keeping its wall and CPU
    /// time out of the phase.
    pub fn check<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (t, c) = (Instant::now(), thread_cpu());
        let out = f();
        self.excluded_cpu += thread_cpu().saturating_sub(c);
        self.excluded_wall += t.elapsed();
        out
    }

    /// Stops the clocks and computes each window's figures.
    pub fn finish(mut self) -> Phase {
        self.mark();
        self.tallies.pop(); // opened by the final mark
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut windows = Vec::new();
        let mut from = Mark::default();
        for (tally, &to) in self.tallies.iter().zip(&self.marks) {
            let span = to.busy - from.busy;
            let cpu = to.cpu.saturating_sub(from.cpu);
            let steal = to.steal.saturating_sub(from.steal);
            let wall = (to.wall - from.wall) as f64 * cores as f64;
            from = to;
            // Skip windows with no work, and the stub a windowed phase
            // leaves when its last operation overruns the deadline.
            if tally.latency.n == 0 || self.window.is_some_and(|w| span < w / 2) {
                continue;
            }
            windows.push(Window {
                mchar_s: tally.chars as f64 / span.max(1) as f64 * 1e3,
                p50_us: tally.latency.percentile(50.0) / 1e3,
                p90_us: tally.latency.percentile(90.0) / 1e3,
                p99_us: tally.latency.percentile(99.0) / 1e3,
                cpu_ns_per_char: cpu.as_nanos() as f64 / tally.chars.max(1) as f64,
                steal_frac: steal.as_nanos() as f64 / wall.max(1.0),
            });
        }
        let steal = host_steal().saturating_sub(self.steal0);
        Phase {
            steal_frac: steal.as_secs_f64()
                / (self.started.elapsed().as_secs_f64() * cores as f64).max(1e-9),
            chars: self.tallies.iter().map(|t| t.chars).sum(),
            wall: self.busy(),
            samples: self.tallies.iter().map(|t| t.latency.n).sum(),
            windows,
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

/// Segments of each kind a traced run alternates.
const TRACE_ROUNDS: u32 = 3;

/// Measures `dur` untraced and `dur` traced, in alternating segments
/// (untraced first), and returns the two phases. Alternating puts
/// drift in the host's speed and the program's warm-up on both sides
/// alike, so their difference is the tracing overhead.
/// `segment(traced, length)` measures one segment.
///
/// # Errors
///
/// The first segment's error.
pub fn alternate(
    dur: Duration,
    mut segment: impl FnMut(bool, Duration) -> Result<Phase, String>,
) -> Result<(Phase, Phase), String> {
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    for _ in 0..TRACE_ROUNDS {
        plain.merge(segment(false, dur / TRACE_ROUNDS)?);
        traced.merge(segment(true, dur / TRACE_ROUNDS)?);
    }
    Ok((plain, traced))
}

/// Runs `reps` set-ups and returns the set-up time in seconds read at
/// zero host steal over them ([`zero_steal`]; their median when the
/// host stole nothing), the state the last one built, and the warm-up operations of all of
/// them. Each set-up gets a [`Meter`] for its warm-up pass; oracle
/// checks made through it are left out of the set-up time. Earlier
/// states are dropped, which tears them down, before the next set-up.
///
/// # Errors
///
/// The first set-up error.
pub fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut(&mut Meter) -> Result<T, String>,
) -> Result<(f64, T, Phase), String> {
    let mut times = Vec::with_capacity(reps);
    let mut steal = Vec::with_capacity(reps);
    let mut warm = Phase::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let mut meter = Meter::start();
        let state = setup(&mut meter)?;
        let phase = meter.finish();
        times.push(phase.wall.as_secs_f64());
        steal.push(phase.steal_frac);
        warm.attempted += phase.attempted;
        warm.failed += phase.failed;
        last = Some(state);
    }
    eprintln!("set-up times (s): {times:?}");
    eprintln!("set-up host steal: {steal:?}");
    let points: Vec<(f64, f64)> = steal.into_iter().zip(times).collect();
    Ok((zero_steal(&points), last.expect("at least one set-up ran"), warm))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_percentiles_are_within_a_bucket() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.add(v * 1000);
        }
        for p in [1.0, 50.0, 99.0, 100.0] {
            let exact = (p / 100.0 * 10_000.0) * 1000.0;
            let got = h.percentile(p);
            assert!(
                (got - exact).abs() / exact < 0.016,
                "p{p}: {got} vs {exact}"
            );
        }
        let mut small = Hist::default();
        small.add(5);
        assert_eq!(small.percentile(50.0), 5.0);
        assert_eq!(Hist::index(u64::MAX) + 1, small.counts.len());
    }

    #[test]
    fn zero_steal_reads_the_robust_line_at_zero() {
        // y = 8 − 10 x, with one window wrecked by something else.
        let mut points: Vec<(f64, f64)> =
            (0..10).map(|i| (0.03 * f64::from(i), 8.0 - 0.3 * f64::from(i))).collect();
        points[4].1 = 1.0;
        assert!((zero_steal(&points) - 8.0).abs() < 1e-9);
        // No steal at all: the median window.
        let flat = [(0.0, 3.0), (0.0, 9.0), (0.0, 5.0)];
        assert_eq!(zero_steal(&flat), 5.0);
    }
}

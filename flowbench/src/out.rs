//! Run bookkeeping shared by every workload: set-up repetitions, host
//! context over the timed phase, output checks, and the result line.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use flowgnn_core::serve::percentile_nearest_rank;
use flowgnn_core::RequestRecord;
use flowgnn_desim::cycles_to_us;

use crate::calib::{HostSpeed, UNIT_REF_S};
use crate::trace::{Tracer, NO_PARENT};

/// Set-up is repeated this many times per run and its median reported,
/// so one slow repetition does not move `setup_s`.
const SETUP_REPS: usize = 5;

/// End-to-end metrics (`--trace 0`): every workload reports every one.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("sim_us_per_graph", "us"),
    ("sim_p99_us", "us"),
    ("sim_max_rate_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`), named after the repository's
/// modules. A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("graph.gen_s", "s"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("engine.prepare.calls", "count"),
    ("engine.prepare.busy_s", "s"),
    ("engine.prepare.ns_per_edge", "ns"),
    ("engine.run.calls", "count"),
    ("engine.run.busy_s", "s"),
    ("engine.run.host_ns_per_sim_cycle", "ns"),
    ("engine.run.sim_cycles", "cycles"),
    ("engine.run.utilization", "fraction"),
    ("engine.run.stalled_fraction", "fraction"),
    ("engine.run.nt_stall_cycles", "cycles"),
    ("engine.run.mp_stall_cycles", "cycles"),
    ("exec.functional_s", "s"),
    ("exec.functional_share", "fraction"),
    ("tensor.macs", "count"),
    ("tensor.gmacs_per_s", "1e9/s"),
    ("cache.lookups", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "fraction"),
    ("cache.trace_s", "s"),
    ("cache.fingerprint_s", "s"),
    ("serve.sim.calls", "count"),
    ("serve.sim.busy_s", "s"),
    ("serve.sim.ns_per_request", "ns"),
    ("serve.fleet.calls", "count"),
    ("serve.fleet.busy_s", "s"),
    ("serve.fleet.ns_per_request", "ns"),
    ("serve.fleet.drop_share", "fraction"),
    ("serve.fleet.displaced", "count"),
    ("serve.fleet.mean_wait_us", "us"),
    ("serve.fleet.utilization.accel", "fraction"),
    ("serve.fleet.utilization.edge", "fraction"),
    ("serve.live.lag_ms.p50", "ms"),
    ("serve.live.lag_ms.p99", "ms"),
    ("serve.live.wait_ms.p50", "ms"),
    ("serve.live.wait_ms.p99", "ms"),
    ("serve.live.service_ms.p50", "ms"),
    ("serve.live.p50_ms.low", "ms"),
    ("serve.live.p99_ms.low", "ms"),
    ("serve.live.p50_ms.high", "ms"),
    ("serve.live.p99_ms.high", "ms"),
    ("serve.live.completed", "count"),
    ("serve.live.refused", "count"),
    ("serve.live.worker_setup_s", "s"),
    ("metrics.overhead_pct", "%"),
    ("trace.coverage", "fraction"),
];

/// Host counters read at the start and end of the timed phase. They
/// explain noise; they never drop or re-weight a run.
#[derive(Clone, Copy, Default)]
struct HostSample {
    steal_ticks: u64,
    thread_cpu_ns: u64,
    runq_delay_ns: u64,
}

impl HostSample {
    fn read() -> Self {
        let steal_ticks = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                // "cpu  user nice system idle iowait irq softirq steal ..."
                s.lines()
                    .next()
                    .and_then(|l| l.split_whitespace().nth(8))
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(0);
        let sched: Vec<u64> = std::fs::read_to_string("/proc/thread-self/schedstat")
            .map(|s| {
                s.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        Self {
            steal_ticks,
            thread_cpu_ns: sched.first().copied().unwrap_or(0),
            runq_delay_ns: sched.get(1).copied().unwrap_or(0),
        }
    }
}

/// One benchmark invocation's state and results.
pub struct Run {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Host-speed calibration; host-time metrics are divided by it.
    pub speed: HostSpeed,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    values: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    /// Raw set-up durations and the host's slowdown around each.
    setup_samples: Vec<(f64, f64)>,
    timed: Option<(Instant, HostSample)>,
    host_line: String,
    notes: Vec<String>,
}

impl Run {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            tracer: Tracer::new(trace),
            speed: HostSpeed::new(),
            attempted: 0,
            values: BTreeMap::new(),
            checks: Vec::new(),
            setup_samples: Vec::new(),
            timed: None,
            host_line: String::new(),
            notes: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records one output check; a failed check fails the run.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// A free-form line printed with the results.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Runs the set-up `SETUP_REPS` times, reports the median duration as
    /// `setup_s`, and returns the last repetition's state. Each
    /// repetition's duration is divided by the host's slowdown, measured
    /// by calibration bursts just before and after it. Only the last
    /// repetition is traced, so per-layer set-up figures describe one
    /// set-up.
    pub fn setup<T>(&mut self, mut f: impl FnMut(&mut Tracer, usize) -> T) -> T {
        let mut state = None;
        for rep in 0..SETUP_REPS {
            drop(state.take());
            let last = rep + 1 == SETUP_REPS;
            let mut quiet = Tracer::new(false);
            let before = self.speed.burst();
            let tracer = if last { &mut self.tracer } else { &mut quiet };
            let start = Instant::now();
            let root = tracer.open("setup", NO_PARENT);
            state = Some(f(tracer, root));
            tracer.close(root);
            let raw = start.elapsed().as_secs_f64();
            let slowdown = (before + self.speed.burst()) / 2.0 / UNIT_REF_S;
            self.setup_samples.push((raw, slowdown));
        }
        let normalised: Vec<f64> = self.setup_samples.iter().map(|(r, s)| r / s).collect();
        self.set("setup_s", median(&normalised));
        state.expect("at least one set-up repetition")
    }

    /// Sets `throughput_per_s` from `work` done in `elapsed_s` of the
    /// timed phase, `calib_s` of which went to calibration units: the
    /// rate at the reference host's speed. The raw rate is printed.
    pub fn set_throughput(&mut self, work: f64, elapsed_s: f64, calib_s: f64) {
        let raw = work / (elapsed_s - calib_s);
        let slowdown = self.speed.slowdown();
        self.note(format!(
            "host rate {raw:.1}/s over {:.3} s of work; slowdown {slowdown:.4} from {} calibration units",
            elapsed_s - calib_s,
            self.speed.samples()
        ));
        let summary = self.speed.summary();
        self.note(summary);
        self.set("throughput_per_s", raw * slowdown);
    }

    /// Marks the start of the timed phase (host counters are read here,
    /// on the timed thread).
    pub fn timed_begin(&mut self) {
        self.speed.restart();
        self.timed = Some((Instant::now(), HostSample::read()));
    }

    /// Marks the end of the timed phase and records the host context.
    pub fn timed_end(&mut self) {
        let end = HostSample::read();
        let (start_at, start) = self.timed.take().expect("timed_begin called first");
        self.host_line = format!(
            "host: nproc={} kernels={} timed_wall_s={:.3} steal_ticks={} \
             thread_cpu_s={:.3} runq_delay_s={:.4}",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            flowgnn_tensor::simd::kernel_path(),
            start_at.elapsed().as_secs_f64(),
            end.steal_ticks.saturating_sub(start.steal_ticks),
            end.thread_cpu_ns.saturating_sub(start.thread_cpu_ns) as f64 / 1e9,
            end.runq_delay_ns.saturating_sub(start.runq_delay_ns) as f64 / 1e9,
        );
    }

    /// Prints every table and the result line; writes the trace file.
    pub fn finish(mut self) -> ExitCode {
        self.set("peak_rss_mb", peak_rss_mb());
        for (name, _) in END_TO_END {
            let v = self.get(name);
            self.check(
                format!("{name} is finite and positive"),
                v.is_finite() && v > 0.0,
            );
        }
        let failed_checks = self.checks.iter().filter(|(_, ok)| !ok).count() as u64;
        let correct = failed_checks == 0;

        println!(
            "flowbench {} seed={} seconds={} trace={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced())
        );
        println!("{}", self.host_line);
        println!(
            "setup_s samples (raw s, slowdown): {:?}",
            self.setup_samples
        );
        for line in &self.notes {
            println!("{line}");
        }
        println!(
            "end-to-end{}:",
            if self.traced() { " (traced run)" } else { "" }
        );
        for (name, unit) in END_TO_END {
            println!("  {name:<20} {:>16.6} {unit}", self.get(name));
        }
        if self.traced() {
            println!("per-layer:");
            for (name, unit) in PER_LAYER {
                println!("  {name:<34} {:>18.6} {unit}", self.get(name));
            }
            println!("self time by span (calls, total s, self s):");
            for (name, calls, total, own) in self.tracer.self_times() {
                println!("  {name:<26} {calls:>9} {total:>12.6} {own:>12.6}");
            }
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
            let path = format!("{dir}/{}-seed{}.json", self.workload, self.seed);
            match std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, self.tracer.chrome_json()))
            {
                Ok(()) => println!("trace: {} spans -> {path}", self.tracer.spans().len()),
                Err(e) => println!("trace: not written ({e})"),
            }
        }
        println!("checks:");
        for (name, ok) in &self.checks {
            println!("  [{}] {name}", if *ok { "ok" } else { "FAIL" });
        }

        let table: &[(&str, &str)] = if self.traced() {
            &PER_LAYER
        } else {
            &END_TO_END
        };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            failed_checks,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The refused share a served rate may reach and still count as
/// holding its objective.
const MAX_REFUSED: f64 = 0.01;
/// Step between the rates of every max-rate search: 3%, so the highest
/// rate that holds an objective is resolved to 3%.
const RATE_STEP: f64 = 1.03;

/// `steps` rates of a geometric grid starting at `lo`.
pub fn rate_grid(lo: f64, steps: usize) -> impl Iterator<Item = f64> {
    (0..steps).map(move |k| lo * RATE_STEP.powi(k as i32))
}

/// The highest rate, walking up the grid, up to which every outcome
/// `(rate, p99_us, refused_share)` holds p99 ≤ `objective_us` with at
/// most [`MAX_REFUSED`] refused; 0 when the lowest rate fails. Outcomes
/// are drawn lazily, so a caller may compute them on demand.
pub fn max_rate(outcomes: impl IntoIterator<Item = (f64, f64, f64)>, objective_us: f64) -> f64 {
    outcomes
        .into_iter()
        .take_while(|&(_, p99, refused)| p99 <= objective_us && refused <= MAX_REFUSED)
        .map(|(rate, _, _)| rate)
        .last()
        .unwrap_or(0.0)
}

/// p99 sojourn in µs of simulated requests, a refused request counting
/// as missing every limit; and the number of samples beyond it.
pub fn sojourn_p99_us<'a>(records: impl Iterator<Item = &'a RequestRecord>) -> (f64, usize) {
    let mut us: Vec<f64> = records
        .map(|r| {
            if r.dropped {
                f64::INFINITY
            } else {
                cycles_to_us(r.sojourn_cycles())
            }
        })
        .collect();
    us.sort_by(f64::total_cmp);
    tail(&us, 99.0)
}

/// Nearest-rank percentile `p` of an ascending-sorted sample, with the
/// number of samples strictly beyond it (NaN and 0 for no samples).
pub fn tail(sorted: &[f64], p: f64) -> (f64, usize) {
    match percentile_nearest_rank(sorted, p) {
        Ok(v) => (v, sorted.iter().filter(|&&x| x > v).count()),
        Err(_) => (f64::NAN, 0),
    }
}

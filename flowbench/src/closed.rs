//! The two closed-loop workloads: one thread streams raw graphs through
//! one accelerator at batch size 1, preparing and running each graph as
//! it arrives (the paper's no-pre-processing regime). The next graph
//! enters only when the previous one is done.
//!
//! - `molhiv_gin_full`: the paper's GIN with edge embeddings in
//!   `ExecutionMode::Full`; functional compute dominates host time.
//! - `hep_gcn_timing`: GCN on HEP kNN graphs in `TimingOnly` mode with
//!   the fast-forward engine; the cycle engine does all the work.

use std::time::Instant;

use flowgnn_core::serve::sim::serve_trace;
use flowgnn_core::{
    Accelerator, ArchConfig, ArrivalProcess, EngineMetrics, EngineMode, ExecutionMode, Registry,
    RunReport, ServeConfig, SimScratch,
};
use flowgnn_desim::cycles_to_us;
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_graph::Graph;
use flowgnn_models::{reference, GnnModel};
use flowgnn_tensor::ops;

use crate::calib::UNIT_REF_S;
use crate::out::{max_rate, rate_grid, sojourn_p99_us, Run};
use crate::trace::{NO_PARENT, NO_REQ};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GinFull,
    HepTiming,
}

/// The exact metrics are taken over this many graphs, the first ones of
/// the stream, which every run completes whatever the host's speed.
const MEASURED: usize = 2000;
/// Graphs run through the engine in set-up, so scratch buffers are
/// sized and caches warm before timing starts.
const WARMUP: usize = 64;
/// Graphs whose outputs are checked after the timed phase.
const CHECKED: usize = 20;
/// Segment rates, raw and at the reference host's speed, are printed to
/// show how the host's speed drifts within a run and what calibration
/// leaves of it.
const SEGMENT_S: f64 = 1.0;
/// Graphs timed by the traced run's functional split (the metrics A/B
/// uses twice as many).
const SPLIT_GRAPHS: usize = 200;
/// Output tolerance against the reference executor, relative to the
/// output norm (the tolerance of `examples/quickstart.rs`).
const TOLERANCE: f32 = 5e-3;

impl Kind {
    fn dataset(self) -> DatasetKind {
        match self {
            Kind::GinFull => DatasetKind::MolHiv,
            Kind::HepTiming => DatasetKind::Hep,
        }
    }

    /// Distinct graphs generated per run. MolHIV graphs are small, so
    /// every graph the GIN loop runs is a new one; HEP graphs are large
    /// and the timing-only loop cycles through its pool.
    fn pool(self) -> usize {
        match self {
            Kind::GinFull => 30_000,
            Kind::HepTiming => 2_000,
        }
    }

    fn model(self) -> GnnModel {
        let spec = DatasetSpec::standard(self.dataset());
        match self {
            Kind::GinFull => GnnModel::gin(spec.node_feat_dim(), spec.edge_feat_dim(), 42),
            Kind::HepTiming => GnnModel::gcn(spec.node_feat_dim(), 11),
        }
    }

    /// Open-loop figures of one modelled accelerator serving these
    /// graphs: the reference rate, the sojourn objective, and the lowest
    /// rate of the rate grid (requests per simulated second).
    fn serving(self) -> (f64, f64, f64) {
        match self {
            Kind::GinFull => (40_000.0, 50.0, 25_000.0),
            Kind::HepTiming => (9_000.0, 250.0, 5_500.0),
        }
    }

    fn config(self) -> ArchConfig {
        match self {
            Kind::GinFull => ArchConfig::default(),
            Kind::HepTiming => ArchConfig::default().with_execution(ExecutionMode::TimingOnly),
        }
    }
}

/// `n` graphs of `kind`'s dataset for `seed`. A preset stream holds the
/// dataset's published graph count; longer pools chain streams of
/// derived seeds.
pub fn dataset_graphs(kind: DatasetKind, seed: u64, n: usize) -> Vec<Graph> {
    let mut graphs = Vec::with_capacity(n);
    let mut chunk = 0u64;
    while graphs.len() < n {
        let spec =
            DatasetSpec::standard(kind).seed(seed.wrapping_add(chunk.wrapping_mul(0x9E37_79B9)));
        graphs.extend(spec.stream().take(n - graphs.len()));
        chunk += 1;
    }
    graphs
}

/// What the timed phase keeps of each of the first [`MEASURED`] graphs.
struct Measured {
    cycles: Vec<u64>,
    utilization: f64,
    stalled: f64,
    nt_stall: u64,
    mp_stall: u64,
    checked: Vec<(usize, RunReport)>,
}

pub fn run(kind: Kind, run: &mut Run) {
    let seed = run.seed;
    let model = kind.model();
    let config = kind.config();
    let (graphs, acc, gen_s, mut scratch) = run.setup(|tr, root| {
        let start = Instant::now();
        let graphs = tr.time("graph.gen", root, NO_REQ, || {
            dataset_graphs(kind.dataset(), seed, kind.pool())
        });
        let gen_s = start.elapsed().as_secs_f64();
        let acc = tr.time("engine.compile", root, NO_REQ, || {
            Accelerator::new(model.clone(), config)
        });
        let mut scratch = SimScratch::default();
        tr.time("engine.warmup", root, NO_REQ, || {
            for g in graphs.iter().take(WARMUP) {
                acc.run_prepared(&acc.prepare(g), &mut scratch);
            }
        });
        (graphs, acc, gen_s, scratch)
    });
    run.set("graph.gen_s", gen_s);
    run.set(
        "graph.nodes",
        graphs.iter().map(|g| g.num_nodes() as f64).sum(),
    );
    run.set(
        "graph.edges",
        graphs.iter().map(|g| g.num_edges() as f64).sum(),
    );

    // The traced run attaches the engine's metrics bundle; it is
    // observation-only, which the A/B below checks.
    let timed_acc = if run.traced() {
        acc.clone()
            .with_metrics(EngineMetrics::new(&Registry::new()))
    } else {
        acc.clone()
    };
    let mut measured = Measured {
        cycles: Vec::with_capacity(MEASURED),
        utilization: 0.0,
        stalled: 0.0,
        nt_stall: 0,
        mp_stall: 0,
        checked: Vec::new(),
    };
    let mut seg_rates = Vec::new();
    let mut all_cycles = 0u64;
    let mut prepared_edges = 0u64;
    let mut macs = 0u64;
    let seconds = run.seconds;

    run.timed_begin();
    let root = run.tracer.open("timed", NO_PARENT);
    let start = Instant::now();
    let mut seg_start = start;
    let mut seg_graphs = 0usize;
    let (mut calib_s, mut seg_calib_s, mut seg_units) = (0.0, 0.0, 0usize);
    let mut done = 0usize;
    loop {
        let g = &graphs[done % graphs.len()];
        let tr = &mut run.tracer;
        let prepared = tr.time("engine.prepare", root, done as u64, || timed_acc.prepare(g));
        let report = tr.time("engine.run", root, done as u64, || {
            timed_acc.run_prepared(&prepared, &mut scratch)
        });
        all_cycles += report.total_cycles;
        prepared_edges += prepared.graph().num_edges() as u64;
        if kind == Kind::GinFull {
            macs += model.macs_per_graph(g.num_nodes(), g.num_edges());
        }
        if done < MEASURED {
            measured.cycles.push(report.total_cycles);
            measured.utilization += report.utilization() / MEASURED as f64;
            measured.stalled += report.stalled_fraction() / MEASURED as f64;
            measured.nt_stall += report.nt_stall_cycles;
            measured.mp_stall += report.mp_stall_cycles;
            if done.is_multiple_of(MEASURED / CHECKED) {
                measured.checked.push((done, report));
            }
        }
        done += 1;
        seg_graphs += 1;
        if run.speed.due() {
            let d = run
                .tracer
                .time("calib", root, NO_REQ, || run.speed.sample());
            (calib_s, seg_calib_s, seg_units) = (calib_s + d, seg_calib_s + d, seg_units + 1);
        }
        let now = Instant::now();
        let seg = (now - seg_start).as_secs_f64();
        if seg >= SEGMENT_S && seg_units > 0 {
            let raw = seg_graphs as f64 / (seg - seg_calib_s);
            seg_rates.push((raw, raw * seg_calib_s / seg_units as f64 / UNIT_REF_S));
            seg_start = now;
            (seg_graphs, seg_calib_s, seg_units) = (0, 0.0, 0);
        }
        if (now - start).as_secs_f64() >= seconds && done >= MEASURED {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    run.tracer.close(root);
    run.timed_end();
    run.attempted = done as u64;
    run.note(format!(
        "timed phase: {done} graphs in {elapsed:.3} s ({} distinct graphs); \
         one-second segment rates, raw {:?}, at reference speed {:?}",
        graphs.len().min(done),
        seg_rates.iter().map(|r| r.0.round()).collect::<Vec<_>>(),
        seg_rates.iter().map(|r| r.1.round()).collect::<Vec<_>>(),
    ));
    run.set_throughput(done as f64, elapsed, calib_s);
    let total: u64 = measured.cycles.iter().sum();
    run.set("sim_us_per_graph", cycles_to_us(total) / MEASURED as f64);
    serving_figures(kind, run, &measured.cycles);
    run.set("engine.run.sim_cycles", total as f64);
    run.set("engine.run.utilization", measured.utilization);
    run.set("engine.run.stalled_fraction", measured.stalled);
    run.set("engine.run.nt_stall_cycles", measured.nt_stall as f64);
    run.set("engine.run.mp_stall_cycles", measured.mp_stall as f64);

    check_outputs(kind, run, &model, config, &graphs, &measured.checked);

    if run.traced() {
        let prep_busy = run.tracer.busy_s("engine.prepare");
        let run_busy = run.tracer.busy_s("engine.run");
        run.set(
            "engine.prepare.calls",
            run.tracer.calls("engine.prepare") as f64,
        );
        run.set("engine.prepare.busy_s", prep_busy);
        run.set(
            "engine.prepare.ns_per_edge",
            prep_busy * 1e9 / prepared_edges as f64,
        );
        run.set("engine.run.calls", run.tracer.calls("engine.run") as f64);
        run.set("engine.run.busy_s", run_busy);
        run.set(
            "engine.run.host_ns_per_sim_cycle",
            run_busy * 1e9 / all_cycles as f64,
        );
        run.set("trace.coverage", run.tracer.coverage(root));
        if kind == Kind::GinFull {
            let share = functional_share(&acc, &model, config, &graphs);
            run.set("exec.functional_share", share);
            run.set("exec.functional_s", share * run_busy);
            run.set("tensor.macs", macs as f64);
            run.set("tensor.gmacs_per_s", macs as f64 / (share * run_busy) / 1e9);
        }
        metrics_ab(run, &acc, &graphs);
    }
}

/// Steps of the open-loop rate grid.
const RATES: usize = 32;
/// Admission queue bound of the modelled accelerator.
const QUEUE: usize = 64;
/// The replay offers the measured graphs this many times over, so the
/// p99 rests on many arrivals.
const REPLAY: usize = 10;

/// `sim_p99_us` and `sim_max_rate_per_s`: the measured graphs' modelled
/// service times replayed [`REPLAY`] times as seeded Poisson arrivals on one modelled
/// accelerator (`serve::sim::serve_trace`, outside the timed phase). The
/// p99 sojourn is taken at the reference rate, a refused request
/// counting as missing every limit; the max rate is the highest grid
/// rate up to which that p99 holds the objective with at most 1%
/// refused.
fn serving_figures(kind: Kind, run: &mut Run, cycles: &[u64]) {
    let (ref_rate, slo_us, rate_lo) = kind.serving();
    let seed = run.seed;
    let trace: Vec<u64> = cycles
        .iter()
        .cycle()
        .take(cycles.len() * REPLAY)
        .copied()
        .collect();
    let p99_at = |rate: f64| {
        let config = ServeConfig::builder()
            .arrivals(ArrivalProcess::poisson_rate(rate, seed ^ rate.to_bits()))
            .queue_capacity(QUEUE)
            .build()
            .expect("valid pool config");
        let report = serve_trace(&trace, &config).expect("non-empty trace");
        let (p99, beyond) = sojourn_p99_us(report.records.iter());
        (p99, beyond, report.drop_rate())
    };
    let (p99, beyond, _) = p99_at(ref_rate);
    let max_rate = max_rate(
        rate_grid(rate_lo, RATES).map(|rate| {
            let (p99, _, refused) = p99_at(rate);
            (rate, p99, refused)
        }),
        slo_us,
    );
    run.note(format!(
        "open-loop replay of {} requests: p99 {p99:.3} us at {ref_rate} req/s ({beyond} beyond it), \
         objective {slo_us} us held up to {max_rate:.0} req/s",
        trace.len()
    ));
    run.set("sim_p99_us", p99);
    run.set("sim_max_rate_per_s", max_rate);
}

/// Outside the timed phase: fast-forward cycles equal the reference
/// engine's, and (GIN) functional outputs match the reference executor.
fn check_outputs(
    kind: Kind,
    run: &mut Run,
    model: &GnnModel,
    config: ArchConfig,
    graphs: &[Graph],
    checked: &[(usize, RunReport)],
) {
    // Cycle counts do not depend on the execution mode, so the reference
    // engine runs timing-only.
    let oracle = Accelerator::new(
        model.clone(),
        config
            .with_engine(EngineMode::Reference)
            .with_execution(ExecutionMode::TimingOnly),
    );
    let mut cycle_mismatch = 0;
    let mut worst = 0.0f32;
    for (i, fast) in checked {
        let g = &graphs[i % graphs.len()];
        let slow = oracle.run(g);
        if (
            slow.total_cycles,
            slow.nt_busy_cycles,
            slow.mp_busy_cycles,
            slow.nt_stall_cycles,
            slow.mp_stall_cycles,
        ) != (
            fast.total_cycles,
            fast.nt_busy_cycles,
            fast.mp_busy_cycles,
            fast.nt_stall_cycles,
            fast.mp_stall_cycles,
        ) {
            cycle_mismatch += 1;
        }
        if kind == Kind::GinFull {
            let expected = reference::run(model, g);
            let got = fast.output.as_ref().and_then(|o| o.graph_output.as_ref());
            let want = expected.graph_output.as_ref();
            let diff = match (got, want) {
                (Some(a), Some(b)) if a.len() == b.len() => {
                    ops::max_abs_diff(a, b) / ops::norm(b).max(1.0)
                }
                _ => f32::INFINITY,
            };
            worst = worst.max(diff);
        }
    }
    run.check(
        format!(
            "fast-forward cycles equal reference-engine cycles on {} graphs ({cycle_mismatch} differ)",
            checked.len()
        ),
        cycle_mismatch == 0 && !checked.is_empty(),
    );
    if kind == Kind::GinFull {
        run.check(
            format!(
                "full-mode outputs match the reference executor on {} graphs (worst {worst:.2e} < {TOLERANCE:.0e})",
                checked.len()
            ),
            worst < TOLERANCE,
        );
    }
}

/// Share of engine-run host time spent in functional execution: full
/// runs against a timing-only twin on the same prepared graphs,
/// interleaved graph by graph so host drift hits both alike.
fn functional_share(
    acc: &Accelerator,
    model: &GnnModel,
    config: ArchConfig,
    graphs: &[Graph],
) -> f64 {
    let twin = Accelerator::new(
        model.clone(),
        config.with_execution(ExecutionMode::TimingOnly),
    );
    let mut scratch = SimScratch::default();
    let (mut full, mut timing) = (0.0, 0.0);
    for g in graphs.iter().take(SPLIT_GRAPHS) {
        let prepared = acc.prepare(g);
        let t = Instant::now();
        std::hint::black_box(acc.run_prepared(&prepared, &mut scratch));
        full += t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(twin.run_prepared(&prepared, &mut scratch));
        timing += t.elapsed().as_secs_f64();
    }
    ((full - timing) / full).max(0.0)
}

/// Host-time overhead of attaching `EngineMetrics`, and a check that it
/// leaves every cycle count unchanged. Each graph runs on the plain and
/// the metered accelerator back to back, alternating which goes first,
/// so host drift hits both alike.
fn metrics_ab(run: &mut Run, acc: &Accelerator, graphs: &[Graph]) {
    let metered = acc
        .clone()
        .with_metrics(EngineMetrics::new(&Registry::new()));
    let mut scratch = SimScratch::default();
    let mut timed = |a: &Accelerator, g: &Graph| {
        let t = Instant::now();
        let cycles = a.run_prepared(&a.prepare(g), &mut scratch).total_cycles;
        (t.elapsed().as_secs_f64(), cycles)
    };
    let (mut plain_s, mut metered_s) = (0.0, 0.0);
    let mut same = true;
    for (i, g) in graphs.iter().take(2 * SPLIT_GRAPHS).enumerate() {
        let ((tp, cp), (tm, cm)) = if i % 2 == 0 {
            let p = timed(acc, g);
            (p, timed(&metered, g))
        } else {
            let m = timed(&metered, g);
            (timed(acc, g), m)
        };
        plain_s += tp;
        metered_s += tm;
        same &= cp == cm;
    }
    run.set(
        "metrics.overhead_pct",
        (metered_s - plain_s) / plain_s * 100.0,
    );
    run.check(
        "attaching EngineMetrics leaves every cycle count unchanged",
        same,
    );
}

//! Kernel-path study: SIMD vs. scalar arithmetic, end to end.
//!
//! Two measurement layers, serialized together as `BENCH_kernel_simd.json`:
//!
//! 1. **Kernel microbenchmarks** — each `flowgnn_tensor` kernel that has a
//!    SIMD body (`dot`, `Linear::forward`) timed under the scalar
//!    reference path and the SIMD path, at the feature dimensions the
//!    paper's models actually use.
//! 2. **Saturated functional throughput** — the saturated fixed workloads
//!    of the throughput benchmark re-run with full (functional) execution
//!    under both kernel paths, reporting graphs-per-second before/after as
//!    the median of [`PASSES`] interleaved scalar/SIMD pass pairs.
//!
//! The runtime toggle ([`flowgnn_tensor::simd::set_scalar_kernels`]) is
//! flipped around each measurement and restored afterwards, so the study
//! can run inside a `repro` invocation regardless of `--scalar-kernels`.

use crate::microbench::Microbench;
use crate::{SampleSize, TextTable};
use flowgnn_core::{Accelerator, ArchConfig, EngineMode, ExecutionMode, PreparedGraph, SimScratch};
use flowgnn_graph::datasets::{DatasetKind, DatasetSpec};
use flowgnn_models::GnnModel;
use flowgnn_tensor::{ops, simd, Activation, Linear, WeightInit};
use std::time::Instant;

/// One kernel, timed under both paths.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel id, e.g. `dot_100`.
    pub kernel: String,
    /// Best per-iteration time on the scalar reference path.
    pub scalar_ns: f64,
    /// Best per-iteration time on the SIMD path.
    pub simd_ns: f64,
}

impl KernelRow {
    /// Scalar-over-SIMD speedup.
    pub fn speedup(&self) -> f64 {
        self.scalar_ns / self.simd_ns.max(1e-12)
    }
}

/// One saturated workload's functional throughput under both paths.
#[derive(Debug, Clone)]
pub struct SaturatedRow {
    /// Workload id (matches the throughput benchmark's names).
    pub workload: String,
    /// Graphs simulated per pass.
    pub graphs: usize,
    /// Graphs per wall-second of each scalar-kernel pass, in run order.
    pub scalar_passes: Vec<f64>,
    /// Graphs per wall-second of each SIMD-kernel pass; pass `i` ran
    /// right after scalar pass `i`.
    pub simd_passes: Vec<f64>,
}

impl SaturatedRow {
    /// Median scalar-kernel graphs per wall-second.
    pub fn scalar_graphs_per_second(&self) -> f64 {
        median(&self.scalar_passes)
    }

    /// Median SIMD-kernel graphs per wall-second.
    pub fn simd_graphs_per_second(&self) -> f64 {
        median(&self.simd_passes)
    }

    /// SIMD-over-scalar speedup of each interleaved pass pair.
    pub fn pass_speedups(&self) -> Vec<f64> {
        self.simd_passes
            .iter()
            .zip(&self.scalar_passes)
            .map(|(v, s)| v / s.max(1e-12))
            .collect()
    }

    /// SIMD-over-scalar functional throughput speedup: the median over
    /// the interleaved pass pairs, so one noisy pass cannot move it.
    pub fn speedup(&self) -> f64 {
        median(&self.pass_speedups())
    }
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count); `NaN` for an empty one.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `[min, max]` of a sample as a JSON array.
fn json_range(xs: &[f64], digits: usize) -> String {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("[{lo:.digits$}, {hi:.digits$}]")
}

/// The full study.
#[derive(Debug, Clone)]
pub struct KernelStudy {
    /// Microbenchmark rows.
    pub kernels: Vec<KernelRow>,
    /// Saturated functional workload rows.
    pub saturated: Vec<SaturatedRow>,
}

/// Hidden dimension of the paper's OGB models — the dominant kernel length.
const HIDDEN: usize = 100;

/// Times `f`'s best-of-batches per-iteration cost under one kernel path.
fn time_path<R>(scalar: bool, mut f: impl FnMut() -> R) -> f64 {
    simd::set_scalar_kernels(scalar);
    let mut c = Microbench::from_env();
    c.bench_function(if scalar { "scalar" } else { "simd" }, |b| b.iter(&mut f));
    c.results()[0].best_ns
}

fn kernel_rows() -> Vec<KernelRow> {
    let xs: Vec<f32> = (0..HIDDEN).map(|i| (i as f32 * 0.37).sin()).collect();
    let ys: Vec<f32> = (0..HIDDEN).map(|i| (i as f32 * 0.61).cos()).collect();
    let mut init = WeightInit::new(7);

    let mut rows = Vec::new();
    let mut bench = |kernel: &str, f: &mut dyn FnMut()| {
        let scalar_ns = time_path(true, &mut *f);
        let simd_ns = time_path(false, &mut *f);
        rows.push(KernelRow {
            kernel: kernel.to_string(),
            scalar_ns,
            simd_ns,
        });
    };

    bench(&format!("dot_{HIDDEN}"), &mut || {
        std::hint::black_box(ops::dot(&xs, &ys));
    });
    // The paper's square hidden transform, then GIN's γ MLP shapes
    // (hidden → 2·hidden → hidden), each on a dense input.
    for (in_dim, out_dim) in [(HIDDEN, HIDDEN), (HIDDEN, 2 * HIDDEN), (2 * HIDDEN, HIDDEN)] {
        let linear = Linear::from_init(in_dim, out_dim, Activation::Relu, &mut init);
        let x: Vec<f32> = (0..in_dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut out = Vec::new();
        bench(&format!("linear_forward_{in_dim}x{out_dim}"), &mut || {
            linear.forward_into(&x, &mut out)
        });
    }
    rows
}

/// The saturated fixed workloads: configurations in which the compute
/// units stream back-to-back, so the kernel arithmetic — not queue
/// traffic — is on the critical path. The OGB molecule graphs qualify
/// at default parallelism. HEP point clouds do **not** qualify at any
/// parallelism: per-graph cycle-machinery costs (event scheduling,
/// queue bookkeeping over ~10x more nodes) dominate their functional
/// runtime, capping any kernel speedup near 1.2x by Amdahl's law, so
/// they are measured in the throughput benchmark but excluded from
/// this kernel-gated set.
fn saturated_workloads() -> Vec<(String, DatasetKind, GnnModel, ArchConfig)> {
    let molhiv = DatasetSpec::standard(DatasetKind::MolHiv);
    let molpcba = DatasetSpec::standard(DatasetKind::MolPcba);
    vec![
        (
            "molhiv_gcn".into(),
            DatasetKind::MolHiv,
            GnnModel::gcn(molhiv.node_feat_dim(), 11),
            ArchConfig::default(),
        ),
        (
            "molhiv_gin".into(),
            DatasetKind::MolHiv,
            GnnModel::gin(molhiv.node_feat_dim(), molhiv.edge_feat_dim(), 7),
            ArchConfig::default(),
        ),
        (
            "molpcba_gin".into(),
            DatasetKind::MolPcba,
            GnnModel::gin(molpcba.node_feat_dim(), molpcba.edge_feat_dim(), 9),
            ArchConfig::default(),
        ),
        (
            "molhiv_gat".into(),
            DatasetKind::MolHiv,
            GnnModel::gat(molhiv.node_feat_dim(), 13),
            ArchConfig::default(),
        ),
    ]
}

/// Interleaved scalar/SIMD pass pairs per saturated workload. The
/// gated speedup is the median pair, which a single pass disturbed by
/// host noise cannot move.
pub const PASSES: usize = 5;

/// Functional graphs/second of one pass over pre-prepared graphs.
/// Preparation (region lowering, edge banking, arena packing) is
/// structural work identical on both kernel paths, so it stays outside
/// the timed loop — this is a *kernel* study.
fn functional_graphs_per_second(
    acc: &Accelerator,
    prepared: &[PreparedGraph],
    scratch: &mut SimScratch,
) -> f64 {
    let start = Instant::now();
    for p in prepared {
        std::hint::black_box(acc.run_prepared(p, scratch).total_cycles);
    }
    prepared.len() as f64 / start.elapsed().as_secs_f64().max(1e-12)
}

/// Runs the study at the given sample size, restoring the kernel path the
/// process started with.
pub fn measure(sample: SampleSize) -> KernelStudy {
    let was_scalar = simd::scalar_kernels();
    let kernels = kernel_rows();
    let mut saturated = Vec::new();
    for (name, kind, model, config) in saturated_workloads() {
        let stream = DatasetSpec::standard(kind).stream();
        let count = sample.resolve(stream.len());
        let graphs: Vec<_> = stream.take_prefix(count).collect();
        let acc = Accelerator::new(
            model.clone(),
            config
                .with_execution(ExecutionMode::Full)
                .with_engine(EngineMode::FastForward),
        );
        let prepared: Vec<PreparedGraph> = graphs.iter().map(|g| acc.prepare(g)).collect();
        let mut scratch = SimScratch::default();
        let (mut scalar_passes, mut simd_passes) = (Vec::new(), Vec::new());
        for _ in 0..PASSES {
            simd::set_scalar_kernels(true);
            scalar_passes.push(functional_graphs_per_second(&acc, &prepared, &mut scratch));
            simd::set_scalar_kernels(false);
            simd_passes.push(functional_graphs_per_second(&acc, &prepared, &mut scratch));
        }
        saturated.push(SaturatedRow {
            workload: name,
            graphs: graphs.len(),
            scalar_passes,
            simd_passes,
        });
    }
    simd::set_scalar_kernels(was_scalar);
    KernelStudy { kernels, saturated }
}

use crate::json::json_escape;

impl KernelStudy {
    /// Geometric-mean kernel speedup over the microbenchmark rows.
    pub fn geomean_kernel_speedup(&self) -> Option<f64> {
        if self.kernels.is_empty() {
            return None;
        }
        let log_sum: f64 = self.kernels.iter().map(|r| r.speedup().ln()).sum();
        Some((log_sum / self.kernels.len() as f64).exp())
    }

    /// Minimum saturated functional speedup (the acceptance-gated number).
    pub fn min_saturated_speedup(&self) -> Option<f64> {
        self.saturated
            .iter()
            .map(SaturatedRow::speedup)
            .min_by(f64::total_cmp)
    }

    /// Serializes the study as pretty-printed JSON (std-only writer).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmark\": \"kernel_simd\",\n  \"kernels\": [\n");
        for (i, r) in self.kernels.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"scalar_ns\": {:.2}, \"simd_ns\": {:.2}, \
                 \"speedup\": {:.3}}}{}\n",
                json_escape(&r.kernel),
                r.scalar_ns,
                r.simd_ns,
                r.speedup(),
                if i + 1 == self.kernels.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"saturated\": [\n");
        for (i, r) in self.saturated.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"graphs\": {}, \"passes\": {}, \
                 \"scalar_graphs_per_second\": {:.2}, \"scalar_range\": {}, \
                 \"simd_graphs_per_second\": {:.2}, \"simd_range\": {}, \
                 \"speedup\": {:.3}, \"speedup_range\": {}}}{}\n",
                json_escape(&r.workload),
                r.graphs,
                r.scalar_passes.len(),
                r.scalar_graphs_per_second(),
                json_range(&r.scalar_passes, 2),
                r.simd_graphs_per_second(),
                json_range(&r.simd_passes, 2),
                r.speedup(),
                json_range(&r.pass_speedups(), 3),
                if i + 1 == self.saturated.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"geomean_kernel_speedup\": {},\n",
            self.geomean_kernel_speedup()
                .map_or("null".to_string(), |s| format!("{s:.3}")),
        ));
        out.push_str(&format!(
            "  \"min_saturated_speedup\": {}\n}}\n",
            self.min_saturated_speedup()
                .map_or("null".to_string(), |s| format!("{s:.3}")),
        ));
        out
    }

    /// Human-readable rendering for the repro binary.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Kernel SIMD study (scalar vs. SIMD paths)",
            &["Row", "Scalar", "SIMD", "Speedup"],
        );
        for r in &self.kernels {
            t.row_owned(vec![
                r.kernel.clone(),
                format!("{:.1} ns", r.scalar_ns),
                format!("{:.1} ns", r.simd_ns),
                format!("{:.2}x", r.speedup()),
            ]);
        }
        for r in &self.saturated {
            t.row_owned(vec![
                format!("{} (functional)", r.workload),
                format!("{:.2} g/s", r.scalar_graphs_per_second()),
                format!("{:.2} g/s", r.simd_graphs_per_second()),
                format!("{:.2}x", r.speedup()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_shape_and_json() {
        let study = KernelStudy {
            kernels: vec![KernelRow {
                kernel: "dot_100".into(),
                scalar_ns: 80.0,
                simd_ns: 20.0,
            }],
            saturated: vec![SaturatedRow {
                workload: "hep_gcn".into(),
                graphs: 4,
                // Median pair 250/100 = 2.5 despite the noisy last pass.
                scalar_passes: vec![100.0, 100.0, 100.0, 100.0, 100.0],
                simd_passes: vec![250.0, 240.0, 260.0, 255.0, 20.0],
            }],
        };
        assert_eq!(study.geomean_kernel_speedup(), Some(4.0));
        assert_eq!(study.min_saturated_speedup(), Some(2.5));
        let j = study.to_json();
        assert!(j.contains("\"benchmark\": \"kernel_simd\""));
        assert!(j.contains("\"kernel\": \"dot_100\""));
        assert!(j.contains("\"min_saturated_speedup\": 2.500"));
        assert!(j.contains("\"passes\": 5"));
        assert!(j.contains("\"speedup_range\": [0.200, 2.600]"));
        let rendered = study.table().render();
        assert!(rendered.contains("hep_gcn (functional)"));
    }
}

//! `offline_lp`: the paper's headline job — GLP classic LP (Fig 4) — on
//! three Table-2 signatures, one `Engine::run` per operation.
//!
//! * `roadNet` — near-constant degree ≈2.8: the warp path.
//! * `aligraph` — average degree ≈3992: the CMS+HT shared-memory path.
//! * `youtube` — power-law: both paths.
//!
//! Each is sized so one run takes a similar wall time on a 2-vCPU VM, and
//! the driver cycles through them so every dataset sees the same machine
//! conditions. No serving layer runs: the engine, gpusim and the sketch
//! do all the work.

use crate::repeat::Fingerprint;
use crate::spans::Recorder;
use crate::stats::{median, tail};
use crate::{
    check_traced, host_jiffies, median_setup, mix, peak_rss_mb, self_metrics, steal_share, Metrics,
    Outcome, DATASETS, STEAL_RETRY,
};
use glp_baselines::{CpuLp, CpuLpConfig};
use glp_core::engine::GpuEngine;
use glp_core::{ClassicLp, Direction, Engine, LpProgram, LpRunReport, RunOptions};
use glp_gpusim::DeviceConfig;
use glp_graph::gen::{
    bipartite_interaction, community_powerlaw, road_network, BipartiteConfig,
    CommunityPowerLawConfig, RoadConfig,
};
use glp_graph::{Graph, Label};
use std::time::Instant;

/// Cycles (one run per dataset each) per requested second. A fixed
/// constant, never calibrated per run: the amount of work is a function
/// of `--seconds` alone, so every count repeats exactly.
const CYCLES_PER_SECOND: f64 = 4.0;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Generates the three graphs from `seed`.
fn generate(seed: u64) -> Vec<(&'static str, Graph)> {
    let road = road_network(&RoadConfig {
        // 150 x 150 grid, 70% of lattice edges: average degree 2.8.
        width: 150,
        height: 150,
        keep: 0.7,
        seed: mix(seed, 1),
    });
    let ali = bipartite_interaction(&BipartiteConfig {
        // 180 vertices with ~360k undirected interactions: degree ≈4000.
        num_users: 120,
        num_items: 60,
        num_interactions: 360_000,
        skew: 0.6,
        seed: mix(seed, 2),
    });
    let youtube = community_powerlaw(&CommunityPowerLawConfig {
        // youtube's Table-2 degree 5.27 at 1/64 of its vertices.
        num_vertices: 17_732,
        avg_degree: 5.27,
        gamma: 2.3,
        num_communities: 118,
        mixing: 0.08,
        seed: mix(seed, 3),
    });
    vec![
        (DATASETS[0], road),
        (DATASETS[1], ali),
        (DATASETS[2], youtube),
    ]
}

/// One measured LP run.
struct Run {
    dataset: usize,
    wall: f64,
    report: LpRunReport,
}

/// One pass over the schedule of runs.
struct Pass {
    runs: Vec<Run>,
    /// Wall of the whole pass, including the driver's own bookkeeping.
    elapsed: f64,
    /// Share of the machine's CPU time stolen during the pass.
    steal: f64,
    errors: Vec<String>,
}

fn pass(
    data: &[(&'static str, Graph)],
    reference: &[Vec<Label>],
    cycles: usize,
    rec: &mut Recorder,
) -> Pass {
    let opts = RunOptions::default();
    let mut runs = Vec::with_capacity(cycles * data.len());
    let mut errors = Vec::new();
    let host = host_jiffies();
    let started = Instant::now();
    rec.begin("driver.run", 0);
    for c in 0..cycles {
        for (d, (name, g)) in data.iter().enumerate() {
            let op = (c * data.len() + d) as u64;
            let mut engine = GpuEngine::titan_v();
            let mut prog = ClassicLp::new(g.num_vertices());
            rec.begin("engine.run", op);
            let t = Instant::now();
            let result = engine.run(g, &mut prog, &opts);
            let wall = t.elapsed().as_secs_f64();
            rec.end();
            match result {
                Ok(report) => {
                    if prog.labels() != reference[d].as_slice() {
                        errors.push(format!("{name} run {op}: labels differ from CpuLp"));
                    }
                    runs.push(Run {
                        dataset: d,
                        wall,
                        report,
                    });
                }
                Err(e) => errors.push(format!("{name} run {op}: {e}")),
            }
        }
    }
    rec.end();
    Pass {
        runs,
        elapsed: started.elapsed().as_secs_f64(),
        steal: steal_share(host, host_jiffies()),
        errors,
    }
}

/// Runs the workload. `trace` adds a second, traced pass for the
/// per-layer metrics.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let (setup_s, data) = median_setup(SETUP_REPEATS, || generate(seed));
    let cycles = ((seconds as f64 * CYCLES_PER_SECOND).round() as usize).max(1);
    let mut out = Outcome::default();

    // The engine-equivalence contract: GLP labels equal a CPU baseline's.
    let opts = RunOptions::default();
    let mut reference = Vec::with_capacity(data.len());
    for (name, g) in &data {
        // One harness thread: the labels do not depend on it, and the
        // default twelve would put a dozen malloc arenas into peak RSS.
        let mut cpu = CpuLp::omp(CpuLpConfig {
            threads: 1,
            ..CpuLpConfig::default()
        });
        let mut prog = ClassicLp::new(g.num_vertices());
        if let Err(e) = cpu.run(g, &mut prog, &opts) {
            out.fail(format!("{name}: CpuLp reference failed: {e}"));
        }
        reference.push(prog.labels().to_vec());
    }

    let mut plain = pass(&data, &reference, cycles, &mut Recorder::new(false));
    if plain.steal > STEAL_RETRY {
        let again = pass(&data, &reference, cycles, &mut Recorder::new(false));
        eprintln!(
            "steal {:.3} in the pass, {:.3} in its retry",
            plain.steal, again.steal
        );
        if again.steal < plain.steal {
            plain = again;
        }
    }
    out.attempted = (cycles * data.len()) as u64;
    out.failed += plain.errors.len() as u64;
    out.errors.extend(plain.errors.iter().cloned());
    fingerprint(&mut out.fingerprint, &data, &plain);
    for (d, (name, _)) in data.iter().enumerate() {
        let mut modeled = plain.runs.iter().filter(|r| r.dataset == d);
        let first = modeled.next().map(|r| r.report.modeled_seconds);
        if !modeled.all(|r| Some(r.report.modeled_seconds) == first) {
            out.fail(format!(
                "{name}: modeled time differs between identical runs"
            ));
        }
    }

    let walls: Vec<f64> = plain.runs.iter().map(|r| r.wall).collect();
    let modeled: f64 = plain.runs.iter().map(|r| r.report.modeled_seconds).sum();
    let n = plain.runs.len().max(1) as f64;
    // The pooled runs mix three datasets whose walls differ by tens of
    // percent, and the median of such a mixture jumps between them; the
    // mean of the per-dataset medians does not.
    let p50 = (0..data.len())
        .map(|d| median(&dataset_walls(&plain, d)))
        .sum::<f64>()
        / data.len() as f64;
    let e = &mut out.end_to_end;
    e.put("setup_s", setup_s, "s");
    e.put("throughput_per_s", n / walls.iter().sum::<f64>(), "1/s");
    e.put("latency_p50_ms", p50 * 1e3, "ms");
    e.put("modeled_ms", modeled / n * 1e3, "ms");

    if trace {
        let mut rec = Recorder::new(true);
        let traced = pass(&data, &reference, cycles, &mut rec);
        for e in &traced.errors {
            out.fail(format!("traced pass: {e}"));
        }
        let mut again = Fingerprint::default();
        fingerprint(&mut again, &data, &traced);
        let gap = per_layer(&mut out.per_layer, &data, &traced, &rec, plain.elapsed);
        out.per_layer.put(
            "quality.failed_share",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        );
        check_traced(&mut out, &again, gap, &rec, "offline_lp", seed);
    }
    out.end_to_end.put("peak_rss_mb", peak_rss_mb(), "MB");
    out
}

fn dataset_walls(p: &Pass, d: usize) -> Vec<f64> {
    p.runs
        .iter()
        .filter(|r| r.dataset == d)
        .map(|r| r.wall)
        .collect()
}

fn fingerprint(fp: &mut Fingerprint, data: &[(&'static str, Graph)], p: &Pass) {
    fp.count("runs", p.runs.len() as u64);
    for (d, (name, g)) in data.iter().enumerate() {
        fp.count(&format!("graph.{name}.edges"), g.num_edges());
        if let Some(r) = p.runs.iter().find(|r| r.dataset == d) {
            fp.count(
                &format!("{name}.iterations"),
                u64::from(r.report.iterations),
            );
            fp.exact(&format!("{name}.modeled_s"), r.report.modeled_seconds);
            fp.count(
                &format!("{name}.launches"),
                r.report.gpu_counters.kernel_launches,
            );
            fp.count(&format!("{name}.smem_vertices"), r.report.smem_vertices);
            fp.count(&format!("{name}.smem_fallbacks"), r.report.smem_fallbacks);
        }
    }
}

/// Fills the per-layer metrics from the traced pass; returns the gap
/// between summed self time and the traced wall (see [`self_metrics`]).
fn per_layer(
    m: &mut Metrics,
    data: &[(&'static str, Graph)],
    p: &Pass,
    rec: &Recorder,
    untraced: f64,
) -> f64 {
    let walls: Vec<f64> = p.runs.iter().map(|r| r.wall).collect();
    m.put("e2e.latency_tail_ms", tail(&walls).1 * 1e3, "ms");
    let launch_s = DeviceConfig::titan_v().kernel_launch_us * 1e-6;
    let mut launches = 0u64;
    let mut modeled = 0.0;
    for (d, (name, g)) in data.iter().enumerate() {
        let runs: Vec<&Run> = p.runs.iter().filter(|r| r.dataset == d).collect();
        let Some(first) = runs.first() else { continue };
        let r = &first.report;
        let wall = median(&dataset_walls(p, d));
        let iters = f64::from(r.iterations.max(1));
        let edge_iters = g.num_edges() as f64 * iters;
        m.put(format!("engine.run_ms.{name}"), wall * 1e3, "ms");
        m.put(
            format!("engine.ns_per_edge_iter.{name}"),
            wall * 1e9 / edge_iters,
            "ns",
        );
        m.put(
            format!("engine.host_per_modeled.{name}"),
            wall / r.modeled_seconds,
            "ratio",
        );
        m.put(format!("engine.iterations.{name}"), iters, "count");
        let active: u64 = r.active_per_iteration.iter().sum();
        m.put(
            format!("engine.active_share.{name}"),
            active as f64 / (g.num_vertices() as f64 * iters),
            "ratio",
        );
        m.put(
            format!("engine.pull_iters.{name}"),
            r.direction_count(Direction::Pull) as f64,
            "count",
        );
        m.put(
            format!("gpusim.global_mb.{name}"),
            r.gpu_counters.global_bytes() as f64 / 1e6,
            "MB",
        );
        m.put(
            format!("gpusim.warp_util.{name}"),
            r.gpu_counters.warp_utilization(),
            "ratio",
        );
        m.put(
            format!("sketch.smem_vertices.{name}"),
            r.smem_vertices as f64,
            "count",
        );
        m.put(
            format!("sketch.fallback_rate.{name}"),
            r.fallback_rate(),
            "ratio",
        );
        for r in &runs {
            launches += r.report.gpu_counters.kernel_launches;
            modeled += r.report.modeled_seconds;
        }
    }
    let ops = p.runs.len().max(1) as f64;
    m.put("gpusim.launches", launches as f64 / ops, "count");
    m.put("host.steal_share", p.steal, "ratio");
    m.put(
        "gpusim.launch_overhead_share",
        launches as f64 * launch_s / modeled,
        "ratio",
    );
    self_metrics(m, rec, p.elapsed, untraced)
}

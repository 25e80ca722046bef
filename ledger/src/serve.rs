//! The two serving workloads, both driven by one thread through the
//! fleet's synchronous entry points — `FleetCore::apply`,
//! `recluster_now`, `exchange_now` and `verdict` — at `router_loop`'s
//! cadence: apply each batch, recluster every `recluster_every_batches`,
//! exchange every `exchange_every_batches` (an exchange reclusters every
//! shard first, so when both fall due the exchange alone runs).
//!
//! * `serve_steady` — an **open loop** at a fixed rate into a warm 1-shard
//!   fleet, small micro-batches cut by the `max_batch` / budget rule on
//!   the arrival schedule, one `verdict` lookup per transaction beside
//!   its write. Reclusters go incremental except the forced fulls. This
//!   is the freshness path of the always-on service, where LP runs are
//!   tiny and fixed per-call costs dominate.
//! * `serve_bulk` — a **closed-loop** replay of a multi-day regional
//!   stream with cross-region rings through a journaled 4-shard fleet.
//!   The window slides, shard reclusters run full and the boundary
//!   exchange reconciles the spanning rings: the opposite use of the
//!   recluster layer, heavy use of the exchange, no reads.

use crate::repeat::{fnv1a, Fingerprint};
use crate::schedule::{constant_rate, micro_batches, waits, Batch, BatchTiming};
use crate::spans::Recorder;
use crate::stats::{median, tail};
use crate::{
    check_traced, host_jiffies, median_setup, mix, peak_rss_mb, self_metrics, steal_share, Metrics,
    Outcome, STATE_DIR, STEAL_RETRY,
};
use glp_fraud::{RegionalStream, RegionalTxConfig, Transaction};
use glp_gpusim::DeviceConfig;
use glp_serve::{FleetConfig, FleetCore, Partitioner, ReclusterMode, ReclusterRun, Verdict};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One serving workload's fixed shape.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Shard cores in the fleet.
    pub shards: usize,
    /// Sliding-window length, days.
    pub window_days: u32,
    /// Organic transactions per generated day.
    pub tx_per_day: u32,
    /// Micro-batch size cap.
    pub max_batch: usize,
    /// Micro-batch time budget on the schedule, seconds.
    pub budget_s: f64,
    /// Shard recluster cadence, in fleet batches.
    pub recluster_every: u64,
    /// Exchange cadence, in fleet batches.
    pub exchange_every: u64,
    /// Journal every batch (write-ahead log under [`STATE_DIR`]).
    pub wal: bool,
    /// Open loop at this many transactions per second; `None` is a
    /// closed loop (each batch as soon as the previous round is done).
    pub rate: Option<f64>,
    /// Days replayed per requested second (closed loop only): the work
    /// is a function of `--seconds`, never of the machine.
    pub days_per_second: f64,
    /// Look up every transaction's buyer right after its batch applies.
    pub lookups: bool,
    /// Run the first full recluster in set-up, so the measured stream
    /// starts from a warm memo and goes incremental from its first batch.
    pub warm: bool,
}

/// `serve_steady`. The rate is about half the 1-shard capacity of a
/// 2-vCPU VM at this batch shape (measured ≈2500 tx/s), fixed here once
/// and never calibrated per run.
pub const STEADY: Spec = Spec {
    name: "serve_steady",
    shards: 1,
    window_days: 3,
    tx_per_day: 20_000,
    max_batch: 64,
    budget_s: 0.050,
    recluster_every: 1,
    exchange_every: 1,
    wal: false,
    rate: Some(1_250.0),
    days_per_second: 0.0,
    lookups: true,
    warm: true,
};

/// `serve_bulk`. A batch's latency depends on how many recluster rounds
/// it waits for before the exchange; recluster-every-4 / exchange-every-12
/// splits the batches into thirds (two, one or no rounds to wait for), so
/// the median sits inside a mode, not on the edge between two as it
/// would with 4 / 8. Four batches of deltas touch more than
/// `delta_fraction_max` of a shard's window, so shard reclusters run full.
pub const BULK: Spec = Spec {
    name: "serve_bulk",
    shards: 4,
    window_days: 3,
    tx_per_day: 20_000,
    max_batch: 512,
    budget_s: 0.0,
    recluster_every: 4,
    exchange_every: 12,
    wal: true,
    rate: None,
    days_per_second: 0.7,
    lookups: false,
    warm: false,
};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Published snapshots checked against the pinned-full reference per
/// run, evenly spread over the measured stream, plus the final one.
/// Checking only the final snapshot would miss an incremental replay
/// that drifts and is then healed by a forced full recluster.
const CHECKPOINTS: usize = 16;

fn regional(seed: u64, days: u32, tx_per_day: u32) -> RegionalStream {
    RegionalStream::generate(&RegionalTxConfig {
        regions: 8,
        users_per_region: 1_000,
        items_per_region: 400,
        days,
        tx_per_day,
        cross_rings: 8,
        ring_size: 10,
        ring_tx_per_day: 30,
        blacklist_fraction: 0.25,
        seed,
    })
}

/// The generated inputs of one run.
struct Input {
    /// Applied during set-up (the warm window), in chunks.
    fill: Vec<Transaction>,
    /// The measured stream, in arrival order.
    live: Vec<Transaction>,
    /// Due time of each live transaction (open loop), seconds.
    due: Vec<f64>,
    /// Micro-batches over `live`.
    batches: Vec<Batch>,
    blacklist: Vec<u32>,
    ring_of: Vec<Option<u32>>,
    communities: Vec<(u32, u32)>,
}

/// Deterministic Fisher–Yates shuffle: the generator emits each day's
/// ring trades after its organic ones, and a live day must interleave them.
fn shuffle<T>(v: &mut [T], seed: u64) {
    for i in (1..v.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Generates the inputs of `spec` for `seed` and `seconds`.
fn generate(spec: &Spec, seed: u64, seconds: u64) -> Input {
    match spec.rate {
        Some(rate) => {
            // Warm window: `window_days` full days, then a live day whose
            // first batch is applied in set-up, so the measured stream
            // never expires a day and reclusters stay incremental.
            let fill_stream = regional(mix(seed, 10), spec.window_days, spec.tx_per_day);
            let n = (seconds as f64 * rate).round() as usize;
            let mut day = regional(mix(seed, 11), 1, (n + spec.max_batch) as u32);
            assert_eq!(
                day.ring_of, fill_stream.ring_of,
                "ring membership is positional, so both streams share it"
            );
            shuffle(&mut day.transactions, mix(seed, 12));
            let mut live: Vec<Transaction> = day
                .transactions
                .into_iter()
                .take(n + spec.max_batch)
                .map(|t| Transaction {
                    day: spec.window_days,
                    ..t
                })
                .collect();
            let mut fill = fill_stream.transactions.clone();
            fill.extend(live.drain(..spec.max_batch));
            let due = constant_rate(live.len(), rate);
            let batches = micro_batches(&due, spec.max_batch, spec.budget_s);
            Input {
                fill,
                live,
                due,
                batches,
                blacklist: fill_stream.blacklist.clone(),
                ring_of: fill_stream.ring_of.clone(),
                communities: fill_stream.community_map().collect(),
            }
        }
        None => {
            // Warm window of `window_days` days, then whole days replayed
            // back to back, so every measured day expires one.
            let live_days = ((seconds as f64 * spec.days_per_second).round() as u32).max(1);
            let s = regional(mix(seed, 20), spec.window_days + live_days, spec.tx_per_day);
            let (fill, live): (Vec<Transaction>, Vec<Transaction>) = s
                .transactions
                .iter()
                .copied()
                .partition(|t| t.day < spec.window_days);
            let batches = (0..live.len())
                .step_by(spec.max_batch)
                .map(|i| Batch {
                    txs: i..(i + spec.max_batch).min(live.len()),
                    ready: 0.0,
                })
                .collect();
            Input {
                fill,
                live,
                due: Vec::new(),
                batches,
                blacklist: s.blacklist.clone(),
                ring_of: s.ring_of.clone(),
                communities: s.community_map().collect(),
            }
        }
    }
}

/// A fleet built for one pass, with its journal directory.
struct Fleet {
    core: FleetCore,
    wal_dir: Option<PathBuf>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(dir) = &self.wal_dir {
            // Best effort: the journal is scratch state of this run.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn fleet_config(spec: &Spec, wal_dir: Option<PathBuf>) -> FleetConfig {
    let mut cfg = FleetConfig {
        shards: spec.shards,
        exchange_every_batches: spec.exchange_every,
        wal_dir,
        ..FleetConfig::default()
    }
    .with_window_days(spec.window_days);
    cfg.shard.max_batch = spec.max_batch;
    cfg.shard.recluster_every_batches = spec.recluster_every;
    cfg
}

/// Builds the fleet and applies the warm fill: the workload's set-up.
fn build(spec: &Spec, input: &Input, pass: &str) -> Fleet {
    let wal_dir = spec.wal.then(|| {
        let dir = PathBuf::from(STATE_DIR).join(format!(
            "wal-{}-{}-{pass}",
            spec.name,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let core = FleetCore::new(
        fleet_config(spec, wal_dir.clone()),
        Partitioner::balanced(spec.shards, 7, input.communities.iter().copied()),
        input.blacklist.clone(),
    );
    for chunk in input.fill.chunks(4_096) {
        core.apply_transactions(chunk);
    }
    if spec.warm {
        core.exchange_now();
    }
    Fleet { core, wal_dir }
}

/// What one measured pass saw.
#[derive(Default)]
struct Pass {
    latency: Vec<f64>,
    batch_wait: Vec<f64>,
    lag: Vec<f64>,
    apply: Vec<f64>,
    batch_size: Vec<f64>,
    lookups: Vec<f64>,
    flagged_lookups: u64,
    shard_runs: Vec<ReclusterRun>,
    /// Shard walls of each round, for the slowest shard and skew.
    round_walls: Vec<Vec<f64>>,
    exchange_wall: Vec<f64>,
    boundary_users: Vec<f64>,
    spanning: Vec<f64>,
    boundary_runs: u64,
    boundary_incremental: u64,
    rounds: u64,
    /// Wall of the pass minus time slept waiting for the schedule.
    busy: f64,
    /// Seconds from the schedule's start to the last publication.
    span: f64,
    modeled_s: f64,
    launches: u64,
    shed: u64,
    /// Journal bytes written during the pass.
    wal_bytes: u64,
    /// Share of the machine's CPU time stolen during the pass.
    steal: f64,
    /// `(batch index, snapshot digest)` after the exchange rounds that
    /// are checked against the reference.
    checkpoints: Vec<(usize, u64)>,
}

fn telemetry_totals(core: &FleetCore) -> (f64, u64, u64) {
    let t = core.fleet_telemetry();
    let shed =
        t.counter("shed_unhealthy") + t.counter("rejected_invalid") + t.counter("shed_overflow");
    (
        t.merged.kernel_profile.total_seconds(),
        t.merged.gpu_totals.kernel_launches,
        shed,
    )
}

fn record_runs(p: &mut Pass, rec: &mut Recorder, op: u64, runs: &[ReclusterRun]) {
    let mut at = rec.open_start();
    for (i, r) in runs.iter().enumerate() {
        rec.child(format!("recluster.shard{i}"), op, at, r.wall_seconds);
        at += r.wall_seconds;
    }
    p.shard_runs.extend_from_slice(runs);
    p.round_walls
        .push(runs.iter().map(|r| r.wall_seconds).collect());
    p.rounds += 1;
}

fn exchange(p: &mut Pass, rec: &mut Recorder, core: &FleetCore, op: u64) {
    rec.begin("exchange.round", op);
    let o = core.exchange_now();
    record_runs(p, rec, op, &o.shard_runs);
    rec.end();
    p.exchange_wall.push(o.exchange_wall);
    p.boundary_users.push(o.report.boundary_users as f64);
    p.spanning.push(o.report.spanning_components as f64);
    if let Some(b) = o.boundary_run {
        p.boundary_runs += 1;
        p.boundary_incremental += u64::from(b.mode == ReclusterMode::Incremental);
    }
}

fn pass(spec: &Spec, input: &Input, fleet: &Fleet, rec: &mut Recorder) -> Pass {
    let core = &fleet.core;
    let mut p = Pass::default();
    let (modeled0, launches0, shed0) = telemetry_totals(core);
    let wal0 = wal_bytes(fleet);
    let mut pending: Vec<(usize, f64)> = Vec::new();
    let mut slept = 0.0;
    let host = host_jiffies();
    let origin = Instant::now();
    let clock = |origin: Instant| origin.elapsed().as_secs_f64();
    rec.begin("driver.run", 0);
    for (b, batch) in input.batches.iter().enumerate() {
        let op = b as u64;
        if spec.rate.is_some() {
            let now = clock(origin);
            if batch.ready > now {
                std::thread::sleep(Duration::from_secs_f64(batch.ready - now));
                slept += clock(origin) - now;
            }
        }
        let started = clock(origin);
        let txs = &input.live[batch.txs.clone()];
        rec.begin("router.apply", op);
        let t = Instant::now();
        let applied = core.apply_transactions(txs);
        p.apply.push(t.elapsed().as_secs_f64());
        rec.end();
        p.batch_size.push(txs.len() as f64);
        if spec.lookups {
            for tx in txs {
                rec.begin("query.verdict", op);
                let t = Instant::now();
                let v = core.verdict(tx.buyer);
                p.lookups.push(t.elapsed().as_secs_f64());
                rec.end();
                p.flagged_lookups += u64::from(matches!(v, Verdict::Flagged { .. }));
            }
        }
        pending.push((b, started));
        let last = b + 1 == input.batches.len();
        if applied.is_multiple_of(spec.exchange_every) || last {
            exchange(&mut p, rec, core, op);
            let published = clock(origin);
            for (pb, started) in pending.drain(..) {
                let batch = &input.batches[pb];
                if spec.rate.is_some() {
                    let t = BatchTiming { started, published };
                    for (lat, wait, lag) in waits(&input.due, batch, t) {
                        p.latency.push(lat);
                        p.batch_wait.push(wait);
                        p.lag.push(lag);
                    }
                } else {
                    p.latency
                        .extend(std::iter::repeat_n(published - started, batch.txs.len()));
                }
            }
            p.span = published;
            if last || b * CHECKPOINTS >= p.checkpoints.len() * input.batches.len() {
                p.checkpoints.push((b, digest(core)));
            }
        } else if applied.is_multiple_of(spec.recluster_every) {
            rec.begin("recluster.round", op);
            let runs = core.recluster_now();
            record_runs(&mut p, rec, op, &runs);
            rec.end();
        }
    }
    rec.end();
    p.busy = clock(origin) - slept;
    p.steal = steal_share(host, host_jiffies());
    let (modeled1, launches1, shed1) = telemetry_totals(core);
    p.modeled_s = modeled1 - modeled0;
    p.launches = launches1 - launches0;
    p.shed = shed1 - shed0;
    p.wal_bytes = wal_bytes(fleet) - wal0;
    p
}

/// Digest of a fleet's published snapshot: verdict bytes plus the
/// boundary user set.
fn digest(core: &FleetCore) -> u64 {
    let snap = core.fleet_snapshot();
    let mut bytes = snap.verdicts.canonical_bytes();
    for u in &snap.boundary_users {
        bytes.extend_from_slice(&u.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// The pinned-full reference: a fleet with incremental reclustering off
/// (`delta_fraction_max = 0`) and no journal, fed the same batches and
/// reclustered from scratch after each checkpointed batch. Returns the
/// checkpoints whose digests differ from `checkpoints`.
fn reference_mismatches(
    spec: &Spec,
    input: &Input,
    checkpoints: &[(usize, u64)],
) -> Vec<(usize, u64, u64)> {
    let mut cfg = fleet_config(spec, None);
    cfg.shard.delta_fraction_max = 0.0;
    let core = FleetCore::new(
        cfg,
        Partitioner::balanced(spec.shards, 7, input.communities.iter().copied()),
        input.blacklist.clone(),
    );
    for chunk in input.fill.chunks(4_096) {
        core.apply_transactions(chunk);
    }
    let mut next = checkpoints.iter().peekable();
    let mut out = Vec::new();
    for (b, batch) in input.batches.iter().enumerate() {
        core.apply_transactions(&input.live[batch.txs.clone()]);
        if let Some(&&(at, seen)) = next.peek() {
            if at == b {
                core.exchange_now();
                let want = digest(&core);
                if want != seen {
                    out.push((b, seen, want));
                }
                next.next();
            }
        }
    }
    out
}

/// Recall and precision of the published snapshot against ring
/// membership of the users in the final window.
fn quality(core: &FleetCore, ring_of: &[Option<u32>]) -> (f64, f64) {
    let snap = core.fleet_snapshot();
    let is_ring = |u: u32| ring_of.get(u as usize).copied().flatten().is_some();
    let truth = snap
        .verdicts
        .known_users
        .iter()
        .filter(|&&u| is_ring(u))
        .count();
    let flagged = snap.verdicts.flagged.len();
    let hits = snap
        .verdicts
        .flagged
        .iter()
        .filter(|f| is_ring(f.0))
        .count();
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    (ratio(hits, truth), ratio(hits, flagged))
}

fn wal_bytes(fleet: &Fleet) -> u64 {
    let Some(dir) = &fleet.wal_dir else { return 0 };
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn fingerprint(fp: &mut Fingerprint, p: &Pass, core: &FleetCore, ring_of: &[Option<u32>]) {
    let full = p
        .shard_runs
        .iter()
        .filter(|r| r.mode == ReclusterMode::Full)
        .count();
    fp.count("transactions", p.batch_size.iter().sum::<f64>() as u64);
    fp.count("batches", p.batch_size.len() as u64);
    fp.count("rounds", p.rounds);
    fp.count("recluster.full", full as u64);
    fp.count("recluster.total", p.shard_runs.len() as u64);
    fp.count(
        "recluster.frontier_sum",
        p.shard_runs.iter().map(|r| r.frontier as u64).sum(),
    );
    fp.count(
        "exchange.boundary_users_sum",
        p.boundary_users.iter().sum::<f64>() as u64,
    );
    fp.count("exchange.boundary_incremental", p.boundary_incremental);
    fp.count("gpusim.launches", p.launches);
    fp.exact("modeled_s", p.modeled_s);
    fp.count("lookups.flagged", p.flagged_lookups);
    fp.count("shed", p.shed);
    fp.count("wal.bytes", p.wal_bytes);
    let (recall, precision) = quality(core, ring_of);
    fp.exact("recall", recall);
    fp.exact("precision", precision);
    fp.digest("snapshot", digest(core));
    let all: Vec<u8> = p
        .checkpoints
        .iter()
        .flat_map(|&(b, d)| [(b as u64).to_le_bytes(), d.to_le_bytes()].concat())
        .collect();
    fp.digest("checkpoints", fnv1a(&all));
}

/// Runs `spec`. `trace` adds a second, traced pass on a fresh fleet for
/// the per-layer metrics.
pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut k = 0;
    let (setup_s, (input, mut fleet)) = median_setup(SETUP_REPEATS, || {
        k += 1;
        let input = generate(spec, seed, seconds);
        let fleet = build(spec, &input, &format!("setup{k}"));
        (input, fleet)
    });
    let mut out = Outcome::default();
    let mut plain = pass(spec, &input, &fleet, &mut Recorder::new(false));
    if plain.steal > STEAL_RETRY {
        let fresh = build(spec, &input, "retry");
        let again = pass(spec, &input, &fresh, &mut Recorder::new(false));
        eprintln!(
            "steal {:.3} in the pass, {:.3} in its retry",
            plain.steal, again.steal
        );
        if again.steal < plain.steal {
            (fleet, plain) = (fresh, again);
        }
    }
    out.attempted = input.live.len() as u64;
    out.failed += plain.shed;
    if plain.shed > 0 {
        out.errors
            .push(format!("{} transactions shed or rejected", plain.shed));
    }
    for (b, seen, want) in reference_mismatches(spec, &input, &plain.checkpoints) {
        out.fail(format!(
            "snapshot after batch {b}: digest {seen:016x}, pinned-full reference {want:016x}"
        ));
    }
    fingerprint(&mut out.fingerprint, &plain, &fleet.core, &input.ring_of);

    let rounds = plain.rounds.max(1) as f64;
    let tx = plain.latency.len() as f64;
    let e = &mut out.end_to_end;
    e.put("setup_s", setup_s, "s");
    e.put("throughput_per_s", tx / plain.span, "1/s");
    e.put("latency_p50_ms", median(&plain.latency) * 1e3, "ms");
    e.put("modeled_ms", plain.modeled_s / rounds * 1e3, "ms");

    if trace {
        let traced_fleet = build(spec, &input, "traced");
        let mut rec = Recorder::new(true);
        let traced = pass(spec, &input, &traced_fleet, &mut rec);
        let mut again = Fingerprint::default();
        fingerprint(&mut again, &traced, &traced_fleet.core, &input.ring_of);
        let (recall, precision) = quality(&traced_fleet.core, &input.ring_of);
        let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
        let gap = per_layer(
            &mut out.per_layer,
            &traced,
            &rec,
            plain.busy,
            (recall, precision, failed_share),
        );
        check_traced(&mut out, &again, gap, &rec, spec.name, seed);
    }
    out.end_to_end.put("peak_rss_mb", peak_rss_mb(), "MB");
    out
}

fn per_layer(
    m: &mut Metrics,
    p: &Pass,
    rec: &Recorder,
    untraced_busy: f64,
    (recall, precision, failed_share): (f64, f64, f64),
) -> f64 {
    let launch_s = DeviceConfig::titan_v().kernel_launch_us * 1e-6;
    let rounds = p.rounds.max(1) as f64;
    let ms = |v: &[f64]| median(v) * 1e3;
    let tail_ms = |v: &[f64]| tail(v).1 * 1e3;
    let walls = |mode: ReclusterMode| -> Vec<f64> {
        p.shard_runs
            .iter()
            .filter(|r| r.mode == mode)
            .map(|r| r.wall_seconds)
            .collect()
    };
    let full = walls(ReclusterMode::Full);
    let incremental = walls(ReclusterMode::Incremental);
    let all: Vec<f64> = p.shard_runs.iter().map(|r| r.wall_seconds).collect();
    let frontiers: Vec<f64> = p.shard_runs.iter().map(|r| r.frontier as f64).collect();
    let round_max: Vec<f64> = p
        .round_walls
        .iter()
        .map(|w| w.iter().copied().fold(0.0, f64::max))
        .collect();
    let skew: Vec<f64> = p
        .round_walls
        .iter()
        .filter(|w| w.iter().sum::<f64>() > 0.0)
        .map(|w| w.iter().copied().fold(0.0, f64::max) * w.len() as f64 / w.iter().sum::<f64>())
        .collect();
    let tx = p.batch_size.iter().sum::<f64>().max(1.0);
    m.put("e2e.latency_tail_ms", tail_ms(&p.latency), "ms");
    m.put("gpusim.launches", p.launches as f64 / rounds, "count");
    m.put(
        "gpusim.launch_overhead_share",
        if p.modeled_s > 0.0 {
            p.launches as f64 * launch_s / p.modeled_s
        } else {
            0.0
        },
        "ratio",
    );
    m.put("router.apply_ms_p50", ms(&p.apply), "ms");
    m.put("router.apply_ms_tail", tail_ms(&p.apply), "ms");
    m.put("router.batch_size_p50", median(&p.batch_size), "count");
    m.put("wal.bytes_per_tx", p.wal_bytes as f64 / tx, "B");
    m.put("recluster.full", full.len() as f64, "count");
    m.put("recluster.incremental", incremental.len() as f64, "count");
    m.put(
        "recluster.incremental_share",
        incremental.len() as f64 / p.shard_runs.len().max(1) as f64,
        "ratio",
    );
    m.put("recluster.frontier_p50", median(&frontiers), "count");
    m.put("recluster.full_ms_p50", ms(&full), "ms");
    m.put("recluster.incremental_ms_p50", ms(&incremental), "ms");
    m.put("recluster.ms_tail", tail_ms(&all), "ms");
    m.put("recluster.modeled_ms", p.modeled_s / rounds * 1e3, "ms");
    m.put("recluster.round_max_ms_p50", ms(&round_max), "ms");
    m.put("recluster.shard_skew", median(&skew), "ratio");
    m.put("exchange.ms_p50", ms(&p.exchange_wall), "ms");
    m.put("exchange.ms_tail", tail_ms(&p.exchange_wall), "ms");
    m.put(
        "exchange.boundary_users_p50",
        median(&p.boundary_users),
        "count",
    );
    m.put(
        "exchange.spanning_components_p50",
        median(&p.spanning),
        "count",
    );
    m.put(
        "exchange.boundary_incremental_share",
        p.boundary_incremental as f64 / p.boundary_runs.max(1) as f64,
        "ratio",
    );
    m.put("query.lookup_p50_us", median(&p.lookups) * 1e6, "us");
    m.put("query.lookup_tail_us", tail(&p.lookups).1 * 1e6, "us");
    m.put(
        "query.flagged_share",
        p.flagged_lookups as f64 / p.lookups.len().max(1) as f64,
        "ratio",
    );
    m.put("quality.recall", recall, "ratio");
    m.put("quality.precision", precision, "ratio");
    m.put("quality.failed_share", failed_share, "ratio");
    m.put("host.steal_share", p.steal, "ratio");
    m.put("driver.batch_wait_ms_p50", ms(&p.batch_wait), "ms");
    m.put("driver.lag_ms_tail", tail_ms(&p.lag), "ms");
    self_metrics(m, rec, p.busy, untraced_busy)
}

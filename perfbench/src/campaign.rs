//! `campaign`: the Figure-7 protocol at the repository's paper-scale
//! sizes (`CampaignConfig::default()`), one diagnosed run per fault of
//! `FaultKind::ALL`, each engine stepped one tick at a time.
//!
//! One operation is one diagnosed run. A run fails when its streams are
//! malformed, when its alarms disagree with the threshold/consecutive rule
//! applied to its own scores, in a traced invocation when the traced run's
//! streams differ from the untraced run's, or — for the one run per
//! invocation picked by the seed — when its 1-NN states or black-box
//! distances disagree with the scalar §4.5 reference. Balanced accuracy
//! and detection latency are tallied here from the streams.

use std::sync::Arc;
use std::time::Instant;

use asdf::experiments::CampaignConfig;
use asdf::pipeline::{AsdfBuilder, AsdfOptions};
use asdf_core::module::Envelope;
use asdf_modules::training::BlackBoxModel;
use hadoop_sim::cluster::{Cluster, ClusterConfig};
use hadoop_sim::faults::{FaultKind, FaultSpec};

use crate::measure::{self, median, quantile, secs, tail_quantile};
use crate::pipeline::{self, Pipeline, TickTimes};
use crate::reference::{self, Windows};
use crate::timed::{self, Totals};
use crate::{Args, Outcome};

/// Set-up is repeated this many times per invocation; the median is
/// reported.
const SETUP_REPS: usize = 5;
/// Distinct runs (seeds) per fault. Accuracy and detection latency average
/// over all of them, so every invocation runs at least `REPS` rounds.
const REPS: usize = 5;
const TAPS: [&str; 3] = ["bb", "wb_tt", "wb_dn"];
/// Faults under which two simulations of one seed can diverge (a
/// simulator defect recorded in `CHANGES.md`): their runs are not compared
/// across runs, only checked within each run.
const LOSSY: [FaultKind; 2] = [FaultKind::PacketLoss, FaultKind::FlakyLink];

fn options(cfg: &CampaignConfig) -> AsdfOptions {
    AsdfOptions {
        window: cfg.window,
        slide: cfg.window,
        bb_threshold: cfg.bb_threshold,
        wb_k: cfg.wb_k,
        consecutive: cfg.consecutive,
        batch_size: cfg.batch_size,
        engine_threads: 1,
        ..AsdfOptions::default()
    }
}

/// The cluster of repetition `rep` of fault `i`, seeded as
/// `experiments::fig7` seeds it.
fn cluster(cfg: &CampaignConfig, i: usize, rep: usize) -> Cluster {
    Cluster::new(
        ClusterConfig::new(
            cfg.slaves,
            cfg.base_seed + 2000 + i as u64 + 100 * rep as u64,
        ),
        vec![FaultSpec {
            node: cfg.fault_node,
            kind: FaultKind::ALL[i],
            start_at: cfg.injection_at,
        }],
    )
}

fn deploy(
    cfg: &CampaignConfig,
    model: &Arc<BlackBoxModel>,
    i: usize,
    rep: usize,
    traced: bool,
) -> Pipeline {
    let opts = options(cfg);
    let builder = AsdfBuilder::new(opts.clone()).with_model(Arc::clone(model));
    Pipeline::build(&opts, builder, cluster(cfg, i, rep), &TAPS, traced)
        .expect("campaign pipeline deploys")
}

/// How a phase runs the pipelines.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Public `deploy`, observability on: what a user runs.
    Plain,
    /// Public `deploy`, `asdf_obs::set_enabled(false)`.
    ObsOff,
    /// Timing-decorated registry, observability on.
    Traced,
}

/// Everything one phase of whole rounds measured.
#[derive(Default)]
struct Phase {
    /// `[bb, wb_tt, wb_dn]` streams of the first `REPS` rounds, one per
    /// distinct run, round-major.
    first: Vec<[Vec<Envelope>; 3]>,
    /// Check failures per operation, round-major.
    problems: Vec<Vec<String>>,
    times: TickTimes,
    /// Per diagnosed run: node-seconds per wall second, CPU ms per
    /// node-second, and the tail (p99) of its plain ticks in ms.
    per_run: Vec<(f64, f64, f64)>,
    cpu_s: f64,
    node_secs: f64,
    wire_bytes: u64,
    wire_msgs: u64,
    clones: u64,
    routed: u64,
    totals: Totals,
}

/// Structural and alarm-rule checks of one run's streams.
fn check_streams(cfg: &CampaignConfig, streams: &[Vec<Envelope>; 3]) -> Vec<String> {
    let mut problems = Vec::new();
    let windows = (cfg.run_secs / cfg.window as u64) as usize;
    for (k, (id, env)) in TAPS.iter().zip(streams).enumerate() {
        let prefix = if k == 0 { "dist" } else { "kcrit" };
        match Windows::parse(env, cfg.slaves, prefix) {
            Err(e) => problems.push(format!("{id}: {e}")),
            Ok(w) => {
                if w.times.len() != windows {
                    problems.push(format!("{id}: {} windows, want {windows}", w.times.len()));
                }
                let rule = if k == 0 {
                    reference::check_alarms(&w, |d| d > cfg.bb_threshold, cfg.consecutive)
                } else {
                    reference::check_alarms(&w, |kc| cfg.wb_k < kc, cfg.consecutive)
                };
                problems.extend(rule.map(|p| format!("{id}: {p}")));
            }
        }
    }
    problems
}

/// Runs whole rounds (every fault once) until `budget_s` has passed and
/// at least `min_rounds` ran. Round `r` runs repetition `r % REPS`.
fn phase(
    cfg: &CampaignConfig,
    model: &Arc<BlackBoxModel>,
    mode: Mode,
    budget_s: f64,
    min_rounds: usize,
) -> Phase {
    let was = asdf_obs::set_enabled(mode != Mode::ObsOff);
    let mut ph = Phase::default();
    let (b0, m0, c0) = (
        measure::wire_bytes(),
        measure::wire_messages(),
        measure::env_clones(),
    );
    let start = Instant::now();
    for round in 0.. {
        for i in 0..FaultKind::ALL.len() {
            let mut p = deploy(cfg, model, i, round % REPS, mode == Mode::Traced);
            let cpu0 = measure::cpu_s();
            let stepped = p.step(cfg.run_secs, "bb");
            let cpu = measure::cpu_s() - cpu0;
            ph.cpu_s += cpu;
            let streams = TAPS.map(|id| p.drain(id));
            ph.routed += p.engine.envelopes_routed();
            if let Some(c) = &p.clocks {
                timed::fold(&mut ph.totals, c);
            }
            drop(p);
            let mut problems = Vec::new();
            match stepped {
                Ok(times) => {
                    let node_secs = (times.ticks() * cfg.slaves) as f64;
                    let tail = quantile(&times.plain_s, tail_quantile(times.plain_s.len()));
                    ph.per_run.push((
                        node_secs / times.total_s(),
                        1e3 * cpu / node_secs,
                        1e3 * tail,
                    ));
                    ph.node_secs += node_secs;
                    ph.times.extend(times);
                    problems.extend(check_streams(cfg, &streams));
                }
                Err(e) => problems.push(format!("engine failed: {e}")),
            }
            if round < REPS {
                ph.first.push(streams);
            }
            ph.problems.push(problems);
        }
        if round + 1 >= min_rounds && secs(start) >= budget_s {
            break;
        }
    }
    ph.wire_bytes = measure::wire_bytes() - b0;
    ph.wire_msgs = measure::wire_messages() - m0;
    ph.clones = measure::env_clones() - c0;
    asdf_obs::set_enabled(was);
    ph
}

/// The scalar §4.5 reference for fault `i`'s run: replays it with the
/// `sadc` and 1-NN outputs tapped, checks every 1-NN state against the
/// scalar 1-NN of the raw sample it classified, and every emitted
/// black-box distance against the histogram/median/L1 recomputation from
/// those states. Everything compared comes from the one replay, so the
/// check holds however the simulator schedules its tasks.
fn check_scalar(cfg: &CampaignConfig, model: &Arc<BlackBoxModel>, i: usize) -> Vec<String> {
    let mut p = deploy(cfg, model, i, 0, false);
    let sadc: Vec<String> = (0..cfg.slaves).map(|n| format!("sadc{n}")).collect();
    let knn: Vec<String> = (0..cfg.slaves).map(|n| format!("onenn{n}")).collect();
    for id in sadc.iter().chain(&knn) {
        p.add_tap(id);
    }
    if let Err(e) = p.step(cfg.run_secs, "bb") {
        return vec![format!("scalar replay failed: {e}")];
    }
    let cents = model.centroids.to_rows();
    let mut bad_states = 0usize;
    let mut states: Vec<Vec<usize>> = Vec::with_capacity(cfg.slaves);
    for (sadc_id, knn_id) in sadc.iter().zip(&knn) {
        let raw = p.drain(sadc_id);
        let got = p.drain(knn_id);
        if raw.len() != got.len() || got.len() != cfg.run_secs as usize {
            return vec![format!(
                "{knn_id}: {} states for {} samples over {} s",
                got.len(),
                raw.len(),
                cfg.run_secs
            )];
        }
        let mut node_states = Vec::with_capacity(got.len());
        for (r, g) in raw.iter().zip(&got) {
            let state = g
                .sample
                .value
                .as_int()
                .and_then(|s| usize::try_from(s).ok());
            let accepted = r
                .sample
                .value
                .as_vector()
                .map(|x| reference::nearest_states(x, &model.stddev, &cents))
                .unwrap_or_default();
            match state {
                Some(s) if accepted.contains(&s) && r.sample.timestamp == g.sample.timestamp => {
                    node_states.push(s)
                }
                _ => {
                    bad_states += 1;
                    node_states.push(accepted.first().copied().unwrap_or(0));
                }
            }
        }
        states.push(node_states);
    }
    if bad_states > 0 {
        return vec![format!(
            "{bad_states} 1-NN states disagree with the scalar reference"
        )];
    }
    let want = reference::bb_distances(&states, model.n_states(), cfg.window);
    match Windows::parse(&p.drain("bb"), cfg.slaves, "dist") {
        Ok(w) if w.scores.len() == want.len() => {
            let off = w
                .scores
                .iter()
                .flatten()
                .zip(want.iter().flatten())
                .filter(|(a, b)| !reference::close(**a, **b))
                .count();
            if off > 0 {
                return vec![format!(
                    "{off} black-box distances disagree with the scalar reference"
                )];
            }
            Vec::new()
        }
        Ok(w) => vec![format!(
            "{} bb windows, scalar reference has {}",
            w.scores.len(),
            want.len()
        )],
        Err(e) => vec![e],
    }
}

/// Mean combined balanced accuracy and mean detection latency over the
/// distinct runs, tallied from the streams.
fn accuracy(cfg: &CampaignConfig, first: &[[Vec<Envelope>; 3]]) -> (f64, f64) {
    let (mut ba, mut lat, mut n) = (0.0, 0.0, 0.0);
    for streams in first {
        let parsed: Result<Vec<Windows>, String> = streams
            .iter()
            .enumerate()
            .map(|(k, e)| Windows::parse(e, cfg.slaves, if k == 0 { "dist" } else { "kcrit" }))
            .collect();
        let Ok(w) = parsed else { continue };
        let (times, alarms) = reference::combine(&[&w[0], &w[1], &w[2]]);
        let culprit = cfg.fault_node;
        ba += reference::balanced_accuracy_pct(&times, &alarms, Some(culprit), cfg.injection_at);
        lat +=
            reference::detect_latency_s(&times, &alarms, culprit, cfg.injection_at, cfg.run_secs);
        n += 1.0;
    }
    (ba / n, lat / n)
}

pub fn run(args: &Args) -> Outcome {
    let cfg = CampaignConfig {
        base_seed: args.seed,
        threads: 1,
        ..CampaignConfig::default()
    };
    let mut out = Outcome::default();

    // Set-up: train the model and build every fault's cluster and
    // deployment, SETUP_REPS times.
    let (mut setup, mut train, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let mut model = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let m = pipeline::train_model();
        train.push(secs(t));
        let tb = Instant::now();
        let all: Vec<Pipeline> = (0..FaultKind::ALL.len())
            .map(|i| deploy(&cfg, &m, i, 0, false))
            .collect();
        build.push(secs(tb));
        setup.push(secs(t));
        drop(all);
        model = Some(m);
    }
    let model = model.expect("at least one set-up");

    let seconds = args.seconds as f64;
    let (mut main, check_against) = if args.trace {
        let plain = phase(&cfg, &model, Mode::Plain, seconds / 3.0, 1);
        let off = phase(&cfg, &model, Mode::ObsOff, seconds / 3.0, 1);
        let traced = phase(&cfg, &model, Mode::Traced, seconds / 3.0, 1);
        let cpu = |p: &Phase| p.cpu_s / p.node_secs;
        out.metric("obs.overhead_pct", 100.0 * (cpu(&plain) / cpu(&off) - 1.0));
        out.metric(
            "trace.overhead_pct",
            100.0 * (cpu(&traced) / cpu(&plain) - 1.0),
        );
        (traced, Some(plain))
    } else {
        (phase(&cfg, &model, Mode::Plain, seconds, REPS), None)
    };
    let mut problems = std::mem::take(&mut main.problems);
    if let Some(plain) = &check_against {
        for (i, (a, b)) in main.first.iter().zip(&plain.first).enumerate() {
            if a != b && !LOSSY.contains(&FaultKind::ALL[i % FaultKind::ALL.len()]) {
                problems[i].push("traced streams differ from untraced streams".into());
            }
        }
    }
    let pick = (args.seed % FaultKind::ALL.len() as u64) as usize;
    problems[pick].extend(check_scalar(&cfg, &model, pick));
    for (j, p) in problems.into_iter().enumerate() {
        let fault = FaultKind::ALL[j % FaultKind::ALL.len()];
        out.op(&format!("run {j} ({fault:?})"), p);
    }

    let ns = main.node_secs;
    if args.trace {
        let t = &main.totals;
        let ticks = main.times.ticks() as f64;
        let n_windows = main.times.close_s.len() as f64;
        out.metric(
            "sim.us_per_node_tick",
            1e6 * timed::secs(t, "cluster_driver") / ns,
        );
        out.metric(
            "collect.sadc_us_per_poll",
            1e6 * timed::secs(t, "sadc") / timed::runs(t, "sadc") as f64,
        );
        out.metric(
            "collect.log_us_per_poll",
            1e6 * timed::secs(t, "hadoop_log") / timed::runs(t, "hadoop_log") as f64,
        );
        out.metric("collect.msgs_per_node_s", main.wire_msgs as f64 / ns);
        out.metric(
            "transport.self_us_per_tick",
            1e6 * (main.times.total_s() - timed::total_secs(t)) / ticks,
        );
        out.metric("transport.envelopes_per_node_s", main.routed as f64 / ns);
        out.metric("transport.env_clones_per_tick", main.clones as f64 / ticks);
        out.metric(
            "analysis.knn_us_per_sample",
            1e6 * timed::secs(t, "knn") / ns,
        );
        out.metric(
            "analysis.mavgvec_us_per_sample",
            1e6 * timed::secs(t, "mavgvec") / (2.0 * ns),
        );
        out.metric(
            "analysis.bb_us_per_window",
            1e6 * timed::secs(t, "analysis_bb") / n_windows,
        );
        out.metric(
            "analysis.wb_us_per_window",
            1e6 * timed::secs(t, "analysis_wb") / n_windows,
        );
        out.metric("setup.train_s", median(&train));
        out.metric("setup.deploy_s", median(&build));
    } else {
        // Rates and plain-tick tails are taken per diagnosed run and
        // reported as the median over runs, so a burst of load from
        // outside the process moves a few runs, not the figure.
        let ms = |v: f64| v * 1e3;
        let (ba, lat) = accuracy(&cfg, &main.first);
        let col =
            |k: usize| -> Vec<f64> { main.per_run.iter().map(|r| [r.0, r.1, r.2][k]).collect() };
        out.metric("setup_s", median(&setup));
        out.metric("node_secs_per_s", median(&col(0)));
        out.metric("cpu_ms_per_node_s", median(&col(1)));
        out.metric("tick_p50_ms", ms(median(&main.times.plain_s)));
        out.metric("tick_tail_ms", median(&col(2)));
        out.metric("close_p50_ms", ms(median(&main.times.close_s)));
        // Ten closing ticks beyond the tail in every round: p95, pooled.
        let per_round = FaultKind::ALL.len() * (cfg.run_secs as usize / cfg.window);
        out.metric(
            "close_tail_ms",
            ms(quantile(&main.times.close_s, tail_quantile(per_round))),
        );
        out.metric("peak_rss_mb", measure::peak_rss_mb());
        out.metric("wire_bytes_per_node_s", main.wire_bytes as f64 / ns);
        out.metric("ba_all_pct", ba);
        out.metric("detect_latency_s", lat);
    }
    out
}

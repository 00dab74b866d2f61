//! `fleet`: a fault-free 5000-node cluster under a ranking-only
//! deployment — `metric_rank` over per-rack `rack_agg` summaries, racks of
//! 20, black-box and white-box paths off — stepped serially in passes of
//! two 60 s windows, each pass on a fresh deployment of the same seed.
//!
//! One operation is one ranking window. A window fails when it does not
//! rank every node with `top` well-formed `[metric, score]` pairs in
//! non-increasing score order; the first window also fails when its
//! rankings disagree with the flat median/MAD rule recomputed here from a
//! twin cluster with the same seed.

use std::collections::BTreeMap;
use std::time::Instant;

use asdf::pipeline::{AsdfBuilder, AsdfOptions};
use asdf_core::module::Envelope;
use hadoop_sim::cluster::{Cluster, ClusterConfig};

use crate::measure::{self, median, quantile, secs, tail_quantile};
use crate::pipeline::{Pipeline, TickTimes};
use crate::reference;
use crate::timed::{self, Totals};
use crate::{Args, Outcome};

const NODES: usize = 5000;
const RACK: usize = 20;
const WINDOW: usize = 60;
const TOP: usize = 5;
/// Set-up is repeated this many times per invocation; the median is
/// reported.
const SETUP_REPS: usize = 5;
/// Windows per pass. Each pass steps a fresh deployment of the same seed,
/// so the work a run measures does not depend on how many passes fit.
const PASS_WINDOWS: usize = 2;
/// Passes every untraced run makes at least.
const MIN_PASSES: usize = 2;

fn options() -> AsdfOptions {
    AsdfOptions {
        black_box: false,
        white_box: false,
        metric_rank: true,
        rank_top: TOP,
        window: WINDOW,
        slide: WINDOW,
        racks: NODES / RACK,
        engine_threads: 1,
        ..AsdfOptions::default()
    }
}

fn cluster(seed: u64) -> Cluster {
    let mut cc = ClusterConfig::new(NODES, seed);
    cc.sim_shards = 1;
    Cluster::new(cc, Vec::new())
}

fn deploy(seed: u64, traced: bool) -> Pipeline {
    let opts = options();
    Pipeline::build(
        &opts,
        AsdfBuilder::new(opts.clone()),
        cluster(seed),
        &["mr"],
        traced,
    )
    .expect("fleet pipeline deploys")
}

/// One phase: whole passes, each stepping a fresh deployment of the same
/// seed through `PASS_WINDOWS` windows.
#[derive(Default)]
struct Phase {
    /// The first pass's `mr` stream, grouped per window timestamp.
    first: BTreeMap<u64, Vec<Envelope>>,
    /// Every emitted window's timestamp and per-node alarm flags, tallied
    /// from the `alarm<i>` envelopes of the `mr` stream, pass-major.
    verdicts: (Vec<u64>, Vec<Vec<bool>>),
    /// Check failures per window, pass-major.
    problems: Vec<(String, Vec<String>)>,
    times: TickTimes,
    /// The tail (p90) of each pass's plain ticks, ms.
    pass_tails: Vec<f64>,
    cpu_s: f64,
    node_secs: f64,
    wire_msgs: u64,
    clones: u64,
    routed: u64,
    totals: Totals,
}

/// Runs passes until `budget_s` has passed and at least `min_passes`
/// ran. The first pass steps `first` when given (the set-up's last build).
fn phase(
    seed: u64,
    mut first: Option<Pipeline>,
    traced: bool,
    budget_s: f64,
    min_passes: usize,
) -> Phase {
    let mut ph = Phase::default();
    let (m0, c0) = (measure::wire_messages(), measure::env_clones());
    let start = Instant::now();
    for pass in 0.. {
        let mut p = first.take().unwrap_or_else(|| deploy(seed, traced));
        let cpu0 = measure::cpu_s();
        let stepped = p.step((PASS_WINDOWS * WINDOW) as u64, "mr");
        ph.cpu_s += measure::cpu_s() - cpu0;
        let mut windows: BTreeMap<u64, Vec<Envelope>> = BTreeMap::new();
        for env in p.drain("mr") {
            windows
                .entry(env.sample.timestamp.as_secs())
                .or_default()
                .push(env);
        }
        ph.routed += p.engine.envelopes_routed();
        if let Some(c) = &p.clocks {
            timed::fold(&mut ph.totals, c);
        }
        drop(p);
        let mut engine_error = None;
        match stepped {
            Ok(t) => {
                let q = tail_quantile(t.plain_s.len());
                ph.pass_tails.push(1e3 * quantile(&t.plain_s, q));
                ph.node_secs += (t.ticks() * NODES) as f64;
                ph.times.extend(t);
            }
            Err(e) => engine_error = Some(format!("engine failed: {e}")),
        }
        // One operation per expected window, whatever the pass produced.
        let mut emitted = windows.iter();
        for w in 0..PASS_WINDOWS {
            let mut problems: Vec<String> = engine_error.take().into_iter().collect();
            match emitted.next() {
                Some((_, envs)) => problems.extend(check_window(envs)),
                None => problems.push("no ranking emitted".into()),
            }
            ph.problems
                .push((format!("pass {pass} window {w}"), problems));
        }
        for (&t, envs) in &windows {
            ph.verdicts.0.push(t);
            ph.verdicts.1.push(alarm_flags(envs));
        }
        if pass == 0 {
            ph.first = windows;
        }
        if pass + 1 >= min_passes && secs(start) >= budget_s {
            break;
        }
    }
    ph.wire_msgs = measure::wire_messages() - m0;
    ph.clones = measure::env_clones() - c0;
    ph
}

/// Per node, whether the window's envelopes carry a raised `alarm<node>`.
/// The ranking-only deployment is expected to raise none.
fn alarm_flags(envs: &[Envelope]) -> Vec<bool> {
    let mut flags = vec![false; NODES];
    for env in envs {
        let node = env
            .source
            .name
            .strip_prefix("alarm")
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n < NODES);
        if let (Some(node), Some(true)) = (node, env.sample.value.as_bool()) {
            flags[node] = true;
        }
    }
    flags
}

/// Every node ranked once, `TOP` valid pairs each, scores non-increasing.
fn check_window(envs: &[Envelope]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut seen = vec![false; NODES];
    for env in envs {
        let node = env
            .source
            .name
            .strip_prefix("rank")
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n < NODES);
        let Some(node) = node else {
            problems.push(format!("unexpected port `{}`", env.source.name));
            continue;
        };
        if std::mem::replace(&mut seen[node], true) {
            problems.push(format!("node {node} ranked twice"));
        }
        let Some(row) = env.sample.value.as_vector() else {
            problems.push(format!("node {node}: ranking is not a vector"));
            continue;
        };
        let scores: Vec<f64> = row.chunks_exact(2).map(|p| p[1]).collect();
        let ok = row.len() == 2 * TOP
            && row
                .chunks_exact(2)
                .all(|p| p[0] >= 0.0 && p[0].fract() == 0.0)
            && scores.iter().all(|s| s.is_finite() && *s >= 0.0)
            && scores.windows(2).all(|s| s[0] >= s[1]);
        if !ok {
            problems.push(format!("node {node}: malformed ranking {row:?}"));
        }
    }
    let missing = seen.iter().filter(|s| !**s).count();
    if missing > 0 {
        problems.push(format!("{missing} nodes not ranked"));
    }
    problems.truncate(5);
    problems
}

/// Recomputes the first window on a twin cluster: per-node means of the
/// first `WINDOW` frames, the median/MAD deviation scores, and each
/// node's top-`TOP` ranking.
fn check_first_window(seed: u64, envs: &[Envelope]) -> Vec<String> {
    let mut twin = cluster(seed);
    let mut sums: Vec<Vec<f64>> = Vec::with_capacity(NODES);
    for _ in 0..WINDOW {
        twin.tick();
        for node in 0..NODES {
            let raw = twin.latest_frame(node).expect("ticked").flatten();
            if sums.len() <= node {
                sums.push(vec![0.0; raw.len()]);
            }
            for (s, x) in sums[node].iter_mut().zip(&raw) {
                *s += x;
            }
        }
    }
    drop(twin);
    let means: Vec<Vec<f64>> = sums
        .into_iter()
        .map(|s| s.into_iter().map(|x| x / WINDOW as f64).collect())
        .collect();
    let scores = reference::deviation_scores(&means);
    let mut problems = Vec::new();
    for env in envs {
        let (Some(node), Some(row)) = (
            env.source
                .name
                .strip_prefix("rank")
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n < NODES),
            env.sample.value.as_vector(),
        ) else {
            continue; // reported by check_window
        };
        if let Some(p) = reference::check_ranking(row, &scores[node], TOP) {
            problems.push(format!("node {node}: {p}"));
        }
    }
    let n = problems.len();
    problems.truncate(3);
    if n > 3 {
        problems.push(format!("... {} more nodes disagree", n - 3));
    }
    problems
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;

    // Set-up: build the cluster and deployment SETUP_REPS times; the last
    // build is the one the timed phase steps.
    let mut setup = Vec::new();
    let mut last = None;
    let mut bytes0 = 0;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        bytes0 = measure::wire_bytes();
        let t = Instant::now();
        last = Some(deploy(seed, false));
        setup.push(secs(t));
    }
    let p = last.expect("at least one set-up");

    let seconds = args.seconds as f64;
    let main = if args.trace {
        let plain = phase(seed, Some(p), false, seconds / 3.0, 1);
        let was = asdf_obs::set_enabled(false);
        let off = phase(seed, None, false, seconds / 3.0, 1);
        asdf_obs::set_enabled(was);
        let traced = phase(seed, None, true, seconds / 3.0, 1);
        let cpu = |p: &Phase| p.cpu_s / p.node_secs;
        out.metric("obs.overhead_pct", 100.0 * (cpu(&plain) / cpu(&off) - 1.0));
        out.metric(
            "trace.overhead_pct",
            100.0 * (cpu(&traced) / cpu(&plain) - 1.0),
        );
        if plain.first != traced.first {
            out.op(
                "traced run",
                vec!["traced rankings differ from untraced rankings".into()],
            );
        }
        traced
    } else {
        phase(seed, Some(p), false, seconds, MIN_PASSES)
    };
    let wire_bytes = measure::wire_bytes() - bytes0;

    let mut problems = main.problems;
    if let (Some((_, envs)), Some((_, p))) = (main.first.iter().next(), problems.first_mut()) {
        p.extend(check_first_window(seed, envs));
    }
    for (what, p) in problems {
        out.op(&what, p);
    }

    let ns = main.node_secs;
    if args.trace {
        let t = &main.totals;
        let ticks = main.times.ticks() as f64;
        out.metric(
            "sim.us_per_node_tick",
            1e6 * timed::secs(t, "cluster_driver") / ns,
        );
        out.metric(
            "collect.sadc_us_per_poll",
            1e6 * timed::secs(t, "sadc") / timed::runs(t, "sadc") as f64,
        );
        out.metric("collect.msgs_per_node_s", main.wire_msgs as f64 / ns);
        out.metric(
            "transport.self_us_per_tick",
            1e6 * (main.times.total_s() - timed::total_secs(t)) / ticks,
        );
        out.metric("transport.envelopes_per_node_s", main.routed as f64 / ns);
        out.metric("transport.env_clones_per_tick", main.clones as f64 / ticks);
        out.metric(
            "analysis.rack_agg_us_per_node_tick",
            1e6 * timed::secs(t, "rack_agg") / ns,
        );
        out.metric(
            "analysis.metric_rank_ms_per_window",
            1e3 * timed::secs(t, "metric_rank") / main.times.close_s.len() as f64,
        );
        out.metric("setup.deploy_s", median(&setup));
    } else {
        let ms = |v: f64| v * 1e3;
        let plain = &main.times.plain_s;
        let close = &main.times.close_s;
        out.metric("setup_s", median(&setup));
        out.metric("node_secs_per_s", ns / main.times.total_s());
        out.metric("cpu_ms_per_node_s", ms(main.cpu_s) / ns);
        out.metric("tick_p50_ms", ms(median(plain)));
        out.metric("tick_tail_ms", median(&main.pass_tails));
        out.metric("close_p50_ms", ms(median(close)));
        out.metric(
            "close_tail_ms",
            ms(quantile(close, tail_quantile(PASS_WINDOWS))),
        );
        out.metric("peak_rss_mb", measure::peak_rss_mb());
        out.metric("wire_bytes_per_node_s", wire_bytes as f64 / ns);
        // Fault-free: balanced accuracy of the emitted alarms over every
        // emitted node-window reduces to specificity.
        let (times, flags) = &main.verdicts;
        out.metric(
            "ba_all_pct",
            reference::balanced_accuracy_pct(times, flags, None, 0),
        );
        // Fault-free: monitored seconds before the first verdict.
        out.metric(
            "detect_latency_s",
            main.first.keys().next().map_or(0.0, |&t| (t + 1) as f64),
        );
    }
    out
}

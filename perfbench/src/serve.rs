//! `serve`: one `ServeDaemon` with two paced tenants, 10 slaves each,
//! white-box on, 10 ms per tick. The feeders keep their schedule whatever
//! the daemon does (an open loop), and the default ingress queue sheds
//! nothing when the daemon keeps up.
//!
//! One operation is one tenant stream. A stream fails when it shed a
//! frame, when its envelope counts are not exactly one alarm and one score
//! per node per window, when its alarms disagree with the
//! threshold/consecutive rule, or when its `bb` stream differs from a
//! serial `TickEngine` deployment of the same seed and options. That
//! serial replay also supplies this workload's tick and close times: the
//! daemon's thread-per-module engine has no tick the benchmark can time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use asdf::pipeline::{AsdfBuilder, AsdfOptions};
use asdf::serve::{ServeDaemon, ServeOptions, TenantReport, TenantSpec};
use asdf_core::module::Envelope;
use asdf_modules::training::BlackBoxModel;
use asdf_rpc::Handshake;
use hadoop_sim::cluster::{Cluster, ClusterConfig};

use crate::measure::{self, median, quantile, secs, tail_quantile, ThreadCpu};
use crate::pipeline::{self, Pipeline, TickTimes};
use crate::reference::{self, Windows};
use crate::timed::{self, Totals};
use crate::{Args, Outcome};

const TENANTS: u64 = 2;
const SLAVES: usize = 10;
const TICK: Duration = Duration::from_millis(10);
const WINDOW: usize = 60;
/// Set-up is repeated this many times per invocation; the median is
/// reported.
const SETUP_REPS: usize = 5;
/// Serial replays per tenant. The replayed ticks are short (about 70 us),
/// so their times are pooled over repeated replays.
const REPLAYS: usize = 5;

fn serve_options() -> ServeOptions {
    ServeOptions {
        slaves: SLAVES,
        wall_per_tick: TICK,
        speed: 1.0,
        window: WINDOW,
        slide: WINDOW,
        white_box: true,
        ..ServeOptions::default()
    }
}

/// The in-process deployment whose `bb` stream a tenant's must equal.
fn replay_options() -> AsdfOptions {
    let s = serve_options();
    AsdfOptions {
        window: s.window,
        slide: s.slide,
        bb_threshold: s.threshold,
        wb_k: s.wb_k,
        consecutive: s.consecutive,
        white_box: false,
        batch_size: s.batch_size,
        engine_threads: 1,
        ..AsdfOptions::default()
    }
}

fn tenant_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k)
}

/// Collection steps a run of `seconds` streams: whole windows only.
fn steps_for(seconds: f64) -> u64 {
    let ticks = (seconds / TICK.as_secs_f64()) as u64;
    (ticks / WINDOW as u64).max(1) * WINDOW as u64
}

/// A daemon with every tenant joined, each streaming `steps` steps.
fn join_all(model: &Arc<BlackBoxModel>, seed: u64, steps: u64) -> ServeDaemon {
    let mut d = ServeDaemon::new(Arc::clone(model), serve_options());
    for k in 0..TENANTS {
        d.join_tenant(
            Handshake::new(format!("t{k}")).encode(),
            TenantSpec::paced(tenant_seed(seed, k), steps),
        )
        .expect("tenant joins");
    }
    d
}

/// One served stretch, from the joins to the shutdown.
struct Served {
    reports: Vec<TenantReport>,
    problems: Vec<String>,
    wall_s: f64,
    cpu_s: f64,
    node_secs: f64,
    threads: ThreadCpu,
}

/// Serves until every tenant has streamed its steps and drained its
/// queue, then shuts down. With `sample_threads`, per-thread CPU is read
/// every 50 ms while serving (feeder threads end when their stream does).
fn serve(daemon: ServeDaemon, steps: u64, started: Instant, sample_threads: bool) -> Served {
    let cpu0 = measure::cpu_s();
    let mut problems = Vec::new();
    let mut threads = ThreadCpu::default();
    if sample_threads {
        let deadline = Instant::now() + Duration::from_secs(120);
        let tenants = daemon.tenants();
        while Instant::now() < deadline
            && !tenants
                .iter()
                .all(|t| daemon.tenant_done_streaming(t) && daemon.tenant_queue_len(t) == 0)
        {
            threads.sample();
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    for t in daemon.tenants() {
        if !daemon.wait_idle(&t, Duration::from_secs(120)) {
            problems.push(format!("tenant {t} did not finish streaming"));
        }
    }
    let wall_s = secs(started);
    if sample_threads {
        // Engine threads end with the shutdown below.
        threads.sample();
    }
    let reports = match daemon.shutdown() {
        Ok(r) => r,
        Err(e) => {
            problems.push(format!("shutdown failed: {e}"));
            Vec::new()
        }
    };
    Served {
        reports,
        problems,
        wall_s,
        cpu_s: measure::cpu_s() - cpu0,
        node_secs: (TENANTS as usize * SLAVES) as f64 * steps as f64,
        threads,
    }
}

fn run_serve(model: &Arc<BlackBoxModel>, seed: u64, steps: u64, sample_threads: bool) -> Served {
    let t = Instant::now();
    serve(join_all(model, seed, steps), steps, t, sample_threads)
}

/// Checks of one tenant's report; returns its parsed verdict windows.
fn check_tenant(r: &TenantReport, steps: u64) -> (Vec<String>, Vec<Windows>) {
    let s = serve_options();
    let mut problems = Vec::new();
    if r.shed != 0 {
        problems.push(format!("shed {} frames", r.shed));
    }
    let want = (steps as usize / WINDOW) * SLAVES * 2;
    let mut parsed = Vec::new();
    for (id, envs, prefix) in [
        ("bb", &r.bb_alarms, "dist"),
        ("wb_tt", &r.wb_tt_alarms, "kcrit"),
        ("wb_st", &r.wb_st_alarms, "kcrit"),
    ] {
        if envs.len() != want {
            problems.push(format!("{id}: {} envelopes, want {want}", envs.len()));
        }
        match Windows::parse(envs, SLAVES, prefix) {
            Ok(w) => {
                let rule = if id == "bb" {
                    reference::check_alarms(&w, |d| d > s.threshold, s.consecutive)
                } else {
                    reference::check_alarms(&w, |k| s.wb_k < k, s.consecutive)
                };
                problems.extend(rule.map(|p| format!("{id}: {p}")));
                parsed.push(w);
            }
            Err(e) => problems.push(format!("{id}: {e}")),
        }
    }
    (problems, parsed)
}

/// Replays tenant `k` on a serial `TickEngine`, stepping tick by tick.
fn replay(
    model: &Arc<BlackBoxModel>,
    seed: u64,
    k: u64,
    steps: u64,
    traced: bool,
    totals: &mut Totals,
) -> Result<(Vec<Envelope>, TickTimes), String> {
    let opts = replay_options();
    let builder = AsdfBuilder::new(opts.clone()).with_model(Arc::clone(model));
    let cluster = Cluster::new(ClusterConfig::new(SLAVES, tenant_seed(seed, k)), Vec::new());
    let mut p = Pipeline::build(&opts, builder, cluster, &["bb"], traced)
        .map_err(|e| format!("replay deploy failed: {e}"))?;
    let times = p
        .step(steps, "bb")
        .map_err(|e| format!("replay failed: {e}"))?;
    if let Some(c) = &p.clocks {
        timed::fold(totals, c);
    }
    Ok((p.drain("bb"), times))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;
    let seconds = args.seconds as f64;
    let steps = steps_for(if args.trace { seconds / 3.0 } else { seconds });
    // Set-up: train the model and join every tenant, SETUP_REPS times.
    // These tenants stream nothing; the timed stretch joins its own.
    let (mut setup, mut train, mut join) = (Vec::new(), Vec::new(), Vec::new());
    let mut model = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let m = pipeline::train_model();
        train.push(secs(t));
        let tj = Instant::now();
        let d = join_all(&m, seed, 0);
        join.push(secs(tj));
        setup.push(secs(t));
        if let Err(e) = d.shutdown() {
            out.op("set-up", vec![format!("shutdown failed: {e}")]);
        }
        model = Some(m);
    }
    let model = model.expect("at least one set-up");

    // The serial replays run before the daemon serves, while no other
    // thread of this process is busy.
    let mut totals = Totals::new();
    let mut times = TickTimes::default();
    // The tail (p99) of each replay's plain ticks, ms.
    let mut replay_tails = Vec::new();
    let mut replays: Vec<Result<Vec<Envelope>, String>> = Vec::new();
    for k in 0..TENANTS {
        let mut first: Option<Result<Vec<Envelope>, String>> = None;
        for _ in 0..REPLAYS {
            let r = replay(&model, seed, k, steps, args.trace, &mut totals).map(|(bb, t)| {
                let q = tail_quantile(t.plain_s.len());
                replay_tails.push(1e3 * quantile(&t.plain_s, q));
                times.extend(t);
                bb
            });
            match &first {
                None => first = Some(r),
                Some(f) if *f != r => {
                    first = Some(Err("repeated serial replays disagree".into()));
                }
                Some(_) => {}
            }
        }
        replays.push(first.expect("at least one replay"));
    }

    let bytes0 = measure::wire_bytes();
    let msgs0 = measure::wire_messages();
    let main = run_serve(&model, seed, steps, false);
    let wire_bytes = measure::wire_bytes() - bytes0;
    let wire_msgs = measure::wire_messages() - msgs0;

    let mut extra = None;
    if args.trace {
        let was = asdf_obs::set_enabled(false);
        let off = run_serve(&model, seed, steps, false);
        asdf_obs::set_enabled(was);
        let traced = run_serve(&model, seed, steps, true);
        let cpu = |s: &Served| s.cpu_s / s.node_secs;
        out.metric("obs.overhead_pct", 100.0 * (cpu(&main) / cpu(&off) - 1.0));
        out.metric(
            "trace.overhead_pct",
            100.0 * (cpu(&traced) / cpu(&main) - 1.0),
        );
        extra = Some(traced);
    }

    // Per tenant: property checks and the serial replay.
    let mut verdicts = Vec::new();
    if !main.problems.is_empty() {
        out.op("daemon", main.problems.clone());
    }
    for (r, bb) in main.reports.iter().zip(&replays) {
        let (mut problems, parsed) = check_tenant(r, steps);
        match bb {
            Ok(bb) if *bb != r.bb_alarms => {
                problems.push("bb stream differs from the serial TickEngine replay".into())
            }
            Ok(_) => {}
            Err(e) => problems.push(e.clone()),
        }
        if parsed.len() == 3 {
            let (t, a) = reference::combine(&[&parsed[0], &parsed[1], &parsed[2]]);
            verdicts.push((t, a));
        }
        out.op(&format!("tenant {}", r.tenant), problems);
    }
    if main.reports.len() != TENANTS as usize {
        out.op(
            "tenants",
            vec![format!(
                "{} tenant reports, want {TENANTS}",
                main.reports.len()
            )],
        );
    }

    let ns = main.node_secs;
    if args.trace {
        let traced = extra.expect("traced stretch ran");
        let tns = traced.node_secs;
        let reps = traced.reports.iter().map(|r| r.delivered).sum::<u64>();
        let replay_ns = (times.ticks() * SLAVES) as f64;
        out.metric(
            "serve.feeder_cpu_ms_per_node_s",
            1e3 * traced.threads.feeders() / tns,
        );
        out.metric(
            "serve.engine_cpu_ms_per_node_s",
            1e3 * traced.threads.engine() / tns,
        );
        out.metric("serve.threads", traced.threads.threads() as f64);
        out.metric("serve.delivered_per_node_s", reps as f64 / tns);
        out.metric("collect.msgs_per_node_s", wire_msgs as f64 / ns);
        out.metric(
            "sim.us_per_node_tick",
            1e6 * timed::secs(&totals, "cluster_driver") / replay_ns,
        );
        out.metric(
            "collect.sadc_us_per_poll",
            1e6 * timed::secs(&totals, "sadc") / timed::runs(&totals, "sadc") as f64,
        );
        out.metric(
            "analysis.knn_us_per_sample",
            1e6 * timed::secs(&totals, "knn") / replay_ns,
        );
        out.metric(
            "analysis.bb_us_per_window",
            1e6 * timed::secs(&totals, "analysis_bb") / times.close_s.len() as f64,
        );
        out.metric("setup.train_s", median(&train));
        out.metric("setup.deploy_s", median(&join));
    } else {
        let ms = |v: f64| v * 1e3;
        let windows = steps as usize / WINDOW;
        out.metric("setup_s", median(&setup));
        out.metric("node_secs_per_s", ns / main.wall_s);
        out.metric("cpu_ms_per_node_s", ms(main.cpu_s) / ns);
        out.metric("tick_p50_ms", ms(median(&times.plain_s)));
        out.metric("tick_tail_ms", median(&replay_tails));
        out.metric("close_p50_ms", ms(median(&times.close_s)));
        out.metric(
            "close_tail_ms",
            ms(quantile(&times.close_s, tail_quantile(windows))),
        );
        out.metric("peak_rss_mb", measure::peak_rss_mb());
        out.metric("wire_bytes_per_node_s", wire_bytes as f64 / ns);
        // Fault-free tenants: balanced accuracy reduces to specificity.
        let mut ba = 0.0;
        for (t, a) in &verdicts {
            ba += reference::balanced_accuracy_pct(t, a, None, 0);
        }
        out.metric("ba_all_pct", ba / verdicts.len().max(1) as f64);
        // Fault-free: monitored seconds before the first verdict.
        let first = verdicts.iter().filter_map(|(t, _)| t.first()).min();
        out.metric("detect_latency_s", first.map_or(0.0, |&t| (t + 1) as f64));
    }
    out
}

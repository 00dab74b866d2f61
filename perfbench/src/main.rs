//! The ASDF benchmark: three workloads driven through the public API the
//! way a user drives ASDF, each checked against computations made here.
//!
//! ```text
//! perfbench --workload <campaign|fleet|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying every
//! end-to-end metric; with `--trace 1` it carries every per-layer metric,
//! which are also written to `perfbench/out/`. See `README.md` for what
//! each workload is made of and which end-to-end metric each per-layer
//! metric should move.

mod campaign;
mod fleet;
mod measure;
mod pipeline;
mod reference;
mod serve;
mod timed;

use std::process::ExitCode;

/// Command-line arguments; all four are required.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// The end-to-end metrics every workload reports with `--trace 0`, with
/// their units.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("node_secs_per_s", "node-s/s"),
    ("cpu_ms_per_node_s", "ms"),
    ("tick_p50_ms", "ms"),
    ("tick_tail_ms", "ms"),
    ("close_p50_ms", "ms"),
    ("close_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("wire_bytes_per_node_s", "B"),
    ("ba_all_pct", "%"),
    ("detect_latency_s", "sim_s"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A layer
/// a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("sim.us_per_node_tick", "us"),
    ("collect.sadc_us_per_poll", "us"),
    ("collect.log_us_per_poll", "us"),
    ("collect.msgs_per_node_s", "count"),
    ("transport.self_us_per_tick", "us"),
    ("transport.envelopes_per_node_s", "count"),
    ("transport.env_clones_per_tick", "count"),
    ("analysis.knn_us_per_sample", "us"),
    ("analysis.mavgvec_us_per_sample", "us"),
    ("analysis.bb_us_per_window", "us"),
    ("analysis.wb_us_per_window", "us"),
    ("analysis.rack_agg_us_per_node_tick", "us"),
    ("analysis.metric_rank_ms_per_window", "ms"),
    ("setup.train_s", "s"),
    ("setup.deploy_s", "s"),
    ("serve.feeder_cpu_ms_per_node_s", "ms"),
    ("serve.engine_cpu_ms_per_node_s", "ms"),
    ("serve.threads", "count"),
    ("serve.delivered_per_node_s", "count"),
    ("obs.overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run hands back: the operation tally and its figures.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, for stderr.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Tallies one operation: it fails when any of `problems` is present.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.failures.push(format!("{what}: {p}"));
            }
        }
    }

    /// Records a figure; its unit comes from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.metrics.push(Metric { name, value, unit });
    }

    /// Orders the figures as declared, filling per-layer metrics of layers
    /// the workload does not run with 0. A missing end-to-end figure is a
    /// bug in the workload.
    fn finish(&mut self, trace: bool) {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut out = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) => out.push(m.clone()),
                None if trace => out.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                }),
                None => panic!("workload did not report `{name}`"),
            }
        }
        self.metrics = out;
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Renders metrics as one JSON object, `{"name": {"value": v, "unit": u}, …}`.
/// Values are printed with Rust's shortest round-trip formatting, so every
/// measured digit is kept.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Renders the result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failures.is_empty(),
        out.attempted,
        out.failed,
        metrics_json(&out.metrics)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <campaign|fleet|serve> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "campaign" => campaign::run(&args),
        "fleet" => fleet::run(&args),
        "serve" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (campaign, fleet, serve)");
            return ExitCode::from(2);
        }
    };
    out.finish(args.trace);
    for f in &out.failures {
        eprintln!("[perfbench] CHECK FAILED {f}");
    }
    for m in &out.metrics {
        eprintln!("[perfbench] {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "[perfbench] {} operations attempted, {} failed",
        out.attempted, out.failed
    );
    if args.trace {
        if let Err(e) = measure::write_trace_file(&args, &out.metrics) {
            eprintln!("perfbench: cannot write trace metrics: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}

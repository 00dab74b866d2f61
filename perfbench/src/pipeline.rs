//! A deployment as the workloads step it: built through the public
//! `AsdfBuilder::deploy` for timed runs, or the way `deploy` builds it but
//! over a timing-decorated registry for traced runs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use asdf::experiments::{self, CampaignConfig};
use asdf::pipeline::{AsdfBuilder, AsdfOptions};
use asdf_core::dag::Dag;
use asdf_core::engine::{TapHandle, TickEngine};
use asdf_core::error::{BuildDagError, RunEngineError};
use asdf_core::module::Envelope;
use asdf_modules::training::BlackBoxModel;
use asdf_rpc::daemons::ClusterHandle;
use hadoop_sim::cluster::Cluster;

use crate::timed::{self, Clocks};

/// The seed the black-box model is trained from. The k-means iteration
/// count, and with it the training time, depends on the training seed
/// (0.16–0.82 s over seeds 1–12 on a
/// 2-vCPU host), so set-up trains from this fixed seed
/// and does the same work whatever `--seed`; `--seed` drives the
/// monitored clusters.
pub const TRAIN_SEED: u64 = 1;

/// Trains the black-box model as `experiments::fig7` does, at
/// `CampaignConfig::default()` sizes, from [`TRAIN_SEED`].
pub fn train_model() -> Arc<BlackBoxModel> {
    experiments::train_model(&CampaignConfig {
        base_seed: TRAIN_SEED,
        ..CampaignConfig::default()
    })
}

/// Tick wall times of one stepped run, split by whether the tick closed
/// an analysis window (its `closer` tap grew).
#[derive(Debug, Default)]
pub struct TickTimes {
    pub plain_s: Vec<f64>,
    pub close_s: Vec<f64>,
}

impl TickTimes {
    pub fn total_s(&self) -> f64 {
        self.plain_s.iter().chain(&self.close_s).sum()
    }

    pub fn ticks(&self) -> usize {
        self.plain_s.len() + self.close_s.len()
    }

    pub fn extend(&mut self, other: TickTimes) {
        self.plain_s.extend(other.plain_s);
        self.close_s.extend(other.close_s);
    }
}

pub struct Pipeline {
    pub engine: TickEngine,
    taps: BTreeMap<String, TapHandle>,
    /// Per-module-type clocks when the deployment is traced.
    pub clocks: Option<Clocks>,
}

impl Pipeline {
    /// Builds a deployment of `builder` over `cluster`, tapping `taps`.
    pub fn build(
        options: &AsdfOptions,
        builder: AsdfBuilder,
        cluster: Cluster,
        taps: &[&str],
        traced: bool,
    ) -> Result<Self, BuildDagError> {
        if !traced {
            let dep = builder.deploy(cluster)?;
            let taps = taps
                .iter()
                .filter_map(|id| dep.tap(id).map(|t| ((*id).to_owned(), t.clone())))
                .collect();
            return Ok(Pipeline {
                engine: dep.engine,
                taps,
                clocks: None,
            });
        }
        let names: Vec<String> = (0..cluster.n_slaves())
            .map(|i| cluster.slave_name(i).to_owned())
            .collect();
        let handle = ClusterHandle::new(cluster);
        let mut clocks = Clocks::new();
        let registry = timed::registry(handle, &mut clocks);
        let dag = Dag::build(&registry, &builder.config_with_names(&names))?;
        let mut engine = TickEngine::with_threads(dag, options.engine_threads);
        engine.set_batch_size(options.batch_size);
        let mut p = Pipeline {
            engine,
            taps: BTreeMap::new(),
            clocks: Some(clocks),
        };
        for id in taps {
            p.add_tap(id);
        }
        Ok(p)
    }

    /// Taps one more instance (before the first tick).
    pub fn add_tap(&mut self, id: &str) {
        if let Some(t) = self.engine.tap(id) {
            self.taps.insert(id.to_owned(), t);
        }
    }

    /// Everything `id`'s tap has captured so far.
    pub fn drain(&self, id: &str) -> Vec<Envelope> {
        self.taps.get(id).map(TapHandle::drain).unwrap_or_default()
    }

    /// Steps the engine `ticks` times, one `TickEngine::tick` at a time,
    /// timing each tick.
    pub fn step(&mut self, ticks: u64, closer: &str) -> Result<TickTimes, RunEngineError> {
        let closer = self.taps.get(closer).expect("closer tap exists").clone();
        let mut times = TickTimes::default();
        for _ in 0..ticks {
            let seen = closer.len();
            let t = Instant::now();
            self.engine.tick()?;
            let dt = t.elapsed().as_secs_f64();
            if closer.len() > seen {
                times.close_s.push(dt);
            } else {
                times.plain_s.push(dt);
            }
        }
        Ok(times)
    }
}

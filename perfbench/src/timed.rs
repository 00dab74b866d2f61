//! The traced run's instrument: a module registry whose factories wrap
//! every registered module in a timing decorator, so each layer's time is
//! measured from the benchmark's side of the `Module` calls.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use asdf_core::error::ModuleError;
use asdf_core::module::{InitCtx, Module, RunCtx, RunReason};
use asdf_core::registry::ModuleRegistry;
use asdf_rpc::daemons::ClusterHandle;

/// Time spent in, and calls made to, one module type.
#[derive(Debug, Default)]
pub struct TypeClock {
    ns: AtomicU64,
    runs: AtomicU64,
}

impl TypeClock {
    pub fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }
}

/// Forwards every `Module` method to the wrapped module, timing the runs.
struct Timed {
    inner: Box<dyn Module>,
    clock: Arc<TypeClock>,
}

impl Timed {
    fn timed(
        &mut self,
        f: impl FnOnce(&mut dyn Module) -> Result<(), ModuleError>,
    ) -> Result<(), ModuleError> {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        let ns = t.elapsed().as_nanos() as u64;
        self.clock.ns.fetch_add(ns, Ordering::Relaxed);
        self.clock.runs.fetch_add(1, Ordering::Relaxed);
        r
    }
}

impl Module for Timed {
    fn init(&mut self, ctx: &mut InitCtx<'_>) -> Result<(), ModuleError> {
        self.inner.init(ctx)
    }

    fn run(&mut self, ctx: &mut RunCtx<'_>, reason: RunReason) -> Result<(), ModuleError> {
        self.timed(|m| m.run(ctx, reason))
    }

    fn run_batch(&mut self, ctx: &mut RunCtx<'_>, reason: RunReason) -> Result<(), ModuleError> {
        self.timed(|m| m.run_batch(ctx, reason))
    }

    fn accepts_row_blocks(&self) -> bool {
        self.inner.accepts_row_blocks()
    }
}

/// Per-module-type clocks of one traced deployment, keyed by type name.
pub type Clocks = BTreeMap<String, Arc<TypeClock>>;

/// The registry `asdf_modules::register_all` builds over `cluster`, with
/// every type wrapped in a [`Timed`] decorator feeding `clocks`.
pub fn registry(cluster: ClusterHandle, clocks: &mut Clocks) -> ModuleRegistry {
    let mut plain = ModuleRegistry::new();
    asdf_modules::register_all(&mut plain, cluster);
    let names: Vec<String> = plain.type_names().into_iter().map(str::to_owned).collect();
    let plain = Arc::new(plain);
    let mut wrapped = ModuleRegistry::new();
    for name in names {
        let clock = Arc::clone(clocks.entry(name.clone()).or_default());
        let plain = Arc::clone(&plain);
        let ty = name.clone();
        wrapped.register(name, move || {
            Box::new(Timed {
                inner: plain.create(&ty).expect("type was registered"),
                clock: Arc::clone(&clock),
            })
        });
    }
    wrapped
}

/// `(seconds, runs)` per module type, summed over traced deployments.
pub type Totals = BTreeMap<String, (f64, u64)>;

/// Adds one deployment's clocks into `totals`.
pub fn fold(totals: &mut Totals, clocks: &Clocks) {
    for (name, c) in clocks {
        let t = totals.entry(name.clone()).or_default();
        t.0 += c.secs();
        t.1 += c.runs();
    }
}

/// Seconds spent in module type `ty`.
pub fn secs(totals: &Totals, ty: &str) -> f64 {
    totals.get(ty).map_or(0.0, |t| t.0)
}

/// Runs made by module type `ty`.
pub fn runs(totals: &Totals, ty: &str) -> u64 {
    totals.get(ty).map_or(0, |t| t.1)
}

/// Seconds spent in every module type.
pub fn total_secs(totals: &Totals) -> f64 {
    totals.values().map(|t| t.0).sum()
}

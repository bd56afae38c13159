//! Harness wrappers that record a span around each call across a layer's
//! public trait boundary. Only traced passes install them.

use bprc_sim::turn::{TurnProbe, TurnProcess, TurnStep};
use bprc_sim::{Ctx, FastPod, Halted, ProcMetrics, World};
use bprc_snapshot::{ScanStats, SnapshotBackend, SnapshotMeta, SnapshotPort};

use crate::spans;

/// A protocol core whose `on_scan` calls are recorded as `core.on_scan`.
#[derive(Debug)]
pub struct TracedProc<P>(pub P);

impl<P: TurnProcess> TurnProcess for TracedProc<P> {
    type Msg = P::Msg;
    type Out = P::Out;

    fn initial_msg(&mut self) -> P::Msg {
        self.0.initial_msg()
    }

    fn on_scan(&mut self, view: &[P::Msg]) -> TurnStep<P::Msg, P::Out> {
        let _span = spans::enter("core.on_scan");
        self.0.on_scan(view)
    }

    fn probe(&self) -> TurnProbe {
        self.0.probe()
    }

    fn publish_telemetry(&self, m: &ProcMetrics<'_>) {
        self.0.publish_telemetry(m);
    }
}

/// A snapshot backend whose ports record `snapshot.update` and
/// `snapshot.scan`.
#[derive(Debug, Clone)]
pub struct TracedBackend<B>(pub B);

/// A port of a [`TracedBackend`].
#[derive(Debug)]
pub struct TracedPort<P>(pub P);

impl<T, B> SnapshotBackend<T> for TracedBackend<B>
where
    T: Clone + PartialEq + Send + Sync + 'static,
    B: SnapshotBackend<T>,
{
    type Port = TracedPort<B::Port>;

    const NAME: &'static str = B::NAME;

    fn alloc(world: &World, n: usize, init: T) -> Self {
        TracedBackend(B::alloc(world, n, init))
    }

    fn alloc_fast(world: &World, n: usize, init: T) -> Self
    where
        T: FastPod,
    {
        TracedBackend(B::alloc_fast(world, n, init))
    }

    fn n(&self) -> usize {
        self.0.n()
    }

    fn port(&self, pid: usize) -> Self::Port {
        TracedPort(self.0.port(pid))
    }

    fn meta(&self) -> SnapshotMeta {
        self.0.meta()
    }

    fn stats(&self, pid: usize) -> &ScanStats {
        self.0.stats(pid)
    }

    fn set_scan_retry_budget(&self, budget: Option<u64>) {
        self.0.set_scan_retry_budget(budget);
    }

    fn scan_retry_budget(&self) -> Option<u64> {
        self.0.scan_retry_budget()
    }
}

impl<T, P: SnapshotPort<T>> SnapshotPort<T> for TracedPort<P> {
    fn pid(&self) -> usize {
        self.0.pid()
    }

    fn update(&mut self, ctx: &mut Ctx, value: T) -> Result<(), Halted> {
        let _span = spans::enter("snapshot.update");
        self.0.update(ctx, value)
    }

    fn scan(&mut self, ctx: &mut Ctx) -> Result<Vec<T>, Halted> {
        let _span = spans::enter("snapshot.scan");
        self.0.scan(ctx)
    }

    fn scan_into(&mut self, ctx: &mut Ctx, out: &mut Vec<T>) -> Result<(), Halted> {
        let _span = spans::enter("snapshot.scan");
        self.0.scan_into(ctx, out)
    }

    fn set_lazy(&mut self, lazy: bool) {
        self.0.set_lazy(lazy);
    }
}

//! The intent-based control plane (the public face of Fig. 6's
//! multi-tenant orchestrator).
//!
//! The raw [`Orchestrator`] is a single-threaded `&mut self` object: one
//! caller pokes it directly. Scaling past one caller — the paper's
//! "multiple-tenant SDN-enabled network" — needs an asynchronous
//! request/response protocol with admission control in front of it. That
//! is the [`ControlPlane`]:
//!
//! * **Intents, not method calls.** Tenants [`ControlPlane::submit`]
//!   typed [`Intent`]s (deploy, teardown, modify, scale, fail, restore,
//!   reoptimize) and get an [`IntentId`] ticket back immediately.
//! * **Fair deterministic batches.** A driver calls
//!   [`ControlPlane::process_batch`]; queued intents are drained from
//!   per-tenant queues by a deterministic deficit-round-robin scheduler
//!   ([`SchedulerMode`], weights from [`TenantQuota::weight`]), so one
//!   tenant's burst cannot starve everyone else's queue slots. Within a
//!   batch, maximal runs of consecutive deployments coalesce into
//!   [`Orchestrator::deploy_chains`] bulk construction (one pool
//!   partition for the run, layers built in the calling thread).
//! * **Admission control.** Per-tenant rate and quota limits plus
//!   capacity pre-checks reject hopeless or over-budget intents *before*
//!   any state is touched ([`AdmissionError`]); a rejected intent leaves
//!   zero residual SDN or ledger state and consumes none of the tenant's
//!   per-batch rate budget.
//! * **Copy-on-write snapshot reads.** [`ControlPlane::view`] hands out
//!   an `Arc<StateView>` published at the last batch boundary; readers
//!   never block intent execution and always see a consistent world.
//!   Publication is incremental and copy-on-write: every batch, tenant or
//!   operator, patches only the entries it touched into the one published
//!   snapshot — in place if no reader holds it, else into a clone that
//!   shares every untouched chunk of its [`ChunkMap`]s. A `view()` call
//!   waits for at most that one patch.
//! * **Replayable log.** Every executed intent lands in the
//!   [`IntentLog`] with its batch index and outcome — the scheduler's
//!   drain order *is* the recorded batch order, so
//!   [`ControlPlane::replay`] re-executes the recorded batches directly
//!   on a fresh control plane and reproduces the live run's
//!   [`StateView`] bit-for-bit.
//! * **Bounded bookkeeping.** Trace contexts are dropped when an
//!   intent's root span closes, and the outcome map can be bounded with
//!   [`ControlPlaneBuilder::outcome_retention`], so a sustained
//!   million-intent stream runs in bounded memory.
//!
//! ```
//! use std::sync::Arc;
//! use alvc_core::construction::PaperGreedy;
//! use alvc_nfv::chain::fig5;
//! use alvc_nfv::{ControlPlane, Intent, IntentOutcome, TenantQuota};
//! use alvc_topology::AlvcTopologyBuilder;
//!
//! let dc = Arc::new(AlvcTopologyBuilder::new().racks(4).ops_count(12).seed(9).build());
//! let cp = ControlPlane::builder()
//!     .batch_size(8)
//!     .default_quota(TenantQuota::new(4, 8))
//!     .build(dc.clone());
//! let vms: Vec<_> = dc.vm_ids().take(8).collect();
//! let spec = fig5::black(vms[0], vms[7]);
//! let ticket = cp.submit("tenant-a", Intent::DeployChain { vms, spec });
//! cp.process_batch();
//! assert!(cp.outcome(ticket).unwrap().is_completed());
//! assert_eq!(cp.view().chain_count(), 1);
//! ```

mod admission;
pub mod chunk_map;
mod intent;
mod scheduler;
mod view;

pub use admission::{AdmissionError, AdmissionPolicy, TenantQuota};
pub use chunk_map::ChunkMap;
pub use intent::{
    Intent, IntentEffect, IntentId, IntentKind, IntentLog, IntentOutcome, IntentRecord,
};
pub use scheduler::SchedulerMode;
pub use view::{ChainView, ClusterSliceView, InstanceView, StateView, TenantView};

use scheduler::SubmissionQueues;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use alvc_core::construction::{AlConstruct, PaperGreedy};
use alvc_core::LabelId;
use alvc_telemetry::{FieldValue, TraceCtx, TraceId};
use alvc_topology::{DataCenter, VmId};

use crate::chain::{ChainSpec, NfcId};
use crate::changes::ChangeSet;
use crate::error::Error;
use crate::orchestrator::{kbps, Orchestrator};
use crate::placement::{ElectronicOnlyPlacer, VnfPlacer};

/// One queued submission.
#[derive(Debug, Clone)]
struct Submission {
    id: IntentId,
    tenant: String,
    intent: Intent,
}

/// A live chain's tenant, and what that tenant's aggregate counts for it.
struct Owner {
    tenant: String,
    /// The committed kb/s counted for the chain; `None` until
    /// [`Inner::settle`] has seen it live.
    counted_kbps: Option<u64>,
}

/// State guarded by the write-path lock: the orchestrator plus the
/// bookkeeping only intent execution touches.
struct Inner {
    orch: Orchestrator,
    /// Live chain → owning tenant; maintained here because the control
    /// plane executes every mutation.
    owners: BTreeMap<NfcId, Owner>,
    /// Per-tenant usage — `owners` inverted and summed, kept current by
    /// [`Inner::settle`]. Serves the quota check and the published
    /// [`StateView::tenants`]; only tenants with live chains appear.
    tenants: BTreeMap<String, TenantView>,
    /// Entries the orchestrator marked during this batch so far.
    marks: ChangeSet,
    log: IntentLog,
    batches: u64,
    intents_processed: u64,
}

impl Inner {
    /// Reconciles `owners` and `tenants` with the chains the orchestrator
    /// marked since the last call, and moves the marks to the batch's. Run
    /// after every execution step, so admission later in the same batch
    /// sees exact ownership and quota usage — whichever intent removed or
    /// changed a chain (a teardown, or a failure's recovery ladder
    /// discarding it).
    fn settle(&mut self) {
        let step = self.orch.changes.take();
        for &id in &step.chains {
            let Some(owner) = self.owners.get_mut(&id) else {
                continue;
            };
            let now = self.orch.chains.get(&id).map(|c| c.bandwidth_kbps());
            if !self.tenants.contains_key(&owner.tenant) {
                self.tenants
                    .insert(owner.tenant.clone(), TenantView::default());
            }
            let usage = self.tenants.get_mut(&owner.tenant).expect("just ensured");
            usage.live_chains = usage.live_chains + usize::from(now.is_some())
                - usize::from(owner.counted_kbps.is_some());
            usage.committed_kbps =
                usage.committed_kbps + now.unwrap_or(0) - owner.counted_kbps.unwrap_or(0);
            usage.replicas = usage
                .replicas
                .checked_add_signed(step.replicas.get(&id).copied().unwrap_or(0))
                .expect("a tenant loses only replicas it was counted");
            owner.counted_kbps = now;
            if usage.live_chains == 0 {
                self.tenants.remove(&owner.tenant);
            }
            if now.is_none() {
                self.owners.remove(&id);
            }
        }
        self.marks.absorb(&step);
    }
}

/// An executed intent's published record: its outcome plus the causal
/// trace it was stamped with at submission (when tracing was on).
struct CompletedIntent {
    outcome: IntentOutcome,
    trace: Option<TraceId>,
}

/// Configures and builds a [`ControlPlane`].
///
/// Defaults: batch size 32, unlimited quotas, operator tenant
/// `"operator"`, a fresh [`Orchestrator`], the paper's greedy AL
/// constructor, and the electronic-only placer.
pub struct ControlPlaneBuilder {
    batch_size: usize,
    policy: AdmissionPolicy,
    orchestrator: Orchestrator,
    placer: Box<dyn VnfPlacer + Send + Sync>,
    scheduler: SchedulerMode,
    outcome_retention: Option<usize>,
}

impl Default for ControlPlaneBuilder {
    fn default() -> Self {
        ControlPlaneBuilder {
            batch_size: 32,
            policy: AdmissionPolicy::default(),
            orchestrator: Orchestrator::new(),
            placer: Box::new(ElectronicOnlyPlacer::new()),
            scheduler: SchedulerMode::default(),
            outcome_retention: None,
        }
    }
}

impl ControlPlaneBuilder {
    /// Starts from the defaults.
    pub(crate) fn new() -> Self {
        ControlPlaneBuilder::default()
    }

    /// Maximum intents executed per [`ControlPlane::process_batch`] call.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn batch_size(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        self.batch_size = n;
        self
    }

    /// The quota applying to tenants without an explicit override.
    pub fn default_quota(mut self, quota: TenantQuota) -> Self {
        self.policy.default_quota = quota;
        self
    }

    /// An explicit quota for one tenant.
    pub fn tenant_quota(mut self, tenant: &str, quota: TenantQuota) -> Self {
        self.policy.overrides.insert(tenant.to_string(), quota);
        self
    }

    /// The tenant allowed to submit operator-only intents
    /// (default `"operator"`).
    pub fn operator(mut self, tenant: &str) -> Self {
        self.policy.operator = tenant.to_string();
        self
    }

    /// Brings a pre-configured orchestrator (SDN table limits, O/E/O cost
    /// model — see [`crate::OrchestratorBuilder`]).
    #[cfg(test)]
    fn orchestrator(mut self, orch: Orchestrator) -> Self {
        self.orchestrator = orch;
        self
    }

    /// The VNF placement strategy (default: [`ElectronicOnlyPlacer`]).
    pub fn placer(mut self, p: impl VnfPlacer + Send + Sync + 'static) -> Self {
        self.placer = Box::new(p);
        self
    }

    /// How queued submissions are drained into batches (default:
    /// [`SchedulerMode::DeficitRoundRobin`]).
    pub fn scheduler(mut self, mode: SchedulerMode) -> Self {
        self.scheduler = mode;
        self
    }

    /// Keeps at most `n` executed-intent outcomes; older tickets are
    /// evicted (their [`ControlPlane::outcome`] returns `None`). The
    /// default retains every outcome, which matches the historical
    /// behavior but grows without bound on sustained streams.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — a batch's own outcomes must survive its
    /// publication.
    pub fn outcome_retention(mut self, n: usize) -> Self {
        assert!(n > 0, "outcome retention must be positive");
        self.outcome_retention = Some(n);
        self
    }

    /// Builds the control plane over `dc`.
    pub fn build(self, dc: Arc<DataCenter>) -> ControlPlane {
        let max_link_kbps = dc
            .graph()
            .edges()
            .map(|(_, _, _, link)| kbps(link.bandwidth_gbps))
            .max()
            .unwrap_or(0);
        // Chains a pre-configured orchestrator brings along belong to the
        // empty tenant; the initial capture covers whatever it marked.
        let mut orch = self.orchestrator;
        orch.changes.take();
        let owners: BTreeMap<NfcId, Owner> = orch
            .chains()
            .map(|chain| {
                let owner = Owner {
                    tenant: String::new(),
                    counted_kbps: Some(chain.bandwidth_kbps()),
                };
                (chain.nfc().id(), owner)
            })
            .collect();
        let view = StateView::capture(0, 0, &orch, &owners);
        let inner = Inner {
            orch,
            owners,
            tenants: view.tenants.iter().map(|(t, &u)| (t.clone(), u)).collect(),
            marks: ChangeSet::default(),
            log: IntentLog::new(),
            batches: 0,
            intents_processed: 0,
        };
        ControlPlane {
            dc,
            batch_size: self.batch_size,
            policy: self.policy,
            constructor: Box::new(PaperGreedy::new()),
            placer: self.placer,
            max_link_kbps,
            outcome_retention: self.outcome_retention,
            next_id: AtomicU64::new(0),
            queue: Mutex::new(SubmissionQueues::new(self.scheduler)),
            inner: Mutex::new(inner),
            completed: Mutex::new(BTreeMap::new()),
            view: RwLock::new(Arc::new(view)),
            traces: Mutex::new(HashMap::new()),
        }
    }
}

/// The intent-based control-plane service: a concurrent multi-tenant
/// frontend over one [`Orchestrator`]. See the [module docs](self) for
/// the full model and an example.
///
/// All methods take `&self`; share the control plane across submitter
/// threads with `Arc<ControlPlane>` while one driver thread calls
/// [`ControlPlane::process_batch`].
pub struct ControlPlane {
    dc: Arc<DataCenter>,
    batch_size: usize,
    policy: AdmissionPolicy,
    constructor: Box<dyn AlConstruct + Send + Sync>,
    placer: Box<dyn VnfPlacer + Send + Sync>,
    /// Capacity of the fattest link, for the unservable-bandwidth
    /// pre-check.
    max_link_kbps: u64,
    /// Maximum retained outcomes; `None` keeps everything.
    outcome_retention: Option<usize>,
    next_id: AtomicU64,
    queue: Mutex<SubmissionQueues>,
    inner: Mutex<Inner>,
    completed: Mutex<BTreeMap<IntentId, CompletedIntent>>,
    view: RwLock<Arc<StateView>>,
    /// Root trace context and submission timestamp per *pending* intent,
    /// populated only while causal tracing is enabled (see
    /// [`alvc_telemetry::trace::set_tracing_enabled`]). Entries move into
    /// the `completed` store when the intent's root span closes, so this
    /// map is bounded by the queue depth. Kept out of the [`IntentLog`]
    /// so replayed logs stay bit-identical to live runs.
    traces: Mutex<HashMap<IntentId, (TraceCtx, u64)>>,
}

impl ControlPlane {
    /// Starts configuring a control plane.
    pub fn builder() -> ControlPlaneBuilder {
        ControlPlaneBuilder::new()
    }

    /// A control plane over `dc` with all defaults (see
    /// [`ControlPlaneBuilder`]).
    pub fn new(dc: Arc<DataCenter>) -> ControlPlane {
        ControlPlaneBuilder::new().build(dc)
    }

    /// The data center this control plane manages.
    pub fn data_center(&self) -> &Arc<DataCenter> {
        &self.dc
    }

    /// Enqueues an intent on behalf of `tenant` and returns its ticket.
    /// The intent executes during a later [`ControlPlane::process_batch`]
    /// call; poll [`ControlPlane::outcome`] with the ticket.
    pub fn submit(&self, tenant: &str, intent: Intent) -> IntentId {
        let id = IntentId(self.next_id.fetch_add(1, Ordering::Relaxed));
        if alvc_telemetry::trace::tracing_enabled() {
            let ctx = alvc_telemetry::trace::new_root_ctx();
            self.traces
                .lock()
                .insert(id, (ctx, alvc_telemetry::now_monotonic_us()));
        }
        let weight = self.policy.quota_for(tenant).effective_weight();
        self.queue.lock().push(
            Submission {
                id,
                tenant: tenant.to_string(),
                intent,
            },
            weight,
        );
        id
    }

    /// The causal trace stamped on intent `id` at submission; `None` when
    /// the intent is unknown (or evicted) or tracing was off when it was
    /// submitted.
    pub fn trace_of(&self, id: IntentId) -> Option<TraceId> {
        if let Some(trace) = self.traces.lock().get(&id).map(|(ctx, _)| ctx.trace) {
            return Some(trace);
        }
        self.completed.lock().get(&id).and_then(|c| c.trace)
    }

    /// Serializes the flight recorder's current contents as JSON lines
    /// (oldest surviving entry first), for offline analysis with
    /// `alvc-trace`. Empty when tracing never ran.
    pub fn dump_flight_recorder(&self) -> String {
        alvc_telemetry::recorder::recorder_dump_jsonl()
    }

    fn trace_ctx_of(&self, id: IntentId) -> TraceCtx {
        self.traces
            .lock()
            .get(&id)
            .map_or(TraceCtx::NONE, |(ctx, _)| *ctx)
    }

    /// Intents queued but not yet executed.
    pub fn queue_depth(&self) -> usize {
        self.queue.lock().len()
    }

    /// The outcome of an executed intent, `None` while it is still
    /// queued, after it was evicted by the retention window (see
    /// [`ControlPlaneBuilder::outcome_retention`]), or if it was never
    /// submitted.
    pub fn outcome(&self, id: IntentId) -> Option<IntentOutcome> {
        self.completed.lock().get(&id).map(|c| c.outcome.clone())
    }

    /// Number of pending trace contexts (bounded by the queue depth —
    /// entries move into the outcome store when an intent completes).
    pub fn trace_map_len(&self) -> usize {
        self.traces.lock().len()
    }

    /// Number of retained outcomes (bounded by
    /// [`ControlPlaneBuilder::outcome_retention`] when set).
    pub fn outcome_map_len(&self) -> usize {
        self.completed.lock().len()
    }

    /// The current snapshot. A cheap `Arc` clone: readers never block
    /// intent execution and see the consistent state as of the last
    /// batch boundary. The call waits only while a batch's publication
    /// patches the snapshot, an O(blast radius) step.
    pub fn view(&self) -> Arc<StateView> {
        self.view.read().clone()
    }

    /// A copy of the intent log so far (execution order, with batch
    /// indices and outcomes).
    pub fn intent_log(&self) -> IntentLog {
        self.inner.lock().log.clone()
    }

    /// Runs a read-only closure against the live orchestrator (blocks
    /// intent execution; meant for tests and invariant checks, not for
    /// read traffic — use [`ControlPlane::view`] for that).
    pub fn inspect<R>(&self, f: impl FnOnce(&Orchestrator) -> R) -> R {
        f(&self.inner.lock().orch)
    }

    /// Executes up to [`ControlPlaneBuilder::batch_size`] queued intents in
    /// submission order and publishes a fresh [`StateView`]. Returns the
    /// number executed (0 when the queue was empty).
    pub fn process_batch(&self) -> usize {
        let _span = alvc_telemetry::span!("alvc_nfv.control.batch_us");
        self.process_n(self.batch_size)
    }

    /// Drains the queue completely, batch by batch. Returns the total
    /// number of intents executed.
    pub fn process_all(&self) -> usize {
        let mut total = 0;
        loop {
            let n = self.process_batch();
            if n == 0 {
                return total;
            }
            total += n;
        }
    }

    /// Re-executes `log` on this control plane, preserving the recorded
    /// batch boundaries (admission is batch-scoped, so they are part of
    /// the run's identity). The scheduler is bypassed: the recorded drain
    /// order *is* the batch order, with the live run's intent ids
    /// reassigned verbatim — DRR deficit state depends on queue contents
    /// that no longer exist at replay time, so re-scheduling would
    /// diverge. Because every execution stage — admission, construction,
    /// placement, routing, id assignment — is deterministic, the final
    /// [`StateView`] and the regenerated log are bit-identical to the
    /// live run's.
    ///
    /// # Panics
    ///
    /// Panics if this control plane has already executed intents or has
    /// queued submissions: replay needs the same initial state the live
    /// run started from.
    pub fn replay(&self, log: &IntentLog) -> Arc<StateView> {
        assert_eq!(
            self.inner.lock().intents_processed,
            0,
            "replay requires a fresh control plane"
        );
        assert_eq!(
            self.queue_depth(),
            0,
            "replay requires an empty submission queue"
        );
        let records = log.records();
        let mut next_id = 0u64;
        let mut i = 0;
        while i < records.len() {
            let batch_index = records[i].batch;
            let mut batch = Vec::new();
            while i < records.len() && records[i].batch == batch_index {
                let r = &records[i];
                next_id = next_id.max(r.id.0 + 1);
                if alvc_telemetry::trace::tracing_enabled() {
                    let ctx = alvc_telemetry::trace::new_root_ctx();
                    self.traces
                        .lock()
                        .insert(r.id, (ctx, alvc_telemetry::now_monotonic_us()));
                }
                batch.push(Submission {
                    id: r.id,
                    tenant: r.tenant.clone(),
                    intent: r.intent.clone(),
                });
                i += 1;
            }
            self.execute_batch(&batch);
        }
        // Fresh submissions after a replay continue the id sequence.
        self.next_id.store(next_id, Ordering::Relaxed);
        self.view()
    }

    /// Executes up to `limit` queued intents as one batch, in scheduler
    /// drain order.
    fn process_n(&self, limit: usize) -> usize {
        let batch: Vec<Submission> = self.queue.lock().drain(limit);
        if batch.is_empty() {
            return 0;
        }
        self.execute_batch(&batch)
    }

    /// Executes `batch` as one batch: admission, coalesced execution,
    /// logging, and snapshot publication.
    fn execute_batch(&self, batch: &[Submission]) -> usize {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let batch_index = inner.batches;

        // Per-slot outcomes, filled in submission order; consecutive
        // admitted deployments coalesce into one bulk construction.
        let mut outcomes: Vec<Option<IntentOutcome>> = vec![None; batch.len()];
        let mut run: Vec<(usize, String, Vec<VmId>, ChainSpec)> = Vec::new();
        // Deterministic batch-scoped admission state.
        let mut rate_used: BTreeMap<&str, usize> = BTreeMap::new();

        for (slot, sub) in batch.iter().enumerate() {
            let admit_start = Instant::now();
            let quota = self.policy.quota_for(&sub.tenant);
            // The rate budget counts *admitted* intents only — rejections
            // (including this one) never consume it, so garbage cannot
            // crowd a tenant's valid intents out of its own budget (see
            // the `admission` module docs).
            if let Some(cap) = quota.max_intents_per_batch {
                let used = rate_used.get(sub.tenant.as_str()).copied().unwrap_or(0);
                if used >= cap {
                    let rej = AdmissionError::RateLimited {
                        tenant: sub.tenant.clone(),
                        limit: cap,
                    };
                    self.note_admission(sub, admit_start, Some(&rej));
                    outcomes[slot] = Some(IntentOutcome::Rejected(rej));
                    continue;
                }
            }
            match &sub.intent {
                Intent::DeployChain { vms, spec } => {
                    match self.admit_deploy(inner, &sub.tenant, vms, spec, &run) {
                        Err(rej) => {
                            self.note_admission(sub, admit_start, Some(&rej));
                            outcomes[slot] = Some(IntentOutcome::Rejected(rej));
                        }
                        Ok(()) => {
                            self.note_admission(sub, admit_start, None);
                            *rate_used.entry(sub.tenant.as_str()).or_insert(0) += 1;
                            run.push((slot, sub.tenant.clone(), vms.clone(), spec.clone()));
                        }
                    }
                }
                other => {
                    match self.admit_other(inner, &sub.tenant, other) {
                        Err(rej) => {
                            // Rejections have no side effects, so the
                            // pending deployment run stays intact.
                            self.note_admission(sub, admit_start, Some(&rej));
                            outcomes[slot] = Some(IntentOutcome::Rejected(rej));
                        }
                        Ok(()) => {
                            // A mutating intent: everything admitted
                            // before it must be committed first.
                            self.note_admission(sub, admit_start, None);
                            *rate_used.entry(sub.tenant.as_str()).or_insert(0) += 1;
                            self.flush_deploys(inner, batch, &mut run, &mut outcomes);
                            let _g = alvc_telemetry::trace::enter(self.trace_ctx_of(sub.id));
                            let mut exec_span = alvc_telemetry::trace::child_span("intent.execute");
                            let start = Instant::now();
                            let outcome = self.execute_other(inner, &sub.tenant, other);
                            inner.settle();
                            record_latency(start.elapsed().as_secs_f64() * 1e6);
                            exec_span.set_status(outcome.label());
                            if let IntentOutcome::Failed(e) = &outcome {
                                exec_span.set_code(e.code());
                            }
                            outcomes[slot] = Some(outcome);
                        }
                    }
                }
            }
        }
        self.flush_deploys(inner, batch, &mut run, &mut outcomes);

        // Log, publish outcomes, swap the snapshot.
        let mut completed = self.completed.lock();
        for (sub, outcome) in batch.iter().zip(outcomes) {
            let outcome = outcome.unwrap_or_else(|| {
                panic!(
                    "admission invariant: {} of {} left undecided",
                    sub.id, sub.tenant
                )
            });
            let trace = self.close_intent_root(sub, &outcome);
            inner.log.push(IntentRecord {
                id: sub.id,
                tenant: sub.tenant.clone(),
                batch: batch_index,
                intent: sub.intent.clone(),
                outcome: outcome.clone(),
            });
            completed.insert(sub.id, CompletedIntent { outcome, trace });
        }
        if let Some(cap) = self.outcome_retention {
            while completed.len() > cap {
                completed.pop_first();
            }
        }
        drop(completed);
        inner.batches += 1;
        inner.intents_processed += batch.len() as u64;
        // Publish: patch this batch's marks into the published snapshot
        // under the write lock. `make_mut` patches it in place unless a
        // reader still holds it; then it patches a clone, which shares
        // every chunk the batch left alone, and the reader keeps its value.
        let marks = std::mem::take(&mut inner.marks);
        Arc::make_mut(&mut self.view.write()).apply_delta(
            inner.batches,
            inner.intents_processed,
            &inner.orch,
            &inner.owners,
            &inner.tenants,
            &marks,
        );
        debug_assert_eq!(
            *self.view(),
            StateView::capture(
                inner.batches,
                inner.intents_processed,
                &inner.orch,
                &inner.owners,
            ),
            "a mutation in this batch did not mark an entry it touched"
        );
        batch.len()
    }

    /// Recomputes a full [`StateView`] capture of the live orchestrator,
    /// without publishing it. Meant for tests and invariant checks — the
    /// incremental-publication property test asserts this equals
    /// [`ControlPlane::view`] after every batch.
    pub fn recompute_view(&self) -> Arc<StateView> {
        let inner = self.inner.lock();
        Arc::new(StateView::capture(
            inner.batches,
            inner.intents_processed,
            &inner.orch,
            &inner.owners,
        ))
    }

    /// Bumps per-tenant admission counters and records the synthetic
    /// `intent.admission` span for one decided slot.
    fn note_admission(
        &self,
        sub: &Submission,
        started: Instant,
        rejected: Option<&AdmissionError>,
    ) {
        let us = started.elapsed().as_secs_f64() * 1e6;
        alvc_telemetry::counter_with("alvc_nfv.control.tenant_intents", &sub.tenant).incr();
        if rejected.is_some() {
            alvc_telemetry::counter_with("alvc_nfv.control.tenant_rejections", &sub.tenant).incr();
        }
        alvc_telemetry::trace::record_span(
            self.trace_ctx_of(sub.id),
            "intent.admission",
            us,
            if rejected.is_some() { "rejected" } else { "ok" },
            rejected.map_or("", |r| r.code()),
            Vec::new(),
        );
    }

    /// Closes intent `sub`'s root span with its final outcome, measuring
    /// submission → outcome publication, and retires the pending trace
    /// entry (the id lives on in the outcome store). Returns the trace id
    /// for that store; `None` when tracing was off at submission time.
    fn close_intent_root(&self, sub: &Submission, outcome: &IntentOutcome) -> Option<TraceId> {
        let (ctx, start_us) = self.traces.lock().remove(&sub.id)?;
        let code = match outcome {
            IntentOutcome::Completed(_) => "",
            IntentOutcome::Rejected(e) => e.code(),
            IntentOutcome::Failed(e) => e.code(),
        };
        let duration_us = alvc_telemetry::now_monotonic_us().saturating_sub(start_us) as f64;
        alvc_telemetry::trace::record_root(
            ctx,
            "intent",
            start_us,
            duration_us,
            outcome.label(),
            code,
            vec![
                ("tenant", FieldValue::from(sub.tenant.as_str())),
                // Not "kind": that key is the record tag in JSON dumps.
                ("intent_kind", FieldValue::from(sub.intent.kind().label())),
                ("intent_id", FieldValue::from(sub.id.0)),
            ],
        );
        Some(ctx.trace)
    }

    /// Pre-checks a deployment without touching any state. `run` is the
    /// pending run of deployments admitted earlier in this batch.
    fn admit_deploy(
        &self,
        inner: &Inner,
        tenant: &str,
        vms: &[VmId],
        spec: &ChainSpec,
        run: &[(usize, String, Vec<VmId>, ChainSpec)],
    ) -> Result<(), AdmissionError> {
        if vms.is_empty() {
            return Err(AdmissionError::EmptyVmGroup);
        }
        if let Some(&vm) = vms.iter().find(|vm| vm.index() >= self.dc.vm_count()) {
            return Err(AdmissionError::UnknownVm { vm });
        }
        if !vms.contains(&spec.ingress) || !vms.contains(&spec.egress) {
            return Err(AdmissionError::EndpointOutsideGroup);
        }
        if !spec.bandwidth_gbps.is_finite() || spec.bandwidth_gbps <= 0.0 {
            return Err(AdmissionError::InvalidBandwidth {
                requested_gbps: spec.bandwidth_gbps,
            });
        }
        if kbps(spec.bandwidth_gbps) > self.max_link_kbps {
            return Err(AdmissionError::BandwidthUnservable {
                requested_gbps: spec.bandwidth_gbps,
                max_link_gbps: self.max_link_kbps as f64 / 1e6,
            });
        }
        // Structural validation (placement-rule sanity, stage-less loops,
        // latency budgets); like every other check here, a zero-side-effect
        // rejection. Bandwidth was already vetted above, so any error maps
        // to the spec itself.
        spec.validate()
            .map_err(|reason| AdmissionError::InvalidSpec { reason })?;
        if let Some(limit) = self.policy.quota_for(tenant).max_live_chains {
            // Chains admitted earlier in this batch count even though they
            // have not executed yet (optimistic, deterministic): those
            // still in the pending run here, those already flushed in the
            // tenant's settled usage.
            let live = inner.tenants.get(tenant).map_or(0, |t| t.live_chains)
                + run.iter().filter(|(_, t, _, _)| t == tenant).count();
            if live >= limit {
                return Err(AdmissionError::QuotaExceeded {
                    tenant: tenant.to_string(),
                    live_chains: live,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Pre-checks authority and ownership for non-deployment intents.
    fn admit_other(
        &self,
        inner: &Inner,
        tenant: &str,
        intent: &Intent,
    ) -> Result<(), AdmissionError> {
        if intent.kind().operator_only() && tenant != self.policy.operator {
            return Err(AdmissionError::NotAuthorized {
                tenant: tenant.to_string(),
            });
        }
        if let Intent::FailElement { element }
        | Intent::RestoreElement { element }
        | Intent::SetPowerState { element, .. } = intent
        {
            if self.dc.node_of_element(*element).is_none() {
                return Err(AdmissionError::UnknownElement { element: *element });
            }
        }
        if let Some(chain) = intent.target_chain() {
            if inner.owners.get(&chain).map(|o| o.tenant.as_str()) != Some(tenant) {
                return Err(AdmissionError::NotOwner {
                    tenant: tenant.to_string(),
                    chain,
                });
            }
        }
        if let Intent::ScaleIn { replica } = intent {
            let owned = inner
                .orch
                .replica_chain(*replica)
                .and_then(|chain| inner.owners.get(&chain))
                .is_some_and(|o| o.tenant == tenant);
            if !owned {
                return Err(AdmissionError::UnknownReplica {
                    tenant: tenant.to_string(),
                    replica: *replica,
                });
            }
        }
        if let Intent::Recluster { moves } = intent {
            if moves.is_empty() {
                return Err(AdmissionError::EmptyPlan);
            }
        }
        if let Intent::ModifyChain { spec, .. } = intent {
            if !spec.bandwidth_gbps.is_finite() || spec.bandwidth_gbps <= 0.0 {
                return Err(AdmissionError::InvalidBandwidth {
                    requested_gbps: spec.bandwidth_gbps,
                });
            }
            if kbps(spec.bandwidth_gbps) > self.max_link_kbps {
                return Err(AdmissionError::BandwidthUnservable {
                    requested_gbps: spec.bandwidth_gbps,
                    max_link_gbps: self.max_link_kbps as f64 / 1e6,
                });
            }
            spec.validate()
                .map_err(|reason| AdmissionError::InvalidSpec { reason })?;
        }
        Ok(())
    }

    /// Commits the pending run of admitted deployments: a single
    /// deployment goes through [`Orchestrator::deploy_chain`], longer
    /// runs through [`Orchestrator::deploy_chains`] bulk construction.
    fn flush_deploys(
        &self,
        inner: &mut Inner,
        batch: &[Submission],
        run: &mut Vec<(usize, String, Vec<VmId>, ChainSpec)>,
        outcomes: &mut [Option<IntentOutcome>],
    ) {
        if run.is_empty() {
            return;
        }
        let start = Instant::now();
        let drained = std::mem::take(run);
        let coalesced = drained.len();
        // Bulk construction work (cluster building, placement, routing)
        // is attributed to the first coalesced intent's trace; every
        // intent then gets its own synthetic `intent.execute` span
        // carrying its amortized share of the run.
        let _g = alvc_telemetry::trace::enter(self.trace_ctx_of(batch[drained[0].0].id));
        let mut bulk_span = alvc_telemetry::trace::child_span("intent.execute_bulk");
        bulk_span.add_field("coalesced", coalesced);
        // The run owns its VM lists and specs: they move into the
        // orchestrator, which keeps them, without another copy.
        let (who, mut requests): (Vec<_>, Vec<_>) = drained
            .into_iter()
            .map(|(slot, tenant, vms, spec)| {
                let label = LabelId::from(tenant.as_str());
                ((slot, tenant), (label, vms, spec))
            })
            .unzip();
        let (constructor, placer) = (&*self.constructor, &*self.placer);
        let results: Vec<Result<NfcId, Error>> = if coalesced == 1 {
            let (tenant, vms, spec) = requests.pop().expect("a run of one");
            let deployed =
                inner
                    .orch
                    .deploy_chain(&self.dc, tenant, vms, spec, constructor, placer);
            vec![deployed]
        } else {
            inner
                .orch
                .deploy_chains(&self.dc, requests, constructor, placer)
        };
        let per_intent_us = start.elapsed().as_secs_f64() * 1e6 / coalesced as f64;
        for ((slot, tenant), result) in who.into_iter().zip(results) {
            record_latency(per_intent_us);
            let (status, code) = match &result {
                Ok(_) => ("completed", ""),
                Err(e) => ("failed", e.code()),
            };
            alvc_telemetry::trace::record_span(
                self.trace_ctx_of(batch[slot].id),
                "intent.execute",
                per_intent_us,
                status,
                code,
                vec![("coalesced", FieldValue::from(coalesced))],
            );
            outcomes[slot] = Some(match result {
                Ok(chain) => {
                    let owner = Owner {
                        tenant,
                        counted_kbps: None,
                    };
                    inner.owners.insert(chain, owner);
                    IntentOutcome::Completed(IntentEffect::Deployed { chain })
                }
                Err(e) => IntentOutcome::Failed(e),
            });
        }
        inner.settle();
    }

    /// Executes one admitted non-deployment intent.
    fn execute_other(&self, inner: &mut Inner, tenant: &str, intent: &Intent) -> IntentOutcome {
        let _ = tenant; // attribution already checked by admission
        match intent {
            Intent::DeployChain { .. } => unreachable!("deployments go through flush_deploys"),
            Intent::TeardownChain { chain } => match inner.orch.teardown_chain(*chain) {
                Ok(_) => IntentOutcome::Completed(IntentEffect::TornDown { chain: *chain }),
                Err(e) => IntentOutcome::Failed(e),
            },
            Intent::ModifyChain { chain, spec } => {
                match inner
                    .orch
                    .modify_chain(&self.dc, *chain, spec.clone(), &*self.placer)
                {
                    Ok(()) => IntentOutcome::Completed(IntentEffect::Modified { chain: *chain }),
                    Err(e) => IntentOutcome::Failed(e),
                }
            }
            Intent::ScaleOut { chain, position } => {
                match inner.orch.scale_out(&self.dc, *chain, *position) {
                    Ok(replica) => IntentOutcome::Completed(IntentEffect::ScaledOut {
                        chain: *chain,
                        replica,
                    }),
                    Err(e) => IntentOutcome::Failed(e),
                }
            }
            Intent::ScaleIn { replica } => match inner.orch.scale_in(*replica) {
                Ok(()) => IntentOutcome::Completed(IntentEffect::ScaledIn { replica: *replica }),
                Err(e) => IntentOutcome::Failed(e),
            },
            Intent::FailElement { element } => {
                let (constructor, placer) = (&*self.constructor, &*self.placer);
                let report = inner
                    .orch
                    .fail_element(&self.dc, *element, constructor, placer);
                IntentOutcome::Completed(IntentEffect::Recovered {
                    affected: report.affected_count(),
                    serving: report.serving_count(),
                })
            }
            Intent::RestoreElement { element } => {
                let was_failed = inner.orch.restore_element(*element);
                IntentOutcome::Completed(IntentEffect::Restored { was_failed })
            }
            Intent::Reoptimize => {
                let outcomes = inner.orch.reoptimize_degraded(&self.dc, &*self.placer);
                IntentOutcome::Completed(IntentEffect::Reoptimized {
                    examined: outcomes.len(),
                    still_degraded: inner.orch.degraded_chains().len(),
                })
            }
            Intent::Recluster { moves } => {
                let report =
                    inner
                        .orch
                        .apply_recluster(&self.dc, moves, &*self.constructor, &*self.placer);
                IntentOutcome::Completed(IntentEffect::Reclustered {
                    applied: report.applied,
                    skipped: report.skipped,
                    als_rebuilt: report.als_rebuilt,
                    chains_rerouted: report.chains_rerouted,
                })
            }
            Intent::SetPowerState { element, state } => {
                match inner.orch.set_power_state(&self.dc, *element, *state) {
                    Ok(previous) => {
                        IntentOutcome::Completed(IntentEffect::PowerStateSet { previous })
                    }
                    Err(e) => IntentOutcome::Failed(e.into()),
                }
            }
        }
    }
}

/// Records one intent's execution latency.
fn record_latency(us: f64) {
    alvc_telemetry::histogram!("alvc_nfv.control.intent_latency_us").record(us);
}

// The whole point of the control plane: it is shareable across submitter
// threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ControlPlane>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::fig5;
    use alvc_topology::{
        AlvcTopologyBuilder, Element, OpsId, OpsInterconnect, PowerState, ServerId, ServiceType,
    };

    fn dc() -> Arc<DataCenter> {
        Arc::new(
            AlvcTopologyBuilder::new()
                .racks(8)
                .servers_per_rack(2)
                .vms_per_server(2)
                .ops_count(24)
                .tor_ops_degree(4)
                .opto_fraction(0.5)
                .interconnect(OpsInterconnect::FullMesh)
                .seed(31)
                .build(),
        )
    }

    fn deploy_intent(dc: &DataCenter, service: ServiceType) -> Intent {
        let vms = dc.vms_of_service(service);
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        Intent::DeployChain { vms, spec }
    }

    #[test]
    fn submit_then_batch_deploys_and_publishes_view() {
        let dc = dc();
        let cp = ControlPlane::new(dc.clone());
        assert_eq!(cp.view().version, 0);
        let a = cp.submit("web", deploy_intent(&dc, ServiceType::WebService));
        let b = cp.submit("sns", deploy_intent(&dc, ServiceType::Sns));
        assert_eq!(cp.queue_depth(), 2);
        assert!(cp.outcome(a).is_none(), "not executed yet");
        assert_eq!(cp.process_batch(), 2);
        assert_eq!(cp.queue_depth(), 0);
        let (oa, ob) = (cp.outcome(a).unwrap(), cp.outcome(b).unwrap());
        assert!(oa.is_completed(), "{oa:?}");
        assert!(ob.is_completed(), "{ob:?}");
        let view = cp.view();
        assert_eq!(view.version, 1);
        assert_eq!(view.intents_processed, 2);
        assert_eq!(view.chain_count(), 2);
        assert_eq!(view.tenant("web").live_chains, 1);
        assert_eq!(view.chains_of("sns").len(), 1);
        assert!(view.total_committed_kbps > 0);
        assert!(view.sdn_rules > 0);
    }

    #[test]
    fn views_are_immutable_snapshots() {
        let dc = dc();
        let cp = ControlPlane::new(dc.clone());
        // Three batches, a reader holding the snapshot of each: the
        // publisher must never patch one that is still held.
        let v0 = cp.view();
        let web = cp.submit("web", deploy_intent(&dc, ServiceType::WebService));
        cp.process_all();
        let v1 = cp.view();
        cp.submit("sns", deploy_intent(&dc, ServiceType::Sns));
        cp.process_all();
        let v2 = cp.view();
        let IntentOutcome::Completed(IntentEffect::Deployed { chain }) = cp.outcome(web).unwrap()
        else {
            panic!("deploy failed");
        };
        cp.submit("web", Intent::TeardownChain { chain });
        cp.process_all();
        let v3 = cp.view();
        for (version, (view, chains)) in [(&v0, 0), (&v1, 1), (&v2, 2), (&v3, 1)].iter().enumerate()
        {
            assert_eq!(view.version, version as u64);
            assert_eq!(view.chain_count(), *chains, "snapshot {version} untouched");
        }
        assert_eq!(v1.tenant("web").live_chains, 1);
        assert_eq!(v2.tenant("sns").live_chains, 1);
        assert_eq!(v3.tenant("web").live_chains, 0);
    }

    /// `after`'s chunk count, how many of its chunks are `before`'s own
    /// (`Arc::ptr_eq`), and how many of the others hold an entry whose
    /// value `before` does not have.
    fn chunk_sharing<K: Ord, V: PartialEq>(
        before: &ChunkMap<K, V>,
        after: &ChunkMap<K, V>,
    ) -> [usize; 3] {
        let mut counts = [after.chunks().len(), 0, 0];
        for chunk in after.chunks() {
            if before.chunks().iter().any(|c| Arc::ptr_eq(c, chunk)) {
                counts[1] += 1;
            } else if chunk.iter().any(|(k, v)| before.get(k) != Some(v)) {
                counts[2] += 1;
            }
        }
        counts
    }

    /// Copy-on-write publication, counted: while a reader holds snapshot
    /// *k*, a one-chain batch publishes *k + 1* into a clone that shares
    /// every chunk except the few holding an entry the batch changed, and
    /// the reader's snapshot keeps its value. With no reader holding it,
    /// the snapshot is patched in place.
    #[test]
    fn publication_shares_every_chunk_the_batch_left_alone() {
        let dc = Arc::new(
            AlvcTopologyBuilder::new()
                .racks(72)
                .servers_per_rack(2)
                .vms_per_server(2)
                .ops_count(288)
                .tor_ops_degree(4)
                .interconnect(OpsInterconnect::FullMesh)
                .seed(7)
                .build(),
        );
        let racks: Vec<Vec<VmId>> = (0..dc.tor_count())
            .map(|t| {
                dc.vm_ids()
                    .filter(|&vm| dc.tor_of_vm(vm).index() == t)
                    .collect()
            })
            .collect();
        // Adopted chains, one per rack but the last: the initial capture
        // chunks every map.
        let mut orch = Orchestrator::new();
        let (ctor, placer) = (PaperGreedy::new(), ElectronicOnlyPlacer::new());
        let (last, adopted) = racks.split_last().unwrap();
        for vms in adopted {
            let spec = fig5::black(vms[0], *vms.last().unwrap());
            orch.deploy_chain(&dc, "", vms.clone(), spec, &ctor, &placer)
                .unwrap();
        }
        let cp = ControlPlane::builder().orchestrator(orch).build(dc.clone());
        let held = cp.view();
        let before = StateView::clone(&held);
        assert!(before.chains.chunks().len() > 1, "chains span chunks");

        let spec = fig5::black(last[0], *last.last().unwrap());
        let vms = last.clone();
        let deploy = cp.submit("t", Intent::DeployChain { vms, spec });
        cp.process_all();
        assert!(cp.outcome(deploy).unwrap().is_completed());
        let after = cp.view();
        assert!(
            !Arc::ptr_eq(&held, &after),
            "a held snapshot is not patched"
        );
        assert_eq!(*held, before, "the reader keeps its value");
        assert_eq!(after.chain_count(), before.chain_count() + 1);

        let counts = [
            chunk_sharing(&before.chains, &after.chains),
            chunk_sharing(&before.instances, &after.instances),
            chunk_sharing(&before.clusters, &after.clusters),
            chunk_sharing(&before.link_committed_kbps, &after.link_committed_kbps),
            chunk_sharing(&before.tenants, &after.tenants),
        ];
        for [total, shared, changed] in counts {
            assert_eq!(
                total,
                shared + changed,
                "{counts:?}: an unchanged chunk was copied"
            );
        }
        // One new chain, its two instances and its cluster land in the
        // last chunk of their maps; its path's links may be spread.
        let [chains, instances, clusters, _, _] = counts;
        for [total, shared, _] in [chains, instances, clusters] {
            assert_eq!(shared, total - 1, "{counts:?}");
        }
        let [total, shared] = counts.iter().fold([0, 0], |[t, s], c| [t + c[0], s + c[1]]);
        assert!(shared * 2 > total, "{shared} of {total} chunks shared");

        // Nobody holds the snapshot now: the next batch patches it in place.
        drop((held, after));
        let published = Arc::as_ptr(&cp.view());
        let chain = cp.view().chains_of("t")[0];
        cp.submit("t", Intent::TeardownChain { chain });
        cp.process_all();
        assert_eq!(Arc::as_ptr(&cp.view()), published);
        assert_eq!(cp.view().chain_count(), before.chain_count());
    }

    #[test]
    fn full_lifecycle_through_intents() {
        let dc = dc();
        let cp = ControlPlane::new(dc.clone());
        let vms = dc.vms_of_service(ServiceType::WebService);
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        let t = cp.submit(
            "web",
            Intent::DeployChain {
                vms: vms.clone(),
                spec,
            },
        );
        cp.process_all();
        let IntentOutcome::Completed(IntentEffect::Deployed { chain }) = cp.outcome(t).unwrap()
        else {
            panic!("deploy failed");
        };
        // Modify, scale out, scale in, tear down.
        let modify = cp.submit(
            "web",
            Intent::ModifyChain {
                chain,
                spec: fig5::blue(vms[0], *vms.last().unwrap()),
            },
        );
        cp.process_all();
        assert!(cp.outcome(modify).unwrap().is_completed());
        assert_eq!(cp.view().chains[&chain].vnf_count, 3);
        let out = cp.submit("web", Intent::ScaleOut { chain, position: 0 });
        cp.process_all();
        let IntentOutcome::Completed(IntentEffect::ScaledOut { replica, .. }) =
            cp.outcome(out).unwrap()
        else {
            panic!("scale-out failed");
        };
        assert_eq!(cp.view().tenant("web").replicas, 1);
        let scale_in = cp.submit("web", Intent::ScaleIn { replica });
        let teardown = cp.submit("web", Intent::TeardownChain { chain });
        cp.process_all();
        assert!(cp.outcome(scale_in).unwrap().is_completed());
        assert!(cp.outcome(teardown).unwrap().is_completed());
        let view = cp.view();
        assert_eq!(view.chain_count(), 0);
        assert_eq!(view.instance_count(), 0);
        assert_eq!(view.total_committed_kbps, 0);
        assert_eq!(view.sdn_rules, 0);
    }

    #[test]
    fn quota_rejects_before_touching_state() {
        let dc = dc();
        let cp = ControlPlane::builder()
            .default_quota(TenantQuota {
                max_live_chains: Some(1),
                max_intents_per_batch: None,
                weight: 1,
            })
            .build(dc.clone());
        let a = cp.submit("web", deploy_intent(&dc, ServiceType::WebService));
        cp.process_all();
        assert!(cp.outcome(a).unwrap().is_completed());
        let view_before = cp.view();
        let b = cp.submit("web", deploy_intent(&dc, ServiceType::WebService));
        cp.process_all();
        assert!(matches!(
            cp.outcome(b).unwrap(),
            IntentOutcome::Rejected(AdmissionError::QuotaExceeded { .. })
        ));
        let view_after = cp.view();
        // Nothing but the version counters moved.
        assert_eq!(view_before.chains, view_after.chains);
        assert_eq!(
            view_before.link_committed_kbps,
            view_after.link_committed_kbps
        );
        assert_eq!(view_before.sdn_rules, view_after.sdn_rules);
        cp.inspect(|orch| assert_eq!(orch.manager().cluster_count(), 1));
    }

    /// Regression: a mid-batch flush moves the pending run into the live
    /// counter; counting it as pending too double-charged the quota, so
    /// `[deploy A, teardown X, deploy B]` with one chain live and a limit
    /// of two refused B although only A was live by then.
    #[test]
    fn flushed_deploys_are_not_counted_twice_against_the_quota() {
        let dc = dc();
        let cp = ControlPlane::builder()
            .batch_size(8)
            .default_quota(TenantQuota {
                max_live_chains: Some(2),
                max_intents_per_batch: None,
                weight: 1,
            })
            .build(dc.clone());
        let x = cp.submit("t", deploy_intent(&dc, ServiceType::WebService));
        cp.process_all();
        let IntentOutcome::Completed(IntentEffect::Deployed { chain }) = cp.outcome(x).unwrap()
        else {
            panic!("deploy failed");
        };
        let a = cp.submit("t", deploy_intent(&dc, ServiceType::Sns));
        let teardown = cp.submit("t", Intent::TeardownChain { chain });
        let b = cp.submit("t", deploy_intent(&dc, ServiceType::MapReduce));
        assert_eq!(cp.process_batch(), 3);
        for id in [a, teardown, b] {
            let outcome = cp.outcome(id).unwrap();
            assert!(outcome.is_completed(), "{outcome:?}");
        }
        assert_eq!(cp.view().tenant("t").live_chains, 2);
    }

    /// Regression: rung 4 of the recovery ladder discards a chain nothing
    /// can serve. Ownership and the quota counter used to change only on
    /// the tenant's own deploy and teardown, so the dead chain counted
    /// against `max_live_chains` forever.
    #[test]
    fn chain_discarded_by_recovery_releases_its_quota() {
        let dc = dc();
        let cp = ControlPlane::builder()
            .default_quota(TenantQuota::new(1, 8))
            .build(dc.clone());
        // The quota counter and the published aggregate agree throughout.
        let live_chains = |expected: usize| {
            let counted = cp
                .inner
                .lock()
                .tenants
                .get("web")
                .map_or(0, |t| t.live_chains);
            assert_eq!(counted, expected);
            assert_eq!(cp.view().tenant("web").live_chains, expected);
        };
        let first = cp.submit("web", deploy_intent(&dc, ServiceType::WebService));
        cp.process_all();
        assert!(cp.outcome(first).unwrap().is_completed());
        live_chains(1);

        let ingress = dc.vms_of_service(ServiceType::WebService)[0];
        let element = Element::Server(dc.server_of_vm(ingress));
        let fail = cp.submit("operator", Intent::FailElement { element });
        cp.process_all();
        assert!(matches!(
            cp.outcome(fail).unwrap(),
            IntentOutcome::Completed(IntentEffect::Recovered {
                affected: 1,
                serving: 0
            })
        ));
        assert_eq!(cp.view().chain_count(), 0);
        live_chains(0);

        cp.submit("operator", Intent::RestoreElement { element });
        let second = cp.submit("web", deploy_intent(&dc, ServiceType::WebService));
        cp.process_all();
        let outcome = cp.outcome(second).unwrap();
        assert!(outcome.is_completed(), "{outcome:?}");
        live_chains(1);
    }

    /// Chains deployed before the control plane existed are the empty
    /// tenant's: counted in the first view and released like any other.
    #[test]
    fn adopted_chains_belong_to_the_empty_tenant() {
        let dc = dc();
        let mut orch = Orchestrator::new();
        let vms = dc.vms_of_service(ServiceType::WebService);
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        let (ctor, placer) = (PaperGreedy::new(), ElectronicOnlyPlacer::new());
        let chain = orch
            .deploy_chain(&dc, "web", vms.clone(), spec, &ctor, &placer)
            .unwrap();
        orch.scale_out(&dc, chain, 0).unwrap();
        let cp = ControlPlane::builder().orchestrator(orch).build(dc.clone());
        let adopted = cp.view().tenant("");
        assert_eq!((adopted.live_chains, adopted.replicas), (1, 1));
        assert_eq!(cp.view().chains[&chain].tenant, "");

        let element = Element::Server(dc.server_of_vm(vms[0]));
        cp.submit("operator", Intent::FailElement { element });
        cp.process_all();
        assert_eq!(cp.view().chain_count(), 0);
        assert_eq!(cp.view().tenant(""), TenantView::default());
    }

    #[test]
    fn rate_limit_is_per_batch() {
        let dc = dc();
        let cp = ControlPlane::builder()
            .batch_size(8)
            .default_quota(TenantQuota {
                max_live_chains: None,
                max_intents_per_batch: Some(1),
                weight: 1,
            })
            .operator("ops-team")
            .build(dc.clone());
        // Two intents from one tenant in one batch: second is rate-limited
        // even though both are operator-only rejections otherwise… use two
        // harmless reoptimizes from the operator.
        let a = cp.submit("ops-team", Intent::Reoptimize);
        let b = cp.submit("ops-team", Intent::Reoptimize);
        cp.process_batch();
        assert!(cp.outcome(a).unwrap().is_completed());
        assert!(matches!(
            cp.outcome(b).unwrap(),
            IntentOutcome::Rejected(AdmissionError::RateLimited { .. })
        ));
        // Resubmitted in a fresh batch it passes.
        let c = cp.submit("ops-team", Intent::Reoptimize);
        cp.process_batch();
        assert!(cp.outcome(c).unwrap().is_completed());
    }

    #[test]
    fn tenants_cannot_touch_foreign_chains_or_operator_intents() {
        let dc = dc();
        let cp = ControlPlane::new(dc.clone());
        let a = cp.submit("web", deploy_intent(&dc, ServiceType::WebService));
        cp.process_all();
        let IntentOutcome::Completed(IntentEffect::Deployed { chain }) = cp.outcome(a).unwrap()
        else {
            panic!("deploy failed");
        };
        let steal = cp.submit("mallory", Intent::TeardownChain { chain });
        let fail = cp.submit(
            "mallory",
            Intent::FailElement {
                element: Element::Ops(alvc_topology::OpsId(0)),
            },
        );
        cp.process_all();
        assert!(matches!(
            cp.outcome(steal).unwrap(),
            IntentOutcome::Rejected(AdmissionError::NotOwner { .. })
        ));
        assert!(matches!(
            cp.outcome(fail).unwrap(),
            IntentOutcome::Rejected(AdmissionError::NotAuthorized { .. })
        ));
        assert_eq!(cp.view().chain_count(), 1, "chain survived");
    }

    #[test]
    fn capacity_prechecks_reject_unservable_deploys() {
        let dc = dc();
        let cp = ControlPlane::new(dc.clone());
        let vms = dc.vms_of_service(ServiceType::WebService);
        let mut fat = fig5::black(vms[0], *vms.last().unwrap());
        fat.bandwidth_gbps = 100_000.0;
        let a = cp.submit(
            "web",
            Intent::DeployChain {
                vms: vms.clone(),
                spec: fat,
            },
        );
        let b = cp.submit(
            "web",
            Intent::DeployChain {
                vms: vec![],
                spec: fig5::black(vms[0], vms[1]),
            },
        );
        let mut nan = fig5::black(vms[0], *vms.last().unwrap());
        nan.bandwidth_gbps = f64::INFINITY;
        let c = cp.submit(
            "web",
            Intent::DeployChain {
                vms: vms.clone(),
                spec: nan,
            },
        );
        cp.process_all();
        assert!(matches!(
            cp.outcome(a).unwrap(),
            IntentOutcome::Rejected(AdmissionError::BandwidthUnservable { .. })
        ));
        assert!(matches!(
            cp.outcome(b).unwrap(),
            IntentOutcome::Rejected(AdmissionError::EmptyVmGroup)
        ));
        assert!(matches!(
            cp.outcome(c).unwrap(),
            IntentOutcome::Rejected(AdmissionError::InvalidBandwidth { .. })
        ));
        let view = cp.view();
        assert_eq!(view.chain_count(), 0);
        assert_eq!(view.sdn_rules, 0);
        assert!(view.link_committed_kbps.is_empty());
    }

    #[test]
    fn operator_failure_workflow_round_trips() {
        let dc = dc();
        let cp = ControlPlane::new(dc.clone());
        cp.submit("web", deploy_intent(&dc, ServiceType::WebService));
        cp.process_all();
        let chain_view = cp.view();
        let ops = {
            // Fail an OPS inside the deployed chain's slice.
            let chain = chain_view.chains.values().next().unwrap();
            cp.inspect(|orch| {
                orch.manager()
                    .cluster(chain.cluster)
                    .unwrap()
                    .al()
                    .ops()
                    .first()
                    .copied()
            })
        };
        let Some(ops) = ops else { return };
        let fail = cp.submit(
            "operator",
            Intent::FailElement {
                element: Element::Ops(ops),
            },
        );
        cp.process_all();
        assert!(cp.outcome(fail).unwrap().is_completed());
        assert!(cp.view().failed_elements.contains(&Element::Ops(ops)));
        cp.inspect(|orch| assert!(orch.verify_no_failed_references(&dc)));
        let restore = cp.submit(
            "operator",
            Intent::RestoreElement {
                element: Element::Ops(ops),
            },
        );
        let reopt = cp.submit("operator", Intent::Reoptimize);
        cp.process_all();
        assert!(matches!(
            cp.outcome(restore).unwrap(),
            IntentOutcome::Completed(IntentEffect::Restored { was_failed: true })
        ));
        assert!(cp.outcome(reopt).unwrap().is_completed());
        assert!(cp.view().failed_elements.is_empty());
    }

    /// Intents naming an element or a VM the data center does not have
    /// are refused at admission, before anything is touched: the view and
    /// the OPS availability stay as they were, and the log replays to the
    /// same view.
    #[test]
    fn unknown_elements_and_vms_are_rejected_without_side_effects() {
        let dc = dc();
        let live = ControlPlane::new(dc.clone());
        live.submit("web", deploy_intent(&dc, ServiceType::WebService));
        live.process_all();
        // One id past the last OPS too: an unknown id must not grow the view.
        let availability = |cp: &ControlPlane| {
            cp.inspect(|orch| {
                let free = |o| orch.manager().availability().is_available(OpsId(o));
                (0..=dc.ops_count()).map(free).collect::<Vec<_>>()
            })
        };
        let (view_before, free_before) = (live.view(), availability(&live));

        let ops = Element::Ops(OpsId(dc.ops_count()));
        let server = Element::Server(ServerId(dc.server_count()));
        let vm = VmId(dc.vm_count());
        let mut vms = dc.vms_of_service(ServiceType::Sns);
        let spec = fig5::black(vms[0], *vms.last().unwrap());
        vms.push(vm);
        let power_off = Intent::SetPowerState {
            element: server,
            state: PowerState::PoweredOff,
        };
        let tickets = [
            live.submit("operator", Intent::FailElement { element: ops }),
            live.submit("operator", Intent::RestoreElement { element: ops }),
            live.submit("operator", power_off),
            live.submit("sns", Intent::DeployChain { vms, spec }),
        ];
        live.process_all();
        let rejections = [
            AdmissionError::UnknownElement { element: ops },
            AdmissionError::UnknownElement { element: ops },
            AdmissionError::UnknownElement { element: server },
            AdmissionError::UnknownVm { vm },
        ];
        for (ticket, rejection) in tickets.into_iter().zip(rejections) {
            let rejected = IntentOutcome::Rejected(rejection);
            assert_eq!(live.outcome(ticket), Some(rejected));
        }
        assert_eq!(AdmissionError::UnknownVm { vm }.code(), "unknown_vm");
        let unknown = AdmissionError::UnknownElement { element: server };
        assert_eq!(unknown.code(), "unknown_element");

        let mut after = (*live.view()).clone();
        assert_eq!(after.intents_processed, view_before.intents_processed + 4);
        after.version = view_before.version;
        after.intents_processed = view_before.intents_processed;
        assert_eq!(after, *view_before);
        assert_eq!(availability(&live), free_before);
        live.inspect(|orch| assert!(orch.verify_no_failed_references(&dc)));

        let fresh = ControlPlane::new(dc.clone());
        assert_eq!(*fresh.replay(&live.intent_log()), *live.view());
    }

    #[test]
    fn coalesced_and_singleton_deploys_fill_in_submission_order() {
        let dc = dc();
        let cp = ControlPlane::builder().batch_size(16).build(dc.clone());
        let services = [
            ServiceType::WebService,
            ServiceType::Sns,
            ServiceType::MapReduce,
        ];
        let tickets: Vec<_> = services
            .iter()
            .enumerate()
            .map(|(i, &s)| cp.submit(&format!("t{i}"), deploy_intent(&dc, s)))
            .collect();
        // Interleave a non-deploy intent to split the run.
        cp.submit("operator", Intent::Reoptimize);
        assert_eq!(cp.process_batch(), 4);
        let mut deployed = Vec::new();
        for t in tickets {
            if let IntentOutcome::Completed(IntentEffect::Deployed { chain }) =
                cp.outcome(t).unwrap()
            {
                deployed.push(chain);
            }
        }
        assert!(deployed.len() >= 2, "mesh fits several tenants");
        let view = cp.view();
        assert_eq!(view.chain_count(), deployed.len());
        cp.inspect(|orch| assert!(orch.manager().verify_disjoint()));
    }

    #[test]
    fn replay_reproduces_the_view() {
        let dc = dc();
        let build = || {
            ControlPlane::builder()
                .batch_size(3)
                .default_quota(TenantQuota::new(2, 3))
                .build(dc.clone())
        };
        let live = build();
        let vms = dc.vms_of_service(ServiceType::WebService);
        live.submit("web", deploy_intent(&dc, ServiceType::WebService));
        live.submit("sns", deploy_intent(&dc, ServiceType::Sns));
        live.process_batch();
        let chain = live.view().chains_of("web")[0];
        live.submit(
            "web",
            Intent::ModifyChain {
                chain,
                spec: fig5::blue(vms[0], *vms.last().unwrap()),
            },
        );
        live.submit("web", Intent::ScaleOut { chain, position: 0 });
        live.submit("mallory", Intent::TeardownChain { chain });
        live.process_batch();
        let (live_view, log) = (live.view(), live.intent_log());
        assert!(!log.is_empty());

        let fresh = build();
        let replayed = fresh.replay(&log);
        assert_eq!(*live_view, *replayed);
        assert_eq!(log, fresh.intent_log(), "outcomes replay identically too");
    }

    #[test]
    fn recluster_intent_admission_execution_and_replay() {
        let dc = dc();
        let build = || ControlPlane::builder().batch_size(4).build(dc.clone());
        let live = build();
        live.submit("web", deploy_intent(&dc, ServiceType::WebService));
        live.submit("sns", deploy_intent(&dc, ServiceType::Sns));
        live.process_batch();
        assert_eq!(live.view().chain_count(), 2);

        // A valid move: a non-endpoint VM from web's cluster to sns's.
        let mv = live.inspect(|orch| {
            let chains: Vec<_> = orch.chains().collect();
            let (from, to) = (chains[0].cluster(), chains[1].cluster());
            let spec = chains[0].nfc().spec();
            let vm = orch
                .manager()
                .cluster(from)
                .unwrap()
                .vms()
                .iter()
                .copied()
                .find(|&v| v != spec.ingress && v != spec.egress)
                .unwrap();
            alvc_affinity::VmMove { vm, from, to }
        });

        // Ordinary tenants may not recluster; empty plans are no-ops.
        let not_op = live.submit("web", Intent::Recluster { moves: vec![mv] });
        let empty = live.submit("operator", Intent::Recluster { moves: vec![] });
        let good = live.submit("operator", Intent::Recluster { moves: vec![mv] });
        live.process_batch();
        assert!(matches!(
            live.outcome(not_op).unwrap(),
            IntentOutcome::Rejected(AdmissionError::NotAuthorized { .. })
        ));
        assert!(matches!(
            live.outcome(empty).unwrap(),
            IntentOutcome::Rejected(AdmissionError::EmptyPlan)
        ));
        let IntentOutcome::Completed(IntentEffect::Reclustered {
            applied, skipped, ..
        }) = live.outcome(good).unwrap()
        else {
            panic!("recluster failed: {:?}", live.outcome(good));
        };
        assert_eq!((applied, skipped), (1, 0));
        // The view exposes the new membership.
        let view = live.view();
        assert!(view.clusters[&mv.to].vms.contains(&mv.vm));
        assert!(!view.clusters[&mv.from].vms.contains(&mv.vm));
        live.inspect(|orch| assert!(orch.manager().verify_disjoint()));

        // Replay (moves travel as data in the log) is bit-identical.
        let fresh = build();
        let replayed = fresh.replay(&live.intent_log());
        assert_eq!(*live.view(), *replayed);
        assert_eq!(live.intent_log(), fresh.intent_log());
    }

    #[test]
    #[should_panic(expected = "fresh control plane")]
    fn replay_refuses_a_used_control_plane() {
        let dc = dc();
        let cp = ControlPlane::new(dc.clone());
        cp.submit("operator", Intent::Reoptimize);
        cp.process_all();
        let log = cp.intent_log();
        cp.replay(&log);
    }

    /// Satellite regression: a rejected intent must not consume the
    /// tenant's per-batch rate budget — garbage submissions ahead of a
    /// valid one cannot crowd it out.
    #[test]
    fn rejected_intents_consume_no_rate_budget() {
        let dc = dc();
        let cp = ControlPlane::builder()
            .batch_size(8)
            .default_quota(TenantQuota {
                max_live_chains: None,
                max_intents_per_batch: Some(1),
                weight: 1,
            })
            .build(dc.clone());
        // Two structurally hopeless deploys ahead of one valid deploy,
        // all from the same tenant, all in one batch.
        let vms = dc.vms_of_service(ServiceType::WebService);
        let garbage1 = cp.submit(
            "web",
            Intent::DeployChain {
                vms: vec![],
                spec: fig5::black(vms[0], vms[1]),
            },
        );
        let garbage2 = cp.submit(
            "web",
            Intent::DeployChain {
                vms: vec![],
                spec: fig5::black(vms[0], vms[1]),
            },
        );
        let valid = cp.submit("web", deploy_intent(&dc, ServiceType::WebService));
        assert_eq!(cp.process_batch(), 3);
        assert!(matches!(
            cp.outcome(garbage1).unwrap(),
            IntentOutcome::Rejected(AdmissionError::EmptyVmGroup)
        ));
        assert!(matches!(
            cp.outcome(garbage2).unwrap(),
            IntentOutcome::Rejected(AdmissionError::EmptyVmGroup)
        ));
        assert!(
            cp.outcome(valid).unwrap().is_completed(),
            "the budget of 1 belongs to the valid intent: {:?}",
            cp.outcome(valid)
        );

        // And replay reproduces the same decisions bit-for-bit.
        let fresh = ControlPlane::builder()
            .batch_size(8)
            .default_quota(TenantQuota {
                max_live_chains: None,
                max_intents_per_batch: Some(1),
                weight: 1,
            })
            .build(dc.clone());
        let replayed = fresh.replay(&cp.intent_log());
        assert_eq!(*cp.view(), *replayed);
        assert_eq!(cp.intent_log(), fresh.intent_log());
    }

    /// Satellite regression: outcomes beyond the retention window are
    /// evicted and poll as `None`.
    #[test]
    fn outcome_retention_evicts_old_tickets() {
        let dc = dc();
        let cp = ControlPlane::builder()
            .batch_size(2)
            .outcome_retention(2)
            .build(dc.clone());
        let tickets: Vec<IntentId> = (0..6)
            .map(|_| cp.submit("operator", Intent::Reoptimize))
            .collect();
        cp.process_all();
        assert_eq!(cp.outcome_map_len(), 2);
        for &old in &tickets[..4] {
            assert!(cp.outcome(old).is_none(), "{old} evicted");
        }
        for &recent in &tickets[4..] {
            assert!(cp.outcome(recent).unwrap().is_completed());
        }
        // The log still remembers everything: retention bounds the poll
        // window, not the run's replayable identity.
        assert_eq!(cp.intent_log().len(), 6);
    }

    #[test]
    #[should_panic(expected = "outcome retention must be positive")]
    fn zero_outcome_retention_is_refused() {
        let _ = ControlPlane::builder().outcome_retention(0);
    }

    /// Tentpole: under DRR a tenant that floods the queue first no longer
    /// owns every slot of the next batch; under FIFO it does.
    #[test]
    fn drr_shares_batch_slots_under_asymmetric_load() {
        let dc = dc();
        for (mode, expect_quiet_in_first_batch) in [
            (SchedulerMode::DeficitRoundRobin, true),
            (SchedulerMode::Fifo, false),
        ] {
            let cp = ControlPlane::builder()
                .batch_size(4)
                .scheduler(mode)
                .operator("op")
                .build(dc.clone());
            for _ in 0..8 {
                cp.submit("noisy", Intent::Reoptimize); // rejected: not operator
            }
            let quiet = cp.submit("op", Intent::Reoptimize);
            assert_eq!(cp.process_batch(), 4);
            assert_eq!(
                cp.outcome(quiet).is_some(),
                expect_quiet_in_first_batch,
                "{mode:?}"
            );
            cp.process_all();
            assert!(cp.outcome(quiet).unwrap().is_completed());
        }
    }
}

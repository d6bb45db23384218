//! The unified simulation entrypoint: one builder for every workload shape.
//!
//! A [`Scenario`] composes tasks, a shared device population, an optional
//! control-plane fleet (Aggregators/Selectors), a crash schedule, run
//! limits, an evaluation policy, and a seed, and returns one unified
//! [`Report`] (per-task [`TaskReport`]s plus a fleet roll-up).  Every shape
//! runs through the same event loop, the same event dispatch, and the same
//! per-task [`TaskRuntime`]s; the fleet only adds a control plane.
//!
//! * **Fleet-less** (no [`FleetSpec`]): exactly one task, with no control
//!   plane — freed slots are refilled at once by uniform selection, and
//!   dropouts, timeouts, and evaluation are driven straight off the event
//!   queue.  This is the configuration behind every single-task figure of
//!   the paper.
//! * **With a fleet** ([`ScenarioBuilder::fleet`]): any number of tasks
//!   placed on persistent Aggregators by the Coordinator, devices checking
//!   in at control-plane ticks and routed through Selectors by capability
//!   tier, injectable Aggregator crashes with buffered-update loss and task
//!   reassignment (Sections 4, 6.2–6.3, Appendix E.4).
//!
//! # Quickstart
//!
//! ```
//! use papaya_core::TaskConfig;
//! use papaya_data::population::{Population, PopulationConfig};
//! use papaya_sim::scenario::{EvalPolicy, RunLimits, Scenario};
//!
//! let population = Population::generate(&PopulationConfig::default().with_size(500), 1);
//! let report = Scenario::builder()
//!     .population(population)
//!     .task(TaskConfig::async_task("demo", 32, 8))
//!     .limits(RunLimits::default().with_max_virtual_time_hours(0.5))
//!     .eval(EvalPolicy::default().with_interval_s(600.0))
//!     .seed(1)
//!     .build()
//!     .run();
//! assert_eq!(report.tasks.len(), 1);
//! assert!(report.tasks[0].server_updates() > 0);
//! println!("stopped: {}", report.stop_reason);
//! ```

use crate::cluster::{AggregatorId, RouteOutcome, Selector, TaskSpec};
use crate::control_plane::{ControlPlaneService, FleetStatus};
use crate::events::{EventKind, EventQueue, SimTime};
use crate::executor::{Executor, Parallelism};
use crate::metrics::{
    ControlPlaneStats, FleetSummary, MetricsCollector, MetricsSummary, TaskSummary,
};
use crate::sampling::{SamplingPool, DEFAULT_SHARD_CAPACITY};
use crate::task_runtime::{FreedClient, ServerOptimizerKind, TaskRuntime, UpdateOutcome};
use papaya_core::adversary::AdversarySpec;
use papaya_core::client::ClientTrainer;
use papaya_core::config::{SecAggMode, TaskConfig, TrainingMode};
use papaya_core::dp::DpConfig;
use papaya_core::robust::{RobustConfig, RobustTelemetry};
use papaya_core::surrogate::{SurrogateConfig, SurrogateObjective};
use papaya_core::trace::{DecimatedTrace, TraceBudget};
use papaya_data::population::{DeviceProfile, Population};
use papaya_nn::params::ParamVec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Why a scenario stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The evaluated loss reached the target (every task, for fleet runs).
    TargetLossReached,
    /// The virtual-time budget was exhausted.
    MaxVirtualTime,
    /// The client-update budget was exhausted.
    MaxClientUpdates,
    /// A DP task's cumulative `epsilon(target_delta)` reached its
    /// configured budget; releasing further aggregates would overspend the
    /// privacy guarantee, so the run stops.
    PrivacyBudgetExhausted,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::TargetLossReached => write!(f, "target loss reached"),
            StopReason::MaxVirtualTime => write!(f, "virtual-time budget exhausted"),
            StopReason::MaxClientUpdates => write!(f, "client-update budget exhausted"),
            StopReason::PrivacyBudgetExhausted => write!(f, "privacy budget exhausted"),
        }
    }
}

/// Stop conditions shared by every scenario shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunLimits {
    /// Hard stop on virtual time, in seconds.
    pub max_virtual_time_s: f64,
    /// Hard stop on the number of client updates received (summed over
    /// tasks in fleet runs).
    pub max_client_updates: Option<u64>,
    /// Stop once the evaluated population loss drops to this value (every
    /// task, for fleet runs).
    pub target_loss: Option<f64>,
    /// Worker threads running client local training off the event-loop
    /// thread.  Reports are bit-identical at every setting (see
    /// [`crate::executor`]); the default is the sequential path.
    pub parallelism: Parallelism,
    /// Retention budget for the per-event metric traces (utilization, loss
    /// curve, participations).  The default keeps every sample; bounded
    /// budgets decimate deterministically (see [`papaya_core::trace`]) and
    /// are hashed into [`Report::fingerprint`], so a budgeted run never
    /// fingerprint-collides with an unbudgeted one.  Essential at
    /// million-client scale, where per-event traces would otherwise
    /// dominate resident memory.
    pub trace_budget: TraceBudget,
    /// Ids per shard of the free-device sampling pool (see
    /// [`crate::sampling::ShardedSamplingPool`]).  Affects memory and
    /// allocator behaviour only: the drawn client sequence — and therefore
    /// the fingerprint — is bit-identical at every setting.
    pub sampling_shard_capacity: usize,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_virtual_time_s: 200.0 * 3600.0,
            max_client_updates: None,
            target_loss: None,
            parallelism: Parallelism::sequential(),
            trace_budget: TraceBudget::UNBOUNDED,
            sampling_shard_capacity: DEFAULT_SHARD_CAPACITY,
        }
    }
}

impl RunLimits {
    /// Sets the virtual-time budget in hours.
    pub fn with_max_virtual_time_hours(mut self, hours: f64) -> Self {
        self.max_virtual_time_s = hours * 3600.0;
        self
    }

    /// Sets the virtual-time budget in seconds.
    pub fn with_max_virtual_time_s(mut self, seconds: f64) -> Self {
        self.max_virtual_time_s = seconds;
        self
    }

    /// Sets the client-update budget.
    pub fn with_max_client_updates(mut self, updates: u64) -> Self {
        self.max_client_updates = Some(updates);
        self
    }

    /// Sets the target-loss stopping criterion.
    pub fn with_target_loss(mut self, target: f64) -> Self {
        self.target_loss = Some(target);
        self
    }

    /// Sets the client-training parallelism.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Caps every per-event metric trace at `max_samples` retained entries
    /// (deterministic stride decimation).
    pub fn with_trace_budget(mut self, max_samples: usize) -> Self {
        self.trace_budget = TraceBudget::bounded(max_samples);
        self
    }

    /// Sets the sampling pool's shard capacity (ids per shard).
    pub fn with_sampling_shard_capacity(mut self, capacity: usize) -> Self {
        self.sampling_shard_capacity = capacity;
        self
    }
}

/// When and how broadly to evaluate the population loss.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalPolicy {
    /// Virtual seconds between evaluations.
    pub interval_s: f64,
    /// Number of clients sampled (once, per task) for evaluation.
    pub sample_size: usize,
}

impl Default for EvalPolicy {
    fn default() -> Self {
        EvalPolicy {
            interval_s: 300.0,
            sample_size: 200,
        }
    }
}

impl EvalPolicy {
    /// Sets the evaluation interval in virtual seconds.
    pub fn with_interval_s(mut self, interval_s: f64) -> Self {
        self.interval_s = interval_s;
        self
    }

    /// Sets the evaluation sample size.
    pub fn with_sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }
}

/// Maps a device's compute speed to the capability tier it reports at
/// check-in (Section 6.2, "constructing lists of eligible tasks"): tier 2
/// (fast) devices can train any task, tier 1 (standard) mid-size tasks,
/// tier 0 only unrestricted tasks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierPolicy {
    /// Speed factor at or above which a device reports tier 2.
    pub fast_speed: f64,
    /// Speed factor at or above which a device reports tier 1.
    pub standard_speed: f64,
}

impl Default for TierPolicy {
    fn default() -> Self {
        TierPolicy {
            fast_speed: 1.25,
            standard_speed: 0.75,
        }
    }
}

impl TierPolicy {
    /// Creates a policy with the given thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `fast_speed < standard_speed`.
    pub fn new(fast_speed: f64, standard_speed: f64) -> Self {
        assert!(
            fast_speed >= standard_speed,
            "fast threshold must be at least the standard threshold"
        );
        TierPolicy {
            fast_speed,
            standard_speed,
        }
    }

    /// The capability tier a device reports under this policy.
    pub fn tier(&self, device: &DeviceProfile) -> u8 {
        if device.speed_factor >= self.fast_speed {
            2
        } else if device.speed_factor >= self.standard_speed {
            1
        } else {
            0
        }
    }
}

/// Control-plane sizing and timing for fleet scenarios.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetSpec {
    /// Number of persistent Aggregator processes.
    pub aggregators: usize,
    /// Number of Selector processes routing client requests.
    pub selectors: usize,
    /// Interval of the control-plane sweep (heartbeats, failure detection,
    /// demand pooling, client assignment).
    pub control_plane_interval_s: f64,
    /// Interval at which Selectors refresh their assignment maps.
    pub selector_refresh_interval_s: f64,
    /// Heartbeat silence after which the Coordinator declares an Aggregator
    /// failed; must exceed `control_plane_interval_s`.
    pub heartbeat_timeout_s: f64,
}

impl FleetSpec {
    /// A fleet with the given process counts and default timing.
    pub fn new(aggregators: usize, selectors: usize) -> Self {
        FleetSpec {
            aggregators,
            selectors,
            control_plane_interval_s: 10.0,
            selector_refresh_interval_s: 45.0,
            heartbeat_timeout_s: 25.0,
        }
    }

    /// Sets the control-plane sweep interval.
    pub fn with_control_plane_interval_s(mut self, interval_s: f64) -> Self {
        self.control_plane_interval_s = interval_s;
        self
    }

    /// Sets the Selector refresh interval.
    pub fn with_selector_refresh_interval_s(mut self, interval_s: f64) -> Self {
        self.selector_refresh_interval_s = interval_s;
        self
    }

    /// Sets the heartbeat timeout.
    pub fn with_heartbeat_timeout_s(mut self, timeout_s: f64) -> Self {
        self.heartbeat_timeout_s = timeout_s;
        self
    }
}

/// An Aggregator failure injected at a fixed virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InjectedCrash {
    /// When the Aggregator dies, in virtual seconds.
    pub time_s: f64,
    /// Which Aggregator dies.
    pub aggregator: AggregatorId,
}

/// An Aggregator recovery injected at a fixed virtual time: the process
/// comes back, heartbeats immediately, and the reconcile pass the heartbeat
/// triggers re-places any orphaned tasks onto it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InjectedRecovery {
    /// When the Aggregator comes back, in virtual seconds.
    pub time_s: f64,
    /// Which Aggregator recovers.
    pub aggregator: AggregatorId,
}

/// End-of-run report for one task of a scenario.
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// Task identifier (index into the scenario's task list).
    pub task_id: usize,
    /// Human-readable task name.
    pub name: String,
    /// Population loss at the first evaluation.
    pub initial_loss: f64,
    /// Population loss at the last evaluation.
    pub final_loss: f64,
    /// Virtual hours at which the target loss was reached, if it was.
    pub hours_to_target: Option<f64>,
    /// Final server model version.
    pub final_version: u64,
    /// Final model parameters.
    pub final_params: ParamVec,
    /// Times this task was moved to a new Aggregator after a failure.
    pub reassignments: u64,
    /// Buffered updates this task lost to Aggregator failures.
    pub lost_buffered_updates: u64,
    /// Summary statistics (rates, staleness, utilization).
    pub summary: MetricsSummary,
    /// Raw metric traces.
    pub metrics: MetricsCollector,
}

impl TaskReport {
    /// Client updates received at the server ("communication trips").
    pub fn comm_trips(&self) -> u64 {
        self.metrics.comm_trips
    }

    /// Server model updates performed.
    pub fn server_updates(&self) -> u64 {
        self.metrics.server_updates
    }

    /// The per-task summary in multi-tenant [`TaskSummary`] form.
    pub fn to_task_summary(&self) -> TaskSummary {
        TaskSummary {
            task_id: self.task_id,
            name: self.name.clone(),
            initial_loss: self.initial_loss,
            final_loss: self.final_loss,
            reassignments: self.reassignments,
            lost_buffered_updates: self.lost_buffered_updates,
            summary: self.summary.clone(),
        }
    }
}

/// The outcome of a scenario run: per-task reports plus the fleet roll-up.
#[derive(Clone, Debug)]
pub struct Report {
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Total virtual hours simulated.
    pub virtual_hours: f64,
    /// Discrete events processed by the run loop (the perf harness divides
    /// this by wall-clock time for an events/sec throughput figure).
    pub events_processed: u64,
    /// Per-task end-of-run reports, in task order.
    pub tasks: Vec<TaskReport>,
    /// Cross-task roll-up including control-plane counters (zeroed for
    /// fleet-less runs).
    pub fleet: FleetSummary,
}

/// FNV-1a accumulator used by [`Report::fingerprint`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Folds a trace's decimation parameters into the fingerprint, but only
/// when a budget is active: an unbounded trace hashes nothing extra, so
/// historical (pre-budget) fingerprints are preserved bit-for-bit, while a
/// budgeted run can never collide with an unbudgeted one that happens to
/// retain the same sample prefix.
fn hash_decimation<T>(h: &mut Fnv, trace: &DecimatedTrace<T>) {
    if trace.budget().is_bounded() {
        h.u64(trace.budget().max_samples() as u64);
        h.u64(trace.stride());
        h.u64(trace.offered());
    }
}

impl Report {
    /// The report of the only task of a fleet-less scenario.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran more than one task.
    pub fn single(&self) -> &TaskReport {
        assert_eq!(
            self.tasks.len(),
            1,
            "scenario ran {} tasks",
            self.tasks.len()
        );
        &self.tasks[0]
    }

    /// A bit-exact digest of everything the run produced: stop reason,
    /// timing, every counter, the full loss curves, utilization and
    /// participation traces, and the bit patterns of the final model
    /// parameters of every task.  Two runs are bit-identical iff their
    /// fingerprints are equal — this is what the determinism suite and the
    /// perf harness compare across [`Parallelism`] settings.
    pub fn fingerprint(&self) -> String {
        let mut h = Fnv::new();
        h.u64(match self.stop_reason {
            StopReason::TargetLossReached => 0,
            StopReason::MaxVirtualTime => 1,
            StopReason::MaxClientUpdates => 2,
            StopReason::PrivacyBudgetExhausted => 3,
        });
        h.f64(self.virtual_hours);
        h.u64(self.events_processed);
        for task in &self.tasks {
            let m = &task.metrics;
            h.bytes(task.name.as_bytes());
            h.u64(m.comm_trips);
            h.u64(m.server_updates);
            h.u64(m.aggregated_updates);
            h.u64(m.rejected_stale_updates);
            h.u64(m.discarded_updates);
            h.u64(m.failed_participations);
            h.u64(m.aborted_by_round_end);
            h.u64(m.staleness_sum);
            h.u64(m.lost_buffered_updates);
            h.u64(m.secure.masked_updates);
            h.u64(m.secure.masked_discarded);
            h.u64(m.secure.tsa_key_releases);
            h.u64(m.secure.buffers_dropped_unreleased);
            h.u64(m.secure.out_of_range_releases);
            h.u64(m.secure.tee_bytes_in);
            h.u64(m.secure.tee_bytes_out);
            h.u64(m.secure.session_cache_hits);
            h.u64(m.secure.session_cache_misses);
            h.u64(m.secure.dh_exchanges_saved);
            for &(t, e) in &m.secure.quantization_error_trace {
                h.f64(t);
                h.f64(e);
            }
            h.u64(m.dp.accepted_updates);
            h.u64(m.dp.clipped_updates);
            h.u64(m.dp.releases);
            h.f64(m.dp.cumulative_epsilon);
            for release in &m.dp.release_trace {
                h.f64(release.time_s);
                h.f64(release.clip_fraction);
                h.f64(release.noise_std);
                h.f64(release.cumulative_epsilon);
            }
            // Robustness and adversary telemetry hash only when something
            // moved: a clear run, and a neutral-defense run with an honest
            // population, keep every pre-robustness fingerprint
            // bit-for-bit (same conditional-hash contract as
            // `hash_decimation` above).
            if m.robust != RobustTelemetry::default()
                || m.rejected_by_defense_updates > 0
                || m.attacked_updates > 0
            {
                h.u64(m.robust.rejected_non_finite);
                h.u64(m.robust.rejected_by_norm);
                h.u64(m.robust.estimator_releases);
                for release in &m.robust.estimator_trace {
                    h.f64(release.time_s);
                    h.u64(release.estimated_over);
                    h.f64(release.estimator_shift);
                }
                h.u64(m.rejected_by_defense_updates);
                h.u64(m.attacked_updates);
                for (&label, &count) in &m.attacks_by_label {
                    h.bytes(label.as_bytes());
                    h.u64(count);
                }
                for &(t, client) in &m.attack_trace {
                    h.f64(t);
                    h.u64(client as u64);
                }
                hash_decimation(&mut h, &m.attack_trace);
            }
            h.u64(task.reassignments);
            h.u64(task.final_version);
            h.f64(task.initial_loss);
            h.f64(task.final_loss);
            h.f64(task.hours_to_target.unwrap_or(f64::NEG_INFINITY));
            for &(t, loss) in &m.loss_curve {
                h.f64(t);
                h.f64(loss);
            }
            hash_decimation(&mut h, &m.loss_curve);
            for &(t, active) in &m.utilization_trace {
                h.f64(t);
                h.u64(active as u64);
            }
            hash_decimation(&mut h, &m.utilization_trace);
            for p in &m.participations {
                h.u64(p.client_id as u64);
                h.f64(p.execution_time_s);
                h.u64(p.num_examples as u64);
                h.u64(p.aggregated as u64);
            }
            hash_decimation(&mut h, &m.participations);
            for &d in &m.round_durations_s {
                h.f64(d);
            }
            for &w in task.final_params.as_slice() {
                h.bytes(&w.to_bits().to_le_bytes());
            }
        }
        let cp = &self.fleet.control_plane;
        h.u64(cp.aggregator_failures);
        h.u64(cp.task_reassignments);
        h.u64(cp.stale_route_refusals);
        h.u64(cp.lost_in_transit_updates);
        h.u64(cp.final_map_sequence);
        // Reconciliation-era counters are hashed only when the run exercised
        // them: historical scenarios (partial failure or no failure at all)
        // keep every field at zero, so their pinned fingerprints survive the
        // event-sourced control plane unchanged.
        if cp.tasks_orphaned > 0
            || cp.tasks_reconciled > 0
            || cp.pending_task_submissions > 0
            || cp.unknown_heartbeat_registrations > 0
            || cp.aggregator_recoveries > 0
        {
            h.u64(cp.tasks_orphaned);
            h.u64(cp.tasks_reconciled);
            h.u64(cp.pending_task_submissions);
            h.u64(cp.unknown_heartbeat_registrations);
            h.u64(cp.aggregator_recoveries);
        }
        format!(
            "{:?}/{}ev/{}tasks/{:016x}",
            self.stop_reason,
            self.events_processed,
            self.tasks.len(),
            h.0
        )
    }

    /// Consumes the report and returns the only task's report.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran more than one task.
    pub fn into_single(mut self) -> TaskReport {
        assert_eq!(
            self.tasks.len(),
            1,
            "scenario ran {} tasks",
            self.tasks.len()
        );
        // papaya-lint: allow(panic-hygiene) -- the assert directly above guarantees exactly one task; documented panic
        self.tasks.pop().expect("one task")
    }
}

/// A fully composed simulation, ready to run.  Build one with
/// [`Scenario::builder`].
pub struct Scenario {
    tasks: Vec<TaskConfig>,
    trainers: Vec<Arc<dyn ClientTrainer>>,
    population: Population,
    fleet: Option<FleetSpec>,
    crashes: Vec<InjectedCrash>,
    recoveries: Vec<InjectedRecovery>,
    control_plane_restore_s: Option<f64>,
    limits: RunLimits,
    eval: EvalPolicy,
    tier_policy: TierPolicy,
    utilization_sample_interval_s: f64,
    server_optimizer: ServerOptimizerKind,
    seed: u64,
}

/// Builder for [`Scenario`]; see the module docs for a quickstart.
pub struct ScenarioBuilder {
    tasks: Vec<TaskConfig>,
    trainers: Vec<Option<Arc<dyn ClientTrainer>>>,
    population: Option<Population>,
    fleet: Option<FleetSpec>,
    crashes: Vec<InjectedCrash>,
    recoveries: Vec<InjectedRecovery>,
    control_plane_restore_s: Option<f64>,
    limits: RunLimits,
    eval: EvalPolicy,
    tier_policy: TierPolicy,
    utilization_sample_interval_s: f64,
    server_optimizer: ServerOptimizerKind,
    secagg_override: Option<SecAggMode>,
    dp_override: Option<DpConfig>,
    robust_override: Option<RobustConfig>,
    adversary_override: Option<AdversarySpec>,
    seed: u64,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder {
            tasks: Vec::new(),
            trainers: Vec::new(),
            population: None,
            fleet: None,
            crashes: Vec::new(),
            recoveries: Vec::new(),
            control_plane_restore_s: None,
            limits: RunLimits::default(),
            eval: EvalPolicy::default(),
            tier_policy: TierPolicy::default(),
            utilization_sample_interval_s: 60.0,
            server_optimizer: ServerOptimizerKind::FedAvg,
            secagg_override: None,
            dp_override: None,
            robust_override: None,
            adversary_override: None,
            seed: 0,
        }
    }
}

impl ScenarioBuilder {
    /// Adds a task trained with a default surrogate objective (seeded per
    /// task, so tasks are distinct learning problems).
    pub fn task(mut self, task: TaskConfig) -> Self {
        self.tasks.push(task);
        self.trainers.push(None);
        self
    }

    /// Adds a task with an explicit client trainer.
    pub fn task_with_trainer(mut self, task: TaskConfig, trainer: Arc<dyn ClientTrainer>) -> Self {
        self.tasks.push(task);
        self.trainers.push(Some(trainer));
        self
    }

    /// Sets the shared device population (required).
    pub fn population(mut self, population: Population) -> Self {
        self.population = Some(population);
        self
    }

    /// Adds a control-plane fleet: tasks are placed on persistent
    /// Aggregators and clients routed through Selectors.
    pub fn fleet(mut self, fleet: FleetSpec) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Injects an Aggregator crash at the given virtual time (fleet only).
    pub fn crash_at(mut self, time_s: f64, aggregator: AggregatorId) -> Self {
        self.crashes.push(InjectedCrash { time_s, aggregator });
        self
    }

    /// Injects an Aggregator recovery at the given virtual time (fleet
    /// only): the crashed process comes back, heartbeats immediately, and
    /// the reconciliation pass re-places orphaned tasks onto it.
    pub fn recover_at(mut self, time_s: f64, aggregator: AggregatorId) -> Self {
        self.recoveries
            .push(InjectedRecovery { time_s, aggregator });
        self
    }

    /// Interrupts the control-plane service at the first control tick at or
    /// after the given virtual time and resumes it from (latest checkpoint +
    /// event-log suffix).  Restore is deterministic replay, so the rest of
    /// the run — and its [`Report::fingerprint`] — is bit-identical to the
    /// uninterrupted run; scenarios use this to prove checkpoint fidelity
    /// end to end (fleet only).
    pub fn restore_control_plane_at(mut self, time_s: f64) -> Self {
        self.control_plane_restore_s = Some(time_s);
        self
    }

    /// Sets the stop conditions.
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the evaluation policy.
    pub fn eval(mut self, eval: EvalPolicy) -> Self {
        self.eval = eval;
        self
    }

    /// Sets the capability-tier policy used at device check-in.
    pub fn tier_policy(mut self, policy: TierPolicy) -> Self {
        self.tier_policy = policy;
        self
    }

    /// Sets the client-training parallelism (shorthand for the
    /// [`RunLimits::parallelism`] field).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.limits.parallelism = parallelism;
        self
    }

    /// Sets the utilization sampler interval (fleet-less scenarios).
    pub fn utilization_sample_interval_s(mut self, interval_s: f64) -> Self {
        self.utilization_sample_interval_s = interval_s;
        self
    }

    /// Sets the server optimizer applied to every task's aggregated deltas.
    pub fn server_optimizer(mut self, kind: ServerOptimizerKind) -> Self {
        self.server_optimizer = kind;
        self
    }

    /// Sets the secure-aggregation mode of **every** task of the scenario
    /// (overriding whatever the individual [`TaskConfig`]s carry).  With
    /// [`SecAggMode::AsyncSecAgg`] each task's aggregation strategy is
    /// wrapped in a [`papaya_core::secure::SecureAggregator`]: clients mask
    /// their updates, the Aggregator sums ciphertext, and the TSA releases
    /// one unmask key per closing buffer.  For per-task control use
    /// [`TaskConfig::with_secagg`] instead.
    pub fn secagg(mut self, mode: SecAggMode) -> Self {
        self.secagg_override = Some(mode);
        self
    }

    /// Enables user-level differential privacy on **every** task of the
    /// scenario (overriding whatever the individual [`TaskConfig`]s carry).
    /// Each task's aggregation strategy is wrapped in a
    /// [`papaya_core::dp::DpAggregator`]: updates are L2-clipped to the
    /// configured bound, every release carries seeded Gaussian noise, and a
    /// per-task [`papaya_core::dp::PrivacyAccountant`] composes the
    /// cumulative `(ε, δ)`.  Composes with [`ScenarioBuilder::secagg`] (DP
    /// wraps outermost).  For per-task control use [`TaskConfig::with_dp`]
    /// instead.
    pub fn dp(mut self, config: DpConfig) -> Self {
        self.dp_override = Some(config);
        self
    }

    /// Applies a robust-aggregation defense to every task of the scenario
    /// (overriding whatever the individual [`TaskConfig`]s carry).  Each
    /// task's aggregation stack is wrapped outermost in a
    /// [`papaya_core::robust::RobustAggregator`]: updates are screened
    /// (non-finite values always, L2 norm under a filter) before any inner
    /// layer buffers them, and an engaged estimator (trimmed mean,
    /// coordinate median) replaces the stack's release.  Composes with
    /// [`ScenarioBuilder::secagg`] and [`ScenarioBuilder::dp`].  For
    /// per-task control use [`TaskConfig::with_robust`] instead.
    pub fn robust(mut self, config: RobustConfig) -> Self {
        self.robust_override = Some(config);
        self
    }

    /// Plants a Byzantine cohort in every task of the scenario (overriding
    /// whatever the individual [`TaskConfig`]s carry): the spec's malicious
    /// fraction of clients corrupts its uploads (payload, staleness
    /// metadata, or SecAgg protocol deviation) after local training.  A
    /// simulation knob for attack-vs-defense studies — it never influences
    /// the defenses, which see only the update contents.  For per-task
    /// control use [`TaskConfig::with_adversary`] instead.
    pub fn adversary(mut self, spec: AdversarySpec) -> Self {
        self.adversary_override = Some(spec);
        self
    }

    /// Sets the RNG seed controlling selection, assignment, dropouts, and
    /// training noise.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the composition and produces a runnable [`Scenario`].
    ///
    /// # Panics
    ///
    /// Panics when the composition is invalid: no population or an empty
    /// one, no tasks, more than one task (or injected crashes/recoveries,
    /// or a control-plane restore) without a fleet, a fleet without
    /// Aggregators or Selectors, a heartbeat timeout not exceeding the
    /// control-plane interval, a negative or non-finite crash, recovery, or
    /// restore time, a periodic interval (evaluation, utilization
    /// sampling, control-plane sweep, Selector refresh) that is not
    /// positive and finite — the run would loop forever at one instant or
    /// schedule an event at a non-finite time — or a task config the
    /// pipeline would not honor (a non-positive/non-finite client timeout,
    /// or a capability-tier restriction without a fleet to enforce it).
    pub fn build(mut self) -> Scenario {
        // papaya-lint: allow(panic-hygiene) -- documented builder contract: build() panics without a population (see doc comment)
        let population = self.population.expect("a population is required");
        assert!(!population.is_empty(), "population must not be empty");
        assert!(!self.tasks.is_empty(), "at least one task is required");
        if let Some(mode) = self.secagg_override {
            for task in &mut self.tasks {
                task.secagg = mode;
            }
        }
        if let Some(dp) = self.dp_override {
            for task in &mut self.tasks {
                task.dp = Some(dp);
            }
        }
        if let Some(robust) = self.robust_override {
            for task in &mut self.tasks {
                task.robust = Some(robust);
            }
        }
        if let Some(adversary) = self.adversary_override {
            for task in &mut self.tasks {
                task.adversary = Some(adversary);
            }
        }
        for task in &self.tasks {
            validate_task_config(task, self.fleet.is_some());
        }
        validate_run_limits(&self.limits);
        assert_interval("eval interval_s", self.eval.interval_s);
        assert_interval(
            "utilization_sample_interval_s",
            self.utilization_sample_interval_s,
        );
        if let Some(fleet) = &self.fleet {
            assert!(fleet.aggregators > 0, "at least one aggregator is required");
            assert!(fleet.selectors > 0, "at least one selector is required");
            assert_interval(
                "fleet control_plane_interval_s",
                fleet.control_plane_interval_s,
            );
            assert_interval(
                "fleet selector_refresh_interval_s",
                fleet.selector_refresh_interval_s,
            );
            assert!(
                fleet.heartbeat_timeout_s > fleet.control_plane_interval_s,
                "heartbeat timeout must exceed the control-plane interval"
            );
            let injected = self.crashes.iter().map(|c| c.time_s);
            for time_s in injected.chain(self.recoveries.iter().map(|r| r.time_s)) {
                assert!(
                    time_s.is_finite() && time_s >= 0.0,
                    "injected crash and recovery times must be finite and non-negative, got {time_s}"
                );
            }
        } else {
            assert_eq!(
                self.tasks.len(),
                1,
                "fleet-less scenarios drive exactly one task; configure a fleet for multi-task runs"
            );
            assert!(
                self.crashes.is_empty(),
                "crash injection requires a fleet of Aggregators"
            );
            assert!(
                self.recoveries.is_empty(),
                "recovery injection requires a fleet of Aggregators"
            );
            assert!(
                self.control_plane_restore_s.is_none(),
                "control-plane restore requires a fleet of Aggregators"
            );
        }
        if let Some(restore_s) = self.control_plane_restore_s {
            assert!(
                restore_s.is_finite() && restore_s >= 0.0,
                "control-plane restore time must be finite and non-negative"
            );
        }
        let seed = self.seed;
        let trainers: Vec<Arc<dyn ClientTrainer>> = self
            .trainers
            .into_iter()
            .enumerate()
            .map(|(task_id, trainer)| {
                trainer.unwrap_or_else(|| {
                    // Salt with task_id + 1 so task 0's stream is decorrelated
                    // from the driver RNG (and the population generator) too.
                    Arc::new(SurrogateObjective::new(
                        &population,
                        SurrogateConfig::default(),
                        seed ^ (task_id as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15),
                    )) as Arc<dyn ClientTrainer>
                })
            })
            .collect();
        Scenario {
            tasks: self.tasks,
            trainers,
            population,
            fleet: self.fleet,
            crashes: self.crashes,
            recoveries: self.recoveries,
            control_plane_restore_s: self.control_plane_restore_s,
            limits: self.limits,
            eval: self.eval,
            tier_policy: self.tier_policy,
            utilization_sample_interval_s: self.utilization_sample_interval_s,
            server_optimizer: self.server_optimizer,
            seed,
        }
    }
}

/// Rejects a periodic interval the run loop could not advance past: zero
/// or negative reschedules the event at the same instant forever, and a
/// non-finite one cannot be scheduled at all.
fn assert_interval(field: &str, interval_s: f64) {
    assert!(
        interval_s.is_finite() && interval_s > 0.0,
        "{field} must be positive and finite, got {interval_s}"
    );
}

/// The single choke point where a scenario acknowledges every `TaskConfig`
/// field it honors.  The destructuring is exhaustive on purpose — adding a
/// field to `TaskConfig` without deciding whether (and where) scenarios
/// honor it becomes a compile error here, so a knob can never again sit
/// silently ignored the way `SecAggMode` once did.
///
/// # Panics
///
/// Panics on a config the pipeline would *not* honor: a non-positive or
/// non-finite client timeout, or a capability-tier restriction on a
/// fleet-less scenario, whose uniform selection has no Selector to enforce
/// tiers.
fn validate_task_config(task: &TaskConfig, has_fleet: bool) {
    let TaskConfig {
        name: _,               // report labels
        concurrency: _,        // demand computation (positivity checked at construction)
        aggregation_goal: _,   // strategy goal (positivity checked at construction)
        mode,                  // aggregator::for_task builds the strategy
        weight_by_examples: _, // strategy weighting
        client_timeout_s,      // timeout aborts scheduled at selection
        secagg,                // SecureAggregator wrapping in TaskRuntime
        dp,                    // DpAggregator wrapping in TaskRuntime
        robust,                // RobustAggregator wrapping in TaskRuntime
        adversary,             // Byzantine injection in TaskRuntime::offer_update
        model_size_bytes: _,   // communication-cost accounting
        min_capability_tier,   // Selector routing (fleet scenarios only)
    } = task;
    // Exhaustive matches: a new mode or secagg variant must be wired up (or
    // explicitly rejected) before it compiles.
    match mode {
        TrainingMode::Sync { .. }
        | TrainingMode::Async { .. }
        | TrainingMode::TimedHybrid { .. } => {}
    }
    match secagg {
        SecAggMode::Disabled | SecAggMode::AsyncSecAgg | SecAggMode::AsyncSecAggPerUpdate => {}
    }
    if let Some(dp) = dp {
        // Every DP knob in range (positive finite clip bound, non-negative
        // noise, sampling rate in (0, 1], delta in (0, 1), a budget only
        // with noise) — rejected here rather than mid-run.
        dp.validate();
    }
    if let Some(robust) = robust {
        // Defense knobs in range (positive norm bound, trim fraction in
        // [0, 0.5)) — rejected here rather than mid-run.
        robust.validate();
    }
    if let Some(adversary) = adversary {
        // Malicious fraction in [0, 1] and every behavior knob finite.
        adversary.validate();
    }
    assert!(
        client_timeout_s.is_finite() && *client_timeout_s > 0.0,
        "task {:?}: client timeout must be positive and finite",
        task.name
    );
    assert!(
        *min_capability_tier == 0 || has_fleet,
        "task {:?}: min_capability_tier is enforced by Selector routing and \
         requires a fleet; fleet-less scenarios select devices uniformly and \
         would silently ignore it",
        task.name
    );
}

/// The choke point where a scenario acknowledges every [`RunLimits`] field
/// it honors — the stop-condition sibling of [`validate_task_config`].  The
/// destructuring is exhaustive on purpose: adding a limit knob without
/// deciding how runs honor it becomes a compile error here (and a lint
/// finding), never a silently ignored setting.
///
/// # Panics
///
/// Panics on limits the run loop would not honor: a non-positive or
/// non-finite virtual-time budget, a zero client-update budget, or a
/// non-finite target loss.
fn validate_run_limits(limits: &RunLimits) {
    let RunLimits {
        max_virtual_time_s,      // hard stop of the run loop
        max_client_updates,      // checked on every ClientFinished
        target_loss,             // checked on every Evaluate
        parallelism: _,          // executor pool size; any value is honored
        trace_budget: _,         // validated at construction by TraceBudget::bounded
        sampling_shard_capacity, // must be able to hold at least one id
    } = limits;
    assert!(
        max_virtual_time_s.is_finite() && *max_virtual_time_s > 0.0,
        "max_virtual_time_s must be positive and finite"
    );
    assert!(
        *sampling_shard_capacity > 0,
        "sampling_shard_capacity of 0 cannot hold any device ids"
    );
    if let Some(max) = max_client_updates {
        assert!(
            *max > 0,
            "max_client_updates of 0 would stop no run; use a positive budget"
        );
    }
    if let Some(target) = target_loss {
        assert!(target.is_finite(), "target_loss must be finite");
    }
}

impl Scenario {
    /// Starts composing a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The composed tasks.
    pub fn tasks(&self) -> &[TaskConfig] {
        &self.tasks
    }

    /// Runs the scenario to completion and returns the unified report.
    ///
    /// With a non-sequential [`RunLimits::parallelism`] a worker pool is
    /// created for the duration of the run and client local training is
    /// executed speculatively off the event-loop thread; the report is
    /// bit-identical either way.
    pub fn run(&self) -> Report {
        let executor = Executor::from_parallelism(self.limits.parallelism);
        RunState::new(self, executor).run()
    }

    /// The fleet's initial placement as the control plane would report it at
    /// time zero: per-Aggregator liveness and load, pending tasks, and the
    /// assignment-map sequence.  Returns `None` for fleet-less
    /// scenarios, which have no control plane.
    pub fn fleet_status(&self) -> Option<FleetStatus> {
        let fleet = self.fleet.as_ref()?;
        Some(initial_control_plane(self, fleet).fleet_status())
    }
}

/// Draws `sample` distinct evaluation client ids without replacement.
pub(crate) fn sample_eval_ids(
    rng: &mut StdRng,
    population_len: usize,
    sample: usize,
) -> Vec<usize> {
    let sample = sample.min(population_len).max(1);
    let mut chosen = BTreeSet::new();
    let mut eval_ids = Vec::with_capacity(sample);
    while eval_ids.len() < sample {
        let id = rng.gen_range(0..population_len);
        if chosen.insert(id) {
            eval_ids.push(id);
        }
    }
    eval_ids
}

fn task_report(
    task_id: usize,
    name: String,
    reassignments: u64,
    runtime: TaskRuntime,
    virtual_seconds: f64,
) -> TaskReport {
    let (metrics, final_params, final_version, final_loss, hours_to_target) = runtime.into_parts();
    let initial_loss = metrics
        .loss_curve
        .first()
        .map(|&(_, loss)| loss)
        .unwrap_or(f64::INFINITY);
    TaskReport {
        task_id,
        name,
        initial_loss,
        final_loss,
        hours_to_target,
        final_version,
        final_params,
        reassignments,
        lost_buffered_updates: metrics.lost_buffered_updates,
        summary: metrics.summarize(virtual_seconds),
        metrics,
    }
}

fn roll_up(virtual_hours: f64, tasks: &[TaskReport], stats: ControlPlaneStats) -> FleetSummary {
    let summaries: Vec<TaskSummary> = tasks.iter().map(TaskReport::to_task_summary).collect();
    let collectors: Vec<&MetricsCollector> = tasks.iter().map(|t| &t.metrics).collect();
    FleetSummary::roll_up(virtual_hours, &summaries, &collectors, stats)
}

// ---------------------------------------------------------------------------
// The run loop: one event loop for every scenario shape.
// ---------------------------------------------------------------------------

/// Virtual seconds between a client being selected and starting to train.
const SELECTION_LATENCY_S: f64 = 2.0;

/// The control plane as of t=0: Coordinator created from the scenario
/// seed, Aggregators registered, tasks submitted in id order.  Shared by
/// [`FleetPlane::new`] and [`Scenario::fleet_status`] so the preview and
/// the run agree on initial placement.
fn initial_control_plane(scenario: &Scenario, fleet: &FleetSpec) -> ControlPlaneService {
    let mut service = ControlPlaneService::new(fleet.heartbeat_timeout_s, scenario.seed ^ 0xC0FFEE);
    for id in 0..fleet.aggregators {
        service.register_aggregator(id, 0.0);
    }
    for (task_id, task) in scenario.tasks.iter().enumerate() {
        service.submit_task(TaskSpec::from_task_config(task_id, task));
    }
    service
}

/// The control-plane side of a fleet run: tasks on persistent Aggregators
/// behind the Coordinator, devices routed through Selectors by capability
/// tier, injected Aggregator failures, and failover bookkeeping.  A
/// fleet-less run has none.
struct FleetPlane {
    fleet: FleetSpec,
    service: ControlPlaneService,
    selectors: Vec<Selector>,
    selector_cursor: usize,
    crashed: BTreeSet<AggregatorId>,
    tiers: Vec<u8>,
    /// Aggregator each in-flight participation will upload to (the route
    /// the client received at selection time).
    upload_route: BTreeMap<u64, AggregatorId>,
    reassignments: Vec<u64>,
    stats: ControlPlaneStats,
    /// Whether a [`EventKind::ReconcileTick`] is already queued (the pass
    /// is scheduled at most once per divergence episode).
    reconcile_scheduled: bool,
    /// Virtual time of the injected control-plane restore, until it
    /// happens.
    pending_restore_s: Option<f64>,
}

impl FleetPlane {
    fn new(scenario: &Scenario, fleet: FleetSpec) -> Self {
        let service = initial_control_plane(scenario, &fleet);
        let mut selectors = vec![Selector::new(); fleet.selectors];
        for selector in &mut selectors {
            selector.refresh(service.coordinator());
        }
        let tiers = scenario
            .population
            .iter()
            .map(|device| scenario.tier_policy.tier(&device))
            .collect();
        FleetPlane {
            fleet,
            service,
            selectors,
            selector_cursor: 0,
            crashed: BTreeSet::new(),
            tiers,
            upload_route: BTreeMap::new(),
            reassignments: vec![0; scenario.tasks.len()],
            stats: ControlPlaneStats::default(),
            reconcile_scheduled: false,
            pending_restore_s: scenario.control_plane_restore_s,
        }
    }

    /// If the scenario asks for a mid-run control-plane restore, throw away
    /// the live service state at the first control tick past the requested
    /// time and rebuild it from (checkpoint + log suffix).  Deliberately
    /// in-band (not an event): a restore must not change the event count,
    /// because its whole point is proving the run is bit-identical with and
    /// without it.
    fn maybe_restore(&mut self, now: SimTime) {
        if self.pending_restore_s.is_some_and(|at_s| now >= at_s) {
            self.pending_restore_s = None;
            self.service.restore_from_checkpoint();
            self.stats.coordinator_restores += 1;
        }
    }

    /// A device checks in: the Coordinator assigns it to an eligible task
    /// and the next Selector routes it.  Returns the task and its
    /// Aggregator, or `None` when the device must retry later (no eligible
    /// task with demand, a stale Selector map, or a dead Aggregator).
    fn check_in(&mut self, client_id: usize) -> Option<(usize, AggregatorId)> {
        let (task, aggregator) = self.service.assign_client(self.tiers[client_id])?;
        let selector_index = self.selector_cursor % self.selectors.len();
        self.selector_cursor += 1;
        let selector = &self.selectors[selector_index];

        // A Selector whose map sequence is behind the Coordinator's refuses
        // to route and asks the client to retry while it refreshes.
        if selector.is_stale(self.service.coordinator()) {
            self.stats.stale_route_refusals += 1;
            return None;
        }
        match selector.route(task) {
            RouteOutcome::StaleMap => {
                self.stats.stale_route_refusals += 1;
                None
            }
            // The connection to a dead Aggregator fails outright; the
            // client retries at a later check-in.
            RouteOutcome::Routed(routed) => (!self.crashed.contains(&routed)
                && routed == aggregator)
                .then_some((task, aggregator)),
        }
    }

    fn refresh_selectors(&mut self, queue: &mut EventQueue, now: SimTime) {
        for selector in &mut self.selectors {
            if selector.is_stale(self.service.coordinator()) {
                selector.refresh(self.service.coordinator());
            }
        }
        queue.schedule(
            now + self.fleet.selector_refresh_interval_s,
            EventKind::RefreshSelectors,
        );
    }

    /// An injected Aggregator recovery: the process comes back, heartbeats
    /// immediately (register-or-refresh), and any orphaned or pending tasks
    /// are re-placed by the reconcile pass the heartbeat makes possible.
    fn recover(&mut self, aggregator: AggregatorId, queue: &mut EventQueue, now: SimTime) {
        if self.crashed.remove(&aggregator) {
            self.stats.aggregator_recoveries += 1;
            self.service.heartbeat(aggregator, now);
            self.maybe_schedule_reconcile(queue, now);
        }
    }

    /// A reconciliation pass: diff desired placement (every task routed to a
    /// healthy Aggregator) against actual routes and correct divergence.
    /// Re-placing an orphan counts as a reassignment; first placement of a
    /// pending task does not.
    fn reconcile(&mut self, now: SimTime) {
        self.reconcile_scheduled = false;
        for correction in self.service.reconcile(now) {
            if correction.was_placed {
                self.reassignments[correction.task] += 1;
                self.stats.task_reassignments += 1;
            }
        }
    }

    /// Schedules a reconcile pass at the current instant iff one would do
    /// work and none is already queued.  Scenarios whose placement never
    /// diverges therefore process no extra events — a property the pinned
    /// historical fingerprints depend on.
    fn maybe_schedule_reconcile(&mut self, queue: &mut EventQueue, now: SimTime) {
        if !self.reconcile_scheduled && self.service.needs_reconciliation() {
            self.reconcile_scheduled = true;
            queue.schedule(now, EventKind::ReconcileTick);
        }
    }

    /// The end-of-run per-task reassignment counts and control-plane stats.
    fn into_outcome(mut self) -> (Vec<u64>, ControlPlaneStats) {
        self.stats.final_map_sequence = self.service.coordinator().sequence();
        let counters = self.service.counters();
        self.stats.heartbeats = counters.heartbeats;
        self.stats.tasks_placed = counters.tasks_placed;
        self.stats.tasks_orphaned = counters.tasks_orphaned;
        self.stats.tasks_reconciled = counters.tasks_reconciled;
        self.stats.pending_task_submissions = counters.pending_task_submissions;
        self.stats.unknown_heartbeat_registrations = counters.unknown_heartbeat_registrations;
        self.stats.control_log_events = self.service.log().len();
        self.stats.checkpoints_taken = self.service.checkpoints_taken();
        self.stats.checkpoint_age_events = self.service.checkpoint_age_events();
        (self.reassignments, self.stats)
    }
}

/// The state of one scenario run.  Without a fleet (`plane == None`) the
/// run drives its single task straight off the event queue: freed slots
/// are refilled eagerly by uniform selection and utilization is sampled
/// periodically.  With a fleet, devices check in at every
/// [`EventKind::ControlPlaneTick`] and are routed through the plane.
struct RunState<'a> {
    scenario: &'a Scenario,
    rng: StdRng,
    queue: EventQueue,
    runtimes: Vec<TaskRuntime>,
    pool: SamplingPool,
    next_participation_id: u64,
    /// Latest aggregation deadline an `AggregatorDeadline` event has been
    /// scheduled for, per task (deadline strategies only; deadlines only
    /// move forward, so one value per task suffices).
    scheduled_deadlines: Vec<Option<f64>>,
    plane: Option<FleetPlane>,
    now: SimTime,
}

impl<'a> RunState<'a> {
    fn new(scenario: &'a Scenario, executor: Option<Arc<Executor>>) -> Self {
        let mut rng = StdRng::seed_from_u64(scenario.seed);
        let plane = scenario.fleet.map(|fleet| FleetPlane::new(scenario, fleet));
        let mut runtimes = Vec::with_capacity(scenario.tasks.len());
        for (task_id, task) in scenario.tasks.iter().enumerate() {
            // Fixed evaluation sample, drawn per task in task order.
            let eval_ids = sample_eval_ids(
                &mut rng,
                scenario.population.len(),
                scenario.eval.sample_size,
            );
            // Fleet tasks never share a stream; the fleet-less task keeps
            // the scenario seed itself (see docs/DETERMINISM.md).
            let runtime_seed = if plane.is_some() {
                scenario.seed ^ ((task_id as u64 + 1) << 32)
            } else {
                scenario.seed
            };
            let mut runtime = TaskRuntime::new(
                task.clone(),
                scenario.server_optimizer,
                Arc::clone(&scenario.trainers[task_id]),
                eval_ids,
                runtime_seed,
                scenario.limits.target_loss,
            );
            // All runtimes share one pool; participation ids are unique
            // across tasks, so jobs never collide.
            runtime.set_executor(executor.clone());
            runtime.set_trace_budget(scenario.limits.trace_budget);
            runtimes.push(runtime);
        }
        RunState {
            scenario,
            rng,
            queue: EventQueue::new(),
            pool: SamplingPool::with_shard_capacity(
                scenario.population.len(),
                scenario.limits.sampling_shard_capacity,
            ),
            next_participation_id: 0,
            scheduled_deadlines: vec![None; runtimes.len()],
            runtimes,
            plane,
            now: 0.0,
        }
    }

    fn total_comm_trips(&self) -> u64 {
        self.runtimes.iter().map(|r| r.metrics().comm_trips).sum()
    }

    /// Schedules exact readiness checks for tasks whose aggregator reports
    /// a new deadline (a buffer opened or reopened).  No-op for count-based
    /// strategies, which never report one.
    fn schedule_deadline_checks(&mut self) {
        for task in 0..self.runtimes.len() {
            if let Some(deadline) = self.runtimes[task].next_deadline_s() {
                if self.scheduled_deadlines[task] != Some(deadline) {
                    self.scheduled_deadlines[task] = Some(deadline);
                    self.queue.schedule(
                        deadline.max(self.now),
                        EventKind::AggregatorDeadline { task },
                    );
                }
            }
        }
    }

    /// The events at t=0.  Their order fixes the sequence numbers that
    /// break same-instant ties, so each shape keeps its own: fleet-less
    /// runs select the first clients, then evaluate and sample
    /// utilization; fleet runs tick the control plane, schedule the first
    /// Selector refresh, evaluate every task, then inject crashes and
    /// recoveries.
    fn schedule_initial_events(&mut self) {
        match self.scenario.fleet {
            None => {
                self.fill_demand();
                self.queue.schedule(0.0, EventKind::Evaluate { task: 0 });
                self.queue.schedule(0.0, EventKind::SampleUtilization);
            }
            Some(fleet) => {
                self.queue.schedule(0.0, EventKind::ControlPlaneTick);
                self.queue.schedule(
                    fleet.selector_refresh_interval_s,
                    EventKind::RefreshSelectors,
                );
                for task in 0..self.runtimes.len() {
                    self.queue.schedule(0.0, EventKind::Evaluate { task });
                }
                for crash in &self.scenario.crashes {
                    self.queue.schedule(
                        crash.time_s,
                        EventKind::AggregatorCrash {
                            aggregator: crash.aggregator,
                        },
                    );
                }
                for recovery in &self.scenario.recoveries {
                    self.queue.schedule(
                        recovery.time_s,
                        EventKind::AggregatorRecover {
                            aggregator: recovery.aggregator,
                        },
                    );
                }
            }
        }
    }

    fn run(mut self) -> Report {
        self.schedule_initial_events();

        let limits = self.scenario.limits;
        let mut stop_reason = StopReason::MaxVirtualTime;
        let mut events_processed = 0u64;
        while let Some(event) = self.queue.pop() {
            if event.time > limits.max_virtual_time_s {
                self.now = limits.max_virtual_time_s;
                break;
            }
            self.now = event.time;
            events_processed += 1;
            match event.kind {
                EventKind::ClientFinished {
                    task,
                    client_id,
                    participation_id,
                } => {
                    self.handle_client_finished(task, client_id, participation_id);
                    if let Some(max) = limits.max_client_updates {
                        if self.total_comm_trips() >= max {
                            stop_reason = StopReason::MaxClientUpdates;
                            break;
                        }
                    }
                }
                EventKind::ClientFailed {
                    task,
                    client_id: _,
                    participation_id,
                } => {
                    if let Some(plane) = &mut self.plane {
                        plane.upload_route.remove(&participation_id);
                    }
                    if let Some(freed) = self.runtimes[task].client_failed(participation_id) {
                        self.pool.release(freed);
                        self.fill_demand();
                    }
                }
                EventKind::Evaluate { task } => {
                    self.runtimes[task].evaluate(self.now);
                    if limits.target_loss.is_some()
                        && self.runtimes.iter().all(|r| r.target_reached())
                    {
                        stop_reason = StopReason::TargetLossReached;
                        break;
                    }
                    self.queue.schedule(
                        self.now + self.scenario.eval.interval_s,
                        EventKind::Evaluate { task },
                    );
                }
                EventKind::SampleUtilization => {
                    for runtime in &mut self.runtimes {
                        runtime.record_utilization(self.now);
                    }
                    self.queue.schedule(
                        self.now + self.scenario.utilization_sample_interval_s,
                        EventKind::SampleUtilization,
                    );
                }
                EventKind::AggregatorDeadline { task } => {
                    // Exact timed release; a stale check (the buffer closed
                    // or moved since scheduling) polls as a no-op.
                    if let Some(outcome) = self.runtimes[task].poll(self.now) {
                        self.schedule_releases(task, &outcome);
                        self.release_freed(&outcome.freed);
                        self.fill_demand();
                    }
                }
                EventKind::TsaKeyRelease { task } => {
                    // The TSA unmasked the buffer that just closed; refresh
                    // the task's secure-aggregation metrics.
                    self.runtimes[task].sync_secure_telemetry();
                }
                EventKind::DpRelease { task } => {
                    // A noised aggregate was published and composed into
                    // the cumulative ε; refresh the task's DP metrics and
                    // enforce the budget — one task overspending its ε
                    // stops the whole scenario (the operator must re-budget
                    // before any further release is defensible).
                    self.runtimes[task].sync_dp_telemetry();
                    if self.runtimes[task].privacy_budget_exhausted() {
                        stop_reason = StopReason::PrivacyBudgetExhausted;
                        break;
                    }
                }
                EventKind::RobustRelease { task } => {
                    // A defense-mediated release went out; refresh the
                    // task's robustness metrics.
                    self.runtimes[task].sync_robust_telemetry();
                }
                // Control-plane events: only a fleet run schedules them.
                EventKind::ControlPlaneTick => self.control_plane_tick(),
                EventKind::RefreshSelectors => {
                    if let Some(plane) = &mut self.plane {
                        plane.refresh_selectors(&mut self.queue, self.now);
                    }
                }
                EventKind::AggregatorCrash { aggregator } => {
                    if let Some(plane) = &mut self.plane {
                        if plane.crashed.insert(aggregator) {
                            plane.stats.aggregator_failures += 1;
                        }
                    }
                }
                EventKind::AggregatorRecover { aggregator } => {
                    if let Some(plane) = &mut self.plane {
                        plane.recover(aggregator, &mut self.queue, self.now);
                    }
                }
                EventKind::ReconcileTick => {
                    if let Some(plane) = &mut self.plane {
                        plane.reconcile(self.now);
                    }
                }
            }
            self.schedule_deadline_checks();
        }

        // Final evaluation so every task's final loss reflects its last model.
        for runtime in &mut self.runtimes {
            runtime.evaluate(self.now);
        }
        let (reassignments, stats) = match self.plane {
            Some(plane) => plane.into_outcome(),
            None => (vec![0; self.runtimes.len()], ControlPlaneStats::default()),
        };
        let virtual_hours = self.now / 3600.0;
        let mut reports = Vec::with_capacity(self.runtimes.len());
        for (task_id, runtime) in self.runtimes.into_iter().enumerate() {
            let name = runtime.config().name.clone();
            reports.push(task_report(
                task_id,
                name,
                reassignments[task_id],
                runtime,
                self.now,
            ));
        }
        let fleet = roll_up(virtual_hours, &reports, stats);
        Report {
            stop_reason,
            virtual_hours,
            events_processed,
            tasks: reports,
            fleet,
        }
    }

    /// Fleet-less selection: tops every task's demand up with idle devices
    /// drawn uniformly at random, then records utilization.  Called at t=0
    /// and after every finish, failure, and deadline release.  A no-op with
    /// a fleet, whose devices check in at control-plane ticks instead.
    fn fill_demand(&mut self) {
        if self.plane.is_some() {
            return;
        }
        for task in 0..self.runtimes.len() {
            for _ in 0..self.runtimes[task].demand() {
                match self.pool.acquire_random(&mut self.rng) {
                    Some(client_id) => {
                        self.start_participation(task, client_id);
                    }
                    None => break, // every device is already participating
                }
            }
            self.runtimes[task].record_utilization(self.now);
        }
    }

    /// One control-plane sweep: heartbeats, failure detection and task
    /// reassignment, demand pooling, and client assignment.
    fn control_plane_tick(&mut self) {
        let now = self.now;
        let Some(plane) = &mut self.plane else {
            return;
        };
        plane.maybe_restore(now);

        // Live Aggregators heartbeat; crashed ones stay silent.
        for id in 0..plane.fleet.aggregators {
            if !plane.crashed.contains(&id) {
                plane.service.heartbeat(id, now);
            }
        }

        // Failure detection: tasks moved to a surviving Aggregator lose
        // their buffered updates.  Tasks orphaned by total loss lose them
        // too (the buffers died with the Aggregator); their re-placement
        // waits for the reconcile pass triggered by the first recovery.
        let sweep = plane.service.detect_failures(now);
        for task in sweep.reassigned {
            self.runtimes[task].drop_buffered_updates();
            plane.reassignments[task] += 1;
            plane.stats.task_reassignments += 1;
        }
        for task in sweep.orphaned {
            self.runtimes[task].drop_buffered_updates();
        }

        // Demand pooling: every runtime reports its current client demand.
        for (task_id, runtime) in self.runtimes.iter().enumerate() {
            plane.service.report_demand(task_id, runtime.demand());
        }

        // Client assignment: idle devices check in and are assigned to
        // eligible tasks until demand is met (or no check-in succeeds).
        let total_demand: usize = (0..self.runtimes.len())
            .map(|task| plane.service.coordinator().effective_demand(task))
            .sum();
        let mut assigned = 0;
        let mut turned_away = Vec::new();
        let max_checkins = 4 * total_demand + 8;
        for _ in 0..max_checkins {
            if assigned >= total_demand {
                break;
            }
            let client_id = match self.pool.acquire_random(&mut self.rng) {
                Some(id) => id,
                None => break, // every device is already participating
            };
            match self.plane.as_mut().and_then(|p| p.check_in(client_id)) {
                Some((task, aggregator)) => {
                    let participation_id = self.start_participation(task, client_id);
                    if let Some(plane) = &mut self.plane {
                        plane.upload_route.insert(participation_id, aggregator);
                    }
                    assigned += 1;
                }
                None => turned_away.push(client_id),
            }
        }
        for client_id in turned_away {
            self.pool.release(client_id);
        }

        for runtime in &mut self.runtimes {
            runtime.record_utilization(now);
        }
        if let Some(plane) = &mut self.plane {
            plane.maybe_schedule_reconcile(&mut self.queue, now);
            self.queue.schedule(
                now + plane.fleet.control_plane_interval_s,
                EventKind::ControlPlaneTick,
            );
        }
    }

    /// Starts `client_id`'s participation in `task`: draws whether it drops
    /// out, and schedules its finish or failure.  Returns the participation
    /// id.
    fn start_participation(&mut self, task: usize, client_id: usize) -> u64 {
        let device = self.scenario.population.device(client_id);
        let participation_id = self.next_participation_id;
        self.next_participation_id += 1;

        let timeout = self.runtimes[task].config().client_timeout_s;
        let start = self.now + SELECTION_LATENCY_S;
        let drops_out = self.rng.gen::<f64>() < device.dropout_prob;
        let exceeds_timeout = device.exceeds_timeout(timeout);
        let execution_time = device.clamped_execution_time(timeout);

        self.runtimes[task].begin_participation(participation_id, client_id, execution_time);

        if drops_out {
            // The client fails partway through its (clamped) execution.
            let fraction: f64 = self.rng.gen_range(0.05..0.95);
            self.queue.schedule(
                start + fraction * execution_time,
                EventKind::ClientFailed {
                    task,
                    client_id,
                    participation_id,
                },
            );
        } else if exceeds_timeout {
            // The client is aborted at the timeout.
            self.queue.schedule(
                start + timeout,
                EventKind::ClientFailed {
                    task,
                    client_id,
                    participation_id,
                },
            );
        } else {
            self.queue.schedule(
                start + execution_time,
                EventKind::ClientFinished {
                    task,
                    client_id,
                    participation_id,
                },
            );
            // This participation will reach its finish event: start its
            // local training on the worker pool now (no-op sequentially).
            self.runtimes[task].prefetch_training(participation_id);
        }
        participation_id
    }

    /// Schedules the telemetry-sync events for whatever layers of `task`'s
    /// aggregation stack just released.
    fn schedule_releases(&mut self, task: usize, outcome: &UpdateOutcome) {
        if outcome.tsa_key_released {
            self.queue
                .schedule(self.now, EventKind::TsaKeyRelease { task });
        }
        if outcome.dp_released {
            self.queue.schedule(self.now, EventKind::DpRelease { task });
        }
        if outcome.robust_released {
            self.queue
                .schedule(self.now, EventKind::RobustRelease { task });
        }
    }

    /// Returns clients whose participations a release or an abort ended to
    /// the idle pool.
    fn release_freed(&mut self, freed: &[FreedClient]) {
        for client in freed {
            if let Some(plane) = &mut self.plane {
                plane.upload_route.remove(&client.participation_id);
            }
            self.pool.release(client.client_id);
        }
    }

    fn handle_client_finished(&mut self, task: usize, client_id: usize, participation_id: u64) {
        if let Some(plane) = &mut self.plane {
            // An upload addressed to a dead Aggregator is lost in transit;
            // the participation failed from the task's point of view.
            let destination = plane.upload_route.remove(&participation_id);
            if destination.is_some_and(|agg| plane.crashed.contains(&agg)) {
                plane.stats.lost_in_transit_updates += 1;
                if let Some(freed) = self.runtimes[task].client_failed(participation_id) {
                    self.pool.release(freed);
                }
                return;
            }
        }
        let outcome = match self.runtimes[task].offer_update(participation_id, self.now) {
            Some(outcome) => outcome,
            None => return, // aborted earlier (round end, staleness, failover)
        };
        self.schedule_releases(task, &outcome);
        self.pool.release(client_id);
        self.release_freed(&outcome.freed);
        if self.plane.is_none() {
            if outcome.round_ended {
                self.runtimes[task].record_utilization(self.now);
            }
            self.fill_demand();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papaya_data::population::PopulationConfig;

    fn population(n: usize) -> Population {
        Population::generate(&PopulationConfig::default().with_size(n), 17)
    }

    #[test]
    fn direct_scenario_trains_one_task() {
        let report = Scenario::builder()
            .population(population(600))
            .task(TaskConfig::async_task("t", 32, 8))
            .limits(RunLimits::default().with_max_virtual_time_hours(1.0))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(3)
            .build()
            .run();
        assert_eq!(report.stop_reason, StopReason::MaxVirtualTime);
        let task = report.single();
        assert!(task.server_updates() > 0);
        assert_eq!(task.final_version, task.server_updates());
        assert!(task.final_loss < task.initial_loss);
        // The fleet roll-up covers the single task with zeroed control-plane
        // counters.
        assert_eq!(report.fleet.tasks, 1);
        assert_eq!(report.fleet.total_comm_trips, task.comm_trips());
        assert_eq!(report.fleet.control_plane, ControlPlaneStats::default());
    }

    #[test]
    fn fleet_scenario_trains_many_tasks() {
        let report = Scenario::builder()
            .population(population(1200))
            .task(TaskConfig::async_task("a", 48, 12))
            .task(TaskConfig::sync_task("s", 30, 0.3))
            .fleet(FleetSpec::new(2, 2))
            .limits(RunLimits::default().with_max_virtual_time_hours(1.0))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(5)
            .build()
            .run();
        assert_eq!(report.tasks.len(), 2);
        for task in &report.tasks {
            assert!(task.comm_trips() > 0, "task {} got no updates", task.name);
            assert!(task.final_loss < task.initial_loss);
        }
        assert_eq!(
            report.fleet.total_comm_trips,
            report.tasks.iter().map(|t| t.comm_trips()).sum::<u64>()
        );
    }

    #[test]
    fn scenario_matches_for_same_seed() {
        let run = || {
            Scenario::builder()
                .population(population(500))
                .task(TaskConfig::async_task("t", 32, 8))
                .limits(RunLimits::default().with_max_virtual_time_hours(0.5))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(11)
                .build()
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.tasks[0].final_loss, b.tasks[0].final_loss);
        assert_eq!(a.tasks[0].comm_trips(), b.tasks[0].comm_trips());
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let run = |parallelism: Parallelism| {
            Scenario::builder()
                .population(population(500))
                .task(TaskConfig::async_task("t", 32, 8))
                .limits(RunLimits::default().with_max_virtual_time_hours(0.5))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .parallelism(parallelism)
                .seed(11)
                .build()
                .run()
        };
        let sequential = run(Parallelism::sequential());
        assert!(sequential.events_processed > 0);
        for workers in [1, 3] {
            let parallel = run(Parallelism(workers));
            assert_eq!(
                sequential.fingerprint(),
                parallel.fingerprint(),
                "{workers} workers diverged from the sequential path"
            );
        }
    }

    #[test]
    fn parallel_secure_run_is_bit_identical_to_sequential() {
        // The secure pipeline speculates mask work onto the pool (plans are
        // issued at selection time, results consumed in event order), so a
        // session-cached secure run must stay bit-identical at any thread
        // count — including the cache-hit/miss counters that feed the
        // fingerprint.
        let run = |parallelism: Parallelism| {
            Scenario::builder()
                .population(population(300))
                .task(TaskConfig::async_task("t", 16, 4).with_secagg(SecAggMode::AsyncSecAgg))
                .limits(RunLimits::default().with_max_virtual_time_hours(0.25))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .parallelism(parallelism)
                .seed(21)
                .build()
                .run()
        };
        let sequential = run(Parallelism::sequential());
        let m = &sequential.single().metrics;
        assert!(m.secure.session_cache_misses > 0, "no first contacts");
        assert!(m.secure.session_cache_hits > 0, "cache never resumed");
        assert_eq!(m.secure.dh_exchanges_saved, m.secure.session_cache_hits);
        for workers in [1, 3] {
            let parallel = run(Parallelism(workers));
            assert_eq!(
                sequential.fingerprint(),
                parallel.fingerprint(),
                "{workers} workers diverged from the sequential secure path"
            );
        }
    }

    #[test]
    fn fleet_run_can_stop_on_total_client_updates() {
        let report = Scenario::builder()
            .population(population(800))
            .task(TaskConfig::async_task("a", 32, 8))
            .task(TaskConfig::async_task("b", 32, 8))
            .fleet(FleetSpec::new(2, 2))
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(10.0)
                    .with_max_client_updates(300),
            )
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(9)
            .build()
            .run();
        assert_eq!(report.stop_reason, StopReason::MaxClientUpdates);
        assert!(report.fleet.total_comm_trips >= 300);
        assert!(report.virtual_hours < 10.0);
    }

    #[test]
    fn tier_policy_boundaries_are_inclusive() {
        let policy = TierPolicy::default();
        let device = |speed: f64| DeviceProfile {
            id: 0,
            num_examples: 10,
            speed_factor: speed,
            execution_time_s: 10.0,
            dropout_prob: 0.0,
        };
        assert_eq!(policy.tier(&device(1.25)), 2);
        assert_eq!(policy.tier(&device(1.2499)), 1);
        assert_eq!(policy.tier(&device(0.75)), 1);
        assert_eq!(policy.tier(&device(0.7499)), 0);
        assert_eq!(policy.tier(&device(0.0)), 0);

        let strict = TierPolicy::new(2.0, 1.0);
        assert_eq!(strict.tier(&device(1.9)), 1);
        assert_eq!(strict.tier(&device(2.0)), 2);
        assert_eq!(strict.tier(&device(0.99)), 0);
    }

    #[test]
    #[should_panic(expected = "fast threshold must be at least")]
    fn inverted_tier_policy_rejected() {
        let _ = TierPolicy::new(0.5, 1.0);
    }

    #[test]
    fn custom_tier_policy_changes_eligibility() {
        // With an impossibly high tier-1 threshold, a tier-1-restricted task
        // sees no eligible devices and receives no updates.
        let base = || {
            Scenario::builder()
                .population(population(400))
                .task(TaskConfig::async_task("restricted", 16, 4).with_min_capability_tier(1))
                .fleet(FleetSpec::new(1, 1))
                .limits(RunLimits::default().with_max_virtual_time_hours(0.25))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(13)
        };
        let default_policy = base().build().run();
        assert!(default_policy.tasks[0].comm_trips() > 0);
        let impossible = base().tier_policy(TierPolicy::new(1e9, 1e9)).build().run();
        assert_eq!(impossible.tasks[0].comm_trips(), 0);
    }

    #[test]
    fn secagg_flag_is_honored_not_silently_ignored() {
        // Regression test for the era when `SecAggMode::AsyncSecAgg` was a
        // config flag the simulator never read: a secure run must actually
        // engage the protocol (masked updates, per-buffer key releases) and
        // must therefore fingerprint differently from the clear run.
        let run = |mode: SecAggMode| {
            Scenario::builder()
                .population(population(300))
                .task(TaskConfig::async_task("t", 16, 4).with_secagg(mode))
                .limits(RunLimits::default().with_max_virtual_time_hours(0.25))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(21)
                .build()
                .run()
        };
        let clear = run(SecAggMode::Disabled);
        let secure = run(SecAggMode::AsyncSecAgg);
        let m = &secure.single().metrics;
        assert!(m.secure.masked_updates > 0, "protocol never engaged");
        assert_eq!(m.secure.masked_updates, m.aggregated_updates);
        assert_eq!(m.secure.tsa_key_releases, m.server_updates);
        assert!(m.secure.tee_bytes_in > 0);
        assert_eq!(clear.single().metrics.secure.masked_updates, 0);
        assert_eq!(clear.single().metrics.secure.tsa_key_releases, 0);
        assert_ne!(clear.fingerprint(), secure.fingerprint());
    }

    #[test]
    fn secagg_builder_knob_applies_to_every_task() {
        let scenario = Scenario::builder()
            .population(population(300))
            .task(TaskConfig::async_task("a", 16, 4))
            .task(TaskConfig::sync_task("s", 12, 0.3))
            .fleet(FleetSpec::new(1, 1))
            .secagg(SecAggMode::AsyncSecAgg)
            .seed(1)
            .build();
        for task in scenario.tasks() {
            assert_eq!(task.secagg, SecAggMode::AsyncSecAgg, "{}", task.name);
        }
    }

    #[test]
    fn dp_flag_is_honored_not_silently_ignored() {
        // A DP run must actually engage the pipeline (clip bookkeeping,
        // noised releases, a growing ε) and must therefore fingerprint
        // differently from the clear run.
        let run = |dp: Option<DpConfig>| {
            let mut task = TaskConfig::async_task("t", 16, 4);
            if let Some(dp) = dp {
                task = task.with_dp(dp);
            }
            Scenario::builder()
                .population(population(300))
                .task(task)
                .limits(RunLimits::default().with_max_virtual_time_hours(0.25))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(21)
                .build()
                .run()
        };
        let clear = run(None);
        let private = run(Some(DpConfig::new(10.0, 0.5).with_sampling_rate(0.1)));
        let m = &private.single().metrics;
        assert!(m.dp.releases > 0, "pipeline never engaged");
        assert_eq!(m.dp.releases, m.server_updates);
        assert_eq!(m.dp.accepted_updates, m.aggregated_updates);
        assert_eq!(m.dp.release_trace.len(), m.server_updates as usize);
        assert!(m.dp.cumulative_epsilon.is_finite() && m.dp.cumulative_epsilon > 0.0);
        assert_eq!(private.single().summary.dp_releases, m.dp.releases);
        assert_eq!(
            private.single().summary.cumulative_epsilon,
            m.dp.cumulative_epsilon
        );
        assert_eq!(clear.single().metrics.dp.releases, 0);
        assert_ne!(clear.fingerprint(), private.fingerprint());
    }

    #[test]
    fn robust_flag_is_honored_not_silently_ignored() {
        // A defended run under attack must actually engage the defense
        // (estimator releases, synced telemetry, ground-truth attack
        // counts) and must therefore fingerprint differently from the
        // clear run.
        let run = |defended: bool| {
            let mut task = TaskConfig::async_task("t", 16, 4);
            if defended {
                task = task
                    .with_robust(RobustConfig::new(
                        papaya_core::RobustDefense::CoordinateMedian,
                    ))
                    .with_adversary(AdversarySpec::new(
                        0.3,
                        papaya_core::Malice::SignFlip { scale: 10.0 },
                    ));
            }
            Scenario::builder()
                .population(population(300))
                .task(task)
                .limits(RunLimits::default().with_max_virtual_time_hours(0.25))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(21)
                .build()
                .run()
        };
        let clear = run(false);
        let defended = run(true);
        let m = &defended.single().metrics;
        assert!(m.robust.estimator_releases > 0, "estimator never engaged");
        assert_eq!(m.robust.estimator_releases, m.server_updates);
        assert_eq!(m.robust.estimator_trace.len(), m.server_updates as usize);
        assert!(m.attacked_updates > 0, "the cohort never attacked");
        assert_eq!(m.attacks_by_label.values().sum::<u64>(), m.attacked_updates);
        assert_eq!(
            defended.single().summary.robust_estimator_releases,
            m.robust.estimator_releases
        );
        assert_eq!(
            defended.single().summary.attacked_updates,
            m.attacked_updates
        );
        assert_eq!(clear.single().metrics.robust.estimator_releases, 0);
        assert_ne!(clear.fingerprint(), defended.fingerprint());
    }

    #[test]
    fn neutral_defense_over_an_honest_population_is_bit_identical_to_clear() {
        // The neutral defense adds telemetry availability and nothing
        // else: with no attacker, the run — including its fingerprint —
        // must match the clear run bit-for-bit.
        let run = |neutral_defense: bool| {
            let mut task = TaskConfig::async_task("t", 16, 4);
            if neutral_defense {
                task = task.with_robust(RobustConfig::neutral());
            }
            Scenario::builder()
                .population(population(300))
                .task(task)
                .limits(RunLimits::default().with_max_virtual_time_hours(0.25))
                .eval(EvalPolicy::default().with_interval_s(600.0))
                .seed(21)
                .build()
                .run()
        };
        let clear = run(false);
        let defended = run(true);
        assert_eq!(clear.fingerprint(), defended.fingerprint());
    }

    #[test]
    fn robust_and_adversary_builder_knobs_apply_to_every_task() {
        let robust =
            RobustConfig::new(papaya_core::RobustDefense::TrimmedMean { trim_fraction: 0.2 });
        let adversary = AdversarySpec::new(0.1, papaya_core::Malice::StalenessLiar);
        let scenario = Scenario::builder()
            .population(population(300))
            .task(TaskConfig::async_task("a", 16, 4))
            .task(TaskConfig::sync_task("s", 12, 0.3))
            .fleet(FleetSpec::new(1, 1))
            .robust(robust)
            .adversary(adversary)
            .seed(1)
            .build();
        for task in scenario.tasks() {
            assert_eq!(task.robust, Some(robust), "{}", task.name);
            assert_eq!(task.adversary, Some(adversary), "{}", task.name);
        }
    }

    #[test]
    #[should_panic(expected = "trim fraction")]
    fn invalid_robust_config_is_rejected_at_build() {
        Scenario::builder()
            .population(population(10))
            .task(
                TaskConfig::async_task("t", 4, 2).with_robust(RobustConfig::new(
                    papaya_core::RobustDefense::TrimmedMean { trim_fraction: 0.5 },
                )),
            )
            .build();
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_adversary_spec_is_rejected_at_build() {
        Scenario::builder()
            .population(population(10))
            .task(
                TaskConfig::async_task("t", 4, 2)
                    .with_adversary(AdversarySpec::new(1.5, papaya_core::Malice::StalenessLiar)),
            )
            .build();
    }

    #[test]
    fn privacy_budget_stops_the_run() {
        // A tight ε budget stops the run long before the virtual-time
        // limit; the cumulative ε never overshoots by more than one
        // release.
        let report = Scenario::builder()
            .population(population(300))
            .task(
                TaskConfig::async_task("t", 16, 4).with_dp(
                    DpConfig::new(10.0, 1.0)
                        .with_target_delta(1e-5)
                        .with_epsilon_budget(20.0),
                ),
            )
            .limits(RunLimits::default().with_max_virtual_time_hours(50.0))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(22)
            .build()
            .run();
        assert_eq!(report.stop_reason, StopReason::PrivacyBudgetExhausted);
        assert!(report.virtual_hours < 50.0);
        let m = &report.single().metrics;
        assert!(m.dp.cumulative_epsilon >= 20.0);
        // The release *before* the stop was still inside the budget.
        if m.dp.release_trace.len() >= 2 {
            let previous = m.dp.release_trace[m.dp.release_trace.len() - 2];
            assert!(previous.cumulative_epsilon < 20.0);
        }
    }

    #[test]
    fn dp_builder_knob_applies_to_every_task() {
        let dp = DpConfig::new(5.0, 1.0);
        let scenario = Scenario::builder()
            .population(population(300))
            .task(TaskConfig::async_task("a", 16, 4))
            .task(TaskConfig::sync_task("s", 12, 0.3))
            .fleet(FleetSpec::new(1, 1))
            .dp(dp)
            .seed(1)
            .build();
        for task in scenario.tasks() {
            assert_eq!(task.dp, Some(dp), "{}", task.name);
        }
    }

    #[test]
    #[should_panic(expected = "noise multiplier must be non-negative")]
    fn invalid_dp_config_rejected_at_build() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("t", 8, 2).with_dp(DpConfig::new(1.0, -1.0)))
            .build();
    }

    #[test]
    #[should_panic(expected = "min_capability_tier is enforced by Selector routing")]
    fn capability_tier_without_fleet_rejected() {
        // A fleet-less scenario has no Selectors, so a tier restriction would be
        // silently ignored — the builder must reject it instead.
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("t", 8, 2).with_min_capability_tier(1))
            .build();
    }

    #[test]
    #[should_panic(expected = "client timeout must be positive and finite")]
    fn non_finite_timeout_rejected() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("t", 8, 2).with_timeout(f64::NAN))
            .build();
    }

    #[test]
    #[should_panic(expected = "drive exactly one task")]
    fn multi_task_without_fleet_rejected() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("a", 8, 2))
            .task(TaskConfig::async_task("b", 8, 2))
            .build();
    }

    #[test]
    #[should_panic(expected = "crash injection requires a fleet")]
    fn crash_without_fleet_rejected() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("a", 8, 2))
            .crash_at(10.0, 0)
            .build();
    }

    #[test]
    fn stop_reasons_display_readably() {
        assert_eq!(
            StopReason::TargetLossReached.to_string(),
            "target loss reached"
        );
        assert_eq!(
            StopReason::MaxVirtualTime.to_string(),
            "virtual-time budget exhausted"
        );
        assert_eq!(
            StopReason::MaxClientUpdates.to_string(),
            "client-update budget exhausted"
        );
        assert_eq!(
            StopReason::PrivacyBudgetExhausted.to_string(),
            "privacy budget exhausted"
        );
    }

    #[test]
    fn timed_hybrid_strategy_runs_end_to_end() {
        // Aggregation goal far above what the concurrency can deliver: only
        // the deadline can release buffers, so every server update proves
        // the third strategy works through the whole stack.  The huge
        // utilization-sampler interval pins down that releases come from
        // exact deadline events, not from piggybacking on periodic polls.
        let report = Scenario::builder()
            .population(population(400))
            .task(TaskConfig::timed_hybrid_task("hybrid", 24, 10_000, 240.0))
            .limits(RunLimits::default().with_max_virtual_time_hours(2.0))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .utilization_sample_interval_s(1e6)
            .seed(7)
            .build()
            .run();
        let task = report.single();
        // 2 h / 240 s deadline ≈ 30 release windows; allow slack for
        // arrival gaps but demand far more than a sampler-driven run
        // (interval 1e6 s) could produce.
        assert!(
            task.server_updates() > 15,
            "deadline releases did not happen on time: {}",
            task.server_updates()
        );
        assert!(task.final_loss < task.initial_loss);
    }

    #[test]
    #[should_panic(expected = "injected crash and recovery times must be finite")]
    fn non_finite_crash_time_rejected() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("t", 8, 2))
            .fleet(FleetSpec::new(2, 1))
            .crash_at(f64::NAN, 0)
            .build();
    }

    #[test]
    #[should_panic(expected = "eval interval_s must be positive and finite")]
    fn non_finite_eval_interval_rejected() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("t", 8, 2))
            .eval(EvalPolicy::default().with_interval_s(f64::NAN))
            .build();
    }

    #[test]
    #[should_panic(expected = "utilization_sample_interval_s must be positive and finite")]
    fn zero_utilization_sample_interval_rejected() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("t", 8, 2))
            .utilization_sample_interval_s(0.0)
            .build();
    }

    #[test]
    #[should_panic(expected = "fleet control_plane_interval_s must be positive and finite")]
    fn zero_control_plane_interval_rejected() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("t", 8, 2))
            .fleet(FleetSpec::new(1, 1).with_control_plane_interval_s(0.0))
            .build();
    }

    #[test]
    #[should_panic(expected = "fleet selector_refresh_interval_s must be positive and finite")]
    fn zero_selector_refresh_interval_rejected() {
        let _ = Scenario::builder()
            .population(population(100))
            .task(TaskConfig::async_task("t", 8, 2))
            .fleet(FleetSpec::new(1, 1).with_selector_refresh_interval_s(0.0))
            .build();
    }

    /// A fleet-less single-task run, the shape behind the single-task
    /// figures.
    fn run_single(task: TaskConfig, hours: f64, population_size: usize, seed: u64) -> Report {
        Scenario::builder()
            .population(population(population_size))
            .task(task)
            .limits(RunLimits::default().with_max_virtual_time_hours(hours))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(seed)
            .build()
            .run()
    }

    #[test]
    fn concurrency_bound_is_respected() {
        let report = run_single(TaskConfig::async_task("t", 32, 8), 1.0, 500, 3);
        let m = &report.single().metrics;
        assert!(m.utilization_trace.len() > 1);
        assert!(m.utilization_trace.iter().all(|&(_, active)| active <= 32));
    }

    #[test]
    fn selection_stays_fast_when_population_is_saturated() {
        // Concurrency equal to the population size: every selection after
        // warm-up happens from a nearly-empty free pool.
        let report = run_single(TaskConfig::async_task("t", 120, 8), 1.0, 120, 3);
        let task = report.single();
        assert!(task.server_updates() > 0);
        assert!(task
            .metrics
            .utilization_trace
            .iter()
            .all(|&(_, active)| active <= 120));
    }

    #[test]
    fn sync_scenario_trains_and_counts_rounds() {
        let report = run_single(TaskConfig::sync_task("t", 65, 0.3), 6.0, 1000, 3);
        let m = &report.single().metrics;
        assert!(m.server_updates > 2);
        assert_eq!(m.round_durations_s.len() as u64, m.server_updates);
        assert!(m.mean_round_duration_s() > 0.0);
        // Over-selection aborts some still-running clients each round.
        assert!(m.aborted_by_round_end > 0);
    }

    #[test]
    fn sync_without_over_selection_has_no_aborted_clients_at_round_end() {
        let report = run_single(TaskConfig::sync_task("t", 40, 0.0), 4.0, 800, 3);
        let m = &report.single().metrics;
        assert!(m.server_updates > 0);
        // Without over-selection the round waits for every member (failures
        // are replaced), so nobody is aborted when the round closes.
        assert_eq!(m.aborted_by_round_end, 0);
        assert_eq!(m.discarded_updates, 0);
    }

    #[test]
    fn tight_staleness_bound_rejects_updates() {
        // With 256 concurrent clients and K = 4, staleness frequently
        // exceeds 1, so some updates must be rejected or clients aborted.
        let task = TaskConfig::async_task("t", 256, 4).with_max_staleness(1);
        let report = run_single(task, 1.0, 800, 2);
        let m = &report.single().metrics;
        assert!(m.rejected_stale_updates + m.failed_participations > 0);
    }

    #[test]
    fn max_client_updates_stops_run() {
        let report = Scenario::builder()
            .population(population(500))
            .task(TaskConfig::async_task("t", 32, 8))
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(50.0)
                    .with_max_client_updates(200),
            )
            .seed(1)
            .build()
            .run();
        assert_eq!(report.stop_reason, StopReason::MaxClientUpdates);
        assert_eq!(report.single().comm_trips(), 200);
    }

    #[test]
    fn target_loss_stops_early() {
        let population = population(800);
        let trainer = Arc::new(SurrogateObjective::new(
            &population,
            SurrogateConfig::default(),
            17,
        ));
        let all: Vec<usize> = (0..population.len()).collect();
        let initial_loss = trainer.evaluate(&trainer.initial_parameters(), &all);
        let report = Scenario::builder()
            .population(population)
            .task_with_trainer(TaskConfig::async_task("t", 64, 16), trainer)
            .limits(
                RunLimits::default()
                    .with_max_virtual_time_hours(20.0)
                    .with_target_loss(initial_loss * 0.3),
            )
            .eval(EvalPolicy::default().with_interval_s(300.0))
            .seed(5)
            .build()
            .run();
        assert_eq!(report.stop_reason, StopReason::TargetLossReached);
        assert!(report.single().hours_to_target.is_some());
        assert!(report.virtual_hours < 20.0);
    }

    fn four_tasks() -> Vec<TaskConfig> {
        vec![
            TaskConfig::async_task("kbd-lm", 64, 16),
            TaskConfig::async_task("kws", 32, 8).with_min_capability_tier(1),
            TaskConfig::sync_task("ranker", 40, 0.3),
            TaskConfig::async_task("asr", 24, 8).with_min_capability_tier(2),
        ]
    }

    fn four_task_fleet(population_size: usize, seed: u64) -> ScenarioBuilder {
        let mut builder = Scenario::builder()
            .population(population(population_size))
            .fleet(FleetSpec::new(2, 2))
            .limits(RunLimits::default().with_max_virtual_time_hours(1.0))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(seed);
        for task in four_tasks() {
            builder = builder.task(task);
        }
        builder
    }

    #[test]
    fn capability_tiers_restrict_participation() {
        let tiers: Vec<u8> = population(1500)
            .iter()
            .map(|d| TierPolicy::default().tier(&d))
            .collect();
        let report = four_task_fleet(1500, 13).build().run();
        // Task 3 requires tier 2; every participant must be a tier-2 device.
        let restricted = &report.tasks[3].metrics.participations;
        assert!(!restricted.is_empty());
        for record in restricted {
            assert!(
                tiers[record.client_id] >= 2,
                "tier-{} device {} participated in the tier-2 task",
                tiers[record.client_id],
                record.client_id
            );
        }
        // The unrestricted task sees lower-tier devices too.
        assert!(report.tasks[0]
            .metrics
            .participations
            .iter()
            .any(|r| tiers[r.client_id] < 2));
    }

    #[test]
    fn no_device_serves_two_tasks_at_once() {
        // The shared sampling pool guarantees exclusivity across tasks, and
        // `SamplingPool::release` panics on a double release, so a
        // successful run through a crash and failover is itself the
        // assertion; spot-check that utilization stays bounded.
        let report = four_task_fleet(1200, 3).crash_at(600.0, 0).build().run();
        assert_eq!(report.fleet.control_plane.aggregator_failures, 1);
        let max_concurrency: usize = four_tasks().iter().map(|t| t.concurrency).sum();
        for task in &report.tasks {
            assert!(task
                .metrics
                .utilization_trace
                .iter()
                .all(|&(_, active)| active <= max_concurrency));
        }
    }

    #[test]
    fn demand_pooling_keeps_unconfirmed_assignments_bounded() {
        // With a single small task, the Coordinator must not assign more
        // clients than the task's demand between Aggregator reports.
        let report = Scenario::builder()
            .population(population(400))
            .task(TaskConfig::async_task("t", 16, 4))
            .fleet(FleetSpec::new(1, 1))
            .limits(RunLimits::default().with_max_virtual_time_hours(0.5))
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(9)
            .build()
            .run();
        let task = &report.tasks[0];
        assert!(task.comm_trips() > 0);
        assert!(task
            .metrics
            .utilization_trace
            .iter()
            .all(|&(_, active)| active <= 16));
    }

    /// One task over `population`, trained by a surrogate objective seeded
    /// independently of the scenario seed.
    fn run_with_trainer(
        task: TaskConfig,
        population: Population,
        limits: RunLimits,
        seed: u64,
    ) -> Report {
        let trainer = Arc::new(SurrogateObjective::new(
            &population,
            SurrogateConfig::default(),
            17,
        ));
        Scenario::builder()
            .population(population)
            .task_with_trainer(task, trainer)
            .limits(limits)
            .eval(EvalPolicy::default().with_interval_s(600.0))
            .seed(seed)
            .build()
            .run()
    }

    fn run_hours(task: TaskConfig, hours: f64, population_size: usize) -> Report {
        run_with_trainer(
            task,
            population(population_size),
            RunLimits::default().with_max_virtual_time_hours(hours),
            3,
        )
    }

    #[test]
    fn async_scenario_trains_and_reduces_loss() {
        let report = run_hours(TaskConfig::async_task("t", 64, 16), 3.0, 1000);
        let task = report.single();
        assert!(task.server_updates() > 10, "{}", task.server_updates());
        assert_eq!(task.final_version, task.server_updates());
        let first_loss = task.metrics.loss_curve.first().unwrap().1;
        assert!(
            task.final_loss < 0.5 * first_loss,
            "loss {} -> {}",
            first_loss,
            task.final_loss
        );
    }

    #[test]
    fn async_has_more_server_updates_than_sync_in_same_time() {
        let async_report = run_hours(TaskConfig::async_task("a", 64, 16), 2.0, 800);
        let sync_report = run_hours(TaskConfig::sync_task("s", 64, 0.3), 2.0, 800);
        let (async_updates, sync_updates) = (
            async_report.single().server_updates(),
            sync_report.single().server_updates(),
        );
        assert!(
            async_updates > 2 * sync_updates,
            "async {async_updates} vs sync {sync_updates}"
        );
    }

    #[test]
    fn async_utilization_is_higher_than_sync() {
        let async_report = run_hours(TaskConfig::async_task("a", 50, 10), 2.0, 800);
        let sync_report = run_hours(TaskConfig::sync_task("s", 50, 0.0), 2.0, 800);
        let async_active = async_report.single().metrics.mean_active_clients();
        let sync_active = sync_report.single().metrics.mean_active_clients();
        assert!(
            async_active > sync_active,
            "{async_active} vs {sync_active}"
        );
        // AsyncFL stays close to the concurrency target.
        assert!(async_active > 40.0, "{async_active}");
    }

    #[test]
    fn single_task_run_is_deterministic_for_same_seed() {
        let a = run_hours(TaskConfig::async_task("t", 32, 8), 1.0, 400);
        let b = run_hours(TaskConfig::async_task("t", 32, 8), 1.0, 400);
        let (a, b) = (a.single(), b.single());
        assert_eq!(a.server_updates(), b.server_updates());
        assert_eq!(a.comm_trips(), b.comm_trips());
        assert_eq!(a.final_loss, b.final_loss);
    }

    #[test]
    fn dropouts_are_recorded_and_replaced() {
        let population = Population::generate(
            &PopulationConfig::default().with_size(600).with_dropout(0.3),
            9,
        );
        let report = run_with_trainer(
            TaskConfig::async_task("t", 32, 8),
            population,
            RunLimits::default().with_max_virtual_time_hours(1.0),
            9,
        );
        let m = &report.single().metrics;
        assert!(m.failed_participations > 0);
        // Failed clients are replaced, so training still progresses.
        assert!(m.server_updates > 0);
    }

    #[test]
    fn parallelism_limit_preserves_results() {
        // Parallelism set through `RunLimits` rather than the builder.
        let limits = RunLimits::default().with_max_virtual_time_hours(0.5);
        let run = |limits: RunLimits| {
            run_with_trainer(
                TaskConfig::async_task("t", 32, 8),
                population(400),
                limits,
                3,
            )
        };
        let sequential = run(limits);
        let parallel = run(limits.with_parallelism(Parallelism(2)));
        let (sequential, parallel) = (sequential.single(), parallel.single());
        assert_eq!(sequential.comm_trips(), parallel.comm_trips());
        assert_eq!(sequential.server_updates(), parallel.server_updates());
        assert_eq!(sequential.final_loss, parallel.final_loss);
        assert_eq!(sequential.final_params, parallel.final_params);
    }

    #[test]
    fn timed_hybrid_releases_without_closing_rounds() {
        // An unreachable goal means every release is deadline-driven, and a
        // timed-hybrid release is not a synchronous round.
        let report = run_hours(
            TaskConfig::timed_hybrid_task("h", 24, 10_000, 300.0),
            1.0,
            400,
        );
        let task = report.single();
        assert!(task.server_updates() > 0);
        assert!(task.metrics.round_durations_s.is_empty());
    }

    fn fleet_population(n: usize) -> Population {
        Population::generate(&PopulationConfig::default().with_size(n), 23)
    }

    fn four_task_fleet_run(
        population_size: usize,
        aggregators: usize,
        hours: f64,
        eval_interval_s: f64,
        seed: u64,
    ) -> ScenarioBuilder {
        let mut builder = Scenario::builder()
            .population(fleet_population(population_size))
            .fleet(FleetSpec::new(aggregators, 2))
            .limits(RunLimits::default().with_max_virtual_time_hours(hours))
            .eval(EvalPolicy::default().with_interval_s(eval_interval_s))
            .seed(seed);
        for task in four_tasks() {
            builder = builder.task(task);
        }
        builder
    }

    #[test]
    fn all_tasks_train_concurrently_over_shared_population() {
        let report = four_task_fleet_run(2000, 3, 2.0, 600.0, 7).build().run();
        assert_eq!(report.tasks.len(), 4);
        for task in &report.tasks {
            assert!(
                task.comm_trips() > 0,
                "task {} received no updates",
                task.name
            );
            assert!(
                task.final_loss < task.initial_loss,
                "task {} did not improve: {} -> {}",
                task.name,
                task.initial_loss,
                task.final_loss
            );
        }
        assert_eq!(
            report.fleet.total_comm_trips,
            report.tasks.iter().map(|t| t.comm_trips()).sum::<u64>()
        );
        assert_eq!(report.fleet.control_plane.aggregator_failures, 0);
        assert_eq!(report.fleet.control_plane.task_reassignments, 0);
    }

    #[test]
    fn crash_drops_buffers_reassigns_and_training_resumes() {
        let report = four_task_fleet_run(2000, 2, 2.0, 300.0, 21)
            .crash_at(1800.0, 0)
            .build()
            .run();
        let cp = &report.fleet.control_plane;
        assert_eq!(cp.aggregator_failures, 1);
        assert!(cp.task_reassignments > 0, "no task was reassigned");
        // The reassignment bumps the map sequence past the initial submits.
        assert!(cp.final_map_sequence > 4);
        // Tasks on the dead Aggregator lost in-transit uploads.
        assert!(cp.lost_in_transit_updates > 0);
        // Every task still converges.
        for task in &report.tasks {
            assert!(
                task.final_loss < task.initial_loss,
                "task {} did not improve after failover",
                task.name
            );
        }
        // At least one task was moved and lost buffered progress.
        assert!(report.tasks.iter().any(|t| t.reassignments > 0));
    }

    #[test]
    fn fleet_runs_are_deterministic_for_the_same_seed() {
        let run = || {
            four_task_fleet_run(1000, 2, 1.0, 600.0, 5)
                .crash_at(900.0, 1)
                .build()
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.fleet.total_comm_trips, b.fleet.total_comm_trips);
        assert_eq!(a.fleet.total_server_updates, b.fleet.total_server_updates);
        assert_eq!(a.fleet.control_plane, b.fleet.control_plane);
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.final_loss, y.final_loss);
            assert_eq!(x.comm_trips(), y.comm_trips());
        }
    }
}

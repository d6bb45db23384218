//! The benchmark workloads.  Each is closed-loop: the simulator keeps
//! every task at a fixed concurrency and a finished or failed client frees
//! its slot.  The program receives only the generated population, the
//! trainer and the scenario config; the seed is the benchmark's argument.

use papaya_core::client::ClientTrainer;
use papaya_core::config::SecAggMode;
use papaya_core::robust::{RobustConfig, RobustDefense};
use papaya_core::surrogate::{ProceduralSurrogate, SurrogateConfig, SurrogateObjective};
use papaya_core::{DpConfig, TaskConfig};
use papaya_data::population::{Population, PopulationConfig};
use papaya_sim::scenario::{EvalPolicy, FleetSpec, RunLimits, Scenario};
use papaya_sim::Parallelism;
use std::sync::Arc;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One FedBuff task (1024/128) over 20k devices stacked as
    /// robust(dp(secure(fedbuff))): the decorator layers.
    Private20k,
    /// Four mixed-strategy tasks over 200k devices with an aggregator crash,
    /// its recovery and a control-plane restore: event dispatch, routing and
    /// the control plane, with a deliberately light trainer.
    FleetChurn,
}

/// Every workload, in the order the documentation lists them.
pub const ALL: [Workload; 2] = [Workload::Private20k, Workload::FleetChurn];

const PRIVATE_POPULATION: usize = 20_000;
const PRIVATE_CONCURRENCY: usize = 1024;
/// `fleet-churn`'s control plane: 3 aggregators and 4 selectors.
const FLEET: FleetSpec = FleetSpec {
    aggregators: 3,
    selectors: 4,
    control_plane_interval_s: 10.0,
    selector_refresh_interval_s: 45.0,
    heartbeat_timeout_s: 25.0,
};

/// The surrogate objective of `perf_suite`: heavy enough that client
/// training dominates the event loop.
fn perf_surrogate_config() -> SurrogateConfig {
    SurrogateConfig {
        dim: 128,
        heterogeneity: 0.5,
        volume_bias: 2.0,
        local_learning_rate: 0.05,
        batch_size: 16,
        max_local_steps: 32,
        gradient_noise: 1.0,
        init_distance: 8.0,
    }
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Private20k => "private-20k",
            Workload::FleetChurn => "fleet-churn",
        }
    }

    /// Devices in the population.
    pub fn population_size(self) -> usize {
        match self {
            Workload::Private20k => PRIVATE_POPULATION,
            Workload::FleetChurn => 200_000,
        }
    }

    /// Generates the device population.
    pub fn population(self, seed: u64) -> Population {
        Population::generate(
            &PopulationConfig::default().with_size(self.population_size()),
            seed,
        )
    }

    /// Builds the client trainer every task of the workload shares.
    pub fn trainer(self, population: &Population, seed: u64) -> Arc<dyn ClientTrainer> {
        match self {
            Workload::Private20k => Arc::new(SurrogateObjective::new(
                population,
                perf_surrogate_config(),
                seed,
            )),
            // ~1.7 µs per call, so the layers around training carry the run.
            Workload::FleetChurn => Arc::new(ProceduralSurrogate::new(
                population,
                SurrogateConfig {
                    dim: 8,
                    max_local_steps: 1,
                    ..perf_surrogate_config()
                },
                seed,
            )),
        }
    }

    /// The workload's tasks, in task-id order.
    pub fn tasks(self) -> Vec<TaskConfig> {
        match self {
            Workload::Private20k => {
                vec![
                    TaskConfig::async_task("private-20k", PRIVATE_CONCURRENCY, 128)
                        .with_secagg(SecAggMode::AsyncSecAgg)
                        .with_dp(DpConfig::new(2.0, 1.0).with_sampling_rate(
                            PRIVATE_CONCURRENCY as f64 / PRIVATE_POPULATION as f64,
                        ))
                        .with_robust(RobustConfig::new(RobustDefense::TrimmedMean {
                            trim_fraction: 0.1,
                        })),
                ]
            }
            Workload::FleetChurn => vec![
                TaskConfig::async_task("assistant-lm", 1024, 256),
                TaskConfig::async_task("photo-tagger", 512, 128).with_min_capability_tier(1),
                TaskConfig::timed_hybrid_task("telemetry", 256, 64, 600.0),
                TaskConfig::sync_task("ranker", 384, 0.2),
            ],
        }
    }

    /// Sum of the tasks' concurrency: the devices in flight at steady state.
    pub fn total_concurrency(self) -> usize {
        self.tasks().iter().map(|t| t.concurrency).sum()
    }

    /// The fleet shape, for workloads that run the control plane.
    pub fn fleet(self) -> Option<FleetSpec> {
        match self {
            Workload::FleetChurn => Some(FLEET),
            Workload::Private20k => None,
        }
    }

    /// Composes the scenario; `trainers` holds one trainer per task.
    pub fn scenario(
        self,
        population: Population,
        trainers: Vec<Arc<dyn ClientTrainer>>,
        parallelism: Parallelism,
        seed: u64,
    ) -> Scenario {
        let mut builder = Scenario::builder().population(population).seed(seed);
        for (task, trainer) in self.tasks().into_iter().zip(trainers) {
            builder = builder.task_with_trainer(task, trainer);
        }
        let limits = RunLimits::default().with_parallelism(parallelism);
        let builder = match self {
            Workload::Private20k => builder
                .limits(
                    limits
                        .with_max_virtual_time_hours(100.0)
                        .with_max_client_updates(10_000),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(1800.0)
                        .with_sample_size(100),
                ),
            Workload::FleetChurn => builder
                .fleet(FLEET)
                .crash_at(1800.0, 0)
                .recover_at(2700.0, 0)
                .restore_control_plane_at(3600.0)
                .limits(
                    limits
                        .with_max_virtual_time_hours(1.5)
                        .with_trace_budget(4096),
                )
                .eval(
                    EvalPolicy::default()
                        .with_interval_s(900.0)
                        .with_sample_size(100),
                ),
        };
        builder.build()
    }
}

//! Standalone drives of public layer APIs, fed with the shape of the traced
//! run: the aggregator stack (rebuilt with its public constructors, with
//! the timing decorator between the layers), the control-plane service and
//! the sampling pool.

use crate::spans::span;
use crate::traced::{Layer, Recorded, Timed};
use papaya_core::aggregator::{for_task, Aggregator};
use papaya_core::client::ClientUpdate;
use papaya_core::config::SecAggMode;
use papaya_core::model::ServerModel;
use papaya_core::secure::{recommended_threshold, SecureAggregator};
use papaya_core::server_opt::FedAvg;
use papaya_core::{DpAggregator, RobustAggregator, TaskConfig};
use papaya_data::population::Population;
use papaya_nn::params::ParamVec;
use papaya_sim::cluster::TaskSpec;
use papaya_sim::sampling::SamplingPool;
use papaya_sim::scenario::{FleetSpec, TierPolicy};
use papaya_sim::ControlPlaneService;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::Instant;

/// Builds a task's aggregator stack the way the task runtime does —
/// robust(dp(secure(strategy))), each layer only when the task asks for it
/// — optionally with the timing decorator around every layer.
pub fn build_stack(
    task: &TaskConfig,
    dim: usize,
    seed: u64,
    timed: bool,
    id: u32,
) -> Box<dyn Aggregator> {
    let wrap = |agg: Box<dyn Aggregator>, layer: Layer| {
        if timed {
            Timed::wrap(agg, layer, id)
        } else {
            agg
        }
    };
    let secure_seed = seed ^ 0x5ECA_665E_CA66;
    let threshold = recommended_threshold(task);
    let mut stack = wrap(for_task(task), Layer::Strategy);
    match task.secagg {
        SecAggMode::Disabled => {}
        SecAggMode::AsyncSecAgg => {
            stack = wrap(
                Box::new(SecureAggregator::new(stack, dim, threshold, secure_seed)),
                Layer::Secure,
            )
        }
        SecAggMode::AsyncSecAggPerUpdate => {
            stack = wrap(
                Box::new(SecureAggregator::new_per_update(
                    stack,
                    dim,
                    threshold,
                    secure_seed,
                )),
                Layer::Secure,
            )
        }
    }
    if let Some(dp) = task.dp {
        stack = wrap(
            Box::new(DpAggregator::new(stack, dp, seed ^ 0xD1FF_D1FF)),
            Layer::Dp,
        );
    }
    if let Some(robust) = task.robust {
        stack = wrap(
            Box::new(RobustAggregator::new(stack, robust)),
            Layer::Robust,
        );
    }
    stack
}

/// Feeds a task's recorded updates through its stack, following the
/// simulator's aggregation call protocol: `plan_mask_precompute` once before each
/// `accumulate`, a `take` (then a server step, span `server_opt.step`)
/// whenever the stack is ready, and a readiness poll before each arrival
/// for deadline strategies.  Virtual time advances evenly over
/// `virtual_s`.  Returns the bit patterns of every release.
pub fn replay_task(
    task: &TaskConfig,
    initial: ParamVec,
    updates: &[Recorded],
    virtual_s: f64,
    seed: u64,
    timed: bool,
    id: u32,
) -> Vec<Vec<u32>> {
    let mut stack = build_stack(task, initial.len(), seed, timed, id);
    let mut model = ServerModel::new(initial);
    let mut optimizer = FedAvg;
    let mut releases = Vec::new();
    let step = virtual_s / updates.len().max(1) as f64;
    let mut release = |stack: &mut Box<dyn Aggregator>, model: &mut ServerModel, now: f64| {
        if let Some(delta) = stack.take(now) {
            releases.push(delta.as_slice().iter().map(|x| x.to_bits()).collect());
            if timed {
                span("server_opt.step", id, 0, || {
                    model.apply_update(&mut optimizer, &delta)
                });
            } else {
                model.apply_update(&mut optimizer, &delta);
            }
        }
    };
    for (i, rec) in updates.iter().enumerate() {
        let now = i as f64 * step;
        if stack.is_ready(now) {
            release(&mut stack, &mut model, now);
        }
        stack.plan_mask_precompute(rec.client_id);
        let update =
            ClientUpdate::from_result(rec.client_id, rec.start_version, rec.result.clone());
        stack.accumulate(update, model.version(), now);
        if stack.is_ready(now) {
            release(&mut stack, &mut model, now);
        }
    }
    releases
}

/// Mean cost of the control-plane calls, µs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ControlPlaneCosts {
    /// `assign_client` (one device check-in, automatic checkpoints included).
    pub assign_us: f64,
    /// `checkpoint_now`.
    pub checkpoint_us: f64,
    /// `restore_from_checkpoint`.
    pub restore_us: f64,
}

/// Samples of explicit checkpoint/restore taken during the drive.
const CONTROL_PLANE_SAMPLES: u64 = 64;

/// Drives a `ControlPlaneService` with the traced run's fleet shape and
/// counts: one tick per control interval (heartbeats, a failure sweep,
/// demand reports) followed by the tick's share of device check-ins,
/// until the log holds `log_events` events.  Check-ins are timed in
/// batches; restore and checkpoint are timed at evenly spaced ticks.
pub fn drive_control_plane(
    fleet: &FleetSpec,
    tasks: &[TaskConfig],
    population: &Population,
    log_events: u64,
    heartbeats: u64,
    seed: u64,
) -> ControlPlaneCosts {
    let mut service = ControlPlaneService::new(fleet.heartbeat_timeout_s, seed);
    for id in 0..fleet.aggregators {
        service.register_aggregator(id, 0.0);
    }
    for (id, task) in tasks.iter().enumerate() {
        service.submit_task(TaskSpec::from_task_config(id, task));
    }
    let policy = TierPolicy::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let ticks = (heartbeats / fleet.aggregators as u64).max(1);
    let per_tick_overhead = fleet.aggregators as u64 + 1 + tasks.len() as u64;
    let checkins = (log_events.saturating_sub(ticks * per_tick_overhead) / ticks).max(1);
    let concurrency: usize = tasks.iter().map(|t| t.concurrency).sum();
    let sample_every = (ticks / CONTROL_PLANE_SAMPLES).max(1);
    let (mut assign_ns, mut assigns) = (0u128, 0u64);
    let (mut checkpoint_ns, mut restore_ns, mut samples) = (0u128, 0u128, 0u64);
    for tick in 0..ticks {
        let now = tick as f64 * fleet.control_plane_interval_s;
        for id in 0..fleet.aggregators {
            service.heartbeat(id, now);
        }
        service.detect_failures(now);
        for (id, task) in tasks.iter().enumerate() {
            let share = (checkins as usize * task.concurrency).div_ceil(concurrency);
            service.report_demand(id, share);
        }
        let tiers: Vec<u8> = (0..checkins)
            .map(|_| policy.tier(&population.device(rng.gen_range(0..population.len()))))
            .collect();
        let start = Instant::now();
        for &tier in &tiers {
            std::hint::black_box(service.assign_client(tier));
        }
        assign_ns += start.elapsed().as_nanos();
        assigns += checkins;
        if tick % sample_every == 0 {
            // Restore first, so it replays the log suffix appended since
            // the latest automatic checkpoint, as a real restore does.
            let start = Instant::now();
            service.restore_from_checkpoint();
            restore_ns += start.elapsed().as_nanos();
            let start = Instant::now();
            service.checkpoint_now();
            checkpoint_ns += start.elapsed().as_nanos();
            samples += 1;
        }
    }
    ControlPlaneCosts {
        assign_us: assign_ns as f64 / 1e3 / assigns as f64,
        checkpoint_us: checkpoint_ns as f64 / 1e3 / samples as f64,
        restore_us: restore_ns as f64 / 1e3 / samples as f64,
    }
}

/// Mean cost of one sampling-pool call, ns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SamplingCosts {
    /// `acquire_random`.
    pub acquire_ns: f64,
    /// `release`.
    pub release_ns: f64,
}

/// Drives a `SamplingPool` over `population` devices holding `concurrency`
/// of them, then cycles `ops` acquire/release pairs in timed batches
/// (releasing the longest-held device, as participations finish roughly in
/// start order).
pub fn drive_sampling(
    population: usize,
    concurrency: usize,
    ops: usize,
    seed: u64,
) -> SamplingCosts {
    const BATCH: usize = 1024;
    let mut pool = SamplingPool::new(population);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut held: VecDeque<usize> = (0..concurrency)
        .map(|_| {
            pool.acquire_random(&mut rng)
                .expect("pool larger than concurrency")
        })
        .collect();
    let (mut acquire_ns, mut release_ns) = (0u128, 0u128);
    let batches = ops.div_ceil(BATCH);
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..BATCH {
            held.push_back(
                pool.acquire_random(&mut rng)
                    .expect("pool larger than concurrency"),
            );
        }
        acquire_ns += start.elapsed().as_nanos();
        let start = Instant::now();
        for _ in 0..BATCH {
            pool.release(held.pop_front().expect("held devices"));
        }
        release_ns += start.elapsed().as_nanos();
    }
    let calls = (batches * BATCH) as f64;
    SamplingCosts {
        acquire_ns: acquire_ns as f64 / calls,
        release_ns: release_ns as f64 / calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use papaya_core::client::LocalTrainResult;

    /// Synthetic updates for a small stack: deterministic deltas, a few
    /// distinct clients, versions lagging by up to three releases.
    fn updates(dim: usize, n: usize) -> Vec<Recorded> {
        let mut rng = StdRng::seed_from_u64(9);
        (0..n)
            .map(|i| Recorded {
                client_id: i % 37,
                start_version: (i / 16).saturating_sub(i % 4) as u64,
                result: LocalTrainResult {
                    delta: ParamVec::from_vec((0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()),
                    num_examples: 1 + i % 13,
                    train_loss: 0.5,
                },
            })
            .collect()
    }

    fn replay_both(task: &TaskConfig, dim: usize, n: usize) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let _guard = crate::spans::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let recs = updates(dim, n);
        let plain = replay_task(task, ParamVec::zeros(dim), &recs, 3600.0, 5, false, 0);
        let timed = replay_task(task, ParamVec::zeros(dim), &recs, 3600.0, 5, true, 0);
        let spans = crate::spans::drain();
        assert!(spans.iter().any(|s| s.name == "strategy.accumulate"));
        (plain, timed)
    }

    #[test]
    fn timing_decorator_leaves_the_full_stack_bit_identical() {
        let task = Workload::Private20k.tasks().remove(0);
        let (plain, timed) = replay_both(&task, 16, 600);
        assert!(!plain.is_empty());
        assert_eq!(plain, timed);
    }

    #[test]
    fn timing_decorator_leaves_every_fleet_strategy_bit_identical() {
        for task in Workload::FleetChurn.tasks() {
            let (plain, timed) = replay_both(&task, 8, 2000);
            assert!(!plain.is_empty(), "{} released nothing", task.name);
            assert_eq!(plain, timed, "{}", task.name);
        }
    }

    #[test]
    fn timed_stack_records_every_layer_nested() {
        let _guard = crate::spans::TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let _ = crate::spans::drain();
        let task = Workload::Private20k.tasks().remove(0);
        replay_task(
            &task,
            ParamVec::zeros(8),
            &updates(8, 300),
            60.0,
            1,
            true,
            0,
        );
        let spans = crate::spans::drain();
        let t = crate::spans::self_times(&spans);
        for layer in Layer::ALL {
            let (acc, take) = layer.span_names();
            assert_eq!(t[acc].count, 300, "{acc}");
            assert!(t[take].count > 0, "{take}");
        }
        // Each decorator's accumulate span encloses exactly one inner one.
        let robust = spans
            .iter()
            .position(|s| s.name == "robust.accumulate")
            .unwrap();
        let dp = spans
            .iter()
            .position(|s| s.name == "dp.accumulate")
            .unwrap();
        assert_eq!(spans[dp].parent, Some(robust));
    }

    #[test]
    fn drives_report_positive_costs() {
        let w = Workload::FleetChurn;
        let population = Population::generate(
            &papaya_data::population::PopulationConfig::default().with_size(5000),
            3,
        );
        let costs =
            drive_control_plane(&w.fleet().unwrap(), &w.tasks(), &population, 20_000, 60, 3);
        assert!(costs.assign_us > 0.0 && costs.checkpoint_us > 0.0 && costs.restore_us > 0.0);
        let sampling = drive_sampling(5000, 500, 4096, 3);
        assert!(sampling.acquire_ns > 0.0 && sampling.release_ns > 0.0);
    }
}

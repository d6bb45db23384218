//! The benchmark's measuring program; `run.py` drives it.
//!
//! ```text
//! perfbench trial --workload <name> --seed <n> --workers <n>
//! perfbench trace --workload <name> --seed <n> --workers <n> [--trace-out <path>]
//! ```
//!
//! `trial` builds the workload, runs it sequentially and then with
//! `--workers` training threads, checks the outputs and prints one JSON line
//! of raw end-to-end measurements.  `trace` does the same with every
//! trainer wrapped in a span recorder, then replays the recorded updates
//! through the aggregator stack and drives the control plane and the
//! sampling pool, and prints one JSON line of per-layer metrics.  A failed
//! output check is listed under `failures`; the exit code stays 0 so the
//! caller can count it.

mod replay;
mod spans;
mod traced;
mod workloads;

use papaya_core::client::ClientTrainer;
use papaya_core::config::SecAggMode;
use papaya_core::secure::SecureTimings;
use papaya_core::TaskConfig;
use papaya_data::population::Population;
use papaya_sim::scenario::{Report, Scenario};
use papaya_sim::Parallelism;
use spans::{nearest_rank, self_times, span, Span};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use traced::{Layer, TracedTrainer};
use workloads::Workload;

/// Spans kept in the Chrome trace file (all of them enter the metrics).
const CHROME_TRACE_LIMIT: usize = 50_000;
/// Acquire/release pairs of the sampling drive.
const SAMPLING_OPS: usize = 1 << 18;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    workers: usize,
    trace_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv
        .get(1)
        .cloned()
        .ok_or("missing command (trial|trace)")?;
    if command != "trial" && command != "trace" {
        return Err(format!("unknown command {command:?}"));
    }
    let (mut workload, mut seed, mut workers, mut trace_out) = (None, None, None, None);
    let mut rest = argv[2..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--workers" => workers = Some(value.parse().map_err(|e| format!("--workers: {e}"))?),
            "--trace-out" => trace_out = Some(value.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workers: usize = workers.ok_or("--workers is required")?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    Ok(Args {
        command,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        workers,
        trace_out,
    })
}

/// Runs `f` and returns its result with its wall seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Generates the population and builds the shared trainer, timing each.
fn generate(w: Workload, seed: u64) -> (Population, Arc<dyn ClientTrainer>, f64, f64) {
    let (population, population_s) = timed(|| w.population(seed));
    let (trainer, trainer_s) = timed(|| w.trainer(&population, seed));
    (population, trainer, population_s, trainer_s)
}

/// The output checks every trial runs; returns one message per failure.
fn check_reports(tasks: &[TaskConfig], seq: &Report, mt: &Report) -> Vec<String> {
    let mut failures = Vec::new();
    if seq.fingerprint() != mt.fingerprint() {
        failures.push("threaded fingerprint differs from sequential".to_string());
    }
    for (label, report) in [("sequential", seq), ("threaded", mt)] {
        for (task, config) in report.tasks.iter().zip(tasks) {
            let m = &task.metrics;
            let accounted = m.aggregated_updates
                + m.discarded_updates
                + m.rejected_stale_updates
                + m.rejected_by_defense_updates;
            if m.comm_trips != accounted {
                failures.push(format!(
                    "{label} {}: comm trips {} != aggregated+discarded+stale+defense {accounted}",
                    task.name, m.comm_trips
                ));
            }
            if config.secagg != SecAggMode::Disabled
                && task.summary.tsa_key_releases != m.server_updates
            {
                failures.push(format!(
                    "{label} {}: tsa key releases {} != server updates {}",
                    task.name, task.summary.tsa_key_releases, m.server_updates
                ));
            }
            if config.dp.is_some() && task.summary.dp_releases != m.server_updates {
                failures.push(format!(
                    "{label} {}: dp releases {} != server updates {}",
                    task.name, task.summary.dp_releases, m.server_updates
                ));
            }
            let curve_finite = m.loss_curve.as_slice().iter().all(|(_, l)| l.is_finite());
            if !(task.initial_loss.is_finite() && task.final_loss.is_finite() && curve_finite) {
                failures.push(format!("{label} {}: non-finite loss", task.name));
            }
        }
    }
    failures
}

/// Mean over tasks of final eval loss ÷ initial eval loss.
fn loss_remaining(report: &Report) -> f64 {
    let sum: f64 = report
        .tasks
        .iter()
        .map(|t| t.final_loss / t.initial_loss)
        .sum();
    sum / report.tasks.len() as f64
}

/// A flat JSON object writer (numbers written with every digit).
#[derive(Default)]
struct JsonLine(String);

impl JsonLine {
    fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{key}\":{value}");
        self
    }

    fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let text = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.raw(key, &text)
    }

    fn text(&mut self, key: &str, value: &str) -> &mut Self {
        let value = format!("\"{}\"", escape(value));
        self.raw(key, &value)
    }

    fn list(&mut self, key: &str, items: &[String]) -> &mut Self {
        let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
        let value = format!("[{}]", quoted.join(","));
        self.raw(key, &value)
    }

    fn finish(&mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        format!("{}}}", self.0)
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// One trial's set-up, its two runs and their output checks.
struct Trial {
    trainer: Arc<dyn ClientTrainer>,
    population_s: f64,
    trainer_s: f64,
    build_s: f64,
    seq: Report,
    seq_s: f64,
    mt: Report,
    mt_s: f64,
    failures: Vec<String>,
}

/// Builds the workload, runs it sequentially, builds it again and runs it
/// with `args.workers` training threads, then checks the outputs.  The
/// sequential scenario is dropped before the threaded run's population is
/// generated, so the process never holds two populations.
/// `trainers(shared, sequential)` gives each run its per-task trainers;
/// `run` runs a scenario and returns its report with its wall seconds.
fn run_trial(
    args: &Args,
    mut trainers: impl FnMut(&Arc<dyn ClientTrainer>, bool) -> Vec<Arc<dyn ClientTrainer>>,
    mut run: impl FnMut(&Scenario) -> (Report, f64),
) -> Trial {
    let w = args.workload;
    let (population, trainer, population_s, trainer_s) = generate(w, args.seed);
    let seq_trainers = trainers(&trainer, true);
    let (scenario, build_s) = timed(|| {
        w.scenario(
            population,
            seq_trainers,
            Parallelism::sequential(),
            args.seed,
        )
    });
    let (seq, seq_s) = run(&scenario);
    drop(scenario);
    let scenario = w.scenario(
        w.population(args.seed),
        trainers(&trainer, false),
        Parallelism(args.workers),
        args.seed,
    );
    let (mt, mt_s) = run(&scenario);
    drop(scenario);
    let failures = check_reports(&w.tasks(), &seq, &mt);
    Trial {
        trainer,
        population_s,
        trainer_s,
        build_s,
        seq,
        seq_s,
        mt,
        mt_s,
        failures,
    }
}

/// The untraced trial: set-up, sequential run, threaded run, checks.
fn trial(args: &Args) -> String {
    let tasks = args.workload.tasks().len();
    let t = run_trial(
        args,
        |shared, _| vec![Arc::clone(shared); tasks],
        |scenario| timed(|| scenario.run()),
    );
    JsonLine::default()
        .text("workload", args.workload.name())
        .num("seed", args.seed as f64)
        .num("workers", args.workers as f64)
        .num("setup_s", t.population_s + t.trainer_s + t.build_s)
        .num("seq_s", t.seq_s)
        .num("mt_s", t.mt_s)
        .num("updates", t.seq.fleet.total_comm_trips as f64)
        .num("loss_remaining", loss_remaining(&t.seq))
        .list("failures", &t.failures)
        .finish()
}

/// Wraps the shared trainer once per task.
fn traced_trainers(
    trainer: &Arc<dyn ClientTrainer>,
    tasks: usize,
    record: bool,
) -> Vec<Arc<TracedTrainer>> {
    (0..tasks)
        .map(|task| Arc::new(TracedTrainer::new(Arc::clone(trainer), task as u32, record)))
        .collect()
}

fn as_trainers(traced: &[Arc<TracedTrainer>]) -> Vec<Arc<dyn ClientTrainer>> {
    traced
        .iter()
        .map(|t| Arc::clone(t) as Arc<dyn ClientTrainer>)
        .collect()
}

/// Per-call durations (ns) of the spans named `name` on threads `on_thread`
/// accepts.
fn durations_ns(spans: &[Span], name: &str, on_thread: impl Fn(u32) -> bool) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name && on_thread(s.thread))
        .map(Span::dur_ns)
        .collect()
}

/// The traced trial; returns the per-layer metrics line.
fn trace(args: &Args) -> String {
    let w = args.workload;
    let tasks = w.tasks();
    spans::register_main_thread();
    let _ = spans::drain();

    // The sequential run records each task's updates for the replay; each
    // run's spans are drained as it ends.
    let mut recorders = Vec::new();
    let mut run_spans = Vec::new();
    let Trial {
        trainer,
        population_s,
        trainer_s,
        build_s,
        seq,
        seq_s: seq_wall,
        mt,
        mt_s: mt_wall,
        mut failures,
    } = run_trial(
        args,
        |shared, sequential| {
            let traced = traced_trainers(shared, tasks.len(), sequential);
            if sequential {
                recorders = traced.clone();
            }
            as_trainers(&traced)
        },
        |scenario| {
            let timed_run = timed(|| span("scenario.run", 0, 0, || scenario.run()));
            run_spans.push(spans::drain());
            timed_run
        },
    );
    let recorded: Vec<_> = recorders.iter().map(|r| r.take_recorded()).collect();
    let (seq_spans, mt_spans) = (&run_spans[0], &run_spans[1]);

    let mut out = JsonLine::default();
    out.text("workload", w.name())
        .num("seed", args.seed as f64)
        .num("workers", args.workers as f64)
        .num("traced_wall_s", seq_wall + mt_wall);
    let mut metric = |name: &str, value: f64| {
        out.num(name, value);
    };

    metric("setup.population_s", population_s);
    metric("setup.trainer_s", trainer_s);
    metric("setup.build_s", build_s);

    // Sequential run: client training, evaluation, the event loop.
    let seq_t = self_times(seq_spans);
    let get = |t: &std::collections::BTreeMap<&str, spans::LayerTime>, name| {
        t.get(name).copied().unwrap_or_default()
    };
    let train = get(&seq_t, "client.train");
    let eval = get(&seq_t, "eval");
    let run = get(&seq_t, "scenario.run");
    let record = get(&seq_t, "bench.record");
    let mut train_ns = durations_ns(seq_spans, "client.train", |_| true);
    metric("client.train_calls", train.count as f64);
    metric("client.train_s", train.total_ns as f64 / 1e9);
    metric(
        "client.train_us_p50",
        nearest_rank(&mut train_ns, 0.50) as f64 / 1e3,
    );
    metric(
        "client.train_us_p99",
        nearest_rank(&mut train_ns, 0.99) as f64 / 1e3,
    );
    metric("eval.calls", eval.count as f64);
    metric("eval.s", eval.total_ns as f64 / 1e9);
    let events = seq.events_processed;
    metric("scenario.events", events as f64);
    metric("scenario.loop_other_s", run.self_ns as f64 / 1e9);
    metric(
        "scenario.ns_per_event",
        run.self_ns as f64 / events.max(1) as f64,
    );
    metric("quality.loss_remaining", loss_remaining(&seq));

    // Threaded run: who trained, and what the loop waited for.
    let mt_t = self_times(mt_spans);
    let loop_thread = mt_spans
        .iter()
        .find(|s| s.name == "scenario.run")
        .map(|s| s.thread)
        .expect("the threaded run span");
    let loop_ns = durations_ns(mt_spans, "client.train", |t| t == loop_thread);
    let mut worker_ns = durations_ns(mt_spans, "client.train", |t| t != loop_thread);
    let mt_calls = (loop_ns.len() + worker_ns.len()) as f64;
    let comm_trips = mt.fleet.total_comm_trips as f64;
    metric("client.useful_ratio", comm_trips / mt_calls.max(1.0));
    metric(
        "executor.loop_train_share",
        loop_ns.len() as f64 / mt_calls.max(1.0),
    );
    metric(
        "executor.loop_train_s",
        loop_ns.iter().sum::<u64>() as f64 / 1e9,
    );
    metric(
        "executor.worker_train_s",
        worker_ns.iter().sum::<u64>() as f64 / 1e9,
    );
    metric(
        "executor.worker_us_p50",
        nearest_rank(&mut worker_ns, 0.50) as f64 / 1e3,
    );
    metric("executor.wasted_calls", mt_calls - comm_trips);
    let mt_loop_other = get(&mt_t, "scenario.run").self_ns as f64;
    metric(
        "executor.loop_wait_s",
        (mt_loop_other - run.self_ns as f64) / 1e9,
    );

    // Secure pipeline, from the report's own timings.
    let mut secure = SecureTimings::default();
    for task in &seq.tasks {
        secure.merge(&task.metrics.secure_timings);
    }
    metric("secure.handshake_s", secure.handshake_s);
    metric("secure.mask_s", secure.mask_s);
    metric("secure.encode_s", secure.encode_s);
    metric("secure.unmask_s", secure.unmask_s);
    let key_releases: u64 = seq.tasks.iter().map(|t| t.summary.tsa_key_releases).sum();
    metric("secure.key_releases", key_releases as f64);

    // How much of the program's time (the run minus the benchmark's own
    // recording) the named layers' self times cover.
    let named_ns = train.self_ns as f64 + eval.self_ns as f64 + secure.total_s() * 1e9;
    let program_ns = (run.total_ns - record.total_ns) as f64;
    metric("trace.coverage", named_ns / program_ns.max(1.0));

    // Aggregator-stack replay with the timing decorator between layers,
    // checked bit-identical against the undecorated stack.
    let virtual_s = seq.virtual_hours * 3600.0;
    let initial = trainer.initial_parameters();
    for (id, (task, updates)) in tasks.iter().zip(&recorded).enumerate() {
        let timed = replay::replay_task(
            task,
            initial.clone(),
            updates,
            virtual_s,
            args.seed,
            true,
            id as u32,
        );
        let plain = replay::replay_task(
            task,
            initial.clone(),
            updates,
            virtual_s,
            args.seed,
            false,
            id as u32,
        );
        if timed != plain {
            failures.push(format!(
                "timing decorator changed the releases of {}",
                task.name
            ));
        }
    }
    let replay_t = self_times(&spans::drain());
    for layer in Layer::ALL {
        let (accumulate, take) = layer.span_names();
        metric(
            &format!("{accumulate}_us"),
            get(&replay_t, accumulate).self_us_per_call(),
        );
        metric(
            &format!("{take}_us"),
            get(&replay_t, take).self_us_per_call(),
        );
    }
    metric(
        "server_opt.step_us",
        get(&replay_t, "server_opt.step").self_us_per_call(),
    );

    // Control plane: the report's counts and a drive of the service.
    let cp = &seq.fleet.control_plane;
    metric("control_plane.log_events", cp.control_log_events as f64);
    metric("control_plane.checkpoints", cp.checkpoints_taken as f64);
    metric("control_plane.heartbeats", cp.heartbeats as f64);
    metric("control_plane.reassignments", cp.task_reassignments as f64);
    let costs = match w.fleet() {
        Some(fleet) => replay::drive_control_plane(
            &fleet,
            &tasks,
            &w.population(args.seed),
            cp.control_log_events,
            cp.heartbeats,
            args.seed,
        ),
        None => replay::ControlPlaneCosts::default(),
    };
    metric("control_plane.assign_us", costs.assign_us);
    metric("control_plane.checkpoint_us", costs.checkpoint_us);
    metric("control_plane.restore_us", costs.restore_us);

    let sampling = replay::drive_sampling(
        w.population_size(),
        w.total_concurrency(),
        SAMPLING_OPS,
        args.seed,
    );
    metric("sampling.acquire_ns", sampling.acquire_ns);
    metric("sampling.release_ns", sampling.release_ns);

    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, spans::chrome_trace(mt_spans, CHROME_TRACE_LIMIT)) {
            failures.push(format!("cannot write {path}: {e}"));
        }
    }
    out.list("failures", &failures).finish()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let line = if args.command == "trial" {
        trial(&args)
    } else {
        trace(&args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips_numbers_and_text() {
        let line = JsonLine::default()
            .text("w", "a\"b")
            .num("x", 0.1 + 0.2)
            .num("n", f64::NAN)
            .list("f", &["one".to_string()])
            .finish();
        assert_eq!(
            line,
            r#"{"w":"a\"b","x":0.30000000000000004,"n":null,"f":["one"]}"#
        );
        assert_eq!(JsonLine::default().finish(), "{}");
    }

    #[test]
    fn args_require_every_flag() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv(
            "perfbench trial --workload fleet-churn --seed 1 --workers 1"
        ))
        .is_ok());
        assert!(parse_args(&argv(
            "perfbench trial --workload nope --seed 1 --workers 1"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "perfbench trial --workload fleet-churn --seed 1 --workers 0"
        ))
        .is_err());
        assert!(parse_args(&argv("perfbench trial --workload fleet-churn --seed 1")).is_err());
        assert!(parse_args(&argv(
            "perfbench bench --workload fleet-churn --seed 1 --workers 1"
        ))
        .is_err());
    }
}

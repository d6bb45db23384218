//! Performance suite and CI regression gate.
//!
//! Measure mode — runs the canonical scenarios sequentially and on an
//! N-thread training pool, prints a table, and writes `BENCH_<label>.json`:
//!
//! ```bash
//! cargo run -p bench --release --bin perf_suite -- --quick --threads 4 --label ci
//! cargo run -p bench --release --bin perf_suite -- --full --label full
//! # One scenario only (repeatable), e.g. the million-client memory gate:
//! cargo run -p bench --release --bin perf_suite -- --quick --scenario fedbuff-1m
//! # Acceptance check on a >=4-core box: fail unless every scenario
//! # reaches the required sequential/parallel speedup.
//! cargo run -p bench --release --bin perf_suite -- --full --threads 4 --min-speedup 1.8
//! ```
//!
//! Compare mode — the CI gate; exits non-zero when wall-clock regresses
//! beyond the factor (default 2x) against a baseline, when scenario sizes
//! are not comparable, or when any parallel run lost bit-identity:
//!
//! ```bash
//! cargo run -p bench --release --bin perf_suite -- --compare BENCH_baseline.json BENCH_ci.json
//! ```
//!
//! `--profile <path>` additionally writes a JSON breakdown of where the
//! secure pipeline's on-loop time went (client DH handshakes vs the TSA's
//! session establishment vs mask expansion vs fixed-point encode vs release
//! unmasking) — CI uploads it as an artifact
//! so an overhead-gate failure comes with its own triage data.

use bench::perf::{compare, run_suite, run_suite_scenarios, SuiteResult, SCENARIO_NAMES};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    quick: bool,
    threads: usize,
    label: String,
    seed: u64,
    out: Option<String>,
    compare: Option<(String, String)>,
    factor: f64,
    /// Fail unless every scenario reaches this sequential/parallel speedup.
    /// Only meaningful on hardware with spare cores, so it is opt-in — the
    /// acceptance check is `--full --threads 4 --min-speedup 1.8` on a
    /// >=4-core box.
    min_speedup: Option<f64>,
    /// Write the secure-pipeline timing breakdown to this path.
    profile: Option<String>,
    /// Run only these scenarios (`--scenario`, repeatable); empty = all.
    scenarios: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().collect();
    let mut args = Args {
        quick: true,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2),
        label: "local".to_string(),
        seed: 42,
        out: None,
        compare: None,
        factor: 2.0,
        min_speedup: None,
        profile: None,
        scenarios: Vec::new(),
    };
    let mut i = 1;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--full" => args.quick = false,
            "--threads" => {
                args.threads = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--label" => args.label = value(&mut i)?,
            "--seed" => args.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = Some(value(&mut i)?),
            "--factor" => {
                args.factor = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--factor: {e}"))?
            }
            "--min-speedup" => {
                args.min_speedup = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--min-speedup: {e}"))?,
                )
            }
            "--profile" => args.profile = Some(value(&mut i)?),
            "--scenario" => {
                let name = value(&mut i)?;
                if !SCENARIO_NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "--scenario {name:?} is not canonical; known: {SCENARIO_NAMES:?}"
                    ));
                }
                args.scenarios.push(name);
            }
            "--compare" => {
                let baseline = value(&mut i)?;
                let current = value(&mut i)?;
                args.compare = Some((baseline, current));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    Ok(args)
}

fn run_compare(baseline_path: &str, current_path: &str, factor: f64) -> ExitCode {
    let load = |path: &str| -> Result<SuiteResult, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        SuiteResult::from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf gate error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("# Perf gate: {current_path} vs baseline {baseline_path} (limit {factor:.1}x)");
    match compare(&baseline, &current, factor) {
        Ok(lines) => {
            for line in lines {
                println!("  {line}");
            }
            println!("perf gate PASSED");
            ExitCode::SUCCESS
        }
        Err(failures) => {
            eprintln!("perf gate FAILED:\n{failures}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_suite: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some((baseline, current)) = &args.compare {
        return run_compare(baseline, current, args.factor);
    }

    let mode = if args.quick { "quick" } else { "full" };
    println!(
        "# perf_suite: {mode} scenarios, sequential vs {} worker threads, seed {}",
        args.threads, args.seed
    );
    let suite = if args.scenarios.is_empty() {
        run_suite(&args.label, args.quick, args.threads, args.seed)
    } else {
        let names: Vec<&str> = args.scenarios.iter().map(String::as_str).collect();
        run_suite_scenarios(&args.label, args.quick, args.threads, args.seed, &names)
    };

    println!(
        "{:<14} {:>9} {:>9} {:>10} {:>10} {:>12} {:>12} {:>8} {:>9} {:>10}",
        "scenario",
        "seq (s)",
        "par (s)",
        "events",
        "updates",
        "ev/s seq",
        "ev/s par",
        "speedup",
        "rss MiB",
        "identical"
    );
    let mut all_identical = true;
    for s in &suite.scenarios {
        all_identical &= s.identical;
        let rss = s
            .peak_rss_bytes
            .map(|b| format!("{:.0}", b as f64 / (1 << 20) as f64))
            .unwrap_or_else(|| "n/a".to_string());
        println!(
            "{:<14} {:>9.3} {:>9.3} {:>10} {:>10} {:>12.0} {:>12.0} {:>7.2}x {:>9} {:>10}",
            s.name,
            s.wall_s_sequential,
            s.wall_s_parallel,
            s.events,
            s.client_updates,
            s.events_per_sec_sequential,
            s.events_per_sec_parallel,
            s.speedup,
            rss,
            s.identical,
        );
    }
    for s in &suite.scenarios {
        if let Some(factor) = s.secagg_overhead_factor {
            println!(
                "\n{}: secagg overhead {factor:.2}x over clear (per-event)",
                s.name
            );
        }
    }

    if let Some(profile_path) = &args.profile {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"label\": \"{}\",", suite.label);
        let _ = writeln!(out, "  \"scenarios\": [");
        let secure: Vec<_> = suite
            .scenarios
            .iter()
            .filter(|s| {
                s.secure_handshake_s
                    + s.secure_establish_s
                    + s.secure_mask_s
                    + s.secure_encode_s
                    + s.secure_unmask_s
                    > 0.0
            })
            .collect();
        for (i, s) in secure.iter().enumerate() {
            let comma = if i + 1 < secure.len() { "," } else { "" };
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", s.name);
            let _ = writeln!(out, "      \"handshake_s\": {:.6},", s.secure_handshake_s);
            let _ = writeln!(out, "      \"establish_s\": {:.6},", s.secure_establish_s);
            let _ = writeln!(out, "      \"mask_s\": {:.6},", s.secure_mask_s);
            let _ = writeln!(out, "      \"encode_s\": {:.6},", s.secure_encode_s);
            let _ = writeln!(out, "      \"unmask_s\": {:.6}", s.secure_unmask_s);
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        if let Err(e) = std::fs::write(profile_path, out) {
            eprintln!("perf_suite: cannot write {profile_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote secure-pipeline profile to {profile_path}");
    }

    let path = args
        .out
        .unwrap_or_else(|| format!("BENCH_{}.json", suite.label));
    if let Err(e) = std::fs::write(&path, suite.to_json()) {
        eprintln!("perf_suite: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {path}");

    if !all_identical {
        eprintln!("perf_suite: a parallel run was NOT bit-identical to the sequential run");
        return ExitCode::FAILURE;
    }
    if let Some(min) = args.min_speedup {
        let laggards: Vec<String> = suite
            .scenarios
            .iter()
            .filter(|s| s.speedup < min)
            .map(|s| format!("{} ({:.2}x)", s.name, s.speedup))
            .collect();
        if !laggards.is_empty() {
            eprintln!(
                "perf_suite: speedup below the required {min:.2}x: {}",
                laggards.join(", ")
            );
            return ExitCode::FAILURE;
        }
        println!("all scenarios reached the required {min:.2}x speedup");
    }
    ExitCode::SUCCESS
}

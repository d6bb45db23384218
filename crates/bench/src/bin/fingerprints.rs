//! Prints the canonical scenarios' `Report::fingerprint()` values, or checks
//! them against the golden values in `FINGERPRINTS.txt`.
//!
//! The workspace's headline guarantee is that scenario fingerprints are a
//! pure function of the scenario definition and seed — invariant across
//! thread counts, sampling-pool shard layouts, and internal refactors.
//! `FINGERPRINTS.txt` at the repository root pins that output for the quick
//! and the full sizes; `--check` recomputes one size and exits non-zero on
//! any difference (see `docs/DETERMINISM.md`).  A re-pin — regenerating the
//! file after a deliberate behaviour change — needs a CHANGES.md entry
//! saying why.
//!
//! ```bash
//! cargo run --release -p bench --bin fingerprints            # quick sizes
//! cargo run --release -p bench --bin fingerprints -- --full
//! cargo run --release -p bench --bin fingerprints -- --check
//! cargo run --release -p bench --bin fingerprints -- --check --full
//! ```

use bench::perf::{build_scenario, SCENARIO_NAMES};
use papaya_sim::Parallelism;
use std::process::ExitCode;

/// The golden file, resolved at compile time so the check works from any
/// working directory.
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../FINGERPRINTS.txt");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let check = args.iter().any(|a| a == "--check");
    let seed = 42;
    let header = format!(
        "# scenario fingerprints ({} sizes, seed {seed})",
        if full { "full" } else { "quick" }
    );
    let mut lines = Vec::with_capacity(SCENARIO_NAMES.len());
    if !check {
        println!("{header}");
    }
    for name in SCENARIO_NAMES {
        let report = build_scenario(name, !full, Parallelism::sequential(), seed).run();
        let line = format!("{name}\t{}", report.fingerprint());
        if !check {
            println!("{line}");
        }
        lines.push(line);
    }
    if !check {
        return ExitCode::SUCCESS;
    }

    let golden = match std::fs::read_to_string(GOLDEN_PATH) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {GOLDEN_PATH}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let expected = golden_section(&golden, &header);
    if expected.is_empty() {
        eprintln!("{GOLDEN_PATH} has no `{header}` section");
        return ExitCode::FAILURE;
    }
    let mut mismatches = 0;
    for i in 0..lines.len().max(expected.len()) {
        let got = lines.get(i).map(String::as_str).unwrap_or("<missing>");
        let want = expected.get(i).copied().unwrap_or("<missing>");
        if got != want {
            mismatches += 1;
            println!("MISMATCH\n  pinned:   {want}\n  computed: {got}");
        }
    }
    if mismatches == 0 {
        println!("{header}: all {} fingerprints match", lines.len());
        ExitCode::SUCCESS
    } else {
        println!("{header}: {mismatches} fingerprint(s) differ from the pin");
        ExitCode::FAILURE
    }
}

/// The non-empty lines following `header` up to the next `#` header.
fn golden_section<'a>(golden: &'a str, header: &str) -> Vec<&'a str> {
    golden
        .lines()
        .skip_while(|line| line.trim_end() != header)
        .skip(1)
        .take_while(|line| !line.starts_with('#'))
        .map(str::trim_end)
        .filter(|line| !line.is_empty())
        .collect()
}

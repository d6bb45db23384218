//! Exhaustiveness rules: cross-file checks that configuration structs,
//! event dispatch, and metrics stay fully wired as they grow.  These
//! generalize PR 4's "exhaustive destructure choke point" from a convention
//! into a machine-checked invariant.

use super::{path_ends_with, Rule};
use crate::report::Finding;
use crate::scan::{
    enum_variants, find_destructure, find_seq, fn_body, matching, struct_fields, SourceFile,
};
use crate::Workspace;

fn find_file<'a>(ws: &'a Workspace, suffix: &str) -> Option<&'a SourceFile> {
    ws.files.iter().find(|f| path_ends_with(&f.path, suffix))
}

/// `(struct, struct file, validator fn, validator file)` — every field of
/// the struct must be named in the validator's destructuring pattern, so
/// adding a knob without deciding how runs honor it fails the lint (and,
/// for the destructure itself, the build).
const CONFIG_CHECKS: &[(&str, &str, &str, &str)] = &[
    (
        "TaskConfig",
        "papaya-core/src/config.rs",
        "validate_task_config",
        "papaya-sim/src/scenario.rs",
    ),
    (
        "DpConfig",
        "papaya-core/src/dp.rs",
        "validate",
        "papaya-core/src/dp.rs",
    ),
    (
        "RunLimits",
        "papaya-sim/src/scenario.rs",
        "validate_run_limits",
        "papaya-sim/src/scenario.rs",
    ),
    (
        "RobustConfig",
        "papaya-core/src/robust.rs",
        "validate",
        "papaya-core/src/robust.rs",
    ),
    (
        "AdversarySpec",
        "papaya-core/src/adversary.rs",
        "validate",
        "papaya-core/src/adversary.rs",
    ),
];

/// Every config-struct field must appear in its validator's exhaustive
/// destructure, and the destructure must not use a `..` rest pattern.
pub struct ConfigValidate;

impl Rule for ConfigValidate {
    fn name(&self) -> &'static str {
        "config-validate"
    }

    fn description(&self) -> &'static str {
        "every TaskConfig/DpConfig/RunLimits/RobustConfig/AdversarySpec field must be destructured in its validator (no `..` rest patterns)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for &(struct_name, struct_file, fn_name, fn_file) in CONFIG_CHECKS {
            let sfile = match find_file(ws, struct_file) {
                Some(f) => f,
                None => continue, // struct not in this (fixture) workspace
            };
            let fields = match struct_fields(sfile, struct_name) {
                Some(f) => f,
                None => continue,
            };
            let vfile = match find_file(ws, fn_file) {
                Some(f) => f,
                None => {
                    out.push(Finding::new(
                        &sfile.path,
                        1,
                        self.name(),
                        format!(
                            "struct `{struct_name}` has no reachable validator: expected \
                             `{fn_name}` in `{fn_file}`"
                        ),
                    ));
                    continue;
                }
            };
            let body = fn_body(vfile, fn_name, 0);
            let destructure = body.and_then(|(start, end, _)| {
                find_destructure(&vfile.tokens, (start, end), struct_name)
            });
            let d = match destructure {
                Some(d) => d,
                None => {
                    out.push(Finding::new(
                        &vfile.path,
                        body.map(|(_, _, line)| line).unwrap_or(1),
                        self.name(),
                        format!(
                            "validator `{fn_name}` must exhaustively destructure \
                             `{struct_name}` so new fields cannot be silently ignored"
                        ),
                    ));
                    continue;
                }
            };
            if d.has_rest {
                out.push(Finding::new(
                    &vfile.path,
                    d.line,
                    self.name(),
                    format!(
                        "`{struct_name}` destructure in `{fn_name}` uses a `..` rest \
                         pattern, which silently absorbs new fields"
                    ),
                ));
            }
            for field in &fields {
                if !d.fields.iter().any(|f| f.name == field.name) {
                    out.push(Finding::new(
                        &vfile.path,
                        d.line,
                        self.name(),
                        format!(
                            "field `{}` of `{struct_name}` is not destructured in \
                             `{fn_name}`; decide how runs honor it (or ignore it \
                             explicitly with `{}: _`)",
                            field.name, field.name
                        ),
                    ));
                }
            }
        }
    }
}

/// One event-dispatch invariant: every variant of `enum_name` (declared in
/// `events_file`) must be named in each `match` on `scrutinee` inside
/// `dispatch_file`, there must be at least `min_sites` such matches, and no
/// match may hide behind a depth-0 `_` wildcard arm.
struct DispatchCheck {
    enum_name: &'static str,
    events_file: &'static str,
    dispatch_file: &'static str,
    /// Consecutive scrutinee tokens identifying the dispatch match, e.g.
    /// `["event", ".", "kind"]` or `["control_event"]`.
    scrutinee: &'static [&'static str],
    min_sites: usize,
    /// Human description of where the dispatch lives, for messages.
    sites_label: &'static str,
}

const DISPATCH_CHECKS: &[DispatchCheck] = &[
    DispatchCheck {
        enum_name: "EventKind",
        events_file: "papaya-sim/src/events.rs",
        dispatch_file: "papaya-sim/src/scenario.rs",
        scrutinee: &["event", ".", "kind"],
        min_sites: 1,
        sites_label: "the scenario run loop",
    },
    DispatchCheck {
        enum_name: "ControlEvent",
        events_file: "papaya-sim/src/control_plane/event_log.rs",
        dispatch_file: "papaya-sim/src/control_plane/service.rs",
        scrutinee: &["control_event"],
        min_sites: 1,
        sites_label: "the control-plane apply dispatcher",
    },
];

/// Every event enum must be exhaustively dispatched: the scenario run loop
/// must name every `EventKind` variant, and the control plane's single
/// apply dispatcher must name every `ControlEvent` variant — with no `_`
/// wildcard arm in either.
pub struct EventDispatch;

impl Rule for EventDispatch {
    fn name(&self) -> &'static str {
        "event-dispatch"
    }

    fn description(&self) -> &'static str {
        "every EventKind variant must be named in the scenario run loop's dispatch match and every ControlEvent variant in the control-plane apply dispatcher, with no `_` wildcard arm"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for check in DISPATCH_CHECKS {
            let events = match find_file(ws, check.events_file) {
                Some(f) => f,
                None => continue,
            };
            let variants = match enum_variants(events, check.enum_name) {
                Some(v) => v,
                None => continue,
            };
            let scrutinee = check.scrutinee.join("");
            let dispatch = match find_file(ws, check.dispatch_file) {
                Some(f) => f,
                None => {
                    out.push(Finding::new(
                        &events.path,
                        1,
                        self.name(),
                        format!(
                            "`{}` has no reachable dispatch file `{}`",
                            check.enum_name, check.dispatch_file
                        ),
                    ));
                    continue;
                }
            };
            let matches = scrutinee_matches(dispatch, check.scrutinee);
            if matches.len() < check.min_sites {
                out.push(Finding::new(
                    &dispatch.path,
                    1,
                    self.name(),
                    format!(
                        "expected {} to dispatch on `{scrutinee}` (found {} \
                         `match {scrutinee}` site(s), need at least {})",
                        check.sites_label,
                        matches.len(),
                        check.min_sites
                    ),
                ));
            }
            for (open, close, line) in matches {
                let body = &dispatch.tokens[open + 1..close];
                for variant in &variants {
                    if find_seq(body, 0, &[check.enum_name, "::", &variant.name]).is_none() {
                        out.push(Finding::new(
                            &dispatch.path,
                            line,
                            self.name(),
                            format!(
                                "dispatch `match {scrutinee}` does not handle \
                                 `{}::{}`; every variant must be named in {}",
                                check.enum_name, variant.name, check.sites_label
                            ),
                        ));
                    }
                }
                // A `_ =>` arm directly inside the match body defeats the
                // compiler's exhaustiveness check for future variants.
                let mut depth = 0usize;
                for (i, tok) in body.iter().enumerate() {
                    match tok.text.as_str() {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => depth = depth.saturating_sub(1),
                        "_" if depth == 0
                            && body.get(i + 1).map(|t| t.text.as_str()) == Some("=>") =>
                        {
                            out.push(Finding::new(
                                &dispatch.path,
                                tok.line,
                                self.name(),
                                format!(
                                    "dispatch `match {scrutinee}` has a `_` wildcard arm; \
                                     list foreign variants explicitly so a new \
                                     `{}` variant is a compile error here, not a \
                                     silent fallthrough",
                                    check.enum_name
                                ),
                            ));
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

/// All `match` sites in `file` whose scrutinee tokens contain the
/// consecutive token sequence `scrutinee`:
/// `(body_open, body_close, match_line)`.
fn scrutinee_matches(file: &SourceFile, scrutinee: &[&str]) -> Vec<(usize, usize, u32)> {
    let toks = &file.tokens;
    let mut sites = Vec::new();
    let mut i = 0usize;
    while let Some(at) = find_seq(toks, i, &["match"]) {
        i = at + 1;
        // Scrutinee runs to the first `{` (no struct expressions appear in
        // these scrutinees).
        let mut j = at + 1;
        let mut found = false;
        while j < toks.len() && toks[j].text != "{" {
            if toks[j].text == scrutinee[0]
                && scrutinee[1..]
                    .iter()
                    .enumerate()
                    .all(|(k, want)| toks.get(j + 1 + k).map(|t| t.text.as_str()) == Some(*want))
            {
                found = true;
            }
            j += 1;
        }
        if !found || j >= toks.len() {
            continue;
        }
        if let Some(close) = matching(toks, j, "{", "}") {
            sites.push((j, close, toks[at].line));
            i = close;
        }
    }
    sites
}

const METRICS_FILE: &str = "papaya-sim/src/metrics.rs";
const SECURE_FILE: &str = "papaya-core/src/secure.rs";
const DP_FILE: &str = "papaya-core/src/dp.rs";
const ROBUST_FILE: &str = "papaya-core/src/robust.rs";
const FINGERPRINT_FILE: &str = "papaya-sim/src/scenario.rs";

/// `(struct, file)` pairs whose fields must be hashed in
/// `Report::fingerprint()` or carry an explicit exemption.
const METRIC_STRUCTS: &[(&str, &str)] = &[
    ("MetricsCollector", METRICS_FILE),
    ("SecureTelemetry", SECURE_FILE),
    ("DpTelemetry", DP_FILE),
    ("RobustTelemetry", ROBUST_FILE),
    ("ControlPlaneStats", METRICS_FILE),
];

/// Every metrics/telemetry field is either referenced inside
/// `Report::fingerprint()` or carries an allow exemption on its declaration
/// line — so a new counter cannot silently escape the determinism pin.
pub struct MetricsFingerprint;

impl Rule for MetricsFingerprint {
    fn name(&self) -> &'static str {
        "metrics-fingerprint"
    }

    fn description(&self) -> &'static str {
        "every MetricsCollector/SecureTelemetry/DpTelemetry/RobustTelemetry/ControlPlaneStats field must be hashed in Report::fingerprint() or carry an explicit exemption"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let hashed: Option<Vec<&str>> = find_file(ws, FINGERPRINT_FILE)
            .and_then(|f| fn_body(f, "fingerprint", 0).map(|(s, e, _)| (f, s, e)))
            .map(|(f, s, e)| f.tokens[s..e].iter().map(|t| t.text.as_str()).collect());
        for &(struct_name, struct_file) in METRIC_STRUCTS {
            let sfile = match find_file(ws, struct_file) {
                Some(f) => f,
                None => continue,
            };
            let fields = match struct_fields(sfile, struct_name) {
                Some(f) => f,
                None => continue,
            };
            let hashed = match &hashed {
                Some(h) => h,
                None => {
                    out.push(Finding::new(
                        &sfile.path,
                        1,
                        self.name(),
                        format!(
                            "`{struct_name}` fields must be pinned by `fn fingerprint` \
                             in `{FINGERPRINT_FILE}`, which was not found"
                        ),
                    ));
                    continue;
                }
            };
            for field in &fields {
                if !hashed.contains(&field.name.as_str()) {
                    out.push(Finding::new(
                        &sfile.path,
                        field.line,
                        self.name(),
                        format!(
                            "field `{}` of `{struct_name}` is not hashed in \
                             `Report::fingerprint()`; hash it or exempt it with a \
                             justified allow on its declaration",
                            field.name
                        ),
                    ));
                }
            }
        }
    }
}

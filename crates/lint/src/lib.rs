//! repro-lint: a dependency-free invariant checker for this workspace.
//!
//! Clippy checks Rust; this checks *the repro*. The properties that
//! make the system trustworthy — bit-identical results across serial/
//! pooled/distributed execution, a panic-free coordinator ack path, a
//! deadlock-free lock order, a fully-covered wire protocol, and
//! allocation-capped decodes — are workspace-specific and invisible to
//! generic tooling. Each is encoded here as a rule over a hand-rolled
//! token stream (no syn, no proc-macro2: the container is offline and
//! the workspace vendors no parser), so the whole analyzer is std-only
//! and runs as both `cargo run -p lint` and a tier-1 integration test.
//!
//! Rules:
//! * `determinism` — no unordered collections / clocks / ambient
//!   randomness in the deterministic zones ([`rules::determinism`]).
//! * `panic-ratchet` — per-file panic-site counts in `dist`/`store`/
//!   `solver`/`spice` only go down ([`rules::panics`]).
//! * `lock-order` — the coordinator's Mutex graph stays acyclic
//!   ([`rules::locks`]).
//! * `wire-coverage` — every `Message` variant encodes, decodes, and is
//!   property-tested ([`rules::wire_cov`]).
//! * `capped-reads` — every wire decode flows through an allocation
//!   guard ([`rules::capped`]).
//! * `unused-api` — every non-test `pub fn`, `pub const` and `pub static`
//!   is named in some other file ([`rules::unused_api`]).
//!
//! Exceptions are not comments scattered through the tree: they live in
//! [`ALLOWLIST`], each with the file, the token, and a written reason,
//! so the full set of waived hazards is reviewable in one place.

pub mod lexer;
pub mod model;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use model::FileModel;

/// One rule violation (or allowlisted hazard) at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`determinism`, `panic-ratchet`, …).
    pub rule: &'static str,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-indexed line (0 when the finding is about the whole file).
    pub line: u32,
    /// The offending identifier, when there is one.
    pub token: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// A blessed exception: rule + file suffix + token, with the reason the
/// hazard is acceptable there.
pub struct Allow {
    pub rule: &'static str,
    pub file_suffix: &'static str,
    pub token: &'static str,
    pub reason: &'static str,
}

impl Allow {
    /// Whether this exception covers `finding`.
    pub fn waives(&self, finding: &Finding) -> bool {
        self.rule == finding.rule
            && finding.file.ends_with(self.file_suffix)
            && (self.token == "*" || self.token == finding.token)
    }
}

/// Every waived hazard in the workspace. Additions need a reason that
/// explains why the invariant is not at risk.
pub const ALLOWLIST: &[Allow] = &[
    Allow {
        rule: "determinism",
        file_suffix: "crates/store/src/lib.rs",
        token: "SystemTime",
        reason: "eviction freshness stamps; stripped before digesting, never merged or sent",
    },
    Allow {
        rule: "determinism",
        file_suffix: "crates/dist/src/coordinator.rs",
        token: "Instant",
        reason: "scheduler timeout/lease bookkeeping; compared locally, never serialized",
    },
    Allow {
        rule: "determinism",
        file_suffix: "crates/bench/src/orchestrate.rs",
        token: "SystemTime",
        reason: "`repro store compact` age cutoff; picks records to evict, never enters a result",
    },
    Allow {
        rule: "determinism",
        file_suffix: "crates/bench/src/bin/repro.rs",
        token: "Instant",
        reason: "CLI progress/elapsed display; human-facing only",
    },
    Allow {
        rule: "unused-api",
        file_suffix: "crates/data/src/idx.rs",
        token: "load_mnist_dir",
        reason: "the documented way to run on real MNIST; no IDX files ship, so no in-tree caller can exist",
    },
];

/// Result of linting a tree: hard violations, waived hazards (with
/// their reasons), and informational notes.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Finding>,
    pub allowed: Vec<(Finding, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    /// Sorts, then splits raw findings into violations and waived ones.
    fn absorb(&mut self, mut findings: Vec<Finding>) {
        findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
        for f in findings {
            match ALLOWLIST.iter().find(|a| a.waives(&f)) {
                Some(a) => self.allowed.push((f, a.reason)),
                None => self.violations.push(f),
            }
        }
    }

    /// Human/CI-readable rendering; also the snapshot format.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for f in &self.violations {
            let _ = writeln!(
                s,
                "deny {}: {}:{} `{}` {}",
                f.rule, f.file, f.line, f.token, f.message
            );
        }
        for (f, reason) in &self.allowed {
            let _ = writeln!(
                s,
                "allow {}: {}:{} `{}` ({reason})",
                f.rule, f.file, f.line, f.token
            );
        }
        for n in &self.notes {
            let _ = writeln!(s, "note: {n}");
        }
        let _ = writeln!(
            s,
            "{} violation(s), {} allowlisted, {} note(s)",
            self.violations.len(),
            self.allowed.len(),
            self.notes.len()
        );
        s
    }
}

/// Recursively collects `.rs` files under `dir`, skipping build output
/// (`target/`), sorted for deterministic report order.
fn rs_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&d)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for p in entries {
            if p.is_dir() {
                if !p.ends_with("target") {
                    stack.push(p);
                }
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

fn load_model(root: &Path, p: &Path) -> io::Result<FileModel> {
    Ok(FileModel::parse(rel(root, p), &fs::read_to_string(p)?))
}

/// Parses `panic_baseline.txt` (`<count> <path>` per line, `#` comments).
fn load_baseline(path: &Path) -> io::Result<BTreeMap<String, usize>> {
    let mut out = BTreeMap::new();
    for line in fs::read_to_string(path)?.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (count, file) = line.split_once(' ').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad baseline line: {line}"),
            )
        })?;
        let count = count.parse::<usize>().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad baseline count: {line}"),
            )
        })?;
        out.insert(file.trim().to_string(), count);
    }
    Ok(out)
}

fn render_baseline(counts: &BTreeMap<String, Vec<rules::panics::PanicSite>>) -> String {
    let mut s = String::from(
        "# Panic-freedom ratchet: per-file unwrap/expect/index counts in non-test\n\
         # dist/store/solver/spice source. This file only goes DOWN. Bless\n\
         # intentional reductions with `cargo run -p lint -- --update-baseline`.\n",
    );
    for (file, sites) in counts {
        if !sites.is_empty() {
            let _ = writeln!(s, "{} {}", sites.len(), file);
        }
    }
    s
}

/// The crates whose `src/` trees form the deterministic zone.
const DETERMINISM_ZONE: &[&str] = &[
    "core", "dist", "store", "bench", "solver", "spice", "analog", "snn", "data",
];
/// The crates under the panic ratchet.
const PANIC_ZONE: &[&str] = &["dist", "store", "solver", "spice"];
/// The trees whose `.rs` files can call a workspace `pub fn`.
/// `benchmark/` is its own package, outside tier-1 `cargo test`, so a
/// function only it calls would otherwise be deleted unseen.
const API_CALLERS: &[&str] = &["crates", "src", "tests", "examples", "benchmark"];

/// Whether `rel` is non-test library or binary source whose `pub fn`s
/// the `unused-api` rule checks: `src/` and `crates/*/src`, but not the
/// `compat` stand-ins, which copy third-party API shapes on purpose.
fn defines_api(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["src", ..] => true,
        ["crates", krate, "src", ..] => *krate != "compat",
        _ => false,
    }
}

/// Lints the real workspace rooted at `root`. With `update_baseline`
/// the panic baseline file is rewritten from the current counts instead
/// of being enforced.
pub fn lint_tree(root: &Path, update_baseline: bool) -> io::Result<Report> {
    let mut report = Report::default();
    let mut findings = Vec::new();

    // determinism: every src file in the zone crates.
    for krate in DETERMINISM_ZONE {
        let src = root.join("crates").join(krate).join("src");
        for p in rs_files(&src)? {
            let model = load_model(root, &p)?;
            rules::determinism::check(&model, &mut findings);
        }
    }

    // panic-ratchet: per-file counts across dist/store/solver/spice src.
    let mut counts: BTreeMap<String, Vec<rules::panics::PanicSite>> = BTreeMap::new();
    for krate in PANIC_ZONE {
        let src = root.join("crates").join(krate).join("src");
        for p in rs_files(&src)? {
            let model = load_model(root, &p)?;
            counts.insert(model.rel.clone(), rules::panics::sites(&model));
        }
    }
    let baseline_path = root.join("crates/lint/panic_baseline.txt");
    if update_baseline {
        fs::write(&baseline_path, render_baseline(&counts))?;
        report.notes.push(format!(
            "panic baseline rewritten: {}",
            rel(root, &baseline_path)
        ));
    } else {
        let baseline = load_baseline(&baseline_path)?;
        rules::panics::ratchet(&counts, &baseline, &mut findings);
    }
    let total: usize = counts.values().map(Vec::len).sum();
    report.notes.push(format!(
        "panic-ratchet: {total} site(s) across {} file(s)",
        counts.values().filter(|v| !v.is_empty()).count()
    ));

    // capped-reads: the wire layer (all of dist src).
    for p in rs_files(&root.join("crates/dist/src"))? {
        let model = load_model(root, &p)?;
        rules::capped::check(&model, &mut findings);
    }

    // lock-order: the coordinator.
    let coordinator = root.join("crates/dist/src/coordinator.rs");
    rules::locks::check(&load_model(root, &coordinator)?, &mut findings);

    // wire-coverage: the Message enum vs its codec and property tests.
    let wire = load_model(root, &root.join("crates/dist/src/wire.rs"))?;
    let props = fs::read_to_string(root.join("crates/dist/tests/properties.rs"))?;
    rules::wire_cov::check(&wire, Some(&props), &mut findings);

    // unused-api: workspace `pub fn`s vs every other file that could
    // call them. The linter's own fixtures are data, not callers.
    let mut scanned = Vec::new();
    for dir in API_CALLERS {
        for p in rs_files(&root.join(dir))? {
            let model = load_model(root, &p)?;
            if !model.rel.starts_with("crates/lint/tests/fixtures/") {
                scanned.push(model);
            }
        }
    }
    let checked = rules::unused_api::check(&scanned, defines_api, &mut findings);
    report.notes.push(format!(
        "unused-api: {checked} non-test pub fn/const/static item(s) checked"
    ));

    report.absorb(findings);
    Ok(report)
}

/// Lints a fixture directory: every rule runs on every file, with an
/// empty panic baseline, no property-test leg for wire coverage, and
/// the directory's own files as the only API callers. Used by the
/// self-test corpus under `tests/fixtures/`.
pub fn lint_fixture_dir(dir: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let mut findings = Vec::new();
    let mut counts: BTreeMap<String, Vec<rules::panics::PanicSite>> = BTreeMap::new();
    let models = rs_files(dir)?
        .iter()
        .map(|p| load_model(dir, p))
        .collect::<io::Result<Vec<_>>>()?;
    for model in &models {
        rules::determinism::check(model, &mut findings);
        rules::capped::check(model, &mut findings);
        rules::locks::check(model, &mut findings);
        rules::wire_cov::check(model, None, &mut findings);
        let sites = rules::panics::sites(model);
        if !sites.is_empty() {
            counts.insert(model.rel.clone(), sites);
        }
    }
    rules::panics::ratchet(&counts, &BTreeMap::new(), &mut findings);
    rules::unused_api::check(&models, |_| true, &mut findings);
    report.absorb(findings);
    Ok(report)
}

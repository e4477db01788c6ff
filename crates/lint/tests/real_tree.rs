//! Tier-1 enforcement: the real workspace must lint clean. This is the
//! same check CI runs as `cargo run -p lint -- --deny-all`, wired into
//! `cargo test` so the invariants hold on every local run too.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_has_no_invariant_violations() {
    let report = lint::lint_tree(&workspace_root(), false).expect("workspace lints");
    assert!(
        report.violations.is_empty(),
        "invariant violations in the workspace:\n{}",
        report.render()
    );
}

/// An exception that waives nothing is a stale hole in the invariants:
/// it would silently bless the next hazard of its kind in that file.
#[test]
fn every_allowlist_entry_waives_a_real_finding() {
    let report = lint::lint_tree(&workspace_root(), false).expect("workspace lints");
    for allow in lint::ALLOWLIST {
        assert!(
            report
                .allowed
                .iter()
                .any(|(finding, _)| allow.waives(finding)),
            "ALLOWLIST entry {} `{}` in {} waives nothing on the real tree; delete it",
            allow.rule,
            allow.token,
            allow.file_suffix
        );
    }
}

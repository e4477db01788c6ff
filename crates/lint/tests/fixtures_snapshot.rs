//! Self-test corpus: every bad fixture must be flagged with the exact
//! rule/file/line recorded in the golden snapshot, and every good
//! fixture must come out clean.
//!
//! Bless intentional output changes with `UPDATE_GOLDEN=1 cargo test -p
//! lint --test fixtures_snapshot` (same convention as the dist crate's
//! golden_digests vectors) and review the diff like any other code
//! change.

use std::path::{Path, PathBuf};

fn fixtures(sub: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(sub)
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fixtures.txt")
}

#[test]
fn bad_fixtures_are_flagged_and_good_fixtures_are_clean() {
    let bad = lint::lint_fixture_dir(&fixtures("bad")).expect("bad fixtures lint");
    let good = lint::lint_fixture_dir(&fixtures("good")).expect("good fixtures lint");

    // Hard requirements independent of the snapshot: nothing waived in
    // fixture mode, every bad file caught, every good file silent.
    assert!(bad.allowed.is_empty() && good.allowed.is_empty());
    assert_eq!(
        good.violations.len(),
        0,
        "good fixtures must be clean:\n{}",
        good.render()
    );
    for rule in [
        "determinism",
        "panic-ratchet",
        "lock-order",
        "wire-coverage",
        "capped-reads",
        "unused-api",
    ] {
        assert!(
            bad.violations.iter().any(|f| f.rule == rule),
            "no bad fixture exercised rule `{rule}`:\n{}",
            bad.render()
        );
    }

    let rendered = format!("== bad ==\n{}== good ==\n{}", bad.render(), good.render());
    let golden = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden, &rendered).expect("write golden snapshot");
        return;
    }
    let committed = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); bless with UPDATE_GOLDEN=1",
            golden.display()
        )
    });
    assert_eq!(
        committed, rendered,
        "lint output diverged from the committed snapshot; if intentional, \
         bless with UPDATE_GOLDEN=1 and review the diff"
    );
}

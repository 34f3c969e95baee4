//! Self-enforcement: the workspace must stay lint-clean.
//!
//! This test is what makes `srlr-lint` a tier-1 invariant instead of an
//! optional tool: `cargo test` fails if anyone reintroduces a float `==`,
//! a bare-`f64` public API, a layering violation, an unreviewed API
//! change, an allocation on the hot path — or lets the baseline go
//! stale. (Panics, `HashMap`, the wall clock, threads, printing and doc
//! coverage are clippy's, gated by `cargo clippy -D warnings`.)

use std::path::Path;

use srlr_lint::{run, Config};

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_no_lint_violations() {
    let report = run(&Config::new(workspace_root())).expect("lint run succeeds");
    assert!(
        report.files_checked > 30,
        "walk found the workspace sources"
    );
    let rendered: String = report.fresh.iter().map(|d| d.render()).collect();
    assert!(report.is_clean(), "srlr-lint found violations:\n{rendered}");
}

#[test]
fn baseline_has_no_stale_entries() {
    let report = run(&Config::new(workspace_root())).expect("lint run succeeds");
    assert!(
        report.stale.is_empty(),
        "stale baseline entries (baseline is shrink-only, delete them): {:?}",
        report.stale
    );
}

//! Throughput and shape of the `srlr-lint` workspace pass: how long the
//! full scan (lex → item tree → expression walk → call graph → rules)
//! takes, and the deterministic counts CI gates.
//!
//! Besides the `target/srlr-reports/lint.json` run report, it writes
//! the committed snapshot `BENCH_lint.json` at the repo root. The
//! counts (files scanned, call-graph size, declared hot roots, fresh
//! violations — which must be zero) are deterministic, so CI's
//! perf-regression job gates them with `srlr bench-diff`; the wall-time
//! key is an honest measurement but meaningless across runners, so the
//! gate ignores it.

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "bench target: it prints its report, and the panic, print and wall-clock lints cover library code only"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use srlr_bench::report;
use srlr_lint::rules::ALL_RULES;
use srlr_lint::semantic::ParsedFile;
use srlr_lint::{exprs, items, semantic, walk, Config};
use srlr_telemetry::{Clock, Value};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Parses every workspace file the way the lint's own scan does, so the
/// call-graph stage can be benched in isolation.
fn parse_workspace(root: &Path) -> Vec<ParsedFile> {
    walk::workspace_files(root)
        .expect("walk workspace")
        .iter()
        .map(|file| {
            let src = std::fs::read_to_string(&file.abs).expect("read source");
            let rel = file.rel.replace('\\', "/");
            let tree = items::parse_items(&rel, &src);
            let fns = exprs::parse_fns(&rel, &src);
            ParsedFile {
                rel,
                src,
                tree,
                fns,
            }
        })
        .collect()
}

fn print_tables() {
    let config = Config::new(workspace_root());
    let clock = Clock::wall();
    let start = clock.now();
    let lint = srlr_lint::run(&config).expect("workspace lint runs");
    let wall_ms = (clock.now() - start) * 1e3;

    let parsed = parse_workspace(&config.root);
    let graph = semantic::build_call_graph(&parsed);
    let hot = semantic::load_hotpaths(&config.root).expect("committed lint-hotpaths.txt");

    report::section("srlr-lint — full workspace pass");
    println!("{:>24} {:>10}", "metric", "value");
    let fresh = lint.fresh.len();
    for (name, value) in [
        ("files_checked", lint.files_checked),
        ("fresh_violations", fresh),
        ("rules", ALL_RULES.len()),
        ("callgraph_nodes", graph.nodes().len()),
        ("hot_roots", hot.roots.len()),
    ] {
        println!("{name:>24} {value:>10}");
    }
    println!("{:>24} {wall_ms:>10.1}", "wall_ms");
    assert_eq!(fresh, 0, "the committed tree must lint clean");
    assert!(!hot.roots.is_empty(), "hot roots are declared");

    let mut run = srlr_telemetry::RunReport::new("lint");
    run.section_metric(
        "scan",
        "files_checked",
        Value::U64(lint.files_checked as u64),
    );
    run.section_metric("scan", "fresh_violations", Value::U64(fresh as u64));
    run.section_metric("scan", "rules", Value::U64(ALL_RULES.len() as u64));
    run.section_metric("callgraph", "nodes", Value::U64(graph.nodes().len() as u64));
    run.section_metric("callgraph", "hot_roots", Value::U64(hot.roots.len() as u64));
    run.section_metric("timing", "wall_ms", Value::F64(wall_ms));
    report::emit_run_report(&run);
    report::emit_bench_snapshot(&run);
}

fn bench(c: &mut Criterion) {
    print_tables();
    let config = Config::new(workspace_root());
    // The full pass, as CI runs it: every rule over every file.
    c.bench_function("lint_workspace_full", |b| {
        b.iter(|| srlr_lint::run(&config).expect("lint runs"))
    });
    // Call-graph construction in isolation — the layer this lint's
    // dataflow rules added on top of the item tree.
    let parsed = parse_workspace(&config.root);
    c.bench_function("lint_callgraph_build", |b| {
        b.iter(|| semantic::build_call_graph(&parsed))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

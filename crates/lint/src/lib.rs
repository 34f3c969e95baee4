//! `srlr-lint`: dependency-free static analysis for the SRLR workspace.
//!
//! The reproduction's headline guarantees — bit-identical Monte Carlo
//! results at any thread count, and sweep runs that degrade instead of
//! aborting — rest on invariants of two kinds. The generic ones are
//! toolchain lints, set once in the workspace `Cargo.toml`
//! (`[workspace.lints]`) and `clippy.toml` and gated by CI's
//! `cargo clippy -D warnings`:
//!
//! | invariant | rustc / clippy lint |
//! |---|---|
//! | no panics in library code | `unwrap_used`, `expect_used`, `panic`, `unreachable`, `todo`, `unimplemented` |
//! | no `HashMap`/`HashSet`, no wall clock | `disallowed_types` |
//! | no threads outside `srlr-parallel` | `disallowed_methods` |
//! | no printing from libraries | `print_stdout`, `print_stderr`, `dbg_macro` |
//! | public items documented | `missing_docs` |
//! | no silent truncation or sign wrap | `cast_possible_truncation`, `cast_possible_wrap` |
//! | every allow states why | `allow_attributes_without_reason` |
//!
//! This crate checks the ones no toolchain lint knows. It lexes every
//! workspace `src/` file with its own Rust lexer (raw strings, nested
//! block comments, char-vs-lifetime — see [`lexer`]) and enforces the
//! rule catalog in [`rules`]. The token pass ([`analyze`]) parses
//! suppression comments and checks
//!
//! * `float-eq` — no `==`/`!=` against float literals, zero included
//!   (clippy's `float_cmp` exempts zero).
//!
//! [`items`] parses each file into an item tree (modules, `use`
//! declarations, public fns/structs/impls with signatures — no
//! expression parsing) feeding three cross-file rules in [`semantic`]:
//!
//! * `raw-f64-api` — public fns/fields in the dimensioned crates
//!   (`tech`/`circuit`/`core`/`link`) use `srlr-units` newtypes, not
//!   bare `f64`,
//! * `crate-layering` — imports and `Cargo.toml` dependencies follow
//!   the DAG `units → tech → circuit → core → link → noc` with
//!   `rng`/`parallel`/`telemetry` as shared leaves,
//! * `api-lock` — each crate's public surface matches its committed
//!   `api-lock.txt` snapshot (`--write-api-lock` accepts changes).
//!
//! A third layer ([`exprs`]) walks every function body into call and
//! float-reduction events, and [`callgraph`] resolves them into a
//! workspace call graph (name-based, pruned by the layering DAG),
//! feeding three dataflow rules:
//!
//! * `alloc-in-hot-path` — no heap-allocating call in any function
//!   reachable from the hot roots declared in `lint-hotpaths.txt`
//!   (span names cross-checked against the profiler's `--profile-out`
//!   output),
//! * `unordered-float-reduce` — no float accumulation over iteration
//!   whose order is not provably index-ordered,
//! * `rng-stream-discipline` — RNG construction only inside `srlr-rng`
//!   and the registered sampler entry points.
//!
//! Violations are waved through only by an inline
//! `// srlr-lint: allow(rule, reason = "…")` with a mandatory reason, or
//! by an entry in the shrink-only `lint-baseline.txt`. Reports render as
//! rustc-style text or SARIF 2.1.0 ([`sarif`], `--format sarif`).

pub mod analyze;
pub mod baseline;
pub mod callgraph;
pub mod diagnostics;
pub mod exprs;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod semantic;
pub mod walk;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;

use analyze::Suppression;
use baseline::Baseline;
use diagnostics::Diagnostic;
use semantic::ParsedFile;

/// A lint run's configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Baseline file; defaults to `<root>/lint-baseline.txt`.
    pub baseline_path: PathBuf,
}

impl Config {
    /// Configuration for scanning `root` with the default baseline path.
    pub fn new(root: impl Into<PathBuf>) -> Config {
        let root = root.into();
        let baseline_path = root.join("lint-baseline.txt");
        Config {
            root,
            baseline_path,
        }
    }
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files_checked: usize,
    /// Violations not covered by the baseline, sorted by path/line.
    pub fresh: Vec<Diagnostic>,
    /// Violations tolerated by a baseline entry.
    pub baselined: Vec<Diagnostic>,
    /// Baseline entries that matched nothing (must be deleted).
    pub stale: Vec<String>,
}

impl Report {
    /// Whether the tree is clean: no fresh violations.
    pub fn is_clean(&self) -> bool {
        self.fresh.is_empty()
    }

    /// Baseline keys for every current violation (fresh and baselined) —
    /// what `--write-baseline` persists.
    pub fn all_violation_keys(&self) -> BTreeSet<String> {
        self.fresh
            .iter()
            .chain(self.baselined.iter())
            .map(Diagnostic::baseline_key)
            .collect()
    }
}

/// A lint run failure (I/O, not a rule violation).
#[derive(Debug)]
pub struct Error {
    /// What the run was touching when it failed.
    pub context: String,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.context, self.source)
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> Error {
    let context = context.into();
    move |source| Error { context, source }
}

/// Per-file suppression comments, keyed by workspace-relative path.
type SuppressionMap = BTreeMap<String, Vec<Suppression>>;

/// Scans and parses every workspace file; the shared front half of
/// [`run`] and [`write_api_locks`].
fn scan(config: &Config) -> Result<(Vec<ParsedFile>, SuppressionMap, Vec<Diagnostic>), Error> {
    let files = walk::workspace_files(&config.root)
        .map_err(io_err(format!("walking {}", config.root.display())))?;

    let mut parsed = Vec::new();
    let mut suppressions = BTreeMap::new();
    let mut diags = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(&file.abs)
            .map_err(io_err(format!("reading {}", file.abs.display())))?;
        let rel = file.rel.replace('\\', "/");
        let analysis = analyze::analyze_file(&rel, &src);
        diags.extend(analysis.diags);
        suppressions.insert(rel.clone(), analysis.suppressions);
        let tree = items::parse_items(&rel, &src);
        let fns = exprs::parse_fns(&rel, &src);
        parsed.push(ParsedFile {
            rel,
            src,
            tree,
            fns,
        });
    }
    Ok((parsed, suppressions, diags))
}

/// Scans the workspace and partitions the results against the baseline.
pub fn run(config: &Config) -> Result<Report, Error> {
    let bl = Baseline::load(&config.baseline_path).map_err(io_err(format!(
        "reading {}",
        config.baseline_path.display()
    )))?;
    let (parsed, suppressions, mut diags) = scan(config)?;

    for file in &parsed {
        diags.extend(semantic::check_raw_f64(file));
        diags.extend(semantic::check_layering_uses(file));
        diags.extend(semantic::check_unordered_float_reduce(file));
        diags.extend(semantic::check_rng_stream_discipline(file));
    }
    if let Some(hot) = semantic::load_hotpaths(&config.root) {
        let graph = semantic::build_call_graph(&parsed);
        diags.extend(semantic::check_alloc_in_hot_path(&parsed, &graph, &hot));
    }
    diags.extend(
        semantic::check_layering_manifests(&config.root).map_err(io_err(format!(
            "reading manifests under {}",
            config.root.display()
        )))?,
    );
    diags.extend(semantic::check_api_lock(&parsed, &config.root));

    // Suppressions are per source file; diagnostics anchored elsewhere
    // (Cargo.toml, api-lock.txt) have no suppression scope by design.
    for d in &mut diags {
        d.path = d.path.replace('\\', "/");
    }
    diags.retain(|d| {
        !(d.rule.suppressible()
            && suppressions.get(&d.path).is_some_and(|supps| {
                supps
                    .iter()
                    .any(|s| s.rule == d.rule && (d.line == s.line || d.line == s.line + 1))
            }))
    });
    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    let (fresh, baselined, stale) = bl.partition(diags);
    Ok(Report {
        files_checked: parsed.len(),
        fresh,
        baselined,
        stale,
    })
}

/// Regenerates every crate's `api-lock.txt` from the current public
/// surface. Returns the written paths.
pub fn write_api_locks(config: &Config) -> Result<Vec<PathBuf>, Error> {
    let (parsed, _, _) = scan(config)?;
    semantic::write_api_locks(&parsed, &config.root).map_err(io_err(format!(
        "writing api-lock files under {}",
        config.root.display()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn config_defaults_baseline_under_root() {
        let c = Config::new("/ws");
        assert_eq!(c.baseline_path, Path::new("/ws/lint-baseline.txt"));
    }
}

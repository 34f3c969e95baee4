//! Shared experiment harnesses behind the Criterion benches.
//!
//! Every table and figure of the paper has a bench target that (a) prints
//! the regenerated rows/series and (b) times the underlying kernel. The
//! figure/table assembly lives here so the integration tests and examples
//! can reuse it.

#![forbid(unsafe_code)]
#![allow(
    clippy::print_stdout,
    reason = "the bench harness is a reporting tool whose whole job is terminal output"
)]

pub mod fig8;
pub mod ladder;
pub mod report;

pub use fig8::{fig8_measured_series, fig8_published_points, Fig8Point};
pub use ladder::thread_ladder;

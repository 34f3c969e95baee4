//! The deterministic parallel sweep engine shared by every experiment in
//! this crate.
//!
//! All Monte Carlo and sweep experiments ([`crate::montecarlo`],
//! [`crate::shmoo`], [`crate::bathtub`], [`crate::bundle`]) are
//! embarrassingly parallel across trials: each die / shmoo cell / rate
//! point is a pure function of the experiment seed and the trial index,
//! thanks to the counter-based RNG streams in
//! [`srlr_tech::MonteCarlo::die_rng`] and
//! [`crate::Prbs::prbs15_for_stream`]. That makes parallelism a pure
//! scheduling concern:
//!
//! * [`par_map_indexed`] evaluates `f(0..n)` on a worker pool and always
//!   returns results in index order, so parallel output is **bit-identical**
//!   to the serial loop at every thread count (enforced by tests at 1, 2,
//!   and 8 threads).
//! * [`resolve_threads`] picks the worker count: an explicit request wins,
//!   then the `SRLR_THREADS` environment variable, then the machine's
//!   available parallelism. `1` (or a single-item workload) degenerates to
//!   a plain serial loop with no thread overhead.
//!
//! Every experiment maps exactly one die, shmoo cell or bathtub
//! `(rate, seed)` cell per work item, so the thread count is the only
//! scheduling knob.
//!
//! # Examples
//!
//! ```
//! use srlr_link::engine;
//!
//! let serial: Vec<u64> = (0..100u64).map(|i| i * i).collect();
//! let parallel = engine::par_map_indexed(100, 4, |i| (i as u64) * (i as u64));
//! assert_eq!(serial, parallel);
//! ```

pub use srlr_parallel::{
    available_threads, par_count, par_map_indexed, resolve_threads, THREADS_ENV,
};

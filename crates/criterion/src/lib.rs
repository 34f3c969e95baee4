//! A hermetic stand-in for the `criterion` bench harness.
//!
//! This workspace must build with no network and no vendored registry
//! crates, so the real statistics-heavy `criterion` cannot be a
//! dependency. The bench targets only use a narrow slice of its API —
//! `Criterion::default().sample_size(n)`, `bench_function`, `Bencher::
//! iter`, and the `criterion_group!`/`criterion_main!` macros — which
//! this crate reimplements over `std::time::Instant`: each benchmark
//! closure is warmed up once, timed for `sample_size` samples, and
//! reported as min/mean/max wall-clock per iteration.
//!
//! The numbers are honest wall-clock measurements but carry none of
//! criterion's outlier rejection or regression analysis; if the real
//! crate ever becomes available the workspace dependency can be pointed
//! back at it without touching any bench source.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "the timing shim is where wall-clock reads belong"
)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The benchmark driver: configuration plus result reporting.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets how many timed samples each benchmark records.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one named benchmark and prints its timing line.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut bencher);
        report(id, &bencher.samples);
        self
    }
}

/// Hands the benchmark closure to the timing loop.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine` for the configured number of samples (after one
    /// untimed warm-up call). The routine's return value is passed
    /// through [`black_box`] so the optimiser cannot delete the work.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        black_box(routine());
        self.samples = (0..self.sample_size)
            .map(|_| {
                let start = Instant::now();
                black_box(routine());
                start.elapsed()
            })
            .collect();
    }
}

#[expect(
    clippy::print_stdout,
    reason = "the criterion shim IS the bench reporter; its one job is terminal output"
)]
fn report(id: &str, samples: &[Duration]) {
    if samples.is_empty() {
        println!("{id:<44} (no samples)");
        return;
    }
    let (Some(min), Some(max)) = (samples.iter().min(), samples.iter().max()) else {
        return; // unreachable: the empty case returned above
    };
    #[expect(
        clippy::cast_possible_truncation,
        reason = "Duration division takes u32; sample counts are bench iteration counts, far below 4e9"
    )]
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    println!(
        "{id:<44} time: [{} {} {}]",
        human(*min),
        human(mean),
        human(*max)
    );
}

fn human(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// Declares a bench group function, mirroring criterion's two macro
/// forms (`criterion_group!(name, targets...)` and the
/// `name = ...; config = ...; targets = ...` long form).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        /// Runs every target of this bench group.
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_warmup_plus_samples() {
        let mut calls = 0usize;
        Criterion::default()
            .sample_size(5)
            .bench_function("counter", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 6, "one warm-up plus five samples");
    }

    #[test]
    fn sample_size_is_applied() {
        let mut calls = 0usize;
        Criterion::default()
            .sample_size(2)
            .bench_function("small", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 3);
    }

    #[test]
    #[should_panic(expected = "sample size")]
    fn zero_sample_size_rejected() {
        let _ = Criterion::default().sample_size(0);
    }

    #[test]
    fn human_units() {
        assert_eq!(human(Duration::from_nanos(12)), "12 ns");
        assert_eq!(human(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(human(Duration::from_secs(2)), "2.00 s");
    }

    criterion_group!(sample_group, smoke);

    fn smoke(c: &mut Criterion) {
        c.bench_function("smoke", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn macro_group_invokes_targets() {
        sample_group();
    }
}

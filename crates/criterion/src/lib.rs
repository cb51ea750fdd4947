//! Offline stand-in for the `criterion` crate.
//!
//! Implements just enough of criterion's API for this workspace's bench
//! targets to compile and produce useful timing lines: `Criterion`,
//! benchmark groups, `BenchmarkId`, `Bencher::iter` / `iter_batched`,
//! `black_box`, and the `criterion_group!`/`criterion_main!` macros.
//! Statistics are a simple mean over `sample_size` samples; when invoked
//! by `cargo test` (`--test` in the args) each benchmark runs a single
//! sample as a smoke check, mirroring criterion's test mode.

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting the
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier for one parameterized benchmark.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Just the parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Per-iteration timer handed to benchmark closures.
pub struct Bencher {
    samples: usize,
    elapsed: Vec<Duration>,
}

impl Bencher {
    /// Run `f` once per sample, timing each call.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            self.elapsed.push(t0.elapsed());
        }
    }
}

/// How many inputs `iter_batched` prepares per timed batch (the
/// stand-in has the one size its callers use).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs are cheap to hold: many per batch.
    SmallInput,
}

const BATCH: usize = 1000;

impl Bencher {
    /// Time `routine` on inputs made by `setup`, which is not timed:
    /// each sample prepares a batch of inputs, times the loop over them
    /// and records the time per call (so sub-microsecond routines are
    /// not drowned by the clock reads).
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        for _ in 0..self.samples {
            let inputs: Vec<I> = (0..BATCH).map(|_| setup()).collect();
            let t0 = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            self.elapsed.push(t0.elapsed() / BATCH as u32);
        }
    }
}

/// Top-level harness state.
pub struct Criterion {
    sample_size: usize,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion {
            sample_size: 20,
            test_mode,
        }
    }
}

fn report(label: &str, elapsed: &[Duration]) {
    if elapsed.is_empty() {
        println!("{label:40} (no samples)");
        return;
    }
    let total: Duration = elapsed.iter().sum();
    let mean = total / elapsed.len() as u32;
    let min = elapsed.iter().min().unwrap();
    let max = elapsed.iter().max().unwrap();
    println!(
        "{label:40} mean {mean:>12.3?}   min {min:>12.3?}   max {max:>12.3?}   ({} samples)",
        elapsed.len()
    );
}

impl Criterion {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    fn effective_samples(&self) -> usize {
        if self.test_mode {
            1
        } else {
            self.sample_size
        }
    }

    /// Run one named benchmark.
    pub fn bench_function(&mut self, name: impl std::fmt::Display, f: impl FnMut(&mut Bencher)) {
        run_one(&name.to_string(), self.effective_samples(), f);
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
        }
    }
}

fn run_one(label: &str, samples: usize, mut f: impl FnMut(&mut Bencher)) {
    let mut b = Bencher {
        samples,
        elapsed: Vec::new(),
    };
    f(&mut b);
    report(label, &b.elapsed);
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark in the group.
    pub fn bench_function(&mut self, id: impl std::fmt::Display, f: impl FnMut(&mut Bencher)) {
        let label = format!("{}/{}", self.name, id);
        run_one(&label, self.parent.effective_samples(), f);
    }

    /// Run one benchmark with an input parameter.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let label = format!("{}/{}", self.name, id);
        run_one(&label, self.parent.effective_samples(), |b| f(b, input));
    }

    /// Finish the group (no-op; kept for API compatibility).
    pub fn finish(self) {}
}

/// Bundle benchmark functions under one group name with a shared config.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            $(
                let mut c: $crate::Criterion = $config;
                $target(&mut c);
            )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Entry point running every group.
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
    fn bencher_times_each_sample() {
        let mut c = Criterion::default().sample_size(3);
        // In test mode (`cargo test` passes --test) only 1 sample runs;
        // otherwise 3. Either way the closure must run at least once.
        let mut runs = 0;
        c.bench_function("x", |b| b.iter(|| runs += 1));
        assert!(runs >= 1);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("central", 4).to_string(), "central/4");
        assert_eq!(BenchmarkId::from_parameter("lu").to_string(), "lu");
    }
}

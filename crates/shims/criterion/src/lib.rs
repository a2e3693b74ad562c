//! Offline stand-in for `criterion`.
//!
//! Implements the `benchmark_group` API over a plain wall-clock timer.
//! Because `cargo test` executes `harness = false` bench binaries, the
//! default mode is **smoke**: each benchmark body runs once, verifying
//! it doesn't panic, and reports nothing. Set `CRITERION_FULL=1` to get
//! timed runs with a mean-per-iteration report (no statistics beyond
//! that — this is a shim, not a measurement tool).

use std::time::Instant;

/// Re-exported for drop-in compatibility with `criterion::black_box`.
pub use std::hint::black_box;

/// Top-level benchmark driver, handed to each `criterion_group!` target.
pub struct Criterion {
    full: bool,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            full: std::env::var_os("CRITERION_FULL").is_some(),
        }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 100,
            throughput: None,
        }
    }
}

/// Throughput annotation for a benchmark (reported in full mode).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Identifier combining a function name and a parameter value.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{parameter}", function_name.into()),
        }
    }
}

/// A named group of benchmarks; see [`Criterion::benchmark_group`].
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Iterations per timed sample in full mode (ignored in smoke mode).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(name.into(), |b| f(b));
        self
    }

    /// Run one benchmark that closes over an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.id.clone(), |b| f(b, input));
        self
    }

    /// End the group.
    pub fn finish(self) {}

    fn run(&mut self, name: String, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            iters: if self.criterion.full {
                self.sample_size as u64
            } else {
                1
            },
            elapsed_ns: 0,
        };
        f(&mut bencher);
        if self.criterion.full && bencher.iters > 0 {
            let per_iter = bencher.elapsed_ns / bencher.iters as u128;
            let rate = match self.throughput {
                Some(Throughput::Bytes(bytes)) if per_iter > 0 => {
                    let gib_s = bytes as f64 / (per_iter as f64 / 1e9) / (1u64 << 30) as f64;
                    format!("  {gib_s:.3} GiB/s")
                }
                Some(Throughput::Elements(n)) if per_iter > 0 => {
                    let elem_s = n as f64 / (per_iter as f64 / 1e9);
                    format!("  {elem_s:.0} elem/s")
                }
                _ => String::new(),
            };
            println!("{}/{name}: {per_iter} ns/iter{rate}", self.name);
        }
    }
}

/// Runs the benchmark body; handed to the closure of `bench_function`.
pub struct Bencher {
    iters: u64,
    elapsed_ns: u128,
}

impl Bencher {
    /// Time `f` over this bencher's iteration budget.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed_ns = start.elapsed().as_nanos();
    }
}

/// Declare a group-of-benchmarks function list.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declare the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_each_body_once() {
        let mut calls = 0u32;
        let mut c = Criterion { full: false };
        let mut group = c.benchmark_group("g");
        group.bench_function("one", |b| b.iter(|| calls += 1));
        group.bench_with_input(BenchmarkId::new("two", 7), &7u32, |b, &x| {
            b.iter(|| calls += x)
        });
        group.finish();
        assert_eq!(calls, 8);
    }
}

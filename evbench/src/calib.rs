//! Host-speed calibration.
//!
//! A shared virtual machine runs the same code at speeds that swing by
//! up to 2× within a second, each virtual CPU on its own, and not all
//! code alike: dense floating-point loops slow down most, latency-bound
//! scalar chains least. A run therefore times fixed micro-kernels of the
//! workload's kind, which do not depend on the program under test, on
//! the CPUs the workload runs on, and scales each time slice's times by
//! how much slower than [`REFERENCE_S`] the kernels ran around it. A
//! fleet run, pinned to one CPU with [`Pin`], calibrates between slices
//! of 50 ms; a sweep round, which keeps every CPU busy, is [`sampled`]
//! while it runs. Every time metric is thus reported at the reference
//! host speed; the raw figures are printed beside it.

use std::hint::black_box;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Median seconds of each kernel (`gemm`, `chol`, `scalar`) on a quiet
/// 2-vCPU Intel Xeon host.
const REFERENCE_S: [f64; 3] = [0.22e-3, 0.23e-3, 0.196e-3];

/// Dense 32×32 matrix products: throughput-bound floating point, like the
/// QP's KKT assembly.
fn gemm() -> f64 {
    const N: usize = 32;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.1).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 5) as f64 * 0.2).collect();
    let mut c = vec![0.0; N * N];
    for _ in 0..8 {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        black_box(&mut c);
    }
    c[N * N - 1]
}

/// Cholesky factorisations of a 48×48 SPD matrix: the QP's factor step.
fn chol() -> f64 {
    const N: usize = 48;
    let mut acc = 0.0;
    for r in 0..20 {
        let mut a = vec![0.0f64; N * N];
        for i in 0..N {
            for j in 0..N {
                let d = if i == j {
                    N as f64 + f64::from(r) * 1e-9
                } else {
                    0.0
                };
                a[i * N + j] = 1.0 / (1.0 + (i as f64 - j as f64).abs()) + d;
            }
        }
        for j in 0..N {
            let mut d = a[j * N + j];
            for k in 0..j {
                d -= a[j * N + k] * a[j * N + k];
            }
            let d = d.sqrt();
            a[j * N + j] = d;
            for i in j + 1..N {
                let mut s = a[i * N + j];
                for k in 0..j {
                    s -= a[i * N + k] * a[j * N + k];
                }
                a[i * N + j] = s / d;
            }
        }
        acc += black_box(a[N * N - 1]);
    }
    acc
}

/// A dependent chain of exponentials, roots and divisions, like a plant
/// model's step.
fn scalar() -> f64 {
    let mut x = 0.3f64;
    let mut v = 1.0f64;
    for i in 0..5_000u32 {
        let e = (-(x * 0.01)).exp();
        v = v * 0.999 + e.sqrt() / (1.0 + x * x);
        x = black_box(x + 1e-4 * f64::from(i & 7) - v * 1e-5);
    }
    x + v
}

const KERNELS: [fn() -> f64; 3] = [gemm, chol, scalar];

/// Which kernels stand for a kind of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Work {
    /// Dense linear algebra (the MPC's QP): `gemm` and `chol`.
    Dense,
    /// Scalar model arithmetic (the plant): `chol` and `scalar`.
    Scalar,
}

impl Work {
    fn kernels(self) -> [usize; 2] {
        match self {
            Work::Dense => [0, 1],
            Work::Scalar => [1, 2],
        }
    }
}

/// How many times slower than the reference host `work`'s kernels run on
/// this thread: the mean of the kernels' time ratios, each the median of
/// three interleaved timings.
pub(crate) fn slowdown(work: Work) -> f64 {
    timed_slowdown(work, 3)
}

/// [`slowdown`] from the median of `reps` timings of each kernel.
fn timed_slowdown(work: Work, reps: usize) -> f64 {
    let ks = work.kernels();
    let mut ratios = ks.map(|_| Vec::with_capacity(reps));
    for _ in 0..reps {
        for (r, &k) in ratios.iter_mut().zip(&ks) {
            let start = Instant::now();
            black_box(KERNELS[k]());
            r.push(start.elapsed().as_secs_f64() / REFERENCE_S[k]);
        }
    }
    let medians = ratios.map(|mut r| {
        r.sort_by(f64::total_cmp);
        r[r.len() / 2]
    });
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// How often [`sampled`] times the kernels.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Runs `f` while one background thread per CPU, pinned to it, times
/// `work`'s kernels once every [`SAMPLE_EVERY`], and returns `f`'s
/// result with the mean slowdown of all samples: the mean speed of the
/// CPUs `f` keeps busy. Sampling costs about 1 % of each CPU.
pub(crate) fn sampled<R>(work: Work, f: impl FnOnce() -> R) -> (R, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let samplers: Vec<_> = allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let stop = &stop;
                s.spawn(move || {
                    let _pin = Pin::to(cpu);
                    let mut samples = Vec::new();
                    loop {
                        std::thread::sleep(SAMPLE_EVERY);
                        samples.push(timed_slowdown(work, 1));
                        if stop.load(Ordering::Relaxed) {
                            return samples;
                        }
                    }
                })
            })
            .collect();
        let out = f();
        stop.store(true, Ordering::Relaxed);
        let samples: Vec<f64> = samplers
            .into_iter()
            .flat_map(|h| h.join().expect("calibration kernels do not panic"))
            .collect();
        (out, samples.iter().sum::<f64>() / samples.len() as f64)
    })
}

/// The CPUs the calling thread may run on, from `Cpus_allowed_list`
/// (empty when it cannot be read).
fn allowed_cpus() -> Vec<usize> {
    let list = std::fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|l| l.trim().to_owned())
        })
        .unwrap_or_default();
    list.split(',')
        .filter_map(|range| {
            let (a, b) = range.split_once('-').unwrap_or((range, range));
            Some(a.parse::<usize>().ok()?..=b.parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// The calling thread pinned to one CPU with `taskset`, so that it and
/// every thread it spawns while pinned run on the CPU a calibration on
/// this thread measures. Dropping it restores the thread's CPU list.
pub(crate) struct Pin {
    tid: String,
    allowed: String,
    /// The CPU pinned to, or `None` when pinning was not possible.
    pub(crate) cpu: Option<usize>,
}

impl Pin {
    /// Pins the calling thread to the highest-numbered CPU it may use.
    pub(crate) fn last_cpu() -> Self {
        Self::to(allowed_cpus().last().copied().unwrap_or(0))
    }

    /// Pins the calling thread to `cpu`.
    fn to(cpu: usize) -> Self {
        let tid = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| Some(p.file_name()?.to_str()?.to_owned()))
            .unwrap_or_default();
        let allowed = allowed_cpus()
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let pinned = !tid.is_empty() && !allowed.is_empty() && taskset(&cpu.to_string(), &tid);
        Self {
            tid,
            allowed,
            cpu: pinned.then_some(cpu),
        }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if self.cpu.is_some() {
            taskset(&self.allowed, &self.tid);
        }
    }
}

/// Sets the CPU list of thread `tid`; whether that worked.
fn taskset(cpus: &str, tid: &str) -> bool {
    Command::new("taskset")
        .args(["-p", "-c", cpus, tid])
        .output()
        .is_ok_and(|o| o.status.success())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic() {
        for k in KERNELS {
            assert_eq!(k().to_bits(), k().to_bits());
        }
    }

    #[test]
    fn slowdown_is_positive_and_sampling_returns_the_result() {
        for work in [Work::Dense, Work::Scalar] {
            let s = slowdown(work);
            assert!(s > 0.0 && s.is_finite(), "{work:?}: {s}");
            let (out, s) = sampled(work, || 7);
            assert_eq!(out, 7);
            assert!(s > 0.0 && s.is_finite(), "{work:?} sampled: {s}");
        }
    }

    #[test]
    fn allowed_cpus_lists_every_cpu_once() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        assert!(cpus.windows(2).all(|w| w[0] < w[1]), "{cpus:?}");
    }

    #[test]
    fn pinning_is_undone_on_drop() {
        let before = std::fs::read_to_string("/proc/thread-self/status").ok();
        let allowed = |s: &Option<String>| {
            s.as_ref().and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("Cpus_allowed_list:"))
                    .map(str::to_owned)
            })
        };
        {
            let pin = Pin::last_cpu();
            if let Some(cpu) = pin.cpu {
                let now = std::fs::read_to_string("/proc/thread-self/status").ok();
                assert_eq!(
                    allowed(&now)
                        .as_deref()
                        .map(str::split_whitespace)
                        .and_then(|mut w| w.nth(1)),
                    Some(cpu.to_string().as_str())
                );
            }
        }
        let after = std::fs::read_to_string("/proc/thread-self/status").ok();
        assert_eq!(allowed(&before), allowed(&after));
    }
}

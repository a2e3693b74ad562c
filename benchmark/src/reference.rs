//! The host-speed gauge. The benchmark runs on shared hosts whose
//! single-core speed drifts by a third within minutes, as neighbours
//! load the cores and caches the host shares. A fixed reference
//! computation, timed right beside each measured section, tells how fast
//! the host ran then. The time metrics of the CPU-bound workloads are
//! scaled by it to the reference speed, which cancels the drift and
//! keeps every change in the program's own speed.
//!
//! The reference computation is the benchmark's own code, not the
//! program's, so no change to the program moves it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Events one reference slice processes.
const SLICE_EVENTS: u32 = 60_000;
/// Words of reference state: 4 MiB, near the simulated workloads' hot
/// working set, so cache contention slows the slice as it slows them.
const STATE_WORDS: usize = 1 << 19;
/// Pending events in the reference queue.
const QUEUE_LEN: u64 = 4096;
/// Seconds one slice takes at the reference speed: about its time on an
/// unloaded vCPU of a 2-vCPU Xeon virtual machine. Scaled times read in
/// seconds at that speed.
pub const NOMINAL_SLICE_S: f64 = 0.013;

/// splitmix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times reference slices. Its state is allocated on the first slice and
/// kept, so every slice does the same work on resident memory.
#[derive(Debug, Default)]
pub struct Gauge {
    state: Vec<u64>,
}

impl Gauge {
    /// A gauge that has not run yet and holds no memory.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Run one reference slice: a small discrete-event loop of heap pops
    /// and pushes, random state updates and short-lived allocations, the
    /// same on every call. Returns its wall seconds.
    pub fn slice(&mut self) -> f64 {
        if self.state.is_empty() {
            self.state = vec![1; STATE_WORDS];
        }
        let t0 = Instant::now();
        std::hint::black_box(run(std::hint::black_box(SLICE_EVENTS), &mut self.state));
        t0.elapsed().as_secs_f64()
    }

    /// MiB the gauge keeps resident (0 before its first slice).
    pub fn resident_mib(&self) -> f64 {
        (self.state.len() * std::mem::size_of::<u64>()) as f64 / f64::from(1 << 20)
    }
}

fn run(events: u32, state: &mut [u64]) -> u64 {
    let mask = state.len() - 1;
    let mut ring: Vec<Vec<u32>> = (0..256).map(|_| Vec::new()).collect();
    let mut queue = BinaryHeap::with_capacity(QUEUE_LEN as usize);
    let mut x = 1u64;
    for id in 0..QUEUE_LEN {
        x = mix(x);
        queue.push(Reverse((x >> 44, id)));
    }
    let mut acc = 0u64;
    for i in 0..events {
        let Reverse((at, id)) = queue.pop().expect("the queue never empties");
        x = mix(x ^ at);
        let slot = x as usize & mask;
        state[slot] = state[slot].wrapping_add(at ^ id);
        if state[slot] & 3 == 0 {
            acc = acc.wrapping_add(state[slot.wrapping_mul(7) & mask]);
        }
        let msg: Vec<u32> = (0..(x >> 58) as u32).collect();
        acc ^= msg.len() as u64;
        ring[i as usize & 255] = msg;
        queue.push(Reverse((at + (x >> 50) + 1, id)));
    }
    acc
}

/// The factor that scales a time measured beside `slices` to the
/// reference speed: nominal over mean slice time, or 1 with no slices
/// (a workload that is not CPU-bound keeps its raw times).
pub fn scale(slices: &[f64]) -> f64 {
    if slices.is_empty() {
        return 1.0;
    }
    NOMINAL_SLICE_S * slices.len() as f64 / slices.iter().sum::<f64>()
}

//! Host-speed calibration: a fixed unit of work that belongs to this
//! benchmark, not to the program under test, timed between slices of
//! the measured work.
//!
//! The host's speed drifts by up to 1.7x and holds a speed state for
//! minutes (see `README.md`), longer than a set of runs. A raw host-time
//! figure therefore moves between two sets of runs of identical code by
//! more than any usable bound. The calibration unit is timed at the same
//! moments as the measured work, so dividing by its duration removes
//! most of the host's speed state (not all: see `README.md`) and keeps
//! what the program's own code costs. A
//! change to the program cannot move the unit: it calls nothing of the
//! program.
//!
//! The unit does two kinds of work the workloads do: a branchy event
//! queue with small-table read-modify-writes (the cycle engine and the
//! serving scans), and f32 multiply-adds (the tensor kernels). Its data
//! is touched, untimed, just before it is timed and fits in L1, so a
//! unit's duration depends on the host's speed and not on what the
//! measured work left in the caches. A part that walked a buffer in L2
//! or beyond was tried and dropped: its duration moved with the measured
//! work's own footprint, and it tracked the workloads' speed worse than
//! the core-bound parts (see `README.md`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::out::median;

/// The reference host runs one calibration unit in exactly this long.
/// Host-time metrics are reported as measured on such a host.
pub const UNIT_REF_S: f64 = 1e-3;
/// Measured work between two calibration units in the timed phase, so
/// units sample the host's speed evenly at about 2% overhead.
const INTERVAL_S: f64 = 0.05;
/// Units run before and after each set-up repetition.
const BURST: usize = 8;

const TABLE: usize = 1 << 12;
const QUEUE: usize = 64;
const STEPS: usize = 12_000;
const VECTOR: usize = 256;
const DOTS: usize = 16_000;

/// Times calibration units and keeps their durations.
pub struct HostSpeed {
    table: Vec<u64>,
    queue: BinaryHeap<Reverse<u64>>,
    xs: Vec<f32>,
    ys: Vec<f32>,
    state: u64,
    samples: Vec<[f64; 2]>,
    last: Instant,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut state = 0x2545_F491_4F6C_DD1D;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let table = (0..TABLE).map(|_| next()).collect();
        let queue = (0..QUEUE).map(|_| Reverse(next() & 0xFFFF)).collect();
        let xs = (0..VECTOR)
            .map(|_| (next() % 1000) as f32 / 1000.0)
            .collect();
        let ys = (0..VECTOR)
            .map(|_| (next() % 1000) as f32 / 1000.0)
            .collect();
        Self {
            table,
            queue,
            xs,
            ys,
            state,
            samples: Vec::new(),
            last: Instant::now(),
        }
    }

    /// One calibration unit; returns the seconds each part took (event
    /// queue and table, multiply-adds).
    fn unit(&mut self) -> [f64; 2] {
        for w in self.table.iter_mut() {
            *w = black_box(*w);
        }
        black_box(self.queue.peek());
        let start = Instant::now();
        let mut s = self.state;
        for _ in 0..STEPS {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let i = (s as usize) & (TABLE - 1);
            self.table[i] = self.table[i].wrapping_add(s) ^ self.table[(i + 1) & (TABLE - 1)];
            let Reverse(t) = self.queue.pop().expect("the queue is never empty");
            let t = if s & 4 == 0 { t + (s & 1023) } else { t + 7 };
            self.queue.push(Reverse(t));
        }
        self.state = s;
        let queue_done = Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..DOTS {
            let mut lanes = [0.0f32; 8];
            for (a, b) in black_box(&self.xs)
                .chunks_exact(8)
                .zip(self.ys.chunks_exact(8))
            {
                for k in 0..8 {
                    lanes[k] += a[k] * b[k];
                }
            }
            acc += lanes.iter().sum::<f32>();
        }
        black_box((acc, &self.table, &self.queue));
        [
            (queue_done - start).as_secs_f64(),
            queue_done.elapsed().as_secs_f64(),
        ]
    }

    /// Whether [`INTERVAL_S`] of measured work has passed since the last
    /// sample.
    pub fn due(&self) -> bool {
        self.last.elapsed().as_secs_f64() >= INTERVAL_S
    }

    /// Runs and keeps one unit; returns the seconds it took, which the
    /// caller leaves out of its work time.
    pub fn sample(&mut self) -> f64 {
        let parts = self.unit();
        self.samples.push(parts);
        self.last = Instant::now();
        parts.iter().sum()
    }

    /// Starts a new sampling window: forgets earlier samples.
    pub fn restart(&mut self) {
        self.samples.clear();
        self.last = Instant::now();
    }

    /// Median unit duration over [`BURST`] units, outside any window.
    pub fn burst(&mut self) -> f64 {
        let units: Vec<f64> = (0..BURST).map(|_| self.unit().iter().sum()).collect();
        median(&units)
    }

    /// Samples taken in the current window.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// How much slower than the reference host this host ran over the
    /// current window: the median unit duration over [`UNIT_REF_S`]. The
    /// median, because a unit that a momentary stall of a few
    /// milliseconds hits says little about the speed the measured work
    /// saw; a speed state that lasts seconds moves the median.
    pub fn slowdown(&self) -> f64 {
        median(&self.totals()) / UNIT_REF_S
    }

    fn totals(&self) -> Vec<f64> {
        self.samples.iter().map(|p| p.iter().sum()).collect()
    }

    /// The window's unit durations in µs: mean and median of each part
    /// and of the whole unit.
    pub fn summary(&self) -> String {
        let stats = |v: Vec<f64>| {
            let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
            (mean * 1e6, median(&v) * 1e6)
        };
        let (unit, queue, dots) = (
            stats(self.totals()),
            stats(self.samples.iter().map(|p| p[0]).collect()),
            stats(self.samples.iter().map(|p| p[1]).collect()),
        );
        format!(
            "calibration units (us, mean/median): unit {:.1}/{:.1}, queue {:.1}/{:.1}, dots {:.1}/{:.1}",
            unit.0, unit.1, queue.0, queue.1, dots.0, dots.1
        )
    }
}

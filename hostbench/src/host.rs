//! Host-speed correction.
//!
//! The benchmark host switches between throughput modes up to 1.8× apart,
//! each lasting from under a second to tens of seconds, so a raw wall
//! time says as much about the host's mode as about the program. Every
//! timed segment is therefore bracketed by readings of a fixed reference
//! loop, and reported as `wall ÷ mean(reading before, reading after) ×`
//! [`NOMINAL_REF_S`]: seconds on a host whose reference reading is the
//! nominal one.
//!
//! **Frozen.** The body of [`reference_loop`], its tables and iteration
//! counts, [`REF_CALLS`] and [`NOMINAL_REF_S`] define the unit every time
//! metric is expressed in. Changing any of them re-baselines every time
//! metric of every workload, so a change to them is its own benchmark
//! change.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Reference-loop calls per reading; the reading is their median.
pub const REF_CALLS: usize = 3;

/// The frozen nominal duration of one reference-loop call, in seconds.
/// Corrected times are scaled to a host whose reading equals this.
pub const NOMINAL_REF_S: f64 = 0.002;

/// Entries of the pointer-chase cycle (256 KiB of `u32`).
const CHASE_LEN: usize = 1 << 16;
/// Entries of the sorted search table (2 MiB of `u64`).
const SEARCH_LEN: usize = 1 << 18;

/// The reference loop's fixed tables: one random cycle through
/// `CHASE_LEN` slots, and a sorted table to binary-search.
struct Tables {
    chase: Vec<u32>,
    sorted: Vec<u64>,
}

fn lcg(s: &mut u64) -> u64 {
    *s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    *s >> 33
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut s = 0x5EED;
        let mut order: Vec<u32> = (0..CHASE_LEN as u32).collect();
        for i in (1..CHASE_LEN).rev() {
            order.swap(i, lcg(&mut s) as usize % (i + 1));
        }
        let mut chase = vec![0u32; CHASE_LEN];
        for (k, &slot) in order.iter().enumerate() {
            chase[slot as usize] = order[(k + 1) % CHASE_LEN];
        }
        let sorted = (0..SEARCH_LEN as u64).map(|i| i << 16).collect();
        Tables { chase, sorted }
    })
}

/// The frozen reference loop, one call. Its three parts load the host
/// the way the workloads do, in about equal shares of its time: packed
/// f32 multiply-adds (training kernels), a dependent-load walk over
/// 256 KiB (the simulators' pointer-heavy state) and branchy binary
/// searches over 2 MiB (lookups). An integer-multiply loop alone was
/// tried first: it slowed by 1.1× where the workloads slowed by 1.7×.
pub fn reference_loop() -> u64 {
    let t = tables();
    let mut x = [0.5f32; 64];
    for _ in 0..black_box(1u32 << 17) {
        for (lane, v) in x.iter_mut().enumerate() {
            *v = *v * 0.999_9 + lane as f32 * 1e-6;
        }
    }
    let mut at = 0u32;
    for _ in 0..black_box(1u32 << 16) {
        at = t.chase[at as usize];
    }
    let mut s = u64::from(at);
    let mut found = 0usize;
    for _ in 0..black_box(1u32 << 14) {
        found += t.sorted.partition_point(|&v| v < lcg(&mut s) >> 15);
    }
    x.iter().map(|v| v.to_bits() as u64).sum::<u64>() ^ u64::from(at) ^ found as u64
}

/// One reference reading: the median wall time of [`REF_CALLS`] calls of
/// [`reference_loop`], in seconds.
pub fn ref_reading() -> f64 {
    let mut calls: Vec<f64> = (0..REF_CALLS)
        .map(|_| {
            let t = Instant::now();
            black_box(reference_loop());
            t.elapsed().as_secs_f64()
        })
        .collect();
    calls.sort_by(f64::total_cmp);
    calls[calls.len() / 2]
}

/// One bracketed segment: its wall time and the reference readings taken
/// immediately before and after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bracketed {
    /// Raw wall time of the segment, in seconds.
    pub wall_s: f64,
    /// Reference reading just before the segment, in seconds.
    pub ref_before_s: f64,
    /// Reference reading just after the segment, in seconds.
    pub ref_after_s: f64,
}

impl Bracketed {
    /// The segment's duration in nominal-host seconds.
    pub fn corrected_s(&self) -> f64 {
        self.wall_s * self.factor()
    }

    /// Nominal-host seconds per wall second during this segment.
    pub fn factor(&self) -> f64 {
        NOMINAL_REF_S / ((self.ref_before_s + self.ref_after_s) / 2.0)
    }
}

/// Runs timed segments back to back, each bracketed by reference
/// readings; the reading after one segment is the reading before the
/// next, so consecutive segments share it.
#[derive(Debug, Default)]
pub struct Corrector {
    last_reading: Option<f64>,
    readings: Vec<f64>,
}

impl Corrector {
    /// A corrector with no readings yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f` between two reference readings.
    pub fn bracket<T>(&mut self, f: impl FnOnce() -> T) -> (T, Bracketed) {
        let before = match self.last_reading {
            Some(r) => r,
            None => self.read(),
        };
        let t = Instant::now();
        let out = f();
        let wall_s = t.elapsed().as_secs_f64();
        let after = self.read();
        (out, Bracketed { wall_s, ref_before_s: before, ref_after_s: after })
    }

    /// Every reading taken so far, in seconds.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }

    fn read(&mut self) -> f64 {
        let r = ref_reading();
        self.readings.push(r);
        self.last_reading = Some(r);
        r
    }
}

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

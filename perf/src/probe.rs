//! The host-speed probe: a control variate for every wall-clock metric.
//!
//! The reference host is two vCPUs of a shared machine. When a neighbour
//! is busy on the same physical cores, throughput-bound code runs up to
//! 1.8x slower for minutes at a time, and every workload's seconds per
//! operation follow (the medians of ten 20 s runs of the same code lie 20 %
//! apart, whatever statistic of the run is taken). The probe times a fixed,
//! benchmark-owned loop between operations, while the process is idle, and
//! each operation's seconds are scaled by
//!
//! ```text
//! (QUIET_SECONDS / around) ^ SENSITIVITY
//! ```
//!
//! where `around` is the loop's time next to that operation and
//! `QUIET_SECONDS` its time on the undisturbed reference host. The result is
//! seconds as the reference host runs the operation when it has its cores to
//! itself. (The quiet level cannot be taken from the run's own samples: a
//! neighbour can stay busy for a whole run.)
//!
//! The factor depends on the host and on this file only — never on the
//! program measured — so it is the same random variable on both sides of a
//! comparison: it cannot favour either, whatever `SENSITIVITY` is. The
//! exponent only decides how much of the host's noise is removed.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// How strongly an operation slows when the loop does: operations are part
/// latency-bound (unaffected by a busy neighbour) and part throughput-bound
/// (affected like the loop). Fitted per workload on recorded runs of the
/// seed commit it is 0.3-0.6; this one value brought the spread of ten runs
/// from 5-22 % to 4-11 % (`README.md`). 0 switches the correction off.
pub const SENSITIVITY: f64 = 0.4;

/// The loop's seconds on the undisturbed reference host.
pub const QUIET_SECONDS: f64 = 0.74e-3;

const LANES: usize = 8;
const LEN: usize = 2048;
const PASSES: usize = 2400;

/// Samples of the loop, in the order taken. Consecutive samples bound a
/// *slot*; whatever runs between them is corrected by the samples around.
pub struct Probe {
    a: Vec<f64>,
    b: Vec<f64>,
    samples: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            a: (0..LEN).map(|i| 1.0 + i as f64 * 1e-6).collect(),
            b: (0..LEN).map(|i| 0.5 + i as f64 * 1e-7).collect(),
            samples: Vec::new(),
        }
    }
}

impl Probe {
    /// Eight independent multiply-add chains over two L1-resident arrays:
    /// about 0.7 ms of throughput-bound work that touches no memory a
    /// neighbour could evict. Always the same work.
    fn spin(&self) -> f64 {
        let start = Instant::now();
        let mut acc = [0.0f64; LANES];
        for _ in 0..PASSES {
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            for (ca, cb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
                for k in 0..LANES {
                    acc[k] += ca[k] * cb[k];
                }
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }

    /// Times the loop once, on the calling thread; call it only while
    /// nothing else of this process runs. Returns the slot that starts now
    /// and ends at the next call.
    pub fn sample(&mut self) -> usize {
        let secs = self.spin();
        self.samples.push(secs);
        self.samples.len() - 1
    }

    /// Median of all samples: how disturbed the host was over the run.
    pub fn typical(&self) -> f64 {
        median(&self.samples)
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// What to multiply the seconds of an operation that ran in `slot` by.
    /// The two samples before the slot's end and the two after its start
    /// vote, so that one sample an interrupt landed in decides nothing.
    pub fn correction(&self, slot: usize) -> f64 {
        correction_of(&self.samples, slot)
    }
}

fn correction_of(samples: &[f64], slot: usize) -> f64 {
    let last = samples.len() - 1;
    let around = median(&samples[slot.saturating_sub(1).min(last)..=(slot + 2).min(last)]);
    (QUIET_SECONDS / around).powf(SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quiet_host_is_not_corrected() {
        let samples = [QUIET_SECONDS; 12];
        for slot in 0..11 {
            assert_eq!(correction_of(&samples, slot), 1.0);
        }
    }

    #[test]
    fn a_slow_phase_is_scaled_back_by_the_sensitivity() {
        // quiet, then a neighbour doubles the loop's time
        let mut samples = vec![QUIET_SECONDS; 10];
        samples.extend([2.0 * QUIET_SECONDS; 10]);
        assert_eq!(correction_of(&samples, 3), 1.0);
        let slow = correction_of(&samples, 15);
        assert!((slow - 0.5f64.powf(SENSITIVITY)).abs() < 1e-12, "{slow}");
        // an operation twice as slow as the loop predicts stays slower
        assert!(0.080 * slow > 0.050 * correction_of(&samples, 3));
    }

    #[test]
    fn one_stray_sample_decides_nothing() {
        let mut samples = vec![QUIET_SECONDS; 20];
        samples[7] = 9e-3;
        for slot in 4..10 {
            assert_eq!(correction_of(&samples, slot), 1.0);
        }
    }

    #[test]
    fn the_first_and_the_last_slot_have_neighbours() {
        let samples = [QUIET_SECONDS, QUIET_SECONDS, 1.5e-3];
        assert_eq!(correction_of(&samples, 0), 1.0);
        assert!(correction_of(&samples, 2) < 1.0);
        assert_eq!(correction_of(&[QUIET_SECONDS], 0), 1.0);
    }

    #[test]
    fn the_loop_takes_measurable_time_and_slots_count_up() {
        let mut probe = Probe::default();
        assert_eq!((probe.sample(), probe.sample()), (0, 1));
        assert!(probe.samples().iter().all(|&s| s > 1e-5 && s < 1.0));
        assert!(probe.typical() > 0.0);
    }
}

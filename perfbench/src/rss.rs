//! Resident-set sampling: a background thread polls the process's RSS so
//! each query's peak can be read off the samples taken while it ran.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cpu;

/// How often the sampler polls.
const PERIOD: Duration = Duration::from_millis(5);

/// Current resident set size in KiB, from `/proc/self/status`.
pub fn current_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A running sampler; [`RssSampler::stop`] joins it.
#[derive(Debug)]
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<(Vec<(Instant, u64)>, Duration)>,
}

impl RssSampler {
    /// Starts polling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut samples = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    if let Some(kib) = current_kib() {
                        samples.push((Instant::now(), kib));
                    }
                    std::thread::sleep(PERIOD);
                }
                (samples, cpu::thread())
            })
        };
        RssSampler { stop, handle }
    }

    /// Stops the sampler and returns its `(time, KiB)` samples in time
    /// order, with the CPU time the sampler itself used.
    pub fn stop(self) -> (Samples, Duration) {
        self.stop.store(true, Ordering::Relaxed);
        let (samples, cpu) = self.handle.join().expect("RSS sampler thread panicked");
        (Samples(samples), cpu)
    }
}

/// Time-ordered RSS samples.
#[derive(Debug, Default)]
pub struct Samples(Vec<(Instant, u64)>);

impl Samples {
    /// The largest sample taken in `[from, to]`; if none fell inside
    /// (a window shorter than the sampling period), the first one after.
    pub fn peak_kib(&self, from: Instant, to: Instant) -> Option<u64> {
        let begin = self.0.partition_point(|&(t, _)| t < from);
        let inside = self.0[begin..].iter().take_while(|&&(t, _)| t <= to).map(|&(_, k)| k).max();
        inside.or_else(|| self.0.get(begin).map(|&(_, k)| k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_peak_falls_back_to_the_next_sample() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let s = Samples(vec![(at(0), 10), (at(2), 30), (at(4), 20), (at(6), 5)]);
        assert_eq!(s.peak_kib(at(1), at(5)), Some(30));
        assert_eq!(s.peak_kib(at(3), at(4)), Some(20));
        assert_eq!(s.peak_kib(at(5), at(5)), Some(5), "empty window: next sample");
        assert_eq!(s.peak_kib(at(7), at(9)), None);
    }

    #[test]
    fn sampler_reads_this_process() {
        let sampler = RssSampler::start();
        std::thread::sleep(Duration::from_millis(10));
        let (samples, cpu) = sampler.stop();
        assert!(cpu < Duration::from_secs(1));
        assert!(!samples.0.is_empty());
        assert!(samples.0.iter().all(|&(_, kib)| kib > 0));
    }
}

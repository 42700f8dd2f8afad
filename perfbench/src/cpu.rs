//! CPU clocks of the calling thread and of the whole process.
//!
//! On a shared virtual machine, wall time also counts the time the
//! machine's CPUs ran other work: another process, or another guest of the
//! host (steal). CPU time counts only the time this program's threads ran,
//! so the end-to-end timings are taken on these clocks.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn read(clock: c_int) -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two C longs on
    // Linux) through the pointer, which points at a live local of that
    // layout.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the calling thread has used.
pub fn thread() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of this process have used.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_counts_work_not_sleep() {
        let start = thread();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread() - start;
        assert!(slept < Duration::from_millis(10), "sleeping used {slept:?} of CPU");

        let start = thread();
        let mut x = 1u64;
        while thread() - start < Duration::from_millis(5) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        assert!(process() >= thread() - start);
    }
}

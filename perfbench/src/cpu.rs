//! CPU time of this process.
//!
//! The end-to-end timings are CPU seconds, not wall seconds: on a shared
//! host the wall clock also counts the time the scheduler (or, in a
//! virtual machine, the hypervisor) gives to other tenants, which can
//! double a run's wall time. The process CPU clock counts only the time
//! this process ran. For a single-threaded, compute-bound run on an idle
//! core the two agree.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// CPU seconds this process has used so far, all threads together.
///
/// # Panics
///
/// Panics if the C library rejects the clock, which Linux never does.
#[must_use]
pub fn process_cpu_s() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` and the clock
    // id is one every Linux C library accepts.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
}

/// Measures the CPU time `work` takes; returns its result and the seconds.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let started = process_cpu_s();
    let out = work();
    (out, process_cpu_s() - started)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_and_not_sleep() {
        let ((), busy) = timed(|| {
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        });
        let ((), idle) = timed(|| std::thread::sleep(std::time::Duration::from_millis(200)));
        assert!(busy > 0.0);
        assert!(idle < 0.1, "sleeping used {idle} CPU seconds");
    }
}

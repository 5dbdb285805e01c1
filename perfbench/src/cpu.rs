//! CPU-time clock of this process, summed over its threads.
//!
//! On a virtual machine whose host steals cycles, wall time swings with
//! the neighbours' load; the kernel's per-task CPU accounting leaves the
//! stolen time out, so CPU time is the steadier measure of work done.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// CPU seconds this process has used so far, all threads.
pub fn process_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `Timespec`'s `repr(C)` layout) to
    // the valid, exclusively borrowed pointer and touches nothing else.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

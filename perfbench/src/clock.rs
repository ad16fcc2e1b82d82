//! The clock single-threaded operations are timed with.
//!
//! A cold solve and a trace replay each run on the calling thread alone, so
//! on a dedicated core their wall time is their CPU time. On a shared host
//! the wall clock also counts time the thread spent waiting for a CPU: other
//! processes, and a virtual CPU the hypervisor descheduled (steal). Those
//! waits come from the host, not the program, and they vary from run to run.
//! The thread's CPU clock leaves them out (on Linux, steal is subtracted when
//! paravirtual steal accounting is on), so `offline_solve` and
//! `online_replay` time their operations with it. The engine workload
//! measures latency across threads and a socket, and keeps the wall clock.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run so far.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unreadable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A stopwatch on the calling thread's CPU clock.
#[derive(Clone, Copy, Debug)]
pub struct CpuTimer(Duration);

impl CpuTimer {
    /// Starts timing now.
    pub fn start() -> Self {
        Self(thread_cpu())
    }

    /// CPU time the thread ran since [`CpuTimer::start`].
    pub fn elapsed(&self) -> Duration {
        thread_cpu().saturating_sub(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn cpu_time_counts_work_and_not_sleep() {
        let t = CpuTimer::start();
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            t.elapsed() < Duration::from_millis(10),
            "sleep is not CPU time"
        );

        let t = CpuTimer::start();
        let wall = Instant::now();
        let mut x = 0u64;
        while wall.elapsed() < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(
            t.elapsed() > Duration::from_millis(5),
            "a busy loop is CPU time"
        );
        assert!(t.elapsed() <= wall.elapsed() + Duration::from_millis(1));
    }
}

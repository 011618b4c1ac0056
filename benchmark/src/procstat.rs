//! What the operating system charged this process: CPU time, page faults,
//! forced context switches and the resident-set high-water mark, summed
//! over all threads, including rank threads that have already exited.

/// `struct rusage` of Linux on a 64-bit target.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kib: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
    pub invol_ctx: u64,
    /// Peak resident set so far (the kernel's `VmHWM`), in MiB.
    pub peak_rss_mb: f64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn now() -> ProcStat {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout this
    // target's libc defines (two `timeval`s followed by fourteen `long`s),
    // and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ProcStat {
        user_s: ru.utime_sec as f64 + ru.utime_usec as f64 * 1e-6,
        sys_s: ru.stime_sec as f64 + ru.stime_usec as f64 * 1e-6,
        minor_faults: ru.minflt as u64,
        invol_ctx: ru.nivcsw as u64,
        peak_rss_mb: ru.maxrss_kib as f64 / 1024.0,
    }
}

impl ProcStat {
    /// Charges accrued between `earlier` and `self`; the peak is not a
    /// difference and keeps `self`'s value.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            invol_ctx: self.invol_ctx - earlier.invol_ctx,
            peak_rss_mb: self.peak_rss_mb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_grow_with_work_and_peak_covers_an_allocation() {
        let before = now();
        let block = vec![1u8; 32 << 20];
        let sum: u64 = block.iter().map(|&b| u64::from(b)).sum();
        assert_eq!(std::hint::black_box(sum), 32 << 20);
        let after = now();
        let d = after.since(&before);
        assert!(d.user_s + d.sys_s > 0.0);
        assert!(d.minor_faults > 0);
        assert!(after.peak_rss_mb >= 32.0);
    }
}

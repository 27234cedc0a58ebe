//! Peak resident memory of this process, from `getrusage(2)`.

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Peak resident set size of the process so far, in MB (10⁶ bytes), or
/// `None` when the kernel refuses the query.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out exactly as the
    // kernel's 64-bit `struct rusage` (144 bytes), and `getrusage` writes
    // nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0 && usage.maxrss_kib > 0).then(|| usage.maxrss_kib as f64 * 1024.0 / 1e6)
}

//! Peak memory of reaped child processes.

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which the first is `ru_maxrss` (KiB).
#[repr(C)]
#[allow(dead_code)] // fields exist for the layout; only maxrss is read
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// The largest peak resident set, in KiB, of any child process this
/// process has waited for.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_max_rss_kib() -> Option<u64> {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout (the cfg above restricts this to that ABI), and
    // getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then(|| u64::try_from(usage.maxrss).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    #[test]
    fn sees_a_reaped_child() {
        let status = std::process::Command::new("true")
            .status()
            .expect("spawn true");
        assert!(status.success());
        assert!(super::children_max_rss_kib().expect("getrusage") > 0);
    }
}

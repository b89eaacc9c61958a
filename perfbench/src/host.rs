//! Host context recorded with every run, so an outlier can be explained
//! (a busy neighbour, a throttled core) instead of re-run blindly.

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-, 5- and 15-minute load averages, or `unavailable` off Linux.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unavailable".to_string())
}

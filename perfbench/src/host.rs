//! What the benchmark reads about its own process from `/proc`.

use std::fs;

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds (the first field of each `/proc/self/task/*/schedstat`).
///
/// Threads that already exited are not counted, so callers compare two
/// readings taken while the same threads are alive.
pub fn process_cpu_ns() -> u64 {
    let tasks = fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    tasks
        .filter_map(|task| {
            let path = task.ok()?.path().join("schedstat");
            let text = fs::read_to_string(path).ok()?;
            text.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is reported in /proc/self/status");
    kib as f64 / 1024.0
}

/// Logical CPUs the benchmark may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

//! CPU and memory readings from `/proc`, the only view of those costs a
//! harness that measures from outside the crates has.

use std::fs;

/// Kernel clock ticks per second behind `/proc/self/stat`'s `utime` and
/// `stime` (`sysconf(_SC_CLK_TCK)`, 100 on every Linux the repo targets).
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of the whole process, including threads
/// that already exited (the per-pass workers of `drive_all_with`).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').expect("stat has a command field").1;
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|v| v.parse().ok())
            .expect("utime/stime present")
    };
    (ticks() + ticks()) / CLK_TCK
}

/// Nanosecond-resolution on-CPU seconds of one thread of this process.
pub fn thread_cpu_s(tid: u32) -> f64 {
    let text = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .expect("read thread schedstat");
    let run_ns: f64 = text
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("schedstat run time");
    run_ns / 1e9
}

/// Thread ids of every live thread of this process, ascending.
pub fn thread_ids() -> Vec<u32> {
    let mut ids: Vec<u32> = fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .collect();
    ids.sort_unstable();
    ids
}

/// The calling thread's id.
pub fn current_thread_id() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("resolve /proc/thread-self")
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line present");
    kib / 1024.0
}

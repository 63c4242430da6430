//! Host-side measurements and provenance: memory, CPU time, toolchain.

use std::process::Command;

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// The two libc calls the benchmark needs and `std` does not offer. Both are
// glibc on Linux, the only platform the benchmark supports (it reads /proc).
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Pins glibc's mmap threshold at its initial 128 KiB.
///
/// Left alone, glibc raises the threshold (up to 32 MiB) each time a large
/// block is freed, after which the per-OSD NVM regions of the *next* cluster
/// come from the heap instead of fresh zero pages: `calloc` then clears
/// every byte. On `scale256_par` the third cluster built in one process took
/// 14 s to set up instead of 0.2 s, ran at a third of the speed and held
/// 9.5 GiB instead of 1.9 GiB. Setting the threshold by hand turns the
/// adjustment off, so every repeat meets the allocator a fresh process would.
pub fn pin_allocator() {
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers and only updates allocator
    // settings; it is called once, before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 << 10) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) refused");
}

/// User + system CPU seconds of this process, all threads, ended ones
/// included (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout Linux uses
    // on 64-bit targets; the call writes it and keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit the benchmark runs on, or `unknown` outside a git checkout.
pub fn git_commit() -> String {
    first_line("git", &["rev-parse", "HEAD"])
}

pub fn rustc_version() -> String {
    first_line("rustc", &["-V"])
}

//! Process CPU time and resident-memory readings from `/proc/self`.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 in the Linux user ABI).
const TICKS_PER_S: f64 = 100.0;

/// The value of a `kB` line such as `VmHWM:  13536 kB` in
/// `/proc/<pid>/status` text, in bytes.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let kib: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        kib.checked_mul(1024)
    })
}

/// `utime + stime` in clock ticks from `/proc/<pid>/stat` text. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let (_, rest) = stat.rsplit_once(')')?;
    let mut fields = rest.split_whitespace();
    // After the name: state (3), ppid, pgrp, session, tty_nr, tpgid,
    // flags, minflt, cminflt, majflt, cmajflt, then utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// User plus system CPU time this process has used, all threads included.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_ticks(&stat).map(|ticks| ticks as f64 / TICKS_PER_S)
}

/// Peak resident set size since start (or since the last
/// [`reset_peak_rss`]), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    parse_status_kib(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// Current resident set size, in bytes.
pub fn rss_bytes() -> Option<u64> {
    parse_status_kib(&fs::read_to_string("/proc/self/status").ok()?, "VmRSS")
}

/// Resets the peak-RSS mark to the current RSS (`/proc/self/clear_refs`
/// value 5), so the next [`peak_rss_bytes`] covers only what runs after.
/// Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

//! Every wall-clock and `/proc/self/*` read of the runner lives here, so the
//! determinism analyzer's `wall-clock` rule has exactly these lines to
//! allow and the rest of the runner cannot reach a clock by accident.

use std::time::Instant;

/// The benchmark's wall clock.
pub fn now() -> Instant {
    // zkdet-analyzer: allow(wall-clock) the benchmark exists to measure wall time; readings feed reported metrics only, never inputs or protocol state
    Instant::now()
}

/// Seconds elapsed since `since`.
pub fn seconds_since(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux has reported `USER_HZ = 100` on every
/// architecture this repository builds on; there is no libc here to ask.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, all threads
/// (live and joined) included.
pub fn cpu_seconds() -> Option<f64> {
    // zkdet-analyzer: allow(wall-clock) /proc/self/stat CPU accounting is a reported metric only
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / USER_HZ)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field
/// 2) may itself contain spaces and parentheses, so fields are counted from
/// the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    // zkdet-analyzer: allow(wall-clock) /proc/self/status memory high-water mark is a reported metric only
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (bench (v2) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 56 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(parse_cpu_ticks("no parenthesis here"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_reports_cpu_and_memory() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
    }
}

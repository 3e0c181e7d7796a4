//! Process-wide counts read from `/proc`: the benchmark may use neither
//! `unsafe` nor raw atomics (`vr-audit lint`), so syscalls, context
//! switches, CPU time and peak memory come from the kernel's own
//! accounting instead of a counting allocator or `getrusage`.

use std::fs;

/// `syscr + syscw` from `/proc/<pid>/io`: read-like plus write-like
/// syscalls the process has made.
pub fn parse_io_syscalls(text: &str) -> Option<u64> {
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<u64>().ok())
    };
    Some(field("syscr:")? + field("syscw:")?)
}

fn status_field<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .map(str::trim)
}

/// Voluntary plus involuntary context switches from one task's `status`.
pub fn parse_ctx_switches(status: &str) -> Option<u64> {
    let n = |name| status_field(status, name)?.parse::<u64>().ok();
    Some(n("voluntary_ctxt_switches")? + n("nonvoluntary_ctxt_switches")?)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let kib = status_field(status, "VmHWM")?.strip_suffix("kB")?.trim();
    Some(kib.parse::<f64>().ok()? / 1024.0)
}

/// A kernel CPU list such as `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
pub fn parse_allowed_cpus(status: &str) -> Option<Vec<usize>> {
    parse_cpu_list(status_field(status, "Cpus_allowed_list")?)
}

/// `utime + stime` in seconds from `/proc/<pid>/stat`. The command name
/// (field 2) may hold spaces and parentheses, so fields are counted from
/// the last `)`. Linux reports these in USER_HZ = 100 ticks per second.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime = fields.nth(11)?.parse::<u64>().ok()?;
    let stime = fields.next()?.parse::<u64>().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Cumulative process-wide counts; subtract two to get a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub syscalls: u64,
    pub ctx_switches: u64,
}

/// Reads the counts now. Context switches are summed over the live
/// threads, so a thread that has exited takes its count with it. A file
/// the sandbox hides counts as zero.
pub fn counts() -> Counts {
    let syscalls = fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|t| parse_io_syscalls(&t))
        .unwrap_or(0);
    let mut ctx_switches = 0;
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                ctx_switches += parse_ctx_switches(&status).unwrap_or(0);
            }
        }
    }
    Counts {
        syscalls,
        ctx_switches,
    }
}

pub fn self_status() -> String {
    fs::read_to_string("/proc/self/status").unwrap_or_default()
}

pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_cpu_seconds(&t))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tvr-benchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\n\
        Cpus_allowed:\t3\nCpus_allowed_list:\t0-1,4\n\
        voluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n";

    #[test]
    fn io_adds_read_and_write_syscalls() {
        let io = "rchar: 10\nwchar: 20\nsyscr: 1500\nsyscw: 700\nread_bytes: 0\n";
        assert_eq!(parse_io_syscalls(io), Some(2200));
        assert_eq!(parse_io_syscalls("rchar: 10\nsyscr: 5\n"), None);
    }

    #[test]
    fn status_fields() {
        assert_eq!(parse_ctx_switches(STATUS), Some(127));
        assert_eq!(parse_peak_rss_mb(STATUS), Some(200.0));
        assert_eq!(parse_allowed_cpus(STATUS), Some(vec![0, 1, 4]));
        assert_eq!(parse_ctx_switches("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_lists() {
        assert_eq!(
            parse_cpu_list("0-3,8,10-11\n"),
            Some(vec![0, 1, 2, 3, 8, 10, 11])
        );
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }

    #[test]
    fn stat_survives_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
    }

    #[test]
    fn live_counts_move_forward() {
        let before = counts();
        let _ = self_status();
        let after = counts();
        assert!(after.syscalls >= before.syscalls);
        assert!(after.ctx_switches >= before.ctx_switches);
    }
}

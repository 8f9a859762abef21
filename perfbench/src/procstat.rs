//! Process and per-thread CPU, and peak resident memory, read from
//! `/proc/self`. Linux only; every reader returns `None` when the file
//! is missing or malformed so the caller can fail the run cleanly.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields
/// (`USER_HZ`, 100 on every mainstream Linux architecture).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds from a `stat` file's contents. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
fn cpu_from_stat(text: &str) -> Option<f64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Whole-process user + system CPU seconds (live and exited threads).
pub fn process_cpu_s() -> Option<f64> {
    cpu_from_stat(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// CPU seconds per live thread, split into the driver (the main thread,
/// whose tid is the pid) and every other thread of the process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadCpu {
    pub driver_s: f64,
    pub others_s: f64,
    pub others: usize,
}

pub fn thread_cpu() -> Option<ThreadCpu> {
    let pid = std::process::id().to_string();
    let mut out = ThreadCpu::default();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let entry = entry.ok()?;
        let tid = entry.file_name().to_string_lossy().into_owned();
        // A worker may exit between listing and reading; skip it.
        let Ok(text) = fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        let cpu = cpu_from_stat(&text)?;
        if tid == pid {
            out.driver_s = cpu;
        } else {
            out.others_s += cpu;
            out.others += 1;
        }
    }
    Some(out)
}

/// Machine-wide (all-CPU) ticks so far: `(total, steal)` from the
/// first line of `/proc/stat`. Steal is time the hypervisor gave this
/// machine's virtual CPUs to someone else.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_name_with_spaces_and_parens() {
        let stat = "42 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        assert_eq!(cpu_from_stat(stat), Some(3.0));
    }
}

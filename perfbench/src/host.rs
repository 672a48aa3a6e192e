//! Readings from `/proc` and `/sys`: CPU time, memory, and the host
//! facts printed with every result.

use std::fs;
use std::time::Duration;

/// Length of one `/proc` CPU tick. Linux reports `utime`/`stime` in
/// `USER_HZ` units, which its ABI fixes at 100 per second.
pub const TICK: Duration = Duration::from_millis(10);

/// `utime + stime`, in ticks, from the text of a `/proc/<pid>/stat` or
/// `/proc/<pid>/task/<tid>/stat` file. The command name (field 2) may
/// hold spaces and parentheses, so fields are counted from its last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // Fields 14 and 15 of the file; `state` (field 3) comes first here.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value in kB of `key` (such as `VmHWM`) in a `/proc/<pid>/status`
/// text.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let value = rest.trim().strip_suffix("kB")?;
        value.trim().parse().ok()
    })
}

fn read_stat_ticks(path: &str) -> u64 {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    parse_stat_cpu_ticks(&text).unwrap_or_else(|| panic!("no CPU times in {path}"))
}

/// CPU time of the whole process so far (all threads, user + system).
pub fn process_cpu_ticks() -> u64 {
    read_stat_ticks("/proc/self/stat")
}

/// CPU time of the calling thread so far (user + system).
pub fn thread_cpu_ticks() -> u64 {
    read_stat_ticks("/proc/thread-self/stat")
}

/// A `/proc/self/status` memory figure in kB (`VmRSS`, `VmHWM`, ...).
pub fn status_kb(key: &str) -> u64 {
    let text = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    parse_status_kb(&text, key).unwrap_or_else(|| panic!("no {key} in /proc/self/status"))
}

/// Hands the allocator's free heap pages back to the kernel, so that the
/// resident-size growth measured next counts new allocations rather than
/// reuse of memory freed earlier.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers, touches only the
    // allocator's own state under its locks, and may be called from any
    // thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Without glibc there is nothing to trim; growth may then be
/// under-counted.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_heap() {}

/// What the result depends on besides the code: same-host A/B
/// comparisons check these first.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub l1d: String,
    pub l2: String,
}

impl HostFacts {
    pub fn read() -> HostFacts {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        HostFacts {
            nproc: nproc(),
            cpu_model: parse_cpu_model(&cpuinfo).unwrap_or_else(|| "unknown".into()),
            l1d: cache_size(1, "Data").unwrap_or_else(|| "unknown".into()),
            l2: cache_size(2, "Unified").unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` in a `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// Size (as sysfs spells it, e.g. `48K`) of CPU 0's cache at `level`
/// holding `kind` (`Data`, `Instruction` or `Unified`).
fn cache_size(level: u32, kind: &str) -> Option<String> {
    let dir = fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .find_map(|path| {
            let read = |name: &str| fs::read_to_string(path.join(name)).ok();
            let matches =
                read("level")?.trim() == level.to_string() && read("type")?.trim() == kind;
            matches
                .then(|| read("size"))
                .flatten()
                .map(|s| s.trim().to_string())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_sum_utime_and_stime() {
        let stat = "1217 (cat) R 1212 1217 1212 0 -1 4194304 83 0 0 0 \
                    250 17 0 0 20 0 1 0 29238 2703360 327 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(267));
    }

    #[test]
    fn stat_cpu_ticks_survive_a_command_name_with_spaces_and_parens() {
        let stat = "42 (tokio (rt) w) S 1 42 42 0 -1 0 0 0 0 0 7 3 0 0 20 0 9 0 1 1 1";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(10));
        assert_eq!(parse_stat_cpu_ticks("42 (truncated) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn status_kb_reads_the_named_line_only() {
        let status = "Name:\tperfbench\nVmHWM:\t  204800 kB\nVmRSS:\t    1776 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(204_800));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1776));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmRSSx:\t1 kB\n", "VmRSS"), None);
    }

    #[test]
    fn live_readings_parse() {
        assert!(status_kb("VmHWM") >= status_kb("VmRSS") / 2);
        assert!(process_cpu_ticks() >= thread_cpu_ticks());
    }

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nprocessor\t: 1\n\
                    model name\t: Other\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Example CPU @ 2.0GHz")
        );
        assert_eq!(parse_cpu_model("flags\t: fpu\n"), None);
    }
}

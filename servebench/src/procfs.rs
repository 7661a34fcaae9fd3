//! Readers for the `/proc` files the benchmark measures the server and
//! the host through. Each parser takes the file's text, so the tests
//! feed them captured samples.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, fixed at 100 on Linux).
pub const TICKS_PER_SEC: f64 = 100.0;

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
/// Fields are counted after the last `)`, because the command name in
/// parentheses may itself contain spaces or parentheses.
pub fn parse_pid_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest starts at field 3 (state); utime is field 14, stime field 15.
    let utime = fields.get(11)?.parse().ok()?;
    let stime = fields.get(12)?.parse().ok()?;
    Some((utime, stime))
}

/// A numeric field of `/proc/<pid>/status` such as `VmRSS` (in kB) or
/// `voluntary_ctxt_switches`.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

/// Voluntary plus involuntary context switches from one task's
/// `/proc/<pid>/task/<tid>/status`.
pub fn parse_ctx_switches(text: &str) -> Option<u64> {
    Some(
        parse_status_field(text, "voluntary_ctxt_switches")?
            + parse_status_field(text, "nonvoluntary_ctxt_switches")?,
    )
}

/// The aggregate `steal` tick count from the `cpu ` line of `/proc/stat`.
pub fn parse_steal(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The filesystem type of the mount holding `path` (absolute), from the
/// text of `/proc/mounts`: the longest mount point that prefixes it.
pub fn fs_type(mounts: &str, path: &str) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (_dev, mnt, fstype) = (f.next()?, f.next()?, f.next()?);
        let covers = path == mnt
            || mnt == "/"
            || (path.starts_with(mnt) && path.as_bytes().get(mnt.len()) == Some(&b'/'));
        if covers && best.as_ref().is_none_or(|(len, _)| mnt.len() > *len) {
            best = Some((mnt.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
}

fn read(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Server CPU time (user + system) of process `pid`, in microseconds.
pub fn cpu_us(pid: u32) -> Option<f64> {
    let (u, s) = parse_pid_stat(&read(format!("/proc/{pid}/stat"))?)?;
    Some((u + s) as f64 * 1e6 / TICKS_PER_SEC)
}

/// This process's CPU time (user + system), in microseconds.
pub fn self_cpu_us() -> Option<f64> {
    let (u, s) = parse_pid_stat(&read("/proc/self/stat")?)?;
    Some((u + s) as f64 * 1e6 / TICKS_PER_SEC)
}

/// Resident set size of process `pid`, in kB.
pub fn rss_kb(pid: u32) -> Option<u64> {
    parse_status_field(&read(format!("/proc/{pid}/status"))?, "VmRSS")
}

/// Context switches summed over every thread of process `pid`.
pub fn ctx_switches(pid: u32) -> Option<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let path = entry.ok()?.path().join("status");
        // A thread may exit between listing and reading; skip it.
        if let Some(n) = read(&path).as_deref().and_then(parse_ctx_switches) {
            total += n;
        }
    }
    Some(total)
}

/// Host-wide steal ticks so far.
pub fn steal_ticks() -> Option<u64> {
    parse_steal(&read("/proc/stat")?)
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
pub fn cpus_allowed() -> Option<String> {
    let text = read("/proc/self/status")?;
    text.lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|v| v.trim().to_string())
}

/// Filesystem type holding `path`.
pub fn fs_type_of(path: &Path) -> Option<String> {
    let abs = std::fs::canonicalize(path).ok()?;
    fs_type(&read("/proc/mounts")?, abs.to_str()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PID_STAT: &str = "4242 (ddn (serve) x) S 1 4242 4242 0 -1 4194560 2311 0 0 0 \
        1234 567 0 0 20 0 7 0 98765 123456789 4321 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tddn\nState:\tS (sleeping)\nVmPeak:\t  200000 kB\n\
        VmRSS:\t   51234 kB\nThreads:\t7\nCpus_allowed_list:\t0-1\n\
        voluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t42\n";

    const PROC_STAT: &str = "cpu  2255 34 2290 22625563 6290 127 456 789 0 0\n\
        cpu0 1132 34 1441 11311718 3675 127 438 400 0 0\n\
        intr 114930548 113199788 3 0 5 263 0 4 [... lots more numbers ...]\n";

    const MOUNTS: &str = "overlay / overlay rw,relatime 0 0\n\
        proc /proc proc rw,nosuid 0 0\n\
        tmpfs /dev/shm tmpfs rw,nosuid,nodev 0 0\n\
        /dev/sdb1 /srv/bench ext4 rw,relatime 0 0\n";

    #[test]
    fn pid_stat_skips_a_command_name_with_spaces_and_parens() {
        assert_eq!(parse_pid_stat(PID_STAT), Some((1234, 567)));
        assert_eq!(parse_pid_stat("12 (x) S 1"), None);
    }

    #[test]
    fn status_fields_and_context_switches() {
        assert_eq!(parse_status_field(STATUS, "VmRSS"), Some(51234));
        assert_eq!(parse_status_field(STATUS, "Threads"), Some(7));
        assert_eq!(parse_status_field(STATUS, "VmSwap"), None);
        assert_eq!(parse_ctx_switches(STATUS), Some(1542));
    }

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        assert_eq!(parse_steal(PROC_STAT), Some(789));
        assert_eq!(parse_steal("intr 1 2 3\n"), None);
    }

    #[test]
    fn fs_type_takes_the_longest_covering_mount() {
        assert_eq!(fs_type(MOUNTS, "/dev/shm/data").as_deref(), Some("tmpfs"));
        assert_eq!(fs_type(MOUNTS, "/srv/bench/x/y").as_deref(), Some("ext4"));
        assert_eq!(
            fs_type(MOUNTS, "/srv/benchmark").as_deref(),
            Some("overlay")
        );
        assert_eq!(fs_type(MOUNTS, "/srv/bench").as_deref(), Some("ext4"));
    }
}

//! Process resource accounting and host provenance, from the C library and
//! `/proc` directly so the benchmark needs no dependency beyond the
//! repository's own crates.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of Linux (every field after the two times is a `long`).
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

/// CPU time, context switches and peak resident set of a process (or of
/// all its reaped children).
#[derive(Debug, Default, Clone, Copy)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub vol_switches: u64,
    pub invol_switches: u64,
    /// `ru_maxrss`, MiB: for children the largest single child (which
    /// includes its parent's resident set at the fork).
    pub max_rss_mb: f64,
}

impl Usage {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Counters accumulated since `earlier` (the peak RSS is kept as is).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vol_switches: self.vol_switches.saturating_sub(earlier.vol_switches),
            invol_switches: self.invol_switches.saturating_sub(earlier.invol_switches),
            max_rss_mb: self.max_rss_mb,
        }
    }

    pub fn plus(&self, other: &Usage) -> Usage {
        Usage {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
            vol_switches: self.vol_switches + other.vol_switches,
            invol_switches: self.invol_switches + other.invol_switches,
            max_rss_mb: self.max_rss_mb.max(other.max_rss_mb),
        }
    }
}

fn usage_of(who: c_int) -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the C layout,
    // and `who` is one of the two values getrusage(2) documents.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage cannot fail for RUSAGE_SELF/RUSAGE_CHILDREN");
    let secs = |tv: Timeval| tv.tv_sec as f64 + tv.tv_usec as f64 * 1e-6;
    Usage {
        user_s: secs(raw.ru_utime),
        sys_s: secs(raw.ru_stime),
        vol_switches: raw.ru_nvcsw.max(0) as u64,
        invol_switches: raw.ru_nivcsw.max(0) as u64,
        max_rss_mb: raw.ru_maxrss.max(0) as f64 / 1024.0,
    }
}

/// This process.
pub fn self_usage() -> Usage {
    usage_of(RUSAGE_SELF)
}

/// Every child process this process has reaped.
pub fn children_usage() -> Usage {
    usage_of(RUSAGE_CHILDREN)
}

/// Peak resident set of this process, MiB (`VmHWM`).  Unlike
/// `ru_maxrss`, it starts afresh at `exec`, so it never reports the
/// resident set of whichever process launched the benchmark.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One line naming the host and build a result was measured on.
pub fn provenance(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let rustc = command_line("rustc", &["--version"]);
    // Only the checkout's own repository, never one above it.
    let git_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let commit = if git_dir.exists() {
        let git_dir = git_dir.to_string_lossy();
        command_line("git", &["--git-dir", &git_dir, "rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".to_owned()
    };
    format!(
        "host: cpu=\"{cpu}\" nproc={nproc} kernel={kernel} rustc=\"{rustc}\" commit={commit} seed={seed}"
    )
}

/// First line of a command's standard output, or `unknown` when it cannot
/// run or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

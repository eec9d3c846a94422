//! Facts about the host and process a result was measured on.

use crate::Config;

/// One line of host facts recorded with every result: the host's CPU
/// count, the CPUs this run may use (one when the runner pinned it), the
/// `rayon` stand-in's thread count, the toolchain, commit and profile.
pub fn facts(cfg: &Config) -> String {
    let allowed = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host: nproc={} cpus_allowed={allowed} rayon_threads={} rustc=\"{}\" commit={} \
         profile={profile}",
        cfg.host_cpus,
        rayon::current_num_threads(),
        cfg.rustc,
        cfg.commit
    )
}

/// Peak resident set (`VmHWM`) of this process (`None`) or of the child
/// `pid`, in MiB, read from the kernel's per-process status.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

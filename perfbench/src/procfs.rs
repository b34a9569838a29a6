//! Process resource readings from `/proc/self` (Linux).

/// A `kB` field of `/proc/self/status` (`VmHWM`, `Threads`, …).
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Threads in this process right now.
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// Open file descriptors of this process right now.
pub fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count() as u64)
}

/// The highest thread and fd counts seen while it runs, sampled every
/// 20 ms by one helper thread (joined on [`Sampler::finish`]).
pub struct Sampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<(u64, u64)>,
}

impl Sampler {
    /// Start sampling.
    pub fn start() -> Sampler {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (mut threads_peak, mut fds_peak) = (0, 0);
            while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                threads_peak = threads_peak.max(threads());
                fds_peak = fds_peak.max(open_fds());
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            (threads_peak, fds_peak)
        });
        Sampler { stop, handle }
    }

    /// Stop and return `(threads_peak, fds_peak)`; the sampler's own thread
    /// is excluded from the thread count.
    pub fn finish(self) -> (u64, u64) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let (threads_peak, fds_peak) = self.handle.join().expect("sampler thread panicked");
        (threads_peak.saturating_sub(1), fds_peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
        assert!(open_fds() >= 3, "stdin, stdout, stderr");
        let sampler = Sampler::start();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let (threads_peak, fds_peak) = sampler.finish();
        assert!(threads_peak >= 1 && fds_peak >= 3);
    }
}

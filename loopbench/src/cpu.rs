//! CPU placement of the load generator and the server.
//!
//! The server sizes its worker pool and its what-if pool to the CPUs it
//! may run on, and the load generator needs a CPU of its own. On a host
//! with two CPUs, left to the scheduler, that is more runnable threads
//! than CPUs: a sweep's second what-if thread or the reactor waits behind
//! the load generator, and latencies measure the scheduler rather than
//! the program. So the load generator keeps the first CPU it may use and
//! the server gets the last one; each of the server's pools then sizes
//! itself to that one CPU.

/// CPUs in glibc's `cpu_set_t`, as 64-bit words.
const WORDS: usize = 16;

pub type Mask = [u64; WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Where the benchmark runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Placement {
    /// CPUs the benchmark was allowed to use when it started.
    pub host_cpus: usize,
    /// The load generator's CPU and the server's, when there were at
    /// least two to share out.
    pub pinned: Option<(usize, usize)>,
}

impl Placement {
    /// Pins the calling thread, and so every thread it starts later, to
    /// the load generator's CPU. Call before starting any thread.
    pub fn take() -> Result<Placement, String> {
        let mut allowed: Mask = [0; WORDS];
        // SAFETY: the mask is a writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let cpus: Vec<usize> = (0..WORDS * 64)
            .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        let mut placement = Placement {
            host_cpus: cpus.len(),
            pinned: None,
        };
        if let (Some(&first), Some(&last)) = (cpus.first(), cpus.last()) {
            if first != last {
                set(&only(first)).map_err(|e| format!("sched_setaffinity: {e}"))?;
                placement.pinned = Some((first, last));
            }
        }
        Ok(placement)
    }

    /// The affinity mask a server process should start with, if any.
    pub fn server_mask(&self) -> Option<Mask> {
        self.pinned.map(|(_, server)| only(server))
    }
}

fn only(cpu: usize) -> Mask {
    let mut mask: Mask = [0; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    mask
}

/// Sets the affinity of the calling thread. Allocates nothing, so it
/// may run between `fork` and `exec`.
pub fn set(mask: &Mask) -> std::io::Result<()> {
    // SAFETY: the mask is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cpu_mask_has_one_bit() {
        let mask = only(70);
        assert_eq!(mask.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(mask[1], 1 << 6);
    }
}

//! CPU affinity, so that the host-speed probes run on the CPU that runs
//! the measured work. On a virtual machine each virtual CPU's speed
//! drifts on its own (within a second, by ±15% on the 2-core host the
//! benchmark was written on), so a probe on the other CPU misreads it.

/// Bits in the affinity masks passed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty when the host
/// does not say.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: pid 0 names the calling thread; `mask` is a live array of
    // exactly `size_of_val(&mask)` bytes, which the call only writes
    // within.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to `cpu`; threads it spawns afterwards inherit
/// the pin. Returns false (and leaves the thread as it was) when the host
/// refuses.
pub fn pin(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread; `mask` is a live,
    // initialised array of exactly `size_of_val(&mask)` bytes, which the
    // call only reads.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_the_allowed_set() {
        let before = allowed();
        assert!(!before.is_empty());
        // Run in a thread of its own so the test runner's threads keep
        // their affinity.
        let cpu = before[0];
        let after = std::thread::spawn(move || {
            assert!(pin(cpu));
            allowed()
        })
        .join()
        .expect("the pinned thread does not panic");
        assert_eq!(after, vec![cpu]);
        assert!(!pin(MASK_WORDS * 64));
    }
}

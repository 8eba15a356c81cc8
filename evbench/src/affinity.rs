//! Pins the calling thread, and every thread it spawns while pinned, to
//! one core. The standard library has no affinity call, so glibc's
//! `sched_getaffinity`/`sched_setaffinity` are declared here.

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// A pinned calling thread; dropping it restores the thread's former
/// affinity. Threads spawned while pinned keep the one core.
pub struct Pinned {
    former: CpuSet,
    pub core: usize,
}

impl Pinned {
    /// Pins the calling thread to the lowest core it may run on, or
    /// returns `None` (leaving it unpinned) if the affinity cannot be
    /// read or set.
    pub fn to_one_core() -> Option<Pinned> {
        let size = std::mem::size_of::<CpuSet>();
        let mut former: CpuSet = [0; 16];
        // SAFETY: pid 0 names the calling thread, and `former` is a live
        // buffer of exactly `size` bytes.
        if unsafe { sched_getaffinity(0, size, &mut former) } != 0 {
            return None;
        }
        let word = former.iter().position(|&w| w != 0)?;
        let bit = former[word].trailing_zeros() as usize;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << bit;
        // SAFETY: as above; `one` holds a core from the thread's own mask.
        if unsafe { sched_setaffinity(0, size, &one) } != 0 {
            return None;
        }
        Some(Pinned {
            former,
            core: 64 * word + bit,
        })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: as above; the mask is one this thread held before.
        // Failure leaves the thread on its one core, which is harmless.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.former);
        }
    }
}

//! Moving the measuring thread between the processors it may run on.
//!
//! On a shared host a neighbour can slow one of the benchmark's processors
//! by up to 70% for minutes while another one stays quiet. The timed
//! passes therefore take turns on each processor the process may use, and
//! the quiet-window rule keeps the windows that ran on a quiet one. The
//! loop stays one thread on one processor at a time.

/// The processors the calling thread may run on, and the one it uses next.
/// Dropping it gives the thread back the affinity it had.
pub struct Rotation {
    allowed: Vec<usize>,
    next: usize,
    #[cfg(target_os = "linux")]
    original: Option<linux::CpuSet>,
}

impl Rotation {
    /// The calling thread's current affinity. When it cannot be read, or
    /// allows one processor, [`Rotation::advance`] does nothing.
    pub fn of_this_thread() -> Self {
        #[cfg(target_os = "linux")]
        {
            let original = linux::get();
            Rotation {
                allowed: original.as_ref().map_or_else(Vec::new, linux::CpuSet::cpus),
                next: 0,
                original,
            }
        }
        #[cfg(not(target_os = "linux"))]
        Rotation {
            allowed: Vec::new(),
            next: 0,
        }
    }

    /// Pins the calling thread to the next allowed processor in turn.
    pub fn advance(&mut self) {
        if self.allowed.len() < 2 {
            return;
        }
        let cpu = self.allowed[self.next % self.allowed.len()];
        self.next += 1;
        #[cfg(target_os = "linux")]
        linux::set(&linux::CpuSet::only(cpu));
    }
}

impl Rotation {
    /// Lets the calling thread run on every allowed processor again, for
    /// work that starts threads of its own, which inherit the affinity;
    /// [`Rotation::repin`] undoes it.
    pub fn release(&self) {
        #[cfg(target_os = "linux")]
        if let (Some(original), true) = (&self.original, self.next > 0) {
            linux::set(original);
        }
    }

    /// Pins the calling thread again to the processor it last moved to.
    pub fn repin(&self) {
        if self.allowed.len() < 2 || self.next == 0 {
            return;
        }
        let cpu = self.allowed[(self.next - 1) % self.allowed.len()];
        #[cfg(target_os = "linux")]
        linux::set(&linux::CpuSet::only(cpu));
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let (Some(original), true) = (&self.original, self.allowed.len() >= 2) {
            linux::set(original);
        }
    }
}

#[cfg(target_os = "linux")]
mod linux {
    /// glibc's `cpu_set_t`: a bit mask of 1,024 processors.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct CpuSet([u64; 16]);

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    impl CpuSet {
        pub fn cpus(&self) -> Vec<usize> {
            (0..self.0.len() * 64)
                .filter(|&i| (self.0[i / 64] >> (i % 64)) & 1 == 1)
                .collect()
        }

        pub fn only(cpu: usize) -> Self {
            let mut set = CpuSet([0; 16]);
            set.0[cpu / 64] |= 1 << (cpu % 64);
            set
        }
    }

    /// The calling thread's affinity, or `None` if it cannot be read.
    pub fn get() -> Option<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: pid 0 names the calling thread, and `set` is a writable
        // mask of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Sets the calling thread's affinity. A failure leaves the thread
    /// where it was, which only costs the rotation its effect.
    pub fn set(set: &CpuSet) {
        // SAFETY: pid 0 names the calling thread, and `set` is a readable
        // mask of exactly the size passed.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    }
}

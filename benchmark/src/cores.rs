//! Which cores the calling thread may run on.
//!
//! The serve workloads put the server's threads and their one client on
//! the same core (see `workloads::serve`), and the standard library has no
//! call for that. On Linux this is `sched_getaffinity` and
//! `sched_setaffinity` from the C library the standard library already
//! links; elsewhere [`Cores::allowed`] is `None` and nothing is narrowed.

/// A set of cores, as the kernel's bit mask: room for 1024.
#[derive(Clone, Copy)]
pub struct Cores([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl Cores {
    /// The cores the calling thread may run on now.
    pub fn allowed() -> Option<Cores> {
        #[cfg(target_os = "linux")]
        {
            let mut mask = [0u64; 16];
            // SAFETY: the call writes at most `size_of_val(&mask)` bytes
            // to `mask`; pid 0 is the calling thread.
            let status =
                unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
            (status == 0).then_some(Cores(mask))
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// These cores split after the `n` lowest-numbered: `(first n, rest)`.
    /// A side that would be empty is all of them instead.
    pub fn split(&self, n: usize) -> (Cores, Cores) {
        let (mut first, mut rest) = ([0u64; 16], [0u64; 16]);
        let set = (0..1024).filter(|bit| self.0[bit / 64] >> (bit % 64) & 1 == 1);
        for (i, bit) in set.enumerate() {
            let side = if i < n { &mut first } else { &mut rest };
            side[bit / 64] |= 1 << (bit % 64);
        }
        let or_all = |side: [u64; 16]| if side == [0; 16] { *self } else { Cores(side) };
        (or_all(first), or_all(rest))
    }

    /// Restricts the calling thread, and every thread it starts from now
    /// on, to these cores. Threads already running keep theirs.
    pub fn restrict(&self) {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: the call reads `size_of_val(&self.0)` bytes of
            // `self.0`; pid 0 is the calling thread.
            let status =
                unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
            assert_eq!(status, 0, "a subset of the allowed cores is itself allowed");
        }
    }
}

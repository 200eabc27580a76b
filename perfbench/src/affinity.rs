//! Rotating single-threaded samples over the cores the process may use.
//!
//! On a shared host, interference slows one core at a time, in bursts
//! lasting seconds. A run that spreads its samples over every allowed
//! core sees every core's share of it, where a run left wherever the
//! scheduler first placed it may see only one core's slow phase.

use std::os::raw::{c_int, c_ulong};

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// The calling thread's allowed cores (among the first 64), or an empty
/// mask if the OS would not say.
fn allowed_mask() -> c_ulong {
    let mut mask: c_ulong = 0;
    // SAFETY: `mask` is a live, writable `c_ulong` and the size passed is
    // its size in bytes; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<c_ulong>(), &mut mask) };
    if rc == 0 {
        mask
    } else {
        0
    }
}

fn set_mask(mask: c_ulong) -> bool {
    // SAFETY: `mask` is a live, initialised `c_ulong` and the size passed
    // is its size in bytes; the call only reads it. Pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<c_ulong>(), &mask) == 0 }
}

/// Runs samples one core at a time, round-robin over the allowed cores,
/// and restores the original mask when dropped.
pub struct Rotation {
    original: c_ulong,
    cores: Vec<u32>,
    next: usize,
}

impl Rotation {
    pub fn new() -> Self {
        let original = allowed_mask();
        let cores = (0..c_ulong::BITS)
            .filter(|&c| original >> c & 1 == 1)
            .collect();
        Self {
            original,
            cores,
            next: 0,
        }
    }

    /// Moves the calling thread to the next core; a no-op when the mask
    /// is unknown or the OS refuses.
    pub fn advance(&mut self) {
        if self.cores.len() < 2 {
            return;
        }
        let core = self.cores[self.next % self.cores.len()];
        self.next += 1;
        set_mask(1 << core);
    }
}

impl Default for Rotation {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if self.original != 0 {
            set_mask(self.original);
        }
    }
}

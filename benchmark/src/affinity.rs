//! Pins the process to one CPU.
//!
//! Unpinned, the lockstep executor's hand-offs between process threads
//! cross CPUs and cost several times more, with a run-to-run swing larger
//! than any bound (README.md quotes the issue's numbers); pinned, every
//! hand-off is a local context switch. Threads inherit the mask, so this
//! must run before the first spawn.

/// 64-bit words of a `cpu_set_t` (1024 CPUs).
#[cfg(target_os = "linux")]
const SET_WORDS: usize = 1024 / 64;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and every thread it later spawns) to the
/// highest-numbered CPU it is allowed on — CPU 0 tends to take the
/// machine's interrupts. Returns that CPU, or `None` if the mask could not
/// be read or set.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; SET_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the `cpusetsize`
    // bytes passed, which is all `sched_getaffinity` writes; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rfind(|(_, &w)| w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; SET_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of exactly the `cpusetsize` bytes
    // passed, which is all `sched_setaffinity` reads; pid 0 names the calling
    // thread.
    let rc = unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(word * 64 + bit)
}

/// Pinning is only implemented for Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

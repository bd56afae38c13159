//! Runs the process without address-space layout randomisation.
//!
//! The kernel places the stack, the heap and every mapping at a random
//! offset in each process, and the offsets decide how many pages the same
//! allocations touch: `peak_rss_mb` of twenty identical single-threaded runs
//! ranged over 6 % of its median with randomisation on and repeated to the
//! page with it off (README.md has the numbers). Times did not narrow.
//!
//! The flag is per process and applies to images loaded after it is set, so
//! the process sets it and loads itself again, with the same arguments and
//! under the same pid.

/// `personality(2)` argument that only queries the current persona.
#[cfg(target_os = "linux")]
const QUERY: std::ffi::c_ulong = 0xffff_ffff;
/// `ADDR_NO_RANDOMIZE` of `<sys/personality.h>`.
#[cfg(target_os = "linux")]
const ADDR_NO_RANDOMIZE: std::ffi::c_ulong = 0x004_0000;
/// Set in the environment of the re-executed image, so that a sandbox which
/// accepts the flag but does not keep it cannot make the process loop.
#[cfg(target_os = "linux")]
const MARKER: &str = "BPRC_BENCHMARK_REEXECUTED";

#[cfg(target_os = "linux")]
extern "C" {
    fn personality(persona: std::ffi::c_ulong) -> std::ffi::c_int;
}

/// Whether this process runs without randomisation. If it does not yet, sets
/// the flag and re-executes the program, which only returns — `false` — when
/// the flag or the re-execution is refused. Call it before anything else:
/// the work done so far is done again.
#[cfg(target_os = "linux")]
pub fn switch_off() -> bool {
    use std::os::unix::process::CommandExt;

    // SAFETY: `personality` takes and returns integers and reads or writes
    // no memory of this program.
    let persona = unsafe { personality(QUERY) };
    let Ok(persona) = std::ffi::c_ulong::try_from(persona) else {
        return false;
    };
    if persona & ADDR_NO_RANDOMIZE != 0 {
        return true;
    }
    if std::env::var_os(MARKER).is_some() {
        return false;
    }
    // SAFETY: as above.
    if unsafe { personality(persona | ADDR_NO_RANDOMIZE) } < 0 {
        return false;
    }
    let Ok(exe) = std::env::current_exe() else {
        return false;
    };
    // Returns only if the image could not be loaded.
    let _refused = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(MARKER, "1")
        .exec();
    false
}

/// Only implemented for Linux.
#[cfg(not(target_os = "linux"))]
pub fn switch_off() -> bool {
    false
}

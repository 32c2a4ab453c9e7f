//! What the benchmark reads from the host: process CPU time, resident
//! memory, the thread count, and a frozen canary kernel that shows how
//! noisy the neighbours are.

use std::path::PathBuf;
use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, bytes: usize, set: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, set: *const u64) -> i32;
}

/// User + system CPU time of the whole process, every thread that ever
/// ran included, in nanoseconds. `/proc/self/stat` has the same number
/// at 10 ms resolution, which is 2 % of a pass; the per-task
/// `schedstat` files forget threads that exited, and the service
/// spawns one thread per program.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the C
    // library expects on 64-bit Linux, and the clock id is a constant
    // the kernel defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`).
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of the process so far, kB.
pub fn peak_rss_kb() -> Option<u64> {
    status_kb("VmHWM")
}

/// Current resident set of the process, kB.
pub fn rss_kb() -> Option<u64> {
    status_kb("VmRSS")
}

/// Where the benchmark writes: trace files and the daemon's sockets.
/// Relative to the working directory, which the contract makes the
/// root of the checkout, and short enough for a socket's `sun_path`.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/benchmark");
    std::fs::create_dir_all(&dir).expect("the checkout is writable");
    dir
}

/// Threads the host offers (before [`pin_to_one_cpu`] narrows the
/// process to one of them).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Words of a `cpu_set_t`: 1024 CPUs, the C library's own size.
const CPU_SET_WORDS: usize = 16;

/// Confines the process — this thread and every thread it will spawn —
/// to one CPU, the highest-numbered one it may run on (interrupts land
/// on the low ones), and returns that CPU. `None` if the kernel
/// refuses; the run then goes on unpinned.
///
/// On a guest with a few vCPUs of a shared host, a thread woken on
/// another vCPU waits for the hypervisor to schedule that vCPU. The
/// service spawns a thread per program, so unpinned runs measured that
/// wait: identical `sched_flood` passes took 590–970 ms and 105 µs of
/// CPU per job unpinned, 430–500 ms and 52 µs on one CPU. The price is
/// that the benchmark describes a one-core host: a change that buys
/// wall time with threads shows in `cpu_us_per_job` only.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&set);
    // SAFETY: `set` is a live, writable buffer of `bytes` bytes, and
    // pid 0 names the calling thread; the call writes nothing else.
    if unsafe { sched_getaffinity(0, bytes, set.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = set.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + (63 - bits.leading_zeros() as usize);
    set = [0; CPU_SET_WORDS];
    set[word] = 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of `bytes` bytes that the call
    // only reads.
    (unsafe { sched_setaffinity(0, bytes, set.as_ptr()) } == 0).then_some(cpu)
}

/// Words of the canary's working set: 256 KiB, inside L2 and outside
/// L1, so both a stolen core and a polluted cache show.
const CANARY_WORDS: usize = 32 * 1024;

/// Read-modify-write steps of one canary run (~2 ms on this host).
const CANARY_STEPS: usize = 400_000;

/// The host-noise canary: a frozen memory + arithmetic kernel whose
/// cost depends on nothing in the repository. Timed before every pass
/// and only ever *reported* — rescaling a metric by a reference kernel
/// over-corrects, because interference does not slow all code alike.
pub struct Canary {
    words: Vec<u64>,
}

impl Canary {
    pub fn new() -> Self {
        Canary {
            words: (0..CANARY_WORDS as u64).collect(),
        }
    }

    /// Runs the kernel once and returns its wall time in nanoseconds.
    pub fn run(&mut self) -> u64 {
        let started = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..CANARY_STEPS {
            // xorshift64: the next index depends on the previous load,
            // so the loop cannot be vectorised or reordered away.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.words[(x as usize) % CANARY_WORDS];
            *slot = slot.wrapping_mul(6364136223846793005).wrapping_add(x);
            x ^= *slot;
        }
        std::hint::black_box(x);
        started.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let mut canary = Canary::new();
        for _ in 0..5 {
            canary.run();
        }
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn pinning_leaves_one_cpu() {
        // Pid 0 is the calling thread: only this test's thread narrows.
        let cpu = pin_to_one_cpu().expect("a thread may narrow its own affinity");
        assert_eq!(host_threads(), 1);
        assert_eq!(pin_to_one_cpu(), Some(cpu));
    }

    #[test]
    fn status_fields_are_readable() {
        // The peak is read last: other test threads keep allocating.
        let now = rss_kb().expect("VmRSS");
        let peak = peak_rss_kb().expect("VmHWM");
        assert!(peak >= now && now > 0);
    }
}

//! Keeps the CPUs from going idle while a latency measurement runs.
//!
//! `serve_open` hands every request across three threads, each hand-over a
//! wake-up. On a virtualised runner waking a *halted* virtual CPU is a host
//! scheduling decision: it was a third of the request latency in the sizing
//! runs and drifted by ±40 % over tens of minutes while CPU-bound work did
//! not move. One spinning thread per CPU in the `SCHED_IDLE` class (the
//! equivalent of booting with `idle=poll`) removes that term: the CPUs never
//! halt, and any runnable thread of normal priority preempts the spinner at
//! once, so the program under test loses no CPU time to it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// Bits of a `cpu_set_t` of the size glibc uses (1024 CPUs).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// The CPUs this process may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu` and moves it to the `SCHED_IDLE` class.
/// False when either call is refused: the caller must then not spin, because
/// a spinner of normal priority would take a CPU from the program under test.
fn enter_idle_class_on(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: both pointers refer to live, correctly sized values for the
    // duration of the calls; pid 0 names the calling thread, so no other
    // thread's scheduling changes.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0
            && sched_setscheduler(0, SCHED_IDLE, &param) == 0
    }
}

/// While alive, one idle-class thread spins on every CPU of the process.
pub struct NoIdle {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl NoIdle {
    /// Starts the spinners (none where the scheduler calls are refused).
    pub fn start() -> NoIdle {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !enter_idle_class_on(cpu) {
                        eprintln!("no-idle: cannot enter SCHED_IDLE on cpu {cpu}; not spinning");
                        return;
                    }
                    // Yield rather than spin in user space: the kernel marks
                    // a lower-class task for preemption lazily and acts on the
                    // mark when the task next leaves the kernel, so a pure
                    // user-space loop would hold a woken thread off until the
                    // next timer tick (4 ms stalls on every other request in
                    // the sizing runs). The flag publishes no data, so
                    // `Relaxed` is enough.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        NoIdle { stop, spinners }
    }
}

impl Drop for NoIdle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            // A spinner cannot panic; nothing to report.
            let _ = spinner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_and_stop() {
        assert!(!allowed_cpus().is_empty());
        let guard = NoIdle::start();
        assert_eq!(guard.spinners.len(), allowed_cpus().len());
        drop(guard);
    }
}

//! Running a closure on one CPU.
//!
//! The `interactive` workload's queries take about a tenth of a
//! millisecond, and each one spawns and joins its pool threads. On a guest
//! with a few virtual CPUs, a thread placed on an idle CPU waits for the
//! host to wake that CPU, and that wait follows the load other guests put
//! on the host more than the program. Confined to one CPU, the spawned
//! threads run in turn where the client runs, so the query still pays for
//! every spawn, join and task but not for cross-CPU wake-ups.

/// 64-bit words of the CPU mask passed to the kernel (a 1024-bit
/// `cpu_set_t`).
const MASK_WORDS: usize = 1024 / 64;

type Mask = [u64; MASK_WORDS];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get_mask() -> Option<Mask> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid 0
    // is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set_mask(mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed; pid 0
    // is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get_mask() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_mask(_: &Mask) -> bool {
    false
}

/// A mask holding only the highest CPU of `mask`, or `None` if it is
/// empty.
pub fn highest_cpu(mask: &Mask) -> Option<Mask> {
    let word = mask.iter().rposition(|&w| w != 0)?;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << (63 - mask[word].leading_zeros());
    Some(one)
}

/// Runs `body` with the calling thread, and every thread it spawns,
/// confined to one CPU, then restores the thread's CPU mask. Returns the
/// result and the number of CPUs `body` could use (the previous count when
/// the mask cannot be changed). Call it before `body` starts any thread
/// that outlives it.
pub fn on_one_cpu<R>(body: impl FnOnce() -> R) -> (R, usize) {
    let before = get_mask();
    let pinned = before.as_ref().and_then(highest_cpu).filter(set_mask);
    let cpus = match (&pinned, &before) {
        (Some(_), _) => 1,
        (None, Some(mask)) => mask.iter().map(|w| w.count_ones() as usize).sum(),
        (None, None) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let result = body();
    if let (Some(_), Some(mask)) = (pinned, before) {
        set_mask(&mask);
    }
    (result, cpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_cpu_keeps_one_bit() {
        let mut mask = [0u64; MASK_WORDS];
        assert_eq!(highest_cpu(&mask), None);
        mask[0] = 0b1011;
        let one = highest_cpu(&mask).unwrap();
        assert_eq!(one[0], 0b1000);
        mask[2] = 1 << 5;
        let one = highest_cpu(&mask).unwrap();
        assert_eq!((one[0], one[2]), (0, 1 << 5));
    }

    #[test]
    fn on_one_cpu_confines_and_restores() {
        let cpus_before = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (inside, cpus) = on_one_cpu(|| {
            std::thread::scope(|s| {
                s.spawn(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
                    .join()
                    .unwrap()
            })
        });
        if get_mask().is_some() {
            assert_eq!((inside, cpus), (1, 1));
        }
        let cpus_after = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(cpus_after, cpus_before);
    }
}

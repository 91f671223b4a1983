//! CPU placement: the daemons run on one half of the CPUs this process
//! may use and the load generator (client encryption, senders,
//! receivers) on the other, as if the clients were separate machines.
//!
//! Threads inherit the affinity of the thread that spawns them, so the
//! caller pins itself to the server half while it starts the daemons
//! and to the client half while it drives them. On a single CPU, or off
//! Linux, nothing is pinned.

/// A CPU set as the kernel's `cpu_set_t` (1024 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    fn of(cpus: &[usize]) -> Self {
        let mut bits = [0u64; 16];
        for &c in cpus {
            bits[c / 64] |= 1 << (c % 64);
        }
        Self(bits)
    }

    pub fn count(&self) -> usize {
        self.cpus().len()
    }
}

/// The CPUs the calling thread may run on.
pub fn current() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        let mut bits = [0u64; 16];
        // SAFETY: `bits` is a writable buffer of exactly the size passed,
        // the kernel's 1024-bit `cpu_set_t`; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&bits), bits.as_mut_ptr()) };
        (rc == 0).then_some(CpuSet(bits))
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Restricts the calling thread (and the threads it spawns from now
/// on) to `set`.
pub fn pin(set: &CpuSet) {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: the mask is a readable buffer of exactly the size
        // passed; pid 0 is the calling thread. A failure leaves the
        // affinity unchanged, which only costs placement control.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) };
    }
}

/// The process's CPUs split into (server, client) halves, or `None`
/// when there is only one CPU to use.
pub fn halves(all: &CpuSet) -> Option<(CpuSet, CpuSet)> {
    let cpus = all.cpus();
    if cpus.len() < 2 {
        return None;
    }
    let (server, client) = cpus.split_at(cpus.len() / 2);
    Some((CpuSet::of(server), CpuSet::of(client)))
}

/// Where each side of a workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    all: Option<CpuSet>,
    split: Option<(CpuSet, CpuSet)>,
}

impl Placement {
    pub fn detect() -> Self {
        let all = current();
        Self {
            all,
            split: all.as_ref().and_then(halves),
        }
    }

    /// Pins the calling thread to the daemons' CPUs.
    pub fn server(&self) {
        if let Some((s, _)) = &self.split {
            pin(s);
        }
    }

    /// Pins the calling thread to the load generator's CPUs.
    pub fn client(&self) {
        if let Some((_, c)) = &self.split {
            pin(c);
        }
    }

    /// Releases the calling thread onto every CPU again.
    pub fn everywhere(&self) {
        if let Some(a) = &self.all {
            pin(a);
        }
    }

    /// CPUs of the (server, client) sides; equal when nothing is pinned.
    pub fn sizes(&self) -> (usize, usize) {
        match (&self.split, &self.all) {
            (Some((s, c)), _) => (s.count(), c.count()),
            (None, Some(a)) => (a.count(), a.count()),
            (None, None) => (0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves_split_the_set_and_keep_every_cpu() {
        let all = CpuSet::of(&[0, 1, 2, 65]);
        let (s, c) = halves(&all).unwrap();
        assert_eq!((s.cpus(), c.cpus()), (vec![0, 1], vec![2, 65]));
        assert!(halves(&CpuSet::of(&[3])).is_none());
    }
}

//! The production serverless workload of §4.4 / Fig. 9.
//!
//! "The production system is composed of several processes running to
//! serve client requests. The measured memory overhead of this service is
//! relatively large, with a difference between resident sets and working
//! sets of approximately 90%."
//!
//! We model a fleet of worker processes, each with a large resident heap
//! of which only ~10 % is ever touched while serving requests; request
//! arrivals touch the hot part plus occasional cold strays. The worker
//! is a [`crate::Behavior::MostlyIdle`] [`crate::WorkloadSpec`]; the
//! `daos` engine runs the fleet.

use daos_mm::clock::Ns;

/// Fleet configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of worker processes.
    pub nr_workers: usize,
    /// Heap size per worker.
    pub worker_footprint: u64,
    /// Fraction of each heap that the request path actually uses
    /// (the paper reports a ~90 % resident/working-set gap → 0.1).
    pub working_frac: f64,
    /// Accesses per hot page per epoch.
    pub apc: f32,
    /// Per-epoch probability that a request strays into cold heap.
    pub stray_prob: f32,
    /// Pure-CPU request handling per worker per epoch, ns.
    pub compute_ns: Ns,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            nr_workers: 8,
            worker_footprint: 24 << 20,
            working_frac: 0.1,
            apc: 4.0,
            stray_prob: 0.02,
            compute_ns: 500_000,
        }
    }
}

impl FleetConfig {
    /// One worker process as a [`crate::WorkloadSpec`]: a mostly-idle
    /// heap of `worker_footprint` bytes whose request path touches only
    /// `working_frac` of it. The fleet engine replicates this spec per
    /// process (each with its own seed).
    pub fn worker_spec(&self, nr_epochs: u64) -> crate::WorkloadSpec {
        crate::WorkloadSpec {
            name: "serverless",
            suite: crate::Suite::Fleet,
            footprint: self.worker_footprint,
            nr_epochs,
            compute_ns: self.compute_ns,
            behavior: crate::Behavior::MostlyIdle {
                active_frac: self.working_frac,
                apc: self.apc,
                stray_prob: self.stray_prob,
            },
        }
    }
}

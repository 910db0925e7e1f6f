//! The benchmark's workloads: each one fixes a dataset, a DUT
//! configuration and a host-thread count, and is chosen to load a
//! different layer of the simulator (see `perfbench/README.md`).

use muchisim_config::{DramConfig, SystemConfig};
use muchisim_data::rmat::RmatConfig;
use muchisim_data::synthetic::grid_2d;
use muchisim_data::Csr;

/// The application a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// `muchisim_apps::Spmv`.
    Spmv,
    /// `muchisim_apps::Bfs` (asynchronous) from the highest-degree vertex.
    Bfs,
}

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SpMV on RMAT-12 over a 32×32 SRAM-only mesh, 2 workers: the
    /// congested regime, where stall outcomes outnumber hops.
    SpmvRmatCongested,
    /// SpMV on a 512×512 2D grid over 512×512 tiles, 1 worker: every
    /// tile active, near-neighbour traffic, almost no stalls.
    SpmvGridDense,
    /// BFS along a 2^20-vertex path over 64×64 DRAM-backed tiles, 1
    /// worker, sampled telemetry: long leaps, memory model, observation.
    BfsPathDramSampled,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SpmvRmatCongested,
        Workload::SpmvGridDense,
        Workload::BfsPathDramSampled,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpmvRmatCongested => "spmv-rmat-congested",
            Workload::SpmvGridDense => "spmv-grid-dense",
            Workload::BfsPathDramSampled => "bfs-path-dram-sampled",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The application the workload runs.
    pub fn app(self) -> App {
        match self {
            Workload::SpmvRmatCongested | Workload::SpmvGridDense => App::Spmv,
            Workload::BfsPathDramSampled => App::Bfs,
        }
    }

    /// Simulation worker threads of the measured run.
    pub fn workers(self) -> usize {
        match self {
            Workload::SpmvRmatCongested => 2,
            Workload::SpmvGridDense | Workload::BfsPathDramSampled => 1,
        }
    }

    /// Telemetry sampling cadence in cycles, when the workload samples.
    pub fn sample_every(self) -> Option<u64> {
        match self {
            Workload::BfsPathDramSampled => Some(1024),
            Workload::SpmvRmatCongested | Workload::SpmvGridDense => None,
        }
    }

    /// Host threads the measured run occupies: the workers plus the
    /// telemetry hub thread when sampling.
    pub fn host_threads(self) -> usize {
        self.workers() + usize::from(self.sample_every().is_some())
    }

    /// Generates the dataset. Only the RMAT graph depends on `seed`; the
    /// structured inputs are the same for every seed.
    pub fn generate(self, seed: u64) -> Csr {
        match self {
            Workload::SpmvRmatCongested => RmatConfig::scale(12).generate(seed),
            Workload::SpmvGridDense => grid_2d(512, 512),
            Workload::BfsPathDramSampled => grid_2d(1 << 20, 1),
        }
    }

    /// The DUT configuration, with telemetry sampling set when `sampled`.
    pub fn config(self, sampled: bool) -> SystemConfig {
        let mut b = SystemConfig::builder();
        match self {
            Workload::SpmvRmatCongested => b.chiplet_tiles(32, 32),
            Workload::SpmvGridDense => b.chiplet_tiles(512, 512).frame_budget(64),
            Workload::BfsPathDramSampled => b
                .chiplet_tiles(64, 64)
                .sram_kib_per_tile(2)
                .dram(DramConfig::default()),
        };
        let mut cfg = b.build().expect("benchmark configurations are valid");
        if sampled {
            cfg.telemetry.sample_every = self.sample_every();
        }
        cfg
    }
}

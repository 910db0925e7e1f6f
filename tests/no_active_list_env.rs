//! `MUCHISIM_SET=active_list=false` forces full per-cycle sweeps over
//! every tile and router.
//!
//! Kept in its own integration-test binary because it mutates the
//! process environment: cargo gives each test file its own process, so
//! this cannot race other tests that construct simulations.

use muchisim::apps::{high_degree_root, Bfs, SyncMode};
use muchisim::config::SystemConfig;
use muchisim::core::Simulation;
use muchisim::data::rmat::RmatConfig;
use muchisim::data::Csr;
use std::sync::Arc;

fn bfs(graph: &Arc<Csr>) -> Simulation<Bfs> {
    let cfg = SystemConfig::builder()
        .chiplet_tiles(4, 4)
        .build()
        .expect("valid config");
    let tiles = cfg.total_tiles() as u32;
    let root = high_degree_root(graph);
    Simulation::new(
        cfg,
        Bfs::new(Arc::clone(graph), tiles, root, SyncMode::Async),
    )
    .expect("builds")
}

#[test]
fn no_active_list_env_var_forces_full_sweeps_with_identical_results() {
    let graph = Arc::new(RmatConfig::scale(5).generate(3));
    std::env::remove_var("MUCHISIM_SET");
    let worklist = bfs(&graph);
    assert!(worklist.config().active_list);
    let worklist = worklist.run().expect("runs");

    std::env::set_var("MUCHISIM_SET", "active_list=false");
    let full_sweep = bfs(&graph);
    std::env::remove_var("MUCHISIM_SET");
    assert!(!full_sweep.config().active_list);
    let full_sweep = full_sweep.run().expect("runs");

    assert_eq!(worklist.runtime_cycles, full_sweep.runtime_cycles);
    assert_eq!(worklist.counters, full_sweep.counters);
    assert_eq!(worklist.frames, full_sweep.frames);
}

//! `MUCHISIM_SET=time_leap=false` forces the lockstep driver.
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
        .chiplet_tiles(2, 2)
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
fn no_leap_env_var_forces_lockstep_with_identical_results() {
    let graph = Arc::new(RmatConfig::scale(5).generate(3));
    std::env::remove_var("MUCHISIM_SET");
    let leaping = bfs(&graph);
    assert!(leaping.config().time_leap);
    let leaping = leaping.run().expect("runs");

    std::env::set_var("MUCHISIM_SET", "time_leap=false");
    let lockstep = bfs(&graph);
    std::env::remove_var("MUCHISIM_SET");
    assert!(!lockstep.config().time_leap);
    let lockstep = lockstep.run().expect("runs");

    assert_eq!(leaping.runtime_cycles, lockstep.runtime_cycles);
    assert_eq!(leaping.counters, lockstep.counters);
    assert_eq!(leaping.frames, lockstep.frames);
}

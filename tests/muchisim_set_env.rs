//! The `MUCHISIM_SET` environment variable overrides the configuration of
//! every simulation: several comma-separated entries apply together and
//! leave results untouched, and a bad entry is a clean configuration
//! error. The single switches are pinned in `no_leap_env.rs` and
//! `no_active_list_env.rs`.
//!
//! Kept in its own integration-test binary with a single `#[test]`
//! because it mutates the process environment: cargo gives each test
//! file its own process, and a single test function cannot race itself.

use muchisim::apps::{high_degree_root, Bfs, SyncMode};
use muchisim::config::SystemConfig;
use muchisim::core::{SimError, Simulation};
use muchisim::data::rmat::RmatConfig;
use muchisim::data::Csr;
use std::sync::Arc;

fn bfs(graph: &Arc<Csr>) -> Result<Simulation<Bfs>, SimError> {
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
}

#[test]
fn muchisim_set_applies_every_entry_and_rejects_bad_ones() {
    let graph = Arc::new(RmatConfig::scale(5).generate(3));
    std::env::remove_var("MUCHISIM_SET");
    let default = bfs(&graph).expect("builds");
    assert!(default.config().time_leap && default.config().active_list);
    let want = default.run().expect("runs");

    std::env::set_var("MUCHISIM_SET", "time_leap=false, active_list=false");
    let sim = bfs(&graph).expect("builds");
    assert!(!sim.config().time_leap && !sim.config().active_list);
    let got = sim.run().expect("runs");
    assert_eq!(got.runtime_cycles, want.runtime_cycles);
    assert_eq!(got.counters, want.counters);
    assert_eq!(got.frames, want.frames);

    // an unknown key, an entry without `=`, and a value that fails
    // validation: each a configuration error naming the entry, no panic
    for bad in ["no_such_knob=1", "time_leap", "noc.width_bits=12"] {
        std::env::set_var("MUCHISIM_SET", bad);
        match bfs(&graph).map(|_| ()) {
            Err(SimError::Config(e)) => assert!(e.to_string().contains(bad), "{bad}: {e}"),
            other => panic!("{bad}: expected a configuration error, got {other:?}"),
        }
    }
    std::env::remove_var("MUCHISIM_SET");
}

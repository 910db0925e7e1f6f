//! Checkpoint/resume under the `time_leap` x `active_list` kill-switch
//! matrix, set through the `MUCHISIM_SET` environment variable.
//!
//! A snapshot written under the default (leaping, worklist-enabled)
//! driver must resume bit-identically under every kill-switch
//! combination, and vice versa: the snapshot captures *simulated* state
//! only, and the env switches only select host-side execution shortcuts.
//!
//! Kept in its own integration-test binary with a single `#[test]`
//! because it mutates the process environment: cargo gives each test
//! file its own process, and a single test function cannot race itself.

use muchisim::apps::{run_benchmark, Benchmark};
use muchisim::config::{SystemConfig, Verbosity};
use muchisim::core::digest::trace_checksum;
use muchisim::core::SimResult;
use muchisim::data::rmat::RmatConfig;
use muchisim::data::Csr;
use std::sync::Arc;

fn cfg() -> SystemConfig {
    SystemConfig::builder()
        .chiplet_tiles(8, 8)
        .verbosity(Verbosity::V3)
        .frame_interval_cycles(256)
        .build()
        .expect("valid config")
}

fn run(c: SystemConfig, graph: &Arc<Csr>) -> SimResult {
    let r = run_benchmark(Benchmark::Bfs, c, graph, 1).expect("runs");
    assert!(r.check_error.is_none(), "{:?}", r.check_error);
    r
}

/// Sets `MUCHISIM_SET` to turn off the knobs flagged in
/// `(leap_off, active_off)`, or unsets it when neither is.
fn set_switches(leap_off: bool, active_off: bool) {
    let set: Vec<&str> = [
        ("time_leap=false", leap_off),
        ("active_list=false", active_off),
    ]
    .into_iter()
    .filter_map(|(assignment, off)| off.then_some(assignment))
    .collect();
    if set.is_empty() {
        std::env::remove_var("MUCHISIM_SET");
    } else {
        std::env::set_var("MUCHISIM_SET", set.join(","));
    }
}

#[test]
fn checkpoint_resume_is_invariant_under_kill_switches() {
    let graph = Arc::new(RmatConfig::scale(5).generate(0xC0FF_EE00));
    let base = cfg();
    let tiles = base.width() * base.height();
    set_switches(false, false);
    let reference = run(base.clone(), &graph);
    let want = trace_checksum(&reference, tiles);
    let every = (reference.runtime_cycles / 2).max(1);
    let combos = [(false, false), (true, false), (false, true), (true, true)];
    // every writer combo x every resumer combo: 16 split pairs, all
    // landing on the uninterrupted run's checksum
    for (w_leap, w_active) in combos {
        let path = std::env::temp_dir()
            .join(format!(
                "muchisim-killswitch-{}-{w_leap}-{w_active}.snap",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned();
        set_switches(w_leap, w_active);
        let mut with_ckpt = base.clone();
        with_ckpt.checkpoint_path = Some(path.clone());
        with_ckpt.checkpoint_every = Some(every);
        let writer = run(with_ckpt, &graph);
        assert_eq!(
            trace_checksum(&writer, tiles),
            want,
            "checkpointing under (no_leap={w_leap}, no_active={w_active}) perturbed the run"
        );
        assert!(
            std::path::Path::new(&path).exists(),
            "no snapshot written under (no_leap={w_leap}, no_active={w_active})"
        );
        for (r_leap, r_active) in combos {
            set_switches(r_leap, r_active);
            let mut resume = base.clone();
            resume.checkpoint_path = Some(path.clone());
            resume.checkpoint_resume = true;
            let resumed = run(resume, &graph);
            assert_eq!(
                trace_checksum(&resumed, tiles),
                want,
                "write under (no_leap={w_leap}, no_active={w_active}), resume under \
                 (no_leap={r_leap}, no_active={r_active}) diverged"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
    set_switches(false, false);
}

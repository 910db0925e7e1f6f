//! The `muchisim run` command line: shorthand flags and `--set` are one
//! list of assignments, applied left to right after the defaults, so any
//! mix of the two is accepted, takes effect, and is validated once.
//!
//! Exit codes: 0 for a finished run, 1 for a failed one, 2 for a usage
//! or configuration error, 3 for a tripped ward.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh working directory for one test (the CLI writes
/// `target/counters.json` relative to it).
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("muchisim-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("target")).expect("create workdir");
    dir
}

/// Runs `muchisim run bfs 5 4 1 <args>` in `dir` (`args` split on
/// whitespace) and returns its exit code.
fn run(dir: &Path, args: &str) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_muchisim"))
        .args(["run", "bfs", "5", "4", "1"])
        .args(args.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("spawn muchisim");
    out.status.code().unwrap_or_else(|| {
        panic!(
            "`{args}` died without an exit code: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

#[test]
fn flags_and_set_assignments_mix_in_any_order() {
    let dir = workdir("mix");
    // a flag does not clobber a --set of a neighbouring key
    assert_eq!(
        run(&dir, "--set checkpoint_every=50 --checkpoint a.snap"),
        0
    );
    assert!(dir.join("a.snap").exists(), "cadence from --set was lost");
    assert_eq!(run(&dir, "--set checkpoint_path=a.snap --resume"), 0);
    assert_eq!(
        run(&dir, "--set checkpoint_resume=true --checkpoint a.snap"),
        0
    );
    // resume really is in effect: a damaged snapshot fails the run
    std::fs::write(dir.join("bad.snap"), b"not a snapshot").expect("write");
    assert_eq!(run(&dir, "--set checkpoint_path=bad.snap --resume"), 1);
    assert_eq!(
        run(&dir, "--set checkpoint_resume=true --checkpoint bad.snap"),
        1
    );
    // a ward armed through --set trips at the flag's cadence
    let ward = "--set telemetry.wards.max_cycles=64 --sample-every 16";
    assert_eq!(run(&dir, ward), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn path_flags_store_their_argument_verbatim() {
    let dir = workdir("verbatim");
    assert_eq!(run(&dir, "--metrics 1024"), 0);
    let written = dir.join("1024").is_file();
    assert!(written, "--metrics 1024 wrote no file `1024`");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_command_lines_exit_2_and_wards_exit_3() {
    let dir = workdir("codes");
    for args in [
        "--no-such-flag",
        "--checkpoint",
        "--sample-every 16x",
        "--threads many",
        "--checkpoint-every 50",
        "--set noc_trace=123",
        "--ward stall",
    ] {
        assert_eq!(run(&dir, args), 2, "`{args}`");
    }
    assert_eq!(run(&dir, "--ward max_cycles=64 --sample-every 16"), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

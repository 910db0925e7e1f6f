//! The `muchisim` command line.
//!
//! Four subcommands cover the paper's workflow end to end:
//!
//! * `muchisim run <app> [scale [side [threads]]]` — one simulation,
//!   report printed, counters file written for later post-processing;
//!   `--trace FILE` additionally records the NoC injection trace.
//! * `muchisim sweep --spec FILE` — a declarative design-space sweep
//!   (see [`muchisim::dse`]): points run concurrently, results stream
//!   into a resumable JSONL store, completed run IDs are skipped.
//! * `muchisim report --store FILE` — aggregate a store into the
//!   comparison table, optionally re-priced with `--set` overrides
//!   (energy/cost post-processing without re-simulation).
//! * `muchisim traffic sweep|replay` — NoC characterization: synthetic
//!   latency-vs-load saturation sweeps and app-free replay of a
//!   recorded communication trace (see [`muchisim::traffic`]).
//!
//! Argument parsing is strict: unparseable numbers and unknown flags are
//! errors (exit code 2), never silently replaced with defaults.

use muchisim::apps::{run_benchmark, Benchmark};
use muchisim::config::{ConvergedWard, NocTopology, SystemConfig, TrafficPattern, WardMetric};
use muchisim::core::SimError;
use muchisim::data::rmat::RmatConfig;
use muchisim::dse::{
    apply_to_config, parse_assignment, parse_json_or_string, table_from_store, BatchRunner,
    ExperimentSpec, JsonlStore, Override,
};
use muchisim::energy::Report;
use muchisim::traffic::{saturation_sweep, SaturationCurve, TraceReplayApp};
use muchisim::viz::{LoadLatencyRow, LoadLatencyTable};
use serde_json::JsonValue;
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

const USAGE: &str = "\
muchisim — MuchiSim: design exploration for multi-chip manycore systems

USAGE:
    muchisim run <app> [scale [side [threads]]] [--telemetry] [--seed N]
                 [--threads N] [--no-active-list] [--trace FILE]
                 [--checkpoint FILE] [--checkpoint-every N] [--resume]
                 [--metrics FILE] [--metrics-csv FILE] [--sample-every N]
                 [--progress] [--ward KEY=VALUE]...
                 [--set KEY=VALUE]...
    muchisim sweep --spec FILE [--store FILE] [--host-threads N] [--seed N]
                 [--sample-every N] [--csv]
    muchisim report --store FILE [--set KEY=VALUE]... [--csv]
    muchisim traffic sweep [--pattern P] [--rates R,R,...] [--side N]
                 [--topo mesh|torus|ruche] [--threads N] [--seed N]
                 [--csv] [--set KEY=VALUE]...
    muchisim traffic replay --trace FILE [--side N] [--threads N]
                 [--set KEY=VALUE]...

SUBCOMMANDS:
    run      Run one benchmark on an RMAT graph and print its report.
             <app> is a suite label (bfs, sssp, page, wcc, spmv, spmm,
             histo, fft) or a synthetic-traffic workload (traf-uniform,
             traf-bitcomp, traf-transpose, traf-shuffle, traf-neighbor,
             traf-hotspot); scale is the RMAT scale (default 11), side
             the square grid side in tiles (default 16), threads the
             host threads (default: the host's available parallelism,
             capped at the grid's column count; results are
             bit-identical at any count). --seed seeds both the dataset
             generator and traffic.seed; --trace records every NoC
             injection to FILE (JSONL) for later replay. --telemetry
             additionally prints simulator throughput and the host
             memory footprint. --threads N overrides the positional
             thread count; --no-active-list disables the active-tile
             worklists (full per-cycle sweeps, bit-identical results,
             shorthand for --set active_list=false). Configuration
             flags are shorthand for `--set` keys; assignments apply left
             to right after the defaults, so the last one wins.
             --checkpoint FILE snapshots the full simulation state to
             FILE periodically (--checkpoint-every N cycles, default
             10000); with --resume the run restores FILE first, if it
             exists, and continues bit-identically from its cycle (see
             docs/CHECKPOINT.md). Incompatible with --trace.
             --metrics FILE streams a schema-versioned JSONL metrics
             sample every --sample-every N cycles (default 1024);
             --metrics-csv FILE streams the same samples as CSV;
             --progress rewrites a live stdout line
             (cycle / sim-cyc/s / active% / ETA). --ward KEY=VALUE
             (repeatable) arms a declarative stop-condition on the
             sample stream (see docs/OBSERVABILITY.md):
               max_cycles=N        stop at cycle N
               stall=N             stall watchdog: no task executes and
                                   no flit moves for N cycles
               converged=M:EPS[:W] metric M delta within EPS for W
                                   samples (M: tasks, injected, pending,
                                   latency_mean; W default 3)
               diverged_queue=F    pending work grew past F x baseline
               diverged_latency=F  interval latency past F x baseline
               snapshot=BOOL       write a post-mortem snapshot to the
                                   --checkpoint FILE on any trip
             A tripped ward prints its diagnostic report and exits 3.
    sweep    Expand a JSON experiment spec into run points, execute the
             ones missing from the store concurrently, and print the
             comparison table. Re-invoking skips completed run IDs.
             --seed appends a traffic.seed override to the spec's base.
             --sample-every N streams live per-point metrics into
             <store>.metrics/<run_id>.jsonl while the sweep runs. Specs
             may arm telemetry wards (telemetry.wards.* overrides); a
             tripped point is recorded with termination ward:<name>, not
             treated as a batch failure.
    report   Rebuild the comparison table from a result store without
             re-simulating; --set re-prices the stored runs under
             different model parameters.
    traffic  NoC characterization. `traffic sweep` runs a synthetic
             pattern (default uniform) across ascending offered loads
             (--rates, packets/tile/cycle) on a side×side grid
             (default 8, 4 PUs/tile) and prints the latency-vs-load
             table plus the detected saturation rate. `traffic replay`
             re-injects a trace recorded with `run --trace`, app-free,
             under the configuration given by --side/--set. Both
             default --threads as `run` does.

COMMON OPTIONS:
    --set KEY=VALUE   Configuration override (repeatable), e.g.
                      --set sram_kib_per_tile=64 --set traffic.rate=0.08
    --csv             Print the table as CSV instead of aligned text.
    -h, --help        Show this help.
";

/// The remaining command-line arguments of a subcommand.
type Args = std::vec::IntoIter<String>;

/// How a `run` flag that is shorthand for a configuration key gets the
/// value it assigns.
enum FlagValue {
    /// The flag takes no argument and assigns this value.
    Implied(&'static str),
    /// The next argument, stored verbatim as a string (a file path).
    Path,
    /// The next argument, parsed like a `--set` value.
    Parsed,
}
use FlagValue::{Implied, Parsed, Path};

/// The `run` flags that are shorthand for `--set KEY=VALUE`.
const RUN_ALIASES: [(&str, &str, FlagValue); 9] = [
    ("--no-active-list", "active_list", Implied("false")),
    ("--trace", "noc_trace", Path),
    ("--checkpoint", "checkpoint_path", Path),
    ("--checkpoint-every", "checkpoint_every", Parsed),
    ("--resume", "checkpoint_resume", Implied("true")),
    ("--metrics", "telemetry.metrics_path", Path),
    ("--metrics-csv", "telemetry.metrics_csv", Path),
    ("--sample-every", "telemetry.sample_every", Parsed),
    ("--progress", "telemetry.progress", Implied("true")),
];

/// `--ward NAME=VALUE` names and the `telemetry.*` keys they set;
/// `converged` is translated by [`converged_ward`].
const WARD_KEYS: [(&str, &str); 5] = [
    ("max_cycles", "wards.max_cycles"),
    ("stall", "wards.stall_cycles"),
    ("diverged_queue", "wards.diverged_queue_factor"),
    ("diverged_latency", "wards.diverged_latency_factor"),
    ("snapshot", "snapshot_on_trip"),
];

/// The default host-thread count for a grid `columns` tiles wide: the
/// host's available parallelism, capped at the column count (workers own
/// column slices, so more threads than columns would sit idle).
fn default_threads(columns: u32) -> usize {
    host_parallelism().min(columns as usize).max(1)
}

/// The host's available parallelism, or 1 when it cannot be queried.
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn usage_error(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `muchisim --help` for usage");
    std::process::exit(2);
}

fn parse_num<T: FromStr>(what: &str, text: &str) -> T
where
    T::Err: Display,
{
    text.parse()
        .unwrap_or_else(|e| usage_error(format!("invalid {what} `{text}`: {e}")))
}

/// The argument following `flag`, exiting 2 when it is missing.
fn next_value(args: &mut Args, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(format!("{flag} needs a value")))
}

/// Parses the value of `flag` from the next argument, exiting 2 when it
/// is missing or malformed.
fn parse_flag_value<T: FromStr>(args: &mut Args, flag: &str, what: &str) -> T
where
    T::Err: Display,
{
    parse_num(what, &next_value(args, flag))
}

fn parse_set(args: &mut Args) -> Override {
    parse_assignment(&next_value(args, "--set")).unwrap_or_else(|e| usage_error(e))
}

/// Translates one `--ward NAME=VALUE` into its configuration override.
fn ward_override(assignment: &str) -> Override {
    let Some((name, value)) = assignment.split_once('=') else {
        usage_error(format!("--ward needs NAME=VALUE, got `{assignment}`"));
    };
    if name == "converged" {
        let key = "telemetry.wards.converged".to_string();
        return (key, converged_ward(value));
    }
    let Some((_, key)) = WARD_KEYS.iter().find(|(n, _)| *n == name) else {
        usage_error(format!(
            "unknown ward `{name}`; choose one of: converged, {}",
            WARD_KEYS.map(|(n, _)| n).join(", ")
        ));
    };
    (format!("telemetry.{key}"), parse_json_or_string(value))
}

/// Parses a `converged=METRIC:EPSILON[:WINDOW]` ward value.
fn converged_ward(value: &str) -> JsonValue {
    let mut parts = value.split(':');
    let name = parts.next().unwrap_or("");
    let metric = WardMetric::from_label(name).unwrap_or_else(|| {
        usage_error(format!(
            "unknown converged metric `{name}`; choose one of: {}",
            WardMetric::ALL.map(WardMetric::label).join(", ")
        ))
    });
    let Some(eps) = parts.next() else {
        usage_error("converged ward needs METRIC:EPSILON[:WINDOW]");
    };
    let epsilon: f64 = parse_num("converged epsilon", eps);
    let window: u32 = parts.next().map_or(3, |w| parse_num("converged window", w));
    if parts.next().is_some() {
        usage_error(format!("converged ward `{value}` has too many `:` parts"));
    }
    let ward = ConvergedWard {
        metric,
        epsilon,
        window,
    };
    parse_json_or_string(&serde_json::to_string(&ward).expect("a ward serializes"))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        print!("{USAGE}");
        return;
    }
    if args.is_empty() {
        usage_error("missing subcommand (run, sweep, or report)");
    }
    let sub = args.remove(0);
    let code = match sub.as_str() {
        "run" => cmd_run(args),
        "sweep" => cmd_sweep(args),
        "report" => cmd_report(args),
        "traffic" => cmd_traffic(args),
        other => usage_error(format!("unknown subcommand `{other}`")),
    };
    std::process::exit(code);
}

/// A parsed `run` command line.
#[derive(Default)]
struct RunArgs {
    positional: Vec<String>,
    /// The defaults, then every shorthand flag and `--set` in
    /// command-line order; applied in one pass, the last assignment to a
    /// key wins.
    overrides: Vec<Override>,
    telemetry: bool,
    seed: Option<u64>,
    threads: Option<usize>,
}

fn parse_run_args(args: Vec<String>) -> RunArgs {
    let mut run = RunArgs::default();
    let mut assigned: Vec<Override> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if let Some((flag, key, value)) = RUN_ALIASES.iter().find(|(f, ..)| *f == arg) {
            let value = match value {
                Implied(text) => parse_json_or_string(text),
                Path => JsonValue::String(next_value(&mut args, flag)),
                Parsed => parse_json_or_string(&next_value(&mut args, flag)),
            };
            assigned.push((key.to_string(), value));
            continue;
        }
        match arg.as_str() {
            "--set" => assigned.push(parse_set(&mut args)),
            "--ward" => assigned.push(ward_override(&next_value(&mut args, "--ward"))),
            "--telemetry" => run.telemetry = true,
            "--seed" => run.seed = Some(parse_flag_value(&mut args, "--seed", "seed")),
            "--threads" => {
                run.threads = Some(parse_flag_value(&mut args, "--threads", "thread count"))
            }
            flag if flag.starts_with('-') => usage_error(format!("unknown flag `{flag}`")),
            _ => run.positional.push(arg),
        }
    }
    run.overrides = run_defaults(&assigned, run.seed);
    run.overrides.extend(assigned);
    run
}

/// The assignments `run` makes before any flag or `--set`: a snapshot
/// cadence when a checkpoint path is set, a sample cadence when telemetry
/// output is requested, and `--seed` as the traffic seed (so one flag
/// makes the whole run reproducible).
fn run_defaults(assigned: &[Override], seed: Option<u64>) -> Vec<Override> {
    let mut defaults = Vec::new();
    let mut default = |key: &str, value: String| {
        defaults.push((key.to_string(), parse_json_or_string(&value)));
    };
    let checkpoint_path = assigned.iter().rev().find(|(k, _)| k == "checkpoint_path");
    if checkpoint_path.is_some_and(|(_, path)| *path != JsonValue::Null) {
        default("checkpoint_every", "10000".into());
    }
    if assigned.iter().any(|(k, _)| k.starts_with("telemetry.")) {
        default("telemetry.sample_every", "1024".into());
    }
    if let Some(seed) = seed {
        default("traffic.seed", seed.to_string());
    }
    defaults
}

fn cmd_run(args: Vec<String>) -> i32 {
    let run = parse_run_args(args);
    let positional = &run.positional;
    if positional.len() > 4 {
        usage_error(format!("unexpected argument `{}`", positional[4]));
    }
    let Some(app_name) = positional.first() else {
        usage_error("run needs an <app> argument");
    };
    let Some(app) = Benchmark::from_label(app_name) else {
        usage_error(format!(
            "unknown app `{app_name}`; choose one of: {}",
            Benchmark::ALL.map(|b| b.label().to_lowercase()).join(", ")
        ));
    };
    let scale: u32 = positional.get(1).map_or(11, |s| parse_num("RMAT scale", s));
    let side: u32 = positional.get(2).map_or(16, |s| parse_num("grid side", s));
    let threads: Option<usize> = run
        .threads
        .or_else(|| positional.get(3).map(|s| parse_num("thread count", s)));

    // the positional grid side is one more default, ahead of the flags
    let grid = ["x", "y"].map(|axis| {
        let key = format!("hierarchy.chiplet.{axis}");
        (key, parse_json_or_string(&side.to_string()))
    });
    let overrides: Vec<Override> = grid.into_iter().chain(run.overrides).collect();
    let cfg =
        apply_to_config(&SystemConfig::default(), &overrides).unwrap_or_else(|e| usage_error(e));
    let threads = threads.unwrap_or_else(|| default_threads(cfg.width()));
    let graph_seed = run.seed.unwrap_or(42);

    let graph = Arc::new(RmatConfig::scale(scale).generate(graph_seed));
    println!(
        "running {} on RMAT-{scale} (seed {graph_seed}) over {side}x{side} tiles \
         with {threads} host threads...",
        app.label()
    );
    let result = match run_benchmark(app, cfg.clone(), &graph, threads) {
        Ok(result) => result,
        Err(SimError::Ward(report)) => {
            // a tripped ward is a structured diagnostic, not a crash:
            // print the report (with its per-tile backlogs) and use a
            // distinct exit code so scripts can branch on it
            eprintln!("{report}");
            if let Some(partial) = &report.partial {
                eprintln!(
                    "partial result: {} cycles simulated, {} tasks executed",
                    partial.runtime_cycles, partial.counters.pu.tasks_executed
                );
            }
            return 3;
        }
        Err(e) => {
            eprintln!("error: simulation failed: {e}");
            return 1;
        }
    };
    let failed = match &result.check_error {
        None => {
            println!("check: PASSED");
            false
        }
        Some(e) => {
            println!("check: FAILED ({e})");
            true
        }
    };
    if run.telemetry {
        println!(
            "telemetry: {} tiles | {:.3} Msimcycles/s | {:.3} Mpackets/s | \
             {:.0} bytes/tile ({:.1} MiB simulation state) | host {:.2}s x{} threads",
            result.total_tiles,
            result.sim_cycles_per_sec() / 1e6,
            result.packets_per_sec() / 1e6,
            result.bytes_per_tile(),
            result.host_state_bytes as f64 / (1u64 << 20) as f64,
            result.host_seconds,
            result.host_threads,
        );
        let ph = &result.host_phase_ns;
        println!(
            "telemetry: host phases pu {:.3}s | inject {:.3}s | net {:.3}s | \
             worklist {:.3}s ({:.1}% of attributed time)",
            ph.pu as f64 / 1e9,
            ph.inject as f64 / 1e9,
            ph.net as f64 / 1e9,
            ph.worklist as f64 / 1e9,
            ph.worklist_share() * 100.0,
        );
        let lat = &result.noc_latency;
        println!(
            "telemetry: noc latency mean {:.1} | p50 {} | p95 {} | p99 {} | \
             max {} cycles over {} packets",
            lat.mean(),
            lat.percentile(0.50),
            lat.percentile(0.95),
            lat.percentile(0.99),
            lat.max_cycles,
            lat.count,
        );
    }
    let report = Report::from_counters(&cfg, &result.counters);
    emit(&format!("{}\n", report.to_json()));

    // the counters file: rerun post-processing later with new parameters
    let counters_path = std::path::Path::new("target").join("counters.json");
    let write = serde_json::to_string_pretty(&result.counters)
        .map_err(|e| e.to_string())
        .and_then(|json| std::fs::write(&counters_path, json).map_err(|e| e.to_string()));
    match write {
        Ok(()) => println!("counters file written to {}", counters_path.display()),
        Err(e) => {
            eprintln!("error: writing {}: {e}", counters_path.display());
            return 1;
        }
    }
    if let Some(path) = &cfg.noc_trace {
        println!(
            "NoC trace written to {path} (replay with `muchisim traffic replay --trace {path}`)"
        );
    }
    if let Some(path) = &cfg.telemetry.metrics_path {
        println!("metrics stream written to {path}");
    }
    if let Some(path) = &cfg.telemetry.metrics_csv {
        println!("metrics CSV written to {path}");
    }
    i32::from(failed)
}

fn cmd_sweep(args: Vec<String>) -> i32 {
    let mut spec_path: Option<String> = None;
    let mut store_path: Option<String> = None;
    let mut host_threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut sample_every: Option<u64> = None;
    let mut csv = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = Some(parse_flag_value(&mut args, "--seed", "seed")),
            "--sample-every" => {
                sample_every = Some(parse_flag_value(
                    &mut args,
                    "--sample-every",
                    "sample cadence",
                ))
            }
            "--spec" => spec_path = Some(next_value(&mut args, "--spec")),
            "--store" => store_path = Some(next_value(&mut args, "--store")),
            "--host-threads" => {
                host_threads = Some(parse_flag_value(
                    &mut args,
                    "--host-threads",
                    "host-thread count",
                ))
            }
            "--csv" => csv = true,
            other => usage_error(format!("unknown argument `{other}`")),
        }
    }
    let Some(spec_path) = spec_path else {
        usage_error("sweep needs --spec FILE");
    };
    let text = match std::fs::read_to_string(&spec_path) {
        Ok(text) => text,
        Err(e) => usage_error(format!("reading {spec_path}: {e}")),
    };
    let mut spec = ExperimentSpec::from_json(&text).unwrap_or_else(|e| usage_error(e));
    if let Some(s) = seed {
        // one flag reseeds the whole sweep's synthetic traffic; applied
        // to the base so every axis point inherits it
        spec.base.push((
            "traffic.seed".to_string(),
            parse_json_or_string(&s.to_string()),
        ));
        // run IDs don't encode base overrides, so a differently-seeded
        // sweep must not resume a same-named store and skip everything;
        // renaming the spec gives each seed its own default store (an
        // explicit --store is the caller's responsibility and is warned)
        spec.name = format!("{}-seed{s}", spec.name);
        if store_path.is_some() {
            eprintln!(
                "warning: --seed changes results but not run IDs; \
                 use a fresh --store per seed or completed IDs will be skipped"
            );
        }
    }
    let store_path = store_path
        .unwrap_or_else(|| format!("target/dse/{}.jsonl", muchisim::dse::slug(&spec.name)));
    let host_threads = host_threads.unwrap_or_else(host_parallelism);

    let points = match spec.expand() {
        Ok(points) => points,
        Err(e) => usage_error(e),
    };
    println!(
        "sweep `{}`: {} points ({} axes, {} apps, {} datasets), {} host threads x {} per run",
        spec.name,
        points.len(),
        spec.axes.len(),
        spec.apps.len(),
        spec.datasets.len(),
        host_threads,
        spec.threads_per_run,
    );
    let mut store = match JsonlStore::open(&store_path) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mut runner = BatchRunner::new(host_threads);
    if let Some(every) = sample_every {
        if every == 0 {
            usage_error("--sample-every must be >= 1");
        }
        runner = runner.with_sample_every(every);
        println!(
            "live metrics: one stream per point under {store_path}.metrics/ \
             (every {every} cycles)"
        );
    }
    let outcome = match runner.run_points(&points, spec.threads_per_run, &mut store) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!(
        "executed {} points, skipped {} already-completed points ({})",
        outcome.executed,
        outcome.skipped,
        store.path().display()
    );
    if outcome.ward_trips > 0 {
        println!(
            "{} point(s) were terminated by a telemetry ward (see the `term` column)",
            outcome.ward_trips
        );
    }
    if outcome.check_failures > 0 {
        eprintln!(
            "warning: {} run(s) failed their result check",
            outcome.check_failures
        );
    }
    match print_table(&store, &[], csv) {
        Ok(()) if outcome.check_failures == 0 => 0,
        Ok(()) => 1,
        Err(code) => code,
    }
}

fn cmd_report(args: Vec<String>) -> i32 {
    let mut store_path: Option<String> = None;
    let mut overrides: Vec<Override> = Vec::new();
    let mut csv = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => store_path = Some(next_value(&mut args, "--store")),
            "--set" => overrides.push(parse_set(&mut args)),
            "--csv" => csv = true,
            other => usage_error(format!("unknown argument `{other}`")),
        }
    }
    let Some(store_path) = store_path else {
        usage_error("report needs --store FILE");
    };
    let store = match JsonlStore::open(&store_path) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if store.records().is_empty() {
        eprintln!("error: {store_path} holds no records");
        return 1;
    }
    let failed: Vec<&str> = store
        .records()
        .iter()
        .filter(|r| r.result.check_error.is_some())
        .map(|r| r.run_id.as_str())
        .collect();
    if !failed.is_empty() {
        eprintln!(
            "warning: {} stored run(s) failed their result check: {}",
            failed.len(),
            failed.join(", ")
        );
    }
    match print_table(&store, &overrides, csv) {
        Ok(()) if failed.is_empty() => 0,
        Ok(()) => 1,
        Err(code) => code,
    }
}

fn cmd_traffic(mut args: Vec<String>) -> i32 {
    if args.is_empty() {
        usage_error("traffic needs a subcommand (sweep or replay)");
    }
    let sub = args.remove(0);
    match sub.as_str() {
        "sweep" => cmd_traffic_sweep(args),
        "replay" => cmd_traffic_replay(args),
        other => usage_error(format!("unknown traffic subcommand `{other}`")),
    }
}

/// Builds the traffic base configuration: a square grid with 4 PUs per
/// tile (so receive handlers never bottleneck ahead of the network) and
/// the requested topology, then user overrides on top.
fn traffic_config(side: u32, topo: &str, overrides: &[Override]) -> SystemConfig {
    let mut builder = SystemConfig::builder();
    builder.chiplet_tiles(side, side).pus_per_tile(4);
    match topo {
        "mesh" => builder.noc_topology(NocTopology::Mesh),
        "torus" => builder.noc_topology(NocTopology::FoldedTorus),
        "ruche" => builder.noc_topology(NocTopology::Mesh).ruche_factor(2),
        other => usage_error(format!(
            "unknown topology `{other}`; expected mesh, torus, or ruche"
        )),
    };
    let base = builder.build().unwrap_or_else(|e| usage_error(e));
    apply_to_config(&base, overrides).unwrap_or_else(|e| usage_error(e))
}

fn cmd_traffic_sweep(args: Vec<String>) -> i32 {
    let mut pattern = TrafficPattern::UniformRandom;
    let mut rates: Vec<f64> = vec![0.02, 0.05, 0.1, 0.2, 0.35, 0.5];
    let mut side = 8u32;
    let mut topo = "mesh".to_string();
    let mut threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut overrides: Vec<Override> = Vec::new();
    let mut csv = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--pattern" => {
                let name = next_value(&mut args, "--pattern");
                pattern = TrafficPattern::from_label(&name).unwrap_or_else(|| {
                    usage_error(format!(
                        "unknown pattern `{name}`; choose one of: {}",
                        TrafficPattern::ALL.map(TrafficPattern::label).join(", ")
                    ))
                });
            }
            "--rates" => {
                let list = next_value(&mut args, "--rates");
                rates = list
                    .split(',')
                    .map(|r| parse_num("offered rate", r.trim()))
                    .collect();
                if rates.is_empty() {
                    usage_error("--rates lists no rates");
                }
                // saturation detection baselines on the first point, so
                // the list must really be ascending offered load
                if rates.windows(2).any(|w| w[0] >= w[1]) {
                    usage_error(format!("--rates must be strictly ascending (got {list})"));
                }
            }
            "--side" => side = parse_flag_value(&mut args, "--side", "grid side"),
            "--topo" => topo = next_value(&mut args, "--topo"),
            "--threads" => threads = Some(parse_flag_value(&mut args, "--threads", "thread count")),
            "--seed" => seed = Some(parse_flag_value(&mut args, "--seed", "seed")),
            "--csv" => csv = true,
            "--set" => overrides.push(parse_set(&mut args)),
            other => usage_error(format!("unknown argument `{other}`")),
        }
    }
    // --seed is a default: an explicit --set traffic.seed wins, as in `run`
    if let Some(s) = seed {
        let value = parse_json_or_string(&s.to_string());
        overrides.insert(0, ("traffic.seed".to_string(), value));
    }
    let cfg = traffic_config(side, &topo, &overrides);
    let threads = threads.unwrap_or_else(|| default_threads(cfg.width()));
    println!(
        "traffic sweep: {} on {side}x{side} {topo}, {} rates, window {} cycles, seed {}",
        pattern.label(),
        rates.len(),
        cfg.traffic.cycles,
        cfg.traffic.seed,
    );
    let curve = match saturation_sweep(&cfg, pattern, &rates, threads) {
        Ok(curve) => curve,
        Err(e) => {
            eprintln!("error: traffic sweep failed: {e}");
            return 1;
        }
    };
    let label = format!("{topo}/{}", pattern.label());
    let table = curve_table(&label, &curve);
    if csv {
        emit(&table.to_csv());
    } else {
        emit(&table.to_text());
    }
    match curve.saturation_point(3.0) {
        Some(p) => println!(
            "saturation: offered {:.3} packets/tile/cycle (accepted {:.3}, \
             mean latency {:.1} cycles vs {:.1} at zero load)",
            p.offered,
            p.achieved,
            p.avg_latency,
            curve.base_latency().unwrap_or(0.0),
        ),
        None => println!("saturation: not reached within the swept rates"),
    }
    0
}

/// Converts a saturation curve into the viz latency-vs-load table.
fn curve_table(label: &str, curve: &SaturationCurve) -> LoadLatencyTable {
    let mut table = LoadLatencyTable::default();
    for p in &curve.points {
        table.push(LoadLatencyRow {
            series: label.to_string(),
            offered: p.offered,
            achieved: p.achieved,
            avg_latency: p.avg_latency,
            p50_latency: p.p50_latency,
            p95_latency: p.p95_latency,
            p99_latency: p.p99_latency,
            max_latency: p.max_latency,
        });
    }
    table
}

fn cmd_traffic_replay(args: Vec<String>) -> i32 {
    let mut trace_path: Option<String> = None;
    let mut side = 16u32;
    let mut threads: Option<usize> = None;
    let mut overrides: Vec<Override> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(next_value(&mut args, "--trace")),
            "--side" => side = parse_flag_value(&mut args, "--side", "grid side"),
            "--threads" => threads = Some(parse_flag_value(&mut args, "--threads", "thread count")),
            "--set" => overrides.push(parse_set(&mut args)),
            other => usage_error(format!("unknown argument `{other}`")),
        }
    }
    let Some(trace_path) = trace_path else {
        usage_error("replay needs --trace FILE");
    };
    let base = SystemConfig::builder()
        .chiplet_tiles(side, side)
        .build()
        .unwrap_or_else(|e| usage_error(e));
    let cfg = apply_to_config(&base, &overrides).unwrap_or_else(|e| usage_error(e));
    let threads = threads.unwrap_or_else(|| default_threads(cfg.width()));
    let tiles = cfg.total_tiles() as u32;
    let app = match TraceReplayApp::from_file(&trace_path, tiles) {
        Ok(app) => app,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!(
        "replaying {} packets (last injection at cycle {}) on {side}x{side} \
         with {threads} host threads...",
        app.total_packets(),
        app.last_cycle(),
    );
    let result = match muchisim::core::Simulation::new(cfg, app) {
        Ok(sim) => match sim.run_parallel(threads) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("error: replay failed: {e}");
                return 1;
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if let Some(why) = &result.check_error {
        eprintln!("error: replay check failed: {why}");
        return 1;
    }
    let noc = &result.counters.noc;
    println!(
        "replay done: {} injected | {} ejected | {} combines | {} msg hops | \
         runtime {} cycles | latency mean {:.1} p95 {} max {}",
        noc.injected,
        noc.ejected,
        noc.reduce_combines,
        noc.msg_hops,
        result.runtime_cycles,
        result.noc_latency.mean(),
        result.noc_latency.percentile(0.95),
        result.noc_latency.max_cycles,
    );
    0
}

fn print_table(store: &JsonlStore, overrides: &[Override], csv: bool) -> Result<(), i32> {
    let table = table_from_store(store, overrides).map_err(|e| {
        eprintln!("error: {e}");
        1
    })?;
    if csv {
        emit(&table.to_csv());
    } else {
        emit(&format!("{}\n", table.to_text()));
    }
    Ok(())
}

/// Writes to stdout, exiting quietly when the consumer closed the pipe
/// (`muchisim report | head` must not panic with a backtrace).
fn emit(text: &str) {
    use std::io::Write;
    if std::io::stdout().write_all(text.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

#[cfg(test)]
mod tests {
    use super::{apply_to_config, default_threads, parse_run_args, SystemConfig};

    fn run_args(args: &[&str]) -> super::RunArgs {
        parse_run_args(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn run_flags_expand_after_the_defaults_in_command_line_order() {
        let run = run_args(&[
            "bfs",
            "--checkpoint",
            "snap",
            "--set",
            "checkpoint_every=50",
            "--checkpoint-every",
            "7",
            "--seed",
            "9",
            "--metrics",
            "1024",
            "--no-active-list",
            "5",
        ]);
        assert_eq!(run.positional, ["bfs", "5"]);
        assert_eq!(run.seed, Some(9));
        let keys: Vec<&str> = run.overrides.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                // defaults first...
                "checkpoint_every",
                "telemetry.sample_every",
                "traffic.seed",
                // ...then the command line, in order
                "checkpoint_path",
                "checkpoint_every",
                "checkpoint_every",
                "telemetry.metrics_path",
                "active_list",
            ]
        );
        let cfg = apply_to_config(&SystemConfig::default(), &run.overrides).unwrap();
        assert_eq!(cfg.checkpoint_every, Some(7), "the last assignment wins");
        assert_eq!(cfg.checkpoint_path.as_deref(), Some("snap"));
        assert_eq!(
            cfg.telemetry.metrics_path.as_deref(),
            Some("1024"),
            "path flags store their argument verbatim"
        );
        assert_eq!(cfg.telemetry.sample_every, Some(1024));
        assert_eq!(cfg.traffic.seed, 9);
        assert!(!cfg.active_list);

        // an explicit assignment beats a default wherever it appears
        let run = run_args(&["bfs", "--set", "traffic.seed=5", "--seed", "9"]);
        let cfg = apply_to_config(&SystemConfig::default(), &run.overrides).unwrap();
        assert_eq!(cfg.traffic.seed, 5);
        assert_eq!(run.seed, Some(9));
        // no checkpoint path, no telemetry key: no defaults
        assert_eq!(run_args(&["bfs", "--resume"]).overrides.len(), 1);
    }

    #[test]
    fn default_threads_is_never_zero_nor_above_the_column_count() {
        for columns in [1u32, 2, 3, 16, 1024] {
            let n = default_threads(columns);
            assert!(n >= 1, "{columns} columns: {n} threads");
            assert!(n <= columns as usize, "{columns} columns: {n} threads");
        }
    }
}

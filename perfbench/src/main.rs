//! Host-performance benchmark of the MuchiSim simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spmv-rmat-congested --seed 42 --seconds 35 --trace 0
//! ```
//!
//! One process runs one workload: it repeats whole passes (dataset
//! generation through the energy report) for `--seconds`, checks every
//! pass's output, prints each metric by name and unit, and ends with one
//! JSON line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! keeps spans around each public call and reports the per-layer
//! metrics. `perfbench/README.md` says why each workload is here and
//! which end-to-end metric each layer metric should move.

mod trace;
mod workload;

use muchisim_apps::{high_degree_root, Bfs, Spmv, SyncMode};
use muchisim_config::SystemConfig;
use muchisim_core::digest::schedule_checksum;
use muchisim_core::{Application, MemorySubscriber, SimResult, Simulation};
use muchisim_energy::Report;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Span, Tracer};
use workload::{App, Workload};

/// Fewest passes of a run however short `--seconds` is: a median needs
/// at least three values.
const MIN_PASSES: usize = 3;

/// Share of a traced pass's wall time its layer spans must cover.
const MIN_COVERAGE: f64 = 0.95;

const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The workload as defined, spans not kept.
    Plain,
    /// The workload as defined, spans kept.
    Traced,
    /// The traced run's twin: the sampled workload without sampling, the
    /// multi-worker workload on one worker. Spans kept.
    Twin,
    /// A traced run's first pass, on cold memory: checked but in no
    /// median, so it biases none of the kinds the overheads compare.
    Warmup,
}

impl Kind {
    /// Workers and sampling of a pass of this kind on `w`.
    fn shape(self, w: Workload) -> (usize, bool) {
        let sampled = w.sample_every().is_some();
        match self {
            Kind::Twin if sampled => (w.workers(), false),
            Kind::Twin => (1, false),
            Kind::Plain | Kind::Traced | Kind::Warmup => (w.workers(), sampled),
        }
    }
}

/// The kinds a run cycles through.
fn schedule(w: Workload, traced: bool) -> Vec<Kind> {
    match traced {
        false => vec![Kind::Plain],
        true if w.sample_every().is_some() || w.workers() > 1 => {
            vec![Kind::Traced, Kind::Plain, Kind::Twin]
        }
        true => vec![Kind::Traced, Kind::Plain],
    }
}

/// One timed pass: dataset generation through the energy report.
struct Pass {
    kind: Kind,
    wall_s: f64,
    generate_s: f64,
    build_s: f64,
    new_s: f64,
    run_parallel_s: f64,
    report_s: f64,
    result: SimResult,
    samples: usize,
    peak_rss_mib: f64,
    spans: Vec<Span>,
}

impl Pass {
    /// Setup inside `run_parallel`: its wall time minus the simulating
    /// time the engine reports.
    fn in_run_setup_s(&self) -> f64 {
        self.run_parallel_s - self.result.host_seconds
    }

    fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s + self.new_s + self.in_run_setup_s()
    }
}

/// The timings and output of the simulation part of a pass.
struct Simulated {
    build_s: f64,
    new_s: f64,
    run_parallel_s: f64,
    result: SimResult,
    samples: usize,
}

fn simulate<A: Application>(
    tracer: &mut Tracer,
    cfg: SystemConfig,
    build: impl FnOnce() -> A,
    workers: usize,
) -> Result<Simulated, String> {
    let (app, build_s) = tracer.time("apps.build", build);
    let (sim, new_s) = tracer.time("core.new", || Simulation::new(cfg, app));
    let memory = MemorySubscriber::new();
    let samples = memory.samples();
    let sim = sim
        .map_err(|e| format!("Simulation::new: {e}"))?
        .with_subscriber(Box::new(memory));
    let (result, run_parallel_s) = tracer.time("core.run_parallel", || sim.run_parallel(workers));
    let result = result.map_err(|e| format!("run_parallel: {e}"))?;
    let samples = samples.lock().expect("hub thread has exited").len();
    Ok(Simulated {
        build_s,
        new_s,
        run_parallel_s,
        result,
        samples,
    })
}

fn run_pass(w: Workload, seed: u64, kind: Kind, index: usize) -> Result<Pass, String> {
    let (workers, sampled) = kind.shape(w);
    let cfg = w.config(sampled);
    let tiles = u32::try_from(cfg.total_tiles()).expect("benchmark grids fit u32 tile ids");
    reset_peak_rss();
    let mut tracer = Tracer::new(index, matches!(kind, Kind::Traced | Kind::Twin));
    let (graph, generate_s) = tracer.time("data.generate", || Arc::new(w.generate(seed)));
    let sim = match w.app() {
        App::Spmv => simulate(
            &mut tracer,
            cfg.clone(),
            || Spmv::new(Arc::clone(&graph), tiles),
            workers,
        ),
        App::Bfs => simulate(
            &mut tracer,
            cfg.clone(),
            || {
                let root = high_degree_root(&graph);
                Bfs::new(Arc::clone(&graph), tiles, root, SyncMode::Async)
            },
            workers,
        ),
    }?;
    let (_, report_s) = tracer.time("energy.report", || {
        std::hint::black_box(Report::from_counters(&cfg, &sim.result.counters).to_json())
    });
    let (wall_s, spans) = tracer.finish();
    Ok(Pass {
        kind,
        wall_s,
        generate_s,
        build_s: sim.build_s,
        new_s: sim.new_s,
        run_parallel_s: sim.run_parallel_s,
        report_s,
        result: sim.result,
        samples: sim.samples,
        peak_rss_mib: peak_rss_mib()?,
        spans,
    })
}

/// Checks a pass's output. `reference` is the schedule checksum of the
/// workload's first good pass; every later pass, on any worker count and
/// with or without sampling, must reproduce it.
fn check(w: Workload, pass: &Pass, reference: &mut Option<u64>) -> Result<(), String> {
    let r = &pass.result;
    if let Some(e) = &r.check_error {
        return Err(format!("output check failed: {e}"));
    }
    if r.termination_label() != "finished" {
        return Err(format!("run ended by {}", r.termination_label()));
    }
    let tiles = u32::try_from(r.total_tiles).expect("benchmark grids fit u32 tile ids");
    let sum = schedule_checksum(r, tiles);
    if *reference.get_or_insert(sum) != sum {
        return Err(format!(
            "schedule checksum {sum:#018x} differs from the first pass's {:#018x}",
            reference.expect("just set")
        ));
    }
    if pass.kind.shape(w).1 && pass.samples == 0 {
        return Err("sampled pass delivered no telemetry samples".into());
    }
    if !pass.spans.is_empty() {
        let covered = trace::coverage(&pass.spans);
        if covered < MIN_COVERAGE {
            return Err(format!(
                "spans cover {:.1}% of wall time, below {:.0}%",
                covered * 100.0,
                MIN_COVERAGE * 100.0
            ));
        }
    }
    Ok(())
}

/// Resets the kernel's resident-set high-water mark (Linux), so the next
/// reading covers one pass only. Without it, one large pass would mask
/// every later one.
fn reset_peak_rss() {
    // best effort: without the reset the reading is the process peak
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

type Metric = (&'static str, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn end_to_end(p: &Pass) -> Vec<Metric> {
    let r = &p.result;
    vec![
        ("wall_s", p.wall_s, "s"),
        ("setup_s", p.setup_s(), "s"),
        ("run_s", r.host_seconds, "s"),
        ("sim_cycles_per_s", r.sim_cycles_per_sec(), "cycles/s"),
        ("flit_hops_per_s", r.host_flits_per_sec(), "hops/s"),
        ("peak_rss_mb", p.peak_rss_mib, "MiB"),
        ("dut_cycles", r.runtime_cycles as f64, "cycles"),
    ]
}

fn per_layer(p: &Pass) -> Vec<Metric> {
    let r = &p.result;
    let phase = &r.host_phase_ns;
    let noc = &r.counters.noc;
    let mem = &r.counters.mem;
    let secs = |ns: u64| ns as f64 * 1e-9;
    let flit_hops = noc.total_flit_hops() as f64;
    let hops = noc.msg_hops as f64;
    vec![
        ("data.generate_s", p.generate_s, "s"),
        ("apps.build_s", p.build_s, "s"),
        ("core.new_s", p.new_s, "s"),
        ("core.setup_s", p.in_run_setup_s(), "s"),
        ("core.pu_s", secs(phase.pu), "s"),
        ("core.inject_s", secs(phase.inject), "s"),
        (
            "core.unattributed_s",
            r.host_seconds * r.host_threads as f64 - secs(phase.total()),
            "s",
        ),
        (
            "core.ns_per_task",
            ratio(phase.pu as f64, r.counters.pu.tasks_executed as f64),
            "ns",
        ),
        ("core.host_state_mb", r.host_state_bytes as f64 / MIB, "MiB"),
        ("noc.net_s", secs(phase.net), "s"),
        ("noc.worklist_s", secs(phase.worklist), "s"),
        (
            "noc.ns_per_flit_hop",
            ratio(phase.net as f64, flit_hops),
            "ns",
        ),
        ("noc.flit_hops", flit_hops, "count"),
        ("noc.backpressure", noc.backpressure as f64, "count"),
        ("noc.collisions", noc.collisions as f64, "count"),
        ("noc.eject_stalls", noc.eject_stalls as f64, "count"),
        (
            "noc.hop_success_ratio",
            ratio(hops, hops + (noc.backpressure + noc.collisions) as f64),
            "ratio",
        ),
        (
            "noc.latency_p50_cycles",
            r.noc_latency.percentile(0.5) as f64,
            "cycles",
        ),
        (
            "noc.latency_p99_cycles",
            r.noc_latency.percentile(0.99) as f64,
            "cycles",
        ),
        ("mem.cache_misses", mem.cache_misses as f64, "count"),
        (
            "mem.miss_ratio",
            ratio(
                mem.cache_misses as f64,
                (mem.cache_hits + mem.cache_misses) as f64,
            ),
            "ratio",
        ),
        ("mem.dram_line_reads", mem.dram_line_reads as f64, "count"),
        ("telemetry.samples", p.samples as f64, "count"),
        ("energy.report_s", p.report_s, "s"),
    ]
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Per-metric medians over `passes`, each pass yielding the same list.
fn medians(passes: &[&Pass], metrics: fn(&Pass) -> Vec<Metric>) -> Vec<Metric> {
    let rows: Vec<Vec<Metric>> = passes.iter().map(|p| metrics(p)).collect();
    rows[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| (name, median(rows.iter().map(|r| r[i].1).collect()), unit))
        .collect()
}

/// Median of `f` over the passes of `kind` (0 when there are none).
fn median_of(passes: &[Pass], kind: Kind, f: impl Fn(&Pass) -> f64) -> f64 {
    let values: Vec<f64> = passes.iter().filter(|p| p.kind == kind).map(f).collect();
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn write_spans(passes: &[Pass]) {
    println!("spans (ms from pass start; self = duration minus child spans):");
    for p in passes.iter().filter(|p| !p.spans.is_empty()) {
        for (span, own) in p.spans.iter().zip(trace::self_ns(&p.spans)) {
            println!(
                "  span pass={} kind={:?} name={} parent={} start_ms={:.3} end_ms={:.3} self_ms={:.3}",
                span.pass,
                p.kind,
                span.name,
                span.parent.map_or("-", |i| p.spans[i].name),
                span.start_ns as f64 * 1e-6,
                span.end_ns as f64 * 1e-6,
                own as f64 * 1e-6,
            );
        }
    }
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if w.host_threads() > host_cpus {
        eprintln!(
            "perfbench: {} needs {} host threads ({} workers{}) but only {host_cpus} CPUs are \
             available; an oversubscribed spin barrier would time the scheduler, not the simulator",
            w.name(),
            w.host_threads(),
            w.workers(),
            if w.sample_every().is_some() {
                " + telemetry hub"
            } else {
                ""
            },
        );
        return ExitCode::from(2);
    }
    println!(
        "workload {} seed {} host_cpus {host_cpus} workers {} trace {}",
        w.name(),
        args.seed,
        w.workers(),
        u8::from(args.trace)
    );

    let kinds = schedule(w, args.trace);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut reference = None;
    let (mut attempted, mut failed) = (0usize, 0usize);
    let warmup = usize::from(args.trace);
    while attempted < warmup + MIN_PASSES.max(kinds.len()) || started.elapsed() < budget {
        let kind = match attempted.checked_sub(warmup) {
            None => Kind::Warmup,
            Some(i) => kinds[i % kinds.len()],
        };
        attempted += 1;
        match run_pass(w, args.seed, kind, attempted - 1)
            .and_then(|p| check(w, &p, &mut reference).map(|()| p))
        {
            Ok(p) => {
                println!(
                    "pass {:>3} {:<6} wall_s {:.4} setup_s {:.4} run_s {:.4} peak_rss_mb {:.1}",
                    attempted - 1,
                    format!("{:?}", p.kind),
                    p.wall_s,
                    p.setup_s(),
                    p.result.host_seconds,
                    p.peak_rss_mib
                );
                passes.push(p);
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: pass {} ({kind:?}) failed: {e}", attempted - 1);
            }
        }
    }

    let measured_kind = if args.trace {
        Kind::Traced
    } else {
        Kind::Plain
    };
    let measured: Vec<&Pass> = passes.iter().filter(|p| p.kind == measured_kind).collect();
    let mut metrics = Vec::new();
    if !measured.is_empty() {
        if args.trace {
            metrics = medians(&measured, per_layer);
            let run_s = |p: &Pass| p.result.host_seconds;
            // the unsampled baseline is the twin of the sampled workload;
            // elsewhere the plain passes sample nothing either, so the
            // difference reads the noise floor
            let unsampled = if w.sample_every().is_some() {
                Kind::Twin
            } else {
                Kind::Plain
            };
            let telemetry_overhead =
                median_of(&passes, Kind::Traced, run_s) - median_of(&passes, unsampled, run_s);
            let wall_s = |p: &Pass| p.wall_s;
            metrics.push(("telemetry.overhead_s", telemetry_overhead, "s"));
            metrics.push((
                "trace.overhead_s",
                median_of(&passes, Kind::Traced, wall_s) - median_of(&passes, Kind::Plain, wall_s),
                "s",
            ));
            metrics.push(("host.cpus", host_cpus as f64, "count"));
            write_spans(&passes);
        } else {
            metrics = medians(&measured, end_to_end);
        }
    }
    let correct = failed == 0 && !metrics.is_empty();
    for (name, value, unit) in &metrics {
        println!("{name:<24} {value:>16.6} {unit}");
    }
    println!(
        "failed/attempted {failed}/{attempted} ({} passes in {:.1} s)",
        passes.len(),
        started.elapsed().as_secs_f64()
    );
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

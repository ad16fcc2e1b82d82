//! `power-sched` — command-line front end for the scheduling library.
//!
//! ```text
//! power-sched generate --seed 7 --processors 2 --horizon 16 --jobs 12 --out inst.json
//! power-sched generate --trace poisson --seed 7 --horizon 24 --jobs 12 --out trace.json
//! power-sched generate --seed 7 --processors 3 --hetero 2 --out inst.json --profiles-out profs.json
//! power-sched generate --dvfs --seed 7 --out trace.json --instance-out inst.json --ladder-out ladder.json
//! power-sched solve inst.json --restart 3 --rate 1 [--target 25.5] [--out sched.json]
//! power-sched solve inst.json --profiles profs.json [--out sched.json]
//! power-sched solve inst.json --freq-ladder ladder.json --restart 4 [--out sched.json]
//! power-sched validate inst.json sched.json [--freq-ladder ladder.json]
//! power-sched batch requests.jsonl [--workers N] [--out responses.jsonl]
//! power-sched batch requests.jsonl --connect HOST:PORT [--shutdown]
//! power-sched serve --addr 127.0.0.1:7171 [--workers N]
//! power-sched replay trace.json --policy resolve:4[:warm] [--offline auto] [--verbose]
//! power-sched replay traces/ --policy greedy --workers 4 --out reports.jsonl
//! power-sched replay --gen cliffs --count 4 --seed 7 --policy hiring
//! power-sched replay --gen --policy resolve:1:warm --metrics-out metrics.json
//! power-sched replay --gen --policy resolve:4:warm --trace-out trace.json
//! power-sched explain inst.json --restart 3 --rate 1 [--trace-out trace.json]
//! power-sched metrics metrics.json
//! ```
//!
//! Instances and schedules are serialized with serde as plain JSON, so they
//! round-trip through scripts and other tooling. `batch` and `serve` speak
//! the versioned wire protocol of the `sched-engine` crate: since v3 the
//! default transport is length-prefixed binary frames, negotiated per
//! connection, while the legacy JSONL line protocol (one request object per
//! line, one response line per request, in input order) remains accepted on
//! the same port — pick one with `--format binary|jsonl`. `batch
//! --connect` turns the same subcommand into a TCP client, which is how
//! scripts drive (and gracefully shut down, via `--shutdown`) a running
//! `serve` instance; `serve --queue-depth D --shed-policy reject|oldest`
//! bounds the admission queue and answers excess load with structured
//! `Overloaded` responses instead of queueing without bound. `replay` drives the `sched-sim` online simulator: it
//! replays timed arrival traces (files, a directory, or generated on the
//! fly with `--gen`) through an online policy and reports one JSON line per
//! trace — online cost, offline reference cost, and the empirical
//! competitive ratio — plus an aggregate table on stderr.

use power_scheduling::engine::{
    serve_with_options, Engine, EngineClient, EngineConfig, ServeOptions, ShedPolicy, Transport,
};
use power_scheduling::obs;
use power_scheduling::prelude::*;
use power_scheduling::scheduling::model::validate_schedule;
use power_scheduling::scheduling::simulate::simulate;
use power_scheduling::scheduling::{is_valid_target, validate_profiles, PowerProfile, ProfileCost};
use power_scheduling::workloads::planted::PlantedCostModel;
use power_scheduling::workloads::{
    dvfs_instance, dvfs_trace, generate_trace, hetero_profiles, hetero_trace, planted_instance,
    ArrivalConfig, DvfsConfig, PlantedConfig, TraceKind,
};
use rand::SeedableRng;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::process::ExitCode;

/// Why a command stopped early: a message for stderr, or a failed write to
/// stdout.
enum Failure {
    Msg(String),
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Msg(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Msg(msg.into())
    }
}

/// Every `io::Error` a command body propagates comes from its stdout
/// writes: file and socket errors are turned into messages where they occur.
impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Stdout(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One locked writer for everything the commands print to stdout, so a
    // failed write comes back as an error instead of a `println!` panic.
    let mut lock = io::stdout().lock();
    let stdout: &mut dyn Write = &mut lock;
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..], stdout),
        Some("solve") => cmd_solve(&args[1..], stdout),
        Some("explain") => cmd_explain(&args[1..], stdout),
        Some("validate") => cmd_validate(&args[1..], stdout),
        Some("batch") => cmd_batch(&args[1..], stdout),
        Some("serve") => cmd_serve(&args[1..], stdout),
        Some("replay") => cmd_replay(&args[1..], stdout),
        Some("metrics") => cmd_metrics(&args[1..], stdout),
        _ => {
            eprintln!(
                "usage: power-sched <generate|solve|explain|validate|batch|serve|replay|metrics> ...\n\
                 \n  generate --seed S --processors P --horizon T --jobs N [--values V] --out FILE\
                 \n           [--hetero LEVELS --profiles-out FILE]\
                 \n  generate --trace poisson|diurnal|cliffs --seed S [--processors P --horizon T --jobs N\
                 \n           --restart A --rate R --slack K --values V] [--hetero LEVELS] --out FILE\
                 \n  generate --dvfs --seed S [--processors P --horizon T --jobs N --restart A\
                 \n           --alpha A --beta B --gamma G --freqs 1,2,4 --max-work W --slack K --values V]\
                 \n           [--out TRACE] [--instance-out FILE --ladder-out FILE]\
                 \n  solve INSTANCE.json [--restart A] [--rate R] [--profiles FILE] [--target Z]\
                 \n        [--freq-ladder FILE] [--policy all|single|maxlen:K] [--out FILE] [--metrics-out FILE]\
                 \n  explain INSTANCE.json [solve flags] [--trace-out FILE]\
                 \n  validate INSTANCE.json SCHEDULE.json [--freq-ladder FILE]\
                 \n  batch [REQUESTS.jsonl|-] [--workers N] [--queue-depth D] [--out FILE] [--metrics-out FILE]\
                 \n  batch [REQUESTS.jsonl|-] --connect HOST:PORT [--format binary|jsonl] [--shutdown] [--out FILE]\
                 \n  serve --addr HOST:PORT [--workers N] [--queue-depth D] [--shed-policy reject|oldest]\
                 \n        [--metrics-out FILE] [--flight-recorder]\
                 \n  replay [TRACE.json|DIR] [--gen [poisson|diurnal|cliffs] --count N --seed S --hetero LEVELS ...]\
                 \n         [--policy greedy|hiring[:F]|resolve[:K]] [--offline auto|greedy|exact]\
                 \n         [--workers N] [--out FILE] [--metrics-out FILE] [--trace-out FILE] [--verbose]\
                 \n  metrics SNAPSHOT.json"
            );
            return ExitCode::from(2);
        }
    };
    match result.and_then(|()| Ok(stdout.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed the pipe (`power-sched solve … | head -1`): it
        // has read all it wanted, so there is nothing to report.
        Err(Failure::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("error: writing stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Msg(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses flag `name`, or `None` when it is absent; the error names it.
fn parse_opt_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    flag(args, name)
        .map(|v| v.parse().map_err(|e| format!("bad {name}: {e}")))
        .transpose()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    Ok(parse_opt_flag(args, name)?.unwrap_or(default))
}

/// The operands among `args`: every argument that is neither a flag nor a
/// flag's value. Every flag takes one value, except the bare `--verbose`
/// and `--gen`, whose KIND is optional (defaulting to poisson), so it may
/// sit directly before another flag.
fn operands(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            let has_value = match args[i].as_str() {
                "--verbose" => false,
                "--gen" => args.get(i + 1).is_some_and(|v| !v.starts_with("--")),
                _ => true,
            };
            i += if has_value { 2 } else { 1 };
        } else {
            out.push(&args[i]);
            i += 1;
        }
    }
    out
}

/// Reads a whole file; the error names it.
fn read_text(path: impl AsRef<std::path::Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Writes a whole file; the error names it.
fn write_text(path: &str, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))
}

/// Reads `path` as the JSON of a `T`; `what` names a `T` in the error.
fn read_json<T: serde::Deserialize>(
    path: impl AsRef<std::path::Path>,
    what: &str,
) -> Result<T, String> {
    let path = path.as_ref();
    serde_json::from_str(&read_text(path)?)
        .map_err(|e| format!("{} is not a valid {what}: {e}", path.display()))
}

/// Writes `value` to `path` as pretty-printed JSON.
fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    write_text(
        path,
        &serde_json::to_string_pretty(value).map_err(|e| e.to_string())?,
    )
}

/// Reads and validates an instance file. Deserialization builds the
/// struct without running `Instance::new`'s checks, so validate before
/// any solver indexes slots by id.
fn read_instance(path: &str) -> Result<Instance, String> {
    let inst: Instance = read_json(path, "instance")?;
    inst.validate()
        .map_err(|e| format!("{path} is not a valid instance: {e}"))?;
    Ok(inst)
}

/// The range `AffineCost::new` asserts (NaN fails it too), checked before
/// any flag value reaches it.
fn check_restart_rate(restart: f64, rate: f64) -> Result<(), String> {
    if restart.is_finite()
        && rate.is_finite()
        && restart >= 0.0
        && rate >= 0.0
        && restart + rate > 0.0
    {
        return Ok(());
    }
    Err(format!(
        "--restart/--rate must be finite, non-negative, and not both zero \
         (got {restart}, {rate})"
    ))
}

/// `--target Z`: prize-collecting to value `Z`, or `None` for schedule-all.
/// `Z` must pass the engine's rule too ([`is_valid_target`]).
fn target_flag(args: &[String]) -> Result<Option<f64>, String> {
    match parse_opt_flag::<f64>(args, "--target")? {
        Some(z) if !is_valid_target(z) => {
            Err(format!("--target must be finite and positive, got {z}"))
        }
        target => Ok(target),
    }
}

/// `--metrics-out FILE`: installs the process-wide ambient metrics registry
/// so everything the solver stack records on this process's threads lands in
/// one snapshot, and returns the path plus the handle to snapshot at exit.
fn metrics_registry(args: &[String]) -> Option<(String, std::sync::Arc<obs::Registry>)> {
    let path = flag(args, "--metrics-out")?;
    let registry = std::sync::Arc::new(obs::Registry::new());
    obs::install_global(std::sync::Arc::clone(&registry));
    Some((path, registry))
}

/// Writes one `obs/v1` snapshot as compact JSON (newline-terminated).
fn write_metrics(path: &str, snapshot: &obs::Snapshot) -> Result<(), String> {
    write_text(path, &(snapshot.to_json() + "\n"))?;
    eprintln!("wrote metrics snapshot to {path}");
    Ok(())
}

/// Flushes `--metrics-out` regardless of how the command body ended: a run
/// that fails midway still leaves behind whatever it recorded up to the
/// failure, which is exactly when the numbers are most wanted. The run's
/// own error takes precedence over a flush error.
fn flush_metrics(
    metrics: Option<(String, std::sync::Arc<obs::Registry>)>,
    result: Result<(), Failure>,
) -> Result<(), Failure> {
    let flush = match &metrics {
        Some((path, registry)) => write_metrics(path, &registry.snapshot()),
        None => Ok(()),
    };
    result.and(flush.map_err(Failure::from))
}

/// `--trace-out FILE`: installs the process-wide ambient tracer so every
/// span and decision event recorded anywhere in the process lands in one
/// timeline. Returns the path plus the tracer to export at exit.
fn trace_tracer(args: &[String]) -> Option<(String, std::sync::Arc<obs::trace::Tracer>)> {
    let path = flag(args, "--trace-out")?;
    let tracer = std::sync::Arc::new(obs::trace::Tracer::new());
    obs::trace::install_global(std::sync::Arc::clone(&tracer));
    Some((path, tracer))
}

/// Writes the collected trace: Chrome trace-event JSON by default (load it
/// in Perfetto or `chrome://tracing`), `trace/v1` JSONL when the path ends
/// in `.jsonl`.
fn write_trace(path: &str, tracer: &obs::trace::Tracer) -> Result<(), String> {
    let body = if path.ends_with(".jsonl") {
        tracer.to_trace_jsonl()
    } else {
        tracer.to_chrome_json() + "\n"
    };
    write_text(path, &body)?;
    eprintln!("wrote {} trace events to {path}", tracer.len());
    Ok(())
}

/// Parses the shared arrival-trace sizing flags. Unset flags fall back to
/// [`ArrivalConfig::default`], so `generate --trace` and `replay --gen`
/// describe the same workload by default.
fn arrival_config(args: &[String]) -> Result<ArrivalConfig, String> {
    let d = ArrivalConfig::default();
    let cfg = ArrivalConfig {
        num_processors: parse_flag(args, "--processors", d.num_processors)?,
        horizon: parse_flag(args, "--horizon", d.horizon)?,
        target_jobs: parse_flag(args, "--jobs", d.target_jobs)?,
        restart: parse_flag(args, "--restart", d.restart)?,
        rate: parse_flag(args, "--rate", d.rate)?,
        max_value: parse_flag(args, "--values", d.max_value)?,
        slack: parse_flag(args, "--slack", d.slack)?,
    };
    if cfg.num_processors == 0 || cfg.horizon == 0 {
        return Err("--processors and --horizon must be positive".into());
    }
    check_restart_rate(cfg.restart, cfg.rate)?;
    Ok(cfg)
}

/// Parses the DVFS generator knobs (`generate --dvfs`). Unset flags fall
/// back to [`DvfsConfig::default`]; the ladder is validated here so the
/// generators (which assert validity) never panic on CLI input.
fn dvfs_config(args: &[String]) -> Result<DvfsConfig, String> {
    let d = DvfsConfig::default();
    let freqs: Vec<u32> = match flag(args, "--freqs") {
        Some(csv) => csv
            .split(',')
            .map(|f| f.trim().parse().map_err(|e| format!("bad --freqs: {e}")))
            .collect::<Result<_, _>>()?,
        None => d.freqs.clone(),
    };
    let cfg = DvfsConfig {
        num_processors: parse_flag(args, "--processors", d.num_processors)?,
        horizon: parse_flag(args, "--horizon", d.horizon)?,
        target_jobs: parse_flag(args, "--jobs", d.target_jobs)?,
        wake_cost: parse_flag(args, "--restart", d.wake_cost)?,
        alpha: parse_flag(args, "--alpha", d.alpha)?,
        beta: parse_flag(args, "--beta", d.beta)?,
        gamma: parse_flag(args, "--gamma", d.gamma)?,
        freqs,
        max_work: parse_flag(args, "--max-work", d.max_work)?,
        max_value: parse_flag(args, "--values", d.max_value)?,
        slack: parse_flag(args, "--slack", d.slack)?,
    };
    if cfg.num_processors == 0 || cfg.horizon == 0 || cfg.max_work == 0 {
        return Err("--processors, --horizon, and --max-work must be positive".into());
    }
    if !(cfg.wake_cost.is_finite() && cfg.wake_cost >= 0.0) {
        return Err(format!(
            "--restart (wake cost) must be finite and non-negative, got {}",
            cfg.wake_cost
        ));
    }
    FreqLadder {
        alpha: cfg.alpha,
        beta: cfg.beta,
        gamma: cfg.gamma,
        freqs: cfg.freqs.clone(),
    }
    .validate()
    .map_err(|e| format!("invalid frequency ladder: {e}"))?;
    Ok(cfg)
}

/// `generate --dvfs`: speed-scaling workloads. `--out` writes a replayable
/// arrival trace with the ladder embedded; `--instance-out`/`--ladder-out`
/// write an offline instance (jobs carrying work requirements) and the
/// ladder file `solve --freq-ladder` consumes. Trace and instance draw from
/// the same seeded stream in that order, so the triple is reproducible.
fn generate_dvfs(args: &[String], seed: u64, stdout: &mut dyn Write) -> Result<(), Failure> {
    let cfg = dvfs_config(args)?;
    let trace_out = flag(args, "--out");
    let instance_out = flag(args, "--instance-out");
    let ladder_out = flag(args, "--ladder-out");
    if trace_out.is_none() && instance_out.is_none() {
        return Err("generate --dvfs needs --out TRACE and/or --instance-out FILE".into());
    }
    if instance_out.is_some() != ladder_out.is_some() {
        return Err("--instance-out and --ladder-out go together (solve needs both files)".into());
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    if let Some(out) = trace_out {
        let mut trace = dvfs_trace(&cfg, &mut rng);
        trace.name = format!("{}-s{seed}", trace.name);
        trace
            .validate()
            .map_err(|e| format!("generated trace is invalid: {e}"))?;
        write_json(&out, &trace)?;
        writeln!(
            stdout,
            "wrote {} ({}: {} jobs, {} processors, horizon {}, wake {}, ladder {:?})",
            out,
            trace.name,
            trace.jobs.len(),
            trace.num_processors,
            trace.horizon,
            trace.restart,
            cfg.freqs
        )?;
    }
    if let (Some(inst_out), Some(ladder_out)) = (instance_out, ladder_out) {
        let dvfs = dvfs_instance(&cfg, &mut rng);
        dvfs.validate()
            .map_err(|e| format!("generated instance is invalid: {e}"))?;
        let inst = Instance {
            num_processors: dvfs.num_processors,
            horizon: dvfs.horizon,
            jobs: dvfs.jobs.clone(),
        };
        write_json(&inst_out, &inst)?;
        let total_work: u32 = dvfs.jobs.iter().map(Job::work_units).sum();
        writeln!(
            stdout,
            "wrote {} ({} jobs, {} work units, {} processors, horizon {})",
            inst_out,
            inst.num_jobs(),
            total_work,
            inst.num_processors,
            inst.horizon
        )?;
        write_json(&ladder_out, &dvfs.ladder)?;
        writeln!(
            stdout,
            "wrote {ladder_out} ({} levels, alpha {} beta {} gamma {})",
            cfg.freqs.len(),
            cfg.alpha,
            cfg.beta,
            cfg.gamma
        )?;
    }
    Ok(())
}

fn cmd_generate(args: &[String], stdout: &mut dyn Write) -> Result<(), Failure> {
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let processors: u32 = parse_flag(args, "--processors", 2)?;
    let horizon: u32 = parse_flag(args, "--horizon", 16)?;
    let jobs: usize = parse_flag(args, "--jobs", 12)?;
    let values: u32 = parse_flag(args, "--values", 1)?;
    if processors == 0 || horizon == 0 {
        return Err("--processors and --horizon must be positive".into());
    }
    if args.iter().any(|a| a == "--dvfs") {
        return generate_dvfs(args, seed, stdout);
    }
    let out = flag(args, "--out").ok_or("--out FILE is required")?;
    let hetero: Option<u32> = parse_opt_flag(args, "--hetero")?;

    if let Some(kind) = flag(args, "--trace") {
        let kind: TraceKind = kind.parse()?;
        let cfg = arrival_config(args)?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut trace = match hetero {
            Some(levels) => hetero_trace(kind, &cfg, levels, &mut rng),
            None => generate_trace(kind, &cfg, &mut rng),
        };
        trace.name = format!("{}-s{seed}", trace.name);
        // Never write a trace the replay subcommand would reject.
        trace
            .validate()
            .map_err(|e| format!("generated trace is invalid: {e}"))?;
        write_json(&out, &trace)?;
        writeln!(
            stdout,
            "wrote {} ({}: {} jobs, {} processors, horizon {}, restart {}, rate {})",
            out,
            trace.name,
            trace.jobs.len(),
            trace.num_processors,
            trace.horizon,
            trace.restart,
            trace.rate
        )?;
        return Ok(());
    }

    // resolve the full flag set before writing anything, so a missing
    // --profiles-out cannot leave a stray instance file (and a misleading
    // "wrote ..." line) behind a nonzero exit
    let profiles_out = match hetero {
        Some(_) => Some(
            flag(args, "--profiles-out")
                .ok_or("--hetero on an instance needs --profiles-out FILE for the fleet")?,
        ),
        None => None,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let p = planted_instance(
        &PlantedConfig {
            num_processors: processors,
            horizon,
            target_jobs: jobs,
            decoy_prob: 0.3,
            max_value: values,
            cost_model: PlantedCostModel::Affine { restart: 3.0 },
            policy: CandidatePolicy::All,
        },
        &mut rng,
    );
    write_json(&out, &p.instance)?;
    writeln!(
        stdout,
        "wrote {} ({} jobs, {} processors, horizon {}; planted feasible cost {:.2})",
        out,
        p.instance.num_jobs(),
        p.instance.num_processors,
        p.instance.horizon,
        p.planted_cost
    )?;
    if let (Some(levels), Some(profiles_out)) = (hetero, profiles_out) {
        // profiles are drawn from the same seeded stream, after the
        // instance, so (seed, sizing, levels) reproduces the pair
        let fleet = hetero_profiles(processors, levels, &mut rng);
        write_json(&profiles_out, &fleet)?;
        writeln!(
            stdout,
            "wrote {profiles_out} ({processors} heterogeneous profiles, {levels} sleep level{})",
            if levels == 1 { "" } else { "s" }
        )?;
    }
    Ok(())
}

/// The solve `solve` and `explain` share: `--policy` and `--target`, the
/// instance, its pricing, and the goal. `--profiles FILE` switches pricing
/// from the uniform affine model to an explicit per-processor fleet
/// (validated before the oracle asserts). Returns the solver too, which
/// keeps the reduction `explain` names picks by.
fn solve_instance(path: &str, args: &[String]) -> Result<(Instance, Solver, Schedule), String> {
    let policy: CandidatePolicy = flag(args, "--policy")
        .unwrap_or_else(|| "all".into())
        .parse()?;
    let target = target_flag(args)?;
    let restart: f64 = parse_flag(args, "--restart", 3.0)?;
    let rate: f64 = parse_flag(args, "--rate", 1.0)?;
    let inst = read_instance(path)?;
    let cost: Box<dyn EnergyCost> = match flag(args, "--profiles") {
        Some(pp) => {
            let fleet: Vec<PowerProfile> = read_json(&pp, "profile fleet")?;
            validate_profiles(&fleet, inst.num_processors)
                .map_err(|e| format!("{pp} does not fit {path}: {e}"))?;
            Box::new(ProfileCost::new(&fleet))
        }
        None => {
            check_restart_rate(restart, rate)?;
            Box::new(AffineCost::new(restart, rate))
        }
    };
    let mut solver = Solver::new(policy);
    let schedule = match target {
        Some(z) => solver.prize_collecting_exact(&inst, cost.as_ref(), z),
        None => solver.schedule_all(&inst, cost.as_ref()),
    }
    .map_err(|e| e.to_string())?;
    Ok((inst, solver, schedule))
}

fn cmd_solve(args: &[String], stdout: &mut dyn Write) -> Result<(), Failure> {
    let metrics = metrics_registry(args);
    flush_metrics(metrics, solve_run(args, stdout))
}

/// The speed-scaling instance `solve` and `validate` share: `inst`'s jobs
/// under the `--freq-ladder FILE` ladder, waking at `--restart`.
fn dvfs_instance_of(
    inst: Instance,
    ladder_path: &str,
    args: &[String],
) -> Result<DvfsInstance, String> {
    let restart: f64 = parse_flag(args, "--restart", 3.0)?;
    let ladder: FreqLadder = read_json(ladder_path, "frequency ladder")?;
    ladder
        .validate()
        .map_err(|e| format!("{ladder_path} is not a valid frequency ladder: {e}"))?;
    let dvfs = DvfsInstance {
        num_processors: inst.num_processors,
        horizon: inst.horizon,
        wake_cost: restart,
        ladder,
        jobs: inst.jobs,
    };
    dvfs.validate().map_err(|e| e.to_string())?;
    Ok(dvfs)
}

/// `solve INSTANCE --freq-ladder FILE`: the speed-scaling solve. Jobs carry
/// work requirements; the solver picks per-interval frequency levels, paying
/// `wake + (alpha·f^gamma + beta) · len` per awake interval. Mutually
/// exclusive with `--profiles`/`--target` (DVFS is schedule-all only).
fn solve_dvfs_run(
    args: &[String],
    inst_path: &str,
    ladder_path: &str,
    stdout: &mut dyn Write,
) -> Result<(), Failure> {
    if flag(args, "--profiles").is_some() {
        return Err("--freq-ladder and --profiles are mutually exclusive".into());
    }
    if flag(args, "--target").is_some() {
        return Err("--freq-ladder supports schedule-all only (no --target)".into());
    }
    let dvfs = dvfs_instance_of(read_instance(inst_path)?, ladder_path, args)?;
    let schedule = solve_dvfs(&dvfs).map_err(|e| e.to_string())?;
    let completed = schedule
        .assignments
        .iter()
        .zip(&dvfs.jobs)
        .filter(|(quanta, job)| quanta.len() == job.work_units() as usize)
        .count();
    writeln!(
        stdout,
        "scheduled {}/{} jobs (value {:.1}) at energy cost {:.2} with {} awake intervals",
        completed,
        dvfs.jobs.len(),
        schedule.scheduled_value,
        schedule.total_cost,
        schedule.awake.len()
    )?;
    for iv in &schedule.awake {
        writeln!(
            stdout,
            "  proc {} [{}, {}) at freq {} (level {}): cost {:.2}",
            iv.proc, iv.start, iv.end, iv.freq, iv.level, iv.cost
        )?;
    }
    if let Some(out) = flag(args, "--out") {
        write_json(&out, &schedule)?;
        writeln!(stdout, "wrote {out}")?;
    }
    Ok(())
}

fn solve_run(args: &[String], stdout: &mut dyn Write) -> Result<(), Failure> {
    let path = args.first().ok_or("missing INSTANCE.json")?;
    if let Some(ladder_path) = flag(args, "--freq-ladder") {
        return solve_dvfs_run(args, path, &ladder_path, stdout);
    }
    let (inst, _, schedule) = solve_instance(path, args)?;
    writeln!(
        stdout,
        "scheduled {}/{} jobs (value {:.1}) at energy cost {:.2} with {} awake intervals",
        schedule.scheduled_count,
        inst.num_jobs(),
        schedule.scheduled_value,
        schedule.total_cost,
        schedule.awake.len()
    )?;
    write!(stdout, "{}", simulate(&inst, &schedule).render())?;

    if let Some(out) = flag(args, "--out") {
        write_json(&out, &schedule)?;
        writeln!(stdout, "wrote {out}")?;
    }
    Ok(())
}

/// Finds an event argument by key.
fn event_arg<'e>(e: &'e obs::trace::TraceEvent, key: &str) -> Option<&'e obs::trace::ArgValue> {
    e.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// Numeric view of an event argument (`NaN` when absent or non-numeric).
fn event_num(e: &obs::trace::TraceEvent, key: &str) -> f64 {
    match event_arg(e, key) {
        Some(obs::trace::ArgValue::U64(v)) => *v as f64,
        Some(obs::trace::ArgValue::I64(v)) => *v as f64,
        Some(obs::trace::ArgValue::F64(v)) => *v,
        _ => f64::NAN,
    }
}

/// `explain INSTANCE.json`: runs the same solve as `solve`, with the tracer
/// installed, and narrates the greedy's decision log pick by pick — winner
/// vs runner-up gains, each named by its processor and interval (`p0
/// [3,7)`; a runner-up never evaluated shows its upper bound as
/// `ratio ≤ x (bound)`), lazy group refreshes, budget remaining — followed
/// by a span-time summary. `--trace-out FILE` additionally exports the full
/// timeline for Perfetto.
fn cmd_explain(args: &[String], stdout: &mut dyn Write) -> Result<(), Failure> {
    let path = args.first().ok_or("missing INSTANCE.json")?;
    let tracer = std::sync::Arc::new(obs::trace::Tracer::new());
    obs::trace::install_global(std::sync::Arc::clone(&tracer));
    let stem = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
    let trace_id = format!("explain-{stem}");
    obs::trace::set_trace_id(Some(&trace_id));

    let (inst, solver, schedule) = solve_instance(path, args)?;
    obs::trace::set_trace_id(None);

    writeln!(
        stdout,
        "explain {path} [{trace_id}]: {} jobs, {} processors, horizon {}",
        inst.num_jobs(),
        inst.num_processors,
        inst.horizon
    )?;
    // The greedy's indices are window subsets of the solver's reduction;
    // name the interval each one stands for.
    let red = solver.reduction().expect("a reduction after a solve");
    let interval = |subset: f64| {
        let iv = red.interval_of(subset as usize);
        format!("p{} [{},{})", iv.proc, iv.start, iv.end)
    };
    let events = tracer.events();
    for e in events.iter().filter(|e| e.name == "submodular.greedy.pick") {
        let reevals = event_num(e, "reevals");
        write!(
            stdout,
            "  pick {:>3}: {} gain {:.3} cost {:.3} ratio {:.3}  utility {:.3} remaining {:.3}",
            event_num(e, "iter"),
            interval(event_num(e, "chosen")),
            event_num(e, "gain"),
            event_num(e, "cost"),
            event_num(e, "ratio"),
            event_num(e, "utility_after"),
            event_num(e, "remaining"),
        )?;
        if event_arg(e, "runner_up").is_some() {
            // A runner-up whose key is still a first-value bound was never
            // evaluated: its ratio is at most the key, not equal to it.
            let ru = interval(event_num(e, "runner_up"));
            let ratio = event_num(e, "runner_up_ratio");
            if event_num(e, "runner_up_bound") == 1.0 {
                write!(stdout, "  (runner-up {ru} ratio ≤ {ratio:.3} (bound))")?;
            } else {
                write!(stdout, "  (runner-up {ru} ratio {ratio:.3})")?;
            }
        }
        // `reevals` counts lazy-heap group refreshes (one pass over a
        // nested-prefix run each) spent on this pick.
        if reevals > 0.0 {
            write!(stdout, "  [{reevals} group refreshes]")?;
        }
        writeln!(stdout)?;
    }
    // Span-time summary: where the solve's wall time went, per span name.
    let mut spans: Vec<(&'static str, u64, u64)> = Vec::new();
    for e in events
        .iter()
        .filter(|e| e.kind == obs::trace::EventKind::Span)
    {
        match spans.iter_mut().find(|(n, _, _)| *n == e.name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += e.dur_ns;
            }
            None => spans.push((e.name, 1, e.dur_ns)),
        }
    }
    spans.sort_by_key(|&(_, _, total)| std::cmp::Reverse(total));
    for (name, count, total) in &spans {
        writeln!(
            stdout,
            "  span {name}: {count} x, total {:.3} ms",
            *total as f64 / 1e6
        )?;
    }
    writeln!(
        stdout,
        "scheduled {}/{} jobs (value {:.1}) at energy cost {:.2} with {} awake intervals",
        schedule.scheduled_count,
        inst.num_jobs(),
        schedule.scheduled_value,
        schedule.total_cost,
        schedule.awake.len()
    )?;
    if let Some(out) = flag(args, "--trace-out") {
        write_trace(&out, &tracer)?;
    }
    Ok(())
}

/// Reads the JSONL request text: a file path, or stdin for `-`/no operand.
fn read_requests(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        None | Some("-") => {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("reading stdin: {e}"))?;
            Ok(text)
        }
        Some(path) if path.starts_with("--") => Err(format!(
            "batch expects the requests file before flags, found '{path}'"
        )),
        Some(path) => read_text(path),
    }
}

/// Writes response lines to `--out FILE`, or stdout for `-`/no flag.
fn write_responses(
    args: &[String],
    lines: &[String],
    stdout: &mut dyn Write,
) -> Result<(), Failure> {
    let body = if lines.is_empty() {
        String::new()
    } else {
        format!("{}\n", lines.join("\n"))
    };
    match flag(args, "--out") {
        None => {
            write!(stdout, "{body}")?;
            Ok(())
        }
        Some(ref out) if out == "-" => {
            write!(stdout, "{body}")?;
            Ok(())
        }
        Some(out) => {
            write_text(&out, &body)?;
            eprintln!("wrote {} responses to {out}", lines.len());
            Ok(())
        }
    }
}

fn engine_config(args: &[String]) -> Result<EngineConfig, String> {
    let mut cfg = EngineConfig::default();
    if let Some(w) = flag(args, "--workers") {
        cfg.workers = w.parse().map_err(|e| format!("bad --workers: {e}"))?;
    }
    // --queue-depth is the documented spelling; --queue stays as an alias.
    if let Some(q) = flag(args, "--queue-depth").or_else(|| flag(args, "--queue")) {
        cfg.queue_depth = q.parse().map_err(|e| format!("bad --queue-depth: {e}"))?;
    }
    // Bare flag: retain the last events per worker thread and dump them on
    // request failures, accept-loop bursts, and graceful shutdown.
    cfg.flight_recorder = args.iter().any(|a| a == "--flight-recorder");
    Ok(cfg)
}

fn cmd_batch(args: &[String], stdout: &mut dyn Write) -> Result<(), Failure> {
    let text = read_requests(args)?;
    let metrics_out = flag(args, "--metrics-out");
    let out_lines = match flag(args, "--connect") {
        Some(addr) => {
            if metrics_out.is_some() {
                return Err(
                    "--metrics-out needs a local engine; in client mode ask the running \
                     server with the 'metrics' control verb or start it with \
                     serve --metrics-out"
                        .into(),
                );
            }
            let transport: Transport = match flag(args, "--format") {
                Some(f) => f.parse()?,
                None => Transport::default(), // v3 binary frames
            };
            batch_over_tcp(
                &text,
                &addr,
                transport,
                args.iter().any(|a| a == "--shutdown"),
            )?
        }
        None => {
            let engine = Engine::new(engine_config(args)?);
            let responses = engine.process_lines(text.lines());
            let (ok, failed) = responses.iter().fold((0, 0), |(ok, failed), r| {
                if r.ok {
                    (ok + 1, failed)
                } else {
                    (ok, failed + 1)
                }
            });
            eprintln!(
                "batch: {ok} solved, {failed} failed on {} workers",
                engine.workers()
            );
            if let Some(path) = &metrics_out {
                write_metrics(path, &engine.metrics_snapshot())?;
            }
            responses
                .iter()
                .map(|r| serde_json::to_string(r).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    write_responses(args, &out_lines, stdout)
}

/// Client mode: pipeline the request lines to a `power-sched serve`
/// instance over the chosen transport (v3 binary frames by default) and
/// collect one response line per non-blank request line (plus the shutdown
/// acknowledgement when `--shutdown` is set). Framed responses are
/// re-serialized as JSONL so the output file looks the same on every
/// transport.
fn batch_over_tcp(
    text: &str,
    addr: &str,
    transport: Transport,
    shutdown: bool,
) -> Result<Vec<String>, String> {
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    if lines.iter().all(|l| l.trim().is_empty()) && !shutdown {
        // Nothing to send means nothing to wait for; entering the read loop
        // would block forever (neither side would ever write).
        return Ok(Vec::new());
    }
    let mut client =
        EngineClient::connect(addr, transport).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let responses = client
        .pipeline_lines(&lines, shutdown)
        .map_err(|e| format!("batch over {transport}: {e}"))?;
    responses
        .iter()
        .map(|v| serde_json::to_string(v).map_err(|e| e.to_string()))
        .collect()
}

fn cmd_serve(args: &[String], stdout: &mut dyn Write) -> Result<(), Failure> {
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into());
    let cfg = engine_config(args)?;
    let listener = TcpListener::bind(&addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    // Scripts wait for this exact line before connecting.
    writeln!(stdout, "power-sched serve: listening on {local}")?;
    stdout.flush()?;
    let metrics_out = flag(args, "--metrics-out");
    let shed_policy: Option<ShedPolicy> = match flag(args, "--shed-policy") {
        Some(p) => Some(p.parse()?),
        None => None,
    };
    serve_with_options(
        listener,
        cfg,
        ServeOptions {
            metrics_out: metrics_out.as_deref().map(std::path::Path::new),
            shed_policy,
        },
    )
    .map_err(|e| format!("serve loop: {e}"))?;
    writeln!(stdout, "power-sched serve: shutdown complete")?;
    Ok(())
}

/// Loads the replay workload: positional trace file / directory operands,
/// plus `--gen KIND --count N` generated traces.
fn replay_traces(args: &[String]) -> Result<Vec<ArrivalTrace>, String> {
    let mut traces: Vec<ArrivalTrace> = Vec::new();
    // Positional operands may appear anywhere among the flags.
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    for a in operands(args) {
        let path = std::path::Path::new(a);
        if path.is_dir() {
            let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("reading {a}: {e}"))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            entries.sort(); // deterministic replay order
            paths.extend(entries);
        } else {
            paths.push(path.to_path_buf());
        }
    }
    for path in paths {
        let mut trace: ArrivalTrace = read_json(&path, "trace")?;
        trace
            .validate()
            .map_err(|e| format!("{} is not a valid trace: {e}", path.display()))?;
        if trace.name.is_empty() {
            trace.name = path.file_stem().map_or_else(
                || path.display().to_string(),
                |s| s.to_string_lossy().into(),
            );
        }
        traces.push(trace);
    }

    let gen_kind = args.iter().position(|a| a == "--gen").map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "poisson".into())
    });
    if let Some(kind) = gen_kind {
        let kind: TraceKind = kind.parse()?;
        let count: usize = parse_flag(args, "--count", 2)?;
        let seed: u64 = parse_flag(args, "--seed", 0)?;
        let hetero: Option<u32> = parse_opt_flag(args, "--hetero")?;
        let cfg = arrival_config(args)?;
        for i in 0..count {
            let trace_seed = seed.wrapping_add(i as u64);
            let mut rng = rand::rngs::StdRng::seed_from_u64(trace_seed);
            let mut trace = match hetero {
                Some(levels) => hetero_trace(kind, &cfg, levels, &mut rng),
                None => generate_trace(kind, &cfg, &mut rng),
            };
            trace.name = format!("{}-s{trace_seed}", trace.name);
            traces.push(trace);
        }
    }

    if traces.is_empty() {
        return Err("replay needs trace files, a directory, or --gen KIND".into());
    }
    Ok(traces)
}

fn cmd_replay(args: &[String], stdout: &mut dyn Write) -> Result<(), Failure> {
    let metrics = metrics_registry(args);
    flush_metrics(metrics, replay_run(args, stdout))
}

fn replay_run(args: &[String], stdout: &mut dyn Write) -> Result<(), Failure> {
    let trace_out = trace_tracer(args);
    let traces = replay_traces(args)?;
    let policy: PolicyKind = flag(args, "--policy")
        .unwrap_or_else(|| "greedy".into())
        .parse()?;
    let offline: OfflineRef = flag(args, "--offline")
        .unwrap_or_else(|| "auto".into())
        .parse()?;
    let workers: usize = parse_flag(args, "--workers", 1)?;
    let verbose = args.iter().any(|a| a == "--verbose");

    // One fleet in every mode: reports, narration and trace ids do not
    // depend on the worker count.
    let mut reports: Vec<ReplayReport> = Vec::with_capacity(traces.len());
    let fleet = replay_fleet(&traces, &policy, &FleetOptions { workers, offline });
    for (result, trace) in fleet.into_iter().zip(&traces) {
        let (report, outcome) = result.map_err(|e| format!("replaying {}: {e}", trace.name))?;
        if verbose {
            eprintln!("{} [{}]:", trace.name, report.policy);
            eprint!("{}", outcome.power);
            if let Some(rs) = report.resolve_stats {
                eprintln!(
                    "  re-solves: {} ({} warm, {} cold), total {:.2} ms, \
                     p50 {:.1} us, p99 {:.1} us",
                    rs.count,
                    rs.warm,
                    rs.cold,
                    rs.total_ns as f64 / 1e6,
                    rs.p50_ns as f64 / 1e3,
                    rs.p99_ns as f64 / 1e3,
                );
            }
        }
        reports.push(report);
    }

    let lines: Vec<String> = reports
        .iter()
        .map(|r| serde_json::to_string(r).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    write_responses(args, &lines, stdout)?;

    let mut table = bench::Table::new(&[
        "trace", "policy", "jobs", "sched", "drop", "online", "offline", "ref", "ratio",
        "restarts", "util", "events", "warm", "cold", "p50us",
    ]);
    for r in &reports {
        let (warm, cold, p50us) = match r.resolve_stats {
            Some(rs) => (
                rs.warm.to_string(),
                rs.cold.to_string(),
                format!("{:.1}", rs.p50_ns as f64 / 1e3),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        table.row(vec![
            r.trace.clone(),
            r.policy.clone(),
            r.jobs.to_string(),
            r.scheduled.to_string(),
            r.dropped.to_string(),
            format!("{:.2}", r.online_cost),
            format!("{:.2}", r.offline_cost),
            r.offline_ref.clone(),
            format!("{:.3}", r.ratio),
            r.restarts.to_string(),
            format!("{:.2}", r.utilization),
            r.events.to_string(),
            warm,
            cold,
            p50us,
        ]);
    }
    eprint!("{}", table.render());
    let worst = reports
        .iter()
        .map(|r| r.ratio)
        .fold(f64::NEG_INFINITY, f64::max);
    let mean = reports.iter().map(|r| r.ratio).sum::<f64>() / reports.len() as f64;
    eprintln!(
        "replay: {} trace{} under {policy}: mean ratio {mean:.3}, worst {worst:.3}",
        reports.len(),
        if reports.len() == 1 { "" } else { "s" },
    );
    if let Some((path, tracer)) = &trace_out {
        write_trace(path, tracer)?;
    }
    Ok(())
}

/// Pretty-prints an `obs/v1` metrics snapshot file (as written by
/// `--metrics-out` or the serve shutdown flush) as the human text table.
fn cmd_metrics(args: &[String], stdout: &mut dyn Write) -> Result<(), Failure> {
    let path = args.first().ok_or("usage: metrics SNAPSHOT.json")?;
    let snapshot = obs::Snapshot::from_json(&read_text(path)?)
        .map_err(|e| format!("{path}: not an obs/v1 snapshot: {e}"))?;
    write!(stdout, "{}", snapshot.render_text())?;
    Ok(())
}

fn cmd_validate(args: &[String], stdout: &mut dyn Write) -> Result<(), Failure> {
    let [inst_path, sched_path] = operands(args)[..] else {
        return Err("usage: validate INSTANCE.json SCHEDULE.json [--freq-ladder FILE]".into());
    };
    let inst = read_instance(inst_path)?;
    // A schedule names one assignment per job, and validation indexes them
    // by job, so the counts are checked first.
    let count_mismatch = |assignments: usize, jobs: usize| {
        format!("schedule has {assignments} assignments but the instance has {jobs} jobs")
    };
    let violations: Vec<String> = match flag(args, "--freq-ladder") {
        Some(ladder_path) => {
            let dvfs = dvfs_instance_of(inst, &ladder_path, args)?;
            let sched: DvfsSchedule = read_json(sched_path, "DVFS schedule")?;
            if sched.assignments.len() != dvfs.jobs.len() {
                return Err(count_mismatch(sched.assignments.len(), dvfs.jobs.len()).into());
            }
            let violations = validate_dvfs_schedule(&dvfs, &sched);
            violations.iter().map(|v| format!("{v:?}")).collect()
        }
        None => {
            let sched: Schedule = read_json(sched_path, "schedule")?;
            if sched.assignments.len() != inst.num_jobs() {
                return Err(count_mismatch(sched.assignments.len(), inst.num_jobs()).into());
            }
            let violations = validate_schedule(&inst, &sched);
            violations.iter().map(|v| format!("{v:?}")).collect()
        }
    };
    if !violations.is_empty() {
        return Err(format!("schedule invalid: [{}]", violations.join(", ")).into());
    }
    writeln!(stdout, "schedule is valid")?;
    Ok(())
}

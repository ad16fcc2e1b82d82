//! The metric catalog: every name the benchmark prints, with its unit, its
//! better direction, and — for per-layer metrics — the end-to-end metric on
//! the workload it should move. `BENCHMARK.json` lists the same names, units
//! and directions (a test keeps the two equal).
//!
//! Every run prints every metric of its kind. End-to-end metrics are defined
//! on all three workloads (see [`end_to_end`]); a per-layer metric of a layer
//! the running workload never reaches reads 0.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's identity.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Printed name.
    pub name: String,
    /// Printed unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// What the metric means, or (per-layer) which end-to-end metric on
    /// which workload it should move.
    pub about: &'static str,
}

fn spec(name: &str, unit: &'static str, better: Better, about: &'static str) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        about,
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["offline_solve", "engine_diurnal", "online_replay"];

/// The offline instance classes, in rotation order.
pub const CLASSES: [&str; 3] = ["affine", "hetero", "dvfs"];

/// End-to-end metrics, printed by every untraced run.
///
/// One operation is a cold solve on `offline_solve`, a served request on
/// `engine_diurnal`, and a re-solving `decide` call on `online_replay`. A run
/// repeats every operation several times and each operation's best repeat
/// stands for it (see [`crate::stats`]); latency percentiles are over
/// operations. Solves, replays and `decide` calls run on one thread and are
/// timed on its CPU clock (see [`crate::clock`]); a request is timed on the
/// wall clock from its due time.
///
/// Throughput counts solves and replayed slots per CPU-second over one pass
/// at those best times. On the open loop it is answered requests per second, which sits at
/// the configured offered rate unless the server saturates: there it shows
/// saturation only, and a faster server leaves it unchanged. Failed
/// operations are the run's `failed` count over `attempted`; an error rate
/// cannot be a metric here because a correct run reads 0.
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::*;
    vec![
        spec(
            "setup_s",
            "s",
            Lower,
            "median over set-up repeats of start-to-first-timed-operation time",
        ),
        spec(
            "throughput_per_s",
            "1/s",
            Higher,
            "cold solves or replayed slots per CPU-second (one pass at best times); answered requests/s on engine_diurnal, which only shows saturation",
        ),
        spec(
            "latency_us_p50",
            "us",
            Lower,
            "p50 over operations of each one's best latency (solve, decide: CPU time; request: wall time from its due time)",
        ),
        spec(
            "latency_us_p99",
            "us",
            Lower,
            "p99 over operations of each one's best latency (solve, decide: CPU time; request: wall time from its due time)",
        ),
        spec(
            "energy_per_job",
            "energy",
            Lower,
            "sum of total_cost over returned schedules / scheduled jobs",
        ),
        spec("peak_rss_mb", "MiB", Lower, "peak resident set size"),
    ]
}

/// Per-layer metrics, printed by every traced run.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::*;
    let solves = "throughput_per_s on offline_solve";
    let mut out = Vec::new();
    for class in CLASSES {
        let dvfs = class == "dvfs";
        let mut add = |name: &str, unit, better, about| {
            out.push(spec(&format!("{name}.{class}"), unit, better, about));
        };
        if dvfs {
            add("core.dvfs.compile.ms", "ms", Lower, solves);
        } else {
            add("core.candidates.ms", "ms", Lower, solves);
        }
        add("core.reduction.ms", "ms", Lower, solves);
        add("core.first_scan.ms", "ms", Lower, solves);
        add(
            "submodular.greedy.ms",
            "ms",
            Lower,
            "throughput_per_s on offline_solve; latency_us_* on online_replay",
        );
        add("core.extract.ms", "ms", Lower, solves);
        if dvfs {
            add("core.dvfs.decompile.ms", "ms", Lower, solves);
        }
        add("core.candidates.count", "count", Lower, solves);
        add("submodular.greedy.evaluations", "count", Lower, solves);
        add("submodular.greedy.picks", "count", Lower, solves);
        add("submodular.greedy.picks_per_eval", "ratio", Higher, solves);
        add("core.gain_memo.hit_rate", "fraction", Higher, solves);
        add("matching.oracle.augments", "count", Lower, solves);
        add("matching.oracle.retracts", "count", Lower, solves);
        add(
            "unattributed.share",
            "fraction",
            Lower,
            "validity: solve time no layer span covers (at most 0.10)",
        );
    }
    let p50 = "latency_us_p50 on engine_diurnal";
    let p99 = "latency_us_p99 on engine_diurnal";
    out.extend([
        spec("engine.codec.encode_us", "us", Lower, p50),
        spec("engine.codec.decode_us", "us", Lower, p50),
        spec("engine.solve_us_p50", "us", Lower, p99),
        spec("engine.solve_us_p99", "us", Lower, p99),
        spec("engine.residual_us_p50", "us", Lower, p99),
        spec("engine.residual_us_p99", "us", Lower, p99),
        spec("engine.cache_hit_rate", "fraction", Higher, p50),
        spec("engine.inflight_max", "count", Lower, p99),
        spec("engine.service_us_p50", "us", Lower, p99),
        spec("engine.service_us_p99", "us", Lower, p99),
        spec(
            "engine.generator_lag_us_p99",
            "us",
            Lower,
            "validity: the run is invalid past the configured bound",
        ),
    ]);
    let slots = "throughput_per_s on online_replay";
    let resolve = "latency_us_p50 on online_replay";
    out.extend([
        spec("sim.decide_us_p50", "us", Lower, slots),
        spec("sim.replay_self_ms", "ms", Lower, slots),
        spec("core.warm.warm_share", "fraction", Higher, resolve),
        spec("core.warm.resolves", "count", Lower, resolve),
        spec("submodular.greedy.run_ms_p50", "ms", Lower, resolve),
        spec(
            "sim.jobs_dropped",
            "count",
            Lower,
            "failed count on online_replay",
        ),
        spec(
            "trace.overhead",
            "ratio",
            Lower,
            "validity: traced over untraced wall time for the same work",
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<MetricSpec> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        for m in &all {
            assert!(m.name.len() <= 64, "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
        assert!(per_layer().len() <= 128);
    }
}

//! The fosm benchmark: end-to-end workloads over the repository's
//! public API, plus a traced run that times each layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Derived, ungated figures are printed on the lines before it, and
//! span summaries and failed checks go to stderr. See `README.md`.

mod layers;
mod report;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fosm_obs::{Registry, Snapshot, SpanGuard};
use report::{median, Outcome, Tally};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["serve-closed", "serve-hot"];

/// The manifest, read from the working directory: the result line
/// must hold exactly the metrics it lists for the run's mode.
pub const MANIFEST: &str = "BENCHMARK.json";

/// Name and unit of each metric the manifest text lists in `section`
/// (`end_to_end` or `per_layer`).
///
/// # Errors
///
/// Text that is not JSON, or a section that is not a list of metrics
/// with a name and a unit.
pub fn manifest_metrics(text: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    let spec: serde::Value =
        serde_json::from_str(text).map_err(|e| format!("bad {MANIFEST}: {e}"))?;
    let Some(serde::Value::Seq(metrics)) = spec.get(section) else {
        return Err(format!("{MANIFEST}: no {section} list"));
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(serde::Value::Str(name)), Some(serde::Value::Str(unit))) => {
                Ok((name.clone(), unit.clone()))
            }
            _ => Err(format!(
                "{MANIFEST}: a {section} metric lacks a name or unit"
            )),
        })
        .collect()
}

/// What every workload gets from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory inside the working directory, removed at exit.
    pub workdir: PathBuf,
}

impl Ctx {
    /// An independent seed for one use of `--seed` (trace generation,
    /// request mix, sampling), so streams do not correlate.
    pub fn seed_for(&self, stream: u64) -> u64 {
        Rng::new(self.seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
    }
}

/// splitmix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The registry a traced op records its spans into (the op runs
/// under a [`fosm_obs::scoped_registry`] of it); `None` for an
/// untraced op.
pub type Trace<'a> = Option<&'a Arc<Registry>>;

/// Opens a `fosm_obs` span on a traced op; an untraced op opens none,
/// so the two differ only by the tracing itself.
pub fn span(trace: Trace, name: &str) -> Option<SpanGuard<'static>> {
    trace.map(|_| fosm_obs::span(name))
}

/// Per span path: count, total and self time in milliseconds, where
/// self time is the total minus its direct children's totals (floored
/// at zero where children ran concurrently on several threads).
pub fn span_summary(snap: &Snapshot) -> Vec<(&str, u64, f64, f64)> {
    let mut child_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for (path, stat) in &snap.spans {
        if let Some((parent, _)) = path.rsplit_once('/') {
            *child_ns.entry(parent).or_default() += stat.total_ns;
        }
    }
    snap.spans
        .iter()
        .map(|(path, stat)| {
            let own = stat
                .total_ns
                .saturating_sub(child_ns.get(path.as_str()).copied().unwrap_or(0));
            (
                path.as_str(),
                stat.count,
                stat.total_ns as f64 / 1e6,
                own as f64 / 1e6,
            )
        })
        .collect()
}

/// One operation of a workload, traced or not.
pub trait Workload {
    fn op(&mut self, trace: Trace, tally: &mut Tally);
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Calls `op` until `seconds` of op time would be exceeded, at least
/// `min_ops` times; returns each call's seconds. An op is started only
/// if the previous one's duration still fits the budget, so a run
/// overshoots `seconds` by less than one op.
pub fn op_loop(seconds: f64, min_ops: usize, mut op: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let last = times.last().copied().unwrap_or(0.0);
        if times.len() >= min_ops && elapsed + last > seconds {
            return times;
        }
        times.push(timed(&mut op).1);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The end-to-end run: the workload's own metrics.
fn run_untraced(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "serve-closed" => serve::run(ctx, serve::CLOSED),
        "serve-hot" => serve::run(ctx, serve::HOT),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

/// The traced run: every per-layer metric, then traced and untraced
/// ops of the workload alternated to measure the tracing overhead.
fn run_traced(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut outcome = layers::measure(ctx)?;
    let mut state: Box<dyn Workload> = match workload {
        "serve-closed" => Box::new(serve::Closed::new(ctx, serve::CLOSED)),
        "serve-hot" => Box::new(serve::Closed::new(ctx, serve::HOT)),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    let remaining = (ctx.seconds - start.elapsed().as_secs_f64()).max(0.0);
    let registry = Arc::new(Registry::new());
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let mut pair = 0usize;
    op_loop(remaining, 4, || {
        // Alternate which side goes first so drift cancels.
        let (first_traced, tally) = (pair.is_multiple_of(2), &mut outcome.tally);
        for traced_now in [first_traced, !first_traced] {
            let trace = traced_now.then_some(&registry);
            let secs = timed(|| {
                let _scope = trace.map(|r| fosm_obs::scoped_registry(Arc::clone(r)));
                let _op = span(trace, "op");
                state.op(trace, tally)
            })
            .1;
            if traced_now {
                with_spans.push(secs);
            } else {
                plain.push(secs);
            }
        }
        pair += 1;
    });
    let (t, u) = (
        median(&with_spans).expect("op_loop runs at least once") * 1e3,
        median(&plain).expect("op_loop runs at least once") * 1e3,
    );
    outcome.derived(format!(
        "tracing overhead ({workload}): traced op_ms {t:.3} vs untraced op_ms {u:.3} \
         = {:+.2}% over {} pairs",
        100.0 * (t / u - 1.0),
        plain.len()
    ));
    let snap = registry.snapshot();
    eprintln!(
        "spans ({workload}, {} traced ops): path count total_ms self_ms",
        with_spans.len()
    );
    for (path, n, total, own) in span_summary(&snap) {
        eprintln!("  {path:<40} {n:>7} {total:>12.3} {own:>12.3}");
    }
    Ok(outcome)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let workdir = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        workdir: workdir.clone(),
    };
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let result = std::fs::read_to_string(MANIFEST)
        .map_err(|e| format!("cannot read {MANIFEST}: {e}"))
        .and_then(|text| manifest_metrics(&text, section))
        .and_then(|expected| {
            std::fs::create_dir_all(&workdir)
                .map_err(|e| format!("cannot create {}: {e}", workdir.display()))?;
            let outcome = if args.trace {
                run_traced(&args.workload, &ctx)
            } else {
                run_untraced(&args.workload, &ctx)
            }?;
            outcome.check_metrics(&expected)?;
            Ok((outcome.result_line()?, outcome))
        });
    let _ = std::fs::remove_dir_all(&workdir);
    let _ = std::fs::remove_dir(".perfbench-work");
    match result {
        Ok((line, outcome)) => {
            for derived in &outcome.derived {
                println!("{derived}");
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "serve-closed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-closed", 7, 10, true)
        );
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "serve-hot",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "serve-hot",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "serve-hot", "--seed", "1", "--seconds", "1"],
            &["--workload"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    fn field<'a>(v: &'a serde::Value, key: &str) -> &'a serde::Value {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
    }

    fn text(v: &serde::Value) -> &str {
        match v {
            serde::Value::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn list(v: &serde::Value) -> &[serde::Value] {
        match v {
            serde::Value::Seq(items) => items,
            other => panic!("not a list: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_is_well_formed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let workloads: Vec<&str> = list(field(&spec, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let mut names: Vec<&str> = workloads.clone();
        let mut setup_bound = None;
        let mut max_bound: f64 = 0.0;
        for section in ["end_to_end", "per_layer"] {
            for m in list(field(&spec, section)) {
                let name = text(field(m, "name"));
                assert!(report::valid_name(name), "{name}");
                assert!(report::valid_unit(text(field(m, "unit"))), "{name}");
                assert!(
                    matches!(text(field(m, "better")), "higher" | "lower"),
                    "{name}"
                );
                names.push(name);
                if section == "end_to_end" {
                    let serde::Value::Num(bound) = field(m, "bound") else {
                        panic!("{name}: bound is not a number");
                    };
                    let bound: f64 = bound.parse().unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
                    max_bound = max_bound.max(bound);
                    if name == "setup_s" {
                        assert_eq!(text(field(m, "unit")), "s");
                        assert_eq!(text(field(m, "better")), "lower");
                        setup_bound = Some(bound);
                    }
                }
            }
        }
        assert_eq!(
            setup_bound,
            Some(max_bound),
            "setup_s has the largest bound"
        );
        let text = std::fs::read_to_string(path).unwrap();
        for section in ["end_to_end", "per_layer"] {
            let metrics = manifest_metrics(&text, section).unwrap();
            assert_eq!(metrics.len(), list(field(&spec, section)).len());
        }
        assert!(manifest_metrics(&text, "workloads").is_err());
        assert!(manifest_metrics("{", "end_to_end").is_err());
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "every name is used once");
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let ctx = Ctx {
            seed: 42,
            seconds: 1.0,
            workdir: PathBuf::new(),
        };
        assert_eq!(ctx.seed_for(1), ctx.seed_for(1));
        assert_ne!(ctx.seed_for(1), ctx.seed_for(2));
    }

    #[test]
    fn span_summary_subtracts_direct_children() {
        let registry = Registry::new();
        registry.record_span("op", 10_000_000);
        registry.record_span("op/a", 3_000_000);
        registry.record_span("op/a/b", 1_000_000);
        registry.record_span("op/c", 2_000_000);
        let snap = registry.snapshot();
        let own: Vec<(&str, f64)> = span_summary(&snap).iter().map(|s| (s.0, s.3)).collect();
        assert_eq!(
            own,
            [("op", 5.0), ("op/a", 2.0), ("op/a/b", 1.0), ("op/c", 2.0)]
        );
        assert!(span(None, "untraced").is_none());
    }

    #[test]
    fn op_loop_honours_min_ops_and_budget() {
        let mut n = 0;
        let times = op_loop(0.0, 3, || n += 1);
        assert_eq!((n, times.len()), (3, 3));
    }
}

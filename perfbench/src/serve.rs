//! `serve-closed` and `serve-hot`: the daemon under a closed loop of
//! clients.
//!
//! Each op is one session against a fresh in-process daemon with the
//! `fosm serve` defaults (a worker per core, 2 ms batch window): the
//! hot keys are warmed, then each client thread sends its next request
//! only after the previous answer arrived, so the measured rate is
//! what the daemon sustains, not an offered rate. A fresh daemon per
//! session bounds memory: misses are never evicted.
//!
//! In `serve-closed` two clients send about 90% repeats of a warmed
//! key (store hits), 10% requests with a fresh workload seed (store
//! misses: a trace recorded and profiled) and 2% `Explore` sweeps
//! fanned out over the worker pool. In `serve-hot` one client sends
//! only repeats: every request is a store hit, so the request path and
//! the batch window show without the profiler.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fosm_bench::store::ArtifactStore;
use fosm_serve::batch::DEFAULT_WINDOW;
use fosm_serve::client::Connection;
use fosm_serve::proto::{ExploreRequest, MachineSpec, ProfileRequest, Request, Response};
use fosm_serve::server;
use fosm_serve::service::Service;

use crate::report::{median, peak_rss_mib, tail_percentile, Outcome, Tally};
use crate::{op_loop, span, timed, Ctx, Rng, Trace, Workload};

/// Trace length of every request: the `--insts` default of
/// `fosm client`, the daemon's command-line caller.
pub const INSTS: u64 = 120_000;

/// A traffic shape: the workload's name, its client connections (each
/// its own thread), and whether its stream carries misses and
/// `Explore` sweeps besides the hot repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub name: &'static str,
    pub clients: usize,
    pub misses: bool,
}

/// `serve-closed`: 2 clients, 10% misses and 2% `Explore`.
pub const CLOSED: Mix = Mix {
    name: "serve-closed",
    clients: 2,
    misses: true,
};

/// `serve-hot`: 1 client, store hits only.
pub const HOT: Mix = Mix {
    name: "serve-hot",
    clients: 1,
    misses: false,
};

/// Requests each client sends per session.
pub const REQUESTS_PER_CLIENT: usize = 200;

/// Benchmarks the requests name: those of `fosm loadgen`'s stream.
pub const BENCHES: [&str; 2] = ["gzip", "gcc"];

/// Probe variants the requests name: those of `fosm loadgen`'s stream.
pub const PROBES: [&str; 5] = ["full", "ideal", "branch", "icache", "dcache"];

/// Seed stream of the hot keys' workload seed.
const HOT_STREAM: u64 = 4;
/// Seed stream of the request mix.
const MIX_STREAM: u64 = 5;

/// A `Profile` or `Model` request on `bench`/`probe` at `seed`.
pub fn profile_request(model: bool, bench: &str, probe: &str, seed: u64) -> Request {
    let p = ProfileRequest {
        bench: bench.to_string(),
        insts: INSTS,
        seed,
        machine: MachineSpec::default(),
        probe: probe.to_string(),
    };
    if model {
        Request::Model(p)
    } else {
        Request::Profile(p)
    }
}

/// An `Explore` request over the baseline sweep on `bench` at `seed`.
pub fn explore_request(bench: &str, seed: u64) -> Request {
    Request::Explore(ExploreRequest {
        bench: bench.to_string(),
        insts: INSTS,
        seed,
        widths: vec![],
        windows: vec![],
        robs: vec![],
        depths: vec![],
        l2s: vec![],
        mems: vec![],
    })
}

/// The requests that warm a fresh daemon: every hot profile key.
pub fn warm_requests(hot_seed: u64) -> Vec<Request> {
    BENCHES
        .iter()
        .flat_map(|b| {
            PROBES
                .iter()
                .map(move |p| profile_request(false, b, p, hot_seed))
                .chain(std::iter::once(explore_request(b, hot_seed)))
        })
        .collect()
}

/// One client's request stream: with `misses`, exactly 2% `Explore` on
/// a hot trace and 10% fresh-seed `Profile`/`Model` (misses), the rest
/// hot repeats, in a seeded order; without, hot repeats only. Fixed
/// shares keep every session's miss count, and so its work and memory,
/// the same.
pub fn client_plan(rng: &mut Rng, hot_seed: u64, n: usize, misses: bool) -> Vec<Request> {
    let (explores, fresh) = if misses { (n / 50, n / 10) } else { (0, 0) };
    let mut kinds: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    kinds
        .into_iter()
        .map(|k| {
            let bench = BENCHES[rng.below(BENCHES.len() as u64) as usize];
            if k < explores {
                return explore_request(bench, hot_seed);
            }
            let seed = if k < explores + fresh {
                rng.next_u64()
            } else {
                hot_seed
            };
            let probe = PROBES[rng.below(PROBES.len() as u64) as usize];
            profile_request(rng.below(2) == 0, bench, probe, seed)
        })
        .collect()
}

/// A daemon with `fosm serve`'s defaults over a fresh store.
pub fn daemon_service() -> Arc<Service> {
    Arc::new(Service::new(
        Arc::new(ArtifactStore::new()),
        fosm_bench::par::available_threads(),
        DEFAULT_WINDOW,
    ))
}

/// The in-process reference: `fosm client --local`'s service shape.
pub fn local_service() -> Service {
    Service::new(Arc::new(ArtifactStore::new()), 1, Duration::ZERO)
}

/// One answered request.
struct Answer {
    request: usize,
    response: Result<Response, String>,
    secs: f64,
}

/// What one session measured.
#[derive(Debug, Default)]
pub struct Session {
    pub setup_s: f64,
    pub loop_s: f64,
    /// Per-request latency in seconds; failed requests are infinite.
    pub latencies: Vec<f64>,
    pub profile_hits: u64,
    pub profile_misses: u64,
}

/// Runs one session: fresh daemon, warm-up, closed loop, shutdown,
/// and a check of every response against the in-process service.
pub fn session(
    mix: Mix,
    hot_seed: u64,
    rng: &mut Rng,
    per_client: usize,
    trace: Trace,
    tally: &mut Tally,
) -> Result<Session, String> {
    let plans: Vec<Vec<Request>> = (0..mix.clients)
        .map(|_| client_plan(rng, hot_seed, per_client, mix.misses))
        .collect();
    let ((service, handle), setup_s) = timed(|| {
        let service = daemon_service();
        for req in warm_requests(hot_seed) {
            service.execute(&req);
        }
        let handle = server::start(Arc::clone(&service), "127.0.0.1:0");
        (service, handle)
    });
    let handle = handle.map_err(|e| format!("cannot start the daemon: {e}"))?;
    let addr = handle.addr().to_string();
    let parent = trace.and_then(|_| fosm_obs::current_span_path());
    let start = Instant::now();
    let per_client: Vec<Vec<Answer>> = std::thread::scope(|s| {
        let workers: Vec<_> = plans
            .iter()
            .map(|plan| {
                let (addr, parent) = (&addr, parent.as_deref());
                s.spawn(move || client(addr, plan, trace, parent))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client threads do not panic"))
            .collect()
    });
    let loop_s = start.elapsed().as_secs_f64();
    handle.stop_and_join();
    let stats = service.store().stats();
    drop(service);

    let oracle = local_service();
    let mut expected: HashMap<String, Response> = HashMap::new();
    let mut latencies = Vec::with_capacity(plans.iter().map(Vec::len).sum());
    for (answers, plan) in per_client.into_iter().zip(&plans) {
        for answer in answers {
            let req = &plan[answer.request];
            let key = serde_json::to_string(req).map_err(|e| e.to_string())?;
            let want = expected.entry(key).or_insert_with(|| oracle.execute(req));
            let failure = match &answer.response {
                Ok(got @ Response::Ok { .. }) if got == want => None,
                Ok(Response::Ok { .. }) => Some("response differs from in-process execute".into()),
                Ok(err) => Some(format!("error response {err:?}")),
                Err(e) => Some(e.clone()),
            };
            latencies.push(if failure.is_some() {
                f64::INFINITY
            } else {
                answer.secs
            });
            let failures: Vec<String> = failure
                .into_iter()
                .map(|f| format!("{}: {f}", req.kind()))
                .collect();
            tally.record(mix.name, &failures);
        }
    }
    oracle.shutdown();
    Ok(Session {
        setup_s,
        loop_s,
        latencies,
        profile_hits: stats.profile_hits,
        profile_misses: stats.profile_misses,
    })
}

/// One closed-loop client: next request only after the last answer.
/// A traced client records its spans under the session's span path.
fn client(addr: &str, plan: &[Request], trace: Trace, parent: Option<&str>) -> Vec<Answer> {
    let _scope = trace.map(|r| fosm_obs::scoped_registry(Arc::clone(r)));
    let _root = parent.map(fosm_obs::adopt_span_parent);
    let mut answers = Vec::with_capacity(plan.len());
    let mut conn = match Connection::open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            let failed = (0..plan.len()).map(|request| Answer {
                request,
                response: Err(e.clone()),
                secs: f64::INFINITY,
            });
            return failed.collect();
        }
    };
    for (request, req) in plan.iter().enumerate() {
        let (response, secs) = timed(|| {
            let _span = span(trace, "serve.request");
            conn.send(req)
        });
        answers.push(Answer {
            request,
            response,
            secs,
        });
    }
    answers
}

pub struct Closed {
    mix: Mix,
    hot_seed: u64,
    rng: Rng,
    pub sessions: Vec<Session>,
}

impl Closed {
    pub fn new(ctx: &Ctx, mix: Mix) -> Closed {
        Closed {
            mix,
            hot_seed: ctx.seed_for(HOT_STREAM),
            rng: Rng::new(ctx.seed_for(MIX_STREAM)),
            sessions: Vec::new(),
        }
    }
}

impl Workload for Closed {
    fn op(&mut self, trace: Trace, tally: &mut Tally) {
        match session(
            self.mix,
            self.hot_seed,
            &mut self.rng,
            REQUESTS_PER_CLIENT,
            trace,
            tally,
        ) {
            Ok(s) => self.sessions.push(s),
            Err(e) => tally.record(self.mix.name, &[e]),
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx, mix: Mix) -> Result<Outcome, String> {
    let mut closed = Closed::new(ctx, mix);
    let mut outcome = Outcome::default();
    op_loop(ctx.seconds, 3, || closed.op(None, &mut outcome.tally));
    let sessions = &closed.sessions;
    let setups: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    let loops: Vec<f64> = sessions.iter().map(|s| s.loop_s).collect();
    let latencies: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.latencies.iter().copied())
        .collect();
    let (Some(setup), Some(op), Some(p50)) = (
        median(&setups),
        median(&loops),
        tail_percentile(&latencies, 0.5),
    ) else {
        return Err("no session completed".into());
    };
    let requests = latencies.len() as f64;
    let (hits, misses) = sessions.iter().fold((0, 0), |(h, m), s| {
        (h + s.profile_hits, m + s.profile_misses)
    });
    outcome.metric("setup_s", setup, "s");
    outcome.metric("op_ms", op * 1e3, "ms");
    outcome.metric("work_per_s", requests / loops.iter().sum::<f64>(), "1/s");
    outcome.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    if p50.is_finite() {
        outcome.derived(format!(
            "p50_ms: {:.4} ms over {requests} requests",
            p50 * 1e3
        ));
    }
    match tail_percentile(&latencies, 0.99) {
        Some(p99) if p99.is_finite() => outcome.derived(format!(
            "p99_ms: {:.4} ms over {requests} requests",
            p99 * 1e3
        )),
        other => outcome.derived(format!(
            "p99_ms not reported: {other:?} over {requests} requests (needs 10 beyond it, all answered)"
        )),
    }
    outcome.derived(format!(
        "{}: {} sessions x {} clients x {REQUESTS_PER_CLIENT} requests, \
         store profile hit ratio {:.3} ({hits} hits / {} lookups)",
        mix.name,
        sessions.len(),
        mix.clients,
        hits as f64 / (hits + misses).max(1) as f64,
        hits + misses
    ));
    outcome.derived(format!(
        "batch-window share of p50_ms: {:.1}% = window {:.1} ms / p50_ms {:.3}",
        100.0 * DEFAULT_WINDOW.as_secs_f64() / p50,
        DEFAULT_WINDOW.as_secs_f64() * 1e3,
        p50 * 1e3
    ));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_with_fixed_shares() {
        for (misses, shares) in [(true, (4, 20)), (false, (0, 0))] {
            let plan = |seed| client_plan(&mut Rng::new(seed), 77, 200, misses);
            assert_eq!(plan(1), plan(1));
            assert_ne!(plan(1), plan(2));
            for seed in 1..5 {
                let (mut explore, mut fresh) = (0, 0);
                for r in plan(seed) {
                    match r {
                        Request::Explore(_) => explore += 1,
                        Request::Profile(p) | Request::Model(p) if p.seed != 77 => fresh += 1,
                        _ => {}
                    }
                }
                assert_eq!((explore, fresh), shares);
            }
        }
    }

    #[test]
    fn a_session_answers_every_request_correctly() {
        let mut tally = Tally::default();
        let registry = Arc::new(fosm_obs::Registry::new());
        let s = {
            let _scope = fosm_obs::scoped_registry(Arc::clone(&registry));
            let _op = fosm_obs::span("op");
            session(CLOSED, 5, &mut Rng::new(3), 12, Some(&registry), &mut tally).unwrap()
        };
        assert_eq!((tally.attempted, tally.failed), (24, 0));
        assert_eq!(s.latencies.len(), 24);
        assert!(s.latencies.iter().all(|l| l.is_finite()));
        assert!(s.profile_hits > 0);
        assert_eq!(registry.snapshot().spans["op/serve.request"].count, 24);
    }

    #[test]
    fn a_hot_session_only_hits_the_store() {
        let mut tally = Tally::default();
        let s = session(HOT, 5, &mut Rng::new(3), 12, None, &mut tally).unwrap();
        assert_eq!((tally.attempted, tally.failed), (12, 0));
        // The only misses are the warm-up's, one per warmed key.
        let warmed = warm_requests(5).len() as u64;
        assert_eq!((s.latencies.len(), s.profile_misses), (12, warmed));
    }
}

//! The traced run's per-layer metrics: each layer's public calls timed
//! in isolation from this file, on the same inputs for every workload
//! (gcc for a large code footprint, mcf for a large data footprint).
//!
//! Every timing is the median of several repetitions. The counts
//! (miss rates, frontier length, hit ratio) are deterministic for a
//! seed except the hit ratio, which depends on how requests interleave.

use std::hint::black_box;
use std::sync::Arc;

use fosm_bench::store::ArtifactStore;
use fosm_branch::PredictorConfig;
use fosm_cache::{AccessKind, Hierarchy, HierarchyConfig};
use fosm_core::model::FirstOrderModel;
use fosm_core::params::ProcessorParams;
use fosm_core::profile::{Probe, ProbeBank, ProfileCollector, ProgramProfile};
use fosm_depgraph::streaming::IwSweep;
use fosm_explore::{
    merge_frontiers, sweep_profile, HardwareAxes, MachineGrid, ParetoFrontier, ShardTag,
};
use fosm_isa::{Inst, Op};
use fosm_sim::{Machine, MachineConfig};
use fosm_trace::{write_corpus, CorpusFile, DecodedTrace, PackedTrace, TraceSource};
use fosm_validate::differential::{
    branch_variant_of, dcache_variant_of, icache_variant_of, ideal_variant_of,
};
use fosm_workloads::{BenchmarkSpec, WorkloadGenerator};

use crate::report::{median, Outcome, Tally};
use crate::serve::{self, explore_request, profile_request, warm_requests, BENCHES};
use crate::{timed, Ctx, Rng};

/// The five machines of the paper's validation: the baseline and its
/// ideal, branch-only, icache-only and dcache-only variants.
fn variants(config: &MachineConfig) -> [MachineConfig; 5] {
    [
        config.clone(),
        ideal_variant_of(config),
        branch_variant_of(config),
        icache_variant_of(config),
        dcache_variant_of(config),
    ]
}

/// The probe bank matching [`variants`], named after the benchmark.
fn probe_bank(variants: &[MachineConfig; 5], name: &str) -> ProbeBank {
    variants
        .iter()
        .map(|v| Probe {
            hierarchy: v.hierarchy,
            predictor: v.predictor,
            dtlb: None,
            name: name.to_string(),
        })
        .collect()
}

/// Trace length of each layer input.
const INSTS: u64 = 120_000;
/// Seed stream of the layer inputs.
const LAYER_STREAM: u64 = 6;
/// Repetitions of each trace-length timing.
const REPS: usize = 5;

/// Every config of `grid` as a one-config grid.
fn one_config_grids(grid: &MachineGrid) -> Vec<MachineGrid> {
    let mut out = Vec::new();
    for &w in &grid.widths {
        for &win in &grid.win_sizes {
            for &rob in &grid.rob_sizes {
                for &depth in &grid.pipe_depths {
                    for &l2 in &grid.l2_latencies {
                        for &mem in &grid.mem_latencies {
                            out.push(MachineGrid {
                                widths: vec![w],
                                win_sizes: vec![win],
                                rob_sizes: vec![rob],
                                pipe_depths: vec![depth],
                                l2_latencies: vec![l2],
                                mem_latencies: vec![mem],
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Median seconds of `reps` calls of `f`.
fn med<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).1).collect();
    median(&times).expect("reps > 0")
}

/// Drains a trace source, folding every instruction so the replay is
/// not optimized away.
fn drain<S: TraceSource>(mut source: S) -> u64 {
    let mut acc = 0u64;
    while let Some(inst) = source.next_inst() {
        acc = acc.rotate_left(5) ^ inst.pc ^ inst.mem_addr.unwrap_or(0);
    }
    acc
}

/// One pass of the functional cache hierarchy; returns the accesses
/// made and the hierarchy with its statistics.
fn cache_pass(config: HierarchyConfig, insts: &[Inst]) -> (u64, Hierarchy) {
    let mut h = Hierarchy::new(config).expect("probe hierarchies are valid");
    let mut accesses = 0u64;
    for inst in insts {
        black_box(h.access(AccessKind::IFetch, inst.pc));
        accesses += 1;
        let kind = match inst.op {
            Op::Load => AccessKind::Load,
            Op::Store => AccessKind::Store,
            _ => continue,
        };
        if let Some(addr) = inst.mem_addr {
            black_box(h.access(kind, addr));
            accesses += 1;
        }
    }
    (accesses, h)
}

/// One pass of a branch predictor over the conditional branches;
/// returns (branches, mispredicts).
fn branch_pass(config: PredictorConfig, insts: &[Inst]) -> (u64, u64) {
    let mut p = config.build();
    let (mut branches, mut wrong) = (0u64, 0u64);
    for inst in insts {
        if let (true, Some(b)) = (inst.op.is_cond_branch(), inst.branch) {
            branches += 1;
            if !p.observe(inst.pc, b.taken) {
                wrong += 1;
            }
        }
    }
    (branches, wrong)
}

struct Input {
    spec: BenchmarkSpec,
    trace: PackedTrace,
    insts: Vec<Inst>,
}

/// Measures every per-layer metric.
pub fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = ctx.seed_for(LAYER_STREAM);
    let inputs: Vec<Input> = [BenchmarkSpec::gcc(), BenchmarkSpec::mcf()]
        .into_iter()
        .map(|spec| {
            let trace = PackedTrace::record(&mut WorkloadGenerator::new(&spec, seed), INSTS);
            let insts = trace.decode();
            Input { spec, trace, insts }
        })
        .collect();
    let n = (INSTS * inputs.len() as u64) as f64;
    let per_inst = |secs: f64| secs * 1e9 / n;
    let each = |f: &mut dyn FnMut(&Input)| {
        for input in &inputs {
            f(input);
        }
    };

    // workloads + trace
    let gen = med(REPS, || {
        each(&mut |i| {
            let mut g = WorkloadGenerator::new(&i.spec, seed);
            for _ in 0..INSTS {
                black_box(g.next_inst());
            }
        })
    });
    out.metric("workloads.gen_ns_per_inst", per_inst(gen), "ns");
    let record = med(REPS, || {
        each(&mut |i| {
            black_box(PackedTrace::record(
                &mut WorkloadGenerator::new(&i.spec, seed),
                INSTS,
            ));
        })
    });
    out.metric("trace.record_ns_per_inst", per_inst(record), "ns");
    let replay = med(REPS, || {
        each(&mut |i| {
            black_box(drain(i.trace.replay()));
        })
    });
    out.metric("trace.replay_ns_per_inst", per_inst(replay), "ns");
    corpus_layers(ctx, &inputs, &mut out)?;

    // cache
    let base = HierarchyConfig::baseline();
    let mut accesses = 0;
    let cache = med(REPS, || {
        accesses = 0;
        each(&mut |i| accesses += cache_pass(base, &i.insts).0)
    });
    out.metric("cache.ns_per_access", cache * 1e9 / accesses as f64, "ns");
    let (mut l1i, mut l1d, mut l2) = ((0, 0), (0, 0), (0, 0));
    each(&mut |i| {
        let (_, h) = cache_pass(base, &i.insts);
        let add = |acc: &mut (u64, u64), s: &fosm_cache::MissStats| {
            acc.0 += s.misses();
            acc.1 += s.accesses();
        };
        add(&mut l1i, h.ifetch_stats());
        add(&mut l1d, h.data_stats());
        if let Some(s) = h.l2_stats() {
            add(&mut l2, s);
        }
    });
    let rate = |(m, a): (u64, u64)| m as f64 / a.max(1) as f64;
    out.metric("cache.l1i_miss_rate", rate(l1i), "ratio");
    out.metric("cache.l1d_miss_rate", rate(l1d), "ratio");
    out.metric("cache.l2_miss_rate", rate(l2), "ratio");

    // branch
    let mut counts = (0, 0);
    let branch = med(REPS, || {
        counts = (0, 0);
        each(&mut |i| {
            let (b, w) = branch_pass(PredictorConfig::baseline(), &i.insts);
            counts = (counts.0 + b, counts.1 + w);
        })
    });
    out.metric("branch.ns_per_branch", branch * 1e9 / counts.0 as f64, "ns");
    out.metric(
        "branch.mispredict_rate",
        counts.1 as f64 / counts.0 as f64,
        "ratio",
    );

    // depgraph
    let iw = med(REPS, || {
        each(&mut |i| {
            let mut sweep = IwSweep::paper_default();
            for inst in &i.insts {
                sweep.push(inst);
            }
            black_box(sweep.finish());
        })
    });
    out.metric("depgraph.iw_ns_per_inst", per_inst(iw), "ns");
    let mut sweep = IwSweep::paper_default();
    for inst in &inputs[0].insts {
        sweep.push(inst);
    }
    let analysis = sweep.finish();
    let params = ProcessorParams::baseline();
    let fit = med(201, || analysis.characteristic(&params.latencies, 0.0));
    out.metric("depgraph.fit_us", fit * 1e6, "us");

    // core::profile, and its glue: the fused 5-probe pass minus the
    // isolated replay, per-probe cache and branch passes, and IW sweep.
    let profile = med(REPS, || {
        each(&mut |i| {
            black_box(ProfileCollector::new(&params).collect(&mut i.trace.replay(), u64::MAX))
                .expect("baseline profile of a recorded trace");
        })
    });
    out.metric("core.profile_ns_per_inst", per_inst(profile), "ns");
    let machines = variants(&MachineConfig::baseline());
    let banks: Vec<ProbeBank> = inputs
        .iter()
        .map(|i| probe_bank(&machines, &i.spec.name))
        .collect();
    let fused = med(REPS, || {
        for (i, bank) in inputs.iter().zip(&banks) {
            black_box(ProfileCollector::new(&params).collect_many(
                &mut i.trace.replay(),
                bank,
                u64::MAX,
            ))
            .expect("fused profile of a recorded trace");
        }
    });
    let per_probe: f64 = machines
        .iter()
        .map(|m| {
            med(REPS, || {
                each(&mut |i| {
                    black_box(cache_pass(m.hierarchy, &i.insts).0);
                    black_box(branch_pass(m.predictor, &i.insts));
                })
            })
        })
        .sum();
    out.metric(
        "core.profile_glue_ns_per_inst",
        per_inst(fused - replay - per_probe - iw),
        "ns",
    );
    let profiles: Vec<ProgramProfile> = inputs
        .iter()
        .map(|i| {
            ProfileCollector::new(&params)
                .with_name(i.spec.name.clone())
                .collect(&mut i.trace.replay(), u64::MAX)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let model = FirstOrderModel::new(params.clone());
    let evaluate = med(201, || model.evaluate(&profiles[0]));
    out.metric("core.evaluate_us", evaluate * 1e6, "us");
    out.metric(
        "core.prepare_us",
        med(201, || model.prepare(&profiles[0])) * 1e6,
        "us",
    );
    let prepared = model.prepare(&profiles[0]).map_err(|e| e.to_string())?;
    // The grid serve's `Explore` requests sweep.
    let grid = MachineGrid::baseline_sweep();
    out.metric(
        "core.structural_us",
        med(201, || prepared.structural(4, 48)) * 1e6,
        "us",
    );
    let contexts: Vec<_> = grid
        .widths
        .iter()
        .flat_map(|&w| grid.win_sizes.iter().map(move |&win| (w, win)))
        .map(|(w, win)| prepared.structural(w, win))
        .collect();
    let eval_at = med(201, || {
        let mut acc = 0.0;
        for ctx in &contexts {
            for &rob in &grid.rob_sizes {
                for &depth in &grid.pipe_depths {
                    for &l2 in &grid.l2_latencies {
                        for &mem in &grid.mem_latencies {
                            acc += prepared.evaluate_at(ctx, rob, depth, l2, mem).total_cpi();
                        }
                    }
                }
            }
        }
        acc
    });
    out.metric(
        "core.evaluate_at_ns",
        eval_at * 1e9 / grid.len() as f64,
        "ns",
    );

    // sim
    let eval_ns_per_inst = evaluate * 1e9 / INSTS as f64;
    for (machine, name) in machines
        .iter()
        .zip(["full", "ideal", "branch", "icache", "dcache"])
    {
        let mut cycles = 0;
        let secs = med(3, || {
            cycles = 0;
            each(&mut |i| {
                cycles += Machine::new(machine.clone())
                    .run(&mut i.trace.replay())
                    .cycles
            })
        });
        out.metric(format!("sim.ns_per_inst.{name}"), per_inst(secs), "ns");
        if name == "full" {
            out.metric("sim.ns_per_cycle", secs * 1e9 / cycles as f64, "ns");
            let model_ns = per_inst(profile) + eval_ns_per_inst;
            out.derived(format!(
                "sim/model cost ratio (single-probe): {:.2} = sim.ns_per_inst.full {:.1} \
                 / (core.profile_ns_per_inst {:.1} + one evaluation {:.3} per inst)",
                per_inst(secs) / model_ns,
                per_inst(secs),
                per_inst(profile),
                eval_ns_per_inst
            ));
        }
    }

    explore_layers(&profiles, &grid, &mut out)?;
    serve_layers(ctx, &mut out)?;
    Ok(out)
}

fn corpus_layers(ctx: &Ctx, inputs: &[Input], out: &mut Outcome) -> Result<(), String> {
    let n = (INSTS * inputs.len() as u64) as f64;
    let path = |i: &Input| ctx.workdir.join(format!("layer-{}.fct", i.spec.name));
    let write = med(REPS, || {
        for i in inputs {
            write_corpus(path(i), &i.trace).expect("corpus write into the work directory");
        }
    });
    out.metric("trace.corpus_write_ns_per_inst", write * 1e9 / n, "ns");
    let files: Vec<CorpusFile> = inputs
        .iter()
        .map(|i| CorpusFile::open(path(i)).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let verify = med(REPS, || {
        for i in inputs {
            CorpusFile::open(path(i))
                .and_then(|f| f.verify())
                .expect("a corpus just written verifies");
        }
    });
    out.metric("trace.corpus_verify_ns_per_inst", verify * 1e9 / n, "ns");
    let page = med(REPS, || {
        files.iter().map(|f| drain(f.replay())).sum::<u64>()
    });
    out.metric("trace.page_replay_ns_per_inst", page * 1e9 / n, "ns");
    let build = med(REPS, || {
        files
            .iter()
            .map(|f| DecodedTrace::from_corpus(f).expect("sidecar of a verified corpus"))
            .collect::<Vec<_>>()
    });
    out.metric("trace.sidecar_build_ns_per_inst", build * 1e9 / n, "ns");
    let sidecars: Vec<DecodedTrace> = files
        .iter()
        .map(|f| DecodedTrace::from_corpus(f).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let side = med(REPS, || {
        sidecars.iter().map(|s| drain(s.replay())).sum::<u64>()
    });
    out.metric("trace.sidecar_replay_ns_per_inst", side * 1e9 / n, "ns");
    Ok(())
}

fn explore_layers(
    profiles: &[ProgramProfile],
    grid: &MachineGrid,
    out: &mut Outcome,
) -> Result<(), String> {
    let model = FirstOrderModel::new(ProcessorParams::baseline());
    let variant = HardwareAxes::baseline_only().variants()[0];
    // Design points with real costs: each config's sole frontier point
    // from a one-config sweep.
    let mut points = Vec::new();
    for one in one_config_grids(grid) {
        let tag = ShardTag {
            workload: 0,
            variant: 0,
        };
        let shard =
            sweep_profile(&model, &profiles[0], &one, &variant, tag).map_err(|e| e.to_string())?;
        points.extend_from_slice(shard.frontier.points());
    }
    let offer = med(51, || {
        let mut f = ParetoFrontier::new();
        for p in &points {
            f.offer(*p);
        }
        f
    });
    out.metric("explore.offer_ns", offer * 1e9 / points.len() as f64, "ns");

    // Twelve shards, as a sweep over the whole suite merges: the two
    // layer profiles swept over the grid, six tags each.
    let shards = profiles
        .iter()
        .map(|p| {
            sweep_profile(
                &model,
                p,
                grid,
                &variant,
                ShardTag {
                    workload: 0,
                    variant: 0,
                },
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let twelve: Vec<_> = (0..12u32)
        .map(|w| {
            let mut s = shards[w as usize % shards.len()].clone();
            s.tag.workload = w;
            s
        })
        .collect();
    let merge = med(51, || merge_frontiers(&twelve));
    out.metric("explore.merge_us", merge * 1e6, "us");
    out.metric(
        "explore.frontier_len",
        merge_frontiers(&twelve).len() as f64,
        "count",
    );
    Ok(())
}

fn serve_layers(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let hot_seed = ctx.seed_for(LAYER_STREAM);
    let params = ProcessorParams::baseline();
    let gzip = BenchmarkSpec::gzip();

    // bench::store: warm hits and fresh-seed misses at the serve length.
    let store = ArtifactStore::new();
    let lookup = |seed: u64| {
        store
            .profile_with(
                &params,
                &HierarchyConfig::baseline(),
                PredictorConfig::baseline(),
                "gzip",
                &gzip,
                serve::INSTS,
                seed,
            )
            .expect("baseline profile of a generated workload")
    };
    lookup(hot_seed);
    out.metric(
        "bench.store_hit_us",
        med(1001, || lookup(hot_seed)) * 1e6,
        "us",
    );
    let mut fresh = Rng::new(hot_seed);
    out.metric(
        "bench.store_miss_ms",
        med(5, || lookup(fresh.next_u64())) * 1e3,
        "ms",
    );

    // A short closed-loop session for the store's hit ratio under the
    // serve mix.
    let mut tally = Tally::default();
    let s = serve::session(
        serve::CLOSED,
        hot_seed,
        &mut Rng::new(hot_seed),
        100,
        None,
        &mut tally,
    )?;
    out.tally.absorb(&tally);
    out.metric(
        "bench.store_hit_ratio",
        s.profile_hits as f64 / (s.profile_hits + s.profile_misses).max(1) as f64,
        "ratio",
    );

    // serve: in-process execute (no batch window) vs a round trip to a
    // daemon with the defaults.
    let kinds = [
        (
            "profile",
            profile_request(false, BENCHES[0], "full", hot_seed),
            201,
        ),
        (
            "model",
            profile_request(true, BENCHES[0], "full", hot_seed),
            201,
        ),
        ("explore", explore_request(BENCHES[0], hot_seed), 51),
    ];
    let local = serve::local_service();
    for req in warm_requests(hot_seed) {
        local.execute(&req);
    }
    let mut execute = Vec::new();
    for (kind, req, reps) in &kinds {
        let secs = med(*reps, || local.execute(req));
        execute.push(secs);
        out.metric(format!("serve.execute_us.{kind}"), secs * 1e6, "us");
    }
    local.shutdown();
    let service = serve::daemon_service();
    for req in warm_requests(hot_seed) {
        service.execute(&req);
    }
    let handle = fosm_serve::server::start(Arc::clone(&service), "127.0.0.1:0")
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
    let mut conn = fosm_serve::client::Connection::open(&handle.addr().to_string())?;
    let mut roundtrip = Vec::new();
    let mut failures = Vec::new();
    for (kind, req, reps) in &kinds {
        let secs = med(*reps, || match conn.send(req) {
            Ok(fosm_serve::proto::Response::Ok { .. }) => {}
            other => failures.push(format!("{kind}: {other:?}")),
        });
        roundtrip.push(secs);
        out.metric(format!("serve.roundtrip_us.{kind}"), secs * 1e6, "us");
    }
    drop(conn);
    handle.stop_and_join();
    out.tally.record("serve layer round trips", &failures);
    let wait = ((roundtrip[0] - execute[0]) + (roundtrip[1] - execute[1])) / 2.0;
    out.metric("serve.wait_us", wait * 1e6, "us");
    Ok(())
}

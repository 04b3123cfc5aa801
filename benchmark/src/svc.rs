//! `svc_mix`: `CpqService` over two uniform trees whose pools hold about a
//! third of their pages, two workers, four in-process callers in a closed
//! loop (each waits for its reply before sending the next request),
//! cycling planner-routed {cross, self} x K x window-selectivity requests.

use crate::data::{build_mem, indexed, sub_seed, Opts, PoolCounters, BUILD_POOL_PAGES};
use crate::gate::{keys, Gate, PairKey, BRUTE_PAIR_LIMIT};
use crate::kcpq::{set_core_metrics, set_time_shares, shipped_config, OpTrace};
use crate::probes;
use crate::report::{set_latency_metrics, Metrics, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats;
use cpq_core::brute::{k_closest_pairs_brute, self_k_closest_pairs_brute};
use cpq_core::{
    k_closest_pairs_constrained, self_closest_pairs_constrained, Algorithm, Constraint, CpqConfig,
};
use cpq_datasets::uniform;
use cpq_geo::{Point2, Rect2};
use cpq_rng::Rng;
use cpq_rtree::{RTree, RTreeParams};
use cpq_service::{
    CpqService, ObsConfig, QueryKind, QueryRequest, QueryResponse, QueryStatus, ServiceConfig,
    TreePair,
};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Worker threads of the service (the machine has two cores).
pub const WORKERS: usize = 2;
/// Callers in the closed loop, hence requests in flight.
pub const CALLERS: usize = 4;
/// Pool frames per tree: about a third of a 20K-point tree's pages, which
/// puts the hit rate near the 0.7-0.8 the service has always run at.
pub const POOL_PAGES: usize = 512;

const KS: [usize; 3] = [1, 10, 100];
/// Window area as a share of the workspace; `None` is unconstrained.
const SELECTIVITIES: [Option<f64>; 3] = [Some(0.01), Some(0.10), None];

/// One request of the cycle and what identifies its class.
#[derive(Debug, Clone, Copy)]
struct Planned {
    kind: QueryKind,
    k: usize,
    window: Option<Rect2>,
}

impl Planned {
    fn constraint(&self) -> Constraint<2> {
        self.window
            .map_or_else(Constraint::none, Constraint::window)
    }

    fn request(&self) -> QueryRequest<2> {
        match self.kind {
            QueryKind::Cross => QueryRequest::planned_cross(self.k),
            QueryKind::SelfJoin => QueryRequest::planned_self(self.k),
        }
        .with_constraint(self.constraint())
    }

    fn name(&self, index: usize) -> String {
        format!(
            "#{index} {}/K={}/{}",
            self.kind.label(),
            self.k,
            self.window.map_or("all", |_| "window")
        )
    }
}

/// The request cycle: every {kind, K, selectivity} class at `positions`
/// window positions drawn from the seed. The classes of one position share
/// its windows, one per selectivity.
fn request_cycle(seed: u64, workspace: Rect2, positions: usize) -> Vec<Planned> {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 5));
    let mut cycle = Vec::new();
    for _ in 0..positions {
        let windows = SELECTIVITIES.map(|share| {
            share.map(|share| {
                let side = share.sqrt();
                let (w, h) = (workspace.extent(0) * side, workspace.extent(1) * side);
                let x = workspace.lo().coord(0) + rng.next_f64() * (workspace.extent(0) - w);
                let y = workspace.lo().coord(1) + rng.next_f64() * (workspace.extent(1) - h);
                Rect2::from_corners([x, y], [x + w, y + h])
            })
        });
        for kind in [QueryKind::Cross, QueryKind::SelfJoin] {
            for k in KS {
                cycle.extend(windows.iter().map(|&window| Planned { kind, k, window }));
            }
        }
    }
    cycle
}

/// Requests per window position: {cross, self} x K x selectivity.
const CLASSES_PER_POSITION: usize = 2 * KS.len() * SELECTIVITIES.len();

struct Setup {
    /// Seconds per tree the insertion build took.
    build_s: f64,
    pts_p: Vec<Point2>,
    pts_q: Vec<Point2>,
    service: CpqService<2>,
    cycle: Vec<Planned>,
}

fn small_pool_tree(points: &[Point2]) -> RTree<2> {
    let tree = build_mem(points, BUILD_POOL_PAGES);
    tree.pool().set_capacity(POOL_PAGES);
    tree
}

fn service_config(obs: ObsConfig) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        obs,
        ..ServiceConfig::default()
    }
}

/// Data, trees, service, and one warm-up pass of the cycle through it.
fn set_up(opts: &Opts, tracer: &Tracer) -> Setup {
    let span = tracer.start("setup", None, None);
    let n = opts.pick(20_000, 1_000);
    let (pts_p, pts_q) = tracer.scope("setup.generate", span, None, |_| {
        (
            uniform(n, sub_seed(opts.seed, 3)).points,
            uniform(n, sub_seed(opts.seed, 4)).points,
        )
    });
    let t = Instant::now();
    let (p, q) = tracer.scope("setup.build", span, None, |_| {
        (small_pool_tree(&pts_p), small_pool_tree(&pts_q))
    });
    let build_s = t.elapsed().as_secs_f64() / 2.0;
    let workspace = p.root_mbr().expect("root").expect("non-empty tree");
    let cycle = request_cycle(opts.seed, workspace, opts.pick(10, 2));
    let service = CpqService::start(TreePair::new(p, q), service_config(ObsConfig::default()));
    tracer.scope("setup.warm_up", span, None, |_| {
        for planned in &cycle {
            service
                .execute(planned.request())
                .expect("an idle service admits");
        }
    });
    tracer.end(span);
    Setup {
        build_s,
        pts_p,
        pts_q,
        service,
        cycle,
    }
}

fn direct(
    trees: &TreePair<2>,
    planned: &Planned,
    algorithm: Algorithm,
    cfg: &CpqConfig,
) -> Vec<PairKey> {
    let out = match planned.kind {
        QueryKind::Cross => k_closest_pairs_constrained(
            &trees.p,
            &trees.q,
            planned.k,
            algorithm,
            cfg,
            planned.constraint(),
        ),
        QueryKind::SelfJoin => self_closest_pairs_constrained(
            &trees.p,
            planned.k,
            algorithm,
            cfg,
            planned.constraint(),
        ),
    };
    keys(&out.expect("direct engine call").pairs)
}

fn inside(points: &[Point2], window: Option<Rect2>) -> Vec<(Point2, u64)> {
    let mut all = indexed(points);
    if let Some(w) = window {
        all.retain(|(p, _)| w.contains_point(p));
    }
    all
}

/// Memoises one reference per request of the cycle from direct engine
/// calls (HEAP) and validates it against STD. With `oracle` — the traced
/// run, which reports no memory metric and can afford the O(n²) pair
/// lists — every class whose windowed sets are small enough is also
/// checked against `cpq_core::brute`, at the first window position.
fn memoise_references(setup: &Setup, cfg: &CpqConfig, oracle: bool, gate: &mut Gate) {
    let trees = setup.service.trees().expect("static service");
    for (i, planned) in setup.cycle.iter().enumerate() {
        let name = planned.name(i);
        let reference = direct(trees, planned, Algorithm::Heap, cfg);
        let std = direct(trees, planned, Algorithm::SortedDistances, cfg);
        gate.expect_equal(&format!("{name}: HEAP against STD"), &reference, &std);
        if oracle && i < CLASSES_PER_POSITION {
            let ps = inside(&setup.pts_p, planned.window);
            let brute = match planned.kind {
                QueryKind::Cross => {
                    let qs = inside(&setup.pts_q, planned.window);
                    ((ps.len() * qs.len()) as u64 <= BRUTE_PAIR_LIMIT)
                        .then(|| k_closest_pairs_brute(&ps, &qs, planned.k))
                }
                QueryKind::SelfJoin => ((ps.len() * ps.len() / 2) as u64 <= BRUTE_PAIR_LIMIT)
                    .then(|| self_k_closest_pairs_brute(&ps, planned.k)),
            };
            if let Some(brute) = brute {
                gate.expect_equal(
                    &format!("{name}: against the brute-force oracle"),
                    &reference,
                    &keys(&brute),
                );
            }
        }
        gate.memoise(&name, reference);
    }
}

/// One completed request as its caller saw it. The caller judges the
/// answer and drops the pairs at once: held until the run ends, they would
/// be most of the process's peak memory.
struct Reply {
    index: usize,
    start: Instant,
    client: Duration,
    /// `Some(why)` when the request failed or its answer diverged.
    verdict: Option<String>,
    /// The response without its pairs; `None` when shed.
    response: Option<QueryResponse<2>>,
}

fn judge(
    gate: &Gate,
    cycle: &[Planned],
    index: usize,
    response: &Option<QueryResponse<2>>,
) -> Option<String> {
    let slot = index % cycle.len();
    let name = cycle[slot].name(slot);
    match response {
        Some(r) if r.status == QueryStatus::Completed => gate.judge(&name, &keys(&r.pairs)),
        Some(r) => Some(format!("{name}: {}", r.status.label())),
        None => Some(format!("{name}: shed at admission")),
    }
}

/// The closed loop: `CALLERS` threads take request indices from a shared
/// counter until `budget` is used and at least `min_requests` were sent.
fn closed_loop(
    service: &CpqService<2>,
    cycle: &[Planned],
    budget: Duration,
    min_requests: usize,
    tracer: &Tracer,
    gate: &Gate,
) -> Vec<Reply> {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut replies: Vec<Reply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // ordering: Relaxed — the counter only hands out
                        // distinct indices; the scope's join publishes the
                        // replies.
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= min_requests && started.elapsed() >= budget {
                            break;
                        }
                        let request = cycle[index % cycle.len()].request();
                        let op = tracer.start("op", None, Some(index as u64));
                        let start = Instant::now();
                        let ticket = tracer.scope("service.submit", op, Some(index as u64), |_| {
                            service.submit(request).ok()
                        });
                        let mut response =
                            tracer.scope("service.wait", op, Some(index as u64), |_| {
                                ticket.map(|t| t.wait())
                            });
                        let client = start.elapsed();
                        tracer.end(op);
                        let verdict = judge(gate, cycle, index, &response);
                        if let Some(r) = &mut response {
                            r.pairs = Vec::new();
                        }
                        mine.push(Reply {
                            index,
                            start,
                            client,
                            verdict,
                            response,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread"))
            .collect()
    });
    replies.sort_by_key(|r| r.index);
    replies
}

fn record_replies(replies: &[Reply], gate: &mut Gate) {
    for reply in replies {
        gate.record(reply.verdict.clone());
    }
}

/// The untraced run: end-to-end metrics.
pub fn run_end_to_end(opts: &Opts, gate: &mut Gate) -> Metrics {
    let cfg = shipped_config();
    let tracer = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..opts.setup_reps() {
        if let Some(Setup { service, .. }) = setup.take() {
            service.shutdown();
        }
        let t = Instant::now();
        setup = Some(set_up(opts, &tracer));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    memoise_references(&setup, &cfg, false, gate);
    if opts.corrupt_reference {
        gate.corrupt_one_reference();
    }

    let replies = closed_loop(
        &setup.service,
        &setup.cycle,
        opts.budget(1.0),
        setup.cycle.len(),
        &tracer,
        gate,
    );
    record_replies(&replies, gate);
    let summary = setup.service.shutdown();
    if summary.shed + summary.timed_out + summary.failed > 0 {
        gate.violation(format!(
            "service reports {} shed, {} timed out, {} failed",
            summary.shed, summary.timed_out, summary.failed
        ));
    }

    // Whole passes of the cycle (the partial last one is dropped) are the
    // same work each, so they compare: keep the quietest by summed latency.
    // Throughput is over the wall time those passes spanned, first send to
    // last reply.
    let passes: Vec<&[Reply]> = replies.chunks_exact(setup.cycle.len()).collect();
    let pass_ms = |pass: &&[Reply]| {
        pass.iter()
            .map(|r| r.client.as_secs_f64() * 1e3)
            .sum::<f64>()
    };
    let cycle_ms = passes.iter().map(pass_ms).collect();
    let quiet = stats::quietest(passes, pass_ms);
    let span_s: f64 = quiet
        .iter()
        .map(|pass| {
            let first = pass.iter().map(|r| r.start).min().expect("non-empty pass");
            let last = pass
                .iter()
                .map(|r| r.start + r.client)
                .max()
                .expect("non-empty pass");
            (last - first).as_secs_f64()
        })
        .sum();
    let op_ms = quiet
        .iter()
        .flat_map(|p| p.iter().map(|r| r.client.as_secs_f64() * 1e3))
        .collect();
    let mut m = Metrics::zeroed(&END_TO_END);
    m.set("setup_s", stats::median(&setup_s));
    m.cycle_ms = cycle_ms;
    set_latency_metrics(&mut m, op_ms, span_s);
    m
}

/// The traced run: per-layer metrics and spans.
pub fn run_traced(opts: &Opts, dir: &Path, gate: &mut Gate, tracer: &Tracer) -> Metrics {
    let cfg = shipped_config();
    let mut m = Metrics::zeroed(&PER_LAYER);
    let setup = set_up(opts, tracer);
    m.set("rtree.build_insert_s", setup.build_s);
    memoise_references(&setup, &cfg, true, gate);
    if opts.corrupt_reference {
        gate.corrupt_one_reference();
    }
    let trees = setup.service.trees().expect("static service");

    // A second service with observability off over the same pools and
    // pages; passes alternate between the two, so both see the same
    // machine state and the difference is the profiling's cost.
    let handle = |t: &RTree<2>| {
        RTree::<2>::from_descriptor_shared(t.pool_shared(), RTreeParams::paper(), t.descriptor())
            .expect("second handle")
    };
    let plain = CpqService::start(
        TreePair::new(handle(&trees.p), handle(&trees.q)),
        service_config(ObsConfig::disabled()),
    );
    let quiet_tracer = Tracer::new(false);
    let one_pass = setup.cycle.len();
    let (mut observed, mut unobserved) = (Vec::new(), Vec::new());
    let (mut pools, mut wall) = (PoolCounters::default(), Duration::ZERO);
    let started = Instant::now();
    while observed.is_empty() || started.elapsed() < opts.budget(0.4) {
        let before = PoolCounters::read(trees.p.pool(), trees.q.pool());
        let t = Instant::now();
        observed.extend(closed_loop(
            &setup.service,
            &setup.cycle,
            Duration::ZERO,
            one_pass,
            tracer,
            gate,
        ));
        wall += t.elapsed();
        pools += PoolCounters::read(trees.p.pool(), trees.q.pool()).since(before);
        unobserved.extend(closed_loop(
            &plain,
            &setup.cycle,
            Duration::ZERO,
            one_pass,
            &quiet_tracer,
            gate,
        ));
    }
    record_replies(&observed, gate);
    record_replies(&unobserved, gate);
    let summary = plain.shutdown();
    let shed = (summary.shed + setup.service.stats().shed) as f64;

    let responses: Vec<(&Reply, &QueryResponse<2>)> = observed
        .iter()
        .filter_map(|r| r.response.as_ref().map(|resp| (r, resp)))
        .collect();
    let ops = responses.len() as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    m.set(
        "service.queue_wait_ms_p50",
        stats::median(
            &responses
                .iter()
                .map(|(_, r)| ms(r.queue_wait))
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "service.exec_ms_p50",
        stats::median(
            &responses
                .iter()
                .map(|(_, r)| ms(r.exec))
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "service.overhead_us",
        stats::mean(
            &responses
                .iter()
                .map(|(c, r)| (ms(c.client) - ms(r.latency)) * 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    let busy: Duration = responses.iter().map(|(_, r)| r.exec).sum();
    m.set(
        "service.worker_util",
        busy.as_secs_f64() / (WORKERS as f64 * wall.as_secs_f64()),
    );
    m.set(
        "service.shed_frac",
        shed / (observed.len() + unobserved.len()) as f64,
    );
    let mean_client = |replies: &[Reply]| {
        stats::mean(&replies.iter().map(|r| ms(r.client)).collect::<Vec<_>>()).expect("replies")
    };
    m.set(
        "obs.profile_overhead_frac",
        (mean_client(&observed) - mean_client(&unobserved)) / mean_client(&unobserved),
    );

    let traces: Vec<OpTrace> = responses
        .iter()
        .map(|(_, r)| OpTrace::new(r.exec.as_nanos() as f64, r.profile.as_deref(), r.stats))
        .collect();
    set_core_metrics(&mut m, &traces);
    pools.report(&mut m, ops);

    let fixture = probes::Fixture {
        p: &trees.p,
        q: &trees.q,
        pts_p: &setup.pts_p,
        dir,
        disk: false,
        pool_pages: POOL_PAGES,
    };
    probes::micro(&fixture, opts, tracer, &mut m);
    let mean_exec_ns =
        stats::mean(&traces.iter().map(|t| t.exec_ns).collect::<Vec<_>>()).expect("ops");
    set_time_shares(&mut m, mean_exec_ns, pools.misses as f64 / ops);
    setup.service.shutdown();
    m
}

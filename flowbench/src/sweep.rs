//! `molhiv_serve_sweep`: the `repro scale` / `repro fleet` usage
//! pattern on one thread.
//!
//! Set-up draws a request stream with seeded, skewed (hot/cold) popularity
//! over a pool of distinct MolHIV graphs and prices it on two endpoints
//! through `Accelerator::service_trace`, each with a `ServiceTraceCache`
//! smaller than the pool — the one place in the benchmark where the
//! cache works. The timed phase replays those cost rows across a fixed
//! grid of plain-pool scans (`serve::sim::serve_trace`) and
//! heterogeneous-fleet scans (`run_fleet` on the simulator).

use std::sync::Arc;
use std::time::{Duration, Instant};

use flowgnn_core::serve::sim::serve_trace;
use flowgnn_core::{
    graph_fingerprint, run_fleet, Accelerator, AdmissionPolicy, ArchConfig, ArrivalProcess,
    DispatchPolicy, EngineMetrics, EngineWorker, ExecutionMode, FleetConfig, FleetRuntime,
    ModelEndpoint, Registry, RequestClass, ServeConfig, ServeMetrics, ServiceTraceCache,
};
use flowgnn_desim::{cycles_to_us, Cycle};
use flowgnn_graph::datasets::DatasetKind;
use flowgnn_graph::{Graph, GraphStream};
use flowgnn_models::GnnModel;
use flowgnn_rng::Rng;

use crate::closed::dataset_graphs;
use crate::out::{max_rate, median, rate_grid, sojourn_p99_us, tail, Run};
use crate::trace::{NO_PARENT, NO_REQ};

/// Distinct graphs requests are drawn from.
const POOL: usize = 1_000;
/// Requests in the priced stream.
const REQUESTS: usize = 10_000;
/// Every scan replays the priced stream this many times over, so tails
/// rest on many arrivals without pricing more requests in set-up.
const REPLAY: usize = 3;
const SCANNED: usize = REQUESTS * REPLAY;
/// Entries per endpoint cache: about half the pool, so the cache hits,
/// misses and evicts.
const CACHE_ENTRIES: usize = 512;
/// Skewed popularity: this share of requests picks uniformly among a
/// seeded hot set of `HOT` graphs, the rest among the other graphs. The
/// hot set fits in the cache; the cold traffic churns it. A hot set this
/// wide keeps any single graph under 0.2% of requests, so the exact
/// metrics do not hinge on which few graphs a seed makes popular.
const HOT_SHARE: f64 = 0.8;
const HOT: usize = 400;
/// Share of requests in the interactive tenant class.
const INTERACTIVE_SHARE: f64 = 0.7;
/// Interactive-class sojourn objective (simulated).
const INTERACTIVE_SLO_MS: f64 = 0.05;
/// Admission queue bound per replica.
const QUEUE: usize = 64;

/// Plain pools: replica counts, and offered rates per replica.
const PLAIN_REPLICAS: [usize; 3] = [1, 2, 4];
const PLAIN_RATES_PER_REPLICA: [f64; 4] = [90_000.0, 120_000.0, 150_000.0, 180_000.0];
/// Live runtime (traced run only): one engine replica thread plus the
/// generator, offered Poisson arrivals at two fixed rates, about a
/// quarter and a half of the replica's capacity on this stream. Fixed,
/// not recalibrated per run, so the offered load is not itself noisy.
const LIVE_RATES: [(&str, f64); 2] = [("low", 1_000.0), ("high", 2_000.0)];
/// Requests offered at each live rate: enough that 1% of them (the
/// samples beyond a p99) is 30.
const LIVE_REQUESTS: usize = 3_000;
/// Heterogeneous fleet: accelerator and edge replicas.
const ACCEL_REPLICAS: usize = 2;
const EDGE_REPLICAS: usize = 4;
/// The fleet's rate grid (see [`rate_grid`]).
const FLEET_RATES: usize = 24;
const FLEET_RATE_LO: f64 = 200_000.0;
/// The reference point: priority admission, cost routing, this rate.
const REF_RATE: f64 = 250_000.0;

/// One grid point of the timed phase.
#[derive(Clone, Copy)]
enum Point {
    Plain {
        replicas: usize,
        policy: usize,
        rate: f64,
    },
    Fleet {
        priority: bool,
        cost: bool,
        rate: f64,
    },
}

fn grid() -> Vec<Point> {
    let mut g = Vec::new();
    for replicas in PLAIN_REPLICAS {
        for policy in 0..3 {
            for per in PLAIN_RATES_PER_REPLICA {
                g.push(Point::Plain {
                    replicas,
                    policy,
                    rate: per * replicas as f64,
                });
            }
        }
    }
    for priority in [false, true] {
        for cost in [false, true] {
            for rate in rate_grid(FLEET_RATE_LO, FLEET_RATES) {
                g.push(Point::Fleet {
                    priority,
                    cost,
                    rate,
                });
            }
        }
    }
    g.push(Point::Fleet {
        priority: true,
        cost: true,
        rate: REF_RATE,
    });
    g
}

struct Setup {
    pool: Arc<Vec<Graph>>,
    graph_of: Arc<Vec<usize>>,
    class_of: Vec<usize>,
    accel_costs: Vec<Cycle>,
    edge_costs: Vec<Cycle>,
    caches: [ServiceTraceCache; 2],
    gen_s: f64,
}

fn endpoints() -> [Accelerator; 2] {
    let model = GnnModel::gcn(9, 11);
    let timing = ArchConfig::default().with_execution(ExecutionMode::TimingOnly);
    [
        Accelerator::new(model.clone(), timing),
        Accelerator::new(model, timing.with_parallelism(1, 1, 1, 1)),
    ]
}

/// The request stream as the engine sees it: graph `i` is the pool graph
/// request `i` asked for.
fn request_stream(pool: &Arc<Vec<Graph>>, graph_of: &Arc<Vec<usize>>) -> GraphStream {
    let (pool, graph_of) = (Arc::clone(pool), Arc::clone(graph_of));
    GraphStream::generated(graph_of.len(), move |i| pool[graph_of[i]].clone())
}

/// Seeded hot/cold popularity over a seeded permutation of the pool,
/// and a tenant class per request.
fn draw_requests(seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_F00D);
    let mut order: Vec<usize> = (0..POOL).collect();
    for i in (1..POOL).rev() {
        let j = rng.gen_range(0usize..i + 1);
        order.swap(i, j);
    }
    let (hot, cold) = order.split_at(HOT);
    let mut graph_of = Vec::with_capacity(REQUESTS);
    let mut class_of = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        let set = if rng.gen_bool(HOT_SHARE) { hot } else { cold };
        graph_of.push(set[rng.gen_range(0usize..set.len())]);
        class_of.push(usize::from(!rng.gen_bool(INTERACTIVE_SHARE)));
    }
    (graph_of, class_of)
}

/// Arrival seeds depend on the workload seed and the rate only, so every
/// policy and shape at one rate serves the same arrivals.
fn arrival_seed(seed: u64, rate: f64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rate.to_bits()
}

fn fleet_config(priority: bool, cost: bool, rate: f64, seed: u64) -> FleetConfig {
    FleetConfig::builder()
        .arrivals(ArrivalProcess::poisson_rate(rate, arrival_seed(seed, rate)))
        .queue_capacity(QUEUE)
        .admission(if priority {
            AdmissionPolicy::Priority
        } else {
            AdmissionPolicy::Fifo
        })
        .policy(if cost {
            DispatchPolicy::CostBased
        } else {
            DispatchPolicy::JoinShortestQueue
        })
        .endpoint(ModelEndpoint::new("accel", ACCEL_REPLICAS))
        .endpoint(ModelEndpoint::new("edge", EDGE_REPLICAS))
        .class(RequestClass::new("interactive", 2).with_slo_ms(INTERACTIVE_SLO_MS))
        .class(RequestClass::new("analytics", 0))
        .build()
        .expect("valid fleet config")
}

/// What the first pass keeps of each reference-fleet point (priority
/// admission, cost routing) for the exact metrics.
struct FleetOutcome {
    rate: f64,
    p99_us: f64,
    beyond: usize,
    refused: f64,
}

pub fn run(run: &mut Run) {
    let seed = run.seed;
    let traced = run.traced();
    let s = run.setup(|tr, root| {
        let start = Instant::now();
        let pool = Arc::new(tr.time("graph.gen", root, NO_REQ, || {
            dataset_graphs(DatasetKind::MolHiv, seed, POOL)
        }));
        let gen_s = start.elapsed().as_secs_f64();
        let (graph_of, class_of) = draw_requests(seed);
        let graph_of = Arc::new(graph_of);
        let caches = [
            ServiceTraceCache::new(CACHE_ENTRIES),
            ServiceTraceCache::new(CACHE_ENTRIES),
        ];
        let [accel, edge] = tr.time("engine.compile", root, NO_REQ, endpoints);
        let attach = |acc: Accelerator, cache: &ServiceTraceCache| {
            let acc = acc.with_trace_cache(cache.clone());
            if traced {
                acc.with_metrics(EngineMetrics::new(&Registry::new()))
            } else {
                acc
            }
        };
        let (accel, edge) = (attach(accel, &caches[0]), attach(edge, &caches[1]));
        let accel_costs = tr.time("cache.service_trace", root, NO_REQ, || {
            accel.service_trace(request_stream(&pool, &graph_of), REQUESTS)
        });
        let edge_costs = tr.time("cache.service_trace", root, NO_REQ, || {
            edge.service_trace(request_stream(&pool, &graph_of), REQUESTS)
        });
        Setup {
            pool,
            graph_of,
            class_of,
            accel_costs,
            edge_costs,
            caches,
            gen_s,
        }
    });
    run.set("graph.gen_s", s.gen_s);
    run.set(
        "graph.nodes",
        s.pool.iter().map(|g| g.num_nodes() as f64).sum(),
    );
    run.set(
        "graph.edges",
        s.pool.iter().map(|g| g.num_edges() as f64).sum(),
    );
    let stats = s.caches.each_ref().map(ServiceTraceCache::stats);
    let hits: u64 = stats.iter().map(|c| c.hits).sum();
    let misses: u64 = stats.iter().map(|c| c.misses).sum();
    run.set("cache.lookups", (hits + misses) as f64);
    run.set("cache.hits", hits as f64);
    run.set("cache.misses", misses as f64);
    run.set(
        "cache.evictions",
        stats.iter().map(|c| c.evictions as f64).sum(),
    );
    run.set("cache.hit_ratio", hits as f64 / (hits + misses) as f64);
    run.set("cache.trace_s", run.tracer.busy_s("cache.service_trace"));
    run.set("engine.run.calls", misses as f64);

    let costs: Vec<Vec<Cycle>> = [&s.accel_costs, &s.edge_costs]
        .map(|row| replay(row))
        .to_vec();
    let class_of = replay(&s.class_of);
    let grid = grid();
    let mut pass_rates = Vec::new();
    let mut first_pass: Vec<FleetOutcome> = Vec::new();
    let mut conserved = true;
    let mut scans = 0u64;
    let mut calib_s = 0.0;
    let seconds = run.seconds;

    run.timed_begin();
    let root = run.tracer.open("timed", NO_PARENT);
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        for (k, point) in grid.iter().enumerate() {
            let tr = &mut run.tracer;
            match *point {
                Point::Plain {
                    replicas,
                    policy,
                    rate,
                } => {
                    let config = ServeConfig::builder()
                        .arrivals(ArrivalProcess::poisson_rate(rate, arrival_seed(seed, rate)))
                        .queue_capacity(QUEUE)
                        .replicas(replicas)
                        .policy(match policy {
                            0 => DispatchPolicy::RoundRobin,
                            1 => DispatchPolicy::JoinShortestQueue,
                            _ => DispatchPolicy::PowerOfTwoChoices { seed },
                        })
                        .build()
                        .expect("valid pool config");
                    let report = tr.time("serve.sim", root, k as u64, || {
                        serve_trace(&costs[0], &config).expect("non-empty trace")
                    });
                    conserved &= report.completed + report.dropped == SCANNED;
                }
                Point::Fleet {
                    priority,
                    cost,
                    rate,
                } => {
                    let config = fleet_config(priority, cost, rate, seed);
                    let metrics = traced.then(|| ServeMetrics::new(&Registry::new()));
                    let report = tr.time("serve.fleet", root, k as u64, || {
                        run_fleet(
                            &costs,
                            &class_of,
                            &config,
                            FleetRuntime::sim(),
                            metrics.as_ref(),
                        )
                        .expect("valid fleet")
                        .sim()
                        .expect("sim runtime")
                    });
                    conserved &= report.completed + report.dropped == SCANNED;
                    if pass_rates.is_empty() && priority && cost {
                        let (p99_us, beyond) = sojourn_p99_us(
                            report
                                .records
                                .iter()
                                .zip(&class_of)
                                .filter(|(_, &c)| c == 0)
                                .map(|(r, _)| r),
                        );
                        first_pass.push(FleetOutcome {
                            rate,
                            p99_us,
                            beyond,
                            refused: report.drop_rate(),
                        });
                    }
                }
            }
            scans += 1;
            if run.speed.due() {
                calib_s += run
                    .tracer
                    .time("calib", root, NO_REQ, || run.speed.sample());
            }
        }
        pass_rates.push((grid.len() * SCANNED) as f64 / pass_start.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    run.tracer.close(root);
    run.timed_end();
    run.attempted = scans * SCANNED as u64;
    run.note(format!(
        "timed phase: {} passes of {} scans x {SCANNED} requests in {elapsed:.3} s; pass rates {:?}",
        pass_rates.len(),
        grid.len(),
        pass_rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    run.set_throughput(run.attempted as f64, elapsed, calib_s);

    let mean_accel = s.accel_costs.iter().sum::<u64>();
    run.set(
        "sim_us_per_graph",
        cycles_to_us(mean_accel) / REQUESTS as f64,
    );
    let reference = first_pass.last().expect("reference point ran");
    run.note(format!(
        "reference point: interactive p99 {:.3} us ({} samples beyond it), refused {:.4}",
        reference.p99_us, reference.beyond, reference.refused
    ));
    run.set("sim_p99_us", reference.p99_us);
    // The grid's reference-fleet rates come first, the reference point
    // last.
    run.set(
        "sim_max_rate_per_s",
        max_rate(
            first_pass[..FLEET_RATES]
                .iter()
                .map(|o| (o.rate, o.p99_us, o.refused)),
            INTERACTIVE_SLO_MS * 1e3,
        ),
    );

    run.check(
        format!("completed + refused = offered at every grid point ({scans} scans)"),
        conserved,
    );
    check_cache(run, &s);

    if traced {
        let busy_sim = run.tracer.busy_s("serve.sim");
        let busy_fleet = run.tracer.busy_s("serve.fleet");
        let calls_sim = run.tracer.calls("serve.sim");
        let calls_fleet = run.tracer.calls("serve.fleet");
        run.set("serve.sim.calls", calls_sim as f64);
        run.set("serve.sim.busy_s", busy_sim);
        run.set(
            "serve.sim.ns_per_request",
            busy_sim * 1e9 / (calls_sim * SCANNED) as f64,
        );
        run.set("serve.fleet.calls", calls_fleet as f64);
        run.set("serve.fleet.busy_s", busy_fleet);
        run.set(
            "serve.fleet.ns_per_request",
            busy_fleet * 1e9 / (calls_fleet * SCANNED) as f64,
        );
        run.set("trace.coverage", run.tracer.coverage(root));
        let t = Instant::now();
        let mut fp = 0u64;
        for &g in s.graph_of.iter() {
            fp ^= graph_fingerprint(&s.pool[g]);
        }
        std::hint::black_box(fp);
        run.set("cache.fingerprint_s", t.elapsed().as_secs_f64());
        reference_ab(run, &costs, &class_of, seed);
        live(run, &s, seed);
    }
}

/// `row` offered [`REPLAY`] times over.
fn replay<T: Copy>(row: &[T]) -> Vec<T> {
    row.iter().cycle().take(SCANNED).copied().collect()
}

/// Cached traces equal uncached ones: every request's cost equals a
/// fresh simulation of its graph on an endpoint with no cache.
fn check_cache(run: &mut Run, s: &Setup) {
    let [accel, edge] = endpoints();
    let stream = GraphStream::from_graphs(s.pool.to_vec());
    let fresh = [
        accel.service_trace(stream.clone(), POOL),
        edge.service_trace(stream, POOL),
    ];
    let mismatches = s
        .graph_of
        .iter()
        .enumerate()
        .filter(|&(i, &g)| s.accel_costs[i] != fresh[0][g] || s.edge_costs[i] != fresh[1][g])
        .count();
    run.check(
        format!("cached service traces equal uncached ones on {REQUESTS} requests ({mismatches} differ)"),
        mismatches == 0,
    );
}

/// The reference point with and without `ServeMetrics`: the reports must
/// be identical (metrics are observation-only), and the median host-time
/// difference over five alternating rounds is the metrics overhead. The
/// exact per-layer fleet figures come from the metered run.
fn reference_ab(run: &mut Run, costs: &[Vec<Cycle>], class_of: &[usize], seed: u64) {
    let config = fleet_config(true, true, REF_RATE, seed);
    let (mut plain_s, mut metered_s) = (Vec::new(), Vec::new());
    let mut same = true;
    let mut last = None;
    for _ in 0..5 {
        let t = Instant::now();
        let plain =
            run_fleet(costs, class_of, &config, FleetRuntime::sim(), None).expect("valid fleet");
        plain_s.push(t.elapsed().as_secs_f64());
        let metrics = ServeMetrics::new(&Registry::new());
        let t = Instant::now();
        let metered = run_fleet(
            costs,
            class_of,
            &config,
            FleetRuntime::sim(),
            Some(&metrics),
        )
        .expect("valid fleet");
        metered_s.push(t.elapsed().as_secs_f64());
        same &= plain == metered;
        last = Some((metered.sim().expect("sim runtime"), metrics));
    }
    let overhead = (median(&metered_s) - median(&plain_s)) / median(&plain_s) * 100.0;
    run.set("metrics.overhead_pct", overhead);
    run.check(
        "attaching ServeMetrics leaves the fleet report unchanged",
        same,
    );
    let (report, metrics) = last.expect("five rounds ran");
    run.set("serve.fleet.drop_share", report.drop_rate());
    run.set("serve.fleet.displaced", metrics.displaced.get() as f64);
    run.set("serve.fleet.mean_wait_us", report.mean_wait_ms * 1e3);
    for e in &report.per_endpoint {
        let name = if e.name == "accel" {
            "serve.fleet.utilization.accel"
        } else {
            "serve.fleet.utilization.edge"
        };
        run.set(name, e.utilization(report.makespan_cycles));
    }
}

/// The live runtime, after the timed phase of the traced run: at each
/// of [`LIVE_RATES`], one `EngineWorker` replica (timing-only GCN on the
/// accel config, the first [`LIVE_REQUESTS`] requests' graphs) serves a
/// seeded Poisson stream through `run_fleet` with `FleetRuntime::Live`.
/// Every request is timed from its due time on
/// `ArrivalProcess::wall_schedule`, so generator lateness counts against
/// it; a refused request counts as missing every limit. Each request's
/// due → arrival → start → finish becomes three spans that share its id.
fn live(run: &mut Run, s: &Setup, seed: u64) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let graphs: Vec<Graph> = s.graph_of[..LIVE_REQUESTS]
        .iter()
        .map(|&g| s.pool[g].clone())
        .collect();
    let costs = vec![s.accel_costs[..LIVE_REQUESTS].to_vec()];
    let class_of = vec![0; LIVE_REQUESTS];
    let (mut lag, mut wait, mut service) = (Vec::new(), Vec::new(), Vec::new());
    let (mut completed, mut refused, mut setup_s) = (0usize, 0usize, Vec::new());
    let mut ordered = true;
    for (label, rate) in LIVE_RATES {
        let arrivals = ArrivalProcess::poisson_rate(rate, arrival_seed(seed, rate));
        let due = arrivals.wall_schedule(LIVE_REQUESTS);
        let config = FleetConfig::builder()
            .arrivals(arrivals)
            .queue_capacity(QUEUE)
            .endpoint(ModelEndpoint::new("accel", 1))
            .class(RequestClass::new("interactive", 0))
            .build()
            .expect("valid live config");
        let tr = &mut run.tracer;
        let root = tr.open("live", NO_PARENT);
        let t = Instant::now();
        let worker = tr.time("serve.live.worker_setup", root, NO_REQ, || {
            EngineWorker::new(endpoints()[0].clone(), graphs.iter().cloned())
        });
        setup_s.push(t.elapsed().as_secs_f64());
        let serve = tr.open("serve.live", root);
        // The runtime's own origin, which record times count from, is
        // taken inside `run_fleet` a few microseconds after this one.
        let base = Instant::now();
        let report = run_fleet(
            &costs,
            &class_of,
            &config,
            FleetRuntime::Live(vec![worker]),
            None,
        )
        .expect("valid live fleet")
        .live()
        .expect("live runtime");
        tr.close(serve);
        tr.close(root);
        let mut from_due = Vec::with_capacity(LIVE_REQUESTS);
        for (i, (r, d)) in report.records.iter().zip(&due).enumerate() {
            let d = d.as_nanos() as u64;
            ordered &= d <= r.arrival && r.arrival <= r.start && r.start <= r.finish;
            let ns = Duration::from_nanos;
            tr.record("live.lag", base, (ns(d), ns(r.arrival)), serve, i as u64);
            lag.push(ms(r.arrival.saturating_sub(d)));
            if r.dropped {
                from_due.push(f64::INFINITY);
                continue;
            }
            tr.record(
                "live.wait",
                base,
                (ns(r.arrival), ns(r.start)),
                serve,
                i as u64,
            );
            tr.record(
                "live.service",
                base,
                (ns(r.start), ns(r.finish)),
                serve,
                i as u64,
            );
            wait.push(ms(r.wait_cycles()));
            service.push(ms(r.service_cycles()));
            from_due.push(ms(r.finish.saturating_sub(d)));
        }
        ordered &= report.records.len() == LIVE_REQUESTS;
        run.check(
            format!(
                "live at {rate} req/s: completed + refused = offered ({} + {} = {LIVE_REQUESTS})",
                report.completed, report.dropped
            ),
            report.completed + report.dropped == LIVE_REQUESTS,
        );
        completed += report.completed;
        refused += report.dropped;
        let from_due = sorted(from_due);
        let (p50, above50) = tail(&from_due, 50.0);
        let (p99, above99) = tail(&from_due, 99.0);
        run.note(format!(
            "live {label} ({rate} req/s): sojourn from due p50 {p50:.3} ms ({above50} of {LIVE_REQUESTS} beyond), \
             p99 {p99:.3} ms ({above99} beyond); {} refused",
            report.dropped
        ));
        let (p50_name, p99_name) = match label {
            "low" => ("serve.live.p50_ms.low", "serve.live.p99_ms.low"),
            _ => ("serve.live.p50_ms.high", "serve.live.p99_ms.high"),
        };
        run.set(p50_name, p50);
        run.set(p99_name, p99);
    }
    run.check(
        "live: due <= arrival <= start <= finish for every record",
        ordered,
    );
    let (lag, wait, service) = (sorted(lag), sorted(wait), sorted(service));
    for (name, sample, p) in [
        ("serve.live.lag_ms.p50", &lag, 50.0),
        ("serve.live.lag_ms.p99", &lag, 99.0),
        ("serve.live.wait_ms.p50", &wait, 50.0),
        ("serve.live.wait_ms.p99", &wait, 99.0),
        ("serve.live.service_ms.p50", &service, 50.0),
    ] {
        let (v, beyond) = tail(sample, p);
        run.note(format!(
            "{name}: {v:.4} ms over {} samples, {beyond} beyond it",
            sample.len()
        ));
        run.set(name, v);
    }
    run.set("serve.live.completed", completed as f64);
    run.set("serve.live.refused", refused as f64);
    run.set("serve.live.worker_setup_s", median(&setup_s));
}

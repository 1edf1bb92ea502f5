//! Fixed-shape calls into single layers: the same inputs whatever
//! workload is being traced, so a kernel's number can be read across
//! workloads and commits. Shapes are the ones the workloads hit
//! (4×650 and 8×650 clusters, 128×4810 clusters, d = 64 rows).

use std::hint::black_box;
use std::time::Instant;

use hfl_faults::FaultInjector;
use hfl_ml::sgd::{train_local_scratch, TrainScratch};
use hfl_ml::synth::{SynthConfig, SyntheticDigits};
use hfl_ml::{ClientPopulation, LinearSoftmax, Mlp, Model, SgdConfig};
use hfl_oracle::ScenarioGen;
use hfl_robust::{AggScratch, AggregatorKind};
use hfl_simnet::engine::{Actor, Ctx, NodeId, Simulation};
use hfl_simnet::wire::{self, WireKind, WireMessage};
use hfl_simnet::DelayModel;
use hfl_telemetry::{Event, Telemetry};
use hfl_tensor::{ops, stats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{mb_per_s, Collected};
use crate::stats::Summary;
use crate::workloads::{Scale, Workload, THREADS};

/// Batches timed per kernel (after one untimed warm-up batch); a
/// kernel's metric is the median batch.
const BATCHES: usize = 7;

/// Per-call time over `BATCHES` batches of `iters` calls, in ns.
fn time_ns(iters: usize, mut f: impl FnMut()) -> Summary {
    for _ in 0..iters {
        f();
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    Summary::of(&samples)
}

/// `n` update-like vectors of dimension `d`: a shared direction plus
/// per-vector noise, so distance kernels see realistic near-ties.
fn updates(rng: &mut StdRng, n: usize, d: usize) -> Vec<Vec<f32>> {
    let center: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    (0..n)
        .map(|_| {
            center
                .iter()
                .map(|c| c + rng.gen_range(-0.1f32..0.1))
                .collect()
        })
        .collect()
}

fn refs(rows: &[Vec<f32>]) -> Vec<&[f32]> {
    rows.iter().map(Vec::as_slice).collect()
}

/// Two actors bouncing one message back and forth.
struct PingPong {
    remaining: u32,
}

impl Actor<u32> for PingPong {
    fn on_start(&mut self, ctx: &mut Ctx<u32>) {
        if ctx.me() == 0 {
            ctx.send(1, 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<u32>, src: NodeId, msg: u32) {
        if self.remaining == 0 {
            ctx.stop();
        } else {
            self.remaining -= 1;
            ctx.send(src, msg + 1);
        }
    }
}

/// Times an aggregation rule on `rows` at `threads` workers, per call.
fn time_rule(kind: &AggregatorKind, rows: &[Vec<f32>], threads: usize, iters: usize) -> Summary {
    let agg = kind.build();
    let inputs = refs(rows);
    let mut out = Vec::new();
    let mut scratch = AggScratch::default();
    hfl_parallel::set_default_threads(threads);
    let s = time_ns(iters, || {
        agg.aggregate_into(black_box(&inputs), None, &mut out, &mut scratch);
        black_box(&out);
    });
    hfl_parallel::set_default_threads(THREADS);
    s
}

/// Every fixed-shape per-layer metric. `scale` only shrinks iteration
/// counts and the largest shapes for the smoke run.
pub(crate) fn measure(seed: u64, scale: Scale, out: &mut Collected) {
    let it = |n: usize| scale.pick(n, (n / 20).max(1));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6B65_726E);

    // --- hfl-tensor ---
    let (wide_n, wide_d) = scale.pick((128, 4_810), (16, 650));
    let wide = updates(&mut rng, wide_n, wide_d);
    let wide_refs = refs(&wide);
    let probe = wide[0].clone();
    let mut dists = vec![0.0f64; wide_n];
    out.put_summary(
        "tensor.dist_sq_block_ns",
        time_ns(it(8), || {
            ops::dist_sq_block(black_box(&probe), black_box(&wide_refs), &mut dists);
            black_box(&dists);
        }),
    );
    let mut mean = vec![0.0f32; wide_d];
    out.put_summary(
        "tensor.mean_of_ns",
        time_ns(it(8), || {
            ops::mean_of(black_box(&wide_refs), &mut mean);
            black_box(&mean);
        }),
    );
    let weights: Vec<f32> = (0..wide_n).map(|i| 1.0 + (i % 4) as f32 * 0.25).collect();
    out.put_summary(
        "tensor.weighted_mean_of_ns",
        time_ns(it(8), || {
            ops::weighted_mean_of(black_box(&wide_refs), black_box(&weights), &mut mean);
            black_box(&mean);
        }),
    );
    let mut col = Vec::new();
    out.put_summary(
        "tensor.coordinate_median_ns",
        time_ns(1, || {
            stats::coordinate_median_into(black_box(&wide_refs), &mut mean, &mut col);
            black_box(&mean);
        }),
    );
    let a64: Vec<f32> = (0..64).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut b64: Vec<f32> = (0..64).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    out.put_summary(
        "tensor.dot_d64_ns",
        time_ns(it(50_000), || {
            black_box(ops::dot(black_box(&a64), black_box(&b64)));
        }),
    );
    out.put_summary(
        "tensor.axpy_d64_ns",
        time_ns(it(50_000), || {
            ops::axpy(black_box(1e-6), black_box(&a64), &mut b64);
            black_box(&b64);
        }),
    );

    // --- hfl-parallel ---
    out.put_summary(
        "parallel.fork_join_us",
        time_ns(it(40), || {
            black_box(hfl_parallel::par_map_indexed(64, THREADS, |i| i));
        })
        .scaled(1e-3),
    );

    // --- hfl-robust ---
    let wide_krum = AggregatorKind::MultiKrum {
        f: wide_n / 4 - 1,
        m: wide_n / 2,
    };
    out.put_summary(
        "robust.multikrum_n128_d4810_ms",
        time_rule(&wide_krum, &wide, THREADS, 1).scaled(1e-6),
    );
    let small = updates(&mut rng, 4, 650);
    let small_krum = AggregatorKind::MultiKrum { f: 1, m: 3 };
    let forked = time_rule(&small_krum, &small, THREADS, it(100));
    let inline = time_rule(&small_krum, &small, 1, it(2_000));
    out.put_summary("robust.multikrum_n4_d650_us", forked.scaled(1e-3));
    out.put_summary(
        "parallel.small_task_penalty",
        Summary::single(forked.median / inline.median),
    );
    let eight = updates(&mut rng, 8, 650);
    out.put_summary(
        "robust.streaming_tmean_n8_d650_us",
        time_rule(
            &AggregatorKind::StreamingTrimmedMean {
                ratio: 0.2,
                exact_threshold: 4,
            },
            &eight,
            THREADS,
            it(1_000),
        )
        .scaled(1e-3),
    );
    out.put_summary(
        "robust.streaming_median_n8_d650_us",
        time_rule(
            &AggregatorKind::StreamingMedian { exact_threshold: 4 },
            &eight,
            THREADS,
            it(1_000),
        )
        .scaled(1e-3),
    );

    // --- hfl-ml ---
    let synth = SynthConfig {
        train_samples: scale.pick(12_800, 1_280),
        test_samples: scale.pick(2_000, 200),
        seed,
        ..SynthConfig::default()
    };
    out.put_summary(
        "ml.synth_gen_ms",
        time_ns(1, || {
            black_box(SyntheticDigits::generate(black_box(&synth)));
        })
        .scaled(1e-6),
    );
    let task = SyntheticDigits::generate(&synth);
    let population = ClientPopulation::iid(&task.train, task.train.len() / 10, seed);
    let mut client = 0;
    out.put_summary(
        "ml.shard_derive_us",
        time_ns(it(2_000), || {
            client = (client + 1) % population.num_clients();
            black_box(population.shard(&task.train, client));
        })
        .scaled(1e-3),
    );
    let shard = population.shard(&task.train, 0);
    let mut scratch = TrainScratch::default();
    let mut train_rng = StdRng::seed_from_u64(seed);
    let mut train = |model: &mut dyn Model, sgd: SgdConfig, local_iters: usize, iters: usize| {
        let start = model.params().to_vec();
        time_ns(iters, || {
            model.set_params(&start);
            black_box(train_local_scratch(
                model,
                &shard,
                &sgd,
                local_iters,
                &mut train_rng,
                &mut scratch,
            ));
        })
        .scaled(1e-3)
    };
    let mut linear = LinearSoftmax::new(64, 10);
    out.put_summary(
        "ml.train_client_linear650_us",
        train(&mut linear, SgdConfig::default(), 5, it(200)),
    );
    let mut mlp = Mlp::new(64, 64, 10, &mut StdRng::seed_from_u64(seed));
    let sgd8 = SgdConfig {
        batch_size: 8,
        ..SgdConfig::default()
    };
    out.put_summary(
        "ml.train_client_mlp4810_us",
        train(&mut mlp, sgd8, 1, it(200)),
    );
    out.put_summary(
        "ml.eval_ns_per_sample",
        time_ns(it(20), || {
            black_box(hfl_ml::metrics::accuracy(&linear, &task.test));
        })
        .scaled(1.0 / task.test.len() as f64),
    );

    // --- hfl-simnet ---
    let exchanges = scale.pick(20_000, 1_000);
    let events_per_s: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut sim = Simulation::new(
                vec![
                    PingPong {
                        remaining: exchanges,
                    },
                    PingPong {
                        remaining: exchanges,
                    },
                ],
                DelayModel::lan(),
                seed,
                |_| 4,
            );
            let start = Instant::now();
            let stats = sim.run(u64::from(exchanges) * 4);
            stats.events as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    out.put_summary("simnet.events_per_s", Summary::of(&events_per_s));
    let msg = WireMessage {
        kind: WireKind::Update,
        round: 7,
        level: 1,
        cluster: 3,
        params: wide[0].clone(),
    };
    let frame = wire::encode(&msg);
    out.put_summary(
        "simnet.wire_encode_mb_s",
        mb_per_s(frame.len(), || {
            black_box(wire::encode(black_box(&msg)));
        }),
    );
    out.put_summary(
        "simnet.wire_decode_mb_s",
        mb_per_s(frame.len(), || {
            black_box(wire::decode(black_box(frame.clone())));
        }),
    );
    let delay = DelayModel::lan();
    let mut delay_rng = StdRng::seed_from_u64(seed);
    out.put_summary(
        "simnet.delay_sample_ns",
        time_ns(it(50_000), || {
            black_box(delay.sample(&mut delay_rng));
        }),
    );

    // --- hfl-faults: the async_armed schedule, queried as the fault
    // layer does every round for every device ---
    if let crate::workloads::Plan::Engine { cfg, .. } = Workload::AsyncArmed.plan(seed, Scale::Full)
    {
        let hierarchy = cfg.topology.build(cfg.seed);
        let plan = cfg
            .faults
            .as_ref()
            .expect("async_armed carries a fault plan");
        let injector = FaultInjector::compile(plan, &hierarchy, cfg.seed)
            .expect("the async_armed fault plan is valid");
        let n = hierarchy.num_clients();
        let mut q = 0usize;
        out.put_summary(
            "faults.query_ns",
            time_ns(it(50_000), || {
                q += 1;
                black_box(injector.crashed(q % n, (q / n) % 250));
            }),
        );
    }

    // --- hfl-telemetry ---
    let batch = it(20_000);
    let emit_ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (telem, _recorder) = Telemetry::recording();
            let start = Instant::now();
            for i in 0..batch {
                telem.emit(Event::MessagesSent {
                    round: i,
                    level: 1,
                    count: 8,
                    bytes: 20_800,
                });
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    out.put_summary("telemetry.emit_ns_per_event", Summary::of(&emit_ns));

    // --- hfl-oracle ---
    let mut gen = ScenarioGen::new(seed);
    out.put_summary(
        "oracle.gen_draw_us",
        time_ns(it(2_000), || {
            black_box(gen.draw());
        })
        .scaled(1e-3),
    );
}

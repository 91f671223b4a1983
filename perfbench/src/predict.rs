//! The predict workloads: an open-loop Poisson schedule at a fixed
//! offered rate against `InferenceFleet` over TCP loopback, then a
//! capacity phase with a fixed in-flight window.
//!
//! The generator is one connection split into its two halves: this
//! thread sends on schedule and one receiver thread collects the
//! predictions. Every request is encrypted beforehand, freshly, outside
//! the timed phases; latency runs from a request's *scheduled* send to
//! its decoded prediction.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cryptonn_core::{Client, EncryptedBatch};
use cryptonn_data::synthetic_mnist;
use cryptonn_matrix::Matrix;
use cryptonn_net::{
    AuthorityOptions, AuthorityServer, FleetOptions, FrameRx, FrameTx, Hello, InferenceFleet,
    NetError, NetMsg, Peer, RemoteAuthority, TcpTransport, Transport, WireFormat,
    DEFAULT_MAX_FRAME,
};
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    ClientId, PredictRequest, PublicParams, SessionConfig, SessionId, WireMessage,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::affinity::Placement;
use crate::common::{self, DeriveStats, PredictSpec, ProbedAuthority};
use crate::layers::{self, Frames};
use crate::report::{Outcome, Pass};
use crate::stats;
use crate::trace::Trace;

const SESSION: SessionId = SessionId(1);
/// One connection, one sender and one receiver thread.
const CONNECTIONS: usize = 1;
const GENERATOR_THREADS: usize = 2;
/// How long a silent daemon may keep a request waiting before it counts
/// as failed.
const STALL: Duration = Duration::from_secs(30);
/// The open loop's latencies are summarized per contiguous segment and
/// the median segment is reported: the p50 over this many segments,
/// the tail over segments of at least `TAIL_SEGMENT` requests.
const P50_SEGMENTS: usize = 10;
const TAIL_SEGMENT: usize = 1000;
/// Requests per in-process reference sweep (any window gives the same
/// outputs; a larger one is faster).
const ORACLE_WINDOW: usize = 16;
/// Rounds of open loop then capacity; the median capacity round is
/// reported.
const ROUNDS: usize = 5;

pub fn config(spec: &PredictSpec) -> SessionConfig {
    common::session_config(
        spec.level,
        common::mlp_spec(spec.features, spec.hidden, spec.classes),
        1,
        8,
        0,
    )
}

/// One feature row per request: synthetic MNIST digits at 784
/// features, seeded uniform values otherwise.
fn inputs(spec: &PredictSpec, n: usize, seed: u64) -> Vec<Matrix<f64>> {
    if spec.features == 784 {
        let (data, _) = synthetic_mnist(n, 1, seed);
        let x = data.images();
        (0..n)
            .map(|i| Matrix::from_vec(1, 784, x.row(i).to_vec()))
            .collect()
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Matrix::from_fn(1, spec.features, |_, _| rng.random::<f64>()))
            .collect()
    }
}

/// Arrival times of a Poisson process conditioned on `n` arrivals in
/// `[0, span)`: `n` sorted uniform draws.
fn schedule(n: usize, span: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5c4e_d01e);
    let mut t: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * span).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// Encrypts every row on `threads` client instances (each seeded from
/// `seed`), returning the ciphertexts in order and each encryption's
/// time in milliseconds.
fn encrypt_all(
    params: &PublicParams,
    rows: &[Matrix<f64>],
    seed: u64,
    threads: usize,
) -> (Vec<EncryptedBatch>, Vec<f64>) {
    let per = rows.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = rows
            .chunks(per)
            .enumerate()
            .map(|(t, chunk)| {
                s.spawn(move || {
                    let mut client = Client::from_keys(
                        params.x_mpk.clone(),
                        params.y_mpk.clone(),
                        params.febo_mpk.clone(),
                        params.fp,
                        seed.wrapping_mul(31).wrapping_add(t as u64),
                    );
                    chunk
                        .iter()
                        .map(|x| {
                            let t0 = Instant::now();
                            let b = client
                                .encrypt_features(x)
                                .expect("request rows match the model");
                            (b, common::ms_since(t0))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("encryption thread"))
            .unzip()
    })
}

/// The first request rows as one labelled batch, for the secure
/// training-step replays (digits carry their labels; other inputs cycle
/// through the classes).
fn labelled_batch(
    spec: &PredictSpec,
    params: &PublicParams,
    rows: &[Matrix<f64>],
    seed: u64,
) -> EncryptedBatch {
    let x = Matrix::from_vec(
        rows.len(),
        spec.features,
        rows.iter().flat_map(|r| r.as_slice().to_vec()).collect(),
    );
    let labels: Vec<usize> = if spec.features == 784 {
        synthetic_mnist(rows.len(), 1, seed).0.labels().to_vec()
    } else {
        (0..rows.len()).map(|i| i % spec.classes).collect()
    };
    let y = Matrix::from_fn(rows.len(), spec.classes, |r, c| {
        f64::from(u8::from(labels[r] == c))
    });
    Client::from_keys(
        params.x_mpk.clone(),
        params.y_mpk.clone(),
        params.febo_mpk.clone(),
        params.fp,
        seed ^ 0x1abe1,
    )
    .encrypt_batch(&x, &y)
    .expect("labelled batch encrypts")
}

struct Daemons {
    authority: AuthorityServer,
    fleet: InferenceFleet,
}

impl Daemons {
    fn shutdown(self) {
        self.fleet.shutdown();
        self.authority.shutdown();
    }
}

type Halves = (Box<dyn FrameTx>, Box<dyn FrameRx>);

fn connect(
    addr: std::net::SocketAddr,
    config: &SessionConfig,
) -> Result<(Halves, PublicParams), NetError> {
    let mut t = TcpTransport::connect(addr, DEFAULT_MAX_FRAME)?;
    t.set_wire_format(WireFormat::Binary);
    t.set_read_timeout(Some(STALL))?;
    t.send(&NetMsg::Hello(Hello {
        session: SESSION,
        peer: Peer::Client(ClientId(0)),
        config: config.clone(),
    }))?;
    let params = match t.recv()? {
        Some(NetMsg::Msg(WireMessage::PublicParams(p))) => p,
        Some(NetMsg::Reject(why)) => return Err(NetError::Rejected(why)),
        _ => return Err(NetError::UnexpectedFrame("expected PublicParams")),
    };
    Ok((Box::new(t).split(), params))
}

fn predict_msg(id: u64, batch: EncryptedBatch) -> NetMsg {
    NetMsg::Msg(WireMessage::Predict(PredictRequest { id, batch }))
}

/// Starts both daemons and times start-up to the first answered
/// request.
fn start_up(
    config: &SessionConfig,
    derive: &Arc<DeriveStats>,
    probe: &EncryptedBatch,
    place: &Placement,
) -> (Daemons, Halves, PublicParams, f64, Matrix<f64>) {
    let t0 = Instant::now();
    place.server();
    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("authority daemon binds");
    let connector = ProbedAuthority {
        inner: RemoteAuthority::new(authority.local_addr()),
        stats: Arc::clone(derive),
    };
    let fleet = InferenceFleet::start(
        "127.0.0.1:0",
        SESSION,
        config,
        common::initial_model(config, Parallelism::Serial),
        Arc::new(connector),
        FleetOptions::default(),
    )
    .expect("inference fleet starts");
    place.client();
    let ((mut tx, mut rx), params) = connect(fleet.local_addr(), config).expect("client connects");
    tx.send(&predict_msg(u64::MAX, probe.clone()))
        .expect("probe request sent");
    let out = match rx.recv() {
        Ok(Some(NetMsg::Msg(WireMessage::Prediction(p)))) => p.outputs,
        other => panic!("the probe request was not answered: {other:?}"),
    };
    let setup_s = t0.elapsed().as_secs_f64();
    (Daemons { authority, fleet }, (tx, rx), params, setup_s, out)
}

/// What one live pass observed.
struct Live {
    /// Open-loop latency from the scheduled send; `INFINITY` if failed.
    open_ms: Vec<f64>,
    gen_lag_ms: Vec<f64>,
    /// Wall time of the open-loop chunks, first send to last answer.
    open_s: f64,
    /// Completed requests per second of each capacity round.
    capacity_rps: Vec<f64>,
    /// Every request's outputs (`None` if it failed), open loop first.
    outputs: Vec<Option<Matrix<f64>>>,
    served: u64,
    sweeps: u64,
}

/// One pass over the whole request stream, in rounds of an open-loop
/// chunk then a capacity round, each waiting for all its responses.
fn live_pass(
    spec: &PredictSpec,
    halves: &mut Option<Halves>,
    fleet: &InferenceFleet,
    requests: &[EncryptedBatch],
    sched: &[f64],
    trace: &Trace,
) -> Live {
    let (mut tx, rx) = halves.take().expect("connection is open");
    let n = requests.len();
    let n_open = sched.len();
    let (served0, sweeps0) = (fleet.served(), fleet.sweeps());

    let (done_tx, done_rx) = mpsc::channel::<(u64, Instant, Matrix<f64>)>();
    let receiver = std::thread::spawn(move || {
        let mut rx = rx;
        for _ in 0..n {
            match rx.recv() {
                Ok(Some(NetMsg::Msg(WireMessage::Prediction(p)))) => {
                    if done_tx.send((p.id, Instant::now(), p.outputs)).is_err() {
                        break;
                    }
                }
                _ => break,
            }
        }
        rx
    });

    let mut sent_at = vec![None::<(Instant, Instant)>; n];
    let mut done: Vec<Option<(Instant, Matrix<f64>)>> = vec![None; n];
    let mut received = 0usize;
    let sent = std::cell::Cell::new(0usize);
    let mut send = |i: usize, sent_at: &mut [Option<(Instant, Instant)>]| {
        let msg = predict_msg(i as u64, requests[i].clone());
        let t0 = Instant::now();
        let ok = tx.send(&msg).is_ok();
        let t1 = Instant::now();
        if ok {
            sent_at[i] = Some((t0, t1));
            sent.set(sent.get() + 1);
        }
        ok
    };
    // Collects one completion; false once the daemon went silent.
    let collect = |done: &mut [Option<(Instant, Matrix<f64>)>], received: &mut usize| match done_rx
        .recv_timeout(STALL)
    {
        Ok((id, at, out)) => {
            if let Some(slot) = done.get_mut(id as usize) {
                *slot = Some((at, out));
            }
            *received += 1;
            true
        }
        Err(_) => false,
    };

    // Rounds: each sends one contiguous chunk of the open-loop schedule
    // (regardless of completions) and drains it, then runs one capacity
    // round — a fixed request count with a fixed window in flight. The
    // rounds spread both phases over the whole run, so a stretch of
    // host noise spoils a few rounds rather than one phase.
    let per_round = (n - n_open).div_ceil(ROUNDS).max(1);
    let mut capacity_rps = Vec::with_capacity(ROUNDS);
    let mut due = vec![None::<Instant>; n_open];
    let mut gen_lag_ms = Vec::with_capacity(n_open);
    let mut open_s = 0.0;
    let mut alive = true;
    let mut next = n_open;
    for r in 0..ROUNDS {
        let (lo, hi) = (r * n_open / ROUNDS, (r + 1) * n_open / ROUNDS);
        let origin = Instant::now();
        let base = sched.get(lo).copied().unwrap_or(0.0);
        for i in lo..hi {
            if !alive {
                break;
            }
            let d = origin + Duration::from_secs_f64(sched[i] - base);
            let now = Instant::now();
            if now < d {
                std::thread::sleep(d - now);
            }
            gen_lag_ms.push(Instant::now().saturating_duration_since(d).as_secs_f64() * 1e3);
            due[i] = Some(d);
            alive = send(i, &mut sent_at);
        }
        while alive && received < sent.get() {
            alive = collect(&mut done, &mut received);
        }
        open_s += origin.elapsed().as_secs_f64();

        let (first, end) = (next, (next + per_round).min(n));
        let t0 = Instant::now();
        while alive && next < end && next - first < spec.capacity_window {
            alive = send(next, &mut sent_at);
            next += 1;
        }
        while alive && received < sent.get() {
            alive = collect(&mut done, &mut received);
            if alive && next < end {
                alive = send(next, &mut sent_at);
                next += 1;
            }
        }
        if end > first {
            capacity_rps.push((end - first) as f64 / t0.elapsed().as_secs_f64());
        }
    }

    if !alive {
        tx.close();
    }
    let rx = receiver.join().expect("receiver thread");
    if alive {
        *halves = Some((tx, rx));
    }

    let open_ms = (0..n_open)
        .map(|i| match (&done[i], due[i]) {
            (Some((at, _)), Some(d)) => at.saturating_duration_since(d).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        })
        .collect();
    // The open-loop requests are the ones the latency metrics describe.
    for i in 0..n_open {
        if let (Some((s0, s1)), Some((at, _))) = (sent_at[i], &done[i]) {
            trace.record("predict", None, i as u64, s0, *at);
            trace.record("net.client_send", Some("predict"), i as u64, s0, s1);
            trace.record("net.server_wait", Some("predict"), i as u64, s1, *at);
        }
    }
    Live {
        open_ms,
        gen_lag_ms,
        open_s,
        capacity_rps,
        outputs: done.into_iter().map(|d| d.map(|(_, o)| o)).collect(),
        served: fleet.served() - served0,
        sweeps: fleet.sweeps() - sweeps0,
    }
}

pub fn run(spec: &PredictSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        GENERATOR_THREADS.max(CONNECTIONS) <= nproc,
        "the generator needs {GENERATOR_THREADS} threads and {CONNECTIONS} connection; this host has {nproc} cores"
    );
    let config = config(spec);
    let open_s = seconds * spec.open_share;
    let n_open = (spec.offered_rps * open_s).round() as usize;
    let n_cap = (spec.capacity_requests_per_s * (seconds - open_s)).round() as usize;
    let sched = schedule(n_open, open_s, seed);
    let rows = inputs(spec, n_open + n_cap + 1, seed);

    // The reference side: the same master keys and frozen model, in
    // process.
    let (params, keys) = common::local_keys(SESSION, &config);
    let (mut requests, enc_ms) = encrypt_all(&params, &rows, seed, nproc.min(2));
    let probe = requests.pop().expect("a probe request");

    let place = Placement::detect();
    let derive = Arc::new(DeriveStats::default());
    let mut setup_s = Vec::new();
    let mut probe_outputs = Vec::new();
    let mut kept = None;
    for k in 0..spec.setups.max(1) {
        let (daemons, halves, wire_params, s, out) = start_up(&config, &derive, &probe, &place);
        assert!(
            wire_params == params,
            "the daemon published other keys than the reference authority"
        );
        setup_s.push(s);
        probe_outputs.push(out);
        if k + 1 == spec.setups.max(1) {
            kept = Some((daemons, halves));
        } else {
            drop(halves);
            daemons.shutdown();
        }
    }
    let (daemons, halves) = kept.expect("one start-up is kept");
    let mut halves = Some(halves);

    let untraced = live_pass(
        spec,
        &mut halves,
        &daemons.fleet,
        &requests,
        &sched,
        &Trace::new(false),
    );
    let trace = Trace::new(traced);
    let traced_pass =
        traced.then(|| live_pass(spec, &mut halves, &daemons.fleet, &requests, &sched, &trace));
    let peak_rss_mb = common::peak_rss_mb();
    let cache = daemons.fleet.cache_stats();
    drop(halves);
    daemons.shutdown();

    // Oracle: every served prediction against in-process
    // predict_encrypted_many on the same ciphertexts.
    place.everywhere();
    let mut model = common::initial_model(&config, Parallelism::available());
    let mut expected = Vec::with_capacity(requests.len() + 1);
    for window in requests.chunks(ORACLE_WINDOW) {
        let refs: Vec<&EncryptedBatch> = window.iter().collect();
        expected.extend(
            model
                .predict_encrypted_many(&keys, &refs)
                .expect("in-process prediction"),
        );
    }
    let probe_expected = model
        .predict_encrypted_many(&keys, &[&probe])
        .expect("in-process prediction")
        .remove(0);

    let mut mismatches = probe_outputs
        .iter()
        .filter(|o| **o != probe_expected)
        .count() as u64;
    let mut failed = 0u64;
    let passes: Vec<&Live> = std::iter::once(&untraced)
        .chain(traced_pass.as_ref())
        .collect();
    for live in &passes {
        for (got, want) in live.outputs.iter().zip(&expected) {
            match got {
                Some(o) if o == want => {}
                Some(_) => mismatches += 1,
                None => failed += 1,
            }
        }
    }
    let attempted = (passes.len() * requests.len() + probe_outputs.len()) as u64;

    // Tail segments hold at least TAIL_SEGMENT requests, enough for p99.
    let tail_segments = (n_open / TAIL_SEGMENT).max(1);
    let tail = stats::tail(&untraced.open_ms[..n_open / tail_segments])
        .expect("the open loop sends requests");
    let gen_lag = stats::median(&untraced.gen_lag_ms);
    let per_sweep = |live: &Live| live.served as f64 / live.sweeps.max(1) as f64;
    let requests_per_sweep = per_sweep(&untraced);
    let mut out = Outcome::new(attempted, failed + mismatches, mismatches == 0);
    out.record_str("why", &spec.why);
    out.record_num("offered_rps", spec.offered_rps);
    out.record_num("limit_ms", spec.limit_ms);
    out.record_num("open_loop_requests", n_open as f64);
    out.record_num("capacity_requests", n_cap as f64);
    out.record_num("capacity_window", spec.capacity_window as f64);
    out.record_num("repeated_ciphertext_share", 1.0 - 1.0 / passes.len() as f64);
    out.record_num("tail_percentile", tail.percentile);
    out.record_num("tail_segments", tail_segments as f64);
    out.record_num("tail_samples_per_segment", tail.samples as f64);
    out.record_num("tail_beyond", tail.beyond as f64);
    out.record_num("gen_lag_p50_ms", gen_lag);
    out.record_num("requests_per_sweep", requests_per_sweep);
    for (i, r) in untraced.capacity_rps.iter().enumerate() {
        out.record_num(&format!("capacity_round_{i}_rps"), *r);
    }
    out.record_num("mismatches", mismatches as f64);
    out.record_num("generator_threads", GENERATOR_THREADS as f64);
    out.record_num("connections", CONNECTIONS as f64);
    out.record_num("server_cpus", place.sizes().0 as f64);
    out.record_num("client_cpus", place.sizes().1 as f64);
    if gen_lag > spec.max_gen_lag_ms {
        out.fail(format!(
            "the generator fell behind its schedule: median lateness {gen_lag:.3} ms"
        ));
    }

    let pass = |live: &Live| Pass {
        p50_ms: stats::segment_median(&live.open_ms, P50_SEGMENTS, stats::median),
        tail_ms: stats::segment_median(&live.open_ms, tail_segments, |s| {
            stats::tail(s).map_or(f64::INFINITY, |t| t.value)
        }),
        goodput_per_s: stats::goodput(&live.open_ms, spec.limit_ms, live.open_s),
        capacity_per_s: stats::median(&live.capacity_rps),
    };
    let e2e = pass(&untraced);
    out.end_to_end(&e2e, stats::median(&setup_s), &enc_ms, peak_rss_mb);

    if let Some(tp) = &traced_pass {
        let frames = Frames {
            request: predict_msg(0, requests[0].clone()),
            response: NetMsg::Msg(WireMessage::Prediction(cryptonn_protocol::Prediction {
                id: 0,
                outputs: expected[0].clone(),
            })),
        };
        layers::wire(&mut out, &trace, &frames);
        let window = per_sweep(tp).round().max(1.0) as usize;
        let (sweep_ms, bound, _) =
            layers::serving(&mut out, &trace, &config, &keys, &requests, window);
        let labelled = labelled_batch(spec, &params, &rows[..config.batch_size as usize], seed);
        let (_, model, _) = layers::secure_steps(&mut out, &trace, &config, &keys, &[labelled]);
        layers::storage(&mut out, &trace, &config, &model, bound);
        let hit = cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64;
        out.layer("fe.cache_hit_ratio", hit, "ratio");
        out.layer("protocol.requests_per_sweep", per_sweep(tp), "count");
        layers::derive_metrics(&mut out, &derive);
        layers::attribution(&mut out, &trace, "predict", sweep_ms);
        out.layer("core.encrypt_ms", crate::report::encrypt_ms(&enc_ms), "ms");
        out.layer("trace.overhead_ms", pass(tp).p50_ms - e2e.p50_ms, "ms");
        let _ = trace.write(&crate::out_dir().join(format!("trace-{}-{seed}.jsonl", spec.name)));
    }
    out
}

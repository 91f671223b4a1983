//! The training workload: one federated session over TCP loopback —
//! an authority daemon, the session server with durability on, and
//! one data-owner client per connection, each driven by the real
//! `run_client` over a transport that timestamps its frames.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cryptonn_core::{Client, EncryptedBatch};
use cryptonn_data::synthetic_mnist;
use cryptonn_matrix::Matrix;
use cryptonn_net::{
    run_client, AuthorityOptions, AuthorityServer, FrameRx, FrameTx, NetError, NetMsg,
    RemoteAuthority, ServerOptions, SessionServer, TcpTransport, Transport, WireFormat,
    DEFAULT_MAX_FRAME,
};
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    round_robin_shards, ClientId, ClientSession, ModelDelta, PublicParams, RunnerOptions,
    SessionConfig, SessionId, SessionSummary, TrainingSessionRunner, WireMessage,
};

use crate::affinity::Placement;
use crate::common::{self, DeriveStats, ProbedAuthority, TrainSpec};
use crate::layers::{self, Frames};
use crate::report::{Outcome, Pass};
use crate::stats;
use crate::trace::Trace;

const STALL: Duration = Duration::from_secs(60);
/// Passes over the data timed for `encrypt_ms`, split evenly between
/// the end of the session, the end of each extra start-up and the end of
/// the reference run, so that the samples span most of the run and the
/// first percentile can come from its quieter seconds.
const ENCRYPT_PASSES: usize = 48;

pub fn config(spec: &TrainSpec, seed: u64) -> SessionConfig {
    common::session_config(
        spec.level,
        common::mlp_spec(spec.features, spec.hidden, spec.classes),
        spec.clients,
        spec.batch,
        seed.wrapping_mul(1_000_003).wrapping_add(4001),
    )
}

/// What a client's transport saw: when each batch went out and each
/// step's delta came back.
#[derive(Debug, Default)]
struct FrameLog {
    /// `(step, send start, send end)` of this client's batches.
    sent: Vec<(u64, Instant, Instant)>,
    /// `(step, arrival)` of every delta.
    deltas: Vec<(u64, Instant)>,
    /// The first batches and a delta, kept for the codec replay.
    batches: Vec<EncryptedBatch>,
    delta: Option<ModelDelta>,
}

type Log = Arc<Mutex<FrameLog>>;

/// A transport decorator that logs batch sends and delta arrivals.
struct Probe {
    inner: TcpTransport,
    log: Log,
}

/// The halves of a split [`Probe`].
struct ProbeTx(Box<dyn FrameTx>, Log);
struct ProbeRx(Box<dyn FrameRx>, Log);

fn timed_send(inner: &mut dyn FrameTx, log: &Log, msg: &NetMsg) -> Result<(), NetError> {
    let t0 = Instant::now();
    let r = inner.send(msg);
    let t1 = Instant::now();
    if let NetMsg::Msg(WireMessage::Batch(b)) = msg {
        let mut l = log.lock().expect("frame log lock");
        l.sent.push((b.step, t0, t1));
        if l.batches.len() < 3 {
            l.batches.push(b.batch.clone());
        }
    }
    r
}

fn logged_recv(inner: &mut dyn FrameRx, log: &Log) -> Result<Option<NetMsg>, NetError> {
    let r = inner.recv();
    if let Ok(Some(NetMsg::Msg(WireMessage::Delta(d)))) = &r {
        let mut l = log.lock().expect("frame log lock");
        l.deltas.push((d.step, Instant::now()));
        l.delta.get_or_insert(*d);
    }
    r
}

impl FrameTx for Probe {
    fn send(&mut self, msg: &NetMsg) -> Result<(), NetError> {
        timed_send(&mut self.inner, &self.log, msg)
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

impl FrameRx for Probe {
    fn recv(&mut self) -> Result<Option<NetMsg>, NetError> {
        logged_recv(&mut self.inner, &self.log)
    }
}

impl Transport for Probe {
    fn split(self: Box<Self>) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
        let (tx, rx) = Box::new(self.inner).split();
        (
            Box::new(ProbeTx(tx, Arc::clone(&self.log))),
            Box::new(ProbeRx(rx, self.log)),
        )
    }
}

impl FrameTx for ProbeTx {
    fn send(&mut self, msg: &NetMsg) -> Result<(), NetError> {
        timed_send(self.0.as_mut(), &self.1, msg)
    }

    fn close(&mut self) {
        self.0.close();
    }
}

impl FrameRx for ProbeRx {
    fn recv(&mut self) -> Result<Option<NetMsg>, NetError> {
        logged_recv(self.0.as_mut(), &self.1)
    }
}

struct Daemons {
    authority: AuthorityServer,
    server: SessionServer,
    dir: PathBuf,
}

impl Daemons {
    fn start(spec: &TrainSpec, derive: &Arc<DeriveStats>, k: usize) -> Self {
        let dir = crate::out_dir().join(format!("durable-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
            .expect("authority daemon binds");
        let connector = ProbedAuthority {
            inner: RemoteAuthority::new(authority.local_addr()),
            stats: Arc::clone(derive),
        };
        let server = SessionServer::start(
            "127.0.0.1:0",
            Arc::new(connector),
            ServerOptions {
                durability: Some(dir.clone()),
                checkpoint_every_steps: spec.checkpoint_every_steps,
                wire: WireFormat::Binary,
                ..ServerOptions::default()
            },
        )
        .expect("session server binds");
        Self {
            authority,
            server,
            dir,
        }
    }

    fn shutdown(self) {
        self.server.shutdown();
        self.authority.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One session's observations.
struct Session {
    summaries: Vec<Result<SessionSummary, String>>,
    logs: Vec<FrameLog>,
    /// Daemon start (or session start) to the end of the first round:
    /// the delta of the step that trains the last client's first batch.
    /// The first delta alone is no steady mark: the server may hold it
    /// until the next step is done, depending on the order the batches
    /// arrive in.
    first_round_s: f64,
    /// Per step: (owner's batch send start, send end, delta arrival).
    steps: Vec<Option<(Instant, Instant, Instant)>>,
}

/// Runs one session over the daemons; `t0` is the instant the caller
/// started timing from.
fn session(
    daemons: &Daemons,
    id: SessionId,
    config: &SessionConfig,
    shards: &[Vec<(Matrix<f64>, Matrix<f64>)>],
    steps: usize,
    t0: Instant,
) -> Session {
    let addr = daemons.server.local_addr();
    let logs: Vec<Log> = shards.iter().map(|_| Log::default()).collect();
    let summaries = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .zip(&logs)
            .enumerate()
            .map(|(i, (shard, log))| {
                s.spawn(move || {
                    let t = TcpTransport::connect(addr, DEFAULT_MAX_FRAME)
                        .map_err(|e| e.to_string())?;
                    t.set_wire_format(WireFormat::Binary);
                    t.set_read_timeout(Some(STALL)).map_err(|e| e.to_string())?;
                    let sm = ClientSession::new(
                        ClientId(i as u32),
                        config.client_seed_base + i as u64,
                        Parallelism::Serial,
                        shard.clone(),
                    );
                    let probe = Probe {
                        inner: t,
                        log: Arc::clone(log),
                    };
                    run_client(probe, id, sm, config).map_err(|e| e.to_string())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let logs: Vec<FrameLog> = logs
        .into_iter()
        .map(|l| {
            Arc::try_unwrap(l)
                .expect("clients done")
                .into_inner()
                .expect("log lock")
        })
        .collect();
    let round = shards.len() as u64 - 1;
    let first_round = logs
        .iter()
        .flat_map(|l| l.deltas.iter().filter(|d| d.0 == round).map(|d| d.1))
        .min()
        .unwrap_or_else(Instant::now);
    let mut by_step = vec![None; steps];
    for log in &logs {
        for &(step, s0, s1) in &log.sent {
            let arrival = log.deltas.iter().find(|d| d.0 == step).map(|d| d.1);
            if let (Some(slot), Some(at)) = (by_step.get_mut(step as usize), arrival) {
                *slot = Some((s0, s1, at));
            }
        }
    }
    Session {
        summaries,
        logs,
        first_round_s: first_round.saturating_duration_since(t0).as_secs_f64(),
        steps: by_step,
    }
}

fn step_ms(s: &Session) -> Vec<f64> {
    s.steps
        .iter()
        .map(|st| match st {
            Some((s0, _, at)) => at.saturating_duration_since(*s0).as_secs_f64() * 1e3,
            None => f64::INFINITY,
        })
        .collect()
}

fn pass(spec: &TrainSpec, s: &Session) -> Pass {
    let lat = step_ms(s);
    let starts = s.steps.iter().flatten().map(|st| st.0).min();
    let ends = s.steps.iter().flatten().map(|st| st.2).max();
    let span = match (starts, ends) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => f64::INFINITY,
    };
    let samples = spec.batch as f64;
    let done = lat.iter().filter(|l| l.is_finite()).count() as f64;
    Pass {
        p50_ms: stats::median(&lat),
        tail_ms: stats::tail(&lat).map_or(0.0, |t| t.value),
        goodput_per_s: stats::goodput(&lat, spec.limit_ms, span) * samples,
        capacity_per_s: done * samples / span,
    }
}

/// Times `encrypt_batch` over `passes` passes of `batches`, split across
/// `threads` client instances seeded from `seed`.
fn encrypt_times(
    params: &PublicParams,
    batches: &[(Matrix<f64>, Matrix<f64>)],
    passes: usize,
    seed: u64,
    threads: usize,
) -> Vec<f64> {
    let work: Vec<&(Matrix<f64>, Matrix<f64>)> = batches
        .iter()
        .cycle()
        .take(batches.len() * passes)
        .collect();
    let per = work.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = work
            .chunks(per)
            .enumerate()
            .map(|(t, chunk)| {
                s.spawn(move || {
                    let mut client = Client::from_keys(
                        params.x_mpk.clone(),
                        params.y_mpk.clone(),
                        params.febo_mpk.clone(),
                        params.fp,
                        seed.wrapping_add(t as u64),
                    );
                    chunk
                        .iter()
                        .map(|(x, y)| {
                            let t0 = Instant::now();
                            client.encrypt_batch(x, y).expect("batch encrypts");
                            common::ms_since(t0)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("encryption thread"))
            .collect()
    })
}

pub fn run(spec: &TrainSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = spec.clients as usize;
    assert!(
        clients <= nproc,
        "{clients} client threads and connections need {clients} cores; this host has {nproc}"
    );
    let config = config(spec, seed);
    let steps = ((spec.steps_per_s * seconds).round() as usize).max(clients);
    let batch = spec.batch as usize;
    let (data, _) = synthetic_mnist(steps * batch, 1, seed);
    let shards = round_robin_shards(&data, batch, clients);
    // Start-up sessions train one batch per client.
    let (setup_data, _) = synthetic_mnist(clients * batch, 1, seed ^ 0x0005_e70b);
    let setup_shards = round_robin_shards(&setup_data, batch, clients);

    let place = Placement::detect();
    let derive = Arc::new(DeriveStats::default());
    let t0 = Instant::now();
    place.server();
    let daemons = Daemons::start(spec, &derive, 0);
    place.client();
    let main = session(&daemons, SessionId(1), &config, &shards, steps, t0);
    let trace = Trace::new(traced);
    let traced_session = traced.then(|| {
        let s = session(
            &daemons,
            SessionId(2),
            &config,
            &shards,
            steps,
            Instant::now(),
        );
        for (i, st) in s.steps.iter().enumerate() {
            if let Some((s0, s1, at)) = *st {
                trace.record("step", None, i as u64, s0, at);
                trace.record("net.client_send", Some("step"), i as u64, s0, s1);
                trace.record("net.server_wait", Some("step"), i as u64, s1, at);
            }
        }
        s
    });
    // Taken before the extra start-ups, whose freed memory would
    // otherwise count by chance of allocator reuse.
    let peak_rss_mb = common::peak_rss_mb();
    daemons.shutdown();

    // Client encryption per batch, through the same public keys on every
    // CPU, in chunks between the remaining start-ups — each a fresh pair
    // of daemons training one batch per client — and after the reference
    // run.
    let (params, keys) = common::local_keys(SessionId(1), &config);
    let batches = data.batches(batch);
    let setups = spec.setups.max(1);
    let chunks = setups + 1;
    let passes = ENCRYPT_PASSES.div_ceil(chunks);
    let mut enc_ms = Vec::new();
    let mut encrypt_chunk = |k: usize| {
        place.everywhere();
        let seed = config.client_seed_base.wrapping_add((k * nproc) as u64);
        enc_ms.extend(encrypt_times(&params, &batches, passes, seed, nproc));
    };
    let mut setup_s = vec![main.first_round_s];
    let mut setup_summaries = Vec::new();
    for k in 0..setups {
        encrypt_chunk(k);
        if k + 1 == setups {
            break;
        }
        let t0 = Instant::now();
        place.server();
        let daemons = Daemons::start(spec, &derive, k + 1);
        place.client();
        let s = session(&daemons, SessionId(1), &config, &setup_shards, clients, t0);
        setup_s.push(s.first_round_s);
        setup_summaries.extend(s.summaries);
        daemons.shutdown();
    }

    // Oracle: the deterministic in-process runner on the same config
    // and data.
    let reference = TrainingSessionRunner::new(config.clone())
        .with_options(RunnerOptions {
            pipelined: true,
            parallelism: Parallelism::available(),
            record: false,
        })
        .run_mlp(&data)
        .expect("in-process reference run")
        .summary;
    encrypt_chunk(chunks - 1);
    let sessions: Vec<&Session> = std::iter::once(&main)
        .chain(traced_session.as_ref())
        .collect();
    let mut mismatches = 0u64;
    let mut failed = 0u64;
    for s in &sessions {
        for r in &s.summaries {
            match r {
                Ok(summary) if *summary == reference => {}
                Ok(_) => mismatches += 1,
                Err(_) => failed += 1,
            }
        }
        failed += s.steps.iter().filter(|st| st.is_none()).count() as u64;
    }
    let first_setup = setup_summaries.first().cloned();
    for r in &setup_summaries {
        match r {
            Ok(_) if Some(r) == first_setup.as_ref() => {}
            Ok(_) => mismatches += 1,
            Err(_) => failed += 1,
        }
    }
    let attempted = (sessions.len() * (steps + clients) + setup_summaries.len()) as u64;

    let tail = stats::tail(&step_ms(&main)).expect("the session trains");
    let mut out = Outcome::new(attempted, failed + mismatches, mismatches == 0);
    out.record_str("why", &spec.why);
    out.record_num("steps", steps as f64);
    out.record_num("clients", clients as f64);
    out.record_num("batch", batch as f64);
    out.record_num("limit_ms", spec.limit_ms);
    out.record_num("repeated_ciphertext_share", 0.0);
    out.record_num("tail_percentile", tail.percentile);
    out.record_num("tail_samples", tail.samples as f64);
    out.record_num("tail_beyond", tail.beyond as f64);
    out.record_num("mismatches", mismatches as f64);
    out.record_num("connections", clients as f64);
    out.record_num("server_cpus", place.sizes().0 as f64);
    out.record_num("client_cpus", place.sizes().1 as f64);
    if let Some(Ok(summary)) = main.summaries.first() {
        let last = |s: &SessionSummary| s.losses.last().copied().unwrap_or(0.0);
        out.record_num("final_loss", last(summary));
        out.record_num("reference_final_loss", last(&reference));
    }
    let e2e = pass(spec, &main);
    out.end_to_end(&e2e, stats::median(&setup_s), &enc_ms, peak_rss_mb);

    if let Some(ts) = &traced_session {
        let batches = ts
            .logs
            .iter()
            .flat_map(|l| l.batches.iter().cloned())
            .collect::<Vec<_>>();
        let delta = ts
            .logs
            .iter()
            .find_map(|l| l.delta)
            .expect("a delta arrived");
        let frames = Frames {
            request: NetMsg::Msg(WireMessage::Batch(cryptonn_protocol::EncryptedBatchMsg {
                client: ClientId(0),
                step: 0,
                gen: 0,
                batch: batches[0].clone(),
            })),
            response: NetMsg::Msg(WireMessage::Delta(delta)),
        };
        layers::wire(&mut out, &trace, &frames);
        let (_, _, cache) = layers::serving(&mut out, &trace, &config, &keys, &batches, 1);
        out.layer("fe.cache_hit_ratio", cache.hit_rate(), "ratio");
        out.layer("protocol.requests_per_sweep", 1.0, "count");
        let (step_ms, model, grad_bound) =
            layers::secure_steps(&mut out, &trace, &config, &keys, &batches);
        layers::storage(&mut out, &trace, &config, &model, grad_bound);
        layers::derive_metrics(&mut out, &derive);
        layers::attribution(&mut out, &trace, "step", step_ms);
        out.layer("core.encrypt_ms", crate::report::encrypt_ms(&enc_ms), "ms");
        out.layer(
            "trace.overhead_ms",
            pass(spec, ts).p50_ms - e2e.p50_ms,
            "ms",
        );
        let _ = trace.write(&crate::out_dir().join(format!("trace-{}-{seed}.jsonl", spec.name)));
    }
    out
}

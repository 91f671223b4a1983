//! What every workload shares: the fixed workload settings, the
//! session and model each daemon serves, the in-process reference
//! authority, and the instrumentation that wraps the authority link.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cryptonn_core::{CryptoMlp, CryptoNnConfig, Objective};
use cryptonn_fe::PermittedFunctions;
use cryptonn_group::{Element, SecurityLevel};
use cryptonn_net::{AuthorityConnector, LocalAuthority, NetError, RemoteAuthority};
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    AuthorityChannel, ChannelKeyService, KeyRequest, KeyResponse, MlpSpec, ModelSpec,
    ProtocolError, PublicParams, SessionConfig, SessionId, SessionPolicy,
};
use cryptonn_smc::FixedPoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Deserialize;

/// The fixed load of every workload, from `perfbench/workloads.json`.
/// Nothing here is calibrated per run.
#[derive(Debug, Deserialize)]
pub struct Settings {
    pub predict: Vec<PredictSpec>,
    pub train: Vec<TrainSpec>,
}

/// An open-loop predict workload against the inference fleet.
#[derive(Debug, Clone, Deserialize)]
pub struct PredictSpec {
    pub name: String,
    pub why: String,
    pub level: SecurityLevel,
    pub features: usize,
    pub hidden: usize,
    pub classes: usize,
    /// Fixed Poisson arrival rate of the open-loop phase.
    pub offered_rps: f64,
    /// Latency limit of the goodput count.
    pub limit_ms: f64,
    /// Share of `--seconds` the open-loop phase is scheduled over.
    pub open_share: f64,
    /// Requests in flight during the capacity phase.
    pub capacity_window: usize,
    /// Capacity-phase requests per second of the remaining run time: a
    /// fixed amount of work, timed, not a target rate.
    pub capacity_requests_per_s: f64,
    /// Daemon start-ups timed per run (`setup_s` is their median).
    pub setups: usize,
    /// The run fails when the generator's median lateness exceeds this.
    pub max_gen_lag_ms: f64,
}

/// A federated training session over TCP.
#[derive(Debug, Clone, Deserialize)]
pub struct TrainSpec {
    pub name: String,
    pub why: String,
    pub level: SecurityLevel,
    pub features: usize,
    pub hidden: usize,
    pub classes: usize,
    pub clients: u32,
    pub batch: u32,
    /// Training steps per second of `--seconds`: a fixed amount of work.
    pub steps_per_s: f64,
    pub limit_ms: f64,
    pub setups: usize,
    pub checkpoint_every_steps: u64,
}

pub fn settings() -> Settings {
    serde_json::from_str(include_str!("../workloads.json")).expect("workloads.json parses")
}

/// Seeds of the system under test. They are fixed so that every run
/// measures the same authority and model; `--seed` drives the inputs.
pub const AUTHORITY_SEED: u64 = 7001;
pub const MODEL_SEED: u64 = 7002;

pub fn session_config(
    level: SecurityLevel,
    spec: MlpSpec,
    clients: u32,
    batch: u32,
    client_seed_base: u64,
) -> SessionConfig {
    SessionConfig {
        level,
        fp: FixedPoint::TWO_DECIMALS,
        grad_fp: FixedPoint::new(10_000),
        permitted: PermittedFunctions::all(),
        model: ModelSpec::Mlp(spec),
        lr: 0.5,
        epochs: 1,
        batch_size: batch,
        clients,
        authority_seed: AUTHORITY_SEED,
        model_seed: MODEL_SEED,
        client_seed_base,
        policy: SessionPolicy::FailFast,
    }
}

pub fn mlp_spec(features: usize, hidden: usize, classes: usize) -> MlpSpec {
    MlpSpec {
        feature_dim: features,
        hidden: vec![hidden],
        classes,
        objective: Objective::SoftmaxCrossEntropy,
    }
}

/// The model a session starts from (the serving daemons' frozen model,
/// or the trainer's initial weights), built as the daemons build it.
pub fn initial_model(config: &SessionConfig, parallelism: Parallelism) -> CryptoMlp {
    let ModelSpec::Mlp(spec) = &config.model else {
        unreachable!("every workload trains or serves an MLP")
    };
    let cc = CryptoNnConfig {
        level: config.level,
        fp: config.fp,
        grad_fp: config.grad_fp,
        parallelism,
    };
    let mut rng = StdRng::seed_from_u64(config.model_seed);
    CryptoMlp::new(
        spec.feature_dim,
        &spec.hidden,
        spec.classes,
        spec.objective,
        cc,
        &mut rng,
    )
}

/// An in-process key service over the same master keys the authority
/// daemon derives for `config` — the reference side of every oracle and
/// the key source of every in-process replay.
pub fn local_keys(session: SessionId, config: &SessionConfig) -> (PublicParams, ChannelKeyService) {
    let (params, link) = LocalAuthority
        .connect(session, config)
        .expect("in-process authority connects");
    let keys = ChannelKeyService::new(&params, link);
    (params, keys)
}

/// Counters of the authority link, shared by every channel a
/// [`ProbedAuthority`] opens.
#[derive(Debug, Default)]
pub struct DeriveStats {
    pub calls: AtomicU64,
    pub keys: AtomicU64,
    pub exchange_ms: Mutex<Vec<f64>>,
}

/// [`RemoteAuthority`] with every key exchange counted and timed.
pub struct ProbedAuthority {
    pub inner: RemoteAuthority,
    pub stats: Arc<DeriveStats>,
}

struct ProbedChannel {
    inner: Box<dyn AuthorityChannel>,
    stats: Arc<DeriveStats>,
}

impl AuthorityConnector for ProbedAuthority {
    fn connect(
        &self,
        session: SessionId,
        config: &SessionConfig,
    ) -> Result<(PublicParams, Box<dyn AuthorityChannel>), NetError> {
        let (params, inner) = self.inner.connect(session, config)?;
        let stats = Arc::clone(&self.stats);
        Ok((params, Box::new(ProbedChannel { inner, stats })))
    }
}

impl AuthorityChannel for ProbedChannel {
    fn exchange(&mut self, req: KeyRequest) -> Result<KeyResponse, ProtocolError> {
        let keys = match &req {
            KeyRequest::FeipMpk(_) => 0,
            KeyRequest::Feip(r) => r.ys.len(),
            KeyRequest::Febo(r) => r.reqs.len(),
        };
        let t0 = Instant::now();
        let resp = self.inner.exchange(req);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.keys.fetch_add(keys as u64, Ordering::Relaxed);
        self.stats.exchange_ms.lock().expect("stats lock").push(ms);
        resp
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The parts of an FEIP ciphertext, read through its serde form: the
/// group-level replays need `ct₀` and `ct₁…ct_η`, which the type keeps
/// private.
#[derive(Debug, Deserialize)]
pub struct CtParts {
    pub ct0: Element,
    pub cts: Vec<Element>,
}

pub fn ct_parts(ct: &cryptonn_fe::FeipCiphertext) -> CtParts {
    serde::de::from_value(serde::ser::to_value(ct)).expect("an FEIP ciphertext has ct0 and cts")
}

/// The FEIP feature columns of an encrypted batch and its max-|x|,
/// read through the batch's serde form (its fields are crate-private).
pub fn batch_columns(
    batch: &cryptonn_core::EncryptedBatch,
) -> (Vec<cryptonn_fe::FeipCiphertext>, u64) {
    let v = serde::ser::to_value(batch);
    let fields = v.as_map().expect("an encrypted batch serializes as a map");
    let x: cryptonn_smc::EncryptedMatrix =
        serde::de::field(fields, "x").expect("an encrypted batch has features");
    let max_abs_x: u64 =
        serde::de::field(fields, "max_abs_x").expect("an encrypted batch has max_abs_x");
    let cols = x.feip_columns().expect("feature columns are FEIP").to_vec();
    (cols, max_abs_x)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

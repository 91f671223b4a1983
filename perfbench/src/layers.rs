//! The traced run's per-layer measurements.
//!
//! Every workload runs the same replays, on its own model and its own
//! encrypted inputs, by calling each crate's public functions from
//! here: the wire codec on the workload's frames, the serving sweep and
//! its `decrypt_cells` phases on its ciphertext columns, the secure
//! training steps on labelled batches, a checkpoint save and a BSGS
//! table build. Each call is a root span of the trace; the per-layer
//! metrics are medians of those spans. A layer a workload's live path
//! does not cross is still measured at that workload's geometry, so
//! every metric exists on every workload.

use std::time::Instant;

use cryptonn_core::secure_steps::{
    derive_unit_keys, secure_cross_entropy_loss, secure_dense_forward, secure_dense_weight_grad,
    secure_output_delta,
};
use cryptonn_core::{CryptoMlp, DlogTableCache, EncryptedBatch};
use cryptonn_fe::{feip, FeipCiphertext, FeipFunctionKey, KeyCacheStats, KeyService};
use cryptonn_group::{
    DlogTable, Element, ElementRatio, FixedBaseTable, OddPowerTables, SchnorrGroup, WnafScalars,
    LANES,
};
use cryptonn_matrix::Matrix;
use cryptonn_net::{
    encode_frame_fmt, read_frame_sniff, AuthorityConnector, LocalAuthority, NetMsg, WireFormat,
    DEFAULT_MAX_FRAME,
};
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    ChannelKeyService, CheckpointStore, ClientId, InferenceOptions, InferenceSession,
    PredictRequest, SessionCheckpoint, SessionConfig, SessionId, WireMessage, CHECKPOINT_SCHEMA,
};

use crate::common::{self, batch_columns, ct_parts, DeriveStats};
use crate::report::Outcome;
use crate::stats::{self, median};
use crate::trace::Trace;

/// The workload's client→server and server→client frames.
pub struct Frames {
    pub request: NetMsg,
    pub response: NetMsg,
}

/// Replays of each cheap call; the median is reported.
const CODEC_REPS: usize = 32;
const CHECKPOINT_REPS: usize = 5;
/// Coalesced windows replayed through the serving sweep.
const SERVE_WINDOWS: usize = 8;
/// Labelled batches replayed through the secure training steps.
const TRAIN_STEPS: usize = 3;
/// `decrypt_cells` builds a `ct₀` comb table once a window has this
/// many key rows (its private `FIXED_BASE_THRESHOLD`).
const COMB_ROWS: usize = 4;
/// Cells per `solve_batch` call in `decrypt_cells`.
const SOLVE_CHUNK: usize = 8 * LANES;

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Median duration of the spans named `name`, in `scale` units per ms.
fn span_median(trace: &Trace, name: &str, scale: f64) -> f64 {
    median(&trace.durations(name)) * scale
}

/// Wire codec: encode and decode of the workload's actual frames.
pub fn wire(out: &mut Outcome, trace: &Trace, frames: &Frames) {
    let pairs: [(&NetMsg, &'static str, &'static str, &'static str); 2] = [
        (
            &frames.request,
            "wire.request_bytes",
            "wire.encode_request",
            "wire.decode_request",
        ),
        (
            &frames.response,
            "wire.response_bytes",
            "wire.encode_response",
            "wire.decode_response",
        ),
    ];
    for (msg, bytes, enc, dec) in pairs {
        let mut len = 0;
        for rep in 0..CODEC_REPS {
            let frame = trace.time(enc, rep as u64, || {
                encode_frame_fmt(msg, DEFAULT_MAX_FRAME, WireFormat::Binary).expect("frame encodes")
            });
            let (back, format) = trace.time(dec, rep as u64, || {
                read_frame_sniff::<_, NetMsg>(&mut &frame[..], DEFAULT_MAX_FRAME)
                    .expect("frame decodes")
                    .expect("one whole frame")
            });
            assert!(
                back == *msg && format == WireFormat::Binary,
                "the codec round-trips"
            );
            len = frame.len() - cryptonn_net::FRAME_HEADER;
        }
        out.layer(bytes, len as f64, "bytes");
    }
    for (metric, span) in [
        ("wire.encode_request_us", "wire.encode_request"),
        ("wire.decode_request_us", "wire.decode_request"),
        ("wire.encode_response_us", "wire.encode_response"),
        ("wire.decode_response_us", "wire.decode_response"),
    ] {
        out.layer(metric, span_median(trace, span, 1e3), "us");
    }
}

/// The serving sweep: `InferenceSession::flush` over coalesced windows
/// of `window` requests, then `decrypt_cells_refs` and its four phases
/// on the same windows. Returns the median sweep time (ms), the serving
/// table bound and the sweep's key-cache counters.
pub fn serving(
    out: &mut Outcome,
    trace: &Trace,
    config: &SessionConfig,
    keys: &ChannelKeyService,
    batches: &[EncryptedBatch],
    window: usize,
) -> (f64, u64, KeyCacheStats) {
    let (params, link) = LocalAuthority
        .connect(SessionId(0), config)
        .expect("in-process authority connects");
    let mut session = InferenceSession::new(
        &params,
        link,
        common::initial_model(config, Parallelism::Serial),
        InferenceOptions::default(),
    );
    let windows: Vec<&[EncryptedBatch]> = batches.chunks(window).take(SERVE_WINDOWS + 1).collect();
    for (w, reqs) in windows.iter().enumerate() {
        for (i, b) in reqs.iter().enumerate() {
            let msg = WireMessage::Predict(PredictRequest {
                id: i as u64,
                batch: b.clone(),
            });
            session
                .handle_message(ClientId(0), &msg)
                .expect("request queues");
        }
        // The first window derives the model's keys; the rest run warm.
        let name = if w == 0 {
            "protocol.sweep_cold"
        } else {
            "protocol.sweep"
        };
        trace.time(name, w as u64, || session.flush().expect("sweep serves"));
    }
    let sweep_ms = span_median(trace, "protocol.sweep", 1.0);
    out.layer("protocol.sweep_ms", sweep_ms, "ms");

    // The same windows through decrypt_cells and its phases.
    let model = common::initial_model(config, Parallelism::Serial);
    let fp = config.fp;
    let wq = fp.encode_matrix(&model.first_layer().weights().transpose());
    let rows_owned: Vec<Vec<i64>> = (0..wq.rows()).map(|i| wq.row(i).to_vec()).collect();
    let rows: Vec<&[i64]> = rows_owned.iter().map(Vec::as_slice).collect();
    let n = wq.cols();
    let fkeys = keys
        .derive_ip_keys(n, &rows_owned)
        .expect("first-layer keys");
    let mpk = keys.feip_public_key(n).expect("feature key");
    let max_q = wq
        .as_slice()
        .iter()
        .map(|v| v.unsigned_abs())
        .max()
        .unwrap_or(0)
        .max(1);
    let mut max_x = 1;
    let cols: Vec<Vec<FeipCiphertext>> = windows
        .iter()
        .map(|reqs| {
            reqs.iter()
                .flat_map(|b| {
                    let (c, x) = batch_columns(b);
                    max_x = max_x.max(x);
                    c
                })
                .collect()
        })
        .collect();
    let bound = (n as u64)
        .saturating_mul(max_x)
        .saturating_mul(max_q)
        .next_power_of_two();
    let table = DlogTable::new(mpk.group(), bound);
    let mut cells = 0usize;
    let mut phase_us = [0.0f64; 4];
    for (w, window_cols) in cols.iter().enumerate().skip(1) {
        let refs: Vec<&FeipCiphertext> = window_cols.iter().collect();
        let got = trace.time("fe.decrypt_cells", w as u64, || {
            feip::decrypt_cells_refs(&mpk, &refs, &fkeys, &rows, &table, Parallelism::Serial)
                .expect("cells decrypt")
        });
        let (phased, times) = decrypt_phases(mpk.group(), &refs, &fkeys, &rows, &table);
        assert!(phased == got, "the phase replay reproduces decrypt_cells");
        cells += got.len();
        for (acc, t) in phase_us.iter_mut().zip(times) {
            *acc += t;
        }
    }
    let cells = cells.max(1) as f64;
    let total_ms: f64 = trace.durations("fe.decrypt_cells").iter().sum();
    out.layer("fe.decrypt_cells_us_per_cell", total_ms * 1e3 / cells, "us");
    out.layer("group.ct_tables_us", phase_us[0] / cells, "us");
    out.layer("group.straus_ratio_us", phase_us[1] / cells, "us");
    out.layer("group.batch_invert_us", phase_us[2] / cells, "us");
    out.layer("group.bsgs_us", phase_us[3] / cells, "us");
    (sweep_ms, bound, session.cache_stats())
}

/// `decrypt_cells_refs` rebuilt from the group crate's public pieces
/// (serially, in the same order), timing its four phases: per-ciphertext
/// tables, Straus ratios, the batched inversion, and the BSGS dlogs.
/// Returns the cells in ciphertext-major order and the phase times (µs).
fn decrypt_phases(
    group: &SchnorrGroup,
    cts: &[&FeipCiphertext],
    keys: &[FeipFunctionKey],
    rows: &[&[i64]],
    table: &DlogTable,
) -> (Vec<i64>, [f64; 4]) {
    let parts: Vec<common::CtParts> = cts.iter().map(|c| ct_parts(c)).collect();
    let recoded: Vec<WnafScalars> = rows.iter().map(|r| WnafScalars::recode(r)).collect();

    let t0 = Instant::now();
    let precomp: Vec<(OddPowerTables, Option<FixedBaseTable>)> = parts
        .iter()
        .map(|p| {
            let comb = (keys.len() >= COMB_ROWS).then(|| group.fixed_base_table(&p.ct0));
            (group.odd_power_tables(&p.cts), comb)
        })
        .collect();
    let tables_us = us(t0);

    let t1 = Instant::now();
    let nrows = rows.len();
    let one = || ElementRatio::from_element(group, group.identity());
    let mut ratios = vec![one(); cts.len() * nrows];
    for (r, (scalars, key)) in recoded.iter().zip(keys).enumerate() {
        let sk = key.scalar();
        for c0 in (0..cts.len()).step_by(LANES) {
            let width = LANES.min(cts.len() - c0);
            if width == LANES {
                let tabs: [&OddPowerTables; LANES] = core::array::from_fn(|i| &precomp[c0 + i].0);
                let denoms: [Element; LANES] =
                    match core::array::from_fn(|i| precomp[c0 + i].1.as_ref()) {
                        [Some(a), Some(b), Some(c), Some(d)] => {
                            group.exp_tables_lanes([a, b, c, d], sk)
                        }
                        _ => core::array::from_fn(|i| group.pow(&parts[c0 + i].ct0, sk)),
                    };
                let nums: [ElementRatio; LANES] = if scalars.is_all_zero() {
                    core::array::from_fn(|_| one())
                } else {
                    group.multi_scalar_ratio_lanes(tabs, scalars)
                };
                for i in 0..LANES {
                    ratios[(c0 + i) * nrows + r] = nums[i].div_by(group, &denoms[i]);
                }
            } else {
                for c in c0..c0 + width {
                    let (tabs, comb) = &precomp[c];
                    let denom = match comb {
                        Some(t) => group.exp_table(t, sk),
                        None => group.pow(&parts[c].ct0, sk),
                    };
                    let num = if scalars.is_all_zero() {
                        one()
                    } else {
                        group.multi_scalar_ratio(tabs, scalars)
                    };
                    ratios[c * nrows + r] = num.div_by(group, &denom);
                }
            }
        }
    }
    let ratio_us = us(t1);

    let t2 = Instant::now();
    let raws = group.resolve_ratios(&ratios);
    let invert_us = us(t2);

    let t3 = Instant::now();
    let values: Vec<i64> = raws
        .chunks(SOLVE_CHUNK)
        .flat_map(|chunk| table.solve_batch(group, chunk))
        .map(|r| r.expect("cells within the table bound"))
        .collect();
    let bsgs_us = us(t3);
    (values, [tables_us, ratio_us, invert_us, bsgs_us])
}

/// The secure training steps on labelled batches: a whole
/// `train_encrypted_batch`, then each public `secure_steps` function,
/// and inside the weight gradient each row's `combine`,
/// `decrypt_coordinates` and BSGS solve. Returns the median step time
/// (ms), the model after the replayed steps, and the weight-gradient
/// table bound.
pub fn secure_steps(
    out: &mut Outcome,
    trace: &Trace,
    config: &SessionConfig,
    keys: &ChannelKeyService,
    batches: &[EncryptedBatch],
) -> (f64, CryptoMlp, u64) {
    let par = Parallelism::Serial;
    let (fp, grad_fp) = (config.fp, config.grad_fp);
    let mut model = common::initial_model(config, par);
    let n = model.first_layer().in_dim();
    let unit_keys = derive_unit_keys(keys, n).expect("unit keys");
    let mpk = keys.feip_public_key(n).expect("feature key");
    let group = mpk.group().clone();
    let mut cache = DlogTableCache::new(group.clone());
    let mut grad_bound = 1;
    for (s, batch) in batches.iter().cycle().take(TRAIN_STEPS).enumerate() {
        let req = s as u64;
        let step = trace.time("core.train_step", req, || {
            model
                .train_encrypted_batch(keys, batch, config.lr)
                .expect("step trains")
        });
        let p = step.predictions;
        let enc_y = batch.require_labels().expect("labelled batch");
        trace.time("core.secure_forward", req, || {
            secure_dense_forward(keys, &mut cache, batch, model.first_layer(), fp, par)
                .expect("forward")
        });
        let p_minus_y = trace.time("core.secure_output_delta", req, || {
            secure_output_delta(keys, &mut cache, enc_y, &p, fp, par).expect("output delta")
        });
        trace.time("core.secure_loss", req, || {
            secure_cross_entropy_loss(keys, &mut cache, enc_y, &p, fp, par).expect("loss")
        });
        // δ₁ back-propagated through the output layer's weights (the
        // hidden activation's derivative left out): the trainer's
        // δ₁ is private, and the gradient's cost depends on its shape,
        // not its values, since it is rescaled to `grad_fp` anyway.
        let w2 = &model.snapshot().expect("snapshot").rest[0].w;
        let m = batch.batch_size() as f64;
        let delta1 = w2.matmul(&p_minus_y.transpose()).scale(1.0 / m);
        trace.time("core.secure_weight_grad", req, || {
            secure_dense_weight_grad(
                keys, &mut cache, batch, &delta1, &unit_keys, fp, grad_fp, par,
            )
            .expect("weight gradient")
        });
        grad_bound = grad_bound.max(gradient_rows(
            trace, req, &group, &mpk, batch, &delta1, &unit_keys, grad_fp,
        ));
    }
    let step_ms = span_median(trace, "core.train_step", 1.0);
    out.layer("core.train_step_ms", step_ms, "ms");
    for (name, metric) in [
        ("core.secure_forward", "core.secure_forward_ms"),
        ("core.secure_output_delta", "core.secure_output_delta_ms"),
        ("core.secure_loss", "core.secure_loss_ms"),
        ("core.secure_weight_grad", "core.secure_weight_grad_ms"),
        ("fe.combine", "fe.combine_ms"),
        ("fe.decrypt_coordinates", "fe.decrypt_coordinates_ms"),
    ] {
        out.layer(metric, span_median(trace, name, 1.0), "ms");
    }
    let coords = trace.durations("group.bsgs_grad");
    let per_coord = coords.iter().sum::<f64>() * 1e3 / (coords.len() * n).max(1) as f64;
    out.layer("group.bsgs_grad_us", per_coord, "us");
    (step_ms, model, grad_bound)
}

/// One weight-gradient pass row by row, as `secure_dense_weight_grad`
/// runs it, with the BSGS solve of each row timed on its own. Returns
/// the table bound.
#[allow(clippy::too_many_arguments)]
fn gradient_rows(
    trace: &Trace,
    req: u64,
    group: &SchnorrGroup,
    mpk: &cryptonn_fe::FeipPublicKey,
    batch: &EncryptedBatch,
    delta: &Matrix<f64>,
    unit_keys: &[FeipFunctionKey],
    grad_fp: cryptonn_smc::FixedPoint,
) -> u64 {
    let max_delta = delta.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    let factor = grad_fp.scale() as f64 / max_delta.max(f64::MIN_POSITIVE);
    let dq = delta.map(|v| (v * factor).round() as i64);
    let (columns, max_x) = batch_columns(batch);
    let refs: Vec<&FeipCiphertext> = columns.iter().collect();
    let max_dq = dq
        .as_slice()
        .iter()
        .map(|v| v.unsigned_abs())
        .max()
        .unwrap_or(0)
        .max(1);
    let bound = (batch.batch_size() as u64)
        .saturating_mul(max_dq)
        .saturating_mul(max_x)
        .next_power_of_two();
    let table = DlogTable::new(group, bound);
    for i in 0..dq.rows() {
        let combined = trace.time("fe.combine", req, || {
            feip::combine(mpk, &refs, dq.row(i)).expect("columns combine")
        });
        let coords = trace.time("fe.decrypt_coordinates", req, || {
            feip::decrypt_coordinates(mpk, &combined, unit_keys, &table).expect("coordinates")
        });
        // decrypt_coordinates up to its dlogs, then the dlogs alone.
        let parts = ct_parts(&combined);
        let comb = group.fixed_base_table(&parts.ct0);
        let denoms = unit_keys.iter().map(|k| group.exp_table(&comb, k.scalar()));
        let ratios: Vec<ElementRatio> = parts
            .cts
            .iter()
            .zip(denoms)
            .map(|(c, d)| ElementRatio::from_element(group, *c).div_by(group, &d))
            .collect();
        let raws = group.resolve_ratios(&ratios);
        let solved = trace.time("group.bsgs_grad", req, || table.solve_batch(group, &raws));
        let solved: Vec<i64> = solved.into_iter().map(|r| r.expect("in bound")).collect();
        assert!(
            solved == coords,
            "the BSGS replay reproduces decrypt_coordinates"
        );
    }
    bound
}

/// `CheckpointStore::save` of a snapshot of `model`, and a BSGS table
/// build at `bound`.
pub fn storage(
    out: &mut Outcome,
    trace: &Trace,
    config: &SessionConfig,
    model: &CryptoMlp,
    bound: u64,
) {
    let dir = crate::out_dir().join(format!("checkpoints-{}", std::process::id()));
    let store = CheckpointStore::new(&dir).with_format(WireFormat::Binary);
    let ckpt = SessionCheckpoint {
        schema: CHECKPOINT_SCHEMA,
        transcript_offset: 0,
        next_step: 0,
        losses: Vec::new(),
        registered: Vec::new(),
        delivered: Vec::new(),
        batches_per_epoch: None,
        total_steps: None,
        gen: 0,
        reshard: None,
        model: model.snapshot().expect("snapshot"),
    };
    for rep in 0..CHECKPOINT_REPS {
        trace.time("protocol.checkpoint_save", rep as u64, || {
            store
                .save(SessionId(rep as u64), config, &ckpt)
                .expect("checkpoint saves")
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.layer(
        "protocol.checkpoint_save_ms",
        span_median(trace, "protocol.checkpoint_save", 1.0),
        "ms",
    );

    let group = SchnorrGroup::precomputed(config.level);
    let table = trace.time("group.dlog_table_build", 0, || {
        DlogTable::new(&group, bound)
    });
    assert_eq!(table.bound(), bound);
    out.layer(
        "group.dlog_table_build_ms",
        span_median(trace, "group.dlog_table_build", 1.0),
        "ms",
    );
}

/// Key-derivation counters of the authority link over the whole run.
pub fn derive_metrics(out: &mut Outcome, derive: &DeriveStats) {
    use std::sync::atomic::Ordering;
    out.layer(
        "fe.derive_calls",
        derive.calls.load(Ordering::Relaxed) as f64,
        "count",
    );
    out.layer(
        "fe.keys_derived",
        derive.keys.load(Ordering::Relaxed) as f64,
        "count",
    );
    let ms = derive.exchange_ms.lock().expect("stats lock");
    out.layer("fe.derive_ms", median(&ms), "ms");
}

/// Attribution of the client-observed operation `root`: its send and
/// server wait come from the live spans, and the server wait is split
/// into the replayed server work (`server_ms`) plus the codec work on
/// both sides; `net.residual_ms` is what remains.
pub fn attribution(out: &mut Outcome, trace: &Trace, root: &'static str, server_ms: f64) -> f64 {
    let wall = trace.durations(root);
    let own = trace.self_times();
    let send = own.get("net.client_send").cloned().unwrap_or_default();
    let wait = own.get("net.server_wait").cloned().unwrap_or_default();
    let codec_ms = (span_median(trace, "wire.decode_request", 1.0)
        + span_median(trace, "wire.encode_response", 1.0)
        + span_median(trace, "wire.decode_response", 1.0))
    .max(0.0);
    let residual: Vec<f64> = wall
        .iter()
        .zip(&send)
        .map(|(w, s)| stats::residual(*w, &[*s, server_ms, codec_ms]))
        .collect();
    let (wall_ms, send_ms, wait_ms, residual_ms) = (
        median(&wall),
        median(&send),
        median(&wait),
        median(&residual),
    );
    out.layer("net.client_send_us", send_ms * 1e3, "us");
    out.layer("net.server_wait_ms", wait_ms, "ms");
    out.layer("net.residual_ms", residual_ms, "ms");
    // Medians do not add, so the layers plus the residual only match
    // the median wall time within a tolerance; a miss means the
    // attribution double-counts or drops time.
    let covered = send_ms + server_ms + codec_ms + residual_ms;
    out.record_num("wall_p50_ms", wall_ms);
    out.record_num("attributed_plus_residual_ms", covered);
    let gap = (covered - wall_ms).abs() / wall_ms.max(f64::MIN_POSITIVE);
    out.record_num("attribution_gap", gap);
    if gap > crate::ATTRIBUTION_TOLERANCE {
        out.fail(format!(
            "layers plus residual ({covered:.3} ms) miss the wall time ({wall_ms:.3} ms) by {:.1}%",
            gap * 100.0
        ));
    }
    gap
}

//! What a run reports: the end-to-end or per-layer metrics, the counts
//! of attempted and failed operations, and a record of the host and
//! workload printed before the result line.

use serde::Value;

use crate::stats;

/// Client encryption time per request or batch: the first percentile of
/// the run's samples (hundreds to thousands of them). The samples span
/// seconds of the run and host noise only ever adds time, in bursts that
/// slow a tenth or more of the samples, so a low percentile follows the
/// code's cost where the median and even the lower decile follow the
/// neighbours' load; the median goes to the record.
pub fn encrypt_ms(samples: &[f64]) -> f64 {
    stats::quantile(samples, 0.01)
}

/// The end-to-end figures of one live pass.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub goodput_per_s: f64,
    pub capacity_per_s: f64,
}

#[derive(Debug)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
    problems: Vec<String>,
    end_to_end: Vec<(&'static str, f64, &'static str)>,
    layers: Vec<(&'static str, f64, &'static str)>,
    record: Vec<(String, Value)>,
}

/// A JSON number with all its digits; non-finite values (a percentile
/// that lands on a failed request) read as the largest finite double.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, correct: bool) -> Self {
        let mut problems = Vec::new();
        if !correct {
            problems.push("an output differs from the in-process reference".to_string());
        }
        Self {
            attempted: attempted.max(1),
            failed,
            correct,
            problems,
            end_to_end: Vec::new(),
            layers: Vec::new(),
            record: Vec::new(),
        }
    }

    /// Marks the run as failed for `why`.
    pub fn fail(&mut self, why: String) {
        self.problems.push(why);
    }

    /// True when the run must exit non-zero.
    pub fn failed_run(&self) -> bool {
        !self.problems.is_empty()
    }

    /// Sets the end-to-end metrics. The tail latency goes to the record
    /// only: on a small shared host it follows scheduling hiccups more
    /// than the program, so it cannot carry a regression bound; the
    /// goodput against the latency limit is the bounded form of it.
    pub fn end_to_end(&mut self, pass: &Pass, setup_s: f64, encrypt: &[f64], peak_rss_mb: f64) {
        self.record_num("tail_ms", pass.tail_ms);
        self.record_num("encrypt_p50_ms", stats::median(encrypt));
        let encrypt_ms = encrypt_ms(encrypt);
        self.end_to_end = vec![
            ("setup_s", setup_s, "s"),
            ("encrypt_ms", encrypt_ms, "ms"),
            ("p50_ms", pass.p50_ms, "ms"),
            ("goodput_per_s", pass.goodput_per_s, "1/s"),
            ("capacity_per_s", pass.capacity_per_s, "1/s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ];
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push((name, value, unit));
    }

    pub fn record_num(&mut self, key: &str, v: f64) {
        self.record.push((key.to_string(), Value::F64(v)));
    }

    pub fn record_str(&mut self, key: &str, v: &str) {
        self.record
            .push((key.to_string(), Value::Str(v.to_string())));
    }

    /// The record: the host, the workload, both metric sets and any
    /// problem found, as one JSON object.
    pub fn record_line(&self, host: Vec<(String, Value)>) -> String {
        let metrics = |m: &[(&'static str, f64, &'static str)]| {
            Value::Map(
                m.iter()
                    .map(|(n, v, u)| {
                        (
                            n.to_string(),
                            Value::Map(vec![
                                (
                                    "value".into(),
                                    Value::F64(if v.is_finite() { *v } else { f64::MAX }),
                                ),
                                ("unit".into(), Value::Str(u.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let record = Value::Map(vec![
            ("host".into(), Value::Map(host)),
            ("workload".into(), Value::Map(self.record.clone())),
            ("end_to_end".into(), metrics(&self.end_to_end)),
            ("per_layer".into(), metrics(&self.layers)),
            (
                "problems".into(),
                Value::Seq(
                    self.problems
                        .iter()
                        .map(|p| Value::Str(p.clone()))
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string(&record).expect("the record serializes")
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.layers
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

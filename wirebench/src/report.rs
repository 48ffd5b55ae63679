//! The metric ledger and how a run reports it.
//!
//! `--trace 0` ends with one JSON line holding the [`E2E`] metrics;
//! `--trace 1` ends with one holding the [`LAYERS`] metrics. Both modes
//! also print the per-op table ([`DETAIL`]) and, when traced, the
//! reconciliation of layer self times against the round trip, and
//! write everything to `wirebench/out/` for `steady.py`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off, reported by every
/// workload. `op` is the workload's unit of work: one exchange
/// (`bulk_exchange`), one request of the mix (`small_mixed`), one
/// commit-to-visible cycle (`ingest_cdc`: `insert_batch` until every
/// subscriber holds the notification).
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op.p50_us", "us"),
    ("op.p95_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// The per-op table: every end-to-end figure of the ledger, printed by
/// name and unit; `n/a` where the workload does not issue that op.
pub const DETAIL: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("exchange.p50_us", "us"),
    ("exchange.p95_us", "us"),
    ("mediate.p50_us", "us"),
    ("mediate.p95_us", "us"),
    ("batch.p50_us", "us"),
    ("batch.p95_us", "us"),
    ("insert.p50_us", "us"),
    ("insert.p95_us", "us"),
    ("cdc_lag.p50_us", "us"),
    ("cdc_lag.p95_us", "us"),
    ("failed_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("write_amp", "ratio"),
];

/// Per-layer metrics of the traced run. `*_us` self times are means
/// per request of the workload (per cycle on `ingest_cdc`); a layer the
/// workload never enters reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("client.encode_us", "us"),
    ("wire.frame_us", "us"),
    ("server.decode_us", "us"),
    ("core.self_us", "us"),
    ("core.plan_us", "us"),
    ("chase.us", "us"),
    ("runtime.mediate_plan_us", "us"),
    ("runtime.mediate_answer_us", "us"),
    ("repository.apply_us", "us"),
    ("repository.ack_us", "us"),
    ("propagate.publish_us", "us"),
    ("runtime.ivm_delta_us", "us"),
    ("propagate.poll_us", "us"),
    ("runtime.materialize_us", "us"),
    ("server.encode_us", "us"),
    ("client.decode_us", "us"),
    ("server.unattributed_us", "us"),
    ("trace.roundtrip_us", "us"),
    ("trace.overhead_us", "us"),
    ("wire.bytes_in", "bytes"),
    ("wire.bytes_out", "bytes"),
    ("server.queue_wait_us.p50", "us"),
    ("server.queue_wait_us.p99", "us"),
    ("server.service_us.p50", "us"),
    ("server.service_us.p99", "us"),
    ("core.plan_hit_ratio", "ratio"),
    ("chase.rounds", "count"),
    ("chase.firings", "count"),
    ("chase.target_per_firing", "ratio"),
    ("guard.steps_per_request", "count"),
    ("eval.hom_found", "count"),
    ("eval.hom_pruned", "count"),
    ("repository.wal_bytes_per_batch", "bytes"),
    ("repository.checkpoint_us", "us"),
    ("repository.checkpoints", "count"),
    ("propagate.delta_ratio", "ratio"),
    ("instance.interned", "count"),
    ("instance.tuples_alloc", "count"),
    ("parallel.tasks", "count"),
    ("core.mqo_shared", "count"),
];

/// What one run of one workload measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// False when an end-of-run oracle (CDC replica, durability) failed.
    pub oracles_ok: bool,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result (reconciliation).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn set_opt(&mut self, name: &'static str, v: Option<f64>) {
        if let Some(v) = v {
            self.values.insert(name, v);
        }
    }

    fn metrics_json(&self, list: &[(&str, &str)]) -> String {
        let mut s = String::from("{");
        for (i, (name, unit)) in list.iter().enumerate() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        s.push('}');
        s
    }

    /// Print the table and the notes, save the full record, and end
    /// with the one-line JSON result.
    pub fn emit(mut self, workload: &str, seed: u64, trace: bool) {
        if trace {
            for (name, _) in LAYERS {
                self.values.entry(name).or_insert(0.0);
            }
        }
        println!("== {workload} seed {seed} trace {} ==", u8::from(trace));
        for (name, unit) in DETAIL {
            match self.values.get(name) {
                Some(v) => println!("  {name:<18} {v:>14.3} {unit}"),
                None => println!("  {name:<18} {:>14} {unit}", "n/a"),
            }
        }
        if trace {
            for (name, unit) in LAYERS {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                println!("  {name:<32} {v:>14.3} {unit}");
            }
        }
        for line in &self.notes {
            println!("{line}");
        }
        let correct = self.oracles_ok && self.failed == 0;
        let all: Vec<(&str, &str)> = DETAIL
            .iter()
            .chain(E2E.iter())
            .chain(if trace { LAYERS.iter() } else { [].iter() })
            .copied()
            .collect();
        let mut record = String::new();
        let _ = write!(
            record,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            u8::from(trace),
            self.attempted,
            self.failed,
            self.metrics_json(&dedup(&all, &self.values)),
        );
        let path = format!(
            "wirebench/out/{workload}-seed{seed}-trace{}.json",
            u8::from(trace)
        );
        if std::fs::create_dir_all("wirebench/out")
            .and_then(|()| std::fs::write(&path, &record))
            .is_err()
        {
            eprintln!("wirebench: could not write {path}");
        }
        let list = if trace { LAYERS } else { E2E };
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            self.metrics_json(list)
        );
    }
}

/// Names listed once each, keeping only per-op figures that were set.
fn dedup<'a>(
    list: &[(&'a str, &'a str)],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'a str, &'a str)> {
    let mut seen = std::collections::BTreeSet::new();
    list.iter()
        .filter(|(n, _)| values.contains_key(n) && seen.insert(*n))
        .copied()
        .collect()
}

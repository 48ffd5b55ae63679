//! The traced run's layer replay and the reconciliation it feeds.
//!
//! A traced request goes over the wire like any other (its round trip
//! is recorded as a `wire.roundtrip` span), and is then replayed in
//! process through the public entry point of every layer it crossed:
//! the protocol codec on both sides, framing, the engine's plan cache
//! and chase, the mediator, the repository, and the propagator's IVM
//! and resync paths. Each stage is a span carrying the request's id,
//! so the self times of a request's stages plus the unattributed
//! remainder add up to its round trip by construction.

use crate::common::Res;
use crate::report::Report;
use crate::stats::Lat;
use crate::trace::Tracer;
use bytes::Bytes;
use mm_chase::{chase_st_prepared_governed, ChaseProgram, ChaseStats};
use mm_engine::Engine;
use mm_expr::{Expr, Tgd};
use mm_guard::Governor;
use mm_instance::Database;
use mm_repository::codec::Reader;
use mm_server::protocol::{
    decode_request, decode_response, encode_ok, encode_request, parse_head, read_frame,
    write_frame, OkBody, RawFrame, Request, DEFAULT_MAX_FRAME_LEN, PRELUDE_LEN,
};
use mm_telemetry::Telemetry;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Span name → the per-layer metric its self time feeds.
const LAYER_OF: &[(&str, &str)] = &[
    ("client.encode", "client.encode_us"),
    ("wire.frame", "wire.frame_us"),
    ("server.decode", "server.decode_us"),
    ("core.self", "core.self_us"),
    ("core.plan", "core.plan_us"),
    ("chase", "chase.us"),
    ("runtime.mediate_plan", "runtime.mediate_plan_us"),
    ("runtime.mediate_answer", "runtime.mediate_answer_us"),
    ("repository.apply", "repository.apply_us"),
    ("repository.ack", "repository.ack_us"),
    ("propagate.publish", "propagate.publish_us"),
    ("runtime.ivm_delta", "runtime.ivm_delta_us"),
    ("propagate.poll", "propagate.poll_us"),
    ("runtime.materialize", "runtime.materialize_us"),
    ("server.encode", "server.encode_us"),
    ("client.decode", "client.decode_us"),
];

pub const ROUNDTRIP: &str = "wire.roundtrip";

/// The in-process side of the replay: a local engine holding the same
/// artifacts as the server's (and, for `ingest_cdc`, the same durable
/// repository contents), plus a plan cache that follows the engine's
/// rules — hit, miss, or re-plan when the cached plan's statistics
/// drifted past `replan_ratio`.
pub struct Replica {
    pub engine: Engine,
    plans: Mutex<HashMap<String, Arc<ChaseProgram>>>,
}

impl Replica {
    pub fn new(engine: Engine) -> Replica {
        Replica {
            engine,
            plans: Mutex::new(HashMap::new()),
        }
    }

    fn tel(&self) -> &Telemetry {
        self.engine.telemetry()
    }

    fn plan(&self, name: &str, tgds: &[Tgd], db: &Database) -> Arc<ChaseProgram> {
        let mut plans = self.plans.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(p) = plans.get(name) {
            if !p.misestimated(db, self.engine.config.replan_ratio) {
                return Arc::clone(p);
            }
        }
        let fresh = Arc::new(ChaseProgram::compile_costed(tgds, db));
        plans.insert(name.to_string(), Arc::clone(&fresh));
        fresh
    }

    /// The server's exchange path: artifact lookups, plan, chase at one
    /// thread under the request's governor.
    #[allow(clippy::too_many_arguments)] // the request's fields, spread as the engine takes them
    pub fn exchange(
        &self,
        tr: &mut Tracer,
        req: u64,
        parent: Option<usize>,
        mapping: &str,
        target: &str,
        db: &Database,
        gov: &mut Governor,
    ) -> Res<(Database, ChaseStats)> {
        let core = tr.open("core.self", req, parent);
        let (m, _) = self
            .engine
            .repo
            .latest_mapping(mapping)
            .map_err(|e| e.to_string())?;
        let (t, _) = self
            .engine
            .repo
            .latest_schema(target)
            .map_err(|e| e.to_string())?;
        let tgds: Vec<Tgd> = m
            .as_tgds()
            .ok_or("mapping is not a tgd mapping")?
            .into_iter()
            .cloned()
            .collect();
        let program = tr.span("core.plan", req, Some(core), || {
            self.plan(mapping, &tgds, db)
        });
        let out = tr.span("chase", req, Some(core), || {
            chase_st_prepared_governed(&t, &program, db, gov, 1, self.tel())
        });
        tr.close(core);
        out.map_err(|e| format!("replayed chase: {e:?}"))
    }

    /// The server's mediation path: chain lookups, plan, answer.
    #[allow(clippy::too_many_arguments)] // the request's fields, spread as the engine takes them
    pub fn mediate(
        &self,
        tr: &mut Tracer,
        req: u64,
        base_schema: &str,
        chain: &[String],
        query: &Expr,
        db: &Database,
        gov: &mut Governor,
    ) -> Res<OkBody> {
        let core = tr.open("core.self", req, None);
        let (base, _) = self
            .engine
            .repo
            .latest_schema(base_schema)
            .map_err(|e| e.to_string())?;
        let viewsets = chain
            .iter()
            .map(|n| self.engine.repo.latest_viewset(n).map(|(v, _)| v))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let mediator = mm_runtime::Mediator::new(&base, viewsets.iter().collect())
            .with_telemetry(self.tel().clone());
        let plan = tr
            .span("runtime.mediate_plan", req, Some(core), || {
                mediator.plan_governed(gov)
            })
            .map_err(|e| e.to_string())?;
        let result = tr
            .span("runtime.mediate_answer", req, Some(core), || {
                mediator.answer_with_plan(&plan, query, db, gov)
            })
            .map_err(|e| e.to_string())?;
        tr.close(core);
        Ok(OkBody::Mediate {
            rows: result.rows,
            chained: matches!(result.mode, mm_runtime::MediationMode::Chained),
            degraded: result.degradation.is_some(),
        })
    }
}

fn reframe(payload: &Bytes) -> Res<RawFrame> {
    let mut buf = Vec::with_capacity(payload.len() + 16);
    write_frame(&mut buf, payload).map_err(|e| e.to_string())?;
    let frame = read_frame(&mut &buf[..], DEFAULT_MAX_FRAME_LEN).map_err(|e| e.to_string())?;
    if frame.crc_ok() {
        Ok(frame)
    } else {
        Err("replayed frame failed its checksum".into())
    }
}

/// Replay one wire request: client encode, framing, server decode, the
/// engine stage `exec`, server encode, framing, client decode. Returns
/// the request and response payload sizes.
pub fn replay(
    tr: &mut Tracer,
    req: u64,
    request: &Request,
    exec: impl FnOnce(&mut Tracer, Request) -> Res<OkBody>,
) -> Res<(u64, u64)> {
    let payload = tr.span("client.encode", req, None, || {
        encode_request(req, 0, 1, request)
    });
    let frame = tr.span("wire.frame", req, None, || reframe(&payload))?;
    let decoded = tr.span("server.decode", req, None, || -> Res<Request> {
        let head = parse_head(&frame.payload).map_err(|e| format!("{e:?}"))?;
        let body = frame.payload.slice(PRELUDE_LEN..frame.payload.len());
        decode_request(head.op, &mut Reader::new(body)).map_err(|e| e.to_string())
    })?;
    let body = exec(tr, decoded)?;
    let out = tr.span("server.encode", req, None, || encode_ok(req, &body));
    let back = tr.span("wire.frame", req, None, || reframe(&out))?;
    let (_, reply) = tr
        .span("client.decode", req, None, || decode_response(back.payload))
        .map_err(|e| e.to_string())?;
    reply.map_err(|(code, msg)| format!("replayed request failed with code {code}: {msg}"))?;
    Ok((payload.len() as u64, out.len() as u64))
}

/// One traced request: its id and op.
pub struct Traced {
    pub req: u64,
    pub op: &'static str,
}

/// Turn the traced run's spans into per-layer means (per `units`: the
/// workload's requests, or cycles on `ingest_cdc`), the unattributed
/// remainder, and a per-op reconciliation printed with the report.
/// `untraced` holds the round trips of the interleaved untraced
/// requests, op by op, for the tracing overhead.
pub fn reconcile(
    tr: &Tracer,
    traced: &[Traced],
    untraced: &BTreeMap<&'static str, Lat>,
    units: f64,
    report: &mut Report,
) {
    let own = tr.self_times();
    let mut rt: HashMap<u64, u64> = HashMap::new();
    let mut per_req: HashMap<u64, BTreeMap<&'static str, u64>> = HashMap::new();
    for (s, own_ns) in tr.spans.iter().zip(own) {
        if s.name == ROUNDTRIP {
            rt.insert(s.req, s.dur_ns());
        } else if let Some((_, metric)) = LAYER_OF.iter().find(|(n, _)| *n == s.name) {
            *per_req.entry(s.req).or_default().entry(metric).or_default() += own_ns;
        }
    }
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut unattributed = 0.0;
    let mut rt_total = 0.0;
    let mut by_op: BTreeMap<&'static str, (u64, f64, BTreeMap<&'static str, f64>)> =
        BTreeMap::new();
    for t in traced {
        let Some(&rt_ns) = rt.get(&t.req) else {
            continue;
        };
        let layers = per_req.remove(&t.req).unwrap_or_default();
        let attributed: u64 = layers.values().sum();
        let rest = rt_ns as f64 - attributed as f64;
        unattributed += rest;
        rt_total += rt_ns as f64;
        let row = by_op.entry(t.op).or_default();
        row.0 += 1;
        row.1 += rt_ns as f64;
        for (metric, ns) in layers {
            *totals.entry(metric).or_default() += ns as f64;
            *row.2.entry(metric).or_default() += ns as f64;
        }
        *row.2.entry("server.unattributed_us").or_default() += rest;
    }
    let per_unit = |ns: f64| if units > 0.0 { ns / units / 1e3 } else { 0.0 };
    for (_, metric) in LAYER_OF {
        report.set(metric, per_unit(totals.get(metric).copied().unwrap_or(0.0)));
    }
    report.set("server.unattributed_us", per_unit(unattributed));
    report.set("trace.roundtrip_us", per_unit(rt_total));
    let mut untraced_total = 0.0;
    let mut traced_total = 0.0;
    report.notes.push(
        "reconciliation (traced run; mean us per request of each op; self times + unattributed = round trip):"
            .to_string(),
    );
    for (op, (n, rt_sum, layers)) in &by_op {
        let n_f = *n as f64;
        let mut line = format!(
            "  {op:<12} n={n:<5} roundtrip {:>12.1} =",
            rt_sum / n_f / 1e3
        );
        let mut sum = 0.0;
        for (metric, ns) in layers {
            let us = ns / n_f / 1e3;
            sum += us;
            line.push_str(&format!(" {metric} {us:.1} +"));
        }
        line.pop();
        line.push_str(&format!("(sum {sum:.1})"));
        report.notes.push(line);
        if let Some(u) = untraced.get(op) {
            let (t_mean, u_mean) = (rt_sum / n_f / 1e3, u.mean_us().unwrap_or(0.0));
            traced_total += t_mean * n_f;
            untraced_total += u_mean * n_f;
            report.notes.push(format!(
                "  {op:<12} tracing overhead: traced mean {t_mean:.1} us - untraced mean {u_mean:.1} us ({} untraced) = {:.1} us",
                u.len(),
                t_mean - u_mean
            ));
        }
    }
    report.set(
        "trace.overhead_us",
        if units > 0.0 {
            (traced_total - untraced_total) / units
        } else {
            0.0
        },
    );
}

/// Server-side counters over the traced window, read through the
/// Metrics op: plan-cache outcomes, chase and CQ work per exchange,
/// batch parallelism and sharing, allocation, queueing and service.
/// `exchanges` counts every chase the window ran (batch slots
/// included); `requests` is the per-request base of the allocation
/// counts, which are process-wide (client decode included).
pub fn server_counters(
    report: &mut Report,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    exchanges: f64,
    batches: f64,
    requests: f64,
) {
    use crate::common::{delta, ratio};
    let d = |k: &str| delta(before, after, k);
    let hits = d("plan_cache_hits");
    let lookups = hits + d("plan_cache_misses") + d("plan_replans");
    report.set("core.plan_hit_ratio", ratio(hits, lookups));
    report.set("chase.rounds", ratio(d("chase_rounds"), exchanges));
    report.set("chase.firings", ratio(d("chase_firings"), exchanges));
    report.set("eval.hom_found", ratio(d("hom_found"), exchanges));
    report.set("eval.hom_pruned", ratio(d("hom_pruned"), exchanges));
    report.set("parallel.tasks", ratio(d("parallel_tasks"), batches));
    report.set("core.mqo_shared", ratio(d("mqo_shared_plans"), batches));
    report.set("instance.interned", ratio(d("alloc.interned"), requests));
    report.set("instance.tuples_alloc", ratio(d("alloc.tuples"), requests));
    let read = |k: &str| after.get(k).copied().unwrap_or(0) as f64;
    report.set("server.queue_wait_us.p50", read("server.queue_wait_us_p50"));
    report.set("server.queue_wait_us.p99", read("server.queue_wait_us_p99"));
    report.set("server.service_us.p50", read("server.service_us_p50"));
    report.set("server.service_us.p99", read("server.service_us_p99"));
}

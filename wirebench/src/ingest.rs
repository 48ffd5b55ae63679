//! `ingest_cdc`: writes beside reads. A durable engine over a
//! byte-counting [`MemStorage`] wrapper, auto-checkpointing so several
//! checkpoints land in every run, holds a 5·10⁴-tuple snowflake
//! instance. Three subscribers watch it: two join views (fact⋈customer,
//! fact⋈product) and one selection. One thread drives a writer
//! connection (`insert_batch` of 32 new fact rows) and a subscriber
//! connection (poll until every subscriber holds the commit, then ack
//! each), so order and counts repeat exactly. The run is a fixed batch
//! count, so the instance grows the same way every time.
//!
//! Oracles: a subscriber-side replica built from the deltas and
//! resyncs must equal a recompute of the views over the final instance,
//! and an engine reopened from the bytes the storage holds must contain
//! every acknowledged batch.
//!
//! [`MemStorage`]: mm_repository::MemStorage

use crate::common::*;
use crate::layers::{reconcile, replay, Replica, Traced, ROUNDTRIP};
use crate::report::Report;
use crate::stats::{median, Lat};
use crate::trace::Tracer;
use mm_engine::{Durability, Engine};
use mm_expr::{Expr, Predicate, ViewDef, ViewSet};
use mm_guard::{ExecBudget, ExecError, Governor};
use mm_instance::{Database, Tuple, Value};
use mm_metamodel::Schema;
use mm_propagate::{Notification, ResyncCause};
use mm_repository::codec::{Encode, Writer};
use mm_repository::{DurableOptions, MemStorage};
use mm_runtime::Delta;
use mm_server::protocol::{OkBody, Request};
use mm_server::{Client, ServerHandle};
use mm_workload::scale::snowflake_scale;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TUPLES: usize = 50_000;
const BATCH_ROWS: usize = 32;
/// Committed batches per second of `--seconds`: the fixed run length.
const BATCHES_PER_SECOND: u64 = 3;
/// WAL batches between auto-checkpoints. A cycle journals four (the
/// insert and three acks), so a checkpoint lands every fifth cycle:
/// an odd period, so traced and untraced cycles take turns paying it.
const CHECKPOINT_EVERY: u64 = 20;
const SETUP_REPS: usize = 11;
const INSTANCE: &str = "warehouse";
const POLL_MAX: u32 = 64;
/// Polls per subscriber and cycle before a commit that never arrives
/// counts the cycle as failed.
const POLLS_PER_CYCLE: u32 = 16;
/// The server's default per-event delta budget (`PropagateConfig`).
const DELTA_STEPS: u64 = 200_000;

fn options() -> DurableOptions {
    DurableOptions {
        checkpoint_every: Some(CHECKPOINT_EVERY),
    }
}

fn subscriptions() -> Vec<ViewSet> {
    let view = |name: &str, def: &str, expr: Expr| {
        let mut vs = ViewSet::new(SOURCE, name);
        vs.push(ViewDef::new(def, expr));
        vs
    };
    vec![
        view(
            "CdcCustomer",
            "fc",
            Expr::base("fact").join(Expr::base("customer"), &[("cust", "cid")]),
        ),
        view(
            "CdcProduct",
            "fp",
            Expr::base("fact").join(Expr::base("product"), &[("prod", "pid")]),
        ),
        view(
            "CdcChannel",
            "direct",
            Expr::base("fact").select(Predicate::col_eq_lit(
                "channel",
                "channel-0-direct-to-consumer",
            )),
        ),
    ]
}

/// One subscriber as the client sees it: its id and its replica of
/// the subscribed views.
struct Sub {
    id: u64,
    views: ViewSet,
    replica: Database,
    deltas: u64,
    resyncs: BTreeMap<String, u64>,
}

impl Sub {
    /// Apply notifications; returns the highest sequence seen.
    fn apply(&mut self, notes: Vec<Notification>) -> u64 {
        let mut top = 0;
        for n in notes {
            top = top.max(n.seq());
            match n {
                Notification::Delta { view_inserts, .. } => {
                    self.deltas += 1;
                    for (view, tuples) in view_inserts {
                        if let Some(rel) = self.replica.relation_mut(&view) {
                            for t in tuples {
                                rel.insert(t);
                            }
                        }
                    }
                }
                Notification::Resync { cause, views, .. } => {
                    *self.resyncs.entry(cause.to_string()).or_default() += 1;
                    self.replica = views;
                }
            }
        }
        top
    }
}

struct Live {
    storage: Arc<CountingStorage>,
    handle: ServerHandle,
    writer: Client,
    reader: Client,
    subs: Vec<Sub>,
}

/// Start a durable server, bulk-load the instance, subscribe, and take
/// every subscriber's bootstrap snapshot.
fn set_up(source: &Schema, db: &Database) -> Res<Live> {
    let storage = CountingStorage::new();
    let durable = Durability::Durable {
        storage: storage.clone(),
        options: options(),
    };
    let engine = wire_engine(durable)?;
    engine
        .add_schema(source.clone())
        .map_err(err("add schema"))?;
    let handle = start(engine)?;
    let mut writer = connect(&handle)?;
    let mut reader = connect(&handle)?;
    let loaded = writer
        .put_instance(INSTANCE, db)
        .map_err(err("put_instance"))?;
    let mut subs = Vec::new();
    for views in subscriptions() {
        let id = reader
            .subscribe(INSTANCE, &views)
            .map_err(err("subscribe"))?;
        let replica = Database::new(views.view_schema.clone());
        subs.push(Sub {
            id,
            views,
            replica,
            deltas: 0,
            resyncs: BTreeMap::new(),
        });
    }
    for sub in &mut subs {
        let (notes, _) = reader
            .poll(sub.id, POLL_MAX)
            .map_err(err("bootstrap poll"))?;
        let seq = sub.apply(notes);
        if seq < loaded {
            return Err(format!(
                "bootstrap of subscriber {} stopped at {seq} < {loaded}",
                sub.id
            ));
        }
        reader.ack(sub.id, seq).map_err(err("bootstrap ack"))?;
    }
    Ok(Live {
        storage,
        handle,
        writer,
        reader,
        subs,
    })
}

fn make_batch(rng: &mut Rng, first_fid: usize, customers: u64, products: u64) -> Vec<Tuple> {
    (0..BATCH_ROWS)
        .map(|j| {
            Tuple::from([
                Value::Int((first_fid + j) as i64),
                Value::Int(rng.below(customers) as i64),
                Value::Int(rng.below(products) as i64),
                Value::text(format!("channel-{}-direct-to-consumer", rng.below(6))),
            ])
        })
        .collect()
}

/// A subscriber's pending notification in the replay: the view inserts
/// of the last event, or `None` when its delta tripped the budget and a
/// resync is due.
type Queued = Option<Vec<(String, Vec<Tuple>)>>;

/// The replay's model of the propagator: per subscriber, whether the
/// last event's delta tripped the budget (a resync is pending), or the
/// delta it computed.
struct Model {
    schema: Schema,
    subs: Vec<(ViewSet, Queued)>,
}

fn replay_insert(
    tr: &mut Tracer,
    req: u64,
    rep: &Replica,
    model: &mut Model,
    old: &Database,
    inserts: Vec<(String, Vec<Tuple>)>,
) -> Res<(u64, u64)> {
    let request = Request::InsertBatch {
        instance: INSTANCE.to_string(),
        inserts,
    };
    replay(tr, req, &request, |tr, decoded| {
        let Request::InsertBatch { instance, inserts } = decoded else {
            return Err("replay decoded another op".into());
        };
        let core = tr.open("core.self", req, None);
        let seq = tr
            .span("repository.apply", req, Some(core), || {
                rep.engine
                    .repo
                    .apply_instance_delta(&instance, inserts.clone())
            })
            .map_err(err("replayed apply"))?;
        let publish = tr.open("propagate.publish", req, Some(core));
        let mut delta = Delta::new();
        for (rel, tuples) in inserts {
            for t in tuples {
                delta.insert(rel.clone(), t);
            }
        }
        let budget = ExecBudget::unbounded().with_steps(DELTA_STEPS);
        for (views, queued) in &mut model.subs {
            let mut gov = Governor::new(&budget);
            let mut out = Some(Vec::new());
            for v in &views.views {
                let r = tr.span("runtime.ivm_delta", req, Some(publish), || {
                    mm_runtime::view_insert_delta_governed(
                        &v.expr,
                        &model.schema,
                        old,
                        &delta,
                        &mut gov,
                    )
                });
                match r {
                    Ok(rel) => {
                        if let Some(o) = out.as_mut() {
                            o.push((v.name.clone(), rel.tuples().to_vec()));
                        }
                    }
                    Err(mm_eval::EvalError::Exec(ExecError::BudgetExhausted { .. })) => {
                        out = None;
                        break;
                    }
                    Err(e) => return Err(format!("replayed view delta: {e}")),
                }
            }
            *queued = out;
        }
        tr.close(publish);
        tr.close(core);
        Ok(OkBody::Committed { seq })
    })
}

fn replay_poll(
    tr: &mut Tracer,
    req: u64,
    id: u64,
    seq: u64,
    schema: &Schema,
    sub: &(ViewSet, Queued),
    db: &Database,
) -> Res<(u64, u64)> {
    replay(tr, req, &Request::Poll { id, max: POLL_MAX }, |tr, _| {
        let core = tr.open("core.self", req, None);
        let poll = tr.open("propagate.poll", req, Some(core));
        let note = match &sub.1 {
            Some(view_inserts) => Notification::Delta {
                seq,
                view_inserts: view_inserts.clone(),
            },
            None => {
                let mut views = Database::new(sub.0.view_schema.clone());
                for v in &sub.0.views {
                    let rel = tr
                        .span("runtime.materialize", req, Some(poll), || {
                            let mut gov = Governor::new(&ExecBudget::unbounded());
                            mm_eval::eval_governed(&v.expr, schema, db, &mut gov)
                        })
                        .map_err(err("replayed resync"))?;
                    views.insert_relation(v.name.clone(), rel);
                }
                Notification::Resync {
                    seq,
                    cause: ResyncCause::Budget,
                    views,
                }
            }
        };
        tr.close(poll);
        tr.close(core);
        Ok(OkBody::Notifications {
            notifications: vec![note],
            lagging: false,
        })
    })
}

fn replay_ack(
    tr: &mut Tracer,
    req: u64,
    rep: &Replica,
    local_id: u64,
    cursor: u64,
) -> Res<(u64, u64)> {
    replay(
        tr,
        req,
        &Request::Ack {
            id: local_id,
            cursor,
        },
        |tr, _| {
            let core = tr.open("core.self", req, None);
            tr.span("repository.ack", req, Some(core), || {
                rep.engine.repo.advance_cursor(local_id, cursor)
            })
            .map_err(err("replayed ack"))?;
            tr.close(core);
            Ok(OkBody::Done)
        },
    )
}

pub fn run(args: &Args) -> Res<Report> {
    let mut rng = Rng::new(args.seed, 3);
    let sc = snowflake_scale(TUPLES, rng.next());
    let customers = sc.db.relation("customer").map_or(1, |r| r.len()) as u64;
    let products = sc.db.relation("product").map_or(1, |r| r.len()) as u64;
    let mut next_fid = sc.db.relation("fact").map_or(0, |r| r.len());
    let batches = args.seconds * BATCHES_PER_SECOND;

    let mut setup = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let l = set_up(&sc.source, &sc.db)?;
        setup.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            let Live {
                handle,
                writer,
                reader,
                ..
            } = l;
            drop((writer, reader));
            stop(handle)?;
        } else {
            live = Some(l);
        }
    }
    let Live {
        storage,
        handle,
        mut writer,
        mut reader,
        mut subs,
    } = live.ok_or("no server")?;

    // The traced run's in-process side: a durable engine with the same
    // instance and subscriptions, and the propagator model.
    let replica = if args.trace {
        let durable = Durability::Durable {
            storage: CountingStorage::new(),
            options: options(),
        };
        let engine = wire_engine(durable)?;
        engine
            .add_schema(sc.source.clone())
            .map_err(err("replica schema"))?;
        engine
            .put_instance(INSTANCE, sc.db.clone())
            .map_err(err("replica load"))?;
        let mut ids = Vec::new();
        for views in subscriptions() {
            ids.push(
                engine
                    .subscribe(INSTANCE, views)
                    .map_err(err("replica subscribe"))?,
            );
        }
        Some((Replica::new(engine), ids))
    } else {
        None
    };
    let mut model = Model {
        schema: sc.source.clone(),
        subs: subscriptions().into_iter().map(|v| (v, None)).collect(),
    };

    let mut report = Report {
        oracles_ok: true,
        ..Report::default()
    };
    let (mut insert, mut lag, mut cycle) = (Lat::default(), Lat::default(), Lat::default());
    let mut untraced: BTreeMap<&'static str, Lat> = BTreeMap::new();
    let mut tr = Tracer::new(Instant::now());
    let mut traced = Vec::new();
    let (mut bytes_in, mut bytes_out, mut payload_bytes, mut traced_cycles) =
        (0u64, 0u64, 0u64, 0u64);
    let mut base = sc.db.clone();
    let mut probe = connect(&handle)?;
    let before = scrape(&mut probe)?;
    let (app0, wrote0) = storage.bytes();
    let mut side = Duration::ZERO;
    let mut req = 0u64;
    reset_peak_rss()?;
    let start_at = Instant::now();
    for b in 0..batches {
        let rows = make_batch(&mut rng, next_fid, customers, products);
        next_fid += BATCH_ROWS;
        let inserts = vec![("fact".to_string(), rows.clone())];
        let traced_now = replica.is_some() && b % 2 == 1;
        writer.set_tracing(traced_now);
        reader.set_tracing(traced_now);
        report.attempted += 1;
        let t0 = Instant::now();
        let committed = writer.insert_batch(INSTANCE, &inserts);
        let t1 = Instant::now();
        let seq = match committed {
            Ok(seq) => seq,
            Err(e) => {
                report.failed += 1;
                eprintln!("wirebench: insert_batch {b}: {e}");
                continue;
            }
        };
        let mut polls = Vec::new();
        let mut ok = true;
        for sub in &mut subs {
            for attempt in 1.. {
                if attempt > POLLS_PER_CYCLE {
                    ok = false;
                    eprintln!(
                        "wirebench: subscriber {} holds no notification for seq {seq} after {POLLS_PER_CYCLE} polls",
                        sub.id
                    );
                    break;
                }
                let p0 = Instant::now();
                let r = reader.poll(sub.id, POLL_MAX);
                polls.push((p0, Instant::now(), sub.id));
                match r {
                    Ok((notes, _)) => {
                        if sub.apply(notes) >= seq {
                            break;
                        }
                    }
                    Err(e) => {
                        ok = false;
                        eprintln!("wirebench: poll {} after batch {b}: {e}", sub.id);
                        break;
                    }
                }
            }
        }
        let t2 = Instant::now();
        let mut acks = Vec::new();
        for sub in &subs {
            let a0 = Instant::now();
            let r = reader.ack(sub.id, seq);
            acks.push((a0, Instant::now()));
            if let Err(e) = r {
                ok = false;
                eprintln!("wirebench: ack {} after batch {b}: {e}", sub.id);
            }
        }
        let s0 = Instant::now();
        if !ok {
            report.failed += 1;
        }
        let mut w = Writer::new();
        for t in &rows {
            t.encode(&mut w);
        }
        payload_bytes += w.finish().len() as u64;
        match &replica {
            Some((rep, ids)) if traced_now => {
                traced_cycles += 1;
                tr.record(ROUNDTRIP, req, t0, t1);
                traced.push(Traced {
                    req,
                    op: "insert_batch",
                });
                let (i, o) = replay_insert(&mut tr, req, rep, &mut model, &base, inserts.clone())?;
                (bytes_in, bytes_out) = (bytes_in + i, bytes_out + o);
                req += 1;
                let mut db = base.clone();
                for t in &rows {
                    db.insert("fact", t.clone());
                }
                for (p0, p1, sub_id) in &polls {
                    let n = subs.iter().position(|s| s.id == *sub_id).unwrap_or(0);
                    tr.record(ROUNDTRIP, req, *p0, *p1);
                    traced.push(Traced { req, op: "poll" });
                    let (i, o) = replay_poll(
                        &mut tr,
                        req,
                        *sub_id,
                        seq,
                        &model.schema,
                        &model.subs[n],
                        &db,
                    )?;
                    (bytes_in, bytes_out) = (bytes_in + i, bytes_out + o);
                    req += 1;
                }
                for (n, (a0, a1)) in acks.iter().enumerate() {
                    tr.record(ROUNDTRIP, req, *a0, *a1);
                    traced.push(Traced { req, op: "ack" });
                    let (i, o) = replay_ack(&mut tr, req, rep, ids[n], seq)?;
                    (bytes_in, bytes_out) = (bytes_in + i, bytes_out + o);
                    req += 1;
                }
            }
            Some((rep, ids)) => {
                rep.engine
                    .repo
                    .apply_instance_delta(INSTANCE, inserts)
                    .map_err(err("replica apply"))?;
                for id in ids {
                    rep.engine
                        .repo
                        .advance_cursor(*id, seq)
                        .map_err(err("replica ack"))?;
                }
                untraced.entry("insert_batch").or_default().push(t0, t1);
                for (p0, p1, _) in &polls {
                    untraced.entry("poll").or_default().push(*p0, *p1);
                }
                for (a0, a1) in &acks {
                    untraced.entry("ack").or_default().push(*a0, *a1);
                }
            }
            None => {}
        }
        if !traced_now {
            insert.push(t0, t1);
            lag.push(t1, t2);
            cycle.push(t0, t2);
        }
        for t in rows {
            base.insert("fact", t);
        }
        side += s0.elapsed();
    }
    let busy = start_at.elapsed().saturating_sub(side).as_secs_f64();
    let peak_rss = peak_rss_mb();
    let after = scrape(&mut probe)?;
    let (app1, wrote1) = storage.bytes();

    // Durability: reopen from only the bytes the storage holds now.
    let reopened = Engine::open_durable(MemStorage::from_files(storage.inner.dump()), options())
        .map_err(err("reopen from storage"))?;
    let durable_ok = match reopened.instance(INSTANCE) {
        Some(db) => base
            .relations()
            .all(|(name, rel)| db.relation(name).is_some_and(|r| r.set_eq(rel))),
        None => false,
    };
    drop(reopened);
    // CDC: every subscriber's replica equals a recompute over the final
    // instance.
    let mut cdc_ok = true;
    for sub in &subs {
        let expected = mm_eval::materialize_views(&sub.views, &sc.source, &base)
            .map_err(err("oracle recompute"))?;
        for v in &sub.views.views {
            let same = match (sub.replica.relation(&v.name), expected.relation(&v.name)) {
                (Some(a), Some(e)) => a.set_eq(e),
                _ => false,
            };
            cdc_ok &= same;
        }
    }
    drop((writer, reader, probe));
    stop(handle)?;
    report.oracles_ok = durable_ok && cdc_ok;
    if !durable_ok {
        eprintln!("wirebench: reopened engine is missing acknowledged batches");
    }
    if !cdc_ok {
        eprintln!("wirebench: a subscriber replica differs from the recomputed views");
    }

    let n = report.attempted as f64;
    let ok = n - report.failed as f64;
    report.set("setup_s", median(&setup));
    report.set("ops_per_s", ratio(ok, busy));
    report.set_opt("op.p50_us", cycle.pct_us(50.0));
    report.set_opt("op.p95_us", cycle.pct_us(95.0));
    report.set_opt("insert.p50_us", insert.pct_us(50.0));
    report.set_opt("insert.p95_us", insert.pct_us(95.0));
    report.set_opt("cdc_lag.p50_us", lag.pct_us(50.0));
    report.set_opt("cdc_lag.p95_us", lag.pct_us(95.0));
    report.set("failed_ratio", ratio(report.failed as f64, n));
    report.set("peak_rss_mb", peak_rss);
    let written = (app1 - app0 + wrote1 - wrote0) as f64;
    report.set("write_amp", ratio(written, payload_bytes as f64));
    let d = |k: &str| delta(&before, &after, k);
    report.notes.push(format!(
        "  {batches} batches of {BATCH_ROWS} rows, {} timed untraced; instance {} -> {} tuples; durable reopen {}; replicas {}; set-up runs {:?} s",
        cycle.len(),
        sc.db.total_tuples(),
        base.total_tuples(),
        if durable_ok { "ok" } else { "FAILED" },
        if cdc_ok { "ok" } else { "FAILED" },
        setup.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    for sub in &subs {
        report.notes.push(format!(
            "  subscriber {} ({}): {} deltas, resyncs {:?}",
            sub.id, sub.views.view_schema, sub.deltas, sub.resyncs
        ));
    }
    report.notes.push(format!(
        "  storage: {} WAL bytes + {} snapshot bytes for {payload_bytes} encoded tuple bytes; {} checkpoints",
        app1 - app0,
        wrote1 - wrote0,
        d("checkpoints")
    ));
    if args.trace {
        let c = traced_cycles as f64;
        let requests = traced.len() as f64;
        crate::layers::server_counters(&mut report, &before, &after, 0.0, 0.0, n);
        report.set(
            "repository.wal_bytes_per_batch",
            ratio((app1 - app0) as f64, n),
        );
        report.set("repository.checkpoints", d("checkpoints"));
        report.set(
            "repository.checkpoint_us",
            ratio(d("checkpoint_total_us"), d("checkpoint_count")),
        );
        let pushed = d("propagate.deltas_pushed");
        let resyncs = d("propagate.resyncs_budget") + d("propagate.resyncs_overflow");
        report.set("propagate.delta_ratio", ratio(pushed, pushed + resyncs));
        report.set("wire.bytes_in", ratio(bytes_in as f64, c));
        report.set("wire.bytes_out", ratio(bytes_out as f64, c));
        report.notes.push(format!(
            "  traced: {traced_cycles} cycles, {requests} requests"
        ));
        reconcile(&tr, &traced, &untraced, c, &mut report);
        write_spans(&tr, args)?;
    }
    Ok(report)
}

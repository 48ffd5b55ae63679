//! `small_mixed`: two connections, one thread each, closed loop over a
//! seeded mix of small requests — `exchange` ≈ 45 %, `mediate` ≈ 45 %
//! over the two-hop view chain, `exchange_batch` ≈ 10 % with 8 items
//! drawn from three instances (so slots repeat). Source sizes are drawn
//! skewed-small from {16, 64, 256, 1024} tuples, which crosses the
//! engine's 8× re-plan ratio. Oracles: exchange replies and batch slots
//! carry the canonical bytes of an in-process `Engine::exchange`;
//! mediate rows are set-equal to a local `Mediator::answer_chained`.

use crate::common::*;
use crate::layers::{reconcile, replay, server_counters, Replica, Traced, ROUNDTRIP};
use crate::report::Report;
use crate::stats::{median, Lat};
use crate::trace::Tracer;
use bytes::Bytes;
use mm_engine::{Durability, Engine};
use mm_guard::{ExecBudget, Governor};
use mm_instance::{Database, Relation};
use mm_server::protocol::{OkBody, Request, WireStats};
use mm_server::Client;
use mm_workload::scale::snowflake_scale;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SIZES: [usize; 4] = [16, 64, 256, 1024];
/// Draw weights of the sizes above: each size half as likely as the
/// next smaller one.
const WEIGHTS: [u64; 4] = [8, 4, 2, 1];
const PER_SIZE: usize = 4;
const SEGMENTS: u64 = 8;
const BATCH_ITEMS: usize = 8;
const CONNECTIONS: u64 = 2;
const SETUP_REPS: usize = 5;

/// Inputs and their oracle answers, shared by both connections.
struct Pool {
    dbs: Vec<Database>,
    exchange: Vec<Bytes>,
    /// `mediate[db * SEGMENTS + segment]`.
    mediate: Vec<Relation>,
}

enum Op {
    Exchange(usize),
    Mediate(usize, u64),
    Batch(Vec<usize>),
}

fn draw(rng: &mut Rng) -> usize {
    let mut r = rng.below(WEIGHTS.iter().sum());
    let mut size = 0;
    while r >= WEIGHTS[size] {
        r -= WEIGHTS[size];
        size += 1;
    }
    size * PER_SIZE + rng.below(PER_SIZE as u64) as usize
}

fn next_op(rng: &mut Rng) -> Op {
    match rng.below(100) {
        0..=44 => Op::Exchange(draw(rng)),
        45..=89 => Op::Mediate(draw(rng), rng.below(SEGMENTS)),
        _ => {
            let hot = [draw(rng), draw(rng), draw(rng)];
            Op::Batch(
                (0..BATCH_ITEMS)
                    .map(|_| hot[rng.below(3) as usize])
                    .collect(),
            )
        }
    }
}

/// What one connection measured.
#[derive(Default)]
struct Conn {
    lat: BTreeMap<&'static str, Lat>,
    all: Lat,
    attempted: u64,
    failed: u64,
    ok_per_s: f64,
    tracer: Option<Tracer>,
    traced: Vec<Traced>,
    steps: u64,
    fired: u64,
    target_tuples: u64,
    bytes_in: u64,
    bytes_out: u64,
    exchanges: u64,
    batches: u64,
}

fn chain() -> Vec<String> {
    CHAIN.iter().map(|s| s.to_string()).collect()
}

fn check(op: &Op, reply: &OkBody, pool: &Pool) -> bool {
    match (op, reply) {
        (Op::Exchange(k), OkBody::Exchange { db, .. }) => db_bytes(db) == pool.exchange[*k],
        (Op::Mediate(k, s), OkBody::Mediate { rows, .. }) => {
            rows.set_eq(&pool.mediate[*k * SEGMENTS as usize + *s as usize])
        }
        (Op::Batch(items), OkBody::Batch { slots }) => {
            slots.len() == items.len()
                && slots.iter().zip(items).all(
                    |(slot, k)| matches!(slot, Ok((db, _)) if db_bytes(db) == pool.exchange[*k]),
                )
        }
        _ => false,
    }
}

fn request(op: &Op, pool: &Pool) -> Request {
    let item = |k: usize| (MAPPING.to_string(), TARGET.to_string(), pool.dbs[k].clone());
    match op {
        Op::Exchange(k) => {
            let (mapping, target_schema, source_db) = item(*k);
            Request::Exchange {
                mapping,
                target_schema,
                source_db,
            }
        }
        Op::Mediate(k, s) => Request::Mediate {
            base_schema: SOURCE.to_string(),
            chain: chain(),
            query: segment_query(*s),
            base_db: pool.dbs[*k].clone(),
        },
        Op::Batch(items) => Request::ExchangeBatch {
            items: items.iter().map(|k| item(*k)).collect(),
        },
    }
}

/// Send `op` through the client's typed call and hand back its body.
fn call(client: &mut Client, op: &Op, pool: &Pool) -> Result<OkBody, String> {
    let e = |e: mm_server::ClientError| e.to_string();
    match request(op, pool) {
        Request::Exchange {
            mapping,
            target_schema,
            source_db,
        } => client
            .exchange(&mapping, &target_schema, &source_db)
            .map(|(db, stats)| OkBody::Exchange { db, stats })
            .map_err(e),
        Request::Mediate {
            base_schema,
            chain,
            query,
            base_db,
        } => client
            .mediate(&base_schema, &chain, &query, &base_db)
            .map(|r| OkBody::Mediate {
                rows: r.rows,
                chained: r.chained,
                degraded: r.degraded,
            })
            .map_err(e),
        Request::ExchangeBatch { items } => client
            .exchange_batch(&items)
            .map(|slots| OkBody::Batch { slots })
            .map_err(e),
        _ => Err("not a small_mixed op".into()),
    }
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Exchange(_) => "exchange",
        Op::Mediate(..) => "mediate",
        Op::Batch(_) => "batch",
    }
}

/// Replay one traced request through the layers, accumulating the
/// replay-side counters on `c`.
fn replay_op(
    c: &mut Conn,
    tr: &mut Tracer,
    req: u64,
    op: &Op,
    pool: &Pool,
    rep: &Replica,
) -> Res<()> {
    let mut gov = Governor::new(&ExecBudget::unbounded());
    let (mut fired, mut target) = (0u64, 0u64);
    let (bin, bout) = replay(tr, req, &request(op, pool), |tr, decoded| match decoded {
        Request::Exchange {
            mapping,
            target_schema,
            source_db,
        } => {
            let (db, stats) = rep.exchange(
                tr,
                req,
                None,
                &mapping,
                &target_schema,
                &source_db,
                &mut gov,
            )?;
            fired += stats.fired as u64;
            target += db.total_tuples() as u64;
            Ok(OkBody::Exchange {
                db,
                stats: WireStats::from(stats),
            })
        }
        Request::Mediate {
            base_schema,
            chain,
            query,
            base_db,
        } => rep.mediate(tr, req, &base_schema, &chain, &query, &base_db, &mut gov),
        Request::ExchangeBatch { items } => {
            let core = tr.open("core.self", req, None);
            let mut slots = Vec::with_capacity(items.len());
            for (mapping, target_schema, db) in &items {
                let (out, stats) =
                    rep.exchange(tr, req, Some(core), mapping, target_schema, db, &mut gov)?;
                fired += stats.fired as u64;
                target += out.total_tuples() as u64;
                slots.push(Ok((out, WireStats::from(stats))));
            }
            tr.close(core);
            Ok(OkBody::Batch { slots })
        }
        _ => Err("replay decoded another op".into()),
    })?;
    c.steps += gov.steps_consumed();
    c.fired += fired;
    c.target_tuples += target;
    c.bytes_in += bin;
    c.bytes_out += bout;
    Ok(())
}

fn drive(
    conn: u64,
    mut client: Client,
    args: &Args,
    pool: &Pool,
    replica: Option<&Replica>,
    epoch: Instant,
    deadline: Instant,
) -> Res<Conn> {
    let mut rng = Rng::new(args.seed, 100 + conn);
    let mut c = Conn {
        tracer: replica.map(|_| Tracer::new(epoch)),
        ..Conn::default()
    };
    let mut side = Duration::ZERO;
    let start_at = Instant::now();
    let mut i = 0u64;
    while Instant::now() < deadline {
        let op = next_op(&mut rng);
        let req = (conn << 40) | i;
        let traced_now = replica.is_some() && i % 2 == 1;
        client.set_tracing(traced_now);
        let t0 = Instant::now();
        let reply = call(&mut client, &op, pool);
        let t1 = Instant::now();
        c.attempted += 1;
        match reply {
            Ok(body) if check(&op, &body, pool) => {}
            Ok(_) => {
                c.failed += 1;
                eprintln!(
                    "wirebench: connection {conn} {} {i} differs from the oracle",
                    op_name(&op)
                );
            }
            Err(e) => {
                c.failed += 1;
                eprintln!("wirebench: connection {conn} {} {i}: {e}", op_name(&op));
            }
        }
        match &op {
            Op::Batch(items) => {
                c.batches += 1;
                c.exchanges += items.len() as u64;
            }
            Op::Exchange(_) => c.exchanges += 1,
            Op::Mediate(..) => {}
        }
        match (traced_now, replica, c.tracer.take()) {
            (true, Some(rep), Some(mut tr)) => {
                tr.record(ROUNDTRIP, req, t0, t1);
                c.traced.push(Traced {
                    req,
                    op: op_name(&op),
                });
                let r = replay_op(&mut c, &mut tr, req, &op, pool, rep);
                c.tracer = Some(tr);
                r?;
            }
            (_, _, tr) => {
                c.tracer = tr;
                c.lat.entry(op_name(&op)).or_default().push(t0, t1);
                c.all.push(t0, t1);
            }
        }
        side += t1.elapsed();
        i += 1;
    }
    let busy = start_at.elapsed().saturating_sub(side).as_secs_f64();
    c.ok_per_s = ratio((c.attempted - c.failed) as f64, busy);
    Ok(c)
}

pub fn run(args: &Args) -> Res<Report> {
    let mut seeds = Rng::new(args.seed, 2);
    let scenarios: Vec<_> = SIZES
        .iter()
        .flat_map(|&n| (0..PER_SIZE).map(move |_| n))
        .map(|n| snowflake_scale(n, seeds.next()))
        .collect();
    let oracle = Engine::new();
    register(&oracle, &scenarios[0])?;
    let (hop1, hop2) = view_chain();
    let mediator = mm_runtime::Mediator::new(&scenarios[0].source, vec![&hop1, &hop2]);
    let mut pool = Pool {
        dbs: Vec::new(),
        exchange: Vec::new(),
        mediate: Vec::new(),
    };
    for sc in &scenarios {
        let (out, _) = oracle
            .exchange(MAPPING, TARGET, &sc.db)
            .map_err(err("oracle exchange"))?;
        pool.exchange.push(db_bytes(&out));
        for s in 0..SEGMENTS {
            let rows = mediator
                .answer_chained(&segment_query(s), &sc.db)
                .map_err(err("oracle mediation"))?;
            pool.mediate.push(rows);
        }
        pool.dbs.push(sc.db.clone());
    }
    drop(oracle);

    // Set-up: engine, artifacts, server, one warm-up request of each op
    // per connection. Repeated; the last one serves the run.
    let warm = [Op::Exchange(0), Op::Mediate(0, 0), Op::Batch(vec![0, 1])];
    let mut setup = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let engine = wire_engine(Durability::Ephemeral)?;
        register(&engine, &scenarios[0])?;
        let handle = start(engine)?;
        let mut clients = Vec::new();
        let mut replies = Vec::new();
        for _ in 0..CONNECTIONS {
            let mut client = connect(&handle)?;
            for op in &warm {
                replies.push(call(&mut client, op, &pool)?);
            }
            clients.push(client);
        }
        setup.push(t0.elapsed().as_secs_f64());
        if !replies
            .iter()
            .zip(warm.iter().cycle())
            .all(|(r, op)| check(op, r, &pool))
        {
            return Err("warm-up reply differs from the in-process oracle".into());
        }
        if rep + 1 < SETUP_REPS {
            drop(clients);
            stop(handle)?;
        } else {
            live = Some((handle, clients));
        }
    }
    let (handle, mut clients) = live.ok_or("no server")?;
    let replica = if args.trace {
        let engine = wire_engine(Durability::Ephemeral)?;
        register(&engine, &scenarios[0])?;
        Some(Replica::new(engine))
    } else {
        None
    };

    let mut probe = connect(&handle)?;
    let before = scrape(&mut probe)?;
    reset_peak_rss()?;
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs(args.seconds);
    let conns: Vec<Res<Conn>> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .drain(..)
            .enumerate()
            .map(|(n, client)| {
                let (pool, replica) = (&pool, replica.as_ref());
                s.spawn(move || drive(n as u64, client, args, pool, replica, epoch, deadline))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("connection thread panicked".into()))
            })
            .collect()
    });
    let peak_rss = peak_rss_mb();
    let after = scrape(&mut probe)?;
    drop(probe);
    stop(handle)?;

    let mut report = Report {
        oracles_ok: true,
        ..Report::default()
    };
    let mut lat: BTreeMap<&'static str, Lat> = BTreeMap::new();
    let mut all = Lat::default();
    let mut tr = Tracer::new(epoch);
    let mut traced = Vec::new();
    let mut sum = Conn::default();
    for c in conns {
        let c = c?;
        for (op, l) in &c.lat {
            lat.entry(op).or_default().extend(l);
        }
        all.extend(&c.all);
        if let Some(t) = c.tracer {
            tr.absorb(t);
        }
        traced.extend(c.traced);
        report.attempted += c.attempted;
        report.failed += c.failed;
        sum.ok_per_s += c.ok_per_s;
        sum.steps += c.steps;
        sum.fired += c.fired;
        sum.target_tuples += c.target_tuples;
        sum.bytes_in += c.bytes_in;
        sum.bytes_out += c.bytes_out;
        sum.exchanges += c.exchanges;
        sum.batches += c.batches;
    }
    let n = report.attempted as f64;
    report.set("setup_s", median(&setup));
    report.set("ops_per_s", sum.ok_per_s);
    report.set_opt("op.p50_us", all.pct_us(50.0));
    report.set_opt("op.p95_us", all.pct_us(95.0));
    for (op, p50, p95) in [
        ("exchange", "exchange.p50_us", "exchange.p95_us"),
        ("mediate", "mediate.p50_us", "mediate.p95_us"),
        ("batch", "batch.p50_us", "batch.p95_us"),
    ] {
        if let Some(l) = lat.get(op) {
            report.set_opt(p50, l.pct_us(50.0));
            report.set_opt(p95, l.pct_us(95.0));
        }
    }
    report.set("failed_ratio", ratio(report.failed as f64, n));
    report.set("peak_rss_mb", peak_rss);
    report.notes.push(format!(
        "  {} requests ({}), {} timed untraced; set-up runs {:?} s",
        report.attempted,
        lat.iter()
            .map(|(op, l)| format!("{op} {}", l.len()))
            .collect::<Vec<_>>()
            .join(", "),
        all.len(),
        setup
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    if args.trace {
        let t = traced.len() as f64;
        server_counters(
            &mut report,
            &before,
            &after,
            sum.exchanges as f64,
            sum.batches as f64,
            n,
        );
        report.set("guard.steps_per_request", ratio(sum.steps as f64, t));
        report.set(
            "chase.target_per_firing",
            ratio(sum.target_tuples as f64, sum.fired as f64),
        );
        report.set("wire.bytes_in", ratio(sum.bytes_in as f64, t));
        report.set("wire.bytes_out", ratio(sum.bytes_out as f64, t));
        report.notes.push(format!(
            "  re-plans in the window: {} of {} plan lookups",
            delta(&before, &after, "plan_replans"),
            delta(&before, &after, "plan_cache_hits")
                + delta(&before, &after, "plan_cache_misses")
                + delta(&before, &after, "plan_replans"),
        ));
        reconcile(&tr, &traced, &lat, t, &mut report);
        write_spans(&tr, args)?;
    }
    Ok(report)
}

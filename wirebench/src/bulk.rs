//! `bulk_exchange`: one connection, closed loop, each request an
//! `exchange("snow", "SnowTgt", db)` over a 2·10⁴-tuple snowflake
//! instance, rotating through four instances made from the seed. Every
//! reply must carry the same canonical codec bytes as an in-process
//! `Engine::exchange` of the same instance, computed at set-up.

use crate::common::*;
use crate::layers::{reconcile, replay, server_counters, Replica, Traced, ROUNDTRIP};
use crate::report::Report;
use crate::stats::{median, Lat};
use crate::trace::Tracer;
use bytes::Bytes;
use mm_engine::{Durability, Engine};
use mm_guard::{ExecBudget, Governor};
use mm_server::protocol::{OkBody, Request, WireStats};
use mm_workload::scale::{snowflake_scale, ScaleScenario};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const TUPLES: usize = 20_000;
const INSTANCES: usize = 4;
const SETUP_REPS: usize = 15;

pub fn run(args: &Args) -> Res<Report> {
    let mut seeds = Rng::new(args.seed, 1);
    let scenarios: Vec<ScaleScenario> = (0..INSTANCES)
        .map(|_| snowflake_scale(TUPLES, seeds.next()))
        .collect();
    let oracle = Engine::new();
    register(&oracle, &scenarios[0])?;
    let expected: Vec<Bytes> = scenarios
        .iter()
        .map(|sc| {
            oracle
                .exchange(MAPPING, TARGET, &sc.db)
                .map(|(db, _)| db_bytes(&db))
                .map_err(|e| e.to_string())
        })
        .collect::<Res<_>>()?;
    drop(oracle);

    // Set-up: engine, artifacts, server, connection, and one warm-up
    // exchange (plan compiled and cached). Repeated; the last one serves
    // the run.
    let mut setup = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let engine = wire_engine(Durability::Ephemeral)?;
        register(&engine, &scenarios[0])?;
        let handle = start(engine)?;
        let mut client = connect(&handle)?;
        let (db, _) = client
            .exchange(MAPPING, TARGET, &scenarios[0].db)
            .map_err(err("warm-up exchange"))?;
        setup.push(t0.elapsed().as_secs_f64());
        if db_bytes(&db) != expected[0] {
            return Err("warm-up exchange differs from the in-process oracle".into());
        }
        if rep + 1 < SETUP_REPS {
            drop(client);
            stop(handle)?;
        } else {
            live = Some((handle, client));
        }
    }
    let (handle, mut client) = live.ok_or("no server")?;
    let replica = if args.trace {
        let engine = wire_engine(Durability::Ephemeral)?;
        register(&engine, &scenarios[0])?;
        Some(Replica::new(engine))
    } else {
        None
    };

    let mut report = Report {
        oracles_ok: true,
        ..Report::default()
    };
    let mut lat = Lat::default();
    let mut tr = Tracer::new(Instant::now());
    let mut traced = Vec::new();
    let (mut steps, mut fired, mut target_tuples, mut bytes_in, mut bytes_out) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut side = Duration::ZERO;
    let before = scrape(&mut client)?;
    reset_peak_rss()?;
    let start_at = Instant::now();
    let deadline = start_at + Duration::from_secs(args.seconds);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let k = (i as usize) % INSTANCES;
        let db = &scenarios[k].db;
        // Alternate traced and untraced passes over the instances, so
        // both sides see every instance equally often.
        let traced_now = replica.is_some() && (i as usize / INSTANCES) % 2 == 1;
        client.set_tracing(traced_now);
        let t0 = Instant::now();
        let reply = client.exchange(MAPPING, TARGET, db);
        let t1 = Instant::now();
        report.attempted += 1;
        match reply {
            Ok((out, _)) if db_bytes(&out) == expected[k] => {}
            Ok(_) => {
                report.failed += 1;
                eprintln!("wirebench: exchange {i} differs from the oracle");
            }
            Err(e) => {
                report.failed += 1;
                eprintln!("wirebench: exchange {i}: {e}");
            }
        }
        if let (true, Some(rep)) = (traced_now, &replica) {
            tr.record(ROUNDTRIP, i, t0, t1);
            traced.push(Traced {
                req: i,
                op: "exchange",
            });
            let request = Request::Exchange {
                mapping: MAPPING.to_string(),
                target_schema: TARGET.to_string(),
                source_db: db.clone(),
            };
            let (bin, bout) = replay(&mut tr, i, &request, |tr, decoded| {
                let Request::Exchange {
                    mapping,
                    target_schema,
                    source_db,
                } = decoded
                else {
                    return Err("replay decoded another op".into());
                };
                let mut gov = Governor::new(&ExecBudget::unbounded());
                let (out, stats) =
                    rep.exchange(tr, i, None, &mapping, &target_schema, &source_db, &mut gov)?;
                steps += gov.steps_consumed();
                fired += stats.fired as u64;
                target_tuples += out.total_tuples() as u64;
                Ok(OkBody::Exchange {
                    db: out,
                    stats: WireStats::from(stats),
                })
            })?;
            bytes_in += bin;
            bytes_out += bout;
        } else {
            lat.push(t0, t1);
        }
        side += t1.elapsed();
        i += 1;
    }
    let busy = start_at.elapsed().saturating_sub(side).as_secs_f64();
    let peak_rss = peak_rss_mb();
    let after = scrape(&mut client)?;
    drop(client);
    stop(handle)?;

    let n = report.attempted as f64;
    let ok = n - report.failed as f64;
    let ops_per_s = ratio(ok, busy);
    report.set("setup_s", median(&setup));
    report.set("ops_per_s", ops_per_s);
    report.set_opt("op.p50_us", lat.pct_us(50.0));
    report.set_opt("op.p95_us", lat.pct_us(95.0));
    report.set_opt("exchange.p50_us", lat.pct_us(50.0));
    report.set_opt("exchange.p95_us", lat.pct_us(95.0));
    report.set("failed_ratio", ratio(report.failed as f64, n));
    report.set("peak_rss_mb", peak_rss);
    report.notes.push(format!(
        "  {} exchanges, {} timed untraced; set-up runs {:?} s",
        report.attempted,
        lat.len(),
        setup
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    if args.trace {
        let t = traced.len() as f64;
        server_counters(&mut report, &before, &after, n, 0.0, n);
        report.set("guard.steps_per_request", ratio(steps as f64, t));
        report.set(
            "chase.target_per_firing",
            ratio(target_tuples as f64, fired as f64),
        );
        report.set("wire.bytes_in", ratio(bytes_in as f64, t));
        report.set("wire.bytes_out", ratio(bytes_out as f64, t));
        let untraced = BTreeMap::from([("exchange", lat)]);
        reconcile(&tr, &traced, &untraced, t, &mut report);
        write_spans(&tr, args)?;
    }
    Ok(report)
}

//! Shared set-up: the snowflake artifacts, the server, the counting
//! storage, metric scrapes, and the report every workload fills in.

use bytes::Bytes;
use mm_engine::{Durability, Engine, EngineConfig};
use mm_expr::{Expr, Mapping, Predicate, ViewDef, ViewSet};
use mm_instance::Database;
use mm_repository::codec::Writer;
use mm_repository::{MemStorage, Storage, StorageError};
use mm_server::{Client, Server, ServerConfig, ServerHandle};
use mm_telemetry::{RingCollector, Telemetry};
use mm_workload::scale::ScaleScenario;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub type Res<T> = Result<T, String>;

/// `map_err` helper: prefix an error with what was being done.
pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so a seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

pub const MAPPING: &str = "snow";
pub const TARGET: &str = "SnowTgt";
pub const SOURCE: &str = "SnowSrc";
pub const CHAIN: [&str; 2] = ["hop1", "hop2"];

/// The paper §5 two-hop view chain over the snowflake source: hop 1
/// denormalizes facts through each dimension, hop 2 projects them.
pub fn view_chain() -> (ViewSet, ViewSet) {
    let mut hop1 = ViewSet::new(SOURCE, "Hop1");
    hop1.push(ViewDef::new(
        "fc",
        Expr::base("fact").join(Expr::base("customer"), &[("cust", "cid")]),
    ));
    hop1.push(ViewDef::new(
        "fp",
        Expr::base("fact").join(Expr::base("product"), &[("prod", "pid")]),
    ));
    let mut hop2 = ViewSet::new("Hop1", "Hop2");
    hop2.push(ViewDef::new(
        "seg_sales",
        Expr::base("fc").project(&["fid", "city", "segment", "channel"]),
    ));
    hop2.push(ViewDef::new(
        "cat_sales",
        Expr::base("fp").project(&["fid", "category", "brand"]),
    ));
    (hop1, hop2)
}

/// A query against the top of the chain: one segment's sales by city
/// and channel.
pub fn segment_query(segment: u64) -> Expr {
    let seg = format!("segment-{segment}-enterprise-accounts");
    Expr::base("seg_sales")
        .select(Predicate::col_eq_lit("segment", seg.as_str()))
        .project(&["city", "channel"])
}

/// Register the snowflake schemas, the `snow` mapping and the view
/// chain on `engine`.
pub fn register(engine: &Engine, sc: &ScaleScenario) -> Res<()> {
    engine
        .add_schema(sc.source.clone())
        .map_err(|e| e.to_string())?;
    engine
        .add_schema(sc.target.clone())
        .map_err(|e| e.to_string())?;
    let mut mapping = Mapping::new(sc.source.name.clone(), sc.target.name.clone());
    for t in sc.tgds.clone() {
        mapping.push_tgd(t);
    }
    engine
        .add_mapping(MAPPING, mapping)
        .map_err(|e| e.to_string())?;
    let (hop1, hop2) = view_chain();
    engine
        .add_viewset(CHAIN[0], hop1)
        .map_err(|e| e.to_string())?;
    engine
        .add_viewset(CHAIN[1], hop2)
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The engine the server runs: default knobs, telemetry on (a bounded
/// ring, so the Metrics op has histograms to read), storage as given.
pub fn wire_engine(durability: Durability) -> Res<Engine> {
    Engine::with_config(EngineConfig {
        telemetry: Telemetry::new(RingCollector::with_capacity(4_096)),
        durability,
        ..EngineConfig::default()
    })
    .map_err(|e| e.to_string())
}

pub fn start(engine: Engine) -> Res<ServerHandle> {
    Server::start(engine, ServerConfig::default()).map_err(|e| format!("server start: {e}"))
}

pub fn connect(handle: &ServerHandle) -> Res<Client> {
    let mut c = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    c.set_tracing(false);
    Ok(c)
}

pub fn stop(handle: ServerHandle) -> Res<()> {
    handle
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))
}

/// The server's metrics, read through the Metrics op.
pub fn scrape(client: &mut Client) -> Res<BTreeMap<String, u64>> {
    Ok(client
        .metrics()
        .map_err(|e| format!("metrics: {e}"))?
        .into_iter()
        .collect())
}

/// Counter growth between two scrapes.
pub fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, key: &str) -> f64 {
    let b = before.get(key).copied().unwrap_or(0);
    let a = after.get(key).copied().unwrap_or(0);
    a.saturating_sub(b) as f64
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Canonical codec bytes of an instance.
pub fn db_bytes(db: &Database) -> Bytes {
    let mut w = Writer::new();
    mm_server::protocol::encode_database(&mut w, db);
    w.finish()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Reset the peak resident set to the current one, so that a later
/// [`peak_rss_mb`] covers only what ran in between. Memory the set-up
/// freed is first handed back to the OS (glibc `malloc_trim`), so the
/// starting point is what is live, not what the allocator kept from
/// the discarded set-ups. Then `5` goes to `/proc/self/clear_refs`.
pub fn reset_peak_rss() -> Res<()> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no
    // pointers and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").map_err(err("reset peak RSS"))
}

/// Peak resident set of this process (VmHWM) since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// [`MemStorage`] that counts the bytes written to it, split into WAL
/// appends and whole-file writes (snapshots). No device flushes: the
/// write amplification it reports is bytes, not disk time.
pub struct CountingStorage {
    pub inner: Arc<MemStorage>,
    pub appended: AtomicU64,
    pub written: AtomicU64,
}

impl CountingStorage {
    pub fn new() -> Arc<CountingStorage> {
        Arc::new(CountingStorage {
            inner: MemStorage::new(),
            appended: AtomicU64::new(0),
            written: AtomicU64::new(0),
        })
    }

    pub fn bytes(&self) -> (u64, u64) {
        (
            self.appended.load(Ordering::Relaxed),
            self.written.load(Ordering::Relaxed),
        )
    }
}

impl Storage for CountingStorage {
    fn read(&self, file: &str) -> Result<Option<Bytes>, StorageError> {
        self.inner.read(file)
    }
    fn write(&self, file: &str, data: &[u8]) -> Result<(), StorageError> {
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write(file, data)
    }
    fn append(&self, file: &str, data: &[u8]) -> Result<(), StorageError> {
        self.appended
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(file, data)
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        self.inner.rename(from, to)
    }
    fn delete(&self, file: &str) -> Result<(), StorageError> {
        self.inner.delete(file)
    }
    fn truncate(&self, file: &str, len: usize) -> Result<(), StorageError> {
        self.inner.truncate(file, len)
    }
}

/// Write the traced run's spans as JSON lines under `wirebench/out/`.
pub fn write_spans(tr: &crate::trace::Tracer, args: &Args) -> Res<()> {
    let path = format!(
        "wirebench/out/spans-{}-seed{}.jsonl",
        args.workload, args.seed
    );
    tr.write_jsonl(std::path::Path::new(&path))
        .map_err(|e| format!("{path}: {e}"))
}

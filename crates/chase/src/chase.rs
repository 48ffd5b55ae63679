//! The chase procedure over tgds and egds.
//!
//! Since PR 2 the chase runs on compiled [`TgdPlan`]s (see
//! [`crate::plan`]): bodies and head-satisfaction checks execute as
//! indexed slot-binding joins, and the general chase is *semi-naive* —
//! after the first round each tgd body is only instantiated against
//! bindings touching at least one tuple inserted since that tgd's last
//! evaluation. Results are bit-identical (same tuples, same labeled-null
//! ids, same stats) to the naive full-reevaluation chase, which is kept
//! as [`chase_st_reference`]/[`chase_general_reference`] for
//! differential testing and benchmarking.

use crate::explain::{ChaseExplain, RoundExplain};
use crate::plan::{ChaseProgram, TgdPlan};
use mm_eval::plan::{CqPlan, ExecOptions, VarTable};
use mm_expr::{Atom, Tgd};
use mm_guard::{ExecBudget, ExecError, Governor};
use mm_instance::{Database, Tuple, Value};
use mm_metamodel::Schema;
use mm_telemetry::{Counter, Hist, Span, Telemetry, Timer};
use std::collections::HashMap;
use std::fmt;

/// An equality-generating dependency: body → x = y for two body variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Egd {
    pub body: Vec<Atom>,
    pub left: String,
    pub right: String,
}

/// Derive the egds implied by a schema's key constraints: for a key on
/// columns K of relation R, two R-atoms agreeing on K must agree on every
/// other column. Chasing with these equates the labeled nulls that the
/// key forces together (the paper's §2 target-constraint reasoning).
pub fn egds_from_keys(schema: &Schema) -> Vec<Egd> {
    let mut out = Vec::new();
    for c in &schema.constraints {
        let mm_metamodel::Constraint::Key(k) = c else { continue };
        let Some(layout) = schema.instance_layout(&k.element) else { continue };
        // two atoms sharing variables on the key positions, distinct
        // variables elsewhere
        let mk_terms = |tag: &str| -> Vec<mm_expr::Term> {
            layout
                .iter()
                .map(|a| {
                    if k.attributes.contains(&a.name) {
                        mm_expr::Term::var(format!("k_{}", a.name))
                    } else {
                        mm_expr::Term::var(format!("{tag}_{}", a.name))
                    }
                })
                .collect()
        };
        for a in &layout {
            if k.attributes.contains(&a.name) {
                continue;
            }
            out.push(Egd {
                body: vec![
                    Atom::new(k.element.clone(), mk_terms("l")),
                    Atom::new(k.element.clone(), mk_terms("r")),
                ],
                left: format!("l_{}", a.name),
                right: format!("r_{}", a.name),
            });
        }
    }
    out
}

/// Statistics of a chase run (reported by the EQ7 bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Number of tgd firings that inserted at least one tuple.
    pub fired: usize,
    /// Number of fixpoint rounds.
    pub rounds: usize,
    /// Labeled nulls minted.
    pub nulls: usize,
}

/// Outcome of a general chase that ran to its end. Running out of
/// rounds or any other budget is not an outcome but a [`ChaseFailure`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChaseOutcome {
    /// Fixpoint reached: the database satisfies all dependencies.
    Done(ChaseStats),
    /// An egd tried to equate two distinct constants — no solution
    /// exists. `stats` is the work done up to and including that round.
    Failed { egd_index: usize, stats: ChaseStats },
}

impl ChaseOutcome {
    /// The work the run did, whichever way it ended.
    pub fn stats(&self) -> ChaseStats {
        match self {
            ChaseOutcome::Done(stats) | ChaseOutcome::Failed { stats, .. } => *stats,
        }
    }
}

impl fmt::Display for ChaseOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseOutcome::Done(s) => {
                write!(f, "done: {} firings, {} rounds, {} nulls", s.fired, s.rounds, s.nulls)
            }
            ChaseOutcome::Failed { egd_index, .. } => write!(f, "failed at egd #{egd_index}"),
        }
    }
}

/// A governed chase that could not finish: the typed resource error plus
/// the statistics of the partial run (work done before the trip). For
/// [`chase_general`] the partially chased database is left in place, so
/// callers can inspect or discard the partial instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaseFailure {
    pub error: ExecError,
    pub stats: ChaseStats,
}

impl fmt::Display for ChaseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chase aborted after {} firings / {} rounds: {}",
            self.stats.fired, self.stats.rounds, self.error
        )
    }
}

impl std::error::Error for ChaseFailure {}

impl From<ChaseFailure> for ExecError {
    fn from(f: ChaseFailure) -> Self {
        f.error
    }
}

/// How one chase runs. None of these choices changes the result: the
/// universal instance, its labeled-null ids and the [`ChaseStats`] are
/// bit-identical for every combination (the reference oracles are the
/// spec). Whether join orders are greedy or cost-based is not a choice
/// here — it was made when the [`ChaseProgram`] was compiled.
pub struct Run<'a> {
    /// The meter every join probe, head check and insert is charged to.
    /// A budget becomes `Governor::new(&budget)` at the caller; a batch
    /// hands each request a governor forked off one shared meter.
    pub gov: &'a mut Governor,
    /// Workers for each round's body matching. `1` is sequential; more
    /// workers probe read-only index snapshots and merge their matches
    /// back in the sequential enumeration order, while firing (where
    /// nulls are minted) and the egd pass stay sequential.
    pub threads: usize,
    /// Spans, counters and timers (`chase.st` / `chase.general`).
    /// [`Telemetry::disabled`] costs one branch.
    pub tel: &'a Telemetry,
    /// When set, receives the run's [`ChaseExplain`] on success: per-tgd
    /// join orders explained against the pre-chase database, per-round
    /// deltas, the thread count asked for and the re-plans performed.
    pub explain: Option<&'a mut ChaseExplain>,
    /// Adaptive re-optimization: at every round boundary (a governor
    /// safepoint; the source-to-target chase has one, before its single
    /// pass) each cost-compiled tgd plan whose body cardinalities have
    /// drifted past this ratio from the live ones is re-planned against
    /// current statistics. Re-planning keeps the plan's frozen canonical
    /// enumeration order, so only the work changes. Greedy plans never
    /// re-plan. `None` never re-plans.
    pub replan: Option<f64>,
}

impl<'a> Run<'a> {
    /// Sequential, untraced, unexplained, never re-planning.
    pub fn new(gov: &'a mut Governor) -> Run<'a> {
        static DISABLED: Telemetry = Telemetry::disabled();
        Run { gov, threads: 1, tel: &DISABLED, explain: None, replan: None }
    }
}

/// What one chase pass produced besides its instance.
struct Pass {
    stats: ChaseStats,
    par: mm_parallel::PoolRun,
    replans: u32,
}

/// The standard chase for **source-to-target** tgds: bodies are evaluated
/// over `source_db`, heads asserted into a fresh target database. Because
/// target relations never feed tgd bodies, one pass over the tgds reaches
/// the fixpoint; the restricted chase still checks head satisfaction so
/// re-chasing an already-consistent pair adds nothing.
///
/// Returns the universal target instance and stats; on a budget trip the
/// typed error plus partial-run statistics come back as a
/// [`ChaseFailure`].
pub fn chase_st(
    target_schema: &Schema,
    program: &ChaseProgram,
    source_db: &Database,
    mut run: Run<'_>,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    let tgds = run.explain.is_some().then(|| program.explain(source_db));
    let mut rounds = Vec::new();
    let traced = Traced::open(&run, "chase.st", source_db.name.as_str());
    let trace = tgds.is_some().then_some(&mut rounds);
    let result = chase_st_impl(target_schema, program, source_db, &mut run, false, trace);
    if let Some(t) = traced {
        let new_tuples = result.as_ref().map_or(0, |(db, _)| db.total_tuples());
        t.close(&run, program.len(), None, result.as_ref().map(|(_, p)| p), new_tuples);
    }
    let (db, pass) = result?;
    if let (Some(sink), Some(tgds)) = (run.explain, tgds) {
        let (stats, threads, replans) = (pass.stats, run.threads.max(1), pass.replans);
        *sink = ChaseExplain { mode: "st", stats, tgds, rounds, threads, replans };
    }
    Ok((db, pass.stats))
}

/// [`chase_st`] under `gov` at `threads`, traced through `tel`.
#[doc(hidden)]
pub fn chase_st_prepared_governed(
    target_schema: &Schema,
    program: &ChaseProgram,
    source_db: &Database,
    gov: &mut Governor,
    threads: usize,
    tel: &Telemetry,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    chase_st(target_schema, program, source_db, Run { threads, tel, ..Run::new(gov) })
}

/// Reference (naive) source-to-target chase: identical structure but
/// every join and satisfaction check runs as a full scan, never an index
/// probe. Bit-identical to [`chase_st`] by construction — kept public as
/// the differential-testing oracle and benchmark baseline.
pub fn chase_st_reference(
    target_schema: &Schema,
    tgds: &[Tgd],
    source_db: &Database,
    budget: &ExecBudget,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    let program = ChaseProgram::compile(tgds, source_db);
    let mut gov = Governor::new(budget);
    chase_st_impl(target_schema, &program, source_db, &mut Run::new(&mut gov), true, None)
        .map(|(db, pass)| (db, pass.stats))
}

/// Telemetry around one chase run, opened before it and closed after:
/// the `chase.st` / `chase.general` span (with final [`mm_guard::Consumption`]
/// fields on success), the chase counters and the chase timer.
struct Traced {
    span: Span,
    started: std::time::Instant,
    steps_before: u64,
    rows_before: u64,
}

impl Traced {
    /// `None` when telemetry is disabled: the untraced path pays one
    /// branch.
    fn open(run: &Run<'_>, op: &'static str, artifact: &str) -> Option<Traced> {
        run.tel.is_enabled().then(|| Traced {
            started: mm_telemetry::clock::now(),
            steps_before: run.gov.steps_consumed(),
            rows_before: run.gov.rows_consumed(),
            span: Span::enter(run.tel, op, artifact),
        })
    }

    fn close(
        mut self,
        run: &Run<'_>,
        tgds: usize,
        egds: Option<usize>,
        result: Result<&Pass, &ChaseFailure>,
        new_tuples: usize,
    ) {
        let (tel, span) = (run.tel, &mut self.span);
        let stats = match result {
            Ok(p) => p.stats,
            Err(f) => f.stats,
        };
        if let Some(m) = tel.metrics() {
            m.add(Counter::ChaseRounds, stats.rounds as u64);
            m.add(Counter::ChaseFirings, stats.fired as u64);
            m.add(Counter::ChaseNullsMinted, stats.nulls as u64);
            m.add(Counter::ChaseDeltaTuples, new_tuples as u64);
            m.observe_us(Timer::Chase, mm_telemetry::clock::elapsed_us(self.started));
        }
        span.field("tgds", tgds);
        if let Some(egds) = egds {
            span.field("egds", egds);
        }
        span.field("rounds", stats.rounds);
        span.field("fired", stats.fired);
        span.field("nulls", stats.nulls);
        match result {
            Ok(pass) => {
                if run.threads > 1 {
                    // only when parallelism was requested, so sequential
                    // spans keep their field set byte-for-byte
                    let par = &pass.par;
                    span.field("parallel.workers", par.workers);
                    span.field("parallel.steals", par.steals);
                    span.field("parallel.tasks", par.tasks);
                    if let Some(m) = tel.metrics() {
                        m.add(Counter::ParallelWorkers, par.workers as u64);
                        m.add(Counter::ParallelSteals, par.steals);
                        m.add(Counter::ParallelTasks, par.tasks);
                    }
                }
                if pass.replans > 0 {
                    // only when adaptive re-optimization fired, so
                    // non-adaptive spans keep their field set
                    span.field("replans", pass.replans);
                    tel.count(Counter::PlanMisestimates, pass.replans as u64);
                    tel.count(Counter::PlanReplans, pass.replans as u64);
                }
                let steps = run.gov.steps_consumed() - self.steps_before;
                let rows = run.gov.rows_consumed() - self.rows_before;
                tel.count(Counter::BudgetStepsConsumed, steps);
                tel.count(Counter::BudgetRowsConsumed, rows);
                span.field("steps", steps);
                span.field("rows", rows);
                span.field("wall_us", mm_telemetry::clock::elapsed_us(self.started));
            }
            Err(f) => span.field("error", f.error.to_string()),
        }
        self.span.finish();
    }
}

/// Round-boundary re-optimization (see [`Run::replan`]): re-cost every
/// costed plan — the program's, or its current override — whose body
/// cardinalities have drifted from `db`'s past `ratio`. A re-costed plan
/// shadows the compiled one for the rest of the run; `overrides` stays
/// empty when the run never re-plans. Returns how many plans were
/// re-planned.
fn replan(
    program: &ChaseProgram,
    overrides: &mut Vec<Option<TgdPlan>>,
    db: &Database,
    ratio: Option<f64>,
) -> u32 {
    let Some(ratio) = ratio else { return 0 };
    overrides.resize(program.len(), None);
    let mut replans = 0;
    for (slot, compiled) in overrides.iter_mut().zip(program.plans()) {
        let current = slot.as_ref().unwrap_or(compiled);
        if current.is_costed() && current.misestimated(db, ratio) {
            if let Some(fresh) = current.recost(db) {
                *slot = Some(fresh);
                replans += 1;
            }
        }
    }
    replans
}

/// The source-to-target pass. `naive` runs every join and satisfaction
/// check as a scan (the reference oracle).
fn chase_st_impl(
    target_schema: &Schema,
    program: &ChaseProgram,
    source_db: &Database,
    run: &mut Run<'_>,
    naive: bool,
    trace: Option<&mut Vec<RoundExplain>>,
) -> Result<(Database, Pass), ChaseFailure> {
    let started = run.tel.is_enabled().then(mm_telemetry::clock::now);
    let mut target = Database::empty_of(target_schema);
    target.set_label_watermark(source_db.label_watermark());
    let mut stats = ChaseStats { rounds: 1, ..Default::default() };
    let mut par = mm_parallel::PoolRun::default();
    let mut overrides = Vec::new();
    let replans = replan(program, &mut overrides, source_db, run.replan);
    for (ti, compiled) in program.plans().iter().enumerate() {
        let plan = overrides.get(ti).and_then(Option::as_ref).unwrap_or(compiled);
        let mut fire = |stats: &mut ChaseStats| -> Result<(), ExecError> {
            let mut matches = Vec::new();
            par.absorb(plan.body_matches(source_db, !naive, run.threads, run.gov, &mut matches)?);
            for m in matches {
                if plan.head_satisfied(&m.binding, &target, !naive, run.gov)? {
                    continue;
                }
                plan.fire(&m.binding, &mut target, stats, run.gov)?;
            }
            Ok(())
        };
        fire(&mut stats).map_err(|error| ChaseFailure { error, stats })?;
    }
    if let Some(t) = trace {
        t.push(RoundExplain {
            round: 1,
            fired: stats.fired,
            nulls: stats.nulls,
            new_tuples: target.total_tuples(),
        });
    }
    if let (Some(started), Some(m)) = (started, run.tel.metrics()) {
        // the st chase is its single pass, so the run is the round
        m.observe_hist(Hist::ChaseRoundUs, mm_telemetry::clock::elapsed_us(started));
    }
    Ok((target, Pass { stats, par, replans }))
}

/// The restricted chase for **general** tgds and egds over a single
/// database, in place (source and target relations may coincide —
/// schema evolution scenarios chase views and bases together). Rounds
/// are semi-naive and indexed. The fixpoint loop runs until convergence
/// or until the governor trips:
///
/// * exceeding the budget's **round** cap without converging reports
///   [`ExecError::Diverged`] — the tgd set is divergent, or the cap is
///   too small; general tgds need not terminate, so callers set one,
/// * step / row / wall-clock caps and cancellation report their own
///   [`ExecError`] variants,
/// * an egd equating two distinct constants is a semantic answer, not a
///   resource failure: it stays `Ok(ChaseOutcome::Failed { .. })`.
///
/// On error the partially chased `db` is left in place (callers decide
/// whether a partial universal instance is useful) together with the
/// partial-run statistics in the [`ChaseFailure`].
pub fn chase_general(
    db: &mut Database,
    program: &ChaseProgram,
    egds: &[Egd],
    mut run: Run<'_>,
) -> Result<ChaseOutcome, ChaseFailure> {
    let tgds = run.explain.is_some().then(|| program.explain(db));
    let mut rounds = Vec::new();
    let tuples_before = db.total_tuples();
    let traced = Traced::open(&run, "chase.general", db.name.as_str());
    let trace = tgds.is_some().then_some(&mut rounds);
    let result = chase_general_impl(db, program, egds, &mut run, false, trace);
    if let Some(t) = traced {
        let new_tuples = db.total_tuples().saturating_sub(tuples_before);
        t.close(&run, program.len(), Some(egds.len()), result.as_ref().map(|(_, p)| p), new_tuples);
    }
    let (outcome, pass) = result?;
    if let (Some(sink), Some(tgds)) = (run.explain, tgds) {
        let (stats, threads, replans) = (outcome.stats(), run.threads.max(1), pass.replans);
        *sink = ChaseExplain { mode: "general", stats, tgds, rounds, threads, replans };
    }
    Ok(outcome)
}

/// Reference (naive) general chase: every round re-evaluates every tgd
/// body in full, by scan. Bit-identical to [`chase_general`] — same
/// tuples, same labeled-null ids, same [`ChaseStats`] — kept public as
/// the differential-testing oracle and benchmark baseline.
pub fn chase_general_reference(
    db: &mut Database,
    tgds: &[Tgd],
    egds: &[Egd],
    budget: &ExecBudget,
) -> Result<ChaseOutcome, ChaseFailure> {
    let program = ChaseProgram::compile(tgds, db);
    let mut gov = Governor::new(budget);
    chase_general_impl(db, &program, egds, &mut Run::new(&mut gov), true, None).map(|(o, _)| o)
}

/// The general-chase fixpoint loop. `naive` re-evaluates every body in
/// full each round and runs every join as a scan (the reference oracle).
fn chase_general_impl(
    db: &mut Database,
    program: &ChaseProgram,
    egds: &[Egd],
    run: &mut Run<'_>,
    naive: bool,
    mut trace: Option<&mut Vec<RoundExplain>>,
) -> Result<(ChaseOutcome, Pass), ChaseFailure> {
    let use_indexes = !naive;
    let max_rounds = run.gov.budget().max_rounds();
    let mut stats = ChaseStats::default();
    let mut par = mm_parallel::PoolRun::default();
    // per-tgd semi-naive watermarks: body-relation name → relation length
    // at this tgd's previous body evaluation. `None` = evaluate in full
    // (first round, or after an egd rewrite shifted insertion positions).
    let mut watermarks: Vec<Option<HashMap<String, u32>>> = vec![None; program.len()];
    // a re-costed plan shadows the program's compiled plan for the rest
    // of this run. Watermarks are keyed by relation name, not plan
    // state, so they survive the swap.
    let mut overrides = Vec::new();
    let mut replans = 0u32;
    loop {
        if let Some(limit) = max_rounds {
            if stats.rounds as u64 >= limit {
                return Err(ChaseFailure {
                    error: ExecError::Diverged { rounds: limit },
                    stats,
                });
            }
        }
        run.gov.check_now().map_err(|error| ChaseFailure { error, stats })?;
        replans += replan(program, &mut overrides, db, run.replan);
        stats.rounds += 1;
        // per-round latency: one clock read per round when enabled, and
        // clock reads never touch results, so bit-identity is preserved
        let round_started = run.tel.is_enabled().then(mm_telemetry::clock::now);
        let round_before = (stats.fired, stats.nulls, db.total_tuples());
        let mut changed = false;
        let mut round = |db: &mut Database,
                         stats: &mut ChaseStats,
                         changed: &mut bool,
                         watermarks: &mut Vec<Option<HashMap<String, u32>>>|
         -> Result<Option<usize>, ExecError> {
            for (ti, compiled) in program.plans().iter().enumerate() {
                let plan = overrides.get(ti).and_then(Option::as_ref).unwrap_or(compiled);
                let rel_len =
                    |db: &Database, r: &str| db.relation(r).map_or(0, |rel| rel.tuples().len() as u32);
                let mut matches = Vec::new();
                match watermarks[ti].as_ref().filter(|_| !naive) {
                    Some(wm) => {
                        let grew = plan
                            .body_rels()
                            .iter()
                            .any(|r| rel_len(db, r) > wm.get(r).copied().unwrap_or(0));
                        if !grew {
                            // no delta: every body binding was already
                            // enumerated (and its head satisfied or
                            // fired) at this tgd's previous evaluation
                            continue;
                        }
                        par.absorb(plan.body_matches_delta(
                            db,
                            wm,
                            use_indexes,
                            run.threads,
                            run.gov,
                            &mut matches,
                        )?);
                    }
                    None => par.absorb(plan.body_matches(
                        db,
                        use_indexes,
                        run.threads,
                        run.gov,
                        &mut matches,
                    )?),
                }
                // record the watermark before firing, so this tgd's own
                // insertions count as next round's delta
                watermarks[ti] = Some(
                    plan.body_rels()
                        .iter()
                        .map(|r| (r.clone(), rel_len(db, r)))
                        .collect(),
                );
                for m in matches {
                    if plan.head_satisfied(&m.binding, db, use_indexes, run.gov)? {
                        continue;
                    }
                    plan.fire(&m.binding, db, stats, run.gov)?;
                    *changed = true;
                }
            }
            let mut egd_changed = false;
            if let Some(failed) = egd_pass(db, egds, use_indexes, run.gov, &mut egd_changed)? {
                return Ok(Some(failed));
            }
            if egd_changed {
                *changed = true;
                // equate() removes and re-inserts tuples, shifting the
                // insertion positions the watermarks index — every body
                // must be evaluated in full next round
                for w in watermarks.iter_mut() {
                    *w = None;
                }
            }
            Ok(None)
        };
        let failed_egd = match round(db, &mut stats, &mut changed, &mut watermarks) {
            Ok(o) => o,
            Err(error) => return Err(ChaseFailure { error, stats }),
        };
        if let Some(t) = trace.as_deref_mut() {
            t.push(RoundExplain {
                round: stats.rounds,
                fired: stats.fired - round_before.0,
                nulls: stats.nulls - round_before.1,
                new_tuples: db.total_tuples().saturating_sub(round_before.2),
            });
        }
        if let (Some(started), Some(m)) = (round_started, run.tel.metrics()) {
            m.observe_hist(Hist::ChaseRoundUs, mm_telemetry::clock::elapsed_us(started));
        }
        let pass = Pass { stats, par, replans };
        if let Some(egd_index) = failed_egd {
            return Ok((ChaseOutcome::Failed { egd_index, stats }, pass));
        }
        if !changed {
            return Ok((ChaseOutcome::Done(stats), pass));
        }
    }
}

/// One egd pass: evaluate every egd body and resolve violations by
/// equating labeled nulls, or stop at the index of the first egd that
/// would equate two distinct constants. Egd bodies are compiled fresh
/// each pass so the greedy join order tracks current relation sizes,
/// exactly like the per-call ordering of the naive path — egd processing
/// order decides which null survives, so it must not drift between the
/// reference and the indexed chase.
fn egd_pass(
    db: &mut Database,
    egds: &[Egd],
    use_indexes: bool,
    gov: &mut Governor,
    changed: &mut bool,
) -> Result<Option<usize>, ExecError> {
    for (i, egd) in egds.iter().enumerate() {
        let mut table = VarTable::new();
        let body = CqPlan::compile(&egd.body, &mut table, db, &[]);
        let mut scratch = vec![None; table.len()];
        let mut matches = Vec::new();
        let opts = ExecOptions { use_indexes, ..Default::default() };
        body.execute_governed(db, &mut scratch, &opts, gov, &mut matches)?;
        let lslot = table.slot(&egd.left);
        let rslot = table.slot(&egd.right);
        for m in matches {
            gov.step()?;
            let missing = |side: &str| {
                ExecError::malformed(format!(
                    "egd #{i} equates variable '{side}' not bound by its body"
                ))
            };
            let l = lslot
                .and_then(|s| m.binding[s].clone())
                .ok_or_else(|| missing(&egd.left))?;
            let r = rslot
                .and_then(|s| m.binding[s].clone())
                .ok_or_else(|| missing(&egd.right))?;
            if l == r {
                continue;
            }
            match (l.is_labeled(), r.is_labeled()) {
                (false, false) => return Ok(Some(i)),
                (true, _) => {
                    equate(db, l, r);
                    *changed = true;
                }
                (false, true) => {
                    equate(db, r, l);
                    *changed = true;
                }
            }
        }
    }
    Ok(None)
}

#[allow(clippy::expect_used)] // invariant-backed: see expect messages
/// Replace every occurrence of labeled null `from` with `to` across the
/// database (egd resolution).
///
/// Per relation: one batched removal of every tuple mentioning `from`,
/// then the replacements appended in scan order. Bit-identical to
/// removing and re-inserting tuple by tuple — a replacement never
/// contains `from`, so it can never equal (or be deduplicated against)
/// a removed tuple.
fn equate(db: &mut Database, from: Value, to: Value) {
    debug_assert!(from.is_labeled());
    let names: Vec<String> = db.relation_names().map(String::from).collect();
    for name in names {
        let rel = db.relation(&name).expect("name enumerated");
        let replacements: Vec<Tuple> = rel
            .iter()
            .filter(|t| t.values().contains(&from))
            .map(|t| {
                Tuple::new(
                    t.values()
                        .iter()
                        .map(|v| if v == &from { to.clone() } else { v.clone() })
                        .collect(),
                )
            })
            .collect();
        if !replacements.is_empty() {
            let rel = db.relation_mut(&name).expect("name enumerated");
            rel.retain(|t| !t.values().contains(&from));
            for new in replacements {
                rel.insert(new);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_metamodel::{DataType, SchemaBuilder};

    fn src_schema() -> Schema {
        SchemaBuilder::new("Src")
            .relation("Emp", &[("e", DataType::Text)])
            .build()
            .unwrap()
    }

    fn tgt_schema() -> Schema {
        SchemaBuilder::new("Tgt")
            .relation("Mgr", &[("e", DataType::Text), ("m", DataType::Text)])
            .relation("Person", &[("p", DataType::Text)])
            .build()
            .unwrap()
    }

    fn src_db() -> Database {
        let s = src_schema();
        let mut db = Database::empty_of(&s);
        db.insert("Emp", Tuple::from([Value::text("ann")]));
        db.insert("Emp", Tuple::from([Value::text("bob")]));
        db
    }

    /// Unbounded, sequential, untraced source-to-target chase.
    fn st(target: &Schema, tgds: &[Tgd], source: &Database) -> (Database, ChaseStats) {
        let program = ChaseProgram::compile(tgds, source);
        let mut gov = Governor::new(&ExecBudget::unbounded());
        chase_st(target, &program, source, Run::new(&mut gov)).unwrap()
    }

    /// Sequential, untraced general chase capped at `max_rounds`.
    fn general(
        db: &mut Database,
        tgds: &[Tgd],
        egds: &[Egd],
        max_rounds: u64,
    ) -> Result<ChaseOutcome, ChaseFailure> {
        let program = ChaseProgram::compile(tgds, db);
        let mut gov = Governor::new(&ExecBudget::unbounded().with_rounds(max_rounds));
        chase_general(db, &program, egds, Run::new(&mut gov))
    }

    #[test]
    fn st_chase_invents_nulls_for_existentials() {
        // Emp(e) -> exists m . Mgr(e, m) & Person(m)
        let tgd = Tgd::new(
            vec![Atom::vars("Emp", &["e"])],
            vec![Atom::vars("Mgr", &["e", "m"]), Atom::vars("Person", &["m"])],
        );
        let (tgt, stats) = st(&tgt_schema(), &[tgd], &src_db());
        assert_eq!(stats.fired, 2);
        assert_eq!(stats.nulls, 2);
        let mgr = tgt.relation("Mgr").unwrap();
        assert_eq!(mgr.len(), 2);
        // each Mgr row's null also appears in Person (shared existential)
        let person = tgt.relation("Person").unwrap();
        for t in mgr.iter() {
            let m = &t.values()[1];
            assert!(m.is_labeled());
            assert!(person.contains(&Tuple::new(vec![m.clone()])));
        }
    }

    #[test]
    fn st_chase_skips_satisfied_heads() {
        // full tgd: Emp(e) -> Person(e), chased twice adds nothing new
        let tgd = Tgd::new(vec![Atom::vars("Emp", &["e"])], vec![Atom::vars("Person", &["e"])]);
        let (tgt, stats) = st(&tgt_schema(), &[tgd.clone(), tgd], &src_db());
        assert_eq!(tgt.relation("Person").unwrap().len(), 2);
        // second copy of the tgd fires nothing
        assert_eq!(stats.fired, 2);
    }

    #[test]
    fn general_chase_reaches_fixpoint_with_target_tgds() {
        // copy + transitive closure on a cycle-free graph terminates
        let s = SchemaBuilder::new("S")
            .relation("E", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("T", &[("a", DataType::Int), ("b", DataType::Int)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("E", Tuple::from([Value::Int(1), Value::Int(2)]));
        db.insert("E", Tuple::from([Value::Int(2), Value::Int(3)]));
        let copy = Tgd::new(vec![Atom::vars("E", &["x", "y"])], vec![Atom::vars("T", &["x", "y"])]);
        let trans = Tgd::new(
            vec![Atom::vars("T", &["x", "y"]), Atom::vars("T", &["y", "z"])],
            vec![Atom::vars("T", &["x", "z"])],
        );
        let out = general(&mut db, &[copy, trans], &[], 10).unwrap();
        assert!(matches!(out, ChaseOutcome::Done(_)), "{out}");
        assert_eq!(db.relation("T").unwrap().len(), 3); // 12, 23, 13
    }

    #[test]
    fn general_chase_bound_exceeded_on_nonterminating_tgd() {
        // R(x,y) -> exists z . R(y,z): grows forever
        let s = SchemaBuilder::new("S")
            .relation("R", &[("a", DataType::Int), ("b", DataType::Int)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("R", Tuple::from([Value::Int(1), Value::Int(2)]));
        let t = Tgd::new(vec![Atom::vars("R", &["x", "y"])], vec![Atom::vars("R", &["y", "z"])]);
        let err = general(&mut db, &[t], &[], 5).unwrap_err();
        assert_eq!(err.error, ExecError::Diverged { rounds: 5 });
        assert_eq!(err.stats.rounds, 5);
    }

    #[test]
    fn egd_equates_labeled_null_with_constant() {
        let s = SchemaBuilder::new("S")
            .relation("R", &[("k", DataType::Int), ("v", DataType::Any)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        let n = db.fresh_labeled();
        db.insert("R", Tuple::from([Value::Int(1), n]));
        db.insert("R", Tuple::from([Value::Int(1), Value::text("x")]));
        // key egd: R(k, v1) & R(k, v2) -> v1 = v2
        let egd = Egd {
            body: vec![Atom::vars("R", &["k", "v1"]), Atom::vars("R", &["k", "v2"])],
            left: "v1".into(),
            right: "v2".into(),
        };
        let out = general(&mut db, &[], &[egd], 10).unwrap();
        assert!(matches!(out, ChaseOutcome::Done(_)));
        let r = db.relation("R").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().values()[1], Value::text("x"));
    }

    #[test]
    fn egd_on_two_constants_fails() {
        let s = SchemaBuilder::new("S")
            .relation("R", &[("k", DataType::Int), ("v", DataType::Text)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("R", Tuple::from([Value::Int(1), Value::text("x")]));
        db.insert("R", Tuple::from([Value::Int(1), Value::text("y")]));
        let egd = Egd {
            body: vec![Atom::vars("R", &["k", "v1"]), Atom::vars("R", &["k", "v2"])],
            left: "v1".into(),
            right: "v2".into(),
        };
        let out = general(&mut db, &[], &[egd], 10).unwrap();
        let stats = ChaseStats { fired: 0, rounds: 1, nulls: 0 };
        assert_eq!(out, ChaseOutcome::Failed { egd_index: 0, stats });
    }

    #[test]
    fn key_egds_equate_nulls_forced_by_the_key() {
        let s = SchemaBuilder::new("S")
            .relation("R", &[("k", DataType::Int), ("v", DataType::Any), ("w", DataType::Any)])
            .key("R", &["k"])
            .build()
            .unwrap();
        let egds = egds_from_keys(&s);
        assert_eq!(egds.len(), 2); // one per non-key column
        let mut db = Database::empty_of(&s);
        let n1 = db.fresh_labeled();
        let n2 = db.fresh_labeled();
        db.insert("R", Tuple::from([Value::Int(1), n1, Value::text("x")]));
        db.insert("R", Tuple::from([Value::Int(1), Value::text("v!"), n2]));
        let out = general(&mut db, &[], &egds, 10).unwrap();
        assert!(matches!(out, ChaseOutcome::Done(_)), "{out}");
        let r = db.relation("R").unwrap();
        assert_eq!(r.len(), 1, "{r}");
        let t = r.iter().next().unwrap();
        assert_eq!(t.values()[1], Value::text("v!"));
        assert_eq!(t.values()[2], Value::text("x"));
    }

    #[test]
    fn key_egds_fail_on_true_key_conflicts() {
        let s = SchemaBuilder::new("S")
            .relation("R", &[("k", DataType::Int), ("v", DataType::Text)])
            .key("R", &["k"])
            .build()
            .unwrap();
        let egds = egds_from_keys(&s);
        let mut db = Database::empty_of(&s);
        db.insert("R", Tuple::from([Value::Int(1), Value::text("a")]));
        db.insert("R", Tuple::from([Value::Int(1), Value::text("b")]));
        assert!(matches!(general(&mut db, &[], &egds, 10), Ok(ChaseOutcome::Failed { .. })));
    }

    /// One input of the bit-identity table, with an extra check on the
    /// reference result.
    struct Case {
        name: &'static str,
        /// `Some(target)`: source-to-target; `None`: general, in place.
        target: Option<Schema>,
        db: Database,
        tgds: Vec<Tgd>,
        egds: Vec<Egd>,
        budget: ExecBudget,
        check: fn(&Database, ChaseStats),
    }

    impl Case {
        /// Either chase under `run`, as (instance, outcome); an s-t run
        /// reports `Done`.
        fn chase(&self, program: &ChaseProgram, run: Run<'_>) -> (Database, ChaseOutcome) {
            match &self.target {
                Some(t) => {
                    let (db, stats) = chase_st(t, program, &self.db, run).unwrap();
                    (db, ChaseOutcome::Done(stats))
                }
                None => {
                    let mut db = self.db.clone();
                    let outcome = chase_general(&mut db, program, &self.egds, run).unwrap();
                    (db, outcome)
                }
            }
        }

        fn reference(&self) -> (Database, ChaseOutcome) {
            match &self.target {
                Some(t) => {
                    let (db, stats) =
                        chase_st_reference(t, &self.tgds, &self.db, &self.budget).unwrap();
                    (db, ChaseOutcome::Done(stats))
                }
                None => {
                    let mut db = self.db.clone();
                    let outcome =
                        chase_general_reference(&mut db, &self.tgds, &self.egds, &self.budget)
                            .unwrap();
                    (db, outcome)
                }
            }
        }
    }

    /// A copy of `E` into `T`, transitive closure of `T`, and an
    /// existential `W` per `T` edge, over an `n`-edge chain: several
    /// semi-naive rounds with real deltas, null minting order exercised.
    fn closure_case(name: &'static str, n: i64, rounds: u64) -> Case {
        let s = SchemaBuilder::new("S")
            .relation("E", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("T", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("W", &[("a", DataType::Int), ("w", DataType::Any)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        for i in 0..n {
            db.insert("E", Tuple::from([Value::Int(i), Value::Int(i + 1)]));
        }
        let tgds = vec![
            Tgd::new(vec![Atom::vars("E", &["x", "y"])], vec![Atom::vars("T", &["x", "y"])]),
            Tgd::new(
                vec![Atom::vars("T", &["x", "y"]), Atom::vars("T", &["y", "z"])],
                vec![Atom::vars("T", &["x", "z"])],
            ),
            Tgd::new(vec![Atom::vars("T", &["x", "y"])], vec![Atom::vars("W", &["y", "w"])]),
        ];
        let budget = ExecBudget::unbounded().with_rounds(rounds);
        Case { name, target: None, db, tgds, egds: vec![], budget, check: |_, _| {} }
    }

    fn bit_identity_cases() -> Vec<Case> {
        // two tgds mint different nulls for the same key; the key egd
        // equates them mid-chase, which rewrites tuples and forces the
        // semi-naive watermarks to reset
        let keyed = SchemaBuilder::new("S")
            .relation("Src", &[("k", DataType::Int)])
            .relation("R", &[("k", DataType::Int), ("v", DataType::Any)])
            .key("R", &["k"])
            .build()
            .unwrap();
        let mut keyed_db = Database::empty_of(&keyed);
        keyed_db.insert("Src", Tuple::from([Value::Int(1)]));
        keyed_db.insert("Src", Tuple::from([Value::Int(2)]));
        // a 300-edge chain with a 2-atom join body and an existential
        // head: large enough that the parallel CQ path splits the first atom
        let chain_src = SchemaBuilder::new("Src")
            .relation("E", &[("a", DataType::Int), ("b", DataType::Int)])
            .build()
            .unwrap();
        let chain_tgt = SchemaBuilder::new("Tgt")
            .relation("M", &[("a", DataType::Int), ("b", DataType::Int), ("w", DataType::Any)])
            .build()
            .unwrap();
        let mut chain = Database::empty_of(&chain_src);
        for i in 0..300 {
            chain.insert("E", Tuple::from([Value::Int(i), Value::Int(i + 1)]));
        }
        vec![
            closure_case("semi-naive closure", 5, 32),
            Case {
                name: "semi-naive with egd rewrites",
                target: None,
                db: keyed_db,
                tgds: vec![
                    Tgd::new(vec![Atom::vars("Src", &["k"])], vec![Atom::vars("R", &["k", "v"])]),
                    Tgd::new(vec![Atom::vars("Src", &["k"])], vec![Atom::vars("R", &["k", "w"])]),
                ],
                egds: egds_from_keys(&keyed),
                budget: ExecBudget::unbounded().with_rounds(32),
                check: |db, _| assert_eq!(db.relation("R").unwrap().len(), 2),
            },
            Case {
                name: "st existential",
                target: Some(tgt_schema()),
                db: src_db(),
                tgds: vec![Tgd::new(
                    vec![Atom::vars("Emp", &["e"])],
                    vec![Atom::vars("Mgr", &["e", "m"]), Atom::vars("Person", &["m"])],
                )],
                egds: vec![],
                budget: ExecBudget::unbounded(),
                check: |_, _| {},
            },
            Case {
                name: "st join chain",
                target: Some(chain_tgt),
                db: chain,
                tgds: vec![Tgd::new(
                    vec![Atom::vars("E", &["x", "y"]), Atom::vars("E", &["y", "z"])],
                    vec![Atom::vars("M", &["x", "z", "w"])],
                )],
                egds: vec![],
                budget: ExecBudget::unbounded(),
                check: |_, stats| assert_eq!(stats.nulls, 299, "every join match mints a null"),
            },
            closure_case("parallel closure", 32, 64),
        ]
    }

    /// Runs the named input under every field of `Run` — threads,
    /// telemetry, EXPLAIN sink, re-plan ratio — over greedy and
    /// cost-based programs, checked against the naive reference oracle.
    /// Returns how many explained runs re-planned.
    fn assert_every_run_is_bit_identical(name: &str) -> usize {
        let off = Telemetry::disabled();
        let on = Telemetry::new(mm_telemetry::RingCollector::with_capacity(16));
        let mut replanned = 0;
        let case = bit_identity_cases().into_iter().find(|c| c.name == name).unwrap();
        let (want_db, want) = case.reference();
        (case.check)(&want_db, want.stats());
        for costed in [false, true] {
            let program = if costed {
                ChaseProgram::compile_costed(&case.tgds, &case.db)
            } else {
                ChaseProgram::compile(&case.tgds, &case.db)
            };
            for threads in [1, 2, 4] {
                for tel in [&off, &on] {
                    for explained in [false, true] {
                        for replan in [None, Some(8.0)] {
                            let at = format!(
                                "{}: costed={costed} threads={threads} traced={} \
                                 explained={explained} replan={replan:?}",
                                case.name,
                                tel.is_enabled()
                            );
                            let mut gov = Governor::new(&case.budget);
                            let mut explain = ChaseExplain::default();
                            let run = Run {
                                gov: &mut gov,
                                threads,
                                tel,
                                explain: explained.then_some(&mut explain),
                                replan,
                            };
                            let (db, outcome) = case.chase(&program, run);
                            assert_eq!(outcome, want, "{at}");
                            assert_eq!(db, want_db, "{at}");
                            if explained {
                                assert_eq!(explain.stats, want.stats(), "{at}");
                                assert_eq!(explain.threads, threads, "{at}");
                                assert_eq!(explain.rounds.len(), want.stats().rounds, "{at}");
                                replanned += usize::from(explain.replans > 0);
                            } else {
                                assert_eq!(explain, ChaseExplain::default(), "{at}");
                            }
                        }
                    }
                }
            }
        }
        replanned
    }

    #[test]
    fn semi_naive_general_chase_is_bit_identical_to_reference() {
        let replanned = assert_every_run_is_bit_identical("semi-naive closure");
        assert!(replanned > 0, "costed closures start from empty relations and must re-plan");
    }

    #[test]
    fn semi_naive_with_egd_rewrites_is_bit_identical_to_reference() {
        assert_every_run_is_bit_identical("semi-naive with egd rewrites");
    }

    #[test]
    fn st_chase_indexed_is_bit_identical_to_reference() {
        assert_every_run_is_bit_identical("st existential");
    }

    #[test]
    fn parallel_st_chase_is_bit_identical_to_sequential() {
        assert_every_run_is_bit_identical("st join chain");
    }

    #[test]
    fn parallel_general_chase_is_bit_identical_to_sequential() {
        let replanned = assert_every_run_is_bit_identical("parallel closure");
        assert!(replanned > 0, "costed closures start from empty relations and must re-plan");
    }

    #[test]
    fn an_egd_failure_reports_the_work_done_before_it() {
        // round 1 copies Src into R; the key egd then finds R(1,a) and
        // R(1,b) and fails. The run fired two tgds in one round, and
        // the counters and the EXPLAIN header must say so.
        let s = SchemaBuilder::new("S")
            .relation("Src", &[("k", DataType::Int), ("v", DataType::Text)])
            .relation("R", &[("k", DataType::Int), ("v", DataType::Text)])
            .key("R", &["k"])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("Src", Tuple::from([Value::Int(1), Value::text("a")]));
        db.insert("Src", Tuple::from([Value::Int(1), Value::text("b")]));
        let tgds = [Tgd::new(
            vec![Atom::vars("Src", &["k", "v"])],
            vec![Atom::vars("R", &["k", "v"])],
        )];
        let program = ChaseProgram::compile(&tgds, &db);
        let tel = Telemetry::new(mm_telemetry::RingCollector::with_capacity(16));
        let mut gov = Governor::new(&ExecBudget::unbounded().with_rounds(8));
        let mut explain = ChaseExplain::default();
        let run = Run { tel: &tel, explain: Some(&mut explain), ..Run::new(&mut gov) };
        let outcome = chase_general(&mut db, &program, &egds_from_keys(&s), run).unwrap();
        let stats = ChaseStats { fired: 2, rounds: 1, nulls: 0 };
        assert_eq!(outcome, ChaseOutcome::Failed { egd_index: 0, stats });
        let snap = tel.metrics().unwrap().snapshot();
        assert_eq!(snap.value("chase_rounds"), 1);
        assert_eq!(snap.value("chase_firings"), 2);
        assert_eq!(explain.stats, stats);
        let header = explain.to_string();
        let header = header.lines().next().unwrap();
        assert!(header.contains("rounds=1") && header.contains("fired=2"), "{header}");
    }

    #[test]
    fn chase_is_idempotent_on_consistent_instance() {
        let tgd = Tgd::new(
            vec![Atom::vars("Emp", &["e"])],
            vec![Atom::vars("Person", &["e"])],
        );
        let (tgt, _) = st(&tgt_schema(), std::slice::from_ref(&tgd), &src_db());
        // merge source+target and chase again: nothing fires
        let s2 = SchemaBuilder::new("Both")
            .relation("Emp", &[("e", DataType::Text)])
            .relation("Mgr", &[("e", DataType::Text), ("m", DataType::Text)])
            .relation("Person", &[("p", DataType::Text)])
            .build()
            .unwrap();
        let mut both = Database::empty_of(&s2);
        for (name, rel) in src_db().relations() {
            for t in rel.iter() {
                both.insert(name, t.clone());
            }
        }
        for (name, rel) in tgt.relations() {
            for t in rel.iter() {
                both.insert(name, t.clone());
            }
        }
        let before = both.total_tuples();
        let out = general(&mut both, &[tgd], &[], 10).unwrap();
        assert!(matches!(out, ChaseOutcome::Done(st) if st.fired == 0));
        assert_eq!(both.total_tuples(), before);
    }

    #[test]
    fn governed_st_chase_shares_a_batch_budget() {
        // two exchanges forked off one shared meter: together they trip a
        // step cap that either alone stays well under. The source is
        // sized so each exchange crosses several governor safepoints
        // (every 1024 steps) and publishes its consumption.
        let tgd = Tgd::new(
            vec![Atom::vars("Emp", &["e"])],
            vec![Atom::vars("Mgr", &["e", "m"]), Atom::vars("Person", &["m"])],
        );
        let s = src_schema();
        let mut src = Database::empty_of(&s);
        for i in 0..4000 {
            src.insert("Emp", Tuple::from([Value::text(format!("e{i}"))]));
        }
        let program = ChaseProgram::compile(std::slice::from_ref(&tgd), &src);
        let solo_steps = {
            let budget = ExecBudget::unbounded();
            let mut gov = Governor::new(&budget);
            chase_st(&tgt_schema(), &program, &src, Run::new(&mut gov)).unwrap();
            gov.steps_consumed()
        };
        assert!(solo_steps > 4096, "workload must span several safepoints: {solo_steps}");
        let budget = ExecBudget::unbounded().with_steps(solo_steps + solo_steps / 2);
        let lead = Governor::new(&budget);
        let (_, mut govs) = lead.fork_shared(2);
        let mut trips = 0;
        for g in govs.iter_mut() {
            let r = chase_st(&tgt_schema(), &program, &src, Run::new(g));
            if let Err(f) = r {
                assert!(matches!(f.error, ExecError::BudgetExhausted { .. }), "{f}");
                trips += 1;
            }
        }
        assert!(trips >= 1, "a 1.5x-solo cap must trip across two exchanges");
    }
}

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
use mm_guard::{Consumption, ExecBudget, ExecError, Governor};
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

/// Outcome of a chase run.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaseOutcome {
    /// Fixpoint reached: the database satisfies all dependencies.
    Done(ChaseStats),
    /// Step bound exhausted before a fixpoint (possible for general tgds).
    BoundExceeded(ChaseStats),
    /// An egd tried to equate two distinct constants — no solution exists.
    Failed { egd_index: usize },
}

impl fmt::Display for ChaseOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseOutcome::Done(s) => {
                write!(f, "done: {} firings, {} rounds, {} nulls", s.fired, s.rounds, s.nulls)
            }
            ChaseOutcome::BoundExceeded(s) => {
                write!(f, "bound exceeded after {} firings", s.fired)
            }
            ChaseOutcome::Failed { egd_index } => write!(f, "failed at egd #{egd_index}"),
        }
    }
}

/// A governed chase that could not finish: the typed resource error plus
/// the statistics of the partial run (work done before the trip). For
/// `chase_general_governed` the partially chased database is left in
/// place, so callers can inspect or discard the partial instance.
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

/// The standard chase for **source-to-target** tgds: bodies are evaluated
/// over `source_db`, heads asserted into a fresh target database. Because
/// target relations never feed tgd bodies, one pass over the tgds reaches
/// the fixpoint; the restricted chase still checks head satisfaction so
/// re-chasing an already-consistent pair adds nothing.
///
/// Returns the universal target instance and stats.
///
/// Legacy ungoverned entry point; panics on function terms in tgd heads
/// (use [`chase_st_governed`] for the typed-error path).
pub fn chase_st(
    target_schema: &Schema,
    tgds: &[Tgd],
    source_db: &Database,
) -> (Database, ChaseStats) {
    #[allow(clippy::expect_used)] // unbounded budget: only Unsupported inputs can fail
    chase_st_governed(target_schema, tgds, source_db, &ExecBudget::unbounded())
        .expect("chase_st on unsupported input; use chase_st_governed for a typed error")
}

/// Governed source-to-target chase: join probes, head-satisfaction
/// checks, and inserted tuples are metered against `budget`; on a trip
/// the typed error plus partial-run statistics come back as a
/// [`ChaseFailure`].
pub fn chase_st_governed(
    target_schema: &Schema,
    tgds: &[Tgd],
    source_db: &Database,
    budget: &ExecBudget,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    let program = ChaseProgram::compile(tgds, source_db);
    chase_st_prepared(target_schema, &program, source_db, budget)
}

/// Source-to-target chase over a pre-compiled [`ChaseProgram`] — the
/// entry point the engine plan cache uses to amortize tgd compilation
/// across repeated exchanges of the same mapping.
pub fn chase_st_prepared(
    target_schema: &Schema,
    program: &ChaseProgram,
    source_db: &Database,
    budget: &ExecBudget,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    chase_st_prepared_traced(target_schema, program, source_db, budget, &Telemetry::disabled())
}

/// [`chase_st_prepared`] with telemetry: wraps the run in a `chase.st`
/// span (with final [`Consumption`] fields on success), feeds the chase
/// counters and timer. With disabled telemetry this is the plain call.
pub fn chase_st_prepared_traced(
    target_schema: &Schema,
    program: &ChaseProgram,
    source_db: &Database,
    budget: &ExecBudget,
    tel: &Telemetry,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    let mut gov = Governor::new(budget);
    run_st(target_schema, program, source_db, &mut gov, true, 1, tel, None)
}

/// [`chase_st_prepared`] with the body-matching phase of every tgd
/// fanned across up to `threads` workers. **Bit-identical** to the
/// sequential path — same tuples, same labeled-null ids, same
/// [`ChaseStats`]: workers probe copy-on-write index snapshots
/// read-only, their per-chunk match lists merge back in the sequential
/// enumeration order, and head-satisfaction checks plus firing (where
/// nulls are minted) stay sequential in that order. `threads <= 1` is
/// exactly [`chase_st_prepared`].
pub fn chase_st_parallel(
    target_schema: &Schema,
    program: &ChaseProgram,
    source_db: &Database,
    budget: &ExecBudget,
    threads: usize,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    chase_st_parallel_traced(
        target_schema,
        program,
        source_db,
        budget,
        threads,
        &Telemetry::disabled(),
    )
}

/// [`chase_st_parallel`] with telemetry: the `chase.st` span
/// additionally carries `parallel.workers` / `parallel.steals` /
/// `parallel.tasks` fields and feeds the parallel counters.
pub fn chase_st_parallel_traced(
    target_schema: &Schema,
    program: &ChaseProgram,
    source_db: &Database,
    budget: &ExecBudget,
    threads: usize,
    tel: &Telemetry,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    let mut gov = Governor::new(budget);
    run_st(target_schema, program, source_db, &mut gov, true, threads, tel, None)
}

/// Source-to-target chase metering against a caller-supplied
/// [`Governor`] — the batch-serving entry point: `Engine::exchange_batch`
/// forks one shared-meter governor per request so a budget spans the
/// whole batch and cancellation reaches every worker.
pub fn chase_st_prepared_governed(
    target_schema: &Schema,
    program: &ChaseProgram,
    source_db: &Database,
    gov: &mut Governor,
    threads: usize,
    tel: &Telemetry,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    run_st(target_schema, program, source_db, gov, true, threads, tel, None)
}

/// [`chase_st_prepared`] plus a full [`ChaseExplain`] report: per-tgd
/// join orders (explained against `source_db` cardinalities), the
/// single round's deltas, and the degree of parallelism the chase was
/// asked to run with. Telemetry is optional and orthogonal.
pub fn chase_st_explained(
    target_schema: &Schema,
    program: &ChaseProgram,
    source_db: &Database,
    budget: &ExecBudget,
    threads: usize,
    tel: &Telemetry,
) -> Result<(Database, ChaseStats, ChaseExplain), ChaseFailure> {
    let tgds = program.explain(source_db);
    let mut rounds = Vec::new();
    let mut gov = Governor::new(budget);
    let (db, stats) = run_st(
        target_schema,
        program,
        source_db,
        &mut gov,
        true,
        threads,
        tel,
        Some(&mut rounds),
    )?;
    Ok((
        db,
        stats,
        ChaseExplain { mode: "st", stats, tgds, rounds, threads: threads.max(1), replans: 0 },
    ))
}

/// Reference (naive) source-to-target chase: identical structure but
/// every join and satisfaction check runs as a full scan, never an index
/// probe. Bit-identical to [`chase_st_governed`] by construction — kept
/// public as the differential-testing oracle and benchmark baseline.
pub fn chase_st_reference(
    target_schema: &Schema,
    tgds: &[Tgd],
    source_db: &Database,
    budget: &ExecBudget,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    let program = ChaseProgram::compile(tgds, source_db);
    let mut gov = Governor::new(budget);
    chase_st_impl(target_schema, &program, source_db, &mut gov, false, 1, None)
        .map(|(db, stats, _)| (db, stats))
}

/// Telemetry shell around [`chase_st_impl`]: one branch when disabled.
#[allow(clippy::too_many_arguments)] // internal: the public wrappers curry
fn run_st(
    target_schema: &Schema,
    program: &ChaseProgram,
    source_db: &Database,
    gov: &mut Governor,
    use_indexes: bool,
    threads: usize,
    tel: &Telemetry,
    trace: Option<&mut Vec<RoundExplain>>,
) -> Result<(Database, ChaseStats), ChaseFailure> {
    if !tel.is_enabled() {
        return chase_st_impl(target_schema, program, source_db, gov, use_indexes, threads, trace)
            .map(|(db, stats, _)| (db, stats));
    }
    let started = mm_telemetry::clock::now();
    let steps_before = gov.steps_consumed();
    let rows_before = gov.rows_consumed();
    let mut span = Span::enter(tel, "chase.st", source_db.name.as_str());
    let result =
        chase_st_impl(target_schema, program, source_db, gov, use_indexes, threads, trace);
    let stats = match &result {
        Ok((_, s, _)) => *s,
        Err(f) => f.stats,
    };
    if let Some(m) = tel.metrics() {
        m.add(Counter::ChaseRounds, stats.rounds as u64);
        m.add(Counter::ChaseFirings, stats.fired as u64);
        m.add(Counter::ChaseNullsMinted, stats.nulls as u64);
        if let Ok((db, _, _)) = &result {
            m.add(Counter::ChaseDeltaTuples, db.total_tuples() as u64);
        }
        let elapsed = mm_telemetry::clock::elapsed_us(started);
        m.observe_us(Timer::Chase, elapsed);
        // the st chase is its single pass, so the run is the round
        m.observe_hist(Hist::ChaseRoundUs, elapsed);
    }
    span.field("tgds", program.len());
    span.field("rounds", stats.rounds);
    span.field("fired", stats.fired);
    span.field("nulls", stats.nulls);
    if let Ok((_, _, par)) = &result {
        record_parallel(tel, &mut span, threads, par);
    }
    match &result {
        Ok(_) => {
            let steps = gov.steps_consumed() - steps_before;
            let rows = gov.rows_consumed() - rows_before;
            tel.count(Counter::BudgetStepsConsumed, steps);
            tel.count(Counter::BudgetRowsConsumed, rows);
            span.field("steps", steps);
            span.field("rows", rows);
            span.field("wall_us", mm_telemetry::clock::elapsed_us(started));
        }
        Err(f) => span.field("error", f.error.to_string()),
    }
    span.finish();
    result.map(|(db, stats, _)| (db, stats))
}

/// Feed a finished parallel region's pool statistics into the span and
/// the engine counters. Only emitted when parallelism was requested, so
/// sequential spans keep their pre-PR-5 field set byte-for-byte.
fn record_parallel(
    tel: &Telemetry,
    span: &mut Span,
    threads: usize,
    par: &mm_parallel::PoolRun,
) {
    if threads <= 1 {
        return;
    }
    span.field("parallel.workers", par.workers);
    span.field("parallel.steals", par.steals);
    span.field("parallel.tasks", par.tasks);
    if let Some(m) = tel.metrics() {
        m.add(Counter::ParallelWorkers, par.workers as u64);
        m.add(Counter::ParallelSteals, par.steals);
        m.add(Counter::ParallelTasks, par.tasks);
    }
}

fn chase_st_impl(
    target_schema: &Schema,
    program: &ChaseProgram,
    source_db: &Database,
    gov: &mut Governor,
    use_indexes: bool,
    threads: usize,
    trace: Option<&mut Vec<RoundExplain>>,
) -> Result<(Database, ChaseStats, mm_parallel::PoolRun), ChaseFailure> {
    let mut target = Database::empty_of(target_schema);
    target.set_label_watermark(source_db.label_watermark());
    let mut stats = ChaseStats { rounds: 1, ..Default::default() };
    let mut par = mm_parallel::PoolRun::default();
    for plan in program.plans() {
        let mut run = |stats: &mut ChaseStats,
                       par: &mut mm_parallel::PoolRun|
         -> Result<(), ExecError> {
            let mut matches = Vec::new();
            if threads > 1 {
                par.absorb(plan.body_matches_parallel(
                    source_db,
                    use_indexes,
                    threads,
                    gov,
                    &mut matches,
                )?);
            } else {
                plan.body_matches(source_db, use_indexes, gov, &mut matches)?;
            }
            for m in matches {
                if plan.head_satisfied(&m.binding, &target, use_indexes, gov)? {
                    continue;
                }
                plan.fire(&m.binding, &mut target, stats, gov)?;
            }
            Ok(())
        };
        run(&mut stats, &mut par).map_err(|error| ChaseFailure { error, stats })?;
    }
    if let Some(t) = trace {
        t.push(RoundExplain {
            round: 1,
            fired: stats.fired,
            nulls: stats.nulls,
            new_tuples: target.total_tuples(),
        });
    }
    Ok((target, stats, par))
}

/// The bounded restricted chase for **general** tgds and egds over a
/// single database (source and target relations may coincide — schema
/// evolution scenarios chase views and bases together). `max_rounds`
/// bounds the fixpoint loop since general tgds need not terminate; an
/// exhausted bound comes back as [`ChaseOutcome::BoundExceeded`].
///
/// Legacy ungoverned entry point over [`chase_general_governed`].
pub fn chase_general(
    db: &mut Database,
    tgds: &[Tgd],
    egds: &[Egd],
    max_rounds: usize,
) -> ChaseOutcome {
    let budget = ExecBudget::unbounded().with_rounds(max_rounds as u64);
    match chase_general_governed(db, tgds, egds, &budget) {
        Ok(outcome) => outcome,
        Err(ChaseFailure { error: ExecError::Diverged { .. }, stats }) => {
            ChaseOutcome::BoundExceeded(stats)
        }
        #[allow(clippy::panic)] // unbounded except rounds: no other trip is reachable
        Err(f) => panic!("chase_general on unsupported input: {f}"),
    }
}

/// Governed general chase. The fixpoint loop runs until convergence or
/// until the budget trips:
///
/// * exceeding the budget's **round** cap without converging reports
///   [`ExecError::Diverged`] — the tgd set is divergent, or the cap is
///   too small; no more silent truncation,
/// * step / row / wall-clock caps and cancellation report their own
///   [`ExecError`] variants,
/// * an egd equating two distinct constants is a semantic answer, not a
///   resource failure: it stays `Ok(ChaseOutcome::Failed { .. })`.
///
/// On error the partially chased `db` is left in place (callers decide
/// whether a partial universal instance is useful) together with the
/// partial-run statistics in the [`ChaseFailure`].
pub fn chase_general_governed(
    db: &mut Database,
    tgds: &[Tgd],
    egds: &[Egd],
    budget: &ExecBudget,
) -> Result<ChaseOutcome, ChaseFailure> {
    let program = ChaseProgram::compile(tgds, db);
    chase_general_prepared(db, &program, egds, budget)
}

/// General chase over a pre-compiled [`ChaseProgram`] (semi-naive,
/// indexed) — the entry point for plan-cache reuse across calls.
pub fn chase_general_prepared(
    db: &mut Database,
    program: &ChaseProgram,
    egds: &[Egd],
    budget: &ExecBudget,
) -> Result<ChaseOutcome, ChaseFailure> {
    chase_general_prepared_traced(db, program, egds, budget, &Telemetry::disabled())
}

/// [`chase_general_prepared`] with telemetry: a `chase.general` span
/// (with final [`Consumption`] fields on success), chase counters, and
/// the chase timer. With disabled telemetry this is the plain call.
pub fn chase_general_prepared_traced(
    db: &mut Database,
    program: &ChaseProgram,
    egds: &[Egd],
    budget: &ExecBudget,
    tel: &Telemetry,
) -> Result<ChaseOutcome, ChaseFailure> {
    run_general(db, program, egds, budget, true, true, 1, None, tel, None).map(|(o, ..)| o)
}

/// [`chase_general_prepared`] with each round's body-matching fanned
/// across up to `threads` workers. **Bit-identical** to the sequential
/// path — same tuples, same labeled-null ids, same [`ChaseStats`]:
/// within a round, workers enumerate delta chunks against read-only
/// index snapshots, the per-chunk match lists merge back in the
/// sequential enumeration order, and firing plus the egd pass stay
/// sequential. `threads <= 1` is exactly [`chase_general_prepared`].
pub fn chase_general_parallel(
    db: &mut Database,
    program: &ChaseProgram,
    egds: &[Egd],
    budget: &ExecBudget,
    threads: usize,
) -> Result<ChaseOutcome, ChaseFailure> {
    chase_general_parallel_traced(db, program, egds, budget, threads, &Telemetry::disabled())
}

/// [`chase_general_parallel`] with telemetry: the `chase.general` span
/// additionally carries `parallel.workers` / `parallel.steals` /
/// `parallel.tasks` fields and feeds the parallel counters.
pub fn chase_general_parallel_traced(
    db: &mut Database,
    program: &ChaseProgram,
    egds: &[Egd],
    budget: &ExecBudget,
    threads: usize,
    tel: &Telemetry,
) -> Result<ChaseOutcome, ChaseFailure> {
    run_general(db, program, egds, budget, true, true, threads, None, tel, None).map(|(o, ..)| o)
}

/// [`chase_general_parallel_traced`] with **adaptive re-optimization**:
/// at each round boundary (a governor safepoint) every cost-compiled tgd
/// plan is checked against current relation statistics, and a plan whose
/// compile-time body cardinalities have drifted beyond `replan_ratio`
/// (in either direction, ratio-of-ratios with +1 smoothing) is
/// recompiled from the live statistics. Re-planning keeps the plan's
/// frozen canonical enumeration order, so results stay bit-identical to
/// the naive reference; only the walk order (and thus the work) changes.
/// Returns the number of re-plans performed alongside the outcome.
/// Greedy-compiled programs never re-plan: the check only fires for
/// [`ChaseProgram::compile_costed`] plans.
pub fn chase_general_adaptive(
    db: &mut Database,
    program: &ChaseProgram,
    egds: &[Egd],
    budget: &ExecBudget,
    threads: usize,
    tel: &Telemetry,
    replan_ratio: f64,
) -> Result<(ChaseOutcome, u32), ChaseFailure> {
    run_general(db, program, egds, budget, true, true, threads, Some(replan_ratio), tel, None)
        .map(|(o, _, r)| (o, r))
}

/// [`chase_general_prepared`] plus a full [`ChaseExplain`]: per-tgd join
/// orders (explained against the *pre-chase* database, so two identical
/// runs report identically) and per-round deltas.
pub fn chase_general_explained(
    db: &mut Database,
    program: &ChaseProgram,
    egds: &[Egd],
    budget: &ExecBudget,
    threads: usize,
    tel: &Telemetry,
) -> Result<(ChaseOutcome, ChaseExplain), ChaseFailure> {
    general_explained(db, program, egds, budget, threads, tel, None)
}

/// [`chase_general_adaptive`] plus a full [`ChaseExplain`]: the report's
/// `replans` field records how many mid-run re-optimizations fired, and
/// renders only when non-zero so non-adaptive reports stay byte-stable.
pub fn chase_general_adaptive_explained(
    db: &mut Database,
    program: &ChaseProgram,
    egds: &[Egd],
    budget: &ExecBudget,
    threads: usize,
    tel: &Telemetry,
    replan_ratio: f64,
) -> Result<(ChaseOutcome, ChaseExplain), ChaseFailure> {
    general_explained(db, program, egds, budget, threads, tel, Some(replan_ratio))
}

fn general_explained(
    db: &mut Database,
    program: &ChaseProgram,
    egds: &[Egd],
    budget: &ExecBudget,
    threads: usize,
    tel: &Telemetry,
    adapt: Option<f64>,
) -> Result<(ChaseOutcome, ChaseExplain), ChaseFailure> {
    let tgds = program.explain(db);
    let mut rounds = Vec::new();
    let (outcome, _, replans) =
        run_general(db, program, egds, budget, true, true, threads, adapt, tel, Some(&mut rounds))?;
    let stats = match &outcome {
        ChaseOutcome::Done(s) | ChaseOutcome::BoundExceeded(s) => *s,
        ChaseOutcome::Failed { .. } => ChaseStats::default(),
    };
    Ok((
        outcome,
        ChaseExplain { mode: "general", stats, tgds, rounds, threads: threads.max(1), replans },
    ))
}

/// Reference (naive) general chase: every round re-evaluates every tgd
/// body in full, by scan. Bit-identical to [`chase_general_governed`] —
/// same tuples, same labeled-null ids, same [`ChaseStats`] — kept public
/// as the differential-testing oracle and benchmark baseline.
pub fn chase_general_reference(
    db: &mut Database,
    tgds: &[Tgd],
    egds: &[Egd],
    budget: &ExecBudget,
) -> Result<ChaseOutcome, ChaseFailure> {
    let program = ChaseProgram::compile(tgds, db);
    chase_general_impl(db, &program, egds, budget, false, false, 1, None, &Telemetry::disabled(), None)
        .map(|(o, ..)| o)
}

/// Telemetry shell around [`chase_general_impl`].
#[allow(clippy::too_many_arguments)] // internal: the public wrappers curry
fn run_general(
    db: &mut Database,
    program: &ChaseProgram,
    egds: &[Egd],
    budget: &ExecBudget,
    semi_naive: bool,
    use_indexes: bool,
    threads: usize,
    adapt: Option<f64>,
    tel: &Telemetry,
    trace: Option<&mut Vec<RoundExplain>>,
) -> Result<(ChaseOutcome, Consumption, u32), ChaseFailure> {
    if !tel.is_enabled() {
        return chase_general_impl(
            db, program, egds, budget, semi_naive, use_indexes, threads, adapt, tel, trace,
        )
        .map(|(o, c, _, r)| (o, c, r));
    }
    let started = mm_telemetry::clock::now();
    let tuples_before = db.total_tuples();
    let mut span = Span::enter(tel, "chase.general", db.name.as_str());
    let result = chase_general_impl(
        db, program, egds, budget, semi_naive, use_indexes, threads, adapt, tel, trace,
    );
    let stats = match &result {
        Ok((ChaseOutcome::Done(s) | ChaseOutcome::BoundExceeded(s), ..)) => *s,
        Ok((ChaseOutcome::Failed { .. }, ..)) => ChaseStats::default(),
        Err(f) => f.stats,
    };
    if let Some(m) = tel.metrics() {
        m.add(Counter::ChaseRounds, stats.rounds as u64);
        m.add(Counter::ChaseFirings, stats.fired as u64);
        m.add(Counter::ChaseNullsMinted, stats.nulls as u64);
        m.add(
            Counter::ChaseDeltaTuples,
            db.total_tuples().saturating_sub(tuples_before) as u64,
        );
        m.observe_us(Timer::Chase, mm_telemetry::clock::elapsed_us(started));
    }
    span.field("tgds", program.len());
    span.field("egds", egds.len());
    span.field("rounds", stats.rounds);
    span.field("fired", stats.fired);
    span.field("nulls", stats.nulls);
    if let Ok((_, _, par, replans)) = &result {
        record_parallel(tel, &mut span, threads, par);
        if *replans > 0 {
            // only emitted when adaptive re-optimization fired, so
            // non-adaptive spans keep their field set byte-for-byte
            span.field("replans", *replans);
            tel.count(Counter::PlanMisestimates, *replans as u64);
            tel.count(Counter::PlanReplans, *replans as u64);
        }
    }
    match &result {
        Ok((_, c, _, _)) => {
            tel.count(Counter::BudgetStepsConsumed, c.steps);
            tel.count(Counter::BudgetRowsConsumed, c.rows);
            span.field("steps", c.steps);
            span.field("rows", c.rows);
            span.field("wall_us", c.wall_us);
        }
        Err(f) => span.field("error", f.error.to_string()),
    }
    span.finish();
    result.map(|(o, c, _, r)| (o, c, r))
}

#[allow(clippy::type_complexity)] // watermark alias would hide, not help
#[allow(clippy::too_many_arguments)] // internal: run_general is the only caller
fn chase_general_impl(
    db: &mut Database,
    program: &ChaseProgram,
    egds: &[Egd],
    budget: &ExecBudget,
    semi_naive: bool,
    use_indexes: bool,
    threads: usize,
    adapt: Option<f64>,
    tel: &Telemetry,
    mut trace: Option<&mut Vec<RoundExplain>>,
) -> Result<(ChaseOutcome, Consumption, mm_parallel::PoolRun, u32), ChaseFailure> {
    let mut gov = Governor::new(budget);
    let mut stats = ChaseStats::default();
    let mut par = mm_parallel::PoolRun::default();
    // per-tgd semi-naive watermarks: body-relation name → relation length
    // at this tgd's previous body evaluation. `None` = evaluate in full
    // (first round, or after an egd rewrite shifted insertion positions).
    let mut watermarks: Vec<Option<HashMap<String, u32>>> = vec![None; program.len()];
    // adaptive re-optimization: a re-costed plan shadows the program's
    // compiled plan for the rest of this run. Watermarks are keyed by
    // relation name, not plan state, so they survive the swap.
    let mut overrides: Vec<Option<TgdPlan>> = vec![None; program.len()];
    let mut replans = 0u32;
    loop {
        if let Some(limit) = budget.max_rounds() {
            if stats.rounds as u64 >= limit {
                return Err(ChaseFailure {
                    error: ExecError::Diverged { rounds: limit },
                    stats,
                });
            }
        }
        gov.check_now().map_err(|error| ChaseFailure { error, stats })?;
        if let Some(ratio) = adapt {
            // round boundaries are governor safepoints: compare each
            // costed plan's compile-time body cardinalities with the
            // live statistics; past the drift ratio, re-plan. recost()
            // keeps the frozen canonical enumeration order, so the swap
            // changes the walk (the work), never the results.
            for (slot, compiled) in overrides.iter_mut().zip(program.plans()) {
                let current = slot.as_ref().unwrap_or(compiled);
                if current.is_costed() && current.misestimated(db, ratio) {
                    if let Some(fresh) = current.recost(db) {
                        *slot = Some(fresh);
                        replans += 1;
                    }
                }
            }
        }
        stats.rounds += 1;
        // per-round latency: one clock read per round when enabled, and
        // clock reads never touch results, so bit-identity is preserved
        let round_started = tel.is_enabled().then(mm_telemetry::clock::now);
        let round_before = (stats.fired, stats.nulls, db.total_tuples());
        let mut changed = false;
        let mut round = |db: &mut Database,
                         stats: &mut ChaseStats,
                         changed: &mut bool,
                         watermarks: &mut Vec<Option<HashMap<String, u32>>>|
         -> Result<Option<ChaseOutcome>, ExecError> {
            for (ti, compiled) in program.plans().iter().enumerate() {
                let plan = overrides[ti].as_ref().unwrap_or(compiled);
                let rel_len =
                    |db: &Database, r: &str| db.relation(r).map_or(0, |rel| rel.tuples().len() as u32);
                let mut matches = Vec::new();
                match watermarks[ti].as_ref().filter(|_| semi_naive) {
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
                        if threads > 1 {
                            par.absorb(plan.body_matches_delta_parallel(
                                db,
                                wm,
                                use_indexes,
                                threads,
                                &mut gov,
                                &mut matches,
                            )?);
                        } else {
                            plan.body_matches_delta(db, wm, use_indexes, &mut gov, &mut matches)?;
                        }
                    }
                    None => {
                        if threads > 1 {
                            par.absorb(plan.body_matches_parallel(
                                db,
                                use_indexes,
                                threads,
                                &mut gov,
                                &mut matches,
                            )?);
                        } else {
                            plan.body_matches(db, use_indexes, &mut gov, &mut matches)?;
                        }
                    }
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
                    if plan.head_satisfied(&m.binding, db, use_indexes, &mut gov)? {
                        continue;
                    }
                    plan.fire(&m.binding, db, stats, &mut gov)?;
                    *changed = true;
                }
            }
            let mut egd_changed = false;
            if let Some(failed) = egd_pass(db, egds, use_indexes, &mut gov, &mut egd_changed)? {
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
        let outcome = match round(db, &mut stats, &mut changed, &mut watermarks) {
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
        if let (Some(started), Some(m)) = (round_started, tel.metrics()) {
            m.observe_hist(Hist::ChaseRoundUs, mm_telemetry::clock::elapsed_us(started));
        }
        if let Some(failed) = outcome {
            return Ok((failed, gov.consumption(), par, replans));
        }
        if !changed {
            return Ok((ChaseOutcome::Done(stats), gov.consumption(), par, replans));
        }
    }
}

/// One egd pass: evaluate every egd body and resolve violations by
/// equating labeled nulls (or failing on two distinct constants). Egd
/// bodies are compiled fresh each pass so the greedy join order tracks
/// current relation sizes, exactly like the per-call ordering of the
/// naive path — egd processing order decides which null survives, so it
/// must not drift between the reference and the indexed chase.
fn egd_pass(
    db: &mut Database,
    egds: &[Egd],
    use_indexes: bool,
    gov: &mut Governor,
    changed: &mut bool,
) -> Result<Option<ChaseOutcome>, ExecError> {
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
                (false, false) => return Ok(Some(ChaseOutcome::Failed { egd_index: i })),
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

    #[test]
    fn st_chase_invents_nulls_for_existentials() {
        // Emp(e) -> exists m . Mgr(e, m) & Person(m)
        let tgd = Tgd::new(
            vec![Atom::vars("Emp", &["e"])],
            vec![Atom::vars("Mgr", &["e", "m"]), Atom::vars("Person", &["m"])],
        );
        let (tgt, stats) = chase_st(&tgt_schema(), &[tgd], &src_db());
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
        let (tgt, stats) = chase_st(&tgt_schema(), &[tgd.clone(), tgd], &src_db());
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
        let out = chase_general(&mut db, &[copy, trans], &[], 10);
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
        let out = chase_general(&mut db, &[t], &[], 5);
        assert!(matches!(out, ChaseOutcome::BoundExceeded(_)));
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
        let out = chase_general(&mut db, &[], &[egd], 10);
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
        let out = chase_general(&mut db, &[], &[egd], 10);
        assert_eq!(out, ChaseOutcome::Failed { egd_index: 0 });
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
        let out = chase_general(&mut db, &[], &egds, 10);
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
        assert!(matches!(
            chase_general(&mut db, &[], &egds, 10),
            ChaseOutcome::Failed { .. }
        ));
    }

    #[test]
    fn semi_naive_general_chase_is_bit_identical_to_reference() {
        // copy + transitive closure + existential invention: multiple
        // rounds of semi-naive deltas, null minting order must match
        let s = SchemaBuilder::new("S")
            .relation("E", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("T", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("W", &[("a", DataType::Int), ("w", DataType::Any)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        for i in 1..6 {
            db.insert("E", Tuple::from([Value::Int(i), Value::Int(i + 1)]));
        }
        let tgds = [
            Tgd::new(vec![Atom::vars("E", &["x", "y"])], vec![Atom::vars("T", &["x", "y"])]),
            Tgd::new(
                vec![Atom::vars("T", &["x", "y"]), Atom::vars("T", &["y", "z"])],
                vec![Atom::vars("T", &["x", "z"])],
            ),
            Tgd::new(vec![Atom::vars("T", &["x", "y"])], vec![Atom::vars("W", &["y", "w"])]),
        ];
        let budget = ExecBudget::unbounded().with_rounds(32);
        let mut fast = db.clone();
        let mut slow = db;
        let a = chase_general_governed(&mut fast, &tgds, &[], &budget).unwrap();
        let b = chase_general_reference(&mut slow, &tgds, &[], &budget).unwrap();
        assert_eq!(a, b, "outcome (incl. fired/rounds/nulls stats) must match");
        assert_eq!(fast, slow, "instances must match tuple-for-tuple incl. null ids");
    }

    #[test]
    fn semi_naive_with_egd_rewrites_is_bit_identical_to_reference() {
        // two tgds mint different nulls for the same key; the key egd
        // equates them mid-chase, which rewrites tuples and forces the
        // semi-naive watermarks to reset — results must still match
        let s = SchemaBuilder::new("S")
            .relation("Src", &[("k", DataType::Int)])
            .relation("R", &[("k", DataType::Int), ("v", DataType::Any)])
            .key("R", &["k"])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        db.insert("Src", Tuple::from([Value::Int(1)]));
        db.insert("Src", Tuple::from([Value::Int(2)]));
        let tgds = [
            Tgd::new(vec![Atom::vars("Src", &["k"])], vec![Atom::vars("R", &["k", "v"])]),
            Tgd::new(vec![Atom::vars("Src", &["k"])], vec![Atom::vars("R", &["k", "w"])]),
        ];
        let egds = egds_from_keys(&s);
        let budget = ExecBudget::unbounded().with_rounds(32);
        let mut fast = db.clone();
        let mut slow = db;
        let a = chase_general_governed(&mut fast, &tgds, &egds, &budget).unwrap();
        let b = chase_general_reference(&mut slow, &tgds, &egds, &budget).unwrap();
        assert_eq!(a, b);
        assert_eq!(fast, slow);
        assert_eq!(fast.relation("R").unwrap().len(), 2);
    }

    #[test]
    fn st_chase_indexed_is_bit_identical_to_reference() {
        let tgd = Tgd::new(
            vec![Atom::vars("Emp", &["e"])],
            vec![Atom::vars("Mgr", &["e", "m"]), Atom::vars("Person", &["m"])],
        );
        let budget = ExecBudget::unbounded();
        let (fast, fs) =
            chase_st_governed(&tgt_schema(), std::slice::from_ref(&tgd), &src_db(), &budget)
                .unwrap();
        let (slow, ss) =
            chase_st_reference(&tgt_schema(), std::slice::from_ref(&tgd), &src_db(), &budget)
                .unwrap();
        assert_eq!(fs, ss);
        assert_eq!(fast, slow);
    }

    #[test]
    fn chase_is_idempotent_on_consistent_instance() {
        let tgd = Tgd::new(
            vec![Atom::vars("Emp", &["e"])],
            vec![Atom::vars("Person", &["e"])],
        );
        let (tgt, _) = chase_st(&tgt_schema(), std::slice::from_ref(&tgd), &src_db());
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
        let out = chase_general(&mut both, &[tgd], &[], 10);
        assert!(matches!(out, ChaseOutcome::Done(st) if st.fired == 0));
        assert_eq!(both.total_tuples(), before);
    }

    #[test]
    fn parallel_st_chase_is_bit_identical_to_sequential() {
        // 300-edge chain with a 2-atom join body and an existential head:
        // large enough that the parallel CQ path actually splits the
        // driver atom, existential so null-id minting order is exercised
        let src_s = SchemaBuilder::new("Src")
            .relation("E", &[("a", DataType::Int), ("b", DataType::Int)])
            .build()
            .unwrap();
        let tgt_s = SchemaBuilder::new("Tgt")
            .relation("M", &[("a", DataType::Int), ("b", DataType::Int), ("w", DataType::Any)])
            .build()
            .unwrap();
        let mut src = Database::empty_of(&src_s);
        for i in 0..300 {
            src.insert("E", Tuple::from([Value::Int(i), Value::Int(i + 1)]));
        }
        let tgd = Tgd::new(
            vec![Atom::vars("E", &["x", "y"]), Atom::vars("E", &["y", "z"])],
            vec![Atom::vars("M", &["x", "z", "w"])],
        );
        let program = ChaseProgram::compile(std::slice::from_ref(&tgd), &src);
        let budget = ExecBudget::unbounded();
        let (seq, seq_stats) = chase_st_prepared(&tgt_s, &program, &src, &budget).unwrap();
        assert_eq!(seq_stats.nulls, 299, "every join match mints a null");
        for threads in [2, 4, 8] {
            let (par, par_stats) =
                chase_st_parallel(&tgt_s, &program, &src, &budget, threads).unwrap();
            assert_eq!(par_stats, seq_stats, "stats must match at threads={threads}");
            assert_eq!(par, seq, "instances must match at threads={threads}");
        }
    }

    #[test]
    fn parallel_general_chase_is_bit_identical_to_sequential() {
        // copy + transitive closure + existential invention over a
        // 128-edge chain: several semi-naive rounds with real deltas,
        // each round's body matching fanned across workers
        let s = SchemaBuilder::new("S")
            .relation("E", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("T", &[("a", DataType::Int), ("b", DataType::Int)])
            .relation("W", &[("a", DataType::Int), ("w", DataType::Any)])
            .build()
            .unwrap();
        let mut db = Database::empty_of(&s);
        for i in 0..128 {
            db.insert("E", Tuple::from([Value::Int(i), Value::Int(i + 1)]));
        }
        let tgds = [
            Tgd::new(vec![Atom::vars("E", &["x", "y"])], vec![Atom::vars("T", &["x", "y"])]),
            Tgd::new(
                vec![Atom::vars("T", &["x", "y"]), Atom::vars("T", &["y", "z"])],
                vec![Atom::vars("T", &["x", "z"])],
            ),
            Tgd::new(vec![Atom::vars("T", &["x", "y"])], vec![Atom::vars("W", &["y", "w"])]),
        ];
        let program = ChaseProgram::compile(&tgds, &db);
        let budget = ExecBudget::unbounded().with_rounds(64);
        let mut seq = db.clone();
        let seq_out = chase_general_prepared(&mut seq, &program, &[], &budget).unwrap();
        for threads in [2, 4, 8] {
            let mut par = db.clone();
            let par_out =
                chase_general_parallel(&mut par, &program, &[], &budget, threads).unwrap();
            assert_eq!(par_out, seq_out, "outcome must match at threads={threads}");
            assert_eq!(par, seq, "instances must match at threads={threads}");
        }
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
            chase_st_prepared_governed(
                &tgt_schema(),
                &program,
                &src,
                &mut gov,
                1,
                &Telemetry::disabled(),
            )
            .unwrap();
            gov.steps_consumed()
        };
        assert!(solo_steps > 4096, "workload must span several safepoints: {solo_steps}");
        let budget = ExecBudget::unbounded().with_steps(solo_steps + solo_steps / 2);
        let lead = Governor::new(&budget);
        let (_, mut govs) = lead.fork_shared(2);
        let mut trips = 0;
        for g in govs.iter_mut() {
            let r = chase_st_prepared_governed(
                &tgt_schema(),
                &program,
                &src,
                g,
                1,
                &Telemetry::disabled(),
            );
            if let Err(f) = r {
                assert!(matches!(f.error, ExecError::BudgetExhausted { .. }), "{f}");
                trips += 1;
            }
        }
        assert!(trips >= 1, "a 1.5x-solo cap must trip across two exchanges");
    }
}

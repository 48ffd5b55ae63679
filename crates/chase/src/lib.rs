//! The chase: data exchange with universal instances.
//!
//! §4 of the paper describes the Clio/data-exchange approach to TransGen:
//! when mapping constraints are non-functional (GLAV / st-tgds), pick the
//! target instance with certain-answer semantics — a *universal instance*
//! containing labeled nulls "that are needed to compute the answers to
//! queries but are not allowed to be returned as part of the answer".
//! This crate implements that machinery:
//!
//! * [`chase::chase_st`] — the standard (restricted) chase of a source
//!   instance with st-tgds, producing a universal target instance;
//! * [`chase::chase_general`] — the chase for arbitrary tgds and egds
//!   (target tgds included), which may not terminate and is therefore
//!   round-capped by its budget (composition of non-s-t tgds is
//!   undecidable, §6.1);
//! * [`chase::Run`] — how either chase runs: the governor it is metered
//!   by, its thread count, telemetry, an optional EXPLAIN sink and the
//!   adaptive re-plan ratio. No choice in it changes the result; each
//!   chase keeps one naive reference oracle
//!   ([`chase::chase_st_reference`], [`chase::chase_general_reference`])
//!   as its spec;
//! * [`certain::certain_answers`] — query evaluation with labeled-null
//!   filtering;
//! * [`core::core_of`] — greedy core minimization of a universal instance
//!   ("Data exchange: getting to the core").

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod certain;
pub mod chase;
pub mod core;
pub mod explain;
pub mod hom;
pub mod plan;

pub use crate::core::core_of;
pub use certain::certain_answers;
pub use chase::{
    chase_general, chase_general_reference, chase_st, chase_st_prepared_governed,
    chase_st_reference, egds_from_keys, ChaseFailure, ChaseOutcome, ChaseStats, Egd, Run,
};
pub use explain::{ChaseExplain, RoundExplain, TgdExplain};
pub use hom::{exists_hom, hom_equivalent};
pub use plan::{ChaseProgram, TgdPlan};

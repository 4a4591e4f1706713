//! What the agent hands back: per-iteration reports, cumulative stats,
//! and errors that say in which phase of the agent's lifecycle and (inside
//! the loop) in which dialogue iteration they surfaced.

use crate::ctx::CtxError;
use crate::reactions::ReactionFailure;
use p4r_compiler::entry::ExpandError;
use reaction_interp::{CompileError, InterpError};
use rmt_sim::{DriverError, Nanos};
use std::fmt;

/// Which part of the agent's lifecycle an error surfaced in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgentPhase {
    Prologue,
    UserInit,
    Measure,
    React,
    /// Prepare + commit of staged malleable updates.
    Update,
    /// Mirror of committed state onto the old primary copy.
    Sync,
}

impl AgentPhase {
    pub fn as_str(&self) -> &'static str {
        match self {
            AgentPhase::Prologue => "prologue",
            AgentPhase::UserInit => "user-init",
            AgentPhase::Measure => "measure",
            AgentPhase::React => "react",
            AgentPhase::Update => "update",
            AgentPhase::Sync => "sync",
        }
    }
}

impl fmt::Display for AgentPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What went wrong.
#[derive(Debug)]
pub enum AgentErrorKind {
    Driver(DriverError),
    Expand(ExpandError),
    Ctx(CtxError),
    Interp(InterpError),
    UnknownReaction(String),
    UnknownTable(String),
    MissingEntry {
        table: String,
        handle: u64,
    },
    NotCompiledWithReaction(String),
    /// The reaction's body does not compile to bytecode: it is too large
    /// for the VM's indices (nothing else the front end accepts fails).
    Compile {
        reaction: String,
        error: CompileError,
    },
}

impl fmt::Display for AgentErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentErrorKind::Driver(e) => write!(f, "driver: {e}"),
            AgentErrorKind::Expand(e) => write!(f, "entry expansion: {e}"),
            AgentErrorKind::Ctx(e) => write!(f, "reaction context: {e}"),
            AgentErrorKind::Interp(e) => write!(f, "reaction execution: {e}"),
            AgentErrorKind::UnknownReaction(n) => write!(f, "unknown reaction `{n}`"),
            AgentErrorKind::UnknownTable(n) => write!(f, "unknown table `{n}`"),
            AgentErrorKind::MissingEntry { table, handle } => {
                write!(f, "no logical entry {handle} in `{table}`")
            }
            AgentErrorKind::NotCompiledWithReaction(n) => {
                write!(f, "program has no reaction named `{n}`")
            }
            AgentErrorKind::Compile { reaction, error } => {
                write!(f, "reaction `{reaction}`: {error}")
            }
        }
    }
}

/// Agent errors: the failure [`kind`](AgentErrorKind) plus where it
/// happened — the dialogue [`phase`](AgentPhase) and (inside the loop)
/// the 0-based iteration number, both carried into `Display`.
#[derive(Debug)]
pub struct AgentError {
    /// 0-based dialogue iteration the error surfaced in; `None` outside
    /// the loop (prologue, registration, user init).
    pub iteration: Option<u64>,
    pub phase: Option<AgentPhase>,
    pub kind: AgentErrorKind,
}

impl AgentError {
    /// Would retrying plausibly succeed? True exactly for transient
    /// injected driver faults; every other kind (logic errors, permanent
    /// faults) is not retryable.
    pub fn is_transient(&self) -> bool {
        matches!(&self.kind, AgentErrorKind::Driver(e) if e.is_transient())
    }

    /// Did the agent process die mid-operation (an injected crash)? A
    /// crash is neither retried nor rolled back: the process is gone, and
    /// whatever the op did or did not reach the device stays there until
    /// a successor [`reconcile`](crate::MantisAgent::reconcile)s.
    pub fn is_crash(&self) -> bool {
        matches!(&self.kind, AgentErrorKind::Driver(e) if e.is_crash())
    }

    /// Annotate with a phase, keeping an earlier (more precise) one.
    pub(crate) fn in_phase(mut self, phase: AgentPhase) -> Self {
        if self.phase.is_none() {
            self.phase = Some(phase);
        }
        self
    }

    /// Annotate with the dialogue iteration, keeping an earlier one.
    pub(crate) fn at_iteration(mut self, iteration: u64) -> Self {
        if self.iteration.is_none() {
            self.iteration = Some(iteration);
        }
        self
    }
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.iteration, self.phase) {
            (Some(i), Some(p)) => write!(f, "iteration {i}, {p} phase: {}", self.kind),
            (None, Some(p)) => write!(f, "{p} phase: {}", self.kind),
            _ => write!(f, "{}", self.kind),
        }
    }
}

impl std::error::Error for AgentError {}

impl From<AgentErrorKind> for AgentError {
    fn from(kind: AgentErrorKind) -> Self {
        AgentError {
            iteration: None,
            phase: None,
            kind,
        }
    }
}
impl From<DriverError> for AgentError {
    fn from(e: DriverError) -> Self {
        AgentErrorKind::Driver(e).into()
    }
}
impl From<ExpandError> for AgentError {
    fn from(e: ExpandError) -> Self {
        AgentErrorKind::Expand(e).into()
    }
}
impl From<CtxError> for AgentError {
    fn from(e: CtxError) -> Self {
        AgentErrorKind::Ctx(e).into()
    }
}
impl From<InterpError> for AgentError {
    fn from(e: InterpError) -> Self {
        AgentErrorKind::Interp(e).into()
    }
}

/// Per-iteration report. Timing fields are a convenience copy of what
/// the telemetry registry records (each is also a `agent.<phase>_ns`
/// histogram sample); the fault-tolerance fields mirror the
/// `agent.retries` / `agent.rollbacks` / `agent.quarantined` counters.
#[derive(Clone, Debug, Default)]
pub struct IterationReport {
    pub duration_ns: Nanos,
    pub measure_ns: Nanos,
    pub react_ns: Nanos,
    /// Prepare + commit of staged malleable updates.
    pub update_ns: Nanos,
    /// Mirror of committed state onto the old primary copy.
    pub sync_ns: Nanos,
    pub staged_table_ops: usize,
    /// Driver-op retries performed this iteration (all levels).
    pub retries: u32,
    /// Transactional rollbacks of the apply phase this iteration.
    pub rollbacks: u32,
    /// Reactions skipped because their breaker was open.
    pub quarantine_skips: usize,
    /// Reactions that failed this iteration (contained, not fatal). They
    /// go to the caller of the iteration; the copy of the report kept for
    /// [`AgentStats::last`] leaves this empty.
    pub reaction_failures: Vec<ReactionFailure>,
}

/// Cumulative statistics of one agent
/// ([`MantisAgent::stats`](crate::MantisAgent::stats)): its own count of
/// what it also adds to the registry's `agent.iterations` /
/// `agent.busy_ns` counters, which every agent sharing that registry feeds.
#[derive(Clone, Debug, Default)]
pub struct AgentStats {
    pub iterations: u64,
    pub busy_ns: Nanos,
    pub last: IterationReport,
}

//! The determinism rule taxonomy (DESIGN.md §17).
//!
//! Every rule has a stable kebab-case slug — the name used in report JSON
//! and in allowlist directives (`// zkdet-analyzer: allow(<slug>) <reason>`).

/// Severity of a finding. `Error`-level findings gate CI; `Warning` and
/// `Info` are reported but only gate when the binary is run with a lower
/// `--severity` threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational only.
    Info,
    /// Suspicious but not always wrong.
    Warning,
    /// Breaks replay determinism (or the error-handling contract).
    Error,
}

impl Severity {
    /// Lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses a label back (CLI `--severity`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// The determinism rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `Instant::now` / `SystemTime` / `UNIX_EPOCH`: wall-clock reads make
    /// behaviour depend on the host instead of the simulated clock.
    WallClock,
    /// `thread_rng` / `OsRng` / `from_entropy` / `RandomState`: ambient
    /// entropy instead of the seeded splitmix64 chain.
    AmbientRandomness,
    /// `thread::spawn` / `thread::scope` (std or crossbeam) outside
    /// `zkdet-exec::pool`: unscheduled real concurrency invisible to the
    /// schedule log.
    RawThreadSpawn,
    /// Iteration over a `HashMap`/`HashSet` in a deterministic crate:
    /// per-instance `RandomState` makes the order differ between two runs
    /// in the same process.
    UnorderedIteration,
    /// A `HashMap`/`HashSet` field inside a type that is serialized,
    /// digested, or journaled: even without explicit iteration the codec
    /// will walk it eventually.
    HashInCodecType,
    /// `std::process::exit` skips destructors and drops buffered
    /// telemetry/WAL frames; binaries should return `ExitCode`.
    ProcessExit,
    /// `panic!` in a library path: the workspace error taxonomy
    /// (Transient/AbortAndRefund/Fatal) must decide, not an abort.
    LibraryPanic,
    /// An allow directive without a reason: allowlists must be auditable.
    AllowMissingReason,
}

/// All rules, in report order.
pub const ALL_RULES: [Rule; 8] = [
    Rule::WallClock,
    Rule::AmbientRandomness,
    Rule::RawThreadSpawn,
    Rule::UnorderedIteration,
    Rule::HashInCodecType,
    Rule::ProcessExit,
    Rule::LibraryPanic,
    Rule::AllowMissingReason,
];

impl Rule {
    /// Stable slug used in reports and allow directives.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::AmbientRandomness => "ambient-randomness",
            Rule::RawThreadSpawn => "raw-thread-spawn",
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::HashInCodecType => "hash-in-codec-type",
            Rule::ProcessExit => "process-exit",
            Rule::LibraryPanic => "library-panic",
            Rule::AllowMissingReason => "allow-missing-reason",
        }
    }

    /// Rule by slug (allow-directive parsing).
    pub fn from_slug(s: &str) -> Option<Self> {
        ALL_RULES.into_iter().find(|r| r.slug() == s)
    }

    /// Default severity.
    pub fn severity(self) -> Severity {
        match self {
            Rule::WallClock
            | Rule::AmbientRandomness
            | Rule::RawThreadSpawn
            | Rule::UnorderedIteration
            | Rule::ProcessExit => Severity::Error,
            Rule::HashInCodecType | Rule::LibraryPanic | Rule::AllowMissingReason => {
                Severity::Warning
            }
        }
    }

    /// One-line description for the report's rule table.
    pub fn description(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "wall-clock read (Instant::now/SystemTime/UNIX_EPOCH) in a deterministic path"
            }
            Rule::AmbientRandomness => {
                "ambient entropy (thread_rng/OsRng/from_entropy/RandomState) instead of seeded randomness"
            }
            Rule::RawThreadSpawn => {
                "thread::spawn / thread::scope outside the zkdet-exec worker pool"
            }
            Rule::UnorderedIteration => {
                "iteration over HashMap/HashSet whose order is per-instance random"
            }
            Rule::HashInCodecType => {
                "HashMap/HashSet field in a type that is serialized, digested, or journaled"
            }
            Rule::ProcessExit => "std::process::exit skips destructors; return ExitCode instead",
            Rule::LibraryPanic => "panic! in a library path bypasses the error taxonomy",
            Rule::AllowMissingReason => "zkdet-analyzer allow directive without a reason",
        }
    }
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What was matched, with enough context to locate it.
    pub message: String,
    /// `Some(reason)` when suppressed by an allow directive. Allowed
    /// findings appear in the report but never gate.
    pub allowed: Option<String>,
}

impl Finding {
    /// Effective severity: allowed findings drop to `Info`.
    pub fn effective_severity(&self) -> Severity {
        if self.allowed.is_some() {
            Severity::Info
        } else {
            self.rule.severity()
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn slugs_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::from_slug(rule.slug()), Some(rule));
        }
        assert_eq!(Rule::from_slug("no-such-rule"), None);
    }

    #[test]
    fn severity_ordering_gates_correctly() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::parse("warning"), Some(Severity::Warning));
    }

    #[test]
    fn allowed_findings_drop_to_info() {
        let f = Finding {
            rule: Rule::WallClock,
            file: "x.rs".into(),
            line: 1,
            message: String::new(),
            allowed: Some("measurement only".into()),
        };
        assert_eq!(f.effective_severity(), Severity::Info);
    }
}

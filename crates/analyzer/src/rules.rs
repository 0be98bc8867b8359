//! The rule taxonomy (DESIGN.md §12.1): the circuit-soundness rules of
//! [`crate::circuit`] and the source-determinism rules of [`crate::scan`],
//! one severity ranking, and the one finding type both passes produce.
//!
//! Every rule has a stable kebab-case slug — the name used in report JSON
//! and in allowlist directives (`// zkdet-analyzer: allow(<slug>) <reason>`).

/// Severity of a finding. Ordered: `Info < Warning < Error`. A finding
/// gates when it is not allowlisted and its rule's severity reaches the
/// `--severity` threshold (default `warning`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational only.
    Info,
    /// Suspicious but not always wrong.
    Warning,
    /// A soundness hole, or a break of replay determinism (or of the
    /// error-handling contract).
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

/// The rule table: variant, slug, severity and report description of
/// every rule. The enum, [`ALL_RULES`] and the lookups below are generated
/// from it, so a new rule is one entry here plus the pass that emits it.
macro_rules! rules {
    ($($(#[$meta:meta])* $variant:ident $slug:literal $severity:ident $description:literal,)*) => {
        /// The rules: seven over a pre-build constraint system, eight over
        /// workspace sources.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Rule {
            $($(#[$meta])* $variant,)*
        }

        /// All rules, in report order.
        pub const ALL_RULES: [Rule; [$($slug),*].len()] = [$(Rule::$variant),*];

        impl Rule {
            /// Stable slug used in reports and allow directives.
            pub fn slug(self) -> &'static str {
                match self {
                    $(Rule::$variant => $slug,)*
                }
            }

            /// The fixed severity of this rule.
            pub fn severity(self) -> Severity {
                match self {
                    $(Rule::$variant => Severity::$severity,)*
                }
            }

            /// One-line description for the report's rule table.
            pub fn description(self) -> &'static str {
                match self {
                    $(Rule::$variant => $description,)*
                }
            }

            /// Rule by slug (allow-directive parsing).
            pub fn from_slug(s: &str) -> Option<Self> {
                ALL_RULES.into_iter().find(|r| r.slug() == s)
            }
        }
    };
}

rules! {
    /// A copy class whose value appears in no gate equation and contains no
    /// public input: any witness value satisfies the circuit.
    UnconstrainedVariable "unconstrained-variable" Error
        "copy class read by no gate and holding no public input: its witness value is free",
    /// A public input whose copy class is read by no gadget gate — the
    /// implicit PI row pins it to the claimed value, but nothing relates it
    /// to the witness, so the statement component is free-floating.
    UnderconstrainedPublicInput "underconstrained-public-input" Error
        "public input read by no gadget gate: the statement does not constrain the witness",
    /// A merged copy class (an `assert_equal` happened) with a non-public
    /// member that occupies no gate slot: that member never enters the
    /// permutation argument, so its equality is silently unenforced.
    UnreachableCopyClass "unreachable-copy-class" Error
        "assert_equal member that occupies no gate slot: the permutation cannot enforce it",
    /// A gate whose five selectors are all zero: it constrains nothing.
    DeadGate "dead-gate" Warning
        "gate whose five selectors are all zero: it constrains nothing",
    /// A gate that linear constant-propagation proves unsatisfiable for
    /// every witness (e.g. `q_C ≠ 0` with no wires read, or wires pinned to
    /// contradicting constants).
    UnsatisfiableGate "unsatisfiable-gate" Error
        "gate that linear constant propagation proves unsatisfiable for every witness",
    /// Two distinct copy classes pinned to the same constant value; one
    /// cached `constant()` allocation would serve both.
    DuplicateConstant "duplicate-constant" Info
        "two copy classes pinned to the same constant; one cached constant() serves both",
    /// The structural digest differs across witnesses: selectors, wiring or
    /// public-input layout depend on witness values, breaking the
    /// one-preprocessing-per-shape contract.
    WitnessDependentStructure "witness-dependent-structure" Error
        "structural digest differs across witness seeds: structure depends on the witness",
    /// `Instant::now` / `SystemTime` / `UNIX_EPOCH`: wall-clock reads make
    /// behaviour depend on the host instead of the simulated clock.
    WallClock "wall-clock" Error
        "wall-clock read (Instant::now/SystemTime/UNIX_EPOCH) in a deterministic path",
    /// `thread_rng` / `OsRng` / `from_entropy` / `RandomState`: ambient
    /// entropy instead of the seeded splitmix64 chain.
    AmbientRandomness "ambient-randomness" Error
        "ambient entropy (thread_rng/OsRng/from_entropy/RandomState) instead of seeded randomness",
    /// `thread::spawn` / `thread::scope` (std or crossbeam) outside
    /// `zkdet-exec::pool`: unscheduled real concurrency invisible to the
    /// schedule log.
    RawThreadSpawn "raw-thread-spawn" Error
        "thread::spawn / thread::scope outside the zkdet-exec worker pool",
    /// Iteration over a `HashMap`/`HashSet` in a deterministic crate:
    /// per-instance `RandomState` makes the order differ between two runs
    /// in the same process.
    UnorderedIteration "unordered-iteration" Error
        "iteration over HashMap/HashSet whose order is per-instance random",
    /// A `HashMap`/`HashSet` field inside a type that is serialized,
    /// digested, or journaled: even without explicit iteration the codec
    /// will walk it eventually.
    HashInCodecType "hash-in-codec-type" Warning
        "HashMap/HashSet field in a type that is serialized, digested, or journaled",
    /// `std::process::exit` skips destructors and drops buffered
    /// telemetry/WAL frames; binaries should return `ExitCode`.
    ProcessExit "process-exit" Error
        "std::process::exit skips destructors; return ExitCode instead",
    /// `panic!` in a library path: the workspace error taxonomy
    /// (Transient/AbortAndRefund/Fatal) must decide, not an abort.
    LibraryPanic "library-panic" Warning
        "panic! in a library path bypasses the error taxonomy",
    /// An allow directive without a reason: allowlists must be auditable.
    AllowMissingReason "allow-missing-reason" Warning
        "zkdet-analyzer allow directive without a reason",
}

/// One finding, from either pass. A source finding carries `file` and
/// `line`; a circuit finding carries `variable` and/or `gate` instead and
/// belongs to the circuit it was found in.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path of a source finding (empty for a circuit's).
    pub file: String,
    /// 1-based line of a source finding (0 for a circuit's).
    pub line: u32,
    /// Index of the circuit variable (copy-class representative) involved.
    pub variable: Option<usize>,
    /// Circuit gate row involved.
    pub gate: Option<usize>,
    /// What was matched, with enough context to locate it.
    pub message: String,
    /// `Some(reason)` when suppressed by an allow directive. Allowed
    /// findings appear in the report but never gate.
    pub allowed: Option<String>,
}

impl Finding {
    /// A finding of `rule` with no location attached yet.
    pub fn new(rule: Rule, message: String) -> Finding {
        Finding {
            rule,
            file: String::new(),
            line: 0,
            variable: None,
            gate: None,
            message,
            allowed: None,
        }
    }

    /// Attaches a source location.
    #[must_use]
    pub fn at_line(mut self, file: &str, line: u32) -> Finding {
        self.file = file.to_string();
        self.line = line;
        self
    }

    /// Attaches the offending variable index.
    #[must_use]
    pub fn at_variable(mut self, v: usize) -> Finding {
        self.variable = Some(v);
        self
    }

    /// Attaches the offending gate row.
    #[must_use]
    pub fn at_gate(mut self, g: usize) -> Finding {
        self.gate = Some(g);
        self
    }

    /// Effective severity: allowed findings drop to `Info`.
    pub fn severity(&self) -> Severity {
        if self.allowed.is_some() {
            Severity::Info
        } else {
            self.rule.severity()
        }
    }

    /// The gate: whether this finding fails a run at threshold `min`.
    pub fn gates(&self, min: Severity) -> bool {
        self.allowed.is_none() && self.rule.severity() >= min
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
    fn severity_orders_and_roundtrips() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        for s in [Severity::Info, Severity::Warning, Severity::Error] {
            assert_eq!(Severity::parse(s.label()), Some(s));
        }
        assert_eq!(Severity::parse("fatal"), None);
    }

    #[test]
    fn allowed_findings_drop_to_info() {
        let mut f = Finding::new(Rule::WallClock, String::new()).at_line("x.rs", 1);
        assert!(f.gates(Severity::Error));
        f.allowed = Some("measurement only".into());
        assert_eq!(f.severity(), Severity::Info);
        assert!(!f.gates(Severity::Info));
    }
}

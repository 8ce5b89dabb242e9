//! The lint rules and the file/workspace scanners, built on the
//! token-level engine in [`crate::engine`].
//!
//! Rules no longer match substrings against scrubbed lines: each file
//! is lexed once, annotated with scope context (enclosing `fn` items,
//! `#[cfg(test)]` regions), and the rules run over that token stream.
//! Comments and string literals therefore can never false-positive,
//! and rules can be scope-aware — "no allocation inside *this*
//! function" (CRP009) or "this `HashMap` is iterated without sorting"
//! (CRP011) are token/scope questions, not line questions.

use crate::callgraph::CallGraph;
use crate::engine::{self, ScopedFile};
use crate::lexer::{self, TokenKind};
use crate::symbols::{SourceFile, SymbolTable};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// How a finding affects the lint exit status.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint run.
    Error,
    /// Reported but does not fail the run.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => f.write_str("error"),
            Severity::Warning => f.write_str("warning"),
        }
    }
}

/// What part of the workspace a rule applies to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Library sources only: `crates/*/src` and the root `src/`,
    /// excluding binaries, examples, benches, integration tests, and
    /// `#[cfg(test)]` regions.
    Library,
    /// All of `crates/*/src` and the root `src/`, including test
    /// modules and binaries (rules about determinism apply to tests
    /// too).
    CrateSources,
    /// Library sources of the simulation crates (`crp-netsim`,
    /// `crp-cdn`, `crp-core`, `crp-telemetry`, `crp-audit`) plus their
    /// test modules — simulated time must never mix with wall-clock
    /// time, even in tests.
    SimCrates,
    /// Library and binary sources of every crate *except* the
    /// sanctioned wall-clock users: `crp-bench`, `crp-eval`, and the
    /// `telemetry::profile` module. Wall-clock reads anywhere else are
    /// a determinism leak waiting to happen.
    WallClock,
    /// Library and binary sources outside the sanctioned provenance
    /// call sites ([`PROVENANCE_FILES`]) and test regions. Every
    /// `explain::record_*` hook must sit behind an `explain::enabled()`
    /// gate in a reviewed location — scattering record calls through
    /// hot paths erodes the zero-cost-when-disabled contract.
    Provenance,
    /// The declared hot-path functions ([`HOT_PATHS`]): the crp-core
    /// ratio/similarity/select kernels and the tracker ingest path,
    /// where per-call allocation is a scaling bug (ROADMAP item 1).
    HotPath,
    /// Library sources of the crates destined for the serving path
    /// ([`SERVING_CRATES`]), where a panic is an outage, excluding test
    /// regions.
    Serving,
    /// Every classified non-harness file outside test regions —
    /// `crp-lint: allow` markers are audited wherever they appear.
    AllowMarkers,
}

/// How a rule finds its violations.
pub enum Check {
    /// Token-sequence patterns (lexed with the same lexer as the
    /// source; a trailing `_` makes the final token a prefix match).
    Patterns(&'static [&'static str]),
    /// Token-sequence patterns plus the bracket-indexing detector —
    /// `m[k]` panics where `m.get(k)` would not.
    PanicFree(&'static [&'static str]),
    /// The `HashMap`/`HashSet` iteration-order heuristic.
    UnorderedIteration,
    /// `crp-lint: allow` markers that no longer suppress anything.
    StaleAllow,
    /// Transitive reachability over the workspace call graph: the rule
    /// fires when a root function *reaches* a sink through one or more
    /// call edges, with the offending chain printed. Body-local sinks
    /// in the roots themselves stay the business of the corresponding
    /// body-local rule (CRP009/CRP010/CRP007).
    Reachability(Reach),
}

/// What a reachability rule taints on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Reach {
    /// Allocation sinks reached from the declared hot paths (CRP014).
    Alloc,
    /// Panic-capable sinks reached from serving entry points (CRP015).
    Panic,
    /// Wall-clock reads reached from outside the sanctioned perf layer
    /// (CRP016).
    Clock,
}

/// A static-analysis rule: an ID, how it detects violations, and where
/// it applies.
pub struct Rule {
    /// Stable identifier, `CRP001`..`CRP012`.
    pub id: &'static str,
    /// The detection strategy.
    pub check: Check,
    /// Which files/regions the rule scans.
    pub scope: Scope,
    /// Default severity.
    pub severity: Severity,
    /// One-line explanation shown with each finding.
    pub message: &'static str,
}

/// Pattern label used for bracket-indexing findings (CRP010).
const INDEXING_PATTERN: &str = "[...]";

/// Pattern label used for hash-iteration findings (CRP011).
const HASH_ITER_PATTERN: &str = "HashMap/HashSet iteration";

/// Pattern label used for stale-marker findings (CRP012).
const STALE_ALLOW_PATTERN: &str = "crp-lint: allow";

/// The rule set, in ID order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "CRP001",
        check: Check::Patterns(&[".unwrap()", ".expect("]),
        scope: Scope::Library,
        severity: Severity::Error,
        message: "panicking unwrap/expect in library code; return a Result \
                  or document the invariant with crp-lint: allow(CRP001)",
    },
    Rule {
        id: "CRP002",
        check: Check::Patterns(&["thread_rng", "from_entropy", "rand::random"]),
        scope: Scope::CrateSources,
        severity: Severity::Error,
        message: "nondeterministic RNG source; all randomness must flow from \
                  an explicit seed (StdRng::seed_from_u64 or noise::mix)",
    },
    Rule {
        id: "CRP003",
        check: Check::Patterns(&[".partial_cmp("]),
        scope: Scope::Library,
        severity: Severity::Error,
        message: "NaN-unsafe float ordering; use f64::total_cmp for \
                  similarity scores and latencies",
    },
    Rule {
        id: "CRP004",
        check: Check::Patterns(&[
            "std::time::Instant",
            "std::time::SystemTime",
            "Instant::now",
            "SystemTime::now",
        ]),
        scope: Scope::SimCrates,
        severity: Severity::Error,
        message: "wall-clock time in a simulation crate; simulated code must \
                  use crp_netsim::SimTime exclusively",
    },
    Rule {
        id: "CRP005",
        check: Check::Patterns(&["println!", "eprintln!"]),
        scope: Scope::Library,
        severity: Severity::Warning,
        message: "stdout/stderr printing from a library crate; output is \
                  reserved for crp-eval binaries and examples",
    },
    Rule {
        id: "CRP006",
        check: Check::Patterns(&["File::create(", "OpenOptions::new(", "fs::write("]),
        scope: Scope::Library,
        severity: Severity::Error,
        message: "direct file I/O from library code; telemetry flows through \
                  crp-telemetry sinks, experiment output through crp-eval",
    },
    Rule {
        id: "CRP007",
        check: Check::Patterns(&[
            "std::time::Instant",
            "std::time::SystemTime",
            "Instant::now",
            "SystemTime::now",
        ]),
        scope: Scope::WallClock,
        severity: Severity::Error,
        message: "wall-clock time outside the sanctioned perf layer; only \
                  crp-bench, crp-eval, and telemetry::profile may read \
                  Instant/SystemTime",
    },
    Rule {
        id: "CRP008",
        check: Check::Patterns(&[
            "explain::record_",
            "trace::mint",
            "trace::begin",
            "trace::begin_",
            "trace::stage_",
            "trace::resume",
            "trace::query_stage",
            "trace::current_raw",
        ]),
        scope: Scope::Provenance,
        severity: Severity::Error,
        message: "provenance or trace hook outside the sanctioned sites; \
                  explain hooks and causal-trace spans live only in the \
                  reviewed decision points (core kernels, the CDN mint \
                  site, the crp-eval audit layer), each behind an \
                  enabled() gate",
    },
    Rule {
        id: "CRP009",
        check: Check::Patterns(&[
            ".clone()",
            ".cloned()",
            ".to_vec()",
            ".to_owned()",
            ".to_string()",
            ".collect(",
            "format!",
            "vec!",
            "String::from",
            "String::new",
            "Box::new",
            "Vec::new",
            "VecDeque::new",
            "HashMap::new",
            "HashSet::new",
            "BTreeMap::new",
            "BTreeSet::new",
        ]),
        scope: Scope::HotPath,
        severity: Severity::Error,
        message: "allocation in a declared hot-path function; hoist it out, \
                  reuse a scratch buffer, or justify with \
                  crp-lint: allow(CRP009)",
    },
    Rule {
        id: "CRP010",
        check: Check::PanicFree(&[".unwrap()", ".expect(", "panic!"]),
        scope: Scope::Serving,
        severity: Severity::Error,
        message: "panic-capable construct in a serving-path crate; use \
                  get()/checked APIs and propagate errors, or justify with \
                  crp-lint: allow(CRP010)",
    },
    Rule {
        id: "CRP011",
        check: Check::UnorderedIteration,
        scope: Scope::SimCrates,
        severity: Severity::Error,
        message: "HashMap/HashSet iteration without an ordering step in a \
                  sim crate; sort the stream or collect into a BTree \
                  container before anything depends on its order",
    },
    Rule {
        id: "CRP012",
        check: Check::StaleAllow,
        scope: Scope::AllowMarkers,
        severity: Severity::Error,
        message: "stale crp-lint allow marker: it suppresses no finding on \
                  the lines it covers; delete it or correct its rule list",
    },
    Rule {
        id: "CRP014",
        check: Check::Reachability(Reach::Alloc),
        scope: Scope::HotPath,
        severity: Severity::Error,
        message: "declared hot-path function reaches an allocating helper \
                  through the call graph; hoist the allocation, pass a \
                  scratch buffer down the chain, or justify with \
                  crp-lint: allow(CRP014)",
    },
    Rule {
        id: "CRP015",
        check: Check::Reachability(Reach::Panic),
        scope: Scope::Serving,
        severity: Severity::Error,
        message: "serving entry point reaches a panic-capable construct \
                  through the call graph; convert the chain to Result/get \
                  variants or justify with crp-lint: allow(CRP015)",
    },
    Rule {
        id: "CRP016",
        check: Check::Reachability(Reach::Clock),
        scope: Scope::WallClock,
        severity: Severity::Error,
        message: "function outside the sanctioned wall-clock set reaches \
                  Instant::now/SystemTime::now through the call graph; keep \
                  timing inside crp-bench/crp-eval/telemetry::profile or \
                  justify with crp-lint: allow(CRP016)",
    },
];

/// Pattern labels for the reachability findings; the concrete chain is
/// carried in [`Diagnostic::chain`].
const ALLOC_REACH_PATTERN: &str = "alloc-reachable";
const PANIC_REACH_PATTERN: &str = "panic-reachable";
const CLOCK_REACH_PATTERN: &str = "clock-reachable";

/// Allocation sinks for CRP014: the CRP009 pattern list plus the
/// growth calls a body-local rule cannot see behind (`push`, `extend`,
/// `resize`, ...). Like CRP009, turbofish spellings
/// (`collect::<Vec<_>>()`) are not matched — a documented miss.
const ALLOC_SINK_PATTERNS: &[&str] = &[
    ".clone()",
    ".cloned()",
    ".to_vec()",
    ".to_owned()",
    ".to_string()",
    ".collect(",
    "format!",
    "vec!",
    "String::from",
    "String::new",
    "String::with_capacity",
    "Box::new",
    "Vec::new",
    "Vec::with_capacity",
    "VecDeque::new",
    "HashMap::new",
    "HashSet::new",
    "BTreeMap::new",
    "BTreeSet::new",
    ".push(",
    ".push_back(",
    ".extend(",
    ".extend_from_slice(",
    ".resize(",
    ".reserve(",
    ".to_path_buf(",
];

/// Panic-capable sinks for CRP015 (bracket-indexing is detected
/// separately, exactly as in CRP010).
const PANIC_SINK_PATTERNS: &[&str] = &[".unwrap()", ".expect(", "panic!"];

/// Wall-clock sinks for CRP016.
const CLOCK_SINK_PATTERNS: &[&str] = &["Instant::now", "SystemTime::now"];

/// The public serving entry points (CRP015 roots): the `CrpService`
/// surface and the ranking/select API it delegates to. Everything a
/// future `crp-serve` frontend would call lands here first.
const SERVING_ENTRIES: &[(&str, &[&str])] = &[
    (
        "crates/core/src/service.rs",
        &[
            "record",
            "ratio_map",
            "similarity",
            "closest",
            "relative",
            "cluster",
            "prune_stale",
            "remove_node",
        ],
    ),
    (
        "crates/core/src/select.rs",
        &["rank", "top", "top_k", "score_of"],
    ),
];

/// Crates whose library code is a simulation path (CRP004, CRP011). The
/// telemetry crate is included because its records are keyed on
/// simulated time — mixing in the wall clock would break determinism —
/// and the audit crate because its drift scans re-interpret SimTime
/// history and must stay on simulated time exclusively.
const SIM_CRATES: &[&str] = &["netsim", "cdn", "core", "telemetry", "audit"];

/// Crates destined for the serving path (CRP010): the positioning core,
/// the CDN model it serves from, and the DNS front end.
const SERVING_CRATES: &[&str] = &["core", "cdn", "dns"];

/// Crates allowed to print from library code (CRP005 exemption).
const OUTPUT_CRATES: &[&str] = &["eval"];

/// Crates whose purpose *is* file I/O (CRP006 exemption): the telemetry
/// sink layer, the experiment-output helpers, and the dev tooling.
const FILE_IO_CRATES: &[&str] = &["telemetry", "eval", "xtask"];

/// Crates sanctioned to read the wall clock (CRP007 exemption): the
/// benchmark harness and the experiment runner.
const WALL_CLOCK_CRATES: &[&str] = &["bench", "eval"];

/// Individual files sanctioned to read the wall clock even though their
/// crate is not: the profiler is wall-clock by definition, and lives in
/// the telemetry crate only to share the atomic-gate pattern. Exempt
/// from both CRP004 and CRP007.
const WALL_CLOCK_FILES: &[&str] = &["crates/telemetry/src/profile.rs"];

/// The sanctioned provenance and trace-hook call sites (CRP008
/// exemption): the core decision points whose hooks were reviewed to
/// sit behind the `explain::enabled()` / `trace::enabled()` gates, the
/// explain module itself, the crp-eval audit layer that records
/// ground-truth inversions, the CDN redirection event where traces are
/// minted, and the observation/tracker ingest path that propagates
/// them.
const PROVENANCE_FILES: &[&str] = &[
    "crates/core/src/explain.rs",
    "crates/core/src/similarity.rs",
    "crates/core/src/select.rs",
    "crates/core/src/cluster.rs",
    "crates/core/src/observation.rs",
    "crates/core/src/tracker.rs",
    "crates/core/src/service.rs",
    "crates/cdn/src/cdn.rs",
    // Scripted infrastructure events mint one causal trace per applied
    // event (behind trace::enabled()), so detection-latency evaluation
    // can tie a DetectedChange back to the event that caused it.
    "crates/cdn/src/events.rs",
    "crates/telemetry/src/timeseries.rs",
    "crates/eval/src/audit.rs",
    // The bench harness drives the trace hooks on purpose: the traced
    // ingest row measures exactly the cost CRP008 exists to contain.
    "crates/bench/src/bin/bench_all.rs",
];

/// The declared hot-path set (CRP009): per file, the functions on the
/// per-query or per-observation path once the tracker scales to the
/// 100k–1M-host regime of ROADMAP item 1. Paths are workspace-relative
/// so the fixture tree (which mirrors the layout) exercises the same
/// configuration.
const HOT_PATHS: &[(&str, &[&str])] = &[
    (
        "crates/core/src/ratio.rs",
        &[
            "from_counts",
            "from_weights",
            "get",
            "dot",
            "cosine_similarity",
            "l1_distance",
            "overlaps",
            "strongest",
            "l2_norm",
        ],
    ),
    (
        "crates/core/src/similarity.rs",
        &["compare", "jaccard", "weighted_overlap"],
    ),
    (
        "crates/core/src/select.rs",
        &["rank", "top", "top_k", "score_of"],
    ),
    (
        "crates/core/src/tracker.rs",
        &["record", "record_slice", "ratio_map", "prune_before"],
    ),
    (
        "crates/cdn/src/cdn.rs",
        &[
            "authoritative_answer",
            "shortlist_into",
            "weighted_pick_into",
        ],
    ),
];

/// The hot-path function list for a workspace-relative path, if any.
fn hot_fns(joined: &str) -> Option<&'static [&'static str]> {
    HOT_PATHS
        .iter()
        .find(|(path, _)| *path == joined)
        .map(|(_, fns)| *fns)
}

/// A single lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path as reported (relative to the linted root).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule ID (`CRP001`..).
    pub rule: &'static str,
    /// Effective severity.
    pub severity: Severity,
    /// The matched pattern (or a fixed label for the scope checks).
    pub pattern: &'static str,
    /// Rule explanation.
    pub message: &'static str,
    /// For reachability findings (CRP014–016): the offending call
    /// chain, rendered `root (file:line) -> hop (file:line) -> `sink`
    /// (file:line)`. Empty for body-local findings.
    pub chain: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}]: `{}` — {}",
            self.file.display(),
            self.line,
            self.severity,
            self.rule,
            self.pattern,
            self.message
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n    call chain: {}", self.chain)?;
        }
        Ok(())
    }
}

/// How a file is classified for rule scoping.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum FileKind {
    /// `crates/<name>/src` or root `src/` non-binary code.
    Library,
    /// `src/bin/**` under a crate — an executable entry point.
    Binary,
    /// Integration tests, benches, examples, build scripts.
    Harness,
}

struct FileClass {
    kind: FileKind,
    /// Short crate name (`core`, `cdn`, ... or `crp` for the root).
    crate_name: String,
    /// The `/`-joined workspace-relative path, for file-keyed lists.
    joined: String,
    /// Whether the file is on the [`WALL_CLOCK_FILES`] exemption list.
    wall_clock_exempt: bool,
    /// Whether the file is on the [`PROVENANCE_FILES`] exemption list.
    provenance_exempt: bool,
}

/// Directories never scanned.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

fn classify(rel: &Path) -> Option<FileClass> {
    let parts: Vec<&str> = rel
        .components()
        .map(|c| c.as_os_str().to_str().unwrap_or(""))
        .collect();
    let joined = parts.join("/");
    let wall_clock_exempt = WALL_CLOCK_FILES.contains(&joined.as_str());
    let provenance_exempt = PROVENANCE_FILES.contains(&joined.as_str());
    if parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"))
        || parts.last().is_some_and(|f| *f == "build.rs")
    {
        let crate_name = if parts.first() == Some(&"crates") {
            parts.get(1).unwrap_or(&"crp").to_string()
        } else {
            "crp".to_string()
        };
        return Some(FileClass {
            kind: FileKind::Harness,
            crate_name,
            joined,
            wall_clock_exempt,
            provenance_exempt,
        });
    }
    if parts.first() == Some(&"crates") {
        let crate_name = (*parts.get(1)?).to_string();
        if parts.get(2) != Some(&"src") {
            return None;
        }
        let kind = if parts.get(3) == Some(&"bin") || parts.get(3) == Some(&"main.rs") {
            FileKind::Binary
        } else {
            FileKind::Library
        };
        return Some(FileClass {
            kind,
            crate_name,
            joined,
            wall_clock_exempt,
            provenance_exempt,
        });
    }
    if parts.first() == Some(&"src") {
        return Some(FileClass {
            kind: FileKind::Library,
            crate_name: "crp".to_string(),
            joined,
            wall_clock_exempt,
            provenance_exempt,
        });
    }
    None
}

fn rule_applies(rule: &Rule, class: &FileClass, in_test_region: bool) -> bool {
    match rule.scope {
        Scope::Library => {
            if class.kind != FileKind::Library || in_test_region {
                return false;
            }
            // crp-eval's library exists to produce experiment output.
            if rule.id == "CRP005" && OUTPUT_CRATES.contains(&class.crate_name.as_str()) {
                return false;
            }
            // Sink/output/tooling crates are the sanctioned I/O paths.
            !(rule.id == "CRP006" && FILE_IO_CRATES.contains(&class.crate_name.as_str()))
        }
        Scope::CrateSources => class.kind != FileKind::Harness,
        Scope::SimCrates => {
            class.kind == FileKind::Library
                && SIM_CRATES.contains(&class.crate_name.as_str())
                && !class.wall_clock_exempt
        }
        Scope::WallClock => {
            class.kind != FileKind::Harness
                && !WALL_CLOCK_CRATES.contains(&class.crate_name.as_str())
                && !class.wall_clock_exempt
        }
        Scope::Provenance => {
            class.kind != FileKind::Harness && !in_test_region && !class.provenance_exempt
        }
        Scope::HotPath => {
            class.kind == FileKind::Library && !in_test_region && hot_fns(&class.joined).is_some()
        }
        Scope::Serving => {
            class.kind == FileKind::Library
                && !in_test_region
                && SERVING_CRATES.contains(&class.crate_name.as_str())
        }
        Scope::AllowMarkers => class.kind != FileKind::Harness && !in_test_region,
    }
}

/// A parsed `crp-lint: allow(...)` marker.
struct Marker {
    /// 1-based line of the comment holding the marker.
    line: usize,
    /// 1-based line on which the comment ends (block comments span).
    end_line: usize,
    /// Whether the comment shares its line(s) with no code — such
    /// markers also cover the line directly below.
    comment_only: bool,
    /// Rule IDs listed inside `allow(...)`.
    rules: Vec<String>,
    /// Whether justification text follows the closing paren. Only
    /// justified markers suppress; the justification is the reviewed
    /// reason the violation is acceptable.
    justified: bool,
}

impl Marker {
    /// Whether the marker covers findings on 1-based line `line`.
    fn covers(&self, line: usize) -> bool {
        (line >= self.line && line <= self.end_line)
            || (self.comment_only && line == self.end_line + 1)
    }
}

/// Extracts allow markers from the comment tokens of `source`. Marker
/// text inside string literals is invisible here — only real comments
/// count, which also keeps this tool's own sources lintable.
fn parse_markers(source: &str) -> Vec<Marker> {
    let tokens = lexer::lex(source);
    let mut markers = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Comment {
            continue;
        }
        // Doc comments describe the marker syntax, they don't use it —
        // `//! ... crp-lint: allow(CRP00x) ...` in module docs must
        // neither suppress nor count as stale.
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| tok.text.starts_with(p))
        {
            continue;
        }
        let Some((rules, justified)) = parse_marker_text(tok.text) else {
            continue;
        };
        let line = tok.line as usize;
        let end_line = line + tok.text.matches('\n').count();
        let code_before = tokens[..i]
            .iter()
            .any(|t| t.kind != TokenKind::Comment && t.line as usize == line);
        let code_after = tokens[i + 1..]
            .iter()
            .take_while(|t| t.line as usize <= end_line)
            .any(|t| t.kind != TokenKind::Comment);
        markers.push(Marker {
            line,
            end_line,
            comment_only: !code_before && !code_after,
            rules,
            justified,
        });
    }
    markers
}

/// Whether `r` has the shape of a real rule ID (`CRP` + three
/// digits). Prose that merely talks about markers — `CRP00x`,
/// `<rules>` — must not parse as one.
fn is_rule_id(r: &str) -> bool {
    r.len() == 6 && r.starts_with("CRP") && r[3..].bytes().all(|b| b.is_ascii_digit())
}

/// Parses one comment's text for `crp-lint: allow(<rules>) <reason>`.
fn parse_marker_text(text: &str) -> Option<(Vec<String>, bool)> {
    let pos = text.find("crp-lint:")?;
    let rest = &text[pos + "crp-lint:".len()..];
    let open = rest.find("allow(")?;
    let inner = &rest[open + "allow(".len()..];
    let close = inner.find(')')?;
    let rules: Vec<String> = inner[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() || !rules.iter().all(|r| is_rule_id(r)) {
        return None;
    }
    let tail = inner[close + 1..].trim().trim_end_matches("*/").trim();
    Some((rules, !tail.is_empty()))
}

/// Whether a justified marker covering `line` allows `rule_id`.
fn suppressed(markers: &[Marker], line: usize, rule_id: &str) -> bool {
    markers
        .iter()
        .any(|m| m.justified && m.covers(line) && m.rules.iter().any(|r| r == rule_id))
}

/// A finding before allow-marker suppression.
struct Candidate {
    line: usize,
    rule_idx: usize,
    pattern: &'static str,
}

/// One classified input file, lexed and scope-annotated once and shared
/// by the body-local rules and the interprocedural pass.
struct Unit<'a> {
    /// Index into the `inputs` slice — diagnostics report the original
    /// path exactly as given.
    input: usize,
    class: FileClass,
    scoped: ScopedFile<'a>,
    markers: Vec<Marker>,
}

/// A reachability finding before assembly: the offending call-site line
/// in a unit, plus the rendered chain.
struct ChainFinding {
    unit: usize,
    line: usize,
    rule_idx: usize,
    pattern: &'static str,
    chain: String,
}

/// Body-local candidates for one unit — every rule except the
/// stale-marker audit and the reachability checks — pre-suppression.
fn body_candidates(unit: &Unit<'_>) -> Vec<Candidate> {
    let class = &unit.class;
    let file = &unit.scoped;
    let mut candidates: Vec<Candidate> = Vec::new();
    for (rule_idx, rule) in RULES.iter().enumerate() {
        let mut hits: Vec<(usize, &'static str)> = Vec::new();
        match rule.check {
            Check::Patterns(pats) | Check::PanicFree(pats) => {
                for pat in pats {
                    let toks = engine::pattern_tokens(pat);
                    let prefix = pat.ends_with('_');
                    for idx in engine::find_pattern_matches(file, &toks, prefix) {
                        hits.push((idx, pat));
                    }
                }
                if matches!(rule.check, Check::PanicFree(_)) {
                    for idx in engine::find_index_exprs(file) {
                        hits.push((idx, INDEXING_PATTERN));
                    }
                }
            }
            Check::UnorderedIteration => {
                for idx in engine::find_unordered_iterations(file) {
                    hits.push((idx, HASH_ITER_PATTERN));
                }
            }
            Check::StaleAllow => {}
            // Reachability rules run on the workspace call graph, not
            // on single-file token streams.
            Check::Reachability(_) => {}
        }
        for (idx, pattern) in hits {
            let tok = &file.tokens[idx];
            if !rule_applies(rule, class, tok.in_test) {
                continue;
            }
            if rule.scope == Scope::HotPath {
                let Some(fns) = hot_fns(&class.joined) else {
                    continue;
                };
                if !file.in_fn_named(idx, fns) {
                    continue;
                }
            }
            let line = tok.token.line as usize;
            // One finding per (rule, line, pattern), as the line engine
            // reported.
            if candidates
                .iter()
                .any(|c| c.rule_idx == rule_idx && c.line == line && c.pattern == pattern)
            {
                continue;
            }
            candidates.push(Candidate {
                line,
                rule_idx,
                pattern,
            });
        }
    }
    candidates
}

/// One function node of the exported call graph.
#[derive(Clone, Debug)]
pub struct GraphNode {
    /// Function name.
    pub name: String,
    /// Workspace-relative `/`-joined path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// One resolved call edge of the exported call graph.
#[derive(Clone, Debug)]
pub struct GraphEdge {
    /// Caller node index.
    pub caller: usize,
    /// Callee node index.
    pub callee: usize,
    /// File holding the call site.
    pub file: String,
    /// 1-based call-site line.
    pub line: u32,
    /// The callee name as written at the call site.
    pub name: String,
}

/// One unresolved call site of the exported call graph.
#[derive(Clone, Debug)]
pub struct GraphUnresolved {
    /// File holding the call site.
    pub file: String,
    /// 1-based call-site line.
    pub line: u32,
    /// The called name as written.
    pub name: String,
    /// The receiver name for method calls, when one was visible.
    pub receiver: Option<String>,
}

/// The interprocedural summary behind CRP014–016, exported as
/// `results/callgraph.json` by `lint --graph`.
#[derive(Clone, Debug, Default)]
pub struct GraphReport {
    /// Every non-harness `fn` item, in (file, declaration) order.
    pub nodes: Vec<GraphNode>,
    /// Every resolved call edge.
    pub edges: Vec<GraphEdge>,
    /// Call sites the conservative resolver could not place — reported,
    /// never silently dropped.
    pub unresolved: Vec<GraphUnresolved>,
    /// Call sites resolved to workspace functions.
    pub resolved_calls: usize,
    /// Call sites classified as std/leaf calls.
    pub std_calls: usize,
    /// `unresolved / (resolved + std + unresolved)`; the CI gate
    /// (`--max-unresolved`) fails when this grows past the committed
    /// threshold.
    pub unresolved_fraction: f64,
}

/// The full result of a workspace lint pass.
pub struct LintReport {
    /// All findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// The call-graph summary the reachability rules ran on.
    pub graph: GraphReport,
}

/// Lints a set of files as one workspace: body-local rules per file,
/// then the interprocedural reachability rules (CRP014–016) over the
/// call graph spanning all of them, then the stale-marker audit
/// (CRP012) with transitive liveness taken into account. `demoted`
/// lists rule IDs reduced to warnings.
pub fn lint_files(inputs: &[(PathBuf, String)], demoted: &[String]) -> LintReport {
    let mut units: Vec<Unit<'_>> = Vec::new();
    for (i, (rel, source)) in inputs.iter().enumerate() {
        let Some(class) = classify(rel) else {
            continue;
        };
        units.push(Unit {
            input: i,
            class,
            scoped: ScopedFile::parse(source),
            markers: parse_markers(source),
        });
    }

    let candidates: Vec<Vec<Candidate>> = units.iter().map(body_candidates).collect();

    // The interprocedural layer: non-harness units form the graph.
    let graph_units: Vec<usize> = (0..units.len())
        .filter(|&u| units[u].class.kind != FileKind::Harness)
        .collect();
    let sources: Vec<SourceFile<'_, '_>> = graph_units
        .iter()
        .map(|&u| {
            SourceFile::new(
                units[u].class.joined.clone(),
                units[u].class.crate_name.clone(),
                &units[u].scoped,
            )
        })
        .collect();
    let table = SymbolTable::build(&sources);
    let graph = CallGraph::build(&sources, &table);

    let mut findings: Vec<ChainFinding> = Vec::new();
    let mut live: Vec<BTreeSet<(&'static str, usize)>> = vec![BTreeSet::new(); units.len()];
    for (rule_idx, rule) in RULES.iter().enumerate() {
        if let Check::Reachability(reach) = rule.check {
            run_reachability(
                reach,
                rule_idx,
                &units,
                &graph_units,
                &sources,
                &table,
                &graph,
                &mut findings,
                &mut live,
            );
        }
    }

    let graph_report = GraphReport {
        nodes: table
            .fns
            .iter()
            .map(|s| GraphNode {
                name: s.name.clone(),
                file: sources[s.file].joined.clone(),
                line: s.line,
            })
            .collect(),
        edges: graph
            .edges
            .iter()
            .map(|e| GraphEdge {
                caller: e.caller,
                callee: e.callee,
                file: sources[e.file].joined.clone(),
                line: e.line,
                name: e.name.clone(),
            })
            .collect(),
        unresolved: graph
            .unresolved
            .iter()
            .map(|u| GraphUnresolved {
                file: sources[u.file].joined.clone(),
                line: u.line,
                name: u.name.clone(),
                receiver: u.receiver.clone(),
            })
            .collect(),
        resolved_calls: graph.resolved_calls,
        std_calls: graph.std_calls,
        unresolved_fraction: graph.unresolved_fraction(),
    };

    let mut diagnostics = Vec::new();
    for (u, unit) in units.iter().enumerate() {
        let rel = &inputs[unit.input].0;
        for c in &candidates[u] {
            let rule = &RULES[c.rule_idx];
            if suppressed(&unit.markers, c.line, rule.id) {
                continue;
            }
            diagnostics.push(make_diagnostic(rel, c.line, rule, c.pattern, demoted));
        }

        // CRP012: markers that cover no candidate of any rule they list
        // are stale. Usage is judged against pre-suppression candidates
        // (so an unjustified marker sitting on a real violation is not
        // *also* reported as stale — the violation itself already
        // fires), and against the raw transitive-live lines for the
        // reachability rules — a marker justifying CRP014/015/016 is
        // live when any chain lands on a line it covers, not just a
        // body-local token.
        if let Some(stale_rule) = RULES.iter().find(|r| matches!(r.check, Check::StaleAllow)) {
            for m in &unit.markers {
                if !rule_applies(
                    stale_rule,
                    &unit.class,
                    unit.scoped.line_in_test(m.line as u32),
                ) {
                    continue;
                }
                if m.rules.iter().any(|r| r == stale_rule.id) {
                    // `allow(CRP012)` in the list marks the marker as
                    // intentionally kept.
                    continue;
                }
                let used = candidates[u]
                    .iter()
                    .any(|c| m.covers(c.line) && m.rules.iter().any(|r| r == RULES[c.rule_idx].id))
                    || live[u]
                        .iter()
                        .any(|(rid, line)| m.covers(*line) && m.rules.iter().any(|r| r == rid));
                if used || suppressed(&unit.markers, m.line, stale_rule.id) {
                    continue;
                }
                diagnostics.push(make_diagnostic(
                    rel,
                    m.line,
                    stale_rule,
                    STALE_ALLOW_PATTERN,
                    demoted,
                ));
            }
        }
    }

    for f in &findings {
        let unit = &units[f.unit];
        let rel = &inputs[unit.input].0;
        let mut d = make_diagnostic(rel, f.line, &RULES[f.rule_idx], f.pattern, demoted);
        d.chain = f.chain.clone();
        diagnostics.push(d);
    }

    diagnostics.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    LintReport {
        diagnostics,
        graph: graph_report,
    }
}

/// Runs one reachability rule over the call graph, appending chain
/// findings and registering transitive-live lines for the CRP012 audit.
#[allow(clippy::too_many_arguments)]
fn run_reachability(
    reach: Reach,
    rule_idx: usize,
    units: &[Unit<'_>],
    graph_units: &[usize],
    sources: &[SourceFile<'_, '_>],
    table: &SymbolTable,
    graph: &CallGraph,
    findings: &mut Vec<ChainFinding>,
    live: &mut [BTreeSet<(&'static str, usize)>],
) {
    let rule = &RULES[rule_idx];
    let (patterns, label) = match reach {
        Reach::Alloc => (ALLOC_SINK_PATTERNS, ALLOC_REACH_PATTERN),
        Reach::Panic => (PANIC_SINK_PATTERNS, PANIC_REACH_PATTERN),
        Reach::Clock => (CLOCK_SINK_PATTERNS, CLOCK_REACH_PATTERN),
    };
    let nsym = table.fns.len();

    // Sink sites. A justified allow marker for this rule on a sink line
    // sanctions that sink for every chain — suppression happens before
    // taint, at the sink or at any call edge on the way.
    let mut sink_enabled = vec![false; nsym];
    let mut sink_raw = vec![false; nsym];
    let mut sink_sites: Vec<Vec<(usize, &'static str)>> = vec![Vec::new(); nsym];
    let mut raw_sites: Vec<(usize, usize, usize)> = Vec::new();
    for (gi, _) in sources.iter().enumerate() {
        let unit = &units[graph_units[gi]];
        let scoped = &unit.scoped;
        let mut hits: Vec<(usize, &'static str)> = Vec::new();
        for pat in patterns {
            let toks = engine::pattern_tokens(pat);
            let prefix = pat.ends_with('_');
            for idx in engine::find_pattern_matches(scoped, &toks, prefix) {
                hits.push((idx, pat));
            }
        }
        if reach == Reach::Panic {
            for idx in engine::find_index_exprs(scoped) {
                hits.push((idx, INDEXING_PATTERN));
            }
        }
        for (idx, pat) in hits {
            let tok = &scoped.tokens[idx];
            if tok.in_test {
                continue;
            }
            let Some(fn_id) = tok.fn_scope else {
                continue;
            };
            let Some(sym) = table.sym_of(gi, fn_id as usize) else {
                continue;
            };
            let line = tok.token.line as usize;
            sink_raw[sym] = true;
            raw_sites.push((gi, sym, line));
            if !suppressed(&unit.markers, line, rule.id) {
                sink_enabled[sym] = true;
                sink_sites[sym].push((line, pat));
            }
        }
    }

    // Roots.
    let mut is_root = vec![false; nsym];
    match reach {
        Reach::Alloc => {
            for (gi, src) in sources.iter().enumerate() {
                let Some(fns) = hot_fns(&src.joined) else {
                    continue;
                };
                mark_named_roots(table, gi, fns, &mut is_root);
            }
        }
        Reach::Panic => {
            for (gi, src) in sources.iter().enumerate() {
                let Some(fns) = SERVING_ENTRIES
                    .iter()
                    .find(|(path, _)| *path == src.joined)
                    .map(|(_, fns)| *fns)
                else {
                    continue;
                };
                mark_named_roots(table, gi, fns, &mut is_root);
            }
        }
        Reach::Clock => {
            for (sym_id, sym) in table.fns.iter().enumerate() {
                if sym.is_test {
                    continue;
                }
                let src = &sources[sym.file];
                let sanctioned = WALL_CLOCK_CRATES.contains(&src.crate_name.as_str())
                    || WALL_CLOCK_FILES.contains(&src.joined.as_str());
                if !sanctioned {
                    is_root[sym_id] = true;
                }
            }
        }
    }

    // Call edges disabled by a justified marker for this rule don't
    // propagate taint and produce no finding.
    let edge_enabled: Vec<bool> = graph
        .edges
        .iter()
        .map(|e| {
            let unit = &units[graph_units[e.file]];
            !suppressed(&unit.markers, e.line as usize, rule.id)
        })
        .collect();

    let tainted = graph.tainted(&sink_enabled, &edge_enabled);

    // Frontier emission: a finding lands on a root's own call sites
    // only. For CRP014/015, edges into another root are skipped — the
    // callee root reports its own chains, so one deep chain does not
    // cascade into a finding per ancestor. For CRP016 every
    // unsanctioned function is a root, so the frontier is instead the
    // deepest unsanctioned call site: an edge fires only when the
    // callee directly holds a sink or is sanctioned-and-tainted.
    let mut emitted: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
    for root in 0..nsym {
        if !is_root[root] {
            continue;
        }
        for &e_idx in &graph.out[root] {
            if !edge_enabled[e_idx] {
                continue;
            }
            let e = &graph.edges[e_idx];
            if !tainted[e.callee] {
                continue;
            }
            let emit = match reach {
                Reach::Alloc | Reach::Panic => !is_root[e.callee],
                Reach::Clock => sink_enabled[e.callee] || !is_root[e.callee],
            };
            if !emit {
                continue;
            }
            let unit = graph_units[e.file];
            let line = e.line as usize;
            if !emitted.insert((unit, line, rule_idx)) {
                continue;
            }
            let chain = render_chain(
                root,
                e_idx,
                &sink_enabled,
                &sink_sites,
                &edge_enabled,
                sources,
                table,
                graph,
            );
            findings.push(ChainFinding {
                unit,
                line,
                rule_idx,
                pattern: label,
                chain,
            });
        }
    }

    // Transitive liveness for CRP012, on the RAW graph (no marker
    // filtering): a marker justifying this rule is live wherever a
    // chain from some root could land — a sink line reached from a
    // root, or a call edge with a root-reachable caller and a tainted
    // callee. Computing this on the filtered graph would make every
    // effective marker look stale, because the very chains it disables
    // would vanish.
    let all_edges = vec![true; graph.edges.len()];
    let raw_tainted = graph.tainted(&sink_raw, &all_edges);
    let raw_reach = graph.reachable(&is_root, &all_edges);
    for &(gi, sym, line) in &raw_sites {
        if raw_reach[sym] {
            live[graph_units[gi]].insert((rule.id, line));
        }
    }
    for e in &graph.edges {
        if raw_reach[e.caller] && raw_tainted[e.callee] {
            live[graph_units[e.file]].insert((rule.id, e.line as usize));
        }
    }
}

/// Marks the non-test functions of file `gi` whose names appear in
/// `fns` as roots.
fn mark_named_roots(table: &SymbolTable, gi: usize, fns: &[&str], is_root: &mut [bool]) {
    for &sym_id in &table.fn_map[gi] {
        let sym = &table.fns[sym_id];
        if !sym.is_test && fns.contains(&sym.name.as_str()) {
            is_root[sym_id] = true;
        }
    }
}

/// Renders the offending chain for a finding: the root, each hop down
/// the shortest enabled path to a sink holder, and the concrete sink.
#[allow(clippy::too_many_arguments)]
fn render_chain(
    root: usize,
    first_edge: usize,
    sink_enabled: &[bool],
    sink_sites: &[Vec<(usize, &'static str)>],
    edge_enabled: &[bool],
    sources: &[SourceFile<'_, '_>],
    table: &SymbolTable,
    graph: &CallGraph,
) -> String {
    let e0 = &graph.edges[first_edge];
    let mut path = vec![first_edge];
    if let Some(rest) = graph.shortest_path(e0.callee, sink_enabled, edge_enabled) {
        path.extend(rest);
    }
    let rsym = &table.fns[root];
    let mut out = format!(
        "{} ({}:{})",
        rsym.name, sources[rsym.file].joined, rsym.line
    );
    let mut last = root;
    for &ei in &path {
        let e = &graph.edges[ei];
        let c = &table.fns[e.callee];
        out.push_str(&format!(
            " -> {} ({}:{})",
            c.name, sources[c.file].joined, c.line
        ));
        last = e.callee;
    }
    if let Some(&(line, pat)) = sink_sites[last].iter().min() {
        out.push_str(&format!(
            " -> `{}` ({}:{})",
            pat, sources[table.fns[last].file].joined, line
        ));
    }
    out
}

/// Lints one file's source text. `rel` is the path used in diagnostics
/// and for scope classification; `demoted` lists rule IDs reduced to
/// warnings. The reachability rules still run — over the single-file
/// call graph.
pub fn lint_source(rel: &Path, source: &str, demoted: &[String]) -> Vec<Diagnostic> {
    let inputs = [(rel.to_path_buf(), source.to_string())];
    lint_files(&inputs, demoted).diagnostics
}

fn make_diagnostic(
    rel: &Path,
    line: usize,
    rule: &Rule,
    pattern: &'static str,
    demoted: &[String],
) -> Diagnostic {
    let severity = if demoted.iter().any(|d| d == rule.id) {
        Severity::Warning
    } else {
        rule.severity
    };
    Diagnostic {
        file: rel.to_path_buf(),
        line,
        rule: rule.id,
        severity,
        pattern,
        message: rule.message,
        chain: String::new(),
    }
}

/// Reads every `.rs` file under `root` into memory, skipping
/// `target/`, `vendor/`, `.git/`, and `fixtures/` directories. Paths
/// are root-relative and sorted.
///
/// # Errors
///
/// Returns an error when a directory or file cannot be read.
pub fn read_workspace_sources(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        out.push((rel, source));
    }
    Ok(out)
}

/// Recursively lints every `.rs` file under `root` as one workspace,
/// returning the findings plus the call-graph summary. Diagnostics are
/// sorted by path, then line.
///
/// # Errors
///
/// Returns an error when a directory or file cannot be read.
pub fn lint_root_report(root: &Path, demoted: &[String]) -> std::io::Result<LintReport> {
    let inputs = read_workspace_sources(root)?;
    Ok(lint_files(&inputs, demoted))
}

/// [`lint_root_report`], findings only.
///
/// # Errors
///
/// Returns an error when a directory or file cannot be read.
pub fn lint_root(root: &Path, demoted: &[String]) -> std::io::Result<Vec<Diagnostic>> {
    Ok(lint_root_report(root, demoted)?.diagnostics)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_str().unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A library file in a crate with no special scope memberships —
    /// not sim, not serving, not I/O- or wall-clock-sanctioned.
    fn lib_path() -> PathBuf {
        PathBuf::from("crates/demo/src/demo.rs")
    }

    #[test]
    fn unwrap_in_library_is_flagged() {
        let diags = lint_source(&lib_path(), "fn f() { x.unwrap(); }\n", &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "CRP001");
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn unwrap_in_cfg_test_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint_source(&lib_path(), src, &[]).is_empty());
    }

    #[test]
    fn unwrap_after_test_region_is_flagged() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn g() { y.unwrap(); }\n";
        let diags = lint_source(&lib_path(), src, &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn allow_comment_suppresses() {
        let same = "fn f() { x.unwrap(); } // crp-lint: allow(CRP001) — documented invariant\n";
        assert!(lint_source(&lib_path(), same, &[]).is_empty());
        let above =
            "// safe by construction: crp-lint: allow(CRP001) — reviewed\nfn f() { x.unwrap(); }\n";
        assert!(lint_source(&lib_path(), above, &[]).is_empty());
        // A marker for the wrong rule suppresses nothing — the original
        // finding fires, and the marker itself is stale (CRP012).
        let wrong_rule = "fn f() { x.unwrap(); } // crp-lint: allow(CRP002) — misfiled\n";
        let diags = lint_source(&lib_path(), wrong_rule, &[]);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["CRP001", "CRP012"]);
    }

    #[test]
    fn unjustified_allow_does_not_suppress() {
        let src = "fn f() { x.unwrap(); } // crp-lint: allow(CRP001)\n";
        let diags = lint_source(&lib_path(), src, &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "CRP001");
    }

    #[test]
    fn marker_inside_string_literal_is_ignored() {
        // Neither suppresses anything nor counts as a stale marker.
        let src = "fn f() -> &'static str { \"crp-lint: allow(CRP001) — not a comment\" }\n";
        assert!(lint_source(&lib_path(), src, &[]).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trigger() {
        let src = "// mentions .unwrap()\nlet s = \".unwrap()\";\n";
        assert!(lint_source(&lib_path(), src, &[]).is_empty());
    }

    #[test]
    fn rng_rule_applies_even_in_tests_and_bins() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let r = thread_rng(); }\n}\n";
        let diags = lint_source(&lib_path(), src, &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "CRP002");
        let bin = PathBuf::from("crates/eval/src/bin/tool.rs");
        let diags = lint_source(&bin, "fn main() { rand::random::<u8>(); }\n", &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "CRP002");
    }

    #[test]
    fn wall_clock_only_flagged_in_sim_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let sim = lint_source(&PathBuf::from("crates/netsim/src/clock.rs"), src, &[]);
        assert!(sim.iter().any(|d| d.rule == "CRP004"));
        let nonsim = lint_source(&PathBuf::from("crates/eval/src/timing.rs"), src, &[]);
        assert!(nonsim.iter().all(|d| d.rule != "CRP004"));
    }

    #[test]
    fn wall_clock_flagged_everywhere_except_sanctioned_perf_layer() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        // A non-sim library crate: CRP007 fires (CRP004 does not).
        let meridian = lint_source(&PathBuf::from("crates/meridian/src/overlay.rs"), src, &[]);
        assert!(meridian.iter().any(|d| d.rule == "CRP007"));
        assert!(meridian.iter().all(|d| d.rule != "CRP004"));
        // Binaries of non-sanctioned crates are covered too.
        let bin = lint_source(&PathBuf::from("crates/core/src/bin/tool.rs"), src, &[]);
        assert!(bin.iter().any(|d| d.rule == "CRP007"));
        // The sanctioned wall-clock users are exempt.
        for sanctioned in [
            "crates/bench/src/harness.rs",
            "crates/eval/src/bin/run_all.rs",
            "crates/telemetry/src/profile.rs",
        ] {
            let diags = lint_source(&PathBuf::from(sanctioned), src, &[]);
            assert!(
                diags
                    .iter()
                    .all(|d| d.rule != "CRP007" && d.rule != "CRP004"),
                "{sanctioned} should be wall-clock-sanctioned, got {diags:?}"
            );
        }
        // Harness code (tests/benches/examples) stays exempt.
        let harness = lint_source(&PathBuf::from("crates/core/tests/perf.rs"), src, &[]);
        assert!(harness.is_empty());
    }

    #[test]
    fn profile_module_is_the_only_sim_crate_wall_clock_exception() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        // Elsewhere in the telemetry crate both rules still fire.
        let lib = lint_source(&PathBuf::from("crates/telemetry/src/lib.rs"), src, &[]);
        assert!(lib.iter().any(|d| d.rule == "CRP004"));
        assert!(lib.iter().any(|d| d.rule == "CRP007"));
    }

    #[test]
    fn println_warned_in_libraries_but_not_eval_or_bins() {
        let src = "fn f() { println!(\"x\"); }\n";
        let lib = lint_source(&lib_path(), src, &[]);
        assert_eq!(lib.len(), 1);
        assert_eq!(lib[0].rule, "CRP005");
        assert_eq!(lib[0].severity, Severity::Warning);
        assert!(lint_source(&PathBuf::from("crates/eval/src/output.rs"), src, &[]).is_empty());
        assert!(lint_source(&PathBuf::from("crates/eval/src/bin/fig4.rs"), src, &[]).is_empty());
    }

    #[test]
    fn harness_code_is_exempt_from_library_rules() {
        let src = "fn f() { x.unwrap(); a.partial_cmp(&b); }\n";
        for p in [
            "crates/core/tests/properties.rs",
            "crates/bench/benches/similarity.rs",
            "examples/quickstart.rs",
            "tests/extensions.rs",
        ] {
            assert!(
                lint_source(&PathBuf::from(p), src, &[]).is_empty(),
                "{p} should be exempt"
            );
        }
    }

    #[test]
    fn demotion_turns_errors_into_warnings() {
        let diags = lint_source(
            &lib_path(),
            "fn f() { x.unwrap(); }\n",
            &["CRP001".to_string()],
        );
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn partial_cmp_is_flagged() {
        let diags = lint_source(
            &lib_path(),
            "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n",
            &[],
        );
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"CRP003"));
        assert!(rules.contains(&"CRP001"));
    }

    #[test]
    fn file_io_flagged_outside_sanctioned_crates() {
        let src = "fn f() { let _ = std::fs::File::create(\"x\"); }\n";
        let lib = lint_source(&lib_path(), src, &[]);
        assert!(lib.iter().any(|d| d.rule == "CRP006"));
        assert_eq!(lib[0].severity, Severity::Error);
        for sanctioned in [
            "crates/telemetry/src/sink.rs",
            "crates/eval/src/output.rs",
            "crates/xtask/src/lint.rs",
        ] {
            assert!(
                lint_source(&PathBuf::from(sanctioned), src, &[]).is_empty(),
                "{sanctioned} should be exempt from CRP006"
            );
        }
        let write = "fn f() { std::fs::write(\"x\", \"y\").ok(); }\n";
        assert!(lint_source(&lib_path(), write, &[])
            .iter()
            .any(|d| d.rule == "CRP006"));
    }

    #[test]
    fn wall_clock_flagged_in_telemetry_crate() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let diags = lint_source(&PathBuf::from("crates/telemetry/src/lib.rs"), src, &[]);
        assert!(diags.iter().any(|d| d.rule == "CRP004"));
    }

    #[test]
    fn non_workspace_paths_are_ignored() {
        assert!(lint_source(&PathBuf::from("README.rs"), "x.unwrap();", &[]).is_empty());
    }

    #[test]
    fn provenance_calls_flagged_outside_sanctioned_sites() {
        let src = "fn f() { crate::explain::record_ranking(&entries); }\n";
        // An unsanctioned core module: CRP008 fires.
        let diags = lint_source(&PathBuf::from("crates/core/src/ratio.rs"), src, &[]);
        assert!(diags.iter().any(|d| d.rule == "CRP008"), "{diags:?}");
        // Binaries are covered too — recording belongs in the audit layer.
        let bin = lint_source(&PathBuf::from("crates/eval/src/bin/fig4.rs"), src, &[]);
        assert!(bin.iter().any(|d| d.rule == "CRP008"));
        // Trace hooks are held to the same standard as explain hooks.
        let trace_src = "fn f() { crp_telemetry::trace::begin(id, 0, \"x\"); }\n";
        let diags = lint_source(&PathBuf::from("crates/netsim/src/rtt.rs"), trace_src, &[]);
        assert!(diags.iter().any(|d| d.rule == "CRP008"), "{diags:?}");
        let minted = "fn f() { let id = crp_telemetry::trace::mint(&[1]); }\n";
        let diags = lint_source(&PathBuf::from("crates/dns/src/resolver.rs"), minted, &[]);
        assert!(diags.iter().any(|d| d.rule == "CRP008"), "{diags:?}");
        // ...but the mint site and the ingest path are sanctioned.
        let diags = lint_source(&PathBuf::from("crates/cdn/src/cdn.rs"), minted, &[]);
        assert!(diags.iter().all(|d| d.rule != "CRP008"), "{diags:?}");
        // The reviewed call sites are exempt.
        for sanctioned in [
            "crates/core/src/similarity.rs",
            "crates/core/src/select.rs",
            "crates/core/src/cluster.rs",
            "crates/core/src/explain.rs",
            "crates/core/src/observation.rs",
            "crates/core/src/tracker.rs",
            "crates/core/src/service.rs",
            "crates/cdn/src/cdn.rs",
            "crates/eval/src/audit.rs",
        ] {
            let diags = lint_source(&PathBuf::from(sanctioned), src, &[]);
            assert!(
                diags.iter().all(|d| d.rule != "CRP008"),
                "{sanctioned} should be provenance-sanctioned, got {diags:?}"
            );
        }
        // Test regions and harness code stay exempt.
        let test_region = "#[cfg(test)]\nmod tests {\n    fn t() { \
                           crate::explain::record_inversion(r); }\n}\n";
        let diags = lint_source(&PathBuf::from("crates/core/src/ratio.rs"), test_region, &[]);
        assert!(diags.iter().all(|d| d.rule != "CRP008"), "{diags:?}");
        assert!(lint_source(&PathBuf::from("tests/determinism.rs"), src, &[]).is_empty());
    }

    #[test]
    fn audit_crate_is_a_sim_crate_for_wall_clock_purposes() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let diags = lint_source(&PathBuf::from("crates/audit/src/drift.rs"), src, &[]);
        assert!(diags.iter().any(|d| d.rule == "CRP004"), "{diags:?}");
    }

    // ---- CRP009: hot-path allocation discipline -------------------------

    #[test]
    fn allocation_in_hot_path_function_is_flagged() {
        let src = "impl R {\n    fn dot(&self) -> f64 {\n        let v = self.entries.to_vec();\n        v.len() as f64\n    }\n}\n";
        let diags = lint_source(&PathBuf::from("crates/core/src/ratio.rs"), src, &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "CRP009");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn allocation_outside_hot_functions_is_fine() {
        // `top_entries` is not on the declared hot-path list.
        let src = "impl R {\n    fn top_entries(&self) -> Vec<u32> {\n        self.entries.to_vec()\n    }\n}\n";
        let diags = lint_source(&PathBuf::from("crates/core/src/ratio.rs"), src, &[]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allocation_in_non_hot_file_is_fine() {
        let src = "fn dot() -> Vec<u32> { Vec::new() }\n";
        let diags = lint_source(&PathBuf::from("crates/core/src/observation.rs"), src, &[]);
        assert!(diags.iter().all(|d| d.rule != "CRP009"), "{diags:?}");
    }

    #[test]
    fn justified_allow_suppresses_hot_path_allocation() {
        let src = "impl R {\n    fn dot(&self) -> f64 {\n        // crp-lint: allow(CRP009) — one-time setup, amortized\n        let v = self.entries.to_vec();\n        v.len() as f64\n    }\n}\n";
        let diags = lint_source(&PathBuf::from("crates/core/src/ratio.rs"), src, &[]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn hot_path_test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn dot() { let v: Vec<u32> = Vec::new(); }\n}\n";
        let diags = lint_source(&PathBuf::from("crates/core/src/ratio.rs"), src, &[]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    // ---- CRP010: serving-path panic freedom -----------------------------

    #[test]
    fn serving_crates_flag_unwrap_twice_over() {
        // CRP001 (library) and CRP010 (serving) both apply in crp-dns.
        let src = "fn resolve() { addr.unwrap(); }\n";
        let diags = lint_source(&PathBuf::from("crates/dns/src/resolve.rs"), src, &[]);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["CRP001", "CRP010"]);
    }

    #[test]
    fn indexing_in_serving_crate_is_flagged() {
        let src = "fn pick(xs: &[u32], i: usize) -> u32 { xs[i] }\n";
        let diags = lint_source(&PathBuf::from("crates/cdn/src/route.rs"), src, &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "CRP010");
        assert_eq!(diags[0].pattern, "[...]");
    }

    #[test]
    fn indexing_outside_serving_crates_is_fine() {
        let src = "fn pick(xs: &[u32], i: usize) -> u32 { xs[i] }\n";
        let diags = lint_source(&lib_path(), src, &[]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn panic_macro_in_serving_crate_is_flagged() {
        let src = "fn f(x: u32) { if x > 9 { panic!(\"bad\"); } }\n";
        let diags = lint_source(&PathBuf::from("crates/core/src/observation.rs"), src, &[]);
        assert!(diags.iter().any(|d| d.rule == "CRP010"), "{diags:?}");
    }

    #[test]
    fn allow_suppresses_serving_panic() {
        let src = "fn pick(xs: &[u32]) -> u32 { xs[0] } \
                   // crp-lint: allow(CRP010) — len checked by caller contract\n";
        let diags = lint_source(&PathBuf::from("crates/cdn/src/route.rs"), src, &[]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn array_types_and_attributes_are_not_indexing() {
        let src = "#[derive(Clone)]\nstruct S { buf: [u8; 4] }\nfn f() -> [u8; 2] { [0, 1] }\n";
        let diags = lint_source(&PathBuf::from("crates/cdn/src/route.rs"), src, &[]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    // ---- CRP011: iteration-order determinism ----------------------------

    #[test]
    fn unordered_hash_iteration_in_sim_crate_is_flagged() {
        let src =
            "fn tally(m: &HashMap<u32, u64>) {\n    for (k, v) in m.iter() { emit(k, v); }\n}\n";
        let diags = lint_source(&PathBuf::from("crates/netsim/src/sweep.rs"), src, &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "CRP011");
    }

    #[test]
    fn sorted_hash_iteration_is_fine() {
        let src = "fn tally(m: &HashMap<u32, u64>) {\n    let mut ks: Vec<u32> = m.keys().copied().collect();\n    ks.sort();\n}\n";
        let diags = lint_source(&PathBuf::from("crates/netsim/src/sweep.rs"), src, &[]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn hash_iteration_outside_sim_crates_is_fine() {
        let src =
            "fn tally(m: &HashMap<u32, u64>) {\n    for (k, v) in m.iter() { emit(k, v); }\n}\n";
        let diags = lint_source(&PathBuf::from("crates/meridian/src/overlay.rs"), src, &[]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_suppresses_hash_iteration() {
        let src = "fn tally(m: &HashMap<u32, u64>) {\n    \
                   // crp-lint: allow(CRP011) — feeds a commutative sum\n    \
                   for (k, v) in m.iter() { emit(k, v); }\n}\n";
        let diags = lint_source(&PathBuf::from("crates/netsim/src/sweep.rs"), src, &[]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    // ---- CRP012: stale allow markers ------------------------------------

    #[test]
    fn stale_marker_is_flagged() {
        let src = "fn f() -> u32 {\n    // crp-lint: allow(CRP001) — was needed before the refactor\n    0\n}\n";
        let diags = lint_source(&lib_path(), src, &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "CRP012");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn used_marker_is_not_stale() {
        let src = "fn f() { x.unwrap(); } // crp-lint: allow(CRP001) — invariant documented\n";
        assert!(lint_source(&lib_path(), src, &[]).is_empty());
    }

    #[test]
    fn stale_marker_in_test_region_is_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n    // crp-lint: allow(CRP001) — test scaffolding\n    fn t() {}\n}\n";
        assert!(lint_source(&lib_path(), src, &[]).is_empty());
    }

    #[test]
    fn marker_listing_crp012_is_kept_intentionally() {
        let src = "fn f() -> u32 {\n    // crp-lint: allow(CRP001, CRP012) — kept for the pending revert\n    0\n}\n";
        assert!(lint_source(&lib_path(), src, &[]).is_empty());
    }

    #[test]
    fn doc_comments_mentioning_marker_syntax_are_not_markers() {
        let src = "//! Suppress with a `crp-lint: allow(CRP001) — reason` comment.\n\
                   /// See crp-lint: allow(CRP006) — like this.\nfn f() {}\n";
        assert!(lint_source(&lib_path(), src, &[]).is_empty());
    }

    #[test]
    fn placeholder_rule_ids_do_not_form_markers() {
        // Prose in a regular comment naming the syntax with a
        // placeholder rule must be neither a suppression nor stale.
        let src = "// justify with crp-lint: allow(CRP00x) — placeholder\nfn f() {}\n";
        assert!(lint_source(&lib_path(), src, &[]).is_empty());
        assert!(!is_rule_id("CRP00x"));
        assert!(!is_rule_id("<rules>"));
        assert!(is_rule_id("CRP009"));
    }

    #[test]
    fn harness_markers_are_never_stale() {
        let src = "// crp-lint: allow(CRP001) — whatever\nfn t() {}\n";
        assert!(lint_source(&PathBuf::from("crates/core/tests/x.rs"), src, &[]).is_empty());
    }
}

//! The determinism rule set and the matching engine.
//!
//! Every rule here guards one of the workspace's bit-identity
//! invariants (see the README's *Static analysis* section for the
//! full rationale table):
//!
//! * `no-hash-collections` — randomized-iteration containers
//!   (`HashMap`/`HashSet`/`RandomState`) are banned everywhere: replay
//!   digests and parallel bit-identity depend on deterministic
//!   iteration, so ordered (`BTreeMap`/`BTreeSet`) or dense-id
//!   structures must be used instead.
//! * `no-wall-clock-in-sim` — `Instant::now`/`SystemTime` reads are
//!   confined to the telemetry-profiling module and the bench crate
//!   (the PR 8 tick-vs-wall split); anywhere else each read must carry
//!   a pragma classifying it as informational-only.
//! * `no-ambient-entropy` — `thread_rng`/`from_entropy`/OS randomness
//!   would silently break seeded replay; all randomness must flow from
//!   explicit counter-based streams.
//! * `no-float-in-tick-domain` — tick-domain modules (the event core,
//!   plus any file marked `lint:tick-domain`) must stay on exact
//!   integer arithmetic; float conversions live only at the
//!   `ticks.rs` boundary.
//! * `no-lossy-casts-in-ticks` — `as` casts to narrowing numeric types
//!   in tick-domain modules silently truncate; each one needs a pragma
//!   arguing why it cannot lose bits (widening casts to `i128`/`u128`
//!   are always allowed).
//!
//! Findings are suppressed only by an inline pragma with a mandatory
//! reason:
//!
//! ```text
//! // lint:allow(rule-name): why this occurrence is sound
//! ```
//!
//! A standalone pragma covers the next code line; a trailing pragma
//! covers its own line. Reason-less pragmas, pragmas naming unknown
//! rules, and pragmas that suppress nothing are themselves findings,
//! so suppressions cannot rot silently.

use std::collections::BTreeMap;

use crate::lexer::{lex, Comment};

/// One rule's identity and documentation, surfaced by `-- rules`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule name, as used in pragmas.
    pub name: &'static str,
    /// One-line description of what the rule flags.
    pub what: &'static str,
    /// Which determinism pin the rule protects.
    pub why: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
}

/// The rule registry (suppressible rules; the `pragma-*` meta findings
/// are always on and cannot be suppressed).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-hash-collections",
        what: "`HashMap`/`HashSet`/`RandomState` (randomized iteration order)",
        why: "replay digests and 1/2/8-thread bit-identity require deterministic iteration; \
              use BTreeMap/BTreeSet or dense-id slabs",
        scope: "all workspace sources",
    },
    RuleInfo {
        name: "no-wall-clock-in-sim",
        what: "`Instant::now()` / any `SystemTime` use (wall-clock reads)",
        why: "tick-domain results must be exact and machine-independent; wall-clock is \
              informational-only and confined to telemetry profiling and the bench crate",
        scope: "all sources except crates/bench/ and crates/core/src/telemetry.rs",
    },
    RuleInfo {
        name: "no-ambient-entropy",
        what: "`thread_rng`/`from_entropy`/`from_os_rng`/`OsRng`/`getrandom` (ambient randomness)",
        why: "seeded replay requires every random draw to come from an explicit counter-based \
              stream keyed by (seed, stream, entity)",
        scope: "all workspace sources",
    },
    RuleInfo {
        name: "no-float-in-tick-domain",
        what: "`f64`/`f32` types, suffixes, or float literals",
        why: "tick modules compute digests and event ordering on exact i64/i128 arithmetic; \
              float conversions live only in cmags_core::ticks",
        scope: "crates/gridsim/src/event.rs and files marked `lint:tick-domain`",
    },
    RuleInfo {
        name: "no-lossy-casts-in-ticks",
        what: "`as` casts to narrowing numeric types",
        why: "silent `as` truncation in tick arithmetic corrupts digests without panicking; \
              prove each cast lossless in a pragma or use try_from/widening",
        scope: "crates/gridsim/src/event.rs and files marked `lint:tick-domain`",
    },
];

/// Always-on meta rules protecting the pragma mechanism itself.
pub const META_RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "pragma-missing-reason",
        what: "`lint:allow(rule)` without a `: reason` clause",
        why: "every suppression must document why the occurrence is sound",
        scope: "all workspace sources",
    },
    RuleInfo {
        name: "pragma-unknown-rule",
        what: "`lint:allow(...)` naming a rule that does not exist",
        why: "a typo'd pragma suppresses nothing and hides the author's intent",
        scope: "all workspace sources",
    },
    RuleInfo {
        name: "pragma-unused",
        what: "a pragma that suppressed no finding",
        why: "stale suppressions accumulate and mask future regressions",
        scope: "all workspace sources",
    },
];

/// One lint finding at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Identifiers banned by `no-hash-collections`.
const HASH_TOKENS: &[&str] = &["HashMap", "HashSet", "RandomState"];

/// Identifiers banned by `no-ambient-entropy`.
const ENTROPY_TOKENS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "getrandom",
];

/// Narrowing-capable `as` targets flagged by `no-lossy-casts-in-ticks`
/// (widening to `i128`/`u128` is always allowed).
const NARROW_CAST_TARGETS: &[&str] = &[
    "i8", "i16", "i32", "i64", "isize", "u8", "u16", "u32", "u64", "usize", "f32", "f64",
];

/// Paths (prefix `/`-separated, workspace-relative) where wall-clock
/// reads are legitimate by construction.
fn wall_clock_exempt(path: &str) -> bool {
    path.starts_with("crates/bench/") || path == "crates/core/src/telemetry.rs"
}

/// Whether `path` is a tick-domain module: the event core (the queue
/// backends) is always in scope; other files opt in with a
/// `lint:tick-domain` marker comment. `cmags_core::ticks` is the
/// designated float<->tick conversion boundary and is never in scope,
/// marker or not.
fn tick_domain(path: &str, marked: bool) -> bool {
    if path == "crates/core/src/ticks.rs" {
        return false;
    }
    marked || path == "crates/gridsim/src/event.rs"
}

/// A parsed `lint:allow` pragma.
#[derive(Debug)]
struct Pragma {
    rule: String,
    /// Line whose findings this pragma suppresses.
    target: usize,
    /// Line the pragma itself sits on (for `pragma-unused` reports).
    line: usize,
    used: bool,
}

/// Lints one file's source text. `path` must be workspace-relative with
/// `/` separators — rule scoping keys off it.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let code_lines: Vec<&str> = lexed.masked.lines().collect();
    let is_code = |line: usize| {
        code_lines
            .get(line - 1)
            .is_some_and(|l| !l.trim().is_empty())
    };

    let mut findings: Vec<Finding> = Vec::new();
    let mut pragmas: Vec<Pragma> = Vec::new();
    let mut tick_marked = false;

    for comment in &lexed.comments {
        scan_comment(
            comment,
            &is_code,
            code_lines.len(),
            path,
            &mut pragmas,
            &mut tick_marked,
            &mut findings,
        );
    }

    let in_tick_domain = tick_domain(path, tick_marked);
    let mut raw: Vec<Finding> = Vec::new();
    scan_tokens(path, &lexed.masked, in_tick_domain, &mut raw);

    // Apply suppressions: a finding survives unless a pragma for its
    // rule targets its line.
    let mut suppressed: BTreeMap<(String, usize), Vec<usize>> = BTreeMap::new();
    for (idx, pragma) in pragmas.iter().enumerate() {
        suppressed
            .entry((pragma.rule.clone(), pragma.target))
            .or_default()
            .push(idx);
    }
    for finding in raw {
        if let Some(indices) = suppressed.get(&(finding.rule.to_string(), finding.line)) {
            for &idx in indices {
                pragmas[idx].used = true;
            }
        } else {
            findings.push(finding);
        }
    }

    for pragma in &pragmas {
        if !pragma.used {
            findings.push(Finding {
                path: path.to_string(),
                line: pragma.line,
                rule: "pragma-unused",
                message: format!(
                    "lint:allow({}) suppressed nothing on line {} — remove the stale pragma",
                    pragma.rule, pragma.target
                ),
            });
        }
    }

    findings.sort();
    findings
}

/// Parses pragma directives out of one comment.
fn scan_comment(
    comment: &Comment,
    is_code: &dyn Fn(usize) -> bool,
    nb_lines: usize,
    path: &str,
    pragmas: &mut Vec<Pragma>,
    tick_marked: &mut bool,
    findings: &mut Vec<Finding>,
) {
    // A directive must *start* the comment (after whitespace), so prose
    // that merely mentions the syntax is never parsed as a pragma.
    let text = comment.text.trim();
    if text.starts_with("lint:tick-domain") {
        *tick_marked = true;
        return;
    }
    let Some(rest) = text.strip_prefix("lint:allow") else {
        return;
    };
    let Some(open) = rest.strip_prefix('(') else {
        findings.push(Finding {
            path: path.to_string(),
            line: comment.line,
            rule: "pragma-unknown-rule",
            message: "malformed pragma: expected `lint:allow(rule): reason`".to_string(),
        });
        return;
    };
    let Some(close) = open.find(')') else {
        findings.push(Finding {
            path: path.to_string(),
            line: comment.line,
            rule: "pragma-unknown-rule",
            message: "malformed pragma: unclosed `(` in `lint:allow(rule): reason`".to_string(),
        });
        return;
    };
    let rule = open[..close].trim().to_string();
    if !RULES.iter().any(|r| r.name == rule) {
        findings.push(Finding {
            path: path.to_string(),
            line: comment.line,
            rule: "pragma-unknown-rule",
            message: format!("pragma names unknown rule `{rule}`"),
        });
        return;
    }
    let after = open[close + 1..].trim();
    let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if reason.is_empty() {
        findings.push(Finding {
            path: path.to_string(),
            line: comment.line,
            rule: "pragma-missing-reason",
            message: format!(
                "lint:allow({rule}) needs a reason: `// lint:allow({rule}): why this is sound`"
            ),
        });
        return;
    }
    // A trailing pragma covers its own line; a standalone pragma covers
    // the next line that carries code.
    let target = if comment.trailing {
        comment.line
    } else {
        let mut next = comment.line + 1;
        while next <= nb_lines && !is_code(next) {
            next += 1;
        }
        next
    };
    pragmas.push(Pragma {
        rule,
        target,
        line: comment.line,
        used: false,
    });
}

/// Scans the masked source for rule-token matches.
fn scan_tokens(path: &str, masked: &str, in_tick_domain: bool, out: &mut Vec<Finding>) {
    let hash_on = true;
    let entropy_on = true;
    let wall_on = !wall_clock_exempt(path);

    let bytes = masked.as_bytes();
    let mut line = 1usize;
    let mut i = 0usize;
    let is_word_byte = |b: u8| b.is_ascii_alphanumeric() || b == b'_';

    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if !is_word_byte(b) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_word_byte(bytes[i]) {
            i += 1;
        }
        let word = &masked[start..i];
        let starts_with_digit = word.as_bytes()[0].is_ascii_digit();

        if !starts_with_digit {
            if hash_on && HASH_TOKENS.contains(&word) {
                out.push(Finding {
                    path: path.to_string(),
                    line,
                    rule: "no-hash-collections",
                    message: format!(
                        "`{word}` has a randomized iteration/hash order; use BTreeMap/BTreeSet \
                         or a dense-id structure"
                    ),
                });
            }
            if entropy_on && ENTROPY_TOKENS.contains(&word) {
                out.push(Finding {
                    path: path.to_string(),
                    line,
                    rule: "no-ambient-entropy",
                    message: format!(
                        "`{word}` draws ambient OS entropy; all randomness must come from \
                         explicit seeded counter-based streams"
                    ),
                });
            }
            if wall_on && word == "SystemTime" {
                out.push(Finding {
                    path: path.to_string(),
                    line,
                    rule: "no-wall-clock-in-sim",
                    message: "`SystemTime` is wall-clock; nothing outside telemetry/bench may \
                              read host time"
                        .to_string(),
                });
            }
            if wall_on && word == "Instant" && path_call_follows(bytes, i, "now") {
                out.push(Finding {
                    path: path.to_string(),
                    line,
                    rule: "no-wall-clock-in-sim",
                    message: "`Instant::now()` reads the host clock; outside telemetry/bench \
                              each read must be pragma-classified as informational-only"
                        .to_string(),
                });
            }
            if in_tick_domain && (word == "f64" || word == "f32") {
                out.push(Finding {
                    path: path.to_string(),
                    line,
                    rule: "no-float-in-tick-domain",
                    message: format!(
                        "`{word}` in a tick-domain module; tick arithmetic is exact i64/i128 \
                         and float conversion lives in cmags_core::ticks"
                    ),
                });
            }
            if in_tick_domain && word == "as" {
                if let Some(target) = next_word(bytes, masked, i) {
                    if NARROW_CAST_TARGETS.contains(&target) {
                        out.push(Finding {
                            path: path.to_string(),
                            line,
                            rule: "no-lossy-casts-in-ticks",
                            message: format!(
                                "`as {target}` can silently truncate in tick arithmetic; \
                                 prove it lossless in a pragma or use try_from/widening"
                            ),
                        });
                    }
                }
            }
        } else if in_tick_domain {
            // Numeric token: float suffix (`1f64`) or `1.5` literal.
            if word.contains("f64") || word.contains("f32") {
                out.push(Finding {
                    path: path.to_string(),
                    line,
                    rule: "no-float-in-tick-domain",
                    message: format!("float-suffixed literal `{word}` in a tick-domain module"),
                });
            } else if bytes.get(i) == Some(&b'.')
                && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())
            {
                out.push(Finding {
                    path: path.to_string(),
                    line,
                    rule: "no-float-in-tick-domain",
                    message: "float literal in a tick-domain module".to_string(),
                });
            }
        }
    }
}

/// After a word ending at byte `i`, whether `::<name>` follows (over
/// whitespace, including newlines — the finding stays on the first
/// word's line).
fn path_call_follows(bytes: &[u8], i: usize, name: &str) -> bool {
    let mut j = i;
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    if !bytes[j..].starts_with(b"::") {
        return false;
    }
    j += 2;
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    bytes[j..].starts_with(name.as_bytes())
        && !bytes
            .get(j + name.len())
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
}

/// The next identifier-ish word after byte `i`, skipping whitespace.
fn next_word<'a>(bytes: &[u8], masked: &'a str, i: usize) -> Option<&'a str> {
    let mut j = i;
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    let start = j;
    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
        j += 1;
    }
    (j > start).then(|| &masked[start..j])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hash_collections_flagged_everywhere() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8>; }\n";
        let findings = lint_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "no-hash-collections"));
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn tokens_in_strings_and_comments_do_not_fire() {
        let src = "// HashMap is banned\nfn f() -> &'static str { \"HashMap thread_rng\" }\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn instant_now_flagged_but_type_position_is_not() {
        let src = "fn f(start: Instant) {}\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", src),
            vec!["no-wall-clock-in-sim"]
        );
    }

    #[test]
    fn wall_clock_exempt_paths() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(rules_hit("crates/bench/src/runner.rs", src).is_empty());
        assert!(rules_hit("crates/core/src/telemetry.rs", src).is_empty());
        assert!(!rules_hit("crates/core/src/eval.rs", src).is_empty());
    }

    #[test]
    fn trailing_pragma_suppresses_same_line() {
        let src =
            "fn f() { let t = Instant::now(); } // lint:allow(no-wall-clock-in-sim): informational\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn standalone_pragma_suppresses_next_code_line() {
        let src = "// lint:allow(no-wall-clock-in-sim): informational\n// more commentary\nlet t = Instant::now();\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn pragma_without_reason_is_a_finding() {
        let src = "// lint:allow(no-wall-clock-in-sim)\nlet t = Instant::now();\n";
        let rules = rules_hit("crates/core/src/x.rs", src);
        assert!(rules.contains(&"pragma-missing-reason"));
        assert!(rules.contains(&"no-wall-clock-in-sim"), "not suppressed");
    }

    #[test]
    fn pragma_with_empty_reason_is_a_finding() {
        let src = "// lint:allow(no-wall-clock-in-sim):   \nlet t = Instant::now();\n";
        assert!(rules_hit("crates/core/src/x.rs", src).contains(&"pragma-missing-reason"));
    }

    #[test]
    fn unknown_rule_pragma_is_a_finding() {
        let src = "// lint:allow(no-such-rule): because\nfn f() {}\n";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", src),
            vec!["pragma-unknown-rule"]
        );
    }

    #[test]
    fn unused_pragma_is_a_finding() {
        let src = "// lint:allow(no-hash-collections): nothing here\nfn f() {}\n";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", src),
            vec!["pragma-unused"]
        );
    }

    #[test]
    fn tick_domain_marker_enables_float_and_cast_rules() {
        let plain = "fn f(x: f64) -> u32 { x as u32 }\n";
        assert!(rules_hit("crates/core/src/x.rs", plain).is_empty());
        let marked = format!("// lint:tick-domain\n{plain}");
        let rules = rules_hit("crates/core/src/x.rs", &marked);
        assert!(rules.contains(&"no-float-in-tick-domain"));
        assert!(rules.contains(&"no-lossy-casts-in-ticks"));
    }

    #[test]
    fn event_core_is_tick_domain_by_construction() {
        let src = "fn f() { let x = 0.5; }\n";
        assert_eq!(
            rules_hit("crates/gridsim/src/event.rs", src),
            vec!["no-float-in-tick-domain"]
        );
    }

    #[test]
    fn ticks_rs_is_the_conversion_boundary() {
        let src = "// lint:tick-domain\npub fn time(t: i128) -> f64 { t as f64 }\n";
        assert!(rules_hit("crates/core/src/ticks.rs", src).is_empty());
    }

    #[test]
    fn widening_casts_are_allowed_in_tick_domain() {
        let src = "// lint:tick-domain\nfn f(x: i64) -> i128 { x as i128 }\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_suffix_and_literal_flagged_in_tick_domain() {
        let src = "// lint:tick-domain\nfn f() { let a = 1f64; let b = 2.5; }\n";
        let rules = rules_hit("crates/core/src/x.rs", src);
        assert_eq!(
            rules,
            vec!["no-float-in-tick-domain", "no-float-in-tick-domain"]
        );
    }

    #[test]
    fn range_and_tuple_index_are_not_float_literals() {
        let src =
            "// lint:tick-domain\nfn f(t: (i64, i64)) -> i64 { (0..5).map(|i| i + t.0).sum() }\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn ambient_entropy_flagged() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(
            rules_hit("crates/heuristics/src/x.rs", src),
            vec!["no-ambient-entropy"]
        );
    }

    #[test]
    fn use_foo_as_bar_is_not_a_cast() {
        let src = "// lint:tick-domain\nuse std::mem::take as grab;\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn findings_sort_by_path_then_line() {
        let src = "use std::collections::HashSet;\nfn f() { let s: HashSet<u8>; }\n";
        let findings = lint_source("crates/mo/src/x.rs", src);
        assert!(findings.windows(2).all(|w| w[0] <= w[1]));
    }
}

//! The pattern lints: masked-text matchers for the invariants PRs 2–6 established.

use crate::diag::{Diagnostic, Severity};
use crate::lints::{Crates, Lint, LintSpec};
use crate::source::{FileKind, SourceFile};

const ALL_KINDS: &[FileKind] = &[
    FileKind::Lib,
    FileKind::Bin,
    FileKind::Test,
    FileKind::Example,
    FileKind::Bench,
];
const CODE_KINDS: &[FileKind] = &[FileKind::Lib, FileKind::Bin];
const LIB_ONLY: &[FileKind] = &[FileKind::Lib];

/// A lint driven by a site-finder function over the masked text.
pub struct PatternLint {
    spec: &'static LintSpec,
    finder: fn(&SourceFile) -> Vec<(usize, String)>,
}

impl Lint for PatternLint {
    fn spec(&self) -> &'static LintSpec {
        self.spec
    }

    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        for (line, message) in (self.finder)(file) {
            out.push(Diagnostic {
                lint: self.spec.id.to_string(),
                severity: self.spec.severity,
                file: file.rel_path.clone(),
                line,
                message,
            });
        }
    }
}

/// Byte positions of `needle` in `haystack`, with a word boundary before needles
/// that *start* with an identifier character (so `println!` does not also match
/// inside `eprintln!`).  Needles starting with `.` skip the check — `v.unwrap()`
/// is legitimately preceded by its receiver.
fn find_word(haystack: &str, needle: &str) -> Vec<usize> {
    let bytes = haystack.as_bytes();
    let needs_boundary = needle
        .bytes()
        .next()
        .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_');
    let mut out = Vec::new();
    let mut search = 0usize;
    while let Some(off) = haystack[search..].find(needle) {
        let at = search + off;
        search = at + 1;
        if needs_boundary
            && at > 0
            && (bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_')
        {
            continue;
        }
        out.push(at);
    }
    out
}

/// Positions of `.unwrap()` / `.expect(` calls, with the matched consumer name.
fn panic_consumers(masked: &str) -> Vec<(usize, &'static str)> {
    let mut out: Vec<(usize, &'static str)> = find_word(masked, ".unwrap()")
        .into_iter()
        .map(|p| (p, ".unwrap()"))
        .collect();
    out.extend(
        find_word(masked, ".expect(")
            .into_iter()
            .map(|p| (p, ".expect(…)")),
    );
    out.sort_unstable();
    out
}

/// Does the code immediately before `pos` (ignoring whitespace) end with a no-argument
/// std lock acquisition (`.lock()` / `.read()` / `.write()`)?
fn preceded_by_lock_call(masked: &str, pos: usize) -> Option<&'static str> {
    let bytes = masked.as_bytes();
    let mut j = pos;
    while j > 0 && bytes[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    for method in ["lock()", "read()", "write()"] {
        if masked[..j].ends_with(method) {
            let start = j - method.len();
            // Require a method call (`x.lock()`), not a free function `lock()`.
            if start > 0 && bytes[start - 1] == b'.' {
                return Some(method);
            }
        }
    }
    None
}

fn lock_poison_sites(file: &SourceFile) -> Vec<(usize, String)> {
    panic_consumers(&file.masked)
        .into_iter()
        .filter_map(|(pos, consumer)| {
            preceded_by_lock_call(&file.masked, pos).map(|method| {
                (
                    file.line_of(pos),
                    format!(
                        ".{method}{consumer} propagates std lock poisoning: one panicking \
                         holder turns every later acquisition into a panic cascade. Use \
                         `.unwrap_or_else(|p| p.into_inner())` (the registry/service \
                         pattern), the parking_lot shim, or `nc_serve::lockcheck`."
                    ),
                )
            })
        })
        .collect()
}

static LOCK_POISON: LintSpec = LintSpec {
    id: "lock-poison",
    severity: Severity::Error,
    summary:
        "`.lock()/.read()/.write()` followed by `.unwrap()`/`.expect()` on std sync primitives",
    // Poison cascades make *tests* flaky and misleading too — one panicking assertion
    // hides the real failure behind `PoisonError` noise — so test code is in scope.
    include_tests: true,
    crates: Crates::All,
    include_compat: false,
    kinds: ALL_KINDS,
};

/// `lock-poison`: poison-propagating lock acquisitions (PR 6's poison-free locking
/// invariant).
pub fn lock_poison() -> PatternLint {
    PatternLint {
        spec: &LOCK_POISON,
        finder: lock_poison_sites,
    }
}

fn unbounded_channel_sites(file: &SourceFile) -> Vec<(usize, String)> {
    let mut sites = find_word(&file.masked, "mpsc::channel()");
    sites.extend(find_word(&file.masked, "mpsc::channel::<"));
    sites.sort_unstable();
    sites
        .into_iter()
        .map(|pos| {
            (
                file.line_of(pos),
                "unbounded `mpsc::channel()` in the serving tier: queues must be bounded \
                 so overload sheds (`ServeError::Overloaded`) instead of growing memory \
                 without limit. Use `mpsc::sync_channel(n)`."
                    .to_string(),
            )
        })
        .collect()
}

static UNBOUNDED_CHANNEL: LintSpec = LintSpec {
    id: "unbounded-channel",
    severity: Severity::Error,
    summary: "unbounded `mpsc::channel()` in `crates/serve` non-test code",
    include_tests: false,
    crates: Crates::Only(&["serve"]),
    include_compat: false,
    kinds: CODE_KINDS,
};

/// `unbounded-channel`: the PR-6 bounded-queue/backpressure invariant.
pub fn unbounded_channel() -> PatternLint {
    PatternLint {
        spec: &UNBOUNDED_CHANNEL,
        finder: unbounded_channel_sites,
    }
}

fn wall_clock_sites(file: &SourceFile) -> Vec<(usize, String)> {
    let mut sites: Vec<(usize, &str)> = find_word(&file.masked, "Instant::now(")
        .into_iter()
        .map(|p| (p, "Instant::now()"))
        .collect();
    sites.extend(
        find_word(&file.masked, "SystemTime::now(")
            .into_iter()
            .map(|p| (p, "SystemTime::now()")),
    );
    sites.sort_unstable();
    sites
        .into_iter()
        .map(|(pos, call)| {
            (
                file.line_of(pos),
                format!(
                    "{call} in a deterministic crate: estimates are a pure function of \
                     (model, query, seed) — wall-clock reads risk leaking timing into \
                     results. If this only feeds timing stats, say so in a justified \
                     `nc-lint: allow(wall-clock-in-core)`."
                ),
            )
        })
        .collect()
}

static WALL_CLOCK: LintSpec = LintSpec {
    id: "wall-clock-in-core",
    severity: Severity::Error,
    summary: "`Instant::now`/`SystemTime::now` in the deterministic crates (neurocard/nn/sampler)",
    include_tests: false,
    crates: Crates::Only(&["neurocard", "nn", "sampler"]),
    include_compat: false,
    kinds: LIB_ONLY,
};

/// `wall-clock-in-core`: the bit-identity determinism contract (PRs 3–5).
pub fn wall_clock_in_core() -> PatternLint {
    PatternLint {
        spec: &WALL_CLOCK,
        finder: wall_clock_sites,
    }
}

fn panic_site_list(file: &SourceFile) -> Vec<(usize, String)> {
    let masked = &file.masked;
    let mut sites: Vec<(usize, &str)> = panic_consumers(masked).into_iter().collect();
    for mac in ["panic!(", "todo!(", "unimplemented!("] {
        sites.extend(find_word(masked, mac).into_iter().map(|p| (p, mac)));
    }
    sites.sort_unstable();
    sites
        .into_iter()
        .map(|(pos, what)| {
            (
                file.line_of(pos),
                format!(
                    "`{}` in serving-tier library code: the request path answers with typed \
                     `ServeError`s and must never unwind (a panic costs the scratch and the \
                     reply). Return an error, or justify a startup/shutdown-path use with \
                     `nc-lint: allow(panic-in-serving)`.",
                    what.trim_end_matches('(')
                ),
            )
        })
        .collect()
}

static PANIC_IN_SERVING: LintSpec = LintSpec {
    id: "panic-in-serving",
    severity: Severity::Error,
    summary: "`unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in `crates/serve` library code",
    include_tests: false,
    crates: Crates::Only(&["serve"]),
    include_compat: false,
    kinds: LIB_ONLY,
};

/// `panic-in-serving`: the PR-6 typed-errors-on-the-request-path invariant.
pub fn panic_in_serving() -> PatternLint {
    PatternLint {
        spec: &PANIC_IN_SERVING,
        finder: panic_site_list,
    }
}

fn sleep_sites(file: &SourceFile) -> Vec<(usize, String)> {
    find_word(&file.masked, "thread::sleep(")
        .into_iter()
        .map(|pos| {
            (
                file.line_of(pos),
                "raw `thread::sleep` in serving-tier library code: it blocks an I/O or \
                 worker thread (stalling every connection it multiplexes) and bypasses \
                 the injectable clock, so chaos runs cannot observe or replay the delay. \
                 Route waits through `FaultInjector::sleep`, or justify a deliberate \
                 blocking wait with `nc-lint: allow(sleep-in-serving)`."
                    .to_string(),
            )
        })
        .collect()
}

static SLEEP_IN_SERVING: LintSpec = LintSpec {
    id: "sleep-in-serving",
    severity: Severity::Error,
    summary: "raw `thread::sleep` in `crates/serve` or `crates/pipeline` library code",
    include_tests: false,
    crates: Crates::Only(&["serve", "pipeline"]),
    include_compat: false,
    kinds: LIB_ONLY,
};

/// `sleep-in-serving`: the PR-8 injectable-clock invariant — serving-tier delays go
/// through `FaultInjector::sleep` so chaos schedules stay replayable.
pub fn sleep_in_serving() -> PatternLint {
    PatternLint {
        spec: &SLEEP_IN_SERVING,
        finder: sleep_sites,
    }
}

fn print_sites(file: &SourceFile) -> Vec<(usize, String)> {
    let mut sites: Vec<(usize, &str)> = Vec::new();
    for mac in ["println!(", "eprintln!(", "dbg!("] {
        sites.extend(find_word(&file.masked, mac).into_iter().map(|p| (p, mac)));
    }
    sites.sort_unstable();
    sites
        .into_iter()
        .map(|(pos, mac)| {
            (
                file.line_of(pos),
                format!(
                    "`{}` in library code: libraries return data, binaries print it \
                     (stray output corrupts bench JSON and server stdout protocols).",
                    mac.trim_end_matches('(')
                ),
            )
        })
        .collect()
}

static PRINT_IN_LIB: LintSpec = LintSpec {
    id: "print-in-lib",
    severity: Severity::Error,
    summary: "`println!`/`eprintln!`/`dbg!` in library code",
    include_tests: false,
    // `bench`'s lib is the CLI harness layer shared by the experiment binaries —
    // progress/warning output is its contract, not an accident.
    crates: Crates::Except(&["bench"]),
    include_compat: false,
    kinds: LIB_ONLY,
};

/// `print-in-lib`: keep library crates silent.
pub fn print_in_lib() -> PatternLint {
    PatternLint {
        spec: &PRINT_IN_LIB,
        finder: print_sites,
    }
}

fn intrinsics_sites(file: &SourceFile) -> Vec<(usize, String)> {
    // The dispatch module is the one legal home for intrinsics: it owns the runtime
    // CPU probe, the `#[target_feature]` safety obligations, and the kernel-vs-reference
    // bit-identity tests.  Everything else calls through its safe dispatched wrappers.
    if file.rel_path.ends_with("crates/nn/src/kernel.rs") {
        return Vec::new();
    }
    let mut sites: Vec<(usize, &str)> = Vec::new();
    for path in ["core::arch", "std::arch"] {
        sites.extend(find_word(&file.masked, path).into_iter().map(|p| (p, path)));
    }
    sites.sort_unstable();
    sites
        .into_iter()
        .map(|(pos, path)| {
            (
                file.line_of(pos),
                format!(
                    "`{path}` outside `crates/nn/src/kernel.rs`: SIMD intrinsics live \
                     behind the kernel dispatch module so the exact tier stays scalar \
                     and bit-reproducible, unsafe target-feature contracts are audited \
                     in one place, and every arch path has a portable fallback. Call the \
                     `nc_nn::kernel` wrappers, or justify a new home with \
                     `nc-lint: allow(intrinsics-outside-kernel)`."
                ),
            )
        })
        .collect()
}

static INTRINSICS_OUTSIDE_KERNEL: LintSpec = LintSpec {
    id: "intrinsics-outside-kernel",
    severity: Severity::Error,
    summary: "`core::arch`/`std::arch` intrinsics outside the kernel dispatch module",
    include_tests: true,
    crates: Crates::All,
    include_compat: false,
    kinds: ALL_KINDS,
};

/// `intrinsics-outside-kernel`: the PR-9 SIMD containment invariant — arch-specific
/// intrinsics are only legal inside `crates/nn/src/kernel.rs`.
pub fn intrinsics_outside_kernel() -> PatternLint {
    PatternLint {
        spec: &INTRINSICS_OUTSIDE_KERNEL,
        finder: intrinsics_sites,
    }
}

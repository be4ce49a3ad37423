//! `lock-order`: a static approximation of lock-hierarchy checking.
//!
//! Per function, the lint tracks `let <guard> = <receiver>.lock()/.read()/.write()`
//! bindings (no-argument acquisitions on sync primitives).  A guard is considered
//! held from its binding until its enclosing block closes or an explicit
//! `drop(<guard>)`.  Every acquisition performed while another guard is held records
//! a directed edge *held-lock → acquired-lock*; lock identity is approximated by the
//! receiver's final path segment, qualified by crate (`serve::state`), so the same
//! field name used across functions unifies into one node.  After the whole workspace
//! is scanned, any cycle in the edge graph — the classic ABBA inversion and longer
//! loops — is reported with the witnessing acquisition sites.
//!
//! Known approximations (deliberate — this is a lint, not a prover): acquisitions
//! without a `let` binding are treated as statement-transient and never "held";
//! guards moved into closures/spawned threads are tracked as if acquired inline
//! (conservative); two distinct locks sharing a field name in one crate unify (may
//! over-approximate); helper functions that acquire internally (e.g. a `state_lock()`
//! wrapper) are invisible at their call sites.  The runtime twin —
//! `nc_serve::lockcheck`, thread-local acquisition stacks active in every debug test
//! run — covers the dynamic reality the static pass cannot see.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::{Diagnostic, Severity};
use crate::lints::{Crates, Lint, LintSpec};
use crate::source::{match_brace, FileKind, SourceFile};

static LOCK_ORDER: LintSpec = LintSpec {
    id: "lock-order",
    severity: Severity::Error,
    summary: "cyclic \"acquires B while holding A\" relationships across the workspace",
    include_tests: false,
    crates: Crates::All,
    include_compat: false,
    kinds: &[FileKind::Lib, FileKind::Bin],
};

/// Where an edge was witnessed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Witness {
    from_site: (String, usize),
    to_site: (String, usize),
}

/// The workspace-level lock-order lint (see module docs).
pub struct LockOrder {
    /// (held-label, acquired-label) → first witness.
    edges: BTreeMap<(String, String), Witness>,
}

impl LockOrder {
    /// Fresh state for one run.
    pub fn new() -> Self {
        LockOrder {
            edges: BTreeMap::new(),
        }
    }
}

impl Default for LockOrder {
    fn default() -> Self {
        Self::new()
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// One lock acquisition found in a function body.
struct Acquisition {
    pos: usize,
    label: String,
    /// Binding name when the guard is `let`-bound (held until scope end / drop).
    binding: Option<String>,
}

/// Extracts the receiver path ending at `dot` (the `.` of `.lock()`), returning its
/// final segment — the lock's identity approximation.
fn receiver_label(masked: &str, dot: usize) -> Option<(usize, String)> {
    let b = masked.as_bytes();
    let mut j = dot;
    while j > 0 {
        let c = b[j - 1];
        if is_ident_byte(c) || c == b'.' || c == b':' {
            j -= 1;
        } else {
            break;
        }
    }
    let path = masked[j..dot].trim_matches(|c| c == '.' || c == ':');
    if path.is_empty() {
        return None;
    }
    let last = path.rsplit(['.', ':']).find(|s| !s.is_empty())?;
    // `self.lock()` or a bare numeric (tuple index) tells us nothing.
    if last == "self" || last.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    Some((j, last.to_string()))
}

/// If the statement containing the acquisition at `recv_start` is a `let` binding,
/// returns the bound name.
fn let_binding(masked: &str, recv_start: usize, body_start: usize) -> Option<String> {
    let b = masked.as_bytes();
    let mut s = recv_start;
    while s > body_start {
        match b[s - 1] {
            b';' | b'{' | b'}' => break,
            _ => s -= 1,
        }
    }
    let prefix = masked[s..recv_start].trim();
    let rest = prefix.strip_prefix("let ")?;
    // `let mut name` / `let name: Type` / `let name =` — destructuring patterns are
    // skipped (their guards are treated as transient).
    let rest = rest.trim_start().trim_start_matches("mut ").trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || !prefix.ends_with('=') {
        return None;
    }
    Some(name)
}

/// Scans one function body for acquisitions and records held→acquired edges.
fn scan_body(lint: &mut LockOrder, file: &SourceFile, body_start: usize, body_end: usize) {
    let masked = &file.masked;
    let b = masked.as_bytes();

    // Collect acquisitions in order.
    let mut acquisitions: Vec<Acquisition> = Vec::new();
    for method in [".lock()", ".read()", ".write()"] {
        let mut search = body_start;
        while let Some(off) = masked[search..body_end].find(method) {
            let dot = search + off;
            search = dot + 1;
            if file.is_test_line(file.line_of(dot)) {
                continue;
            }
            if let Some((recv_start, label)) = receiver_label(masked, dot) {
                acquisitions.push(Acquisition {
                    pos: dot,
                    label,
                    binding: let_binding(masked, recv_start, body_start),
                });
            }
        }
    }
    acquisitions.sort_by_key(|a| a.pos);
    if acquisitions.is_empty() {
        return;
    }

    // Drop sites: `drop(name)`.
    let mut drops: Vec<(usize, String)> = Vec::new();
    let mut search = body_start;
    while let Some(off) = masked[search..body_end].find("drop(") {
        let at = search + off;
        search = at + 1;
        if at > 0 && is_ident_byte(b[at - 1]) {
            continue;
        }
        let inner_start = at + "drop(".len();
        if let Some(close) = masked[inner_start..body_end].find(')') {
            let name = masked[inner_start..inner_start + close].trim();
            if name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !name.is_empty() {
                drops.push((at, name.to_string()));
            }
        }
    }

    // Replay braces / drops / acquisitions in order, maintaining the held set.
    struct Held {
        label: String,
        line: usize,
        depth: usize,
        binding: String,
    }
    let mut held: Vec<Held> = Vec::new();
    let mut acq_iter = acquisitions.into_iter().peekable();
    let mut drop_iter = drops.into_iter().peekable();
    let mut depth = 0usize;
    for (pos, &ch) in b[body_start..body_end].iter().enumerate() {
        let pos = body_start + pos;
        while let Some((dpos, _)) = drop_iter.peek() {
            if *dpos > pos {
                break;
            }
            let (_, name) = drop_iter.next().expect("peeked");
            if let Some(i) = held.iter().rposition(|h| h.binding == name) {
                held.remove(i);
            }
        }
        while let Some(acq) = acq_iter.peek() {
            if acq.pos > pos {
                break;
            }
            let acq = acq_iter.next().expect("peeked");
            let line = file.line_of(acq.pos);
            for h in &held {
                if h.label == acq.label {
                    // Same-name nesting is usually two *instances* of one shape
                    // (e.g. two models' stats rings); flagging it would cry wolf.
                    continue;
                }
                let key = (
                    format!("{}::{}", file.crate_name, h.label),
                    format!("{}::{}", file.crate_name, acq.label),
                );
                lint.edges.entry(key).or_insert_with(|| Witness {
                    from_site: (file.rel_path.clone(), h.line),
                    to_site: (file.rel_path.clone(), line),
                });
            }
            if let Some(binding) = acq.binding {
                held.push(Held {
                    label: acq.label,
                    line,
                    depth,
                    binding,
                });
            }
        }
        match ch {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                held.retain(|h| h.depth <= depth);
            }
            _ => {}
        }
    }
}

impl Lint for LockOrder {
    fn spec(&self) -> &'static LintSpec {
        &LOCK_ORDER
    }

    fn check_file(&mut self, file: &SourceFile, _out: &mut Vec<Diagnostic>) {
        let masked = file.masked.clone();
        let b = masked.as_bytes();
        let mut search = 0usize;
        while let Some(off) = masked[search..].find("fn ") {
            let at = search + off;
            search = at + 1;
            if at > 0 && is_ident_byte(b[at - 1]) {
                continue;
            }
            if file.is_test_line(file.line_of(at)) {
                continue;
            }
            // Find the body brace; a `;` first means a bodiless declaration.
            let mut k = at;
            while k < b.len() && b[k] != b'{' && b[k] != b';' {
                k += 1;
            }
            if k >= b.len() || b[k] == b';' {
                continue;
            }
            if let Some(close) = match_brace(&masked, k) {
                scan_body(self, file, k + 1, close);
            }
        }
    }

    fn finish(&mut self, out: &mut Vec<Diagnostic>) {
        // Find cycles: for every node, DFS over edges; report each strongly-connected
        // cluster of ≥ 2 locks once (keyed by its sorted node set).
        let mut adjacency: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (from, to) in self.edges.keys().map(|(a, b)| (a.as_str(), b.as_str())) {
            adjacency.entry(from).or_default().push(to);
        }
        let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
        for start in adjacency.keys().copied().collect::<Vec<_>>() {
            let mut cycle_nodes: BTreeSet<&str> = BTreeSet::new();
            // Nodes reachable from `start` that can also reach it back form its cycle
            // cluster.
            let forward = reachable(&adjacency, start);
            for node in &forward {
                if *node != start && reachable(&adjacency, node).contains(start) {
                    cycle_nodes.insert(node);
                }
            }
            if cycle_nodes.is_empty() {
                continue;
            }
            cycle_nodes.insert(start);
            let key: Vec<String> = cycle_nodes.iter().map(|s| s.to_string()).collect();
            if !reported.insert(key.clone()) {
                continue;
            }
            // Render every in-cluster edge's witness so both halves of an inversion
            // are visible in one diagnostic.
            let mut lines = Vec::new();
            let mut anchor: Option<(String, usize)> = None;
            for ((from, to), w) in &self.edges {
                if cycle_nodes.contains(from.as_str()) && cycle_nodes.contains(to.as_str()) {
                    lines.push(format!(
                        "{from} (held at {}:{}) then {to} (acquired at {}:{})",
                        w.from_site.0, w.from_site.1, w.to_site.0, w.to_site.1
                    ));
                    if anchor.is_none() {
                        anchor = Some(w.to_site.clone());
                    }
                }
            }
            let (file, line) = anchor.unwrap_or_else(|| (String::from("<workspace>"), 0));
            out.push(Diagnostic {
                lint: LOCK_ORDER.id.to_string(),
                severity: LOCK_ORDER.severity,
                file,
                line,
                message: format!(
                    "lock-order cycle between {{{}}} — a thread in each order deadlocks: {}",
                    key.join(", "),
                    lines.join("; ")
                ),
            });
        }
    }
}

fn reachable<'a>(adjacency: &BTreeMap<&'a str, Vec<&'a str>>, start: &'a str) -> BTreeSet<&'a str> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![start];
    while let Some(n) = stack.pop() {
        for next in adjacency.get(n).into_iter().flatten() {
            if seen.insert(*next) {
                stack.push(next);
            }
        }
    }
    seen
}

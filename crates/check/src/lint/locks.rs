//! The lock-discipline pass: a token-level analysis of every
//! `parking_lot` guard in the workspace.
//!
//! Like the rules in [`super::rules`], this parses nothing — it walks the
//! cleaned source view (comments and literals blanked) tracking brace and
//! paren depth, and approximates each guard's live range from how the
//! acquisition is bound:
//!
//! * `let g = x.lock();` — a **named** guard, live until its enclosing
//!   block closes or an explicit `drop(g)`;
//! * `if let` / `while let` / `match` / `for` scrutinees — a **block**
//!   temporary, live through the whole block the statement opens (the
//!   real Rust temporary-lifetime rule, and a classic hidden-guard trap:
//!   `if let Some(c) = x.lock().remove(k)` holds the lock across the
//!   entire body);
//! * anything else — a **statement** temporary, live to the statement's
//!   `;`/`,` (plain `if cond {` temporaries drop at the `{`, as in Rust).
//!
//! Over the live guards it reports three rules:
//!
//! * [`RULE_LOCK_ORDER`] — a cross-file ordering graph over lock
//!   *families* (the receiver's final field/binding name: `self.table
//!   .lock()` and `rp.table.lock()` are one family); any cycle is a
//!   potential deadlock under concurrent callers;
//! * [`RULE_LOCK_BLOCKING`] — a blocking call (socket read/write/dial,
//!   `thread::join`, channel `recv`, `sleep`, a readiness `.poll(` wait
//!   or selector `.register(`/`.reregister(`/`.deregister(` call, a
//!   `DeltaSink`'s `.apply_delta(` dictation, …) issued while any guard
//!   is live;
//! * [`RULE_LOCK_DOUBLE`] — re-acquiring a family that already has a
//!   live guard (`parking_lot` locks are not reentrant).
//!
//! These are heuristics: families are names, not types, and live ranges
//! are approximated, so real designs that intentionally hold a guard
//! (e.g. a writer lock that exists to serialize socket bytes) are
//! expected to carry an allowlist entry explaining why — see
//! `crates/check/teeve-check.allow`.

use std::collections::BTreeMap;

use super::source::SourceFile;
use super::Finding;

/// Lock-order cycles across the workspace's lock-site ordering graph.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// Blocking calls made while a guard is live.
pub const RULE_LOCK_BLOCKING: &str = "lock-blocking";
/// Double-acquisition of an already-held lock family.
pub const RULE_LOCK_DOUBLE: &str = "lock-double";

/// The lock rules, in the order they report.
pub const LOCK_RULES: &[&str] = &[RULE_LOCK_ORDER, RULE_LOCK_BLOCKING, RULE_LOCK_DOUBLE];

/// Guard-producing calls. `.read()`/`.write()` only count with **empty**
/// parens — that is the `parking_lot::RwLock` signature, while
/// `io::Read::read(&mut buf)` / `io::Write::write(&buf)` take arguments.
const ACQUIRE_TOKENS: &[&str] = &[".lock()", ".read()", ".write()"];

/// Calls that can block the holding thread, with a short description for
/// the finding message.
const BLOCKING_TOKENS: &[(&str, &str)] = &[
    (".write_all(", "socket/stream write"),
    (".read_exact(", "socket/stream read"),
    (".flush()", "stream flush"),
    ("TcpStream::connect", "TCP dial"),
    (".connect(", "TCP dial"),
    (".accept()", "listener accept"),
    (".shutdown(", "socket shutdown"),
    ("thread::sleep", "sleep"),
    (".join()", "thread join"),
    (".recv()", "channel receive"),
    (".recv_timeout(", "channel receive"),
    (".wait(", "condvar wait"),
    (".wait_timeout(", "condvar wait"),
    // Readiness-poll operations: a poll wait parks the thread outright,
    // and (de)registration calls take the selector's internal lock, so
    // any of them under a live guard stalls every contender — the exact
    // trap the reactor's event loops must never fall into.
    (".poll(", "readiness poll wait"),
    (".register(", "poll registration"),
    (".reregister(", "poll registration"),
    (".deregister(", "poll deregistration"),
    // A `DeltaSink` may dictate the delta over sockets and wait for every
    // touched RP's ack, so a guard held across it stalls its contenders
    // for a whole network round trip.
    (".apply_delta(", "delta dictation"),
];

/// How a live guard eventually dies.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GuardKind {
    /// `let g = x.lock();` — dies at block close or `drop(g)`.
    Named(String),
    /// Scrutinee temporary — dies when the block it opened closes.
    Block,
    /// Statement temporary — dies at the next `;`/`,` at its paren
    /// depth (or converts to [`GuardKind::Block`] at a scrutinee `{`).
    Stmt,
}

#[derive(Debug, Clone)]
struct Guard {
    family: String,
    /// 1-based acquisition line.
    line: usize,
    /// Kill the guard when brace depth drops below this.
    dies_below: i32,
    /// Paren depth at acquisition (statement temporaries only).
    paren: i32,
    kind: GuardKind,
}

/// One `A -> B` observation: a `to`-family guard acquired while a
/// `from`-family guard was live.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OrderEdge {
    from: String,
    to: String,
    path: String,
    /// 1-based line of the inner (`to`) acquisition.
    line: usize,
    /// 1-based line where the outer (`from`) guard was taken.
    from_line: usize,
}

/// Events of one source line, ordered by column.
enum Event {
    Open,
    Close,
    ParenOpen,
    ParenClose,
    /// `;` or `,` — ends statement temporaries at its paren depth.
    Boundary,
    Acquire {
        named_rest: bool,
    },
    Blocking {
        token: &'static str,
        what: &'static str,
    },
    Drop {
        name: String,
    },
}

/// The receiver's final identifier at the end of the statement text
/// accumulated so far (trailing whitespace skipped, so method chains
/// split across lines resolve), or `None` when the receiver is not a
/// plain field/binding chain.
fn family_from_stmt(stmt: &str) -> Option<String> {
    let head = stmt.trim_end();
    let ident: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    let ident: String = ident.chars().rev().collect();
    if ident.is_empty() {
        return None;
    }
    if ident.chars().all(|c| c.is_ascii_digit()) {
        // Tuple-field receivers (`self.0.lock()`) would collide across
        // unrelated types; qualify them with the preceding segment.
        let prefixed: String = head[..head.len() - ident.len()]
            .trim_end_matches('.')
            .chars()
            .rev()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let prefixed: String = prefixed.chars().rev().collect();
        if prefixed.is_empty() {
            return None;
        }
        return Some(format!("{prefixed}.{ident}"));
    }
    Some(ident)
}

/// True when `at` is preceded by a non-identifier char (so `drop(` does
/// not match `recorder_drop(`).
fn word_start(line: &str, at: usize) -> bool {
    at == 0
        || !line[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Collects the column-ordered events of one cleaned line. Token events
/// (acquire/blocking/drop) are only emitted for production code; brace,
/// paren, and boundary events always run so block structure stays
/// consistent through test regions.
fn line_events(line: &str, production: bool) -> Vec<(usize, Event)> {
    let mut events = Vec::new();
    for (at, c) in line.char_indices() {
        match c {
            '{' => events.push((at, Event::Open)),
            '}' => events.push((at, Event::Close)),
            '(' | '[' => events.push((at, Event::ParenOpen)),
            ')' | ']' => events.push((at, Event::ParenClose)),
            ';' | ',' => events.push((at, Event::Boundary)),
            _ => {}
        }
    }
    if production {
        for token in ACQUIRE_TOKENS {
            let mut start = 0;
            while let Some(pos) = line[start..].find(token) {
                let at = start + pos;
                let rest = &line[at + token.len()..];
                events.push((
                    at,
                    Event::Acquire {
                        named_rest: rest.trim_start().starts_with(';'),
                    },
                ));
                start = at + token.len();
            }
        }
        for &(token, what) in BLOCKING_TOKENS {
            let mut start = 0;
            while let Some(pos) = line[start..].find(token) {
                let at = start + pos;
                // Dot-prefixed tokens are method calls (the char before
                // the `.` is the receiver); bare tokens need a word
                // boundary so `my_thread::sleep` style lookalikes pass.
                if token.starts_with('.') || word_start(line, at) {
                    events.push((at, Event::Blocking { token, what }));
                }
                start = at + token.len();
            }
        }
        let mut start = 0;
        while let Some(pos) = line[start..].find("drop(") {
            let at = start + pos;
            if word_start(line, at) {
                let name: String = line[at + 5..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() {
                    events.push((at, Event::Drop { name }));
                }
            }
            start = at + 5;
        }
    }
    events.sort_by_key(|(at, _)| *at);
    events
}

/// True when the statement opening a block keeps its scrutinee
/// temporaries alive through the block (Rust's temporary-lifetime rule
/// for `if let`/`while let`/`match`/`for` — but *not* plain `if`).
fn scrutinee_statement(stmt: &str) -> bool {
    let head = stmt.trim_start();
    head.starts_with("if let ")
        || head.starts_with("while let ")
        || head.starts_with("match ")
        || head.starts_with("for ")
}

/// Per-file scan: produces local findings (blocking, double) and the
/// file's contribution to the global ordering graph.
fn scan_file(file: &SourceFile, edges: &mut Vec<OrderEdge>, findings: &mut Vec<Finding>) {
    let mut depth: i32 = 0;
    let mut paren: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    // The statement text accumulated since the last boundary, used to
    // classify `let` bindings and scrutinee blocks.
    let mut stmt = String::new();

    for (idx, line) in file.clean_lines.iter().enumerate() {
        let production = !file.is_test_line(idx);
        // Text between events flows into the statement buffer; structural
        // chars themselves are skipped (cursor hops over them).
        let mut cursor = 0usize;
        for (at, event) in line_events(line, production) {
            if at >= cursor {
                stmt.push_str(&line[cursor..at]);
                cursor = at;
            }
            let structural = matches!(
                event,
                Event::Open | Event::Close | Event::ParenOpen | Event::ParenClose | Event::Boundary
            );
            if structural {
                cursor = at + 1;
            }
            match event {
                Event::Open => {
                    let scrutinee = scrutinee_statement(&stmt);
                    for guard in &mut guards {
                        if guard.kind == GuardKind::Stmt && paren <= guard.paren {
                            if scrutinee {
                                guard.kind = GuardKind::Block;
                                guard.dies_below = depth + 1;
                            } else {
                                // Plain-`if` condition temporaries drop
                                // before the block is entered.
                                guard.dies_below = i32::MAX;
                            }
                        }
                    }
                    guards.retain(|g| g.dies_below != i32::MAX);
                    depth += 1;
                    if paren == 0 {
                        stmt.clear();
                    }
                }
                Event::Close => {
                    depth -= 1;
                    guards.retain(|g| depth >= g.dies_below);
                    if paren == 0 {
                        stmt.clear();
                    }
                }
                Event::ParenOpen => paren += 1,
                Event::ParenClose => paren -= 1,
                Event::Boundary => {
                    guards.retain(|g| !(g.kind == GuardKind::Stmt && paren <= g.paren));
                    if paren == 0 {
                        stmt.clear();
                    }
                }
                Event::Acquire { named_rest } => {
                    let Some(family) = family_from_stmt(&stmt) else {
                        continue;
                    };
                    for held in &guards {
                        if held.family == family {
                            findings.push(Finding::new(
                                RULE_LOCK_DOUBLE,
                                &file.rel,
                                idx + 1,
                                format!(
                                    "lock family `{family}` re-acquired while the guard taken \
                                     at line {} is still live — parking_lot locks are not \
                                     reentrant, this self-deadlocks",
                                    held.line
                                ),
                            ));
                        } else {
                            edges.push(OrderEdge {
                                from: held.family.clone(),
                                to: family.clone(),
                                path: file.rel.clone(),
                                line: idx + 1,
                                from_line: held.line,
                            });
                        }
                    }
                    let kind = if named_rest {
                        let head = stmt.trim_start();
                        let name: String = head
                            .strip_prefix("let ")
                            .map(|r| r.trim_start().trim_start_matches("mut "))
                            .unwrap_or("")
                            .chars()
                            .take_while(|c| c.is_alphanumeric() || *c == '_')
                            .collect();
                        if name.is_empty() {
                            GuardKind::Stmt
                        } else {
                            GuardKind::Named(name)
                        }
                    } else {
                        GuardKind::Stmt
                    };
                    guards.push(Guard {
                        family,
                        line: idx + 1,
                        dies_below: depth,
                        paren,
                        kind,
                    });
                }
                Event::Blocking { token, what } => {
                    for held in &guards {
                        findings.push(Finding::new(
                            RULE_LOCK_BLOCKING,
                            &file.rel,
                            idx + 1,
                            format!(
                                "`{token}` ({what}) while lock family `{}` (taken at line {}) \
                                 is held — a blocking call under a guard stalls every \
                                 contending thread",
                                held.family, held.line
                            ),
                        ));
                    }
                }
                Event::Drop { name } => {
                    guards.retain(|g| g.kind != GuardKind::Named(name.clone()));
                }
            }
        }
        if cursor < line.len() {
            stmt.push_str(&line[cursor..]);
        }
        stmt.push('\n');
    }
}

/// Lock-order cycle detection over the accumulated cross-file edges:
/// every edge whose reverse direction is reachable through the graph is
/// reported, with a witness chain back.
fn order_findings(edges: &[OrderEdge]) -> Vec<Finding> {
    // family -> [(to-family, witness edge index)]
    let mut adj: BTreeMap<&str, Vec<(&str, usize)>> = BTreeMap::new();
    for (i, e) in edges.iter().enumerate() {
        adj.entry(&e.from).or_default().push((&e.to, i));
    }
    let mut findings = Vec::new();
    let mut seen: Vec<(&str, &str, &str, usize)> = Vec::new();
    for edge in edges {
        let key = (
            edge.from.as_str(),
            edge.to.as_str(),
            edge.path.as_str(),
            edge.line,
        );
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        // BFS from `to` looking for a path back to `from`.
        let mut frontier = vec![edge.to.as_str()];
        let mut visited = vec![edge.to.as_str()];
        let mut parent: BTreeMap<&str, usize> = BTreeMap::new();
        let mut back: Option<usize> = None;
        'bfs: while let Some(at) = frontier.pop() {
            for &(next, via) in adj.get(at).map(Vec::as_slice).unwrap_or_default() {
                if next == edge.from {
                    parent.insert(next, via);
                    back = Some(via);
                    break 'bfs;
                }
                if !visited.contains(&next) {
                    visited.push(next);
                    parent.insert(next, via);
                    frontier.push(next);
                }
            }
        }
        let Some(_) = back else { continue };
        // Reconstruct the witness chain to -> ... -> from.
        let mut chain = Vec::new();
        let mut at = edge.from.as_str();
        while at != edge.to {
            let via = parent[at];
            let e = &edges[via];
            chain.push(format!(
                "`{}` -> `{}` at {}:{}",
                e.from, e.to, e.path, e.line
            ));
            at = &e.from;
        }
        chain.reverse();
        findings.push(Finding::new(
            RULE_LOCK_ORDER,
            &edge.path,
            edge.line,
            format!(
                "lock family `{}` acquired while `{}` (taken at line {}) is held, but the \
                 reverse order also occurs ({}) — lock-order cycle, potential deadlock",
                edge.to,
                edge.from,
                edge.from_line,
                chain.join(", ")
            ),
        ));
    }
    findings
}

/// Runs the three lock rules over the prepared sources, findings sorted
/// by path, line, then rule.
pub fn run_locks_rules(files: &[SourceFile]) -> Vec<Finding> {
    let mut edges = Vec::new();
    let mut findings = Vec::new();
    for file in files {
        scan_file(file, &mut edges, &mut findings);
    }
    findings.extend(order_findings(&edges));
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    findings
}

#[cfg(test)]
mod tests {
    use super::super::source::strip_comments_and_strings;
    use super::*;

    fn fake(rel: &str, src: &str) -> SourceFile {
        let clean = strip_comments_and_strings(src);
        SourceFile {
            rel: rel.to_owned(),
            raw_lines: src.lines().map(str::to_owned).collect(),
            clean_lines: clean.lines().map(str::to_owned).collect(),
            test_lines: vec![false; src.lines().count()],
            test_path: false,
        }
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn seeded_lock_order_inversion_is_caught() {
        // The classic two-lock inversion, split across two files exactly
        // as a real deadlock would be.
        let a = fake(
            "crates/x/src/a.rs",
            "fn f(&self) {\n    let alpha = self.alpha.lock();\n    self.beta.lock().push(1);\n}",
        );
        let b = fake(
            "crates/x/src/b.rs",
            "fn g(&self) {\n    let beta = self.beta.lock();\n    self.alpha.lock().push(1);\n}",
        );
        let findings = run_locks_rules(&[a, b]);
        assert_eq!(rules_of(&findings), vec![RULE_LOCK_ORDER, RULE_LOCK_ORDER]);
        assert_eq!(findings[0].path, "crates/x/src/a.rs");
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("`beta`"));
        assert!(findings[0].message.contains("crates/x/src/b.rs:3"));
    }

    #[test]
    fn consistent_order_is_not_a_cycle() {
        let a = fake(
            "crates/x/src/a.rs",
            "fn f(&self) {\n    let alpha = self.alpha.lock();\n    self.beta.lock().push(1);\n}",
        );
        let b = fake(
            "crates/x/src/b.rs",
            "fn g(&self) {\n    let alpha = self.alpha.lock();\n    self.beta.lock().push(1);\n}",
        );
        assert!(run_locks_rules(&[a, b]).is_empty());
    }

    #[test]
    fn three_family_cycle_is_caught() {
        let src = "fn f(&self) {\n    let a = self.a.lock();\n    self.b.lock().x();\n}\n\
                   fn g(&self) {\n    let b = self.b.lock();\n    self.c.lock().x();\n}\n\
                   fn h(&self) {\n    let c = self.c.lock();\n    self.a.lock().x();\n}";
        let findings = run_locks_rules(&[fake("crates/x/src/a.rs", src)]);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == RULE_LOCK_ORDER));
    }

    #[test]
    fn blocking_call_under_named_guard_is_flagged() {
        let src = "fn f(&self) {\n    let mut outbound = self.outbound.lock();\n    \
                   conn.write_all(&buf);\n}";
        let findings = run_locks_rules(&[fake("crates/x/src/a.rs", src)]);
        assert_eq!(rules_of(&findings), vec![RULE_LOCK_BLOCKING]);
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("`outbound`"));
    }

    #[test]
    fn poll_wait_and_registration_under_guard_are_flagged() {
        // Seeded reactor-shaped violations: an event loop that polls (or
        // touches the selector's registration table) while holding its
        // command-queue guard stalls every thread trying to enqueue a
        // command — the wakeup path deadlocks against the sleep it is
        // supposed to interrupt.
        let polling = "fn f(&self) {\n    let cmds = self.commands.lock();\n    \
                       self.poll.poll(&mut events, timeout);\n}";
        let findings = run_locks_rules(&[fake("crates/x/src/a.rs", polling)]);
        assert_eq!(rules_of(&findings), vec![RULE_LOCK_BLOCKING]);
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("readiness poll wait"));
        assert!(
            findings[0].message.contains("`cmds`") || findings[0].message.contains("`commands`")
        );

        let registering = "fn f(&self) {\n    let g = self.entries.lock();\n    \
                           registry.register(&mut stream, token, interest);\n}";
        let findings = run_locks_rules(&[fake("crates/x/src/b.rs", registering)]);
        assert_eq!(rules_of(&findings), vec![RULE_LOCK_BLOCKING]);
        assert!(findings[0].message.contains("poll registration"));

        let deregistering = "fn f(&self) {\n    if let Some(c) = self.conns.lock().take() \
                             {\n        registry.deregister(&mut c.stream);\n    }\n}";
        let findings = run_locks_rules(&[fake("crates/x/src/c.rs", deregistering)]);
        assert_eq!(rules_of(&findings), vec![RULE_LOCK_BLOCKING]);
        assert!(findings[0].message.contains("poll deregistration"));

        // The lint-safe idiom the reactor actually uses: drain the queue
        // in one statement temporary, then poll with no guard live.
        let drained = "fn f(&self) {\n    let drained = \
                       std::mem::take(&mut *self.commands.lock());\n    \
                       self.poll.poll(&mut events, timeout);\n}";
        assert!(run_locks_rules(&[fake("crates/x/src/d.rs", drained)]).is_empty());
    }

    #[test]
    fn delta_dictation_under_a_slot_guard_is_flagged() {
        // A bulk drive that hands a session's delta to its sink while
        // still holding the session's slot lock: every lookup of that
        // session waits out the dictation's round trip.
        let held = "fn f(&self) {\n    let mut slot = slot.lock();\n    \
                    let outcome = slot.runtime.apply_epoch(&epoch);\n    \
                    sink.apply_delta(&outcome.delta);\n}";
        let findings = run_locks_rules(&[fake("crates/x/src/a.rs", held)]);
        assert_eq!(rules_of(&findings), vec![RULE_LOCK_BLOCKING]);
        assert_eq!(findings[0].line, 4);
        assert!(findings[0].message.contains("delta dictation"));
        assert!(findings[0].message.contains("`slot`"));

        // The pipelined drive's shape: the guard is dropped first.
        let released = "fn f(&self) {\n    let mut slot = slot.lock();\n    \
                        let outcome = slot.runtime.apply_epoch(&epoch);\n    \
                        drop(slot);\n    sink.apply_delta(&outcome.delta);\n}";
        assert!(run_locks_rules(&[fake("crates/x/src/b.rs", released)]).is_empty());
    }

    #[test]
    fn drop_and_block_scope_release_guards() {
        let dropped = "fn f(&self) {\n    let g = self.m.lock();\n    drop(g);\n    \
                       conn.write_all(&buf);\n}";
        let scoped = "fn f(&self) {\n    {\n        let g = self.m.lock();\n    }\n    \
                      conn.write_all(&buf);\n}";
        assert!(run_locks_rules(&[fake("crates/x/src/a.rs", dropped)]).is_empty());
        assert!(run_locks_rules(&[fake("crates/x/src/b.rs", scoped)]).is_empty());
    }

    #[test]
    fn if_let_scrutinee_holds_the_guard_through_the_block() {
        // The hidden-guard trap: the temporary lives through the body.
        let src = "fn f(&self) {\n    if let Some(conn) = self.outbound.lock().remove(&child) \
                   {\n        conn.shutdown(Shutdown::Write);\n    }\n}";
        let findings = run_locks_rules(&[fake("crates/x/src/a.rs", src)]);
        assert_eq!(rules_of(&findings), vec![RULE_LOCK_BLOCKING]);
        assert!(findings[0].message.contains(".shutdown("));
    }

    #[test]
    fn plain_if_condition_temporary_dies_at_the_brace() {
        let src = "fn f(&self) {\n    if self.outbound.lock().is_empty() {\n        \
                   thread::sleep(d);\n    }\n}";
        assert!(run_locks_rules(&[fake("crates/x/src/a.rs", src)]).is_empty());
    }

    #[test]
    fn statement_temporary_dies_at_the_semicolon() {
        let src = "fn f(&self) {\n    self.outbound.lock().insert(child, conn);\n    \
                   conn.write_all(&buf);\n}";
        assert!(run_locks_rules(&[fake("crates/x/src/a.rs", src)]).is_empty());
    }

    #[test]
    fn blocking_inside_the_same_statement_is_flagged() {
        let src = "fn f(&self) {\n    self.control.lock().as_mut().map(|c| \
                   c.write_all(&buf));\n}";
        let findings = run_locks_rules(&[fake("crates/x/src/a.rs", src)]);
        assert_eq!(rules_of(&findings), vec![RULE_LOCK_BLOCKING]);
    }

    #[test]
    fn multi_line_chain_temporary_spans_lines() {
        let src = "fn f(&self) {\n    let v = self.sessions\n        .read()\n        \
                   .iter()\n        .map(|x| conn.write_all(x))\n        .collect();\n}";
        let findings = run_locks_rules(&[fake("crates/x/src/a.rs", src)]);
        assert_eq!(rules_of(&findings), vec![RULE_LOCK_BLOCKING]);
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn double_acquisition_of_one_family_is_flagged() {
        let src = "fn f(&self) {\n    let a = self.table.lock();\n    \
                   let b = self.table.lock();\n}";
        let findings = run_locks_rules(&[fake("crates/x/src/a.rs", src)]);
        assert_eq!(rules_of(&findings), vec![RULE_LOCK_DOUBLE]);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn rwlock_acquisitions_need_empty_parens() {
        // `io::Write::write(&buf)` and `io::Read::read(&mut buf)` take
        // arguments and must not register as guards.
        let src = "fn f(&self) {\n    let g = self.map.write();\n    \
                   stream.write(&buf);\n    stream.read(&mut buf);\n}";
        let findings = run_locks_rules(&[fake("crates/x/src/a.rs", src)]);
        // The named RwLock write guard is real; the io calls create no
        // guards (no double/order findings), and neither io call is in
        // the blocking token list under this guard except read_exact/
        // write_all — so nothing fires.
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn tuple_field_receivers_get_qualified_families() {
        let src = "fn f(&self) {\n    self.0.lock().record(v);\n}";
        let mut edges = Vec::new();
        let mut findings = Vec::new();
        scan_file(&fake("crates/x/src/a.rs", src), &mut edges, &mut findings);
        assert!(findings.is_empty());
        assert!(edges.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "fn f(&self) {\n    let g = self.m.lock();\n    conn.write_all(&b);\n}";
        let mut file = fake("crates/x/src/a.rs", src);
        file.test_lines = vec![true; file.raw_lines.len()];
        assert!(run_locks_rules(&[file]).is_empty());
        let in_tests_dir = SourceFile {
            test_path: true,
            ..fake("crates/x/tests/a.rs", src)
        };
        assert!(run_locks_rules(&[in_tests_dir]).is_empty());
    }

    #[test]
    fn guards_do_not_leak_across_functions() {
        let src = "fn f(&self) {\n    let g = self.m.lock();\n}\n\
                   fn g(&self) {\n    conn.write_all(&b);\n}";
        assert!(run_locks_rules(&[fake("crates/x/src/a.rs", src)]).is_empty());
    }
}

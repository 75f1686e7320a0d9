//! The repo-invariant lint rules.
//!
//! Each rule is a plain substring/token matcher over the cleaned source
//! view (comments and literals blanked by [`super::source`]); none of
//! them parse Rust. That keeps the gate dependency-free and fast, at the
//! cost of being heuristics — which is why findings can be suppressed
//! in-line or allowlisted (see the crate README).

use super::source::SourceFile;
use super::Finding;

/// No `.unwrap()` / `.expect(` in non-test `crates/net` code: the wire
/// decode, reader-thread, and coordinator paths must turn corrupt frames
/// and dead peers into typed errors, never panics, because a panicking
/// reader thread takes down an RP that other sites still forward through.
pub const RULE_NET_NO_PANIC: &str = "net-no-panic";
/// Every `Message` variant must appear in the encoder, the decoder, and
/// the wire proptest strategy, so a variant cannot be added half-way.
pub const RULE_WIRE_PARITY: &str = "wire-parity";
/// Every length-prefixed count read by the decoder must be bounds-guarded
/// (`checked_mul`, `.min(...)`, or an explicit `len()` comparison) before
/// it sizes an allocation or drives a loop.
pub const RULE_DECODE_BOUNDS: &str = "decode-bounds";
/// No `std::sync::Mutex`/`RwLock` outside `vendor/`: the workspace
/// standardizes on `parking_lot` (no lock poisoning to unwrap around).
pub const RULE_STD_SYNC: &str = "std-sync";
/// No hand-written `Serialize`/`Deserialize` impl outside `vendor/`:
/// every first-party type derives them, which is what lets the vendored
/// serde change how the traits work inside without touching a caller.
pub const RULE_SERDE_DERIVE_ONLY: &str = "serde-derive-only";
/// No direct `SystemTime::now` outside the sanctioned clock module
/// (`teeve_types::clock`); see the roadmap's clock-skew item.
pub const RULE_CLOCK: &str = "clock";
/// No byte copy on the relay path: a relayed payload is one shared
/// allocation from the read buffer to every child's write queue.
pub const RULE_RELAY_COPY: &str = "relay-copy";
/// No buffer zeroed per call on the read path: every socket read lands in
/// a scratch buffer its thread allocated once.
pub const RULE_READ_SCRATCH: &str = "read-scratch";

/// All rules, in the order they run and report.
pub const ALL_RULES: &[&str] = &[
    RULE_NET_NO_PANIC,
    RULE_WIRE_PARITY,
    RULE_DECODE_BOUNDS,
    RULE_STD_SYNC,
    RULE_SERDE_DERIVE_ONLY,
    RULE_CLOCK,
    RULE_RELAY_COPY,
    RULE_READ_SCRATCH,
];

/// True when `hay` contains `needle` delimited by non-identifier chars.
fn contains_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = !hay[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len().max(1);
    }
    false
}

/// `net-no-panic`: flags `.unwrap()`/`.expect(` on non-test lines of
/// `crates/net/src`.
pub fn net_no_panic(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !file.rel.starts_with("crates/net/src/") {
            continue;
        }
        for (idx, line) in file.clean_lines.iter().enumerate() {
            if file.is_test_line(idx) {
                continue;
            }
            for token in [".unwrap()", ".expect("] {
                if line.contains(token) {
                    findings.push(Finding::new(
                        RULE_NET_NO_PANIC,
                        &file.rel,
                        idx + 1,
                        format!(
                            "`{token}` in non-test net code; return a typed error \
                             (WireError / ClusterError / io::Error) instead"
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// Extracts the variant names of `pub enum Message` from the wire module
/// by brace-depth tracking (variants sit at depth 1 of the enum body).
fn message_variants(wire: &SourceFile) -> Vec<(String, usize)> {
    let mut variants = Vec::new();
    let Some(start) = wire
        .clean_lines
        .iter()
        .position(|l| l.contains("pub enum Message"))
    else {
        return variants;
    };
    let mut depth = 0i64;
    let mut opened = false;
    for (idx, line) in wire.clean_lines.iter().enumerate().skip(start) {
        if opened && depth == 1 {
            let trimmed = line.trim_start();
            if trimmed
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
            {
                let name: String = trimmed
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                variants.push((name, idx + 1));
            }
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            break;
        }
    }
    variants
}

/// Extracts the field names of `pub struct <name>` by brace-depth
/// tracking (fields sit at depth 1 of the struct body).
fn struct_fields(file: &SourceFile, name: &str) -> Vec<(String, usize)> {
    let marker = format!("pub struct {name}");
    let mut fields = Vec::new();
    let Some(start) = file.clean_lines.iter().position(|l| l.contains(&marker)) else {
        return fields;
    };
    let mut depth = 0i64;
    let mut opened = false;
    for (idx, line) in file.clean_lines.iter().enumerate().skip(start) {
        if opened && depth == 1 {
            let trimmed = line.trim_start().trim_start_matches("pub ");
            if let Some(colon) = trimmed.find(':') {
                let field = trimmed[..colon].trim();
                if !field.is_empty() && field.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    fields.push((field.to_owned(), idx + 1));
                }
            }
        }
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            break;
        }
    }
    fields
}

/// The 0-based line range of the first `fn <name>` in `file`, from its
/// signature to its brace-matched close, or `None` when absent.
fn fn_lines(file: &SourceFile, name: &str) -> Option<std::ops::Range<usize>> {
    let marker = format!("fn {name}");
    let start = file.clean_lines.iter().position(|l| {
        l.find(&marker).is_some_and(|at| {
            !l[at + marker.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
    })?;
    let mut depth = 0i64;
    let mut opened = false;
    for (idx, line) in file.clean_lines.iter().enumerate().skip(start) {
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth <= 0 {
            return Some(start..idx + 1);
        }
    }
    Some(start..file.clean_lines.len())
}

/// Returns the clean text of the body of the first `fn <name>` in `file`
/// (brace-matched), or `None` when absent.
fn fn_body(file: &SourceFile, name: &str) -> Option<String> {
    let lines = fn_lines(file, name)?;
    Some(file.clean_lines[lines].join("\n") + "\n")
}

/// `wire-parity`: every `Message` variant appears in `fn encode`, in
/// `fn decode`, and in the wire proptest strategy file — and the
/// `StatsReport` sparse-histogram sub-codec keeps the same three-way
/// parity for every `StreamDelivery` field, including the histogram's
/// sparse representation itself.
pub fn wire_parity(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(wire) = files.iter().find(|f| f.rel == "crates/net/src/wire.rs") else {
        return findings;
    };
    let variants = message_variants(wire);
    if variants.is_empty() {
        findings.push(Finding::new(
            RULE_WIRE_PARITY,
            &wire.rel,
            1,
            "could not locate `pub enum Message` variants".to_owned(),
        ));
        return findings;
    }
    let encode = fn_body(wire, "encode").unwrap_or_default();
    let decode = fn_body(wire, "decode").unwrap_or_default();
    let strategy = files
        .iter()
        .find(|f| f.rel == "crates/net/tests/proptest_wire.rs")
        .map(|f| f.clean_lines.join("\n"))
        .unwrap_or_default();
    for (variant, line) in variants {
        let path = format!("Message::{variant}");
        for (region, text) in [
            ("fn encode", &encode),
            ("fn decode", &decode),
            ("the wire proptest strategy", &strategy),
        ] {
            if !contains_word(text, &path) {
                findings.push(Finding::new(
                    RULE_WIRE_PARITY,
                    &wire.rel,
                    line,
                    format!("`{path}` is missing from {region}"),
                ));
            }
        }
    }

    // The StatsReport sub-codec: every StreamDelivery field must survive
    // the encoder, the decoder, and the proptest strategy, so a stats
    // field cannot be added half-way either.
    let fields = struct_fields(wire, "StreamDelivery");
    if fields.is_empty() {
        findings.push(Finding::new(
            RULE_WIRE_PARITY,
            &wire.rel,
            1,
            "could not locate `pub struct StreamDelivery` fields".to_owned(),
        ));
        return findings;
    }
    let struct_line = fields[0].1;
    for (field, line) in fields {
        for (region, text) in [
            ("fn encode", &encode),
            ("fn decode", &decode),
            ("the wire proptest strategy", &strategy),
        ] {
            if !contains_word(text, &field) {
                findings.push(Finding::new(
                    RULE_WIRE_PARITY,
                    &wire.rel,
                    line,
                    format!("`StreamDelivery::{field}` is missing from {region}"),
                ));
            }
        }
    }
    // The histogram must travel via its sparse representation on both
    // sides, and the strategy must exercise a real LogHistogram — a
    // dense or hand-rolled re-encoding would silently drift.
    for (token, region, text) in [
        ("nonzero_buckets", "fn encode", &encode),
        ("from_parts", "fn decode", &decode),
        ("BUCKETS", "fn decode", &decode),
        ("LogHistogram", "the wire proptest strategy", &strategy),
    ] {
        if !contains_word(text, token) {
            findings.push(Finding::new(
                RULE_WIRE_PARITY,
                &wire.rel,
                struct_line,
                format!("the sparse-histogram sub-codec marker `{token}` is missing from {region}"),
            ));
        }
    }
    findings
}

/// Tokens that read a length-prefixed count off the wire: raw buffer
/// reads, the wire decoder's checked body-reader reads, and its
/// fixed-offset frame-header reads.
const COUNT_SOURCES: &[&str] = &[
    "get_u32_le()",
    "get_u16_le()",
    "get_u8()",
    "from_le_bytes",
    ".u8()?",
    ".u32()?",
    "header_u32(",
];
/// Tokens that count as a bounds guard for such a count.
const GUARDS: &[&str] = &["checked_mul", ".min(", "len() <", "len() >=", "> BUCKETS"];
/// How many following lines the guard must appear within.
const GUARD_WINDOW: usize = 10;

/// `decode-bounds`: a `let n = ...get_uXX_le() as usize` style count in
/// `crates/net/src` must see a bounds guard within the next few lines,
/// before anything is allocated or looped on it.
pub fn decode_bounds(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !file.rel.starts_with("crates/net/src/") {
            continue;
        }
        for (idx, line) in file.clean_lines.iter().enumerate() {
            if file.is_test_line(idx) {
                continue;
            }
            let Some(let_at) = line.find("let ") else {
                continue;
            };
            if !line.contains(" as usize") || !COUNT_SOURCES.iter().any(|t| line.contains(t)) {
                continue;
            }
            let name: String = line[let_at + 4..]
                .trim_start()
                .trim_start_matches("mut ")
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            let window =
                &file.clean_lines[idx..(idx + 1 + GUARD_WINDOW).min(file.clean_lines.len())];
            let guarded = window.iter().any(|l| GUARDS.iter().any(|g| l.contains(g)));
            if !guarded {
                findings.push(Finding::new(
                    RULE_DECODE_BOUNDS,
                    &file.rel,
                    idx + 1,
                    format!(
                        "wire count `{name}` is not bounds-guarded within {GUARD_WINDOW} lines \
                         (expected checked_mul / .min(..) / a len() comparison)"
                    ),
                ));
            }
        }
    }
    findings
}

/// `std-sync`: the workspace locks with `parking_lot` only (applies to
/// test code too — everything outside `vendor/`).
pub fn std_sync(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        for (idx, line) in file.clean_lines.iter().enumerate() {
            let direct = line.contains("std::sync::Mutex") || line.contains("std::sync::RwLock");
            let imported = line.contains("use std::sync::")
                && (contains_word(line, "Mutex") || contains_word(line, "RwLock"));
            if direct || imported {
                findings.push(Finding::new(
                    RULE_STD_SYNC,
                    &file.rel,
                    idx + 1,
                    "std::sync::Mutex/RwLock is banned outside vendor/; use parking_lot".to_owned(),
                ));
            }
        }
    }
    findings
}

/// `serde-derive-only`: flags an `impl` line whose trait, the word just
/// before `for`, is `Serialize` or `Deserialize` (bare, path-qualified or
/// with generic arguments). Applies to test code too — everything
/// outside `vendor/`.
pub fn serde_derive_only(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        for (idx, line) in file.clean_lines.iter().enumerate() {
            if !contains_word(line, "impl") {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            let hand_impl = words.windows(2).any(|pair| {
                let name = pair[0].split('<').next().unwrap_or_default();
                let name = name.rsplit("::").next().unwrap_or_default();
                pair[1] == "for" && (name == "Serialize" || name == "Deserialize")
            });
            if hand_impl {
                findings.push(Finding::new(
                    RULE_SERDE_DERIVE_ONLY,
                    &file.rel,
                    idx + 1,
                    "hand-written Serialize/Deserialize impl outside vendor/;                      derive it instead"
                        .to_owned(),
                ));
            }
        }
    }
    findings
}

/// `clock`: `SystemTime::now` may only appear in the sanctioned clock
/// module (enforced via the checked-in allowlist, which names that
/// module — policy lives in data, not in this scanner).
pub fn clock(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        for (idx, line) in file.clean_lines.iter().enumerate() {
            if file.is_test_line(idx) {
                continue;
            }
            if line.contains("SystemTime::now") {
                findings.push(Finding::new(
                    RULE_CLOCK,
                    &file.rel,
                    idx + 1,
                    "direct SystemTime::now; use teeve_types::clock::unix_micros() \
                     (the single sanctioned wall-clock module)"
                        .to_owned(),
                ));
            }
        }
    }
    findings
}

/// The relay path, by file: the functions a relayed frame's payload
/// passes through between the read buffer and each child's socket.
const RELAY_PATH: &[(&str, &[&str])] = &[
    (
        "crates/net/src/reactor.rs",
        &[
            "forward_frame",
            "queue_write",
            "flush_conn",
            "push_frame",
            "write_to",
        ],
    ),
    ("crates/net/src/node.rs", &["copy_for"]),
    ("crates/net/src/wire.rs", &["decode"]),
];

/// Tokens that copy bytes or re-home a `Vec<u8>` as `Bytes`.
const COPY_TOKENS: &[&str] = &[
    "to_vec(",
    "extend_from_slice(",
    "copy_from_slice(",
    "put_slice(",
    "Bytes::from(",
];

/// `relay-copy`: no byte copy inside the relay path's functions, so a
/// payload copy cannot creep back onto the per-frame path. A function of
/// the path that is no longer found is a finding too — the rule must not
/// go quiet because its target was renamed.
pub fn relay_copy(files: &[SourceFile]) -> Vec<Finding> {
    path_tokens(
        files,
        RULE_RELAY_COPY,
        ("relay", "RELAY_PATH", RELAY_PATH),
        COPY_TOKENS,
        "queue a view of the payload instead of copying it",
    )
}

/// The read path, by file: the functions that read a socket.
const READ_PATH: &[(&str, &[&str])] = &[
    ("crates/net/src/reactor.rs", &["on_readable"]),
    ("crates/net/src/coordinator.rs", &["wait"]),
];

/// Tokens that build a zeroed buffer.
const ZEROED_TOKENS: &[&str] = &["[0u8;", "vec![0"];

/// `read-scratch`: no zeroed buffer built inside the read path's
/// functions, so a 64 KiB array cannot come back to be zeroed on every
/// read. A function of the path that is no longer found is a finding too.
pub fn read_scratch(files: &[SourceFile]) -> Vec<Finding> {
    path_tokens(
        files,
        RULE_READ_SCRATCH,
        ("read", "READ_PATH", READ_PATH),
        ZEROED_TOKENS,
        "read into the thread's one scratch buffer instead",
    )
}

/// The shared body of the path rules: every line of a `path` function
/// that holds one of `tokens` is a finding, and so is a function of the
/// path that is no longer found.
fn path_tokens(
    files: &[SourceFile],
    rule: &'static str,
    (kind, table, path): (&str, &str, &[(&str, &[&str])]),
    tokens: &[&str],
    advice: &str,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &(rel, functions) in path {
        let Some(file) = files.iter().find(|f| f.rel == rel) else {
            continue;
        };
        for &name in functions {
            let Some(lines) = fn_lines(file, name) else {
                findings.push(Finding::new(
                    rule,
                    &file.rel,
                    1,
                    format!("{kind}-path function `fn {name}` not found; update {table}"),
                ));
                continue;
            };
            for idx in lines {
                let line = &file.clean_lines[idx];
                if let Some(token) = tokens.iter().find(|t| line.contains(*t)) {
                    findings.push(Finding::new(
                        rule,
                        &file.rel,
                        idx + 1,
                        format!("`{token}` on the {kind} path (`fn {name}`): {advice}"),
                    ));
                }
            }
        }
    }
    findings
}

/// Runs every rule over the prepared sources.
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(net_no_panic(files));
    findings.extend(wire_parity(files));
    findings.extend(decode_bounds(files));
    findings.extend(std_sync(files));
    findings.extend(serde_derive_only(files));
    findings.extend(clock(files));
    findings.extend(relay_copy(files));
    findings.extend(read_scratch(files));
    findings
}

#[cfg(test)]
mod tests {
    use super::super::source::strip_comments_and_strings;
    use super::*;

    fn fake_file(rel: &str, src: &str) -> SourceFile {
        let clean = strip_comments_and_strings(src);
        SourceFile {
            rel: rel.to_owned(),
            raw_lines: src.lines().map(str::to_owned).collect(),
            clean_lines: clean.lines().map(str::to_owned).collect(),
            test_lines: vec![false; src.lines().count()],
            test_path: rel.split('/').any(|s| s == "tests"),
        }
    }

    #[test]
    fn net_no_panic_flags_unwrap_outside_tests() {
        let files = vec![
            fake_file("crates/net/src/bad.rs", "fn f() { x.unwrap(); }"),
            fake_file("crates/net/tests/ok.rs", "fn f() { x.unwrap(); }"),
            fake_file("crates/sim/src/ok.rs", "fn f() { x.unwrap(); }"),
        ];
        let findings = net_no_panic(&files);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].path, "crates/net/src/bad.rs");
    }

    #[test]
    fn net_no_panic_ignores_unwrap_or() {
        let files = vec![fake_file(
            "crates/net/src/ok.rs",
            "fn f() -> u64 { x.unwrap_or(0) }",
        )];
        assert!(net_no_panic(&files).is_empty());
    }

    /// A minimal wire module + strategy that satisfies both the variant
    /// and the StreamDelivery sub-codec checks.
    fn parity_fixture() -> (String, String) {
        let wire = "pub struct StreamDelivery {\n    pub delivered: u64,\n    \
                    pub latency: LogHistogram,\n}\n\
                    pub enum Message {\n    Hello { site: u32 },\n    Attach,\n}\n\
                    pub fn encode(m: &Message) { match m { Message::Hello{..} => (), \
                    Message::Attach => () }\n    \
                    let _ = (entry.delivered, entry.latency.nonzero_buckets()); }\n\
                    pub fn decode() { let _ = Message::Hello { site: 0 };\n    \
                    let _ = Message::Attach;\n    if nonzero > BUCKETS { }\n    \
                    StreamDelivery { delivered, latency: LogHistogram::from_parts(&p, s, lo, hi) } }\n";
        let strategy = "fn arb() { (Message::Hello { site: 1 }, Message::Attach); \
                        StreamDelivery { delivered: 1, latency: LogHistogram::new() } }";
        (wire.to_owned(), strategy.to_owned())
    }

    #[test]
    fn wire_parity_passes_the_compliant_fixture() {
        let (wire, strategy) = parity_fixture();
        let files = vec![
            fake_file("crates/net/src/wire.rs", &wire),
            fake_file("crates/net/tests/proptest_wire.rs", &strategy),
        ];
        assert_eq!(wire_parity(&files), vec![], "fixture should be clean");
    }

    #[test]
    fn wire_parity_catches_a_variant_missing_from_decode() {
        let (wire, strategy) = parity_fixture();
        let wire = wire.replace("let _ = Message::Attach;\n", "");
        let files = vec![
            fake_file("crates/net/src/wire.rs", &wire),
            fake_file("crates/net/tests/proptest_wire.rs", &strategy),
        ];
        let findings = wire_parity(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("Message::Attach"));
        assert!(findings[0].message.contains("fn decode"));
    }

    #[test]
    fn wire_parity_catches_a_delivery_field_missing_from_the_strategy() {
        let (wire, strategy) = parity_fixture();
        let strategy = strategy.replace("delivered: 1,", "");
        let files = vec![
            fake_file("crates/net/src/wire.rs", &wire),
            fake_file("crates/net/tests/proptest_wire.rs", &strategy),
        ];
        let findings = wire_parity(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0]
            .message
            .contains("`StreamDelivery::delivered` is missing from the wire proptest strategy"));
    }

    #[test]
    fn wire_parity_requires_the_sparse_histogram_markers() {
        let (wire, strategy) = parity_fixture();
        let wire = wire.replace(".nonzero_buckets()", ".dense_buckets()");
        let files = vec![
            fake_file("crates/net/src/wire.rs", &wire),
            fake_file("crates/net/tests/proptest_wire.rs", &strategy),
        ];
        let findings = wire_parity(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("nonzero_buckets"));
        assert!(findings[0].message.contains("fn encode"));
    }

    #[test]
    fn decode_bounds_flags_unguarded_counts() {
        let bad = "fn d(body: &mut Bytes) {\n    let count = body.get_u32_le() as usize;\n    \
                   let mut v = Vec::with_capacity(count);\n}";
        let good = "fn d(body: &mut Bytes) {\n    let count = body.get_u32_le() as usize;\n    \
                    if body.len() < count { return Err(WireError::Truncated); }\n    \
                    let mut v = Vec::with_capacity(count);\n}";
        assert_eq!(
            decode_bounds(&[fake_file("crates/net/src/bad.rs", bad)]).len(),
            1
        );
        assert!(decode_bounds(&[fake_file("crates/net/src/good.rs", good)]).is_empty());
    }

    #[test]
    fn decode_bounds_sees_counts_read_through_the_body_reader() {
        let bad = "fn d(body: &mut Body) {\n    let nonzero = body.u8()? as usize;\n    \
                   let mut v = Vec::with_capacity(nonzero);\n}";
        let good = "fn d(body: &mut Body) {\n    let count = body.u32()? as usize;\n    \
                    let mut v = Vec::with_capacity(count.min(1024));\n}";
        let findings = decode_bounds(&[fake_file("crates/net/src/bad.rs", bad)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`nonzero`"));
        assert!(decode_bounds(&[fake_file("crates/net/src/good.rs", good)]).is_empty());
    }

    #[test]
    fn decode_bounds_sees_counts_read_from_the_frame_header() {
        let bad = "fn d(src: &mut BytesMut) {\n    \
                   let payload_len = header_u32(header, AT) as usize;\n    \
                   let payload = src.split_to(payload_len);\n}";
        let good = "fn d(src: &mut BytesMut) {\n    \
                    let payload_len = header_u32(header, AT) as usize;\n    \
                    if tail.len() < payload_len { return Err(WireError::Truncated); }\n}";
        let findings = decode_bounds(&[fake_file("crates/net/src/bad.rs", bad)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`payload_len`"));
        assert!(decode_bounds(&[fake_file("crates/net/src/good.rs", good)]).is_empty());
    }

    #[test]
    fn std_sync_flags_imports_and_paths() {
        let files = vec![
            fake_file("crates/x/src/a.rs", "use std::sync::Mutex;"),
            fake_file("crates/x/src/b.rs", "static L: std::sync::RwLock<u8>;"),
            fake_file("crates/x/src/c.rs", "use std::sync::{Arc, mpsc};"),
        ];
        assert_eq!(std_sync(&files).len(), 2);
    }

    #[test]
    fn serde_derive_only_flags_hand_impls_not_derives_or_bounds() {
        let files = vec![
            fake_file("crates/x/src/a.rs", "impl serde::Serialize for Foo {"),
            fake_file("crates/x/src/b.rs", "impl<'de> Deserialize<'de> for Bar {"),
            fake_file("crates/x/tests/c.rs", "impl Serialize for Baz {}"),
            fake_file(
                "crates/x/src/ok.rs",
                "#[derive(Serialize, Deserialize)]
                 fn f<T: Serialize>(x: T) {}
                 impl<T: Serialize> Display for Wrapper<T> {}
                 impl SerializeAll for Qux {}",
            ),
        ];
        let findings = serde_derive_only(&files);
        let paths: Vec<&str> = findings.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "crates/x/src/a.rs",
                "crates/x/src/b.rs",
                "crates/x/tests/c.rs"
            ]
        );
    }

    #[test]
    fn clock_flags_direct_calls() {
        let files = vec![fake_file(
            "crates/x/src/a.rs",
            "fn now() { let _ = std::time::SystemTime::now(); }",
        )];
        assert_eq!(clock(&files).len(), 1);
    }

    /// A reactor/node/wire triple holding every relay-path function,
    /// with a copy-free body each.
    fn relay_fixture() -> (String, String, String) {
        let reactor = "fn forward_frame(p: &Bytes) {\n    queue(p.slice(..n));\n}\n\
                       fn queue_write() {}\nfn flush_conn() {}\n\
                       fn push_frame() {}\nfn write_to() {}\n\
                       fn notify() {\n    let v = b.to_vec();\n}\n";
        let node = "fn copy_for() -> [u8; 34] {\n    header\n}\n";
        let wire = "fn decode_site_plan() {\n    let v = b.to_vec();\n}\n\
                    fn decode(src: &mut BytesMut) {\n    src.split_to(n).freeze();\n}\n";
        (reactor.to_owned(), node.to_owned(), wire.to_owned())
    }

    fn relay_files(reactor: &str, node: &str, wire: &str) -> Vec<SourceFile> {
        vec![
            fake_file("crates/net/src/reactor.rs", reactor),
            fake_file("crates/net/src/node.rs", node),
            fake_file("crates/net/src/wire.rs", wire),
        ]
    }

    #[test]
    fn relay_copy_passes_the_copy_free_fixture() {
        // The `to_vec`s in `notify` and `decode_site_plan` are off the
        // relay path.
        let (reactor, node, wire) = relay_fixture();
        assert_eq!(relay_copy(&relay_files(&reactor, &node, &wire)), vec![]);
    }

    #[test]
    fn relay_copy_flags_copies_inside_the_relay_path() {
        let (reactor, node, wire) = relay_fixture();
        let reactor = reactor.replace("queue(p.slice(..n));", "queue(Bytes::from(p.to_vec()));");
        let node = node.replace("header\n", "h.copy_from_slice(&b);\n");
        let wire = wire.replace(
            "src.split_to(n).freeze();",
            "Bytes::from(src[..n].to_vec());",
        );
        let findings = relay_copy(&relay_files(&reactor, &node, &wire));
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert_eq!(
            (findings[0].path.as_str(), findings[0].line),
            ("crates/net/src/reactor.rs", 2)
        );
        assert!(findings[0].message.contains("fn forward_frame"));
        assert_eq!(
            (findings[1].path.as_str(), findings[1].line),
            ("crates/net/src/node.rs", 2)
        );
        assert_eq!(
            (findings[2].path.as_str(), findings[2].line),
            ("crates/net/src/wire.rs", 5)
        );
        assert!(findings[2].message.contains("fn decode`"));
    }

    #[test]
    fn relay_copy_reports_a_vanished_relay_function() {
        let (reactor, node, wire) = relay_fixture();
        let reactor = reactor.replace("fn write_to() {}", "fn write_all() {}");
        let findings = relay_copy(&relay_files(&reactor, &node, &wire));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`fn write_to` not found"));
    }

    /// A reactor/coordinator pair holding every read-path function, each
    /// reading into a buffer it was handed.
    fn read_fixture() -> Vec<SourceFile> {
        let reactor = "fn new() -> LoopState {\n    let s = vec![0; 64];\n}\n\
                       fn on_readable(&mut self) {\n    self.s.read(&mut self.scratch);\n}\n";
        let coordinator = "fn wait(&mut self) {\n    c.read(&mut self.scratch);\n}\n\
                           fn probe() {\n    let b = [0u8; 8];\n}\n";
        vec![
            fake_file("crates/net/src/reactor.rs", reactor),
            fake_file("crates/net/src/coordinator.rs", coordinator),
        ]
    }

    #[test]
    fn read_scratch_passes_the_scratch_reading_fixture() {
        // The zeroed buffers in `new` and `probe` are off the read path.
        assert_eq!(read_scratch(&read_fixture()), vec![]);
    }

    #[test]
    fn read_scratch_flags_a_buffer_zeroed_per_read() {
        let mut files = read_fixture();
        files[0] = fake_file(
            "crates/net/src/reactor.rs",
            "fn on_readable(&mut self) {\n    let mut chunk = [0u8; 65536];\n}\n",
        );
        files[1] = fake_file(
            "crates/net/src/coordinator.rs",
            "fn wait(&mut self) {\n    let mut chunk = vec![0; 65536];\n}\n",
        );
        let findings = read_scratch(&files);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(
            (findings[0].path.as_str(), findings[0].line),
            ("crates/net/src/reactor.rs", 2)
        );
        assert!(findings[0]
            .message
            .contains("`[0u8;` on the read path (`fn on_readable`)"));
        assert_eq!(
            (findings[1].path.as_str(), findings[1].line),
            ("crates/net/src/coordinator.rs", 2)
        );
        assert_eq!(findings[1].rule, RULE_READ_SCRATCH);
    }

    #[test]
    fn read_scratch_reports_a_vanished_read_function() {
        let mut files = read_fixture();
        // A longer name that starts with the function's does not count.
        files[1] = fake_file("crates/net/src/coordinator.rs", "fn wait_for() {}\n");
        let findings = read_scratch(&files);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0]
            .message
            .contains("`fn wait` not found; update READ_PATH"));
    }

    #[test]
    fn contains_word_respects_boundaries() {
        assert!(contains_word("a Message::Ack b", "Message::Ack"));
        assert!(!contains_word("a Message::Acknowledge b", "Message::Ack"));
    }
}

//! An exhaustive, bounded model checker for the Coordinator ↔ RP node
//! dictation protocol.
//!
//! The abstract machine mirrors the semantics of `crates/net`'s one RP
//! message table (`reactor.rs`, `LoopState::dispatch`) and its
//! `coordinator.rs` at small scope — 2–4 RPs, 2–3 dictated revisions,
//! with message reordering always on and message drop/duplication
//! switchable:
//!
//! * the coordinator dictates revision `r+1` only once every RP has
//!   acknowledged revision `r` (the ack barrier, so at most two
//!   consecutive revisions are ever live);
//! * an RP applies a `Reconfigure` iff its revision is `>=` the table it
//!   runs ([`swap_table`], the exact rule `dispatch` uses — wholesale
//!   replace, never merge) and *always* acknowledges, so coordinator
//!   retries converge;
//! * an unfinished ack barrier may time out at any moment, **poisoning**
//!   the coordinator: no further dictation, ever.
//!
//! Scopes with a reconnect budget ([`ModelConfig::with_crash`]) add rung
//! 1 of the resilience ladder — modeled *before* it is built, so the
//! reconnect implementation has a verified shape to conform to:
//!
//! * the coordinator may **crash** at any moment, killing its sockets:
//!   coordinator-inbound messages in flight (`Ack`, `ResyncReply`) are
//!   lost, RP-inbound messages survive in kernel buffers, and RPs keep
//!   forwarding on their last-applied table;
//! * on **reconnect** the coordinator knows nothing: it queries every RP
//!   (`ResyncQuery`/`ResyncReply`) to rebuild its view of the fleet;
//! * once every RP has replied, the coordinator **re-dictates its
//!   current revision as a fresh ack barrier** rather than trusting the
//!   replies — a backlog `Reconfigure` delivered after a reply was sent
//!   would otherwise silently invalidate the view;
//! * the coordinator may not dictate while crashed or resyncing.
//!
//! Exploration is a breadth-first walk with exact state dedup (hashing
//! canonicalized states); every transition and every discovered state is
//! checked against the eight protocol invariants (five dictation, three
//! resync), and the first violation is reported as a shortest-path
//! counterexample trace. Each invariant has a seeded [`Mutation`] — a
//! deliberate bug in the abstract machine — whose detection proves the
//! checker can actually see that class of failure.

mod plans;

use std::collections::{HashMap, VecDeque};
use std::fmt;

pub use plans::{check_acyclic, check_quality, parent_of, rung_of, stream_origins};

/// The RP-side table application rule, shared verbatim between the
/// abstract model, the conformance proptest, and (semantically) the
/// RP's `Reconfigure` dispatch arm: a revision-tagged table replaces the
/// current one iff its revision is not older; stale tables are ignored.
/// Returns whether the table was applied. The caller acks **regardless** — re-acking a
/// stale revision is what lets coordinator retries converge.
///
/// ```
/// use teeve_check::model::swap_table;
/// let mut table = (3u64, "rev3");
/// assert!(swap_table(&mut table, 4, "rev4"));   // newer: applied
/// assert!(!swap_table(&mut table, 2, "rev2"));  // stale: ignored
/// assert!(swap_table(&mut table, 4, "rev4'")); // replay: re-applied
/// assert_eq!(table, (4, "rev4'"));
/// ```
pub fn swap_table<R: Ord, T>(current: &mut (R, T), revision: R, table: T) -> bool {
    if revision >= current.0 {
        *current = (revision, table);
        true
    } else {
        false
    }
}

/// A seeded invariant-breaking bug. [`Mutation::None`] is the faithful
/// machine; each other variant sabotages exactly one rule so the
/// corresponding invariant's self-test can prove the checker catches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The faithful abstract machine.
    None,
    /// RPs apply every `Reconfigure` unconditionally — a duplicated stale
    /// table rolls the revision back (breaks `revision-monotone`).
    RevisionRollback,
    /// RPs acknowledge one revision beyond the one delivered (breaks
    /// `ack-valid`).
    PhantomAck,
    /// The coordinator's timeout path dictates again instead of staying
    /// poisoned (breaks `poison-absorbing`).
    DictateAfterPoison,
    /// RPs re-encode frames at their planned rung, discarding the
    /// incoming tag (breaks `quality-monotone`).
    QualityUpgrade,
    /// The plan family reverses interior edges between consecutive
    /// revisions (breaks `acyclic-forwarding`).
    EdgeReversal,
    /// RPs stop forwarding the moment the coordinator connection dies,
    /// instead of serving their last-applied table through the outage
    /// (breaks `resync-continuity`).
    DisconnectWipe,
    /// The reconnected coordinator trusts its resync replies outright —
    /// no re-dictation barrier — so an in-flight pre-crash `Reconfigure`
    /// can invalidate its view after the reply was sent (breaks
    /// `resync-view`).
    ResyncSkip,
    /// The reconnected coordinator resumes from the *minimum* revision
    /// its resync replies report, rolling its dictation watermark back
    /// (breaks `reconnect-regression`).
    ReconnectRewind,
}

/// Every seeded mutation, in invariant order.
pub const MUTATIONS: &[Mutation] = &[
    Mutation::RevisionRollback,
    Mutation::PhantomAck,
    Mutation::DictateAfterPoison,
    Mutation::QualityUpgrade,
    Mutation::EdgeReversal,
    Mutation::DisconnectWipe,
    Mutation::ResyncSkip,
    Mutation::ReconnectRewind,
];

impl Mutation {
    /// The invariant this mutation is seeded to violate.
    pub fn target_invariant(self) -> &'static str {
        match self {
            Mutation::None => "(none)",
            Mutation::RevisionRollback => "revision-monotone",
            Mutation::PhantomAck => "ack-valid",
            Mutation::DictateAfterPoison => "poison-absorbing",
            Mutation::QualityUpgrade => "quality-monotone",
            Mutation::EdgeReversal => "acyclic-forwarding",
            Mutation::DisconnectWipe => "resync-continuity",
            Mutation::ResyncSkip => "resync-view",
            Mutation::ReconnectRewind => "reconnect-regression",
        }
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One bounded exploration scope.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Fleet size (2–4 keeps exhaustive exploration tractable).
    pub rps: usize,
    /// How many revisions the coordinator dictates beyond the initial
    /// revision 0 the fleet boots with.
    pub revisions: u8,
    /// Whether the network may silently drop a message.
    pub drops: bool,
    /// Whether the network may duplicate a message.
    pub duplicates: bool,
    /// Total duplication budget per run (bounds the state space).
    pub max_dups: u8,
    /// How many times the coordinator may crash and reconnect (0 keeps
    /// the legacy crash-free machine and its exact state space).
    pub reconnects: u8,
    /// Exploration safety valve; hitting it marks the report truncated.
    pub max_states: usize,
}

impl ModelConfig {
    /// A scope with reordering only (BFS interleaves all deliveries).
    pub fn new(rps: usize, revisions: u8) -> ModelConfig {
        ModelConfig {
            rps,
            revisions,
            drops: false,
            duplicates: false,
            max_dups: 2,
            reconnects: 0,
            max_states: 2_000_000,
        }
    }

    /// Enables message drops.
    pub fn with_drops(mut self) -> ModelConfig {
        self.drops = true;
        self
    }

    /// Enables message duplication (budget [`ModelConfig::max_dups`]).
    pub fn with_duplicates(mut self) -> ModelConfig {
        self.duplicates = true;
        self
    }

    /// Enables coordinator crash/reconnect with the given budget.
    pub fn with_crash(mut self, reconnects: u8) -> ModelConfig {
        self.reconnects = reconnects;
        self
    }

    /// A one-line description for progress output.
    pub fn describe(&self) -> String {
        let mut faults = Vec::new();
        if self.drops {
            faults.push("drop");
        }
        if self.duplicates {
            faults.push("dup");
        }
        if self.reconnects > 0 {
            faults.push("crash");
        }
        if faults.is_empty() {
            faults.push("reorder-only");
        }
        format!(
            "rps={} revisions={} faults={}",
            self.rps,
            self.revisions,
            faults.join("+")
        )
    }
}

/// A control-plane message in flight. The network is a multiset: any
/// in-flight message may be delivered next (reordering is implicit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Msg {
    /// Coordinator -> RP: install the table of `rev`.
    Reconfigure { dst: u8, rev: u8 },
    /// RP -> coordinator: `src` runs (at least) `rev`.
    Ack { src: u8, rev: u8 },
    /// Reconnected coordinator -> RP: report your applied revision.
    ResyncQuery { dst: u8 },
    /// RP -> coordinator: `src` currently runs `rev`.
    ResyncReply { src: u8, rev: u8 },
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Msg::Reconfigure { dst, rev } => write!(f, "Reconfigure(rev {rev}) to rp{dst}"),
            Msg::Ack { src, rev } => write!(f, "Ack(rev {rev}) from rp{src}"),
            Msg::ResyncQuery { dst } => write!(f, "ResyncQuery to rp{dst}"),
            Msg::ResyncReply { src, rev } => write!(f, "ResyncReply(rev {rev}) from rp{src}"),
        }
    }
}

/// One global state of the abstract machine. `net` is kept sorted so the
/// multiset has one canonical form and dedup is exact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    /// Per-RP applied table revision (the abstract forwarding table is a
    /// pure function of this — see [`plans`]).
    rp_rev: Vec<u8>,
    /// Per-RP highest `Reconfigure` revision ever delivered (what the RP
    /// may legitimately acknowledge).
    seen_max: Vec<u8>,
    /// Coordinator: which RPs acked the currently dictated revision.
    acked: Vec<bool>,
    /// Coordinator: highest revision dictated so far.
    dictated: u8,
    /// Coordinator: a failed ack barrier poisoned it.
    poisoned: bool,
    /// Count of dictations issued while poisoned (the `poison-absorbing`
    /// invariant says this stays 0).
    post_poison_dictations: u8,
    /// Duplication budget consumed.
    dups_used: u8,
    /// Coordinator connection is down (its sockets are dead).
    crashed: bool,
    /// The reconnected coordinator is still collecting resync replies.
    resyncing: bool,
    /// Coordinator's post-resync view of each RP's revision (`None`
    /// until that RP's reply arrives; updated by later acks).
    view: Vec<Option<u8>>,
    /// Crash/reconnect budget consumed.
    reconnects_used: u8,
    /// Per-RP data plane still forwarding (the `resync-continuity`
    /// invariant says this stays all-true through coordinator absence).
    serving: Vec<bool>,
    /// High-water mark of [`State::dictated`] (the
    /// `reconnect-regression` invariant says `dictated` never falls
    /// below it).
    max_dictated: u8,
    /// Messages in flight (sorted multiset).
    net: Vec<Msg>,
}

impl State {
    fn initial(cfg: &ModelConfig) -> State {
        State {
            rp_rev: vec![0; cfg.rps],
            seen_max: vec![0; cfg.rps],
            // Revision 0 is the connect barrier the fleet booted through.
            acked: vec![true; cfg.rps],
            dictated: 0,
            poisoned: false,
            post_poison_dictations: 0,
            dups_used: 0,
            crashed: false,
            resyncing: false,
            view: vec![None; cfg.rps],
            reconnects_used: 0,
            serving: vec![true; cfg.rps],
            max_dictated: 0,
            net: Vec::new(),
        }
    }

    fn normalize(&mut self) {
        self.net.sort_unstable();
    }

    fn remove(&mut self, msg: Msg) {
        if let Some(pos) = self.net.iter().position(|&m| m == msg) {
            self.net.remove(pos);
        }
    }

    fn all_acked(&self) -> bool {
        self.acked.iter().all(|&a| a)
    }

    fn summary(&self) -> String {
        let net: Vec<String> = self.net.iter().map(Msg::to_string).collect();
        let crash = if self.reconnects_used > 0 || self.crashed {
            let view: Vec<String> = self
                .view
                .iter()
                .map(|v| v.map_or("?".to_owned(), |r| r.to_string()))
                .collect();
            format!(
                ", crashed {}, resyncing {}, view [{}]",
                self.crashed,
                self.resyncing,
                view.join(", ")
            )
        } else {
            String::new()
        };
        format!(
            "rp revisions {:?}, dictated {}, acked {:?}, poisoned {}{crash}, in flight [{}]",
            self.rp_rev,
            self.dictated,
            self.acked,
            self.poisoned,
            net.join(", ")
        )
    }
}

/// An invariant violation, before trace reconstruction.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which of the eight invariants broke.
    pub invariant: &'static str,
    /// What exactly went wrong.
    pub detail: String,
}

/// A violation with the shortest action trace reaching it from the
/// initial state (BFS order makes it minimal in steps).
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Which invariant broke.
    pub invariant: &'static str,
    /// What exactly went wrong.
    pub detail: String,
    /// The actions from the initial state to the violation, in order.
    pub trace: Vec<String>,
    /// A dump of the violating state.
    pub state: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invariant violated: {} — {}",
            self.invariant, self.detail
        )?;
        writeln!(f, "counterexample trace ({} steps):", self.trace.len())?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:>2}. {step}", i + 1)?;
        }
        write!(f, "final state: {}", self.state)
    }
}

/// The result of exploring one [`ModelConfig`].
#[derive(Debug)]
pub struct ModelReport {
    /// Deduplicated states discovered.
    pub states: usize,
    /// Transitions taken (successor evaluations).
    pub transitions: u64,
    /// True when `max_states` stopped the walk early.
    pub truncated: bool,
    /// The first invariant violation, if any.
    pub violation: Option<Counterexample>,
}

struct Succ {
    action: String,
    state: State,
    violation: Option<Violation>,
}

fn successors(cfg: &ModelConfig, mutation: Mutation, s: &State) -> Vec<Succ> {
    let mut out = Vec::new();

    // Dictate the next revision once the previous barrier completed. The
    // DictateAfterPoison mutant treats a poisoned (abandoned) barrier as
    // license to continue — the exact bug poisoning exists to prevent.
    // A crashed or still-resyncing coordinator may not dictate at all.
    let next_rev = s.dictated + 1;
    if next_rev <= cfg.revisions && !s.crashed && !s.resyncing {
        let barrier_open = if mutation == Mutation::DictateAfterPoison {
            s.all_acked() || s.poisoned
        } else {
            s.all_acked() && !s.poisoned
        };
        if barrier_open {
            // After a reconnect the coordinator may only dictate on a
            // view that matches reality — the `resync-view` invariant.
            let view_violation = (s.reconnects_used > 0)
                .then(|| {
                    (0..cfg.rps).find_map(|i| {
                        (s.view[i] != Some(s.rp_rev[i])).then(|| Violation {
                            invariant: "resync-view",
                            detail: format!(
                                "coordinator dictated revision {next_rev} while its \
                                 post-resync view of rp{i} ({}) disagrees with the real \
                                 revision {}",
                                s.view[i].map_or("unknown".to_owned(), |v| v.to_string()),
                                s.rp_rev[i]
                            ),
                        })
                    })
                })
                .flatten();
            let mut n = s.clone();
            n.dictated = next_rev;
            n.max_dictated = n.max_dictated.max(next_rev);
            n.acked = vec![false; cfg.rps];
            for dst in 0..cfg.rps {
                n.net.push(Msg::Reconfigure {
                    dst: dst as u8,
                    rev: next_rev,
                });
            }
            if s.poisoned {
                n.post_poison_dictations += 1;
            }
            n.normalize();
            out.push(Succ {
                action: format!("Dictate revision {next_rev} (Reconfigure to every RP)"),
                state: n,
                violation: view_violation,
            });
        }
    }

    // An unfinished barrier may time out at any moment (timeouts race
    // with in-flight messages), poisoning the coordinator. No timeout
    // runs while the coordinator is down or mid-resync (the reconnect
    // path resets the barrier itself).
    if !s.poisoned && s.dictated > 0 && !s.all_acked() && !s.crashed && !s.resyncing {
        let mut n = s.clone();
        n.poisoned = true;
        out.push(Succ {
            action: "Poison (ack barrier timed out)".to_owned(),
            state: n,
            violation: None,
        });
    }

    // The coordinator connection may die at any moment (within budget).
    // Its sockets go with it: coordinator-inbound messages in flight are
    // lost; RP-inbound messages survive in the RPs' kernel buffers. The
    // DisconnectWipe mutant also stops the RP data planes — the exact
    // bug `resync-continuity` exists to catch.
    if !s.crashed && !s.poisoned && s.reconnects_used < cfg.reconnects {
        let mut n = s.clone();
        n.crashed = true;
        n.resyncing = false;
        n.reconnects_used += 1;
        n.net
            .retain(|m| matches!(m, Msg::Reconfigure { .. } | Msg::ResyncQuery { .. }));
        if mutation == Mutation::DisconnectWipe {
            n.serving = vec![false; cfg.rps];
        }
        out.push(Succ {
            action: "Crash (coordinator connection lost)".to_owned(),
            state: n,
            violation: None,
        });
    }

    // Reconnect: the coordinator remembers its dictation watermark but
    // knows nothing about the fleet — it opens a resync round, querying
    // every RP before it may dictate again.
    if s.crashed {
        let mut n = s.clone();
        n.crashed = false;
        n.resyncing = true;
        n.view = vec![None; cfg.rps];
        n.acked = vec![false; cfg.rps];
        for dst in 0..cfg.rps {
            n.net.push(Msg::ResyncQuery { dst: dst as u8 });
        }
        n.normalize();
        out.push(Succ {
            action: "Reconnect (resync queries to every RP)".to_owned(),
            state: n,
            violation: None,
        });
    }

    // Resync completes once every RP has replied. The faithful machine
    // re-dictates its current revision as a fresh ack barrier — a reply
    // only describes the RP at the moment it was sent, and a backlog
    // `Reconfigure` may land after it. The ResyncSkip mutant trusts the
    // replies outright; the ReconnectRewind mutant resumes from the
    // minimum replied revision, rolling the watermark back.
    if s.resyncing && s.view.iter().all(Option::is_some) {
        let mut n = s.clone();
        n.resyncing = false;
        match mutation {
            Mutation::ResyncSkip => {
                n.acked = vec![true; cfg.rps];
                out.push(Succ {
                    action: "Resync complete (trust replies, no re-dictation)".to_owned(),
                    state: n,
                    violation: None,
                });
            }
            Mutation::ReconnectRewind => {
                let floor = n.view.iter().map(|v| v.unwrap_or(0)).min().unwrap_or(0);
                n.dictated = floor;
                n.acked = vec![false; cfg.rps];
                for dst in 0..cfg.rps {
                    n.net.push(Msg::Reconfigure {
                        dst: dst as u8,
                        rev: floor,
                    });
                }
                n.normalize();
                out.push(Succ {
                    action: format!("Resync complete (rewind to revision {floor})"),
                    state: n,
                    violation: None,
                });
            }
            _ => {
                let rev = n.dictated;
                n.acked = vec![false; cfg.rps];
                for dst in 0..cfg.rps {
                    n.net.push(Msg::Reconfigure {
                        dst: dst as u8,
                        rev,
                    });
                }
                n.normalize();
                out.push(Succ {
                    action: format!("Resync complete (re-dictate revision {rev} as the barrier)"),
                    state: n,
                    violation: None,
                });
            }
        }
    }

    // Deliver / drop / duplicate each distinct in-flight message.
    let mut seen = Vec::new();
    for &msg in &s.net {
        if seen.contains(&msg) {
            continue;
        }
        seen.push(msg);

        match msg {
            Msg::Reconfigure { dst, rev } => {
                let d = dst as usize;
                let mut n = s.clone();
                n.remove(msg);
                n.seen_max[d] = n.seen_max[d].max(rev);
                let before = n.rp_rev[d];
                let applied = if mutation == Mutation::RevisionRollback {
                    n.rp_rev[d] = rev; // unconditional apply: the seeded bug
                    true
                } else {
                    let mut table = (n.rp_rev[d], ());
                    let applied = swap_table(&mut table, rev, ());
                    n.rp_rev[d] = table.0;
                    applied
                };
                let ack_rev = if mutation == Mutation::PhantomAck {
                    rev + 1 // acknowledge a revision never delivered
                } else {
                    rev
                };
                // The ack rides the coordinator connection — while the
                // coordinator is down there is nowhere to send it. The
                // post-resync re-dictation barrier recovers the loss.
                if !s.crashed {
                    n.net.push(Msg::Ack {
                        src: dst,
                        rev: ack_rev,
                    });
                }
                n.normalize();
                let violation = (n.rp_rev[d] < before).then(|| Violation {
                    invariant: "revision-monotone",
                    detail: format!("rp{d} applied revision {rev} over newer revision {before}"),
                });
                out.push(Succ {
                    action: format!(
                        "Deliver {msg} ({})",
                        if applied {
                            "applied"
                        } else {
                            "stale, re-acked"
                        }
                    ),
                    state: n,
                    violation,
                });
            }
            Msg::Ack { src, rev } => {
                let r = src as usize;
                let mut n = s.clone();
                n.remove(msg);
                let violation = (rev > s.dictated || rev > s.seen_max[r]).then(|| Violation {
                    invariant: "ack-valid",
                    detail: format!(
                        "coordinator received Ack(rev {rev}) from rp{r}, which was never \
                         delivered that revision (dictated {}, rp{r} saw up to {})",
                        s.dictated, s.seen_max[r]
                    ),
                });
                if rev == n.dictated {
                    n.acked[r] = true;
                }
                // An ack also refreshes the post-resync view: the RP
                // provably runs (at least) `rev` now.
                if let Some(v) = n.view[r] {
                    n.view[r] = Some(v.max(rev));
                }
                out.push(Succ {
                    action: format!("Deliver {msg}"),
                    state: n,
                    violation,
                });
            }
            Msg::ResyncQuery { dst } => {
                let d = dst as usize;
                let mut n = s.clone();
                n.remove(msg);
                // The RP answers with its applied revision; if the
                // coordinator crashed again meanwhile, the reply has
                // nowhere to go.
                if !s.crashed {
                    n.net.push(Msg::ResyncReply {
                        src: dst,
                        rev: s.rp_rev[d],
                    });
                }
                n.normalize();
                out.push(Succ {
                    action: format!("Deliver {msg}"),
                    state: n,
                    violation: None,
                });
            }
            Msg::ResyncReply { src, rev } => {
                let r = src as usize;
                let mut n = s.clone();
                n.remove(msg);
                // Replies only matter mid-resync; a straggler from an
                // aborted round is ignored.
                if s.resyncing {
                    n.view[r] = Some(n.view[r].unwrap_or(0).max(rev));
                }
                out.push(Succ {
                    action: format!("Deliver {msg}"),
                    state: n,
                    violation: None,
                });
            }
        }

        if cfg.drops {
            let mut n = s.clone();
            n.remove(msg);
            out.push(Succ {
                action: format!("Drop {msg}"),
                state: n,
                violation: None,
            });
        }
        if cfg.duplicates && s.dups_used < cfg.max_dups {
            let mut n = s.clone();
            n.net.push(msg);
            n.dups_used += 1;
            n.normalize();
            out.push(Succ {
                action: format!("Duplicate {msg}"),
                state: n,
                violation: None,
            });
        }
    }

    out
}

/// Checks the state-shape invariants (poison absorption, the two resync
/// invariants, and the two table invariants over the mixed-revision
/// forwarding graph).
fn state_violation(mutation: Mutation, s: &State) -> Option<Violation> {
    if s.post_poison_dictations > 0 {
        return Some(Violation {
            invariant: "poison-absorbing",
            detail: format!(
                "coordinator dictated {} time(s) after poisoning",
                s.post_poison_dictations
            ),
        });
    }
    if let Some(i) = s.serving.iter().position(|&sv| !sv) {
        return Some(Violation {
            invariant: "resync-continuity",
            detail: format!(
                "rp{i} stopped forwarding during coordinator absence instead of serving \
                 its last-applied table"
            ),
        });
    }
    if s.dictated < s.max_dictated {
        return Some(Violation {
            invariant: "reconnect-regression",
            detail: format!(
                "coordinator's dictation watermark regressed from {} to {} across reconnect",
                s.max_dictated, s.dictated
            ),
        });
    }
    check_acyclic(mutation, &s.rp_rev).or_else(|| check_quality(mutation, &s.rp_rev))
}

fn trace_to(parents: &[Option<(usize, String)>], leaf: usize) -> Vec<String> {
    let mut trace = Vec::new();
    let mut at = leaf;
    while let Some((parent, action)) = &parents[at] {
        trace.push(action.clone());
        at = *parent;
    }
    trace.reverse();
    trace
}

/// Exhaustively explores `cfg` under `mutation` (use [`Mutation::None`]
/// for the faithful machine), returning state/transition counts and the
/// first invariant violation as a shortest counterexample trace.
pub fn explore(cfg: &ModelConfig, mutation: Mutation) -> ModelReport {
    let init = State::initial(cfg);
    let mut report = ModelReport {
        states: 0,
        transitions: 0,
        truncated: false,
        violation: None,
    };

    if let Some(v) = state_violation(mutation, &init) {
        report.states = 1;
        report.violation = Some(Counterexample {
            invariant: v.invariant,
            detail: v.detail,
            trace: vec!["(initial state)".to_owned()],
            state: init.summary(),
        });
        return report;
    }

    let mut ids: HashMap<State, usize> = HashMap::new();
    let mut arena: Vec<State> = Vec::new();
    let mut parents: Vec<Option<(usize, String)>> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    ids.insert(init.clone(), 0);
    arena.push(init);
    parents.push(None);
    queue.push_back(0);

    'walk: while let Some(id) = queue.pop_front() {
        let state = arena[id].clone();
        for succ in successors(cfg, mutation, &state) {
            report.transitions += 1;
            let violation = succ
                .violation
                .or_else(|| state_violation(mutation, &succ.state));
            if let Some(v) = violation {
                let mut trace = trace_to(&parents, id);
                trace.push(succ.action);
                report.states = arena.len();
                report.violation = Some(Counterexample {
                    invariant: v.invariant,
                    detail: v.detail,
                    trace,
                    state: succ.state.summary(),
                });
                return report;
            }
            if !ids.contains_key(&succ.state) {
                let nid = arena.len();
                ids.insert(succ.state.clone(), nid);
                arena.push(succ.state);
                parents.push(Some((id, succ.action)));
                queue.push_back(nid);
                if arena.len() >= cfg.max_states {
                    report.truncated = true;
                    break 'walk;
                }
            }
        }
    }

    report.states = arena.len();
    report
}

/// The bounded scopes the CI gate sweeps with the faithful machine: all
/// fleet sizes, both revision depths, and every fault combination that
/// stays tractable at that scope.
pub fn default_sweep() -> Vec<ModelConfig> {
    vec![
        ModelConfig::new(2, 2),
        ModelConfig::new(2, 2).with_drops(),
        ModelConfig::new(2, 2).with_duplicates(),
        ModelConfig::new(2, 2).with_drops().with_duplicates(),
        ModelConfig::new(2, 3),
        ModelConfig::new(2, 3).with_drops().with_duplicates(),
        ModelConfig::new(3, 2),
        ModelConfig::new(3, 2).with_drops(),
        ModelConfig::new(3, 2).with_duplicates(),
        ModelConfig::new(3, 3),
        ModelConfig::new(3, 3).with_drops(),
        ModelConfig::new(4, 2),
        ModelConfig::new(4, 2).with_drops(),
        ModelConfig::new(4, 3),
        // Rung 1 of the resilience ladder: coordinator crash/reconnect.
        ModelConfig::new(2, 2).with_crash(1),
        ModelConfig::new(2, 2).with_crash(1).with_drops(),
        ModelConfig::new(2, 2).with_crash(1).with_duplicates(),
        ModelConfig::new(3, 2).with_crash(1),
        ModelConfig::new(2, 3).with_crash(1),
    ]
}

/// The smallest scope on which each seeded mutation's bug is reachable
/// (the self-test explores this scope and must find a violation).
pub fn mutation_scope(mutation: Mutation) -> ModelConfig {
    match mutation {
        Mutation::None => ModelConfig::new(2, 2),
        // A stale Reconfigure can only outlive its barrier as a duplicate.
        Mutation::RevisionRollback => ModelConfig::new(2, 2).with_duplicates(),
        Mutation::PhantomAck => ModelConfig::new(2, 2),
        Mutation::DictateAfterPoison => ModelConfig::new(2, 2),
        // Needs a chain deep enough for an effective rung above the
        // star's planned leaf rung.
        Mutation::QualityUpgrade => ModelConfig::new(4, 2),
        // Needs an interior (non-origin) edge pair to reverse.
        Mutation::EdgeReversal => ModelConfig::new(3, 2),
        // Caught at the crash transition itself.
        Mutation::DisconnectWipe => ModelConfig::new(2, 2).with_crash(1),
        // Needs the backlog race: a pre-crash Reconfigure delivered
        // after that RP's resync reply was sent.
        Mutation::ResyncSkip => ModelConfig::new(2, 2).with_crash(1),
        // Needs one completed barrier before the crash so the replies
        // can sit below the watermark.
        Mutation::ReconnectRewind => ModelConfig::new(2, 2).with_crash(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_table_is_the_node_apply_rule() {
        let mut table = (0u64, 'a');
        assert!(swap_table(&mut table, 1, 'b'));
        assert!(swap_table(&mut table, 1, 'c')); // same revision: replayed
        assert!(!swap_table(&mut table, 0, 'd')); // stale: ignored
        assert_eq!(table, (1, 'c'));
    }

    #[test]
    fn healthy_machine_holds_all_invariants_at_small_scope() {
        for cfg in [
            ModelConfig::new(2, 2).with_drops().with_duplicates(),
            ModelConfig::new(3, 2).with_duplicates(),
        ] {
            let report = explore(&cfg, Mutation::None);
            assert!(report.violation.is_none(), "{:?}", report.violation);
            assert!(!report.truncated);
            assert!(report.states > 100, "suspiciously few states explored");
        }
    }

    #[test]
    fn every_seeded_mutation_is_caught_with_a_trace() {
        for &mutation in MUTATIONS {
            let report = explore(&mutation_scope(mutation), mutation);
            let cex = report
                .violation
                .unwrap_or_else(|| panic!("{mutation} was not detected"));
            assert_eq!(cex.invariant, mutation.target_invariant(), "{mutation}");
            assert!(!cex.trace.is_empty(), "{mutation} trace is empty");
        }
    }

    #[test]
    fn poisoning_is_reachable_and_absorbing_in_the_healthy_machine() {
        // With drops on, some ack never arrives and poisoning triggers;
        // the healthy machine must still satisfy poison-absorption.
        let report = explore(&ModelConfig::new(2, 2).with_drops(), Mutation::None);
        assert!(report.violation.is_none());
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = ModelConfig::new(3, 2).with_drops();
        let a = explore(&cfg, Mutation::None);
        let b = explore(&cfg, Mutation::None);
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn crash_scopes_hold_all_invariants_and_enlarge_the_space() {
        let plain = explore(&ModelConfig::new(2, 2), Mutation::None);
        for cfg in [
            ModelConfig::new(2, 2).with_crash(1),
            ModelConfig::new(2, 2).with_crash(1).with_drops(),
            ModelConfig::new(2, 2).with_crash(1).with_duplicates(),
        ] {
            let report = explore(&cfg, Mutation::None);
            assert!(report.violation.is_none(), "{:?}", report.violation);
            assert!(!report.truncated);
            assert!(
                report.states > plain.states,
                "crash scope explored no new states ({} vs {})",
                report.states,
                plain.states
            );
        }
    }

    #[test]
    fn crash_free_scopes_keep_the_legacy_state_space() {
        // The new fields are constant when reconnects = 0, so legacy
        // scopes must dedup to exactly the same state count as a machine
        // that never heard of crashes.
        let report = explore(&ModelConfig::new(2, 2).with_drops(), Mutation::None);
        let again = explore(
            &ModelConfig::new(2, 2).with_drops().with_crash(0),
            Mutation::None,
        );
        assert_eq!(report.states, again.states);
    }

    /// Drives one action by unique prefix, asserting it exists and
    /// carries no violation.
    fn step(cfg: &ModelConfig, s: &State, prefix: &str) -> State {
        let succ = successors(cfg, Mutation::None, s)
            .into_iter()
            .find(|x| x.action.starts_with(prefix))
            .unwrap_or_else(|| panic!("no successor action starts with `{prefix}`"));
        assert!(succ.violation.is_none(), "{:?}", succ.violation);
        assert!(
            state_violation(Mutation::None, &succ.state).is_none(),
            "state violation after `{prefix}`"
        );
        succ.state
    }

    #[test]
    fn the_healthy_crash_reconnect_resync_path_reaches_the_next_dictation() {
        let cfg = ModelConfig::new(2, 2).with_crash(1);
        let mut s = State::initial(&cfg);
        for prefix in [
            "Dictate revision 1",
            "Deliver Reconfigure(rev 1) to rp0",
            "Deliver Reconfigure(rev 1) to rp1",
            "Deliver Ack(rev 1) from rp0",
            "Deliver Ack(rev 1) from rp1",
            "Crash",
        ] {
            s = step(&cfg, &s, prefix);
        }
        assert!(s.crashed);
        // A crashed coordinator neither dictates nor times out barriers.
        for succ in successors(&cfg, Mutation::None, &s) {
            assert!(
                !succ.action.starts_with("Dictate") && !succ.action.starts_with("Poison"),
                "crashed coordinator acted: {}",
                succ.action
            );
        }
        s = step(&cfg, &s, "Reconnect");
        assert!(s.resyncing);
        assert_eq!(s.view, vec![None, None]);
        for prefix in [
            "Deliver ResyncQuery to rp0",
            "Deliver ResyncQuery to rp1",
            "Deliver ResyncReply(rev 1) from rp0",
            "Deliver ResyncReply(rev 1) from rp1",
        ] {
            s = step(&cfg, &s, prefix);
        }
        assert_eq!(s.view, vec![Some(1), Some(1)]);
        s = step(&cfg, &s, "Resync complete (re-dictate revision 1");
        assert!(!s.resyncing);
        assert_eq!(s.acked, vec![false, false]);
        for prefix in [
            "Deliver Reconfigure(rev 1) to rp0",
            "Deliver Ack(rev 1) from rp0",
            "Deliver Reconfigure(rev 1) to rp1",
            "Deliver Ack(rev 1) from rp1",
        ] {
            s = step(&cfg, &s, prefix);
        }
        // The re-dictation barrier completed on a matching view — the
        // coordinator may move the protocol forward again.
        let s = step(&cfg, &s, "Dictate revision 2");
        assert_eq!(s.dictated, 2);
        assert_eq!(s.max_dictated, 2);
    }

    #[test]
    fn rps_apply_but_do_not_ack_while_the_coordinator_is_down() {
        let cfg = ModelConfig::new(2, 2).with_crash(1);
        let mut s = State::initial(&cfg);
        s = step(&cfg, &s, "Dictate revision 1");
        s = step(&cfg, &s, "Crash");
        // Both Reconfigures survived the crash (RP-inbound), acks died.
        assert_eq!(s.net.len(), 2);
        s = step(&cfg, &s, "Deliver Reconfigure(rev 1) to rp0");
        assert_eq!(s.rp_rev[0], 1, "backlog Reconfigure must still apply");
        assert!(
            !s.net.iter().any(|m| matches!(m, Msg::Ack { .. })),
            "an ack was sent into a dead connection"
        );
    }
}

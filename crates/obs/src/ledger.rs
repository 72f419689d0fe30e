//! Privacy-budget audit ledger.
//!
//! `stpt-dp`'s `BudgetAccountant` records one [`LedgerEntry`] per spend
//! and, when a run finishes, replays the ledger to verify it telescopes to
//! the configured total ε (the runtime form of the sequential/parallel
//! composition theorems). The accountant owns the ledger; this module only
//! *publishes* the final ledger plus its [`LedgerCheck`] so telemetry
//! exports can carry the verified composition argument.
//!
//! Publication is gated by the global trace switch like everything
//! else in this crate — but the *recording and checking* in `stpt-dp` is
//! always on: the ledger is a privacy invariant, not a debugging aid.

use std::sync::{Mutex, MutexGuard, OnceLock};

/// Which composition theorem a spend was accounted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Composition {
    /// Sequential composition (Thm. 1): ε adds across phases.
    Sequential,
    /// Parallel composition (Thm. 2): ε is the max across disjoint
    /// siblings within a phase.
    Parallel,
}

impl Composition {
    /// Stable lowercase label for export.
    pub fn label(self) -> &'static str {
        match self {
            Composition::Sequential => "sequential",
            Composition::Parallel => "parallel",
        }
    }
}

/// One recorded budget spend.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Phase label (the accountant key), e.g. `"pattern-t12"` or
    /// `"sanitize"`.
    pub phase: String,
    /// Disjoint-sibling label for parallel spends (`None` for sequential).
    pub sibling: Option<String>,
    /// Mechanism that consumed the budget, e.g. `"laplace"`.
    pub mechanism: &'static str,
    /// Privacy parameter ε of this spend.
    pub epsilon: f64,
    /// L1 sensitivity the mechanism was calibrated against.
    pub sensitivity: f64,
    /// Composition kind the spend was accounted under.
    pub kind: Composition,
}

/// Evidence that one post-processing stage spent no budget (the runtime
/// form of the post-processing theorem, Thm. 3). The accountant records a
/// proof per stage by bracketing it with ledger-length tokens; the audit
/// replays each window and fails closed unless it is empty.
#[derive(Debug, Clone)]
pub struct PostProcessProof {
    /// Stage label, e.g. `"consistency"`.
    pub stage: String,
    /// Sum of ε across spends recorded while the stage was open. Must be
    /// exactly `0.0` for the audit to pass.
    pub epsilon: f64,
    /// Number of ledger entries recorded while the stage was open. Must
    /// be `0` for the audit to pass.
    pub spends_during: usize,
    /// Ledger length when the stage opened (the start of the replay
    /// window).
    pub ledger_at: usize,
}

/// Result of replaying a ledger against the accountant's live state.
#[derive(Debug, Clone, Copy)]
pub struct LedgerCheck {
    /// Configured total budget ε the run was expected to consume.
    pub total: f64,
    /// ε obtained by replaying the ledger through the composition rules.
    pub replayed: f64,
    /// ε the live accountant reports as spent.
    pub spent: f64,
    /// Number of ledger entries replayed.
    pub entries: usize,
    /// Number of post-processing stages whose ε-freeness proofs the audit
    /// replayed (all must be empty windows for `consistent` to hold).
    pub postprocess_stages: usize,
    /// Whether the replay matched the live accountant bit-exactly and the
    /// total within tolerance.
    pub consistent: bool,
    /// Verdict of the statistical noise self-check (empirical draw moments
    /// and KS distance vs. the calibrated Laplace per ledger scale).
    /// `Unchecked` unless debug tracing recorded enough draws.
    pub noise: crate::NoiseStatus,
}

/// Deterministically merged state over every publication of the process
/// (one per run/repetition). A bench bin audits once per repetition; under
/// parallel repetitions "last publication wins" would make the exported
/// ledger depend on thread scheduling. Instead the slot keeps the
/// *canonical* run — the minimum under a total order on bit-level content
/// ([`run_order`]) — plus the AND of every run's `consistent` verdict, so
/// the snapshot is identical at any `STPT_THREADS`.
struct Published {
    /// Entries + proofs + check of the canonical (order-minimal) run.
    canonical: Option<PublishedRun>,
    /// AND of every published check's `consistent` flag.
    all_consistent: bool,
    /// Number of publications merged since the last [`reset`].
    runs: usize,
}

static PUBLISHED: OnceLock<Mutex<Published>> = OnceLock::new();

fn slot() -> MutexGuard<'static, Published> {
    PUBLISHED
        .get_or_init(|| {
            Mutex::new(Published {
                canonical: None,
                all_consistent: true,
                runs: 0,
            })
        })
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One published run: its ledger, its post-processing proofs, and the
/// audit verdict.
pub type PublishedRun = (Vec<LedgerEntry>, Vec<PostProcessProof>, LedgerCheck);

/// Bit-level content key of one entry, for the canonical-run total order.
fn entry_key(e: &LedgerEntry) -> (&str, Option<&str>, &str, u64, u64, &'static str) {
    (
        e.phase.as_str(),
        e.sibling.as_deref(),
        e.mechanism,
        e.epsilon.to_bits(),
        e.sensitivity.to_bits(),
        e.kind.label(),
    )
}

/// Bit-level content key of one post-processing proof.
fn proof_key(p: &PostProcessProof) -> (&str, u64, usize, usize) {
    (
        p.stage.as_str(),
        p.epsilon.to_bits(),
        p.spends_during,
        p.ledger_at,
    )
}

/// Total order on published runs by content, never by publication time:
/// scalar check fields first (cheap), then the entry and proof lists
/// lexicographically. Using `to_bits` keeps the order total (no NaN holes)
/// and exact.
fn run_order(a: &PublishedRun, b: &PublishedRun) -> std::cmp::Ordering {
    let scalar = |(entries, proofs, check): &PublishedRun| {
        (
            entries.len(),
            proofs.len(),
            check.total.to_bits(),
            check.replayed.to_bits(),
            check.spent.to_bits(),
        )
    };
    scalar(a)
        .cmp(&scalar(b))
        .then_with(|| a.0.iter().map(entry_key).cmp(b.0.iter().map(entry_key)))
        .then_with(|| a.1.iter().map(proof_key).cmp(b.1.iter().map(proof_key)))
}

/// Publish a run's finished ledger and its audit verdict for export.
/// No-op when the gate is off. Publications merge deterministically: the
/// snapshot keeps the content-minimal run and ANDs all `consistent` flags,
/// so concurrent runs yield the same export regardless of arrival order.
pub fn publish_ledger(
    entries: Vec<LedgerEntry>,
    proofs: Vec<PostProcessProof>,
    check: LedgerCheck,
) {
    if !crate::enabled() {
        return;
    }
    let mut slot = slot();
    slot.runs += 1;
    slot.all_consistent &= check.consistent;
    let candidate = (entries, proofs, check);
    let replace = match &slot.canonical {
        None => true,
        Some(current) => run_order(&candidate, current) == std::cmp::Ordering::Less,
    };
    if replace {
        slot.canonical = Some(candidate);
    }
}

/// The canonical published ledger, if any. The returned check carries the
/// merged verdict: `consistent` is true only if *every* published run was.
pub fn ledger_snapshot() -> Option<PublishedRun> {
    let slot = slot();
    slot.canonical.as_ref().map(|(entries, proofs, check)| {
        (
            entries.clone(),
            proofs.clone(),
            LedgerCheck {
                consistent: slot.all_consistent,
                ..*check
            },
        )
    })
}

/// Number of publications merged since the last [`reset`].
pub fn published_runs() -> usize {
    slot().runs
}

/// Drop any published ledger and reset the merge state.
pub fn reset() {
    let mut slot = slot();
    slot.canonical = None;
    slot.all_consistent = true;
    slot.runs = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(phase: &str, eps: f64) -> LedgerEntry {
        LedgerEntry {
            phase: phase.to_owned(),
            sibling: None,
            mechanism: "laplace",
            epsilon: eps,
            sensitivity: 1.0,
            kind: Composition::Sequential,
        }
    }

    #[test]
    fn publish_respects_gate_and_snapshot_round_trips() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        reset();
        publish_ledger(
            vec![entry("ghost", 1.0)],
            Vec::new(),
            LedgerCheck {
                total: 1.0,
                replayed: 1.0,
                spent: 1.0,
                entries: 1,
                postprocess_stages: 0,
                consistent: true,
                noise: crate::NoiseStatus::Unchecked,
            },
        );
        assert!(ledger_snapshot().is_none());

        crate::set_enabled(true);
        publish_ledger(
            vec![entry("pattern", 0.5), entry("sanitize", 0.5)],
            vec![PostProcessProof {
                stage: "consistency".to_owned(),
                epsilon: 0.0,
                spends_during: 0,
                ledger_at: 2,
            }],
            LedgerCheck {
                total: 1.0,
                replayed: 1.0,
                spent: 1.0,
                entries: 2,
                postprocess_stages: 1,
                consistent: true,
                noise: crate::NoiseStatus::Unchecked,
            },
        );
        crate::set_enabled(false);
        let (entries, proofs, check) = ledger_snapshot().expect("published");
        assert_eq!(entries.len(), 2);
        assert!(check.consistent);
        assert_eq!(check.entries, 2);
        assert_eq!(check.postprocess_stages, 1);
        assert_eq!(proofs.len(), 1);
        assert_eq!(proofs[0].stage, "consistency");
        assert_eq!(proofs[0].spends_during, 0);
        reset();
        assert!(ledger_snapshot().is_none());
    }

    #[test]
    fn merge_is_publication_order_independent_and_ands_consistency() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        let check = |eps: f64, ok: bool| LedgerCheck {
            total: eps,
            replayed: eps,
            spent: eps,
            entries: 1,
            postprocess_stages: 0,
            consistent: ok,
            noise: crate::NoiseStatus::Unchecked,
        };
        let a = (vec![entry("alpha", 0.25)], check(0.25, true));
        let b = (vec![entry("beta", 0.5)], check(0.5, false));

        reset();
        publish_ledger(a.0.clone(), Vec::new(), a.1);
        publish_ledger(b.0.clone(), Vec::new(), b.1);
        assert_eq!(published_runs(), 2);
        let forward = ledger_snapshot().expect("published");

        reset();
        publish_ledger(b.0.clone(), Vec::new(), b.1);
        publish_ledger(a.0.clone(), Vec::new(), a.1);
        let reversed = ledger_snapshot().expect("published");
        crate::set_enabled(false);
        reset();

        // Same canonical run either way, and one bad run poisons the
        // merged verdict.
        assert_eq!(forward.0[0].phase, reversed.0[0].phase);
        assert_eq!(forward.2.total.to_bits(), reversed.2.total.to_bits());
        assert!(!forward.2.consistent);
        assert!(!reversed.2.consistent);
    }
}

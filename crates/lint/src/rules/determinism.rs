//! Rule `determinism`: no unordered collections or ambient
//! nondeterminism in code that can reach bytes which get digested,
//! journaled, stored, or sent.
//!
//! The repro's core guarantee is that serial, pooled, and distributed
//! runs of any scenario are *bit*-identical, and that content digests
//! key a persistent cross-campaign store. One `HashMap` iteration
//! feeding a digest, one `SystemTime` stamp inside a journaled record,
//! or one thread-id-seeded value in a wire payload silently breaks
//! every one of those properties. Inside the declared deterministic
//! zones this rule flags *any* use of the forbidden identifiers —
//! imports included — so the hazard is visible at the point where it
//! becomes reachable, not only where it is misused. Legitimate uses
//! (perf timing, eviction stamps) go through the allowlist, which
//! requires a written reason.

use crate::model::FileModel;
use crate::Finding;

/// Identifiers forbidden inside deterministic zones, each with the
/// invariant it would break.
const FORBIDDEN: &[(&str, &str)] = &[
    (
        "HashMap",
        "iteration order is randomized per process; use BTreeMap or sort before bytes leave",
    ),
    (
        "HashSet",
        "iteration order is randomized per process; use BTreeSet or sort before bytes leave",
    ),
    (
        "RandomState",
        "per-process random hasher seeds; deterministic zones must not observe them",
    ),
    (
        "SystemTime",
        "wall-clock values differ per run; they must never reach digested/journaled bytes",
    ),
    (
        "Instant",
        "monotonic-clock values differ per run; they must never reach digested/journaled bytes",
    ),
    (
        "thread_rng",
        "ambient randomness; deterministic zones derive everything from explicit seeds",
    ),
    (
        "ThreadId",
        "thread identity varies with scheduling; results must not depend on it",
    ),
];

/// Scans one in-zone file for forbidden identifiers (non-test code
/// only).
pub fn check(model: &FileModel, out: &mut Vec<Finding>) {
    for (i, tok) in model.tokens.iter().enumerate() {
        if model.in_tests(i) {
            continue;
        }
        if let Some((name, why)) = FORBIDDEN.iter().find(|(name, _)| tok.is_ident(name)) {
            out.push(Finding {
                rule: "determinism",
                file: model.rel.clone(),
                line: tok.line,
                token: (*name).to_string(),
                message: format!("`{name}` in a deterministic zone: {why}"),
            });
        }
    }
}

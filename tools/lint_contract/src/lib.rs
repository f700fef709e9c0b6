//! One violation per rule of the determinism contract (DESIGN.md,
//! "Determinism contract"), each under an `#[expect]` of the lint that
//! rejects it in the workspace — see `Cargo.toml` for the two commands
//! that check them. [`clean`] uses every sanctioned alternative and
//! must draw no diagnostic at all.

// The root `[workspace.lints]` entry the contract leans on, then
// `pf_sim`'s crate-level policy (crates/sim/src/lib.rs), verbatim.
#![deny(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

use std::collections::BTreeMap;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// No false positive: ordered maps, a seeded generator, assert-stated
/// invariants and a propagated error are the contract's own idiom.
pub fn clean(xs: &[u32], seed: u64) -> Result<u32, String> {
    let mut tally: BTreeMap<u32, u32> = BTreeMap::new();
    for &x in xs {
        *tally.entry(x).or_insert(0) += 1;
    }
    assert!(tally.len() <= xs.len(), "a tally never outgrows its input");
    let first = xs.first().ok_or("empty input")?;
    Ok(first + StdRng::seed_from_u64(seed).gen_range(0..4u32))
}

/// wall-clock-ban: host time outside the bench harness.
pub fn timed() -> u128 {
    #[expect(clippy::disallowed_types, reason = "fixture: wall-clock-ban")]
    let t0 = std::time::Instant::now();
    #[expect(clippy::disallowed_types, reason = "fixture: wall-clock-ban")]
    let epoch = std::time::SystemTime::UNIX_EPOCH;
    t0.elapsed().as_nanos() + epoch.elapsed().map_or(0, |d| d.as_nanos())
}

/// ordered-iteration: hash collections — in tests too, which the
/// retired analyzer exempted.
pub fn tally(xs: &[u32]) -> usize {
    #[expect(clippy::disallowed_types, reason = "fixture: ordered-iteration")]
    let mut m = std::collections::HashMap::new();
    #[expect(clippy::disallowed_types, reason = "fixture: ordered-iteration")]
    let mut s = std::collections::HashSet::new();
    for &x in xs {
        *m.entry(x).or_insert(0u32) += 1;
        s.insert(x);
    }
    m.len() + s.len()
}

/// rng-discipline: process-entropy hasher keys. The entropy
/// *constructors* are not lint violations but compile errors — the
/// vendored `rand` has only seeded construction:
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// let _seeded = StdRng::seed_from_u64(1);
/// ```
/// ```compile_fail,E0432
/// use rand::thread_rng;
/// ```
/// ```compile_fail,E0599
/// use rand::{rngs::StdRng, SeedableRng};
/// let _r = StdRng::from_entropy();
/// ```
pub fn entropy_keyed(x: u32) -> u64 {
    use std::hash::{BuildHasher, Hasher};
    #[expect(clippy::disallowed_types, reason = "fixture: rng-discipline")]
    let keys = std::hash::RandomState::new();
    #[expect(clippy::disallowed_types, reason = "fixture: rng-discipline")]
    let mut h = std::hash::DefaultHasher::new();
    h.write_u32(x);
    keys.hash_one(x) ^ h.finish()
}

/// unsafe-ban.
pub fn peek(v: &[u32]) -> u32 {
    assert!(!v.is_empty());
    #[expect(unsafe_code, reason = "fixture: unsafe-ban")]
    // SAFETY: `v` is non-empty, asserted above.
    unsafe {
        *v.get_unchecked(0)
    }
}

/// panic-discipline: every member of the family, and — unlike the
/// retired analyzer — inside an assert's arguments too.
pub fn pick(v: &[u32]) -> u32 {
    #[expect(clippy::unwrap_used, reason = "fixture: panic-discipline")]
    let x = *v.first().unwrap();
    #[expect(clippy::expect_used, reason = "fixture: panic-discipline")]
    let last = *v.last().expect("fixture: nonempty");
    #[expect(clippy::unwrap_used, reason = "fixture: panic-discipline")]
    {
        debug_assert_eq!(v.iter().copied().min().unwrap(), x);
    }
    match x {
        #[expect(clippy::panic, reason = "fixture: panic-discipline")]
        7 => panic!("lucky sevens"),
        #[expect(clippy::unreachable, reason = "fixture: panic-discipline")]
        8 => unreachable!("fixture"),
        #[expect(clippy::unimplemented, reason = "fixture: panic-discipline")]
        9 => unimplemented!("fixture"),
        _ => x + last,
    }
}

/// The old `pragma` meta-rule. A suppression without a reason is a
/// lint of its own; a *stale* one is `unfulfilled_lint_expectations`,
/// which `-D warnings` denies and nothing can expect, so it is shown
/// rejected with the deny spelled out:
///
/// ```compile_fail
/// #![deny(unfulfilled_lint_expectations)]
/// #[expect(unsafe_code, reason = "nothing unsafe here, deliberately stale")]
/// fn noop() {}
/// ```
#[expect(
    clippy::allow_attributes_without_reason,
    reason = "fixture: unjustified suppression"
)]
#[allow(clippy::needless_return)]
pub fn unjustified() -> u32 {
    return 0;
}

/// telemetry-purity: what a record hook can reach. The collector
/// mutating itself is the point; writing the observed engine through
/// its `&` borrow is `rustc`'s E0596, not a lint:
///
/// ```compile_fail,E0596
/// pub struct EngineState { counter: u32 }
/// impl EngineState {
///     fn peek(&self) -> u32 { self.counter }
///     fn bump(&mut self) { self.counter += 1; }
/// }
/// pub struct TelemetrySink { rows: Vec<u32> }
/// impl TelemetrySink {
///     fn record_epoch(&mut self, eng: &EngineState) {
///         self.rows.push(eng.peek());
///         eng.bump();
///     }
/// }
/// ```
///
/// The one way around the borrow is interior mutability, which is a
/// banned type:
pub struct EngineState {
    counter: u32,
    #[expect(clippy::disallowed_types, reason = "fixture: telemetry-purity")]
    smuggled: std::cell::Cell<u32>,
    #[expect(clippy::disallowed_types, reason = "fixture: telemetry-purity")]
    shared: std::sync::atomic::AtomicU64,
}

impl EngineState {
    /// What an observer may do.
    pub fn peek(&self) -> u32 {
        self.counter
    }

    /// What the type ban stops: a write behind `&self`.
    pub fn bump(&self) {
        self.smuggled.set(self.smuggled.get() + 1);
        self.shared
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

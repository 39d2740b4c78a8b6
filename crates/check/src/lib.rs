//! Minimal deterministic property-testing harness.
//!
//! A std-only replacement for the slice of `proptest` this workspace used:
//! seeded case generation, a fixed per-test case budget, and reproducible
//! failure reports. Nothing here is random in the wall-clock sense — every
//! run of the suite draws the same cases, so CI results are bit-stable and
//! a failure seed always replays.
//!
//! # Model
//!
//! A property is a plain function body over values drawn from a [`Gen`].
//! The runner executes it for `cases` inputs. Each case has:
//!
//! * a **case seed**, derived from the test's base seed and the case index
//!   with splitmix64 — printing it is enough to regenerate the input;
//! * a **size**, ramped linearly from 0 up to `max_size` across the
//!   budget, so early cases are tiny and failures skew minimal.
//!
//! On failure the runner re-searches ascending sizes for a smaller failing
//! input, then panics with the seed, the size, both inputs, and a
//! ready-to-paste `PS_CHECK_REPLAY` command.
//!
//! # Reproducing a failure
//!
//! ```text
//! [ps-check] property 'wire::varint_roundtrip' failed (case 17/64)
//!   seed: 0x53a0c94f21e88d03  size: 54
//!   ...
//!   replay: PS_CHECK_REPLAY=0x53a0c94f21e88d03:54 cargo test -p <crate> varint_roundtrip
//! ```
//!
//! Setting `PS_CHECK_REPLAY=<seed>:<size>` makes every property in the
//! process run exactly that one case, so combine it with a test name
//! filter. `PS_CHECK_CASES=<n>` globally overrides the case budget (e.g.
//! a nightly job can crank it up), and `PS_CHECK_SEED=<n>` rotates the
//! base seed.
//!
//! # Writing properties
//!
//! ```
//! use ps_check::prelude::*;
//!
//! props! {
//!     #![config(cases = 64)]
//!
//!     fn addition_commutes(a in arb::<u32>(), b in arb::<u32>()) {
//!         assert_eq!(u64::from(a) + u64::from(b), u64::from(b) + u64::from(a));
//!     }
//!
//!     fn reverse_is_involutive(v in vec_of(arb::<u8>(), 0..64)) {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         assert_eq!(w, v);
//!     }
//! }
//! # fn main() {}
//! ```

use std::cell::{Cell, RefCell};
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

pub use ps_rand::{mix, SplitMix64, Xoshiro256pp as Rng};

mod gen;
pub use gen::{arb, strings, vec_of, Gen};

/// Per-test configuration; see the crate docs for the env overrides.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of cases to run (default 64, env `PS_CHECK_CASES`).
    pub cases: u32,
    /// Largest generation size reached by the ramp (default 200).
    pub max_size: usize,
    /// Base seed mixed with the property name (default 0xC0FFEE,
    /// env `PS_CHECK_SEED`).
    pub seed: u64,
    /// Cap on extra property executions spent minimizing a failure.
    pub minimize_budget: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: 64, max_size: 200, seed: 0xC0_FFEE, minimize_budget: 120 }
    }
}

impl Config {
    /// Builder-style case budget override (used by `props!`'s
    /// `#![config(cases = N)]`).
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Builder-style max-size override.
    pub fn max_size(mut self, max_size: usize) -> Self {
        self.max_size = max_size;
        self
    }

    /// Builder-style base-seed override.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn effective_cases(&self) -> u32 {
        env_u64("PS_CHECK_CASES").map_or(self.cases, |v| v.max(1) as u32)
    }

    fn effective_seed(&self) -> u64 {
        env_u64("PS_CHECK_SEED").unwrap_or(self.seed)
    }
}

fn env_u64(key: &str) -> Option<u64> {
    let v = std::env::var(key).ok()?;
    parse_u64(&v)
}

fn parse_u64(v: &str) -> Option<u64> {
    let v = v.trim();
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// `PS_CHECK_REPLAY=<seed>:<size>` parsed, if present and well-formed.
fn replay_request() -> Option<(u64, usize)> {
    let v = std::env::var("PS_CHECK_REPLAY").ok()?;
    let (seed, size) = v.split_once(':')?;
    Some((parse_u64(seed)?, parse_u64(size)? as usize))
}

/// FNV-1a over the property name, folded into the base seed so two
/// properties with the same config still draw distinct streams.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Panic capture
//
// Property bodies signal failure with ordinary `assert!`/`panic!`. The
// runner executes them under `catch_unwind`; a process-global hook routes
// panic output into a thread-local buffer while (and only while) the
// current thread is inside a property, so minimization re-runs don't spray
// hundreds of backtraces into the test log. Other threads' panics still
// reach the default hook untouched.
// ---------------------------------------------------------------------------

thread_local! {
    static IN_PROPERTY: Cell<bool> = const { Cell::new(false) };
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

static INSTALL_HOOK: Once = Once::new();

fn install_hook() {
    INSTALL_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if IN_PROPERTY.with(|f| f.get()) {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                let loc = info.location().map(|l| format!(" at {}:{}", l.file(), l.line()));
                LAST_PANIC.with(|p| {
                    *p.borrow_mut() = Some(format!("{msg}{}", loc.unwrap_or_default()));
                });
            } else {
                prev(info);
            }
        }));
    });
}

/// Runs `f` with panics captured; returns the panic message on failure.
fn run_case<V, F: Fn(V)>(f: &F, value: V) -> Result<(), String> {
    install_hook();
    IN_PROPERTY.with(|flag| flag.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(value)));
    IN_PROPERTY.with(|flag| flag.set(false));
    match outcome {
        Ok(()) => Ok(()),
        Err(_) => Err(LAST_PANIC
            .with(|p| p.borrow_mut().take())
            .unwrap_or_else(|| "<panic message lost>".to_string())),
    }
}

/// Size of case `i` out of `cases`: a linear ramp from 0 to `max_size`.
fn ramp(i: u32, cases: u32, max_size: usize) -> usize {
    if cases <= 1 {
        return max_size;
    }
    (max_size as u64 * u64::from(i) / u64::from(cases - 1)) as usize
}

/// One failing execution found by the runner or the minimizer.
struct Failure {
    seed: u64,
    size: usize,
    input: String,
    message: String,
}

fn try_one<G: Gen, F: Fn(G::Value)>(gen: &G, prop: &F, seed: u64, size: usize) -> Option<Failure>
where
    G::Value: Debug,
{
    let mut rng = Rng::seed_from_u64(seed);
    let value = gen.generate(&mut rng, size);
    let input = format!("{value:?}");
    run_case(prop, value).err().map(|message| Failure { seed, size, input, message })
}

/// Checks `prop` against `cases` inputs drawn from `gen`.
///
/// This is the engine behind the [`props!`] macro; call it directly when a
/// property needs a hand-built generator or config.
///
/// # Panics
///
/// Panics (failing the surrounding `#[test]`) with a full reproduction
/// report if any case fails.
pub fn check<G: Gen, F: Fn(G::Value)>(name: &str, gen: G, cfg: &Config, prop: F)
where
    G::Value: Debug,
{
    let base = mix(cfg.effective_seed() ^ name_hash(name));
    if let Some((seed, size)) = replay_request() {
        if let Some(fail) = try_one(&gen, &prop, seed, size) {
            panic!(
                "[ps-check] property '{name}' failed on replay\n  \
                 seed: {:#018x}  size: {}\n  input: {}\n  panic: {}",
                fail.seed, fail.size, fail.input, fail.message
            );
        }
        return;
    }

    let cases = cfg.effective_cases();
    for i in 0..cases {
        let size = ramp(i, cases, cfg.max_size);
        let seed = mix(base ^ u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if let Some(fail) = try_one(&gen, &prop, seed, size) {
            let minimal = minimize(&gen, &prop, &fail, cfg);
            report(name, i, cases, &fail, minimal.as_ref());
        }
    }
}

/// Searches sizes `0..fail.size` (ascending, bounded by
/// `cfg.minimize_budget` executions) for a smaller failing input.
fn minimize<G: Gen, F: Fn(G::Value)>(
    gen: &G,
    prop: &F,
    fail: &Failure,
    cfg: &Config,
) -> Option<Failure>
where
    G::Value: Debug,
{
    const SEEDS_PER_SIZE: u64 = 4;
    let mut budget = cfg.minimize_budget;
    for size in 0..fail.size {
        for k in 0..SEEDS_PER_SIZE {
            if budget == 0 {
                return None;
            }
            budget -= 1;
            // k == 0 retries the original failing seed at the smaller
            // size; the rest explore derived seeds.
            let seed = if k == 0 { fail.seed } else { mix(fail.seed ^ ((size as u64) << 3) ^ k) };
            if let Some(found) = try_one(gen, prop, seed, size) {
                return Some(found);
            }
        }
    }
    None
}

fn report(name: &str, case: u32, cases: u32, fail: &Failure, minimal: Option<&Failure>) -> ! {
    let mut msg = format!(
        "[ps-check] property '{name}' failed (case {}/{})\n  \
         seed: {:#018x}  size: {}\n  input: {}\n  panic: {}\n",
        case + 1,
        cases,
        fail.seed,
        fail.size,
        fail.input,
        fail.message
    );
    // When the search finds nothing smaller, the original case is the
    // minimal one we know of.
    let m = minimal.unwrap_or(fail);
    msg.push_str(&format!(
        "  minimal: seed {:#018x}  size {}\n  minimal input: {}\n",
        m.seed, m.size, m.input
    ));
    let (rseed, rsize) = (m.seed, m.size);
    msg.push_str(&format!(
        "  replay: PS_CHECK_REPLAY={rseed:#x}:{rsize} cargo test {}",
        name.rsplit("::").next().unwrap_or(name)
    ));
    panic!("{msg}");
}

/// Commonly needed imports for property modules: `props!`, [`check`],
/// [`Config`], the [`Gen`] machinery and all built-in generators.
pub mod prelude {
    pub use crate::gen::{arb, strings, vec_of, Gen, GenExt};
    pub use crate::{check, props, Config, Rng};
}

/// Declares a block of deterministic property tests.
///
/// Each `fn name(var in gen, ...) { body }` becomes a `#[test]` running
/// `body` against the configured case budget. The optional leading
/// `#![config(...)]` applies [`Config`] builder methods to every property
/// in the block:
///
/// ```
/// use ps_check::prelude::*;
///
/// props! {
///     #![config(cases = 32, max_size = 64)]
///
///     fn sort_is_idempotent(mut v in vec_of(arb::<u16>(), 0..32)) {
///         v.sort_unstable();
///         let once = v.clone();
///         v.sort_unstable();
///         assert_eq!(v, once);
///     }
/// }
/// # fn main() {}
/// ```
#[macro_export]
macro_rules! props {
    // Leading `#![config(...)]`: fold the builder calls into a single
    // expression, then re-dispatch. (The config captures cannot be used
    // directly inside the per-test repetition — different depths.)
    (
        #![config($($key:ident = $val:expr),+ $(,)?)]
        $($rest:tt)*
    ) => {
        $crate::props!(@run ($crate::Config::default()$(.$key($val))+); $($rest)*);
    };
    // Internal: expand each property with the resolved config expression.
    (
        @run ($cfg:expr);
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($argpat:pat in $gen:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let cfg = $cfg;
                let gen = ($($gen,)+);
                $crate::check(
                    concat!(module_path!(), "::", stringify!($name)),
                    gen,
                    &cfg,
                    |($($argpat,)+)| $body,
                );
            }
        )*
    };
    // No config block: run with the defaults.
    ( $($rest:tt)* ) => {
        $crate::props!(@run ($crate::Config::default()); $($rest)*);
    };
}

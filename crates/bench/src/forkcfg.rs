//! Thread-local default for the prefix-sharing sweep engine.
//!
//! Forked sweeps — boot the warm prefix once, snapshot, fork per point and
//! per repetition — are a pure performance optimization with a
//! bit-identical observables contract (see [`crate::sweep`] and the
//! soundness invariant in `latlab_os::sweep`), so forking defaults **on**.
//! The `--no-fork` escape hatch keeps the scratch-per-point path alive as
//! the oracle: CI runs a small sweep both ways and diffs stdout and CSV
//! byte for byte. Being thread-local, the setting has no cross-test
//! races, and a crashed job can never leak it into the next one on the
//! same worker.

use std::cell::Cell;

thread_local! {
    static DEFAULT: Cell<bool> = const { Cell::new(true) };
}

/// The fork default sweeps on this thread run with.
pub fn default_enabled() -> bool {
    DEFAULT.with(Cell::get)
}

/// RAII guard restoring the previous default on drop.
///
/// Dropping during a panic unwind also restores state.
pub struct ForkOverride {
    prev: bool,
}

impl Drop for ForkOverride {
    fn drop(&mut self) {
        DEFAULT.with(|d| d.set(self.prev));
    }
}

/// Sets the fork default for sweeps subsequently run on this thread,
/// returning a guard that restores the previous setting.
pub fn override_default(enabled: bool) -> ForkOverride {
    let prev = DEFAULT.with(|d| d.replace(enabled));
    ForkOverride { prev }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_on() {
        assert!(default_enabled());
    }

    #[test]
    fn override_nests_and_restores() {
        {
            let _outer = override_default(false);
            assert!(!default_enabled());
            {
                let _inner = override_default(true);
                assert!(default_enabled());
            }
            assert!(!default_enabled());
        }
        assert!(default_enabled());
    }

    #[test]
    fn restores_across_panic_unwind() {
        let caught = std::panic::catch_unwind(|| {
            let _guard = override_default(false);
            panic!("job died");
        });
        assert!(caught.is_err());
        assert!(default_enabled(), "unwind must not leak the override");
    }
}

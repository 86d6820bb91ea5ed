//! Process-wide SIGINT latch, with no dependency beyond libc's `signal`
//! (which std already links).
//!
//! The handler only flips an `AtomicBool` — everything async-signal-safe
//! — and the serve/checkpoint loops poll it at access-granular
//! boundaries. First ^C requests a graceful stop (checkpoint + manifest);
//! a second ^C falls through to the process default because the work
//! loops exit promptly after the first.

use std::sync::atomic::{AtomicBool, Ordering};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_sigint(_signum: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT handler. Idempotent; call once at startup.
pub fn install() {
    // SAFETY: `signal` is libc's, declared above with its C signature
    // (`int` signal number, handler passed as a pointer-sized integer).
    // `on_sigint` is an `extern "C" fn(i32)` that only stores to an
    // atomic, which is async-signal-safe, and as a plain function it lives
    // for the whole process.
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

/// Whether SIGINT has been received since [`install`].
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// The latch itself, for code that wants to pass it as a cancel flag.
pub fn flag() -> &'static AtomicBool {
    &INTERRUPTED
}

/// Clears the latch (tests only — a real process wants it sticky).
pub fn reset() {
    INTERRUPTED.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_flips_and_resets() {
        reset();
        assert!(!interrupted());
        flag().store(true, Ordering::SeqCst);
        assert!(interrupted());
        reset();
        assert!(!interrupted());
    }
}

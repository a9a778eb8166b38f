//! Deterministic fault injection for chaos testing.
//!
//! Training over learned graph structure is exactly where optimization blows
//! up in practice, so the fault-tolerance layer is driven by an injection
//! harness rather than by waiting for real divergence: instrumented sites in
//! the trainer and the persistence layer ask [`trip`] whether the armed
//! fault should fire *here*, and the decision is a pure function of the
//! armed `(kind, seed, rate)` plus a global draw counter — the same arming
//! always fires at the same sequence of sites.
//!
//! # Grammar
//!
//! Faults arm from the environment as `GNN4TDL_FAULT=<kind>:<seed>:<rate>`:
//!
//! * `kind` — one of `nan-grad`, `inf-loss`, `io-fail`, `buffer-corrupt`
//! * `seed` — u64 stream seed
//! * `rate` — per-draw fire probability in `[0, 1]`
//!
//! e.g. `GNN4TDL_FAULT=nan-grad:7:0.02`. Tests arm programmatically with
//! [`arm_guard`], which disarms on drop. A malformed spec is reported on
//! stderr and ignored — the robustness layer must not itself crash the run.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use crate::splitmix64;

/// The failure classes the harness can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Poison a gradient entry with NaN after the backward pass.
    NanGrad,
    /// Replace the epoch's training loss with `+inf`.
    InfLoss,
    /// Fail a persistence write mid-stream (partial temp file, error return).
    IoFail,
    /// Flip bytes in a serialized checkpoint buffer before it hits disk.
    BufferCorrupt,
}

impl FaultKind {
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::NanGrad => "nan-grad",
            FaultKind::InfLoss => "inf-loss",
            FaultKind::IoFail => "io-fail",
            FaultKind::BufferCorrupt => "buffer-corrupt",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "nan-grad" => Some(FaultKind::NanGrad),
            "inf-loss" => Some(FaultKind::InfLoss),
            "io-fail" => Some(FaultKind::IoFail),
            "buffer-corrupt" => Some(FaultKind::BufferCorrupt),
            _ => None,
        }
    }
}

/// An armed fault plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    pub kind: FaultKind,
    pub seed: u64,
    pub rate: f64,
}

/// Parses the `<kind>:<seed>:<rate>` grammar.
pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
    let mut parts = spec.trim().splitn(3, ':');
    let kind = parts.next().and_then(FaultKind::parse).ok_or_else(|| {
        format!("unknown fault kind in '{spec}' (want nan-grad|inf-loss|io-fail|buffer-corrupt)")
    })?;
    let seed: u64 = parts
        .next()
        .ok_or_else(|| format!("missing seed in '{spec}'"))?
        .parse()
        .map_err(|_| format!("seed in '{spec}' is not a u64"))?;
    let rate: f64 = parts
        .next()
        .ok_or_else(|| format!("missing rate in '{spec}'"))?
        .parse()
        .map_err(|_| format!("rate in '{spec}' is not a number"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("rate {rate} outside [0, 1]"));
    }
    Ok(FaultPlan { kind, seed, rate })
}

/// 0 = uninitialised (consult the environment), 1 = disarmed, 2 = armed.
static STATE: AtomicU8 = AtomicU8::new(0);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
/// Draws made against the armed kind — the deterministic stream position.
static DRAWS: AtomicU64 = AtomicU64::new(0);
/// Total faults actually fired (all kinds) since the last arm.
static FIRED: AtomicU64 = AtomicU64::new(0);

/// Is any fault armed? One relaxed load on the hot path; the first call
/// consults `GNN4TDL_FAULT` unless [`arm`]/[`disarm`] ran earlier.
#[inline]
pub fn armed() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let plan = match std::env::var("GNN4TDL_FAULT") {
        Ok(spec) if !spec.trim().is_empty() => match parse_spec(&spec) {
            Ok(plan) => Some(plan),
            Err(err) => {
                eprintln!("gnn4tdl: ignoring GNN4TDL_FAULT: {err}");
                None
            }
        },
        _ => None,
    };
    let mut slot = PLAN.lock().expect("fault plan lock");
    // Keep an explicit arm()/disarm() that raced us.
    if STATE.load(Ordering::Relaxed) == 0 {
        *slot = plan;
        STATE.store(if plan.is_some() { 2 } else { 1 }, Ordering::Relaxed);
    }
    STATE.load(Ordering::Relaxed) == 2
}

/// Arms a fault programmatically (overrides `GNN4TDL_FAULT`) and resets the
/// draw stream, so an identical arming replays an identical fire sequence.
pub fn arm(kind: FaultKind, seed: u64, rate: f64) {
    let mut slot = PLAN.lock().expect("fault plan lock");
    *slot = Some(FaultPlan { kind, seed, rate });
    DRAWS.store(0, Ordering::Relaxed);
    FIRED.store(0, Ordering::Relaxed);
    STATE.store(2, Ordering::Relaxed);
}

/// Disarms fault injection (overrides `GNN4TDL_FAULT`).
pub fn disarm() {
    let mut slot = PLAN.lock().expect("fault plan lock");
    *slot = None;
    STATE.store(1, Ordering::Relaxed);
}

/// The currently armed plan, if any.
pub fn plan() -> Option<FaultPlan> {
    if !armed() {
        return None;
    }
    *PLAN.lock().expect("fault plan lock")
}

/// Faults fired since the last [`arm`].
pub fn fired() -> u64 {
    FIRED.load(Ordering::Relaxed)
}

/// Serialization point for tests that arm faults: the plan is
/// process-global, so concurrent tests in one binary must hold this lock
/// across arm → exercise → disarm.
#[doc(hidden)]
pub static TEST_MUTEX: Mutex<()> = Mutex::new(());

/// RAII arming for tests: disarms on drop. Tests that arm faults must
/// serialize among themselves (the plan is process-global) — hold
/// [`TEST_MUTEX`] for the duration.
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arms and returns a guard that disarms when dropped.
#[must_use = "the fault disarms when the guard drops"]
pub fn arm_guard(kind: FaultKind, seed: u64, rate: f64) -> FaultGuard {
    arm(kind, seed, rate);
    FaultGuard(())
}

/// Should the armed fault fire at this site? Only draws against the armed
/// kind advance the stream, so arming `nan-grad` never perturbs `io-fail`
/// call sites and vice versa.
pub fn trip(kind: FaultKind) -> bool {
    if !armed() {
        return false;
    }
    let plan = match *PLAN.lock().expect("fault plan lock") {
        Some(p) if p.kind == kind => p,
        _ => return false,
    };
    let n = DRAWS.fetch_add(1, Ordering::Relaxed);
    let h = splitmix64(plan.seed ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d));
    // map to [0, 1); fire when below the rate
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    let fire = u < plan.rate;
    if fire {
        FIRED.fetch_add(1, Ordering::Relaxed);
        crate::obs::counter_add("fault.injected", 1);
    }
    fire
}

/// An I/O failpoint: `Err(injected)` when an `io-fail` fault fires here.
pub fn io_failpoint(site: &str) -> std::io::Result<()> {
    if trip(FaultKind::IoFail) {
        return Err(std::io::Error::other(format!("injected io-fail at {site}")));
    }
    Ok(())
}

/// Flips a deterministic byte pattern inside `bytes` when a `buffer-corrupt`
/// fault fires. Returns whether corruption was applied. The flip lands past
/// the header so magic/version checks still pass and only integrity
/// checking (the format's checksum) can catch it.
pub fn corrupt_buffer(bytes: &mut [u8]) -> bool {
    if bytes.len() < 32 || !trip(FaultKind::BufferCorrupt) {
        return false;
    }
    let plan = PLAN.lock().expect("fault plan lock").expect("tripped without plan");
    let n = DRAWS.load(Ordering::Relaxed);
    for i in 0..3u64 {
        let h = splitmix64(plan.seed ^ n.wrapping_add(i).wrapping_mul(0x9e37_79b9));
        let pos = 16 + (h as usize % (bytes.len() - 24));
        bytes[pos] ^= 0xA5;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fault state is process-global; every test here serializes on the
    // shared lock and restores the disarmed state before releasing it.
    use super::TEST_MUTEX as LOCK;

    #[test]
    fn grammar_parses_all_kinds() {
        for (spec, kind) in [
            ("nan-grad:7:0.02", FaultKind::NanGrad),
            ("inf-loss:0:1", FaultKind::InfLoss),
            ("io-fail:123:0.5", FaultKind::IoFail),
            ("buffer-corrupt:9:1.0", FaultKind::BufferCorrupt),
        ] {
            let plan = parse_spec(spec).unwrap();
            assert_eq!(plan.kind, kind);
        }
        assert!(parse_spec("bad-kind:0:0.5").is_err());
        assert!(parse_spec("nan-grad:x:0.5").is_err());
        assert!(parse_spec("nan-grad:0:1.5").is_err());
        assert!(parse_spec("nan-grad:0").is_err());
    }

    #[test]
    fn fire_sequence_is_deterministic_per_seed() {
        let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let draw = |seed: u64| -> Vec<bool> {
            let _g = arm_guard(FaultKind::NanGrad, seed, 0.3);
            (0..64).map(|_| trip(FaultKind::NanGrad)).collect()
        };
        let a = draw(7);
        let b = draw(7);
        let c = draw(8);
        assert_eq!(a, b, "same seed must replay the same fire sequence");
        assert_ne!(a, c, "different seeds should differ");
        assert!(a.iter().any(|&f| f), "rate 0.3 over 64 draws should fire");
        assert!(!a.iter().all(|&f| f), "rate 0.3 should not always fire");
    }

    #[test]
    fn non_matching_kind_never_trips_or_advances() {
        let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _g = arm_guard(FaultKind::InfLoss, 1, 1.0);
        assert!(!trip(FaultKind::NanGrad));
        assert!(trip(FaultKind::InfLoss), "rate 1.0 always fires");
        assert_eq!(fired(), 1);
    }

    #[test]
    fn disarmed_never_fires() {
        let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        disarm();
        assert!(!trip(FaultKind::NanGrad));
        assert!(io_failpoint("test").is_ok());
        let mut buf = vec![0u8; 64];
        assert!(!corrupt_buffer(&mut buf));
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn corrupt_buffer_flips_past_the_header() {
        let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _g = arm_guard(FaultKind::BufferCorrupt, 3, 1.0);
        let mut buf = vec![0u8; 256];
        assert!(corrupt_buffer(&mut buf));
        assert!(buf[..16].iter().all(|&b| b == 0), "header bytes must stay intact");
        assert!(buf.iter().any(|&b| b != 0), "some byte must have flipped");
    }

    #[test]
    fn io_failpoint_reports_site() {
        let _l = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _g = arm_guard(FaultKind::IoFail, 5, 1.0);
        let err = io_failpoint("params.save").unwrap_err();
        assert!(err.to_string().contains("params.save"));
    }
}

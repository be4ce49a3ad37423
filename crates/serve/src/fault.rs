//! Seeded, deterministic fault injection for the serving tier.
//!
//! Chaos testing is only useful when a failing run can be replayed: every decision
//! this module makes is a pure function of `(plan seed, point name, hit index)`, via
//! the same SplitMix64 derivation the sampler uses for its RNG streams
//! ([`nc_sampler::seed`]).  Run the serving tier twice under the same [`FaultPlan`]
//! and the same workload, and every fault point fires on the same traversal indices —
//! the injected failures, torn-write lengths and stall durations are bit-identical.
//!
//! A **fault point** is a named site in the serving code (`"journal.fsync-error"`,
//! `"worker.panic"`, ...) that consults its [`FaultInjector`] before doing the real
//! work.  Each point keeps two counters: `hits` (traversals) and `fired` (injected
//! faults), exposed by [`FaultInjector::counts`] so tests can pin exact replay.
//! Only points *named in the plan* are counted — an unconfigured point is a no-op
//! that does not perturb the counters of configured ones.
//!
//! Like [`lockcheck`](crate::lockcheck), the hooks exist only in builds with
//! `debug_assertions` (which includes every `cargo test` run — the workspace test
//! profile keeps them on).  Release builds compile every probe down to nothing:
//! [`FaultInjector`] is a ZST, `fires`/`fail`/`delay` return their "no fault"
//! answers unconditionally.  The one exception is [`FaultInjector::sleep`], the
//! injectable clock used by client backoff — real code needs real sleeping in
//! release builds too, so it always sleeps (tests shrink the durations instead).
//!
//! The catalogue of fault points wired through the serving tier lives in
//! `docs/faults.md`.

use std::time::Duration;

/// SplitMix64 output mix (Stafford Mix13) — the same finalizer as
/// `nc_sampler::seed::splitmix64_mix`, re-exported here so fault decisions and
/// sampler streams share one mixing discipline.
pub use nc_sampler::seed::{splitmix64_mix, GOLDEN_GAMMA};

/// Configuration of one fault point: how often it fires and, for stall-type
/// points, how long the injected delay lasts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPoint {
    /// The point's name (`"<area>.<fault>"`, e.g. `"journal.torn-write"`).
    pub name: &'static str,
    /// Fire probability in 1/1000ths (0 = never, 1000 = every traversal).
    pub rate_per_mille: u32,
    /// Injected stall duration for delay-type points (ignored by the others).
    pub delay: Duration,
}

/// A deterministic fault schedule: a root seed plus the set of points it arms.
///
/// The plan itself is plain data and always compiled; whether its faults can
/// actually fire depends on the build (see [`FaultInjector::compiled_in`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Root seed; every point derives an independent decision stream from it.
    pub seed: u64,
    /// The armed points.  A point not listed here never fires and is not counted.
    pub points: Vec<FaultPoint>,
}

impl FaultPlan {
    /// An empty plan rooted at `seed`: arms nothing until [`point`](Self::point)
    /// is called.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            points: Vec::new(),
        }
    }

    /// Arms `name` to fire on `rate_per_mille`/1000 of traversals.
    pub fn point(mut self, name: &'static str, rate_per_mille: u32) -> Self {
        self.points.push(FaultPoint {
            name,
            rate_per_mille,
            delay: Duration::ZERO,
        });
        self
    }

    /// Arms a stall-type point: on firing traversals the serving code sleeps
    /// `delay` before proceeding.
    pub fn point_with_delay(
        mut self,
        name: &'static str,
        rate_per_mille: u32,
        delay: Duration,
    ) -> Self {
        self.points.push(FaultPoint {
            name,
            rate_per_mille,
            delay,
        });
        self
    }

    /// The canonical all-subsystems chaos plan used by `neurocard-serve
    /// --chaos-seed` and the chaos bench: moderate fault rates at every server-side
    /// point.  Client-side points (`client.*`) are armed by the client's own
    /// injector, not this one.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan::new(seed)
            .point("journal.torn-write", 100)
            .point("journal.write-error", 100)
            .point("journal.fsync-error", 100)
            .point("worker.panic", 40)
            .point_with_delay("worker.delay", 60, Duration::from_millis(2))
            .point("reactor.partial-read", 200)
            .point("reactor.partial-write", 200)
            .point("pipeline.retrain-fail", 100)
            .point("pipeline.shadow-drop", 100)
    }

    /// Builds the runtime injector for this plan.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector::from_plan(self)
    }
}

/// Snapshot of one fault point's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCount {
    /// The point's name.
    pub point: &'static str,
    /// Traversals of the point (whether or not a fault was injected).
    pub hits: u64,
    /// Traversals on which a fault actually fired.
    pub fired: u64,
}

#[cfg(debug_assertions)]
mod imp {
    use super::{splitmix64_mix, FaultCount, FaultPlan, GOLDEN_GAMMA};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// One armed point at runtime: its spec, its decision-stream seed, and its
    /// counters.  The list is immutable after construction; only the atomics move.
    struct PointRuntime {
        name: &'static str,
        rate_per_mille: u32,
        delay: Duration,
        point_seed: u64,
        hits: AtomicU64,
        fired: AtomicU64,
    }

    pub struct Inner {
        points: Vec<PointRuntime>,
    }

    /// Mixes a point name into a u64 the same way the sampler folds seed
    /// components: avalanche after every absorbed byte.
    fn name_code(name: &str) -> u64 {
        name.bytes().fold(0u64, |h, b| {
            splitmix64_mix(h ^ u64::from(b).wrapping_add(GOLDEN_GAMMA))
        })
    }

    impl Inner {
        pub fn from_plan(plan: &FaultPlan) -> Inner {
            let points = plan
                .points
                .iter()
                .map(|p| PointRuntime {
                    name: p.name,
                    rate_per_mille: p.rate_per_mille,
                    delay: p.delay,
                    point_seed: splitmix64_mix(
                        splitmix64_mix(plan.seed.wrapping_add(GOLDEN_GAMMA)) ^ name_code(p.name),
                    ),
                    hits: AtomicU64::new(0),
                    fired: AtomicU64::new(0),
                })
                .collect();
            Inner { points }
        }

        /// Registers a traversal of `point` and returns the fault draw if this
        /// traversal fires: a full-entropy u64 that callers derive torn lengths
        /// etc. from.  Unarmed points return `None` without touching any counter.
        pub fn draw(&self, point: &'static str) -> Option<u64> {
            let p = self.points.iter().find(|p| p.name == point)?;
            let hit = p.hits.fetch_add(1, Ordering::Relaxed);
            let draw = splitmix64_mix(p.point_seed ^ hit.wrapping_add(GOLDEN_GAMMA));
            if draw % 1000 < u64::from(p.rate_per_mille) {
                p.fired.fetch_add(1, Ordering::Relaxed);
                Some(splitmix64_mix(draw))
            } else {
                None
            }
        }

        pub fn delay_of(&self, point: &'static str) -> Duration {
            self.points
                .iter()
                .find(|p| p.name == point)
                .map(|p| p.delay)
                .unwrap_or(Duration::ZERO)
        }

        pub fn counts(&self) -> Vec<FaultCount> {
            self.points
                .iter()
                .map(|p| FaultCount {
                    point: p.name,
                    hits: p.hits.load(Ordering::Relaxed),
                    fired: p.fired.load(Ordering::Relaxed),
                })
                .collect()
        }
    }
}

/// The runtime fault oracle threaded through the serving tier.
///
/// Cheap to clone (an `Arc` in debug builds, a ZST in release builds) and safe to
/// consult from any thread.  The default value is disabled: every probe answers
/// "no fault".
#[derive(Clone, Default)]
pub struct FaultInjector {
    #[cfg(debug_assertions)]
    inner: Option<std::sync::Arc<imp::Inner>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl FaultInjector {
    /// The inert injector: no point ever fires, nothing is counted.
    pub fn disabled() -> Self {
        FaultInjector::default()
    }

    /// Builds the injector for `plan`.  In release builds the plan is accepted and
    /// ignored — see [`compiled_in`](Self::compiled_in).
    pub fn from_plan(plan: &FaultPlan) -> Self {
        #[cfg(debug_assertions)]
        {
            FaultInjector {
                inner: Some(std::sync::Arc::new(imp::Inner::from_plan(plan))),
            }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = plan;
            FaultInjector {}
        }
    }

    /// Whether this build can inject faults at all.  `false` in release builds,
    /// where every probe is compiled down to its "no fault" answer.
    pub const fn compiled_in() -> bool {
        cfg!(debug_assertions)
    }

    /// Whether this injector carries an armed plan (always `false` in release
    /// builds).
    pub fn enabled(&self) -> bool {
        #[cfg(debug_assertions)]
        {
            self.inner.is_some()
        }
        #[cfg(not(debug_assertions))]
        {
            false
        }
    }

    /// Registers a traversal of `point` and returns the fault draw if it fires.
    /// The draw is a full-entropy deterministic u64 — derive secondary decisions
    /// (torn lengths, ...) from it rather than consulting the injector again.
    pub fn draw(&self, point: &'static str) -> Option<u64> {
        #[cfg(debug_assertions)]
        {
            self.inner.as_ref()?.draw(point)
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = point;
            None
        }
    }

    /// Traversal probe: does `point` fire this time?
    pub fn fires(&self, point: &'static str) -> bool {
        self.draw(point).is_some()
    }

    /// Error-type probe: `Some(message)` when `point` fires, for sites that turn
    /// the fault into an `Err`.
    pub fn fail(&self, point: &'static str) -> Option<String> {
        self.draw(point).map(|_| format!("injected fault: {point}"))
    }

    /// Torn-write probe: when `point` fires, the deterministic number of bytes
    /// (strictly less than `len`) that "made it to disk / the wire" before the
    /// tear.  `None` when the point does not fire or `len` is zero.
    pub fn torn_len(&self, point: &'static str, len: usize) -> Option<usize> {
        if len == 0 {
            return None;
        }
        self.draw(point).map(|d| (d as usize) % len)
    }

    /// Stall probe: when `point` fires, sleeps the point's configured delay.
    /// Returns whether it fired.
    pub fn stall(&self, point: &'static str) -> bool {
        #[cfg(debug_assertions)]
        {
            if self.draw(point).is_some() {
                if let Some(inner) = self.inner.as_ref() {
                    let delay = inner.delay_of(point);
                    if !delay.is_zero() {
                        self.sleep(delay);
                    }
                }
                return true;
            }
            false
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = point;
            false
        }
    }

    /// Panic probe: when `point` fires, panics with a recognisable message — for
    /// exercising `catch_unwind` recovery in the worker pool.
    pub fn maybe_panic(&self, point: &'static str) {
        #[expect(
            clippy::panic,
            reason = "the panic IS the injected fault; every call site sits inside the worker \
                      pool's catch_unwind boundary, and release builds compile the probe away"
        )]
        if self.fires(point) {
            panic!("injected fault: {point}");
        }
    }

    /// The injectable clock: all real sleeping in serving-tier lib code funnels
    /// through here (enforced by `disallowed-methods` in this crate's `clippy.toml`),
    /// so stalls and backoff stay attributable to one site.  Always sleeps for real —
    /// release builds need working backoff; tests keep durations tiny instead.
    pub fn sleep(&self, dur: Duration) {
        if dur.is_zero() {
            return;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "this is the injectable clock itself; the rule exists to force every \
                      other serving-tier sleep through it"
        )]
        std::thread::sleep(dur);
    }

    /// Counter snapshot for every armed point, in plan order.  Empty when
    /// disabled or in release builds.
    pub fn counts(&self) -> Vec<FaultCount> {
        #[cfg(debug_assertions)]
        {
            self.inner.as_ref().map(|i| i.counts()).unwrap_or_default()
        }
        #[cfg(not(debug_assertions))]
        {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_is_inert() {
        let f = FaultInjector::disabled();
        assert!(!f.enabled());
        for _ in 0..100 {
            assert!(!f.fires("journal.torn-write"));
            assert!(f.fail("journal.write-error").is_none());
            assert!(f.torn_len("journal.torn-write", 64).is_none());
            assert!(!f.stall("worker.delay"));
            f.maybe_panic("worker.panic");
        }
        assert!(f.counts().is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn same_seed_replays_bit_identically() {
        let plan = FaultPlan::new(42)
            .point("a.x", 250)
            .point("b.y", 500)
            .point("c.z", 0);
        let run = |plan: &FaultPlan| {
            let f = plan.injector();
            let mut trace = Vec::new();
            for i in 0..400u32 {
                // Interleave points so per-point streams must be independent.
                trace.push(("a.x", f.draw("a.x")));
                if i % 3 == 0 {
                    trace.push(("b.y", f.draw("b.y")));
                }
                trace.push(("c.z", f.draw("c.z")));
            }
            (trace, f.counts())
        };
        let (t1, c1) = run(&plan);
        let (t2, c2) = run(&plan);
        assert_eq!(t1, t2, "fault draws must replay bit-identically");
        assert_eq!(c1, c2, "counters must replay identically");
        // Rates are honoured roughly, and hits count every traversal.
        let by_name =
            |cs: &[FaultCount], n: &str| cs.iter().find(|c| c.point == n).cloned().unwrap();
        assert_eq!(by_name(&c1, "a.x").hits, 400);
        assert_eq!(by_name(&c1, "c.z").fired, 0);
        let ax = by_name(&c1, "a.x").fired;
        assert!((50..200).contains(&ax), "rate 250/1000 over 400 hits: {ax}");
        // A different seed gives a different schedule.
        let (t3, _) = run(&FaultPlan::new(43)
            .point("a.x", 250)
            .point("b.y", 500)
            .point("c.z", 0));
        assert_ne!(t1, t3);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn unarmed_points_do_not_perturb_armed_streams() {
        let plan = FaultPlan::new(7).point("armed.p", 300);
        let f1 = plan.injector();
        let f2 = plan.injector();
        let mut d1 = Vec::new();
        let mut d2 = Vec::new();
        for _ in 0..200 {
            d1.push(f1.draw("armed.p"));
            // f2 traverses an unarmed point between armed hits.
            assert!(f2.draw("unarmed.q").is_none());
            d2.push(f2.draw("armed.p"));
        }
        assert_eq!(d1, d2);
        assert_eq!(f1.counts(), f2.counts(), "unarmed points are not counted");
        assert_eq!(f1.counts().len(), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn torn_len_is_strictly_shorter_and_deterministic() {
        let plan = FaultPlan::new(9).point("t.w", 1000);
        let f = plan.injector();
        let lens: Vec<usize> = (0..64).map(|_| f.torn_len("t.w", 40).unwrap()).collect();
        assert!(lens.iter().all(|&l| l < 40));
        assert!(lens.iter().any(|&l| l > 0), "tears should vary");
        let f2 = plan.injector();
        let lens2: Vec<usize> = (0..64).map(|_| f2.torn_len("t.w", 40).unwrap()).collect();
        assert_eq!(lens, lens2);
        assert!(
            f.torn_len("t.w", 0).is_none(),
            "zero-length writes cannot tear"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn maybe_panic_fires_with_recognisable_message() {
        let f = FaultPlan::new(1).point("w.p", 1000).injector();
        let err =
            std::panic::catch_unwind(|| f.maybe_panic("w.p")).expect_err("rate 1000 must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| String::from("<non-string>"));
        assert!(msg.contains("injected fault: w.p"), "got: {msg}");
    }

    #[test]
    fn chaos_plan_arms_the_documented_points() {
        let plan = FaultPlan::chaos(0xC0FFEE);
        let names: Vec<&str> = plan.points.iter().map(|p| p.name).collect();
        for expected in [
            "journal.torn-write",
            "journal.write-error",
            "journal.fsync-error",
            "worker.panic",
            "worker.delay",
            "reactor.partial-read",
            "reactor.partial-write",
            "pipeline.retrain-fail",
            "pipeline.shadow-drop",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }
}

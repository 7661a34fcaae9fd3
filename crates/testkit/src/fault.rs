//! Deterministic fault plans for chaos testing.
//!
//! A [`FaultPlan`] is a seeded schedule of I/O faults pinned to byte
//! offsets: "after 137 bytes written, disconnect", "after 512 bytes read,
//! return an error". The schedule itself is plain data — generated from a
//! seed, printable, shrinkable — so a failing chaos case reproduces from
//! `(seed, config)` alone, exactly like every other property in this
//! workspace.
//!
//! Consumers drive the plan through a [`FaultCursor`]: before each
//! read/write they call [`FaultCursor::decide`] with the direction and the
//! number of bytes they *want* to move, and obey the returned
//! [`IoDecision`]. The cursor clamps every `Proceed` so real I/O never
//! jumps over a scheduled offset, which is what makes the schedule
//! deterministic even when callers use large buffers. Each event fires at
//! most once; a finite plan therefore guarantees that retries eventually
//! succeed.
//!
//! The offset space is *cumulative per direction across the lifetime of the
//! cursor*, not per connection: a client that disconnects and reconnects
//! keeps consuming the same schedule, so one plan describes the whole
//! session.

use crate::gen::Gen;
use ddn_stats::rng::{Rng, Xoshiro256};

/// Which half of the socket a fault applies to, from the wrapped
/// endpoint's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Faults on bytes flowing *into* the endpoint.
    Read,
    /// Faults on bytes flowing *out of* the endpoint.
    Write,
}

/// What happens when a scheduled offset is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The next I/O call moves at most `max_bytes` bytes (a short
    /// read/write — exercises partial-line handling).
    Partial {
        /// Upper bound on bytes moved by the next call; clamped to ≥ 1.
        max_bytes: usize,
    },
    /// The next I/O call is preceded by a sleep (exercises timeouts).
    Delay {
        /// Sleep length in microseconds.
        micros: u64,
    },
    /// The connection drops: reads see EOF, writes see `BrokenPipe`.
    Disconnect,
    /// The I/O call fails with `ConnectionReset` ("injected fault") but
    /// the connection survives.
    Error,
}

/// One scheduled fault: at byte `offset` (cumulative, per direction),
/// inject `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Direction the offset counts bytes in.
    pub dir: Dir,
    /// Cumulative byte offset at which the fault fires.
    pub offset: u64,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// Tuning knobs for [`FaultPlan::generate`].
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// Number of fault events to schedule.
    pub faults: usize,
    /// Write offsets are drawn from `0..write_horizon`.
    pub write_horizon: u64,
    /// Read offsets are drawn from `0..read_horizon`.
    pub read_horizon: u64,
    /// Delays are drawn from `0..=max_delay_micros`.
    pub max_delay_micros: u64,
    /// Partial-I/O caps are drawn from `1..=max_partial_bytes`.
    pub max_partial_bytes: usize,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        Self {
            faults: 4,
            write_horizon: 1 << 14,
            read_horizon: 1 << 14,
            max_delay_micros: 200,
            max_partial_bytes: 16,
        }
    }
}

/// A finite, ordered schedule of injectable I/O faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults; every `decide` is a full `Proceed`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws a plan from a seed. Same `(seed, cfg)` ⇒ same plan, on every
    /// platform.
    pub fn generate(seed: u64, cfg: &FaultPlanConfig) -> Self {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut plan = Self::new();
        for _ in 0..cfg.faults {
            let dir = if rng.next_below(2) == 0 {
                Dir::Read
            } else {
                Dir::Write
            };
            let horizon = match dir {
                Dir::Read => cfg.read_horizon,
                Dir::Write => cfg.write_horizon,
            }
            .max(1);
            let offset = rng.next_below(horizon);
            let kind = match rng.next_below(4) {
                0 => FaultKind::Partial {
                    max_bytes: 1 + rng.next_below(cfg.max_partial_bytes.max(1) as u64) as usize,
                },
                1 => FaultKind::Delay {
                    micros: rng.next_below(cfg.max_delay_micros + 1),
                },
                2 => FaultKind::Disconnect,
                _ => FaultKind::Error,
            };
            plan.push(FaultEvent { dir, offset, kind });
        }
        plan
    }

    /// Adds an event, keeping the schedule sorted by offset (stable for
    /// equal offsets: earlier pushes fire first).
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.events.sort_by_key(|e| e.offset);
    }

    /// The scheduled events, sorted by offset.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True when the plan schedules at least one event of this kind
    /// (matching on the variant, ignoring payload).
    pub fn has_kind(&self, kind: &FaultKind) -> bool {
        self.events
            .iter()
            .any(|e| std::mem::discriminant(&e.kind) == std::mem::discriminant(kind))
    }

    /// A fresh consumption cursor over this plan.
    pub fn cursor(&self) -> FaultCursor {
        FaultCursor {
            read: self
                .events
                .iter()
                .filter(|e| e.dir == Dir::Read)
                .copied()
                .collect(),
            write: self
                .events
                .iter()
                .filter(|e| e.dir == Dir::Write)
                .copied()
                .collect(),
            read_pos: 0,
            write_pos: 0,
            next_read: 0,
            next_write: 0,
            injected: FaultCounts::default(),
        }
    }
}

/// Tally of faults a cursor has actually fired, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Partial reads/writes injected.
    pub partial: u64,
    /// Delays injected.
    pub delay: u64,
    /// Disconnects injected.
    pub disconnect: u64,
    /// Error returns injected.
    pub error: u64,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.partial + self.delay + self.disconnect + self.error
    }
}

/// What the caller must do for its next I/O call in one direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDecision {
    /// Perform real I/O, moving at most `max_len` bytes, then report the
    /// actual count via [`FaultCursor::advance`].
    Proceed {
        /// Clamp for the next I/O call; never zero when the caller wanted
        /// at least one byte.
        max_len: usize,
    },
    /// Sleep this long, then call `decide` again.
    Delay {
        /// Sleep length in microseconds.
        micros: u64,
    },
    /// Simulate a dropped connection (EOF on read, `BrokenPipe` on write).
    Disconnect,
    /// Fail the call with an injected error; the connection survives.
    Error,
}

/// Mutable consumption state over a [`FaultPlan`].
///
/// The cursor is shared by every connection an endpoint opens (wrap it in
/// `Arc<Mutex<_>>`): offsets are cumulative across reconnects, so one plan
/// scripts the whole session deterministically.
#[derive(Debug, Clone)]
pub struct FaultCursor {
    read: Vec<FaultEvent>,
    write: Vec<FaultEvent>,
    read_pos: u64,
    write_pos: u64,
    next_read: usize,
    next_write: usize,
    injected: FaultCounts,
}

impl FaultCursor {
    /// Decides the fate of the next I/O call that wants to move `want`
    /// bytes in `dir`. Events at or before the current position fire (and
    /// are consumed, once each); otherwise the call proceeds, clamped so
    /// it cannot jump past the next scheduled offset.
    pub fn decide(&mut self, dir: Dir, want: usize) -> IoDecision {
        let (events, next, pos) = match dir {
            Dir::Read => (&self.read, &mut self.next_read, self.read_pos),
            Dir::Write => (&self.write, &mut self.next_write, self.write_pos),
        };
        if let Some(event) = events.get(*next) {
            if event.offset <= pos {
                let kind = event.kind;
                *next += 1;
                return match kind {
                    FaultKind::Partial { max_bytes } => {
                        self.injected.partial += 1;
                        IoDecision::Proceed {
                            max_len: max_bytes.max(1).min(want.max(1)),
                        }
                    }
                    FaultKind::Delay { micros } => {
                        self.injected.delay += 1;
                        IoDecision::Delay { micros }
                    }
                    FaultKind::Disconnect => {
                        self.injected.disconnect += 1;
                        IoDecision::Disconnect
                    }
                    FaultKind::Error => {
                        self.injected.error += 1;
                        IoDecision::Error
                    }
                };
            }
            // Clamp so the I/O lands exactly on the scheduled offset
            // instead of overshooting it.
            let gap = (event.offset - pos) as usize;
            return IoDecision::Proceed {
                max_len: want.min(gap).max(1).min(want.max(1)),
            };
        }
        IoDecision::Proceed { max_len: want }
    }

    /// Reports that `n` bytes actually moved in `dir`.
    pub fn advance(&mut self, dir: Dir, n: usize) {
        match dir {
            Dir::Read => self.read_pos += n as u64,
            Dir::Write => self.write_pos += n as u64,
        }
    }

    /// Faults fired so far, by kind.
    pub fn injected(&self) -> FaultCounts {
        self.injected
    }

    /// True when every scheduled event has fired (subsequent I/O is
    /// fault-free).
    pub fn exhausted(&self) -> bool {
        self.next_read >= self.read.len() && self.next_write >= self.write.len()
    }
}

/// One scripted process kill: after `at_record` records have been
/// ingested, the process dies (`kill -9` semantics — no shutdown hooks
/// run) and is restarted against the same data directory.
///
/// `torn_tail_bytes` models the write the kill interrupted: that many
/// bytes of a partial WAL frame are appended to a shard's log before
/// restart. A real kill can only tear the *in-flight, unacknowledged*
/// frame — acknowledged frames are fully written first — so tests append
/// garbage rather than truncating, and recovery must discard exactly the
/// torn tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillRestart {
    /// Cumulative ingested-record count at which the kill fires.
    pub at_record: u64,
    /// Bytes of a partial (torn) WAL frame left behind by the kill;
    /// 0 is a clean kill between appends.
    pub torn_tail_bytes: usize,
}

/// Tuning knobs for [`LifecyclePlan::generate`].
#[derive(Debug, Clone)]
pub struct LifecyclePlanConfig {
    /// Number of kills to schedule.
    pub kills: usize,
    /// Kill offsets are drawn from `0..record_horizon`.
    pub record_horizon: u64,
    /// Torn tails are drawn from `0..=max_torn_bytes`.
    pub max_torn_bytes: usize,
}

impl Default for LifecyclePlanConfig {
    fn default() -> Self {
        Self {
            kills: 2,
            record_horizon: 512,
            max_torn_bytes: 48,
        }
    }
}

/// A finite, ordered schedule of [`KillRestart`] events, pinned to
/// cumulative record offsets — the process-lifecycle analogue of
/// [`FaultPlan`]. Plain data: printable, shrinkable, reproducible from
/// `(seed, cfg)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LifecyclePlan {
    kills: Vec<KillRestart>,
}

impl LifecyclePlan {
    /// An empty plan (the process never dies).
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws a plan from a seed. Same `(seed, cfg)` ⇒ same plan, on
    /// every platform.
    pub fn generate(seed: u64, cfg: &LifecyclePlanConfig) -> Self {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut plan = Self::new();
        for _ in 0..cfg.kills {
            plan.push(KillRestart {
                at_record: rng.next_below(cfg.record_horizon.max(1)),
                torn_tail_bytes: rng.next_below(cfg.max_torn_bytes as u64 + 1) as usize,
            });
        }
        plan
    }

    /// Adds a kill, keeping the schedule sorted by record offset.
    pub fn push(&mut self, kill: KillRestart) {
        self.kills.push(kill);
        self.kills.sort_by_key(|k| k.at_record);
    }

    /// The scheduled kills, sorted by record offset.
    pub fn kills(&self) -> &[KillRestart] {
        &self.kills
    }

    /// Number of scheduled kills.
    pub fn len(&self) -> usize {
        self.kills.len()
    }

    /// True when no kills are scheduled.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }

    /// A fresh consumption driver over this plan.
    pub fn driver(&self) -> LifecycleDriver {
        LifecycleDriver {
            kills: self.kills.clone(),
            next: 0,
            pos: 0,
        }
    }
}

/// Mutable consumption state over a [`LifecyclePlan`]: the test harness
/// reports ingest progress and is told when to kill the process.
#[derive(Debug, Clone)]
pub struct LifecycleDriver {
    kills: Vec<KillRestart>,
    next: usize,
    pos: u64,
}

impl LifecycleDriver {
    /// Advances the cumulative record position by `records` and returns
    /// the next kill whose offset has been reached, if any (consumed —
    /// each kill fires once). Kills whose offsets fall inside the same
    /// batch fire one per call, preserving order, so a harness that
    /// ingests in batches never silently skips a scheduled kill.
    pub fn advance(&mut self, records: u64) -> Option<KillRestart> {
        self.pos += records;
        match self.kills.get(self.next) {
            Some(k) if k.at_record <= self.pos => {
                self.next += 1;
                Some(*k)
            }
            _ => None,
        }
    }

    /// Cumulative records reported so far.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// True when every scheduled kill has fired.
    pub fn exhausted(&self) -> bool {
        self.next >= self.kills.len()
    }
}

/// Generator of [`LifecyclePlan`]s for `prop!` bodies. Shrinking drops
/// kills and simplifies torn tails to clean kills, so a failing
/// crash-resume case minimises toward "one clean kill at offset k".
#[derive(Debug, Clone)]
pub struct LifecyclePlanGen {
    cfg: LifecyclePlanConfig,
}

/// Lifecycle plans drawn under `cfg`, one fresh seed per case.
pub fn lifecycle_plans(cfg: LifecyclePlanConfig) -> LifecyclePlanGen {
    LifecyclePlanGen { cfg }
}

impl Gen for LifecyclePlanGen {
    type Value = LifecyclePlan;

    fn generate(&self, rng: &mut Xoshiro256) -> LifecyclePlan {
        LifecyclePlan::generate(rng.next_u64(), &self.cfg)
    }

    fn shrink(&self, value: &LifecyclePlan) -> Vec<LifecyclePlan> {
        let kills = value.kills();
        let mut out = Vec::new();
        if kills.is_empty() {
            return out;
        }
        if kills.len() > 1 {
            out.push(LifecyclePlan {
                kills: kills[..kills.len() / 2].to_vec(),
            });
        }
        for i in 0..kills.len() {
            let mut kept = kills.to_vec();
            kept.remove(i);
            out.push(LifecyclePlan { kills: kept });
        }
        // Simplify torn kills to clean ones before giving up.
        for i in 0..kills.len() {
            if kills[i].torn_tail_bytes > 0 {
                let mut cleaned = kills.to_vec();
                cleaned[i].torn_tail_bytes = 0;
                out.push(LifecyclePlan { kills: cleaned });
            }
        }
        out
    }
}

/// Generator of [`FaultPlan`]s for `prop!` bodies; shrinking drops events,
/// so a failing chaos case minimises to the smallest fault set that still
/// breaks the property.
#[derive(Debug, Clone)]
pub struct FaultPlanGen {
    cfg: FaultPlanConfig,
}

/// Fault plans drawn under `cfg`, one fresh seed per case.
pub fn fault_plans(cfg: FaultPlanConfig) -> FaultPlanGen {
    FaultPlanGen { cfg }
}

impl Gen for FaultPlanGen {
    type Value = FaultPlan;

    fn generate(&self, rng: &mut Xoshiro256) -> FaultPlan {
        FaultPlan::generate(rng.next_u64(), &self.cfg)
    }

    fn shrink(&self, value: &FaultPlan) -> Vec<FaultPlan> {
        let events = value.events();
        let mut out = Vec::new();
        if events.is_empty() {
            return out;
        }
        // Halve first, then drop single events.
        if events.len() > 1 {
            out.push(FaultPlan {
                events: events[..events.len() / 2].to_vec(),
            });
        }
        for i in 0..events.len() {
            let mut kept = events.to_vec();
            kept.remove(i);
            out.push(FaultPlan { events: kept });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = FaultPlanConfig::default();
        let a = FaultPlan::generate(42, &cfg);
        let b = FaultPlan::generate(42, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.faults);
        let c = FaultPlan::generate(43, &cfg);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn proceed_never_skips_a_scheduled_offset() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            dir: Dir::Write,
            offset: 10,
            kind: FaultKind::Disconnect,
        });
        let mut cur = plan.cursor();
        // Wanting 100 bytes is clamped down to the 10-byte gap.
        assert_eq!(
            cur.decide(Dir::Write, 100),
            IoDecision::Proceed { max_len: 10 }
        );
        cur.advance(Dir::Write, 10);
        // Now exactly at the offset: the fault fires.
        assert_eq!(cur.decide(Dir::Write, 100), IoDecision::Disconnect);
        // Consumed: subsequent I/O is unclamped.
        assert_eq!(
            cur.decide(Dir::Write, 100),
            IoDecision::Proceed { max_len: 100 }
        );
        assert!(cur.exhausted());
        assert_eq!(cur.injected().disconnect, 1);
    }

    #[test]
    fn directions_are_independent() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            dir: Dir::Read,
            offset: 0,
            kind: FaultKind::Error,
        });
        let mut cur = plan.cursor();
        // Writes are unaffected by a read-side fault.
        assert_eq!(
            cur.decide(Dir::Write, 64),
            IoDecision::Proceed { max_len: 64 }
        );
        assert_eq!(cur.decide(Dir::Read, 64), IoDecision::Error);
        assert_eq!(cur.injected().error, 1);
    }

    #[test]
    fn partial_clamps_but_never_to_zero() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            dir: Dir::Read,
            offset: 0,
            kind: FaultKind::Partial { max_bytes: 3 },
        });
        let mut cur = plan.cursor();
        assert_eq!(
            cur.decide(Dir::Read, 100),
            IoDecision::Proceed { max_len: 3 }
        );
        // Even a degenerate want=0 read yields a nonzero clamp.
        let mut plan2 = FaultPlan::new();
        plan2.push(FaultEvent {
            dir: Dir::Read,
            offset: 0,
            kind: FaultKind::Partial { max_bytes: 5 },
        });
        let mut cur2 = plan2.cursor();
        match cur2.decide(Dir::Read, 0) {
            IoDecision::Proceed { max_len } => assert!(max_len >= 1),
            other => panic!("expected Proceed, got {other:?}"),
        }
    }

    #[test]
    fn equal_offsets_fire_in_push_order() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            dir: Dir::Write,
            offset: 4,
            kind: FaultKind::Delay { micros: 7 },
        });
        plan.push(FaultEvent {
            dir: Dir::Write,
            offset: 4,
            kind: FaultKind::Error,
        });
        let mut cur = plan.cursor();
        cur.advance(Dir::Write, 4);
        assert_eq!(cur.decide(Dir::Write, 1), IoDecision::Delay { micros: 7 });
        assert_eq!(cur.decide(Dir::Write, 1), IoDecision::Error);
        assert_eq!(cur.injected().total(), 2);
    }

    #[test]
    fn has_kind_matches_on_variant() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            dir: Dir::Read,
            offset: 9,
            kind: FaultKind::Partial { max_bytes: 2 },
        });
        assert!(plan.has_kind(&FaultKind::Partial { max_bytes: 999 }));
        assert!(!plan.has_kind(&FaultKind::Disconnect));
    }

    #[test]
    fn lifecycle_plan_fires_kills_in_record_order() {
        let mut plan = LifecyclePlan::new();
        plan.push(KillRestart {
            at_record: 30,
            torn_tail_bytes: 7,
        });
        plan.push(KillRestart {
            at_record: 10,
            torn_tail_bytes: 0,
        });
        assert_eq!(plan.kills()[0].at_record, 10, "sorted on push");
        let mut d = plan.driver();
        assert_eq!(d.advance(9), None);
        let k = d.advance(1).unwrap();
        assert_eq!(k.at_record, 10);
        // Both offsets inside one large batch: each advance fires at most
        // one kill, in order.
        let k = d.advance(100).unwrap();
        assert_eq!(k.at_record, 30);
        assert_eq!(k.torn_tail_bytes, 7);
        assert!(d.exhausted());
        assert_eq!(d.advance(100), None);
        assert_eq!(d.position(), 210);
    }

    #[test]
    fn lifecycle_generation_is_deterministic_and_shrinks_simpler() {
        let cfg = LifecyclePlanConfig::default();
        let a = LifecyclePlan::generate(11, &cfg);
        let b = LifecyclePlan::generate(11, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.kills);
        let gen = lifecycle_plans(cfg);
        for candidate in gen.shrink(&a) {
            let fewer = candidate.len() < a.len();
            let cleaner = candidate.len() == a.len()
                && candidate
                    .kills()
                    .iter()
                    .zip(a.kills())
                    .all(|(c, o)| c.torn_tail_bytes <= o.torn_tail_bytes);
            assert!(fewer || cleaner, "shrink must simplify: {candidate:?}");
        }
        assert!(gen.shrink(&LifecyclePlan::new()).is_empty());
    }

    #[test]
    fn shrink_only_drops_events() {
        let cfg = FaultPlanConfig {
            faults: 6,
            ..FaultPlanConfig::default()
        };
        let gen = fault_plans(cfg);
        let plan = FaultPlan::generate(7, &gen.cfg);
        for candidate in gen.shrink(&plan) {
            assert!(candidate.len() < plan.len());
            for e in candidate.events() {
                assert!(
                    plan.events().contains(e),
                    "shrink invented a new event: {e:?}"
                );
            }
        }
        assert!(gen.shrink(&FaultPlan::new()).is_empty());
    }
}

//! An exhaustive interleaving explorer: the idea behind loom and shuttle,
//! written by hand and without dependencies, for models of concurrent
//! protocols.
//!
//! A [`Model`] is a state plus the steps each thread may take next. One
//! step is one atomic action of the real code (everything it does under
//! one lock, or one syscall), so every order in which the threads' steps
//! can interleave is a schedule of the model. [`explore`] walks all of
//! them by bounded depth-first search, skipping states it has seen, and
//! returns the first schedule that breaks a property, step by step.
//!
//! The search is deterministic: steps are tried in the order
//! [`Model::steps`] lists them, and its bounds are arguments.
//!
//! ```
//! use ddn_testkit::explore::{explore, Bounds, Model};
//!
//! /// Two threads each add 1 to a shared counter under a lock.
//! #[derive(Clone, Hash)]
//! struct Locked {
//!     counter: u32,
//!     done: [bool; 2],
//! }
//!
//! impl Model for Locked {
//!     type Step = usize;
//!     fn steps(&self) -> Vec<usize> {
//!         (0..2).filter(|&t| !self.done[t]).collect()
//!     }
//!     fn step(&mut self, &t: &usize) -> Result<String, String> {
//!         self.counter += 1;
//!         self.done[t] = true;
//!         Ok(format!("thread {t} adds 1 under the lock"))
//!     }
//!     fn finished(&self) -> Result<(), String> {
//!         if self.counter == 2 { Ok(()) } else { Err("lost update".into()) }
//!     }
//! }
//!
//! let report = explore(Locked { counter: 0, done: [false; 2] }, Bounds::default()).unwrap();
//! assert_eq!(report.states, 4);
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A concurrent protocol as a state machine over the steps of its
/// threads.
///
/// The state's [`Hash`] decides which states count as already seen: two
/// states that hash alike must behave alike from then on. Where threads
/// are interchangeable, hash a canonical form (say, the threads' states
/// sorted), so that states that differ only in which thread is which
/// count once.
pub trait Model: Clone + Hash {
    /// One enabled step, e.g. a thread index and what it does next.
    type Step: Clone + fmt::Debug;

    /// The steps enabled in this state, in the order to try them. An empty
    /// list ends the schedule, and [`Model::finished`] judges it.
    fn steps(&self) -> Vec<Self::Step>;

    /// Takes `step`, returning how to print it in a schedule, or the
    /// property it broke (the schedule then prints the step's `Debug`).
    fn step(&mut self, step: &Self::Step) -> Result<String, String>;

    /// Checks the properties that must hold in every state.
    fn check(&self) -> Result<(), String> {
        Ok(())
    }

    /// Checks the properties that must hold once no step is enabled, such
    /// as that every job ran and every thread exited.
    fn finished(&self) -> Result<(), String>;
}

/// Limits on one exploration.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Longest schedule: a longer one is reported as a violation, because
    /// a protocol that should end did not.
    pub max_depth: usize,
    /// Most distinct states to visit before giving up with an error.
    pub max_states: usize,
}

impl Default for Bounds {
    fn default() -> Self {
        Self {
            max_depth: 1_000,
            max_states: 1_000_000,
        }
    }
}

/// What a complete exploration covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Distinct states visited.
    pub states: usize,
    /// Schedules that ran until no step was enabled, counted once per
    /// distinct final state.
    pub finals: usize,
    /// Longest schedule walked.
    pub depth: usize,
}

/// A schedule that broke a property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The property broken, as the model reported it.
    pub property: String,
    /// Every step from the initial state, the breaking one last.
    pub schedule: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "violated: {}", self.property)?;
        writeln!(f, "schedule ({} steps):", self.schedule.len())?;
        for (i, step) in self.schedule.iter().enumerate() {
            writeln!(f, "{:4}. {step}", i + 1)?;
        }
        Ok(())
    }
}

/// The seen-state key: two independent 64-bit hashes of one walk over the
/// state, so a collision that would skip an unseen state is negligible at
/// a few million states.
fn key<M: Model>(state: &M) -> (u64, u64) {
    let mut b = DefaultHasher::new();
    0xDD17_u16.hash(&mut b);
    let mut pair = Pair(DefaultHasher::new(), b);
    state.hash(&mut pair);
    (pair.0.finish(), pair.1.finish())
}

/// Feeds every write to two hashers.
struct Pair(DefaultHasher, DefaultHasher);

impl Hasher for Pair {
    fn finish(&self) -> u64 {
        self.0.finish()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
        self.1.write(bytes);
    }
}

/// One state on the current schedule, with the steps left to try from it.
struct Frame<M: Model> {
    state: M,
    steps: Vec<M::Step>,
    next: usize,
    /// How the step that led here printed (empty for the initial state).
    label: String,
}

/// The search in progress: the current schedule and every state seen.
struct Walk<M: Model> {
    seen: HashSet<(u64, u64)>,
    stack: Vec<Frame<M>>,
    report: Report,
    bounds: Bounds,
}

impl<M: Model> Walk<M> {
    /// The current schedule, then `last`, as breaking `property`.
    fn violation(&self, last: String, property: String) -> Violation {
        let schedule = self.stack.iter().skip(1).map(|f| f.label.clone());
        Violation {
            property,
            schedule: schedule.chain([last]).collect(),
        }
    }

    /// Enters `state`, reached by the step printed as `label`: checks it,
    /// and pushes it to be explored unless it was seen before or no step
    /// is enabled in it.
    fn arrive(&mut self, state: M, label: String) -> Result<(), Violation> {
        if !self.seen.insert(key(&state)) {
            return Ok(());
        }
        self.report.states += 1;
        let depth = self.stack.len();
        self.report.depth = self.report.depth.max(depth);
        let steps = state.steps();
        let broken = if self.report.states > self.bounds.max_states {
            Err(format!("more than {} states", self.bounds.max_states))
        } else if depth > self.bounds.max_depth {
            Err(format!("no end within {} steps", self.bounds.max_depth))
        } else if steps.is_empty() {
            self.report.finals += 1;
            state.check().and_then(|()| state.finished())
        } else {
            state.check()
        };
        if let Err(property) = broken {
            return Err(self.violation(label, property));
        }
        if !steps.is_empty() {
            self.stack.push(Frame {
                state,
                steps,
                next: 0,
                label,
            });
        }
        Ok(())
    }
}

/// Walks every schedule of `init` depth-first, skipping seen states, and
/// returns the first that breaks a property or exceeds `bounds`.
pub fn explore<M: Model>(init: M, bounds: Bounds) -> Result<Report, Violation> {
    let mut walk = Walk {
        seen: HashSet::new(),
        stack: Vec::new(),
        report: Report {
            states: 0,
            finals: 0,
            depth: 0,
        },
        bounds,
    };
    walk.arrive(init, String::new())?;
    while let Some(top) = walk.stack.last_mut() {
        let Some(step) = top.steps.get(top.next).cloned() else {
            walk.stack.pop();
            continue;
        };
        top.next += 1;
        let mut state = top.state.clone();
        match state.step(&step) {
            Ok(label) => walk.arrive(state, label)?,
            Err(property) => return Err(walk.violation(format!("{step:?}"), property)),
        }
    }
    Ok(walk.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each add 1 to one counter, by a read and then a write
    /// of what they read plus one, without a lock.
    #[derive(Clone, Hash)]
    struct Racy {
        counter: u32,
        /// Per thread: what it read, once it has.
        read: [Option<u32>; 2],
        done: [bool; 2],
    }

    impl Model for Racy {
        type Step = usize;

        fn steps(&self) -> Vec<usize> {
            (0..2).filter(|&t| !self.done[t]).collect()
        }

        fn step(&mut self, &t: &usize) -> Result<String, String> {
            Ok(match self.read[t] {
                None => {
                    self.read[t] = Some(self.counter);
                    format!("thread {t} reads {}", self.counter)
                }
                Some(v) => {
                    self.counter = v + 1;
                    self.done[t] = true;
                    format!("thread {t} writes {}", v + 1)
                }
            })
        }

        fn finished(&self) -> Result<(), String> {
            if self.counter == 2 {
                Ok(())
            } else {
                Err(format!("lost update: counter is {}", self.counter))
            }
        }
    }

    #[test]
    fn finds_a_lost_update_and_prints_its_schedule() {
        let racy = Racy {
            counter: 0,
            read: [None; 2],
            done: [false; 2],
        };
        let v = explore(racy, Bounds::default()).unwrap_err();
        assert_eq!(v.property, "lost update: counter is 1");
        let schedule = [
            "thread 0 reads 0",
            "thread 1 reads 0",
            "thread 0 writes 1",
            "thread 1 writes 1",
        ];
        assert_eq!(v.schedule, schedule);
        let printed = v.to_string();
        eprintln!("{printed}");
        assert!(printed.contains("   2. thread 1 reads 0"), "{printed}");
    }
}

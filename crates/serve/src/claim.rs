//! The shard-claim protocol as pure transitions (DESIGN.md §14): every
//! rule that decides which thread runs a shard's jobs, and how an
//! answered connection waits for its next request, lives here.
//!
//! Each transition takes the state one lock guards, by `&mut`, and
//! returns what its caller must do. None makes a syscall, takes a lock,
//! reads a clock or allocates, except that a FIFO and the baton list grow
//! past their deepest queue so far and keep that capacity. The server calls each
//! one under the lock that guards its state, and never splits one across
//! two lock acquisitions, so a model that steps these same functions at
//! lock granularity walks the server's interleavings. The job and
//! connection types are parameters, so that model drives the transitions
//! with fakes (`tests/claim_model.rs`).
//!
//! The model checks six proof obligations under every interleaving:
//!
//! 1. every queued job runs exactly once, and never on two threads at
//!    once;
//! 2. each connection's replies keep request order;
//! 3. each gather is answered once, with every shard's part;
//! 4. some worker is free to read whenever every shard is held;
//! 5. no job waits behind work queued after it: when a thread starts a
//!    job it took from a FIFO, nothing only that thread can move (the
//!    buffered requests of connections it holds, its gather's parts not
//!    yet submitted) arrived before the job was queued;
//! 6. the drain ends.

use std::collections::VecDeque;

/// Worker threads for `shards` shards. A thread holds at most one shard,
/// so one more worker than shards leaves one free to read whenever every
/// shard is held; the extra one is the standby.
pub const fn workers(shards: usize) -> usize {
    shards + 1
}

/// One shard's claim and the jobs waiting for whichever thread holds it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fifo<J> {
    /// Some thread runs this shard's jobs, or will once it takes the
    /// baton the last holder passed. Set by [`Fifo::claim`] on an idle
    /// shard and cleared only by [`Fifo::after_job`] on an empty FIFO, so
    /// a job left here always has a thread that will run it.
    held: bool,
    jobs: VecDeque<J>,
}

impl<J> Default for Fifo<J> {
    fn default() -> Self {
        Self {
            held: false,
            jobs: VecDeque::new(),
        }
    }
}

/// What [`Fifo::claim`] decided.
#[derive(Debug)]
pub enum Claim<J> {
    /// The shard was idle and is now held by the caller, which runs the
    /// job.
    Run(J),
    /// Another thread holds the shard, and the job waits in its FIFO for
    /// that thread (a handoff). `stall`: another job was already waiting.
    Queued {
        /// Another job was already waiting for the shard.
        stall: bool,
    },
}

/// What the holder of a shard does after a job, by [`Fifo::after_job`].
#[derive(Debug)]
pub enum After<J> {
    /// Runs this job next: the caller keeps the shard.
    Next(J),
    /// Nothing waits: the shard is idle again.
    Release,
    /// Jobs wait, but the caller has work of its own: it passes the shard
    /// on, still held, to whichever thread takes the [`Baton`].
    Pass,
}

impl<J> Fifo<J> {
    /// Claims the shard for `job` when it is idle; otherwise queues the
    /// job behind the holder. Never waits for a shard.
    pub fn claim(&mut self, job: J) -> Claim<J> {
        if !self.held {
            self.held = true;
            return Claim::Run(job);
        }
        let stall = !self.jobs.is_empty();
        self.jobs.push_back(job);
        Claim::Queued { stall }
    }

    /// Decides, after each job the holder ran, who runs the next one.
    /// With `keep` the holder runs every job queued behind its own: it
    /// claimed the shard for a request, or took it passed. Without, it
    /// claimed the shard for one part of a gather and passes it on if
    /// others wait, so no shard's traffic delays the gather's next part.
    /// Taking a passed shard is `after_job(true)`: the taker inherits a
    /// holder's place.
    pub fn after_job(&mut self, keep: bool) -> After<J> {
        if !keep && !self.jobs.is_empty() {
            return After::Pass;
        }
        match self.jobs.pop_front() {
            Some(job) => After::Next(job),
            None => {
                self.held = false;
                After::Release
            }
        }
    }

    /// Whether some thread holds the shard or will take it passed.
    pub fn held(&self) -> bool {
        self.held
    }
}

/// The shards passed on with jobs waiting ([`After::Pass`]), for the
/// thread that takes the baton's one-shot event.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Baton {
    /// At most one entry per shard: a passed shard stays held, so it
    /// cannot be passed again before it is taken.
    shards: Vec<usize>,
}

impl Baton {
    /// Passes shard `k` on. The caller signals the baton under the same
    /// lock, so a [`Baton::take`] that empties the list cannot clear a
    /// signal whose shard it did not see.
    pub fn pass(&mut self, k: usize) {
        self.shards.push(k);
    }

    /// Takes one passed shard. The `bool` says the list is now empty, so
    /// the caller clears the baton's signal, still under the lock.
    pub fn take(&mut self) -> (Option<usize>, bool) {
        let k = self.shards.pop();
        (k, self.shards.is_empty())
    }
}

/// A gather's parts, one per shard, and the connection its reply goes
/// to. `P` is a part, `C` the connection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Parts<P, C> {
    conn: Option<C>,
    parts: Vec<Option<P>>,
    missing: usize,
}

impl<P, C> Parts<P, C> {
    /// A gather over `shards` shards whose reply goes to `conn`.
    pub fn new(conn: C, shards: usize) -> Self {
        Self {
            conn: Some(conn),
            parts: (0..shards).map(|_| None).collect(),
            missing: shards,
        }
    }

    /// Adds shard `k`'s part (`None`: the shard cannot answer). The part
    /// that completes the gather gets the connection and every part back,
    /// to write the reply; the others get `None`.
    pub fn add(&mut self, k: usize, part: Option<P>) -> Option<(C, Vec<Option<P>>)> {
        self.parts[k] = part;
        self.missing -= 1;
        if self.missing > 0 {
            return None;
        }
        Some((self.conn.take()?, std::mem::take(&mut self.parts)))
    }
}

/// How a connection waits for its next request after this thread
/// answered it, by [`park`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Park {
    /// Armed for input once the job's FIFO step is done, so its next
    /// request never finds the shard still held by the thread that
    /// answered the last one.
    Input,
    /// Pumped by this thread once it holds no shard.
    Here,
    /// Armed for output, which is ready at once, so a free worker pumps
    /// it while this thread keeps the shard.
    Output,
}

/// Parks an answered connection. `buffered`: its next request is already
/// in its input buffer, or it reached EOF (a connection this thread has
/// yet to pump counts as buffered). `keeps`: this thread goes on holding
/// the shard, for a next job or a snapshot rotation.
pub fn park(buffered: bool, keeps: bool) -> Park {
    match (buffered, keeps) {
        (false, _) => Park::Input,
        (true, false) => Park::Here,
        (true, true) => Park::Output,
    }
}

/// Whether a connection about to be armed is closed instead: a draining
/// server reads no new request, so it closes every connection that would
/// wait for input, whether it is being parked or already waits.
pub fn closes(draining: bool, waits_for_input: bool) -> bool {
    draining && waits_for_input
}

/// Whether a worker may exit: shutdown was asked and no connection is
/// left open.
pub fn drain_ends(shutdown: bool, conns_open: u64) -> bool {
    shutdown && conns_open == 0
}

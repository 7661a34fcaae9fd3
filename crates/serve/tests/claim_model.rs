//! The shard-claim protocol under every interleaving.
//!
//! A model of the server's workers steps the transitions of
//! `ddn_serve::claim`, the functions the server itself runs, and
//! `ddn_testkit::explore` walks every schedule of the model, checking the
//! six proof obligations listed in that module. The model holds no copy
//! of a rule: it carries out what the transitions return the way
//! `server.rs` does, one model step per lock the server takes (a step
//! also does what the thread does next without touching shared state).
//!
//! The scene: two shards and three workers (the last is the standby; its
//! 5 ms poll is just another way to take a ready event, so it steps like
//! the others). Four connections are accepted and armed for input, each
//! with all of its requests already on the wire: `P` pipelines a request
//! for shard 0 and one for shard 1, `A` sends one for shard 0, `H` a
//! `health` and `S` the `shutdown`. Epoll is the set of armed one-shot
//! events; the stop eventfd is the `shutdown` flag, which lets a worker at
//! the top of its loop start the drain or exit.
//!
//! Two mutants restore the rules of the protocol's first build, and the
//! explorer must reject each with a schedule.

use ddn_serve::claim::{self, After, Baton, Claim, Fifo, Park, Parts};
use ddn_testkit::explore::{explore, Bounds, Model, Violation};
use std::hash::{Hash, Hasher};
use std::time::Instant;

const SHARDS: usize = 2;

/// Search bounds: far above the model's longest schedule and state count,
/// so hitting one is itself a failure.
const BOUNDS: Bounds = Bounds {
    max_depth: 200,
    max_states: 3_000_000,
};

#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
enum Req {
    /// An `init`, `ingest` or `estimate` for a session on this shard.
    Shard(u8),
    Health,
    Shutdown,
}

/// Each connection's name and requests, all sent in one write.
const CLIENTS: [(&str, &[Req]); 4] = [
    ("P", &[Req::Shard(0), Req::Shard(1)]),
    ("A", &[Req::Shard(0)]),
    ("H", &[Req::Health]),
    ("S", &[Req::Shutdown]),
];

fn script(conn: u8) -> &'static [Req] {
    CLIENTS[conn as usize].1
}

fn name(conn: u8) -> &'static str {
    CLIENTS[conn as usize].0
}

/// One bit per unit of work: each request, then each gather's part per
/// shard (the model has one gather, `H`'s).
fn request_bit(conn: u8, req: u8) -> u16 {
    let before: usize = CLIENTS[..conn as usize].iter().map(|c| c.1.len()).sum();
    1 << (before + req as usize)
}

fn part_bit(gather: u8, shard: usize) -> u16 {
    let requests: usize = CLIENTS.iter().map(|c| c.1.len()).sum();
    1 << (requests + gather as usize * SHARDS + shard)
}

/// Names the work in `bits`: `P#1` is `P`'s second request, `part 1` the
/// gather's part for shard 1.
fn describe(bits: u16) -> String {
    let requests = CLIENTS.iter().enumerate().flat_map(|(c, (name, reqs))| {
        (0..reqs.len()).map(move |r| (request_bit(c as u8, r as u8), format!("{name}#{r}")))
    });
    let parts = (0..SHARDS).map(|k| (part_bit(0, k), format!("part {k}")));
    let named: Vec<String> = requests
        .chain(parts)
        .filter(|(bit, _)| bits & bit != 0)
        .map(|(_, name)| name)
        .collect();
    named.join(", ")
}

#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
enum Interest {
    Input,
    Output,
}

/// A connection, travelling with whichever worker or job owns it.
#[derive(Clone, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
struct Conn {
    id: u8,
    /// Its requests were read into the input buffer (all at once: they
    /// share one write).
    read: bool,
    /// Requests framed so far; the rest of a read script is buffered.
    framed: u8,
    interest: Interest,
}

impl Conn {
    fn buffered(&self) -> bool {
        self.read && (self.framed as usize) < script(self.id).len()
    }

    /// The work its buffered requests stand for.
    fn pending(&self) -> u16 {
        if !self.read {
            return 0;
        }
        (self.framed..script(self.id).len() as u8).fold(0, |m, r| m | request_bit(self.id, r))
    }
}

/// A job in a shard's FIFO. `older`: the work that had arrived when it
/// was queued.
#[derive(Clone, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
enum Job {
    Request { conn: Conn, req: u8, older: u16 },
    Part { gather: u8, older: u16 },
}

/// A shard this worker holds and the job it runs there.
#[derive(Clone, Debug, Hash, PartialEq, Eq, PartialOrd, Ord)]
struct Run {
    shard: u8,
    job: Job,
    keep: bool,
    /// Taken from the FIFO, not claimed with the worker's own request.
    queued: bool,
    /// The job ran; the FIFO step comes next.
    done: bool,
}

#[derive(Clone, Debug, Default, Hash, PartialEq, Eq, PartialOrd, Ord)]
struct Worker {
    exited: bool,
    /// Connections this worker will pump, popped from the end.
    ready: Vec<Conn>,
    /// Connections answered by the job it runs, parked after the FIFO
    /// step.
    answered: Vec<Conn>,
    run: Option<Run>,
    /// A shard to pass on.
    pass: Option<u8>,
    /// A passed shard taken from the baton, to claim from its FIFO.
    take: Option<u8>,
    /// A gather whose parts it submits, and the next shard.
    gather: Option<(u8, u8)>,
}

impl Worker {
    fn busy(&self) -> bool {
        self.run.is_some()
            || self.pass.is_some()
            || self.take.is_some()
            || self.gather.is_some()
            || !self.ready.is_empty()
    }

    /// The work only this worker can move.
    fn private(&self) -> u16 {
        let conns = self.ready.iter().chain(&self.answered);
        let parts = self.gather.map_or(0, |(g, next)| {
            (next as usize..SHARDS).fold(0, |m, k| m | part_bit(g, k))
        });
        conns.fold(parts, |m, c| m | c.pending())
    }
}

/// The client's end of a connection.
#[derive(Clone, Copy, Debug, Default, Hash, PartialEq, Eq)]
struct Wire {
    replies: u8,
    closed: bool,
}

/// The decisions a mutant may override; [`Rules::server`] are the
/// server's own.
#[derive(Clone, Copy)]
struct Rules {
    workers: usize,
    after_job: fn(&mut Fifo<Job>, bool) -> After<Job>,
    park: fn(bool, bool) -> Park,
}

impl Rules {
    fn server() -> Self {
        Self {
            workers: claim::workers(SHARDS),
            after_job: Fifo::after_job,
            park: claim::park,
        }
    }
}

#[derive(Clone)]
struct Serve {
    rules: Rules,
    workers: Vec<Worker>,
    fifos: Vec<Fifo<Job>>,
    baton: Baton,
    /// The baton eventfd is readable.
    signal: bool,
    /// Connections in the table, armed one-shot; sorted by id.
    parked: Vec<Conn>,
    gathers: Vec<Parts<usize, Conn>>,
    wires: Vec<Wire>,
    shutdown: bool,
    draining: bool,
    /// Work that has arrived (requests read, gathers decoded).
    arrived: u16,
    /// Jobs that have run.
    ran: u16,
}

impl Hash for Serve {
    /// Workers are interchangeable, so states that differ only in which
    /// is which hash alike.
    fn hash<H: Hasher>(&self, h: &mut H) {
        let mut workers: Vec<&Worker> = self.workers.iter().collect();
        workers.sort();
        workers.hash(h);
        self.fifos.hash(h);
        self.baton.hash(h);
        self.signal.hash(h);
        self.parked.hash(h);
        self.gathers.hash(h);
        self.wires.hash(h);
        (self.shutdown, self.draining, self.arrived, self.ran).hash(h);
    }
}

#[derive(Clone, Copy, Debug)]
enum Act {
    /// A busy worker's next step.
    Go,
    StartDrain,
    Exit,
    /// Takes a ready event on connection `id`.
    Conn(u8),
    Baton,
}

#[derive(Clone, Copy)]
struct Step {
    worker: usize,
    act: Act,
}

/// How a step that broke a property prints in its schedule.
impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {}: {:?} (breaks a property)",
            self.worker, self.act
        )
    }
}

impl Serve {
    fn new(rules: Rules) -> Self {
        let parked = (0..CLIENTS.len() as u8)
            .map(|id| Conn {
                id,
                read: false,
                framed: 0,
                interest: Interest::Input,
            })
            .collect();
        Self {
            rules,
            workers: vec![Worker::default(); rules.workers],
            fifos: vec![Fifo::default(); SHARDS],
            baton: Baton::default(),
            signal: false,
            parked,
            gathers: Vec::new(),
            wires: vec![Wire::default(); CLIENTS.len()],
            shutdown: false,
            draining: false,
            arrived: 0,
            ran: 0,
        }
    }

    fn open(&self) -> u64 {
        self.wires.iter().filter(|w| !w.closed).count() as u64
    }

    /// `Server::park`: into the table and armed, or closed by the drain.
    fn park(&mut self, mut conn: Conn, interest: Interest) -> String {
        if claim::closes(self.draining, interest == Interest::Input) {
            self.wires[conn.id as usize].closed = true;
            return format!("closes {}", name(conn.id));
        }
        conn.interest = interest;
        let at = self.parked.partition_point(|c| c.id < conn.id);
        let label = format!("arms {} for {interest:?}", name(conn.id));
        self.parked.insert(at, conn);
        label
    }

    /// A reply reaches `conn`'s client, which checks its order.
    fn reply(&mut self, conn: u8, req: u8) -> Result<(), String> {
        let wire = &mut self.wires[conn as usize];
        if wire.replies != req {
            return Err(format!(
                "{}'s replies keep request order: request {req} answered after {} replies",
                name(conn),
                wire.replies
            ));
        }
        wire.replies += 1;
        Ok(())
    }

    /// `Server::submit`: claims shard `k` for `job` or queues it there.
    fn submit(&mut self, w: usize, k: usize, job: Job, keep: bool) -> String {
        match self.fifos[k].claim(job) {
            Claim::Run(job) => {
                self.workers[w].run = Some(Run {
                    shard: k as u8,
                    job,
                    keep,
                    queued: false,
                    done: false,
                });
                format!("claims idle shard {k}")
            }
            Claim::Queued { stall } => {
                let stall = if stall { ", a stall" } else { "" };
                format!("queues on shard {k} (a handoff{stall})")
            }
        }
    }

    /// `Server::run_shard`'s job: run it, reply, book its parts.
    fn run_job(&mut self, w: usize) -> Result<String, String> {
        let run = self.workers[w].run.clone().expect("a run");
        let k = run.shard as usize;
        if let Some(other) = (0..self.workers.len()).find(|&o| {
            o != w
                && self.workers[o]
                    .run
                    .as_ref()
                    .is_some_and(|r| r.shard == run.shard)
        }) {
            return Err(format!("shard {k} runs on workers {w} and {other} at once"));
        }
        let (bit, older) = match &run.job {
            Job::Request { conn, req, older } => (request_bit(conn.id, *req), *older),
            Job::Part { gather, older } => (part_bit(*gather, k), *older),
        };
        if self.ran & bit != 0 {
            return Err(format!("a job ran twice on shard {k}"));
        }
        self.ran |= bit;
        let waiting = self.workers[w].private() & older;
        if run.queued && waiting != 0 {
            return Err(format!(
                "no job waits behind work queued after it: worker {w} runs a job from shard {k}'s \
                 FIFO while {} waits for it, which arrived before that job was queued",
                describe(waiting)
            ));
        }
        self.workers[w].run.as_mut().expect("a run").done = true;
        match run.job {
            Job::Request { conn, req, .. } => {
                self.reply(conn.id, req)?;
                let label = format!("runs {}#{req} on shard {k} and replies", name(conn.id));
                self.workers[w].answered.push(conn);
                Ok(label)
            }
            Job::Part { gather, .. } => {
                let Some((conn, parts)) = self.gathers[gather as usize].add(k, Some(k)) else {
                    return Ok(format!("adds shard {k}'s part"));
                };
                if parts != (0..SHARDS).map(Some).collect::<Vec<_>>() {
                    return Err(format!(
                        "each gather is answered with every shard's part: {parts:?}"
                    ));
                }
                self.reply(conn.id, 0)
                    .map_err(|_| "each gather is answered once".to_string())?;
                self.workers[w].answered.push(conn);
                Ok(format!("adds shard {k}'s part, the last, and replies to H"))
            }
        }
    }

    /// `Server::run_shard` after a job: the FIFO step, then
    /// `Server::settle`.
    fn after_job(&mut self, w: usize) -> String {
        let run = self.workers[w].run.take().expect("a run");
        let k = run.shard as usize;
        let after = (self.rules.after_job)(&mut self.fifos[k], run.keep);
        let keeps = matches!(after, After::Next(_));
        let mut labels = vec![match &after {
            After::Next(_) => format!("keeps shard {k} for its next job"),
            After::Release => format!("releases shard {k}"),
            After::Pass => format!("passes shard {k} on"),
        }];
        let answered = std::mem::take(&mut self.workers[w].answered);
        for conn in answered {
            match (self.rules.park)(conn.buffered(), keeps) {
                Park::Input => labels.push(self.park(conn, Interest::Input)),
                Park::Here => self.workers[w].ready.push(conn),
                Park::Output => labels.push(self.park(conn, Interest::Output)),
            }
        }
        if (self.rules.park)(true, keeps) == Park::Output {
            for conn in std::mem::take(&mut self.workers[w].ready) {
                labels.push(self.park(conn, Interest::Output));
            }
        }
        match after {
            After::Next(job) => {
                self.workers[w].run = Some(Run {
                    job,
                    queued: true,
                    done: false,
                    ..run
                })
            }
            After::Release => {}
            After::Pass => self.workers[w].pass = Some(run.shard),
        }
        labels.join(", ")
    }

    /// `Server::pump`: frames the next request of the connection on top
    /// of `ready` and answers or submits it.
    fn pump(&mut self, w: usize) -> Result<String, String> {
        let mut conn = self.workers[w].ready.pop().expect("a ready connection");
        let who = name(conn.id);
        if !conn.buffered() {
            return Ok(format!(
                "{who} has no request: {}",
                self.park(conn, Interest::Input)
            ));
        }
        let req = conn.framed;
        conn.framed += 1;
        Ok(match script(conn.id)[req as usize] {
            Req::Shard(k) => {
                let older = self.arrived;
                let label = self.submit(w, k as usize, Job::Request { conn, req, older }, true);
                format!("frames {who}#{req}: {label}")
            }
            Req::Health => {
                let g = self.gathers.len() as u8;
                self.gathers.push(Parts::new(conn, SHARDS));
                self.arrived |= (0..SHARDS).fold(0, |m, k| m | part_bit(g, k));
                self.workers[w].gather = Some((g, 0));
                format!("frames {who}#{req}: a health gather")
            }
            Req::Shutdown => {
                self.shutdown = true;
                self.reply(conn.id, req)?;
                // `Server::flush` on a closing reply: the write half shut,
                // it waits for the peer's EOF.
                let end = self.park(conn, Interest::Input);
                format!("frames {who}#{req}: shutdown, acks, {end}")
            }
        })
    }

    /// A busy worker's next step, in the order `Server` takes them.
    fn go(&mut self, w: usize) -> Result<String, String> {
        let worker = &mut self.workers[w];
        if let Some(run) = &worker.run {
            return if run.done {
                Ok(self.after_job(w))
            } else {
                self.run_job(w)
            };
        }
        if let Some(k) = worker.pass.take() {
            self.baton.pass(k as usize);
            self.signal = true;
            return Ok(format!("hands shard {k} to the baton"));
        }
        if let Some(k) = worker.take.take() {
            let k = k as usize;
            return Ok(match (self.rules.after_job)(&mut self.fifos[k], true) {
                After::Next(job) => {
                    self.workers[w].run = Some(Run {
                        shard: k as u8,
                        job,
                        keep: true,
                        queued: true,
                        done: false,
                    });
                    format!("takes passed shard {k}'s next job")
                }
                _ => format!("finds passed shard {k} empty"),
            });
        }
        if let Some((g, k)) = worker.gather {
            worker.gather = (k as usize + 1 < SHARDS).then_some((g, k + 1));
            let older = self.arrived;
            let label = self.submit(w, k as usize, Job::Part { gather: g, older }, false);
            return Ok(format!("submits the gather's part {k}: {label}"));
        }
        self.pump(w)
    }
}

impl Model for Serve {
    type Step = Step;

    fn steps(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        for (w, worker) in self.workers.iter().enumerate() {
            // An identical worker earlier in the list has the same steps.
            if worker.exited || self.workers[..w].contains(worker) {
                continue;
            }
            let mut add = |act| steps.push(Step { worker: w, act });
            if worker.busy() {
                add(Act::Go);
                continue;
            }
            if self.shutdown && !self.draining {
                add(Act::StartDrain);
            }
            if self.draining && claim::drain_ends(self.shutdown, self.open()) {
                add(Act::Exit);
            }
            for c in &self.parked {
                if c.interest == Interest::Output || !c.read {
                    add(Act::Conn(c.id));
                }
            }
            if self.signal {
                add(Act::Baton);
            }
        }
        steps
    }

    fn step(&mut self, step: &Step) -> Result<String, String> {
        let w = step.worker;
        let label = match step.act {
            Act::Go => self.go(w)?,
            Act::StartDrain => {
                self.draining = true;
                let (closed, kept) = std::mem::take(&mut self.parked)
                    .into_iter()
                    .partition(|c| claim::closes(true, c.interest == Interest::Input));
                self.parked = kept;
                let closed: Vec<Conn> = closed;
                for c in &closed {
                    self.wires[c.id as usize].closed = true;
                }
                let names: Vec<&str> = closed.iter().map(|c| name(c.id)).collect();
                format!("starts the drain, closing idle {names:?}")
            }
            Act::Exit => {
                self.workers[w].exited = true;
                "exits".to_string()
            }
            Act::Conn(id) => {
                let at = self.parked.iter().position(|c| c.id == id).expect("armed");
                let mut conn = self.parked.remove(at);
                let label = if conn.interest == Interest::Input {
                    conn.read = true;
                    let n = script(id).len() as u8;
                    self.arrived |= (0..n).fold(0, |m, r| m | request_bit(id, r));
                    format!("takes {}'s input event and reads {n} request(s)", name(id))
                } else {
                    format!("takes {}'s output event", name(id))
                };
                self.workers[w].ready.push(conn);
                label
            }
            Act::Baton => {
                // `Server::take_baton`: the pop, the drain of the eventfd
                // and the re-arm.
                let (k, empty) = self.baton.take();
                if empty {
                    self.signal = false;
                }
                self.workers[w].take = k.map(|k| k as u8);
                format!("takes the baton: shard {k:?}")
            }
        };
        Ok(format!("worker {w}: {label}"))
    }

    fn check(&self) -> Result<(), String> {
        let held = self.fifos.iter().all(Fifo::held);
        let free = self
            .workers
            .iter()
            .any(|w| !w.exited && w.run.is_none() && w.take.is_none());
        if held && !free {
            return Err("some worker is free to read whenever every shard is held".into());
        }
        Ok(())
    }

    fn finished(&self) -> Result<(), String> {
        if let Some(w) = self.workers.iter().position(|w| !w.exited) {
            return Err(format!("the drain ends: worker {w} never exits"));
        }
        if self.fifos.iter().any(Fifo::held) {
            return Err("every queued job runs: a shard is still held".into());
        }
        for (id, wire) in self.wires.iter().enumerate() {
            let read = self.arrived & request_bit(id as u8, 0) != 0;
            let want = if read { script(id as u8).len() } else { 0 };
            if wire.replies as usize != want || !wire.closed {
                return Err(format!(
                    "every request read is answered and every connection closes: {} got {} of \
                     {want} replies (closed: {})",
                    CLIENTS[id].0, wire.replies, wire.closed
                ));
            }
        }
        Ok(())
    }
}

fn run(rules: Rules) -> Result<ddn_testkit::explore::Report, Violation> {
    let started = Instant::now();
    let result = explore(Serve::new(rules), BOUNDS);
    match &result {
        Ok(r) => eprintln!(
            "{} states, {} final, longest schedule {} steps, in {:.2?}",
            r.states,
            r.finals,
            r.depth,
            started.elapsed()
        ),
        Err(v) => eprintln!("{v}"),
    }
    result
}

#[test]
fn every_interleaving_keeps_the_six_obligations() {
    let report = run(Rules::server()).unwrap_or_else(|v| panic!("{v}"));
    assert!(report.states > 1_000, "{report:?}");
}

#[test]
fn a_holder_that_runs_its_fifo_dry_is_rejected() {
    // The first build: the holder ran its FIFO until empty before it
    // pumped the connections it had answered, and a gather ran each idle
    // shard's FIFO before it submitted its next part.
    let rules = Rules {
        after_job: |fifo, _keep| fifo.after_job(true),
        park: |buffered, _keeps| claim::park(buffered, false),
        ..Rules::server()
    };
    let v = run(rules).expect_err("the explorer accepts a holder that runs its FIFO dry");
    assert!(
        v.property
            .starts_with("no job waits behind work queued after it"),
        "{v}"
    );
    assert!(!v.schedule.is_empty());
}

#[test]
fn no_standby_is_rejected() {
    // The first build: one worker per shard, none spare.
    let rules = Rules {
        workers: SHARDS,
        ..Rules::server()
    };
    let v = run(rules).expect_err("the explorer accepts a server without a standby");
    assert_eq!(
        v.property,
        "some worker is free to read whenever every shard is held"
    );
    assert!(!v.schedule.is_empty());
}

//! Byte-stream abstraction over the socket, so faults can be injected
//! deterministically between the protocol layer and the kernel.
//!
//! Both endpoints — the server's connection handler and [`ServeClient`] —
//! move bytes exclusively through a [`Transport`]. Production uses
//! [`TcpTransport`] (a thin `TcpStream` wrapper); chaos tests wrap it in
//! [`FaultyTransport`], which consults a shared
//! [`ddn_testkit::FaultCursor`] before every read and write and injects
//! partial I/O, delays, mid-line disconnects, and error returns at the
//! byte offsets a seeded [`ddn_testkit::FaultPlan`] scripted.
//!
//! The cursor is shared (`Arc<Mutex<_>>`) across clones and reconnects:
//! offsets are cumulative over the endpoint's lifetime, so one plan
//! deterministically scripts an entire retrying session.
//!
//! [`ServeClient`]: crate::client::ServeClient

use ddn_testkit::{Dir, FaultCursor, IoDecision};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A bidirectional byte stream the protocol layer reads and writes
/// through. Mirrors the `TcpStream` surface the serve layer needs, plus
/// cloning into independently-owned read/write halves.
pub trait Transport: Send {
    /// Reads up to `buf.len()` bytes; `Ok(0)` is EOF.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Writes up to `buf.len()` bytes, returning how many were taken.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Flushes buffered bytes to the peer.
    fn flush(&mut self) -> io::Result<()>;
    /// Shuts the write half: the peer reads every byte written so far,
    /// then EOF, while this side can still read.
    fn shutdown_write(&self) -> io::Result<()>;
    /// Sets the blocking-read timeout (`None` = block forever).
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
    /// Switches the underlying stream between blocking and nonblocking
    /// mode. The readiness-driven server puts every accepted transport
    /// into nonblocking mode before registering it with epoll.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    /// The underlying OS file descriptor, if this transport has one —
    /// what the event loop registers with epoll. Wrappers delegate to
    /// their inner transport; a transport with no fd (none exist today)
    /// would return `None` and cannot be served by the event loop.
    fn raw_fd(&self) -> Option<i32>;
    /// Clones the transport into a second handle over the same stream
    /// (for split read/write halves).
    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>>;
}

/// The production transport: a `TcpStream` with Nagle disabled.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wraps a connected stream. The protocol is strict request/response
    /// over small lines, so Nagle buys nothing and its interaction with
    /// delayed ACKs costs ~40ms per reply; it is disabled here.
    pub fn new(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        Self { stream }
    }

    /// Connects and wraps.
    pub fn connect(addr: &str) -> io::Result<Self> {
        Ok(Self::new(TcpStream::connect(addr)?))
    }
}

impl Transport for TcpTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }

    fn shutdown_write(&self) -> io::Result<()> {
        self.stream.shutdown(Shutdown::Write)
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    fn raw_fd(&self) -> Option<i32> {
        use std::os::fd::AsRawFd;
        Some(self.stream.as_raw_fd())
    }

    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(TcpTransport {
            stream: self.stream.try_clone()?,
        }))
    }
}

/// Shared consumption state for a [`FaultyTransport`] family: the plan
/// cursor plus the "connection dropped" latch, shared across clones so a
/// split read/write pair dies together.
#[derive(Clone)]
pub struct FaultState {
    cursor: Arc<Mutex<FaultCursor>>,
    dead: Arc<AtomicBool>,
}

impl FaultState {
    /// Fresh state over a plan cursor.
    pub fn new(cursor: FaultCursor) -> Self {
        Self {
            cursor: Arc::new(Mutex::new(cursor)),
            dead: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Faults injected so far (all transports sharing this state).
    pub fn injected(&self) -> ddn_testkit::FaultCounts {
        self.lock().injected()
    }

    /// True once a scripted disconnect has fired and no reconnect has
    /// happened yet.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Re-arms the state after a reconnect: the next transport built from
    /// this state is live again (the cursor keeps its cumulative
    /// offsets).
    pub fn revive(&self) {
        self.dead.store(false, Ordering::SeqCst);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultCursor> {
        // A poisoned lock only means some thread panicked elsewhere while
        // holding it; the cursor data is plain and still usable.
        self.cursor.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A transport that injects scripted faults around an inner transport.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    state: FaultState,
}

impl FaultyTransport {
    /// Wraps `inner`, consuming faults from (shared) `state`.
    pub fn new(inner: Box<dyn Transport>, state: FaultState) -> Self {
        state.revive();
        Self { inner, state }
    }

    fn injected_error() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "injected fault")
    }
}

impl Transport for FaultyTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.state.is_dead() {
                return Ok(0); // dropped connection: EOF
            }
            let decision = self.state.lock().decide(Dir::Read, buf.len());
            match decision {
                IoDecision::Proceed { max_len } => {
                    let cap = max_len.min(buf.len()).max(usize::from(!buf.is_empty()));
                    let n = self.inner.read(&mut buf[..cap])?;
                    self.state.lock().advance(Dir::Read, n);
                    return Ok(n);
                }
                // Sleep outside the lock so the peer keeps making
                // progress during the injected stall.
                IoDecision::Delay { micros } => {
                    std::thread::sleep(Duration::from_micros(micros));
                }
                IoDecision::Disconnect => {
                    self.state.dead.store(true, Ordering::SeqCst);
                    return Ok(0);
                }
                IoDecision::Error => return Err(Self::injected_error()),
            }
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            if self.state.is_dead() {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected disconnect",
                ));
            }
            let decision = self.state.lock().decide(Dir::Write, buf.len());
            match decision {
                IoDecision::Proceed { max_len } => {
                    let cap = max_len.min(buf.len()).max(usize::from(!buf.is_empty()));
                    let n = self.inner.write(&buf[..cap])?;
                    self.state.lock().advance(Dir::Write, n);
                    return Ok(n);
                }
                IoDecision::Delay { micros } => {
                    std::thread::sleep(Duration::from_micros(micros));
                }
                IoDecision::Disconnect => {
                    self.state.dead.store(true, Ordering::SeqCst);
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "injected disconnect",
                    ));
                }
                IoDecision::Error => return Err(Self::injected_error()),
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn shutdown_write(&self) -> io::Result<()> {
        self.inner.shutdown_write()
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(dur)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }

    fn raw_fd(&self) -> Option<i32> {
        // Faults are injected in the read/write calls, not at readiness
        // time, so exposing the inner fd keeps byte-offset fault plans
        // landing at the same offsets under the event loop.
        self.inner.raw_fd()
    }

    fn try_clone_transport(&self) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(FaultyTransport {
            inner: self.inner.try_clone_transport()?,
            state: self.state.clone(),
        }))
    }
}

/// Adapter giving a boxed [`Transport`] the std `Read`/`Write` traits, so
/// it slots under `BufReader` and `writeln!` unchanged.
pub struct IoStream(pub Box<dyn Transport>);

impl Read for IoStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for IoStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_testkit::{FaultEvent, FaultKind, FaultPlan};
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn tcp_transport_round_trips() {
        let (a, b) = pair();
        let mut ta = TcpTransport::new(a);
        let mut peer = b;
        peer.write_all(b"hello").unwrap();
        let mut buf = [0u8; 16];
        let n = ta.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
    }

    #[test]
    fn partial_fault_clamps_a_write() {
        let (a, b) = pair();
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            dir: Dir::Write,
            offset: 0,
            kind: FaultKind::Partial { max_bytes: 2 },
        });
        let state = FaultState::new(plan.cursor());
        let mut t = FaultyTransport::new(Box::new(TcpTransport::new(a)), state.clone());
        let n = t.write(b"abcdef").unwrap();
        assert_eq!(n, 2, "write should be clamped to the partial cap");
        assert_eq!(state.injected().partial, 1);
        // Follow-up writes are unclamped; the peer sees every byte.
        assert_eq!(t.write(b"cdef").unwrap(), 4);
        let mut peer = b;
        let mut got = [0u8; 6];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"abcdef");
    }

    #[test]
    fn disconnect_kills_both_halves_until_revived() {
        let (a, _b) = pair();
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            dir: Dir::Read,
            offset: 0,
            kind: FaultKind::Disconnect,
        });
        let state = FaultState::new(plan.cursor());
        let mut t = FaultyTransport::new(Box::new(TcpTransport::new(a)), state.clone());
        let mut half = t.try_clone_transport().unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(t.read(&mut buf).unwrap(), 0, "disconnect reads as EOF");
        assert!(state.is_dead());
        // The cloned write half is dead too.
        assert_eq!(
            half.write(b"x").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert_eq!(state.injected().disconnect, 1);
    }

    #[test]
    fn error_fault_fails_one_call_but_not_the_connection() {
        let (a, b) = pair();
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            dir: Dir::Write,
            offset: 0,
            kind: FaultKind::Error,
        });
        let state = FaultState::new(plan.cursor());
        let mut t = FaultyTransport::new(Box::new(TcpTransport::new(a)), state);
        let e = t.write(b"hi").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        // Retry on the same connection succeeds.
        assert_eq!(t.write(b"hi").unwrap(), 2);
        let mut peer = b;
        let mut got = [0u8; 2];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hi");
    }

    #[test]
    fn cursor_offsets_accumulate_across_reconnects() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            dir: Dir::Write,
            offset: 6,
            kind: FaultKind::Disconnect,
        });
        let state = FaultState::new(plan.cursor());

        let (a1, b1) = pair();
        let mut t = FaultyTransport::new(Box::new(TcpTransport::new(a1)), state.clone());
        assert_eq!(t.write(b"abcd").unwrap(), 4);
        drop(b1);

        // "Reconnect": new inner stream, same state. Two more bytes reach
        // the scheduled offset (4 + 2 = 6); the next write disconnects.
        let (a2, _b2) = pair();
        let mut t = FaultyTransport::new(Box::new(TcpTransport::new(a2)), state.clone());
        assert_eq!(t.write(b"ef").unwrap(), 2);
        assert_eq!(
            t.write(b"gh").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert_eq!(state.injected().disconnect, 1);
    }
}

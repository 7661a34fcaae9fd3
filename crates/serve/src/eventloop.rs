//! Zero-dependency readiness notification: epoll + eventfd via raw
//! syscalls.
//!
//! The serving core (DESIGN.md §14) multiplexes every connection over
//! one epoll set shared by its worker threads instead of a thread per
//! connection, so idle sessions cost a few hundred bytes of buffer
//! instead of a stack. The workspace bans external crates, and `std`
//! does not expose epoll, so this module makes the four required
//! syscalls directly with inline assembly: `epoll_create1`,
//! `epoll_ctl`, `epoll_pwait`, and `eventfd2` (plus `read`/`write`/
//! `close` on the resulting fds).
//!
//! This is the only module in the workspace that uses `unsafe`. The
//! audit surface is deliberately tiny: one `syscall6` function per
//! architecture, a kernel-ABI `EpollEvent` struct, and an owned-fd
//! wrapper whose `Drop` closes via the `close` syscall. Everything
//! above — [`Epoll`], [`Waker`] — is a safe API.
//!
//! Notification is level-triggered (the kernel default): an fd shows up
//! in every `wait` while it stays ready. With [`EPOLLONESHOT`] an fd is
//! reported once and then disarmed — `EPOLLERR`/`EPOLLHUP` included —
//! until [`Epoll::modify`] re-arms it, which is how the server hands each
//! readiness event to exactly one worker. See the interest state machine
//! in `server.rs`.

#![allow(unsafe_code)]

use std::io;
use std::sync::Arc;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "ddn-serve's event loop needs Linux epoll on x86_64 or aarch64; \
     other targets would need a poll() backend added to eventloop.rs"
);

/// Readiness flag: the fd is readable (or a peer closed cleanly).
pub const EPOLLIN: u32 = 0x1;
/// Readiness flag: the fd is writable.
pub const EPOLLOUT: u32 = 0x4;
/// Readiness flag: error condition. Always reported; cannot be masked.
pub const EPOLLERR: u32 = 0x8;
/// Readiness flag: peer hung up. Always reported; cannot be masked.
pub const EPOLLHUP: u32 = 0x10;
/// Registration flag: report the fd once, then disarm it (no events at
/// all, not even `EPOLLERR`/`EPOLLHUP`) until [`Epoll::modify`] re-arms
/// it. One `wait` among several threads gets each event.
pub const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0x80000;
const EFD_CLOEXEC: usize = 0x80000;
const EFD_NONBLOCK: usize = 0x800;

/// Raw syscall plumbing, one block per supported architecture. Numbers
/// are from the kernel's syscall tables and are ABI-stable forever.
mod sys {
    #[cfg(target_arch = "x86_64")]
    pub mod nr {
        pub const READ: usize = 0;
        pub const WRITE: usize = 1;
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
    }

    #[cfg(target_arch = "aarch64")]
    pub mod nr {
        pub const EVENTFD2: usize = 19;
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const CLOSE: usize = 57;
        pub const READ: usize = 63;
        pub const WRITE: usize = 64;
    }

    /// Issues a raw 6-argument syscall.
    ///
    /// # Safety
    /// The caller must pass a valid syscall number and arguments whose
    /// pointer/length invariants match that syscall's contract.
    #[cfg(target_arch = "x86_64")]
    pub unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // `syscall` clobbers rcx (return rip) and r11 (rflags); the
        // fourth argument register is r10, not rcx as in the C ABI.
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
        ret
    }

    /// Issues a raw 6-argument syscall.
    ///
    /// # Safety
    /// The caller must pass a valid syscall number and arguments whose
    /// pointer/length invariants match that syscall's contract.
    #[cfg(target_arch = "aarch64")]
    pub unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a1 as isize => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
        ret
    }
}

/// Converts a raw syscall return into `io::Result`: the kernel encodes
/// errors as `-errno` in `[-4095, -1]`.
fn check(ret: isize) -> io::Result<usize> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// A file descriptor closed on drop via the `close` syscall.
///
/// Used for the epoll instance and the eventfd waker — descriptors that
/// have no `std` owner. Connection sockets stay owned by their
/// `TcpStream`s; this wrapper never takes those over.
#[derive(Debug)]
pub struct OwnedFd(i32);

impl OwnedFd {
    fn from_syscall(ret: isize) -> io::Result<Self> {
        check(ret).map(|fd| OwnedFd(fd as i32))
    }

    /// The raw descriptor, still owned by `self`.
    pub fn raw(&self) -> i32 {
        self.0
    }
}

impl Drop for OwnedFd {
    fn drop(&mut self) {
        // Errors on close are unreportable from Drop; the fd is gone
        // either way (Linux releases it even when close returns EINTR).
        unsafe {
            sys::syscall6(sys::nr::CLOSE, self.0 as usize, 0, 0, 0, 0, 0);
        }
    }
}

/// The kernel's epoll_event. x86_64 packs it (no padding between the
/// u32 mask and the u64 payload); every other architecture uses natural
/// alignment.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// One readiness notification out of [`Epoll::wait_one`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token registered with the fd (connection id, listener, waker).
    pub token: u64,
    /// Readiness bits: [`EPOLLIN`] / [`EPOLLOUT`] / [`EPOLLERR`] /
    /// [`EPOLLHUP`].
    pub events: u32,
}

impl Event {
    /// Whether the fd is readable (or the peer closed / errored, which
    /// a read will observe as EOF or an error).
    pub fn readable(&self) -> bool {
        self.events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0
    }

    /// Whether the fd is writable (or errored, which a write observes).
    pub fn writable(&self) -> bool {
        self.events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0
    }
}

/// A level-triggered epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        let ret = unsafe { sys::syscall6(sys::nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
        Ok(Epoll {
            fd: OwnedFd::from_syscall(ret)?,
        })
    }

    fn ctl(&self, op: usize, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent {
            events,
            data: token,
        };
        // DEL ignores the event pointer but older kernels want it
        // non-null; passing it unconditionally is always valid.
        let ret = unsafe {
            sys::syscall6(
                sys::nr::EPOLL_CTL,
                self.fd.raw() as usize,
                op,
                fd as usize,
                std::ptr::addr_of!(ev) as usize,
                0,
                0,
            )
        };
        check(ret).map(|_| ())
    }

    /// Registers `fd` with interest `events`, tagged with `token`.
    pub fn add(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Changes the interest mask of an already-registered `fd`.
    pub fn modify(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd` entirely (no events reported for it at all,
    /// including EPOLLERR/EPOLLHUP — the only way to silence those).
    pub fn del(&self, fd: i32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (-1 = forever) for one ready event.
    /// Retries on EINTR. `None` means the wait timed out.
    ///
    /// One event per wait is deliberate: several server workers share one
    /// epoll set, and an event a worker holds while it runs a request is
    /// an event no idle worker can serve.
    pub fn wait_one(&self, timeout_ms: i32) -> io::Result<Option<Event>> {
        let mut slot = EpollEvent { events: 0, data: 0 };
        loop {
            let ret = unsafe {
                sys::syscall6(
                    sys::nr::EPOLL_PWAIT,
                    self.fd.raw() as usize,
                    std::ptr::addr_of_mut!(slot) as usize,
                    1,
                    timeout_ms as usize,
                    0, // NULL sigmask: plain epoll_wait semantics
                    8, // sigsetsize; ignored with a NULL mask
                )
            };
            match check(ret) {
                Ok(0) => return Ok(None),
                Ok(_) => {
                    // Copy packed fields out by value before use.
                    let (events, token) = (slot.events, slot.data);
                    return Ok(Some(Event { token, events }));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// A cross-thread wakeup handle backed by a nonblocking eventfd.
///
/// Register [`Waker::raw`] with an epoll set; [`Waker::wake`] makes every
/// `wait` on it report the eventfd until [`Waker::drain`] (level-
/// triggered). The server's stop signal is woken once and never drained,
/// so every worker sees it; its baton is registered one-shot and drained
/// once no passed shard is left. Cloning shares the same eventfd.
#[derive(Debug, Clone)]
pub struct Waker {
    fd: Arc<OwnedFd>,
}

impl Waker {
    /// Creates a waker (close-on-exec, nonblocking).
    pub fn new() -> io::Result<Self> {
        let ret =
            unsafe { sys::syscall6(sys::nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) };
        Ok(Waker {
            fd: Arc::new(OwnedFd::from_syscall(ret)?),
        })
    }

    /// The raw eventfd, for registration with [`Epoll::add`].
    pub fn raw(&self) -> i32 {
        self.fd.raw()
    }

    /// Makes the eventfd readable, waking any epoll wait watching it.
    pub fn wake(&self) {
        let one: u64 = 1;
        // The only write error a nonblocking eventfd can return is
        // EAGAIN at counter saturation — which still leaves the fd
        // readable, i.e. the wakeup is already pending. Safe to ignore.
        unsafe {
            sys::syscall6(
                sys::nr::WRITE,
                self.fd.raw() as usize,
                std::ptr::addr_of!(one) as usize,
                8,
                0,
                0,
                0,
            );
        }
    }

    /// Consumes all pending wakeups so the (level-triggered) eventfd
    /// stops reporting readable.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        // A single read returns the whole counter and resets it to 0;
        // EAGAIN means it was already empty.
        unsafe {
            sys::syscall6(
                sys::nr::READ,
                self.fd.raw() as usize,
                std::ptr::addr_of_mut!(buf) as usize,
                8,
                0,
                0,
                0,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn wait_times_out_with_no_events() {
        let epoll = Epoll::new().unwrap();
        let start = Instant::now();
        assert_eq!(epoll.wait_one(20).unwrap(), None);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn waker_wakes_an_epoll_wait_and_drain_silences_it() {
        let epoll = Epoll::new().unwrap();
        let waker = Waker::new().unwrap();
        epoll.add(waker.raw(), 7, EPOLLIN).unwrap();

        // Not yet woken: a short wait sees nothing.
        assert_eq!(epoll.wait_one(0).unwrap(), None);

        // Wake from another thread (as a shard worker does).
        let w2 = waker.clone();
        let t = std::thread::spawn(move || w2.wake());
        let ev = epoll.wait_one(2000).unwrap().expect("woken");
        t.join().unwrap();
        assert_eq!(ev.token, 7);
        assert!(ev.readable());

        // Level-triggered: still readable until drained.
        assert!(epoll.wait_one(0).unwrap().is_some());
        waker.drain();
        assert_eq!(epoll.wait_one(0).unwrap(), None);
    }

    #[test]
    fn socket_readiness_add_modify_del() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll.add(rx.as_raw_fd(), 42, EPOLLIN).unwrap();

        // Idle socket: no events.
        assert_eq!(epoll.wait_one(0).unwrap(), None);

        // Data arrives: readable under token 42.
        tx.write_all(b"ping").unwrap();
        let ev = epoll.wait_one(2000).unwrap().expect("readable");
        assert_eq!(ev.token, 42);
        assert!(ev.readable());

        // Mask readable interest away: silent even with data pending.
        epoll.modify(rx.as_raw_fd(), 42, EPOLLOUT).unwrap();
        // A healthy connected socket is writable immediately.
        let ev = epoll.wait_one(0).unwrap().expect("writable");
        assert!(ev.writable());

        // Deregister entirely: nothing reported, even peer hangup.
        epoll.del(rx.as_raw_fd()).unwrap();
        drop(tx);
        assert_eq!(epoll.wait_one(20).unwrap(), None);
    }

    #[test]
    fn del_silences_error_and_hangup_events() {
        // EPOLL_CTL_DEL suppresses EPOLLHUP (a mere interest mask of 0
        // would not).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(rx.as_raw_fd(), 1, EPOLLIN).unwrap();
        epoll.del(rx.as_raw_fd()).unwrap();
        drop(tx);
        assert_eq!(epoll.wait_one(20).unwrap(), None);
    }

    #[test]
    fn oneshot_reports_once_until_modify_rearms() {
        // server.rs hands each connection event to one worker this way:
        // after the event the fd stays silent, even through unread data
        // and a peer hangup, until the owner re-arms it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll
            .add(rx.as_raw_fd(), 9, EPOLLIN | EPOLLONESHOT)
            .unwrap();
        tx.write_all(b"ping").unwrap();
        assert_eq!(epoll.wait_one(2000).unwrap().map(|ev| ev.token), Some(9));

        drop(tx);
        assert_eq!(epoll.wait_one(20).unwrap(), None);

        epoll
            .modify(rx.as_raw_fd(), 9, EPOLLIN | EPOLLONESHOT)
            .unwrap();
        assert!(epoll.wait_one(2000).unwrap().expect("re-armed").readable());
        assert_eq!(epoll.wait_one(20).unwrap(), None);
    }

    #[test]
    fn wait_one_leaves_the_other_ready_events_queued() {
        let epoll = Epoll::new().unwrap();
        let (a, b) = (Waker::new().unwrap(), Waker::new().unwrap());
        epoll.add(a.raw(), 1, EPOLLIN | EPOLLONESHOT).unwrap();
        epoll.add(b.raw(), 2, EPOLLIN | EPOLLONESHOT).unwrap();
        a.wake();
        b.wake();
        let mut tokens: Vec<u64> = (0..2)
            .map(|_| epoll.wait_one(2000).unwrap().expect("ready").token)
            .collect();
        tokens.sort_unstable();
        assert_eq!(tokens, [1, 2]);
        assert_eq!(epoll.wait_one(20).unwrap(), None);
    }
}

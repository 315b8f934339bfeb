//! Blocking until a socket is ready: the one `poll(2)` call every event
//! loop of this crate waits in, instead of sleeping a fixed interval per
//! turn. The loops stay non-blocking everywhere else. A wait says *which*
//! descriptors are ready, so a turn reads only those — a socket it did
//! not name would answer `EAGAIN`, at the price of a syscall — and each
//! one it does read, it drains until it would block.

use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs.
#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until one of `fds` is ready — readable, or also writable where
/// its flag asks — or `timeout` has passed (`None`: no limit). The
/// timeout is rounded *up* to whole milliseconds, so a wait never ends
/// before a deadline it was sized for. A negative descriptor is a slot
/// nothing waits on, which keeps the others' positions fixed.
///
/// Returns, per descriptor in the order given, whether it has something
/// for a reader: data or a connection waiting, an error or a hang-up.
/// Room to write alone is not on the list; it ends the wait, but a turn
/// flushes pending output anyway. After a timeout every entry is false;
/// a wait interrupted by a signal reports every descriptor ready, so
/// the turn that follows reads them all.
///
/// # Errors
///
/// What `poll(2)` reports, other than `EINTR`.
pub fn wait(
    fds: impl IntoIterator<Item = (RawFd, bool)>,
    timeout: Option<Duration>,
) -> std::io::Result<Vec<bool>> {
    let mut fds: Vec<PollFd> = fds
        .into_iter()
        .map(|(fd, writable)| PollFd {
            fd,
            events: if writable { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let timeout_ms = timeout
        .map_or(-1, |t| c_int::try_from(t.as_micros().div_ceil(1_000)).unwrap_or(c_int::MAX));
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `#[repr(C)]` `pollfd` records, which is all `poll` reads and
    // writes; a descriptor value it does not know comes back as
    // `POLLNVAL`, never as an access through it.
    #[allow(unsafe_code)]
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
    if ready >= 0 {
        let readable = POLLIN | POLLERR | POLLHUP | POLLNVAL;
        return Ok(fds.iter().map(|fd| fd.revents & readable != 0).collect());
    }
    let error = std::io::Error::last_os_error();
    if error.kind() == std::io::ErrorKind::Interrupted {
        Ok(vec![true; fds.len()])
    } else {
        Err(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream, UdpSocket};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn wait_returns_on_a_datagram_and_not_before_its_timeout() {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let fd = socket.as_raw_fd();

        // Nothing to read: the whole timeout passes.
        let started = Instant::now();
        assert_eq!(wait([(fd, false)], Some(Duration::from_millis(30))).expect("wait"), [false]);
        assert!(started.elapsed() >= Duration::from_millis(30), "{:?}", started.elapsed());
        // A sub-millisecond timeout is a millisecond, not zero.
        let started = Instant::now();
        assert_eq!(wait([(fd, false)], Some(Duration::from_micros(10))).expect("wait"), [false]);
        assert!(started.elapsed() >= Duration::from_millis(1), "{:?}", started.elapsed());

        // A datagram waiting: back at once, however long the timeout.
        let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        peer.send_to(b"wake", socket.local_addr().expect("addr")).expect("send");
        let started = Instant::now();
        assert_eq!(wait([(fd, false)], None).expect("wait"), [true]);
        assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());

        // An idle UDP socket is always writable: that ends the wait, and
        // names nothing to read.
        let mut buf = [0u8; 8];
        let _ = socket.recv_from(&mut buf).expect("drain");
        let started = Instant::now();
        assert_eq!(wait([(fd, true)], Some(Duration::from_secs(5))).expect("wait"), [false]);
        assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
    }

    #[test]
    fn wait_names_only_the_descriptors_that_have_something_to_read() {
        let (quiet, busy) = (UdpSocket::bind("127.0.0.1:0"), UdpSocket::bind("127.0.0.1:0"));
        let (quiet, busy) = (quiet.expect("bind"), busy.expect("bind"));
        busy.send_to(b"wake", busy.local_addr().expect("addr")).expect("send");
        let listener = TcpListener::bind("127.0.0.1:0").expect("listen");
        let fds = [quiet.as_raw_fd(), -1, busy.as_raw_fd(), listener.as_raw_fd()];
        let ready = |fds: &[RawFd]| wait(fds.iter().map(|&fd| (fd, false)), None).expect("wait");
        assert_eq!(ready(&fds), [false, false, true, false], "a negative slot is never ready");

        // A connection waiting to be accepted; then a hang-up on it.
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let mut buf = [0u8; 8];
        let _ = busy.recv_from(&mut buf).expect("drain");
        assert_eq!(ready(&fds), [false, false, false, true]);
        let (server, _) = listener.accept().expect("accept");
        drop(client);
        assert_eq!(ready(&[quiet.as_raw_fd(), server.as_raw_fd()]), [false, true]);
    }
}

//! Blocking until a socket is ready: the one `poll(2)` call every event
//! loop of this crate waits in, instead of sleeping a fixed interval per
//! turn. The loops stay non-blocking everywhere else — after a wait they
//! drain every socket until it would block — so all a wait has to say is
//! *whether* anything is ready, never what.

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
/// before a deadline it was sized for. Returns whether anything is
/// ready; a wait interrupted by a signal reports nothing ready.
///
/// # Errors
///
/// What `poll(2)` reports, other than `EINTR`.
pub fn wait(
    fds: impl IntoIterator<Item = (RawFd, bool)>,
    timeout: Option<Duration>,
) -> std::io::Result<bool> {
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
        return Ok(ready > 0);
    }
    let error = std::io::Error::last_os_error();
    if error.kind() == std::io::ErrorKind::Interrupted {
        Ok(false)
    } else {
        Err(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn wait_returns_on_a_datagram_and_not_before_its_timeout() {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let fd = socket.as_raw_fd();

        // Nothing to read: the whole timeout passes.
        let started = Instant::now();
        assert!(!wait([(fd, false)], Some(Duration::from_millis(30))).expect("wait"));
        assert!(started.elapsed() >= Duration::from_millis(30), "{:?}", started.elapsed());
        // A sub-millisecond timeout is a millisecond, not zero.
        let started = Instant::now();
        assert!(!wait([(fd, false)], Some(Duration::from_micros(10))).expect("wait"));
        assert!(started.elapsed() >= Duration::from_millis(1), "{:?}", started.elapsed());

        // A datagram waiting: back at once, however long the timeout.
        let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        peer.send_to(b"wake", socket.local_addr().expect("addr")).expect("send");
        let started = Instant::now();
        assert!(wait([(fd, false)], None).expect("wait"));
        assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());

        // An idle UDP socket is always writable.
        let mut buf = [0u8; 8];
        let _ = socket.recv_from(&mut buf).expect("drain");
        assert!(wait([(fd, true)], Some(Duration::from_secs(5))).expect("wait"));
    }
}

//! The workspace's only socket code: bind, accept and dial for TCP and
//! Unix-domain streams, behind one address convention.
//!
//! An address containing a `:` is `host:port` (TCP); anything else is a
//! socket path (UDS). The mesh, the launcher's rendezvous and `sbc-serve`'s
//! client front all come through here, so a socket option is set once for
//! all of them — every TCP stream, dialed or accepted, is `TCP_NODELAY`
//! (the protocol is request/response frames; Nagle only adds latency).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which socket family a stream runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `std::net` TCP over localhost (or any routed interface).
    Tcp,
    /// `std::os::unix::net` Unix-domain sockets in the temp directory.
    Uds,
}

impl Backend {
    /// Parses a CLI-style backend name (`"tcp"` / `"uds"`).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "tcp" => Some(Backend::Tcp),
            "uds" | "unix" => Some(Backend::Uds),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Tcp => "tcp",
            Backend::Uds => "uds",
        }
    }

    /// The family an address belongs to: `host:port` is TCP, anything else
    /// is a socket path.
    pub(crate) fn of(addr: &str) -> Backend {
        if addr.contains(':') {
            Backend::Tcp
        } else {
            Backend::Uds
        }
    }
}

/// What a connection must be able to do; implemented by every stream type.
pub trait StreamIo: Read + Write + Send {}
impl<T: Read + Write + Send> StreamIo for T {}

/// One established connection of either family.
pub type Conn = Box<dyn StreamIo>;

static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

enum Socket {
    Tcp(TcpListener),
    Uds(UnixListener),
}

/// A bound listener of either family that knows its own dial address. A
/// Unix-domain listener removes its socket file when dropped.
pub struct Listener {
    socket: Socket,
    addr: String,
}

impl Listener {
    /// Binds at `addr` (`host:port`, port 0 for an ephemeral one, or a
    /// socket path; a stale socket file left by a previous run is removed
    /// first).
    pub fn bind(addr: &str) -> io::Result<Listener> {
        match Backend::of(addr) {
            Backend::Tcp => {
                let l = TcpListener::bind(addr)?;
                let addr = l.local_addr()?.to_string();
                Ok(Listener {
                    socket: Socket::Tcp(l),
                    addr,
                })
            }
            Backend::Uds => {
                let _ = std::fs::remove_file(addr);
                Ok(Listener {
                    socket: Socket::Uds(UnixListener::bind(addr)?),
                    addr: addr.to_owned(),
                })
            }
        }
    }

    /// Binds an address nobody else has: a localhost port the kernel picks,
    /// or a fresh socket path in the temp directory.
    pub(crate) fn bind_ephemeral(backend: Backend) -> io::Result<Listener> {
        match backend {
            Backend::Tcp => Listener::bind("127.0.0.1:0"),
            Backend::Uds => {
                let path = std::env::temp_dir().join(format!(
                    "sbc-net-{}-{}.sock",
                    std::process::id(),
                    UDS_COUNTER.fetch_add(1, Ordering::Relaxed),
                ));
                Listener::bind(&path.to_string_lossy())
            }
        }
    }

    /// The address peers should dial (for TCP, with the port really bound).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Waits for one inbound connection and takes it.
    pub fn accept(&self) -> io::Result<Conn> {
        match &self.socket {
            Socket::Tcp(l) => Ok(Box::new(accept_tcp(l)?)),
            Socket::Uds(l) => Ok(Box::new(l.accept()?.0)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Socket::Uds(_) = self.socket {
            let _ = std::fs::remove_file(&self.addr);
        }
    }
}

fn accept_tcp(l: &TcpListener) -> io::Result<TcpStream> {
    let (s, _) = l.accept()?;
    s.set_nodelay(true)?;
    Ok(s)
}

fn dial_tcp(addr: &str) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

fn connect_once(addr: &str) -> io::Result<Conn> {
    match Backend::of(addr) {
        Backend::Tcp => Ok(Box::new(dial_tcp(addr)?)),
        Backend::Uds => Ok(Box::new(UnixStream::connect(addr)?)),
    }
}

/// The typed failure for an expired connect deadline: who we dialed, over
/// what backend, and for how long. Carried as the source of an
/// [`io::Error`] with kind [`io::ErrorKind::TimedOut`], so callers holding
/// a plain `io::Error` can `downcast` to it:
///
/// ```ignore
/// let err: io::Error = mesh_builder.connect(&addrs).unwrap_err();
/// let t: &ConnectTimeout = err.get_ref().unwrap().downcast_ref().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectTimeout {
    /// The address that never accepted.
    pub addr: String,
    /// The socket family dialed.
    pub backend: Backend,
    /// The deadline that expired.
    pub timeout: Duration,
}

impl std::fmt::Display for ConnectTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no {} listener at {} within {:?}",
            self.backend.name(),
            self.addr,
            self.timeout,
        )
    }
}

impl std::error::Error for ConnectTimeout {}

/// Dials `addr`, retrying while its listener is not up yet (process startup
/// is not synchronized across ranks, and a freshly spawned service races its
/// clients). When the deadline expires the error is a typed
/// [`ConnectTimeout`] under [`io::ErrorKind::TimedOut`], never a generic
/// refusal from the last attempt.
pub fn connect_retry(addr: &str, timeout: Duration) -> io::Result<Conn> {
    let deadline = Instant::now() + timeout;
    loop {
        match connect_once(addr) {
            Ok(s) => return Ok(s),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionRefused
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::NotFound
                        | io::ErrorKind::AddrNotAvailable
                ) =>
            {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        ConnectTimeout {
                            addr: addr.to_owned(),
                            backend: Backend::of(addr),
                            timeout,
                        },
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expired_connect_deadline_is_a_typed_error() {
        // bind-then-drop: the port was ours a moment ago, so nothing else
        // is listening there and every dial is refused
        let vacant = Listener::bind("127.0.0.1:0").unwrap().addr().to_owned();
        let t0 = Instant::now();
        let err = match connect_retry(&vacant, Duration::from_millis(50)) {
            Ok(_) => panic!("no listener: the dial must fail"),
            Err(e) => e,
        };
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "a 50ms budget must not take the old hard-coded 20s"
        );
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let typed: &ConnectTimeout = err
            .get_ref()
            .expect("timeout carries a typed source")
            .downcast_ref()
            .expect("source downcasts to ConnectTimeout");
        assert_eq!(typed.addr, vacant);
        assert_eq!(typed.backend, Backend::Tcp);
        assert_eq!(typed.timeout, Duration::from_millis(50));
        let msg = err.to_string();
        assert!(
            msg.contains(&vacant) && msg.contains("50ms"),
            "error should name the address and the deadline: {msg}"
        );
    }

    #[test]
    fn addresses_pick_their_family_and_listeners_know_their_address() {
        assert_eq!(Backend::of("127.0.0.1:7000"), Backend::Tcp);
        assert_eq!(Backend::of("/tmp/x.sock"), Backend::Uds);
        for backend in [Backend::Tcp, Backend::Uds] {
            let l = Listener::bind_ephemeral(backend).unwrap();
            assert_eq!(Backend::of(l.addr()), backend);
            assert!(!l.addr().ends_with(":0"), "the bound port is reported");
            // dial, accept, and move a byte each way through the pair
            let mut near = connect_retry(l.addr(), Duration::from_secs(5)).unwrap();
            let mut far = l.accept().unwrap();
            near.write_all(b"a").unwrap();
            far.write_all(b"b").unwrap();
            let mut got = [0u8; 1];
            far.read_exact(&mut got).unwrap();
            assert_eq!(&got, b"a");
            near.read_exact(&mut got).unwrap();
            assert_eq!(&got, b"b");
        }
    }

    /// Small request/response frames (`JobStatus`, `StatsReply`, acks) must
    /// not wait on Nagle at either end.
    #[test]
    fn both_ends_of_a_tcp_connection_are_nodelay() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = dial_tcp(&l.local_addr().unwrap().to_string()).unwrap();
        let far = accept_tcp(&l).unwrap();
        assert!(near.nodelay().unwrap() && far.nodelay().unwrap());
    }

    #[test]
    fn a_dropped_uds_listener_removes_its_socket_file() {
        let l = Listener::bind_ephemeral(Backend::Uds).unwrap();
        let path = l.addr().to_owned();
        drop(l);
        assert!(
            !std::path::Path::new(&path).exists(),
            "a dropped UDS listener removes its socket file"
        );
    }
}

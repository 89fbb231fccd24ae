//! Independent `CONFANON/1` wire client for the serve daemon.
//!
//! This module deliberately re-implements the protocol framing from the
//! DESIGN §14 specification instead of importing the server's encoder:
//! the dependency direction (`confanon-core` depends on this crate, not
//! the reverse) forces it, and the duplication is the point — every
//! round trip through this client is an interoperability check of the
//! wire format, not a tautology.
//!
//! ## Frame grammar (client view)
//!
//! ```text
//! request:  "CONFANON/1 <VERB> <tenant> <name> <len>\n" + len payload bytes
//! response: "CONFANON/1 <STATUS> <len>\n"              + len payload bytes
//! ```
//!
//! `<tenant>` and `<name>` are `[A-Za-z0-9._-]{1,128}` tokens, with `-`
//! as the placeholder for verbs that don't take them (`PING`, `STATS`,
//! `SHUTDOWN`).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::rng::{Rng, SeedableRng, XorShift64Star};

/// Protocol tag, first token of every frame in both directions.
pub const PROTOCOL: &str = "CONFANON/1";

/// Extracts the server's backoff hint from a retriable payload. `BUSY`
/// frames lead with `retry-after-ms=<N>; ` (DESIGN §15); a cooperating
/// client floors its next delay at `N` milliseconds.
pub fn parse_retry_hint(payload: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(payload).ok()?;
    let rest = text.strip_prefix("retry-after-ms=")?;
    let end = rest.find(';')?;
    rest[..end].parse().ok()
}

/// Upper bound the client enforces on response payload lengths, so a
/// corrupt header cannot make a test allocate unboundedly.
pub const MAX_RESPONSE: usize = 8 * 1024 * 1024;

/// A parsed response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The status token exactly as received (`OK`, `BUSY`, ...). Kept
    /// as a string so this client never lags the server's taxonomy.
    pub status: String,
    /// The response payload.
    pub payload: Vec<u8>,
}

impl Reply {
    /// Whether the daemon asked the client to retry later (bounded
    /// queue full, or the per-request deadline passed while queued).
    pub fn retriable(&self) -> bool {
        self.status == "BUSY" || self.status == "TIMEOUT"
    }

    /// The payload as lossy UTF-8, for assertions on error messages.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.payload).into_owned()
    }

    /// The server's `retry-after-ms` backoff hint, if this reply
    /// carries one.
    pub fn retry_hint(&self) -> Option<u64> {
        parse_retry_hint(&self.payload)
    }
}

/// Deterministic seeded jittered exponential backoff for retriable
/// (`BUSY`/`TIMEOUT`) replies.
///
/// Delay `k` (0-based) is drawn from the upper half of the capped
/// exponential window — `exp = min(cap_ms, base_ms · 2^k)`, then
/// `exp/2 + uniform(0..=exp/2)` — and floored at the server's
/// `retry-after-ms` hint when one was given. The jitter stream is the
/// testkit PRNG, so a seed replays the exact schedule: the retry
/// behavior of a fleet of clients is a testable function, not folklore.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    attempt: u32,
    rng: XorShift64Star,
}

impl Backoff {
    /// A fresh schedule. `base_ms` is the first window; `cap_ms` bounds
    /// the window growth (both floored at 1 ms).
    pub fn new(seed: u64, base_ms: u64, cap_ms: u64) -> Backoff {
        Backoff {
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(1),
            attempt: 0,
            rng: XorShift64Star::seed_from_u64(seed ^ 0xBAC0_0FF5),
        }
    }

    /// The next delay, honoring the server's hint as a floor.
    pub fn next_delay(&mut self, hint: Option<u64>) -> Duration {
        let exp = self
            .base_ms
            .saturating_mul(1u64.checked_shl(self.attempt).unwrap_or(u64::MAX))
            .min(self.cap_ms);
        self.attempt = self.attempt.saturating_add(1);
        let jittered = exp / 2 + self.rng.gen_range(0..=exp / 2);
        Duration::from_millis(jittered.max(hint.unwrap_or(0)))
    }
}

enum Transport {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Transport::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Transport::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Transport::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Transport::Unix(s) => s.flush(),
        }
    }
}

/// A blocking client connection to a serve daemon.
pub struct ServeClient {
    transport: Transport,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl ServeClient {
    /// Connects to `endpoint`: either `host:port` (TCP) or `unix:PATH`
    /// (Unix-domain socket) — the same syntax `--port-file` advertises.
    /// A 10-second read/write timeout guards tests against a wedged
    /// daemon.
    pub fn connect(endpoint: &str) -> io::Result<ServeClient> {
        let timeout = Some(Duration::from_secs(10));
        let transport = if let Some(path) = endpoint.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let s = std::os::unix::net::UnixStream::connect(path)?;
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)?;
                Transport::Unix(s)
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(invalid("unix sockets are not supported on this platform"));
            }
        } else {
            let s = TcpStream::connect(endpoint)?;
            s.set_read_timeout(timeout)?;
            s.set_write_timeout(timeout)?;
            // Each frame leaves in one write (see `request`); without
            // Nagle, that write never waits on the peer's delayed ACK.
            s.set_nodelay(true)?;
            Transport::Tcp(s)
        };
        Ok(ServeClient { transport })
    }

    /// Sends one frame and reads the response. `tenant`/`name` use `-`
    /// as the placeholder when the verb doesn't take them.
    pub fn request(
        &mut self,
        verb: &str,
        tenant: &str,
        name: &str,
        payload: &[u8],
    ) -> io::Result<Reply> {
        // Header and payload go out in one write: split in two, the
        // payload write would wait on the peer's delayed ACK.
        let mut frame =
            format!("{PROTOCOL} {verb} {tenant} {name} {}\n", payload.len()).into_bytes();
        frame.extend_from_slice(payload);
        self.transport.write_all(&frame)?;
        self.transport.flush()?;
        self.read_reply()
    }

    /// `ANON`: anonymize `payload` as file `name` under `tenant`.
    pub fn anon(&mut self, tenant: &str, name: &str, payload: &[u8]) -> io::Result<Reply> {
        self.request("ANON", tenant, name, payload)
    }

    /// `ANON` with bounded retry on `BUSY`/`TIMEOUT` back-pressure:
    /// the cooperative-client loop the protocol contract expects.
    /// Returns the first non-retriable reply, or the last retriable one
    /// if `attempts` is exhausted.
    pub fn anon_with_retry(
        &mut self,
        tenant: &str,
        name: &str,
        payload: &[u8],
        attempts: usize,
        backoff: Duration,
    ) -> io::Result<Reply> {
        let mut last = self.anon(tenant, name, payload)?;
        for _ in 1..attempts {
            if !last.retriable() {
                return Ok(last);
            }
            std::thread::sleep(backoff);
            last = self.anon(tenant, name, payload)?;
        }
        Ok(last)
    }

    /// `ANON` with seeded jittered exponential backoff on retriable
    /// replies, honoring the server's `retry-after-ms` hint. Returns
    /// the first non-retriable reply, or the last retriable one if
    /// `attempts` is exhausted.
    pub fn anon_with_backoff(
        &mut self,
        tenant: &str,
        name: &str,
        payload: &[u8],
        attempts: usize,
        backoff: &mut Backoff,
    ) -> io::Result<Reply> {
        let mut last = self.anon(tenant, name, payload)?;
        for _ in 1..attempts {
            if !last.retriable() {
                return Ok(last);
            }
            std::thread::sleep(backoff.next_delay(last.retry_hint()));
            last = self.anon(tenant, name, payload)?;
        }
        Ok(last)
    }

    /// `PING`: liveness probe.
    pub fn ping(&mut self) -> io::Result<Reply> {
        self.request("PING", "-", "-", b"")
    }

    /// `STATS`: fetch the `confanon-serve-metrics-v1` frame.
    pub fn stats(&mut self) -> io::Result<Reply> {
        self.request("STATS", "-", "-", b"")
    }

    /// `FLUSH`: force a durable state flush for one tenant.
    pub fn flush(&mut self, tenant: &str) -> io::Result<Reply> {
        self.request("FLUSH", tenant, "-", b"")
    }

    /// `SHUTDOWN`: ask the daemon to drain and exit.
    pub fn shutdown(&mut self) -> io::Result<Reply> {
        self.request("SHUTDOWN", "-", "-", b"")
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        // Header: bytes up to '\n', length-capped like the server's.
        let mut header = Vec::with_capacity(64);
        loop {
            let mut byte = [0u8; 1];
            let n = self.transport.read(&mut byte)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a response header",
                ));
            }
            if byte[0] == b'\n' {
                break;
            }
            header.push(byte[0]);
            if header.len() > 1024 {
                return Err(invalid("response header exceeds 1024 bytes"));
            }
        }
        let header = String::from_utf8(header)
            .map_err(|_| invalid("response header is not UTF-8"))?;
        let fields: Vec<&str> = header.split(' ').collect();
        let [proto, status, len] = fields.as_slice() else {
            return Err(invalid(format!("malformed response header {header:?}")));
        };
        if *proto != PROTOCOL {
            return Err(invalid(format!("unexpected protocol tag {proto:?}")));
        }
        let len: usize = len
            .parse()
            .map_err(|_| invalid(format!("bad response length {len:?}")))?;
        if len > MAX_RESPONSE {
            return Err(invalid(format!("response length {len} exceeds cap")));
        }
        let mut payload = vec![0u8; len];
        self.transport.read_exact(&mut payload)?;
        Ok(Reply {
            status: status.to_string(),
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-shot fake server speaking the frame grammar from the spec,
    /// so the client is tested without the real daemon.
    fn fake_server(respond: &'static [u8]) -> (std::net::SocketAddr, std::thread::JoinHandle<Vec<u8>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            // Read until the full frame (header line + declared payload
            // length) has arrived — the header and payload may land in
            // separate TCP segments.
            let mut got = Vec::new();
            let mut buf = [0u8; 4096];
            loop {
                let n = conn.read(&mut buf).expect("read");
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
                if let Some(pos) = got.iter().position(|&b| b == b'\n') {
                    let header = std::str::from_utf8(&got[..pos]).expect("utf8 header");
                    let len: usize = header
                        .rsplit(' ')
                        .next()
                        .expect("len field")
                        .parse()
                        .expect("numeric len");
                    if got.len() >= pos + 1 + len {
                        break;
                    }
                }
            }
            conn.write_all(respond).expect("write");
            got
        });
        (addr, handle)
    }

    #[test]
    fn frames_a_request_and_parses_the_reply() {
        let (addr, server) = fake_server(b"CONFANON/1 OK 5\nhello");
        let mut client = ServeClient::connect(&addr.to_string()).expect("connect");
        let reply = client.anon("alpha", "r1.cfg", b"hostname x\n").expect("reply");
        assert_eq!(reply.status, "OK");
        assert_eq!(reply.payload, b"hello");
        assert!(!reply.retriable());
        let sent = server.join().expect("join");
        assert_eq!(sent, b"CONFANON/1 ANON alpha r1.cfg 11\nhostname x\n");
    }

    #[test]
    fn backoff_schedule_is_deterministic_jittered_exponential() {
        // Same seed → the exact same schedule, delay k inside the
        // upper half of the capped window min(cap, base·2^k).
        let schedule = |seed: u64| -> Vec<u64> {
            let mut b = Backoff::new(seed, 10, 200);
            (0..8).map(|_| b.next_delay(None).as_millis() as u64).collect()
        };
        let a = schedule(42);
        assert_eq!(a, schedule(42), "seeded schedule must replay exactly");
        assert_ne!(a, schedule(43), "different seeds must jitter differently");
        for (k, d) in a.iter().enumerate() {
            let exp = (10u64 << k.min(10)).min(200);
            assert!(
                (exp / 2..=exp).contains(d),
                "delay {k} = {d} outside [{}..={exp}]",
                exp / 2
            );
        }
        // The cap holds forever (no overflow at large attempt counts).
        let mut b = Backoff::new(1, 10, 200);
        for _ in 0..80 {
            assert!(b.next_delay(None).as_millis() <= 200);
        }
    }

    #[test]
    fn backoff_honors_the_server_hint_as_a_floor() {
        let mut b = Backoff::new(7, 2, 16);
        let hinted = b.next_delay(Some(500));
        assert_eq!(hinted.as_millis(), 500, "hint above the window wins");
        let mut c = Backoff::new(7, 1000, 4000);
        let d = c.next_delay(Some(3));
        assert!(d.as_millis() >= 500, "a tiny hint must not shrink the window");
    }

    #[test]
    fn retry_hint_parses_only_the_documented_prefix() {
        assert_eq!(parse_retry_hint(b"retry-after-ms=120; queue full"), Some(120));
        assert_eq!(parse_retry_hint(b"retry-after-ms=0; shed"), Some(0));
        assert_eq!(parse_retry_hint(b"queue full"), None);
        assert_eq!(parse_retry_hint(b"retry-after-ms=abc; x"), None);
        assert_eq!(parse_retry_hint(b"retry-after-ms=12"), None);
        assert_eq!(parse_retry_hint(b"\xff\xfe"), None);
    }

    #[test]
    fn busy_is_retriable_and_bad_frames_are_errors() {
        let (addr, _server) = fake_server(b"CONFANON/1 BUSY 5\nretry");
        let mut client = ServeClient::connect(&addr.to_string()).expect("connect");
        let reply = client.ping().expect("reply");
        assert_eq!(reply.status, "BUSY");
        assert!(reply.retriable());

        let (addr2, _server2) = fake_server(b"HTTP/1.1 200 OK\n");
        let mut client2 = ServeClient::connect(&addr2.to_string()).expect("connect");
        let err = client2.ping().expect_err("protocol tag must be checked");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

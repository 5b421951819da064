//! A minimal Prometheus scrape endpoint on `std::net` — no async
//! runtime, no HTTP crate, offline-friendly.
//!
//! [`ScrapeServer::bind`] spawns one accept-loop thread serving
//! `GET /metrics` from a [`Registry`] snapshot in the text exposition
//! format. The server answers one request per connection (it sends
//! `Connection: close`), which is exactly the scrape model Prometheus
//! uses and keeps the implementation to a single blocking loop.
//!
//! Shutdown is cooperative: [`ScrapeServer::shutdown`] sets a flag and
//! then *connects to the listener itself* to unblock `accept`, so no
//! platform-specific socket teardown is needed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::export::to_prometheus;
use crate::registry::Registry;

/// How long a single request may take to arrive before the connection
/// is dropped (scrapes are tiny; this only guards against stuck peers).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// A running scrape endpoint. Dropping the handle shuts the server
/// down; [`shutdown`](Self::shutdown) does the same explicitly.
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_loop: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `GET /metrics` from `registry`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port in use, permission, bad
    /// address).
    pub fn bind(addr: &str, registry: Registry) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_loop = std::thread::Builder::new()
            .name("telemetry-scrape".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Serve inline: scrapes are sub-millisecond and a
                    // scraper polls one endpoint at a time.
                    let _ = serve_one(stream, &registry);
                }
            })
            .expect("spawning the scrape accept loop");
        Ok(Self {
            addr,
            stop,
            accept_loop: Some(accept_loop),
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock `accept` by connecting to ourselves; if that fails the
        // loop still exits on the next (if any) connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_loop.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads one HTTP/1.x request and answers it.
fn serve_one(stream: TcpStream, registry: &Registry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers so well-behaved clients see a clean close.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 2 {
        header.clear();
    }
    let mut stream = reader.into_inner();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    match (method, path) {
        ("GET", "/metrics") => {
            let body = to_prometheus(&registry.snapshot());
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        ("GET", _) => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
        _ => respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        ),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Why a one-shot scrape failed — routable, so callers can distinguish
/// "the endpoint is gone" (connect) from "the endpoint is wedged"
/// (timeout) from "the endpoint is not a scrape server" (protocol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrapeError {
    /// The address did not resolve or the TCP connect failed/timed out.
    Connect(String),
    /// The server accepted the connection but a read or write timed
    /// out — the half-open-peer case that used to hang forever.
    Timeout(String),
    /// Some other io error mid-exchange.
    Io(String),
    /// The response was not parseable HTTP.
    Protocol(String),
    /// The server answered something other than `200 OK`.
    Status(String),
}

impl std::fmt::Display for ScrapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScrapeError::Connect(msg) => write!(f, "connect: {msg}"),
            ScrapeError::Timeout(msg) => write!(f, "timed out: {msg}"),
            ScrapeError::Io(msg) => write!(f, "io: {msg}"),
            ScrapeError::Protocol(msg) => write!(f, "malformed response: {msg}"),
            ScrapeError::Status(msg) => write!(f, "unexpected status: {msg}"),
        }
    }
}

impl std::error::Error for ScrapeError {}

impl From<ScrapeError> for String {
    fn from(e: ScrapeError) -> String {
        e.to_string()
    }
}

/// Classify an io error from an established stream: timeouts surface as
/// [`ScrapeError::Timeout`], everything else as [`ScrapeError::Io`].
fn classify_io(context: &str, e: std::io::Error) -> ScrapeError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            ScrapeError::Timeout(format!("{context}: {e}"))
        }
        _ => ScrapeError::Io(format!("{context}: {e}")),
    }
}

/// A one-shot scrape client for probes and tests: fetches
/// `http://{addr}/metrics` and returns the body. Uses a 5-second
/// connect/read/write timeout; see [`scrape_once_with_timeout`] to
/// choose one.
///
/// # Errors
///
/// A [`ScrapeError`] naming the failing stage.
pub fn scrape_once(addr: &str) -> Result<String, ScrapeError> {
    scrape_once_with_timeout(addr, REQUEST_TIMEOUT)
}

/// [`scrape_once`] with an explicit timeout applied to address
/// resolution's connect, each read, and each write — so a peer that
/// accepts the connection and then never writes (half-open server,
/// stalled process) fails with [`ScrapeError::Timeout`] after `timeout`
/// instead of hanging the caller forever.
///
/// # Errors
///
/// A [`ScrapeError`] naming the failing stage.
pub fn scrape_once_with_timeout(addr: &str, timeout: Duration) -> Result<String, ScrapeError> {
    use std::net::ToSocketAddrs;
    let sock_addr = addr
        .to_socket_addrs()
        .map_err(|e| ScrapeError::Connect(format!("{addr}: {e}")))?
        .next()
        .ok_or_else(|| ScrapeError::Connect(format!("{addr}: no addresses")))?;
    let mut stream =
        TcpStream::connect_timeout(&sock_addr, timeout).map_err(|e| match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                ScrapeError::Timeout(format!("connect {addr}: {e}"))
            }
            _ => ScrapeError::Connect(format!("{addr}: {e}")),
        })?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| ScrapeError::Io(format!("set timeouts: {e}")))?;
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| classify_io("send request", e))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| classify_io("read response", e))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| ScrapeError::Protocol(format!("{raw:?}")))?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains("200") {
        return Err(ScrapeError::Status(status_line.to_string()));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistogramSpec;

    fn server_with_metrics() -> (ScrapeServer, Registry) {
        let registry = Registry::enabled();
        registry.counter("scrape_test_total").add(3);
        registry
            .histogram("scrape_test_seconds", HistogramSpec::latency_seconds())
            .record(0.012);
        let server = ScrapeServer::bind("127.0.0.1:0", registry.clone()).expect("bind loopback");
        (server, registry)
    }

    #[test]
    fn serves_a_valid_exposition_on_get_metrics() {
        let (server, _registry) = server_with_metrics();
        let body = scrape_once(&server.addr().to_string()).expect("scrape succeeds");
        assert!(body.contains("scrape_test_total 3\n"), "{body}");
        assert!(body.contains("scrape_test_seconds_count 1\n"), "{body}");
        let samples = crate::export::parse_prometheus(&body)
            .expect("valid exposition")
            .len();
        assert!(samples > 0);
    }

    #[test]
    fn scrapes_observe_live_counter_updates() {
        let (server, registry) = server_with_metrics();
        let addr = server.addr().to_string();
        let before = scrape_once(&addr).unwrap();
        assert!(before.contains("scrape_test_total 3\n"));
        registry.counter("scrape_test_total").add(2);
        let after = scrape_once(&addr).unwrap();
        assert!(after.contains("scrape_test_total 5\n"), "{after}");
    }

    #[test]
    fn wrong_path_is_404_and_wrong_method_is_405() {
        let (server, _registry) = server_with_metrics();
        let addr = server.addr();
        let request = |line: &str| -> String {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(format!("{line}\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut raw = String::new();
            stream.read_to_string(&mut raw).unwrap();
            raw.lines().next().unwrap_or_default().to_string()
        };
        assert!(request("GET /nope HTTP/1.1").contains("404"));
        assert!(request("POST /metrics HTTP/1.1").contains("405"));
    }

    #[test]
    fn half_open_server_times_out_instead_of_hanging() {
        // A listener that accepts connections and then never writes a
        // byte — the pathological peer that used to hang scrape_once
        // (and with it `evsim top`) forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let wedged = std::thread::spawn(move || {
            // Hold every accepted connection open, reading nothing and
            // writing nothing, until the test ends.
            let mut held = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                held.push(stream);
                if !held.is_empty() {
                    std::thread::sleep(Duration::from_millis(500));
                    break;
                }
            }
            drop(held);
        });
        let t0 = std::time::Instant::now();
        let result = scrape_once_with_timeout(&addr.to_string(), Duration::from_millis(100));
        let elapsed = t0.elapsed();
        match result {
            Err(ScrapeError::Timeout(_)) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(2),
            "scrape returned promptly, took {elapsed:?}"
        );
        let _ = wedged.join();
    }

    #[test]
    fn connect_to_unresolvable_or_dead_addr_is_a_connect_error() {
        match scrape_once_with_timeout("definitely-not-a-host-zz:1", Duration::from_millis(200)) {
            Err(ScrapeError::Connect(_)) => {}
            other => panic!("expected Connect, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_unbinds_the_port() {
        let (mut server, _registry) = server_with_metrics();
        let addr = server.addr().to_string();
        server.shutdown();
        server.shutdown();
        assert!(
            scrape_once(&addr).is_err(),
            "server must stop answering after shutdown"
        );
    }
}

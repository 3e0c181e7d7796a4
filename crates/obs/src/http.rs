//! Minimal blocking HTTP/1.1 observability server.
//!
//! A vendored-style server over [`std::net`] — no dependencies, no
//! async runtime: one accept thread, one short-lived thread per
//! connection, and a bounded in-flight connection count (the "accept
//! queue") past which new connections get an immediate `503` instead
//! of piling onto the box. That shape is deliberately boring: the
//! observability plane must stay up and cheap precisely when the
//! service is struggling, which is when a clever server would be
//! competing with the datapath for cores.
//!
//! Routes are supplied as boxed closures ([`ObsRoutes`]), not engine
//! types, so this crate never depends on `vr-engine`:
//!
//! | Route            | Content-Type                          | Body |
//! |------------------|---------------------------------------|------|
//! | `/metrics`       | `text/plain; version=0.0.4`           | Prometheus exposition (`to_prometheus`) |
//! | `/healthz`       | `text/plain`                          | `ok\n` |
//! | `/snapshot.json` | `application/json`                    | full `TelemetrySnapshot` |
//! | `/traces.json`   | `application/json`                    | Chrome trace object of the tracer ring |
//!
//! Only `GET` is served (`405` otherwise); unknown paths get `404`.
//! Every response closes the connection (`Connection: close`), which
//! keeps the protocol surface to exactly what a Prometheus scraper or
//! `curl` needs.

use crate::accept::{shed_with, AcceptGate};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Maximum concurrently served connections before new ones are shed
/// with `503` (the bounded accept queue).
pub(crate) const DEFAULT_MAX_CONNECTIONS: usize = 8;

/// Per-connection socket read/write budget: a scraper that stalls past
/// this holds no thread hostage.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Upper bound on the request head (request line + headers) we will
/// buffer before giving up on a client.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Route table of the observability plane: each entry renders one
/// endpoint's body on demand. Closures run on the connection thread,
/// so they should read snapshots (a mutex bounded by ring copies), not
/// do work.
pub struct ObsRoutes {
    /// Body of `GET /metrics` (Prometheus text exposition).
    pub metrics: Box<dyn Fn() -> String + Send + Sync>,
    /// Body of `GET /snapshot.json` (telemetry snapshot JSON).
    pub snapshot: Box<dyn Fn() -> String + Send + Sync>,
    /// Body of `GET /traces.json` (Chrome trace-event JSON).
    pub traces: Box<dyn Fn() -> String + Send + Sync>,
}

struct ServerShared {
    routes: ObsRoutes,
    gate: Arc<AcceptGate>,
    stopping: Mutex<bool>,
}

/// Handle to a running observability server. Dropping the handle stops
/// the accept loop (see [`ObsServer::stop`]).
pub struct ObsServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (use port 0 to let the OS pick — tests do) and
    /// starts the accept loop with the default connection bound.
    ///
    /// # Errors
    /// Returns a description of the bind failure.
    pub fn start(addr: &str, routes: ObsRoutes) -> Result<Self, String> {
        Self::start_bounded(addr, routes, DEFAULT_MAX_CONNECTIONS)
    }

    /// [`Self::start`] with an explicit in-flight connection bound.
    ///
    /// # Errors
    /// Returns a description of the bind failure.
    pub fn start_bounded(
        addr: &str,
        routes: ObsRoutes,
        max_connections: usize,
    ) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let shared = Arc::new(ServerShared {
            routes,
            gate: AcceptGate::new(max_connections),
            stopping: Mutex::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("vr-obs-http".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .map_err(|e| format!("spawn accept thread: {e}"))?;
        Ok(Self {
            addr: local,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the OS-chosen port when bound to `:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins its thread. In-flight
    /// connection threads finish their one response and exit.
    pub fn stop(&mut self) {
        let Some(handle) = self.accept_thread.take() else {
            return;
        };
        *self.shared.stopping.lock() = true;
        // The accept loop is blocked in accept(); poke it awake with a
        // throwaway connection so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr)
            .field("max_connections", &self.shared.gate.max_connections())
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // Accept errors are transient (EMFILE, aborted handshake);
            // only a stop request ends the loop.
            if *shared.stopping.lock() {
                return;
            }
            continue;
        };
        if *shared.stopping.lock() {
            return;
        }
        let Some(permit) = shared.gate.try_admit() else {
            // Immediate 503 for connections past the bound — cheaper
            // than queueing them, and an honest signal to the scraper.
            // The shared helper half-closes and drains so the 503
            // survives long enough to be read.
            shed_with(
                stream,
                b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
                IO_TIMEOUT,
            );
            continue;
        };
        let conn_shared = Arc::clone(shared);
        // The permit rides into the connection thread and frees its
        // admission slot on drop (spawn failure included).
        let _ = std::thread::Builder::new()
            .name("vr-obs-conn".into())
            .spawn(move || {
                let _permit = permit;
                serve_connection(stream, &conn_shared);
            });
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Arc<ServerShared>) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some((method, path)) = read_request_head(&mut stream) else {
        let _ = write_response(&mut stream, 400, "text/plain", "bad request\n");
        return;
    };
    if method != "GET" {
        let _ = write_response(&mut stream, 405, "text/plain", "method not allowed\n");
        return;
    }
    // Ignore any query string: `/metrics?x=1` is still `/metrics`.
    let path = path.split('?').next().unwrap_or(&path).to_string();
    let (status, content_type, body) = match path.as_str() {
        "/metrics" => (200, "text/plain; version=0.0.4", (shared.routes.metrics)()),
        "/healthz" => (200, "text/plain", "ok\n".to_string()),
        "/snapshot.json" => (200, "application/json", (shared.routes.snapshot)()),
        "/traces.json" => (200, "application/json", (shared.routes.traces)()),
        _ => (404, "text/plain", "not found\n".to_string()),
    };
    let _ = write_response(&mut stream, status, content_type, &body);
}

/// Reads until the blank line ending the request head and returns
/// `(method, path)` from the request line. Returns `None` on malformed
/// or oversized requests.
fn read_request_head(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf).ok()?;
        if n == 0 {
            return None;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_REQUEST_BYTES {
            return None;
        }
    }
    let text = String::from_utf8_lossy(&head);
    let request_line = text.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    // The third token must look like an HTTP version.
    if !parts.next()?.starts_with("HTTP/") {
        return None;
    }
    Some((method, path))
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Service Unavailable",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_routes() -> ObsRoutes {
        ObsRoutes {
            metrics: Box::new(|| "# TYPE vr_up gauge\nvr_up 1\n".to_string()),
            snapshot: Box::new(|| "{\"counters\": []}".to_string()),
            traces: Box::new(|| "{\"traceEvents\": []}".to_string()),
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        request(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    fn request(addr: SocketAddr, raw: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        // Tolerate a mid-read reset (a raced shed) and keep whatever
        // arrived; callers polling for a status simply retry.
        let mut bytes = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => bytes.extend_from_slice(&buf[..n]),
            }
        }
        let response = String::from_utf8_lossy(&bytes).into_owned();
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let (head, body) = response.split_once("\r\n\r\n").unwrap_or(("", ""));
        (status, head.to_string(), body.to_string())
    }

    #[test]
    fn routes_serve_their_bodies_with_content_types() {
        let server = ObsServer::start("127.0.0.1:0", test_routes()).unwrap();
        let addr = server.addr();

        let (status, head, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("vr_up 1"));

        let (status, _, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, head, body) = get(addr, "/snapshot.json");
        assert_eq!(status, 200);
        assert!(head.contains("application/json"));
        assert!(body.contains("counters"));

        let (status, _, body) = get(addr, "/traces.json");
        assert_eq!(status, 200);
        assert!(body.contains("traceEvents"));

        // Only the four routes above are served.
        let (status, _, _) = get(addr, "/flight");
        assert_eq!(status, 404);

        // Query strings are ignored, unknown paths 404, non-GET 405.
        let (status, _, _) = get(addr, "/metrics?scrape=1");
        assert_eq!(status, 200);
        let (status, _, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        let (status, _, _) = request(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 405);
    }

    #[test]
    fn content_length_matches_body() {
        let server = ObsServer::start("127.0.0.1:0", test_routes()).unwrap();
        let (_, head, body) = get(server.addr(), "/metrics");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
    }

    #[test]
    fn malformed_requests_get_400() {
        let server = ObsServer::start("127.0.0.1:0", test_routes()).unwrap();
        let (status, _, _) = request(server.addr(), "GARBAGE\r\n\r\n");
        assert_eq!(status, 400);
    }

    #[test]
    fn connection_bound_sheds_with_503() {
        // One admitted connection at a time; hold it open while a
        // second one arrives — the second must be shed immediately.
        // Admission and slot release happen on server threads, so both
        // phases poll with a bounded retry instead of a fixed sleep
        // (a loaded CI box can delay either far past any one sleep).
        let server = ObsServer::start_bounded("127.0.0.1:0", test_routes(), 1).unwrap();
        let addr = server.addr();
        let held = TcpStream::connect(addr).unwrap();
        // Until the accept thread admits the held connection (it sends
        // no bytes, so its thread then blocks in read), probes may
        // still see 200; once admitted, they must see 503.
        let mut shed = false;
        for _ in 0..100 {
            let (status, _, _) = get(addr, "/healthz");
            if status == 503 {
                shed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(shed, "second connection past the bound was never shed");
        drop(held);
        // The held slot frees once its read errors on close; a fresh
        // request must eventually succeed again.
        let mut recovered = false;
        for _ in 0..100 {
            let (status, _, _) = get(addr, "/healthz");
            if status == 200 {
                recovered = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            recovered,
            "slot never freed after the held connection closed"
        );
    }

    #[test]
    fn stop_terminates_the_accept_loop() {
        let mut server = ObsServer::start("127.0.0.1:0", test_routes()).unwrap();
        let addr = server.addr();
        server.stop();
        // Idempotent.
        server.stop();
        // After stop, connections are refused or never served.
        let refused = TcpStream::connect(addr)
            .map(|mut s| {
                let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
                let mut out = String::new();
                let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
                let _ = s.read_to_string(&mut out);
                out.is_empty()
            })
            .unwrap_or(true);
        assert!(refused, "stopped server must not serve");
    }
}

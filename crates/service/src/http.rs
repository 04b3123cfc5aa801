//! A tiny std-only HTTP/1.1 listener serving `/metrics` and `/healthz`.
//!
//! This is deliberately *not* a web framework: one accept loop, blocking
//! per-request handling (a scrape is a single small response), two routes,
//! and graceful shutdown. It exists so a Prometheus scraper (or `curl`) can
//! reach the service without any non-std dependency.

use cpq_check::sync::atomic::{AtomicBool, Ordering};
use cpq_check::sync::Arc;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running metrics endpoint; dropping it stops the listener.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves:
    ///
    /// * `GET /metrics` — `render()` output as
    ///   `text/plain; version=0.0.4` (the Prometheus exposition type);
    /// * `GET /healthz` — `ok`;
    /// * anything else — `404`.
    ///
    /// The accept loop runs on one background thread; `render` is invoked
    /// per scrape, so bridged gauges are refreshed on demand.
    pub fn start<A, F>(addr: A, render: F) -> io::Result<Self>
    where
        A: ToSocketAddrs,
        F: Fn() -> String + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept + sleep keeps shutdown latency bounded
        // without platform-specific listener wakeups.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("cpq-metrics-http".into())
                .spawn(move || {
                    // ordering: Acquire — pairs with the Release store in
                    // `shutdown`, the standard lifecycle-flag convention, so
                    // everything written before the stop request is visible
                    // to the loop's final iteration.
                    while !stop.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                // Per-connection errors (client hung up
                                // mid-request) must not kill the listener.
                                let _ = handle_connection(stream, &render);
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                // analyze: allow(panic-path) — poll backoff for the
                                // non-blocking accept loop; bounds shutdown
                                // latency without platform wakeup APIs.
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            // analyze: allow(panic-path) — same backoff as above.
                            Err(_) => std::thread::sleep(Duration::from_millis(5)),
                        }
                    }
                })
                // analyze: allow(panic-path) — spawning the one listener thread at
                // startup; if the OS refuses, the server cannot exist.
                .expect("spawn metrics http thread")
        };
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // ordering: Release — pairs with the Acquire load in the accept
        // loop (lifecycle-flag convention). Upgraded from Relaxed: the
        // join below already synchronized, but the flag should not depend
        // on that for correctness.
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Most bytes read from one connection (request line plus headers). The
/// single accept thread serves connections one at a time, so what a client
/// can make it buffer has to be bounded.
const MAX_REQUEST_BYTES: u64 = 8 * 1024;

fn handle_connection<F: Fn() -> String>(stream: TcpStream, render: &F) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?.take(MAX_REQUEST_BYTES));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers; the routes take no body. A read of 0 is the client's
    // EOF or the byte limit; only the latter leaves the limit spent.
    let mut line = String::new();
    let headers_ended = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break false;
        }
        if line == "\r\n" || line == "\n" {
            break true;
        }
    };
    let too_large = !headers_ended && reader.get_ref().limit() == 0;
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = match (method, path) {
        _ if too_large => (
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            "request too large\n".to_string(),
        ),
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render(),
        ),
        ("GET", "/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    let mut stream = reader.into_inner().into_inner();
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn routes() {
        let server =
            MetricsServer::start("127.0.0.1:0", || "# TYPE x counter\nx 1\n".to_string()).unwrap();
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("version=0.0.4"));
        assert_eq!(body, "# TYPE x counter\nx 1\n");

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert_eq!(body, "ok\n");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.stop();
    }

    #[test]
    fn oversized_request_is_refused_and_the_listener_survives() {
        let server = MetricsServer::start("127.0.0.1:0", String::new).unwrap();
        let addr = server.addr();

        // 64 KiB and never a newline. The server stops reading at its
        // limit and closes with our bytes unread, so the write may fail
        // with a reset, and the read may end with one after the response.
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = stream.write_all(&[b'a'; 64 * 1024]);
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let raw = String::from_utf8_lossy(&raw);
        assert!(raw.starts_with("HTTP/1.1 431"), "{raw}");

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        server.stop();
    }
}

//! A small blocking client for the gt-serve wire protocol.
//!
//! The request/reply helpers ([`Client::send`], [`Client::eval`], …)
//! keep one request in flight: write a line, read a line.  For
//! pipelining, [`Client::write_request`] and [`Client::read_response`]
//! split the two halves so several requests can be outstanding on one
//! connection; replies then arrive in *completion* order and must be
//! correlated by the echoed `id`.  Used by the load generator, the
//! e2e tests, and the CLI.

use crate::protocol::{Op, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A connected client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn invalid<E: std::fmt::Display>(e: E) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

impl Client {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Write a raw request line without waiting for its reply.  The
    /// line and its newline go out in one `write` call, so a NODELAY
    /// socket sends one segment, not two.
    pub fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    /// Write a request without waiting for its reply (pipelining).
    /// Give each request an `id`: replies to pipelined requests come
    /// back in completion order, not send order.
    pub fn write_request(&mut self, request: &Request) -> std::io::Result<()> {
        self.write_line(&request.render())
    }

    /// Read the next reply line, whichever request it answers.
    pub fn read_response(&mut self) -> std::io::Result<Response> {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::parse(reply.trim()).map_err(invalid)
    }

    /// Send a raw request line and read one reply line.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<Response> {
        self.write_line(line)?;
        self.read_response()
    }

    /// Send a parsed request.
    pub fn send(&mut self, request: &Request) -> std::io::Result<Response> {
        self.send_line(&request.render())
    }

    /// Evaluate `spec` with `algo` (optional deadline in ms).
    pub fn eval(
        &mut self,
        spec: &str,
        algo: &str,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<Response> {
        self.send(&Request::eval(spec, algo, deadline_ms))
    }

    /// Evaluate one subtree of `spec` under an α/β window (the
    /// scatter half of a split plan).  `path` is dot-joined child
    /// indices; pass `i64::MIN`/`i64::MAX` for an unbounded side.
    pub fn subeval(
        &mut self,
        spec: &str,
        path: &str,
        alpha: i64,
        beta: i64,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<Response> {
        self.send(&Request::subeval(spec, path, alpha, beta, deadline_ms))
    }

    fn control(&mut self, op: Op) -> std::io::Result<Response> {
        self.send(&Request {
            op,
            ..Default::default()
        })
    }

    /// Fetch the server's metrics snapshot (in the reply's `stats`
    /// field).
    pub fn stats(&mut self) -> std::io::Result<Response> {
        self.control(Op::Stats)
    }

    /// Liveness/version probe.
    pub fn ping(&mut self) -> std::io::Result<Response> {
        self.control(Op::Ping)
    }

    /// Cheap liveness probe: uptime, queue depth, and in-flight count
    /// without the cost of a full `stats` snapshot.
    pub fn health(&mut self) -> std::io::Result<Response> {
        self.control(Op::Health)
    }

    /// Ask the server to drain and exit.
    pub fn shutdown_server(&mut self) -> std::io::Result<Response> {
        self.control(Op::Shutdown)
    }
}

//! The benchmark's own NDJSON client: one blocking TCP connection,
//! one request line out, one reply line back.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A reply not back within this long counts as a failure.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Send one line (the newline is appended here).
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Send `line` and wait for the reply; returns it with the time
    /// from just before the send to just after the reply's newline.
    pub fn call(&mut self, line: &str) -> io::Result<(String, Duration)> {
        let start = Instant::now();
        self.send_line(line)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let elapsed = start.elapsed();
        Ok((self.line.trim_end().to_string(), elapsed))
    }
}

//! Spawning and stopping the program's processes: `gtree serve`
//! replicas and the `gtree route` front tier, each on an ephemeral
//! loopback port read back from its startup banner.

use crate::client::Conn;
use crate::closed_loop::{Reply, Tally};
use crate::gen::{Stream, Workload};
use crate::json::Json;
use crate::procfs::{self, ProcSample, Rusage};
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// One running program process.  Dropping it without [`Program::stop`]
/// kills and reaps it, so an early return leaves no process behind.
pub struct Program {
    child: Option<Child>,
    pub addr: String,
    drain: Option<thread::JoinHandle<()>>,
}

impl Program {
    /// Start `gtree <args> --addr 127.0.0.1:0` and wait for its banner.
    pub fn spawn(bin: &Path, args: &[&str]) -> io::Result<Program> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut banner = String::new();
        stderr.read_line(&mut banner)?;
        let addr = banner
            .split_whitespace()
            .skip_while(|w| *w != "on")
            .nth(1)
            .map(str::to_string);
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "no listening banner from {}: {banner:?}",
                bin.display()
            )));
        };
        // Keep the pipe drained so a chatty process never blocks on it.
        let drain = thread::spawn(move || {
            let _ = io::copy(&mut stderr, &mut io::sink());
        });
        Ok(Program {
            child: Some(child),
            addr,
            drain: Some(drain),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running until stopped").id()
    }

    pub fn sample(&self) -> io::Result<ProcSample> {
        ProcSample::read(self.pid())
    }

    pub fn peak_rss_kb(&self) -> io::Result<u64> {
        procfs::peak_rss_kb(self.pid())
    }

    /// Ask the process to drain and exit, then reap it.  Falls back to
    /// a kill if it is still running after a grace period.
    pub fn stop(mut self) -> io::Result<Rusage> {
        if let Ok(mut c) = Conn::connect(&self.addr) {
            let _ = c.send_line("{\"op\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let exited = loop {
            // Peek without reaping: the exit accounting needs wait4.
            if exited_zombie(self.pid()) {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            thread::sleep(Duration::from_millis(2));
        };
        let mut child = self.child.take().expect("running until stopped");
        if !exited {
            let _ = child.kill();
        }
        let ru = procfs::reap(child);
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        ru
    }
}

impl Drop for Program {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// True once the process has exited and waits to be reaped.
fn exited_zombie(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => stat
            .rfind(')')
            .and_then(|i| stat[i + 1..].split_whitespace().next())
            .is_some_and(|s| s == "Z" || s == "X"),
        Err(_) => true,
    }
}

/// The processes serving one workload: one replica, or two replicas
/// behind a splitting router.
pub struct Fleet {
    pub replicas: Vec<Program>,
    pub router: Option<Program>,
}

/// Split threshold for the router: `minmax:d=4,n=8` (4^8 leaves)
/// splits, and so does each eldest-chain level down to 4^6.
pub const SPLIT_COST: &str = "4096";

impl Fleet {
    /// The processes `workload` runs against.
    pub fn start(bin: &Path, workload: Workload) -> Result<Fleet, String> {
        match workload {
            Workload::Split => Fleet::split(bin),
            Workload::Hot | Workload::Cold => Fleet::single(bin),
        }
        .map_err(|e| format!("starting the program: {e}"))
    }

    /// Send the workload's warm-up requests on one connection, noting
    /// each value in `seen`.
    pub fn warm(&self, stream: &Stream, seen: &mut Tally) -> Result<(), String> {
        let mut conn = Conn::connect(self.entry()).map_err(|e| e.to_string())?;
        for req in stream.warmup() {
            let (line, _) = conn.call(&req.line).map_err(|e| format!("warm-up: {e}"))?;
            match Reply::read(&line).value {
                Some(v) => seen.note(&req.spec, v),
                None => return Err(format!("warm-up request failed: {line}")),
            }
        }
        Ok(())
    }

    /// One `gtree serve` with default settings.
    pub fn single(bin: &Path) -> io::Result<Fleet> {
        Ok(Fleet {
            replicas: vec![Program::spawn(bin, &["serve"])?],
            router: None,
        })
    }

    /// Two default replicas behind `gtree route --split-cost 4096`;
    /// returns once the router reports both replicas routable.
    pub fn split(bin: &Path) -> io::Result<Fleet> {
        let a = Program::spawn(bin, &["serve"])?;
        let b = Program::spawn(bin, &["serve"])?;
        let router = Program::spawn(
            bin,
            &[
                "route",
                "--replicas",
                &a.addr,
                "--replicas",
                &b.addr,
                "--split-cost",
                SPLIT_COST,
            ],
        )?;
        let fleet = Fleet {
            replicas: vec![a, b],
            router: Some(router),
        };
        fleet.await_routable(2)?;
        Ok(fleet)
    }

    fn await_routable(&self, want: i64) -> io::Result<()> {
        let router = self.router.as_ref().expect("split fleet has a router");
        let mut conn = Conn::connect(&router.addr)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let reply = conn.call("{\"op\":\"health\"}")?.0;
            let routable = Json::parse(&reply)
                .ok()
                .and_then(|j| j.get("routable").and_then(Json::as_i64));
            if routable == Some(want) {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other(format!("router never routable: {reply}")));
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Where clients connect.
    pub fn entry(&self) -> &str {
        match &self.router {
            Some(r) => &r.addr,
            None => &self.replicas[0].addr,
        }
    }

    pub fn programs(&self) -> impl Iterator<Item = &Program> {
        self.replicas.iter().chain(self.router.iter())
    }

    /// Whole-process counters of every program process, in
    /// [`Fleet::programs`] order.
    pub fn sample(&self) -> io::Result<Vec<ProcSample>> {
        self.programs().map(Program::sample).collect()
    }

    pub fn peak_rss_kb(&self) -> io::Result<u64> {
        self.programs().map(Program::peak_rss_kb).sum()
    }

    /// The router's `stats` object (split fleets only).
    pub fn router_stats(&self) -> io::Result<Json> {
        let router = self.router.as_ref().expect("split fleet has a router");
        let reply = Conn::connect(&router.addr)?.call("{\"op\":\"stats\"}")?.0;
        Json::parse(&reply)
            .ok()
            .and_then(|j| j.get("stats").cloned())
            .ok_or_else(|| io::Error::other(format!("bad router stats: {reply}")))
    }

    /// Stop the router first, then the replicas; returns each process's
    /// whole-life accounting in [`Fleet::programs`] order.  Every
    /// process is stopped even when one of them fails to.
    pub fn stop(self) -> io::Result<Vec<Rusage>> {
        let router = self.router.map(Program::stop);
        let mut out: Vec<io::Result<Rusage>> =
            self.replicas.into_iter().map(Program::stop).collect();
        out.extend(router);
        out.into_iter().collect()
    }
}

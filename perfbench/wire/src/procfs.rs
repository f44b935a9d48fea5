//! Resource counters of the program's processes, read from outside.
//!
//! CPU time (`/proc/PID/stat`) and read/write syscall counts
//! (`/proc/PID/io`) are whole-process figures that keep the share of
//! threads that already exited, so a delta over a window counts
//! short-lived threads (the rayon stand-in spawns one per `join`).
//! Context switches are only exported per task in `/proc`, where an
//! exited thread's count vanishes; they are taken from the `wait4`
//! accounting of the reaped process instead, which sums every thread
//! it ever had.  The tests show the difference.

use std::fs;
use std::io;
use std::process::Child;

/// Whole-process counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// User + system CPU, in clock ticks.
    pub cpu_ticks: u64,
    /// `read`-family syscalls.
    pub syscr: u64,
    /// `write`-family syscalls.
    pub syscw: u64,
}

impl ProcSample {
    pub fn read(pid: u32) -> io::Result<ProcSample> {
        let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
        let io_text = fs::read_to_string(format!("/proc/{pid}/io"))?;
        Ok(ProcSample {
            cpu_ticks: parse_stat_cpu(&stat)?,
            syscr: field(&io_text, "syscr:")?,
            syscw: field(&io_text, "syscw:")?,
        })
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ticks: self.cpu_ticks.saturating_sub(earlier.cpu_ticks),
            syscr: self.syscr.saturating_sub(earlier.syscr),
            syscw: self.syscw.saturating_sub(earlier.syscw),
        }
    }

    pub fn cpu_us(&self) -> f64 {
        self.cpu_ticks as f64 * 1e6 / clock_ticks_per_sec() as f64
    }
}

/// utime + stime: fields 14 and 15, counted after the `(comm)` field,
/// which may itself hold spaces or parentheses.
fn parse_stat_cpu(stat: &str) -> io::Result<u64> {
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or_else(|| bad("no comm in stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime is field 14.
    let num = |k: usize| -> io::Result<u64> {
        fields
            .get(k - 3)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("short stat"))
    };
    Ok(num(14)? + num(15)?)
}

fn field(text: &str, key: &str) -> io::Result<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad(key))
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Peak resident set (`VmHWM`) of a live process, in kB.
pub fn peak_rss_kb(pid: u32) -> io::Result<u64> {
    field(
        &fs::read_to_string(format!("/proc/{pid}/status"))?,
        "VmHWM:",
    )
}

/// Context switches of a reaped process over its whole life, all
/// threads included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rusage {
    pub vol_switches: u64,
    pub invol_switches: u64,
}

impl Rusage {
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            vol_switches: self.vol_switches.saturating_sub(earlier.vol_switches),
            invol_switches: self.invol_switches.saturating_sub(earlier.invol_switches),
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    extern "C" {
        pub fn sysconf(name: i32) -> i64;
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut [i64; 18]) -> i32;
    }
    pub const SC_CLK_TCK: i32 = 2;
}

/// `USER_HZ`, the unit of `/proc/PID/stat` CPU times.
pub fn clock_ticks_per_sec() -> u64 {
    // SAFETY: sysconf reads a constant and has no memory arguments.
    let hz = unsafe { sys::sysconf(sys::SC_CLK_TCK) };
    if hz > 0 {
        hz as u64
    } else {
        100
    }
}

/// Wait for `child` to exit and return its whole-life accounting.
/// The child must not have been waited for already.
pub fn reap(child: Child) -> io::Result<Rusage> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    // struct rusage on 64-bit Linux: two timevals, then 14 longs.
    let mut ru = [0i64; 18];
    loop {
        // SAFETY: `status` and `ru` are live, writable and sized for
        // the kernel's int and struct rusage; `pid` is our own child,
        // not yet reaped, and std will not wait for it again because
        // the `Child` is consumed here.
        let r = unsafe { sys::wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    drop(child);
    Ok(Rusage {
        vol_switches: ru[16] as u64,
        invol_switches: ru[17] as u64,
    })
}

/// The running kernel's release string, for run context.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Host-wide CPU time from the first line of `/proc/stat`, in ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    pub total: u64,
    pub steal: u64,
}

impl HostCpu {
    pub fn read() -> io::Result<HostCpu> {
        let text = fs::read_to_string("/proc/stat")?;
        let line = text.lines().next().ok_or_else(|| bad("empty /proc/stat"))?;
        let vals: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal (guest time
        // is already inside user/nice).
        Ok(HostCpu {
            total: vals.iter().take(8).sum(),
            steal: vals.get(7).copied().unwrap_or(0),
        })
    }

    /// Steal time as a percentage of all CPU time since `earlier`.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Command, Stdio};

    /// Voluntary switches summed over the tasks alive now: what the
    /// per-task `status` files offer, which loses exited threads.
    fn live_task_switches(pid: u32) -> u64 {
        fs::read_dir(format!("/proc/{pid}/task"))
            .unwrap()
            .filter_map(|e| fs::read_to_string(e.unwrap().path().join("status")).ok())
            .map(|text| field(&text, "voluntary_ctxt_switches:").unwrap())
            .sum()
    }

    #[test]
    fn stat_cpu_survives_odd_comm() {
        let line = "42 (a) b (c) S 1 42 42 0 -1 4194560 100 0 0 0 7 5 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat_cpu(line).unwrap(), 12);
    }

    /// Threads that start and exit inside the window still count:
    /// their writes and CPU stay in the whole-process `/proc` figures
    /// and their switches in the reaped accounting, while the per-task
    /// sum has lost them.
    #[test]
    fn deltas_keep_threads_that_exit_inside_the_window() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 100;
        let script = format!(
            "import os, sys, threading, time\n\
             def work():\n\
             \x20   fd = os.open('/dev/null', os.O_WRONLY)\n\
             \x20   for _ in range({ROUNDS}):\n\
             \x20       os.write(fd, b'x')\n\
             \x20       time.sleep(0.0005)\n\
             \x20   os.close(fd)\n\
             sys.stdin.readline()\n\
             ts = [threading.Thread(target=work) for _ in range({THREADS})]\n\
             [t.start() for t in ts]\n\
             [t.join() for t in ts]\n\
             print('done', flush=True)\n\
             sys.stdin.readline()\n"
        );
        let mut child = Command::new("python3")
            .args(["-c", &script])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("python3 runs");
        let pid = child.id();
        let mut stdin = child.stdin.take().unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());

        let before = ProcSample::read(pid).unwrap();
        let vol_before = live_task_switches(pid);
        stdin.write_all(b"go\n").unwrap();
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "done");
        let delta = ProcSample::read(pid).unwrap().since(&before);
        let vol_after = live_task_switches(pid);
        drop(stdin);
        let life = reap(child).unwrap();

        let work = THREADS * ROUNDS;
        assert!(
            delta.syscw >= work,
            "exited threads' writes kept: {delta:?}"
        );
        assert!(
            vol_after - vol_before < work,
            "per-task counters lose exited threads"
        );
        assert!(
            life.vol_switches >= work,
            "reaped accounting keeps them: {life:?}"
        );
    }

    #[test]
    fn host_cpu_reads() {
        let a = HostCpu::read().unwrap();
        let b = HostCpu::read().unwrap();
        assert!(b.total >= a.total);
        assert!(b.steal_pct_since(&a) >= 0.0);
    }
}

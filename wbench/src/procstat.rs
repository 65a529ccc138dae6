//! `/proc` readers for the OS ledger: CPU, run-queue wait, context switches
//! and memory of this process and the proclet processes it spawned.
//!
//! Two sources with different lifetimes, and the gotcha that shaped the
//! ledger: `/proc/<pid>/stat` carries *thread-group* totals that keep the
//! time of threads that already exited, while `/proc/<pid>/task/<tid>/*`
//! vanishes with its thread. Summing per-thread counters after
//! `thread::scope` returned under-reported a colocated request as 3.6 µs of
//! CPU instead of 7.1 µs. So process totals come from `stat`, and per-class
//! splits are read only while every thread is still alive (the load
//! generator parks its clients until the ledger has been read).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields. `USER_HZ`
/// is 100 on every Linux ABI; there is no libc in this build to ask.
const TICKS_PER_SECOND: u64 = 100;

/// The fields of `/proc/<pid>/stat` the ledger uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    pub ppid: u32,
    /// `utime + stime` of the thread group, waited-for children included
    /// (`cutime + cstime`), in microseconds.
    pub cpu_us: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name sits in parentheses
/// and may itself contain spaces and parentheses, so fields are counted from
/// the *last* `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // After the command: state ppid pgrp session tty tpgid flags minflt
    // cminflt majflt cmajflt utime stime cutime cstime
    let ticks: u64 = (11..=14)
        .map(|i| fields.get(i)?.parse::<u64>().ok())
        .sum::<Option<u64>>()?;
    Some(Stat {
        ppid: fields.get(1)?.parse().ok()?,
        cpu_us: ticks * (1_000_000 / TICKS_PER_SECOND),
    })
}

/// `/proc/<pid>/task/<tid>/schedstat`: nanoseconds on a CPU and nanoseconds
/// runnable but waiting for one.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_ascii_whitespace();
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// The fields of a `status` file the ledger uses (`/proc/<pid>/status` for
/// memory, `/proc/<pid>/task/<tid>/status` for context switches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    pub vm_hwm_kb: u64,
    pub vm_rss_kb: u64,
    /// Voluntary plus involuntary context switches.
    pub ctxsw: u64,
}

pub fn parse_status(text: &str) -> Status {
    let mut status = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let number = || {
            value
                .split_ascii_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        match key {
            "VmHWM" => status.vm_hwm_kb = number(),
            "VmRSS" => status.vm_rss_kb = number(),
            "voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches" => status.ctxsw += number(),
            _ => {}
        }
    }
    status
}

/// Live processes whose parent is `pid`: the proclets of a multiprocess
/// deployment, which its envelopes spawn from this process.
pub fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut children: Vec<u32> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&child| {
            fs::read_to_string(format!("/proc/{child}/stat"))
                .ok()
                .and_then(|s| parse_stat(&s))
                .is_some_and(|s| s.ppid == pid)
        })
        .collect();
    children.sort_unstable();
    children
}

/// CPU microseconds consumed so far by this process and its live children.
pub fn tree_cpu_us() -> u64 {
    let me = std::process::id();
    std::iter::once(me)
        .chain(children_of(me))
        .filter_map(|pid| fs::read_to_string(format!("/proc/{pid}/stat")).ok())
        .filter_map(|s| parse_stat(&s))
        .map(|s| s.cpu_us)
        .sum()
}

/// Which layer a thread belongs to, from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadClass {
    /// The benchmark's own client threads (`wbench-client-N`).
    Client,
    /// `weaver-transport` poller shards (`weaver-reactor-N`).
    Reactor,
    /// `weaver-transport` server worker pool (`weaver-rpc-worker-N`).
    Worker,
    Other,
}

/// Classifies a `comm` value (the kernel truncates names to 15 bytes).
pub fn classify(comm: &str) -> ThreadClass {
    let comm = comm.trim_end();
    if comm.starts_with("wbench-client") {
        ThreadClass::Client
    } else if comm.starts_with("weaver-reactor") {
        ThreadClass::Reactor
    } else if comm.starts_with("weaver-rpc-work") {
        ThreadClass::Worker
    } else {
        ThreadClass::Other
    }
}

/// Counters of one live thread.
#[derive(Debug, Clone, Copy)]
pub struct ThreadSample {
    pub pid: u32,
    pub tid: u32,
    pub class: ThreadClass,
    pub run_ns: u64,
    pub wait_ns: u64,
    pub ctxsw: u64,
}

/// One reading of the whole process tree, taken while every thread lives.
#[derive(Debug, Clone, Default)]
pub struct TreeSample {
    pub threads: Vec<ThreadSample>,
    pub rss_kb: u64,
    pub hwm_kb: u64,
}

impl TreeSample {
    /// Nanoseconds on a CPU, all live threads together.
    pub fn run_ns(&self) -> u64 {
        self.threads.iter().map(|t| t.run_ns).sum()
    }

    pub fn read() -> TreeSample {
        let me = std::process::id();
        let mut sample = TreeSample::default();
        for pid in std::iter::once(me).chain(children_of(me)) {
            if let Ok(text) = fs::read_to_string(format!("/proc/{pid}/status")) {
                let status = parse_status(&text);
                sample.rss_kb += status.vm_rss_kb;
                sample.hwm_kb += status.vm_hwm_kb;
            }
            let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
                continue;
            };
            for tid in tasks
                .flatten()
                .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
            {
                let dir = format!("/proc/{pid}/task/{tid}");
                let read = |file: &str| fs::read_to_string(format!("{dir}/{file}")).ok();
                // A thread may exit between the listing and the reads.
                let (Some(comm), Some(sched), Some(status)) =
                    (read("comm"), read("schedstat"), read("status"))
                else {
                    continue;
                };
                let Some((run_ns, wait_ns)) = parse_schedstat(&sched) else {
                    continue;
                };
                sample.threads.push(ThreadSample {
                    pid,
                    tid,
                    class: classify(&comm),
                    run_ns,
                    wait_ns,
                    ctxsw: parse_status(&status).ctxsw,
                });
            }
        }
        sample
    }
}

/// What each class of thread did between two readings.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassDelta {
    pub run_us: f64,
    pub wait_us: f64,
}

#[derive(Debug, Clone, Default)]
pub struct TreeDelta {
    pub client: ClassDelta,
    pub reactor: ClassDelta,
    pub worker: ClassDelta,
    pub other: ClassDelta,
    /// CPU of every thread outside this process (the proclets), whatever
    /// its class: a second cut through the same total.
    pub children_run_us: f64,
    pub ctxsw: u64,
    pub threads: usize,
    pub rss_growth_bytes: i64,
    pub hwm_mb: f64,
}

/// `end - start`, thread by thread. A thread that appeared in between
/// counts from zero; one that vanished is dropped (its time is still in the
/// `stat` totals).
pub fn tree_delta(start: &TreeSample, end: &TreeSample) -> TreeDelta {
    let me = std::process::id();
    let mut delta = TreeDelta {
        threads: end.threads.len(),
        rss_growth_bytes: (end.rss_kb as i64 - start.rss_kb as i64) * 1024,
        hwm_mb: end.hwm_kb as f64 / 1024.0,
        ..TreeDelta::default()
    };
    for t in &end.threads {
        let before = start
            .threads
            .iter()
            .find(|s| s.pid == t.pid && s.tid == t.tid);
        let (run0, wait0, ctx0) = before.map_or((0, 0, 0), |s| (s.run_ns, s.wait_ns, s.ctxsw));
        let run_us = t.run_ns.saturating_sub(run0) as f64 / 1e3;
        let wait_us = t.wait_ns.saturating_sub(wait0) as f64 / 1e3;
        let class = match t.class {
            ThreadClass::Client => &mut delta.client,
            ThreadClass::Reactor => &mut delta.reactor,
            ThreadClass::Worker => &mut delta.worker,
            ThreadClass::Other => &mut delta.other,
        };
        class.run_us += run_us;
        class.wait_us += wait_us;
        if t.pid != me {
            delta.children_run_us += run_us;
        }
        delta.ctxsw += t.ctxsw.saturating_sub(ctx0);
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_survives_spaces_and_parens_in_comm() {
        let line = "4242 (we (a) ver) x) S 17 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 50 7 3 20 0 12 0 12345 1000000 200 18446744073709551615";
        let stat = parse_stat(line).expect("parses");
        assert_eq!(stat.ppid, 17);
        // (250 + 50 + 7 + 3) ticks of 10 ms.
        assert_eq!(stat.cpu_us, 3_100_000);
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert_eq!(parse_stat("1 (x) S 0 1 1"), None);
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn schedstat_fields() {
        assert_eq!(
            parse_schedstat("123456789 4242 17\n"),
            Some((123_456_789, 4242))
        );
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn status_fields() {
        let text = "Name:\tweaver-rpc-work\nPPid:\t99\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n\
                    voluntary_ctxt_switches:\t40\nnonvoluntary_ctxt_switches:\t2\n";
        assert_eq!(
            parse_status(text),
            Status {
                vm_hwm_kb: 2048,
                vm_rss_kb: 1024,
                ctxsw: 42
            }
        );
    }

    #[test]
    fn comm_classes_use_the_truncated_names() {
        assert_eq!(classify("wbench-client-1\n"), ThreadClass::Client);
        assert_eq!(classify("weaver-reactor-\n"), ThreadClass::Reactor);
        assert_eq!(classify("weaver-rpc-work\n"), ThreadClass::Worker);
        assert_eq!(classify("weaver-manager\n"), ThreadClass::Other);
    }

    #[test]
    fn delta_counts_new_threads_from_zero_and_drops_vanished_ones() {
        let me = std::process::id();
        let thread = |tid, class, run_ns, ctxsw| ThreadSample {
            pid: me,
            tid,
            class,
            run_ns,
            wait_ns: 0,
            ctxsw,
        };
        let start = TreeSample {
            threads: vec![
                thread(1, ThreadClass::Client, 1_000, 5),
                thread(2, ThreadClass::Worker, 9_000, 1),
            ],
            rss_kb: 100,
            hwm_kb: 100,
        };
        let end = TreeSample {
            threads: vec![
                thread(1, ThreadClass::Client, 4_000, 8),
                thread(3, ThreadClass::Reactor, 2_000, 2),
            ],
            rss_kb: 104,
            hwm_kb: 2048,
        };
        let delta = tree_delta(&start, &end);
        assert_eq!(delta.client.run_us, 3.0);
        assert_eq!(delta.reactor.run_us, 2.0);
        assert_eq!(delta.worker.run_us, 0.0);
        assert_eq!(delta.ctxsw, 5);
        assert_eq!(delta.threads, 2);
        assert_eq!(delta.rss_growth_bytes, 4096);
        assert_eq!(delta.hwm_mb, 2.0);
    }

    #[test]
    fn reads_this_process() {
        let sample = TreeSample::read();
        assert!(!sample.threads.is_empty());
        assert!(sample.rss_kb > 0);
        assert!(tree_cpu_us() < u64::MAX);
    }
}

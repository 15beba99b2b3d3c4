//! Tests of the benchmark's own arithmetic: order statistics, `/proc`
//! parsing, span self time and the calibration kernel.

use picocube_simbench::calib;
use picocube_simbench::procfs::{self, parse_stat_ticks, parse_status_kib};
use picocube_simbench::stats::{median, quartiles, Summary};
use picocube_simbench::trace::{self_times, totals_by, Span, Tracer, ROOT};
use std::sync::Barrier;

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[2.0, 8.0, 4.0, 6.0]), 5.0);
    assert!(median(&[]).is_nan());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's `statistics.quantiles(data, n=4)`.
    let cases: [(&[f64], (f64, f64)); 5] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            (2.75, 8.25),
        ),
        (&[3.0, 1.0], (0.5, 3.5)),
        (&[5.0, 1.0, 3.0], (1.0, 5.0)),
        (&[2.0, 8.0, 4.0, 6.0], (2.5, 7.5)),
        (&[1.5, 2.5, 2.5, 9.0, 10.0, 0.5, 7.25], (1.5, 9.0)),
    ];
    for (data, want) in cases {
        assert_eq!(quartiles(data), want, "{data:?}");
    }
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
}

#[test]
fn summary_reports_median_quartiles_and_count() {
    let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
    let s = Summary::of(&data);
    assert_eq!((s.median, s.q1, s.q3, s.n), (5.5, 2.75, 8.25, 10));
}

#[test]
fn status_parser_reads_kib_lines_as_bytes() {
    let status =
        "Name:\tsimbench\nVmPeak:\t  200000 kB\nVmHWM:\t   13536 kB\nVmRSS:\t    9000 kB\n";
    assert_eq!(parse_status_kib(status, "VmHWM"), Some(13_536 * 1024));
    assert_eq!(parse_status_kib(status, "VmRSS"), Some(9_000 * 1024));
    assert_eq!(parse_status_kib(status, "VmSwap"), None);
    assert_eq!(parse_status_kib("VmHWM:\t  12 MB\n", "VmHWM"), None);
}

#[test]
fn stat_parser_sums_utime_and_stime_after_the_command_name() {
    // The command name may contain spaces and parentheses.
    let stat = "4242 (sim (bench) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                250 31 0 0 20 0 3 0 12345 1000000 2000 18446744073709551615";
    assert_eq!(parse_stat_ticks(stat), Some(281));
    assert_eq!(parse_stat_ticks("4242 (short) R 1 2"), None);
}

#[test]
fn live_proc_readings_are_consistent() {
    let cpu = procfs::cpu_seconds().expect("/proc/self/stat is readable");
    assert!(cpu >= 0.0);
    let rss = procfs::rss_bytes().expect("VmRSS is present");
    let peak = procfs::peak_rss_bytes().expect("VmHWM is present");
    assert!(peak >= rss);
}

fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64, worker: u32) -> Span {
    Span {
        name,
        parent,
        start_ns,
        end_ns,
        tag: 0,
        worker,
    }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    // Root 0..100; worker 1 busy 10..60, worker 2 busy 40..90 (overlap
    // 40..60); a grandchild 20..30 inside worker 1's span; a child that
    // runs past the root's end is clipped.
    let spans = [
        span("replay", ROOT, 0, 100, 0),
        span("stack.run", 0, 10, 60, 1),
        span("stack.run", 0, 40, 90, 2),
        span("mcu.run", 1, 20, 30, 1),
        span("telemetry.fold", 0, 95, 120, 1),
    ];
    let own = self_times(&spans);
    // Root: 100 - |[10,90] ∪ [95,100]| = 100 - 85.
    assert_eq!(own, vec![15, 40, 50, 10, 25]);
    let layers = totals_by(&spans, &own, Span::layer);
    assert_eq!(layers.get("stack"), Some(&(90, 2)));
    assert_eq!(layers.get("mcu"), Some(&(10, 1)));
}

#[test]
fn self_time_of_spans_recorded_by_two_workers() {
    let mut tracer = Tracer::new();
    let root = tracer.open("replay", ROOT, 0);
    // Both workers are inside their spans while they wait on the barrier,
    // so the two children overlap by construction.
    let barrier = Barrier::new(2);
    let locals: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=2u32)
            .map(|w| {
                let mut local = tracer.worker(w);
                let barrier = &barrier;
                scope.spawn(move || {
                    local.record("stack.run", root, u64::from(w), || {
                        barrier.wait();
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    });
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker finishes"))
            .collect()
    });
    for local in locals {
        tracer.absorb(local);
    }
    tracer.close(root);
    let spans = tracer.spans();
    let own = self_times(spans);
    let children: Vec<&Span> = spans.iter().filter(|s| s.parent == root).collect();
    assert_eq!(children.len(), 2);
    let (a, b) = (children[0], children[1]);
    assert!(
        a.start_ns < b.end_ns && b.start_ns < a.end_ns,
        "children overlap"
    );
    let union = a.end_ns.max(b.end_ns) - a.start_ns.min(b.start_ns);
    assert!(union < a.duration_ns() + b.duration_ns());
    assert_eq!(
        own[root as usize],
        spans[root as usize].duration_ns() - union
    );
    for (s, &o) in spans.iter().zip(&own).skip(1) {
        assert_eq!(o, s.duration_ns(), "leaf spans are all self time");
    }
}

#[test]
fn calibration_work_is_pinned() {
    // The end-to-end figures are scaled by this kernel's time, so its work
    // must not change unnoticed: a new checksum means new figures.
    assert_eq!(calib::checksum(100_000, 7), 13_911_069_317_537_598_960);
    assert_eq!(calib::checksum(100_000, 7), calib::checksum(100_000, 7));
    assert_ne!(calib::checksum(100_000, 7), calib::checksum(100_000, 8));
}

//! The scheduler's rules, one test each. The pool is process-global and
//! serves one region at a time, so the tests take turns; every wait is a
//! rendezvous on an atomic with a deadline, never a sleep.

use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Yields until `ready()`; a scheduler that cannot get there is a
/// failure, not a hang.
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

#[test]
fn nested_regions_run_inline_on_every_participant() {
    let _turn = turn();
    let outer: Vec<usize> = (0..8).collect();
    let (in_flight, high_water, hops) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    outer.par_iter().for_each(|_| {
        high_water.fetch_max(in_flight.fetch_add(1, SeqCst) + 1, SeqCst);
        if threads() >= 2 {
            // Hold every early item until a second thread is inside the
            // outer region, so the nested regions below open while all
            // threads are busy with outer items.
            wait_until("two outer items are in flight", || {
                high_water.load(SeqCst) >= 2
            });
        }
        let owner = std::thread::current().id();
        let mut buf = vec![0u32; 64 * 1024];
        buf.par_chunks_mut(1024).for_each(|chunk| {
            if std::thread::current().id() != owner {
                hops.fetch_add(1, SeqCst);
            }
            chunk.fill(7);
        });
        assert!(buf.iter().all(|&x| x == 7));
        in_flight.fetch_sub(1, SeqCst);
    });
    assert_eq!(
        hops.load(SeqCst),
        0,
        "a nested chunk ran on another thread than its outer item"
    );
    assert_eq!(in_flight.load(SeqCst), 0);
}

#[test]
fn lone_item_may_still_fork() {
    let _turn = turn();
    if threads() < 2 {
        return;
    }
    // A one-item region is not a region: the nested call below gets the
    // pool, which this rendezvous needs a second thread to pass.
    let one = [()];
    one.par_iter().for_each(|()| {
        let seen = Mutex::new(HashSet::new());
        [(); 4].par_iter().for_each(|()| {
            seen.lock().unwrap().insert(std::thread::current().id());
            wait_until("a worker joins the nested region", || {
                seen.lock().unwrap().len() >= 2
            });
        });
    });
}

#[test]
fn busy_pool_runs_the_second_caller_inline() {
    let _turn = turn();
    let (a_open, b_done) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        // A holds the pool (caller and workers alike) until B is done.
        let a = s.spawn(|| {
            let items: Vec<usize> = (0..4).collect();
            let out: Vec<usize> = items
                .par_iter()
                .map(|&i| {
                    a_open.store(true, SeqCst);
                    wait_until("the other caller's region completes", || {
                        b_done.load(SeqCst)
                    });
                    i * 2
                })
                .collect();
            out
        });
        let b = s.spawn(|| {
            wait_until("the first caller's region is open", || {
                a_open.load(SeqCst)
            });
            let items: Vec<usize> = (0..1000).collect();
            let out: Vec<usize> = items.par_iter().map(|&i| i + 1).collect();
            b_done.store(true, SeqCst);
            out
        });
        assert_eq!(a.join().expect("caller A"), [0, 2, 4, 6]);
        let expected: Vec<usize> = (1..=1000).collect();
        assert_eq!(b.join().expect("caller B"), expected);
    });
}

#[test]
fn panicking_grain_keeps_its_payload_and_the_pool() {
    let _turn = turn();
    let items: Vec<usize> = (0..256).collect();
    let payload = std::panic::catch_unwind(|| {
        items.par_iter().for_each(|&i| {
            if i == 200 {
                panic!("grain {i} exploded");
            }
        });
    })
    .expect_err("the panic must reach the caller");
    let msg = payload
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert_eq!(msg, "grain 200 exploded");

    // The lease was released and the workers are alive: the next region
    // is served by more than its caller, and is complete.
    let seen = Mutex::new(HashSet::new());
    let sum = AtomicUsize::new(0);
    items.par_iter().for_each(|&i| {
        sum.fetch_add(i, SeqCst);
        seen.lock().unwrap().insert(std::thread::current().id());
        if threads() >= 2 && i == 0 {
            wait_until("a worker joins the region after the panic", || {
                seen.lock().unwrap().len() >= 2
            });
        }
    });
    assert_eq!(sum.load(SeqCst), 255 * 256 / 2);
}

#[test]
fn collect_keeps_input_order_under_uneven_costs() {
    let _turn = turn();
    let cost = |i: usize| (0..(i % 13) * 2000).fold(i as u64, |a, k| a.wrapping_mul(31) ^ k as u64);
    let items: Vec<usize> = (0..503).collect();
    let serial: Vec<u64> = items.iter().map(|&i| cost(i)).collect();
    let parallel: Vec<u64> = items.par_iter().map(|&i| cost(i)).collect();
    assert_eq!(parallel, serial);
}

//! Offline drop-in stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the parallel-iterator surface it actually uses:
//! `par_iter` / `par_iter_mut` / `par_chunks_mut` with the `enumerate`,
//! `zip`, `map`, `for_each` and `collect` combinators.
//!
//! Every `for_each` / `collect` is one *region*: `len` items, each run
//! exactly once, and the call returns when all of them have. One
//! scheduler executes all regions, on the calling thread plus a
//! lazily-started pool of `available_parallelism() - 1` workers (none on
//! a one-CPU host: everything runs on the caller). Four rules:
//!
//! 1. **Nesting.** A thread executing its share of a region — the caller
//!    as much as a pool worker — runs any `par_*` call it makes inline.
//!    The outer region already occupies every thread, so forking again
//!    could only queue work behind it. A region of one item is not a
//!    region: its lone participant may still fork.
//! 2. **Grains.** Participants claim small index ranges from an atomic
//!    cursor until none are left, so uneven items balance themselves and
//!    a thread that arrives late (or never) costs nothing. `collect`
//!    writes each result into its own pre-sized slot.
//! 3. **Busy pool runs inline.** The workers serve one region at a time.
//!    A region opened while they serve another caller's runs inline on
//!    its own caller: no queue, nothing waits on a thread it cannot see.
//! 4. **Bounded spin.** Idle workers (and a caller waiting for the last
//!    grain) spin for 100 µs before parking, so back-to-back regions do
//!    not pay a futex wake each.
//!
//! A panicking item stops further grains from being handed out; the
//! region still drains, and the first panic payload is rethrown on the
//! caller. Which thread runs which item is unspecified, so results must
//! not (and in this workspace do not) depend on it.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Everything a caller needs in scope for the `par_*` methods.
pub mod prelude {
    pub use crate::{
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParIter, ParMap, ParallelSliceMut,
    };
}

// ---------------------------------------------------------------------
// Scheduler.
// ---------------------------------------------------------------------

thread_local! {
    /// True while this thread executes a share of a region (always, on
    /// pool workers): rule 1 turns its `par_*` calls into plain loops.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// How long an idle participant spins before it parks (rule 4).
const SPIN: Duration = Duration::from_micros(100);

/// A grain is `1 / (GRAIN_SHARE * threads)` of the items still
/// unclaimed (at least one): large while there is plenty left, so a
/// region of trivial items is not dominated by cursor traffic, and down
/// to single items at the end, so one slow item cannot idle the other
/// threads for longer than it runs.
const GRAIN_SHARE: usize = 2;

/// `Pool::gate` bit 0: the published region may still have unclaimed
/// grains, so workers may join it.
const OPEN: usize = 1;
/// `Pool::gate` bits 1..: the number of workers inside the region.
const JOINER: usize = 2;

/// One `for_each` / `collect` in flight, on its caller's stack.
struct Region<'a> {
    body: &'a (dyn Fn(usize) + Sync),
    len: usize,
    /// Next unclaimed item index; `len` once the region is exhausted.
    cursor: AtomicUsize,
    /// `GRAIN_SHARE * threads`.
    grain_div: usize,
    /// First panic payload caught in a grain.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Region<'_> {
    /// Claims and runs grains until none are left. Never unwinds.
    fn work(&self) {
        let drained = catch_unwind(AssertUnwindSafe(|| {
            let mut start = self.cursor.load(Ordering::Relaxed);
            while start < self.len {
                let end = start + ((self.len - start) / self.grain_div).max(1);
                match self.cursor.compare_exchange_weak(
                    start,
                    end,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        (start..end).for_each(self.body);
                        start = self.cursor.load(Ordering::Relaxed);
                    }
                    Err(now) => start = now,
                }
            }
        }));
        if let Err(payload) = drained {
            // Hand out nothing more; grains already claimed finish.
            self.cursor.store(self.len, Ordering::Relaxed);
            self.panic
                .lock()
                .expect("nothing panics while holding the payload slot")
                .get_or_insert(payload);
        }
    }
}

struct Pool {
    workers: usize,
    /// Held by the caller whose region the workers serve (rule 3).
    leased: AtomicBool,
    /// [`OPEN`] bit plus [`JOINER`] count. Lives here, not in the
    /// region, so a worker can try to join without touching memory that
    /// may already be gone.
    gate: AtomicUsize,
    /// The leased caller's region; valid while `gate != 0`.
    region: AtomicPtr<Region<'static>>,
    /// Workers parked on `work_ready`.
    sleepers: AtomicUsize,
    /// The leased caller is parked on `drained`.
    caller_parked: AtomicBool,
    park: Mutex<()>,
    work_ready: Condvar,
    drained: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    let pool = POOL.get_or_init(|| Pool {
        workers: std::thread::available_parallelism().map_or(0, |n| n.get() - 1),
        leased: AtomicBool::new(false),
        gate: AtomicUsize::new(0),
        region: AtomicPtr::new(std::ptr::null_mut()),
        sleepers: AtomicUsize::new(0),
        caller_parked: AtomicBool::new(false),
        park: Mutex::new(()),
        work_ready: Condvar::new(),
        drained: Condvar::new(),
    });
    static SPAWN: std::sync::Once = std::sync::Once::new();
    SPAWN.call_once(|| {
        for i in 0..pool.workers {
            // Detached on purpose: workers live as long as the process.
            std::thread::Builder::new()
                .name(format!("shim-rayon-{i}"))
                .spawn(move || pool.serve())
                .expect("spawn worker thread");
        }
    });
    pool
}

impl Pool {
    /// Worker main loop: join whatever region is open, drain it, leave.
    fn serve(&self) -> ! {
        IN_REGION.set(true);
        let mut idle_since = Instant::now();
        loop {
            let gate = self.gate.load(Ordering::Acquire);
            if gate & OPEN != 0 {
                // Acquire pairs with the SeqCst store in `run`: a
                // successful join sees the region pointer and everything
                // the caller wrote before publishing it.
                if self
                    .gate
                    .compare_exchange_weak(
                        gate,
                        gate + JOINER,
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    // SAFETY: the pointer was stored before OPEN was set,
                    // and `run` does not return (so the region and all it
                    // borrows stay alive) until the gate is back to zero,
                    // which the JOINER just added prevents.
                    let region = unsafe { &*self.region.load(Ordering::Relaxed) };
                    region.work();
                    self.leave();
                    idle_since = Instant::now();
                }
                continue;
            }
            if idle_since.elapsed() < SPIN {
                std::hint::spin_loop();
                continue;
            }
            let guard = self
                .park
                .lock()
                .expect("park lock is never held across a panic");
            // SeqCst here and on the gate store/sleepers load in `run`:
            // either this worker sees OPEN below, or the caller sees the
            // sleeper and (after this worker waits) notifies.
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            drop(
                self.work_ready
                    .wait_while(guard, |_| self.gate.load(Ordering::SeqCst) & OPEN == 0)
                    .expect("park lock is never held across a panic"),
            );
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            idle_since = Instant::now();
        }
    }

    /// A worker's exit from a drained region.
    fn leave(&self) {
        // `work` returns only once the region is exhausted: stop others
        // (and this worker's next loop turn) from re-joining it. Still
        // counted as a joiner here, so this is the same region's bit.
        self.gate.fetch_and(!OPEN, Ordering::Relaxed);
        // Release publishes the grains' writes to the caller's Acquire
        // load of a zero gate; SeqCst pairs with `caller_parked`.
        let before = self.gate.fetch_sub(JOINER, Ordering::SeqCst);
        if before == JOINER && self.caller_parked.load(Ordering::SeqCst) {
            let _guard = self
                .park
                .lock()
                .expect("park lock is never held across a panic");
            self.drained.notify_one();
        }
    }

    /// Runs `region` on the caller and every worker that shows up.
    /// Returns when every item has run and no worker is inside.
    fn run(&self, region: &Region<'_>) {
        let erased = region as *const Region<'_> as *mut Region<'static>;
        self.region.store(erased, Ordering::Relaxed);
        self.gate.store(OPEN, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self
                .park
                .lock()
                .expect("park lock is never held across a panic");
            self.work_ready.notify_all();
        }

        IN_REGION.set(true);
        region.work();
        IN_REGION.set(false);

        self.gate.fetch_and(!OPEN, Ordering::SeqCst);
        let waiting_since = Instant::now();
        while self.gate.load(Ordering::Acquire) != 0 {
            if waiting_since.elapsed() < SPIN {
                std::hint::spin_loop();
                continue;
            }
            let guard = self
                .park
                .lock()
                .expect("park lock is never held across a panic");
            self.caller_parked.store(true, Ordering::SeqCst);
            drop(
                self.drained
                    .wait_while(guard, |_| self.gate.load(Ordering::SeqCst) != 0)
                    .expect("park lock is never held across a panic"),
            );
            self.caller_parked.store(false, Ordering::Relaxed);
        }
    }
}

/// The right to put a region on the pool's workers. `None` from
/// [`Lease::acquire`] means the caller runs its region as a plain loop
/// (see [`inline`]).
struct Lease(&'static Pool);

impl Lease {
    /// Fails for a nested call (rule 1), one item or fewer, a host
    /// without workers, or a pool serving someone else (rule 3).
    fn acquire(len: usize) -> Option<Lease> {
        if len <= 1 || IN_REGION.get() {
            return None;
        }
        let pool = pool();
        let free = pool.workers > 0
            && pool
                .leased
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
        // Lazily: a `Lease` built and dropped would release one it never held.
        free.then(|| Lease(pool))
    }

    /// Runs `body(i)` once for every `i < len` and returns when all have
    /// run; rethrows the first panic of any of them.
    fn run(self, len: usize, body: &(dyn Fn(usize) + Sync)) {
        let region = Region {
            body,
            len,
            cursor: AtomicUsize::new(0),
            grain_div: GRAIN_SHARE * (self.0.workers + 1),
            panic: Mutex::new(None),
        };
        self.0.run(&region);
        let payload = region
            .panic
            .into_inner()
            .expect("nothing panics while holding the payload slot");
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.0.leased.store(false, Ordering::Release);
    }
}

/// The caller-does-it-all path of a region that got no [`Lease`]: still
/// a region share (rule 1) unless it is a single item.
fn inline<R>(len: usize, run: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_REGION.set(self.0);
        }
    }
    let _restore = Restore(IN_REGION.get());
    if len > 1 {
        IN_REGION.set(true);
    }
    run()
}

/// `len` slots of `T` that region participants move values out of
/// ([`Slots::full`]) or into ([`Slots::empty`]), each index touched by
/// exactly one participant. A value left in a slot when the `Slots` is
/// dropped (the region panicked) is leaked, never dropped twice.
struct Slots<T> {
    /// Length 0, so dropping it frees the buffer and no element.
    buf: Vec<T>,
    base: *mut T,
    len: usize,
}

// SAFETY: sharing a `Slots` only lets other threads move `T`s in and out
// (`take` / `put` are unsafe and demand disjoint indices), which is what
// `T: Send` allows.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn full(mut items: Vec<T>) -> Self {
        let len = items.len();
        // SAFETY: shrinking; the elements are now owned by the slots.
        unsafe { items.set_len(0) };
        let base = items.as_mut_ptr();
        Slots {
            buf: items,
            base,
            len,
        }
    }

    fn empty(len: usize) -> Self {
        let mut buf = Vec::with_capacity(len);
        let base = buf.as_mut_ptr();
        Slots { buf, base, len }
    }

    /// # Safety
    /// `i < len`, slot `i` holds a value, and no other call touches it.
    unsafe fn take(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        unsafe { self.base.add(i).read() }
    }

    /// # Safety
    /// `i < len`, slot `i` is vacant, and no other call touches it.
    unsafe fn put(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        unsafe { self.base.add(i).write(value) }
    }

    /// # Safety
    /// Every slot holds a value.
    unsafe fn into_vec(mut self) -> Vec<T> {
        // SAFETY: `buf` has capacity `len` and, per the contract, `len`
        // initialised elements.
        unsafe { self.buf.set_len(self.len) };
        self.buf
    }
}

// ---------------------------------------------------------------------
// Parallel iterators.
// ---------------------------------------------------------------------

/// An eager parallel iterator over already-materialised items.
pub struct ParIter<I> {
    items: Vec<I>,
}

impl<I: Send> ParIter<I> {
    /// Pairs every item with its index.
    pub fn enumerate(self) -> ParIter<(usize, I)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Zips two parallel iterators, truncating to the shorter.
    pub fn zip<J: Send>(self, other: ParIter<J>) -> ParIter<(I, J)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Applies `f` to every item.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I) + Sync,
    {
        let len = self.items.len();
        match Lease::acquire(len) {
            Some(lease) => {
                let items = Slots::full(self.items);
                // SAFETY: a region runs every index below `len` once.
                lease.run(len, &|i| f(unsafe { items.take(i) }));
            }
            None => inline(len, || self.items.into_iter().for_each(f)),
        }
    }

    /// Lazily maps items; execution happens at `collect`.
    pub fn map<O, F>(self, f: F) -> ParMap<I, F>
    where
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The result of [`ParIter::map`]; runs on `collect`.
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I: Send, F> ParMap<I, F> {
    /// Runs the map in parallel, preserving input order.
    pub fn collect<O>(self) -> Vec<O>
    where
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        let len = self.items.len();
        let f = self.f;
        match Lease::acquire(len) {
            Some(lease) => {
                let items = Slots::full(self.items);
                let results = Slots::empty(len);
                // SAFETY: a region runs every index below `len` once.
                lease.run(len, &|i| unsafe { results.put(i, f(items.take(i))) });
                // SAFETY: `run` returned, so every index was written.
                unsafe { results.into_vec() }
            }
            None => inline(len, || self.items.into_iter().map(f).collect()),
        }
    }
}

/// `par_iter` on shared slices and vectors.
pub trait IntoParallelRefIterator<'a> {
    /// The per-item reference type.
    type Item: Send;
    /// Builds the parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_iter_mut` on mutable slices and vectors.
pub trait IntoParallelRefMutIterator<'a> {
    /// The per-item mutable reference type.
    type Item: Send;
    /// Builds the parallel iterator.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_held_lease_turns_every_other_caller_down() {
        if super::pool().workers == 0 {
            return;
        }
        // Other tests of this module hold the lease now and then.
        let held = loop {
            match super::Lease::acquire(2) {
                Some(lease) => break lease,
                None => std::thread::yield_now(),
            }
        };
        // Repeatedly: a refusal must not release what it never held.
        assert!(super::Lease::acquire(2).is_none());
        assert!(super::Lease::acquire(2).is_none());
        drop(held);
    }

    #[test]
    fn for_each_visits_every_item_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1000).collect();
        items.par_iter().for_each(|&i| {
            counter.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn par_iter_mut_writes_through() {
        let mut v = vec![0usize; 257];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * 2);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn zip_pairs_in_order() {
        let mut a = vec![0u32; 100];
        let mut b: Vec<u32> = (0..100).collect();
        a.par_iter_mut()
            .zip(b.par_iter_mut())
            .for_each(|(x, y)| *x = *y + 1);
        assert!(a.iter().enumerate().all(|(i, &x)| x as usize == i + 1));
    }

    #[test]
    fn map_collect_preserves_order() {
        let items: Vec<usize> = (0..1003).collect();
        let out: Vec<usize> = items.par_iter().map(|&i| i * i).collect();
        assert_eq!(out.len(), 1003);
        assert!(out.iter().enumerate().all(|(i, &x)| x == i * i));
    }

    #[test]
    fn chunks_cover_the_slice() {
        let mut v = vec![1f32; 1000];
        v.par_chunks_mut(16).enumerate().for_each(|(blk, chunk)| {
            for x in chunk {
                *x = blk as f32;
            }
        });
        assert_eq!(v[0], 0.0);
        assert_eq!(v[999], (999 / 16) as f32);
    }

    #[test]
    #[should_panic]
    fn panics_propagate_to_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        items.par_iter().for_each(|&i| {
            assert!(i < 63, "boom");
        });
    }

    #[test]
    fn pooled_panic_keeps_its_payload() {
        // The panicking item is in the last grain, the one most likely
        // to be claimed by a worker: the payload crosses threads.
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            items.par_iter().for_each(|&i| {
                if i == 63 {
                    panic!("device 63 exploded");
                }
            });
        });
        let payload = result.expect_err("the pooled panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload is a panic message");
        assert!(
            msg.contains("device 63 exploded"),
            "payload lost its message: {msg:?}"
        );
    }
}

//! # giant-exec — the deterministic sharded execution layer
//!
//! GIANT's scaling story (ROADMAP north-star: "as fast as the hardware
//! allows", byte-deterministic) hinges on one recurring shape: a cheap
//! sequential **plan** produces independent work items, expensive workers
//! **execute** them in parallel, and an ordered **merge** rebuilds the
//! result exactly as a sequential run would have. This crate is the
//! execute-and-merge half of that contract, reused by every stage that
//! parallelizes:
//!
//! * [`run_ordered`] — map a pure function over a slice on scoped worker
//!   threads; results come back **in input order**, so downstream merging
//!   is independent of the thread count and of OS scheduling.
//!
//! ## Determinism contract
//!
//! For a pure `f`, `run_ordered(items, t, f)` returns the same `Vec` for
//! every `t ≥ 0`; `t ∈ {0, 1}` short-circuits to a plain sequential map
//! (no threads spawned). Workers claim items from a shared atomic counter
//! (work stealing — long items don't convoy short ones) and stash each
//! result in its item's slot; the merge then reads the slots in index
//! order. If `f` panics on any item the panic is re-raised on the calling
//! thread after the scope joins, never swallowed.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available hardware parallelism, detected once. Falls back
/// to 1 when detection fails (restricted environments).
pub fn hardware_threads() -> usize {
    use std::sync::OnceLock;
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Effective worker count: `0` means "one worker", there is never a reason
/// to park more workers than there are items, and — because every runner
/// in this crate drives CPU-bound work — never a reason to run more busy
/// workers than the machine has hardware threads. The clamp is what keeps
/// over-asked configurations (`threads=8` on a 2-vCPU container) from
/// *regressing* below smaller counts: oversubscribing the memory-bound
/// walk kernel buys context switches and cache thrash, not throughput
/// (measured in `BENCH_pipeline.json`, which showed 0.91× at 4 workers vs
/// 1.06× at 2 before the clamp). Determinism is unaffected: results are
/// identical at every worker count by contract.
fn effective_threads(requested: usize, n_items: usize) -> usize {
    requested
        .max(1)
        .min(n_items.max(1))
        .min(hardware_threads())
}

/// Maps `f` over `items` on `threads` scoped workers, returning results in
/// input order.
///
/// `f` receives `(item_index, &item)`. The output is identical for every
/// thread count (including `0`/`1`, which run inline without spawning).
pub fn run_ordered<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    run_ordered_scratch(items, threads, || (), |_, i, it| f(i, it))
}

/// Like [`run_ordered`], but gives every worker a private **scratch**
/// value created by `init` and reused across the items that worker
/// claims — the pattern for expensive per-worker state such as
/// pre-allocated walk buffers.
///
/// ## Determinism contract
///
/// Which items share a scratch depends on scheduling, so `f` must be
/// *observationally pure in the scratch*: its output may use the scratch
/// as workspace but must never depend on state a previous item left
/// behind. Under that contract the result equals
/// `run_ordered(items, threads, |i, it| f(&mut init(), i, it))` for every
/// thread count.
pub fn run_ordered_scratch<I, O, S, G, F>(
    items: &[I],
    threads: usize,
    init: G,
    f: F,
) -> Vec<O>
where
    I: Sync,
    O: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &I) -> O + Sync,
{
    let threads = effective_threads(threads, items.len());
    if threads <= 1 {
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, it)| f(&mut scratch, i, it))
            .collect();
    }
    let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = f(&mut scratch, i, &items[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker scope joined with an unfilled slot")
        })
        .collect()
}

/// Speculative ordered pipeline for work with a **sequential acceptance
/// dependency**: items `0..n` must be *accepted* strictly in index order
/// (acceptance may consult and update state that affects which later
/// items matter), but *producing* an item is pure and expensive — so
/// workers produce ahead of the acceptance frontier, speculatively.
///
/// * `produce(scratch, i)` runs on a worker thread; it may return `None`
///   to decline an item it can already tell is dead (e.g. by reading a
///   monotonic flag acceptance publishes). It must be pure in `i` apart
///   from that declination: a `Some` value may never depend on scratch
///   leftovers or on *when* it ran.
/// * `accept(i, result)` runs on the calling thread, in index order,
///   exactly once per item. By the monotonicity argument below it sees
///   `Some` for every item it still considers live.
/// * `lookahead` bounds speculation: a worker holding item `i` waits
///   until `i < accepted + lookahead` before producing, so wasted work
///   can't outrun the acceptance frontier by more than the window.
///
/// ## Determinism
///
/// The accepted sequence equals the sequential run's for any thread
/// count and any scheduling, provided the only cross-item communication
/// is **monotonic** (flags that only ever flip one way, set by `accept`):
/// a producer declining item `i` proves acceptance flagged `i` earlier,
/// and the flag still holds when `accept(i)` runs, so declination never
/// changes the outcome — it only skips doomed work.
pub fn run_speculative<O, S, G, P, A>(
    n: usize,
    threads: usize,
    lookahead: usize,
    init: G,
    produce: P,
    mut accept: A,
) where
    O: Send,
    G: Fn() -> S + Sync,
    P: Fn(&mut S, usize) -> Option<O> + Sync,
    A: FnMut(usize, Option<O>),
{
    let threads = effective_threads(threads, n);
    if threads <= 1 {
        let mut scratch = init();
        for i in 0..n {
            let r = produce(&mut scratch, i);
            accept(i, r);
        }
        return;
    }
    let lookahead = lookahead.max(threads);
    let ready: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let slots: Vec<Mutex<Option<Option<O>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Index of the next item acceptance will consume; also the producers'
    // stall point. Monotonically increasing.
    let frontier = AtomicUsize::new(0);
    // A panicking participant would otherwise leave the others spinning on
    // slots/frontier updates that will never come: every unwinding thread
    // raises this flag (via `SetOnDrop`), every spin loop checks it and
    // bails, the scope then joins and re-raises the original panic.
    let abort = AtomicBool::new(false);
    let fill_slot = |i: usize, scratch: &mut S| {
        let r = produce(scratch, i);
        *slots[i].lock().expect("result slot poisoned") = Some(r);
        ready[i].store(true, Ordering::Release);
    };
    // The calling thread accepts *and helps produce*, so it counts toward
    // the thread budget: spawn only `threads - 1` dedicated workers and
    // the machine never runs more busy threads than asked for.
    std::thread::scope(|scope| {
        for _ in 0..threads - 1 {
            scope.spawn(|| {
                let guard = SetOnDrop(&abort);
                let mut scratch = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    while i >= frontier.load(Ordering::Acquire) + lookahead {
                        if abort.load(Ordering::Relaxed) {
                            return; // a peer is unwinding; unstick and exit
                        }
                        std::thread::yield_now();
                    }
                    fill_slot(i, &mut scratch);
                }
                guard.defuse();
            });
        }
        // Acceptance runs here, strictly in order. While the needed item
        // is in flight elsewhere, help by producing the next claimable
        // item inside the window instead of spinning.
        let guard = SetOnDrop(&abort);
        let mut scratch = init();
        'accept: for i in 0..n {
            while !ready[i].load(Ordering::Acquire) {
                if abort.load(Ordering::Relaxed) {
                    // A worker died holding an item we will never see;
                    // stop accepting so the scope can join and re-raise.
                    break 'accept;
                }
                let c = cursor.load(Ordering::Relaxed);
                if c < n && c < i + lookahead {
                    // Conditional claim: helping must never hold a claim
                    // it would have to stall on.
                    if cursor
                        .compare_exchange(c, c + 1, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok()
                    {
                        fill_slot(c, &mut scratch);
                    }
                    continue;
                }
                std::thread::yield_now();
            }
            if abort.load(Ordering::Relaxed) {
                break 'accept;
            }
            let r = slots[i]
                .lock()
                .expect("result slot poisoned")
                .take()
                .expect("ready flag set without a stored result");
            accept(i, r);
            frontier.store(i + 1, Ordering::Release);
        }
        guard.defuse();
    });
}

/// Raises an abort flag when dropped mid-unwind; [`SetOnDrop::defuse`]
/// consumes it on the success path.
struct SetOnDrop<'a>(&'a AtomicBool);

impl SetOnDrop<'_> {
    fn defuse(self) {
        std::mem::forget(self);
    }
}

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_run_matches_sequential_map() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            let got = run_ordered(&items, threads, |_, &x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn output_order_is_input_order_even_with_skewed_item_costs() {
        // Early items sleep, late items return immediately: with eager
        // work stealing the *completion* order inverts, the output order
        // must not.
        let items: Vec<usize> = (0..16).collect();
        let got = run_ordered(&items, 4, |i, &x| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn scratch_run_matches_plain_map_at_every_thread_count() {
        // Scratch as reusable workspace (a buffer that must be cleared per
        // item): output must not depend on sharing.
        let items: Vec<usize> = (0..101).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * 3).collect();
        for threads in [0, 1, 2, 5, 16] {
            let got = run_ordered_scratch(
                &items,
                threads,
                Vec::<usize>::new,
                |buf, _, &x| {
                    buf.clear();
                    buf.extend([x, x, x]);
                    buf.iter().sum::<usize>()
                },
            );
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn scratch_is_created_once_per_worker_not_per_item() {
        use std::sync::atomic::AtomicUsize as Counter;
        let inits = Counter::new(0);
        let items: Vec<u8> = vec![0; 64];
        let _ = run_ordered_scratch(
            &items,
            4,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i, _| i,
        );
        let n = inits.load(Ordering::Relaxed);
        assert!(n <= 4, "expected at most one scratch per worker, got {n}");
    }

    /// Reference model for the speculative pipeline: a coverage game where
    /// accepting item i kills items i+1..i+1+k (like cluster planning).
    fn coverage_accepted(n: usize, threads: usize) -> Vec<usize> {
        let covered: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let mut accepted = Vec::new();
        run_speculative(
            n,
            threads,
            threads.max(1) * 4,
            || (),
            |_, i| {
                if covered[i].load(Ordering::Acquire) {
                    None
                } else {
                    Some(i * 10) // "expensive" pure product
                }
            },
            |i, r| {
                if covered[i].load(Ordering::Relaxed) {
                    return; // discarded speculation
                }
                let v = r.expect("live item must be produced");
                assert_eq!(v, i * 10);
                accepted.push(i);
                // Accepting i covers the next i%3 items.
                for c in covered.iter().take((i + 1 + i % 3).min(n)).skip(i + 1) {
                    c.store(true, Ordering::Release);
                }
            },
        );
        accepted
    }

    #[test]
    fn speculative_pipeline_matches_sequential_at_every_thread_count() {
        let expect = coverage_accepted(200, 1);
        assert!(!expect.is_empty() && expect.len() < 200, "game must skip some items");
        for threads in [2, 3, 4, 7] {
            assert_eq!(coverage_accepted(200, threads), expect, "threads={threads}");
        }
    }

    #[test]
    fn speculative_acceptance_runs_strictly_in_order() {
        let mut last = None;
        run_speculative(
            64,
            4,
            8,
            || (),
            |_, i| Some(i),
            |i, r| {
                assert_eq!(r, Some(i));
                if let Some(l) = last {
                    assert_eq!(i, l + 1, "acceptance out of order");
                }
                last = Some(i);
            },
        );
        assert_eq!(last, Some(63));
    }

    #[test]
    fn speculative_worker_panic_propagates_instead_of_hanging() {
        // A producer panic must unstick the acceptance loop (which would
        // otherwise wait forever on the dead worker's slot) and re-raise.
        let res = std::panic::catch_unwind(|| {
            run_speculative(
                256,
                4,
                8,
                || (),
                |_, i| {
                    if i == 97 {
                        panic!("producer died on item 97");
                    }
                    Some(i)
                },
                |_, _| {},
            )
        });
        assert!(res.is_err(), "producer panic must not be swallowed");
    }

    #[test]
    fn speculative_accept_panic_propagates_instead_of_hanging() {
        // An acceptance panic must unstick workers stalled on the
        // lookahead window (the frontier stops advancing for good).
        let res = std::panic::catch_unwind(|| {
            run_speculative(
                256,
                4,
                4,
                || (),
                |_, i| Some(i),
                |i, _| {
                    if i == 13 {
                        panic!("acceptance died on item 13");
                    }
                },
            )
        });
        assert!(res.is_err(), "acceptance panic must not be swallowed");
    }

    #[test]
    fn speculative_pipeline_handles_empty_and_tiny_inputs() {
        let mut calls = 0;
        run_speculative(0, 4, 8, || (), |_, i| Some(i), |_, _| calls += 1);
        assert_eq!(calls, 0);
        run_speculative(1, 4, 8, || (), |_, i| Some(i), |_, _| calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn empty_input_spawns_nothing_and_returns_empty() {
        let items: Vec<u8> = Vec::new();
        let got: Vec<u8> = run_ordered(&items, 8, |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let items: Vec<usize> = (0..32).collect();
        let res = std::panic::catch_unwind(|| {
            run_ordered(&items, 4, |i, &x| {
                if i == 17 {
                    panic!("boom on item 17");
                }
                x
            })
        });
        assert!(res.is_err(), "worker panic must not be swallowed");
    }

    #[test]
    fn borrows_from_the_caller_are_allowed() {
        // Scoped threads: `f` may capture non-'static references, which is
        // what lets the pipeline pass &PipelineInput / &GiantModels down.
        let corpus: Vec<String> = (0..10).map(|i| format!("doc {i}")).collect();
        let lens = run_ordered(&corpus, 3, |_, s| s.len());
        assert_eq!(lens, corpus.iter().map(|s| s.len()).collect::<Vec<_>>());
    }
}

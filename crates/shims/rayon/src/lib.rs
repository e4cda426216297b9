//! Offline stand-in for `rayon`.
//!
//! Provides the slice-oriented subset this workspace uses — `par_iter()` /
//! `into_par_iter()` with `map(...).collect()` — executed on real OS threads
//! via `std::thread::scope` with an atomic work-stealing index, so parallel
//! evaluation still scales with the available cores.
//!
//! `collect()` supports both `Vec<U>` and the `Result<Vec<V>, E>`
//! short-circuit-style collection rayon users rely on.

#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// The usual rayon prelude: import `*` to get `par_iter` / `into_par_iter`.
pub mod prelude {
    pub use super::{IntoParallelIterator, ParallelSlice};
}

/// Number of worker threads used for parallel operations.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` over `0..n` on multiple threads, preserving index order.
///
/// When `is_failure` reports true for a produced value, no *further* items
/// are scheduled (in-flight items still finish), so a failing batch does not
/// pay for the whole remainder; slots that were never scheduled stay `None`.
fn run_indexed<U, F>(
    n: usize,
    threads: usize,
    f: F,
    is_failure: impl Fn(&U) -> bool + Sync,
) -> Vec<Option<U>>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.min(n).max(1);
    if threads == 1 {
        let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
        for (i, slot) in slots.iter_mut().enumerate() {
            let value = f(i);
            let failed = is_failure(&value);
            *slot = Some(value);
            if failed {
                break;
            }
        }
        return slots;
    }
    let next = AtomicUsize::new(0);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let value = f(i);
                        if is_failure(&value) {
                            stop.store(true, Ordering::Relaxed);
                        }
                        local.push((i, value));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("rayon shim worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
}

/// `par_iter()` on slices (and anything that derefs to a slice, e.g. `Vec`).
pub trait ParallelSlice<T: Sync> {
    /// Returns a parallel iterator over references to the elements.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

impl<T: Sync> ParallelSlice<T> for Vec<T> {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

/// `into_par_iter()` on owned collections.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Consumes `self` into a parallel iterator.
    fn into_par_iter(self) -> IntoParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> IntoParIter<T> {
        IntoParIter { items: self }
    }
}

/// Borrowing parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Maps every element through `f` (executed later, in `collect`).
    pub fn map<U, F>(self, f: F) -> ParMap<'a, T, F>
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every element in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        run_indexed(
            self.items.len(),
            current_num_threads(),
            |i| f(&self.items[i]),
            |_| false,
        );
    }
}

/// A mapped borrowing parallel iterator, ready to collect.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Executes the map on worker threads and collects the results.
    pub fn collect<U, C>(self) -> C
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
        C: FromParallel<U>,
    {
        let f = &self.f;
        C::from_partial(run_indexed(
            self.items.len(),
            current_num_threads(),
            |i| f(&self.items[i]),
            C::is_failure,
        ))
    }
}

/// Owning parallel iterator.
pub struct IntoParIter<T> {
    items: Vec<T>,
}

impl<T: Send + Sync> IntoParIter<T> {
    /// Maps every element through `f` (executed later, in `collect`).
    pub fn map<U, F>(self, f: F) -> IntoParMap<T, F>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        IntoParMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped owning parallel iterator, ready to collect.
pub struct IntoParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send + Sync, F> IntoParMap<T, F> {
    /// Executes the map on worker threads and collects the results.
    pub fn collect<U, C>(self) -> C
    where
        U: Send,
        F: Fn(T) -> U + Sync,
        C: FromParallel<U>,
    {
        let f = &self.f;
        // Move the items into index-addressable cells so worker threads can
        // take disjoint elements by index.
        let cells: Vec<std::sync::Mutex<Option<T>>> = self
            .items
            .into_iter()
            .map(|t| std::sync::Mutex::new(Some(t)))
            .collect();
        C::from_partial(run_indexed(
            cells.len(),
            current_num_threads(),
            |i| {
                let item = cells[i]
                    .lock()
                    .expect("uncontended")
                    .take()
                    .expect("taken once");
                f(item)
            },
            C::is_failure,
        ))
    }
}

/// Collection targets for the shim's `collect()`.
pub trait FromParallel<U>: Sized {
    /// `true` when a produced value means the batch can stop scheduling
    /// further items (e.g. an `Err` for `Result` collections).
    fn is_failure(_item: &U) -> bool {
        false
    }

    /// Builds the collection from per-index results. Slots are `None` only
    /// when the batch stopped early after a failure value.
    fn from_partial(items: Vec<Option<U>>) -> Self;
}

impl<U> FromParallel<U> for Vec<U> {
    fn from_partial(items: Vec<Option<U>>) -> Self {
        // `is_failure` is always false here, so every slot is filled.
        items
            .into_iter()
            .map(|slot| slot.expect("all indices filled"))
            .collect()
    }
}

impl<V, E> FromParallel<Result<V, E>> for Result<Vec<V>, E> {
    fn is_failure(item: &Result<V, E>) -> bool {
        item.is_err()
    }

    fn from_partial(mut items: Vec<Option<Result<V, E>>>) -> Self {
        // On early stop the first failure may sit at any index, with
        // unscheduled `None` slots before it — surface the error first.
        if let Some(pos) = items.iter().position(|i| matches!(i, Some(Err(_)))) {
            match items.swap_remove(pos) {
                Some(Err(e)) => return Err(e),
                _ => unreachable!("position matched an Err slot"),
            }
        }
        Ok(items
            .into_iter()
            .map(|slot| match slot {
                Some(Ok(v)) => v,
                _ => unreachable!("no failure observed, so every slot is Ok"),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_map_preserves_order() {
        let input: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_runs_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let input: Vec<usize> = (0..256).collect();
        let _: Vec<()> = input
            .par_iter()
            .map(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_micros(100));
            })
            .collect();
        if super::current_num_threads() > 1 {
            assert!(seen.lock().unwrap().len() > 1, "expected >1 worker thread");
        }
    }

    #[test]
    fn result_collection_short_circuits_to_err() {
        let input: Vec<usize> = (0..100).collect();
        let out: Result<Vec<usize>, String> = input
            .par_iter()
            .map(|&x| {
                if x == 42 {
                    Err("boom".to_string())
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(out, Err("boom".to_string()));
    }

    #[test]
    fn failure_stops_scheduling_the_remainder() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let input: Vec<usize> = (0..10_000).collect();
        let out: Result<Vec<usize>, String> = input
            .par_iter()
            .map(|&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                if x == 0 {
                    Err("boom".to_string())
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(10));
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(out, Err("boom".to_string()));
        let calls = calls.load(Ordering::Relaxed);
        assert!(
            calls < 10_000,
            "failure did not stop scheduling ({calls} calls)"
        );
    }

    #[test]
    fn into_par_iter_consumes_items() {
        let input: Vec<String> = (0..50).map(|i| i.to_string()).collect();
        let lens: Vec<usize> = input.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(lens.len(), 50);
    }
}

//! Offline shim for `rayon`.
//!
//! The workspace parallelises two shapes — `(0..n).into_par_iter().map(f)
//! .collect()` (index-parallel tasks) and `slice.par_chunks_mut(len)
//! .enumerate().for_each(f)` (disjoint in-place writes into one pre-sized
//! buffer) — so the shim implements exactly those, with real
//! `std::thread::scope` parallelism, chunked over
//! [`current_num_threads`] workers, preserving output order.

use std::ops::Range;
use std::sync::OnceLock;

/// Number of workers a parallel call fans out to: the cores available to
/// the process, read **once** — as real rayon sizes its global pool once.
/// `available_parallelism()` is a `sched_getaffinity` call plus cgroup file
/// reads (~11 µs); per call it was the largest fixed cost of a small GEMM.
/// A process that narrows its affinity must do so before its first
/// parallel call for the narrower count to apply.
pub fn current_num_threads() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    // The one cached call site `clippy.toml` exempts.
    #[allow(clippy::disallowed_methods)]
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

pub mod prelude {
    //! Drop-in for `rayon::prelude::*`.
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;

    /// Starts a parallel pipeline.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel iterator over an index range.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Maps each index through `f` in parallel.
    pub fn map<T, F>(self, f: F) -> ParMap<F>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        ParMap {
            range: self.range,
            f,
        }
    }
}

/// A mapped parallel range, ready to collect.
pub struct ParMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> ParMap<F> {
    /// Runs the map across threads and collects results in index order.
    pub fn collect<C, T>(self) -> C
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: FromIterator<T>,
    {
        parallel_map_range(self.range, &self.f)
            .into_iter()
            .collect()
    }
}

fn parallel_map_range<T, F>(range: Range<usize>, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n = range.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = current_num_threads().min(n);
    if workers <= 1 {
        return range.map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let start = range.start;
    let mut chunks: Vec<Vec<T>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let lo = start + w * chunk;
            let hi = (lo + chunk).min(range.end);
            if lo >= hi {
                break;
            }
            handles.push(scope.spawn(move || (lo..hi).map(f).collect::<Vec<T>>()));
        }
        for h in handles {
            chunks.push(h.join().expect("rayon shim worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(n);
    for c in chunks {
        out.extend(c);
    }
    out
}

/// Parallel mutation of non-overlapping slice chunks (the
/// `slice.par_chunks_mut(n)` entry point of real rayon).
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into chunks of at most `chunk_size` elements, to be
    /// processed in parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel iterator over mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs each chunk with its index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate { inner: self }
    }

    /// Runs `f` over every chunk in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        parallel_chunks(self.slice, self.chunk_size, &|_, chunk| f(chunk));
    }
}

/// An enumerated parallel chunk iterator.
pub struct ParChunksMutEnumerate<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    /// Runs `f` over every `(index, chunk)` pair in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        parallel_chunks(self.inner.slice, self.inner.chunk_size, &|i, chunk| {
            f((i, chunk))
        });
    }
}

fn parallel_chunks<T, F>(slice: &mut [T], chunk_size: usize, f: &F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = slice.len().div_ceil(chunk_size);
    if n == 0 {
        return;
    }
    let workers = current_num_threads().min(n);
    if workers <= 1 {
        for (i, chunk) in slice.chunks_mut(chunk_size).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Hand each worker a contiguous run of chunks; the splits are disjoint
    // sub-slices, so no synchronisation is needed beyond the scope join.
    let per_worker = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let mut rest = slice;
        let mut first_chunk = 0usize;
        while !rest.is_empty() {
            let take = (per_worker * chunk_size).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let base = first_chunk;
            first_chunk += head.len().div_ceil(chunk_size);
            scope.spawn(move || {
                for (i, chunk) in head.chunks_mut(chunk_size).enumerate() {
                    f(base + i, chunk);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn worker_count_is_positive_and_read_once() {
        let n = super::current_num_threads();
        assert!(n >= 1);
        assert_eq!(super::current_num_threads(), n);
    }

    #[test]
    fn preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_range() {
        let v: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }

    #[test]
    fn single_element() {
        let v: Vec<String> = (3..4).into_par_iter().map(|i| format!("{i}")).collect();
        assert_eq!(v, vec!["3".to_string()]);
    }

    #[test]
    fn par_chunks_mut_enumerated_writes() {
        let mut data = vec![0usize; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = i * 10 + j;
            }
        });
        let expected: Vec<usize> = (0..103).collect();
        assert_eq!(data, expected);
    }

    #[test]
    fn par_chunks_mut_plain_for_each() {
        let mut data = [1i32; 37];
        data.par_chunks_mut(5).for_each(|chunk| {
            for v in chunk {
                *v *= 2;
            }
        });
        assert!(data.iter().all(|&v| v == 2));
    }

    #[test]
    fn par_chunks_mut_empty_slice() {
        let mut data: Vec<u8> = Vec::new();
        data.par_chunks_mut(4).enumerate().for_each(|(_, _)| {
            panic!("no chunks expected");
        });
    }
}

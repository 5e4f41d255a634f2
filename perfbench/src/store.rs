//! A counting wrapper over the public [`DurableStore`] trait.
//!
//! The durable session receives the wrapper where it would receive a bare
//! store (`OnlineSession::open_or_create_on`), so the program's own flush
//! policy runs unchanged while every call is counted, sized, timed and —
//! in the traced run — recorded as a durability span.

use crate::trace::{self, Layer};
use pgdesign_durability::DurableStore;
use std::cell::Cell;
use std::io;
use std::rc::Rc;
use std::time::Instant;

/// What the wrapper saw, shared with the benchmark that installed it.
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// `sync` calls (fsyncs).
    pub syncs: Cell<u64>,
    /// Bytes handed to `append` and `write_atomic`.
    pub bytes: Cell<u64>,
    /// Calls the inner store failed (each one a retry or a suspension).
    pub errors: Cell<u64>,
    /// Nanoseconds spent inside the inner store.
    pub nanos: Cell<u64>,
}

impl StoreCounters {
    /// `(syncs, bytes, errors, nanos)` at this moment.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.syncs.get(),
            self.bytes.get(),
            self.errors.get(),
            self.nanos.get(),
        )
    }
}

/// [`DurableStore`] that forwards to `S` and counts.
pub struct CountingStore<S> {
    inner: S,
    counters: Rc<StoreCounters>,
}

impl<S: DurableStore> CountingStore<S> {
    pub fn new(inner: S, counters: Rc<StoreCounters>) -> Self {
        CountingStore { inner, counters }
    }

    fn call<T>(
        &mut self,
        name: &'static str,
        bytes: usize,
        f: impl FnOnce(&mut S) -> io::Result<T>,
    ) -> io::Result<T> {
        let t = Instant::now();
        let out = trace::span(Layer::Durability, name, || f(&mut self.inner));
        let c = &self.counters;
        c.nanos.set(c.nanos.get() + t.elapsed().as_nanos() as u64);
        c.bytes.set(c.bytes.get() + bytes as u64);
        if out.is_err() {
            c.errors.set(c.errors.get() + 1);
        }
        out
    }
}

impl<S: DurableStore> DurableStore for CountingStore<S> {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.call("store.read", 0, |s| s.read(name))
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.call("store.write_atomic", bytes.len(), |s| {
            s.write_atomic(name, bytes)
        })
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.call("store.append", bytes.len(), |s| s.append(name, bytes))
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        let c = &self.counters;
        c.syncs.set(c.syncs.get() + 1);
        self.call("store.sync", 0, |s| s.sync(name))
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.call("store.remove", 0, |s| s.remove(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgdesign_durability::{Failpoint, MemStore};

    #[test]
    fn counts_bytes_syncs_and_failures() {
        let counters = Rc::new(StoreCounters::default());
        let mut mem = MemStore::new();
        mem.arm(Failpoint::FsyncError);
        let mut store = CountingStore::new(mem, counters.clone());
        store.append("log", b"abcd").unwrap();
        store.write_atomic("snap", b"xy").unwrap();
        assert!(store.sync("log").is_err());
        let (syncs, bytes, errors, _) = counters.snapshot();
        assert_eq!((syncs, bytes, errors), (1, 6, 1));
    }
}

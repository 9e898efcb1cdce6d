//@ path: crates/sim/src/fixture.rs
// A Mutex mentioned in prose never fires; single-threaded interior
// mutability, the atomic escape hatch, names that merely contain a
// primitive's, and test-module usage are all clean; and a genuinely raw
// primitive may survive behind a reasoned suppression.
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct StripeMutexStats(pub usize);

pub fn single_threaded() -> usize {
    let table = RefCell::new(Vec::<u32>::new());
    table.borrow_mut().push(1);
    let n = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let banner = "thread::spawn and Mutex::new in a string";
    let stats = StripeMutexStats(banner.len());
    n.load(Ordering::Relaxed) + threads + table.borrow().len() + stats.0
}

pub fn justified() -> u32 {
    // arbitree-lint: allow(D011) — bootstrap lock that must exist before the worker pool does
    let bootstrap = std::sync::Mutex::new(7u32);
    bootstrap.into_inner().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn raw_primitives_in_tests_are_fine() {
        let _ = Mutex::new(0u32);
        let _ = std::thread::spawn(|| 1).join();
    }
}

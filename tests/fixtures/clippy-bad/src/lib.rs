//! Seeded clippy fixture: every behaviour the workspace bans through
//! clippy, once, plus a sanctioned read, a stale waiver and a test
//! module. CI runs clippy over this crate and diffs the reported
//! `src/lib.rs:line:lint` set against `../clippy-bad-expected.txt`.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::env::{self, var as getenv};
use std::time::Instant as Clock;

pub fn renamed_instant() -> Clock {
    Clock::now()
}

pub fn system_time() -> bool {
    std::time::SystemTime::now().elapsed().is_ok()
}

pub fn renamed_env_read() -> bool {
    getenv("FALCON_KNOB").is_ok()
}

pub fn env_read_os() -> bool {
    env::var_os("FALCON_KNOB").is_some()
}

pub fn entropy_hasher() {
    let _ = std::collections::hash_map::RandomState::new();
}

pub fn unnamed_hasher_map() -> usize {
    std::collections::HashMap::<u32, u32>::new().len()
}

pub fn unnamed_hasher_set(xs: &[u32]) -> usize {
    xs.iter().collect::<std::collections::HashSet<_>>().len()
}

pub fn unwraps(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn expects(x: Option<u32>) -> u32 {
    x.expect("present")
}

pub fn panics() {
    panic!("a worker panic is an outage");
}

pub fn unreachable_arm(x: bool) -> u32 {
    match x {
        true => 1,
        false => unreachable!(),
    }
}

pub fn defaulted(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}

#[expect(clippy::disallowed_methods, reason = "a sanctioned read")]
pub fn sanctioned() -> Clock {
    Clock::now()
}

#[expect(clippy::disallowed_methods, reason = "the read it waived is gone")]
pub fn stale_waiver() -> u32 {
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        assert_eq!("0".parse::<u32>().unwrap(), super::defaulted(None));
    }
}

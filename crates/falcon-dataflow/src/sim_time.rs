//! Simulated-time accounting: schedule priced task slot times onto the
//! simulated cluster's slots and report the makespan.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Makespan of scheduling `tasks` onto `slots` identical slots using the
/// Longest-Processing-Time-first greedy rule (the classic 4/3-approximation,
/// and a good model of Hadoop's slot scheduler for our purposes).
pub fn makespan(tasks: &[Duration], slots: usize) -> Duration {
    let slots = slots.max(1);
    if tasks.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted: Vec<Duration> = tasks.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    // Min-heap of slot finish times.
    let mut heap: BinaryHeap<Reverse<Duration>> =
        (0..slots).map(|_| Reverse(Duration::ZERO)).collect();
    for t in sorted {
        // The heap holds exactly `slots >= 1` entries throughout.
        let earliest = heap.pop().map_or(Duration::ZERO, |Reverse(d)| d);
        heap.push(Reverse(earliest + t));
    }
    heap.into_iter()
        .map(|Reverse(d)| d)
        .max()
        .unwrap_or(Duration::ZERO)
}

/// The single wall-clock read of the engine, private to this crate: it
/// stamps [`JobStats::wall`](crate::job::JobStats::wall), a reported
/// sibling of the simulated clock that nothing prices or branches on.
/// Every simulated duration is priced from records, so no operator or
/// driver can reach a measured `Duration` to feed a timeline with, and
/// `falcon-lint`'s `sim-time` rule bans `Instant::now` everywhere else.
#[must_use]
pub(crate) fn wall_now() -> Instant {
    // falcon-lint: allow(sim-time)
    Instant::now()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn single_slot_is_sum() {
        let tasks = [ms(5), ms(10), ms(3)];
        assert_eq!(makespan(&tasks, 1), ms(18));
    }

    #[test]
    fn enough_slots_is_max() {
        let tasks = [ms(5), ms(10), ms(3)];
        assert_eq!(makespan(&tasks, 3), ms(10));
        assert_eq!(makespan(&tasks, 100), ms(10));
    }

    #[test]
    fn lpt_balances() {
        // 4 tasks of 3ms on 2 slots -> 6ms.
        let tasks = [ms(3); 4];
        assert_eq!(makespan(&tasks, 2), ms(6));
        // LPT: [7,5,4,4] on 2 slots -> 7+4=11 vs 5+4=9 -> makespan 11? LPT
        // places 7 | 5, then 4 -> slot2 (9), then 4 -> slot1? slot1=7 < 9
        // so slot1 -> 11. Optimal is 7+4=11 vs 5+4+... also 10 (7+4 | 5+4=9
        // no; sum=20, lower bound 10). LPT gives 11 here.
        let tasks = [ms(7), ms(5), ms(4), ms(4)];
        assert_eq!(makespan(&tasks, 2), ms(11));
    }

    #[test]
    fn empty_and_zero_slots() {
        assert_eq!(makespan(&[], 4), Duration::ZERO);
        assert_eq!(makespan(&[ms(2)], 0), ms(2));
    }

    #[test]
    fn more_slots_never_slower() {
        let tasks: Vec<Duration> = (1..20).map(ms).collect();
        let mut prev = makespan(&tasks, 1);
        for slots in 2..10 {
            let m = makespan(&tasks, slots);
            assert!(m <= prev);
            prev = m;
        }
    }
}

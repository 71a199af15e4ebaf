//! Threaded execution of MapReduce jobs over in-memory splits.

use crate::cluster::Cluster;
use crate::error::{DataflowError, Phase};
use crate::fault::{self, FaultStats};
use crate::job::{Emitter, JobOutput, JobStats};
use crate::sim_time::wall_now;
use parking_lot::Mutex;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// A reduce partition — the buckets the map tasks filled for it, in split
/// order — handed off to exactly one reduce task, which `take`s it.
type PartitionSlot<K, V> = Mutex<Option<Vec<Vec<(K, V)>>>>;

/// Where a worker leaves one task's outcome: output, slot duration and
/// faults, or the task's error.
type TaskSlot<T> = Mutex<Option<Result<(T, Duration, FaultStats), DataflowError>>>;

/// FNV-1a with the standard 64-bit offset basis and prime. Unlike
/// `std::collections::hash_map::DefaultHasher`, whose keys are explicitly
/// unstable across Rust releases, this hasher produces the same value on
/// every toolchain — shuffle partitioning (and therefore per-partition
/// sim timings and reduce output order) must be reproducible everywhere.
struct StableHasher(u64);

impl StableHasher {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

pub(crate) fn partition_of<K: Hash>(key: &K, partitions: usize) -> usize {
    let mut h = StableHasher::new();
    key.hash(&mut h);
    (h.finish() % partitions as u64) as usize
}

/// Group `(k, v)` pairs by key, preserving first-seen key order and
/// per-key value arrival order. Hash-map iteration order is never
/// observed, so for a fixed input sequence the output is identical on
/// every run — the reduce phase relies on this to keep job output
/// deterministic (the shuffle already chains map buckets in split
/// order) — and the map hashes with the cheap [`StableHasher`], the
/// function [`partition_of`] already spreads the same keys with.
#[expect(
    clippy::disallowed_types,
    reason = "a lookup-only map; this crate depends on no Falcon crate, so `DetMap` is out of reach"
)]
fn group_in_arrival_order<K: Hash + Eq + Clone, V>(
    pairs: impl IntoIterator<Item = (K, V)>,
) -> Vec<(K, Vec<V>)> {
    use std::collections::HashMap;
    let mut slot_of: HashMap<K, usize, BuildHasherDefault<StableHasher>> = HashMap::default();
    let mut grouped: Vec<(K, Vec<V>)> = Vec::new();
    for (k, v) in pairs {
        match slot_of.get(&k) {
            Some(&slot) => grouped[slot].1.push(v),
            None => {
                slot_of.insert(k.clone(), grouped.len());
                grouped.push((k, vec![v]));
            }
        }
    }
    grouped
}

/// Records in a reduce partition's chain of buckets.
fn chain_len<K, V>(chain: &[Vec<(K, V)>]) -> usize {
    chain.iter().map(Vec::len).sum()
}

/// Run the `n` tasks of one phase of `job` on the cluster's worker
/// threads, each under [`fault::run_attempts`] at `price(i)`, and return
/// their outputs, slot durations and summed faults, all in task order.
///
/// Workers claim task indices in ascending order. Once a task fails, no
/// worker claims another, and the error of the smallest failing task is
/// returned — tasks below it were all claimed, so the choice does not
/// depend on the schedule. A task that left no outcome (its worker died
/// outside the per-attempt containment) is
/// [`DataflowError::PartitionMissing`].
fn run_phase<T: Send>(
    cluster: &Cluster,
    job: u64,
    phase: Phase,
    n: usize,
    retry_panics: bool,
    price: impl Fn(usize) -> Duration + Sync,
    body: impl Fn(usize) -> T + Sync,
) -> Result<(Vec<T>, Vec<Duration>, FaultStats), DataflowError> {
    let injector = cluster.fault_injector();
    let slots: Vec<TaskSlot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    // A worker that dies outside a task leaves its task's slot empty,
    // which is reported below; the scope's own error adds nothing.
    let _ = crossbeam::thread::scope(|scope| {
        for _ in 0..cluster.threads().min(n) {
            scope.spawn(|_| {
                while !failed.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(i) else { break };
                    let run = || body(i);
                    let outcome =
                        fault::run_attempts(injector, job, phase, i, retry_panics, price(i), run);
                    failed.fetch_or(outcome.is_err(), Ordering::Relaxed);
                    *slot.lock() = Some(outcome);
                }
            });
        }
    });
    let mut outputs = Vec::with_capacity(n);
    let mut durations = Vec::with_capacity(n);
    let mut faults = FaultStats::default();
    for (task, slot) in slots.into_iter().enumerate() {
        let (out, slot_time, stats) =
            slot.into_inner().ok_or(DataflowError::PartitionMissing {
                job,
                phase,
                partition: task,
            })??;
        outputs.push(out);
        durations.push(slot_time);
        faults.absorb(&stats);
    }
    Ok((outputs, durations, faults))
}

/// The tasks' outputs, in task order, in one `Vec`. Grown part by part,
/// each part freed once moved: sized up front, it would be allocated
/// while every part is still held.
fn concat<O>(parts: Vec<Vec<O>>) -> Vec<O> {
    let mut all = Vec::new();
    for mut part in parts {
        all.append(&mut part);
    }
    all
}

/// Run a full map-shuffle-reduce job.
///
/// * `splits` — input splits (see [`Cluster::splits`]), owned `Vec`s or
///   borrowed slices; each becomes one map task.
/// * `map_fn(records, emitter)` — called once per map task with its whole
///   split, like Hadoop's `Mapper::run`, so per-task state (scratch
///   buffers, batch kernels) lives in the closure body; emits
///   intermediate pairs.
/// * `reduce_fn(key, values, out)` — called once per distinct key with all
///   its values; pushes output records.
///
/// Map tasks run concurrently on the cluster's local worker threads; so do
/// reduce partitions. Output records are concatenated in partition order;
/// callers needing a total order should sort the output.
///
/// Every task is priced before it runs — [`ClusterConfig::task_time`]
/// of the split's length for a map task, of the partition's shuffled
/// records for a reduce task — so [`JobStats`] (but for `wall`) does not
/// depend on how fast or how parallel the host is.
///
/// [`ClusterConfig::task_time`]: crate::cluster::ClusterConfig::task_time
///
/// When the cluster carries a [`FaultPlan`](crate::fault::FaultPlan),
/// injected task failures are re-executed Hadoop-style (their price plus
/// exponential backoff is charged to the task's simulated slot duration),
/// stragglers run slowed or speculatively rescued, and a panicking map
/// task is retried until the attempt budget runs out. Job *output* is
/// unaffected by injected faults — map/reduce closures are deterministic,
/// so only the simulated timeline and [`JobStats::faults`] change. A task
/// that fails every attempt surfaces as
/// [`DataflowError::AttemptsExhausted`]; an uncontained panic as
/// [`DataflowError::WorkerPanicked`], both carrying job/phase/task/attempt
/// context.
///
/// ```
/// use falcon_dataflow::{run_map_reduce, Cluster, ClusterConfig, Emitter};
///
/// let cluster = Cluster::new(ClusterConfig::small(2));
/// let out = run_map_reduce(
///     &cluster,
///     vec![vec!["a b", "b"], vec!["a"]],
///     2,
///     |docs: &[&str], e: &mut Emitter<String, u32>| {
///         for w in docs.iter().flat_map(|d| d.split_whitespace()) {
///             e.emit(w.to_string(), 1);
///         }
///     },
///     |w: &String, ones: Vec<u32>, out: &mut Vec<(String, u32)>| {
///         out.push((w.clone(), ones.len() as u32));
///     },
/// ).expect("no worker panicked");
/// let mut counts = out.output;
/// counts.sort();
/// assert_eq!(counts, vec![("a".into(), 2), ("b".into(), 2)]);
/// ```
pub fn run_map_reduce<S, I, K, V, O, M, R>(
    cluster: &Cluster,
    splits: Vec<S>,
    reduce_partitions: usize,
    map_fn: M,
    reduce_fn: R,
) -> Result<JobOutput<O>, DataflowError>
where
    S: AsRef<[I]> + Sync,
    K: Hash + Eq + Send + Clone,
    V: Send,
    O: Send,
    M: Fn(&[I], &mut Emitter<K, V>) + Sync,
    R: Fn(&K, Vec<V>, &mut Vec<O>) + Sync,
{
    let start = wall_now();
    let job = cluster.next_job_id();
    let cfg = &cluster.config;
    let reduce_partitions = reduce_partitions.max(1);
    let n_splits = splits.len();
    let input_records: usize = splits.iter().map(|s| s.as_ref().len()).sum();

    let (map_outputs, map_durations, mut faults) = run_phase(
        cluster,
        job,
        Phase::Map,
        n_splits,
        true,
        |i| cfg.task_time(splits[i].as_ref().len() as u64),
        |i| {
            // A fresh emitter per attempt: a panicked attempt's pairs are
            // dropped with it.
            let mut emitter = Emitter::new(reduce_partitions);
            map_fn(splits[i].as_ref(), &mut emitter);
            emitter.into_buckets()
        },
    )?;

    // ---- Shuffle ----
    // Bucket `[task][p]` moves into partition `p`'s chain, tasks in split
    // order: a shuffled record is stored once between `emit` and
    // `reduce_fn`, and a reducer sees (split order, then emit order).
    let mut partitions: Vec<Vec<Vec<(K, V)>>> = (0..reduce_partitions)
        .map(|_| Vec::with_capacity(n_splits))
        .collect();
    for buckets in map_outputs {
        for (chain, bucket) in partitions.iter_mut().zip(buckets) {
            chain.push(bucket);
        }
    }
    let partition_lens: Vec<usize> = partitions.iter().map(|chain| chain_len(chain)).collect();
    let shuffled_records: usize = partition_lens.iter().sum();

    // ---- Reduce phase ----
    // Each reduce task takes ownership of its whole partition. The body
    // consumes it, so a panicked attempt cannot be re-executed
    // (`retry_panics: false`); injected failures never run the body and
    // are charged to sim time only, so they retry fine.
    let inputs: Vec<PartitionSlot<K, V>> = partitions
        .into_iter()
        .map(|p| Mutex::new(Some(p)))
        .collect();
    let (reduce_outputs, reduce_durations, reduce_faults) = run_phase(
        cluster,
        job,
        Phase::Reduce,
        reduce_partitions,
        false,
        |p| cfg.task_time(partition_lens[p] as u64),
        |p| {
            let mut out = Vec::new();
            // `flatten` drops each bucket as its last pair is grouped, so
            // the partition is never held twice.
            let pairs = inputs[p]
                .lock()
                .take()
                .unwrap_or_default()
                .into_iter()
                .flatten();
            for (k, vs) in group_in_arrival_order(pairs) {
                reduce_fn(&k, vs, &mut out);
            }
            out
        },
    )?;
    faults.absorb(&reduce_faults);
    let output = concat(reduce_outputs);

    let stats = JobStats {
        map_tasks: n_splits,
        reduce_tasks: reduce_partitions,
        input_records,
        shuffled_records,
        output_records: output.len(),
        map_durations,
        reduce_durations,
        wall: start.elapsed(),
        faults,
    };
    Ok(JobOutput { output, stats })
}

/// Run a map-only job: `map_fn(records, out)` maps each split to zero or
/// more output records, no shuffle or reduce (the implementation of
/// `gen_fvs` and `apply_matcher` in the paper, Sections 8 and 9). Pricing,
/// fault injection and panic retry work as in [`run_map_reduce`].
pub fn run_map_only<S, I, O, M>(
    cluster: &Cluster,
    splits: Vec<S>,
    map_fn: M,
) -> Result<JobOutput<O>, DataflowError>
where
    S: AsRef<[I]> + Sync,
    O: Send,
    M: Fn(&[I], &mut Vec<O>) + Sync,
{
    let start = wall_now();
    let job = cluster.next_job_id();
    let n_splits = splits.len();
    let input_records: usize = splits.iter().map(|s| s.as_ref().len()).sum();
    let (outputs, map_durations, faults) = run_phase(
        cluster,
        job,
        Phase::MapOnly,
        n_splits,
        true,
        |i| cluster.config.task_time(splits[i].as_ref().len() as u64),
        |i| {
            let mut out = Vec::new();
            map_fn(splits[i].as_ref(), &mut out);
            out
        },
    )?;
    let output = concat(outputs);
    let stats = JobStats {
        map_tasks: n_splits,
        reduce_tasks: 0,
        input_records,
        shuffled_records: 0,
        output_records: output.len(),
        map_durations,
        reduce_durations: Vec::new(),
        wall: start.elapsed(),
        faults,
    };
    Ok(JobOutput { output, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::fault::FaultPlan;
    use std::collections::BTreeMap;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::small(2)).with_threads(4)
    }

    #[test]
    fn word_count() {
        let docs = vec![vec!["a b a", "c"], vec!["b b", "a c c"]];
        let out = run_map_reduce(
            &cluster(),
            docs,
            3,
            |docs: &[&str], e: &mut Emitter<String, u32>| {
                for w in docs.iter().flat_map(|d| d.split_whitespace()) {
                    e.emit(w.to_string(), 1);
                }
            },
            |k: &String, vs: Vec<u32>, out: &mut Vec<(String, u32)>| {
                out.push((k.clone(), vs.iter().sum()));
            },
        )
        .expect("job");
        let mut counts = out.output;
        counts.sort();
        assert_eq!(
            counts,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 3),
                ("c".to_string(), 3)
            ]
        );
        assert_eq!(out.stats.map_tasks, 2);
        assert_eq!(out.stats.input_records, 4);
        assert_eq!(out.stats.shuffled_records, 9);
        assert_eq!(out.stats.output_records, 3);
        assert_eq!(out.stats.faults, FaultStats::default());
        // Priced from records: 2 records per map task; partition sizes sum
        // to the shuffle volume.
        let cfg = &cluster().config;
        assert_eq!(out.stats.map_durations, vec![cfg.task_time(2); 2]);
        let reduce: Duration = out.stats.reduce_durations.iter().sum();
        assert_eq!(reduce, cfg.task_time(0) * 3 + crate::cluster::local_time(9));
    }

    #[test]
    fn stable_hasher_matches_fnv1a_test_vectors() {
        // Published FNV-1a 64-bit vectors: the partitioner must be
        // identical on every toolchain, unlike DefaultHasher.
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = StableHasher::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn partitioning_is_stable_and_covers_all_partitions() {
        let assignments: Vec<usize> = (0..64u64).map(|k| partition_of(&k, 4)).collect();
        assert_eq!(
            assignments,
            (0..64u64).map(|k| partition_of(&k, 4)).collect::<Vec<_>>()
        );
        for p in 0..4 {
            assert!(assignments.contains(&p), "partition {p} never used");
        }
    }

    #[test]
    fn map_only_flat_maps() {
        let out = run_map_only(
            &cluster(),
            vec![vec![1, 2], vec![3]],
            |xs: &[i32], out: &mut Vec<i32>| {
                for x in xs {
                    out.push(x * 10);
                    out.push(x * 10 + 1);
                }
            },
        )
        .expect("job");
        assert_eq!(out.output, vec![10, 11, 20, 21, 30, 31]);
        assert_eq!(out.stats.output_records, 6);
    }

    #[test]
    fn empty_input() {
        let out = run_map_reduce(
            &cluster(),
            Vec::<Vec<u32>>::new(),
            4,
            |_: &[u32], _: &mut Emitter<u32, u32>| {},
            |_: &u32, _: Vec<u32>, _: &mut Vec<u32>| {},
        )
        .expect("job");
        assert!(out.output.is_empty());
        assert_eq!(out.stats.map_tasks, 0);
    }

    #[test]
    fn map_panic_is_an_error_not_a_crash() {
        let err = run_map_only(
            &cluster(),
            vec![vec![1u32], vec![2]],
            |xs: &[u32], _out: &mut Vec<u32>| {
                assert!(xs != [2], "poisoned record");
            },
        )
        .expect_err("worker panic must surface");
        match err {
            DataflowError::WorkerPanicked {
                job,
                phase,
                task,
                attempts,
                message,
            } => {
                assert_eq!((job, phase, task, attempts), (0, Phase::MapOnly, 1, 1));
                assert!(message.contains("poisoned record"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn reduce_panic_is_an_error_not_a_crash() {
        let err = run_map_reduce(
            &cluster(),
            vec![vec![1u32, 2, 3]],
            2,
            |xs: &[u32], e: &mut Emitter<u32, u32>| xs.iter().for_each(|x| e.emit(*x, *x)),
            |k: &u32, _vs: Vec<u32>, _out: &mut Vec<(u32, u32)>| {
                assert!(*k != 2, "poisoned key");
            },
        )
        .expect_err("reducer panic must surface");
        match err {
            DataflowError::WorkerPanicked {
                phase, attempts, ..
            } => {
                assert_eq!(phase, Phase::Reduce);
                assert_eq!(attempts, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn a_failed_job_names_its_smallest_failing_task() {
        // Two tasks panic in each phase; whichever fails first, the job
        // reports the smaller one, at any thread count.
        let splits: Vec<Vec<u32>> = (0..6).map(|s| vec![s]).collect();
        let poisoned = |xs: &[u32]| assert!(xs != [2] && xs != [4], "poisoned split");
        let failing_partition = |k: &u32| [1, 3].contains(&partition_of(k, 5));
        for p in [1, 3] {
            assert!(
                (0..64u32).any(|k| partition_of(&k, 5) == p),
                "partition {p} gets keys"
            );
        }
        for threads in [1, 2, 8] {
            let cluster = Cluster::new(ClusterConfig::small(2)).with_threads(threads);
            let map = run_map_reduce(
                &cluster,
                splits.clone(),
                5,
                |xs: &[u32], e: &mut Emitter<u32, u32>| {
                    poisoned(xs);
                    xs.iter().for_each(|x| e.emit(*x, *x));
                },
                |_: &u32, _: Vec<u32>, _: &mut Vec<u32>| {},
            );
            let reduce = run_map_reduce(
                &cluster,
                vec![(0..64).collect::<Vec<u32>>()],
                5,
                |xs: &[u32], e: &mut Emitter<u32, u32>| xs.iter().for_each(|x| e.emit(*x, *x)),
                |k: &u32, _: Vec<u32>, _: &mut Vec<u32>| assert!(!failing_partition(k)),
            );
            let map_only =
                run_map_only(&cluster, splits.clone(), |xs: &[u32], _: &mut Vec<u32>| {
                    poisoned(xs)
                });
            for (got, phase, task) in [
                (map, Phase::Map, 2),
                (reduce, Phase::Reduce, 1),
                (map_only, Phase::MapOnly, 2),
            ] {
                let err = got.expect_err("two tasks panic");
                assert!(
                    matches!(err, DataflowError::WorkerPanicked { .. }),
                    "{err:?}"
                );
                assert_eq!(
                    (err.phase(), err.task_index()),
                    (phase, Some(task)),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn flaky_map_task_is_retried_under_a_fault_plan() {
        // A map body that panics on its first execution of split 1 but
        // succeeds when retried: with a fault plan the job must recover.
        use std::sync::atomic::AtomicUsize;
        let cluster = cluster().with_faults(FaultPlan::seeded(3));
        let crashes = AtomicUsize::new(0);
        let out = run_map_only(
            &cluster,
            vec![vec![1u32], vec![2]],
            |xs: &[u32], out: &mut Vec<u32>| {
                if xs == [2] && crashes.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                out.extend(xs.iter().map(|x| x * 10));
            },
        )
        .expect("job must recover via retry");
        assert_eq!(out.output, vec![10, 20]);
        assert_eq!(out.stats.faults.retries, 1);
        // The lost attempt costs its price again plus the first backoff.
        let lost = cluster.config.task_time(1) + FaultPlan::seeded(3).backoff(0);
        assert_eq!(out.stats.faults.time_lost, lost);
    }

    #[test]
    fn all_values_reach_one_reducer_call() {
        // Keys spread over many partitions; every key sees all its values at
        // once.
        let splits: Vec<Vec<u32>> = (0..8)
            .map(|s| (0..100).map(|i| s * 100 + i).collect())
            .collect();
        let out = run_map_reduce(
            &cluster(),
            splits,
            5,
            |xs: &[u32], e: &mut Emitter<u32, u32>| xs.iter().for_each(|x| e.emit(x % 7, *x)),
            |k: &u32, vs: Vec<u32>, out: &mut Vec<(u32, usize)>| out.push((*k, vs.len())),
        )
        .expect("job");
        let mut sizes = out.output;
        sizes.sort();
        assert_eq!(sizes.len(), 7);
        let total: usize = sizes.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 800);
    }

    #[test]
    fn sequential_equivalence() {
        // The engine must compute the same grouped aggregation as a
        // sequential reference implementation.
        let data: Vec<u64> = (0..500).map(|i| i * 37 % 101).collect();
        let splits: Vec<Vec<u64>> = data.chunks(61).map(|c| c.to_vec()).collect();
        let out = run_map_reduce(
            &cluster(),
            splits,
            7,
            |xs: &[u64], e: &mut Emitter<u64, u64>| xs.iter().for_each(|x| e.emit(x % 10, *x)),
            |k: &u64, vs: Vec<u64>, out: &mut Vec<(u64, u64)>| out.push((*k, vs.iter().sum())),
        )
        .expect("job");
        let mut got = out.output;
        got.sort();
        let mut expect: BTreeMap<u64, u64> = BTreeMap::new();
        for x in data {
            *expect.entry(x % 10).or_default() += x;
        }
        let expect: Vec<(u64, u64)> = expect.into_iter().collect();
        assert_eq!(got, expect);
    }
}

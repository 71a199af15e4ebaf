//! A local, multi-threaded MapReduce engine standing in for the paper's
//! 10-node Hadoop cluster.
//!
//! The engine executes map and reduce tasks on real OS threads (bounded by
//! the host's parallelism) while *accounting* time against a configurable
//! simulated cluster: a job is cut into input splits of a fixed record
//! count, every task is priced from the records it reads plus Hadoop-style
//! per-task overhead, and the priced tasks are scheduled onto the
//! simulated cluster's map/reduce slots (LPT makespan) on top of a per-job
//! overhead. Simulated time is therefore a function of the input, the
//! [`ClusterConfig`] and the fault seed — never of the host's speed or
//! core count — which is what lets the harness sweep the paper's cluster
//! sizes (5/10/15/20 nodes, Section 11.4) from a single physical machine.
//!
//! Operators interact with the engine exactly the way Falcon's operators
//! interact with Hadoop: they provide map/reduce functions, read the
//! configured per-mapper memory budget (which gates the `apply_*` physical
//! operator selection of Section 10.1), and receive job statistics.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod cluster;
pub mod error;
pub mod fault;
pub mod job;
pub mod runner;
pub mod sim_time;

pub use cluster::{local_time, Cluster, ClusterConfig, PER_RECORD, SPLIT_RECORDS};
pub use error::{DataflowError, Phase};
pub use fault::{DetRng, FaultInjector, FaultPlan, FaultStats, NodeLoss, TaskFaultOutcome};
pub use job::{Emitter, JobOutput, JobStats};
pub use runner::{run_map_only, run_map_reduce};
pub use sim_time::{makespan, JobTasks, TaskShape};

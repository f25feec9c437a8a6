//! # dear-sim — deterministic simulation substrate
//!
//! A tiny, deterministic discrete-event simulation toolkit used throughout
//! the DeAR reproduction to model distributed-training iteration timelines:
//!
//! - [`SimTime`] / [`SimDuration`]: integer-nanosecond clock types.
//! - [`Timeline`]: dependency-driven placement of tasks onto
//!   serially-occupied streams (GPU compute stream, NIC communication
//!   stream), with breakdown queries such as *exposed communication time* —
//!   the quantity plotted in the paper's Fig. 8.
//! - [`stats`]: summary statistics for the experiment harness.
//!
//! # Examples
//!
//! Build the classic WFBP picture — backprop tasks on a compute stream with
//! each layer's all-reduce chasing it on the communication stream:
//!
//! ```
//! use dear_sim::{SimDuration, TaskKind, Timeline};
//!
//! let mut tl = Timeline::new();
//! let compute = tl.add_stream("gpu");
//! let comm = tl.add_stream("nic");
//! let mut prev = None;
//! for layer in (0..4).rev() {
//!     let bp = tl.schedule(
//!         compute,
//!         format!("BP[{layer}]"),
//!         TaskKind::Backprop,
//!         SimDuration::from_micros(100),
//!         &[],
//!     );
//!     let deps: Vec<_> = prev.into_iter().chain(Some(bp)).collect();
//!     prev = Some(tl.schedule(
//!         comm,
//!         format!("AR[{layer}]"),
//!         TaskKind::Communication,
//!         SimDuration::from_micros(60),
//!         &deps,
//!     ));
//! }
//! // Communication is partially hidden behind backprop.
//! let exposed = tl.exposed_time(TaskKind::Communication, &[TaskKind::Backprop]);
//! assert!(exposed < tl.busy_time(TaskKind::Communication));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod stats;
mod time;
mod timeline;
pub mod trace;

pub use time::{SimDuration, SimTime};
pub use timeline::{StreamId, Task, TaskId, TaskKind, Timeline};

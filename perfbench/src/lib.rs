//! A closed-loop benchmark of the `cpsdfad` analysis daemon.
//!
//! The end-to-end run spawns the release daemon and drives it as two
//! closed-loop clients ([`daemon`]); the traced run replays the same
//! requests in-process through each layer's public functions
//! ([`replay`]). Every served answer is checked against a from-scratch
//! reference solve ([`solve`]). The request mixes are in [`workload`].

pub mod daemon;
pub mod replay;
pub mod solve;
pub mod workload;

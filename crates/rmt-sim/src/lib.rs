//! # rmt-sim
//!
//! A deterministic simulator of an RMT (Reconfigurable Match Table) switch —
//! the substrate for the Mantis reproduction, standing in for the Tofino
//! ASIC of the paper's Wedge100BF-32X testbed.
//!
//! What is modelled:
//!
//! * a match-action pipeline with exact/ternary/LPM tables placed into
//!   stages, executing the P4-14 primitive actions,
//! * stateful register arrays with single-cell data-plane access and
//!   range reads from the control plane,
//! * a traffic manager with per-port FIFO queues, byte-accurate service at
//!   the configured line rate, tail drop, and queue-depth visibility,
//! * ports (up/down), recirculation with a loop guard,
//! * atomic single-entry table updates — the hardware guarantee the Mantis
//!   isolation protocols build on,
//! * stage-by-stage packet execution ([`switch::Execution`]) so tests can
//!   interleave control-plane operations with in-flight packets.
//!
//! Everything runs on a shared virtual [`clock::Clock`]; nothing here spawns
//! threads or does IO.

#![forbid(unsafe_code)]

pub mod clock;
pub mod hash;
mod kernel;
pub mod parse;
pub mod phv;
pub mod registers;
pub mod shared;
pub mod spec;
pub mod switch;
pub mod table;

pub use clock::{Clock, Nanos};
pub use phv::{PacketDesc, PacketTemplate, Phv, PhvPool, TransferMap, PHV_POOL_CAP};
pub use shared::SharedSwitch;
pub use spec::{
    load, ActionId, DataPlaneSpec, FieldId, IntrIds, LoadError, PortId, RegisterId, TableId,
};
pub use switch::{switch_from_source, DriverError, ReadAgg, Switch, SwitchConfig, TxPacket};
pub use table::{EntryHandle, KeyField, Table, TableError};

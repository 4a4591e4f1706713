//! The measure phase as a plan and the buffers it fills.
//!
//! A reaction's arguments are declared once, in the program; what an
//! iteration has to read for them never changes. [`MeasurePlan::lower`]
//! therefore resolves a [`ReactionBinding`] at registration — register
//! ids for the field copies, the duplicate/counter pair and slice bounds
//! of every measured register, the packed-word poll cost — and
//! [`Snapshot::refill`] walks that plan every iteration, writing into a
//! [`Snapshot`] whose argument order *is* the id space: scalar argument
//! `i`, array argument `j`. Names are kept for the public
//! [`ReactionCtx`](crate::ReactionCtx) accessors and resolve to those ids
//! by a scan of the handful of arguments a reaction has.
//!
//! An array argument's values double as the §5.2 control-plane cache: a
//! cell is refreshed only when its write counter moved, so the reaction
//! always sees the freshest value per entry and nothing is copied out.

use crate::driver_api::{DriverApi, DriverOp};
use crate::health::Health;
use crate::report::AgentError;
use p4_ast::Value;
use p4r_compiler::iface::ReactionBinding;
use rmt_sim::{DriverError, Nanos, ReadAgg, RegisterId};

/// How one measured register argument is read.
#[derive(Clone, Copy, Debug)]
enum RegRead {
    /// Externally fed (e.g. TM queue depths): the live cells, directly.
    External { reg: RegisterId },
    /// Double-buffered by the data plane: the frozen copy of the
    /// duplicate and of its write counters, `1 << stride_log2` apart.
    Buffered {
        dup: RegisterId,
        ts: RegisterId,
        stride_log2: u32,
    },
}

/// What one reaction's measurement poll reads, in argument order.
#[derive(Clone, Debug)]
pub(crate) struct MeasurePlan {
    /// Cost of polling the packed field words in every pipe; `None` for a
    /// reaction without field arguments.
    poll_ns: Option<Nanos>,
    /// The 2-entry working/checkpoint register of each field argument.
    fields: Vec<RegisterId>,
    /// `(how, lo, hi)` per register argument.
    registers: Vec<(RegRead, u32, u32)>,
}

impl MeasurePlan {
    /// Resolve `binding` against the driver's spec, and shape the snapshot
    /// its polls fill.
    pub(crate) fn lower(
        binding: &ReactionBinding,
        driver: &dyn DriverApi,
    ) -> Result<(MeasurePlan, Snapshot), DriverError> {
        let words = binding.packed_words.max(1) * usize::from(driver.num_pipes());
        let mut plan = MeasurePlan {
            poll_ns: (!binding.fields.is_empty()).then(|| driver.cost().field_read(words)),
            fields: Vec::with_capacity(binding.fields.len()),
            registers: Vec::with_capacity(binding.registers.len()),
        };
        let mut snapshot = Snapshot::default();
        for mf in &binding.fields {
            plan.fields.push(driver.register_id(&mf.register)?);
            snapshot.scalars.push((mf.binding.clone(), 0));
        }
        for mr in &binding.registers {
            let how = if mr.external {
                RegRead::External {
                    reg: driver.register_id(&mr.register)?,
                }
            } else {
                RegRead::Buffered {
                    dup: driver.register_id(&mr.dup_register)?,
                    ts: driver.register_id(&mr.ts_register)?,
                    stride_log2: mr.stride_log2,
                }
            };
            plan.registers.push((how, mr.lo, mr.hi));
            let n = (mr.hi - mr.lo + 1) as usize;
            snapshot.arrays.push(ArrayArg {
                name: mr.binding.clone(),
                lo: i128::from(mr.lo),
                vals: vec![0; n],
                ts_seen: [vec![0; n], vec![0; n]],
            });
        }
        Ok((plan, snapshot))
    }
}

/// One register-slice argument: its values at their original register
/// indexes (`lo` first), and per measurement copy the newest write
/// counter each cell was refreshed at.
#[derive(Clone, Debug)]
struct ArrayArg {
    name: String,
    lo: i128,
    vals: Vec<i128>,
    ts_seen: [Vec<u64>; 2],
}

/// One reaction's polled arguments, addressed by argument index.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Time the snapshot was taken.
    pub taken_at: Nanos,
    /// Field arguments: `(binding name, value)`.
    scalars: Vec<(String, i128)>,
    arrays: Vec<ArrayArg>,
    /// What the polls read into on their way to the arguments: a
    /// double-buffered register has its duplicate and its write counters
    /// in hand at once, anything else uses the first.
    read: [Vec<Value>; 2],
}

impl Snapshot {
    /// Id of the scalar (field) argument bound as `name`.
    pub(crate) fn scalar_id(&self, name: &str) -> Option<usize> {
        self.scalars.iter().position(|(n, _)| n == name)
    }

    /// Id of the array (register-slice) argument bound as `name`.
    pub(crate) fn array_id(&self, name: &str) -> Option<usize> {
        self.arrays.iter().position(|a| a.name == name)
    }

    pub(crate) fn scalar(&self, id: usize) -> Option<i128> {
        self.scalars.get(id).map(|(_, v)| *v)
    }

    /// Array argument `id` as `(lo, values)`.
    pub(crate) fn array(&self, id: usize) -> Option<(i128, &[i128])> {
        self.arrays.get(id).map(|a| (a.lo, a.vals.as_slice()))
    }

    /// Poll every argument of `plan` (the one this snapshot was shaped
    /// by) from measurement copy `frozen`.
    pub(crate) fn refill(
        &mut self,
        plan: &MeasurePlan,
        frozen: u8,
        h: &mut Health,
    ) -> Result<(), AgentError> {
        self.taken_at = h.now();
        // Field arguments: packed-word cost, per-register raw reads. The
        // poll walks every pipe's copy of the packed words.
        if let Some(dur) = plan.poll_ns {
            h.submit(&DriverOp::SpendExternal { dur })?;
        }
        let [vals, tss] = &mut self.read;
        for (reg, (_, value)) in plan.fields.iter().zip(&mut self.scalars) {
            // Field measurements are last-written data-plane values, not
            // counters: take the max across pipes rather than a sum
            // (identical at num_pipes = 1).
            let read = DriverOp::RegisterReadAgg {
                reg: *reg,
                lo: u32::from(frozen),
                hi: u32::from(frozen),
                agg: ReadAgg::Max,
            };
            *vals = h.submit_reusing(&read, vals)?.into_values();
            *value = vals.first().map_or(0, |v| v.bits() as i128);
        }
        // Register arguments: batched checkpoint reads + cache merge.
        for ((how, lo, hi), arg) in plan.registers.iter().zip(&mut self.arrays) {
            let mut read = |reg, base: u32, into: &mut Vec<Value>| {
                let (lo, hi) = (base + lo, base + hi);
                let op = DriverOp::RegisterReadRange { reg, lo, hi };
                h.submit_reusing(&op, into).map(|r| *into = r.into_values())
            };
            match *how {
                RegRead::External { reg } => {
                    read(reg, 0, vals)?;
                    arg.vals.clear();
                    arg.vals.extend(vals.iter().map(|v| v.bits() as i128));
                }
                RegRead::Buffered {
                    dup,
                    ts,
                    stride_log2,
                } => {
                    let base = u32::from(frozen) << stride_log2;
                    read(dup, base, vals)?;
                    read(ts, base, tss)?;
                    let seen = &mut arg.ts_seen[usize::from(frozen)];
                    for (i, (cell, seen)) in arg.vals.iter_mut().zip(seen).enumerate() {
                        let ts = tss.get(i).map_or(0, |v| v.as_u64());
                        if ts > *seen {
                            *seen = ts;
                            *cell = vals.get(i).map_or(0, |v| v.bits() as i128);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

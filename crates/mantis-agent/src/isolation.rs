//! The §5 mechanism: two version bits and the init tables' action data.
//!
//! A packet latches its configuration in the first stage: the master init
//! table's default action loads `[vv, mv, slots…]` into metadata, and each
//! further init table — one per bin of malleable slots that did not fit
//! the master — has one entry per `vv` value that loads its bin. `vv`
//! then selects the copy of every versioned table the packet matches and
//! `mv` the measurement copy it writes, so rewriting one pipe's master
//! default moves that pipe atomically from one complete configuration to
//! another. [`Isolation`] is the only code that knows this format and the
//! only writer of the version bits, the init tables' data and the slots'
//! committed values: its fields are private, and everything else drives
//! it through the protocol's steps.

use crate::driver_api::{DriverApi, DriverOp};
use crate::health::Health;
use crate::report::AgentError;
use p4_ast::Value;
use p4r_compiler::iface::ControlInterface;
use rmt_sim::{ActionId, DriverError, EntryHandle, KeyField, TableId};

/// One malleable value or field selector: its committed value and where
/// it lives in the init tables' action data.
#[derive(Clone, Debug)]
pub(crate) struct Slot {
    pub(crate) name: String,
    /// Committed value (value: raw; field: alternative index).
    value: i128,
    /// Width of the data cell (a value's width, a field's selector bits).
    pub(crate) width: u16,
    /// Alternative count of a malleable field; `None` for a value.
    pub(crate) alts: Option<usize>,
    /// Which init table carries the cell, at which parameter.
    init_table: usize,
    param_idx: usize,
}

impl Slot {
    pub(crate) fn value(&self) -> i128 {
        self.value
    }

    /// The slot's data cell holding `value`.
    fn cell(&self, value: i128) -> Value {
        Value::new(value as u128, self.width)
    }
}

/// One init table: the action data it loads and, for a non-master table,
/// the handles of its `vv = 0` and `vv = 1` entries. The master (index 0)
/// is installed as a per-pipe default action instead and leaves `handles`
/// unused; its data starts `[vv, mv]`.
#[derive(Clone, Debug)]
struct InitTable {
    table: TableId,
    action: ActionId,
    data: Vec<Value>,
    handles: [EntryHandle; 2],
}

/// The key column of a non-master init table's entry for config version
/// `vv`.
fn vv_key(vv: u8) -> KeyField {
    KeyField::Exact(Value::new(u128::from(vv), 1))
}

pub(crate) struct Isolation {
    /// Config version, per pipe for the public accessor. The device flips
    /// pipe by pipe during a commit; this view moves once the whole update
    /// holds ([`settle`](Isolation::settle)), so its pipes always agree.
    vv: Vec<u8>,
    mv: u8,
    /// Malleable slots by slot id: values, then fields.
    slots: Vec<Slot>,
    /// Init tables in interface order; index 0 is the master.
    inits: Vec<InitTable>,
    /// The vector the next init-table image is built in: lent to the op
    /// that writes it and taken back, so the loop's writes allocate none.
    spare: Vec<Value>,
}

impl Isolation {
    /// Resolve the program's init tables and slots against the driver's
    /// spec; nothing is written to the device yet.
    ///
    /// # Panics
    /// Panics if the driver's spec lacks an init table or action.
    pub(crate) fn new(iface: &ControlInterface, driver: &dyn DriverApi) -> Self {
        assert!(
            iface.init_tables.first().is_some_and(|it| it.is_master),
            "invariant: compiled programs carry their master init table first"
        );
        let values = iface.values.iter().map(|v| Slot {
            name: v.name.clone(),
            value: v.init.bits() as i128,
            width: v.width,
            alts: None,
            init_table: v.init_table,
            param_idx: v.param_idx,
        });
        let fields = iface.fields.iter().map(|f| Slot {
            name: f.name.clone(),
            value: f.init_index as i128,
            width: f.selector_bits,
            alts: Some(f.alts.len()),
            init_table: f.init_table,
            param_idx: f.param_idx,
        });
        let slots: Vec<Slot> = values.chain(fields).collect();

        let missing = "invariant: the program's init tables exist on the switch it was loaded onto";
        let init_table = |it: &p4r_compiler::iface::InitTable| InitTable {
            table: driver.table_id(&it.table).expect(missing),
            action: driver.action_id(&it.action).expect(missing),
            data: it.param_widths.iter().map(|w| Value::zero(*w)).collect(),
            handles: [EntryHandle(0), EntryHandle(0)],
        };
        let mut inits: Vec<InitTable> = iface.init_tables.iter().map(init_table).collect();
        for slot in &slots {
            inits[slot.init_table].data[slot.param_idx] = slot.cell(slot.value);
        }
        Isolation {
            // A fresh device runs vv = 1, mv = 0.
            vv: vec![1; usize::from(driver.num_pipes())],
            mv: 0,
            slots,
            inits,
            spare: Vec::new(),
        }
    }

    /// Committed config version (pipe 0's; all pipes agree between
    /// iterations).
    pub(crate) fn vv(&self) -> u8 {
        self.vv[0]
    }

    pub(crate) fn vv_per_pipe(&self) -> &[u8] {
        &self.vv
    }

    pub(crate) fn mv(&self) -> u8 {
        self.mv
    }

    pub(crate) fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Device tables an update's slot writes and commit can touch.
    pub(crate) fn init_tables(&self) -> impl Iterator<Item = TableId> + '_ {
        self.inits.iter().map(|it| it.table)
    }

    /// Init table `t`'s action data with the staged `writes` laid over it,
    /// in program order (a slot's last write wins).
    fn image(&mut self, t: usize, writes: &[(usize, i128)]) -> Vec<Value> {
        let mut data = std::mem::take(&mut self.spare);
        data.clone_from(&self.inits[t].data);
        for &(slot, value) in writes {
            let slot = &self.slots[slot];
            if slot.init_table == t {
                data[slot.param_idx] = slot.cell(value);
            }
        }
        data
    }

    /// The master's action data for config version `vv`: `[vv, mv, slots…]`.
    fn master(&mut self, vv: u8, writes: &[(usize, i128)]) -> Vec<Value> {
        let mut data = self.image(0, writes);
        data[0] = Value::new(u128::from(vv), 1);
        data[1] = Value::new(u128::from(self.mv), 1);
        data
    }

    /// Write this agent's master data as every pipe's default.
    fn assert_master(&mut self, driver: &mut dyn DriverApi) -> Result<(), DriverError> {
        let data = self.master(self.vv[0], &[]);
        driver.table_set_default(self.inits[0].table, self.inits[0].action, data, true)
    }

    /// Every pipe's master default data, or the first pipe whose read
    /// failed.
    fn read_master(
        &self,
        driver: &mut dyn DriverApi,
    ) -> Result<Vec<Vec<Value>>, (u16, DriverError)> {
        let read = |pipe| match driver.table_default_on(pipe, self.inits[0].table) {
            Ok((_, data)) => Ok(data),
            Err(e) => Err((pipe, e)),
        };
        (0..self.vv.len() as u16).map(read).collect()
    }

    // -- bring-up ---------------------------------------------------------------

    /// Initialise a fresh device: the master default in every pipe, then
    /// each further init table's two per-`vv` entries.
    pub(crate) fn install(&mut self, h: &mut Health) -> Result<(), AgentError> {
        let driver = h.driver_mut();
        self.assert_master(driver)?;
        for it in &mut self.inits[1..] {
            for vv in 0..2u8 {
                let data = it.data.clone();
                it.handles[usize::from(vv)] =
                    driver.table_add(it.table, vec![vv_key(vv)], 0, it.action, data)?;
            }
        }
        Ok(())
    }

    /// Re-assert this agent's data onto the entries a predecessor's
    /// [`install`](Isolation::install) left, at their deterministic handles
    /// (per-table handles start at 1, and init tables only ever receive
    /// the install's two adds).
    pub(crate) fn reassert(&mut self, h: &mut Health) -> Result<(), AgentError> {
        let driver = h.driver_mut();
        self.assert_master(driver)?;
        for it in &mut self.inits[1..] {
            it.handles = [EntryHandle(1), EntryHandle(2)];
            for handle in it.handles {
                driver.table_mod(it.table, handle, it.action, it.data.clone())?;
            }
        }
        Ok(())
    }

    /// Rebuild this view from the device after a crash at an arbitrary
    /// point, repairing what the dead agent left torn: steps 1–2 of
    /// [`MantisAgent::reconcile`](crate::MantisAgent::reconcile).
    pub(crate) fn read_back(&mut self, h: &mut Health) -> Result<(), AgentError> {
        let driver = h.driver_mut();
        let (table, action) = (self.inits[0].table, self.inits[0].action);
        let mut per_pipe = self.read_master(driver).map_err(|(_, e)| e)?.into_iter();
        let newest = per_pipe.next().expect("invariant: a switch has a pipe");
        if newest.len() != self.inits[0].data.len() {
            // The crash predates the master default (mid-install): assert
            // this agent's initial config on every pipe and start clean.
            self.assert_master(driver)?;
        } else {
            // Pipe 0 is authoritative; stale pipes roll forward to it.
            for (pipe, data) in (1u16..).zip(per_pipe) {
                if data != newest {
                    driver.table_set_default_on(pipe, table, action, newest.clone(), true)?;
                }
            }
            self.vv.fill(newest[0].bits() as u8);
            self.mv = newest[1].bits() as u8;
            self.adopt(0, newest);
        }

        for t in 1..self.inits.len() {
            let (table, action) = (self.inits[t].table, self.inits[t].action);
            let dump = driver.table_dump(table)?;
            let find = |vv| dump.iter().rfind(|e| e.key.first() == Some(&vv_key(vv)));
            // The active copy's data is what packets see: adopt it (if the
            // crash predates the install's add, this agent's data stands).
            if let Some(e) = find(self.vv[0]) {
                self.adopt(t, e.data.clone());
            }
            let data = &self.inits[t].data;
            let mut handles = [EntryHandle(0), EntryHandle(0)];
            for vv in 0..2u8 {
                handles[usize::from(vv)] = match find(vv) {
                    // Crash between prepare and mirror: repair the copy.
                    Some(e) if e.data != *data => {
                        driver.table_mod(table, e.handle, action, data.clone())?;
                        e.handle
                    }
                    Some(e) => e.handle,
                    None => driver.table_add(table, vec![vv_key(vv)], 0, action, data.clone())?,
                };
            }
            self.inits[t].handles = handles;
        }
        Ok(())
    }

    /// Take `loaded`, read off the device, as init table `t`'s data, and
    /// its cells as the committed values of the slots that live there.
    fn adopt(&mut self, t: usize, loaded: Vec<Value>) {
        for slot in self.slots.iter_mut().filter(|s| s.init_table == t) {
            slot.value = loaded[slot.param_idx].bits() as i128;
        }
        self.inits[t].data = loaded;
    }

    // -- measure ----------------------------------------------------------------

    /// Flip `mv` in every pipe and return the measurement copy that froze.
    /// On failure `mv` stays flipped: the caller died with the op, or calls
    /// [`unflip_measure`](Isolation::unflip_measure).
    pub(crate) fn flip_measure(&mut self, h: &mut Health) -> Result<u8, AgentError> {
        let frozen = self.mv;
        self.mv ^= 1;
        self.write_master(self.vv[0], &[], h)?;
        Ok(frozen)
    }

    /// Take a measure flip back over a fault-free recovery path, so device
    /// and agent agree again.
    pub(crate) fn unflip_measure(&mut self, h: &mut Health) {
        self.mv ^= 1;
        if let Err(e) = h.without_faults(|h| self.write_master(self.vv[0], &[], h)) {
            // With faults suspended the master set_default has no failure
            // mode left: the table/action were validated in `new`.
            panic!("invariant: fault-free master restore failed: {e}");
        }
    }

    /// Write every pipe's master init default for config version `vv`, pipe
    /// by pipe. Each write is a single atomic set_default, so a packet in
    /// that pipe observes either the old or the new versions, never a blend.
    fn write_master(
        &mut self,
        vv: u8,
        writes: &[(usize, i128)],
        h: &mut Health,
    ) -> Result<(), AgentError> {
        for pipe in 0..self.vv.len() as u16 {
            let mut op = DriverOp::SetDefaultOn {
                pipe,
                table: self.inits[0].table,
                action: self.inits[0].action,
                data: self.master(vv, writes),
                is_init_flip: true,
            };
            let sent = h.submit(&op);
            self.spare = op.take_data();
            sent?;
        }
        Ok(())
    }

    // -- update -----------------------------------------------------------------
    //
    // Nothing here changes this view until `settle`: the versions and cells
    // in flight are arguments of the images written, so a failed update
    // leaves nothing to take back but the device, which the driver's
    // checkpoints of the init tables restore.

    /// The copy no packet reads: an update is prepared there. The mirror
    /// then brings copy [`vv`](Isolation::vv), which the commit retired, up
    /// to date.
    pub(crate) fn shadow(&self) -> u8 {
        self.vv[0] ^ 1
    }

    /// Prepare or mirror the staged slot values: write each non-master
    /// init table `writes` touch — once, in first-write order — to its
    /// entry for config version `copy`. The master's cells reach the
    /// device with the flip.
    pub(crate) fn write_slots(
        &mut self,
        copy: u8,
        writes: &[(usize, i128)],
        h: &mut Health,
    ) -> Result<(), AgentError> {
        for w in 0..writes.len() {
            let table_of = |w: usize| self.slots[writes[w].0].init_table;
            let t = table_of(w);
            if t == 0 || (0..w).any(|earlier| table_of(earlier) == t) {
                continue;
            }
            let data = self.image(t, writes);
            let it = &self.inits[t];
            let mut op = DriverOp::TableMod {
                table: it.table,
                handle: it.handles[usize::from(copy)],
                action: it.action,
                data,
            };
            let sent = h.submit(&op);
            self.spare = op.take_data();
            sent?;
        }
        Ok(())
    }

    /// Commit: flip `vv` to the shadow copy pipe by pipe. The shadow copy
    /// was fully prepared in the one table every pipe matches, so each
    /// per-pipe flip moves that pipe atomically from the old config to the
    /// complete new one. A mid-sequence failure leaves the device mixed,
    /// for the driver's restore or a successor's
    /// [`read_back`](Isolation::read_back) to resolve.
    pub(crate) fn commit(
        &mut self,
        writes: &[(usize, i128)],
        h: &mut Health,
    ) -> Result<(), AgentError> {
        self.write_master(self.shadow(), writes, h)
    }

    /// The update holds on the device: the staged values are the committed
    /// ones, and the shadow copy the one packets read.
    pub(crate) fn settle(&mut self, writes: &[(usize, i128)]) {
        for &(slot, value) in writes {
            let slot = &mut self.slots[slot];
            slot.value = value;
            self.inits[slot.init_table].data[slot.param_idx] = slot.cell(value);
        }
        let shadow = self.shadow();
        self.vv.fill(shadow);
    }

    // -- oracle -----------------------------------------------------------------

    /// Read every pipe's master default back, faults suspended, and check
    /// the pipes agree; the divergence is described, naming the pipe.
    pub(crate) fn verify_atomicity(&self, h: &mut Health) -> Result<(), String> {
        let datas = h.without_faults(|h| self.read_master(h.driver_mut()));
        let datas =
            datas.map_err(|(pipe, e)| format!("atomicity read-back failed on pipe {pipe}: {e}"))?;
        for (pipe, data) in datas.iter().enumerate().skip(1) {
            if *data != datas[0] {
                return Err(format!(
                    "config torn across pipes: pipe {pipe} has {data:?}, pipe 0 has {:?}",
                    datas[0]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! [`Isolation`] on its own against a reference state machine: what a
    //! packet entering pipe `p` latches — version bits and every slot's
    //! value — read straight off the device after each protocol step.

    use super::*;
    use crate::testkit::{switch_for, Hooked};
    use p4r_compiler::{Compiled, CompilerOptions};
    use proptest::prelude::*;
    use rmt_sim::SharedSwitch;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Five slots over four init tables (one 32-bit cell fits each): the
    /// master carries its share next to `[vv, mv]`, the others ride
    /// per-`vv` entries.
    const PROGRAM: &str = r#"
header_type h_t { fields { a : 32; b : 32; } } header h_t h;
malleable value v0 { width : 32; init : 10; }
malleable value v1 { width : 32; init : 11; }
malleable value v2 { width : 32; init : 12; }
malleable value v3 { width : 32; init : 13; }
malleable field f { width : 32; init : h.a; alts { h.a, h.b } }
action sum() {
    modify_field(h.a, ${v0}); add_to_field(h.a, ${v1}); add_to_field(h.a, ${v2});
    add_to_field(h.a, ${v3});
}
action nop() { no_op(); }
table t { actions { sum; } default_action : sum(); }
malleable table u { reads { ${f} : exact; } actions { nop; } size : 4; }
control ingress { apply(t); apply(u); }
"#;
    const SLOTS: usize = 5;

    /// What a packet latches in one pipe: `(vv, mv, slot values)`.
    type Latched = (u8, u8, Vec<i128>);

    /// The reference: an update moves pipes `0..flipped` from the `old`
    /// config (version `vv`) to the `new` one (version `vv ^ 1`); a measure
    /// flip moves pipes `0..mv_flipped` from `mv` to `mv ^ 1`. Nothing else
    /// a step does may show in any pipe.
    #[derive(Clone, Debug)]
    struct Model {
        old: Vec<i128>,
        new: Vec<i128>,
        vv: u8,
        flipped: usize,
        mv: u8,
        mv_flipped: usize,
    }

    impl Model {
        fn latched(&self, pipe: usize) -> Latched {
            let mv = self.mv ^ u8::from(pipe < self.mv_flipped);
            match pipe < self.flipped {
                true => (self.vv ^ 1, mv, self.new.clone()),
                false => (self.vv, mv, self.old.clone()),
            }
        }

        /// Every pipe ends up where pipe 0 is (a completed step, or a
        /// successor's read-back); with no pipe moved, the step is void.
        fn settle(&mut self) {
            if self.flipped > 0 {
                self.old = self.new.clone();
                self.vv ^= 1;
            }
            self.mv ^= u8::from(self.mv_flipped > 0);
            (self.new, self.flipped, self.mv_flipped) = (self.old.clone(), 0, 0);
        }

        /// The open step is taken back.
        fn revert(&mut self) {
            (self.new, self.flipped, self.mv_flipped) = (self.old.clone(), 0, 0);
        }
    }

    /// An `Isolation` on a real `pipes`-pipe switch behind a driver that
    /// lets `budget` per-pipe master writes through and fails the next.
    struct Rig {
        compiled: Compiled,
        switch: SharedSwitch,
        h: Health,
        iso: Isolation,
        /// `(master writes still allowed, die rather than fail)`.
        budget: Rc<Cell<(usize, bool)>>,
        pipes: usize,
    }

    impl Rig {
        fn new(pipes: usize) -> Rig {
            let opts = CompilerOptions {
                max_init_action_bits: 40,
                ..CompilerOptions::default()
            };
            let (compiled, switch) = switch_for(PROGRAM, &opts, pipes as u16);
            assert_eq!(compiled.iface.init_tables.len(), 4);
            let budget = Rc::new(Cell::new((usize::MAX, false)));
            let left = budget.clone();
            let hook = move |op: &DriverOp| {
                let DriverOp::SetDefaultOn { .. } = op else {
                    return None;
                };
                let (allowed, crash) = left.get();
                left.set((allowed.saturating_sub(1), crash));
                let op = "init_flip";
                let persistent = true;
                match (allowed, crash) {
                    (0, true) => Some(DriverError::Crashed { op }),
                    (0, false) => Some(DriverError::Injected { op, persistent }),
                    _ => None,
                }
            };
            let mut h = Health::new(Box::new(Hooked::new(switch.clone(), Box::new(hook))));
            let mut iso = Isolation::new(&compiled.iface, h.driver());
            iso.install(&mut h).unwrap();
            Rig {
                compiled,
                switch,
                h,
                iso,
                budget,
                pipes,
            }
        }

        /// Let `flips` per-pipe master writes of `step` through and fail
        /// the next one (crashing or not); true if `step` completed.
        fn limited(
            &mut self,
            (flips, crash): (usize, bool),
            step: impl FnOnce(&mut Isolation, &mut Health) -> Result<(), AgentError>,
        ) -> bool {
            self.budget.set((flips, crash));
            let res = step(&mut self.iso, &mut self.h);
            self.budget.set((usize::MAX, false));
            assert_eq!(res.is_ok(), flips >= self.pipes);
            assert!(res.is_ok() || res.is_err_and(|e| e.is_crash() == crash));
            flips >= self.pipes
        }

        /// The data init table `t` hands a packet of version `vv` in `pipe`.
        fn init_data(&self, pipe: usize, t: usize, vv: u8) -> Vec<Value> {
            let sw = self.switch.borrow();
            let table = sw.table_id(&self.compiled.iface.init_tables[t].table);
            let table = sw.table_ref(table.unwrap());
            if t == 0 {
                return table.default_action_on(pipe as u16).unwrap().1.to_vec();
            }
            let mut entries = table.entries();
            let hit = entries.find(|e| e.key[0] == vv_key(vv)).unwrap();
            hit.action_data.to_vec()
        }

        fn latched(&self, pipe: usize) -> Latched {
            let master = self.init_data(pipe, 0, 0);
            let (vv, mv) = (master[0].bits() as u8, master[1].bits() as u8);
            let iface = &self.compiled.iface;
            let values = iface.values.iter().map(|v| (v.init_table, v.param_idx));
            let fields = iface.fields.iter().map(|f| (f.init_table, f.param_idx));
            let cell =
                |(t, param): (usize, usize)| self.init_data(pipe, t, vv)[param].bits() as i128;
            (vv, mv, values.chain(fields).map(cell).collect())
        }

        /// Every pipe latches what the model says, and each is entirely old
        /// xor entirely new.
        fn check(&self, model: &Model, at: &str) {
            for pipe in 0..self.pipes {
                let got = self.latched(pipe);
                assert_eq!(got, model.latched(pipe), "pipe {pipe} {at}");
                assert!(got.2 == model.old || got.2 == model.new, "pipe {pipe} {at}");
            }
        }

        /// Between iterations: the bookkeeping agrees with the model, the
        /// device with itself (pipes, and both copies of each init table).
        fn check_quiescent(&mut self, model: &Model, at: &str) {
            self.check(model, at);
            assert!(
                self.iso.vv_per_pipe().iter().all(|v| *v == model.vv),
                "{at}"
            );
            assert_eq!(self.iso.mv(), model.mv, "{at}");
            let committed: Vec<i128> = self.iso.slots().iter().map(Slot::value).collect();
            assert_eq!(committed, model.old, "{at}");
            self.iso.verify_atomicity(&mut self.h).expect(at);
            for t in 1..self.compiled.iface.init_tables.len() {
                assert_eq!(self.init_data(0, t, 0), self.init_data(0, t, 1), "{at}");
            }
        }

        /// A successor process attaches and reads the device back.
        fn restart(&mut self) {
            self.iso = Isolation::new(&self.compiled.iface, self.h.driver());
            self.iso.read_back(&mut self.h).expect("read_back");
        }
    }

    /// How a round's step ends once `flips` of its master writes landed.
    #[derive(Clone, Copy, Debug)]
    enum Ending {
        /// It runs to completion (a failure is taken back in-process).
        Survive,
        /// The process dies: right there, or — for a completed commit —
        /// before the mirror. A successor reads back.
        Crash,
    }

    /// One dialogue round: a measure flip of which `measure` master writes
    /// land, then — if it completed — an update staging `writes` whose
    /// commit lands `commit` flips.
    #[derive(Clone, Debug)]
    struct Round {
        measure: (usize, Ending),
        writes: Vec<(usize, i128)>,
        commit: (usize, Ending),
    }

    fn run(pipes: usize, rounds: &[Round]) {
        let mut rig = Rig::new(pipes);
        let init: Vec<i128> = rig.iso.slots().iter().map(Slot::value).collect();
        let mut model = Model {
            old: init.clone(),
            new: init,
            vv: 1,
            flipped: 0,
            mv: 0,
            mv_flipped: 0,
        };
        rig.check_quiescent(&model, "after install");
        for (r, round) in rounds.iter().enumerate() {
            // ── measure ──
            let (flips, ending) = round.measure;
            let crash = matches!(ending, Ending::Crash);
            let done = rig.limited((flips, crash), |iso, h| iso.flip_measure(h).map(drop));
            model.mv_flipped = flips.min(pipes);
            rig.check(&model, &format!("round {r}: measure flip, {flips} landed"));
            match (done, ending) {
                (true, _) => model.settle(),
                (false, Ending::Survive) => {
                    rig.iso.unflip_measure(&mut rig.h);
                    model.revert();
                }
                (false, Ending::Crash) => {
                    rig.restart();
                    model.settle();
                }
            }
            rig.check_quiescent(&model, &format!("round {r}: measured"));
            if !done || round.writes.is_empty() {
                continue;
            }
            // ── update: checkpoint, prepare, commit, then mirror or not ──
            let writes = &round.writes;
            for &(slot, value) in writes {
                model.new[slot] = value;
            }
            let init_tables: Vec<TableId> = rig.iso.init_tables().collect();
            let checkpoint = |t: &TableId| rig.h.driver_mut().table_checkpoint(*t).unwrap();
            let tokens: Vec<u64> = init_tables.iter().map(checkpoint).collect();
            let (shadow, retired) = (rig.iso.shadow(), rig.iso.vv());
            rig.iso.write_slots(shadow, writes, &mut rig.h).unwrap();
            rig.check(&model, &format!("round {r}: prepared"));
            let (flips, ending) = round.commit;
            let crash = matches!(ending, Ending::Crash);
            let done = rig.limited((flips, crash), |iso, h| iso.commit(writes, h));
            model.flipped = flips.min(pipes);
            rig.check(&model, &format!("round {r}: commit, {flips} landed"));
            match (done, ending) {
                (true, Ending::Survive) => {
                    rig.iso.write_slots(retired, writes, &mut rig.h).unwrap();
                    rig.iso.settle(writes);
                    model.settle();
                }
                // What `Txn::rollback` does: the driver restores the init
                // tables; the bookkeeping never moved.
                (false, Ending::Survive) => {
                    for (t, token) in init_tables.iter().zip(&tokens) {
                        rig.h.driver_mut().table_restore(*t, *token).unwrap();
                    }
                    model.revert();
                }
                (_, Ending::Crash) => {
                    rig.restart();
                    model.settle();
                }
            }
            for token in tokens {
                rig.h.driver_mut().checkpoint_discard(token);
            }
            rig.check_quiescent(&model, &format!("round {r}: updated"));
        }
    }

    /// The exhaustive crash-point sweep: die after `k` of `n` per-pipe
    /// flips, for a measure flip and for a commit, then read back.
    #[test]
    fn crash_after_k_of_n_flips_then_read_back() {
        let writes: Vec<(usize, i128)> = (0..SLOTS - 1).map(|s| (s, 100 + s as i128)).collect();
        let writes = [writes, vec![(SLOTS - 1, 1)]].concat();
        for pipes in [1, 2, 4] {
            for k in 0..=pipes {
                let round = Round {
                    measure: (pipes, Ending::Survive),
                    writes: writes.clone(),
                    commit: (k, Ending::Crash),
                };
                let measure_dies = Round {
                    measure: (k, Ending::Crash),
                    ..round.clone()
                };
                run(pipes, &[round.clone(), measure_dies, round]);
            }
        }
    }

    fn ending() -> impl Strategy<Value = Ending> {
        prop_oneof![Just(Ending::Survive), Just(Ending::Crash)]
    }

    fn round() -> impl Strategy<Value = Round> {
        // A slot id and a value every slot can hold (the field has 2 alts).
        let write = (0..SLOTS, 0..1_000_000u32).prop_map(|(s, v)| {
            let v = if s == SLOTS - 1 { v % 2 } else { v };
            (s, i128::from(v))
        });
        // Twice as many flips allowed as there may be pipes: half the
        // steps complete.
        let step = || (0..8usize, ending());
        (step(), proptest::collection::vec(write, 0..5), step()).prop_map(
            |(measure, writes, commit)| Round {
                measure,
                writes,
                commit,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_rounds_latch_what_the_model_says(
            pipes in proptest::sample::select(vec![1usize, 2, 4]),
            rounds in proptest::collection::vec(round(), 1..8),
        ) {
            run(pipes, &rounds);
        }
    }
}

//! The streaming-multiprocessor (SM) model: per-cycle issue, scoreboard,
//! functional-unit ports, L1D, MSHRs, barrier handling, stall attribution,
//! and per-event energy charging.

use crate::cache::Cache;
use crate::config::{CacheGeometry, GpuConfig, PowerConstants};
use crate::decode::{DecodedInst, DTYPE_ORDER};
use crate::exec::{self, ExecCtx, PendKind, Warp};
use crate::mem::GlobalMemory;
use crate::memsys::MemorySystem;
use crate::power::{Component, PowerMeter};
use crate::sched::Scheduler;
use crate::stats::{StallBreakdown, StallReason};
use std::collections::BTreeMap;
use tango_isa::{AddrSpace, DType, Dim3, FuncUnit, KernelProgram, Opcode};

/// Resident thread-block bookkeeping.
#[derive(Debug)]
struct CtaRt {
    coords: (u32, u32, u32),
    smem: Vec<u8>,
    threads: u32,
    warps_total: u32,
    warps_done: u32,
    barrier_arrived: u32,
}

/// Statistics accumulated across the launch (shared by all SMs).
///
/// Per-opcode/dtype counters are flat arrays indexed by discriminant (the
/// hot path increments one slot per issue instead of probing a map) and
/// fold back into the `KernelStats` `BTreeMap`s at launch finish — the
/// map iteration order is the discriminant order either way, so reports
/// are byte-identical.
#[derive(Debug, Default)]
pub(crate) struct LaunchAgg {
    pub warp_instructions: u64,
    pub thread_instructions: u64,
    pub op_counts: [u64; Opcode::ALL.len()],
    pub dtype_counts: [u64; DTYPE_ORDER.len()],
    pub stalls: StallBreakdown,
    pub const_accesses: u64,
    pub shared_accesses: u64,
}

impl LaunchAgg {
    /// Folds the flat opcode counters into the reporting map (zero entries
    /// omitted, exactly as the entry-API accumulation used to).
    pub fn op_counts_map(&self) -> BTreeMap<Opcode, u64> {
        Opcode::ALL
            .iter()
            .zip(self.op_counts.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(&op, &n)| (op, n))
            .collect()
    }

    /// Folds the flat dtype counters into the reporting map.
    pub fn dtype_counts_map(&self) -> BTreeMap<DType, u64> {
        DTYPE_ORDER
            .iter()
            .zip(self.dtype_counts.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(&t, &n)| (t, n))
            .collect()
    }
}

/// Everything an SM needs from the outside during one cycle.
pub(crate) struct SmEnv<'a> {
    pub cycle: u64,
    /// Machine cycles this call represents (>= 1; larger after a skip).
    pub weight: u64,
    pub mem: &'a mut GlobalMemory,
    pub memsys: &'a mut MemorySystem,
    pub meter: &'a mut PowerMeter,
    pub agg: &'a mut LaunchAgg,
    pub program: &'a KernelProgram,
    /// Flat pre-decoded form of `program` (index-parallel).
    pub decoded: &'a [DecodedInst],
    pub params: &'a [u32],
    pub grid: Dim3,
    pub block: Dim3,
    pub line_bytes: u32,
}

/// One streaming multiprocessor.
pub(crate) struct Sm {
    cfg: SmCfg,
    power: PowerConstants,
    pub(crate) l1d: Option<Cache>,
    warps: Vec<Option<Warp>>,
    ctas: Vec<Option<CtaRt>>,
    mshr: Vec<u64>,
    sched: Scheduler,
    sched_block_until: u64,
    const_warm: Vec<bool>,
    resident_threads: u32,
    pub(crate) peak_threads: u32,
    order_scratch: Vec<usize>,
    /// Occupied warp slots, oldest-first (ages are monotone, so accepts
    /// append and finishes remove — no sorting in the hot loop).
    age_order: Vec<usize>,
    /// Occupied warp slots in ascending slot order (LRR's rotation base).
    slot_asc: Vec<usize>,
    /// Cycles of stall samples owed since the last sampling pass.
    sample_debt: u64,
    /// Live warp count (`is_active` in O(1)).
    resident_warps: u32,
    /// Reused line-coalescing buffer handed to the interpreter (round-trips
    /// through `ExecOutcome::global_lines` on every global memory op).
    line_scratch: Vec<u32>,
}

/// How often (in weighted cycles) the stall sampler classifies every
/// resident warp. Zero-issue cycles always sample (their classification
/// doubles as the event-skip hint), so only dense issue regions are
/// decimated — fractions are preserved via sample weights.
const SAMPLE_PERIOD: u64 = 16;

/// The scalar knobs an SM consults every cycle (copied out of `GpuConfig`
/// so the env borrow stays small).
#[derive(Debug, Clone, Copy)]
struct SmCfg {
    issue_width: u32,
    sp_width: u32,
    sfu_width: u32,
    ldst_width: u32,
    alu_latency: u32,
    sfu_latency: u32,
    shared_latency: u32,
    const_latency: u32,
    l1_latency: u32,
    l2_latency: u32,
    mshrs: usize,
    fetch_bubble: u32,
    requeue_penalty: u32,
}

impl Sm {
    pub fn new(
        config: &GpuConfig,
        l1_geometry: Option<CacheGeometry>,
        cta_slots: u32,
        warps_per_cta: u32,
        param_count: usize,
        scheduler: Scheduler,
    ) -> Self {
        let warp_slots = (cta_slots * warps_per_cta) as usize;
        Sm {
            cfg: SmCfg {
                issue_width: config.issue_width,
                sp_width: config.sp_width,
                sfu_width: config.sfu_width,
                ldst_width: config.ldst_width,
                alu_latency: config.alu_latency,
                sfu_latency: config.sfu_latency,
                shared_latency: config.shared_latency,
                const_latency: config.const_latency,
                l1_latency: config.l1_latency,
                l2_latency: config.l2_latency,
                mshrs: config.mshrs_per_sm as usize,
                fetch_bubble: config.fetch_bubble,
                requeue_penalty: config.requeue_penalty,
            },
            power: config.power,
            l1d: l1_geometry.map(|g| Cache::new(g, false)),
            warps: (0..warp_slots).map(|_| None).collect(),
            ctas: (0..cta_slots as usize).map(|_| None).collect(),
            mshr: Vec::new(),
            sched: scheduler,
            sched_block_until: 0,
            const_warm: vec![false; param_count],
            resident_threads: 0,
            peak_threads: 0,
            order_scratch: Vec::new(),
            age_order: Vec::new(),
            slot_asc: Vec::new(),
            sample_debt: 0,
            resident_warps: 0,
            line_scratch: Vec::new(),
        }
    }

    /// Whether a CTA slot is free.
    pub fn has_room(&self) -> bool {
        self.ctas.iter().any(Option::is_none)
    }

    /// Whether any warp is resident.
    pub fn is_active(&self) -> bool {
        self.resident_warps > 0
    }

    /// Installs a CTA and its warps.
    ///
    /// # Panics
    ///
    /// Panics if no CTA slot is free (callers check [`has_room`](Self::has_room)).
    pub fn accept_cta(&mut self, coords: (u32, u32, u32), program: &KernelProgram, block: Dim3, smem_bytes: u32) {
        let cta_slot = self
            .ctas
            .iter()
            .position(Option::is_none)
            .expect("accept_cta requires a free slot");
        let threads = block.count() as u32;
        let warps_total = threads.div_ceil(32);
        self.ctas[cta_slot] = Some(CtaRt {
            coords,
            smem: vec![0; smem_bytes.max(4) as usize],
            threads,
            warps_total,
            warps_done: 0,
            barrier_arrived: 0,
        });
        let reg_count = program.register_count().max(1);
        let pred_count = program.pred_count().max(1);
        for w in 0..warps_total {
            let lanes = (threads - w * 32).min(32);
            let warp = Warp::new(cta_slot, w, lanes, reg_count, pred_count);
            let slot = self
                .warps
                .iter()
                .position(Option::is_none)
                .expect("warp slots sized for max residency");
            self.warps[slot] = Some(warp);
            self.resident_warps += 1;
            self.age_order.push(slot); // ages are monotone: stays sorted
            let at = self.slot_asc.partition_point(|&s| s < slot);
            self.slot_asc.insert(at, slot);
        }
        self.resident_threads += threads;
        self.peak_threads = self.peak_threads.max(self.resident_threads);
    }

    fn classify_pend(kind: PendKind) -> StallReason {
        match kind {
            PendKind::Mem | PendKind::Shared => StallReason::MemoryDependency,
            PendKind::Const => StallReason::ConstantMemoryDependency,
            _ => StallReason::ExecDependency,
        }
    }

    /// Scoreboard + structural check. `None` means the warp can issue now;
    /// otherwise returns the stall reason plus the earliest cycle at which
    /// the blocking condition can clear (`u64::MAX` for event-driven
    /// conditions like barriers, whose release is another warp's progress).
    fn check_issue(&self, slot: usize, env: &SmEnv<'_>, ports: &Ports) -> Option<(StallReason, u64)> {
        let warp = self.warps[slot].as_ref().expect("checked occupied");
        if warp.at_barrier {
            return Some((StallReason::Sync, u64::MAX));
        }
        if warp.fetch_ready > env.cycle {
            return Some((StallReason::InstFetch, warp.fetch_ready));
        }
        let d = &env.decoded[warp.pc() as usize];
        if let Some(p) = d.guard {
            let ready = warp.pred_ready[p as usize];
            if ready > env.cycle {
                return Some((StallReason::ExecDependency, ready));
            }
        }
        for &r in &d.reads[..d.nreads as usize] {
            let ready = warp.reg_ready[r as usize];
            if ready > env.cycle {
                return Some((Self::classify_pend(warp.reg_pend[r as usize]), ready));
            }
        }
        if let Some(dr) = d.dst {
            let ready = warp.reg_ready[dr as usize];
            if ready > env.cycle {
                return Some((Self::classify_pend(warp.reg_pend[dr as usize]), ready));
            }
        }
        if let Some(p) = d.pdst {
            let ready = warp.pred_ready[p as usize];
            if ready > env.cycle {
                return Some((StallReason::ExecDependency, ready));
            }
        }
        match d.unit {
            FuncUnit::Sp => {
                if ports.sp >= self.cfg.sp_width {
                    return Some((StallReason::PipeBusy, env.cycle + 1));
                }
            }
            FuncUnit::Sfu => {
                if ports.sfu >= self.cfg.sfu_width {
                    return Some((StallReason::PipeBusy, env.cycle + 1));
                }
            }
            FuncUnit::LdSt => {
                if ports.ldst >= self.cfg.ldst_width {
                    return Some((StallReason::PipeBusy, env.cycle + 1));
                }
            }
            FuncUnit::Ctrl => {}
        }
        if d.is_global_mem && self.mshr.len() >= self.cfg.mshrs {
            let drain = self.mshr.iter().copied().min().unwrap_or(env.cycle + 1);
            return Some((StallReason::MemoryThrottle, drain));
        }
        None
    }

    /// Issues one warp-instruction: functional execution, timing update,
    /// cache traffic, and energy charges.
    fn issue(&mut self, slot: usize, env: &mut SmEnv<'_>, ports: &mut Ports) {
        let mut warp = self.warps[slot].take().expect("checked occupied");
        let pc = warp.pc() as usize;
        let d = env.decoded[pc];
        let op = d.op;
        let dtype = d.dtype;
        let unit = d.unit;
        let dst = d.dst;
        let pdst = d.pdst;
        let reg_srcs = d.nreads as u32;
        let const_param_index = d.const_param_index;

        let cta_slot = warp.cta_slot;
        let mut out = {
            let cta = self.ctas[cta_slot].as_mut().expect("warp's CTA is resident");
            let mut ectx = ExecCtx {
                mem: env.mem,
                smem: &mut cta.smem,
                params: env.params,
                block: env.block,
                grid: env.grid,
                cta: cta.coords,
                line_bytes: env.line_bytes,
                lines_scratch: &mut self.line_scratch,
            };
            exec::execute(&mut warp, env.program, &mut ectx)
        };

        // Port usage.
        match unit {
            FuncUnit::Sp => ports.sp += 1,
            FuncUnit::Sfu => ports.sfu += 1,
            FuncUnit::LdSt => ports.ldst += 1,
            FuncUnit::Ctrl => {}
        }

        // Instruction counters.
        let lanes = out.exec_lanes.max(1) as u64;
        env.agg.warp_instructions += 1;
        env.agg.thread_instructions += lanes;
        env.agg.op_counts[op as usize] += lanes;
        env.agg.dtype_counts[dtype as usize] += lanes;

        // Per-issue energy.
        let p = &self.power;
        let lane_frac = (lanes as f64 / 32.0).max(1.0 / 32.0);
        env.meter.charge_nj(Component::Ibp, p.ibp_nj);
        env.meter.charge_nj(Component::Icp, p.icp_nj);
        env.meter.charge_nj(Component::Schedp, p.sched_nj);
        env.meter.charge_nj(Component::Pipep, p.pipe_nj);
        let rf_accesses = (reg_srcs + dst.map(|_| 1).unwrap_or(0)) as f64;
        if rf_accesses > 0.0 {
            env.meter.charge_nj(Component::Rfp, p.rf_access_nj * rf_accesses * lane_frac);
        }
        match unit {
            FuncUnit::Sp => {
                if dtype.is_float() {
                    env.meter.charge_nj(Component::Fpup, p.fpu_nj * lane_frac);
                } else {
                    env.meter.charge_nj(Component::Spp, p.sp_nj * lane_frac);
                }
            }
            FuncUnit::Sfu => env.meter.charge_nj(Component::Sfup, p.sfu_nj * lane_frac),
            _ => {}
        }

        // Timing.
        match op {
            Opcode::Ld | Opcode::St => match d.space.expect("validated memory op") {
                AddrSpace::Global => {
                    let is_store = out.global_is_store;
                    let mut completion = env.cycle + self.cfg.l1_latency as u64;
                    for &line in &out.global_lines {
                        let l1_hit = match self.l1d.as_mut() {
                            Some(l1) => {
                                env.meter.charge_nj(Component::Dcp, p.l1_nj);
                                l1.access(line, is_store)
                            }
                            None => false,
                        };
                        if l1_hit && !is_store {
                            completion = completion.max(env.cycle + self.cfg.l1_latency as u64);
                        } else {
                            let resp = env.memsys.access(env.cycle, line, is_store);
                            env.meter.charge_nj(Component::L2cp, p.l2_nj);
                            if !resp.l2_hit {
                                env.meter.charge_nj(Component::Mcp, p.mc_nj);
                                env.meter.charge_nj(Component::Nocp, p.noc_nj);
                                env.meter.charge_nj(Component::Dramp, p.dram_nj);
                            }
                            completion = completion.max(resp.completion_cycle);
                            self.mshr.push(resp.completion_cycle);
                        }
                    }
                    if let Some(dr) = dst {
                        warp.reg_ready[dr as usize] = completion;
                        warp.reg_pend[dr as usize] = PendKind::Mem;
                    }
                }
                AddrSpace::Shared => {
                    env.agg.shared_accesses += out.shared_accesses as u64;
                    env.meter
                        .charge_nj(Component::Shrdp, p.shared_nj * out.shared_accesses as f64 / 8.0);
                    if let Some(dr) = dst {
                        warp.reg_ready[dr as usize] = env.cycle + self.cfg.shared_latency as u64;
                        warp.reg_pend[dr as usize] = PendKind::Shared;
                    }
                }
                AddrSpace::Const => {
                    env.agg.const_accesses += 1;
                    env.meter.charge_nj(Component::Ccp, p.const_nj);
                    let warm = const_param_index
                        .map(|i| {
                            let w = self.const_warm.get(i).copied().unwrap_or(true);
                            if let Some(flag) = self.const_warm.get_mut(i) {
                                *flag = true;
                            }
                            w
                        })
                        .unwrap_or(true);
                    let lat = if warm { self.cfg.const_latency } else { self.cfg.l2_latency };
                    if let Some(dr) = dst {
                        warp.reg_ready[dr as usize] = env.cycle + lat as u64;
                        warp.reg_pend[dr as usize] = PendKind::Const;
                    }
                }
            },
            _ => {
                let lat = match unit {
                    FuncUnit::Sfu => self.cfg.sfu_latency,
                    _ => self.cfg.alu_latency,
                };
                if let Some(dr) = dst {
                    warp.reg_ready[dr as usize] = env.cycle + lat as u64;
                    warp.reg_pend[dr as usize] = PendKind::Alu;
                }
                if let Some(pr) = pdst {
                    warp.pred_ready[pr as usize] = env.cycle + lat as u64;
                }
            }
        }

        // Hand the line buffer back for the next memory instruction.
        if d.is_global_mem {
            self.line_scratch = std::mem::take(&mut out.global_lines);
        }

        if out.redirect {
            warp.fetch_ready = env.cycle + self.cfg.fetch_bubble as u64;
        }

        let finished = out.warp_finished;
        if finished {
            self.sched.note_warp_finished(slot);
            self.resident_warps -= 1;
            self.age_order.retain(|&s| s != slot);
            self.slot_asc.retain(|&s| s != slot);
            // Drop the warp; its slot frees up.
        } else {
            self.warps[slot] = Some(warp);
        }

        if out.did_barrier || finished {
            let cta = self.ctas[cta_slot].as_mut().expect("cta resident");
            if out.did_barrier {
                cta.barrier_arrived += 1;
            }
            if finished {
                cta.warps_done += 1;
            }
            self.maybe_release_barrier(cta_slot);
            let cta_done = {
                let cta = self.ctas[cta_slot].as_ref().expect("cta resident");
                cta.warps_done == cta.warps_total
            };
            if cta_done {
                let cta = self.ctas[cta_slot].take().expect("cta resident");
                self.resident_threads -= cta.threads;
            }
        }
    }

    fn maybe_release_barrier(&mut self, cta_slot: usize) {
        let Some(cta) = self.ctas[cta_slot].as_mut() else {
            return;
        };
        let live = cta.warps_total - cta.warps_done;
        if live > 0 && cta.barrier_arrived >= live {
            cta.barrier_arrived = 0;
            for w in self.warps.iter_mut().flatten() {
                if w.cta_slot == cta_slot {
                    w.at_barrier = false;
                }
            }
        }
    }

    /// Runs one cycle. `env.weight` is the number of machine cycles this
    /// call represents (1 in dense regions; more after an event skip) and
    /// weights the stall-sampling counters.
    ///
    /// Returns `(still_active, next_event_cycle)`: the earliest future
    /// cycle at which this SM's state can change. When no SM can issue,
    /// the launch loop jumps straight to the minimum of these hints
    /// instead of ticking every stalled cycle.
    pub fn cycle(&mut self, env: &mut SmEnv<'_>) -> (bool, u64) {
        if !self.is_active() {
            return (false, u64::MAX);
        }
        let cycle = env.cycle;
        if !self.mshr.is_empty() {
            self.mshr.retain(|&c| c > cycle);
        }

        let mut ports = Ports::default();
        let mut issued_slots: Vec<usize> = Vec::with_capacity(self.cfg.issue_width as usize);
        let mut next_event = u64::MAX;

        if cycle >= self.sched_block_until {
            let mut order = std::mem::take(&mut self.order_scratch);
            self.sched.order_into(&self.age_order, &self.slot_asc, &mut order);
            for &slot in &order {
                if issued_slots.len() >= self.cfg.issue_width as usize {
                    break;
                }
                if self.warps[slot].is_none() {
                    continue; // finished earlier this same cycle
                }
                match self.check_issue(slot, env, &ports) {
                    None => {
                        self.issue(slot, env, &mut ports);
                        issued_slots.push(slot);
                        self.sched.note_issue(slot);
                    }
                    Some((reason, _hint)) => {
                        // Long-latency stalls (memory, barriers) force GTO/
                        // TLV to move the warp between queues; barriers in
                        // particular MUST leave TLV's active set or the
                        // releasing warps would never be scheduled.
                        if matches!(
                            reason,
                            StallReason::MemoryDependency | StallReason::MemoryThrottle | StallReason::Sync
                        ) && self.sched.note_memory_stall(slot)
                        {
                            self.sched_block_until = cycle + self.cfg.requeue_penalty as u64;
                        }
                        self.sched.note_blocked(slot);
                    }
                }
            }
            self.order_scratch = order;
        } else {
            next_event = next_event.min(self.sched_block_until);
        }

        // Warp-state sampling (Figure 7) and event hints for the skip
        // logic. Zero-issue cycles must classify every warp to find the
        // next event; dense regions sample every SAMPLE_PERIOD weighted
        // cycles and carry the debt in the sample weights.
        self.sample_debt += env.weight;
        let need_hints = issued_slots.is_empty();
        if need_hints || self.sample_debt >= SAMPLE_PERIOD {
            let weight = self.sample_debt;
            self.sample_debt = 0;
            for i in 0..self.age_order.len() {
                let slot = self.age_order[i];
                if self.warps[slot].is_none() || issued_slots.contains(&slot) {
                    continue;
                }
                match self.check_issue(slot, env, &ports) {
                    Some((reason, hint)) => {
                        env.agg.stalls.record_n(reason, weight);
                        next_event = next_event.min(hint.max(cycle + 1));
                    }
                    None => {
                        env.agg.stalls.record_n(StallReason::NotSelected, weight);
                        next_event = next_event.min(cycle + 1);
                    }
                }
            }
        }

        if !issued_slots.is_empty() {
            next_event = cycle + 1;
        }
        (self.is_active(), next_event)
    }
}

impl Sm {
    /// Hang diagnosis helper (enabled by TANGO_DEBUG_HANG).
    pub fn debug_state(&self, cycle: u64, program: &KernelProgram) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "age_order={:?} {} block_until={} ", self.age_order, self.sched.debug_tlv(), self.sched_block_until);
        for (slot, w) in self.warps.iter().enumerate() {
            if let Some(w) = w.as_ref() {
                let pc = w.pc() as usize;
                let _ = write!(
                    out,
                    "[w{} pc={} {} bar={} mask={:x} fr={}] ",
                    slot,
                    pc,
                    program.instructions()[pc].op,
                    w.at_barrier,
                    w.mask_debug(),
                    w.fetch_ready.saturating_sub(cycle),
                );
            }
        }
        out
    }
}

#[derive(Debug, Default)]
struct Ports {
    sp: u32,
    sfu: u32,
    ldst: u32,
}

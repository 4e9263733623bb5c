//! Warp state and the functional interpreter.
//!
//! The simulator is execution-driven: when the SM issues a warp-instruction
//! the interpreter here actually performs it (reads simulated device memory,
//! does the arithmetic across the 32 lanes, writes results), so the output
//! of a simulated kernel is bit-comparable against the `tango-tensor`
//! reference operators. Timing (latencies, cache behaviour) is layered on
//! top by `sm.rs`.

use crate::mem::GlobalMemory;
use tango_isa::{AddrSpace, CmpOp, DType, Dim3, Instruction, KernelProgram, Opcode, Operand, Special};

/// Reconvergence value meaning "no reconvergence point" (the base stack
/// entry).
const NO_RECONV: u32 = u32::MAX;

/// What kind of result a pending register write is waiting on, for stall
/// classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum PendKind {
    /// Nothing pending.
    #[default]
    None,
    /// Arithmetic pipeline result.
    Alu,
    /// Global/local memory load.
    Mem,
    /// Constant-cache load.
    Const,
    /// Shared-memory load.
    Shared,
}

/// One SIMT reconvergence stack entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StackEntry {
    pub mask: u32,
    pub pc: u32,
    pub reconv: u32,
}

/// Per-warp architectural and micro-architectural state.
#[derive(Debug, Clone)]
pub(crate) struct Warp {
    /// Slot of the owning CTA within the SM.
    pub cta_slot: usize,
    /// Warp index within the CTA.
    pub warp_in_cta: u32,
    /// SIMT stack; the last entry is active.
    pub stack: Vec<StackEntry>,
    /// Reconvergence point armed by the most recent `ssy`.
    pub pending_reconv: u32,
    /// Register values, `reg * 32 + lane`.
    pub regs: Vec<u32>,
    /// Predicate registers, one 32-lane mask each.
    pub preds: Vec<u32>,
    /// Cycle at which each register's pending write completes.
    pub reg_ready: Vec<u64>,
    /// What the pending write (if any) is waiting on.
    pub reg_pend: Vec<PendKind>,
    /// Cycle at which each predicate's pending write completes.
    pub pred_ready: Vec<u64>,
    /// Cycle at which the next instruction is available (branch bubble).
    pub fetch_ready: u64,
    /// Waiting at a block barrier.
    pub at_barrier: bool,
    /// All lanes exited.
    pub done: bool,
}

impl Warp {
    /// Creates a warp whose initial mask covers `active_lanes` lanes.
    pub fn new(cta_slot: usize, warp_in_cta: u32, active_lanes: u32, reg_count: u32, pred_count: u32) -> Self {
        let mask = if active_lanes >= 32 {
            u32::MAX
        } else {
            (1u32 << active_lanes) - 1
        };
        Warp {
            cta_slot,
            warp_in_cta,
            stack: vec![StackEntry {
                mask,
                pc: 0,
                reconv: NO_RECONV,
            }],
            pending_reconv: NO_RECONV,
            regs: vec![0; (reg_count as usize) * 32],
            preds: vec![0; pred_count as usize],
            reg_ready: vec![0; reg_count as usize],
            reg_pend: vec![PendKind::None; reg_count as usize],
            pred_ready: vec![0; pred_count as usize],
            fetch_ready: 0,
            at_barrier: false,
            done: false,
        }
    }

    /// The active stack entry.
    pub fn top(&self) -> &StackEntry {
        self.stack.last().expect("warp stack never empty while running")
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.top().pc
    }

    /// Debug helper: current active mask.
    pub fn mask_debug(&self) -> u32 {
        self.top().mask
    }

    fn top_mut(&mut self) -> &mut StackEntry {
        self.stack.last_mut().expect("warp stack never empty while running")
    }

    /// Pops entries whose pc reached their reconvergence point.
    fn reconverge(&mut self) {
        while self.stack.len() > 1 {
            let top = *self.top();
            if top.pc == top.reconv || top.mask == 0 {
                self.stack.pop();
            } else {
                break;
            }
        }
    }
}

/// Per-CTA execution context handed to the interpreter.
pub(crate) struct ExecCtx<'a> {
    pub mem: &'a mut GlobalMemory,
    pub smem: &'a mut [u8],
    pub params: &'a [u32],
    pub block: Dim3,
    pub grid: Dim3,
    pub cta: (u32, u32, u32),
    pub line_bytes: u32,
    /// Reused line-coalescing buffer (avoids a per-memory-instruction
    /// allocation); the interpreter takes it, fills it, and hands it back
    /// through [`ExecOutcome::global_lines`].
    pub lines_scratch: &'a mut Vec<u32>,
}

/// Micro-architecturally relevant facts about one executed warp-instruction.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecOutcome {
    /// Lanes that actually executed (after guard masking).
    pub exec_lanes: u32,
    /// Unique global-memory line addresses touched.
    pub global_lines: Vec<u32>,
    /// Whether the global access was a store.
    pub global_is_store: bool,
    /// Shared-memory accesses performed (lane granularity).
    pub shared_accesses: u32,
    /// Whether constant memory was read.
    pub const_access: bool,
    /// Whether the pc was redirected (taken branch — costs a fetch bubble).
    pub redirect: bool,
    /// Whether the warp arrived at a barrier.
    pub did_barrier: bool,
    /// Whether the warp fully exited.
    pub warp_finished: bool,
}

fn lane_thread_coords(warp_in_cta: u32, lane: u32, block: Dim3) -> (u32, u32, u32) {
    let linear = warp_in_cta * 32 + lane;
    let tx = linear % block.x;
    let ty = (linear / block.x) % block.y;
    let tz = linear / (block.x * block.y);
    (tx, ty, tz)
}

/// One operand pre-resolved per warp-instruction: everything warp-uniform
/// (immediates, CTA coordinates, grid/block dimensions) folds to a constant
/// up front, so the 32-lane loop only distinguishes register reads from
/// constants instead of re-matching the full operand enum per lane.
#[derive(Clone, Copy)]
enum LaneSrc {
    /// Missing operand (reads as zero, matching the old `Option` chain).
    Zero,
    /// Register file read; payload is `reg * 32`.
    Reg(usize),
    /// Warp-uniform constant.
    Imm(u32),
    TidX,
    TidY,
    TidZ,
}

fn resolve(op: Option<&Operand>, ctx: &ExecCtx<'_>) -> LaneSrc {
    match op {
        None => LaneSrc::Zero,
        Some(Operand::Reg(r)) => LaneSrc::Reg(r.0 as usize * 32),
        Some(Operand::Imm(bits)) => LaneSrc::Imm(*bits),
        Some(Operand::Special(s)) => match s {
            Special::TidX => LaneSrc::TidX,
            Special::TidY => LaneSrc::TidY,
            Special::TidZ => LaneSrc::TidZ,
            Special::CtaIdX => LaneSrc::Imm(ctx.cta.0),
            Special::CtaIdY => LaneSrc::Imm(ctx.cta.1),
            Special::CtaIdZ => LaneSrc::Imm(ctx.cta.2),
            Special::NTidX => LaneSrc::Imm(ctx.block.x),
            Special::NTidY => LaneSrc::Imm(ctx.block.y),
            Special::NTidZ => LaneSrc::Imm(ctx.block.z),
            Special::NCtaIdX => LaneSrc::Imm(ctx.grid.x),
            Special::NCtaIdY => LaneSrc::Imm(ctx.grid.y),
            Special::NCtaIdZ => LaneSrc::Imm(ctx.grid.z),
        },
    }
}

#[inline(always)]
fn fetch(src: LaneSrc, regs: &[u32], warp_in_cta: u32, lane: u32, block: Dim3) -> u32 {
    match src {
        LaneSrc::Zero => 0,
        LaneSrc::Reg(base) => regs[base + lane as usize],
        LaneSrc::Imm(v) => v,
        LaneSrc::TidX => lane_thread_coords(warp_in_cta, lane, block).0,
        LaneSrc::TidY => lane_thread_coords(warp_in_cta, lane, block).1,
        LaneSrc::TidZ => lane_thread_coords(warp_in_cta, lane, block).2,
    }
}

/// ALU evaluation of one lane. `bits` inputs are raw register contents.
fn alu(op: Opcode, dtype: DType, a: u32, b: u32, c: u32, cmp: Option<CmpOp>, src_dtype: Option<DType>) -> u32 {
    use DType::*;
    let fa = f32::from_bits(a);
    let fb = f32::from_bits(b);
    let fc = f32::from_bits(c);
    let narrow = |v: u32| -> u32 {
        match dtype {
            U16 => v & 0xFFFF,
            S16 => ((v as i32) << 16 >> 16) as u32,
            _ => v,
        }
    };
    match op {
        Opcode::Mov => narrow(a),
        Opcode::Add => match dtype {
            F32 => (fa + fb).to_bits(),
            _ => narrow(a.wrapping_add(b)),
        },
        Opcode::Sub => match dtype {
            F32 => (fa - fb).to_bits(),
            _ => narrow(a.wrapping_sub(b)),
        },
        Opcode::Mul => match dtype {
            F32 => (fa * fb).to_bits(),
            _ => narrow(a.wrapping_mul(b)),
        },
        Opcode::Mad | Opcode::Mad24 => match dtype {
            F32 => (fa * fb + fc).to_bits(),
            _ => narrow(a.wrapping_mul(b).wrapping_add(c)),
        },
        Opcode::Min => match dtype {
            F32 => fa.min(fb).to_bits(),
            S32 | S16 => ((a as i32).min(b as i32)) as u32,
            _ => a.min(b),
        },
        Opcode::Max => match dtype {
            F32 => fa.max(fb).to_bits(),
            S32 | S16 => ((a as i32).max(b as i32)) as u32,
            _ => a.max(b),
        },
        Opcode::Abs => match dtype {
            F32 => fa.abs().to_bits(),
            S32 | S16 => ((a as i32).wrapping_abs()) as u32,
            _ => a,
        },
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Shl => narrow(a.wrapping_shl(b & 31)),
        Opcode::Shr => match dtype {
            S32 | S16 => ((a as i32) >> (b & 31)) as u32,
            _ => a.wrapping_shr(b & 31),
        },
        Opcode::Rcp => (1.0 / fa).to_bits(),
        Opcode::Rsqrt => (1.0 / fa.sqrt()).to_bits(),
        Opcode::Ex2 => fa.exp2().to_bits(),
        Opcode::Cvt => {
            let src = src_dtype.expect("validated cvt has src dtype");
            // Decode source value to a canonical f64, then encode to dest.
            let val: f64 = match src {
                F32 => f32::from_bits(a) as f64,
                S32 => (a as i32) as f64,
                U32 => a as f64,
                U16 => (a & 0xFFFF) as f64,
                S16 => (((a as i32) << 16) >> 16) as f64,
                Pred => (a != 0) as u32 as f64,
            };
            match dtype {
                F32 => (val as f32).to_bits(),
                S32 => (val as i32) as u32,
                U32 => val as u32,
                U16 => (val as u32) & 0xFFFF,
                S16 => (((val as i32) << 16) >> 16) as u32,
                Pred => (val != 0.0) as u32,
            }
        }
        Opcode::Set => {
            let cmp = cmp.expect("validated set has cmp");
            let t = match dtype {
                F32 => cmp.eval_f32(fa, fb),
                S32 | S16 => cmp.eval_s32(a as i32, b as i32),
                _ => cmp.eval_u32(a, b),
            };
            t as u32
        }
        _ => 0,
    }
}

/// Executes one warp-instruction functionally and updates the warp's
/// control state. Returns the outcome facts the SM needs for timing,
/// caching, and power accounting.
///
/// # Panics
///
/// Panics if a lane computes a global address outside every allocation —
/// that is a generated-kernel bug and aborting with the kernel state is the
/// most debuggable behaviour.
pub(crate) fn execute(warp: &mut Warp, program: &KernelProgram, ctx: &mut ExecCtx<'_>) -> ExecOutcome {
    let top = *warp.top();
    let pc = top.pc;
    let inst: &Instruction = &program.instructions()[pc as usize];
    let mut out = ExecOutcome::default();

    // Guard evaluation (for non-branch ops it masks lanes; for branches it
    // is the branch condition).
    let guard_mask = match inst.guard {
        None => top.mask,
        Some((p, sense)) => {
            let bits = warp.preds[p.0 as usize];
            let m = if sense { bits } else { !bits };
            top.mask & m
        }
    };

    match inst.op {
        Opcode::Bra => {
            let taken = guard_mask;
            out.exec_lanes = top.mask.count_ones();
            let target = inst.target.expect("validated bra has target");
            if taken == 0 {
                warp.top_mut().pc += 1;
            } else if taken == top.mask {
                warp.top_mut().pc = target;
                out.redirect = true;
            } else {
                // Divergence: split into fall-through and taken paths that
                // reconverge at the innermost `ssy` point.
                let reconv = warp.pending_reconv;
                let fall = top.mask & !taken;
                warp.top_mut().pc = reconv; // base resumes at reconvergence
                warp.stack.push(StackEntry {
                    mask: fall,
                    pc: pc + 1,
                    reconv,
                });
                warp.stack.push(StackEntry {
                    mask: taken,
                    pc: target,
                    reconv,
                });
                out.redirect = true;
            }
        }
        Opcode::Ssy => {
            warp.pending_reconv = inst.target.expect("validated ssy has target");
            warp.top_mut().pc += 1;
            out.exec_lanes = top.mask.count_ones();
        }
        Opcode::Bar => {
            warp.at_barrier = true;
            warp.top_mut().pc += 1;
            out.did_barrier = true;
            out.exec_lanes = top.mask.count_ones();
        }
        Opcode::Exit => {
            let exited = guard_mask;
            out.exec_lanes = exited.count_ones();
            for entry in &mut warp.stack {
                entry.mask &= !exited;
            }
            if inst.guard.is_some() && guard_mask != top.mask {
                // Some lanes continue.
                warp.top_mut().pc += 1;
            } else {
                // Whole active path exited; unwind to a live entry.
                while warp.stack.len() > 1 && warp.top().mask == 0 {
                    warp.stack.pop();
                }
            }
            if warp.stack.iter().all(|e| e.mask == 0) {
                warp.done = true;
                out.warp_finished = true;
            }
        }
        Opcode::Nop | Opcode::Callp | Opcode::Retp => {
            out.exec_lanes = guard_mask.count_ones().max(1);
            warp.top_mut().pc += 1;
        }
        Opcode::Ld => {
            let space = inst.space.expect("validated ld has space");
            let dst = inst.dst.expect("validated ld has dst");
            out.exec_lanes = guard_mask.count_ones();
            let base = resolve(inst.srcs.first(), ctx);
            let off = inst.offset as u32;
            let dbase = (dst.0 as usize) * 32;
            let wide = inst.dtype.byte_width() != 2;
            let (wic, blk) = (warp.warp_in_cta, ctx.block);
            match space {
                AddrSpace::Const => {
                    out.const_access = true;
                    let mut m = guard_mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        let addr = fetch(base, &warp.regs, wic, lane, blk).wrapping_add(off);
                        let v = ctx.params.get((addr / 4) as usize).copied().unwrap_or(0);
                        warp.regs[dbase + lane as usize] = v;
                    }
                }
                AddrSpace::Shared => {
                    let mut m = guard_mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        out.shared_accesses += 1;
                        let addr = fetch(base, &warp.regs, wic, lane, blk).wrapping_add(off) as usize;
                        let v = if wide {
                            u32::from_le_bytes([
                                ctx.smem[addr],
                                ctx.smem[addr + 1],
                                ctx.smem[addr + 2],
                                ctx.smem[addr + 3],
                            ])
                        } else {
                            u16::from_le_bytes([ctx.smem[addr], ctx.smem[addr + 1]]) as u32
                        };
                        warp.regs[dbase + lane as usize] = v;
                    }
                }
                AddrSpace::Global => {
                    let mut lines = std::mem::take(ctx.lines_scratch);
                    lines.clear();
                    let mut m = guard_mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        let addr = fetch(base, &warp.regs, wic, lane, blk).wrapping_add(off);
                        let v = if wide {
                            ctx.mem.read_u32(addr)
                        } else {
                            ctx.mem.read_u16(addr) as u32
                        };
                        warp.regs[dbase + lane as usize] = v;
                        let line = addr / ctx.line_bytes;
                        if !lines.contains(&line) {
                            lines.push(line);
                        }
                    }
                    out.global_lines = lines;
                }
            }
            warp.top_mut().pc += 1;
        }
        Opcode::St => {
            let space = inst.space.expect("validated st has space");
            out.exec_lanes = guard_mask.count_ones();
            let base = resolve(inst.srcs.first(), ctx);
            let val = resolve(inst.srcs.get(1), ctx);
            let off = inst.offset as u32;
            let wide = inst.dtype.byte_width() != 2;
            let (wic, blk) = (warp.warp_in_cta, ctx.block);
            match space {
                AddrSpace::Shared => {
                    let mut m = guard_mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        out.shared_accesses += 1;
                        let addr = fetch(base, &warp.regs, wic, lane, blk).wrapping_add(off) as usize;
                        let value = fetch(val, &warp.regs, wic, lane, blk);
                        if wide {
                            ctx.smem[addr..addr + 4].copy_from_slice(&value.to_le_bytes());
                        } else {
                            ctx.smem[addr..addr + 2].copy_from_slice(&(value as u16).to_le_bytes());
                        }
                    }
                }
                AddrSpace::Global => {
                    let mut lines = std::mem::take(ctx.lines_scratch);
                    lines.clear();
                    let mut m = guard_mask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        let addr = fetch(base, &warp.regs, wic, lane, blk).wrapping_add(off);
                        let value = fetch(val, &warp.regs, wic, lane, blk);
                        if wide {
                            ctx.mem.write_u32(addr, value);
                        } else {
                            ctx.mem.write_u16(addr, value as u16);
                        }
                        let line = addr / ctx.line_bytes;
                        if !lines.contains(&line) {
                            lines.push(line);
                        }
                    }
                    out.global_lines = lines;
                    out.global_is_store = true;
                }
                AddrSpace::Const => panic!("stores to constant memory are not representable"),
            }
            warp.top_mut().pc += 1;
        }
        Opcode::Set => {
            out.exec_lanes = guard_mask.count_ones();
            let sa = resolve(inst.srcs.first(), ctx);
            let sb = resolve(inst.srcs.get(1), ctx);
            let (wic, blk) = (warp.warp_in_cta, ctx.block);
            let dbase = inst.dst.map(|d| (d.0 as usize) * 32);
            let mut bits_new = 0u32;
            let mut m = guard_mask;
            while m != 0 {
                let lane = m.trailing_zeros();
                m &= m - 1;
                let a = fetch(sa, &warp.regs, wic, lane, blk);
                let b = fetch(sb, &warp.regs, wic, lane, blk);
                let t = alu(Opcode::Set, inst.dtype, a, b, 0, inst.cmp, None);
                if t != 0 {
                    bits_new |= 1 << lane;
                }
                if let Some(dbase) = dbase {
                    warp.regs[dbase + lane as usize] = t;
                }
            }
            if let Some(p) = inst.pdst {
                let old = warp.preds[p.0 as usize];
                warp.preds[p.0 as usize] = (old & !guard_mask) | bits_new;
            }
            warp.top_mut().pc += 1;
        }
        _ => {
            // Plain ALU.
            out.exec_lanes = guard_mask.count_ones();
            if let Some(dst) = inst.dst {
                let sa = resolve(inst.srcs.first(), ctx);
                let sb = resolve(inst.srcs.get(1), ctx);
                let sc = resolve(inst.srcs.get(2), ctx);
                let (wic, blk) = (warp.warp_in_cta, ctx.block);
                let dbase = (dst.0 as usize) * 32;
                let (op, dtype) = (inst.op, inst.dtype);
                let mut m = guard_mask;
                while m != 0 {
                    let lane = m.trailing_zeros();
                    m &= m - 1;
                    let a = fetch(sa, &warp.regs, wic, lane, blk);
                    let b = fetch(sb, &warp.regs, wic, lane, blk);
                    let c = fetch(sc, &warp.regs, wic, lane, blk);
                    let v = alu(op, dtype, a, b, c, inst.cmp, inst.src_dtype);
                    warp.regs[dbase + lane as usize] = v;
                }
            }
            warp.top_mut().pc += 1;
        }
    }

    warp.reconverge();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango_isa::{CmpOp, KernelBuilder, Operand};

    fn ctx<'a>(
        mem: &'a mut GlobalMemory,
        smem: &'a mut [u8],
        params: &'a [u32],
        scratch: &'a mut Vec<u32>,
    ) -> ExecCtx<'a> {
        ExecCtx {
            mem,
            smem,
            params,
            block: Dim3::x(32),
            grid: Dim3::x(1),
            cta: (0, 0, 0),
            line_bytes: 128,
            lines_scratch: scratch,
        }
    }

    fn run_to_completion(warp: &mut Warp, program: &KernelProgram, ctx: &mut ExecCtx<'_>) -> u32 {
        let mut steps = 0;
        while !warp.done {
            execute(warp, program, ctx);
            steps += 1;
            assert!(steps < 100_000, "kernel did not terminate");
        }
        steps
    }

    #[test]
    fn lane_arithmetic_uses_tid() {
        // out[tid] = tid * 2
        let mut b = KernelBuilder::new("t");
        let tid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.shl(DType::U32, v, tid.into(), Operand::imm_u32(1));
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.st_global(DType::U32, addr, 0, v);
        b.exit();
        let p = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let out_buf = mem.alloc(32 * 4);
        let params = [out_buf];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, 32, p.register_count(), 1.max(p.pred_count()));
        run_to_completion(&mut w, &p, &mut c);
        for lane in 0..32u32 {
            assert_eq!(mem.read_u32(out_buf + lane * 4), lane * 2);
        }
    }

    #[test]
    fn uniform_loop_terminates_with_correct_sum() {
        // acc = sum(0..10) stored to out[tid].
        let mut b = KernelBuilder::new("loop");
        let i = b.reg();
        let acc = b.reg();
        let p = b.pred();
        b.mov(DType::U32, i, Operand::imm_u32(0));
        b.mov(DType::U32, acc, Operand::imm_u32(0));
        let top = b.place_new_label();
        b.add(DType::U32, acc, acc.into(), i.into());
        b.add(DType::U32, i, i.into(), Operand::imm_u32(1));
        b.set(CmpOp::Lt, DType::U32, p, i.into(), Operand::imm_u32(10));
        b.bra_if(p, true, top);
        let tid = b.reg();
        let addr = b.reg();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.st_global(DType::U32, addr, 0, acc);
        b.exit();
        let prog = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let out = mem.alloc(32 * 4);
        let params = [out];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, 32, prog.register_count(), prog.pred_count().max(1));
        run_to_completion(&mut w, &prog, &mut c);
        assert_eq!(mem.read_u32(out), 45);
        assert_eq!(mem.read_u32(out + 31 * 4), 45);
    }

    #[test]
    fn divergent_branch_reconverges() {
        // if (tid < 16) out = 1 else out = 2; then out += 10 for everyone.
        let mut b = KernelBuilder::new("div");
        let tid = b.reg();
        let v = b.reg();
        let addr = b.reg();
        let p = b.pred();
        b.tid_x(tid);
        let base = b.load_param(0);
        let l_else = b.label();
        let l_join = b.label();
        b.ssy(l_join);
        b.set(CmpOp::Ge, DType::U32, p, tid.into(), Operand::imm_u32(16));
        b.bra_if(p, true, l_else);
        b.mov(DType::U32, v, Operand::imm_u32(1));
        b.bra(l_join);
        b.place(l_else);
        b.mov(DType::U32, v, Operand::imm_u32(2));
        b.place(l_join);
        b.add(DType::U32, v, v.into(), Operand::imm_u32(10));
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.st_global(DType::U32, addr, 0, v);
        b.exit();
        let prog = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let out = mem.alloc(32 * 4);
        let params = [out];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, 32, prog.register_count(), prog.pred_count().max(1));
        run_to_completion(&mut w, &prog, &mut c);
        for lane in 0..32u32 {
            let expect = if lane < 16 { 11 } else { 12 };
            assert_eq!(mem.read_u32(out + lane * 4), expect, "lane {lane}");
        }
    }

    #[test]
    fn partial_warp_masks_high_lanes() {
        let mut b = KernelBuilder::new("partial");
        let tid = b.reg();
        let addr = b.reg();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, addr, addr.into(), base.into());
        let one = b.reg();
        b.mov(DType::U32, one, Operand::imm_u32(1));
        b.st_global(DType::U32, addr, 0, one);
        b.exit();
        let prog = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let out = mem.alloc(32 * 4);
        let params = [out];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        // Only 10 active lanes.
        let mut w = Warp::new(0, 0, 10, prog.register_count(), prog.pred_count().max(1));
        run_to_completion(&mut w, &prog, &mut c);
        for lane in 0..32u32 {
            let expect = if lane < 10 { 1 } else { 0 };
            assert_eq!(mem.read_u32(out + lane * 4), expect);
        }
    }

    #[test]
    fn coalesced_loads_touch_one_line() {
        // 32 lanes load out[tid] -> 32 consecutive words = one 128 B line.
        let mut b = KernelBuilder::new("coal");
        let tid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.ld_global(DType::F32, v, addr, 0);
        b.exit();
        let prog = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let buf = mem.alloc(32 * 4);
        let params = [buf];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, 32, prog.register_count(), prog.pred_count().max(1));
        // Step to the load.
        let mut lines = Vec::new();
        while !w.done {
            let o = execute(&mut w, &prog, &mut c);
            if !o.global_lines.is_empty() {
                lines = o.global_lines.clone();
            }
        }
        assert_eq!(lines.len(), 1, "aligned consecutive words coalesce into one line");
    }

    #[test]
    fn strided_loads_touch_many_lines() {
        // lane loads base + tid * 128 -> every lane a different line.
        let mut b = KernelBuilder::new("stride");
        let tid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(7));
        b.add(DType::U32, addr, addr.into(), base.into());
        b.ld_global(DType::F32, v, addr, 0);
        b.exit();
        let prog = b.build().unwrap();

        let mut mem = GlobalMemory::new();
        let buf = mem.alloc(32 * 128);
        let params = [buf];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, 32, prog.register_count(), prog.pred_count().max(1));
        let mut max_lines = 0;
        while !w.done {
            let o = execute(&mut w, &prog, &mut c);
            max_lines = max_lines.max(o.global_lines.len());
        }
        assert_eq!(max_lines, 32);
    }

    #[test]
    fn f32_mad_matches_reference() {
        let mut b = KernelBuilder::new("mad");
        let acc = b.reg();
        b.mov(DType::F32, acc, Operand::imm_f32(1.5));
        b.mad(DType::F32, acc, acc.into(), Operand::imm_f32(2.0), Operand::imm_f32(0.25));
        b.exit();
        let prog = b.build().unwrap();
        let mut mem = GlobalMemory::new();
        let _ = mem.alloc(64);
        let params = [];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, 32, prog.register_count(), 1);
        run_to_completion(&mut w, &prog, &mut c);
        assert_eq!(f32::from_bits(w.regs[0]), 1.5 * 2.0 + 0.25);
    }

    #[test]
    fn u16_arithmetic_wraps_at_16_bits() {
        let mut b = KernelBuilder::new("u16");
        let r = b.reg();
        b.mov(DType::U32, r, Operand::imm_u32(0xFFFF));
        b.add(DType::U16, r, r.into(), Operand::imm_u32(1));
        b.exit();
        let prog = b.build().unwrap();
        let mut mem = GlobalMemory::new();
        let _ = mem.alloc(64);
        let params = [];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, 32, prog.register_count(), 1);
        run_to_completion(&mut w, &prog, &mut c);
        assert_eq!(w.regs[0], 0);
    }

    #[test]
    fn shared_memory_round_trip() {
        let mut b = KernelBuilder::new("smem");
        b.set_smem_bytes(256);
        let tid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        b.tid_x(tid);
        b.shl(DType::U32, addr, tid.into(), Operand::imm_u32(2));
        b.st_shared(DType::U32, addr, 0, tid);
        b.bar();
        b.ld_shared(DType::U32, v, addr, 0);
        b.exit();
        let prog = b.build().unwrap();
        let mut mem = GlobalMemory::new();
        let _ = mem.alloc(64);
        let params = [];
        let mut smem = vec![0u8; 256];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, 32, prog.register_count(), 1);
        while !w.done {
            let o = execute(&mut w, &prog, &mut c);
            if o.did_barrier {
                w.at_barrier = false; // single-warp CTA: release immediately
            }
        }
        for lane in 0..32usize {
            assert_eq!(w.regs[v.0 as usize * 32 + lane], lane as u32);
        }
    }

    #[test]
    fn const_params_are_readable() {
        let mut b = KernelBuilder::new("cmem");
        let p0 = b.load_param(0);
        let p1 = b.load_param(1);
        let sum = b.reg();
        b.add(DType::U32, sum, p0.into(), p1.into());
        b.exit();
        let prog = b.build().unwrap();
        let mut mem = GlobalMemory::new();
        let _ = mem.alloc(64);
        let params = [40, 2];
        let mut smem = [];
        let mut scratch = Vec::new();
        let mut c = ctx(&mut mem, &mut smem, &params, &mut scratch);
        let mut w = Warp::new(0, 0, 32, prog.register_count(), 1);
        run_to_completion(&mut w, &prog, &mut c);
        assert_eq!(w.regs[sum.0 as usize * 32], 42);
    }
}

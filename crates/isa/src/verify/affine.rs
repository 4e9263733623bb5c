//! Thread-affine value analysis.
//!
//! Registers are tracked as affine forms `k + Σ cᵢ·sᵢ` over a symbol table:
//! base symbols (`tid.*`, `ctaid.*` with ranges from the launch geometry),
//! parameter words (symbolic, carrying the caller's alignment guarantee, or
//! folded to constants when the launch params are concrete), *derived*
//! symbols (one per distinct defining computation — these keep the forms
//! single-symbol so guard refinement stays simple), *phi* symbols at
//! control-flow joins (ranges maintained with widening), and *opaque*
//! symbols for values the domain cannot represent (float math, loads).
//!
//! All register arithmetic in the machine is wrapping mod 2³². Affine forms
//! are exact modulo 2³², so divisibility facts (alignment) are always
//! sound; interval facts are only used when the evaluated range stays
//! inside `[0, 2³²)` (no possible wrap).
//!
//! On top of the fixpoint the pass classifies every `ld`/`st` (width,
//! provable alignment, coalescing vs `tid.x`, bounds against the declared
//! extent), proves per-instruction cross-lane store injectivity (the race
//! check, which needs the guard-refined ranges: edge tiles are only
//! race-free *because* of their guarded exits), and derives the
//! alignment certificate ([`Report::aligned_certified`]).

use super::{
    AccessInfo, AccessPattern, BoundsStatus, Diagnostic, DiagnosticKind, LaunchSpec, Report,
};
use crate::{AddrSpace, CmpOp, DType, Instruction, KernelProgram, Opcode, Operand, Special};
use std::collections::{BTreeMap, HashMap};

const WRAP: i64 = 1 << 32;
/// Sweeps over the program before the analysis gives up (programs here are
/// a few hundred instructions with shallow loop nests; convergence is fast
/// thanks to phi widening).
const MAX_SWEEPS: usize = 64;
/// Phi range updates before widening to the full interval.
const WIDEN_AFTER: u32 = 3;
const MAX_DEPTH: u32 = 64;

type SymId = u32;
/// Bitmask over the six thread-identity dimensions.
type DepMask = u8;

const DEP_TIDX: DepMask = 1;
const DEP_TIDY: DepMask = 1 << 1;
const DEP_TIDZ: DepMask = 1 << 2;
const DEP_CTAX: DepMask = 1 << 3;
const DEP_CTAY: DepMask = 1 << 4;
const DEP_CTAZ: DepMask = 1 << 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Range {
    lo: i64,
    hi: i64,
}

impl Range {
    const FULL: Range = Range { lo: 0, hi: u32::MAX as i64 };

    fn new(lo: i64, hi: i64) -> Range {
        Range { lo, hi }
    }

    fn is_full(&self) -> bool {
        *self == Range::FULL
    }

    /// Valid means: provably no mod-2³² wrap occurred producing it.
    fn valid(&self) -> bool {
        self.lo >= 0 && self.hi < WRAP && self.lo <= self.hi
    }

    fn hull(a: Range, b: Range) -> Range {
        Range::new(a.lo.min(b.lo), a.hi.max(b.hi))
    }

    fn intersect(a: Range, b: Range) -> Range {
        Range::new(a.lo.max(b.lo), a.hi.min(b.hi))
    }

    fn span(&self) -> i64 {
        self.hi - self.lo
    }
}

/// Canonical affine form: `k + Σ terms[s]·s`, terms sorted by symbol id
/// (BTreeMap) with zero coefficients removed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Affine {
    k: i64,
    terms: BTreeMap<SymId, i64>,
}

impl Affine {
    fn constant(k: i64) -> Affine {
        Affine { k: k.rem_euclid(WRAP), terms: BTreeMap::new() }
    }

    fn sym(s: SymId) -> Affine {
        let mut terms = BTreeMap::new();
        terms.insert(s, 1);
        Affine { k: 0, terms }
    }

    fn as_const(&self) -> Option<i64> {
        if self.terms.is_empty() {
            Some(self.k)
        } else {
            None
        }
    }

    fn single_term(&self) -> Option<(SymId, i64)> {
        if self.terms.len() == 1 {
            let (&s, &c) = self.terms.iter().next().unwrap();
            Some((s, c))
        } else {
            None
        }
    }

    fn add(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.k += other.k;
        for (&s, &c) in &other.terms {
            let e = out.terms.entry(s).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(&s);
            }
        }
        out.normalize()
    }

    fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    fn scale(&self, c: i64) -> Affine {
        if c == 0 {
            return Affine::constant(0);
        }
        let mut out = self.clone();
        out.k *= c;
        for v in out.terms.values_mut() {
            *v *= c;
        }
        out.normalize()
    }

    fn offset(&self, k: i64) -> Affine {
        let mut out = self.clone();
        out.k += k;
        out.normalize()
    }

    /// Keeps the constant canonical mod 2³² (coefficients are left as-is:
    /// they stay small in practice, and gcd/range logic uses magnitudes).
    fn normalize(mut self) -> Affine {
        if self.terms.is_empty() {
            self.k = self.k.rem_euclid(WRAP);
        }
        self
    }
}

#[derive(Debug, Clone)]
enum SymInfo {
    /// `tid.*` / `ctaid.*`; range comes from the launch geometry.
    Base(DepMask),
    /// Parameter word `i` with only an alignment guarantee.
    Param(u32),
    /// Exactly the value of its defining affine form.
    Def(Affine),
    /// Join of several values; range widened, deps unioned, alignment
    /// gcd-merged (a phi is always *one* of its inputs, so divisibility
    /// by the gcd of their alignments survives the join).
    Phi { range: Range, deps: Option<DepMask>, align: i64, updates: u32 },
    /// A value the domain cannot express, with whatever range is known.
    Opaque(Range),
}

struct Syms {
    infos: Vec<SymInfo>,
    def_memo: HashMap<(usize, Affine), SymId>,
    phi_memo: HashMap<(usize, u8), SymId>,
    opaque_memo: HashMap<(usize, Range), SymId>,
    grid: crate::Dim3,
    block: crate::Dim3,
    param_align: i64,
}

impl Syms {
    fn new(spec: &LaunchSpec<'_>) -> Syms {
        let mut s = Syms {
            infos: Vec::new(),
            def_memo: HashMap::new(),
            phi_memo: HashMap::new(),
            opaque_memo: HashMap::new(),
            grid: spec.grid,
            block: spec.block,
            param_align: spec.param_align.max(1) as i64,
        };
        // Base symbols occupy fixed ids 0..6 in DepMask bit order.
        for mask in [DEP_TIDX, DEP_TIDY, DEP_TIDZ, DEP_CTAX, DEP_CTAY, DEP_CTAZ] {
            s.infos.push(SymInfo::Base(mask));
        }
        s
    }

    fn base(&self, mask: DepMask) -> SymId {
        mask.trailing_zeros() as SymId
    }

    fn param(&mut self, index: u32) -> SymId {
        // Few params per kernel; linear scan keeps ids deterministic.
        for (i, info) in self.infos.iter().enumerate() {
            if matches!(info, SymInfo::Param(p) if *p == index) {
                return i as SymId;
            }
        }
        self.infos.push(SymInfo::Param(index));
        (self.infos.len() - 1) as SymId
    }

    fn def(&mut self, pc: usize, form: Affine) -> SymId {
        if let Some(&id) = self.def_memo.get(&(pc, form.clone())) {
            return id;
        }
        self.infos.push(SymInfo::Def(form.clone()));
        let id = (self.infos.len() - 1) as SymId;
        self.def_memo.insert((pc, form), id);
        id
    }

    fn opaque(&mut self, pc: usize, range: Range) -> SymId {
        if let Some(&id) = self.opaque_memo.get(&(pc, range)) {
            return id;
        }
        self.infos.push(SymInfo::Opaque(range));
        let id = (self.infos.len() - 1) as SymId;
        self.opaque_memo.insert((pc, range), id);
        id
    }

    /// Phi symbol at (pc, reg). Returns (id, whether range/deps changed) —
    /// the fixpoint loop must keep sweeping while phi info still moves.
    fn phi(
        &mut self,
        pc: usize,
        reg: u8,
        range: Range,
        deps: Option<DepMask>,
        align: i64,
    ) -> (SymId, bool) {
        if let Some(&id) = self.phi_memo.get(&(pc, reg)) {
            let SymInfo::Phi { range: r, deps: d, align: al, updates } =
                &mut self.infos[id as usize]
            else {
                unreachable!("phi memo points at phi");
            };
            let mut changed = false;
            let hull = Range::hull(*r, range);
            if hull != *r {
                *updates += 1;
                *r = if *updates > WIDEN_AFTER { Range::FULL } else { hull };
                changed = true;
            }
            let merged = match (*d, deps) {
                (Some(a), Some(b)) => Some(a | b),
                _ => None,
            };
            if merged != *d {
                *d = merged;
                changed = true;
            }
            let g = gcd(*al, align).max(1);
            if g != *al {
                *al = g;
                changed = true;
            }
            (id, changed)
        } else {
            self.infos.push(SymInfo::Phi { range, deps, align: align.max(1), updates: 0 });
            let id = (self.infos.len() - 1) as SymId;
            self.phi_memo.insert((pc, reg), id);
            (id, true)
        }
    }

    fn base_range(&self, mask: DepMask) -> Range {
        let hi = match mask {
            DEP_TIDX => self.block.x,
            DEP_TIDY => self.block.y,
            DEP_TIDZ => self.block.z,
            DEP_CTAX => self.grid.x,
            DEP_CTAY => self.grid.y,
            DEP_CTAZ => self.grid.z,
            _ => unreachable!(),
        };
        Range::new(0, hi.max(1) as i64 - 1)
    }

    fn range_of_sym(&self, s: SymId, refine: &BTreeMap<SymId, Range>, depth: u32) -> Range {
        let computed = if depth == 0 {
            Range::FULL
        } else {
            match &self.infos[s as usize] {
                SymInfo::Base(mask) => self.base_range(*mask),
                SymInfo::Param(_) => Range::FULL,
                SymInfo::Def(form) => self.range_of_affine(form, refine, depth - 1),
                SymInfo::Phi { range, .. } => *range,
                SymInfo::Opaque(range) => *range,
            }
        };
        match refine.get(&s) {
            Some(r) => Range::intersect(computed, *r),
            None => computed,
        }
    }

    fn range_of_affine(&self, a: &Affine, refine: &BTreeMap<SymId, Range>, depth: u32) -> Range {
        let mut lo = a.k;
        let mut hi = a.k;
        for (&s, &c) in &a.terms {
            let r = self.range_of_sym(s, refine, depth);
            if !r.valid() {
                return Range::FULL;
            }
            if c >= 0 {
                lo += c * r.lo;
                hi += c * r.hi;
            } else {
                lo += c * r.hi;
                hi += c * r.lo;
            }
        }
        let r = Range::new(lo, hi);
        if r.valid() {
            r
        } else {
            Range::FULL
        }
    }

    /// The gcd of all values the form can take, modulo 2³² (0 means "the
    /// value is identically 0"). Sound even when ranges wrapped, because
    /// the affine form itself is exact mod 2³².
    fn align_of_sym(&self, s: SymId, depth: u32) -> i64 {
        if depth == 0 {
            return 1;
        }
        match &self.infos[s as usize] {
            SymInfo::Base(_) | SymInfo::Opaque(_) => 1,
            SymInfo::Phi { align, .. } => *align,
            SymInfo::Param(_) => self.param_align,
            SymInfo::Def(form) => self.align_of_affine(form, depth - 1),
        }
    }

    fn align_of_affine(&self, a: &Affine, depth: u32) -> i64 {
        let mut g = a.k.rem_euclid(WRAP);
        for (&s, &c) in &a.terms {
            let contrib = (c.unsigned_abs() as i64) * self.align_of_sym(s, depth);
            g = gcd(g, contrib.min(WRAP));
        }
        // gcd with the modulus: wrapping cannot break divisibility by
        // powers of two up to 2³².
        if g == 0 {
            WRAP
        } else {
            g
        }
    }

    /// d(value)/d(base var), or None when not affine in it.
    fn coeff_of_base(&self, a: &Affine, mask: DepMask, depth: u32) -> Option<i64> {
        let mut total = 0i64;
        for (&s, &c) in &a.terms {
            total += c * self.sym_coeff(s, mask, depth)?;
        }
        Some(total)
    }

    fn sym_coeff(&self, s: SymId, mask: DepMask, depth: u32) -> Option<i64> {
        if depth == 0 {
            return None;
        }
        match &self.infos[s as usize] {
            SymInfo::Base(m) => Some(if *m == mask { 1 } else { 0 }),
            SymInfo::Param(_) => Some(0),
            SymInfo::Def(form) => self.coeff_of_base(form, mask, depth - 1),
            SymInfo::Phi { deps, .. } => match deps {
                Some(d) if d & mask == 0 => Some(0),
                _ => None,
            },
            SymInfo::Opaque(_) => None,
        }
    }

    fn deps_of_sym(&self, s: SymId, depth: u32) -> Option<DepMask> {
        if depth == 0 {
            return None;
        }
        match &self.infos[s as usize] {
            SymInfo::Base(m) => Some(*m),
            SymInfo::Param(_) => Some(0),
            SymInfo::Def(form) => self.deps_of_affine(form, depth - 1),
            SymInfo::Phi { deps, .. } => *deps,
            SymInfo::Opaque(_) => None,
        }
    }

    fn deps_of_affine(&self, a: &Affine, depth: u32) -> Option<DepMask> {
        let mut out = 0;
        for &s in a.terms.keys() {
            out |= self.deps_of_sym(s, depth)?;
        }
        Some(out)
    }

    /// Proves that two distinct assignments of the thread dimensions in
    /// `relevant` give the form two distinct values: a mixed-radix argument
    /// over the form's thread-dependent terms, using guard-refined ranges.
    fn injective(
        &self,
        a: &Affine,
        relevant: DepMask,
        refine: &BTreeMap<SymId, Range>,
        depth: u32,
    ) -> bool {
        if depth == 0 {
            return false;
        }
        let mut terms: Vec<(SymId, i64, DepMask)> = Vec::new();
        for (&s, &c) in &a.terms {
            let Some(deps) = self.deps_of_sym(s, MAX_DEPTH) else {
                return false;
            };
            let tdeps = deps & relevant;
            if tdeps != 0 {
                terms.push((s, c, tdeps));
            }
        }
        // Pairwise-disjoint dimension sets, each term itself injective.
        let mut seen: DepMask = 0;
        for &(s, _, tdeps) in &terms {
            if seen & tdeps != 0 {
                return false;
            }
            seen |= tdeps;
            if !self.sym_injective(s, tdeps, refine, depth - 1) {
                return false;
            }
        }
        // Mixed-radix: sorted by |c|, every prefix reach stays below the
        // next coefficient, so no carries can collide.
        terms.sort_by_key(|&(_, c, _)| c.unsigned_abs());
        let mut reach: i64 = 0;
        for &(s, c, _) in &terms {
            let r = self.range_of_sym(s, refine, MAX_DEPTH);
            if !r.valid() {
                return false;
            }
            let c = c.unsigned_abs() as i64;
            if reach >= c {
                return false;
            }
            reach += c * r.span();
        }
        true
    }

    fn sym_injective(
        &self,
        s: SymId,
        tdeps: DepMask,
        refine: &BTreeMap<SymId, Range>,
        depth: u32,
    ) -> bool {
        if depth == 0 {
            return false;
        }
        match &self.infos[s as usize] {
            SymInfo::Base(_) => true,
            SymInfo::Def(form) => self.injective(form, tdeps, refine, depth),
            // Phi/opaque/param values are not provably injective in
            // anything (params are thread-invariant, so tdeps != 0 cannot
            // reach here for them anyway).
            _ => false,
        }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A predicate's recorded defining comparison (unguarded `set` only).
#[derive(Debug, Clone, PartialEq)]
struct Fact {
    lhs: Affine,
    cmp: CmpOp,
    rhs: Affine,
}

#[derive(Debug, Clone, PartialEq)]
struct State {
    regs: Vec<Option<Affine>>,
    preds: Vec<Option<Fact>>,
    refine: BTreeMap<SymId, Range>,
}

impl State {
    fn entry(program: &KernelProgram) -> State {
        State {
            regs: vec![None; program.register_count().max(1) as usize],
            preds: vec![None; program.pred_count().max(1) as usize],
            refine: BTreeMap::new(),
        }
    }
}

/// Negation of a comparison (guard sense `false`).
fn negate(cmp: CmpOp) -> CmpOp {
    match cmp {
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
    }
}

struct Analysis<'a> {
    program: &'a KernelProgram,
    spec: &'a LaunchSpec<'a>,
    syms: Syms,
    in_states: Vec<Option<State>>,
    /// Set when the fixpoint failed to converge: report nothing affine.
    bailed: bool,
}

pub(super) fn check(
    program: &KernelProgram,
    spec: &LaunchSpec<'_>,
    reachable: &[bool],
    report: &mut Report,
) {
    let n = program.instructions().len();
    if n == 0 {
        return;
    }
    let mut a = Analysis {
        program,
        spec,
        syms: Syms::new(spec),
        in_states: vec![None; n],
        bailed: false,
    };
    a.in_states[0] = Some(State::entry(program));
    a.fixpoint(reachable);
    a.report(reachable, report);
}

impl Analysis<'_> {
    fn operand(&self, st: &State, op: Option<&Operand>) -> Option<Affine> {
        match op? {
            Operand::Reg(r) => st.regs[r.0 as usize].clone(),
            Operand::Imm(bits) => Some(Affine::constant(*bits as i64)),
            Operand::Special(s) => Some(match s {
                Special::TidX => Affine::sym(self.syms.base(DEP_TIDX)),
                Special::TidY => Affine::sym(self.syms.base(DEP_TIDY)),
                Special::TidZ => Affine::sym(self.syms.base(DEP_TIDZ)),
                Special::CtaIdX => Affine::sym(self.syms.base(DEP_CTAX)),
                Special::CtaIdY => Affine::sym(self.syms.base(DEP_CTAY)),
                Special::CtaIdZ => Affine::sym(self.syms.base(DEP_CTAZ)),
                Special::NTidX => Affine::constant(self.spec.block.x as i64),
                Special::NTidY => Affine::constant(self.spec.block.y as i64),
                Special::NTidZ => Affine::constant(self.spec.block.z as i64),
                Special::NCtaIdX => Affine::constant(self.spec.grid.x as i64),
                Special::NCtaIdY => Affine::constant(self.spec.grid.y as i64),
                Special::NCtaIdZ => Affine::constant(self.spec.grid.z as i64),
            }),
        }
    }

    /// Collapses multi-term forms into a derived symbol so downstream
    /// refinement only ever deals with `c·s + k`.
    fn simplify(&mut self, pc: usize, a: Affine) -> Affine {
        if a.terms.len() >= 2 {
            let k = a.k;
            let stripped = Affine { k: 0, terms: a.terms };
            Affine::sym(self.syms.def(pc, stripped)).offset(k)
        } else {
            a
        }
    }

    fn opaque_value(&mut self, pc: usize, range: Range) -> Affine {
        Affine::sym(self.syms.opaque(pc, range))
    }

    /// Abstract result of one instruction, or None when the destination
    /// becomes unknown-but-defined (encoded as an opaque symbol upstream).
    fn eval(&mut self, pc: usize, st: &State, inst: &Instruction) -> Option<Affine> {
        let dtype = inst.dtype;
        let is_int = !dtype.is_float();
        let a = self.operand(st, inst.srcs.first());
        let b = self.operand(st, inst.srcs.get(1));
        let c = self.operand(st, inst.srcs.get(2));

        let raw = match inst.op {
            Opcode::Mov => a,
            Opcode::Add if is_int => Some(a?.add(&b?)),
            Opcode::Sub if is_int => Some(a?.sub(&b?)),
            Opcode::Mul | Opcode::Mad | Opcode::Mad24 if is_int => {
                let (a, b) = (a?, b?);
                let prod = if let Some(kb) = b.as_const() {
                    a.scale(kb)
                } else if let Some(ka) = a.as_const() {
                    b.scale(ka)
                } else {
                    return None;
                };
                match inst.op {
                    Opcode::Mul => Some(prod),
                    _ => Some(prod.add(&c?)),
                }
            }
            Opcode::Shl if is_int => {
                let shift = b?.as_const()? & 31;
                Some(a?.scale(1i64 << shift))
            }
            // Exact constant folds matching the interpreter.
            Opcode::And => {
                let (ka, kb) = (a?.as_const()?, b?.as_const()?);
                Some(Affine::constant(((ka as u64 as u32) & (kb as u64 as u32)) as i64))
            }
            Opcode::Shr if matches!(dtype, DType::U32 | DType::U16) => {
                let (ka, kb) = (a?.as_const()?, b?.as_const()?);
                Some(Affine::constant(
                    (ka as u64 as u32).wrapping_shr(kb as u64 as u32 & 31) as i64,
                ))
            }
            Opcode::Min if is_int => {
                // Unknown exact value, but a useful range.
                let (a, b) = (a?, b?);
                let (ra, rb) = (
                    self.syms.range_of_affine(&a, &st.refine, MAX_DEPTH),
                    self.syms.range_of_affine(&b, &st.refine, MAX_DEPTH),
                );
                if ra.valid() && rb.valid() && matches!(dtype, DType::U32 | DType::U16) {
                    return Some(self.opaque_value(pc, Range::new(ra.lo.min(rb.lo), ra.hi.min(rb.hi))));
                }
                return None;
            }
            _ => None,
        };

        let result = raw?;
        // Sub-word dtypes truncate the result; keep the form only when the
        // range proves no truncation happened.
        match dtype {
            DType::U16 => {
                let r = self.syms.range_of_affine(&result, &st.refine, MAX_DEPTH);
                if r.valid() && r.hi <= 0xFFFF {
                    Some(self.simplify(pc, result))
                } else {
                    Some(self.opaque_value(pc, Range::new(0, 0xFFFF)))
                }
            }
            DType::S16 => None,
            _ => Some(self.simplify(pc, result)),
        }
    }

    /// The value a `ld` produces.
    fn eval_load(&mut self, pc: usize, st: &State, inst: &Instruction) -> Affine {
        let space = inst.space.expect("validated ld has space");
        if space == AddrSpace::Const {
            let addr = self
                .operand(st, inst.srcs.first())
                .map(|a| a.offset(inst.offset as i64));
            if let Some(idx) = addr.and_then(|a| a.as_const()) {
                let word = (idx.rem_euclid(WRAP) as u64 / 4) as u32;
                if let Some(params) = self.spec.params {
                    let v = params.get(word as usize).copied().unwrap_or(0);
                    return Affine::constant(v as i64);
                }
                return Affine::sym(self.syms.param(word));
            }
        }
        let range = if inst.dtype.byte_width() == 2 {
            Range::new(0, 0xFFFF)
        } else {
            Range::FULL
        };
        self.opaque_value(pc, range)
    }

    /// Applies `fact` (or its negation) to the refinement map.
    fn refine_with(&self, st: &mut State, fact: &Fact, holds: bool) {
        let cmp = if holds { fact.cmp } else { negate(fact.cmp) };
        self.constrain(st, &fact.lhs, cmp, &fact.rhs);
        // Symmetric view: rhs (flipped cmp) lhs.
        let flipped = match cmp {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        };
        self.constrain(st, &fact.rhs, flipped, &fact.lhs);
    }

    /// Narrows the range of the single symbol in `lhs` so that
    /// `lhs cmp rhs` can hold.
    fn constrain(&self, st: &mut State, lhs: &Affine, cmp: CmpOp, rhs: &Affine) {
        let Some((s, c)) = lhs.single_term() else { return };
        let rr = self.syms.range_of_affine(rhs, &st.refine, MAX_DEPTH);
        if !rr.valid() {
            return;
        }
        // Bound on the value v = c·s + k.
        let (vlo, vhi) = match cmp {
            CmpOp::Lt => (i64::MIN, rr.hi - 1),
            CmpOp::Le => (i64::MIN, rr.hi),
            CmpOp::Gt => (rr.lo + 1, i64::MAX),
            CmpOp::Ge => (rr.lo, i64::MAX),
            CmpOp::Eq => (rr.lo, rr.hi),
            CmpOp::Ne => return,
        };
        // Solve for s: floor/ceil division depending on the coefficient
        // sign. (c is never 0: zero coefficients are pruned.)
        let (slo, shi) = if c > 0 {
            (
                vlo.checked_sub(lhs.k).map(|v| div_ceil(v, c)),
                vhi.checked_sub(lhs.k).map(|v| div_floor(v, c)),
            )
        } else {
            (
                vhi.checked_sub(lhs.k).map(|v| div_ceil(v, c)),
                vlo.checked_sub(lhs.k).map(|v| div_floor(v, c)),
            )
        };
        let cur = self.syms.range_of_sym(s, &st.refine, MAX_DEPTH);
        let bound = Range::new(
            slo.unwrap_or(i64::MIN).max(cur.lo).max(0),
            shi.unwrap_or(i64::MAX).min(cur.hi),
        );
        if bound.valid() && bound != cur {
            st.refine.insert(s, bound);
        }
    }

    /// Transfer: the out-state(s) of `pc`, one per successor edge.
    fn transfer(&mut self, pc: usize, reachable: &[bool]) -> Vec<(usize, State)> {
        let n = self.program.instructions().len();
        let inst = self.program.instructions()[pc].clone();
        let inst = &inst;
        let st = self.in_states[pc].clone().expect("transfer on seeded pc");
        let mut out = st.clone();

        // Destination update.
        if let Some(d) = inst.dst {
            let new_val = match inst.op {
                Opcode::Ld => Some(self.eval_load(pc, &st, inst)),
                _ => self.eval(pc, &st, inst).or_else(|| Some(self.opaque_value(pc, Range::FULL))),
            };
            out.regs[d.0 as usize] = if inst.guard.is_some() {
                // Lanes that fail the guard keep the old value: join.
                match (&st.regs[d.0 as usize], new_val) {
                    (Some(old), Some(new)) if *old == new => Some(new),
                    _ => Some(self.opaque_value(pc, Range::FULL)),
                }
            } else {
                new_val
            };
        }
        if let Some(p) = inst.pdst {
            out.preds[p.0 as usize] = if inst.op == Opcode::Set && inst.guard.is_none() {
                let lhs = self.operand(&st, inst.srcs.first());
                let rhs = self.operand(&st, inst.srcs.get(1));
                match (lhs, rhs, inst.dtype.is_float()) {
                    (Some(lhs), Some(rhs), false) => Some(Fact {
                        lhs,
                        cmp: inst.cmp.expect("validated set has cmp"),
                        rhs,
                    }),
                    _ => None,
                }
            } else {
                None
            };
        }

        // Edges, with guard-derived refinement.
        let guard_fact = inst
            .guard
            .and_then(|(p, sense)| st.preds[p.0 as usize].clone().map(|f| (f, sense)));
        let mut edges = Vec::new();
        match inst.op {
            Opcode::Exit => {
                if inst.guard.is_some() && pc + 1 < n {
                    let mut fall = out;
                    if let Some((f, sense)) = &guard_fact {
                        // Lanes that continue are those whose guard failed.
                        self.refine_with(&mut fall, f, !sense);
                    }
                    edges.push((pc + 1, fall));
                }
            }
            Opcode::Bra => {
                let target = inst.target.expect("validated bra has target") as usize;
                if inst.guard.is_some() {
                    let mut taken = out.clone();
                    let mut fall = out;
                    if let Some((f, sense)) = &guard_fact {
                        self.refine_with(&mut taken, f, *sense);
                        self.refine_with(&mut fall, f, !sense);
                    }
                    edges.push((target, taken));
                    if pc + 1 < n {
                        edges.push((pc + 1, fall));
                    }
                } else {
                    edges.push((target, out));
                }
            }
            _ => {
                if pc + 1 < n {
                    edges.push((pc + 1, out));
                }
            }
        }
        edges.retain(|(succ, _)| reachable[*succ]);
        edges
    }

    fn merge_into(&mut self, succ: usize, incoming: State) -> bool {
        let Some(existing) = self.in_states[succ].clone() else {
            self.in_states[succ] = Some(incoming);
            return true;
        };
        let mut changed = false;
        let mut merged = existing.clone();
        for r in 0..merged.regs.len() {
            let m = match (&existing.regs[r], &incoming.regs[r]) {
                (Some(a), Some(b)) if a == b => Some(a.clone()),
                (Some(a), Some(b)) => {
                    let ra = self.syms.range_of_affine(a, &existing.refine, MAX_DEPTH);
                    let rb = self.syms.range_of_affine(b, &incoming.refine, MAX_DEPTH);
                    let hull = if ra.valid() && rb.valid() {
                        Range::hull(ra, rb)
                    } else {
                        Range::FULL
                    };
                    let da = self.syms.deps_of_affine(a, MAX_DEPTH);
                    let db = self.syms.deps_of_affine(b, MAX_DEPTH);
                    let deps = match (da, db) {
                        (Some(x), Some(y)) => Some(x | y),
                        _ => None,
                    };
                    let align = gcd(
                        self.syms.align_of_affine(a, MAX_DEPTH),
                        self.syms.align_of_affine(b, MAX_DEPTH),
                    );
                    let (id, phi_changed) = self.syms.phi(succ, r as u8, hull, deps, align);
                    changed |= phi_changed;
                    Some(Affine::sym(id))
                }
                _ => None,
            };
            if merged.regs[r] != m {
                merged.regs[r] = m;
                changed = true;
            }
        }
        for p in 0..merged.preds.len() {
            let keep = match (&existing.preds[p], &incoming.preds[p]) {
                (Some(a), Some(b)) if a == b => Some(a.clone()),
                _ => None,
            };
            if merged.preds[p] != keep {
                merged.preds[p] = keep;
                changed = true;
            }
        }
        let mut refined = BTreeMap::new();
        for (s, ra) in &existing.refine {
            if let Some(rb) = incoming.refine.get(s) {
                let hull = Range::hull(*ra, *rb);
                if hull.valid() {
                    refined.insert(*s, hull);
                }
            }
        }
        if merged.refine != refined {
            merged.refine = refined;
            changed = true;
        }
        if changed {
            self.in_states[succ] = Some(merged);
        }
        changed
    }

    fn fixpoint(&mut self, reachable: &[bool]) {
        let n = self.program.instructions().len();
        for sweep in 0..=MAX_SWEEPS {
            if sweep == MAX_SWEEPS {
                self.bailed = true;
                return;
            }
            let mut changed = false;
            for pc in 0..n {
                if !reachable[pc] || self.in_states[pc].is_none() {
                    continue;
                }
                for (succ, state) in self.transfer(pc, reachable) {
                    changed |= self.merge_into(succ, state);
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Thread dims the launch actually varies for an access in `space`:
    /// distinct threads of one CTA for shared memory, distinct threads of
    /// the whole grid for global.
    fn relevant_dims(&self, space: AddrSpace) -> DepMask {
        let mut mask = 0;
        let b = self.spec.block;
        let g = self.spec.grid;
        if b.x > 1 {
            mask |= DEP_TIDX;
        }
        if b.y > 1 {
            mask |= DEP_TIDY;
        }
        if b.z > 1 {
            mask |= DEP_TIDZ;
        }
        if space == AddrSpace::Global {
            if g.x > 1 {
                mask |= DEP_CTAX;
            }
            if g.y > 1 {
                mask |= DEP_CTAY;
            }
            if g.z > 1 {
                mask |= DEP_CTAZ;
            }
        }
        mask
    }

    fn report(&mut self, reachable: &[bool], report: &mut Report) {
        if self.bailed {
            return;
        }
        let insts = self.program.instructions().to_vec();
        // Stores since the last `bar` (CTA-scope synchronization), for the
        // read-after-write leg of the race check. Linear program order is
        // an approximation the suite's straight-line store/bar/load
        // staging idiom satisfies exactly.
        let mut pending: Vec<(usize, AddrSpace, Affine, Range, u32)> = Vec::new();
        let mut all_global_certified = true;

        for pc in 0..insts.len() {
            if !reachable[pc] {
                continue;
            }
            let inst = &insts[pc];
            if inst.op == Opcode::Bar {
                pending.clear();
                continue;
            }
            if !matches!(inst.op, Opcode::Ld | Opcode::St) {
                continue;
            }
            let space = inst.space.expect("validated memory op has space");
            if space == AddrSpace::Const {
                continue;
            }
            let Some(st) = self.in_states[pc].clone() else { continue };
            // Within a guarded access, the guard's comparison holds for
            // every executing lane: refine before judging the access.
            let mut st = st;
            if let Some((p, sense)) = inst.guard {
                if let Some(f) = st.preds[p.0 as usize].clone() {
                    self.refine_with(&mut st, &f, sense);
                }
            }
            let is_store = inst.op == Opcode::St;
            let width = if inst.dtype.byte_width() != 2 { 4u32 } else { 2 };
            let addr = self
                .operand(&st, inst.srcs.first())
                .map(|a| a.offset(inst.offset as i64));

            let (align, pattern, bounds, range) = match &addr {
                None => (1, AccessPattern::Unknown, BoundsStatus::Unproven, Range::FULL),
                Some(a) => {
                    let g = self.syms.align_of_affine(a, MAX_DEPTH);
                    let align = largest_pow2(g);
                    let pattern = match self.syms.coeff_of_base(a, DEP_TIDX, MAX_DEPTH) {
                        Some(0) => AccessPattern::Broadcast,
                        Some(c) if c.unsigned_abs() == width as u64 => AccessPattern::Coalesced,
                        Some(c) => AccessPattern::Strided(c),
                        None => AccessPattern::Unknown,
                    };
                    let r = self.syms.range_of_affine(a, &st.refine, MAX_DEPTH);
                    let extent = match space {
                        AddrSpace::Shared => Some(self.program.smem_bytes() as i64),
                        AddrSpace::Global => self.spec.mem_bytes.map(|m| m as i64),
                        AddrSpace::Const => None,
                    };
                    let bounds = match extent {
                        None => BoundsStatus::Unproven,
                        Some(extent) => {
                            if !r.valid() || r.is_full() {
                                BoundsStatus::Unproven
                            } else if r.lo + width as i64 > extent {
                                // Even the smallest reachable address is out.
                                BoundsStatus::OutOfBounds
                            } else if r.hi + width as i64 <= extent {
                                BoundsStatus::InBounds
                            } else {
                                BoundsStatus::Unproven
                            }
                        }
                    };
                    (align, pattern, bounds, r)
                }
            };

            if bounds == BoundsStatus::OutOfBounds {
                report.diagnostics.push(Diagnostic {
                    kind: DiagnosticKind::OutOfBoundsAccess,
                    pc: pc as u32,
                    message: format!(
                        "`{}` provably accesses [{}, {}] past the {} extent of {} bytes",
                        inst,
                        range.lo,
                        range.hi + width as i64 - 1,
                        if space == AddrSpace::Shared { "shared" } else { "heap" },
                        match space {
                            AddrSpace::Shared => self.program.smem_bytes() as i64,
                            _ => self.spec.mem_bytes.unwrap_or(0) as i64,
                        },
                    ),
                });
            }

            if space == AddrSpace::Global && (width != 4 || align % 4 != 0) {
                all_global_certified = false;
            }

            // Cross-lane race checks.
            let relevant = self.relevant_dims(space);
            if is_store {
                if relevant != 0 {
                    let proven = match &addr {
                        Some(a) => {
                            let covered = self
                                .syms
                                .deps_of_affine(a, MAX_DEPTH)
                                .map(|d| d & relevant);
                            match covered {
                                // Every varying dim must appear in the
                                // address, and the form must separate them.
                                Some(c) if c == relevant => {
                                    self.syms.injective(a, relevant, &st.refine, MAX_DEPTH)
                                }
                                Some(_) => false,
                                None => true, // data-dependent: not judged
                            }
                        }
                        None => true,
                    };
                    if !proven {
                        report.diagnostics.push(Diagnostic {
                            kind: DiagnosticKind::MissingBarRace,
                            pc: pc as u32,
                            message: format!(
                                "`{}`: two threads may write the same address in the same barrier interval",
                                inst
                            ),
                        });
                    }
                }
                if let Some(a) = &addr {
                    pending.push((pc, space, a.clone(), range, width));
                }
            } else if let Some(a) = &addr {
                // Load overlapping an unsynchronized store by another
                // thread. Identical fully-understood forms mean every
                // thread reads back its own store: allowed.
                for (spc, sspace, saddr, srange, swidth) in &pending {
                    if *sspace != space {
                        continue;
                    }
                    let same_form = a == saddr
                        && self.syms.deps_of_affine(a, MAX_DEPTH).is_some();
                    let overlap = range.valid()
                        && srange.valid()
                        && range.lo < srange.hi + *swidth as i64
                        && srange.lo < range.hi + width as i64;
                    if overlap && !same_form {
                        report.diagnostics.push(Diagnostic {
                            kind: DiagnosticKind::MissingBarRace,
                            pc: pc as u32,
                            message: format!(
                                "`{}` may read data stored at L{} by another thread with no `bar` in between",
                                inst, spc
                            ),
                        });
                    }
                }
            }

            report.accesses.push(AccessInfo {
                pc: pc as u32,
                space,
                is_store,
                width,
                align,
                pattern,
                bounds,
            });
        }

        report.aligned_certified = all_global_certified;
    }
}

fn div_floor(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

fn largest_pow2(g: i64) -> u32 {
    if g <= 0 {
        return 256;
    }
    let tz = g.trailing_zeros().min(8);
    1u32 << tz
}

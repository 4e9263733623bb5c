//! Static kernel verifier and lint framework.
//!
//! Every architectural statistic the suite reports is a property of the
//! instruction streams `tango-kernels` emits, and the simulator executes
//! those streams unchecked: a use of an undefined register reads whatever
//! is in the register window, and a cross-lane shared-memory race is only
//! caught — if at all — by diverging outputs. This module turns those
//! emergent properties into checked ones with three pass families:
//!
//! 1. **Structural** ([`cfg`]): reachability from the entry, no fallthrough
//!    off the end of the program, guards on warp-wide ops (`bar`, `ssy`)
//!    that the machine ignores.
//! 2. **Dataflow** ([`dataflow`]): def-before-use for general-purpose *and*
//!    predicate registers, per-register float/int class consistency (a
//!    register written as `F32` then consumed by integer arithmetic without
//!    a `cvt` is a lint), and dead-store detection.
//! 3. **Thread-affine value analysis** ([`affine`]): registers are tracked
//!    as affine forms over `tid`/`ctaid`/`param` symbols, classifying every
//!    `ld`/`st` by width, provable alignment, coalescing, and bounds, and
//!    proving per-instruction cross-lane store injectivity (the race check).
//!
//! The affine pass also produces an **alignment certificate**: whether
//! every global access in a launch is provably 32-bit wide and 4-byte
//! aligned. `harness lint` reports it per kernel.

mod affine;
mod cfg;
mod dataflow;

use crate::{AddrSpace, Dim3, KernelProgram};
use std::fmt;

/// How serious a [`Diagnostic`] is.
///
/// Ordered: `Lint < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Style/idiom finding; the program is well-defined.
    Lint,
    /// Suspicious construct that the machine will execute with surprising
    /// (but deterministic) semantics.
    Warning,
    /// The program reads undefined state or faults when executed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Lint => "lint",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The specific defect a [`Diagnostic`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticKind {
    /// A general-purpose register is read on some path before any
    /// instruction could have written it.
    UndefinedRegister,
    /// A predicate register is consumed (as a guard or branch condition)
    /// before any `set` could have written it.
    UndefinedPredicate,
    /// Some execution path runs past the last instruction without `exit`.
    FallthroughEnd,
    /// An instruction can never execute.
    UnreachableCode,
    /// A guard on `bar`/`ssy`, which the machine executes warp-wide
    /// regardless of the predicate.
    IgnoredGuard,
    /// A register written as a float is consumed by integer arithmetic (or
    /// vice versa) without an intervening `cvt`.
    TypeConfusion,
    /// A register write that no path ever reads.
    DeadStore,
    /// Two threads may write the same shared/global address with no
    /// intervening `bar`, or a thread may read another thread's store
    /// without one.
    MissingBarRace,
    /// A memory access provably lands outside the declared extent.
    OutOfBoundsAccess,
}

impl DiagnosticKind {
    /// The fixed severity of this diagnostic kind.
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticKind::UndefinedRegister
            | DiagnosticKind::UndefinedPredicate
            | DiagnosticKind::FallthroughEnd
            | DiagnosticKind::OutOfBoundsAccess => Severity::Error,
            DiagnosticKind::UnreachableCode
            | DiagnosticKind::IgnoredGuard
            | DiagnosticKind::MissingBarRace => Severity::Warning,
            DiagnosticKind::TypeConfusion | DiagnosticKind::DeadStore => Severity::Lint,
        }
    }

    /// Stable snake-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DiagnosticKind::UndefinedRegister => "undefined-register",
            DiagnosticKind::UndefinedPredicate => "undefined-predicate",
            DiagnosticKind::FallthroughEnd => "fallthrough-end",
            DiagnosticKind::UnreachableCode => "unreachable-code",
            DiagnosticKind::IgnoredGuard => "ignored-guard",
            DiagnosticKind::TypeConfusion => "type-confusion",
            DiagnosticKind::DeadStore => "dead-store",
            DiagnosticKind::MissingBarRace => "missing-bar-race",
            DiagnosticKind::OutOfBoundsAccess => "out-of-bounds",
        }
    }
}

/// One verifier finding, anchored at an instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// What was found.
    pub kind: DiagnosticKind,
    /// Program counter of the offending instruction.
    pub pc: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Severity, derived from the kind.
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] L{}: {}",
            self.severity(),
            self.kind.name(),
            self.pc,
            self.message
        )
    }
}

/// How an access relates to the x-adjacent threads of a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Adjacent `tid.x` lanes touch adjacent words: one line per warp.
    Coalesced,
    /// Every lane reads the same address.
    Broadcast,
    /// Adjacent lanes are this many bytes apart.
    Strided(i64),
    /// The address is not affine in `tid.x` (or depends on loaded data).
    Unknown,
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPattern::Coalesced => f.write_str("coalesced"),
            AccessPattern::Broadcast => f.write_str("broadcast"),
            AccessPattern::Strided(s) => write!(f, "strided({s})"),
            AccessPattern::Unknown => f.write_str("unknown"),
        }
    }
}

/// Whether an access was proven inside its declared extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundsStatus {
    /// Every reachable thread/iteration lands inside the extent.
    InBounds,
    /// The analysis could not bound the address (no diagnostic is issued).
    Unproven,
    /// The access provably lands outside the extent.
    OutOfBounds,
}

impl fmt::Display for BoundsStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BoundsStatus::InBounds => "in-bounds",
            BoundsStatus::Unproven => "unproven",
            BoundsStatus::OutOfBounds => "OUT-OF-BOUNDS",
        })
    }
}

/// Static classification of one `ld`/`st` instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessInfo {
    /// Program counter of the access.
    pub pc: u32,
    /// Address space accessed.
    pub space: AddrSpace,
    /// `true` for `st`, `false` for `ld`.
    pub is_store: bool,
    /// Access width in bytes (4 for wide, 2 for sub-word).
    pub width: u32,
    /// Largest power of two the address is provably a multiple of.
    pub align: u32,
    /// Relation to adjacent `tid.x` lanes.
    pub pattern: AccessPattern,
    /// Bounds verdict against the declared extent.
    pub bounds: BoundsStatus,
}

/// Launch-shape facts the affine analysis runs against.
///
/// At kernel-construction time only the geometry is known; at launch time
/// the parameter words and device heap size are concrete and the analysis
/// tightens accordingly.
#[derive(Debug, Clone, Copy)]
pub struct LaunchSpec<'a> {
    /// Grid extent in CTAs.
    pub grid: Dim3,
    /// Block extent in threads.
    pub block: Dim3,
    /// Concrete parameter words, when verifying a specific launch.
    pub params: Option<&'a [u32]>,
    /// Alignment (bytes) the caller guarantees for parameter words that are
    /// buffer addresses; `1` when nothing is guaranteed. The simulator's
    /// allocator hands out 256-byte-aligned buffers, for example.
    pub param_align: u32,
    /// Device heap size in bytes, for global bounds checking.
    pub mem_bytes: Option<u64>,
}

impl<'a> LaunchSpec<'a> {
    /// A geometry-only spec: symbolic parameters, no heap bound.
    pub fn geometry(grid: Dim3, block: Dim3) -> Self {
        LaunchSpec {
            grid,
            block,
            params: None,
            param_align: 1,
            mem_bytes: None,
        }
    }
}

/// Result of verifying one program (optionally against a launch shape).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, sorted by `(pc, kind)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-access classification, sorted by pc (empty without launch facts).
    pub accesses: Vec<AccessInfo>,
    /// `true` when every global access is provably 32-bit wide and 4-byte
    /// aligned.
    pub aligned_certified: bool,
}

impl Report {
    /// Number of diagnostics at `Error` severity.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of diagnostics at `Warning` severity.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of diagnostics at `Lint` severity.
    pub fn lint_count(&self) -> usize {
        self.count(Severity::Lint)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity() == s).count()
    }

    /// `true` if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    fn finish(mut self) -> Self {
        self.diagnostics.sort_by_key(|d| (d.pc, d.kind));
        self.accesses.sort_by_key(|a| a.pc);
        self
    }
}

/// Runs the structural and dataflow passes over a program.
///
/// This is the geometry-free subset: use it where no launch shape exists.
/// [`verify_launch`] is a superset.
pub fn verify_program(program: &KernelProgram) -> Report {
    let mut report = Report::default();
    let reachable = cfg::check(program, &mut report);
    dataflow::check(program, &reachable, &mut report);
    report.finish()
}

/// Runs every pass, including the thread-affine memory analysis, against a
/// launch shape.
///
/// The returned [`Report::aligned_certified`] flag is only trustworthy
/// when `spec.params` carries the real launch parameters.
pub fn verify_launch(program: &KernelProgram, spec: &LaunchSpec<'_>) -> Report {
    let mut report = Report::default();
    let reachable = cfg::check(program, &mut report);
    dataflow::check(program, &reachable, &mut report);
    affine::check(program, spec, &reachable, &mut report);
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, DType, KernelBuilder, Operand};

    fn kinds(report: &Report) -> Vec<DiagnosticKind> {
        report.diagnostics.iter().map(|d| d.kind).collect()
    }

    /// out[tid] = a * x[tid] + y[tid], one block of 32: the canonical clean
    /// kernel. Zero diagnostics, coalesced accesses, certified alignment.
    fn saxpy() -> KernelProgram {
        let mut b = KernelBuilder::new("saxpy");
        let tid = b.reg();
        let ax = b.reg();
        let ay = b.reg();
        let ao = b.reg();
        let vx = b.reg();
        let vy = b.reg();
        b.tid_x(tid);
        let base_x = b.load_param(0);
        let base_y = b.load_param(1);
        let base_o = b.load_param(2);
        b.mad_lo(DType::U32, ax, tid, Operand::imm_u32(4), base_x.into());
        b.mad_lo(DType::U32, ay, tid, Operand::imm_u32(4), base_y.into());
        b.mad_lo(DType::U32, ao, tid, Operand::imm_u32(4), base_o.into());
        b.ld_global(DType::F32, vx, ax, 0);
        b.ld_global(DType::F32, vy, ay, 0);
        b.mov(DType::F32, ax, Operand::imm_f32(2.0)); // reuse ax as the scalar
        b.mul(DType::F32, vx, vx.into(), ax.into());
        b.add(DType::F32, vx, vx.into(), vy.into());
        b.st_global(DType::F32, ao, 0, vx);
        b.exit();
        b.build().unwrap()
    }

    fn spec32() -> LaunchSpec<'static> {
        LaunchSpec {
            grid: Dim3::x(1),
            block: Dim3::x(32),
            params: None,
            param_align: 256,
            mem_bytes: None,
        }
    }

    #[test]
    fn clean_kernel_is_clean() {
        let p = saxpy();
        let r = verify_launch(&p, &spec32());
        assert!(r.diagnostics.is_empty(), "unexpected: {:?}", r.diagnostics);
        assert_eq!(r.accesses.len(), 3, "const loads skipped: 2 ld + 1 st global");
        for a in &r.accesses {
            assert_eq!(a.pattern, AccessPattern::Coalesced, "{a:?}");
            assert_eq!(a.align, 4, "{a:?}");
        }
        assert!(r.aligned_certified);
    }

    #[test]
    fn concrete_params_prove_bounds() {
        let p = saxpy();
        let params = [256u32, 512, 768];
        let spec = LaunchSpec {
            params: Some(&params),
            mem_bytes: Some(1024),
            ..spec32()
        };
        let r = verify_launch(&p, &spec);
        assert!(r.diagnostics.is_empty(), "unexpected: {:?}", r.diagnostics);
        assert!(r.accesses.iter().all(|a| a.bounds == BoundsStatus::InBounds));
        assert!(r.aligned_certified);
    }

    #[test]
    fn out_of_bounds_store_is_an_error() {
        let p = saxpy();
        // Output buffer placed so tid 0..32 stores run past a 900-byte heap.
        let params = [256u32, 512, 800];
        let spec = LaunchSpec {
            params: Some(&params),
            mem_bytes: Some(900),
            ..spec32()
        };
        let r = verify_launch(&p, &spec);
        // Not *provably* out for every lane (lane 0 is fine) -> unproven,
        // no diagnostic. Push the whole buffer out instead:
        let params = [256u32, 512, 2048];
        let spec = LaunchSpec {
            params: Some(&params),
            mem_bytes: Some(1024),
            ..spec
        };
        let r2 = verify_launch(&p, &spec);
        assert!(!r.has_errors());
        assert!(kinds(&r2).contains(&DiagnosticKind::OutOfBoundsAccess), "{:?}", r2.diagnostics);
        assert!(r2.has_errors());
    }

    #[test]
    fn undefined_register_is_an_error() {
        let mut b = KernelBuilder::new("undef");
        let r0 = b.reg();
        let r1 = b.reg();
        b.add(DType::U32, r1, r0.into(), Operand::imm_u32(1)); // r0 never written
        b.st_global(DType::U32, r1, 0, r1); // keep the add live
        b.exit();
        let p = b.build().unwrap();
        let r = verify_program(&p);
        assert_eq!(kinds(&r), vec![DiagnosticKind::UndefinedRegister]);
        assert!(r.has_errors());
    }

    #[test]
    fn guarded_write_is_a_possible_def() {
        // @p mov r0; @p st r0 — r0 is only read when the same guard that
        // wrote it held: not an undefined use.
        let mut b = KernelBuilder::new("guarded_def");
        let r0 = b.reg();
        let addr = b.reg();
        let p = b.pred();
        b.mov(DType::U32, addr, Operand::imm_u32(256));
        b.set(CmpOp::Eq, DType::U32, p, addr.into(), Operand::imm_u32(256));
        b.mov(DType::F32, r0, Operand::imm_f32(1.0));
        b.guard_last(p, true);
        b.st_global(DType::F32, addr, 0, r0);
        b.guard_last(p, true);
        b.exit();
        let prog = b.build().unwrap();
        let r = verify_program(&prog);
        assert!(
            !kinds(&r).contains(&DiagnosticKind::UndefinedRegister),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn undefined_predicate_is_an_error() {
        let mut b = KernelBuilder::new("undefp");
        let p = b.pred();
        let top = b.place_new_label();
        b.nop();
        b.bra_if(p, true, top); // p never set
        b.exit();
        let prog = b.build().unwrap();
        let r = verify_program(&prog);
        assert!(kinds(&r).contains(&DiagnosticKind::UndefinedPredicate), "{:?}", r.diagnostics);
        assert!(r.has_errors());
    }

    #[test]
    fn type_confusion_is_a_lint() {
        let mut b = KernelBuilder::new("confused");
        let rf = b.reg();
        let ri = b.reg();
        b.mov(DType::F32, rf, Operand::imm_f32(1.5));
        b.add(DType::U32, ri, rf.into(), Operand::imm_u32(1)); // f32 bits into int add
        b.mov(DType::U32, rf, ri.into()); // keep the add alive
        b.st_global(DType::U32, rf, 0, ri);
        b.exit();
        let p = b.build().unwrap();
        let r = verify_program(&p);
        assert!(kinds(&r).contains(&DiagnosticKind::TypeConfusion), "{:?}", r.diagnostics);
        assert!(!r.has_errors());
    }

    #[test]
    fn cvt_clears_type_confusion() {
        let mut b = KernelBuilder::new("converted");
        let rf = b.reg();
        let ri = b.reg();
        b.mov(DType::F32, rf, Operand::imm_f32(1.5));
        b.cvt(DType::U32, DType::F32, ri, rf.into());
        b.add(DType::U32, ri, ri.into(), Operand::imm_u32(1));
        b.st_global(DType::U32, ri, 0, ri);
        b.exit();
        let p = b.build().unwrap();
        let r = verify_program(&p);
        assert!(!kinds(&r).contains(&DiagnosticKind::TypeConfusion), "{:?}", r.diagnostics);
    }

    #[test]
    fn unreachable_code_is_a_warning() {
        let mut b = KernelBuilder::new("unreach");
        let end = b.label();
        b.bra(end);
        b.nop(); // skipped by the unconditional branch
        b.nop();
        b.place(end);
        b.exit();
        let p = b.build().unwrap();
        let r = verify_program(&p);
        let diag = r
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagnosticKind::UnreachableCode)
            .expect("unreachable-code diagnostic");
        assert!(diag.message.contains("L1..L2"), "{}", diag.message);
        assert!(!r.has_errors());
    }

    #[test]
    fn fallthrough_end_is_an_error() {
        let mut b = KernelBuilder::new("fall");
        let r0 = b.reg();
        let p = b.pred();
        b.mov(DType::U32, r0, Operand::imm_u32(0));
        b.set(CmpOp::Eq, DType::U32, p, r0.into(), Operand::imm_u32(0));
        b.exit();
        b.guard_last(p, true); // lanes failing the guard fall through...
        b.nop(); // ...and run off the end here
        let prog = b.build().unwrap();
        let r = verify_program(&prog);
        assert!(kinds(&r).contains(&DiagnosticKind::FallthroughEnd), "{:?}", r.diagnostics);
        assert!(r.has_errors());
    }

    #[test]
    fn missing_bar_race_on_shared_store() {
        // Every thread of a 32-wide block stores to shared[0].
        let mut b = KernelBuilder::new("race");
        let addr = b.reg();
        let v = b.reg();
        b.set_smem_bytes(64);
        b.mov(DType::U32, addr, Operand::imm_u32(0));
        b.mov(DType::F32, v, Operand::imm_f32(1.0));
        b.st_shared(DType::F32, addr, 0, v);
        b.exit();
        let p = b.build().unwrap();
        let r = verify_launch(&p, &spec32());
        assert!(kinds(&r).contains(&DiagnosticKind::MissingBarRace), "{:?}", r.diagnostics);
    }

    #[test]
    fn per_thread_shared_store_is_race_free() {
        // shared[4*tid] = v, then bar, then read a neighbour: no race.
        let mut b = KernelBuilder::new("norace");
        let tid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        b.set_smem_bytes(128);
        b.tid_x(tid);
        b.mov(DType::U32, addr, tid.into());
        b.mul(DType::U32, addr, addr.into(), Operand::imm_u32(4));
        b.mov(DType::F32, v, Operand::imm_f32(1.0));
        b.st_shared(DType::F32, addr, 0, v);
        b.bar();
        b.ld_shared(DType::F32, v, addr, 4);
        b.st_global(DType::F32, addr, 256, v);
        b.exit();
        let p = b.build().unwrap();
        let r = verify_launch(&p, &spec32());
        assert!(!kinds(&r).contains(&DiagnosticKind::MissingBarRace), "{:?}", r.diagnostics);
    }

    #[test]
    fn missing_bar_race_on_shared_readback() {
        // Same staging pattern but the bar is missing: neighbour read races.
        let mut b = KernelBuilder::new("nobar");
        let tid = b.reg();
        let addr = b.reg();
        let v = b.reg();
        b.set_smem_bytes(256);
        b.tid_x(tid);
        b.mov(DType::U32, addr, tid.into());
        b.mul(DType::U32, addr, addr.into(), Operand::imm_u32(4));
        b.mov(DType::F32, v, Operand::imm_f32(1.0));
        b.st_shared(DType::F32, addr, 0, v);
        b.ld_shared(DType::F32, v, addr, 4); // neighbour's slot, no bar
        b.st_global(DType::F32, addr, 256, v);
        b.exit();
        let p = b.build().unwrap();
        let r = verify_launch(&p, &spec32());
        assert!(kinds(&r).contains(&DiagnosticKind::MissingBarRace), "{:?}", r.diagnostics);
    }

    #[test]
    fn dead_store_is_a_lint() {
        let mut b = KernelBuilder::new("deadstore");
        let r0 = b.reg();
        b.mov(DType::U32, r0, Operand::imm_u32(1)); // overwritten below
        b.mov(DType::U32, r0, Operand::imm_u32(2));
        b.st_global(DType::U32, r0, 256, r0);
        b.exit();
        let p = b.build().unwrap();
        let r = verify_program(&p);
        let dead: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.kind == DiagnosticKind::DeadStore)
            .collect();
        assert_eq!(dead.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(dead[0].pc, 0);
        assert!(!r.has_errors());
    }

    #[test]
    fn ignored_guard_on_bar_is_a_warning() {
        let mut b = KernelBuilder::new("gbar");
        let r0 = b.reg();
        let p = b.pred();
        b.mov(DType::U32, r0, Operand::imm_u32(0));
        b.set(CmpOp::Eq, DType::U32, p, r0.into(), Operand::imm_u32(0));
        b.bar();
        b.guard_last(p, true);
        b.exit();
        let prog = b.build().unwrap();
        let r = verify_program(&prog);
        assert!(kinds(&r).contains(&DiagnosticKind::IgnoredGuard), "{:?}", r.diagnostics);
    }

    #[test]
    fn guarded_exit_refinement_proves_edge_tile_injectivity() {
        // The suite's edge-tile pattern: a 7-wide row processed by an
        // 4-wide block over 2 CTAs (covers 8 > 7): oy = ctaid.x*4 + tid.x,
        // guarded exit when oy >= 7, then st out[4*oy]. Without the
        // refinement the two CTAs' ranges overlap at oy=7; with it the
        // store is provably injective.
        let mut b = KernelBuilder::new("edge");
        let oy = b.reg();
        let addr = b.reg();
        let v = b.reg();
        let p = b.pred();
        let cta = b.reg();
        b.mov(DType::U32, cta, crate::Special::CtaIdX.into());
        b.mad_lo(DType::U32, oy, cta, Operand::imm_u32(4), crate::Special::TidX.into());
        b.set(CmpOp::Ge, DType::U32, p, oy.into(), Operand::imm_u32(7));
        b.exit();
        b.guard_last(p, true);
        let base = b.load_param(0);
        b.mad_lo(DType::U32, addr, oy, Operand::imm_u32(4), base.into());
        b.mov(DType::F32, v, Operand::imm_f32(1.0));
        b.st_global(DType::F32, addr, 0, v);
        b.exit();
        let prog = b.build().unwrap();
        let spec = LaunchSpec {
            grid: Dim3::x(2),
            block: Dim3::x(4),
            params: None,
            param_align: 256,
            mem_bytes: None,
        };
        let r = verify_launch(&prog, &spec);
        assert!(
            !kinds(&r).contains(&DiagnosticKind::MissingBarRace),
            "refinement failed: {:?}",
            r.diagnostics
        );
        assert!(r.aligned_certified);
    }

    #[test]
    fn subword_global_access_is_not_certified() {
        let mut b = KernelBuilder::new("narrow");
        let tid = b.reg();
        let addr = b.reg();
        b.tid_x(tid);
        let base = b.load_param(0);
        b.mad_lo(DType::U32, addr, tid, Operand::imm_u32(2), base.into());
        b.ld_global(DType::U16, tid, addr, 0);
        b.st_global(DType::U16, addr, 64, tid);
        b.exit();
        let p = b.build().unwrap();
        let r = verify_launch(&p, &spec32());
        assert!(!r.aligned_certified);
        assert_eq!(r.accesses[0].width, 2);
    }

    #[test]
    fn loop_counter_addressing_stays_aligned() {
        // for i in 0..n { acc += in[4*i] }: the loop phi defeats range
        // precision but not the alignment proof.
        let mut b = KernelBuilder::new("loop_align");
        let i = b.reg();
        let acc = b.reg();
        let addr = b.reg();
        let v = b.reg();
        let p = b.pred();
        let base = b.load_param(0);
        b.mov(DType::U32, i, Operand::imm_u32(0));
        b.mov(DType::F32, acc, Operand::imm_f32(0.0));
        let top = b.place_new_label();
        b.mad_lo(DType::U32, addr, i, Operand::imm_u32(4), base.into());
        b.ld_global(DType::F32, v, addr, 0);
        b.add(DType::F32, acc, acc.into(), v.into());
        b.add(DType::U32, i, i.into(), Operand::imm_u32(1));
        b.set(CmpOp::Lt, DType::U32, p, i.into(), Operand::imm_u32(100));
        b.bra_if(p, true, top);
        let out = b.load_param(1);
        b.st_global(DType::F32, out, 0, acc);
        b.exit();
        let prog = b.build().unwrap();
        let spec = LaunchSpec {
            grid: Dim3::x(1),
            block: Dim3::x(1),
            params: None,
            param_align: 256,
            mem_bytes: None,
        };
        let r = verify_launch(&prog, &spec);
        assert!(r.aligned_certified, "{:?}", r.accesses);
        assert!(!r.has_errors(), "{:?}", r.diagnostics);
    }

    #[test]
    fn severity_ordering_and_names() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Lint);
        assert_eq!(DiagnosticKind::MissingBarRace.name(), "missing-bar-race");
        let d = Diagnostic {
            kind: DiagnosticKind::UndefinedRegister,
            pc: 3,
            message: "x".into(),
        };
        assert!(d.to_string().contains("error[undefined-register] L3"));
    }
}

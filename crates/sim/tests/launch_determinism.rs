//! A launch is a pure function of its description and the device state it
//! reads: two fresh, identically-configured devices running the same
//! launch sequence must produce byte-identical `KernelStats` and device
//! memory, across every device preset and in composition with CTA
//! sampling and batch replication. Sub-word and unaligned global traffic
//! must stay exact, and the streamed weight fill must write exactly the
//! bytes a collected upload writes.

use tango_isa::{DType, Dim3, KernelBuilder, KernelProgram, Operand};
use tango_sim::{GlobalMemory, Gpu, GpuConfig, SimOptions};

/// y[tid] = a * x[tid] + y[tid] — the canonical streaming kernel.
fn saxpy() -> KernelProgram {
    let mut b = KernelBuilder::new("det_saxpy");
    let tid = b.global_tid_x();
    let off = b.reg();
    let xa = b.reg();
    let ya = b.reg();
    let xv = b.reg();
    let yv = b.reg();
    let x_base = b.load_param(0);
    let y_base = b.load_param(1);
    let a_bits = b.load_param(2);
    b.shl(DType::U32, off, tid.into(), Operand::imm_u32(2));
    b.add(DType::U32, xa, off.into(), x_base.into());
    b.add(DType::U32, ya, off.into(), y_base.into());
    b.ld_global(DType::F32, xv, xa, 0);
    b.ld_global(DType::F32, yv, ya, 0);
    b.mad(DType::F32, yv, a_bits.into(), xv.into(), yv.into());
    b.st_global(DType::F32, ya, 0, yv);
    b.exit();
    b.build().unwrap()
}

/// out[tid] = x[tid] + x[tid] — pure, output disjoint from input.
fn double() -> KernelProgram {
    let mut b = KernelBuilder::new("det_double");
    let tid = b.global_tid_x();
    let off = b.reg();
    let xa = b.reg();
    let oa = b.reg();
    let v = b.reg();
    let x_base = b.load_param(0);
    let o_base = b.load_param(1);
    b.shl(DType::U32, off, tid.into(), Operand::imm_u32(2));
    b.add(DType::U32, xa, off.into(), x_base.into());
    b.add(DType::U32, oa, off.into(), o_base.into());
    b.ld_global(DType::F32, v, xa, 0);
    b.add(DType::F32, v, v.into(), v.into());
    b.st_global(DType::F32, oa, 0, v);
    b.exit();
    b.build().unwrap()
}

/// Runs the two-kernel "network" (double feeding saxpy) `reps` times on a
/// fresh device and returns every launch's debug-formatted stats plus the
/// final intermediate and output buffers. Repetitions after the first
/// re-launch identical work over identical data, but over warm caches.
fn run_sequence(config: GpuConfig, opts: &SimOptions, reps: usize, n: usize) -> (Vec<String>, Vec<f32>) {
    let mut gpu = Gpu::new(config);
    let x: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
    let x_addr = gpu.upload_f32s(&x);
    let mid_addr = gpu.alloc_bytes(n as u32 * 4);
    let y_addr = gpu.upload_f32s(&vec![1.0; n]);
    let grid = Dim3::x((n as u32).div_ceil(64));
    let block = Dim3::x(64);
    let (p_double, p_saxpy) = (double(), saxpy());
    let mut stats = Vec::new();
    for _ in 0..reps {
        // Reset y so every repetition computes over identical data.
        gpu.memory_mut().write_f32s(y_addr, &vec![1.0; n]);
        let s1 = gpu.launch(&p_double, grid, block, &[x_addr, mid_addr], 0, opts);
        let s2 = gpu.launch(&p_saxpy, grid, block, &[mid_addr, y_addr, 0.25f32.to_bits()], 0, opts);
        stats.push(format!("{s1:?}"));
        stats.push(format!("{s2:?}"));
    }
    let mut memory = gpu.download_f32s(mid_addr, n);
    memory.extend(gpu.download_f32s(y_addr, n));
    (stats, memory)
}

#[test]
fn fresh_devices_give_identical_stats_across_presets() {
    for config in [GpuConfig::gk210(), GpuConfig::tx1(), GpuConfig::gp102()] {
        let a = run_sequence(config.clone(), &SimOptions::new(), 3, 512);
        let b = run_sequence(config.clone(), &SimOptions::new(), 3, 512);
        assert_eq!(a.1, b.1, "memory diverged on {:?}", config.name);
        assert_eq!(a.0, b.0, "stats diverged on {:?}", config.name);
        let expected: Vec<f32> = (0..512).map(|i| i as f32 * 0.25 + 1.0).collect();
        assert_eq!(a.1[512..], expected[..], "wrong output on {:?}", config.name);
    }
}

#[test]
fn sampled_and_batched_launches_are_deterministic() {
    for limit in [None, Some(8), Some(32)] {
        for batch in [1u32, 4] {
            let opts = SimOptions::new().with_cta_sample_limit(limit).with_batch(batch);
            let a = run_sequence(GpuConfig::gp102(), &opts, 2, 2048);
            let b = run_sequence(GpuConfig::gp102(), &opts, 2, 2048);
            assert_eq!(a.1, b.1, "memory diverged at limit={limit:?} batch={batch}");
            assert_eq!(a.0, b.0, "stats diverged at limit={limit:?} batch={batch}");
        }
    }
}

#[test]
fn narrow_and_unaligned_u16_accesses_stay_correct() {
    // out[tid] = x[tid + 1] + 1 over u16 words: every other lane reads and
    // writes at an address that is not 4-byte aligned.
    let mut b = KernelBuilder::new("det_u16");
    let tid = b.global_tid_x();
    let off = b.reg();
    let xa = b.reg();
    let oa = b.reg();
    let v = b.reg();
    let x_base = b.load_param(0);
    let o_base = b.load_param(1);
    b.shl(DType::U32, off, tid.into(), Operand::imm_u32(1));
    b.add(DType::U32, xa, off.into(), x_base.into());
    b.add(DType::U32, oa, off.into(), o_base.into());
    b.ld_global(DType::U16, v, xa, 2);
    b.add(DType::U16, v, v.into(), Operand::imm_u32(1));
    b.st_global(DType::U16, oa, 0, v);
    b.exit();
    let p = b.build().unwrap();

    let run = |base: u16| {
        let mut gpu = Gpu::new(GpuConfig::gp102());
        let x_addr = gpu.alloc_bytes(65 * 2);
        let o_addr = gpu.alloc_bytes(64 * 2);
        for i in 0..65u32 {
            gpu.memory_mut().write_u16(x_addr + i * 2, base + i as u16);
        }
        let s = gpu.launch(&p, Dim3::x(2), Dim3::x(32), &[x_addr, o_addr], 0, &SimOptions::new());
        let out: Vec<u16> = (0..64u32).map(|i| gpu.memory().read_u16(o_addr + i * 2)).collect();
        (format!("{s:?}"), out)
    };
    let (sa, out_a) = run(0);
    let (sb, out_b) = run(100);
    assert_eq!(out_a, (0..64u16).map(|i| i + 2).collect::<Vec<_>>());
    assert_eq!(out_b, (0..64u16).map(|i| i + 102).collect::<Vec<_>>());
    // Stats depend on addresses and control flow, not on the values.
    assert_eq!(sa, sb);
    assert_eq!(sa, run(0).0);
}

#[test]
fn streamed_fill_writes_the_bytes_of_a_collected_upload() {
    let chunk = Gpu::FILL_CHUNK;
    let values = || (0u32..).map(|i| i.wrapping_mul(2_654_435_761) as f32 * 1e-3);
    for len in [0, 1, chunk - 1, chunk, chunk + 1] {
        let mut reference = Gpu::new(GpuConfig::gp102());
        // Allocations on either side, so the fill neither starts at the
        // first address nor ends the memory.
        reference.upload_f32s(&[1.5; 3]);
        let ref_addr = reference.upload_f32s(&values().take(len).collect::<Vec<_>>());
        let ref_tail = reference.upload_f32s(&[2.5]);

        let mut streamed = Gpu::new(GpuConfig::gp102());
        streamed.upload_f32s(&[1.5; 3]);
        let mut source = values();
        let addr = streamed.upload_f32s_with(len, || source.next().unwrap());
        let tail = streamed.upload_f32s_with(1, || 2.5);

        assert_eq!((addr, tail), (ref_addr, ref_tail), "addresses differ at len={len}");
        let footprint = reference.memory_footprint_bytes();
        assert_eq!(streamed.memory_footprint_bytes(), footprint, "footprint differs at len={len}");
        let base = GlobalMemory::ALIGN;
        let words = (footprint as usize - base as usize) / 4;
        let dump = |g: &Gpu| g.download_f32s(base, words).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(dump(&streamed), dump(&reference), "bytes differ at len={len}");
        assert_eq!(source.next(), values().nth(len), "draw count differs at len={len}");
    }
}

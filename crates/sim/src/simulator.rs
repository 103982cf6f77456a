//! The top-level simulator: execution-driven timing of a program with
//! or without CCR hardware.

use ccr_ir::{BlockId, CodeLayout, FuncId, Program};
use ccr_profile::{EmuConfig, EmuError, Emulator, ExecEvent, NullCrb, RunOutcome, TraceSink};

use crate::crb::{CrbConfig, ReuseBuffer};
use crate::machine::MachineConfig;
use crate::pipeline::Pipeline;
use crate::stats::{CrbStats, SimStats};

/// Result of a simulated run: functional outcome plus timing.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Functional result (returned values, dynamic counts).
    pub run: RunOutcome,
    /// Timing and microarchitectural statistics.
    pub stats: SimStats,
}

impl SimOutcome {
    /// Speedup of this run relative to a baseline cycle count.
    pub fn speedup_over(&self, baseline_cycles: u64) -> f64 {
        if self.stats.cycles == 0 {
            0.0
        } else {
            baseline_cycles as f64 / self.stats.cycles as f64
        }
    }
}

/// Simulates `program` on `machine`. With `crb = Some(config)` the CCR
/// hardware is present; with `None` every reuse instruction misses
/// and nothing is recorded (this also serves as the baseline when the
/// program carries no annotations at all).
///
/// ```
/// use ccr_ir::{Operand, ProgramBuilder};
/// use ccr_profile::EmuConfig;
/// use ccr_sim::{simulate_baseline, MachineConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pb = ProgramBuilder::new();
/// let mut f = pb.function("main", 0, 1);
/// let a = f.movi(20);
/// let b = f.add(a, 22);
/// f.ret(&[Operand::Reg(b)]);
/// let id = pb.finish_function(f);
/// pb.set_main(id);
/// let program = pb.finish();
///
/// let out = simulate_baseline(&program, &MachineConfig::paper(), EmuConfig::default())?;
/// assert_eq!(out.run.returned[0].as_int(), 42);
/// assert!(out.stats.cycles >= 1);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates emulator limit violations ([`EmuError`]).
pub fn simulate(
    program: &Program,
    machine: &MachineConfig,
    crb: Option<CrbConfig>,
    emu: EmuConfig,
) -> Result<SimOutcome, EmuError> {
    let mut pipeline = Pipeline::new(*machine, CodeLayout::of(program));
    let (run, crb_stats) = run_stream(program, crb, emu, &mut pipeline)?;
    Ok(finish(run, pipeline, crb_stats))
}

/// Simulates `program` once per machine in `machines` from a single
/// emulation: one [`Emulator::run`] against one CRB (`crb` as in
/// [`simulate`]) drives one [`Pipeline`] per machine. The timing model
/// never feeds back into the emulator or the buffer, so the event
/// stream depends only on the program, the CRB config and `emu`; every
/// outcome equals the matching [`simulate`] call, with the shared
/// [`RunOutcome`] and buffer statistics in each. An empty `machines`
/// runs nothing and returns an empty `Vec`; a single machine takes
/// [`simulate`]'s one-pipeline loop.
///
/// # Errors
///
/// Propagates emulator limit violations ([`EmuError`]), which are a
/// property of the shared stream and so apply to every machine.
pub fn simulate_group(
    program: &Program,
    machines: &[MachineConfig],
    crb: Option<CrbConfig>,
    emu: EmuConfig,
) -> Result<Vec<SimOutcome>, EmuError> {
    match machines {
        [] => return Ok(Vec::new()),
        [machine] => return simulate(program, machine, crb, emu).map(|out| vec![out]),
        _ => {}
    }
    let layout = CodeLayout::of(program);
    let mut fan = FanOut(
        machines
            .iter()
            .map(|m| Pipeline::new(*m, layout.clone()))
            .collect(),
    );
    let (run, crb_stats) = run_stream(program, crb, emu, &mut fan)?;
    Ok(fan
        .0
        .into_iter()
        .map(|pipeline| finish(run.clone(), pipeline, crb_stats))
        .collect())
}

/// The one emulation body behind [`simulate`] and [`simulate_group`],
/// monomorphized per sink so neither pays for the other's shape.
/// Returns the buffer's statistics when a CRB was present.
fn run_stream<S: TraceSink>(
    program: &Program,
    crb: Option<CrbConfig>,
    emu: EmuConfig,
    sink: &mut S,
) -> Result<(RunOutcome, Option<CrbStats>), EmuError> {
    let emulator = Emulator::with_config(program, emu);
    match crb {
        Some(config) => {
            let mut buffer = ReuseBuffer::new(config);
            let run = emulator.run(&mut buffer, sink)?;
            Ok((run, Some(buffer.stats())))
        }
        None => Ok((emulator.run(&mut NullCrb, sink)?, None)),
    }
}

fn finish(run: RunOutcome, pipeline: Pipeline, crb: Option<CrbStats>) -> SimOutcome {
    let mut stats = pipeline.into_stats();
    if let Some(crb) = crb {
        stats.crb = crb;
    }
    SimOutcome { run, stats }
}

/// Forwards every event to each pipeline in turn.
struct FanOut(Vec<Pipeline>);

impl TraceSink for FanOut {
    fn on_exec(&mut self, event: &ExecEvent<'_>) {
        for p in &mut self.0 {
            p.on_exec(event);
        }
    }

    fn on_block_enter(&mut self, func: FuncId, block: BlockId) {
        for p in &mut self.0 {
            p.on_block_enter(func, block);
        }
    }

    fn on_call(&mut self, caller: FuncId, callee: FuncId) {
        for p in &mut self.0 {
            p.on_call(caller, callee);
        }
    }

    fn on_ret(&mut self, from: FuncId) {
        for p in &mut self.0 {
            p.on_ret(from);
        }
    }
}

/// Splits the wall time of a run shared by `n` results into `n`
/// per-result milliseconds. Shares are equal in nanoseconds and
/// rounded cumulatively, so they sum exactly to the whole run's
/// milliseconds (`total_ns / 1_000_000`): summed per-result wall time
/// stays the host time actually spent.
pub fn apportion_wall_ms(total_ns: u64, n: usize) -> Vec<u64> {
    let mut shares = Vec::with_capacity(n);
    let mut before = 0u64;
    for i in 1..=n as u128 {
        let through = (u128::from(total_ns) * i / n as u128 / 1_000_000) as u64;
        shares.push(through - before);
        before = through;
    }
    shares
}

/// Simulates the baseline machine (no CCR hardware).
///
/// # Errors
///
/// Propagates emulator limit violations ([`EmuError`]).
pub fn simulate_baseline(
    program: &Program,
    machine: &MachineConfig,
    emu: EmuConfig,
) -> Result<SimOutcome, EmuError> {
    simulate(program, machine, None, emu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_ir::{BinKind, CmpPred, Operand, ProgramBuilder};

    fn sum_loop(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let t = pb.table("t", (0..16).collect());
        let mut f = pb.function("main", 0, 1);
        let acc = f.movi(0);
        let i = f.movi(0);
        let body = f.block();
        let done = f.block();
        f.jump(body);
        f.switch_to(body);
        let m = f.and(i, 15);
        let v = f.load(t, m);
        f.bin_into(BinKind::Add, acc, acc, v);
        f.inc(i, 1);
        f.br(CmpPred::Lt, i, n, body, done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        pb.finish()
    }

    #[test]
    fn baseline_simulation_reports_consistent_counts() {
        let p = sum_loop(1000);
        let out = simulate_baseline(&p, &MachineConfig::paper(), EmuConfig::default()).unwrap();
        assert_eq!(out.run.dyn_instrs, out.stats.dyn_instrs);
        assert!(out.stats.cycles > 0);
        assert!(out.stats.cycles <= out.stats.dyn_instrs * 4);
        assert_eq!(out.stats.reuse_hits, 0);
        assert_eq!(out.stats.skipped_instrs, 0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let p = sum_loop(500);
        let a = simulate_baseline(&p, &MachineConfig::paper(), EmuConfig::default()).unwrap();
        let b = simulate_baseline(&p, &MachineConfig::paper(), EmuConfig::default()).unwrap();
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.run.returned, b.run.returned);
    }

    #[test]
    fn crb_presence_does_not_change_architectural_results() {
        let p = sum_loop(800);
        let base = simulate_baseline(&p, &MachineConfig::paper(), EmuConfig::default()).unwrap();
        let ccr = simulate(
            &p,
            &MachineConfig::paper(),
            Some(CrbConfig::paper()),
            EmuConfig::default(),
        )
        .unwrap();
        // No annotations: identical timing, identical results.
        assert_eq!(base.run.returned, ccr.run.returned);
        assert_eq!(base.stats.cycles, ccr.stats.cycles);
        assert_eq!(ccr.stats.crb.lookups, 0);
    }

    /// A hand-annotated program whose one region hits on nearly every
    /// iteration.
    fn reuse_fixture() -> Program {
        use ccr_ir::{BinKind, InstrExt, Op};
        let mut pb = ccr_ir::ProgramBuilder::new();
        let mut f = pb.function("main", 0, 1);
        let x = f.movi(9);
        let count = f.movi(0);
        let acc = f.movi(0);
        let y = f.fresh();
        let reuse_blk = f.block();
        let body = f.block();
        let cont = f.block();
        let done = f.block();
        f.jump(reuse_blk);
        f.switch_to(reuse_blk);
        f.jump(body);
        f.switch_to(body);
        f.bin_into(BinKind::Mul, y, x, x);
        for _ in 0..10 {
            f.bin_into(BinKind::Add, y, y, 3);
        }
        f.jump(cont);
        f.switch_to(cont);
        f.bin_into(BinKind::Add, acc, acc, y);
        f.inc(count, 1);
        f.br(ccr_ir::CmpPred::Lt, count, 200, reuse_blk, done);
        f.switch_to(done);
        f.ret(&[Operand::Reg(acc)]);
        let id = pb.finish_function(f);
        pb.set_main(id);
        let mut p = pb.finish();
        let region = p.fresh_region_id();
        let func = p.function_mut(id);
        func.block_mut(ccr_ir::BlockId(1)).instrs[0].op = Op::Reuse {
            region,
            body: ccr_ir::BlockId(2),
            cont: ccr_ir::BlockId(3),
        };
        let blen = func.block(ccr_ir::BlockId(2)).len();
        func.block_mut(ccr_ir::BlockId(2)).instrs[0].ext = InstrExt::LIVE_OUT;
        func.block_mut(ccr_ir::BlockId(2)).instrs[blen - 1].ext = InstrExt::REGION_END;
        ccr_ir::verify_program(&p).unwrap();
        p
    }

    #[test]
    fn speculative_validation_never_slows_a_run() {
        // Compare timing of a reusing program with and without
        // validation speculation.
        let p = reuse_fixture();
        let normal = simulate(
            &p,
            &MachineConfig::paper(),
            Some(CrbConfig::paper()),
            EmuConfig::default(),
        )
        .unwrap();
        let spec = simulate(
            &p,
            &MachineConfig::with_speculative_validation(),
            Some(CrbConfig::paper()),
            EmuConfig::default(),
        )
        .unwrap();
        assert_eq!(normal.run.returned, spec.run.returned);
        assert!(spec.stats.reuse_hits > 100);
        assert!(
            spec.stats.cycles <= normal.stats.cycles,
            "speculation must not slow the run: {} vs {}",
            spec.stats.cycles,
            normal.stats.cycles
        );
    }

    #[test]
    fn speedup_over_computes_ratio() {
        let p = sum_loop(100);
        let out = simulate_baseline(&p, &MachineConfig::paper(), EmuConfig::default()).unwrap();
        let s = out.speedup_over(out.stats.cycles * 2);
        assert!((s - 2.0).abs() < 1e-9);
    }

    /// The machines a fanned group is checked over: every width of the
    /// width study, both ends of the reuse-miss-penalty sweep, and
    /// speculative validation.
    fn group_machines() -> Vec<MachineConfig> {
        let paper = MachineConfig::paper();
        let mut machines: Vec<MachineConfig> = [2, 4, 8]
            .into_iter()
            .map(|width| MachineConfig {
                issue_width: width,
                int_alus: (width * 2 / 3).max(1),
                mem_ports: (width / 3).max(1),
                ..paper
            })
            .collect();
        for penalty in [0, 16] {
            machines.push(MachineConfig {
                reuse_miss_penalty: penalty,
                ..paper
            });
        }
        machines.push(MachineConfig::with_speculative_validation());
        machines
    }

    #[test]
    fn group_equals_separate_simulations() {
        let machines = group_machines();
        for (p, crb) in [
            (sum_loop(700), None),
            (sum_loop(700), Some(CrbConfig::paper())),
            (reuse_fixture(), Some(CrbConfig::paper())),
            (reuse_fixture(), None),
        ] {
            let group = simulate_group(&p, &machines, crb, EmuConfig::default()).unwrap();
            assert_eq!(group.len(), machines.len());
            for (machine, fanned) in machines.iter().zip(&group) {
                let single = simulate(&p, machine, crb, EmuConfig::default()).unwrap();
                assert_eq!(fanned.run, single.run);
                assert_eq!(fanned.stats, single.stats);
            }
        }
        // The fixture really exercises the shared buffer.
        let fanned = simulate_group(
            &reuse_fixture(),
            &machines,
            Some(CrbConfig::paper()),
            EmuConfig::default(),
        )
        .unwrap();
        assert!(fanned.iter().all(|o| o.stats.reuse_hits > 100));
        let cycles: std::collections::BTreeSet<u64> =
            fanned.iter().map(|o| o.stats.cycles).collect();
        assert!(
            cycles.len() > 1,
            "machines must time the stream differently"
        );
    }

    #[test]
    fn empty_group_runs_nothing() {
        let out = simulate_group(&sum_loop(10), &[], None, EmuConfig::default()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn wall_shares_sum_to_the_whole_run() {
        for (total_ns, n) in [
            (0, 3),
            (999_999, 4),
            (7_300_000, 3),
            (12_345_678_901, 7),
            (5_000_000, 1),
        ] {
            let shares = apportion_wall_ms(total_ns, n);
            assert_eq!(shares.len(), n);
            assert_eq!(shares.iter().sum::<u64>(), total_ns / 1_000_000);
            let (lo, hi) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(hi - lo <= 1, "{shares:?}");
        }
        assert_eq!(apportion_wall_ms(0, 4), vec![0; 4]);
        assert_eq!(apportion_wall_ms(7_300_000, 3), vec![2, 2, 3]);
        assert!(apportion_wall_ms(5_000_000, 0).is_empty());
    }
}

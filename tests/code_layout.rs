//! The timing model reads an instruction's code address from a dense
//! table indexed by instruction id. This test checks that table
//! against the definition of the layout, rebuilt here as a map: over
//! the annotated programs of all 13 suite workloads (optimized,
//! region-annotated, so their id spaces have holes), every
//! instruction gets the address of its 4-byte slot in a code image
//! laid out function by function, block by block.

use std::collections::HashMap;

use ccr::ir::layout::INSTR_BYTES;
use ccr::ir::{CodeLayout, InstrId, Program};
use ccr::workloads::{all, InputSet};
use ccr::{compile_ccr, CompileConfig};

/// The layout as a hash map, in the order `CodeLayout::of` documents.
fn reference_addrs(program: &Program) -> HashMap<InstrId, u64> {
    let mut addrs = HashMap::new();
    let mut pc = 0;
    for func in program.functions() {
        for (_, instr) in func.iter_instrs() {
            addrs.insert(instr.id, pc);
            pc += INSTR_BYTES;
        }
    }
    addrs
}

#[test]
fn dense_layout_matches_a_map_on_every_annotated_workload() {
    let workloads = all(InputSet::Train, 1);
    assert_eq!(workloads.len(), 13);
    let mut holes = 0;
    for w in workloads {
        let compiled = compile_ccr(&w.program, &w.program, &CompileConfig::paper())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let annotated = &compiled.annotated;
        let layout = CodeLayout::of(annotated);
        let expected = reference_addrs(annotated);
        assert_eq!(expected.len(), annotated.instr_count(), "{}", w.name);
        holes += annotated.instr_id_limit() as usize - expected.len();
        for (_, instr) in annotated.iter_instrs() {
            assert_eq!(
                layout.code_addr(instr.id),
                expected[&instr.id],
                "{}: address of {}",
                w.name,
                instr.id
            );
        }
        assert_eq!(
            layout.code_size(),
            expected.len() as u64 * INSTR_BYTES,
            "{}",
            w.name
        );
    }
    assert!(holes > 0, "the suite exercises unassigned ids");
}

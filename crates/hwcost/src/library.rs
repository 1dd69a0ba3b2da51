//! The primitive block library: parameterized cell/wire cost functions.
//!
//! Constants approximate a NAND2-equivalent standard-cell mapping of the
//! kind Yosys emits against a generic Synopsys library: a flip-flop is
//! one sequential cell plus fan-in logic, memories synthesize to flop
//! arrays with read muxes and write decoders (no SRAM macros — exactly
//! why Table 2's counts are as large as they are for a small core).

use crate::blocks::Cost;

/// Cells per flip-flop bit (the DFF itself plus average enable/clock
/// gating share).
const CELLS_PER_FLOP: f64 = 1.35;
/// Wires per flop (D and Q nets amortized with clock distribution).
const WIRES_PER_FLOP: f64 = 1.25;
/// Cells per 2:1 mux bit.
const CELLS_PER_MUX2: f64 = 1.0;
/// Cells per full-adder bit.
const CELLS_PER_ADDER_BIT: f64 = 5.0;
/// Cells per comparator bit (XOR + tree share).
const CELLS_PER_CMP_BIT: f64 = 1.6;
/// Wires per combinational cell.
const WIRES_PER_CELL: f64 = 1.05;

fn comb(cells: f64) -> Cost {
    Cost {
        cells: cells.round() as u64,
        wires: (cells * WIRES_PER_CELL).round() as u64,
    }
}

/// An array of `bits` flip-flops.
#[must_use]
pub fn flops(bits: u64) -> Cost {
    Cost {
        cells: (bits as f64 * CELLS_PER_FLOP).round() as u64,
        wires: (bits as f64 * WIRES_PER_FLOP).round() as u64,
    }
}

/// A `words x width` memory synthesized to flops: storage, a write
/// decoder, and a read mux per read port.
#[must_use]
pub fn memory(words: u64, width: u64, read_ports: u64, write_ports: u64) -> Cost {
    let storage = flops(words * width);
    // Read: a words:1 mux per bit per port costs ~(words - 1) mux2 bits.
    let read = comb((words.saturating_sub(1) * width * read_ports) as f64 * CELLS_PER_MUX2);
    // Write: decoder (~2 cells per word) and enable fan-out per port.
    let write = comb((words * 2 * write_ports) as f64);
    storage + read + write
}

/// A content-addressable memory: `entries` of `tag_bits` with a
/// comparator each, plus `data_bits` of payload storage and a read mux.
#[must_use]
pub fn cam(entries: u64, tag_bits: u64, data_bits: u64) -> Cost {
    let tags = flops(entries * tag_bits);
    let compare = comb((entries * tag_bits) as f64 * CELLS_PER_CMP_BIT);
    let data = memory(entries, data_bits, 1, 1);
    let priority = comb(entries as f64 * 3.0);
    tags + compare + data + priority
}

/// An `inputs`:1 mux of `width` bits.
#[must_use]
pub fn mux(inputs: u64, width: u64) -> Cost {
    comb((inputs.saturating_sub(1) * width) as f64 * CELLS_PER_MUX2)
}

/// A `width`-bit carry-propagate adder.
#[must_use]
pub fn adder(width: u64) -> Cost {
    comb(width as f64 * CELLS_PER_ADDER_BIT)
}

/// A `width`-bit ALU (add/sub/logic/shift/compare).
#[must_use]
pub fn alu(width: u64) -> Cost {
    // Adder + logic unit + barrel shifter (log2(w) mux levels) + compare.
    let shifter = (width as f64) * (width as f64).log2() * CELLS_PER_MUX2;
    comb(
        width as f64 * CELLS_PER_ADDER_BIT
            + width as f64 * 3.0
            + shifter
            + width as f64 * CELLS_PER_CMP_BIT,
    )
}

/// A radix-4 multiplier/divider unit for `width` bits.
#[must_use]
pub fn muldiv(width: u64) -> Cost {
    // Partial-product rows + iterative divider datapath + control.
    comb(width as f64 * width as f64 * 0.55 + width as f64 * 30.0)
}

/// A `width`-bit equality/magnitude comparator.
#[must_use]
pub fn comparator(width: u64) -> Cost {
    comb(width as f64 * CELLS_PER_CMP_BIT)
}

/// Unstructured random logic measured in gate-equivalents.
#[must_use]
pub fn random_logic(gates: u64) -> Cost {
    comb(gates as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An n-bit binary decoder (2^n outputs).
    fn decoder(in_bits: u64) -> Cost {
        comb((1u64 << in_bits) as f64 * 1.2)
    }

    #[test]
    fn flops_scale_linearly() {
        let one = flops(100);
        let ten = flops(1000);
        assert!(ten.cells >= one.cells * 9 && ten.cells <= one.cells * 11);
        assert!(one.wires > 0);
    }

    #[test]
    fn memory_dominated_by_storage() {
        let m = memory(1024, 32, 1, 1);
        let s = flops(1024 * 32);
        assert!(m.cells > s.cells, "read/write logic adds cost");
        assert!(m.cells < s.cells * 3, "but storage dominates");
    }

    #[test]
    fn more_ports_cost_more() {
        let one = memory(32, 32, 1, 1);
        let two = memory(32, 32, 2, 1);
        assert!(two.cells > one.cells);
    }

    #[test]
    fn cam_more_expensive_than_plain_memory_per_entry() {
        let c = cam(32, 20, 32);
        let m = memory(32, 52, 1, 1);
        assert!(c.cells > m.cells, "comparators cost extra");
    }

    #[test]
    fn alu_bigger_than_adder() {
        assert!(alu(32).cells > adder(32).cells);
    }

    #[test]
    fn monotonicity() {
        assert!(memory(64, 32, 1, 1).cells > memory(32, 32, 1, 1).cells);
        assert!(cam(64, 20, 32).cells > cam(32, 20, 32).cells);
        assert!(decoder(6).cells > decoder(5).cells);
    }
}

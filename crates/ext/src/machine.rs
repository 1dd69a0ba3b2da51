//! Shared machinery for assembling guest programs and running them on a
//! Metal-enabled core.

use metal_asm::{assemble, Options};
use metal_core::Metal;
use metal_pipeline::{Engine, HaltReason};
use std::collections::BTreeMap;

/// Default layout of a guest system image.
pub mod layout {
    /// Reset / user text base.
    pub const TEXT_BASE: u32 = 0x0000;
    /// Guest data base.
    pub const DATA_BASE: u32 = 0x2_0000;
    /// Kernel text base (used by the mini kernel).
    pub const KERNEL_BASE: u32 = 0x1_0000;
    /// Kernel syscall table (word-sized handler pointers).
    pub const SYSCALL_TABLE: u32 = 0x400;
    /// Top of the kernel stack.
    pub const KERNEL_STACK_TOP: u32 = 0xF000;
}

/// An assembled guest binary: segments plus its symbol table.
#[derive(Clone, Debug)]
pub struct GuestBinary {
    /// `(base, bytes)` segments to load into RAM.
    pub segments: Vec<(u32, Vec<u8>)>,
    /// Symbols defined by the source.
    pub symbols: BTreeMap<String, i64>,
    /// Entry point (the `_start` symbol, or the text base).
    pub entry: u32,
}

impl GuestBinary {
    /// Looks up a symbol address.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).map(|&v| v as u32)
    }

    /// Loads the binary into either engine and points fetch at the entry.
    pub fn load_into<E: Engine<Hooks = Metal>>(&self, engine: &mut E) {
        engine.load_segments(
            self.segments.iter().map(|(b, d)| (*b, d.as_slice())),
            self.entry,
        );
    }
}

/// Assembles a guest program with the standard layout (text at
/// [`layout::TEXT_BASE`], data at [`layout::DATA_BASE`]).
pub fn assemble_guest(src: &str) -> Result<GuestBinary, metal_asm::AsmError> {
    assemble_guest_at(src, layout::TEXT_BASE, layout::DATA_BASE)
}

/// Assembles a guest program with explicit section bases.
pub fn assemble_guest_at(
    src: &str,
    text_base: u32,
    data_base: u32,
) -> Result<GuestBinary, metal_asm::AsmError> {
    let out = assemble(
        src,
        Options {
            text_base,
            data_base,
        },
    )?;
    let entry = out.symbol("_start").unwrap_or(text_base);
    Ok(GuestBinary {
        segments: out
            .segments
            .iter()
            .map(|s| (s.base, s.data.clone()))
            .collect(),
        symbols: out.symbols.clone(),
        entry,
    })
}

/// Assembles, loads, and runs a guest program; returns the halt reason.
///
/// # Panics
///
/// Panics if the source does not assemble (these are library-internal
/// programs; failure is a bug, not input error).
pub fn run_guest<E: Engine<Hooks = Metal>>(
    engine: &mut E,
    src: &str,
    max_cycles: u64,
) -> Option<HaltReason> {
    let binary = assemble_guest(src).unwrap_or_else(|e| panic!("guest program: {e}"));
    binary.load_into(engine);
    engine.run(max_cycles)
}

/// Generates a 32-way register-read dispatch table: computed jumps
/// indexed by register number land on `mv t2, xN`.
///
/// Contract: a handler using these stubs saves `t0..t2` into `m6..m8`
/// and `t3..t5` into `m10..m12` in its prologue (and restores them
/// before `mexit`), and never clobbers `t6`. The stubs read the saved
/// copies for those six registers and the live register otherwise.
/// This is the classic microcode technique for dynamic register access;
/// several kits share it.
#[must_use]
pub fn read_reg_stubs(label: &str, done: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{label}:");
    for i in 0..32 {
        match i {
            5 => drop(writeln!(out, "    rmr t2, m6\n    j {done}")),
            6 => drop(writeln!(out, "    rmr t2, m7\n    j {done}")),
            7 => drop(writeln!(out, "    rmr t2, m8\n    j {done}")),
            28 => drop(writeln!(out, "    rmr t2, m10\n    j {done}")),
            29 => drop(writeln!(out, "    rmr t2, m11\n    j {done}")),
            30 => drop(writeln!(out, "    rmr t2, m12\n    j {done}")),
            _ => drop(writeln!(out, "    mv t2, x{i}\n    j {done}")),
        }
    }
    out
}

/// Generates a 32-way register-write dispatch table (`mv xN, t2`), the
/// counterpart of [`read_reg_stubs`] under the same save contract.
#[must_use]
pub fn write_reg_stubs(label: &str, done: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{label}:");
    for i in 0..32 {
        match i {
            0 => drop(writeln!(out, "    nop\n    j {done}")),
            5 => drop(writeln!(out, "    wmr m6, t2\n    j {done}")),
            6 => drop(writeln!(out, "    wmr m7, t2\n    j {done}")),
            7 => drop(writeln!(out, "    wmr m8, t2\n    j {done}")),
            28 => drop(writeln!(out, "    wmr m10, t2\n    j {done}")),
            29 => drop(writeln!(out, "    wmr m11, t2\n    j {done}")),
            30 => drop(writeln!(out, "    wmr m12, t2\n    j {done}")),
            _ => drop(writeln!(out, "    mv x{i}, t2\n    j {done}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_core::MetalBuilder;
    use metal_pipeline::state::CoreConfig;

    #[test]
    fn assemble_guest_finds_start() {
        let binary = assemble_guest("nop\n_start:\n li a0, 3\n ebreak").unwrap();
        assert_eq!(binary.entry, 4);
        assert_eq!(binary.symbol("_start"), Some(4));
    }

    #[test]
    fn run_guest_executes_from_start() {
        let mut core = MetalBuilder::new()
            .routine(0, "noop", "mexit")
            .build_core(CoreConfig::default())
            .unwrap();
        let halt = run_guest(
            &mut core,
            "li a0, 1\n ebreak\n_start:\n li a0, 42\n ebreak",
            10_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 42 }));
    }
}

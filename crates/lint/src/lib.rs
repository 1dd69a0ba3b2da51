//! Dataflow static analyzer for mcode.
//!
//! Microcode-level code demands microcode-level scrutiny: an mroutine
//! runs non-interruptibly with full machine access, so a privilege,
//! bounds, or leak bug installed into MRAM is a machine-wide bug. This
//! crate analyzes assembled programs and mroutines *before* they run:
//! it builds a CFG over pre-decoded instructions ([`Cfg`]), solves
//! reaching-defs / interval / taint lattices to a fixpoint, and runs
//! seven checks over the result ([`checks`]):
//!
//! 1. **privilege** — Metal-only instructions reachable outside Metal
//!    mode; environment instructions inside mroutines; illegal words;
//! 2. **bounds** — statically-resolvable `mld`/`mst` offsets against
//!    the MRAM data segment;
//! 3. **retaddr** — `m31` clobbered (a non-return-address value) on a
//!    path to `mexit`;
//! 4. **leak** — secret Metal-register values escaping Metal mode
//!    unscrubbed (GPRs at `mexit`, stores to normal memory, CSRs);
//! 5. **budget** — worst-case instruction count per mroutine, with
//!    unbounded-loop detection;
//! 6. **intercept** — constant-folded `mintercept` arms: targets
//!    outside the entry table and selectors that capture the Metal
//!    opcode itself;
//! 7. **structure** — control flow escaping the MRAM code window,
//!    missing `mexit`, dead code, fallthrough off the segment.
//!
//! The `core` loader's install-time verification delegates here, the
//! `mlint` CLI runs the full set over `.s` files with source-span
//! diagnostics, and `metal-fuzz` validates the analyzer's soundness
//! differentially against both execution engines.

pub(crate) mod cfg;
pub mod checks;
pub(crate) mod dataflow;
pub(crate) mod domains;

pub use cfg::Cfg;

use metal_asm::Assembled;

/// Default MRAM base address; must match `metal_core::mram::MRAM_BASE`.
pub const MRAM_BASE: u32 = 0xFFF0_0000;
/// Default MRAM code-segment size; must match `MramConfig::default()`.
pub const MRAM_CODE_BYTES: u32 = 16 * 1024;
/// Default MRAM data-segment size; must match `MramConfig::default()`.
pub const MRAM_DATA_BYTES: u32 = 4 * 1024;

/// Diagnostic severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Suspicious but not provably wrong; reported, never blocking.
    Warn,
    /// Provably violates a contract; blocks install / fails the CLI.
    Deny,
}

/// Which analysis produced a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Check {
    /// Mode correctness: Metal-only instructions on normal-mode paths,
    /// environment instructions in mroutines, illegal words.
    Privilege,
    /// MRAM data-segment bounds for `mld`/`mst`.
    Bounds,
    /// `m31` return-address clobbered before `mexit`.
    RetAddr,
    /// Secret Metal-register values escaping Metal mode.
    Leak,
    /// Worst-case instruction-count budget / unbounded loops.
    Budget,
    /// `mintercept` redirection issues.
    Intercept,
    /// Window escapes, missing `mexit`, dead code, fallthrough.
    Structure,
}

impl Check {
    /// Stable lower-case name, used in rendered diagnostics.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Check::Privilege => "privilege",
            Check::Bounds => "bounds",
            Check::RetAddr => "retaddr",
            Check::Leak => "leak",
            Check::Budget => "budget",
            Check::Intercept => "intercept",
            Check::Structure => "structure",
        }
    }
}

/// One finding, anchored to a PC and (when spans are available) to a
/// source line/column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity.
    pub level: Level,
    /// Producing analysis.
    pub check: Check,
    /// Address of the offending instruction.
    pub pc: u32,
    /// 1-based source line, when the unit was assembled with spans.
    pub line: Option<u32>,
    /// 1-based source column, when available.
    pub col: Option<u32>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Renders `file:line:col: level[check]: message (pc 0x…)`.
    #[must_use]
    pub fn render(&self, file: &str) -> String {
        let level = match self.level {
            Level::Deny => "error",
            Level::Warn => "warning",
        };
        let loc = match (self.line, self.col) {
            (Some(l), Some(c)) => format!("{file}:{l}:{c}"),
            (Some(l), None) => format!("{file}:{l}"),
            _ => file.to_owned(),
        };
        format!(
            "{loc}: {level}[{}]: {} (pc {:#010x})",
            self.check.name(),
            self.message,
            self.pc
        )
    }
}

/// Which checks to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckSet {
    /// Run the privilege/mode-correctness check.
    pub privilege: bool,
    /// Run the MRAM bounds check.
    pub bounds: bool,
    /// Run the `m31`-clobber check.
    pub retaddr: bool,
    /// Run the taint-leak check.
    pub leak: bool,
    /// Run the instruction-budget check.
    pub budget: bool,
    /// Run the intercept-redirection check.
    pub intercept: bool,
    /// Run the structural checks (window escapes, missing `mexit`).
    pub structure: bool,
    /// Emit dead-code / fallthrough-off-segment warnings.
    pub deadcode: bool,
}

impl CheckSet {
    /// Everything on (the `mlint` CLI default).
    #[must_use]
    pub const fn all() -> CheckSet {
        CheckSet {
            privilege: true,
            bounds: true,
            retaddr: true,
            leak: true,
            budget: true,
            intercept: true,
            structure: true,
            deadcode: true,
        }
    }

    /// The loader's install-time set: privilege and structural checks
    /// only (dataflow warnings would reject long-standing extension
    /// idioms like computed `m31` resume addresses).
    #[must_use]
    pub const fn install() -> CheckSet {
        CheckSet {
            privilege: true,
            bounds: false,
            retaddr: false,
            leak: false,
            budget: false,
            intercept: false,
            structure: true,
            deadcode: false,
        }
    }
}

/// What kind of unit is being analyzed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitKind {
    /// A normal-mode guest program: Metal-only instructions are the
    /// violation; environment instructions are fine.
    Program,
    /// An mroutine running in Metal mode: environment instructions are
    /// the violation; the full dataflow battery applies.
    Mroutine,
}

/// Analysis configuration for one unit.
#[derive(Clone, Copy, Debug)]
pub struct LintConfig {
    /// Unit kind.
    pub kind: UnitKind,
    /// Address of the first instruction.
    pub base: u32,
    /// MRAM code window for escape checks (mroutines). `None` uses the
    /// default MRAM geometry.
    pub window: Option<(u32, u32)>,
    /// MRAM data-segment size for the bounds check.
    pub data_bytes: u32,
    /// Whether nested `menter` is architecturally allowed (layers > 1).
    pub nested_allowed: bool,
    /// Worst-case instruction budget per invocation.
    pub budget: u64,
    /// Enabled checks.
    pub checks: CheckSet,
}

impl LintConfig {
    /// Full-check configuration for an mroutine at `base`.
    #[must_use]
    pub fn mroutine(base: u32) -> LintConfig {
        LintConfig {
            kind: UnitKind::Mroutine,
            base,
            window: None,
            data_bytes: MRAM_DATA_BYTES,
            nested_allowed: false,
            budget: 4096,
            checks: CheckSet::all(),
        }
    }

    /// Full-check configuration for a guest program at `base`.
    #[must_use]
    pub fn program(base: u32) -> LintConfig {
        LintConfig {
            kind: UnitKind::Program,
            base,
            window: None,
            data_bytes: MRAM_DATA_BYTES,
            nested_allowed: false,
            budget: 4096,
            checks: CheckSet::all(),
        }
    }

    /// The effective MRAM code window.
    #[must_use]
    pub fn code_window(&self) -> (u32, u32) {
        self.window
            .unwrap_or((MRAM_BASE, MRAM_BASE + MRAM_CODE_BYTES))
    }
}

/// Lints raw instruction words (no source spans).
#[must_use]
pub fn lint_words(words: &[u32], config: &LintConfig) -> Vec<Diagnostic> {
    checks::analyze(words, config, None).diagnostics
}

/// Lints an assembled unit, attaching source spans to diagnostics.
///
/// The words are taken by flattening the image from `config.base`; a
/// unit with no instructions is an error, since it has no entry block.
pub fn lint_assembled(asm: &Assembled, config: &LintConfig) -> Result<Vec<Diagnostic>, String> {
    let words = asm.words(config.base)?;
    if words.is_empty() {
        return Err("unit has no instructions".into());
    }
    Ok(checks::analyze(&words, config, Some(asm)).diagnostics)
}

/// Assembles `src` at `config.base` and lints it with spans.
pub fn lint_source(src: &str, config: &LintConfig) -> Result<Vec<Diagnostic>, metal_asm::AsmError> {
    let asm = metal_asm::assemble(
        src,
        metal_asm::Options {
            text_base: config.base,
            data_base: config.base + 0x1_0000,
        },
    )?;
    lint_assembled(&asm, config).map_err(|msg| metal_asm::AsmError { line: 0, msg })
}

/// True if any diagnostic is [`Level::Deny`].
#[must_use]
pub fn has_denials(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.level == Level::Deny)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_span_and_check() {
        let d = Diagnostic {
            level: Level::Deny,
            check: Check::Bounds,
            pc: 0xFFF0_0004,
            line: Some(2),
            col: Some(5),
            message: "out of bounds".into(),
        };
        assert_eq!(
            d.render("r.s"),
            "r.s:2:5: error[bounds]: out of bounds (pc 0xfff00004)"
        );
    }

    #[test]
    fn install_set_is_a_subset_of_all() {
        let all = CheckSet::all();
        let install = CheckSet::install();
        assert!(all.privilege && all.deadcode);
        assert!(install.privilege && install.structure);
        assert!(!install.retaddr && !install.leak && !install.deadcode);
    }

    #[test]
    fn unit_without_instructions_is_an_error() {
        for src in ["", "# c\n", "l:\n"] {
            let err = lint_source(src, &LintConfig::mroutine(MRAM_BASE)).unwrap_err();
            assert!(err.msg.contains("no instructions"), "{src:?}: {err}");
        }
    }
}

//! The boot-time mroutine loader.
//!
//! "At boot time, Metal loads a collection of mcode subroutines called
//! mroutines, which extend the architecture's instruction set." (paper
//! §2) [`MetalBuilder`] is that boot flow: assemble each mroutine
//! against its final address, statically verify it, install it into
//! MRAM, program delegations, and construct the core. For PALcode-style
//! dispatch the same image is placed in main memory instead.
//!
//! "Static allocation and non-interruptibility improve performance,
//! security and reliability by eliminating potential resource exhaustion
//! and simplifying mroutine verification." (paper §2.1) Verification is
//! `metal-lint` over the routine's words. By default it runs
//! [`CheckSet::install`]: privilege (environment instructions, illegal
//! words, nested `menter`) and structure (window escapes, `jalr`,
//! `ebreak`, missing `mexit`). [`MetalBuilder::require_lint_clean`]
//! runs [`CheckSet::all`], the full dataflow battery (bounds, retaddr,
//! leak, budget, intercept). Any denial refuses the install; warnings
//! are returned with the build.

use crate::ecc::EccMode;
use crate::metal::{DispatchStyle, Metal, MetalConfig};
use crate::MetalError;
use metal_asm::assemble_at;
use metal_lint::{has_denials, lint_words, CheckSet, Diagnostic, LintConfig};
use metal_pipeline::state::CoreConfig;
use metal_pipeline::trap::TrapCause;
use metal_pipeline::{Core, Engine};

/// The output of [`MetalBuilder::build`]: the extension, the main-memory
/// image PALcode dispatch needs, and accumulated verifier warnings.
pub type BuildOutput = (Metal, Vec<(u32, Vec<u8>)>, Vec<(String, Diagnostic)>);

/// A delegation request recorded before build.
#[derive(Clone, Debug)]
enum Delegation {
    Exception {
        layer: usize,
        cause: TrapCause,
        entry: u8,
    },
    AllExceptions {
        layer: usize,
        entry: u8,
    },
    Interrupt {
        layer: usize,
        line: u8,
        entry: u8,
    },
}

/// Builder for a Metal-enabled machine.
///
/// # Examples
///
/// ```
/// use metal_core::loader::MetalBuilder;
/// use metal_pipeline::state::CoreConfig;
///
/// let core = MetalBuilder::new()
///     .routine(0, "add_one", "rmr t0, m31\n addi a0, a0, 1\n mexit")
///     .build_core(CoreConfig::default())
///     .unwrap();
/// assert!(core.hooks.mram.entry(0).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct MetalBuilder {
    config: MetalConfig,
    routines: Vec<(u8, String, String)>,
    delegations: Vec<Delegation>,
    lint_clean: bool,
}

impl MetalBuilder {
    /// An empty builder with the default configuration.
    #[must_use]
    pub fn new() -> MetalBuilder {
        MetalBuilder {
            config: MetalConfig::default(),
            routines: Vec::new(),
            delegations: Vec::new(),
            lint_clean: false,
        }
    }

    /// Requires every mroutine to pass the *full* static-analysis
    /// battery (`metal-lint` dataflow checks: MRAM bounds, return-address
    /// clobbers, secret leaks, instruction budget, intercept arms), not
    /// just the historical privilege/structure set. Any denial aborts
    /// the build.
    #[must_use]
    pub fn require_lint_clean(mut self) -> MetalBuilder {
        self.lint_clean = true;
        self
    }

    /// Overrides the Metal configuration.
    #[must_use]
    pub fn config(mut self, config: MetalConfig) -> MetalBuilder {
        self.config = config;
        self
    }

    /// Protects MRAM words and the Metal register file with the given
    /// check-bit scheme (detected errors raise machine checks).
    #[must_use]
    pub fn ecc(mut self, mode: EccMode) -> MetalBuilder {
        self.config.ecc = mode;
        self
    }

    /// Uses PALcode-style dispatch from main memory at `base` (the E1
    /// ablation).
    #[must_use]
    pub fn palcode(mut self, base: u32) -> MetalBuilder {
        self.config.dispatch = DispatchStyle::Palcode { base };
        self
    }

    /// Sets the number of nested-Metal layers.
    #[must_use]
    pub fn layers(mut self, layers: usize) -> MetalBuilder {
        self.config.layers = layers.max(1);
        self
    }

    /// Adds an mroutine (assembly source) bound to `entry`.
    #[must_use]
    pub fn routine(mut self, entry: u8, name: &str, src: &str) -> MetalBuilder {
        self.routines.push((entry, name.to_owned(), src.to_owned()));
        self
    }

    /// Delegates an exception cause to an entry (layer 0).
    #[must_use]
    pub fn delegate_exception(self, cause: TrapCause, entry: u8) -> MetalBuilder {
        self.delegate_exception_on(0, cause, entry)
    }

    /// Delegates an exception cause to an entry on a specific layer.
    #[must_use]
    pub fn delegate_exception_on(
        mut self,
        layer: usize,
        cause: TrapCause,
        entry: u8,
    ) -> MetalBuilder {
        self.delegations.push(Delegation::Exception {
            layer,
            cause,
            entry,
        });
        self
    }

    /// Delegates all otherwise-unhandled exceptions to an entry (layer 0).
    #[must_use]
    pub fn delegate_all_exceptions(mut self, entry: u8) -> MetalBuilder {
        self.delegations
            .push(Delegation::AllExceptions { layer: 0, entry });
        self
    }

    /// Delegates an interrupt line to an entry (layer 0).
    #[must_use]
    pub fn delegate_interrupt(self, line: u8, entry: u8) -> MetalBuilder {
        self.delegate_interrupt_on(0, line, entry)
    }

    /// Delegates an interrupt line to an entry on a specific layer.
    #[must_use]
    pub fn delegate_interrupt_on(mut self, layer: usize, line: u8, entry: u8) -> MetalBuilder {
        self.delegations
            .push(Delegation::Interrupt { layer, line, entry });
        self
    }

    /// Assembles, verifies, and installs everything, producing the Metal
    /// extension plus the main-memory image PALcode dispatch needs.
    pub fn build(self) -> Result<BuildOutput, MetalError> {
        let mut metal = Metal::new(self.config);
        let mut palcode_image: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut warnings = Vec::new();
        for (entry, name, src) in &self.routines {
            let base = metal.next_routine_pc();
            let words = assemble_at(src, base).map_err(|e| MetalError::Assemble {
                routine: name.clone(),
                message: e.to_string(),
            })?;
            let diagnostics = lint_words(
                &words,
                &LintConfig {
                    window: Some(self.config.code_window()),
                    data_bytes: self.config.mram.data_bytes,
                    nested_allowed: self.config.layers > 1,
                    checks: if self.lint_clean {
                        CheckSet::all()
                    } else {
                        CheckSet::install()
                    },
                    ..LintConfig::mroutine(base)
                },
            );
            if has_denials(&diagnostics) {
                return Err(MetalError::Verify {
                    routine: name.clone(),
                    diagnostics,
                });
            }
            warnings.extend(diagnostics.into_iter().map(|d| (name.clone(), d)));
            metal.install_routine(*entry, name, &words)?;
            if let DispatchStyle::Palcode { .. } = self.config.dispatch {
                let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                palcode_image.push((base, bytes));
            }
        }
        for d in &self.delegations {
            match *d {
                Delegation::Exception {
                    layer,
                    cause,
                    entry,
                } => metal.layers[layer]
                    .delegation
                    .delegate_exception(cause, entry)?,
                Delegation::AllExceptions { layer, entry } => {
                    metal.layers[layer]
                        .delegation
                        .delegate_all_exceptions(entry)?;
                }
                Delegation::Interrupt { layer, line, entry } => {
                    metal.layers[layer]
                        .delegation
                        .delegate_interrupt(line, entry)?;
                }
            }
        }
        Ok((metal, palcode_image, warnings))
    }

    /// Builds a complete machine of either engine type with the Metal
    /// extension attached (and the PALcode image, if any, loaded into
    /// RAM).
    pub fn build_engine<E: Engine<Hooks = Metal>>(
        self,
        core_config: CoreConfig,
    ) -> Result<E, MetalError> {
        let (metal, palcode_image, _warnings) = self.build()?;
        let mut engine = E::new(core_config, metal);
        let had_image = !palcode_image.is_empty();
        for (base, bytes) in palcode_image {
            engine
                .state_mut()
                .bus
                .ram
                .load(base, &bytes)
                .map_err(|_| MetalError::PalcodeImage { base })?;
        }
        if had_image {
            // The image went in behind the bus's back; drop any decoded
            // state so fetches re-read it.
            engine.state_mut().invalidate_decode_cache();
        }
        Ok(engine)
    }

    /// Builds a complete pipelined core with the Metal extension
    /// attached (and the PALcode image, if any, loaded into RAM).
    pub fn build_core(self, core_config: CoreConfig) -> Result<Core<Metal>, MetalError> {
        self.build_engine(core_config)
    }
}

impl Default for MetalBuilder {
    fn default() -> MetalBuilder {
        MetalBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_installs() {
        let (metal, image, warnings) = MetalBuilder::new()
            .routine(0, "nopr", "mexit")
            .routine(5, "bump", "addi a0, a0, 1\n mexit")
            .delegate_exception(TrapCause::Ecall, 0)
            .delegate_interrupt(1, 5)
            .build()
            .unwrap();
        assert!(image.is_empty(), "MRAM dispatch has no RAM image");
        assert!(warnings.is_empty(), "{warnings:?}");
        assert!(metal.mram.entry(0).is_some());
        assert!(metal.mram.entry(5).is_some());
        assert_eq!(metal.layers[0].delegation.lookup(TrapCause::Ecall), Some(0));
        assert_eq!(
            metal.layers[0].delegation.lookup(TrapCause::Interrupt(1)),
            Some(5)
        );
    }

    #[test]
    fn verification_failure_names_routine() {
        let err = MetalBuilder::new()
            .routine(0, "bad", "ecall\n mexit")
            .build()
            .unwrap_err();
        match err {
            MetalError::Verify {
                routine,
                diagnostics,
            } => {
                assert_eq!(routine, "bad");
                assert!(!diagnostics.is_empty());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn assembly_failure_names_routine() {
        let err = MetalBuilder::new()
            .routine(0, "syntax", "frobnicate a0\n")
            .build()
            .unwrap_err();
        assert!(matches!(err, MetalError::Assemble { ref routine, .. } if routine == "syntax"));
    }

    #[test]
    fn palcode_build_produces_image() {
        let (metal, image, _) = MetalBuilder::new()
            .palcode(0x10_0000)
            .routine(0, "nopr", "mexit")
            .build()
            .unwrap();
        assert_eq!(image.len(), 1);
        assert_eq!(image[0].0, 0x10_0000);
        assert_eq!(metal.entry_pc(0), Some(0x10_0000));
    }

    #[test]
    fn lint_clean_gate_rejects_oob_store() {
        // The default verifier lets a statically-OOB mst through (it
        // faults at runtime); the opt-in lint gate refuses the install.
        let src = "li t0, 4096\n mst a0, 0(t0)\n mexit";
        assert!(MetalBuilder::new().routine(0, "oob", src).build().is_ok());
        let err = MetalBuilder::new()
            .require_lint_clean()
            .routine(0, "oob", src)
            .build()
            .unwrap_err();
        match err {
            MetalError::Verify {
                routine,
                diagnostics,
            } => {
                assert_eq!(routine, "oob");
                assert!(diagnostics
                    .iter()
                    .any(|d| d.message.contains("data segment")));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn lint_clean_gate_accepts_clean_routine() {
        let core = MetalBuilder::new()
            .require_lint_clean()
            .routine(0, "bump", "addi a0, a0, 1\n mexit")
            .build_core(CoreConfig::default())
            .unwrap();
        assert!(core.hooks.mram.entry(0).is_some());
    }

    #[test]
    fn warnings_surface() {
        let (_, _, warnings) = MetalBuilder::new()
            .routine(0, "noexit", "addi a0, a0, 1")
            .build()
            .unwrap();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].1.message.contains("never returns"));
    }

    #[test]
    fn verify_error_display_names_routine_pc_and_message() {
        let err = MetalBuilder::new()
            .routine(0, "bad", "nop\n ecall\n mexit")
            .build()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "mroutine \"bad\" failed verification; bad: error[privilege]: \
             environment instruction Ecall is not allowed in an mroutine (pc 0xfff00004)"
        );
    }

    /// The install-time check set over `words` at `base`, on the default
    /// MRAM geometry.
    fn verify(words: &[u32], base: u32, nested_allowed: bool) -> Vec<Diagnostic> {
        lint_words(
            words,
            &LintConfig {
                nested_allowed,
                checks: CheckSet::install(),
                ..LintConfig::mroutine(base)
            },
        )
    }

    fn verify_src(src: &str) -> Vec<Diagnostic> {
        let base = 0xFFF0_0100;
        verify(&assemble_at(src, base).unwrap(), base, false)
    }

    #[test]
    fn clean_routine_passes() {
        let diags = verify_src("rmr t0, m0\n addi t0, t0, 1\n wmr m0, t0\n mexit");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn ecall_rejected() {
        let diags = verify_src("ecall\n mexit");
        assert!(has_denials(&diags));
        assert!(diags[0].message.contains("environment instruction"));
    }

    #[test]
    fn escaping_branch_rejected() {
        // A jal that targets normal memory (outside the MRAM window).
        let diags = verify_src("jal zero, . - 0x200\n mexit");
        assert!(has_denials(&diags), "{diags:?}");
    }

    #[test]
    fn internal_loop_allowed() {
        let diags = verify_src("li t0, 4\nloop: addi t0, t0, -1\n bnez t0, loop\n mexit");
        assert!(!has_denials(&diags), "{diags:?}");
    }

    #[test]
    fn missing_mexit_warns() {
        let diags = verify_src("addi t0, t0, 1");
        assert!(!has_denials(&diags));
        assert!(diags.iter().any(|d| d.message.contains("never returns")));
    }

    #[test]
    fn nested_menter_gated() {
        let base = 0xFFF0_0100;
        let words = assemble_at("menter 5\n mexit", base).unwrap();
        assert!(has_denials(&verify(&words, base, false)));
        let diags = verify(&words, base, true);
        assert!(!has_denials(&diags), "{diags:?}");
    }

    #[test]
    fn illegal_word_rejected() {
        assert!(has_denials(&verify(&[0xFFFF_FFFF], 0xFFF0_0000, false)));
    }

    #[test]
    fn full_lint_catches_oob_store() {
        let base = 0xFFF0_0100;
        let words = assemble_at("li t0, 4096\n mst a0, 0(t0)\n mexit", base).unwrap();
        let diags = lint_words(&words, &LintConfig::mroutine(base));
        assert!(has_denials(&diags), "{diags:?}");
        // The install set deliberately lets it through (runtime faults
        // instead): legacy behavior.
        assert!(!has_denials(&verify(&words, base, false)));
    }

    #[test]
    fn lint_geometry_matches_core() {
        assert_eq!(metal_lint::MRAM_BASE, crate::mram::MRAM_BASE);
        let mram = crate::mram::MramConfig::default();
        assert_eq!(metal_lint::MRAM_CODE_BYTES, mram.code_bytes);
        assert_eq!(metal_lint::MRAM_DATA_BYTES, mram.data_bytes);
    }
}

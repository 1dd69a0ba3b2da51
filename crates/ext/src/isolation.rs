//! In-process isolation with page keys (paper §3.1).
//!
//! "Applications can use multiple privilege levels internally to
//! implement in-process isolation to protect sensitive data. For
//! example, isolating sensitive cryptographic keys in OpenSSL from the
//! rest of the application. On modern processors, in-process isolation
//! usually requires a form of control flow integrity (CFI) to protect
//! the transition code. However, recent works show that CFI is
//! inherently unsafe. Metal enables developers to safely encapsulate
//! the transition code without CFI."
//!
//! The vault here is that encapsulation: a secret lives in a page tagged
//! with a page key whose permission mask is normally *zero* — no load
//! or store in the application can touch it, no matter how control flow
//! is hijacked. The only code that ever enables the key runs inside
//! non-interruptible mroutines, which disable it again before `mexit`.
//! The transition code cannot be jumped into halfway: entering an
//! mroutine is only possible through `menter`, which always starts at
//! the entry point.
//!
//! Kit state: the vault page's VA is in MRAM data word [`DATA_BASE`];
//! the key number is [`VAULT_KEY`].

use metal_core::MetalBuilder;
use metal_mem::tlb::Pte;
use metal_pipeline::Core;

/// Entry numbers for the isolation kit.
pub mod entries {
    /// Configure the vault: `a0` = vault page VA, `a1` = backing PA.
    pub const VAULT_INIT: u8 = 24;
    /// Store a secret word: `a0` = value.
    pub const VAULT_STORE: u8 = 25;
    /// Use the secret without revealing it: `a0` = message,
    /// returns `a0` = keyed digest.
    pub const VAULT_USE: u8 = 26;
}

/// Page key reserved for the vault.
pub const VAULT_KEY: u32 = 5;
/// MRAM-data word holding the vault page VA.
pub const DATA_BASE: u32 = 192;

/// Configures the vault mapping and locks the key.
#[must_use]
fn vault_init_src() -> String {
    format!(
        r"
    # vault_init(a0 = va, a1 = pa): map the vault page with the vault
    # key and revoke all key permissions.
    li t0, {base}
    mst a0, 0(t0)
    # PTE: pa | key | V|R|W.
    li t0, 0xFFFFF000
    and t1, a1, t0
    ori t1, t1, 0x7
    li t0, {keybits}
    or t1, t1, t0
    mtlbw a0, t1
    li t0, {key}
    mpkey t0, zero             # no access outside the vault mroutines
    mexit
    ",
        base = DATA_BASE,
        key = VAULT_KEY,
        keybits = VAULT_KEY << 5,
    )
}

/// Stores `a0` into the vault.
#[must_use]
fn vault_store_src() -> String {
    format!(
        r"
    li t0, {key}
    li t1, 3
    mpkey t0, t1               # enable read+write inside the mroutine
    li t0, {base}
    mld t1, 0(t0)
    sw a0, 0(t1)               # the only store that can reach the page
    li t0, {key}
    mpkey t0, zero             # lock again before returning
    li a0, 0
    mexit
    ",
        key = VAULT_KEY,
        base = DATA_BASE,
    )
}

/// Computes a keyed digest of `a0` without revealing the secret.
#[must_use]
fn vault_use_src() -> String {
    format!(
        r"
    li t0, {key}
    li t1, 1
    mpkey t0, t1               # read-only inside the mroutine
    li t0, {base}
    mld t1, 0(t0)
    lw t1, 0(t1)               # the secret
    li t0, {key}
    mpkey t0, zero
    # 'HMAC': digest = rotl(secret ^ msg, 5) ^ secret (toy, but the
    # secret never leaves the mroutine in recoverable form for the demo)
    xor a0, a0, t1
    slli t0, a0, 5
    srli a0, a0, 27
    or a0, a0, t0
    xor a0, a0, t1
    mexit
    ",
        key = VAULT_KEY,
        base = DATA_BASE,
    )
}

/// Installs the isolation kit.
#[must_use]
pub fn install(builder: MetalBuilder) -> MetalBuilder {
    builder
        .routine(entries::VAULT_INIT, "vault_init", &vault_init_src())
        .routine(entries::VAULT_STORE, "vault_store", &vault_store_src())
        .routine(entries::VAULT_USE, "vault_use", &vault_use_src())
}

/// The digest the vault computes, for test oracles.
#[must_use]
pub fn expected_digest(secret: u32, msg: u32) -> u32 {
    (secret ^ msg).rotate_left(5) ^ secret
}

/// Host-side helper: identity-map `pages` starting at VA 0 so a guest
/// can run under `SoftTlb` with the vault page protected.
pub fn identity_map_code(core: &mut Core<metal_core::Metal>, pages: u32) {
    for i in 0..pages {
        let addr = i * 0x1000;
        core.state.tlb.install(
            addr,
            Pte::new(addr, Pte::V | Pte::R | Pte::W | Pte::X | Pte::G),
            0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_guest;
    use metal_pipeline::state::{CoreConfig, TranslationMode};
    use metal_pipeline::{HaltReason, TrapCause};

    const VAULT_VA: u32 = 0x0080_0000;
    const VAULT_PA: u32 = 0x4_0000;

    fn core() -> Core<metal_core::Metal> {
        let mut core = install(MetalBuilder::new())
            .build_core(CoreConfig {
                tlb: metal_mem::TlbConfig { entries: 64 },
                ..CoreConfig::default()
            })
            .unwrap();
        identity_map_code(&mut core, 32);
        core.state.translation = TranslationMode::SoftTlb;
        core
    }

    fn init_prologue() -> String {
        format!("li a0, {VAULT_VA:#x}\n li a1, {VAULT_PA:#x}\n menter 24\n")
    }

    #[test]
    fn secret_usable_but_not_readable() {
        let mut core = core();
        let src = format!(
            r"
            {init}
            li a0, 0x5EC0         # store the secret
            menter 25
            li a0, 0x1234         # digest a message
            menter 26
            ebreak
            ",
            init = init_prologue()
        );
        let halt = run_guest(&mut core, &src, 100_000);
        assert_eq!(
            halt,
            Some(HaltReason::Ebreak {
                code: expected_digest(0x5EC0, 0x1234)
            })
        );
    }

    #[test]
    fn direct_read_blocked_by_key() {
        let mut core = core();
        let src = format!(
            r"
            li t0, 0x200
            csrw mtvec, t0
            {init}
            li a0, 0x5EC0
            menter 25
            li s0, {VAULT_VA:#x}
            lw a0, 0(s0)          # hijacked code tries to read the vault
            ebreak
            .org 0x200
            csrr a0, mcause
            ebreak
            ",
            init = init_prologue()
        );
        let halt = run_guest(&mut core, &src, 100_000);
        assert_eq!(
            halt,
            Some(HaltReason::Ebreak {
                code: TrapCause::LoadKeyViolation.code()
            })
        );
    }

    #[test]
    fn direct_write_blocked_by_key() {
        let mut core = core();
        let src = format!(
            r"
            li t0, 0x200
            csrw mtvec, t0
            {init}
            li s0, {VAULT_VA:#x}
            li t0, 0x666
            sw t0, 0(s0)          # overwrite attempt
            ebreak
            .org 0x200
            csrr a0, mcause
            ebreak
            ",
            init = init_prologue()
        );
        let halt = run_guest(&mut core, &src, 100_000);
        assert_eq!(
            halt,
            Some(HaltReason::Ebreak {
                code: TrapCause::StoreKeyViolation.code()
            })
        );
    }

    #[test]
    fn key_locked_again_after_vault_use() {
        let mut core = core();
        let src = format!(
            r"
            li t0, 0x200
            csrw mtvec, t0
            {init}
            li a0, 1
            menter 25
            li a0, 2
            menter 26             # key enabled and re-locked inside
            li s0, {VAULT_VA:#x}
            lw a0, 0(s0)          # still blocked afterwards
            ebreak
            .org 0x200
            csrr a0, mcause
            ebreak
            ",
            init = init_prologue()
        );
        let halt = run_guest(&mut core, &src, 100_000);
        assert_eq!(
            halt,
            Some(HaltReason::Ebreak {
                code: TrapCause::LoadKeyViolation.code()
            })
        );
    }
}

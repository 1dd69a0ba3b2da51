//! A minimal security enclave (paper §3.5).
//!
//! "Metal's flexibility in defining privilege levels enables developers
//! to implement enclave extensions. Developers create a trusted
//! execution layer that runs at a higher privilege level than the host
//! OS. After Metal loads and verifies an enclave, the enclave runs in
//! the trusted execution layer which the host OS cannot access."
//!
//! The kit implements the SGX-shaped lifecycle in mroutines:
//!
//! * **create** measures the enclave region (a simple rolling checksum
//!   over its words — the stand-in for a cryptographic hash) and locks
//!   the region's page behind a page key with no permissions. From that
//!   point the host OS can neither read nor tamper with enclave memory.
//! * **enter** unlocks the key, records the caller, and transfers to
//!   the enclave's entry point; the enclave runs as ordinary code but
//!   is the only code that can touch its pages.
//! * **exit** re-locks the key and returns to the recorded caller.
//! * **measure** re-computes the measurement for attestation.
//!
//! Kit state (MRAM data at [`DATA_BASE`]): region VA, region length,
//! measurement, caller return PC.

use metal_core::MetalBuilder;

/// Entry numbers for the enclave kit.
pub mod entries {
    /// Create: `a0` = region VA (page-aligned), `a1` = length in bytes,
    /// `a2` = backing PA; returns `a0` = measurement.
    pub const CREATE: u8 = 40;
    /// Enter: `a0` = argument passed through to the enclave.
    pub const ENTER: u8 = 41;
    /// Exit: `a0` = enclave return value, passed back to the caller.
    pub const EXIT: u8 = 42;
    /// Measure (attestation): returns `a0` = current measurement.
    pub const MEASURE: u8 = 43;
}

/// Page key reserved for enclave memory.
pub const ENCLAVE_KEY: u32 = 6;
/// MRAM-data base of the kit's state.
pub const DATA_BASE: u32 = 256;

const VA_SLOT: u32 = DATA_BASE;
const LEN_SLOT: u32 = DATA_BASE + 4;
const MEAS_SLOT: u32 = DATA_BASE + 8;
const CALLER_SLOT: u32 = DATA_BASE + 12;
const PA_SLOT: u32 = DATA_BASE + 16;

/// The measurement loop, shared by create and measure: a rolling
/// checksum `m = rotl(m, 1) ^ word` over the region (via physical
/// access, so it works regardless of the key state).
fn measure_body() -> String {
    format!(
        r"
    li t3, {pa_slot}
    mld t0, 0(t3)              # t0 = cursor (physical)
    li t3, {len_slot}
    mld t1, 0(t3)
    add t1, t1, t0             # t1 = end
    li t2, 0                   # t2 = measurement
meas_loop:
    bgeu t0, t1, meas_done
    mpld t3, t0
    slli t4, t2, 1
    srli t2, t2, 31
    or t2, t2, t4              # rotl(m, 1)
    xor t2, t2, t3
    addi t0, t0, 4
    j meas_loop
meas_done:
    ",
        pa_slot = PA_SLOT,
        len_slot = LEN_SLOT,
    )
}

/// Creates the enclave over one page.
#[must_use]
fn create_src() -> String {
    format!(
        r"
    # create(a0 = va, a1 = len, a2 = pa)
    li t3, {va_slot}
    mst a0, 0(t3)
    li t3, {len_slot}
    mst a1, 0(t3)
    li t3, {pa_slot}
    mst a2, 0(t3)
    # Map the page with the enclave key, R|W|X.
    li t3, 0xFFFFF000
    and t4, a2, t3
    ori t4, t4, 0xF            # V|R|W|X
    li t3, {keybits}
    or t4, t4, t3
    mtlbw a0, t4
    # Lock the key: the host OS cannot touch enclave memory now.
    li t3, {key}
    mpkey t3, zero
{measure}
    li t3, {meas_slot}
    mst t2, 0(t3)
    mv a0, t2
    mexit
    ",
        va_slot = VA_SLOT,
        len_slot = LEN_SLOT,
        pa_slot = PA_SLOT,
        meas_slot = MEAS_SLOT,
        key = ENCLAVE_KEY,
        keybits = ENCLAVE_KEY << 5,
        measure = measure_body(),
    )
}

/// Enters the enclave.
#[must_use]
fn enter_src() -> String {
    format!(
        r"
    # enter(a0 = argument): unlock, record caller, jump to the region.
    rmr t0, m31
    li t1, {caller_slot}
    mst t0, 0(t1)
    li t0, {key}
    li t1, 3
    mpkey t0, t1               # enclave pages now readable/writable
    li t1, {va_slot}
    mld t1, 0(t1)
    wmr m31, t1                # entry point = region start
    mexit
    ",
        caller_slot = CALLER_SLOT,
        key = ENCLAVE_KEY,
        va_slot = VA_SLOT,
    )
}

/// Exits the enclave.
#[must_use]
fn exit_src() -> String {
    format!(
        r"
    # exit(a0 = return value): re-lock and return to the caller.
    li t0, {key}
    mpkey t0, zero
    li t1, {caller_slot}
    mld t1, 0(t1)
    wmr m31, t1
    mexit
    ",
        key = ENCLAVE_KEY,
        caller_slot = CALLER_SLOT,
    )
}

/// Recomputes the measurement (attestation).
#[must_use]
fn measure_src() -> String {
    format!("{}\n    mv a0, t2\n    mexit", measure_body())
}

/// Installs the enclave kit.
#[must_use]
pub fn install(builder: MetalBuilder) -> MetalBuilder {
    builder
        .routine(entries::CREATE, "enclave_create", &create_src())
        .routine(entries::ENTER, "enclave_enter", &enter_src())
        .routine(entries::EXIT, "enclave_exit", &exit_src())
        .routine(entries::MEASURE, "enclave_measure", &measure_src())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_guest;
    use metal_mem::tlb::Pte;
    use metal_pipeline::state::{CoreConfig, TranslationMode};
    use metal_pipeline::{Core, Engine, HaltReason, TrapCause};

    /// Host-side oracle for the measurement.
    fn expected_measurement(words: &[u32]) -> u32 {
        words.iter().fold(0u32, |m, &w| m.rotate_left(1) ^ w)
    }

    /// Enclave page: VA == PA for simplicity.
    const ENC_PAGE: u32 = 0x0060_0000 & 0xFFFFF000;
    const ENC_PA: u32 = 0x6_0000;

    fn core_with_enclave(enclave_asm: &str) -> Core<metal_core::Metal> {
        let mut core = install(MetalBuilder::new())
            .build_core(CoreConfig {
                ram_bytes: 8 << 20,
                tlb: metal_mem::TlbConfig { entries: 64 },
                ..CoreConfig::default()
            })
            .unwrap();
        // Identity map the OS code pages, globally.
        for i in 0..32 {
            let addr = i * 0x1000;
            core.state.tlb.install(
                addr,
                Pte::new(addr, Pte::V | Pte::R | Pte::W | Pte::X | Pte::G),
                0,
            );
        }
        core.state.translation = TranslationMode::SoftTlb;
        // Load the enclave image at its physical backing.
        let bytes = metal_asm::assemble_image(enclave_asm, ENC_PAGE).unwrap();
        core.state.bus.ram.load(ENC_PA, &bytes).unwrap();
        core
    }

    /// An enclave that adds 100 to its argument and exits. The enclave
    /// page is executable only through the key, so entering it via the
    /// kit works while a direct OS jump faults.
    const ENCLAVE: &str = r"
        addi a0, a0, 100
        menter 42          # enclave exit
    ";

    fn create_prologue() -> String {
        format!("li a0, {ENC_PAGE:#x}\n li a1, 4096\n li a2, {ENC_PA:#x}\n menter 40\n")
    }

    #[test]
    fn enclave_runs_and_returns() {
        let mut core = core_with_enclave(ENCLAVE);
        let src = format!(
            r"
            {create}
            li a0, 5
            menter 41          # enter
            ebreak             # a0 = 105
            ",
            create = create_prologue()
        );
        let halt = run_guest(&mut core, &src, 200_000);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 105 }));
    }

    #[test]
    fn os_cannot_read_enclave_memory() {
        let mut core = core_with_enclave(ENCLAVE);
        let src = format!(
            r"
            li t0, 0x200
            csrw mtvec, t0
            {create}
            li s0, {ENC_PAGE:#x}
            lw a0, 0(s0)       # OS snooping attempt
            ebreak
            .org 0x200
            csrr a0, mcause
            ebreak
            ",
            create = create_prologue()
        );
        let halt = run_guest(&mut core, &src, 200_000);
        assert_eq!(
            halt,
            Some(HaltReason::Ebreak {
                code: TrapCause::LoadKeyViolation.code()
            })
        );
    }

    #[test]
    fn measurement_matches_oracle_and_detects_tamper() {
        let mut core = core_with_enclave(ENCLAVE);
        let words = metal_asm::assemble_at(ENCLAVE, ENC_PAGE).unwrap();
        let mut padded = words.clone();
        padded.resize(1024, 0); // 4096-byte region measured in full
        let expected = expected_measurement(&padded);
        let src = format!(
            r"
            {create}
            mv s1, a0          # measurement from create
            menter 43          # measure again
            bne a0, s1, fail
            ebreak             # a0 = measurement
        fail:
            li a0, 1
            ebreak
            ",
            create = create_prologue()
        );
        let halt = run_guest(&mut core, &src, 2_000_000);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: expected }));
    }

    #[test]
    fn tamper_changes_measurement() {
        let mut core = core_with_enclave(ENCLAVE);
        let src = format!(
            r"
            {create}
            ebreak             # a0 = measurement at create time
            ",
            create = create_prologue()
        );
        let halt = run_guest(&mut core, &src, 2_000_000);
        let Some(HaltReason::Ebreak { code: original }) = halt else {
            panic!("unexpected halt {halt:?}");
        };
        // Host-level tamper (e.g. malicious DMA bypassing the key).
        core.state
            .bus
            .ram
            .write_u32(ENC_PA + 64, 0xBAD0_C0DE)
            .unwrap();
        let src2 = "menter 43\n ebreak";
        let binary = crate::machine::assemble_guest(src2).unwrap();
        core.state.halted = None;
        binary.load_into(&mut core);
        let halt2 = core.run(2_000_000);
        let Some(HaltReason::Ebreak { code: after }) = halt2 else {
            panic!("unexpected halt {halt2:?}");
        };
        assert_ne!(original, after, "attestation must detect the tamper");
    }
}

//! The mini kernel: syscall table, console output, and boot code.
//!
//! A small operating system written in guest assembly, protected by the
//! [`crate::privilege`] kit rather than by a hardware privilege mode —
//! the point of paper §3.1. Users enter with `menter KENTER` (syscall
//! number in `a0`, argument in `a1`); the kernel returns with
//! `menter KEXIT`. The syscall table's order numbers the syscalls:
//! 0 writes the byte in `a1` to the console, 1 returns the process ID
//! (always 1), 2 yields (a no-op), and 3 exits with code `a1`.

use crate::machine::layout;
use crate::privilege;
use metal_core::MetalBuilder;

/// Marker exit code the kernel uses for privilege violations.
pub const VIOLATION_EXIT: u32 = 0xFFF;

/// Builds the full system source: boot code, syscall table, kernel
/// handlers, and the caller-provided user program (which must define
/// `user_main:` and runs at ring 1).
#[must_use]
pub fn system_source(user_src: &str) -> String {
    format!(
        r"
_start:
        li sp, {kstack:#x}
        la a0, kfault
        menter {set_violation}          # register the violation handler
        la ra, user_main
        menter {kexit}                  # drop to ring 1 and start the user

        # ---- syscall table ----
        .org {table:#x}
        .word sys_putc
        .word sys_getpid
        .word sys_yield
        .word sys_exit

        # ---- kernel text ----
        .org {kernel:#x}
sys_putc:
        li t2, 0xF0000000
        sw a1, 0(t2)
        li a0, 0
        menter {kexit}
sys_getpid:
        li a0, 1
        menter {kexit}
sys_yield:
        li a0, 0
        menter {kexit}
sys_exit:
        mv a0, a1
        ebreak
kfault:
        li a0, {violation:#x}
        ebreak

        # ---- user program ----
        .org {user_base:#x}
{user_src}
        ",
        kstack = layout::KERNEL_STACK_TOP,
        set_violation = privilege::entries::SET_VIOLATION,
        kexit = privilege::entries::KEXIT,
        table = layout::SYSCALL_TABLE,
        kernel = layout::KERNEL_BASE,
        violation = VIOLATION_EXIT,
        user_base = layout::KERNEL_BASE + 0x1000,
    )
}

/// A builder with the privilege kit installed (the kernel's mroutines).
#[must_use]
pub fn builder() -> MetalBuilder {
    privilege::install(MetalBuilder::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_guest;
    use metal_mem::devices::{map, Console};
    use metal_pipeline::state::CoreConfig;
    use metal_pipeline::HaltReason;

    fn boot(user_src: &str) -> (Option<HaltReason>, Vec<u8>, metal_core::MetalStats) {
        let mut core = builder().build_core(CoreConfig::default()).unwrap();
        let (console, out) = Console::new();
        core.state
            .bus
            .attach(map::CONSOLE_BASE, map::WINDOW_LEN, Box::new(console));
        let halt = run_guest(&mut core, &system_source(user_src), 1_000_000);
        let bytes = out.lock().clone();
        (halt, bytes, core.hooks.stats)
    }

    #[test]
    fn hello_via_syscalls() {
        let user = r"
user_main:
        li a1, 'H'
        li a0, 0
        menter 0            # putc
        li a1, 'i'
        li a0, 0
        menter 0
        li a0, 1
        menter 0            # getpid
        mv a1, a0
        li a0, 3
        menter 0            # exit(pid)
        ";
        let (halt, console, stats) = boot(user);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 1 }));
        assert_eq!(console, b"Hi");
        // boot set_violation + boot kexit (2), two putc and one getpid
        // kenter+kexit pairs (6), and the exit kenter (1).
        assert_eq!(stats.menters, 9);
    }

    #[test]
    fn user_cannot_fake_kexit() {
        let user = r"
user_main:
        la ra, target
        menter 1            # kexit from ring 1: violation
target:
        li a1, 0
        li a0, 3
        menter 0
        ";
        let (halt, _, _) = boot(user);
        assert_eq!(
            halt,
            Some(HaltReason::Ebreak {
                code: VIOLATION_EXIT
            })
        );
    }

    #[test]
    fn exit_code_propagates() {
        let user = r"
user_main:
        li a1, 42
        li a0, 3
        menter 0            # exit(42)
        ";
        let (halt, _, _) = boot(user);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 42 }));
    }
}

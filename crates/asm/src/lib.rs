//! Two-pass assembler for mcode and guest programs.
//!
//! Metal's programming interface, *mcode*, "consists of the host
//! processor's native assembly plus several Metal specific instructions"
//! (paper §2). This crate assembles that language: the RV32IM-compatible
//! base ISA, the Metal extension mnemonics, the usual pseudo-instructions
//! (`li`, `la`, `j`, `call`, `ret`, …), labels, expressions with
//! `%hi`/`%lo`, and data directives.
//!
//! # Examples
//!
//! ```
//! use metal_asm::assemble_at;
//!
//! let words = assemble_at(
//!     r#"
//!     start:
//!         li   a0, 40
//!         addi a0, a0, 2
//!         j    start
//!     "#,
//!     0x1000,
//! )
//! .unwrap();
//! assert_eq!(words.len(), 3);
//! ```

pub mod assemble;
pub(crate) mod expr;
pub(crate) mod lexer;
pub(crate) mod parser;

pub use assemble::{assemble, assemble_at, Assembled, Options, Segment, SourceSpan};

use core::fmt;

/// An assembly error with source-line context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line number.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl AsmError {
    pub(crate) fn new(line: usize, msg: impl Into<String>) -> AsmError {
        AsmError {
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

//! Argument-parsing and printing helpers shared by the command-line
//! tools, so number syntax, usage/exit conventions and the handling of
//! a closed stdout stay identical across tools.

use std::process::ExitCode;

/// Parses a decimal or `0x`-prefixed hexadecimal number.
#[must_use]
pub fn parse_num(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// [`parse_num`] narrowed to `u32` (rejects out-of-range values rather
/// than truncating).
#[must_use]
pub fn parse_u32(s: &str) -> Option<u32> {
    parse_num(s).and_then(|v| u32::try_from(v).ok())
}

/// `println!` that drops the line on a write error (a closed pipe, as
/// in `mfuzz … | head -1`) instead of panicking, so a tool's output
/// ends quietly and its exit code stays the one it earned.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// Prints a `tool: message` error line and returns the failure exit
/// code — the standard way for the CLI tools to reject bad input
/// without panicking.
#[must_use]
pub fn fail(tool: &str, message: &str) -> ExitCode {
    eprintln!("{tool}: {message}");
    ExitCode::FAILURE
}

/// Prints the standard usage/exit combination: an optional error line
/// (`tool: error`), the usage line, and the conventional exit code —
/// success for `-h`-style calls (empty error), failure otherwise.
#[must_use]
pub fn usage(tool: &str, usage_line: &str, err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("{tool}: {err}");
    }
    eprintln!("usage: {usage_line}");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_syntax() {
        assert_eq!(parse_num("42"), Some(42));
        assert_eq!(parse_num("0x10"), Some(16));
        assert_eq!(
            parse_num("0xFFFF_FFFF".replace('_', "").as_str()),
            Some(0xFFFF_FFFF)
        );
        assert_eq!(parse_num("nope"), None);
        assert_eq!(parse_num("0xZZ"), None);
    }

    #[test]
    fn u32_narrowing() {
        assert_eq!(parse_u32("0xFFFFFFFF"), Some(u32::MAX));
        assert_eq!(parse_u32("0x1FFFFFFFF"), None);
    }
}

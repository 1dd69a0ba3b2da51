//! Constant-expression parsing and evaluation.
//!
//! Expressions appear in immediates, directives, and `li`/`la` operands:
//! integers, symbols, `.` (the current location counter), parentheses,
//! unary `-`/`~`, binary `+ - * / & | ^ << >>`, and the `%hi`/`%lo`
//! relocation operators.

use crate::lexer::Token;
use crate::AsmError;

/// Symbol-resolution context for expression evaluation.
pub trait SymEnv {
    /// Value of a symbol, or `None` if (not yet) defined.
    fn lookup(&self, name: &str) -> Option<i64>;
    /// The current location counter (address of the statement).
    fn dot(&self) -> i64;
}

/// Evaluates an expression starting at `toks[pos]`.
///
/// Returns the value and the index of the first token *after* the
/// expression.
pub fn eval(
    toks: &[Token],
    pos: usize,
    env: &dyn SymEnv,
    lineno: usize,
) -> Result<(i64, usize), AsmError> {
    parse_binary(toks, pos, env, lineno, 0)
}

/// Operator precedence levels, loosest first.
const LEVELS: &[&[BinOp]] = &[
    &[BinOp::Or],
    &[BinOp::Xor],
    &[BinOp::And],
    &[BinOp::Shl, BinOp::Shr],
    &[BinOp::Add, BinOp::Sub],
    &[BinOp::Mul, BinOp::Div],
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum BinOp {
    Or,
    Xor,
    And,
    Shl,
    Shr,
    Add,
    Sub,
    Mul,
    Div,
}

/// Tries to match a binary operator at `toks[pos]`; returns (op, next pos).
fn match_op(toks: &[Token], pos: usize) -> Option<(BinOp, usize)> {
    match toks.get(pos)? {
        Token::Punct('|') => Some((BinOp::Or, pos + 1)),
        Token::Punct('^') => Some((BinOp::Xor, pos + 1)),
        Token::Punct('&') => Some((BinOp::And, pos + 1)),
        Token::Punct('<') if toks.get(pos + 1) == Some(&Token::Punct('<')) => {
            Some((BinOp::Shl, pos + 2))
        }
        Token::Punct('>') if toks.get(pos + 1) == Some(&Token::Punct('>')) => {
            Some((BinOp::Shr, pos + 2))
        }
        Token::Punct('+') => Some((BinOp::Add, pos + 1)),
        Token::Punct('-') => Some((BinOp::Sub, pos + 1)),
        Token::Punct('*') => Some((BinOp::Mul, pos + 1)),
        Token::Punct('/') => Some((BinOp::Div, pos + 1)),
        _ => None,
    }
}

fn parse_binary(
    toks: &[Token],
    pos: usize,
    env: &dyn SymEnv,
    lineno: usize,
    level: usize,
) -> Result<(i64, usize), AsmError> {
    if level >= LEVELS.len() {
        return parse_unary(toks, pos, env, lineno);
    }
    let (mut lhs, mut pos) = parse_binary(toks, pos, env, lineno, level + 1)?;
    while let Some((op, next)) = match_op(toks, pos) {
        if !LEVELS[level].contains(&op) {
            break;
        }
        let (rhs, after) = parse_binary(toks, next, env, lineno, level + 1)?;
        lhs = apply(op, lhs, rhs, lineno)?;
        pos = after;
    }
    Ok((lhs, pos))
}

fn apply(op: BinOp, a: i64, b: i64, lineno: usize) -> Result<i64, AsmError> {
    Ok(match op {
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::And => a & b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Shr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(AsmError::new(lineno, "division by zero in expression"));
            }
            a / b
        }
    })
}

fn parse_unary(
    toks: &[Token],
    pos: usize,
    env: &dyn SymEnv,
    lineno: usize,
) -> Result<(i64, usize), AsmError> {
    match toks.get(pos) {
        Some(Token::Punct('-')) => {
            let (v, next) = parse_unary(toks, pos + 1, env, lineno)?;
            Ok((v.wrapping_neg(), next))
        }
        Some(Token::Punct('~')) => {
            let (v, next) = parse_unary(toks, pos + 1, env, lineno)?;
            Ok((!v, next))
        }
        Some(Token::Punct('+')) => parse_unary(toks, pos + 1, env, lineno),
        _ => parse_primary(toks, pos, env, lineno),
    }
}

fn parse_primary(
    toks: &[Token],
    pos: usize,
    env: &dyn SymEnv,
    lineno: usize,
) -> Result<(i64, usize), AsmError> {
    match toks.get(pos) {
        Some(Token::Int(v)) => Ok((*v, pos + 1)),
        Some(Token::Ident(name)) if name == "." => Ok((env.dot(), pos + 1)),
        Some(Token::Ident(name)) => match env.lookup(name) {
            Some(v) => Ok((v, pos + 1)),
            None => Err(AsmError::new(lineno, format!("undefined symbol {name:?}"))),
        },
        Some(Token::Punct('(')) => {
            let (v, next) = eval(toks, pos + 1, env, lineno)?;
            if toks.get(next) != Some(&Token::Punct(')')) {
                return Err(AsmError::new(lineno, "missing ')' in expression"));
            }
            Ok((v, next + 1))
        }
        Some(Token::Percent(kind)) => {
            if toks.get(pos + 1) != Some(&Token::Punct('(')) {
                return Err(AsmError::new(lineno, format!("%{kind} requires '('")));
            }
            let (v, next) = eval(toks, pos + 2, env, lineno)?;
            if toks.get(next) != Some(&Token::Punct(')')) {
                return Err(AsmError::new(lineno, "missing ')' in expression"));
            }
            let v = v as i32;
            let out = match kind.as_str() {
                // %hi compensates for the sign extension of the matching %lo.
                "hi" => i64::from((v.wrapping_add(0x800) as u32) >> 12),
                "lo" => i64::from((v << 20) >> 20),
                other => return Err(AsmError::new(lineno, format!("unknown operator %{other}"))),
            };
            Ok((out, next + 1))
        }
        other => Err(AsmError::new(
            lineno,
            format!("expected expression, found {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tests::tokenize_line;
    use std::collections::HashMap;

    struct Env {
        syms: HashMap<String, i64>,
        dot: i64,
    }

    impl SymEnv for Env {
        fn lookup(&self, name: &str) -> Option<i64> {
            self.syms.get(name).copied()
        }
        fn dot(&self) -> i64 {
            self.dot
        }
    }

    fn ev(src: &str) -> i64 {
        let mut syms = HashMap::new();
        syms.insert("sym".to_owned(), 0x1234_5678i64);
        syms.insert("two".to_owned(), 2);
        let env = Env { syms, dot: 0x100 };
        let toks = tokenize_line(src, 1).unwrap();
        let (v, next) = eval(&toks, 0, &env, 1).unwrap();
        assert_eq!(next, toks.len(), "trailing tokens in {src:?}");
        v
    }

    #[test]
    fn precedence() {
        assert_eq!(ev("1 + 2 * 3"), 7);
        assert_eq!(ev("(1 + 2) * 3"), 9);
        assert_eq!(ev("1 << 4 + 1"), 1 << 5, "shift binds looser than +");
        assert_eq!(ev("0xF0 | 0x0F & 0x3"), 0xF3);
        assert_eq!(ev("6 / two"), 3);
    }

    #[test]
    fn unary() {
        assert_eq!(ev("-4"), -4);
        assert_eq!(ev("~0"), -1);
        assert_eq!(ev("- - 5"), 5);
        assert_eq!(ev("10 - -3"), 13);
    }

    #[test]
    fn dot_and_symbols() {
        assert_eq!(ev("."), 0x100);
        assert_eq!(ev(". + 8"), 0x108);
        assert_eq!(ev("sym"), 0x1234_5678);
    }

    #[test]
    fn hi_lo_recombine() {
        // For any value: (%hi(v) << 12) + sext(%lo(v)) == v.
        for v in [0x1234_5678i64, 0x0000_0800, 0xFFFF_F800u32 as i64, 0, -1] {
            let mut syms = HashMap::new();
            syms.insert("v".to_owned(), v);
            let env = Env { syms, dot: 0 };
            let hi = eval(&tokenize_line("%hi(v)", 1).unwrap(), 0, &env, 1)
                .unwrap()
                .0;
            let lo = eval(&tokenize_line("%lo(v)", 1).unwrap(), 0, &env, 1)
                .unwrap()
                .0;
            let recombined = ((hi as u32) << 12).wrapping_add(lo as u32);
            assert_eq!(recombined, v as u32, "v = {v:#x}");
        }
    }

    #[test]
    fn errors() {
        let env = Env {
            syms: HashMap::new(),
            dot: 0,
        };
        let toks = tokenize_line("missing", 3).unwrap();
        let err = eval(&toks, 0, &env, 3).unwrap_err();
        assert!(err.msg.contains("undefined symbol"));
        let toks = tokenize_line("1 / 0", 1).unwrap();
        assert!(eval(&toks, 0, &env, 1).is_err());
        let toks = tokenize_line("(1", 1).unwrap();
        assert!(eval(&toks, 0, &env, 1).is_err());
    }
}

//! Line-oriented tokenizer for the assembler.

use crate::AsmError;

/// One token of an assembly source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token {
    /// Identifier, mnemonic, register name, or directive (starts with `.`).
    Ident(String),
    /// Integer literal (always non-negative; `-` is an operator token).
    Int(i64),
    /// String literal (quotes removed, escapes applied).
    Str(String),
    /// `%hi` / `%lo` relocation operator.
    Percent(String),
    /// Single punctuation or operator: `, ( ) : + - * / & | ^ ~ < > =`.
    /// Shift operators are delivered as two consecutive `<`/`>` tokens.
    Punct(char),
}

/// Tokenizes a single source line, with the 1-based starting column of
/// each token so diagnostics can point into the source line rather than
/// just at it. Comments (`#`, `;`, `//`) terminate the line.
pub fn tokenize_line_cols(line: &str, lineno: usize) -> Result<(Vec<Token>, Vec<usize>), AsmError> {
    let mut out = Vec::new();
    let mut cols = Vec::new();
    let bytes: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let col = i + 1;
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '#' | ';' => break,
            '/' if bytes.get(i + 1) == Some(&'/') => break,
            '"' => {
                let (s, next) = lex_string(&bytes, i + 1, lineno)?;
                out.push(Token::Str(s));
                cols.push(col);
                i = next;
            }
            '\'' => {
                let (s, next) = lex_char(&bytes, i + 1, lineno)?;
                out.push(Token::Int(s));
                cols.push(col);
                i = next;
            }
            '%' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                if j == start {
                    return Err(AsmError::new(lineno, "dangling '%'"));
                }
                out.push(Token::Percent(bytes[start..j].iter().collect()));
                cols.push(col);
                i = j;
            }
            '0'..='9' => {
                let (v, next) = lex_number(&bytes, i, lineno)?;
                out.push(Token::Int(v));
                cols.push(col);
                i = next;
            }
            c if c.is_alphabetic() || c == '_' || c == '.' => {
                let mut j = i + 1;
                while j < bytes.len()
                    && (bytes[j].is_alphanumeric() || bytes[j] == '_' || bytes[j] == '.')
                {
                    j += 1;
                }
                out.push(Token::Ident(bytes[i..j].iter().collect()));
                cols.push(col);
                i = j;
            }
            ',' | '(' | ')' | ':' | '+' | '-' | '*' | '/' | '&' | '|' | '^' | '~' | '<' | '>'
            | '=' => {
                out.push(Token::Punct(c));
                cols.push(col);
                i += 1;
            }
            other => {
                return Err(AsmError::new(
                    lineno,
                    format!("unexpected character {other:?}"),
                ))
            }
        }
    }
    Ok((out, cols))
}

fn lex_number(chars: &[char], start: usize, lineno: usize) -> Result<(i64, usize), AsmError> {
    let mut i = start;
    let (radix, digits_start) = if chars[i] == '0' && matches!(chars.get(i + 1), Some('x' | 'X')) {
        (16, i + 2)
    } else if chars[i] == '0' && matches!(chars.get(i + 1), Some('b' | 'B')) {
        (2, i + 2)
    } else {
        (10, i)
    };
    i = digits_start;
    let mut text = String::new();
    while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
        if chars[i] != '_' {
            text.push(chars[i]);
        }
        i += 1;
    }
    if text.is_empty() {
        return Err(AsmError::new(lineno, "malformed number"));
    }
    let value = i64::from_str_radix(&text, radix)
        .map_err(|_| AsmError::new(lineno, format!("malformed number {text:?}")))?;
    Ok((value, i))
}

fn lex_string(chars: &[char], start: usize, lineno: usize) -> Result<(String, usize), AsmError> {
    let mut out = String::new();
    let mut i = start;
    while i < chars.len() {
        match chars[i] {
            '"' => return Ok((out, i + 1)),
            '\\' => {
                let (c, next) = lex_escape(chars, i + 1, lineno)?;
                out.push(c);
                i = next;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    Err(AsmError::new(lineno, "unterminated string literal"))
}

fn lex_char(chars: &[char], start: usize, lineno: usize) -> Result<(i64, usize), AsmError> {
    let (c, next) = match chars.get(start) {
        Some('\\') => lex_escape(chars, start + 1, lineno)?,
        Some(&c) => (c, start + 1),
        None => return Err(AsmError::new(lineno, "unterminated char literal")),
    };
    if chars.get(next) != Some(&'\'') {
        return Err(AsmError::new(lineno, "unterminated char literal"));
    }
    Ok((c as i64, next + 1))
}

fn lex_escape(chars: &[char], i: usize, lineno: usize) -> Result<(char, usize), AsmError> {
    match chars.get(i) {
        Some('n') => Ok(('\n', i + 1)),
        Some('t') => Ok(('\t', i + 1)),
        Some('r') => Ok(('\r', i + 1)),
        Some('0') => Ok(('\0', i + 1)),
        Some('\\') => Ok(('\\', i + 1)),
        Some('"') => Ok(('"', i + 1)),
        Some('\'') => Ok(('\'', i + 1)),
        Some(c) => Err(AsmError::new(lineno, format!("unknown escape \\{c}"))),
        None => Err(AsmError::new(lineno, "dangling backslash")),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The tokens of one line, without their columns.
    pub(crate) fn tokenize_line(line: &str, lineno: usize) -> Result<Vec<Token>, AsmError> {
        tokenize_line_cols(line, lineno).map(|(toks, _)| toks)
    }

    #[test]
    fn tokenize_instruction() {
        let toks = tokenize_line("  addi a0, a1, -4 # comment", 1).unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("addi".into()),
                Token::Ident("a0".into()),
                Token::Punct(','),
                Token::Ident("a1".into()),
                Token::Punct(','),
                Token::Punct('-'),
                Token::Int(4),
            ]
        );
    }

    #[test]
    fn tokenize_numbers() {
        let toks = tokenize_line("0x10 0b101 42 1_000", 1).unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(16),
                Token::Int(5),
                Token::Int(42),
                Token::Int(1000)
            ]
        );
    }

    #[test]
    fn tokenize_label_and_directive() {
        let toks = tokenize_line("loop: .word 1, 2", 1).unwrap();
        assert_eq!(toks[0], Token::Ident("loop".into()));
        assert_eq!(toks[1], Token::Punct(':'));
        assert_eq!(toks[2], Token::Ident(".word".into()));
    }

    #[test]
    fn tokenize_string_escapes() {
        let toks = tokenize_line(r#".asciz "hi\n\t\"q\"""#, 1).unwrap();
        assert_eq!(toks[1], Token::Str("hi\n\t\"q\"".into()));
    }

    #[test]
    fn tokenize_char_literal() {
        let toks = tokenize_line("li a0, 'A'", 1).unwrap();
        assert_eq!(toks.last(), Some(&Token::Int(65)));
    }

    #[test]
    fn tokenize_percent() {
        let toks = tokenize_line("lui a0, %hi(sym)", 1).unwrap();
        assert!(toks.contains(&Token::Percent("hi".into())));
    }

    #[test]
    fn comment_styles() {
        for line in ["nop # x", "nop ; x", "nop // x"] {
            let toks = tokenize_line(line, 1).unwrap();
            assert_eq!(toks, vec![Token::Ident("nop".into())], "{line}");
        }
    }

    #[test]
    fn errors_carry_line() {
        let err = tokenize_line("`", 7).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(tokenize_line("\"abc", 1).is_err());
        assert!(tokenize_line("0x", 1).is_err());
    }
}

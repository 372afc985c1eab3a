//! A small recursive-descent parser for polynomial expressions.
//!
//! The grammar is the subset of arithmetic expressions the paper's examples
//! use (Maple-style input without the assignment syntax):
//!
//! ```text
//! expr    := term (('+' | '-') term)*
//! term    := factor (('*' | '/') factor)*     // '/' only by constants
//! factor  := base ('^' integer)?
//! base    := number | identifier | '(' expr ')' | '-' factor
//! ```
//!
//! Products are expanded, so the parsed [`Poly`] is in canonical form.

use symmap_numeric::Rational;

use crate::error::AlgebraError;
use crate::poly::Poly;
use crate::var::Var;

/// Parses a polynomial expression; see the module documentation for the grammar.
///
/// # Errors
///
/// Returns [`AlgebraError::Parse`] for malformed input and
/// [`AlgebraError::NotPolynomial`] for division by a non-constant.
pub fn parse_polynomial(input: &str) -> Result<Poly, AlgebraError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        input,
        tokens,
        pos: 0,
    };
    let poly = parser.expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.error("unexpected trailing input"));
    }
    Ok(poly)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Number(Rational),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    LParen,
    RParen,
}

fn tokenize(input: &str) -> Result<Vec<Token>, AlgebraError> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '^' => {
                tokens.push(Token::Caret);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                let lit = &input[start..i];
                let value: Rational = lit.parse().map_err(|e| AlgebraError::Parse {
                    input: input.to_string(),
                    message: format!("bad number `{lit}`: {e}"),
                })?;
                tokens.push(Token::Number(value));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(AlgebraError::Parse {
                    input: input.to_string(),
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(tokens)
}

struct Parser<'a> {
    input: &'a str,
    tokens: Vec<Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> AlgebraError {
        AlgebraError::Parse {
            input: self.input.to_string(),
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expr(&mut self) -> Result<Poly, AlgebraError> {
        let mut acc = self.term()?;
        while let Some(tok) = self.peek() {
            match tok {
                Token::Plus => {
                    self.bump();
                    acc = acc.add(&self.term()?);
                }
                Token::Minus => {
                    self.bump();
                    acc = acc.sub(&self.term()?);
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn term(&mut self) -> Result<Poly, AlgebraError> {
        let mut acc = self.factor()?;
        while let Some(tok) = self.peek() {
            match tok {
                Token::Star => {
                    self.bump();
                    acc = acc.try_mul(&self.factor()?)?;
                }
                Token::Slash => {
                    self.bump();
                    let divisor = self.factor()?;
                    match divisor.as_constant() {
                        Some(c) if !c.is_zero() => {
                            acc = acc.scale(&c.recip()?);
                        }
                        Some(_) => {
                            return Err(AlgebraError::Numeric(
                                symmap_numeric::NumericError::DivisionByZero,
                            ))
                        }
                        None => {
                            return Err(AlgebraError::NotPolynomial(format!(
                                "division by non-constant `{divisor}`"
                            )))
                        }
                    }
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn factor(&mut self) -> Result<Poly, AlgebraError> {
        let base = self.base()?;
        if let Some(Token::Caret) = self.peek() {
            self.bump();
            match self.bump() {
                Some(Token::Number(n)) if n.is_integer() && !n.is_negative() => {
                    let exp = n.numer().to_i64().map_err(AlgebraError::from)?;
                    if exp > u32::MAX as i64 {
                        return Err(AlgebraError::ExponentTooLarge(exp as u64));
                    }
                    return base.pow(exp as u32);
                }
                _ => return Err(self.error("exponent must be a non-negative integer")),
            }
        }
        Ok(base)
    }

    fn base(&mut self) -> Result<Poly, AlgebraError> {
        match self.bump() {
            Some(Token::Number(n)) => Ok(Poly::constant(n)),
            Some(Token::Ident(name)) => Ok(Poly::var(Var::new(&name))),
            Some(Token::LParen) => {
                let inner = self.expr()?;
                match self.bump() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(self.error("expected closing parenthesis")),
                }
            }
            Some(Token::Minus) => Ok(self.factor()?.neg()),
            Some(Token::Plus) => self.factor(),
            _ => Err(self.error("expected a number, variable or parenthesized expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflowing_product_is_an_error_not_a_panic() {
        // `e` is x^(2^30): three factors still fit u32, the fourth does not.
        let e = "((((x^64)^64)^64)^64)^64";
        let three = parse_polynomial(&format!("{e}*{e}*{e}")).unwrap();
        assert_eq!(three.total_degree(), 3 << 30);
        assert_eq!(
            parse_polynomial(&format!("{e}*{e}*{e}*{e}")),
            Err(AlgebraError::DegreeOverflow)
        );
    }

    #[test]
    fn overflowing_total_degree_is_an_error_not_a_panic() {
        // Each variable's exponent fits u32 (3·2^30 for x, 2^30 for y), but
        // the fourth factor takes the total degree to 2^32.
        let e = "((((x^64)^64)^64)^64)^64";
        let f = "((((y^64)^64)^64)^64)^64";
        assert_eq!(
            parse_polynomial(&format!("{e}*{e}*{e}*{f}*{f}*{f}")),
            Err(AlgebraError::DegreeOverflow)
        );
        let three = parse_polynomial(&format!("{e}*{e}*{e}")).unwrap();
        let four = parse_polynomial(&format!("{e}*{e}*{e}*{f}"));
        assert_eq!(four, Err(AlgebraError::DegreeOverflow));
        assert_eq!(three.total_degree(), 3 << 30);
        // A power whose per-variable exponents fit u32 (2^31 each) but
        // whose total degree (2^32) does not.
        let xy = "(((((x*y)^64)^64)^64)^64)^64";
        assert_eq!(
            parse_polynomial(&format!("({xy})^2")),
            Err(AlgebraError::DegreeOverflow)
        );
        assert_eq!(parse_polynomial(xy).unwrap().total_degree(), 1 << 31);
    }

    #[test]
    fn parses_simple_sums_and_products() {
        assert_eq!(parse_polynomial("x + 1").unwrap().num_terms(), 2);
        assert_eq!(parse_polynomial("x*y*z").unwrap().total_degree(), 3);
        assert_eq!(parse_polynomial("2 + 3").unwrap(), Poly::integer(5));
    }

    #[test]
    fn parses_powers_and_parentheses() {
        let p = parse_polynomial("(x + y)^2").unwrap();
        assert_eq!(p, parse_polynomial("x^2 + 2*x*y + y^2").unwrap());
        let q = parse_polynomial("x^2*(x^14 + x^15 + 1)").unwrap();
        assert_eq!(q, parse_polynomial("x^16 + x^17 + x^2").unwrap());
    }

    #[test]
    fn parses_unary_minus_and_rationals() {
        assert_eq!(
            parse_polynomial("-x").unwrap(),
            Poly::var(Var::new("x")).neg()
        );
        assert_eq!(
            parse_polynomial("-(x - 1)").unwrap(),
            parse_polynomial("1 - x").unwrap()
        );
        assert_eq!(
            parse_polynomial("x/2 + 0.25").unwrap(),
            parse_polynomial("2*x/4 + 1/4").unwrap()
        );
        assert_eq!(parse_polynomial("+x").unwrap(), Poly::var(Var::new("x")));
    }

    #[test]
    fn division_by_constant_only() {
        assert!(parse_polynomial("x / y").is_err());
        assert!(parse_polynomial("x / 0").is_err());
        assert_eq!(
            parse_polynomial("(4*x + 2)/2").unwrap(),
            parse_polynomial("2*x + 1").unwrap()
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_polynomial("x +").is_err());
        assert!(parse_polynomial("(x").is_err());
        assert!(parse_polynomial("x^y").is_err());
        assert!(parse_polynomial("x^(-2)").is_err());
        assert!(parse_polynomial("x $ y").is_err());
        assert!(parse_polynomial("x 3").is_err());
        assert!(parse_polynomial("").is_err());
    }

    #[test]
    fn identifiers_with_underscores_and_digits() {
        let p = parse_polynomial("y_0 + y_1*cos_1").unwrap();
        assert_eq!(p.vars().len(), 3);
    }

    #[test]
    fn implicit_whitespace_handling() {
        assert_eq!(
            parse_polynomial("  x ^ 2\t+ 2 * x + 1 ").unwrap(),
            parse_polynomial("(x+1)^2").unwrap()
        );
    }
}

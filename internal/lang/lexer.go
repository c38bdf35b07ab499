package lang

import (
	"fmt"
	"strconv"
)

// Lexer tokenizes a source string. Comments run from '#' to end of line.
// Newlines are significant (they terminate statements).
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

var keywords = map[string]TokKind{
	"for":     TokFor,
	"do":      TokFor, // Fortran flavour
	"to":      TokTo,
	"step":    TokStep,
	"end":     TokEnd,
	"endfor":  TokEnd,
	"read":    TokRead,
	"program": TokProgram,
}

func (l *Lexer) peekByte() (byte, bool) {
	if l.off >= len(l.src) {
		return 0, false
	}
	return l.src[l.off], true
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// Next returns the next token. Consecutive newlines are folded into one.
func (l *Lexer) Next() (Token, error) {
	for {
		c, ok := l.peekByte()
		if !ok {
			return Token{Kind: TokEOF, Pos: l.pos()}, nil
		}
		switch {
		case c == '#':
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.advance()
			}
		case c == ' ' || c == '\t' || c == '\r':
			l.advance()
		case c == '\n':
			pos := l.pos()
			for {
				c, ok := l.peekByte()
				if !ok {
					break
				}
				if c == '\n' || c == ' ' || c == '\t' || c == '\r' {
					l.advance()
					continue
				}
				if c == '#' {
					for {
						c, ok := l.peekByte()
						if !ok || c == '\n' {
							break
						}
						l.advance()
					}
					continue
				}
				break
			}
			return Token{Kind: TokNewline, Text: "\\n", Pos: pos}, nil
		default:
			return l.lexToken()
		}
	}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) lexToken() (Token, error) {
	pos := l.pos()
	c, _ := l.peekByte()
	switch {
	case isDigit(c):
		start := l.off
		for {
			c, ok := l.peekByte()
			if !ok || !isDigit(c) {
				break
			}
			l.advance()
		}
		text := l.src[start:l.off]
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Token{}, fmt.Errorf("%s: bad number %q: %v", pos, text, err)
		}
		return Token{Kind: TokNumber, Text: text, Num: n, Pos: pos}, nil
	case isAlpha(c):
		start := l.off
		for {
			c, ok := l.peekByte()
			if !ok || (!isAlpha(c) && !isDigit(c)) {
				break
			}
			l.advance()
		}
		text := l.src[start:l.off]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Pos: pos}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: pos}, nil
	}
	l.advance()
	simple := map[byte]TokKind{
		'=': TokAssign, '+': TokPlus, '-': TokMinus, '*': TokStar,
		'(': TokLParen, ')': TokRParen, '[': TokLBracket, ']': TokRBracket,
		',': TokComma,
	}
	if k, ok := simple[c]; ok {
		return Token{Kind: k, Text: string(c), Pos: pos}, nil
	}
	return Token{}, fmt.Errorf("%s: unexpected character %q", pos, string(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

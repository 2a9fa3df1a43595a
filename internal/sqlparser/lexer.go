// Package sqlparser implements the SQL frontend shared by the per-DBMS
// engines and the XDB middleware: a hand-written lexer and a recursive
// descent parser producing the AST consumed by the local planners and by
// XDB's cross-database optimizer.
//
// The grammar covers the dialect family used throughout the reproduction:
// SELECT (projections with expressions, CASE, EXTRACT, aggregates, BETWEEN,
// IN, LIKE, IS NULL), comma joins and JOIN ... ON, GROUP BY / HAVING /
// ORDER BY / LIMIT, and the DDL the delegation engine emits (CREATE VIEW,
// CREATE [FOREIGN] TABLE, CREATE TABLE AS, CREATE SERVER, DROP, INSERT,
// EXPLAIN). Identifier quoting accepts both "pg-style" double quotes and
// "maria-style" backticks so that each vendor dialect parses.
package sqlparser

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokString
	tokNumber
	tokOp     // operators and punctuation
	tokQIdent // quoted identifier
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; idents keep original case
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string '%s'", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "AS": true, "AND": true,
	"OR": true, "NOT": true, "IN": true, "BETWEEN": true, "LIKE": true,
	"IS": true, "NULL": true, "TRUE": true, "FALSE": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "JOIN": true,
	"INNER": true, "LEFT": true, "ON": true, "ASC": true, "DESC": true,
	"DISTINCT": true, "CREATE": true, "DROP": true, "TABLE": true,
	"VIEW": true, "FOREIGN": true, "SERVER": true, "OPTIONS": true,
	"DATA": true, "WRAPPER": true, "IF": true, "EXISTS": true,
	"INSERT": true, "INTO": true, "VALUES": true, "EXPLAIN": true,
	"DATE": true, "INTERVAL": true, "EXTRACT": true, "YEAR": true,
	"MONTH": true, "DAY": true, "SUBSTRING": true, "FOR": true,
	"ENGINE": true, "CONNECTION": true, "EXTERNAL": true, "STORED": true,
	"TBLPROPERTIES": true, "REPLACE": true, "CAST": true,
	"ALL": true, "ANALYZE": true, "VERBOSE": true, "UNION": true,
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errorf(pos int, format string, args ...any) error {
	line, col := 1, 1
	for i := 0; i < pos && i < len(l.src); i++ {
		if l.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("sql:%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, pos: l.pos}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		upper := strings.ToUpper(word)
		if keywords[upper] {
			return token{kind: tokKeyword, text: upper, pos: start}, nil
		}
		return token{kind: tokIdent, text: word, pos: start}, nil

	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if isDigit(ch) {
				l.pos++
				continue
			}
			if ch == '.' && !seenDot && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
				seenDot = true
				l.pos++
				continue
			}
			break
		}
		// An exponent, as a float renders beyond 1e21 or below 1e-4.
		if e := l.pos; e < len(l.src) && (l.src[e] == 'e' || l.src[e] == 'E') {
			e++
			if e < len(l.src) && (l.src[e] == '+' || l.src[e] == '-') {
				e++
			}
			if e < len(l.src) && isDigit(l.src[e]) {
				for l.pos = e; l.pos < len(l.src) && isDigit(l.src[l.pos]); l.pos++ {
				}
			}
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil

	case c == '\'':
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errorf(start, "unterminated string literal")
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: b.String(), pos: start}, nil
			}
			b.WriteByte(ch)
			l.pos++
		}

	case c == '"' || c == '`':
		quote := c
		l.pos++
		qs := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, l.errorf(start, "unterminated quoted identifier")
		}
		text := l.src[qs:l.pos]
		l.pos++
		// Quoting lets a keyword name a relation or column; the name itself
		// must still be an identifier, so every name renders unquoted or
		// quoted back to the same token.
		if !isIdent(text) {
			return token{}, l.errorf(start, "quoted identifier %q is not an identifier", text)
		}
		return token{kind: tokQIdent, text: text, pos: start}, nil

	default:
		// Multi-char operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<=", ">=", "<>", "!=", "||":
			l.pos += 2
			return token{kind: tokOp, text: two, pos: start}, nil
		}
		switch c {
		case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', '.', ';', '%':
			l.pos++
			return token{kind: tokOp, text: string(c), pos: start}, nil
		}
		return token{}, l.errorf(start, "unexpected character %q", string(c))
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '$' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isIdent reports whether s lexes as one identifier or keyword.
func isIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return false
		}
	}
	return true
}

// isKeyword reports whether an identifier spells a keyword, in any case.
func isKeyword(s string) bool {
	var buf [16]byte
	if len(s) > len(buf) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(s)])]
}

// lexAll tokenizes the whole input; used by the parser which needs one
// token of lookahead.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

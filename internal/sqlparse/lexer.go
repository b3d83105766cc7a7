// Package sqlparse implements a lexer, parser and renderer for the analytic
// SQL subset that CliffGuard's workloads use: single-block SELECT queries
// with optional joins, conjunctive WHERE predicates, GROUP BY, ORDER BY and
// LIMIT. Parsing resolves column references against a schema.Schema and
// produces a workload.Query (clause column sets + execution Spec), which is
// the representation every other component consumes.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators: ( ) , * = < > <= >= . ;
	tokKeyword
)

// keywords are the keyword spellings, none longer than 8 bytes. keyword
// returns these constants, so a keyword token's text is always one of them
// whatever the case it was written in.
var keywords = [...]string{
	"SELECT", "FROM", "WHERE", "GROUP", "ORDER",
	"BY", "AND", "OR", "JOIN", "INNER",
	"LEFT", "ON", "AS", "ASC", "DESC",
	"LIMIT", "BETWEEN", "IN", "COUNT", "SUM",
	"AVG", "MIN", "MAX", "DISTINCT", "NOT",
}

// keywordKeys packs each keyword's bytes into a uint64, big-endian. No
// identifier byte is 0, so words of different lengths never share a key.
var keywordKeys = func() (keys [len(keywords)]uint64) {
	for i, kw := range keywords {
		for j := 0; j < len(kw); j++ {
			keys[i] = keys[i]<<8 | uint64(kw[j])
		}
	}
	return keys
}()

// keyword returns the upper-case keyword word spells in any ASCII case, or
// "" when word is not a keyword. It folds word into a packed key and does
// not allocate. A word with a byte at or above 0x80 is not a keyword: the
// only runes that strings.ToUpper maps to ASCII are U+0131 and U+017F,
// whose second UTF-8 bytes (0xB1, 0xBF) are not identifier bytes, and
// invalid UTF-8 upper-cases to U+FFFD.
func keyword(word string) string {
	if len(word) > 8 {
		return ""
	}
	var key uint64
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 0x80 {
			return ""
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		key = key<<8 | uint64(c)
	}
	for i, k := range keywordKeys {
		if k == key {
			return keywords[i]
		}
	}
	return ""
}

// Byte classes: byteClass[c] is classLetter for '_' and for every byte c
// with unicode.IsLetter(rune(c)) (ASCII letters and the Latin-1 letters,
// the lexer reading one byte as one rune), classDigit for '0'-'9', and
// classSymbol for the one-byte symbols. An identifier starts with a letter
// and continues with letters and digits.
const (
	classLetter = 1 << iota
	classDigit
	classSymbol
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c == '_' || unicode.IsLetter(rune(c)):
			t[c] = classLetter
		case '0' <= c && c <= '9':
			t[c] = classDigit
		case strings.IndexByte("(),*=.;", byte(c)) >= 0:
			t[c] = classSymbol
		}
	}
	return t
}()

type token struct {
	kind tokenKind
	text string // keywords upper-cased; identifiers as written
	pos  int    // byte offset in the input
}

// lexError reports a lexical error with its position.
type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string { return fmt.Sprintf("sqlparse: at offset %d: %s", e.pos, e.msg) }

// lex tokenizes the input into a fresh slice (the schema DDL parser's entry
// point).
func lex(input string) ([]token, error) { return lexInto(nil, input) }

// lexInto tokenizes the input, appending to dst[:0], and returns the grown
// slice: a Parser passes its buffer back in so a warm lexer allocates
// nothing. Every token's text is a substring of the input except a keyword's
// (one of the keywords constants) and a string literal with an escaped
// quote (one fresh string). On error it returns the emptied buffer with
// the error, so the caller keeps it. It is strict: unknown bytes are errors.
func lexInto(dst []token, input string) ([]token, error) {
	toks := dst[:0]
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case byteClass[c]&classLetter != 0:
			start := i
			for i < n && byteClass[input[i]]&(classLetter|classDigit) != 0 {
				i++
			}
			word := input[start:i]
			if kw := keyword(word); kw != "" {
				toks = append(toks, token{tokKeyword, kw, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case c >= '0' && c <= '9' || (c == '-' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9' && startsValue(toks)):
			start := i
			if c == '-' {
				i++
			}
			seenDot := false
			for i < n && (input[i] >= '0' && input[i] <= '9' || (input[i] == '.' && !seenDot && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9')) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			run := i       // start of the literal's current quote-free run
			var esc []byte // the text before run, once an escaped quote is seen
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						esc = append(esc, input[run:i+1]...)
						i += 2
						run = i
						continue
					}
					closed = true
					break
				}
				i++
			}
			if !closed {
				return toks[:0], &lexError{start, "unterminated string literal"}
			}
			text := input[run:i]
			if esc != nil {
				text = string(append(esc, text...))
			}
			i++ // the closing quote
			toks = append(toks, token{tokString, text, start})
		case c == '<' || c == '>':
			if i+1 < n && (input[i+1] == '=' || c == '<' && input[i+1] == '>') {
				toks = append(toks, token{tokSymbol, input[i : i+2], i})
				i += 2
			} else {
				toks = append(toks, token{tokSymbol, input[i : i+1], i})
				i++
			}
		case c == '!' && i+1 < n && input[i+1] == '=':
			toks = append(toks, token{tokSymbol, input[i : i+2], i})
			i += 2
		case byteClass[c]&classSymbol != 0:
			toks = append(toks, token{tokSymbol, input[i : i+1], i})
			i++
		default:
			return toks[:0], &lexError{i, fmt.Sprintf("unexpected character %q", rune(c))}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

// startsValue reports whether a '-' at the current position begins a negative
// numeric literal rather than an operator, based on the previous token.
func startsValue(toks []token) bool {
	if len(toks) == 0 {
		return true
	}
	last := toks[len(toks)-1]
	switch last.kind {
	case tokSymbol:
		return last.text != ")" && last.text != "*"
	case tokKeyword:
		return true
	default:
		return false
	}
}

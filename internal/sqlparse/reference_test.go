package sqlparse

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"unicode"

	"cliffguard/internal/schema"
)

// This file keeps the lexer and the default value coder that predate the
// allocation-free ones, verbatim but for their names, as the oracle for
// them: FuzzParse requires lexInto to produce referenceLex's tokens and
// error text, and defaultCoder.Code to return referenceCode's value, on
// every input.

var referenceKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "ORDER": true,
	"BY": true, "AND": true, "OR": true, "JOIN": true, "INNER": true,
	"LEFT": true, "ON": true, "AS": true, "ASC": true, "DESC": true,
	"LIMIT": true, "BETWEEN": true, "IN": true, "COUNT": true, "SUM": true,
	"AVG": true, "MIN": true, "MAX": true, "DISTINCT": true, "NOT": true,
}

// referenceLex tokenizes the input. It is strict: unknown bytes are errors.
func referenceLex(input string) ([]token, error) {
	var toks []token
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
		case referenceIsIdentStart(c):
			start := i
			for i < n && referenceIsIdentCont(input[i]) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if referenceKeywords[upper] {
				toks = append(toks, token{tokKeyword, upper, start})
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
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, &lexError{start, "unterminated string literal"}
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case c == '<' || c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokSymbol, input[i : i+2], i})
				i += 2
			} else if c == '<' && i+1 < n && input[i+1] == '>' {
				toks = append(toks, token{tokSymbol, "<>", i})
				i += 2
			} else {
				toks = append(toks, token{tokSymbol, string(c), i})
				i++
			}
		case c == '!' && i+1 < n && input[i+1] == '=':
			toks = append(toks, token{tokSymbol, "!=", i})
			i += 2
		case strings.IndexByte("(),*=.;", c) >= 0:
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		default:
			return nil, &lexError{i, fmt.Sprintf("unexpected character %q", rune(c))}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func referenceIsIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func referenceIsIdentCont(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || c >= '0' && c <= '9'
}

// referenceCode is the default coder's Code over hash/fnv.
func referenceCode(col schema.Column, literal string) int64 {
	if strings.HasPrefix(literal, "v") {
		if k, err := strconv.ParseInt(literal[1:], 10, 64); err == nil {
			return k
		}
	}
	h := fnv.New64a()
	h.Write([]byte(literal))
	card := col.Cardinality
	if card <= 0 {
		card = 1
	}
	return int64(h.Sum64() % uint64(card))
}

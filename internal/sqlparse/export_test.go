package sqlparse

// Lexer runs lexInto over one reused token buffer, for the external test
// package's allocation gate.
type Lexer struct{ toks []token }

// Lex tokenizes sql into the lexer's buffer.
func (l *Lexer) Lex(sql string) error {
	var err error
	l.toks, err = lexInto(l.toks, sql)
	return err
}

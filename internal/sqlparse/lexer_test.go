package sqlparse

import (
	"testing"
)

func kinds(toks []token) []tokenKind {
	out := make([]tokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, b FROM t WHERE x >= 10")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind tokenKind
		text string
	}{
		{tokKeyword, "SELECT"}, {tokIdent, "a"}, {tokSymbol, ","},
		{tokIdent, "b"}, {tokKeyword, "FROM"}, {tokIdent, "t"},
		{tokKeyword, "WHERE"}, {tokIdent, "x"}, {tokSymbol, ">="},
		{tokNumber, "10"}, {tokEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].kind != w.kind || toks[i].text != w.text {
			t.Errorf("token %d = {%d %q}, want {%d %q}", i, toks[i].kind, toks[i].text, w.kind, w.text)
		}
	}
}

func TestLexOperators(t *testing.T) {
	cases := map[string]string{
		"a < 1":  "<",
		"a > 1":  ">",
		"a <= 1": "<=",
		"a >= 1": ">=",
		"a <> 1": "<>",
		"a != 1": "!=",
		"a = 1":  "=",
	}
	for sql, op := range cases {
		toks, err := lex(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if toks[1].kind != tokSymbol || toks[1].text != op {
			t.Errorf("%q: operator token = %q", sql, toks[1].text)
		}
		// The literal after the operator must still lex.
		if toks[2].kind != tokNumber {
			t.Errorf("%q: expected number after operator, got %v", sql, toks[2])
		}
	}
}

func TestLexCaseInsensitiveKeywords(t *testing.T) {
	toks, err := lex("select A From t")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokKeyword || toks[0].text != "SELECT" {
		t.Error("lowercase keyword not recognized")
	}
	if toks[2].kind != tokKeyword || toks[2].text != "FROM" {
		t.Error("mixed-case keyword not recognized")
	}
	// Identifiers keep their case.
	if toks[1].text != "A" {
		t.Error("identifier case not preserved")
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := lex("SELECT a FROM t WHERE x = -5 AND y = 3.25")
	if err != nil {
		t.Fatal(err)
	}
	var nums []string
	for _, tok := range toks {
		if tok.kind == tokNumber {
			nums = append(nums, tok.text)
		}
	}
	if len(nums) != 2 || nums[0] != "-5" || nums[1] != "3.25" {
		t.Errorf("numbers = %v", nums)
	}
}

func TestLexStrings(t *testing.T) {
	toks, err := lex("WHERE s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks {
		if tok.kind == tokString {
			found = true
			if tok.text != "it's" {
				t.Errorf("escaped string = %q", tok.text)
			}
		}
	}
	if !found {
		t.Fatal("no string token")
	}
	if _, err := lex("WHERE s = 'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lex("SELECT a -- comment with 'junk' <>\nFROM t")
	if err != nil {
		t.Fatal(err)
	}
	got := kinds(toks)
	if len(got) != 5 { // SELECT a FROM t EOF
		t.Errorf("comment not skipped: %v", toks)
	}
}

func TestLexUnknownByte(t *testing.T) {
	if _, err := lex("SELECT a # b"); err == nil {
		t.Error("unknown byte should fail")
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lex("SELECT abc")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].pos != 0 || toks[1].pos != 7 {
		t.Errorf("positions = %d, %d", toks[0].pos, toks[1].pos)
	}
}

// TestByteClassMatchesIsLetter: the byte-class table classifies every byte
// exactly as the unicode.IsLetter tests it replaced.
func TestByteClassMatchesIsLetter(t *testing.T) {
	for c := 0; c < 256; c++ {
		b := byte(c)
		if start := byteClass[b]&classLetter != 0; start != referenceIsIdentStart(b) {
			t.Errorf("byte %#x: starts an identifier = %v, reference %v", c, start, referenceIsIdentStart(b))
		}
		if cont := byteClass[b]&(classLetter|classDigit) != 0; cont != referenceIsIdentCont(b) {
			t.Errorf("byte %#x: continues an identifier = %v, reference %v", c, cont, referenceIsIdentCont(b))
		}
	}
}

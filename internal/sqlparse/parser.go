package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// ValueCoder maps string literals to the int64 value space of a column. The
// synthetic engines store dictionary-coded strings whose dictionary entries
// are "v<k>"; the default coder inverts that encoding and hashes anything
// else into the column's cardinality range.
type ValueCoder interface {
	Code(col schema.Column, literal string) int64
}

type defaultCoder struct{}

func (defaultCoder) Code(col schema.Column, literal string) int64 {
	if strings.HasPrefix(literal, "v") {
		if k, err := strconv.ParseInt(literal[1:], 10, 64); err == nil {
			return k
		}
	}
	// 64-bit FNV-1a, as hash/fnv's New64a computes it, without the hasher
	// and the []byte copy.
	h := uint64(14695981039346656037)
	for i := 0; i < len(literal); i++ {
		h ^= uint64(literal[i])
		h *= 1099511628211
	}
	card := col.Cardinality
	if card <= 0 {
		card = 1
	}
	return int64(h % uint64(card))
}

// Parser parses SQL text against a schema. It keeps scratch buffers from one
// Parse to the next (tokens, the select list, the table scope and the
// Spec's slices), so a long-lived Parser allocates little more than the
// returned query; the query shares none of that scratch. A Parser is not
// safe for concurrent use: give each goroutine its own.
type Parser struct {
	Schema *schema.Schema
	Coder  ValueCoder

	toks  []token
	pos   int
	sql   string
	items []selectItem
	scope tableScope
	// spec and joins collect the Spec's slices; the returned Spec gets
	// exact-size copies.
	spec  workload.Spec
	joins []workload.Pred
}

// selectItem is one raw select-list entry, held until FROM is parsed and
// its columns can be resolved.
type selectItem struct {
	star      bool
	agg       string // "" for a bare column
	aggStar   bool   // COUNT(*)
	qualifier string
	name      string
}

// NewParser returns a parser bound to the schema with the default value coder.
func NewParser(s *schema.Schema) *Parser {
	return &Parser{Schema: s, Coder: defaultCoder{}}
}

// ParseError reports a syntactic or resolution error with its token position.
type ParseError struct {
	Pos int
	Msg string
	SQL string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sqlparse: at offset %d: %s", e.Pos, e.Msg)
}

// Parse parses one SELECT statement and returns the resolved query. The
// returned query has ID/Timestamp unset; callers stamp them.
func (p *Parser) Parse(sql string) (*workload.Query, error) {
	toks, err := lexInto(p.toks, sql)
	p.toks, p.pos, p.sql = toks, 0, sql
	if err != nil {
		return nil, err
	}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	q.SQL = sql
	return q, nil
}

// ParseAt is Parse plus stamping the query's ID and timestamp.
func (p *Parser) ParseAt(sql string, id int64, ts time.Time) (*workload.Query, error) {
	q, err := p.Parse(sql)
	if err != nil {
		return nil, err
	}
	q.ID, q.Timestamp = id, ts
	return q, nil
}

func (p *Parser) peek() token { return p.toks[p.pos] }
func (p *Parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) errf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.peek().pos, Msg: fmt.Sprintf(format, args...), SQL: p.sql}
}

func (p *Parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokKeyword || t.text != kw {
		return p.errf("expected %s, found %q", kw, t.text)
	}
	p.next()
	return nil
}

func (p *Parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == kw {
		p.next()
		return true
	}
	return false
}

func (p *Parser) acceptSymbol(sym string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == sym {
		p.next()
		return true
	}
	return false
}

// tableScope tracks FROM/JOIN tables and per-query aliases for resolution.
// A Parser reuses one across statements; reset empties it.
type tableScope struct {
	schema  *schema.Schema
	tables  []*schema.Table // in FROM order; tables[0] is the anchor
	aliases []tableAlias    // in declaration order; a later alias shadows
}

type tableAlias struct {
	alias string
	table *schema.Table
}

func (sc *tableScope) reset(s *schema.Schema) {
	sc.schema, sc.tables, sc.aliases = s, sc.tables[:0], sc.aliases[:0]
}

func (sc *tableScope) addTable(name, alias string) error {
	t, ok := sc.schema.Table(name)
	if !ok {
		return fmt.Errorf("unknown table %q", name)
	}
	sc.tables = append(sc.tables, t)
	if alias != "" {
		sc.aliases = append(sc.aliases, tableAlias{alias, t})
	}
	return nil
}

// resolve maps a possibly qualified column reference to a global column ID.
// A qualifier that is no alias names a table directly, in scope or not.
func (sc *tableScope) resolve(qualifier, name string) (int, error) {
	if qualifier != "" {
		table := qualifier
		for i := len(sc.aliases) - 1; i >= 0; i-- {
			if sc.aliases[i].alias == qualifier {
				table = sc.aliases[i].table.Name
				break
			}
		}
		return sc.schema.ResolveIn(table, name)
	}
	// Bare name: search the in-scope tables; must be unambiguous among them.
	found := -1
	for _, t := range sc.tables {
		if c, ok := t.Column(name); ok {
			if found >= 0 && found != c.ID {
				return 0, fmt.Errorf("ambiguous column %q", name)
			}
			found = c.ID
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("unknown column %q", name)
	}
	return found, nil
}

func (p *Parser) parseSelect() (*workload.Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	p.acceptKeyword("DISTINCT") // tolerated; no execution effect in the simulators

	// The select list references columns we cannot resolve until FROM is
	// parsed, so collect raw items first.
	p.items = p.items[:0]
	for {
		t := p.peek()
		switch {
		case t.kind == tokSymbol && t.text == "*":
			p.next()
			p.items = append(p.items, selectItem{star: true})
		case t.kind == tokKeyword && isAggKeyword(t.text):
			fn := t.text
			p.next()
			if !p.acceptSymbol("(") {
				return nil, p.errf("expected ( after %s", fn)
			}
			if p.acceptSymbol("*") {
				if fn != "COUNT" {
					return nil, p.errf("%s(*) is not valid", fn)
				}
				p.items = append(p.items, selectItem{agg: fn, aggStar: true})
			} else {
				p.acceptKeyword("DISTINCT")
				qual, name, err := p.parseColumnRef()
				if err != nil {
					return nil, err
				}
				p.items = append(p.items, selectItem{agg: fn, qualifier: qual, name: name})
			}
			if !p.acceptSymbol(")") {
				return nil, p.errf("expected ) to close %s", fn)
			}
			p.skipAlias()
		case t.kind == tokIdent:
			qual, name, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			p.items = append(p.items, selectItem{qualifier: qual, name: name})
			p.skipAlias()
		default:
			return nil, p.errf("expected select item, found %q", t.text)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	sc := &p.scope
	sc.reset(p.Schema)
	name, alias, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	if err := sc.addTable(name, alias); err != nil {
		return nil, p.errf("%v", err)
	}

	ss := &p.spec
	*ss = workload.Spec{SelectCols: ss.SelectCols[:0], Aggs: ss.Aggs[:0],
		Preds: ss.Preds[:0], GroupBy: ss.GroupBy[:0], OrderBy: ss.OrderBy[:0]}
	p.joins = p.joins[:0]

	// JOIN clauses.
	for {
		if p.acceptKeyword("INNER") || p.acceptKeyword("LEFT") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		jname, jalias, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := sc.addTable(jname, jalias); err != nil {
			return nil, p.errf("%v", err)
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		lq, ln, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		if p.peek().kind != tokSymbol || p.peek().text != "=" {
			return nil, p.errf("expected = in join condition")
		}
		p.next()
		rq, rn, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		lid, err := sc.resolve(lq, ln)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		rid, err := sc.resolve(rq, rn)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		// Join keys are modeled as equality predicates with selectivity 1:
		// they determine which columns the query touches but do not filter
		// the anchor table in the simulators' single-anchor cost model.
		p.joins = append(p.joins,
			workload.Pred{Col: lid, Op: workload.Eq, Sel: 1},
			workload.Pred{Col: rid, Op: workload.Eq, Sel: 1})
	}

	// Resolve the select list now that the scope is complete.
	for _, r := range p.items {
		switch {
		case r.star:
			for _, c := range sc.tables[0].Columns {
				ss.SelectCols = append(ss.SelectCols, c.ID)
			}
		case r.agg != "" && r.aggStar:
			ss.Aggs = append(ss.Aggs, workload.Agg{Fn: workload.Count, Col: -1})
		case r.agg != "":
			id, err := sc.resolve(r.qualifier, r.name)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			ss.Aggs = append(ss.Aggs, workload.Agg{Fn: aggFn(r.agg), Col: id})
		default:
			id, err := sc.resolve(r.qualifier, r.name)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			ss.SelectCols = append(ss.SelectCols, id)
		}
	}

	// WHERE: conjunction of simple predicates. OR within the clause is
	// rejected (outside the modeled subset) with a clear error.
	if p.acceptKeyword("WHERE") {
		for {
			pred, err := p.parsePredicate(sc)
			if err != nil {
				return nil, err
			}
			ss.Preds = append(ss.Preds, pred)
			if p.acceptKeyword("AND") {
				continue
			}
			if p.peek().kind == tokKeyword && p.peek().text == "OR" {
				return nil, p.errf("OR predicates are outside the supported subset")
			}
			break
		}
	}
	ss.Preds = append(ss.Preds, p.joins...)

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			qual, name, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			id, err := sc.resolve(qual, name)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			ss.GroupBy = append(ss.GroupBy, id)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			qual, name, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			id, err := sc.resolve(qual, name)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			oc := workload.OrderCol{Col: id}
			if p.acceptKeyword("DESC") {
				oc.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			ss.OrderBy = append(ss.OrderBy, oc)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("expected number after LIMIT")
		}
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("invalid LIMIT %q", t.text)
		}
		ss.Limit = n
	}

	spec := &workload.Spec{
		Table:      sc.tables[0].Name,
		SelectCols: clone(ss.SelectCols),
		Aggs:       clone(ss.Aggs),
		Preds:      clone(ss.Preds),
		GroupBy:    clone(ss.GroupBy),
		OrderBy:    clone(ss.OrderBy),
		Limit:      ss.Limit,
	}
	return workload.FromSpec(0, time.Time{}, spec), nil
}

// clone copies a scratch slice to an exact-size one; empty stays nil, as an
// append-built Spec slice would.
func clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// parseTableRef parses "name [AS alias | alias]".
func (p *Parser) parseTableRef() (name, alias string, err error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", "", p.errf("expected table name, found %q", t.text)
	}
	p.next()
	name = t.text
	if p.acceptKeyword("AS") {
		a := p.peek()
		if a.kind != tokIdent {
			return "", "", p.errf("expected alias after AS")
		}
		p.next()
		return name, a.text, nil
	}
	if a := p.peek(); a.kind == tokIdent {
		p.next()
		return name, a.text, nil
	}
	return name, "", nil
}

// parseColumnRef parses "[qualifier.]name".
func (p *Parser) parseColumnRef() (qualifier, name string, err error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", "", p.errf("expected column reference, found %q", t.text)
	}
	p.next()
	if p.acceptSymbol(".") {
		n := p.peek()
		if n.kind != tokIdent {
			return "", "", p.errf("expected column name after %q.", t.text)
		}
		p.next()
		return t.text, n.text, nil
	}
	return "", t.text, nil
}

// skipAlias consumes an optional "[AS] alias" after a select item.
func (p *Parser) skipAlias() {
	if p.acceptKeyword("AS") {
		if p.peek().kind == tokIdent {
			p.next()
		}
		return
	}
	if t := p.peek(); t.kind == tokIdent {
		// A bare identifier after a select item is an alias only if the next
		// token would end the item (comma or FROM).
		nxt := p.toks[p.pos+1]
		if nxt.kind == tokSymbol && nxt.text == "," || nxt.kind == tokKeyword && nxt.text == "FROM" {
			p.next()
		}
	}
}

// parsePredicate parses "col op literal", "col BETWEEN a AND b", or
// "col IN (v1, ...)", resolving the column and estimating selectivity from
// the column's cardinality and the literal bounds.
func (p *Parser) parsePredicate(sc *tableScope) (workload.Pred, error) {
	qual, name, err := p.parseColumnRef()
	if err != nil {
		return workload.Pred{}, err
	}
	id, err := sc.resolve(qual, name)
	if err != nil {
		return workload.Pred{}, p.errf("%v", err)
	}
	col := p.Schema.Column(id)

	t := p.peek()
	if t.kind == tokKeyword && t.text == "BETWEEN" {
		p.next()
		lo, err := p.parseLiteral(col)
		if err != nil {
			return workload.Pred{}, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return workload.Pred{}, err
		}
		hi, err := p.parseLiteral(col)
		if err != nil {
			return workload.Pred{}, err
		}
		if hi < lo {
			lo, hi = hi, lo
		}
		return workload.Pred{Col: id, Op: workload.Between, Lo: lo, Hi: hi,
			Sel: rangeSelectivity(col, lo, hi)}, nil
	}
	if t.kind == tokKeyword && t.text == "IN" {
		p.next()
		if !p.acceptSymbol("(") {
			return workload.Pred{}, p.errf("expected ( after IN")
		}
		var lo, hi int64
		count := 0
		for {
			v, err := p.parseLiteral(col)
			if err != nil {
				return workload.Pred{}, err
			}
			if count == 0 || v < lo {
				lo = v
			}
			if count == 0 || v > hi {
				hi = v
			}
			count++
			if !p.acceptSymbol(",") {
				break
			}
		}
		if !p.acceptSymbol(")") {
			return workload.Pred{}, p.errf("expected ) to close IN list")
		}
		sel := float64(count) / float64(maxI64(col.Cardinality, 1))
		if sel > 1 {
			sel = 1
		}
		// IN is modeled as a closed range over its extremes for index/sort
		// matching; selectivity reflects the true list size.
		return workload.Pred{Col: id, Op: workload.Between, Lo: lo, Hi: hi, Sel: sel}, nil
	}
	if t.kind != tokSymbol {
		return workload.Pred{}, p.errf("expected comparison operator, found %q", t.text)
	}
	var op workload.CmpOp
	switch t.text {
	case "=":
		op = workload.Eq
	case "<":
		op = workload.Lt
	case "<=":
		op = workload.Le
	case ">":
		op = workload.Gt
	case ">=":
		op = workload.Ge
	case "<>", "!=":
		p.next()
		v, err := p.parseLiteral(col)
		if err != nil {
			return workload.Pred{}, err
		}
		// Inequality is modeled as a near-full range with complement
		// selectivity; the excluded value itself is not tracked.
		card := maxI64(col.Cardinality, 1)
		_ = v
		return workload.Pred{Col: id, Op: workload.Between, Lo: 0, Hi: card - 1,
			Sel: 1 - 1/float64(card)}, nil
	default:
		return workload.Pred{}, p.errf("unsupported operator %q", t.text)
	}
	p.next()
	v, err := p.parseLiteral(col)
	if err != nil {
		return workload.Pred{}, err
	}
	pred := workload.Pred{Col: id, Op: op, Lo: v, Hi: v}
	card := float64(maxI64(col.Cardinality, 1))
	switch op {
	case workload.Eq:
		pred.Sel = 1 / card
	case workload.Lt, workload.Le:
		pred.Sel = clamp01(float64(v) / card)
	case workload.Gt, workload.Ge:
		pred.Sel = clamp01((card - float64(v)) / card)
	}
	if pred.Sel <= 0 {
		pred.Sel = 1 / card
	}
	return pred, nil
}

// parseLiteral parses a number or string literal and codes it into the
// column's int64 value space.
func (p *Parser) parseLiteral(col schema.Column) (int64, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return 0, p.errf("invalid number %q", t.text)
			}
			return int64(f), nil
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return 0, p.errf("invalid number %q", t.text)
		}
		return v, nil
	case tokString:
		p.next()
		return p.coder().Code(col, t.text), nil
	default:
		return 0, p.errf("expected literal, found %q", t.text)
	}
}

func (p *Parser) coder() ValueCoder {
	if p.Coder != nil {
		return p.Coder
	}
	return defaultCoder{}
}

func isAggKeyword(kw string) bool {
	switch kw {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

func aggFn(kw string) workload.AggFn {
	switch kw {
	case "COUNT":
		return workload.Count
	case "SUM":
		return workload.Sum
	case "AVG":
		return workload.Avg
	case "MIN":
		return workload.Min
	case "MAX":
		return workload.Max
	}
	panic("sqlparse: not an aggregate keyword: " + kw)
}

func rangeSelectivity(col schema.Column, lo, hi int64) float64 {
	card := float64(maxI64(col.Cardinality, 1))
	sel := float64(hi-lo+1) / card
	return clamp01(sel)
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

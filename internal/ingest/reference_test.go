package ingest

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// This file keeps the line-at-a-time folder.consume that predates the
// two-stage pipeline, as the equivalence oracle for it: one goroutine, one
// heap string per line, time.Parse for every timestamp prefix. The
// differential tests and FuzzReader require the pipelined reader to match
// it item for item.

// referenceReader is Reader driven by consumeReference.
func referenceReader(s *schema.Schema, r io.Reader, opts Options) (*workload.Workload, Stats, error) {
	f := newFolder(s, opts)
	if err := f.consumeReference(r); err != nil {
		return nil, Stats{}, err
	}
	return f.finish()
}

// referenceDir is Dir driven by consumeReference.
func referenceDir(s *schema.Schema, dir string, opts Options) (*workload.Workload, Stats, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("ingest: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, Stats{}, fmt.Errorf("ingest: no log files in %s", dir)
	}
	f := newFolder(s, opts)
	for _, name := range names {
		path := filepath.Join(dir, name)
		rd, err := os.Open(path)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("ingest: %w", err)
		}
		err = f.consumeReference(rd)
		rd.Close()
		if err != nil {
			return nil, Stats{}, fmt.Errorf("ingest: %s: %w", path, err)
		}
	}
	return f.finish()
}

// refMemoGood is memoGood over a string key.
func (f *folder) refMemoGood(text string) (int, bool) {
	if f.textMemo == nil {
		return 0, false
	}
	i, ok := f.textMemo[text]
	if !ok || i < 0 {
		return 0, false
	}
	return i, true
}

// refAttempt is attempt over a string.
func (f *folder) refAttempt(text string, ts time.Time) {
	if f.textMemo != nil {
		if i, ok := f.textMemo[text]; ok {
			if i < 0 {
				f.skip()
			} else {
				f.foldHit(i)
			}
			return
		}
	}
	q, err := f.parser.Parse(text)
	if err != nil {
		f.memoizeBad(text)
		f.skip()
		return
	}
	f.adopt(q, text, ts)
}

// splitTimestamp strips the optional wlgen "RFC3339<TAB>" prefix.
func splitTimestamp(line string) (time.Time, string) {
	if i := strings.IndexByte(line, '\t'); i > 0 {
		if ts, err := time.Parse(time.RFC3339, line[:i]); err == nil {
			return ts, line[i+1:]
		}
	}
	return time.Time{}, line
}

// consumeReference streams one reader through the statement scanner, one
// line at a time on the calling goroutine.
func (f *folder) consumeReference(r io.Reader) error {
	max := f.opts.maxBytes()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), max)

	var buf []string // pending unterminated statement lines
	var bufTS time.Time
	bufBytes := 0
	flushAsSkips := func() {
		for range buf {
			f.skip()
		}
		buf, bufBytes = nil, 0
	}

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			flushAsSkips()
			continue
		}
		if strings.HasPrefix(line, "--") {
			continue
		}
		if len(line) > max {
			flushAsSkips()
			f.skip()
			continue
		}
		if len(buf) == 0 {
			ts, sql := splitTimestamp(line)
			if body, ok := strings.CutSuffix(sql, ";"); ok {
				f.refAttempt(strings.TrimSpace(body), ts)
				continue
			}
			if i, ok := f.refMemoGood(sql); ok {
				f.foldHit(i)
				continue
			}
			if q, err := f.parser.Parse(sql); err == nil {
				f.adopt(q, sql, ts)
				continue
			}
			buf = append(buf, sql)
			bufTS = ts
			bufBytes = len(sql)
			continue
		}
		if body, ok := strings.CutSuffix(line, ";"); ok {
			pending := append(buf, strings.TrimSpace(body))
			buf, bufBytes = nil, 0
			text := strings.TrimSpace(strings.Join(pending, "\n"))
			if i, ok := f.refMemoGood(text); ok {
				f.foldHit(i)
				continue
			}
			if q, err := f.parser.Parse(text); err == nil {
				f.adopt(q, text, bufTS)
				continue
			}
			f.memoizeBad(text)
			for range pending[:len(pending)-1] {
				f.skip()
			}
			ts, sql := splitTimestamp(line)
			body = strings.TrimSpace(strings.TrimSuffix(sql, ";"))
			f.refAttempt(body, ts)
			continue
		}
		ts, sql := splitTimestamp(line)
		if i, ok := f.refMemoGood(sql); ok {
			flushAsSkips()
			f.foldHit(i)
			continue
		}
		if q, err := f.parser.Parse(sql); err == nil {
			flushAsSkips()
			f.adopt(q, sql, ts)
			continue
		}
		buf = append(buf, line)
		bufBytes += len(line) + 1
		if bufBytes > max {
			flushAsSkips()
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("ingest: reading workload: %w", err)
	}
	flushAsSkips()
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/obs"
	"cliffguard/internal/serve"
	"cliffguard/internal/wlgen"
)

// TestMain runs the command itself when the test binary is started under the
// name "cliffguard" (see command), so a test can drive main end to end in a
// child process, log.Fatal exits included.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "cliffguard" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command returns an exec.Cmd running this test binary as cliffguard, through
// a symlink named after the command.
func command(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "cliffguard")
	if err := os.Symlink(exe, bin); err != nil {
		t.Fatal(err)
	}
	return exec.Command(bin, args...)
}

// writeLog writes a small generated S1 query log in the cmd/wlgen format.
func writeLog(t *testing.T) string {
	t.Helper()
	cfg := wlgen.S1Config(datagen.Warehouse(1), 5)
	cfg.Months = 2
	cfg.DriftTargets = cfg.DriftTargets[:1]
	cfg.QueriesPerWeek = 6
	set, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, q := range set.Queries {
		fmt.Fprintf(&b, "%s\t%s\n", q.Timestamp.Format(time.RFC3339), q.SQL)
	}
	path := filepath.Join(t.TempDir(), "s1.sql")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The online path honors the observability flags: it serves metrics, and
// writes an event stream and a span stream that decode.
func TestOnlineWritesObservability(t *testing.T) {
	dir := t.TempDir()
	events, spans := filepath.Join(dir, "ev.jsonl"), filepath.Join(dir, "sp.jsonl")
	cmd := command(t, "-workload", writeLog(t), "-online", "-gamma", "0.002",
		"-samples", "4", "-iterations", "2", "-parallelism", "1",
		"-metrics-addr", "127.0.0.1:0", "-events", events, "-spans", spans)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("cliffguard -online: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "metrics at http://") {
		t.Errorf("no metrics address printed:\n%s", stdout.String())
	}

	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.DecodeJSONL(f)
	if err != nil {
		t.Fatalf("decoding %s: %v", events, err)
	}
	if len(evs) == 0 {
		t.Fatal("online run wrote no events")
	}

	g, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	recs, err := obs.DecodeSpans(g)
	if err != nil {
		t.Fatalf("decoding %s: %v", spans, err)
	}
	if n := len(recs); n == 0 || recs[n-1].Kind != obs.SpanKindMetrics {
		t.Fatalf("span stream does not end in a metrics record: %d records", n)
	}
}

// The online path bounds portfolio members by -member-timeout, as the batch
// path does: with a 1ns bound every member misses its deadline, so both
// paths fail the same way instead of racing the portfolio unbounded.
func TestOnlineHonoursMemberTimeout(t *testing.T) {
	log := writeLog(t)
	for _, mode := range [][]string{nil, {"-online"}} {
		args := append([]string{"-workload", log, "-gamma", "0.002",
			"-samples", "4", "-iterations", "2", "-parallelism", "1",
			"-designers", "advisor,ilp", "-member-timeout", "1ns"}, mode...)
		var stdout, stderr bytes.Buffer
		cmd := command(t, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if err == nil || !strings.Contains(stderr.String(), "context deadline exceeded") {
			t.Fatalf("cliffguard %v: err = %v, want a member deadline failure\nstdout:\n%s\nstderr:\n%s",
				mode, err, stdout.String(), stderr.String())
		}
	}
}

// TestLoopFlagsLowerToRunRequest drives the loop-field rows that
// internal/serve's TestLoopFieldsReachEveryEntryPoint drives through the /v1
// endpoints through the CLI's flags instead: each must lower to the very
// RunRequest the row's JSON decodes to, and no flags at all to the base row.
func TestLoopFlagsLowerToRunRequest(t *testing.T) {
	raw, err := os.ReadFile("../../internal/serve/testdata/loop_fields.json")
	if err != nil {
		t.Fatal(err)
	}
	var lf struct {
		Base   map[string]any `json:"base"`
		Fields []struct {
			Field string         `json:"field"`
			Set   map[string]any `json:"set"`
			Flags []string       `json:"flags"`
		} `json:"fields"`
	}
	if err := json.Unmarshal(raw, &lf); err != nil {
		t.Fatal(err)
	}
	lower := func(args []string) serve.RunRequest {
		fs := flag.NewFlagSet("cliffguard", flag.ContinueOnError)
		loop := loopFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return loop()
	}
	decode := func(fields map[string]any) serve.RunRequest {
		body, _ := json.Marshal(fields)
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req serve.RunRequest
		if err := dec.Decode(&req); err != nil {
			t.Fatal(err)
		}
		return req
	}
	if got, want := lower(nil), decode(lf.Base); !reflect.DeepEqual(got, want) {
		t.Fatalf("CLI defaults lower to %+v, want the base row %+v", got, want)
	}
	for _, row := range lf.Fields {
		if row.Flags == nil {
			continue // no CLI flag sets this field
		}
		fields := maps.Clone(lf.Base)
		maps.Copy(fields, row.Set)
		if got, want := lower(row.Flags), decode(fields); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: flags %v lower to %+v, want %+v", row.Field, row.Flags, got, want)
		}
	}
}

// The CLI carries -member-timeout as a time.Duration and the run request as
// its string: the round trip through the request must be exact.
func TestMemberTimeoutRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, 1, 999, time.Microsecond + 1, 1500 * time.Millisecond,
		90 * time.Minute, time.Hour + time.Nanosecond, 1<<63 - 1} {
		fs := flag.NewFlagSet("cliffguard", flag.ContinueOnError)
		loop := loopFlags(fs)
		if err := fs.Parse([]string{"-member-timeout", d.String()}); err != nil {
			t.Fatal(err)
		}
		req := loop()
		if err := req.Validate(); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if got := req.Options().MemberTimeout; got != d {
			t.Errorf("-member-timeout %v lowers through %q to %v", d, req.MemberTimeout, got)
		}
	}
}

// An unknown -designers name is rejected right after flag parsing, before
// the workload is read.
func TestUnknownDesignerRejectedBeforeIngest(t *testing.T) {
	cmd := command(t, "-workload", filepath.Join(t.TempDir(), "missing.sql"), "-designers", "advisor,nope")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil || !strings.Contains(stderr.String(), `unknown designer "nope"`) {
		t.Fatalf("err = %v, stderr %q; want an unknown-designer failure", err, stderr.String())
	}
}

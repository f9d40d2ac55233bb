package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// fakeCell has two metrics, each with its own bar: a fresh value must
// reach the pinned one.
type fakeCell struct {
	Name string  `json:"name"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
}

// fakeReport is a two-cell suite whose measurements are scripted.
type fakeReport struct {
	envelope
	Param int        `json:"param"`
	Cells []fakeCell `json:"cells"`

	script map[string][]fakeCell // successive measurements of each cell
	params []int                 // Param as each measurement saw it
	inputs []fakeCell            // the cell each measurement was given
	broken bool                  // fail the invariants
}

func (r *fakeReport) cells() *[]fakeCell    { return &r.Cells }
func (r *fakeReport) matrix() []fakeCell    { return []fakeCell{{Name: "x"}, {Name: "y"}} }
func (r *fakeReport) key(c fakeCell) string { return c.Name }
func (r *fakeReport) header() string        { return "name a b" }
func (r *fakeReport) row(c fakeCell) string { return fmt.Sprint(c) }

func (r *fakeReport) measure(c fakeCell) (fakeCell, error) {
	r.params = append(r.params, r.Param)
	r.inputs = append(r.inputs, c)
	seq := r.script[c.Name]
	if len(seq) == 0 {
		return c, fmt.Errorf("cell %s measured more often than scripted", c.Name)
	}
	r.script[c.Name] = seq[1:]
	got := seq[0]
	got.Name = c.Name
	return got, nil
}

func (r *fakeReport) bar(got, pin fakeCell) error {
	var misses []string
	if got.A < pin.A {
		misses = append(misses, "a")
	}
	if got.B < pin.B {
		misses = append(misses, "b")
	}
	if len(misses) > 0 {
		return fmt.Errorf("missed %s", strings.Join(misses, ","))
	}
	return nil
}

func (r *fakeReport) invariants() []error {
	if r.broken {
		return []error{errors.New("broken")}
	}
	return nil
}

// bothOnes pins both cells at a=1, b=1 with param 1.
const bothOnes = `{"param": 1, "cells": [{"name": "x", "a": 1, "b": 1}, {"name": "y", "a": 1, "b": 1}]}`

var one = fakeCell{A: 1, B: 1}

// check runs r against pin (when non-empty) and writes the report; it
// returns the exit status, stderr, and the written report (nil when
// nothing was written).
func check(t *testing.T, r *fakeReport, exact bool, pin string) (int, string, *fakeReport) {
	t.Helper()
	dir := t.TempDir()
	pinPath, out := "", filepath.Join(dir, "out.json")
	if pin != "" {
		pinPath = filepath.Join(dir, "pin.json")
		if err := os.WriteFile(pinPath, []byte(pin), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	code := run[fakeCell](r, exact, pinPath, out, &stdout, &stderr)
	buf, err := os.ReadFile(out)
	if err != nil {
		return code, stderr.String(), nil
	}
	var written fakeReport
	if err := json.Unmarshal(buf, &written); err != nil {
		t.Fatalf("written report: %v", err)
	}
	return code, stderr.String(), &written
}

func TestCheckExactMatchPasses(t *testing.T) {
	r := &fakeReport{Param: 1, script: map[string][]fakeCell{"x": {one}, "y": {one}}}
	code, stderr, written := check(t, r, true, bothOnes)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if written == nil || len(written.Cells) != 2 || written.Cells[0] != (fakeCell{Name: "x", A: 1, B: 1}) {
		t.Fatalf("written report %+v", written)
	}
}

func TestCheckExactRetryMatchIsNondeterminism(t *testing.T) {
	r := &fakeReport{Param: 1, script: map[string][]fakeCell{"x": {{A: 0, B: 1}, one}, "y": {one}}}
	code, stderr, written := check(t, r, true, bothOnes)
	if code == 0 || !strings.Contains(stderr, "NONDETERMINISM x") {
		t.Fatalf("exit %d, stderr %q; want NONDETERMINISM x", code, stderr)
	}
	if written != nil {
		t.Fatal("a failed check wrote its report")
	}
}

func TestCheckTolerantSecondAttemptPasses(t *testing.T) {
	r := &fakeReport{Param: 1, script: map[string][]fakeCell{"x": {{A: 0, B: 0}, {A: 2, B: 1}}, "y": {one}}}
	code, stderr, written := check(t, r, false, bothOnes)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if got := written.Cells[0]; got != (fakeCell{Name: "x", A: 2, B: 1}) {
		t.Fatalf("kept %+v, want the passing attempt", got)
	}
}

// Each attempt meets one bar and misses the other: the best field of
// each would pass together, but no attempt passes whole.
func TestCheckNeverCombinesAttempts(t *testing.T) {
	r := &fakeReport{Param: 1, script: map[string][]fakeCell{
		"x": {{A: 1, B: 0}, {A: 0, B: 1}, {A: 0, B: 1}},
		"y": {one},
	}}
	code, stderr, _ := check(t, r, false, bothOnes)
	if code == 0 || !strings.Contains(stderr, "REGRESSION x") {
		t.Fatalf("exit %d, stderr %q; want REGRESSION x", code, stderr)
	}
	if n := strings.Count(stderr, "attempt"); n != attempts {
		t.Fatalf("stderr reports %d attempts, want %d: %q", n, attempts, stderr)
	}
}

func TestCheckInvariantFailureExitsNonZero(t *testing.T) {
	for _, pin := range []string{"", bothOnes} {
		r := &fakeReport{Param: 1, broken: true, script: map[string][]fakeCell{"x": {one}, "y": {one}}}
		code, stderr, written := check(t, r, false, pin)
		if code == 0 || !strings.Contains(stderr, "INVARIANT broken") {
			t.Fatalf("pin %q: exit %d, stderr %q; want INVARIANT broken", pin, code, stderr)
		}
		if written != nil {
			t.Fatalf("pin %q: a run that broke an invariant wrote its report", pin)
		}
	}
}

func TestCheckReadsParametersFromPin(t *testing.T) {
	r := &fakeReport{Param: 1, script: map[string][]fakeCell{"x": {one}, "y": {one}}}
	pin := strings.Replace(bothOnes, `"param": 1`, `"param": 7`, 1)
	if code, stderr, written := check(t, r, false, pin); code != 0 || written.Param != 7 {
		t.Fatalf("exit %d, stderr %q, written %+v", code, stderr, written)
	}
	for i, p := range r.params {
		if p != 7 {
			t.Fatalf("measurement %d ran with param %d, want the pinned 7", i, p)
		}
	}
	// Per-cell parameters (throughput's item count) come from the pinned
	// cell: it, not the bare matrix coordinate, is what gets measured.
	if r.inputs[0] != (fakeCell{Name: "x", A: 1, B: 1}) {
		t.Fatalf("measured %+v, want the pinned cell", r.inputs[0])
	}
}

func TestCheckRejectsMalformedPin(t *testing.T) {
	for name, pin := range map[string]string{
		"not json":      `{"param": 1, "cells": [`,
		"wrong type":    `{"param": "one", "cells": [{"name": "x"}]}`,
		"unknown field": `{"param": 1, "parm": 7, "cells": [{"name": "x"}]}`,
		"other suite":   `{"param": 1, "results": [{"name": "x"}]}`,
		"unknown cell":  `{"param": 1, "cells": [{"name": "z"}]}`,
		"repeated cell": `{"param": 1, "cells": [{"name": "x"}, {"name": "x"}]}`,
		"no cells":      `{"param": 1, "cells": []}`,
	} {
		r := &fakeReport{Param: 1, script: map[string][]fakeCell{}}
		code, stderr, written := check(t, r, false, pin)
		if code == 0 || !strings.HasPrefix(stderr, "pin: ") || written != nil {
			t.Errorf("%s: exit %d, stderr %q", name, code, stderr)
		}
		if len(r.params) != 0 {
			t.Errorf("%s: measured %d cells against a malformed pin", name, len(r.params))
		}
	}
}

// Every committed pin parses under its own suite, and only under it.
func TestCommittedPinsMatchTheirSuite(t *testing.T) {
	read := map[string]func(path string) error{
		"throughput": func(p string) error { _, err := readPin[throughputCell](p, &throughputReport{}); return err },
		"aru":        func(p string) error { _, err := readPin[aruCell](p, newAruReport()); return err },
		"scenarios": func(p string) error {
			_, err := readPin[scenario.CellMetrics](p, newScenariosReport())
			return err
		},
		"elastic": func(p string) error { _, err := readPin[hotCell](p, newElasticReport()); return err },
	}
	for pinned := range suites {
		path := filepath.Join("..", "..", "BENCH_"+pinned+".json")
		for suite, readAs := range read {
			err := readAs(path)
			if suite == pinned && err != nil {
				t.Errorf("%s does not parse as its own suite: %v", path, err)
			}
			if suite != pinned && err == nil {
				t.Errorf("%s parses as the %s suite", path, suite)
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"nope"},
		{"-check", "BENCH_aru.json"},
		{"aru", "extra"},
		{"aru", "-tolerance", "0.5"},
	} {
		var out bytes.Buffer
		if code := pin(args, &out, &out); code != 2 {
			t.Errorf("pin %q: exit %d, want 2", args, code)
		}
	}
}

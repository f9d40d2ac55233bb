package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// attempts bounds how often a cell is measured under -check: a cell that
// misses its bar is re-measured up to twice before it is a regression.
const attempts = 3

// envelope records where a report was measured. It is metadata only:
// -check never compares it.
type envelope struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (e *envelope) meta() *envelope { return e }

// A report is one suite's pin file: the envelope, the suite's run
// parameters and its cells. Each suite implements it on a pointer to its
// report struct, whose JSON field names are the pin format; the
// parameters are fields of that struct, so reading a pin into it sets
// the parameters every measurement uses.
type report[C any] interface {
	meta() *envelope
	// cells is the report's cell list, for run to read and fill.
	cells() *[]C
	// matrix lists the cells a run measures, in report order, with only
	// their coordinates set.
	matrix() []C
	// key names a cell by its coordinates.
	key(c C) string
	// measure runs the cell at c's coordinates under the run parameters.
	measure(c C) (C, error)
	// bar is nil when got meets every bar its pin sets, and otherwise
	// names the bars it missed.
	bar(got, pin C) error
	// invariants checks the suite's headline claims on the kept cells,
	// setting any summary field the report derives from them.
	invariants() []error
	// header and row print the result table.
	header() string
	row(c C) string
}

// run measures every cell of r's matrix, checks each against the pin at
// checkPath when one is given, evaluates the suite's invariants and, if
// all of that passed, writes the report to jsonOut. Under -check the run
// parameters are the pin's, and a pinned cell is re-measured from the
// pin's own coordinates. It returns the process exit status.
//
// The check rule: a cell that misses its bar is re-measured up to
// attempts-1 more times, and passes only if one whole attempt meets every
// bar — results are never combined across attempts. In an exact suite
// (every cell deterministic) a retry that matches is itself a failure:
// the cell did not reproduce. The invariants see the attempt kept for
// each cell: the passing one, or the first.
func run[C any](r report[C], exact bool, checkPath, jsonOut string, stdout, stderr io.Writer) int {
	var pins map[string]C
	if checkPath != "" {
		var err error
		if pins, err = readPin(checkPath, r); err != nil {
			fmt.Fprintf(stderr, "pin: %v\n", err)
			return 1
		}
	}
	*r.meta() = envelope{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}

	fmt.Fprintln(stdout, r.header())
	ok := true
	var kept []C
	for _, c := range r.matrix() {
		pin, pinned := pins[r.key(c)]
		if pinned {
			c = pin
		}
		var keep C
		var misses []error
		for attempt := 1; attempt <= attempts; attempt++ {
			got, err := r.measure(c)
			if err != nil {
				fmt.Fprintf(stderr, "pin: measure %s: %v\n", r.key(c), err)
				return 1
			}
			fmt.Fprintln(stdout, r.row(got))
			if attempt == 1 {
				keep = got
			}
			if !pinned {
				break
			}
			miss := r.bar(got, pin)
			if miss == nil && attempt > 1 && exact {
				ok = false
				fmt.Fprintf(stderr, "NONDETERMINISM %s: attempt %d matched the pin after %v\n", r.key(c), attempt, misses[0])
				break
			}
			if miss == nil {
				keep = got
				break
			}
			misses = append(misses, fmt.Errorf("attempt %d: %w", attempt, miss))
		}
		if len(misses) == attempts {
			ok = false
			fmt.Fprintf(stderr, "REGRESSION %s:\n", r.key(c))
			for _, m := range misses {
				fmt.Fprintf(stderr, "  %v\n", m)
			}
		}
		kept = append(kept, keep)
	}

	*r.cells() = kept
	for _, err := range r.invariants() {
		ok = false
		fmt.Fprintf(stderr, "INVARIANT %v\n", err)
	}
	if !ok {
		return 1
	}
	if checkPath != "" {
		fmt.Fprintf(stdout, "check against %s passed (%d cells)\n", checkPath, len(kept))
	}
	if jsonOut != "" {
		if err := writePin(jsonOut, r); err != nil {
			fmt.Fprintf(stderr, "pin: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", jsonOut)
	}
	return 0
}

// readPin decodes the pin at path into r, which sets r's run parameters,
// and returns its cells keyed. Unknown fields are rejected, so a pin of
// another suite is an error rather than a report of zeros; so is a pin
// with no cells, a repeated cell, or a cell the suite does not measure.
func readPin[C any](path string, r report[C]) (map[string]C, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	pinned := *r.cells()
	*r.cells() = nil
	if len(pinned) == 0 {
		return nil, fmt.Errorf("%s pins no cells", path)
	}
	inMatrix := map[string]bool{}
	for _, c := range r.matrix() {
		inMatrix[r.key(c)] = true
	}
	pins := make(map[string]C, len(pinned))
	for _, c := range pinned {
		k := r.key(c)
		if !inMatrix[k] {
			return nil, fmt.Errorf("%s pins cell %s, which this suite does not measure", path, k)
		}
		if _, dup := pins[k]; dup {
			return nil, fmt.Errorf("%s pins cell %s twice", path, k)
		}
		pins[k] = c
	}
	return pins, nil
}

func writePin(path string, r any) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Command pin measures one of the repository's pinned benchmark suites,
// checks it against its pin file, and writes new pins.
//
// Usage:
//
//	go run ./cmd/pin <suite>                          # print the matrix
//	go run ./cmd/pin <suite> -json BENCH_<suite>.json  # write a new pin
//	go run ./cmd/pin <suite> -check BENCH_<suite>.json # regression check
//
// The suites are:
//
//	throughput  items/s through every in-process backend (real clock)
//	aru         AIMD vs raw STP feedback under three consumer shapes
//	scenarios   generated DAGs × load shapes × estimators, bit-exact
//	elastic     tracker recovery from a hot stage under the scheduler
//
// A suite's run parameters (seed, virtual seconds, warmup, hot factor,
// item count) are not flags: a new pin uses the suite's constants, and
// -check reads them from the pin, so a check always re-runs the pinned
// experiment. A pinned cell that misses its bar is re-measured up to
// twice and passes only if one whole attempt meets every bar; in the
// exact suite (scenarios) a retry that matches is reported as
// NONDETERMINISM and fails. Each suite also asserts its headline
// invariants on every run. With both -json and -check, the pin is
// written only if the check passed. The exit status is 0 when everything
// passed, 1 on any failure, 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/scenario"
)

// suites maps each suite name to its run, given -check and -json.
var suites = map[string]func(check, jsonOut string, stdout, stderr io.Writer) int{
	"throughput": func(check, jsonOut string, stdout, stderr io.Writer) int {
		return run[throughputCell](&throughputReport{}, false, check, jsonOut, stdout, stderr)
	},
	"aru": func(check, jsonOut string, stdout, stderr io.Writer) int {
		return run[aruCell](newAruReport(), false, check, jsonOut, stdout, stderr)
	},
	"scenarios": func(check, jsonOut string, stdout, stderr io.Writer) int {
		return run[scenario.CellMetrics](newScenariosReport(), true, check, jsonOut, stdout, stderr)
	},
	"elastic": func(check, jsonOut string, stdout, stderr io.Writer) int {
		return run[hotCell](newElasticReport(), false, check, jsonOut, stdout, stderr)
	},
}

func main() {
	os.Exit(pin(os.Args[1:], os.Stdout, os.Stderr))
}

func pin(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(suites))
	for name := range suites {
		names = append(names, name)
	}
	sort.Strings(names)
	fs := flag.NewFlagSet("pin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pin <%s> [-json OUT] [-check PIN] [-cpuprofile FILE]\n", strings.Join(names, "|"))
		fs.PrintDefaults()
	}
	jsonOut := fs.String("json", "", "write the report to this file")
	check := fs.String("check", "", "re-run the pinned experiment and fail on regression")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")

	if len(args) == 0 {
		fs.Usage()
		return 2
	}
	suite, ok := suites[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "pin: unknown suite %q\n", args[0])
		fs.Usage()
		return 2
	}
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pin: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}

	if *cpuProf == "" {
		return suite(*check, *jsonOut, stdout, stderr)
	}
	f, err := os.Create(*cpuProf)
	if err != nil {
		fmt.Fprintf(stderr, "pin: %v\n", err)
		return 1
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fmt.Fprintf(stderr, "pin: %v\n", err)
		return 1
	}
	code := suite(*check, *jsonOut, stdout, stderr)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		fmt.Fprintf(stderr, "pin: %v\n", err)
		return 1
	}
	return code
}

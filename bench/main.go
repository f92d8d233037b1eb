// Command bench is the repository benchmark. It runs four workloads —
// fig-quick, edit-churn, daemon-mixed and mc-eval; README.md says why
// each exists — measures their end-to-end metrics untraced, checks every
// output against an oracle, and with -trace repeats a workload once under
// the program's obs hooks to report per-layer metrics.
//
// Usage:
//
//	bench [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1|DIR] [-runs K] [-smoke]
//
// A named workload runs in this process and prints its result as one
// JSON object on the last line of standard output. "all" (the default)
// and -runs K > 1 run every selected workload K times, each in a fresh
// child process, and print the median and quartiles of every metric.
// The exit code is non-zero when any output check fails.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	runs     int
	smoke    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the timed loop of an untraced run, in seconds")
	fs.StringVar(&o.trace, "trace", "0", `per-layer run: "0" off, "1" on with trace files under .bench_build/trace, anything else names the trace directory`)
	fs.IntVar(&o.runs, "runs", 1, "runs per workload; above 1 prints the median and quartiles of every metric")
	fs.BoolVar(&o.smoke, "smoke", false, "smoke size: one panel or 10 operations, one set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.validate(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.trace == "1" {
		o.trace = filepath.Join(root, ".bench_build", "trace")
	}
	if o.workload == "all" || o.runs > 1 {
		return drive(o, sp, stdout, stderr)
	}
	res, lines, err := runWorkload(o, root, sp, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func (o options) validate() error {
	if o.workload != "all" && !slices.Contains(workloadNames(), o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive (got %g)", o.seconds)
	}
	if o.runs < 1 {
		return fmt.Errorf("-runs must be at least 1 (got %d)", o.runs)
	}
	return nil
}

// findRoot walks up from the working directory to the root of the
// module under test, the directory whose go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module repro above the working directory")
		}
		dir = parent
	}
}

// drive runs each selected workload o.runs times in fresh child
// processes of this binary, plus one traced run when o.trace is set,
// and prints the median and quartiles of every metric.
func drive(o options, sp spec, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	names := workloadNames()
	if o.workload != "all" {
		names = []string{o.workload}
	}
	sum := summary{
		Env:       environment(),
		Seed:      o.seed,
		Runs:      o.runs,
		Correct:   true,
		Workloads: map[string]*workloadSummary{},
	}
	for _, name := range names {
		ws := &workloadSummary{Metrics: map[string]stat{}}
		sum.Workloads[name] = ws
		var runs []result
		for k := 0; k < o.runs; k++ {
			res, err := child(exe, o, name, "0", stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: %v\n", name, k+1, err)
				sum.Correct = false
				continue
			}
			runs = append(runs, res)
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			sum.Correct = sum.Correct && res.Correct
		}
		for _, m := range sp.EndToEnd {
			var xs []float64
			for _, r := range runs {
				xs = append(xs, r.Metrics[m.Name].Value)
			}
			ws.Metrics[m.Name] = summarize(xs, m)
		}
		if o.trace != "0" {
			res, err := child(exe, o, name, o.trace, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s traced run: %v\n", name, err)
				sum.Correct = false
				continue
			}
			sum.Correct = sum.Correct && res.Correct
			ws.PerLayer = res.Metrics
		}
	}
	sum.print(stdout, sp)
	if err := json.NewEncoder(stdout).Encode(sum); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !sum.Correct {
		return 1
	}
	return 0
}

// child runs one workload in a fresh process and parses the result on
// the last line of its standard output.
func child(exe string, o options, name, trace string, stderr io.Writer) (result, error) {
	args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// environment records what a set of runs was measured on.
func environment() map[string]string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

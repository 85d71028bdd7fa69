// Command perfbench is the repository benchmark. It starts streamcountd as a
// child process, drives it over loopback through the client SDK on one of
// three workloads, checks every answer, and prints each metric by name and
// unit. With -trace 1 it instead replays the workload's operations in
// process at three layer boundaries and reports per-layer self times. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 312, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds the daemon and this program from the
// checkout first. README.md describes the workloads, the metrics and the
// span output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// endToEnd and perLayer are the metrics the final JSON line carries with
// -trace 0 and -trace 1, with their units; they mirror BENCHMARK.json
// (the smoke test checks that they agree).
var endToEnd = []metricDef{
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"server.self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"fgp.self_ms", "ms"},
	{"transform.self_ms", "ms"},
	{"stream.self_ms", "ms"},
	{"fgp.hit_ratio", "ratio"},
	{"transform.space_words", "count"},
	{"transform.parallel_speedup", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	daemon   string
	workdir  string
	smoke    bool
	against  string
	// corrupt perturbs the correctness references; the smoke test uses it
	// to prove that the gate trips.
	corrupt bool
	// minSamples is the fewest operations a run needs for its percentiles;
	// only the smoke test's short runs lower it.
	minSamples int
}

// metric is one printed measurement. Samples is the number of observations
// a percentile or median was taken over (0 when not applicable).
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is everything one run measured. It is written to
// <workdir>/results/ so a later run can be compared against it (-against).
type report struct {
	Host      hostStamp `json:"host"`
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	Trace     int       `json:"trace"`
	Metrics   []metric  `json:"metrics"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
}

func (r *report) add(name string, value float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, Samples: samples})
}

// fail records a wrong answer or an invalid run; any problem makes the run
// incorrect.
func (r *report) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) lookup(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func main() {
	o := options{minSamples: 100}
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the measured section in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end run against the daemon; 1: in-process traced run")
	flag.StringVar(&o.daemon, "daemon", "", "streamcountd binary built from this tree")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for segments, logs, spans and reports")
	flag.BoolVar(&o.smoke, "smoke", false, "self-test: run every workload briefly and check the output")
	flag.StringVar(&o.against, "against", "", "report of an earlier run to compare with; refused if its host differs")
	flag.Parse()
	if o.smoke {
		os.Exit(smoke(o))
	}
	os.Exit(runOnce(o))
}

// runOnce runs one workload and prints its report; the exit code is 0 only
// when every answer was right.
func runOnce(o options) int {
	rep, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(os.Stdout, rep)
	if o.against != "" {
		if code := compareAgainst(rep, o.against); code != 0 {
			return code
		}
	}
	printResult(os.Stdout, rep, o.trace)
	if len(rep.Problems) > 0 {
		return 1
	}
	return 0
}

// execute runs one workload in the mode o.trace selects and writes the
// report file. It returns an error only when the run could not be carried
// out at all; wrong answers are problems in the report.
func execute(o options) (*report, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	host, err := stampHost()
	if err != nil {
		return nil, err
	}
	rep := &report{Host: host, Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	in, err := w.build(o.seed)
	if err != nil {
		return nil, err
	}
	if o.corrupt {
		in.corrupt()
	}
	if o.trace == 1 {
		err = traceRun(o, w, in, rep)
	} else {
		err = endToEndRun(o, w, in, rep)
	}
	if err != nil {
		return nil, err
	}
	if err := writeReport(o, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func writeReport(o options, rep *report) error {
	dir := filepath.Join(o.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, rep.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// printReport prints the host stamp, every metric and every problem.
func printReport(f *os.File, rep *report) {
	host, _ := json.Marshal(rep.Host)
	fmt.Fprintf(f, "host %s\n", host)
	fmt.Fprintf(f, "workload %s seed %d seconds %d trace %d\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	for _, m := range rep.Metrics {
		line := fmt.Sprintf("metric %-36s %14.6f %s", m.Name, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		fmt.Fprintln(f, line)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(f, "FAIL %s\n", p)
	}
}

// printResult prints the one-line JSON result with the metrics
// BENCHMARK.json lists for the mode.
func printResult(f *os.File, rep *report, trace int) {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(rep.Problems) == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		if m, ok := rep.lookup(d.name); ok {
			out.Metrics[d.name] = value{m.Value, m.Unit}
		}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(f, "%s\n", line)
}

// compareAgainst prints each metric against an earlier report. Nanosecond
// figures from different hosts are not comparable, so a host mismatch is
// refused with exit code 3 instead of printing ratios.
func compareAgainst(rep *report, path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: -against:", err)
		return 2
	}
	var old report
	if err := json.Unmarshal(data, &old); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: -against %s: %v\n", path, err)
		return 2
	}
	if diff := old.Host.differs(rep.Host); diff != "" {
		fmt.Fprintf(os.Stderr, "HOST MISMATCH: %s was measured on another host (%s); refusing to compare timings\n", path, diff)
		return 3
	}
	if old.Workload != rep.Workload || old.Trace != rep.Trace {
		fmt.Fprintf(os.Stderr, "perfbench: -against %s: workload %s trace %d, this run is %s trace %d\n", path, old.Workload, old.Trace, rep.Workload, rep.Trace)
		return 2
	}
	names := make([]string, 0, len(rep.Metrics))
	for _, m := range rep.Metrics {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		now, _ := rep.lookup(name)
		was, ok := old.lookup(name)
		if !ok || was.Value == 0 {
			continue
		}
		fmt.Printf("compare %-32s %14.6f -> %14.6f %s (x%.3f)\n", name, was.Value, now.Value, now.Unit, now.Value/was.Value)
	}
	return 0
}

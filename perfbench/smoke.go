package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// smoke is the benchmark's self-test: every workload runs briefly in both
// modes and must print every metric BENCHMARK.json names, with its unit,
// and pass the correctness gate; then a run with deliberately corrupted
// references must fail the gate.
func smoke(o options) int {
	ok := true
	check := func(cond bool, format string, args ...any) {
		if !cond {
			ok = false
			fmt.Printf("smoke FAIL: "+format+"\n", args...)
		}
	}
	if err := checkBenchmarkJSON(); err != nil {
		check(false, "%v", err)
	}
	o.seconds = 3
	o.minSamples = 1
	for _, name := range workloadNames() {
		for trace := 0; trace <= 1; trace++ {
			o.workload, o.trace = name, trace
			rep, err := execute(o)
			if err != nil {
				check(false, "%s trace %d: %v", name, trace, err)
				continue
			}
			check(len(rep.Problems) == 0, "%s trace %d: correctness gate failed: %s", name, trace, strings.Join(rep.Problems, "; "))
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			for _, d := range defs {
				m, found := rep.lookup(d.name)
				check(found, "%s trace %d: metric %s not printed", name, trace, d.name)
				check(!found || m.Unit == d.unit, "%s trace %d: metric %s has unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
			}
			fmt.Printf("smoke %s trace %d: %d metrics, attempted %d, failed %d\n", name, trace, len(rep.Metrics), rep.Attempted, rep.Failed)
		}
	}
	for _, name := range workloadNames() {
		o.workload, o.trace, o.corrupt = name, 0, true
		rep, err := execute(o)
		if err != nil {
			check(false, "%s with corrupted references: %v", name, err)
			continue
		}
		tripped := false
		for _, p := range rep.Problems {
			tripped = tripped || strings.Contains(p, "not bit-identical")
		}
		check(tripped && rep.Failed > 0, "%s: corrupted references did not trip the bit-identity gate", name)
		fmt.Printf("smoke %s corrupted references: gate tripped %v (%d problems)\n", name, tripped, len(rep.Problems))
	}
	if !ok {
		return 1
	}
	fmt.Println("smoke ok")
	return 0
}

// checkBenchmarkJSON requires BENCHMARK.json's metric lists to match the
// metrics this program emits.
func checkBenchmarkJSON() error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("BENCHMARK.json lists %d %s metrics, the program emits %d", len(got), what, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				return fmt.Errorf("BENCHMARK.json %s metric %d is %s (%s), the program emits %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", b.EndToEnd, endToEnd); err != nil {
		return err
	}
	if err := same("per_layer", b.PerLayer, perLayer); err != nil {
		return err
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	return nil
}

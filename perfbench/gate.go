package main

import (
	"math"
	"sort"

	"streamcount"
	"streamcount/internal/fgp"
	"streamcount/internal/pattern"
	"streamcount/internal/stream"
)

// gateZ is the statistical gate's bound: a pattern's mean estimate must lie
// within gateZ standard errors (of that mean, from the run's own sample) of
// the exact count.
const gateZ = 5

func sortRecs(recs []opRec) { sort.Slice(recs, func(a, b int) bool { return recs[a].i < recs[b].i }) }

func planFor(name string) (*fgp.Plan, error) {
	p, err := pattern.ByName(name)
	if err != nil {
		return nil, err
	}
	return fgp.NewPlan(p)
}

// sameBits reports whether a served estimate equals the standalone one bit
// for bit (shift is the smoke test's deliberate corruption, 0 otherwise).
func sameBits(served, standalone, shift float64) bool {
	return math.Float64bits(served) == math.Float64bits(standalone+shift)
}

// gateCount re-runs a fixed sample of the served queries standalone in
// process and requires bit-identical estimates, then checks each pattern's
// mean estimate against the exact count. Runs outside the timed section.
func gateCount(w *workload, in *inputs, recs []opRec, rep *report) error {
	st, err := stream.NewSlice(in.n, in.prefill)
	if err != nil {
		return err
	}
	sample := max(4, 2*len(w.patterns))
	checked := 0
	for _, r := range recs {
		if r.i >= sample || r.err != nil {
			continue
		}
		_, name, seed, err := w.query(in.seed, r.i)
		if err != nil {
			return err
		}
		pl, err := planFor(name)
		if err != nil {
			return err
		}
		res, _, err := directCount(st, pl, w.trials, seed, 0, nil, r.i, "")
		if err != nil {
			return err
		}
		checked++
		if !sameBits(r.value, res.Estimate, in.shift) {
			rep.Failed++
			rep.fail("query %d (%s, seed %d): served %v, standalone run at version %d gives %v; not bit-identical",
				r.i, name, seed, r.value, len(in.prefill), res.Estimate+in.shift)
		}
	}
	rep.add("gate.bit_identical_checked", float64(checked), "count", 0)
	if checked < sample {
		rep.fail("only %d of the first %d queries could be re-run standalone", checked, sample)
	}
	ratios := map[string][]float64{}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		_, name, _, _ := w.query(in.seed, r.i)
		ratios[name] = append(ratios[name], r.value/in.exact[name])
	}
	for _, name := range w.patterns {
		statCheck(rep, "gate."+name, ratios[name])
	}
	return nil
}

// statCheck requires the mean of estimate/exact ratios to be within gateZ
// standard errors of 1.
func statCheck(rep *report, label string, ratios []float64) {
	mean, sd := meanSD(ratios)
	if len(ratios) < 2 || math.IsNaN(sd) {
		rep.fail("%s: %d estimates are too few for the statistical check", label, len(ratios))
		return
	}
	tol := gateZ * sd / math.Sqrt(float64(len(ratios)))
	rep.add(label+".mean_over_exact", mean, "ratio", len(ratios))
	rep.add(label+".tolerance", tol, "ratio", len(ratios))
	if math.Abs(mean-1) > tol {
		rep.fail("%s: mean estimate is %.3f× the exact count over %d queries; allowed 1±%.3f", label, mean, len(ratios), tol)
	}
}

// gateWatch re-runs a fixed sample of watch events standalone — the
// streaming insertion runner over the event's prefix at seed
// WatchSeedAt(S, v) — and requires bit-identical values, then checks the
// mean estimate against the exact triangle count at each event's version.
func gateWatch(w *workload, in *inputs, res loopResult, events []eventRec, rep *report) error {
	_, seed, err := w.watchQuery(in.seed)
	if err != nil {
		return err
	}
	pl, err := planFor(w.patterns[0])
	if err != nil {
		return err
	}
	v0 := int64(len(in.prefill))
	var ok []eventRec
	for _, ev := range events {
		if ev.err == nil && ev.ver >= v0 && (ev.ver-v0)%watchBatch == 0 && int((ev.ver-v0)/watchBatch) < len(in.watchExact) {
			ok = append(ok, ev)
		}
	}
	if len(ok) == 0 {
		rep.fail("no watch events to check")
		return nil
	}
	all := make([]stream.Update, 0, int(ok[len(ok)-1].ver))
	all = append(all, in.prefill...)
	for _, b := range in.batches {
		all = append(all, b...)
	}
	picks := []int{0, len(ok) / 4, len(ok) / 2, 3 * len(ok) / 4, len(ok) - 1}
	checked := 0
	for j, k := range picks {
		if j > 0 && k == picks[j-1] {
			continue
		}
		ev := ok[k]
		st, err := stream.NewSlice(in.n, all[:ev.ver])
		if err != nil {
			return err
		}
		r, _, err := directCount(st, pl, w.trials, streamcount.WatchSeedAt(seed, ev.ver), 0, nil, k, "")
		if err != nil {
			return err
		}
		checked++
		if !sameBits(ev.value, r.Estimate, in.shift) {
			rep.Failed++
			rep.fail("watch event at version %d: served %v, standalone run at WatchSeedAt(S, v) gives %v; not bit-identical",
				ev.ver, ev.value, r.Estimate+in.shift)
		}
	}
	rep.add("gate.bit_identical_checked", float64(checked), "count", 0)
	ratios := make([]float64, 0, len(ok))
	for _, ev := range ok {
		ratios = append(ratios, ev.value/in.watchExact[(ev.ver-v0)/watchBatch])
	}
	statCheck(rep, "gate."+w.patterns[0], ratios)
	if len(res.sends) > 0 && len(ok) < len(res.sends) {
		rep.fail("%d appends but only %d watch events", len(res.sends), len(ok))
	}
	return nil
}

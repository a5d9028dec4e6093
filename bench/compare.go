package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// runCompare reads two -json report files, the parent's then the
// change's, and prints one row per workload and metric.
func runCompare(root string, files []string) error {
	if len(files) != 2 {
		return errors.New("-compare takes two report files: the parent's, then the change's")
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	a, err := readReports(files[0])
	if err != nil {
		return err
	}
	b, err := readReports(files[1])
	if err != nil {
		return err
	}
	return writeComparison(os.Stdout, spec, a, b)
}

// sideValues collects one workload's values of one metric per seed, in
// file order, so the k-th run of a seed on one side pairs with the
// k-th run of that seed on the other.
func sideValues(rs []*report, workload, metric string) map[int64][]float64 {
	out := map[int64][]float64{}
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		v, ok := r.EndToEnd[metric]
		if !ok {
			v, ok = r.PerLayer[metric]
		}
		if ok {
			out[r.Seed] = append(out[r.Seed], v.Value)
		}
	}
	return out
}

func writeComparison(w io.Writer, spec *benchSpec, a, b []*report) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tpairs won\tverdict")
	for _, wl := range spec.Workloads {
		for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			av, bv := sideValues(a, wl.Name, ms.Name), sideValues(b, wl.Name, ms.Name)
			var xs, ys []float64
			var pairs [][2]float64
			for seed, vs := range av {
				xs = append(xs, vs...)
				for i, v := range vs {
					if i < len(bv[seed]) {
						pairs = append(pairs, [2]float64{v, bv[seed][i]})
					}
				}
			}
			for _, vs := range bv {
				ys = append(ys, vs...)
			}
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			c := compareMetric(ms, xs, ys, pairs)
			aq1, aq3 := quartiles(xs)
			bq1, bq3 := quartiles(ys)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
				wl.Name, ms.Name, ms.Unit, median(xs), aq1, aq3, median(ys), bq1, bq3,
				100*relChange(median(xs), median(ys)), c.wins, len(pairs), c.verdict)
		}
	}
	return tw.Flush()
}

func relChange(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return (to - from) / math.Abs(from)
}

type comparison struct {
	wins    int
	verdict string
}

// compareMetric judges the change (ys) against the parent (xs):
//
//   - better: the change wins at least 9 of 10 pairs and the medians
//     differ by more than the parent's interquartile range;
//   - unresolved: either side's spread exceeds the bound, unless every
//     change run beats every parent run;
//   - worse: the change's median is worse than the parent's by more
//     than the bound;
//   - no change: otherwise.
//
// Per-layer metrics have no bound: they are better or worse by the
// pair rule, no change when every pair ties, and unresolved otherwise.
func compareMetric(ms metricSpec, xs, ys []float64, pairs [][2]float64) comparison {
	beats := ms.beats
	var c comparison
	losses := 0
	for _, p := range pairs {
		switch {
		case beats(p[1], p[0]):
			c.wins++
		case beats(p[0], p[1]):
			losses++
		}
	}
	ma, mb := median(xs), median(ys)
	q1, q3 := quartiles(xs)
	beyondSpread := math.Abs(mb-ma) > q3-q1
	n := len(pairs)
	switch {
	case n > 0 && c.wins*10 >= 9*n && beyondSpread && beats(mb, ma):
		c.verdict = "better"
		return c
	case ms.Bound == nil && n > 0 && losses*10 >= 9*n && beyondSpread && beats(ma, mb):
		c.verdict = "worse"
		return c
	case ms.Bound == nil && c.wins == 0 && losses == 0 && n > 0:
		c.verdict = "no change"
		return c
	case ms.Bound == nil:
		c.verdict = "unresolved"
		return c
	}
	bound := *ms.Bound
	spread := func(vs []float64) float64 {
		lo, hi := quartiles(vs)
		if m := median(vs); m != 0 {
			return (hi - lo) / math.Abs(m)
		}
		return 0
	}
	worseBy := relChange(ma, mb)
	if ms.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case spread(xs) > bound || spread(ys) > bound:
		if beats(ms.extreme(ys, false), ms.extreme(xs, true)) {
			c.verdict = "no change"
		} else {
			c.verdict = "unresolved"
		}
	case worseBy > bound:
		c.verdict = "worse"
	default:
		c.verdict = "no change"
	}
	return c
}

// beats reports whether x is better than y in the metric's direction.
func (ms metricSpec) beats(x, y float64) bool {
	if ms.Better == "higher" {
		return x > y
	}
	return x < y
}

// extreme returns the best value of vs, or with best unset the worst.
func (ms metricSpec) extreme(vs []float64, best bool) float64 {
	out := vs[0]
	for _, v := range vs[1:] {
		if ms.beats(v, out) == best && v != out {
			out = v
		}
	}
	return out
}

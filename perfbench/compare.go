package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts, from the guide the benchmark follows: a change is better
// when every one of its runs beats every parent run, or when the
// rank test separates them and the medians differ by more than the
// parent's own spread; worse when its median is worse by more than the
// bound; unresolved when either side spreads wider than the bound (or
// there is no bound); unchanged otherwise.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// significance is the Mann-Whitney p-value below which two sets count
// as separated.
const significance = 0.05

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// verdict compares the parent's runs a with the change's runs b for a
// metric where lower (or higher) is better, with bound the share by
// which the median may worsen (0: no bound).
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 || median(a) == 0 {
		return verdictUnresolved
	}
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	worse := sign * (median(b) - median(a)) / math.Abs(median(a))
	spreadA := relSpread(a)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	p, _ := mannWhitney(a, b)
	switch {
	case allBetter || (p < significance && -worse > spreadA):
		return verdictBetter
	case bound > 0 && worse > bound:
		return verdictWorse
	case bound == 0 && p < significance && worse > spreadA:
		return verdictWorse
	case bound == 0 || spreadA > bound || relSpread(b) > bound:
		return verdictUnresolved
	}
	return verdictUnchanged
}

// resultSet maps workload → metric → values over a directory's
// result files.
type resultSet map[string]map[string][]float64

func loadResults(dir string) (resultSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := resultSet{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var res resultFile
		if err := json.Unmarshal(b, &res); err != nil || res.Workload == "" {
			continue // span files and strays
		}
		if set[res.Workload] == nil {
			set[res.Workload] = map[string][]float64{}
		}
		for name, m := range res.Summary.Metrics {
			set[res.Workload][name] = append(set[res.Workload][name], m.Value)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return set, nil
}

// compareMain prints, per workload × metric, both sides' medians and
// quartiles, the Mann-Whitney p-value and the verdict against
// BENCHMARK.json's bounds. It fails when any row is worse.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: perfbench compare [-benchmark BENCHMARK.json] PARENT_RESULTS CHANGE_RESULTS")
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		return err
	}
	c, err := loadResults(fs.Arg(1))
	if err != nil {
		return err
	}
	var workloadNames []string
	for w := range a {
		workloadNames = append(workloadNames, w)
	}
	sort.Strings(workloadNames)

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tp\tverdict")
	worse := 0
	for _, w := range workloadNames {
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			xa, xc := a[w][m.Name], c[w][m.Name]
			if len(xa) == 0 && len(xc) == 0 {
				continue
			}
			v := verdict(xa, xc, m.Better != "higher", m.Bound)
			if v == verdictWorse {
				worse++
			}
			p, _ := mannWhitney(xa, xc)
			change := "n/a"
			if ma := median(xa); ma != 0 && len(xc) > 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(median(xc)-ma)/math.Abs(ma))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.3f\t%s\n", w, m.Name, describe(xa), describe(xc), change, p, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d row(s) worse than their bound", worse)
	}
	return nil
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return strings.TrimSpace(fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs)))
}

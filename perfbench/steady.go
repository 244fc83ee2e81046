package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the steadiness and smoke modes read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runSelf runs this benchmark binary once in a child process and parses its
// result line. The child's progress lines go to our standard error.
func runSelf(workload string, seed int64, seconds, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0], s[0]
	}
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// runSteady runs two sets of n runs on every workload (or the one named),
// each run with its own seed, and prints per metric and set the median and
// quartiles, the spread (interquartile distance over the median), and
// whether the sets agree within the metric's bound: each set's spread, and
// the change between the two medians in either direction, at most the bound.
func runSteady(only string, n, seconds int) error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	ok := true
	for _, wl := range sp.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		values := [2]map[string][]float64{{}, {}}
		var failShare [2][]float64
		for set := 0; set < 2; set++ {
			for i := 0; i < n; i++ {
				seed := int64(1000*(set+1) + i + 1)
				res, err := runSelf(wl.Name, seed, seconds, 0)
				if err != nil {
					return err
				}
				if !res.Correct {
					ok = false
					fmt.Printf("%s seed %d: correctness check failed\n", wl.Name, seed)
				}
				failShare[set] = append(failShare[set], float64(res.Failed)/float64(res.Attempted))
				for name, m := range res.Metrics {
					values[set][name] = append(values[set][name], m.Value)
				}
			}
		}
		fmt.Printf("== %s (%d runs per set, %ds each)\n", wl.Name, n, seconds)
		for _, e := range sp.EndToEnd {
			var med [2]float64
			line := fmt.Sprintf("%-20s", e.Name)
			agree := true
			for set := 0; set < 2; set++ {
				vs := values[set][e.Name]
				if len(vs) != n {
					return fmt.Errorf("%s: metric %s missing from some runs", wl.Name, e.Name)
				}
				q1, q2, q3 := quartiles(vs)
				med[set] = q2
				spread := (q3 - q1) / q2
				line += fmt.Sprintf("  set%d median %.6g [q1 %.6g q3 %.6g] spread %.3f", set+1, q2, q1, q3, spread)
				if spread > e.Bound {
					agree = false
				}
			}
			q1, q2, q3 := quartiles(append(append([]float64(nil), values[0][e.Name]...), values[1][e.Name]...))
			line += fmt.Sprintf("  both sets spread %.3f", (q3-q1)/q2)
			// The sets agree when neither median is further from the
			// other than the bound, in either direction.
			change := (med[1] - med[0]) / med[0]
			if math.Abs(change) > e.Bound {
				agree = false
			}
			line += fmt.Sprintf("  change %+.3f bound %.2f", change, e.Bound)
			if agree {
				line += "  agree"
			} else {
				line += "  DISAGREE"
				ok = false
			}
			fmt.Println(line)
		}
		if f0, f1 := mean(failShare[0]), mean(failShare[1]); f0 != f1 {
			fmt.Printf("failed share differs between sets: %g vs %g\n", f0, f1)
			ok = false
		}
	}
	if !ok {
		return fmt.Errorf("the two sets do not agree")
	}
	return nil
}

// runSmoke runs every workload for one second untraced and once traced,
// and checks that each run is correct and prints exactly the metrics
// BENCHMARK.json names.
func runSmoke() error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	for _, wl := range sp.Workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := runSelf(wl.Name, 1, 1, trace)
			if err != nil {
				return err
			}
			want := map[string]string{}
			if trace == 0 {
				for _, e := range sp.EndToEnd {
					want[e.Name] = e.Unit
				}
			} else {
				for _, e := range sp.PerLayer {
					want[e.Name] = e.Unit
				}
			}
			if err := checkResult(res, want); err != nil {
				return fmt.Errorf("%s trace %d: %w", wl.Name, trace, err)
			}
			fmt.Printf("smoke: %s trace %d: %d operations, %d metrics, correct\n", wl.Name, trace, res.Attempted, len(res.Metrics))
		}
	}
	fmt.Println("smoke: PASS")
	return nil
}

func checkResult(res *result, want map[string]string) error {
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		return fmt.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			return fmt.Errorf("metric %s missing", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s in %s, BENCHMARK.json says %s", name, m.Unit, unit)
		}
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	return nil
}

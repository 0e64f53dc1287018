package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"fastforward/perfbench/bench"
)

// spec is the part of BENCHMARK.json the steadiness command reads.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs each workload of the spec n times, for the spec's
// run_seconds, with seeds 1..n: the gated command is given a different
// --seed on every run, so a bound must hold across seeds as well as
// across host conditions. It prints per end-to-end metric the median,
// the quartiles and the spread (interquartile distance over median)
// against the metric's bound. A spread under a third of the bound is
// reported as steady. It also requires every run to be correct and the
// failed share of operations to be the same in every run of a workload.
// It is how the bounds in BENCHMARK.json were set, and how they are
// re-checked on a new host.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("ffbench steady", flag.ContinueOnError)
	n := fs.Int("n", 10, "runs per workload")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description with workloads and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 2
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintf(os.Stderr, "steady: %s: %v\n", *specPath, err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 2
	}
	ok := true
	for _, wl := range sp.Workloads {
		name := wl.Name
		values := map[string][]float64{}
		var shares [][2]int
		for k := 0; k < *n; k++ {
			seed := int64(k + 1)
			res, err := runChild(self, name, seed, sp.RunSeconds)
			if err != nil {
				fmt.Printf("%s seed %d: %v\n", name, seed, err)
				ok = false
				continue
			}
			if !res.Correct {
				fmt.Printf("%s seed %d: outputs incorrect\n", name, seed)
				ok = false
			}
			shares = append(shares, [2]int{res.Failed, res.Attempted})
			line := fmt.Sprintf("%s seed %d:", name, seed)
			for _, m := range sp.EndToEnd {
				v, ok := res.Metrics[m.Name]
				if ok {
					values[m.Name] = append(values[m.Name], v.Value)
				}
				line += fmt.Sprintf(" %s=%.6g", m.Name, v.Value)
			}
			fmt.Println(line)
		}
		fmt.Printf("\n%s: %d runs of %gs, [failed attempted] %v\n", name, *n, sp.RunSeconds, shares)
		if !sameShare(shares) {
			fmt.Printf("  failed share differs between runs\n")
			ok = false
		}
		fmt.Printf("  %-20s %14s %14s %14s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, m := range sp.EndToEnd {
			vs := values[m.Name]
			if len(vs) < 2 {
				fmt.Printf("  %-20s missing\n", m.Name)
				ok = false
				continue
			}
			q1, med, q3, _ := bench.Quartiles(vs)
			spread := bench.Spread(vs)
			verdict := "steady"
			switch {
			case spread > m.Bound:
				verdict = "OVER BOUND"
				ok = false
			case spread > m.Bound/3:
				verdict = "within bound"
			}
			fmt.Printf("  %-20s %14.6g %14.6g %14.6g %8.4f %6.3g  %s\n", m.Name, q1, med, q3, spread, m.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// sameShare reports whether every [failed, attempted] pair is the same
// fraction.
func sameShare(pairs [][2]int) bool {
	for _, p := range pairs {
		if p[0]*pairs[0][1] != pairs[0][0]*p[1] {
			return false
		}
	}
	return true
}

// runChild runs one measured run in a child process and parses the
// result line it prints last. The child's host and cpu lines are
// echoed.
func runChild(self, name string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		if strings.HasPrefix(last, "host ") || strings.HasPrefix(last, "cpu ") {
			fmt.Printf("%s seed %d %s\n", name, seed, last)
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("result line %q: %w", last, err)
	}
	return res, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// child runs one workload in a process of its own — so peak RSS and
// GC state belong to that workload alone — and returns its result.
func child(workload string, seed int64, seconds, trace int, out string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result (%v)\n%s", workload, seed, runErr, stderr.Bytes())
	}
	if !res.Correct {
		return &res, fmt.Errorf("%s seed %d: incorrect run\n%s", workload, seed, stderr.Bytes())
	}
	return &res, nil
}

// runAll runs every workload untraced and traced and prints each
// result under its own heading.
func runAll(seed int64, seconds int, out string) int {
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(w.name, seed, seconds, trace, out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lfsperf:", err)
				code = 1
			}
			if res == nil {
				continue
			}
			specs := endToEnd
			if trace == 1 {
				specs = perLayer
			}
			fmt.Printf("== %s (trace %d): attempted %d, failed %d\n", w.name, trace, res.Attempted, res.Failed)
			for _, s := range specs {
				fmt.Printf("%-36s %16.6g %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
			}
		}
	}
	return code
}

// selftestRuns is how many seeds make one set of the repeatability
// check: the acceptance procedure takes its quartiles over ten.
const selftestRuns = 10

// selfTest is the repeatability check the benchmark is accepted by:
// for every workload, two sets of selftestRuns seeds each. Within the first
// set, each end-to-end metric's quartile distance as a share of its
// median must stay within the metric's bound (set-up time excepted);
// and the second set's median must not be worse than the first's by
// more than the bound. It prints one row per workload and metric and
// returns non-zero on any breach.
func selfTest(seed int64, seconds int, out string) int {
	code := 0
	fmt.Printf("%-10s %-26s %14s %8s %14s %8s %6s\n", "workload", "metric", "median_1", "spread", "median_2", "worse", "bound")
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = make(map[string][]float64)
			for i := 0; i < selftestRuns; i++ {
				res, err := child(w.name, seed+int64(i), seconds, 0, out)
				if err != nil {
					fmt.Fprintln(os.Stderr, "lfsperf:", err)
					return 1
				}
				for _, s := range endToEnd {
					sets[set][s.Name] = append(sets[set][s.Name], res.Metrics[s.Name].Value)
				}
			}
		}
		for _, s := range endToEnd {
			q1, m1, q3 := quartiles(sets[0][s.Name])
			m2 := median(sets[1][s.Name])
			spread := ratio(q3-q1, m1)
			worse := ratio(m2-m1, m1)
			if s.Better == higher {
				worse = -worse
			}
			verdict := ""
			if (spread > s.Bound && s.Name != "setup_s") || worse > s.Bound {
				verdict = "  BREACH"
				code = 1
			}
			fmt.Printf("%-10s %-26s %14.6g %7.2f%% %14.6g %+7.2f%% %5.0f%%%s\n",
				w.name, s.Name, m1, 100*spread, m2, 100*worse, 100*s.Bound, verdict)
		}
	}
	return code
}

// Command lfsperf is the repository's performance benchmark: four
// closed-loop workloads (the paper's four measurements) on two clocks.
// Simulated time is the paper's result and repeats exactly for a seed;
// host time is what the implementation costs to run. One run measures
// one workload, by repeating it untraced for the end-to-end metrics
// or, with -trace 1, by adding one traced repetition, the FFS baseline
// arm and the layer kernels for the per-layer metrics. The last line
// of standard output is the result as one JSON object; everything else
// goes to standard error. README.md documents every metric.
//
// It measures each layer from outside — wrappers it owns around
// vfs.FileSystem and disk.Store, counters the layers already export,
// and kernels over their public functions — so it can judge a change
// to any of them without being part of it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// result is the line a run prints: whether every check held, how many
// operations and checks were attempted and how many failed, and the
// metrics by name. Fields are declared in key order.
type result struct {
	Attempted int64                  `json:"attempted"`
	Correct   bool                   `json:"correct"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workloadFlag := flag.String("workload", "", "workload to run: smallfile, largefile, cleaning, clients, or all")
	seed := flag.Int64("seed", 42, "seed for every generated input: payloads, Zipf draws, random offsets, server.Config.Seed")
	seconds := flag.Int("seconds", 10, "how long to keep repeating the workload (at least three repetitions are made)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced repetitions; 1: per-layer metrics from a traced one")
	out := flag.String("out", filepath.Join(".bench_build", "lfsperf"), "directory for the span file and kernel scratch files")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	selftest := flag.Bool("selftest", false, "run every workload in two sets of ten seeds and hold each end-to-end metric to its bound")
	flag.Parse()

	if *selftest {
		return selfTest(*seed, *seconds, *out)
	}
	if *workloadFlag == "all" {
		return runAll(*seed, *seconds, *out)
	}
	w := findWorkload(*workloadFlag)
	if w == nil || flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: lfsperf -workload <smallfile|largefile|cleaning|clients|all> [-seed n] [-seconds n] [-trace 0|1] [-out dir] [-cpuprofile file] | -selftest")
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	res, err := measure(w, *seed, fullScale, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		return fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "lfsperf:", err)
	return 2
}

// setupSamples is how many set-up timings a run takes at least: set-up
// is milliseconds on three of the workloads, so its median needs more
// samples than there are full repetitions.
const setupSamples = 9

// measure runs workload w for about budget of host time and returns
// its result: end-to-end metrics, or per-layer metrics when traced.
func measure(w *workload, seed int64, sc scale, budget time.Duration, traced bool, outDir string) (*result, error) {
	if traced {
		// Half the time for the untraced repetitions the traced one is
		// compared with; the rest is the traced repetition, the
		// baseline arm and the kernels.
		budget /= 2
	}
	var reps []repResult
	var problems []string
	start := time.Now()
	for len(reps) < 3 || time.Since(start) < budget {
		r := newRep(seed, sc, false)
		if err := w.run(r); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		reps = append(reps, r.out)
	}
	setup := make([]float64, 0, setupSamples)
	for i := range reps {
		setup = append(setup, reps[i].setupHost.Seconds())
	}
	for len(setup) < setupSamples {
		r := newRep(seed, sc, false)
		r.setupOnly = true
		if err := w.run(r); err != nil {
			return nil, fmt.Errorf("%s (set-up): %w", w.name, err)
		}
		setup = append(setup, r.out.setupHost.Seconds())
	}
	res := &result{}
	for i := range reps {
		res.Attempted += reps[i].attempted
		res.Failed += reps[i].failed
		problems = append(problems, reps[i].problems...)
		if reps[i].digest != reps[0].digest {
			problems = append(problems, fmt.Sprintf("repetition %d: simulated results differ from repetition 0 for the same seed", i))
		}
	}
	o := &reps[0]
	if w.oracle != nil && sc == fullScale {
		problems = append(problems, w.oracle(o)...)
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: %d untraced repetitions, %d calls each, lat_samples=%d, sim_digest=%s\n",
		w.name, seed, len(reps), o.calls, o.latSamples, o.digest)
	for _, p := range o.phases {
		fmt.Fprintf(os.Stderr, "  phase %-10s %8.1f ops/sim_s %8.0f KB/sim_s (%v simulated)\n", p.Name, p.OpsPerSec(), p.KBPerSec(), p.Duration)
	}

	if !traced {
		res.Metrics = report(endToEnd, endToEndValues(reps, setup))
	} else {
		values, more, err := tracedRun(w, seed, sc, reps, outDir)
		if err != nil {
			return nil, err
		}
		res.Attempted += more.attempted
		res.Failed += more.failed
		problems = append(problems, more.problems...)
		res.Metrics = report(perLayer, values)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", p)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0
	return res, nil
}

// tracedRun makes the one traced repetition (and the FFS baseline arm
// and the kernels) and returns the per-layer values together with the
// traced repetition's tally.
func tracedRun(w *workload, seed int64, sc scale, untraced []repResult, outDir string) (map[string]float64, *repResult, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	r := newRep(seed, sc, true)
	root := r.tr.begin(layerBench, w.name)
	err := w.run(r)
	r.tr.end(root)
	if err != nil {
		return nil, nil, fmt.Errorf("%s (traced): %w", w.name, err)
	}
	o := &r.out
	if o.digest != untraced[0].digest {
		o.problems = append(o.problems, "tracing perturbed the simulation: sim_digest(traced) != sim_digest(untraced)")
	}
	if e := selfTimeError(r.tr.spans); e > 0.01 || e < -0.01 {
		o.problems = append(o.problems, fmt.Sprintf("span self times sum to %+.2f%% of the traced wall time, want within 1%%", 100*e))
	}
	spanFile := filepath.Join(outDir, w.name+".spans.jsonl")
	if err := writeSpans(spanFile, r.tr.spans); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "  traced repetition: %d spans written to %s; host self time by layer:", len(r.tr.spans), spanFile)
	self := layerSelf(r.tr.spans)
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, " %s %.1f ms", l, float64(self[l])/1e6)
	}
	fmt.Fprintln(os.Stderr)

	var base *rep
	if w.baseline != nil {
		base = newRep(seed, sc, false)
		if err := w.baseline(base); err != nil {
			return nil, nil, fmt.Errorf("%s (FFS baseline): %w", w.name, err)
		}
		o.attempted += base.out.attempted
		o.failed += base.out.failed
		o.problems = append(o.problems, base.out.problems...)
	}
	values := make(map[string]float64, len(perLayer))
	layerValues(w, r, untraced, base, values)
	if err := (kernels{sc.kernelDiv}).run(values, outDir); err != nil {
		return nil, nil, err
	}
	return values, o, nil
}

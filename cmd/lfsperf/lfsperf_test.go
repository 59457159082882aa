package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/fstest"
	"lfs/internal/server"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// testScale runs the four scripts in a fraction of a second each.
var testScale = scale{smallFiles: 300, largeFileBytes: 4 << 20, cleanDisk: 8 << 20, cleanFill: 0.5, cleanRounds: 2, clientOps: 40, kernelDiv: 1000}

func newTestLFS(t *testing.T, st disk.Store, cfg core.Config) *core.FS {
	t.Helper()
	d, err := disk.New(st, disk.GeometryForCapacity(64<<20), disk.WrenIVModel(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func memStore() disk.Store {
	return disk.NewMemStore(disk.GeometryForCapacity(64 << 20).TotalBytes())
}

// The two measuring points must be invisible to what they measure.

func TestTimedStoreConformance(t *testing.T) {
	fstest.RunStoreConformance(t, func(t *testing.T) disk.Store {
		return &timedStore{Store: disk.NewMemStore(8 << 20), tr: newTracer()}
	})
}

func TestProbeConformance(t *testing.T) {
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem {
		return newProbe(newTestLFS(t, memStore(), core.DefaultConfig()), newTracer(), newShadow())
	})
}

// TestProbeTransparent drives server.Run — which finds FsyncFile,
// NoteWait and TickMetrics by interface assertion — against a bare LFS
// and against one behind the probe and the timing store. Every counter
// must agree: a wrapper that dropped FsyncFile would turn each fsync
// into a whole-FS Sync and show here.
func TestProbeTransparent(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.GroupCommit = true
	scfg := server.Config{Clients: 4, OpsPerClient: 50, WriteSize: 4096, FilesPerClient: 4, Seed: 7}

	bare := newTestLFS(t, memStore(), cfg)
	want, err := server.Run(bare, scfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	inner := newTestLFS(t, &timedStore{Store: memStore(), tr: tr}, cfg)
	probe := newProbe(inner, tr, newShadow())
	got, err := server.Run(probe, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.End != want.End || got.Events != want.Events || got.Ops != want.Ops {
		t.Errorf("wrapped run: end %v, %d events, %d ops; bare run: end %v, %d events, %d ops",
			got.End, got.Events, got.Ops, want.End, want.Events, want.Ops)
	}
	if a, b := inner.StatsSnapshot(), bare.StatsSnapshot(); a != b {
		t.Errorf("wrapped StatsSnapshot differs from bare:\n got %+v\nwant %+v", a, b)
	}
	if probe.count[kFsync] != want.Ops || int64(len(probe.opLat)) != want.Ops {
		t.Errorf("probe saw %d fsyncs and %d client ops, want %d of each", probe.count[kFsync], len(probe.opLat), want.Ops)
	}
}

// opLog hashes the operation stream the file system receives.
type opLog struct {
	innerFS
	h hash.Hash
}

func (l *opLog) Create(path string) error {
	fmt.Fprintf(l.h, "create %s\n", path)
	return l.innerFS.Create(path)
}

func (l *opLog) Write(path string, off int64, data []byte) error {
	fmt.Fprintf(l.h, "write %s %d %x\n", path, off, sha256.Sum256(data))
	return l.innerFS.Write(path, off, data)
}

func (l *opLog) Read(path string, off int64, buf []byte) (int, error) {
	fmt.Fprintf(l.h, "read %s %d %d\n", path, off, len(buf))
	return l.innerFS.Read(path, off, buf)
}

func (l *opLog) Remove(path string) error {
	fmt.Fprintf(l.h, "remove %s\n", path)
	return l.innerFS.Remove(path)
}

func (l *opLog) Sync() error {
	fmt.Fprintf(l.h, "sync\n")
	return l.innerFS.Sync()
}

// opStream runs a workload and returns the digest of the operations it
// issued.
func opStream(t *testing.T, name string, seed int64) string {
	t.Helper()
	h := sha256.New()
	r := newRep(seed, testScale, false)
	r.intercept = func(in innerFS) innerFS { return &opLog{innerFS: in, h: h} }
	if err := findWorkload(name).run(r); err != nil {
		t.Fatal(err)
	}
	if r.out.failed != 0 {
		t.Fatalf("%s seed %d: %d failed: %v", name, seed, r.out.failed, r.out.problems)
	}
	// End-to-end metrics are never 0.
	values := endToEndValues([]repResult{r.out}, []float64{r.out.setupHost.Seconds()})
	for _, s := range endToEnd {
		if values[s.Name] <= 0 {
			t.Errorf("%s: %s = %v, want a positive value", name, s.Name, values[s.Name])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSeedDeterminesOps(t *testing.T) {
	for _, name := range []string{"smallfile", "largefile", "cleaning"} {
		a, b, c := opStream(t, name, 1), opStream(t, name, 1), opStream(t, name, 2)
		if a != b {
			t.Errorf("%s: the same seed gave two different operation streams", name)
		}
		if a == c {
			t.Errorf("%s: two seeds gave the same operation stream", name)
		}
	}
}

// TestWorkloadsSmoke runs every workload through a whole traced run at
// test scale: untraced repetitions, the traced one with the same
// digest, the baseline arm, the kernels, and a span file. Nothing may
// fail and every per-layer metric must be reported.
func TestWorkloadsSmoke(t *testing.T) {
	out := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		res, err := measure(w, 3, testScale, 0, true, out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: correct=%v failed=%d attempted=%d metrics=%d, want %d metrics and no failure",
				w.name, res.Correct, res.Failed, res.Attempted, len(res.Metrics), len(perLayer))
		}
		if _, err := os.Stat(filepath.Join(out, w.name+".spans.jsonl")); err != nil {
			t.Error(err)
		}
		// The test scale must still reach the cleaner where the
		// benchmark does, and only there.
		if cleaned := res.Metrics["core.segments_cleaned"].Value; (cleaned > 0) != (w.name == "cleaning") {
			t.Errorf("%s: core.segments_cleaned = %v", w.name, cleaned)
		}
	}
	res, err := measure(findWorkload("clients"), 3, testScale, 0, false, out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Errorf("clients untraced: correct=%v, %d metrics, want %d", res.Correct, len(res.Metrics), len(endToEnd))
	}
}

// brokenSync acknowledges its n-th Sync without doing it: the power is
// cut, in effect, before the sync the generator believes in.
type brokenSync struct {
	innerFS
	n int
}

func (b *brokenSync) Sync() error {
	if b.n--; b.n == 0 {
		return nil
	}
	return b.innerFS.Sync()
}

func TestLostFilesAreCounted(t *testing.T) {
	r := newRep(1, testScale, false)
	// smallfile syncs after create, after delete, and once in the
	// recovery tail; losing the third loses the tail's acknowledged
	// files.
	r.intercept = func(in innerFS) innerFS { return &brokenSync{innerFS: in, n: 3} }
	if err := findWorkload("smallfile").run(r); err != nil {
		t.Fatal(err)
	}
	if r.out.failed != tailOps {
		t.Errorf("failed = %d, want the %d acknowledged files the fake sync lost; problems: %v", r.out.failed, tailOps, r.out.problems)
	}
	if r.out.attempted <= r.out.failed {
		t.Errorf("attempted = %d, failed = %d", r.out.attempted, r.out.failed)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 200)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{0.50, 100}, {0.99, 198}, {1.0, 200}, {0.001, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..200, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: layerBench, Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: layerVFS, Start: 10, End: 60},
		{ID: 2, Parent: 1, Layer: layerStore, Start: 20, End: 30},
		{ID: 3, Parent: 1, Layer: layerStore, Start: 30, End: 55},
		{ID: 4, Parent: 0, Layer: layerVFS, Start: 70, End: 80},
		// A child that outlasts its parent (a clock step) must not
		// produce negative time.
		{ID: 5, Parent: 4, Layer: layerStore, Start: 70, End: 95},
	}
	want := []int64{40, 15, 10, 25, 0, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	bl := layerSelf(spans)
	if bl[layerBench] != 40 || bl[layerVFS] != 15 || bl[layerStore] != 60 {
		t.Errorf("layer self times = %v", bl)
	}
	if e := selfTimeError(spans[:5]); e != 0 {
		t.Errorf("self times of a well-nested trace sum to %+v of the root, want exactly the root", e)
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the tables this
// package reports from, and to the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got, want []metricSpec, limit int) {
		if len(got) != len(want) || len(want) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the package, limit %d", kind, len(got), len(want), limit)
		}
		seen := make(map[string]bool)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v, want %+v", kind, i, got[i], want[i])
			}
			if seen[want[i].Name] || len(want[i].Name) > 64 || len(want[i].Unit) > 16 {
				t.Errorf("%s %s: duplicate, or name or unit too long", kind, want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, 16)
	check("per_layer", b.PerLayer, perLayer, 128)
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "cmd/lfsperf" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

package lfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lfs"
	"lfs/internal/experiments"
)

// TestPublicAPIRoundTrip exercises the façade end to end: format,
// mount, file operations, unmount, remount.
func TestPublicAPIRoundTrip(t *testing.T) {
	d := lfs.NewMemDisk(64 << 20)
	cfg := lfs.DefaultConfig()
	if err := lfs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/data/f"); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("abc"), 5000)
	if err := fs.Write("/data/f", 0, want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	fs2, err := lfs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	n, err := fs2.Read("/data/f", 0, got)
	if err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("round trip failed: n=%d err=%v", n, err)
	}
	if _, err := fs2.Stat("/missing"); !errors.Is(err, lfs.ErrNotExist) {
		t.Fatalf("sentinel error not exported correctly: %v", err)
	}
}

// TestPublicAPIBaseline exercises the FFS baseline façade.
func TestPublicAPIBaseline(t *testing.T) {
	d := lfs.NewMemDisk(32 << 20)
	cfg := lfs.DefaultBaselineConfig()
	if err := lfs.FormatBaseline(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := lfs.MountBaseline(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	rep, err := lfs.FsckBaseline(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("fsck problems on clean fs: %v", rep.Problems)
	}
}

// TestOpenImage verifies the file-backed disk path used by the CLI
// tools, including persistence across process-style reopen.
func TestOpenImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := lfs.OpenImage(path, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lfs.DefaultConfig()
	cfg.MaxInodes = 1024
	if err := lfs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/persisted"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := lfs.OpenImage(path, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	fs2, err := lfs.Mount(d2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Stat("/persisted"); err != nil {
		t.Fatalf("image did not persist: %v", err)
	}
}

// TestCleanPolicyNames pins the exported policy constants.
func TestCleanPolicyNames(t *testing.T) {
	if lfs.CleanGreedy.String() != "greedy" || lfs.CleanCostBenefit.String() != "cost-benefit" {
		t.Fatal("policy names changed")
	}
}

func ExampleFormat() {
	d := lfs.NewMemDisk(16 << 20)
	cfg := lfs.DefaultConfig()
	cfg.MaxInodes = 1024
	if err := lfs.Format(d, cfg); err != nil {
		panic(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		panic(err)
	}
	fs.Create("/hello")
	fs.Write("/hello", 0, []byte("world"))
	buf := make([]byte, 5)
	n, _ := fs.Read("/hello", 0, buf)
	fmt.Println(string(buf[:n]))
	// Output: world
}

// TestExperimentTable holds experiments.Table — the one description of
// every experiment — to the files committed beside it. Names are unique;
// every row that names a baseline has its BENCH_*.json in the tree and
// not ignored by git (or the merge gate fails on a fresh clone before it
// compares anything), and no baseline is orphaned. The rows that
// regenerate in well under a second are also run: the report must equal
// that experiment's block of bench_results.txt and the summary the
// committed baseline, byte for byte, so `go test` alone catches drift in
// them; scripts/ci.sh holds the slower rows to the same files.
func TestExperimentTable(t *testing.T) {
	fast := map[string]bool{"fig1": true, "scaling": true, "recovery": true,
		"trace": true, "concurrency": true, "critpath": true, "metrics": true}
	ignored, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("bench_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	baselines := map[string]bool{}
	for _, e := range experiments.Table {
		if e.Name == "" || seen[e.Name] {
			t.Errorf("experiment name %q is empty or repeated", e.Name)
		}
		seen[e.Name] = true
		var committed []byte
		if e.Bench != "" {
			name := "BENCH_" + e.Bench + ".json"
			baselines[name] = true
			if committed, err = os.ReadFile(name); err != nil {
				t.Errorf("%s is gated on %s, which is not in the tree: %v", e.Name, name, err)
			}
			for _, line := range strings.Split(string(ignored), "\n") {
				if strings.TrimPrefix(strings.TrimSpace(line), "/") == name {
					t.Errorf("%s is gated on %s, which .gitignore excludes", e.Name, name)
				}
			}
		}
		if !fast[e.Name] {
			continue
		}
		res, err := e.Run()
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if want := reportBlock(string(golden), e.Name); res.Text != want {
			t.Errorf("%s drifted from bench_results.txt (scripts/ci.sh -update regenerates it)\n--- got ---\n%s--- want ---\n%s",
				e.Name, res.Text, want)
		}
		if e.Bench == "" {
			continue
		}
		var got bytes.Buffer
		if err := experiments.WriteBench(&got, res.Bench); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		if !bytes.Equal(got.Bytes(), committed) {
			t.Errorf("%s drifted from BENCH_%s.json (scripts/ci.sh -update regenerates it)\n--- got ---\n%s--- want ---\n%s",
				e.Name, e.Bench, got.Bytes(), committed)
		}
	}
	committed, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range committed {
		if !baselines[name] {
			t.Errorf("%s is in the tree but no experiment names it", name)
		}
	}
}

// reportBlock returns experiment name's block of bench_results.txt: from
// its "=== name ===" line to the blank line lfsbench prints before the
// next one.
func reportBlock(report, name string) string {
	_, block, _ := strings.Cut(report, "=== "+name+" ===\n")
	if i := strings.Index(block, "\n=== "); i >= 0 {
		return block[:i]
	}
	return strings.TrimSuffix(block, "\n")
}

// TestExperimentsDocQuotesReport holds the EXPERIMENTS.md tables typed
// from bench_results.txt — Figure 5's cleaning rates and §4.4's recovery
// times — to the committed report, each cell at the precision the table
// prints it.
func TestExperimentsDocQuotesReport(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("bench_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	report := string(golden)
	// Figure 5 is one row of rates under a header of utilizations; the
	// report prints a line per utilization, its rate second.
	fig5 := docTable(t, string(doc), "## Figure 5 ")
	rates := reportRows(report, "fig5")
	for i, u := range fig5[0][1:] {
		v, err := strconv.ParseFloat(u, 64)
		if err != nil {
			t.Fatalf("Figure 5 header %q: %v", u, err)
		}
		quoteCell(t, "Figure 5, utilization "+u, fig5[1][i+1], rates[strconv.FormatFloat(v, 'f', 2, 64)], 1)
	}
	// §4.4 has a row per disk size; the report prints the size, the LFS
	// mount, the rolled-forward units and the fsck.
	mounts := reportRows(report, "recovery")
	for _, row := range docTable(t, string(doc), "## §4.4 ")[1:] {
		size := strings.TrimSuffix(row[0], " MB")
		quoteCell(t, "§4.4 LFS mount, "+row[0], row[1], mounts[size], 1)
		quoteCell(t, "§4.4 FFS fsck, "+row[0], row[2], mounts[size], 3)
	}
}

// docTable returns the cells of the first Markdown table after the line
// starting with heading, header row first, separator row dropped and
// bold marks stripped.
func docTable(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	i := strings.Index(doc, "\n"+heading)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no heading %q", heading)
	}
	var rows [][]string
	for _, line := range strings.Split(doc[i+1:], "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			if rows != nil {
				break
			}
			continue
		}
		if strings.HasPrefix(line, "|---") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.Trim(strings.TrimSpace(c), "*"))
		}
		rows = append(rows, cells)
	}
	if len(rows) < 2 {
		t.Fatalf("EXPERIMENTS.md %q: no table rows", heading)
	}
	return rows
}

// reportRows indexes the data lines of experiment name's block of the
// report by their first field.
func reportRows(report, name string) map[string][]string {
	rows := map[string][]string{}
	for _, line := range strings.Split(reportBlock(report, name), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = f
		}
	}
	return rows
}

// quoteCell checks that cell is field col of the report row, rounded to
// as many decimals as cell prints.
func quoteCell(t *testing.T, what, cell string, row []string, col int) {
	t.Helper()
	if col >= len(row) {
		t.Errorf("%s: EXPERIMENTS.md has %q, bench_results.txt has no such row", what, cell)
		return
	}
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Errorf("%s: bench_results.txt field %q: %v", what, row[col], err)
		return
	}
	decimals := 0
	if _, frac, ok := strings.Cut(cell, "."); ok {
		decimals = len(frac)
	}
	if want := strconv.FormatFloat(v, 'f', decimals, 64); cell != want {
		t.Errorf("%s: EXPERIMENTS.md has %s, bench_results.txt has %s", what, cell, want)
	}
}

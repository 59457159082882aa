package lfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lfs"
	"lfs/internal/cache"
	"lfs/internal/disk"
	"lfs/internal/experiments"
	"lfs/internal/sim"
	"lfs/internal/vfs"
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

// TestEpilogueWritesBackAgedBlocks holds both file systems to one rule:
// every operation that reads or changes a file ends with the write-back
// a block dirty for cache.WritebackAge asks for, and Stat, ReadDir and
// a failing operation do not.
func TestEpilogueWritesBackAgedBlocks(t *testing.T) {
	type aged interface {
		vfs.FileSystem
		Clock() *sim.Clock
		Disk() *disk.Disk
	}
	systems := []struct {
		name  string
		mount func(d *lfs.Disk) (aged, error)
		cause disk.IOCause // what a write-back of the dirty block is
	}{
		{"lfs", func(d *lfs.Disk) (aged, error) {
			cfg := lfs.DefaultConfig()
			if err := lfs.Format(d, cfg); err != nil {
				return nil, err
			}
			return lfs.Mount(d, cfg)
		}, disk.CauseLogAppend},
		{"ffs", func(d *lfs.Disk) (aged, error) {
			cfg := lfs.DefaultBaselineConfig()
			if err := lfs.FormatBaseline(d, cfg); err != nil {
				return nil, err
			}
			return lfs.MountBaseline(d, cfg)
		}, disk.CauseWriteback},
	}
	ops := []struct {
		name      string
		run       func(fs aged) error
		writeBack bool
	}{
		{"read", func(fs aged) error { _, err := fs.Read("/a", 0, make([]byte, 10)); return err }, true},
		{"create", func(fs aged) error { return fs.Create("/c") }, true},
		{"mkdir", func(fs aged) error { return fs.Mkdir("/e") }, true},
		{"write", func(fs aged) error { return fs.Write("/b", 0, []byte{1}) }, true},
		{"remove", func(fs aged) error { return fs.Remove("/b") }, true},
		{"link", func(fs aged) error { return fs.Link("/b", "/d/l") }, true},
		{"rename", func(fs aged) error { return fs.Rename("/b", "/d/b") }, true},
		{"truncate", func(fs aged) error { return fs.Truncate("/b", 100) }, true},
		{"stat", func(fs aged) error { _, err := fs.Stat("/a"); return err }, false},
		{"readdir", func(fs aged) error { _, err := fs.ReadDir("/d"); return err }, false},
		{"failing create", func(fs aged) error {
			if err := fs.Create("/b"); !errors.Is(err, vfs.ErrExist) {
				return fmt.Errorf("create of an existing name: %v", err)
			}
			return nil
		}, false},
	}
	for _, sys := range systems {
		for _, op := range ops {
			t.Run(sys.name+"/"+op.name, func(t *testing.T) {
				fs, err := sys.mount(lfs.NewMemDisk(32 << 20))
				if err != nil {
					t.Fatal(err)
				}
				for _, step := range []func() error{
					func() error { return fs.Mkdir("/d") },
					func() error { return fs.Create("/a") },
					func() error { return fs.Create("/b") },
					func() error { return fs.Write("/a", 0, bytes.Repeat([]byte{7}, 8192)) },
					fs.Sync,
					func() error { return fs.Write("/a", 0, []byte{9}) }, // the one dirty block
				} {
					if err := step(); err != nil {
						t.Fatal(err)
					}
				}
				fs.Clock().Advance(cache.WritebackAge)
				writeBacks := func() int64 { return fs.Disk().Stats().ByCause[sys.cause].Requests }
				before := writeBacks()
				if err := op.run(fs); err != nil {
					t.Fatal(err)
				}
				if got := writeBacks() > before; got != op.writeBack {
					t.Fatalf("wrote back the aged block: %v, want %v", got, op.writeBack)
				}
			})
		}
	}
}

// TestOpenImage: an image CreateImage made persists across a reopen at
// its own length.
func TestOpenImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := lfs.CreateImage(path, 16<<20)
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

	d2, err := lfs.OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d2.Capacity(), lfs.ImageBytes(16<<20); got != want {
		t.Errorf("opened at %d bytes, want %d", got, want)
	}
	fs2, err := lfs.Mount(d2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Stat("/persisted"); err != nil {
		t.Fatalf("image did not persist: %v", err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenImageRefusesBadImage: an image cut short of a whole disk is
// refused and keeps its length, and a missing image is refused.
func TestOpenImageRefusesBadImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := lfs.CreateImage(path, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	short := lfs.ImageBytes(16<<20) - 4096
	if err := os.Truncate(path, short); err != nil {
		t.Fatal(err)
	}
	if d, err := lfs.OpenImage(path); err == nil {
		d.Close()
		t.Fatal("a truncated image opened")
	}
	if info, err := os.Stat(path); err != nil || info.Size() != short {
		t.Fatalf("refused image: %v, want %d bytes", err, short)
	}
	if _, err := lfs.OpenImage(filepath.Join(t.TempDir(), "missing.img")); err == nil {
		t.Fatal("a missing image opened")
	}
}

// TestMountRefusesLargerVolume: a volume formatted on 32 MB does not
// mount from its image cut to a whole 16 MB disk, whose end falls inside
// its segment area.
func TestMountRefusesLargerVolume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := lfs.CreateImage(path, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lfs.DefaultConfig()
	cfg.MaxInodes = 1024
	if err := lfs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, lfs.ImageBytes(16<<20)); err != nil {
		t.Fatal(err)
	}
	small, err := lfs.OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if _, err := lfs.Mount(small, cfg); err == nil {
		t.Fatal("a 32 MB volume mounted on a 16 MB disk")
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
// from bench_results.txt — Figures 3, 4 and 5, §3.6's write costs, §3.1's
// CPU scaling, §4.4's recovery times, §5.3's utilization histograms and
// the three ablation tables — to the committed report, each cell at the
// precision the table prints it.
func TestExperimentsDocQuotesReport(t *testing.T) {
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("bench_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	doc, report := string(raw), string(golden)
	number := regexp.MustCompile(`[0-9]+(\.[0-9]+)?`)
	// Figure 3 has a row per phase and a column per file size, each cell
	// "LFS a vs FFS b → r×"; the report prints a line per file system and
	// size, the file count and then the three rates.
	fig3 := reportRows(report, "fig3", 2)
	for _, row := range docTable(t, doc, "## Figure 3 ")[1:] {
		col := map[string]int{"create": 1, "read": 2, "delete": 3}[row[0]]
		for i, size := range []string{"1K", "10K"} {
			what := fmt.Sprintf("Figure 3, %s %s", row[0], size)
			nums := number.FindAllString(row[2+i], -1)
			if col == 0 || len(nums) != 3 {
				t.Errorf("%s: cannot read %q", what, row[2+i])
				continue
			}
			lfs, ffs := fig3.at("LFS "+size, col), fig3.at("SunFFS "+size, col)
			quoteCell(t, what+", LFS", nums[0], lfs)
			quoteCell(t, what+", SunFFS", nums[1], ffs)
			quoteCell(t, what+", ratio", nums[2], lfs/ffs)
		}
	}
	// Figure 4 has a row per phase, LFS then SunFFS, as the report does.
	fig4 := reportRows(report, "fig4", 2)
	for _, row := range docTable(t, doc, "## Figure 4 ")[1:] {
		for i, fs := range []string{"LFS", "SunFFS"} {
			quoteCell(t, "Figure 4, "+row[0]+", "+fs, number.FindString(row[2+i]), fig4.at(row[0], i))
		}
	}
	// Figure 5 is one row of rates under a header of utilizations; the
	// report prints a line per utilization, its rate first after it.
	fig5 := docTable(t, doc, "## Figure 5 ")
	rates := reportRows(report, "fig5", 1)
	for i, u := range fig5[0][1:] {
		quoteCell(t, "Figure 5, utilization "+u, fig5[1][i+1], rates.at(twoPlaces(t, u), 0))
	}
	// §3.6 has a row per cleaner arm under a header of target
	// utilizations; the report prints a line per arm and target, the
	// write cost second after them.
	curve := docTable(t, doc, "## §3.6 ")
	costs := reportRows(report, "cleaning-curve", 2)
	for _, row := range curve[1:] {
		arm := strings.ReplaceAll(strings.ReplaceAll(row[0], " + segregation", "+seg"), " ", "")
		for i, u := range curve[0][1:] {
			quoteCell(t, "§3.6, "+row[0]+" at "+u, row[i+1], costs.at(arm+" "+twoPlaces(t, u), 1))
		}
	}
	// §3.1 has a row per CPU speed, LFS then SunFFS.
	scaling := reportRows(report, "scaling", 2)
	for _, row := range docTable(t, doc, "## §3.1 ")[1:] {
		mips, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			t.Errorf("§3.1 MIPS %q: %v", row[0], err)
		}
		for i, fs := range []string{"LFS", "SunFFS"} {
			key := fs + " " + strconv.FormatFloat(mips, 'f', 1, 64)
			quoteCell(t, "§3.1, "+row[0]+" MIPS, "+fs, row[1+i], scaling.at(key, 0))
		}
	}
	// §4.4 has a row per disk size; the report prints the size, the LFS
	// mount, the rolled-forward units and the fsck.
	mounts := reportRows(report, "recovery", 1)
	for _, row := range docTable(t, doc, "## §4.4 ")[1:] {
		size := strings.TrimSuffix(row[0], " MB")
		quoteCell(t, "§4.4 LFS mount, "+row[0], row[1], mounts.at(size, 0))
		quoteCell(t, "§4.4 FFS fsck, "+row[0], row[2], mounts.at(size, 2))
	}
	// §5.3 has a column per cleaning policy; the report prints a block
	// per policy, each figure where its pattern finds it and each
	// histogram bin as a line led by the bin's label.
	figure := map[string]string{
		"trace time":         `overwrites \((.+)\)`,
		"cleaner runs":       ` (\d+) runs`,
		"segments reclaimed": ` (\d+) segments reclaimed`,
		"mean utilization":   `mean segment utilization: ([0-9.]+)`,
	}
	util := docTable(t, doc, "## §5.3")
	for i, arm := range util[0][1:] {
		_, block, _ := strings.Cut(reportBlock(report, "utilization"), "--- "+arm+" cleaning ---\n")
		block, _, _ = strings.Cut(block, "\n--- ")
		for _, row := range util[1:] {
			pattern, ok := figure[row[0]]
			if !ok {
				pattern = `(?m)^ *` + regexp.QuoteMeta(row[0]) + ` +(\d+)`
			}
			var got string
			if m := regexp.MustCompile(pattern).FindStringSubmatch(block); m != nil {
				got = m[1]
			}
			if got != row[i+1] {
				t.Errorf("§5.3, %s, %s: EXPERIMENTS.md has %q, bench_results.txt has %q", arm, row[0], row[i+1], got)
			}
		}
	}
	// The ablation tables have a column per sweep point and a row per
	// measure; the report prints a line per point, led by the point as
	// key names it, and the measure in column col.
	ablation := func(heading, name string, key func(string) string, col map[string]int) {
		rows := reportRows(report, name, 1)
		table := docTable(t, doc, heading)
		for _, row := range table[1:] {
			c, ok := col[row[0]]
			if !ok {
				t.Errorf("%s: no report column for row %q", heading, row[0])
				continue
			}
			for i, point := range table[0][1:] {
				quoteCell(t, strings.Trim(heading, "*")+", "+row[0]+" at "+point, row[i+1], rows.at(key(point), c))
			}
		}
	}
	// size reads a "4 KB" or "1 MB" column head as bytes.
	size := func(head string) int {
		n, unit, _ := strings.Cut(head, " ")
		v, err := strconv.Atoi(n)
		shift, ok := map[string]int{"KB": 10, "MB": 20}[unit]
		if err != nil || !ok {
			t.Errorf("ablation column %q is not a size", head)
		}
		return v << shift
	}
	ablation("**Segment size**", "ablation-segsize",
		func(h string) string { return fmt.Sprintf("%dKB", size(h)>>10) },
		map[string]int{"log write KB/s": 0})
	ablation("**Block size**", "ablation-blocksize",
		func(h string) string { return fmt.Sprintf("%dB", size(h)) },
		map[string]int{"create/s": 0, "live bytes per user byte": 2})
	ablation("**Checkpoint interval**", "ablation-ckpt",
		func(h string) string { return strings.TrimSuffix(h, " s") },
		map[string]int{"trace throughput (ops/s)": 1, "files lost at crash": 2})
}

// twoPlaces rewrites a utilization as the report prints it.
func twoPlaces(t *testing.T, u string) string {
	t.Helper()
	v, err := strconv.ParseFloat(u, 64)
	if err != nil {
		t.Errorf("utilization %q: %v", u, err)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
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

// reportTable is one experiment's block of the report: each data line's
// fields after its key, as numbers (NaN where a field is not one; a
// "lost/live" field reads as its first number).
type reportTable map[string][]float64

// reportRows indexes the data lines of experiment name's block of the
// report by their first key fields, joined with a space.
func reportRows(report, name string, key int) reportTable {
	rows := reportTable{}
	for _, line := range strings.Split(reportBlock(report, name), "\n") {
		f := strings.Fields(line)
		if len(f) <= key {
			continue
		}
		var vals []float64
		for _, s := range f[key:] {
			s, _, _ = strings.Cut(s, "/")
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				v = math.NaN()
			}
			vals = append(vals, v)
		}
		rows[strings.Join(f[:key], " ")] = vals
	}
	return rows
}

// at returns value col of row key, or NaN when the report has none.
func (r reportTable) at(key string, col int) float64 {
	if row := r[key]; col < len(row) {
		return row[col]
	}
	return math.NaN()
}

// quoteCell checks that cell is v rounded to as many decimals as cell
// prints.
func quoteCell(t *testing.T, what, cell string, v float64) {
	t.Helper()
	if math.IsNaN(v) {
		t.Errorf("%s: EXPERIMENTS.md has %q, bench_results.txt has no such value", what, cell)
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

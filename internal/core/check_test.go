package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/sim"
)

func TestCheckCleanVolume(t *testing.T) {
	_, fs := newPair(t, 32<<20, testConfig())
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("/d/f%d", i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, bytes.Repeat([]byte{byte(i)}, 5000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("problems on clean volume: %v", rep.Problems)
	}
	if rep.Files != 30 || rep.Dirs != 2 {
		t.Fatalf("found %d files, %d dirs", rep.Files, rep.Dirs)
	}
	if rep.Blocks == 0 {
		t.Fatal("no data blocks counted")
	}
}

func TestCheckAfterCleaning(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBlocks = 256
	_, fs := newPair(t, 24<<20, cfg)
	for i := 0; i < 700; i++ {
		p := fmt.Sprintf("/f%d", i)
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(p, 0, bytes.Repeat([]byte{1}, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 700; i += 2 {
		if err := fs.Remove(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.CleanUntil(fs.CleanSegments() + 4); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("problems after cleaning: %v", rep.Problems)
	}
	if rep.Files != 350 {
		t.Fatalf("found %d files, want 350", rep.Files)
	}
}

// TestCrashTortureConsistency crashes the file system at arbitrary
// points of random workloads and requires that the recovered volume
// always passes the consistency check.
func TestCrashTortureConsistency(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := testConfig()
			cfg.CacheBlocks = 128
			d, fs := newPair(t, 24<<20, cfg)
			rng := rand.New(rand.NewSource(seed))
			var live []string
			nextID := 0
			crashAt := 100 + rng.Intn(400)
			for op := 0; op < crashAt; op++ {
				switch r := rng.Intn(100); {
				case r < 40: // create
					p := fmt.Sprintf("/f%d", nextID)
					nextID++
					if err := fs.Create(p); err != nil {
						t.Fatal(err)
					}
					live = append(live, p)
				case r < 70 && len(live) > 0: // write
					p := live[rng.Intn(len(live))]
					data := make([]byte, rng.Intn(20000)+1)
					rng.Read(data)
					if err := fs.Write(p, int64(rng.Intn(30000)), data); err != nil {
						t.Fatal(err)
					}
				case r < 80 && len(live) > 0: // remove
					i := rng.Intn(len(live))
					if err := fs.Remove(live[i]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:i], live[i+1:]...)
				case r < 85 && len(live) > 0: // rename
					i := rng.Intn(len(live))
					dst := fmt.Sprintf("/r%d", nextID)
					nextID++
					if err := fs.Rename(live[i], dst); err != nil {
						t.Fatal(err)
					}
					live[i] = dst
				case r < 88 && len(live) > 0: // hard link
					i := rng.Intn(len(live))
					dst := fmt.Sprintf("/l%d", nextID)
					nextID++
					if err := fs.Link(live[i], dst); err != nil {
						t.Fatal(err)
					}
					live = append(live, dst)
				case r < 93: // sync
					if err := fs.Sync(); err != nil {
						t.Fatal(err)
					}
				default: // checkpoint
					if err := fs.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			fs.Crash()
			recovered, err := core.Mount(d, cfg)
			if err != nil {
				t.Fatalf("remount after crash: %v", err)
			}
			rep, err := recovered.Check()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("inconsistencies after crash recovery:\n%s", strings.Join(rep.Problems, "\n"))
			}
			// Every reachable file must be fully readable.
			entries, err := recovered.ReadDir("/")
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				fi, err := recovered.Stat("/" + e.Name)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, fi.Size)
				if _, err := recovered.Read("/"+e.Name, 0, buf); err != nil {
					t.Fatalf("reading recovered %s: %v", e.Name, err)
				}
			}
		})
	}
}

// TestCrashTortureWithTornWrites adds torn final writes to the mix.
func TestCrashTortureWithTornWrites(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		cfg := testConfig()
		d, fs := newPair(t, 16<<20, cfg)
		rng := rand.New(rand.NewSource(seed + 100))
		for i := 0; i < 50; i++ {
			p := fmt.Sprintf("/f%d", i)
			if err := fs.Create(p); err != nil {
				t.Fatal(err)
			}
			if err := fs.Write(p, 0, bytes.Repeat([]byte{byte(i)}, rng.Intn(8000)+1)); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(10) == 0 {
				if err := fs.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		tearNextWrite(d)
		_ = fs.Sync() // the torn write may or may not surface an error later
		fs.Crash()
		recovered, err := core.Mount(d, cfg)
		if err != nil {
			t.Fatalf("seed %d: remount: %v", seed, err)
		}
		rep, err := recovered.Check()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("seed %d: problems after torn write:\n%s", seed, strings.Join(rep.Problems, "\n"))
		}
	}
}

// TestDumpFormats holds lfsdump -segments on a small deterministic image
// to testdata/dump.golden, and on a damaged copy to
// testdata/dump_damaged.golden: the unit at block 4 has a flipped data
// byte (its line gains the verdict) and the one at block 9 a flipped
// summary byte (a verdict line, and the walk of the segment ends there).
func TestDumpFormats(t *testing.T) {
	d := disk.NewMem(16<<20, sim.NewClock())
	cfg := testConfig()
	if err := core.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/x"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/x", 0, bytes.Repeat([]byte{1}, 9000)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	dumpIs := func(golden string) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := core.Dump(&sb, d, true); err != nil {
			t.Fatal(err)
		}
		if sb.String() != string(want) {
			t.Errorf("dump differs from %s:\n%s", golden, sb.String())
		}
	}
	dumpIs("dump.golden")
	// Segment 0 starts at sector 16; a block is 8 sectors.
	block := func(blk int64) int64 { return 16 + 8*blk }
	if err := d.FlipBits(block(5), 100, 0x04); err != nil {
		t.Fatal(err)
	}
	if err := d.FlipBits(block(9), 70, 0x01); err != nil {
		t.Fatal(err)
	}
	dumpIs("dump_damaged.golden")
}

func TestDumpRejectsUnformatted(t *testing.T) {
	d := disk.NewMem(8<<20, sim.NewClock())
	var sb strings.Builder
	if err := core.Dump(&sb, d, false); err == nil {
		t.Fatal("dump of unformatted disk succeeded")
	}
}

// TestCheckCleanAfterRemount: a freshly remounted volume passes the
// checker (the corruption-detection cases live in the package-internal
// test file, which can sabotage state directly).
func TestCheckCleanAfterRemount(t *testing.T) {
	d, fs := newPair(t, 16<<20, testConfig())
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/f", 0, bytes.Repeat([]byte{1}, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, err := core.Mount(d, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fs2.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("unexpected problems: %v", rep.Problems)
	}
}

func TestDumpImap(t *testing.T) {
	d, fs := newPair(t, 16<<20, testConfig())
	for i := 0; i < 5; i++ {
		if err := fs.Create(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := core.DumpImap(&sb, d); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Root + 5 files.
	if !strings.Contains(out, "6 allocated inodes") {
		t.Fatalf("imap dump:\n%s", out)
	}
	if !strings.Contains(out, "version") {
		t.Fatal("missing header")
	}
}

func TestDumpImapRejectsUnformatted(t *testing.T) {
	d := disk.NewMem(8<<20, sim.NewClock())
	var sb strings.Builder
	if err := core.DumpImap(&sb, d); err == nil {
		t.Fatal("imap dump of unformatted disk succeeded")
	}
}

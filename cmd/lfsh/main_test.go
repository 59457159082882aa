package main

import (
	"os"
	"path/filepath"
	"testing"

	"lfs"
)

func newShell(t *testing.T) *shell {
	t.Helper()
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := lfs.CreateImage(path, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	cfg := lfs.DefaultConfig()
	cfg.MaxInodes = 1024
	if err := lfs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &shell{d: d, cfg: cfg, fs: fs}
}

func TestShellBasicCommands(t *testing.T) {
	sh := newShell(t)
	for _, cmd := range []string{
		"mkdir /docs",
		"write /docs/readme hello world",
		"ls /docs",
		"cat /docs/readme",
		"stat /docs/readme",
		"mv /docs/readme /docs/intro",
		"truncate /docs/intro 5",
		"df",
		"stats",
		"sync",
		"checkpoint",
		"check",
		"help",
	} {
		if err := sh.run(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	if err := sh.run("rm /docs/intro"); err != nil {
		t.Fatal(err)
	}
	if err := sh.run("rm /docs"); err != nil {
		t.Fatal(err)
	}
	if err := sh.run("cat /docs/intro"); err == nil {
		t.Fatal("cat of removed file succeeded")
	}
}

func TestShellPutGet(t *testing.T) {
	sh := newShell(t)
	host := filepath.Join(t.TempDir(), "src.txt")
	if err := os.WriteFile(host, []byte("round trip payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sh.run("put " + host + " /imported"); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "dst.txt")
	if err := sh.run("get /imported " + out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "round trip payload" {
		t.Fatalf("got %q", data)
	}
}

func TestShellCrashAndMount(t *testing.T) {
	sh := newShell(t)
	if err := sh.run("write /pre survived"); err != nil {
		t.Fatal(err)
	}
	if err := sh.run("checkpoint"); err != nil {
		t.Fatal(err)
	}
	if err := sh.run("crash"); err != nil {
		t.Fatal(err)
	}
	// Everything except mount/help is rejected while crashed.
	if err := sh.run("ls /"); err == nil {
		t.Fatal("command ran on crashed machine")
	}
	if err := sh.run("mount"); err != nil {
		t.Fatal(err)
	}
	if err := sh.run("cat /pre"); err != nil {
		t.Fatalf("checkpointed file lost: %v", err)
	}
}

func TestShellCleanCommand(t *testing.T) {
	sh := newShell(t)
	// Make some garbage first.
	for _, cmd := range []string{"mkdir /t", "write /t/a xxxx", "sync", "rm /t/a", "sync"} {
		if err := sh.run(cmd); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.run("clean 1"); err != nil {
		t.Fatal(err)
	}
}

func TestShellErrors(t *testing.T) {
	sh := newShell(t)
	for _, cmd := range []string{
		"bogus",
		"cat",
		"cat /missing",
		"mv onlyone",
		"truncate /x notanumber",
		"mount", // already mounted
	} {
		if err := sh.run(cmd); err == nil {
			t.Fatalf("%q succeeded", cmd)
		}
	}
}

func TestJoin(t *testing.T) {
	if join("/", "a") != "/a" || join("/d", "b") != "/d/b" {
		t.Fatal("join wrong")
	}
}

func TestShellDu(t *testing.T) {
	sh := newShell(t)
	for _, cmd := range []string{"mkdir /d", "write /d/a hello", "du", "du /d"} {
		if err := sh.run(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	if err := sh.run("du /missing"); err == nil {
		t.Fatal("du of missing path succeeded")
	}
}

func TestShellLn(t *testing.T) {
	sh := newShell(t)
	for _, cmd := range []string{"write /a hello", "ln /a /b", "cat /b", "rm /a", "cat /b"} {
		if err := sh.run(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	if err := sh.run("ln /missing /x"); err == nil {
		t.Fatal("ln of missing target succeeded")
	}
}

// TestShellOpensImageOfAnyGeometry: an image formatted with 8 KB blocks,
// 512 KB segments and 1 024 inodes, none of them the default, mounts
// from its superblock and takes a write that survives a remount.
func TestShellOpensImageOfAnyGeometry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := lfs.CreateImage(path, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cfg := lfs.DefaultConfig()
	cfg.BlockSize, cfg.SegmentSize, cfg.MaxInodes = 8192, 512<<10, 1024
	if err := lfs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	sh, err := mountShell(d)
	if err != nil {
		t.Fatal(err)
	}
	if sh.cfg.BlockSize != cfg.BlockSize || sh.cfg.SegmentSize != cfg.SegmentSize || sh.cfg.MaxInodes != cfg.MaxInodes {
		t.Fatalf("shell geometry %d/%d/%d, image %d/%d/%d", sh.cfg.BlockSize, sh.cfg.SegmentSize, sh.cfg.MaxInodes,
			cfg.BlockSize, cfg.SegmentSize, cfg.MaxInodes)
	}
	for _, cmd := range []string{"write /note hello", "sync", "crash", "mount", "cat /note", "check"} {
		if err := sh.run(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
}

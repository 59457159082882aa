// Command lfsck checks an LFS disk image: it mounts the volume (running
// crash recovery) and walks every file reachable from the root, checking
// the namespace (cycles, duplicate names, link counts) and that each
// block a file, an inode or the inode map holds lies in a live segment
// and is held only once. It does not recount the segment usage array.
//
// Usage:
//
//	lfsck -image fs.img -size 300M [-noroll]
//
// Exit status 0 means consistent; 1 means problems were found; 2
// means the image could not be checked at all.
package main

import (
	"flag"
	"fmt"
	"os"

	"lfs"
	"lfs/internal/cli"
)

func main() {
	image := flag.String("image", "", "path of the disk image")
	size := flag.String("size", "300M", "volume capacity the image was created with")
	block := flag.Int("block", 4096, "block size the image was formatted with")
	segment := flag.String("segment", "1M", "segment size the image was formatted with")
	inodes := flag.Int("inodes", 65536, "maximum inodes the image was formatted with")
	noroll := flag.Bool("noroll", false, "skip roll-forward recovery at mount")
	flag.Parse()

	if *image == "" {
		fmt.Fprintln(os.Stderr, "lfsck: -image is required")
		os.Exit(2)
	}
	capacity, err := cli.ParseSize(*size)
	if err != nil {
		fail(err)
	}
	segSize, err := cli.ParseSize(*segment)
	if err != nil {
		fail(err)
	}
	// Opening a missing or short image would silently create or
	// zero-extend it, turning obvious truncation into confusing
	// "corruption" reports — refuse and warn instead.
	info, err := os.Stat(*image)
	if err != nil {
		fail(fmt.Errorf("image: %w", err))
	}
	if want := lfs.ImageBytes(capacity); info.Size() < want {
		fmt.Fprintf(os.Stderr, "lfsck: warning: image is %d bytes, expected %d; the missing tail reads as zeros\n",
			info.Size(), want)
	}
	d, err := lfs.OpenImage(*image, capacity)
	if err != nil {
		fail(err)
	}
	defer d.Close()

	cfg := lfs.DefaultConfig()
	cfg.BlockSize = *block
	cfg.SegmentSize = int(segSize)
	cfg.MaxInodes = *inodes
	cfg.RollForward = !*noroll
	rep, err := lfs.Fsck(d, cfg)
	if err != nil {
		fail(fmt.Errorf("mount: %w", err))
	}
	fmt.Printf("lfsck: %d files, %d directories, %d blocks, %d orphaned inodes (simulated %v)\n",
		rep.Files, rep.Dirs, rep.Blocks, rep.Orphans, rep.Duration)
	if !rep.Ok() {
		for _, p := range rep.Problems {
			fmt.Printf("lfsck: PROBLEM: %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Println("lfsck: clean")
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "lfsck: %v\n", err)
	os.Exit(2)
}

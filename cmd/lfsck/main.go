// Command lfsck checks an LFS disk image: it mounts the volume with the
// geometry its superblock records (running crash recovery) and walks
// every file reachable from the root, checking the namespace (cycles,
// duplicate names, link counts), that every allocated inode is reachable,
// that each block a file, an inode or the inode map holds lies in a live
// segment and is held only once, and that the segment usage array's live
// bytes are what those blocks add up to.
//
// Usage:
//
//	lfsck -image fs.img [-noroll]
//
// The image is opened at its own length; a missing file, or one whose
// length is not a whole disk, is refused and left as it is. Exit
// status 0 means consistent; 1 means problems were found; 2 means the
// image could not be checked at all.
package main

import (
	"flag"
	"fmt"
	"os"

	"lfs"
	"lfs/internal/vfs"
)

func main() {
	image := flag.String("image", "", "path of the disk image")
	noroll := flag.Bool("noroll", false, "skip roll-forward recovery at mount")
	flag.Parse()

	if *image == "" {
		fmt.Fprintln(os.Stderr, "lfsck: -image is required")
		os.Exit(2)
	}
	d, err := lfs.OpenImage(*image)
	if err != nil {
		fail(err)
	}
	defer d.Close()
	rep, err := check(d, !*noroll)
	if err != nil {
		fail(fmt.Errorf("mount: %w", err))
	}
	fmt.Printf("lfsck: %d files, %d directories, %d blocks (simulated %v)\n",
		rep.Files, rep.Dirs, rep.Blocks, rep.Duration)
	if !rep.Ok() {
		for _, p := range rep.Problems {
			fmt.Printf("lfsck: PROBLEM: %s\n", p)
		}
		os.Exit(1)
	}
	fmt.Println("lfsck: clean")
}

// check mounts the volume on d with its superblock's geometry, rolling
// forward unless roll is false, and walks it with the checker.
func check(d *lfs.Disk, roll bool) (*vfs.CheckReport, error) {
	cfg, err := lfs.ImageConfig(d, lfs.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg.RollForward = roll
	return lfs.Fsck(d, cfg)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "lfsck: %v\n", err)
	os.Exit(2)
}

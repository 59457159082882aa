// Command lfsdump prints the on-disk structures of an LFS image: the
// superblock, both checkpoint regions, the segment usage snapshot,
// and — with -segments — a walk of every log unit's summary.
//
// Usage:
//
//	lfsdump -image fs.img [-segments | -imap]
//
// The image is opened at its own length and only read.
package main

import (
	"flag"
	"fmt"
	"os"

	"lfs"
	"lfs/internal/core"
)

func main() {
	image := flag.String("image", "", "path of the disk image")
	segments := flag.Bool("segments", false, "also walk and print every segment's unit summaries")
	imap := flag.Bool("imap", false, "print the inode map of the newest checkpoint instead")
	flag.Parse()

	if *image == "" {
		fmt.Fprintln(os.Stderr, "lfsdump: -image is required")
		os.Exit(2)
	}
	if err := dump(*image, *segments, *imap); err != nil {
		fmt.Fprintf(os.Stderr, "lfsdump: %v\n", err)
		os.Exit(1)
	}
}

func dump(image string, segments, imap bool) error {
	d, err := lfs.OpenImage(image)
	if err != nil {
		return err
	}
	defer d.Close()
	if imap {
		return core.DumpImap(os.Stdout, d)
	}
	return core.Dump(os.Stdout, d, segments)
}

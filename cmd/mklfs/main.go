// Command mklfs formats a disk image file as an empty log-structured
// file system. The volume is formatted into <image>.mklfs beside the
// target and renamed over it only once it is formatted and synced, so
// the image is exactly as long as its volume, and a format that fails
// leaves the target as it was.
//
// Usage:
//
//	mklfs -image fs.img -size 300M [-block 4096] [-segment 1M] [-inodes 65536]
//
// Exit status 2 means the arguments were wrong; 1 means formatting
// failed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lfs"
)

// errUsage marks an error in the arguments.
var errUsage = errors.New("bad arguments")

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "mklfs: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run formats the image args name.
func run(args []string) error {
	flags := flag.NewFlagSet("mklfs", flag.ContinueOnError)
	image := flags.String("image", "", "path of the disk image to create")
	size := flags.String("size", "300M", "total volume capacity (e.g. 64M, 1G)")
	block := flags.Int("block", 4096, "block size in bytes")
	segment := flags.String("segment", "1M", "segment size (e.g. 512K, 1M)")
	inodes := flags.Int("inodes", 65536, "maximum number of inodes")
	if err := flags.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errUsage // the flag set has printed what was wrong
	}

	if *image == "" {
		return fmt.Errorf("%w: -image is required", errUsage)
	}
	capacity, err := parseSize(*size)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	segSize, err := parseSize(*segment)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	cfg := lfs.DefaultConfig()
	cfg.BlockSize = *block
	cfg.SegmentSize = int(segSize)
	cfg.MaxInodes = *inodes
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	tmp := *image + ".mklfs"
	err = format(tmp, capacity, cfg)
	if err == nil {
		err = os.Rename(tmp, *image)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	fmt.Printf("mklfs: formatted %s: %d MB, %d-byte blocks, %d KB segments, %d inodes\n",
		*image, capacity>>20, *block, segSize>>10, *inodes)
	return nil
}

// format creates an image of the given capacity at path, formats cfg's
// volume on it and syncs it.
func format(path string, capacity int64, cfg lfs.Config) error {
	d, err := lfs.CreateImage(path, capacity)
	if err != nil {
		return err
	}
	err = lfs.Format(d, cfg)
	if err == nil {
		err = d.Sync()
	}
	return errors.Join(err, d.Close())
}

// parseSize parses a human-friendly byte size: a plain number, or a
// number suffixed with K, M, or G (binary multiples, case
// insensitive). Examples: "512", "4K", "300M", "1g".
func parseSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if t == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := int64(1)
	switch t[len(t)-1] {
	case 'K':
		mult, t = 1<<10, t[:len(t)-1]
	case 'M':
		mult, t = 1<<20, t[:len(t)-1]
	case 'G':
		mult, t = 1<<30, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if n <= 0 {
		return 0, fmt.Errorf("non-positive size %q", s)
	}
	return n * mult, nil
}

// Command mklfs formats a disk image file as an empty log-structured
// file system. With -shards N it formats N standalone per-shard
// images (fs.shard0.img, fs.shard1.img, ...) that together back a
// sharded multi-log system; each image is an ordinary LFS volume and
// mounts alone (see FORMAT.md). Whatever a target path held before is
// discarded: the image is exactly as long as its volume.
//
// Usage:
//
//	mklfs -image fs.img -size 300M [-block 4096] [-segment 1M] [-inodes 65536] [-backend file|mmap] [-shards N]
//
// Exit status 2 means the arguments were wrong; 1 means formatting
// failed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"lfs"
	"lfs/internal/cli"
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

// run formats the images args name.
func run(args []string) error {
	flags := flag.NewFlagSet("mklfs", flag.ContinueOnError)
	image := flags.String("image", "", "path of the disk image to create")
	size := flags.String("size", "300M", "total volume capacity (e.g. 64M, 1G), split evenly across shards")
	block := flags.Int("block", 4096, "block size in bytes")
	segment := flags.String("segment", "1M", "segment size (e.g. 512K, 1M)")
	inodes := flags.Int("inodes", 65536, "maximum number of inodes (per shard)")
	backend := flags.String("backend", "file", "image store backend: file or mmap")
	shards := flags.Int("shards", 1, "number of shards; above 1, formats one standalone image per shard")
	if err := flags.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errUsage // the flag set has printed what was wrong
	}

	if *image == "" {
		return fmt.Errorf("%w: -image is required", errUsage)
	}
	if *shards < 1 {
		return fmt.Errorf("%w: -shards must be at least 1, got %d", errUsage, *shards)
	}
	be, ok := lfs.ParseStoreBackend(*backend)
	if !ok || (be != lfs.BackendFile && be != lfs.BackendMmap) {
		return fmt.Errorf("%w: unknown image backend %q (want file or mmap)", errUsage, *backend)
	}
	capacity, err := cli.ParseSize(*size)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	segSize, err := cli.ParseSize(*segment)
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

	// One standalone image per shard, on one clock, the total capacity
	// split evenly. Each path is emptied first: the store only extends
	// a file, and a longer one would keep its old tail.
	clock := lfs.NewClock()
	per := capacity / int64(*shards)
	disks := make([]*lfs.Disk, *shards)
	for i := range disks {
		path := *image
		if *shards > 1 {
			path = cli.ShardImagePath(*image, i)
		}
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			return err
		}
		d, err := lfs.NewDiskWithClock(lfs.StoreOptions{Backend: be, Path: path, Capacity: per}, clock)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		defer d.Close()
		disks[i] = d
	}
	if *shards == 1 {
		err = lfs.Format(disks[0], cfg)
	} else {
		err = lfs.FormatSharded(disks, lfs.ShardOptions{Base: cfg})
	}
	if err != nil {
		return err
	}
	for i, d := range disks {
		if err := d.Sync(); err != nil {
			return fmt.Errorf("sync shard %d: %w", i, err)
		}
	}
	if *shards == 1 {
		fmt.Printf("mklfs: formatted %s: %d MB, %d-byte blocks, %d KB segments, %d inodes\n",
			*image, capacity>>20, *block, segSize>>10, *inodes)
		return nil
	}
	fmt.Printf("mklfs: formatted %d shard images %s..%s: %d MB each, %d-byte blocks, %d KB segments, %d inodes per shard\n",
		*shards, cli.ShardImagePath(*image, 0), cli.ShardImagePath(*image, *shards-1),
		per>>20, *block, segSize>>10, *inodes)
	return nil
}

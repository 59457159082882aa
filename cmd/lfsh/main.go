// Command lfsh is an interactive shell on an LFS disk image: create,
// inspect, and remove files; import and export data from the host;
// trigger syncs, checkpoints, and cleaning; simulate a crash and
// watch recovery. The volume's geometry comes from its superblock.
//
// Usage:
//
//	lfsh -image fs.img
//
// The image is opened at its own length, the one mklfs gave it. Type
// "help" at the prompt for the command list.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lfs"
)

func main() {
	image := flag.String("image", "", "path of the disk image")
	flag.Parse()
	if *image == "" {
		fmt.Fprintln(os.Stderr, "lfsh: -image is required")
		os.Exit(2)
	}
	d, err := lfs.OpenImage(*image)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfsh: %v\n", err)
		os.Exit(1)
	}
	defer d.Close()
	sh, err := mountShell(d)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfsh: mount: %v (is the image formatted? try mklfs)\n", err)
		os.Exit(1)
	}
	fmt.Printf("lfsh: mounted %s, %d clean segments; type 'help'\n", *image, sh.fs.CleanSegments())

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("lfs> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if err := sh.run(line); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
	if sh.mounted() {
		if err := sh.fs.Unmount(); err != nil {
			fmt.Fprintf(os.Stderr, "lfsh: unmount: %v\n", err)
		}
	}
}

// mountShell mounts the volume on d with its superblock's geometry.
func mountShell(d *lfs.Disk) (*shell, error) {
	cfg, err := lfs.ImageConfig(d, lfs.DefaultConfig())
	if err != nil {
		return nil, err
	}
	fs, err := lfs.Mount(d, cfg)
	return &shell{d: d, cfg: cfg, fs: fs}, err
}

type shell struct {
	d   *lfs.Disk
	cfg lfs.Config
	fs  *lfs.FS
	// crashed marks the period between "crash" and "mount".
	crashed bool
}

func (s *shell) mounted() bool { return !s.crashed }

func (s *shell) run(line string) error {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	if s.crashed && cmd != "mount" && cmd != "help" {
		return fmt.Errorf("the machine has crashed; 'mount' to recover")
	}
	switch cmd {
	case "help":
		fmt.Print(helpText)
	case "ls":
		path := "/"
		if len(args) > 0 {
			path = args[0]
		}
		entries, err := s.fs.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			child := join(path, e.Name)
			fi, err := s.fs.Stat(child)
			if err != nil {
				return err
			}
			kind := "-"
			if fi.IsDir() {
				kind = "d"
			}
			fmt.Printf("%s ino=%-6d %10d  %s\n", kind, fi.Ino, fi.Size, e.Name)
		}
	case "cat":
		if len(args) != 1 {
			return fmt.Errorf("usage: cat <path>")
		}
		fi, err := s.fs.Stat(args[0])
		if err != nil {
			return err
		}
		buf := make([]byte, fi.Size)
		n, err := s.fs.Read(args[0], 0, buf)
		if err != nil {
			return err
		}
		os.Stdout.Write(buf[:n])
		if n > 0 && buf[n-1] != '\n' {
			fmt.Println()
		}
	case "write":
		if len(args) < 2 {
			return fmt.Errorf("usage: write <path> <text...>")
		}
		text := strings.Join(args[1:], " ") + "\n"
		if _, err := s.fs.Stat(args[0]); err != nil {
			if err := s.fs.Create(args[0]); err != nil {
				return err
			}
		}
		return s.fs.Write(args[0], 0, []byte(text))
	case "put":
		if len(args) != 2 {
			return fmt.Errorf("usage: put <hostfile> <path>")
		}
		data, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		if _, err := s.fs.Stat(args[1]); err != nil {
			if err := s.fs.Create(args[1]); err != nil {
				return err
			}
		} else if err := s.fs.Truncate(args[1], 0); err != nil {
			return err
		}
		return s.fs.Write(args[1], 0, data)
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <path> <hostfile>")
		}
		fi, err := s.fs.Stat(args[0])
		if err != nil {
			return err
		}
		buf := make([]byte, fi.Size)
		n, err := s.fs.Read(args[0], 0, buf)
		if err != nil {
			return err
		}
		return os.WriteFile(args[1], buf[:n], 0o644)
	case "mkdir":
		if len(args) != 1 {
			return fmt.Errorf("usage: mkdir <path>")
		}
		return s.fs.Mkdir(args[0])
	case "rm":
		if len(args) != 1 {
			return fmt.Errorf("usage: rm <path>")
		}
		return s.fs.Remove(args[0])
	case "mv":
		if len(args) != 2 {
			return fmt.Errorf("usage: mv <old> <new>")
		}
		return s.fs.Rename(args[0], args[1])
	case "ln":
		if len(args) != 2 {
			return fmt.Errorf("usage: ln <target> <newname>")
		}
		return s.fs.Link(args[0], args[1])
	case "truncate":
		if len(args) != 2 {
			return fmt.Errorf("usage: truncate <path> <size>")
		}
		n, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return err
		}
		return s.fs.Truncate(args[0], n)
	case "stat":
		if len(args) != 1 {
			return fmt.Errorf("usage: stat <path>")
		}
		fi, err := s.fs.Stat(args[0])
		if err != nil {
			return err
		}
		fmt.Printf("ino=%d dir=%v size=%d nlink=%d mtime=%v atime=%v\n",
			fi.Ino, fi.IsDir(), fi.Size, fi.Nlink, fi.Mtime, fi.Atime)
	case "du":
		path := "/"
		if len(args) > 0 {
			path = args[0]
		}
		bytes, files, dirs, err := lfs.TreeSize(s.fs, path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %.1f MB in %d files, %d directories\n",
			path, float64(bytes)/(1<<20), files, dirs)
	case "df":
		fmt.Printf("capacity: %d MB, live: %.1f MB, clean segments: %d\n",
			s.d.Capacity()>>20, float64(s.fs.LiveBytes())/(1<<20), s.fs.CleanSegments())
	case "stats":
		snap := s.fs.StatsSnapshot()
		st := snap.Log
		fmt.Printf("units=%d blocks=%d sealed=%d checkpoints=%d cleanerRuns=%d cleaned=%d\n",
			st.UnitsWritten, st.BlocksWritten, st.SegmentsSealed, st.Checkpoints, st.CleanerRuns, st.SegmentsCleaned)
		fmt.Printf("disk: %v\n", snap.Disk)
		if st.SegmentsCleaned > 0 {
			fmt.Printf("cleaner write cost: %.2f\n", snap.WriteCost())
		}
		fmt.Printf("clock: %v\n", snap.Time)
	case "sync":
		return s.fs.Sync()
	case "checkpoint":
		return s.fs.Checkpoint()
	case "clean":
		target := s.fs.CleanSegments() + 1
		if len(args) > 0 {
			n, err := strconv.Atoi(args[0])
			if err != nil {
				return err
			}
			target = s.fs.CleanSegments() + n
		}
		res, err := s.fs.CleanUntil(target)
		if err != nil {
			return err
		}
		fmt.Printf("cleaned %d segments, %d live blocks copied, %.1f MB reclaimed\n",
			res.SegmentsCleaned, res.LiveCopied, float64(res.BytesReclaimed)/(1<<20))
	case "check":
		rep, err := s.fs.Check()
		if err != nil {
			return err
		}
		fmt.Printf("%d files, %d dirs, %d blocks, %d problems\n",
			rep.Files, rep.Dirs, rep.Blocks, len(rep.Problems))
		for _, p := range rep.Problems {
			fmt.Printf("  PROBLEM: %s\n", p)
		}
	case "crash":
		s.fs.Crash()
		s.crashed = true
		fmt.Println("machine crashed; unwritten cache contents are gone. 'mount' to recover")
	case "mount":
		if !s.crashed {
			return fmt.Errorf("already mounted")
		}
		before := s.d.Clock().Now()
		fs, err := lfs.Mount(s.d, s.cfg)
		if err != nil {
			return err
		}
		s.fs = fs
		s.crashed = false
		fmt.Printf("recovered in %v of simulated time (%d units rolled forward)\n",
			s.d.Clock().Now().Sub(before), fs.StatsSnapshot().Log.RollForwardUnits)
	default:
		return fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
	return nil
}

const helpText = `commands:
  ls [path]            list a directory
  cat <path>           print a file
  write <path> <text>  write text to a file (creates it)
  put <host> <path>    import a host file
  get <path> <host>    export to a host file
  mkdir <path>         create a directory
  rm <path>            remove a file or empty directory
  mv <old> <new>       rename
  ln <target> <new>    hard link
  truncate <path> <n>  set file length
  stat <path>          file details
  du [path]            tree size
  df                   space usage
  stats                storage manager counters
  sync                 force a segment write
  checkpoint           write a checkpoint region
  clean [n]            reclaim n segments (default 1)
  check                consistency check
  crash                simulate a machine crash
  mount                recover after a crash
  quit                 checkpoint and exit
`

// join appends a name to a directory path.
func join(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

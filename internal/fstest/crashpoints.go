package fstest

// Crash-point enumeration: run a workload once to count its disk
// writes, then replay it against a fresh image for every write k with
// power cut during write k, and require full recovery each time. This
// verifies the paper's §4.4 claim — after any crash LFS restores a
// consistent state from the checkpoint regions plus a roll-forward of
// the log tail — at every crash point instead of a few hand-picked
// ones.
//
// Replays are deterministic because the simulated clock, the disk
// model, and the segment writer are: an identical operation stream
// produces an identical disk-write stream, so "cut power during write
// k" lands at the same point in the file system's life every time.
//
// Two execution strategies produce the same report. The snapshot path
// (default) records the workload once on a copy-on-write store, taking
// an O(1) snapshot before every disk write; each crash point then
// restores the pre-write image — plus the fatal write's torn prefix,
// when tearing — and runs recovery directly, making the sweep
// O(points) instead of O(points × writes). The replay path
// (CrashConfig.Replay, the original behaviour) re-runs the workload
// for every point; it needs no snapshot capability and cross-checks
// the snapshot path in tests.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/sim"
)

// CrashOpKind enumerates the operations a crash-point workload can
// perform.
type CrashOpKind int

const (
	// OpCreate makes an empty file at Path.
	OpCreate CrashOpKind = iota
	// OpMkdir makes a directory at Path.
	OpMkdir
	// OpWrite writes Data at Off in Path.
	OpWrite
	// OpRemove unlinks Path.
	OpRemove
	// OpTruncate resizes Path to Size.
	OpTruncate
	// OpSync flushes all dirty data to the log.
	OpSync
	// OpCheckpoint forces a checkpoint; state as of this step must
	// survive any later crash.
	OpCheckpoint
	// OpClean runs one cleaner pass.
	OpClean
)

// CrashOp is one scripted step of a crash-point workload. Steps are
// scripted (rather than an opaque function) so the harness can keep an
// exact shadow history of every path and check recovered state
// against it.
type CrashOp struct {
	Kind CrashOpKind
	Path string
	Off  int64
	Data []byte
	Size int64
}

// CrashConfig configures a crash-point enumeration run.
type CrashConfig struct {
	// FSConfig is the file system configuration (RollForward should
	// be on; the harness derives the checkpoint-only configuration
	// itself).
	FSConfig core.Config
	// DiskCapacity is the simulated disk size in bytes.
	DiskCapacity int64
	// Workload is the scripted operation sequence.
	Workload []CrashOp
	// Torn tears the fatal write at its sector-boundary midpoint
	// instead of losing it whole, exercising torn checkpoint regions
	// and partially written log units.
	Torn bool
	// Stride tests every Stride-th crash point (default 1: all).
	Stride int
	// MaxPoints caps the number of crash points tested (0: no cap).
	MaxPoints int
	// Replay forces the O(points × writes) replay strategy instead of
	// snapshot-restore — the pre-snapshot behaviour, kept for
	// cross-checking and benchmarking the two paths.
	Replay bool
}

// CrashFailure is one recovery invariant violation at one crash point.
type CrashFailure struct {
	// CutWrite is the 1-based disk write during which power was cut.
	CutWrite int64
	// Torn reports whether the fatal write was torn rather than lost.
	Torn bool
	// Stage names the failed step: "replay", "mount-noroll",
	// "check-noroll", "mount", "check", "content", "unmount", "fsck".
	Stage string
	// Detail describes the violation.
	Detail string
}

func (f CrashFailure) String() string {
	kind := "lost"
	if f.Torn {
		kind = "torn"
	}
	return fmt.Sprintf("crash at write %d (%s): [%s] %s", f.CutWrite, kind, f.Stage, f.Detail)
}

// CrashReport summarises a crash-point enumeration.
type CrashReport struct {
	// TotalWrites is the number of disk writes the workload issued.
	TotalWrites int64
	// Points is the number of crash points replayed.
	Points int
	// RollForwardPoints counts crash points where recovery replayed
	// at least one log unit beyond the checkpoint.
	RollForwardPoints int
	// SnapshotPoints counts crash points reconstructed by restoring a
	// copy-on-write snapshot rather than replaying the workload.
	SnapshotPoints int
	// OpsExecuted counts the workload operations run to reconstruct the
	// sweep's post-crash images: the recording pass, plus on the replay
	// path every point's prefix up to and including the fatal operation.
	// It is the work the two strategies differ in, free of wall-clock
	// noise.
	OpsExecuted int64
	// Failures lists every invariant violation found.
	Failures []CrashFailure
}

// Ok reports whether every crash point recovered cleanly.
func (r *CrashReport) Ok() bool { return len(r.Failures) == 0 }

// crashState is a point-in-time shadow state of one path.
type crashState struct {
	exists  bool
	isDir   bool
	content []byte
}

func (s crashState) describe() string {
	switch {
	case !s.exists:
		return "absent"
	case s.isDir:
		return "directory"
	default:
		return fmt.Sprintf("file of %d bytes", len(s.content))
	}
}

func (s crashState) equal(o crashState) bool {
	if s.exists != o.exists {
		return false
	}
	if !s.exists {
		return true
	}
	return s.isDir == o.isDir && (s.isDir || bytes.Equal(s.content, o.content))
}

// crashHistory is the full version history of one path: the state it
// entered at each workload step that changed it. Step -1 is the
// pre-workload state.
type crashHistory struct {
	steps  []int
	states []crashState
}

func (h *crashHistory) record(step int, st crashState) {
	if n := len(h.steps); n > 0 && h.steps[n-1] == step {
		h.states[n-1] = st
		return
	}
	h.steps = append(h.steps, step)
	h.states = append(h.states, st)
}

// at returns the state in effect after the given step.
func (h *crashHistory) at(step int) crashState {
	st := crashState{}
	for i, s := range h.steps {
		if s > step {
			break
		}
		st = h.states[i]
	}
	return st
}

// window returns every distinct state the path held between floor and
// last inclusive — the states recovery is allowed to restore when the
// newest durable checkpoint covers step floor.
func (h *crashHistory) window(floor, last int) []crashState {
	out := []crashState{h.at(floor)}
	for i, s := range h.steps {
		if s > floor && s <= last {
			out = append(out, h.states[i])
		}
	}
	return out
}

// RunCrashPoints records the workload's write stream, then replays it
// with a power cut at each crash point and verifies recovery. It
// returns an error only when the harness itself cannot run (the
// recording pass fails); recovery violations are reported in the
// CrashReport.
func RunCrashPoints(cfg CrashConfig) (*CrashReport, error) {
	r := &crashRunner{cfg: cfg, lastStep: len(cfg.Workload) - 1}
	if err := r.recordPass(); err != nil {
		return nil, err
	}
	rep := &CrashReport{TotalWrites: r.totalWrites}
	stride := cfg.Stride
	if stride < 1 {
		stride = 1
	}
	for k := int64(1); k <= r.totalWrites; k += int64(stride) {
		if cfg.MaxPoints > 0 && rep.Points >= cfg.MaxPoints {
			break
		}
		rep.Points++
		var rolled bool
		var fails []CrashFailure
		if r.rec != nil {
			rep.SnapshotPoints++
			rolled, fails = r.snapshotPoint(k)
		} else {
			rolled, fails = r.replayPoint(k)
		}
		if rolled {
			rep.RollForwardPoints++
		}
		rep.Failures = append(rep.Failures, fails...)
	}
	rep.OpsExecuted = r.opsExecuted
	r.release()
	return rep, nil
}

// crashRunner carries the recording-pass results across crash points.
type crashRunner struct {
	cfg      CrashConfig
	lastStep int

	histories   map[string]*crashHistory
	totalWrites int64
	opsExecuted int64 // see CrashReport.OpsExecuted
	// stepWrites[i] and stepCkpts[i] are the cumulative disk-write
	// and checkpoint counts after workload step i.
	stepWrites []int64
	stepCkpts  []int64
	baseCkpts  int64

	// geom is the recording volume's geometry, shared by every
	// snapshot-path recovery disk.
	geom disk.Geometry
	// base is the copy-on-write store the recording pass ran on;
	// rec is the wrapper that captured one snapshot per disk write.
	// Both are nil on the replay path.
	base *disk.CowMemStore
	rec  *snapRecorder
}

// snapRecorder wraps the recording store: once armed, it captures a
// copy-on-write snapshot immediately before every write — the image a
// crash during that write starts from — plus, when tearing, the prefix
// of the write that would survive (CrashPlan keeps the leading half,
// rounded down to a sector boundary).
type snapRecorder struct {
	disk.Store                 // the underlying CowMemStore
	snaps      []disk.Snapshot // snaps[k-1] = image before write k
	prefixes   [][]byte        // torn prefix of write k (nil entries when not tearing)
	prefixOffs []int64
	armed      bool
	torn       bool
	err        error // first snapshot failure, checked after recording
}

// WriteAt snapshots the pre-write image, then applies the write.
func (s *snapRecorder) WriteAt(p []byte, off int64) error {
	if s.armed && s.err == nil {
		sn, err := s.Store.(disk.Snapshotter).Snapshot()
		if err != nil {
			s.err = err
		} else {
			s.snaps = append(s.snaps, sn)
			var prefix []byte
			if s.torn {
				if keep := len(p) / disk.SectorSize / 2 * disk.SectorSize; keep > 0 {
					prefix = append([]byte(nil), p[:keep]...)
				}
			}
			s.prefixes = append(s.prefixes, prefix)
			s.prefixOffs = append(s.prefixOffs, off)
		}
	}
	return s.Store.WriteAt(p, off)
}

// release frees the recorded snapshots.
func (r *crashRunner) release() {
	if r.rec == nil {
		return
	}
	for _, sn := range r.rec.snaps {
		sn.Release()
	}
	r.base.Close()
	r.rec = nil
}

// freshImage formats a new volume and mounts it, returning the disk
// and file system. Format and mount writes precede the fault policy,
// so write numbering starts at the first workload-induced write.
func (r *crashRunner) freshImage() (*disk.Disk, *core.FS, error) {
	d := disk.NewMem(r.cfg.DiskCapacity, sim.NewClock())
	if err := core.Format(d, r.cfg.FSConfig); err != nil {
		return nil, nil, fmt.Errorf("fstest: format: %w", err)
	}
	fs, err := core.Mount(d, r.cfg.FSConfig)
	if err != nil {
		return nil, nil, fmt.Errorf("fstest: mount: %w", err)
	}
	return d, fs, nil
}

// recordPass runs the workload fault-free, counting writes and
// checkpoints per step and building the shadow history of every path.
// On the snapshot path the volume lives on a copy-on-write store and
// every disk write leaves behind the image a crash during it would
// start from.
func (r *crashRunner) recordPass() error {
	var d *disk.Disk
	var fs *core.FS
	var err error
	if r.cfg.Replay {
		d, fs, err = r.freshImage()
		if err != nil {
			return err
		}
	} else {
		r.geom = disk.GeometryForCapacity(r.cfg.DiskCapacity)
		r.base = disk.NewCowMemStore(r.geom.TotalBytes())
		r.rec = &snapRecorder{Store: r.base, torn: r.cfg.Torn}
		d, err = disk.New(r.rec, r.geom, disk.WrenIVModel(), sim.NewClock())
		if err != nil {
			return fmt.Errorf("fstest: recording disk: %w", err)
		}
		if err := core.Format(d, r.cfg.FSConfig); err != nil {
			return fmt.Errorf("fstest: format: %w", err)
		}
		fs, err = core.Mount(d, r.cfg.FSConfig)
		if err != nil {
			return fmt.Errorf("fstest: mount: %w", err)
		}
		r.rec.armed = true // snapshot numbering matches policy write numbering from here
	}
	d.SetFaultPolicy(&disk.CrashPlan{}) // pure sequence counter
	r.baseCkpts = fs.Stats().Checkpoints
	r.histories = make(map[string]*crashHistory)
	r.recordState(-1, "/", crashState{exists: true, isDir: true})
	cur := map[string]crashState{"/": {exists: true, isDir: true}}
	r.stepWrites = make([]int64, len(r.cfg.Workload))
	r.stepCkpts = make([]int64, len(r.cfg.Workload))
	for i, op := range r.cfg.Workload {
		r.opsExecuted++
		if err := applyCrashOp(fs, op); err != nil {
			return fmt.Errorf("fstest: recording step %d: %w", i, err)
		}
		r.applyShadow(cur, i, op)
		r.stepWrites[i] = d.PolicyWrites()
		r.stepCkpts[i] = fs.Stats().Checkpoints
	}
	r.totalWrites = d.PolicyWrites()
	if r.rec != nil {
		r.rec.armed = false
		if r.rec.err != nil {
			return fmt.Errorf("fstest: snapshotting the recording pass: %w", r.rec.err)
		}
		if int64(len(r.rec.snaps)) != r.totalWrites {
			return fmt.Errorf("fstest: recorded %d snapshots for %d writes", len(r.rec.snaps), r.totalWrites)
		}
	}
	return nil
}

func (r *crashRunner) recordState(step int, path string, st crashState) {
	h := r.histories[path]
	if h == nil {
		h = &crashHistory{}
		r.histories[path] = h
	}
	h.record(step, st)
}

// applyShadow mirrors one op into the shadow model.
func (r *crashRunner) applyShadow(cur map[string]crashState, step int, op CrashOp) {
	switch op.Kind {
	case OpCreate:
		st := crashState{exists: true, content: []byte{}}
		cur[op.Path] = st
		r.recordState(step, op.Path, st)
	case OpMkdir:
		st := crashState{exists: true, isDir: true}
		cur[op.Path] = st
		r.recordState(step, op.Path, st)
	case OpWrite:
		prev := cur[op.Path].content
		end := op.Off + int64(len(op.Data))
		n := int64(len(prev))
		if end > n {
			n = end
		}
		content := make([]byte, n)
		copy(content, prev)
		copy(content[op.Off:], op.Data)
		st := crashState{exists: true, content: content}
		cur[op.Path] = st
		r.recordState(step, op.Path, st)
	case OpTruncate:
		prev := cur[op.Path].content
		content := make([]byte, op.Size)
		copy(content, prev)
		st := crashState{exists: true, content: content}
		cur[op.Path] = st
		r.recordState(step, op.Path, st)
	case OpRemove:
		cur[op.Path] = crashState{}
		r.recordState(step, op.Path, crashState{})
	}
}

// applyCrashOp performs one workload step against the file system.
func applyCrashOp(fs *core.FS, op CrashOp) error {
	switch op.Kind {
	case OpCreate:
		return fs.Create(op.Path)
	case OpMkdir:
		return fs.Mkdir(op.Path)
	case OpWrite:
		return fs.Write(op.Path, op.Off, op.Data)
	case OpRemove:
		return fs.Remove(op.Path)
	case OpTruncate:
		return fs.Truncate(op.Path, op.Size)
	case OpSync:
		return fs.Sync()
	case OpCheckpoint:
		return fs.Checkpoint()
	case OpClean:
		_, err := fs.CleanOnce()
		return err
	}
	return fmt.Errorf("fstest: unknown op kind %d", op.Kind)
}

// floorFor returns the newest workload step whose checkpoint is
// guaranteed durable when writes 1..k-1 persisted: a checkpoint
// completed during that step and every write up to the step's end
// reached disk. Step -1 (the formatted empty volume) is always
// durable. The floor is conservative — a checkpoint inside step i
// whose region write persisted but whose step issued later writes
// is not counted — which only weakens the assertion, never makes it
// wrong.
func (r *crashRunner) floorFor(k int64) int {
	floor := -1
	prev := r.baseCkpts
	for i := range r.stepCkpts {
		if r.stepCkpts[i] > prev && r.stepWrites[i] <= k-1 {
			floor = i
		}
		prev = r.stepCkpts[i]
	}
	return floor
}

// replayPoint replays the workload with power cut during write k and
// verifies recovery. It reports whether recovery rolled forward past
// the checkpoint, plus any invariant violations.
func (r *crashRunner) replayPoint(k int64) (rolledForward bool, fails []CrashFailure) {
	fail := func(stage, format string, args ...any) {
		fails = append(fails, CrashFailure{
			CutWrite: k, Torn: r.cfg.Torn, Stage: stage,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	d, fs, err := r.freshImage()
	if err != nil {
		fail("replay", "%v", err)
		return false, fails
	}
	d.SetFaultPolicy(&disk.CrashPlan{CutWrite: k, TearFatalWrite: r.cfg.Torn})
	crashed := false
	for i, op := range r.cfg.Workload {
		r.opsExecuted++
		if err := applyCrashOp(fs, op); err != nil {
			if errors.Is(err, disk.ErrPowerLoss) {
				crashed = true
				break
			}
			fail("replay", "step %d failed with a non-crash error: %v", i, err)
			return false, fails
		}
	}
	if !crashed {
		fail("replay", "power cut never fired: replay diverged from the recording pass")
		return false, fails
	}
	// Reboot: the device comes back with whatever persisted; the old
	// FS instance is dead memory.
	d.Thaw()
	d.SetFaultPolicy(nil)
	return r.verifyRecovery(d, k)
}

// snapshotPoint reconstructs the post-crash image for write k by
// restoring the pre-write snapshot — plus the fatal write's surviving
// prefix, when tearing — and verifies recovery on it directly, without
// re-running the workload.
func (r *crashRunner) snapshotPoint(k int64) (rolledForward bool, fails []CrashFailure) {
	fail := func(stage, format string, args ...any) {
		fails = append(fails, CrashFailure{
			CutWrite: k, Torn: r.cfg.Torn, Stage: stage,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	if err := r.rec.snaps[k-1].Restore(); err != nil {
		fail("restore", "restoring the pre-write image: %v", err)
		return false, fails
	}
	if prefix := r.rec.prefixes[k-1]; len(prefix) > 0 {
		if err := r.base.WriteAt(prefix, r.rec.prefixOffs[k-1]); err != nil {
			fail("restore", "applying the torn prefix: %v", err)
			return false, fails
		}
	}
	// Reboot onto the reconstructed image: a fresh device and clock,
	// exactly as a replayed crash leaves behind.
	d, err := disk.New(r.base, r.geom, disk.WrenIVModel(), sim.NewClock())
	if err != nil {
		fail("restore", "reopening the device: %v", err)
		return false, fails
	}
	return r.verifyRecovery(d, k)
}

// verifyRecovery runs the recovery invariants against a device holding
// the post-crash image: checkpoint-only mount must be consistent, full
// recovery must mount and check clean, recovered contents must be
// explainable by the shadow history, and the unmounted image must pass
// fsck. Both crash-point strategies share it.
func (r *crashRunner) verifyRecovery(d *disk.Disk, k int64) (rolledForward bool, fails []CrashFailure) {
	fail := func(stage, format string, args ...any) {
		fails = append(fails, CrashFailure{
			CutWrite: k, Torn: r.cfg.Torn, Stage: stage,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	// (1) Checkpoint-only recovery. Mounting without roll-forward
	// reads only the checkpoint regions and the structures they name,
	// writes nothing, and must already yield a consistent tree —
	// the paper's base recovery guarantee.
	noroll := r.cfg.FSConfig
	noroll.RollForward = false
	if fsNR, err := core.Mount(d, noroll); err != nil {
		fail("mount-noroll", "checkpoint-only mount failed: %v", err)
	} else if chk, err := fsNR.Check(); err != nil {
		fail("check-noroll", "checker failed: %v", err)
	} else if !chk.Ok() {
		fail("check-noroll", "%s", strings.Join(chk.Problems, "; "))
	}

	// (2) Full recovery: checkpoint plus roll-forward.
	fs2, err := core.Mount(d, r.cfg.FSConfig)
	if err != nil {
		fail("mount", "recovery mount failed: %v", err)
		return false, fails
	}
	rolledForward = fs2.Stats().RollForwardUnits > 0
	if chk, err := fs2.Check(); err != nil {
		fail("check", "checker failed: %v", err)
	} else if !chk.Ok() {
		fail("check", "%s", strings.Join(chk.Problems, "; "))
	}

	// (3) Recovered contents must be explainable: every path must be
	// in some state it actually held at or after the durable floor,
	// and nothing acknowledged by the floor checkpoint may be lost.
	fails = append(fails, r.verifyContent(fs2, k)...)

	// (4) The offline-tool path: unmount (stabilising recovery with a
	// checkpoint), then fsck the image exactly as cmd/lfsck would.
	if err := fs2.Unmount(); err != nil {
		fail("unmount", "%v", err)
		return rolledForward, fails
	}
	if chk, err := core.Fsck(d, r.cfg.FSConfig); err != nil {
		fail("fsck", "%v", err)
	} else if !chk.Ok() {
		fail("fsck", "%s", strings.Join(chk.Problems, "; "))
	}
	return rolledForward, fails
}

// verifyContent walks the recovered tree and checks every path —
// recovered or shadow-known — against the shadow history window
// [floor, lastStep].
func (r *crashRunner) verifyContent(fs *core.FS, k int64) []CrashFailure {
	var fails []CrashFailure
	fail := func(format string, args ...any) {
		fails = append(fails, CrashFailure{
			CutWrite: k, Torn: r.cfg.Torn, Stage: "content",
			Detail: fmt.Sprintf(format, args...),
		})
	}
	recovered := map[string]crashState{}
	if err := collectTree(fs, "/", recovered); err != nil {
		fail("walking the recovered tree: %v", err)
		return fails
	}
	floor := r.floorFor(k)

	paths := make([]string, 0, len(r.histories))
	for p := range r.histories {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		h := r.histories[p]
		got := recovered[p]
		allowed := h.window(floor, r.lastStep)
		ok := false
		for _, st := range allowed {
			if got.equal(st) {
				ok = true
				break
			}
		}
		if !ok {
			fail("%s: recovered as %s, which matches no state the path held between durable step %d and step %d (floor state: %s)",
				p, got.describe(), floor, r.lastStep, h.at(floor).describe())
		}
	}
	// Unknown-path failures report in sorted order too: CrashFailure
	// details feed test output and goldens, so they must not inherit
	// map iteration order.
	unknown := make([]string, 0, len(recovered))
	for p := range recovered {
		unknown = append(unknown, p)
	}
	sort.Strings(unknown)
	for _, p := range unknown {
		if _, known := r.histories[p]; !known {
			fails = append(fails, CrashFailure{
				CutWrite: k, Torn: r.cfg.Torn, Stage: "content",
				Detail: p + ": recovered but never created by the workload",
			})
		}
	}
	return fails
}

// collectTree reads the full recovered tree into out.
func collectTree(fs *core.FS, path string, out map[string]crashState) error {
	entries, err := fs.ReadDir(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	out[path] = crashState{exists: true, isDir: true}
	for _, e := range entries {
		child := path + "/" + e.Name
		if path == "/" {
			child = "/" + e.Name
		}
		info, err := fs.Stat(child)
		if err != nil {
			return fmt.Errorf("%s: %w", child, err)
		}
		if info.Mode.IsDir() {
			if err := collectTree(fs, child, out); err != nil {
				return err
			}
			continue
		}
		content := make([]byte, info.Size)
		if info.Size > 0 {
			if _, err := fs.Read(child, 0, content); err != nil {
				return fmt.Errorf("%s: %w", child, err)
			}
		}
		out[child] = crashState{exists: true, content: content}
	}
	return nil
}

// MixedWorkload builds a deterministic create/write/overwrite/delete
// workload of nFiles small files across two directories, with periodic
// syncs, checkpoints, and cleaner passes — the mix the acceptance
// criteria name. Sized so files span several blocks and deletions
// leave fragmented segments for the cleaner.
func MixedWorkload(nFiles, blockSize int) []CrashOp {
	var ops []CrashOp
	ops = append(ops,
		CrashOp{Kind: OpMkdir, Path: "/a"},
		CrashOp{Kind: OpMkdir, Path: "/b"},
	)
	pattern := func(i, gen int) []byte {
		b := make([]byte, 3*blockSize+blockSize/2)
		for j := range b {
			b[j] = byte(i*31 + gen*7 + j)
		}
		return b
	}
	name := func(i int) string {
		dir := "/a"
		if i%2 == 1 {
			dir = "/b"
		}
		return fmt.Sprintf("%s/f%02d", dir, i)
	}
	for i := 0; i < nFiles; i++ {
		p := name(i)
		ops = append(ops,
			CrashOp{Kind: OpCreate, Path: p},
			CrashOp{Kind: OpWrite, Path: p, Off: 0, Data: pattern(i, 0)},
		)
		switch i % 4 {
		case 1:
			// Overwrite, killing the first generation's blocks.
			ops = append(ops, CrashOp{Kind: OpWrite, Path: p, Off: 0, Data: pattern(i, 1)})
		case 2:
			ops = append(ops, CrashOp{Kind: OpTruncate, Path: p, Size: int64(blockSize / 2)})
		}
		if i%3 == 2 {
			ops = append(ops, CrashOp{Kind: OpSync})
		}
		if i%5 == 4 {
			ops = append(ops, CrashOp{Kind: OpCheckpoint})
		}
		if i > 0 && i%6 == 5 {
			// Delete an older file, fragmenting its segments.
			ops = append(ops, CrashOp{Kind: OpRemove, Path: name(i - 3)})
		}
		if i > 0 && i%8 == 7 {
			ops = append(ops, CrashOp{Kind: OpClean})
		}
	}
	ops = append(ops, CrashOp{Kind: OpCheckpoint})
	return ops
}

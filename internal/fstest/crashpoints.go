package fstest

// Crash-point enumeration: run an operation stream once to count its
// disk writes, then reconstruct, for every write k, the image power cut
// during write k leaves behind, and require full recovery each time.
// This verifies the paper's §4.4 claim — after any crash LFS restores a
// consistent state from the checkpoint regions plus a roll-forward of
// the log tail — at every crash point instead of a few hand-picked
// ones, and holds the FFS baseline's fsck to the same battery.
//
// The file system is a Target: how to make, recover and check a volume,
// and what a returned step acknowledges. The stream is any []Op: a
// script (MixedWorkload) or a generated one (RandomWorkload), whose ops
// may legitimately fail. The recording pass drives a vfs.Model beside
// the file system, holds every step to the model's error class, and
// takes each path's history from the model's tree after each step; it
// ends with a clean unmount and a remount that must hold the model's
// tree. Recovered contents must match a state the path held no earlier
// than the durable floor: the newest step the target's rule
// acknowledges whose writes all precede the cut.
//
// Replays are deterministic because the simulated clock, the disk
// model, and the file systems are: an identical operation stream
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
// for every point, expecting each step's recorded error class; it
// needs no snapshot capability and cross-checks the snapshot path in
// tests.

import (
	"errors"
	"fmt"
	"strings"

	"lfs/internal/disk"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// Target is a file system under the crash battery: how a volume is
// made, recovered after a crash and checked, and what a returned step
// acknowledges. fstest imports no file system; each one's constructor
// lives with the experiments that sweep it.
type Target struct {
	// Format makes an empty volume on d and mounts it.
	Format func(d *disk.Disk) (vfs.FileSystem, error)
	// Mount recovers the image a crash left on d and mounts it, and
	// reports whether recovery replayed anything past the last
	// checkpoint.
	Mount func(d *disk.Disk) (fs vfs.FileSystem, rolledForward bool, err error)
	// MountCheckpoint, where the file system has one, mounts d from its
	// last checkpoint alone, writing nothing.
	MountCheckpoint func(d *disk.Disk) (vfs.FileSystem, error)
	// Check checks a mounted volume; Fsck checks the unmounted image on
	// d as the offline tool does.
	Check func(fs vfs.FileSystem) (*vfs.CheckReport, error)
	Fsck  func(d *disk.Disk) (*vfs.CheckReport, error)
	// Clean runs one cleaner pass, for OpClean; nil where the file
	// system has no cleaner.
	Clean func(fs vfs.FileSystem) error

	// The acknowledgement rule: what a returned step makes durable. A
	// returned Sync acknowledges every step up to it, on every target.
	// Checkpoints counts the volume's completed checkpoints, nil where
	// it has none: a step during which the count grew acknowledges every
	// step up to it too. With Names set, a returned create, mkdir,
	// remove, link or rename acknowledges the names it touched, while a
	// file's bytes are durable only as of the newest acknowledged step.
	Checkpoints func(fs vfs.FileSystem) int64
	Names       bool
}

// CrashConfig configures a crash-point enumeration run.
type CrashConfig struct {
	// Target is the file system swept.
	Target Target
	// DiskCapacity is the simulated disk size in bytes.
	DiskCapacity int64
	// Workload is the operation stream, scripted or generated.
	Workload []Op
	// Torn tears the fatal write at its sector-boundary midpoint
	// instead of losing it whole, exercising torn checkpoint regions
	// and partially written log units.
	Torn bool
	// Stride tests every Stride-th crash point (default 1: all).
	Stride int
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
	// Stage names the failed step: "replay", "restore",
	// "mount-noroll", "check-noroll", "mount", "check", "content",
	// "reuse", "check-reuse", "unmount", "fsck".
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

// crashHistory is the full version history of one path: the state it
// entered at each workload step that changed it. Step -1 is the
// pre-workload state; before its first entry the path is absent.
type crashHistory struct {
	steps  []int
	states []pathState
}

// record notes the path's state after step, if the step changed it.
func (h *crashHistory) record(step int, st pathState) {
	last := pathState{}
	if n := len(h.states); n > 0 {
		last = h.states[n-1]
	}
	if last.equal(st) {
		return
	}
	h.steps = append(h.steps, step)
	h.states = append(h.states, st)
}

// at returns the state in effect after the given step.
func (h *crashHistory) at(step int) pathState {
	st := pathState{}
	for i, s := range h.steps {
		if s > step {
			break
		}
		st = h.states[i]
	}
	return st
}

// window returns every distinct state the path held between floor and
// last inclusive — the states recovery is allowed to restore when step
// floor is the newest durable one.
func (h *crashHistory) window(floor, last int) []pathState {
	out := []pathState{h.at(floor)}
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
	// and checkpoint counts after workload step i; stepErrs[i] is the
	// error class step i returned.
	stepWrites []int64
	stepCkpts  []int64
	stepErrs   []string
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

// apply performs op on fs, giving OpClean to the target's cleaner.
func (r *crashRunner) apply(fs vfs.FileSystem, op Op) (Result, error) {
	if op.Kind == OpClean && r.cfg.Target.Clean != nil {
		return Result{}, r.cfg.Target.Clean(fs)
	}
	return op.Apply(fs)
}

// checkpoints is the volume's completed-checkpoint count, 0 where the
// target does not checkpoint.
func (r *crashRunner) checkpoints(fs vfs.FileSystem) int64 {
	if r.cfg.Target.Checkpoints == nil {
		return 0
	}
	return r.cfg.Target.Checkpoints(fs)
}

// recordPass runs the workload fault-free beside the reference model,
// counting writes and checkpoints per step and building every path's
// history from the model. On the snapshot path the volume lives on a
// copy-on-write store and every disk write leaves behind the image a
// crash during it would start from. It ends with a clean unmount and a
// remount that must hold the model's tree.
func (r *crashRunner) recordPass() error {
	var d *disk.Disk
	if r.cfg.Replay {
		d = disk.NewMem(r.cfg.DiskCapacity, sim.NewClock())
	} else {
		r.geom = disk.GeometryForCapacity(r.cfg.DiskCapacity)
		r.base = disk.NewCowMemStore(r.geom.TotalBytes())
		r.rec = &snapRecorder{Store: r.base, torn: r.cfg.Torn}
		var err error
		if d, err = disk.New(r.rec, r.geom, disk.WrenIVModel(), sim.NewClock()); err != nil {
			return fmt.Errorf("fstest: recording disk: %w", err)
		}
	}
	// Format and mount writes precede the fault policy, so write
	// numbering starts at the first workload-induced write.
	fs, err := r.cfg.Target.Format(d)
	if err != nil {
		return fmt.Errorf("fstest: format: %w", err)
	}
	if r.rec != nil {
		r.rec.armed = true // snapshot numbering matches policy write numbering from here
	}
	d.SetFaultPolicy(&disk.CrashPlan{}) // pure sequence counter
	r.baseCkpts = r.checkpoints(fs)
	model := vfs.NewModel(nil)
	r.histories = make(map[string]*crashHistory)
	if err := r.recordStep(-1, model); err != nil {
		return err
	}
	n := len(r.cfg.Workload)
	r.stepWrites, r.stepCkpts, r.stepErrs = make([]int64, n), make([]int64, n), make([]string, n)
	for i, op := range r.cfg.Workload {
		r.opsExecuted++
		got, err := r.apply(fs, op)
		if diff := diffModel(model, op, got, err); diff != "" {
			return fmt.Errorf("fstest: recording step %d (%s): %s", i, op, diff)
		}
		r.stepErrs[i] = errClass(err)
		if err := r.recordStep(i, model); err != nil {
			return err
		}
		r.stepWrites[i] = d.PolicyWrites()
		r.stepCkpts[i] = r.checkpoints(fs)
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
	// A clean unmount persists everything.
	if err := fs.Unmount(); err != nil {
		return fmt.Errorf("fstest: unmounting the recording pass: %w", err)
	}
	remounted, _, err := r.cfg.Target.Mount(d)
	if err != nil {
		return fmt.Errorf("fstest: remounting the recording pass: %w", err)
	}
	if diff := treeDiff(remounted, model); diff != "" {
		return fmt.Errorf("fstest: remounted after a clean unmount: %s", diff)
	}
	return nil
}

// recordStep extends every path's history with its state in the
// model's tree after step; a path the tree lacks is absent.
func (r *crashRunner) recordStep(step int, model vfs.FileSystem) error {
	now, err := snapshotTree(model)
	if err != nil {
		return fmt.Errorf("fstest: walking the model after step %d: %w", step, err)
	}
	for p := range now {
		if r.histories[p] == nil {
			r.histories[p] = &crashHistory{}
		}
	}
	for _, p := range sortedKeys(r.histories) {
		r.histories[p].record(step, now[p])
	}
	return nil
}

// floorFor returns the newest workload step guaranteed durable when
// writes 1..k-1 persisted: the step acknowledged everything before it —
// it completed a checkpoint, or it returned from Sync — and every write
// up to the step's end reached disk.
// Step -1 (the formatted empty volume) is always durable. The floor is
// conservative — a checkpoint inside step i whose region write
// persisted but whose step issued later writes is not counted — which
// only weakens the assertion, never makes it wrong.
func (r *crashRunner) floorFor(k int64) int {
	floor := -1
	prev := r.baseCkpts
	for i, op := range r.cfg.Workload {
		if (op.Kind == OpSync || r.stepCkpts[i] > prev) && r.stepWrites[i] <= k-1 {
			floor = i
		}
		prev = r.stepCkpts[i]
	}
	return floor
}

// nameFloor returns the newest step, no older than floor, that made
// path p's name durable by the target's Names rule when writes 1..k-1
// persisted: a namespace op that succeeded on p or on a directory above
// it, with all of its writes on disk.
func (r *crashRunner) nameFloor(p string, floor int, k int64) int {
	if !r.cfg.Target.Names {
		return floor
	}
	touches := func(q string) bool {
		return q != "" && (q == p || strings.HasPrefix(p, q+"/"))
	}
	for i := floor + 1; i <= r.lastStep; i++ {
		switch op := r.cfg.Workload[i]; op.Kind {
		case OpCreate, OpMkdir, OpRemove, OpLink, OpRename:
			if r.stepErrs[i] == "ok" && r.stepWrites[i] <= k-1 && (touches(op.Path) || touches(op.Path2)) {
				floor = i
			}
		}
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

	d := disk.NewMem(r.cfg.DiskCapacity, sim.NewClock())
	fs, err := r.cfg.Target.Format(d)
	if err != nil {
		fail("replay", "fstest: format: %v", err)
		return false, fails
	}
	d.SetFaultPolicy(&disk.CrashPlan{CutWrite: k, TearFatalWrite: r.cfg.Torn})
	crashed := false
	for i, op := range r.cfg.Workload {
		r.opsExecuted++
		_, err := r.apply(fs, op)
		if errors.Is(err, disk.ErrPowerLoss) {
			crashed = true
			break
		}
		if got := errClass(err); got != r.stepErrs[i] {
			fail("replay", "step %d (%s) returned %s, the recording pass %s", i, op, got, r.stepErrs[i])
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
// the post-crash image: a checkpoint-only mount, where the target has
// one, must be consistent, full recovery must mount and check clean,
// recovered contents must be explainable by the model's history, the
// volume must take new files and check clean again, and the unmounted
// image must pass fsck. Both crash-point strategies share
// it.
func (r *crashRunner) verifyRecovery(d *disk.Disk, k int64) (rolledForward bool, fails []CrashFailure) {
	fail := func(stage, format string, args ...any) {
		fails = append(fails, CrashFailure{
			CutWrite: k, Torn: r.cfg.Torn, Stage: stage,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	check := func(stage string, rep *vfs.CheckReport, err error) {
		if err != nil {
			fail(stage, "checker failed: %v", err)
		} else if !rep.Ok() {
			fail(stage, "%s", strings.Join(rep.Problems, "; "))
		}
	}
	t := r.cfg.Target

	// (1) Checkpoint-only recovery. Mounting without roll-forward
	// reads only the checkpoint regions and the structures they name,
	// writes nothing, and must already yield a consistent tree —
	// the paper's base recovery guarantee.
	if t.MountCheckpoint != nil {
		if fsNR, err := t.MountCheckpoint(d); err != nil {
			fail("mount-noroll", "checkpoint-only mount failed: %v", err)
		} else {
			rep, err := t.Check(fsNR)
			check("check-noroll", rep, err)
		}
	}

	// (2) Full recovery.
	fs2, rolledForward, err := t.Mount(d)
	if err != nil {
		fail("mount", "recovery mount failed: %v", err)
		return false, fails
	}
	rep, err := t.Check(fs2)
	check("check", rep, err)

	// (3) Recovered contents must be explainable: every path must be
	// in some state it actually held at or after the durable floor,
	// and nothing the target acknowledged may be lost.
	fails = append(fails, r.verifyContent(fs2, k)...)

	// (4) The recovered volume must take new work — allocation from
	// what recovery left — and still check clean.
	for _, op := range reuseWorkload {
		if _, err := r.apply(fs2, op); err != nil {
			fail("reuse", "%s: %v", op, err)
			break
		}
	}
	rep, err = t.Check(fs2)
	check("check-reuse", rep, err)

	// (5) The offline-tool path: unmount (stabilising recovery with a
	// checkpoint), then fsck the image exactly as the offline tool
	// would.
	if err := fs2.Unmount(); err != nil {
		fail("unmount", "%v", err)
		return rolledForward, fails
	}
	if rep, err := t.Fsck(d); err != nil {
		fail("fsck", "%v", err)
	} else if !rep.Ok() {
		fail("fsck", "%s", strings.Join(rep.Problems, "; "))
	}
	return rolledForward, fails
}

// reuseWorkload is what the battery does on every recovered volume
// before checking it again: a few new files written, one removed, a
// cleaner pass where the target has one, and a Sync. Its names are no
// workload's.
var reuseWorkload = func() []Op {
	var ops []Op
	for i := range 4 {
		p := fmt.Sprintf("/reuse%d", i)
		data := make([]byte, 9000)
		for j := range data {
			data[j] = byte(i*53 + j)
		}
		ops = append(ops, Op{Kind: OpCreate, Path: p}, Op{Kind: OpWrite, Path: p, Data: data})
	}
	return append(ops, Op{Kind: OpRemove, Path: "/reuse1"}, Op{Kind: OpClean}, Op{Kind: OpSync})
}()

// verifyContent walks the recovered tree and checks every path —
// recovered or known to the history — against the history window
// [floor, lastStep], where floor is the newest step that acknowledged
// the path. Where the target acknowledges names, a file whose bytes
// changed after the durable floor need only be a file.
func (r *crashRunner) verifyContent(fs vfs.FileSystem, k int64) []CrashFailure {
	var fails []CrashFailure
	fail := func(format string, args ...any) {
		fails = append(fails, CrashFailure{
			CutWrite: k, Torn: r.cfg.Torn, Stage: "content",
			Detail: fmt.Sprintf(format, args...),
		})
	}
	recovered, err := snapshotTree(fs)
	if err != nil {
		fail("walking the recovered tree: %v", err)
		return fails
	}
	floor := r.floorFor(k)
	for _, p := range sortedKeys(r.histories) {
		h := r.histories[p]
		got := recovered[p]
		bytesAcked := !r.cfg.Target.Names || len(h.window(floor, r.lastStep)) == 1
		from := r.nameFloor(p, floor, k)
		ok := false
		for _, st := range h.window(from, r.lastStep) {
			if got.equal(st) || !bytesAcked && got.sameKind(st) {
				ok = true
				break
			}
		}
		if !ok {
			fail("%s: recovered as %s, which matches no state the path held between durable step %d and step %d (floor state: %s)",
				p, got.describe(), from, r.lastStep, h.at(from).describe())
		}
	}
	for _, p := range sortedKeys(recovered) {
		if r.histories[p] == nil {
			fail("%s: recovered but never created by the workload", p)
		}
	}
	return fails
}

// MixedWorkload builds a deterministic create/write/overwrite/delete
// workload of nFiles small files across two directories, with periodic
// syncs, checkpoints, and cleaner passes — the mix the acceptance
// criteria name. Sized so files span several blocks and deletions
// leave fragmented segments for the cleaner.
func MixedWorkload(nFiles, blockSize int) []Op {
	ops := []Op{{Kind: OpMkdir, Path: "/a"}, {Kind: OpMkdir, Path: "/b"}}
	for i := 0; i < nFiles; i++ {
		p := mixedPath(i)
		ops = append(ops, Op{Kind: OpCreate, Path: p}, MixedWrite(i, 0, blockSize))
		switch i % 4 {
		case 1:
			// Overwrite, killing the first generation's blocks.
			ops = append(ops, MixedWrite(i, 1, blockSize))
		case 2:
			ops = append(ops, Op{Kind: OpTruncate, Path: p, Size: int64(blockSize / 2)})
		}
		if i%3 == 2 {
			ops = append(ops, Op{Kind: OpSync})
		}
		if i%5 == 4 {
			ops = append(ops, Op{Kind: OpCheckpoint})
		}
		if i > 0 && i%6 == 5 {
			// Delete an older file, fragmenting its segments.
			ops = append(ops, Op{Kind: OpRemove, Path: mixedPath(i - 3)})
		}
		if i > 0 && i%8 == 7 {
			ops = append(ops, Op{Kind: OpClean})
		}
	}
	return append(ops, Op{Kind: OpCheckpoint})
}

// MixedWrite is MixedWorkload's write of generation gen of file i: 3.5
// blocks from offset 0, in a pattern unique to (i, gen). MixedWorkload
// writes generations 0 and 1 and removes only files whose index is ≡ 2
// (mod 6), so a workload that extends it may overwrite any other file
// with later generations.
func MixedWrite(i, gen, blockSize int) Op {
	data := make([]byte, 3*blockSize+blockSize/2)
	for j := range data {
		data[j] = byte(i*31 + gen*7 + j)
	}
	return Op{Kind: OpWrite, Path: mixedPath(i), Data: data}
}

// mixedPath names MixedWorkload's file i.
func mixedPath(i int) string {
	dir := "/a"
	if i%2 == 1 {
		dir = "/b"
	}
	return fmt.Sprintf("%s/f%02d", dir, i)
}

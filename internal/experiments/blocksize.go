package experiments

import (
	"fmt"
	"strings"

	"lfs/internal/core"
	"lfs/internal/workload"
)

// BlockSizeRow measures the block-size trade-off: small blocks reduce
// internal fragmentation for the office environment's ~1 KB files but
// cost more per-block CPU and metadata; large blocks waste space. The
// paper chose 4 KB for LFS against SunOS's 8 KB.
type BlockSizeRow struct {
	BlockSize int
	// CreatePS is small-file creation throughput.
	CreatePS float64
	// ReadPS is the post-flush whole-file read rate.
	ReadPS float64
	// StorageOverhead is live log bytes per user byte (internal
	// fragmentation plus metadata).
	StorageOverhead float64
}

// BlockSizeAblation runs the paper's 1 KB small-file workload on a
// 64 MB LFS under each block size from 1 to 16 KB.
func BlockSizeAblation() ([]BlockSizeRow, error) {
	// files is sized so even the 16 KB sweep point (one block per
	// 1 KB file) fits the admission limit: 3000 × 16 KB = 48 MB of
	// 54 MB.
	const (
		capacity = 64 << 20
		files    = 3000
		fileSize = 1024
	)
	var rows []BlockSizeRow
	for _, bs := range []int{1024, 2048, 4096, 8192, 16384} {
		cfg := core.DefaultConfig()
		cfg.BlockSize = bs
		cfg.CacheBlocks = (15 << 20) / bs
		sys, err := NewLFS(capacity, cfg)
		if err != nil {
			return nil, fmt.Errorf("blocksize %d: %w", bs, err)
		}
		lfs := sys.System.(*core.FS)
		res, err := workload.SmallFile(sys, workload.SmallFileOpts{
			NumFiles: files, FileSize: fileSize,
			Dir: "/s", Seed: 42,
		})
		if err != nil {
			return nil, fmt.Errorf("blocksize %d: %w", bs, err)
		}
		row := BlockSizeRow{
			BlockSize: bs,
			CreatePS:  res.Create.OpsPerSec(),
			ReadPS:    res.Read.OpsPerSec(),
		}
		// Overhead measured at the point of peak population: the
		// delete phase already ran, so recreate the population.
		userBytes := int64(files * fileSize)
		payload := make([]byte, fileSize)
		for i := 0; i < files; i++ {
			p := fmt.Sprintf("/s/g%06d", i)
			if err := sys.Create(p); err != nil {
				return nil, err
			}
			if err := sys.Write(p, 0, payload); err != nil {
				return nil, err
			}
		}
		if err := sys.Sync(); err != nil {
			return nil, err
		}
		row.StorageOverhead = float64(lfs.LiveBytes()) / float64(userBytes)
		rows = append(rows, row)
		if err := audit(lfs, fmt.Sprintf("blocksize %d", bs)); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// runBlockSize is the table's ablation-blocksize row.
func runBlockSize() (Result, error) {
	rows, err := BlockSizeAblation()
	return tabular(rows, err, FormatBlockSize, CSVBlockSize)
}

// FormatBlockSize renders the sweep.
func FormatBlockSize(rows []BlockSizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation - LFS block size on the 1KB small-file workload\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %18s\n", "block", "create/s", "read/s", "live bytes/user")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.1f %10.1f %18.2f\n",
			fmt.Sprintf("%dB", r.BlockSize), r.CreatePS, r.ReadPS, r.StorageOverhead)
	}
	return b.String()
}

package experiments

import (
	"fmt"

	"lfs/internal/disk"
	"lfs/internal/obs"
	"lfs/internal/server"
	"lfs/internal/sim"
)

// The client sweeps — concurrency, critpath and sharding — measure the
// paper's "many users sharing one server" environment (§4.1): closed
// loops of 4 KB write+fsync operations driven by server.Run, one fresh
// file system per point. This file is the driver they share.

// ClientOpts scales the client-count sweeps: N closed-loop clients
// against one file system. Concurrency runs LFS (group commit on and
// off) and FFS; CritPath runs the group-commit LFS only, with tracing
// on. Both take the same options so their curves line up point for
// point.
type ClientOpts struct {
	Capacity int64
	// ClientCounts is the sweep's x-axis; it should start at 1 so
	// speedups have a base.
	ClientCounts []int
	// OpsPerClient is how many commits each client issues.
	OpsPerClient int
}

// DefaultClientOpts returns the paper-scale sweep: 1..16 clients, 64
// commits each, no think time (the clients are disk-bound, which is
// where the batching question is interesting).
func DefaultClientOpts() ClientOpts {
	return ClientOpts{
		Capacity:     128 << 20,
		ClientCounts: []int{1, 2, 4, 8, 16},
		OpsPerClient: 64,
	}
}

// clientLoad is the load every client sweep offers: 4 KB writes, each
// fsynced, over eight files per client, back to back, seed 42. Only
// the client count and the commits per client vary.
func clientLoad(clients, opsPerClient int) server.Config {
	return server.Config{
		Clients:        clients,
		OpsPerClient:   opsPerClient,
		WriteSize:      4096,
		FilesPerClient: 8,
		Seed:           42,
	}
}

// sweep runs cell once per point, in order, and collects the rows. The
// points are checked once, before any cell runs — a sweep needs at
// least one, each at least 1 — and every error is prefixed with the
// experiment's name and the point it failed at.
func sweep[R any](name string, points []int, cell func(n int) (R, error)) ([]R, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("%s: empty sweep", name)
	}
	for _, n := range points {
		if n < 1 {
			return nil, fmt.Errorf("%s: sweep point %d", name, n)
		}
	}
	rows := make([]R, 0, len(points))
	for _, n := range points {
		r, err := cell(n)
		if err != nil {
			return nil, fmt.Errorf("%s at %d: %w", name, n, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// clientRun is one closed-loop run as the sweeps report it.
type clientRun struct {
	server.Result
	// P50/P95/P99 are operation-latency percentiles, bucket-interpolated
	// from the clients' latency histograms merged.
	P50, P95, P99 sim.Duration
	// WritesPerOp is disk write requests per operation, summed over the
	// disks runClients was given.
	WritesPerOp float64
}

// runClients drives load against fsys. A target with a metrics sampler
// is pumped at the sampler's interval during the run and gets one
// forced sample at its end, so every series' last value is the
// end-of-run aggregate (DESIGN.md §10).
func runClients(fsys server.FS, load server.Config, disks ...*disk.Disk) (clientRun, error) {
	res, err := server.Run(fsys, load)
	if err != nil {
		return clientRun{}, err
	}
	if s, ok := fsys.(interface{ SampleMetricsNow() }); ok {
		s.SampleMetricsNow()
	}
	merged := obs.NewLatencyHistogram()
	for i := range res.PerClient {
		if err := merged.Merge(res.PerClient[i].Latency); err != nil {
			return clientRun{}, fmt.Errorf("merging latency histograms: %w", err)
		}
	}
	//lfslint:allow floataccum converting reported histogram quantiles for display; the result feeds no accounting state
	toDur := func(q float64) sim.Duration { return sim.Duration(merged.Quantile(q) * float64(sim.Second)) }
	var writes int64
	for _, d := range disks {
		writes += d.Stats().Writes
	}
	return clientRun{
		Result: res,
		P50:    toDur(0.5), P95: toDur(0.95), P99: toDur(0.99),
		WritesPerOp: float64(writes) / float64(res.Ops),
	}, nil
}

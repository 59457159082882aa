package experiments

import "testing"

// TestSweepRejectsBadPoints runs sweep's checks through all three
// client sweeps: an empty point list and a zero point are refused
// before any cell runs, so even a full-scale sweep fails at once.
func TestSweepRejectsBadPoints(t *testing.T) {
	runs := []struct {
		name string
		run  func(points []int) error
	}{
		{"concurrency", func(p []int) error {
			o := DefaultClientOpts()
			o.ClientCounts = p
			_, err := Concurrency(o)
			return err
		}},
		{"critpath", func(p []int) error {
			o := DefaultClientOpts()
			o.ClientCounts = p
			_, err := CritPath(o)
			return err
		}},
		{"sharding", func(p []int) error {
			o := DefaultShardingOpts()
			o.ShardCounts = p
			_, err := Sharding(o)
			return err
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			for _, points := range [][]int{nil, {0}, {1, 0}} {
				if err := r.run(points); err == nil {
					t.Errorf("points %v accepted", points)
				}
			}
		})
	}
}

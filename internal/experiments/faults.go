package experiments

import (
	"fmt"
	"time"

	"telecast/internal/workload"
)

// RunFaults drives the kill/recover chaos scenarios through both runners:
// the outage scenario (two snapshot/kill/recover cycles of the hot shard
// under region-concentrated churn) on the discrete-event and the wall-clock
// executor, and the cdn-collapse scenario (egress shrunk to 40% mid-run) on
// the wall-clock executor. Every run finishes with every shard recovered, the
// epoch-based online validator clean and the event-stream counters
// reconciled against the runner's — the acceptance criterion of the
// fault-injection subsystem.
func RunFaults(setup Setup) ([]ScenarioResult, error) {
	runs := []struct {
		name      string
		wallclock bool
	}{
		{"outage", false},
		{"outage", true},
		{"cdn-collapse", true},
	}
	rows := make([]ScenarioResult, 0, len(runs))
	for _, r := range runs {
		sc, err := workload.FromCatalog(r.name, workload.Knobs{
			Seed:       setup.Seed,
			Audience:   setup.Audience,
			Duration:   30 * time.Second,
			ViewAngles: setup.ViewAngles,
		})
		if err != nil {
			return nil, err
		}
		row, err := setup.execute(sc, r.wallclock, workload.WithValidation(true))
		if err != nil {
			return nil, fmt.Errorf("faults %w", err)
		}
		if row.FaultsInjected == 0 {
			return nil, fmt.Errorf("faults %s/%s: scenario injected no faults", r.name, row.Executor)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

package experiments

import (
	"fmt"
	"time"

	"telecast/internal/workload"
)

// ChurnResult is the dynamic-behaviour experiment: a flash crowd followed by
// steady churn with view changes, the scenario behind the paper's third
// challenge (§I). It has no figure counterpart — the paper evaluates joins
// and view changes in aggregate — but exercises the complete adaptation
// machinery under load and proves the invariants hold throughout.
type ChurnResult struct {
	Samples []workload.Sample
	// Joins counts admitted joins; Rejected the admission-control refusals,
	// kept apart so the acceptance arithmetic matches the overlay's.
	Joins, Rejected, Leaves, ViewChanges int
	PeakViewers                          int
	// FinalAcceptance is ρ over the whole run, including churn.
	FinalAcceptance float64
	// MinAcceptance is the worst ρ observed at any sample.
	MinAcceptance float64
}

// RunChurn executes the default churn scenario sized by the setup, on the
// deterministic discrete-event runner with invariant validation at every
// sample.
func RunChurn(setup Setup) (ChurnResult, error) {
	cfg := workload.DefaultConfig(setup.Seed)
	cfg.FlashCrowd = setup.Audience / 2
	cfg.ViewAngles = []float64{0, 1.5707963267948966, 3.141592653589793}
	cfg.InboundMbps = setup.InboundMbps
	sc, err := workload.FlashChurn(cfg)
	if err != nil {
		return ChurnResult{}, fmt.Errorf("churn: %w", err)
	}
	res, err := setup.execute(sc, false,
		workload.WithHorizon(cfg.Duration),
		workload.WithSampleEvery(time.Second),
		workload.WithValidation(true),
	)
	if err != nil {
		return ChurnResult{}, fmt.Errorf("churn: %w", err)
	}
	return ChurnResult{
		Samples:         res.Samples,
		Joins:           res.Joins,
		Rejected:        res.Rejected,
		Leaves:          res.Leaves,
		ViewChanges:     res.ViewChanges,
		PeakViewers:     res.PeakViewers,
		FinalAcceptance: res.FinalAcceptance,
		MinAcceptance:   res.MinAcceptance,
	}, nil
}
